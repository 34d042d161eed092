//! Model checking: does a finite instance satisfy a theory?
//!
//! `M ⊨ T` iff for every rule `β(x̄,ȳ) ⇒ ∃w̄ α(ȳ,w̄)` and every
//! homomorphism `σ` of the body into `M` there is an extension of `σ|ȳ`
//! matching the head inside `M`. This is the test behind the paper's
//! Definition 20 of core termination.

use qr_hom::matcher::{exists_match, for_each_match};
use qr_syntax::query::Var;
use qr_syntax::{Instance, TermId, Tgd, Theory};

/// `true` iff every rule of `theory` is satisfied in `inst`.
pub fn is_model(inst: &Instance, theory: &Theory) -> bool {
    theory.rules().iter().all(|r| rule_satisfied(inst, r))
}

/// `true` iff rule `r` is satisfied in `inst`; on failure
/// [`violating_trigger`] can produce a witness.
pub fn rule_satisfied(inst: &Instance, r: &Tgd) -> bool {
    violating_trigger(inst, r).is_none()
}

/// Finds a body homomorphism with no head witness, if any.
pub fn violating_trigger(inst: &Instance, r: &Tgd) -> Option<Vec<Option<TermId>>> {
    let nvars = r.var_names().len();
    let frontier = r.frontier();
    let mut violation = None;
    for_each_match(r.body(), nvars, inst, &[], |asg| {
        let fixed: Vec<(Var, TermId)> = frontier
            .iter()
            .map(|v| (*v, asg[v.index()].expect("frontier bound by body match")))
            .collect();
        if exists_match(r.head(), nvars, inst, &fixed) {
            true
        } else {
            violation = Some(asg.clone());
            false
        }
    });
    violation
}

/// Counts rule violations (distinct body triggers lacking a head witness),
/// up to `limit`. Useful in diagnostics and tests.
pub fn count_violations(inst: &Instance, theory: &Theory, limit: usize) -> usize {
    let mut count = 0;
    for r in theory.rules() {
        let nvars = r.var_names().len();
        let frontier = r.frontier();
        for_each_match(r.body(), nvars, inst, &[], |asg| {
            let fixed: Vec<(Var, TermId)> = frontier
                .iter()
                .map(|v| (*v, asg[v.index()].expect("frontier bound")))
                .collect();
            if !exists_match(r.head(), nvars, inst, &fixed) {
                count += 1;
            }
            limit == 0 || count < limit
        });
        if limit != 0 && count >= limit {
            return count;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_syntax::{parse_instance, parse_theory};

    #[test]
    fn closed_world_is_model() {
        let t = parse_theory("e(X,Y) -> e(Y,X).").unwrap();
        let m = parse_instance("e(a,b). e(b,a).").unwrap();
        assert!(is_model(&m, &t));
        let not_m = parse_instance("e(a,b).").unwrap();
        assert!(!is_model(&not_m, &t));
    }

    #[test]
    fn existential_witness_found() {
        let t = parse_theory("human(X) -> mother(X,Y).").unwrap();
        let m = parse_instance("human(abel). mother(abel, eve).").unwrap();
        assert!(is_model(&m, &t));
        let m2 = parse_instance("human(abel). mother(cain, eve).").unwrap();
        assert!(!is_model(&m2, &t));
    }

    #[test]
    fn loop_satisfies_infinite_demand() {
        // E(x,y) -> ∃z E(y,z) is satisfied by a single loop.
        let t = parse_theory("e(X,Y) -> e(Y,Z).").unwrap();
        let m = parse_instance("e(a,a).").unwrap();
        assert!(is_model(&m, &t));
    }

    #[test]
    fn dom_rule_checked_on_whole_domain() {
        let t = parse_theory("dom(X) -> r(X,Z).").unwrap();
        let m = parse_instance("r(a,b). r(b,b).").unwrap();
        assert!(is_model(&m, &t));
        let m2 = parse_instance("r(a,b). p(c).").unwrap();
        assert!(!is_model(&m2, &t)); // b and c lack outgoing r-edges
    }

    #[test]
    fn empty_body_rule_demands_witness() {
        let t = parse_theory("true -> r(X,X).").unwrap();
        assert!(is_model(&parse_instance("r(a,a).").unwrap(), &t));
        assert!(!is_model(&parse_instance("r(a,b).").unwrap(), &t));
    }

    #[test]
    fn violation_count() {
        let t = parse_theory("e(X,Y) -> e(Y,X).").unwrap();
        let m = parse_instance("e(a,b). e(c,d).").unwrap();
        assert_eq!(count_violations(&m, &t, 0), 2);
        assert_eq!(count_violations(&m, &t, 1), 1);
    }
}
