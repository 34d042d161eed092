//! The backtracking homomorphism matcher.
//!
//! Matches a list of atoms (a query body or a rule body) against an indexed
//! instance. Candidate facts are drawn from the most selective available
//! index; atoms are ordered so that each atom shares as many variables as
//! possible with the atoms matched before it.
//!
//! Two entry styles exist:
//!
//! * [`for_each_match`] plans the atom order on every call (fine for
//!   one-shot query evaluation);
//! * [`JoinPlan`] compiles the order **once** and is re-used across many
//!   invocations — the chase compiles one plan per rule enumeration path
//!   and replays it for every delta fact, avoiding the per-trigger sorting
//!   and atom cloning the one-shot path would incur.
//!
//! The builtin `dom/1` predicate is supported: `dom(X)` matches every term
//! of the instance's active domain (this is how the paper's
//! `∀x (true ⇒ ∃z R(x,z))` rules are chased).

use std::collections::HashSet;

use qr_syntax::query::{ConjunctiveQuery, QAtom, QTerm, Var};
use qr_syntax::{Instance, TermId};

use crate::kernel::HomKernel;

/// A partial variable assignment, indexed by [`Var`] index.
pub type Assignment = Vec<Option<TermId>>;

/// Counters filled in by the planned matcher, feeding the chase's
/// observability layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchCounters {
    /// Candidate facts (or domain terms) scanned while extending partial
    /// assignments — the matcher's raw work measure.
    pub candidates: u64,
}

/// A compiled join order over a fixed atom list.
///
/// The order is chosen once, statically: non-`dom` atoms greedily maximize
/// the number of positions bound by constants, the externally-bound
/// variables declared at compile time, or variables of earlier atoms;
/// `dom` atoms run last (they only filter or sweep the active domain).
/// Index selection (which positional index to probe) stays dynamic per
/// call, since it depends on the actual bindings.
#[derive(Clone, Debug)]
pub struct JoinPlan {
    atoms: Vec<QAtom>,
    /// Indices into `atoms`, in execution order.
    order: Vec<usize>,
    nvars: usize,
}

impl JoinPlan {
    /// Compiles a plan for `atoms`, assuming the variables in `bound` are
    /// already assigned when the plan runs. `nvars` must be at least
    /// `1 + max` variable index used in `atoms` and any later `fixed` list.
    pub fn compile(atoms: Vec<QAtom>, nvars: usize, bound: &[Var]) -> JoinPlan {
        let mut bound_vars: HashSet<Var> = bound.iter().copied().collect();
        let mut remaining: Vec<usize> = (0..atoms.len())
            .filter(|&i| !atoms[i].pred.is_dom())
            .collect();
        let mut order: Vec<usize> = Vec::with_capacity(atoms.len());
        while !remaining.is_empty() {
            let (pos_in_remaining, _) = remaining
                .iter()
                .enumerate()
                .map(|(ri, &i)| {
                    let bound_positions = atoms[i]
                        .args
                        .iter()
                        .filter(|t| match t {
                            QTerm::Const(_) => true,
                            QTerm::Var(v) => bound_vars.contains(v),
                        })
                        .count();
                    // Higher bound-position count first; tie-break on fewer
                    // free (actually-unbound) positions, then original atom
                    // order.
                    let free_positions = atoms[i].args.len() - bound_positions;
                    (ri, (usize::MAX - bound_positions, free_positions, i))
                })
                .min_by_key(|(_, key)| *key)
                .expect("remaining is non-empty");
            let atom_idx = remaining.remove(pos_in_remaining);
            bound_vars.extend(atoms[atom_idx].vars());
            order.push(atom_idx);
        }
        order.extend((0..atoms.len()).filter(|&i| atoms[i].pred.is_dom()));
        JoinPlan {
            atoms,
            order,
            nvars,
        }
    }

    /// The planned atoms, in declaration (not execution) order.
    pub fn atoms(&self) -> &[QAtom] {
        &self.atoms
    }

    /// The compiled execution order, as indices into [`atoms`](Self::atoms).
    /// The order is static per plan; candidate facts are drawn from
    /// ascending-index postings and unbound `dom` sweeps walk the domain in
    /// first-occurrence order, so matches are enumerated in lexicographic
    /// order of (fact index, domain index) along this order — the chase's
    /// incremental replay relies on this to reconstruct event order without
    /// re-running joins.
    pub fn execution_order(&self) -> &[usize] {
        &self.order
    }

    /// The variable-table size the plan was compiled for.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Enumerates all homomorphisms from the planned atoms into `inst`
    /// extending `fixed`, accumulating scan work into `counters`.
    ///
    /// The callback receives each complete assignment and returns `true`
    /// to continue enumerating. Returns `true` iff the enumeration ran to
    /// completion (was not stopped by the callback).
    pub fn for_each_match(
        &self,
        inst: &Instance,
        fixed: &[(Var, TermId)],
        counters: &mut MatchCounters,
        mut cb: impl FnMut(&Assignment) -> bool,
    ) -> bool {
        self.for_each_match_with_facts(inst, fixed, counters, |asg, _| cb(asg))
    }

    /// Like [`for_each_match`](Self::for_each_match), but the callback also
    /// receives the *match trail*: for every non-`dom` atom, the pair
    /// `(atom index in declaration order, index of the matched fact)`.
    /// The chase uses this to record trigger provenance without re-probing
    /// the instance's hash indexes fact-by-fact.
    pub fn for_each_match_with_facts(
        &self,
        inst: &Instance,
        fixed: &[(Var, TermId)],
        counters: &mut MatchCounters,
        mut cb: impl FnMut(&Assignment, &[(usize, usize)]) -> bool,
    ) -> bool {
        let mut asg: Assignment = vec![None; self.nvars];
        for (v, t) in fixed {
            match asg[v.index()] {
                Some(prev) if prev != *t => return true, // inconsistent fixing
                _ => asg[v.index()] = Some(*t),
            }
        }
        let mut trail: Vec<(usize, usize)> = Vec::with_capacity(self.atoms.len());
        search(
            &self.atoms,
            &self.order,
            0,
            inst,
            NO_BANNED_FACT,
            &mut asg,
            &mut trail,
            counters,
            &mut cb,
        )
    }
}

/// Enumerates all homomorphisms from `atoms` into `inst` extending `fixed`,
/// planning the join order per call.
///
/// `nvars` must be at least `1 + max` variable index used in `atoms` and
/// `fixed`. The callback receives each complete assignment and returns
/// `true` to continue enumerating; returning `false` stops the search.
///
/// Returns `true` iff the enumeration ran to completion (was not stopped by
/// the callback).
pub fn for_each_match(
    atoms: &[QAtom],
    nvars: usize,
    inst: &Instance,
    fixed: &[(Var, TermId)],
    mut cb: impl FnMut(&Assignment) -> bool,
) -> bool {
    let mut asg: Assignment = vec![None; nvars];
    for (v, t) in fixed {
        match asg[v.index()] {
            Some(prev) if prev != *t => return true, // inconsistent fixing: no matches
            _ => asg[v.index()] = Some(*t),
        }
    }
    let order = plan(atoms, &asg, inst);
    let mut counters = MatchCounters::default();
    let mut trail: Vec<(usize, usize)> = Vec::with_capacity(atoms.len());
    search(
        atoms,
        &order,
        0,
        inst,
        NO_BANNED_FACT,
        &mut asg,
        &mut trail,
        &mut counters,
        &mut |asg, _| cb(asg),
    )
}

/// Sentinel for [`search`]'s `banned` parameter: no fact is excluded.
const NO_BANNED_FACT: usize = usize::MAX;

/// `true` iff some homomorphism from `atoms` into `inst` extends `fixed`
/// **without ever matching the fact at index `banned_fact`**. Scan work is
/// accumulated into `counters`.
///
/// This is the core-finding fold's primitive: with `ψ` frozen into `inst`
/// so that atom `i` became fact `i`, a match avoiding fact `k` is exactly a
/// retraction of `ψ` onto `ψ ∖ {atom k}` (the identity embeds the smaller
/// query back, so no reverse check is needed). `atoms` must not mention the
/// builtin `dom` predicate — `dom` sweeps the instance's full domain, which
/// a banned fact cannot be removed from.
pub fn exists_match_excluding(
    atoms: &[QAtom],
    nvars: usize,
    inst: &Instance,
    fixed: &[(Var, TermId)],
    banned_fact: usize,
    counters: &mut MatchCounters,
) -> bool {
    debug_assert!(
        atoms.iter().all(|a| !a.pred.is_dom()),
        "exists_match_excluding does not support dom atoms"
    );
    let mut asg: Assignment = vec![None; nvars];
    for (v, t) in fixed {
        match asg[v.index()] {
            Some(prev) if prev != *t => return false, // inconsistent fixing
            _ => asg[v.index()] = Some(*t),
        }
    }
    let order = plan(atoms, &asg, inst);
    let mut trail: Vec<(usize, usize)> = Vec::with_capacity(atoms.len());
    !search(
        atoms,
        &order,
        0,
        inst,
        banned_fact,
        &mut asg,
        &mut trail,
        counters,
        &mut |_, _| false,
    )
}

/// Dynamic atom ordering: `dom` atoms last; otherwise greedily maximize the
/// number of already-bound positions, tie-breaking on fewer index
/// candidates in the instance at hand.
fn plan(atoms: &[QAtom], asg: &Assignment, inst: &Instance) -> Vec<usize> {
    let mut bound: HashSet<Var> = asg
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|_| Var(i as u32)))
        .collect();
    let mut remaining: Vec<usize> = (0..atoms.len())
        .filter(|&i| !atoms[i].pred.is_dom())
        .collect();
    let mut order: Vec<usize> = Vec::with_capacity(atoms.len());
    while !remaining.is_empty() {
        let (pos_in_remaining, _) = remaining
            .iter()
            .enumerate()
            .map(|(ri, &i)| {
                let bound_positions = atoms[i]
                    .args
                    .iter()
                    .filter(|t| match t {
                        QTerm::Const(_) => true,
                        QTerm::Var(v) => bound.contains(v),
                    })
                    .count();
                let candidates = inst.with_pred(atoms[i].pred).len();
                // Higher bound-position count first, then fewer candidates.
                (ri, (usize::MAX - bound_positions, candidates))
            })
            .min_by_key(|(_, key)| *key)
            .expect("remaining is non-empty");
        let atom_idx = remaining.remove(pos_in_remaining);
        bound.extend(atoms[atom_idx].vars());
        order.push(atom_idx);
    }
    order.extend((0..atoms.len()).filter(|&i| atoms[i].pred.is_dom()));
    order
}

#[allow(clippy::too_many_arguments)]
fn search(
    atoms: &[QAtom],
    order: &[usize],
    depth: usize,
    inst: &Instance,
    banned: usize,
    asg: &mut Assignment,
    trail: &mut Vec<(usize, usize)>,
    counters: &mut MatchCounters,
    cb: &mut impl FnMut(&Assignment, &[(usize, usize)]) -> bool,
) -> bool {
    let Some(&atom_idx) = order.get(depth) else {
        return cb(asg, trail);
    };
    let atom = &atoms[atom_idx];
    if atom.pred.is_dom() {
        let v = match atom.args[0] {
            QTerm::Var(v) => v,
            QTerm::Const(c) => {
                // A ground dom atom: holds iff the constant is in the domain.
                let t = TermId::constant(c);
                if inst.contains_term(t) {
                    return search(
                        atoms,
                        order,
                        depth + 1,
                        inst,
                        banned,
                        asg,
                        trail,
                        counters,
                        cb,
                    );
                }
                return true;
            }
        };
        if let Some(t) = asg[v.index()] {
            if inst.contains_term(t) {
                return search(
                    atoms,
                    order,
                    depth + 1,
                    inst,
                    banned,
                    asg,
                    trail,
                    counters,
                    cb,
                );
            }
            return true;
        }
        for &t in inst.domain() {
            counters.candidates += 1;
            asg[v.index()] = Some(t);
            if !search(
                atoms,
                order,
                depth + 1,
                inst,
                banned,
                asg,
                trail,
                counters,
                cb,
            ) {
                asg[v.index()] = None;
                return false;
            }
        }
        asg[v.index()] = None;
        return true;
    }

    // Pick the most selective index over bound positions.
    let mut candidates: Option<&[u32]> = None;
    for (pos, t) in atom.args.iter().enumerate() {
        let bound_term = match t {
            QTerm::Const(c) => Some(TermId::constant(*c)),
            QTerm::Var(v) => asg[v.index()],
        };
        if let Some(term) = bound_term {
            let list = inst.with_pred_pos_term(atom.pred, pos as u32, term);
            if candidates.is_none_or(|c| list.len() < c.len()) {
                candidates = Some(list);
            }
        }
    }
    let candidates = candidates.unwrap_or_else(|| inst.with_pred(atom.pred));

    for &fidx in candidates {
        let fidx = fidx as usize;
        if fidx == banned {
            continue;
        }
        counters.candidates += 1;
        let fact = inst.fact(fidx);
        let mut newly_bound: Vec<Var> = Vec::new();
        let mut ok = true;
        for (pos, t) in atom.args.iter().enumerate() {
            let ft = fact.args[pos];
            match t {
                QTerm::Const(c) => {
                    if TermId::constant(*c) != ft {
                        ok = false;
                        break;
                    }
                }
                QTerm::Var(v) => match asg[v.index()] {
                    Some(b) if b != ft => {
                        ok = false;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        asg[v.index()] = Some(ft);
                        newly_bound.push(*v);
                    }
                },
            }
        }
        if ok {
            trail.push((atom_idx, fidx));
            let keep_going = search(
                atoms,
                order,
                depth + 1,
                inst,
                banned,
                asg,
                trail,
                counters,
                cb,
            );
            trail.pop();
            if !keep_going {
                for v in newly_bound {
                    asg[v.index()] = None;
                }
                return false;
            }
        }
        for v in newly_bound {
            asg[v.index()] = None;
        }
    }
    true
}

/// Finds one homomorphism from `atoms` into `inst` extending `fixed`.
pub fn find_hom(
    atoms: &[QAtom],
    nvars: usize,
    inst: &Instance,
    fixed: &[(Var, TermId)],
) -> Option<Assignment> {
    let mut found = None;
    for_each_match(atoms, nvars, inst, fixed, |asg| {
        found = Some(asg.clone());
        false
    });
    found
}

/// `true` iff some homomorphism from `atoms` into `inst` extends `fixed`.
pub fn exists_match(
    atoms: &[QAtom],
    nvars: usize,
    inst: &Instance,
    fixed: &[(Var, TermId)],
) -> bool {
    find_hom(atoms, nvars, inst, fixed).is_some()
}

/// All homomorphisms (up to `limit`; `0` means no limit).
pub fn all_homs(
    atoms: &[QAtom],
    nvars: usize,
    inst: &Instance,
    fixed: &[(Var, TermId)],
    limit: usize,
) -> Vec<Assignment> {
    let mut out = Vec::new();
    for_each_match(atoms, nvars, inst, fixed, |asg| {
        out.push(asg.clone());
        limit == 0 || out.len() < limit
    });
    out
}

fn nvars_of(q: &ConjunctiveQuery) -> usize {
    q.var_names().len()
}

/// All answer tuples of `q` over `inst` (deduplicated; up to `limit`
/// distinct tuples, `0` meaning no limit). For a Boolean query the result
/// is either empty or the singleton empty tuple.
pub fn all_answers(q: &ConjunctiveQuery, inst: &Instance, limit: usize) -> Vec<Vec<TermId>> {
    let mut seen: HashSet<Vec<TermId>> = HashSet::new();
    let mut out = Vec::new();
    // The scratch tuple is reused across matches: a duplicate hit costs a
    // hash lookup and nothing else — no per-match allocation.
    let mut scratch: Vec<TermId> = Vec::with_capacity(q.answer_vars().len());
    for_each_match(q.atoms(), nvars_of(q), inst, &[], |asg| {
        scratch.clear();
        scratch.extend(
            q.answer_vars()
                .iter()
                .map(|v| asg[v.index()].expect("answer variable bound by a complete match")),
        );
        if !seen.contains(&scratch) {
            seen.insert(scratch.clone());
            out.push(scratch.clone());
        }
        limit == 0 || out.len() < limit
    });
    out
}

/// `true` iff some disjunct of the UCQ holds: `inst ⊨ ⋁ qᵢ(ans)`. The
/// disjuncts share one [`HomKernel`] that lives for this call.
pub fn holds_ucq(u: &qr_syntax::Ucq, inst: &Instance, ans: &[TermId]) -> bool {
    let kernel = HomKernel::new();
    u.disjuncts().iter().any(|d| kernel.holds(d, inst, ans))
}

/// `true` iff `inst ⊨ q(ans)`.
///
/// Runs on a [`HomKernel`] that lives for this one call: cheap prefilters
/// (predicate presence, anchored-position postings) refute hopeless checks
/// before any backtracking. Callers that check in a loop own one kernel
/// ([`HomKernel::holds`]), so the query's compiled component plans are
/// built once.
pub fn holds(q: &ConjunctiveQuery, inst: &Instance, ans: &[TermId]) -> bool {
    HomKernel::new().holds(q, inst, ans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_syntax::parser::{parse_instance, parse_query};
    use qr_syntax::Symbol;

    fn c(name: &str) -> TermId {
        TermId::constant(Symbol::intern(name))
    }

    #[test]
    fn evaluates_path_query() {
        let inst = parse_instance("e(a,b). e(b,c). e(c,d).").unwrap();
        let q = parse_query("?(X,Z) :- e(X,Y), e(Y,Z).").unwrap();
        let mut ans = all_answers(&q, &inst, 0);
        ans.sort();
        assert_eq!(ans, vec![vec![c("a"), c("c")], vec![c("b"), c("d")]]);
    }

    #[test]
    fn holds_with_fixed_answers() {
        let inst = parse_instance("e(a,b). e(b,c).").unwrap();
        let q = parse_query("?(X) :- e(X,Y), e(Y,Z).").unwrap();
        assert!(holds(&q, &inst, &[c("a")]));
        assert!(!holds(&q, &inst, &[c("b")]));
    }

    #[test]
    fn boolean_queries() {
        let inst = parse_instance("e(a,b). e(b,a).").unwrap();
        let cycle = parse_query("? :- e(X,Y), e(Y,X).").unwrap();
        assert!(holds(&cycle, &inst, &[]));
        let triangle = parse_query("? :- e(X,Y), e(Y,Z), e(Z,X), e(X,X).").unwrap();
        assert!(!holds(&triangle, &inst, &[]));
    }

    #[test]
    fn repeated_variables_enforced() {
        let inst = parse_instance("e(a,b).").unwrap();
        let q = parse_query("? :- e(X,X).").unwrap();
        assert!(!holds(&q, &inst, &[]));
        let inst2 = parse_instance("e(a,a).").unwrap();
        assert!(holds(&q, &inst2, &[]));
    }

    #[test]
    fn constants_in_query() {
        let inst = parse_instance("e(a,b). e(c,b).").unwrap();
        let q = parse_query("?(X) :- e(a, Y), e(X, Y).").unwrap();
        let mut ans = all_answers(&q, &inst, 0);
        ans.sort();
        assert_eq!(ans, vec![vec![c("a")], vec![c("c")]]);
    }

    #[test]
    fn limits_respected() {
        let inst = parse_instance("e(a,b). e(b,c). e(c,d). e(d,a).").unwrap();
        let q = parse_query("?(X) :- e(X,Y).").unwrap();
        assert_eq!(all_answers(&q, &inst, 2).len(), 2);
        assert_eq!(all_answers(&q, &inst, 0).len(), 4);
    }

    #[test]
    fn empty_atom_list_matches_once() {
        let inst = parse_instance("e(a,b).").unwrap();
        let mut count = 0;
        for_each_match(&[], 0, &inst, &[], |_| {
            count += 1;
            true
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn dom_atom_ranges_over_domain() {
        use qr_syntax::query::VarPool;
        use qr_syntax::{Pred, QAtom};
        let inst = parse_instance("e(a,b). e(b,c).").unwrap();
        let mut pool = VarPool::new();
        let x = pool.var("X");
        let atoms = vec![QAtom::new(Pred::dom(), vec![QTerm::Var(x)])];
        let homs = all_homs(&atoms, 1, &inst, &[], 0);
        assert_eq!(homs.len(), 3); // a, b, c
    }

    #[test]
    fn inconsistent_fixed_yields_nothing() {
        let inst = parse_instance("e(a,b).").unwrap();
        let q = parse_query("?(X) :- e(X,Y).").unwrap();
        let v = q.answer_vars()[0];
        let homs = all_homs(q.atoms(), 2, &inst, &[(v, c("a")), (v, c("b"))], 0);
        assert!(homs.is_empty());
    }

    #[test]
    fn compiled_plan_matches_dynamic_planner() {
        let inst = parse_instance("e(a,b). e(b,c). e(c,d). p(b). p(c).").unwrap();
        let q = parse_query("?(X,Z) :- e(X,Y), p(Y), e(Y,Z).").unwrap();
        let plan = JoinPlan::compile(q.atoms().to_vec(), q.var_names().len(), &[]);
        let mut planned: Vec<Assignment> = Vec::new();
        let mut counters = MatchCounters::default();
        plan.for_each_match(&inst, &[], &mut counters, |asg| {
            planned.push(asg.clone());
            true
        });
        let mut dynamic: Vec<Assignment> = Vec::new();
        for_each_match(q.atoms(), q.var_names().len(), &inst, &[], |asg| {
            dynamic.push(asg.clone());
            true
        });
        planned.sort();
        dynamic.sort();
        assert_eq!(planned, dynamic);
        assert!(counters.candidates > 0, "scan work is counted");
    }

    #[test]
    fn compiled_plan_respects_fixed_bindings() {
        let inst = parse_instance("e(a,b). e(b,c).").unwrap();
        let q = parse_query("?(X) :- e(X,Y), e(Y,Z).").unwrap();
        let x = q.answer_vars()[0];
        let plan = JoinPlan::compile(q.atoms().to_vec(), q.var_names().len(), &[x]);
        let mut n = 0;
        plan.for_each_match(&inst, &[(x, c("a"))], &mut MatchCounters::default(), |_| {
            n += 1;
            true
        });
        assert_eq!(n, 1);
        // Inconsistent fixing enumerates nothing but completes.
        let completed = plan.for_each_match(
            &inst,
            &[(x, c("a")), (x, c("b"))],
            &mut MatchCounters::default(),
            |_| panic!("no match expected"),
        );
        assert!(completed);
    }

    #[test]
    fn compiled_plan_orders_bound_atoms_first() {
        // With X pre-bound, the atom e(X,Y) should run before e(Y,Z) even
        // though both have the same predicate.
        let q = parse_query("? :- e(Y,Z), e(X,Y).").unwrap();
        let x = q
            .var_names()
            .iter()
            .position(|n| n.as_str() == "X")
            .map(|i| Var(i as u32))
            .unwrap();
        let plan = JoinPlan::compile(q.atoms().to_vec(), q.var_names().len(), &[x]);
        assert_eq!(plan.order[0], 1, "the X-anchored atom runs first");
    }

    #[test]
    fn compile_tie_break_prefers_fewer_free_positions() {
        // Both atoms bind exactly one position (X); the tie must break on
        // the number of actually-unbound positions, so the binary atom
        // (one free position) runs before the ternary one (two free
        // positions), regardless of declaration order.
        let q = parse_query("? :- t(X,Y,Z), b(X,W).").unwrap();
        let x = q
            .var_names()
            .iter()
            .position(|n| n.as_str() == "X")
            .map(|i| Var(i as u32))
            .unwrap();
        let plan = JoinPlan::compile(q.atoms().to_vec(), q.var_names().len(), &[x]);
        assert_eq!(plan.order, vec![1, 0], "fewer free positions first");
        // Declared the other way around, the order is the same pair of
        // atoms (declaration order is only the final tie-break).
        let q = parse_query("? :- b(X,W), t(X,Y,Z).").unwrap();
        let x = q
            .var_names()
            .iter()
            .position(|n| n.as_str() == "X")
            .map(|i| Var(i as u32))
            .unwrap();
        let plan = JoinPlan::compile(q.atoms().to_vec(), q.var_names().len(), &[x]);
        assert_eq!(plan.order, vec![0, 1], "fewer free positions first");
    }

    #[test]
    fn all_answers_deduplicates_and_respects_limit() {
        // The 1-step reachability pairs out of `a` appear through two
        // distinct matches each (via b and via c); duplicates must be
        // dropped and the limit counts distinct tuples.
        let inst = parse_instance("e(a,b). e(a,c). e(b,d). e(c,d).").unwrap();
        let q = parse_query("?(X,Z) :- e(X,Y), e(Y,Z).").unwrap();
        let ans = all_answers(&q, &inst, 0);
        assert_eq!(ans, vec![vec![c("a"), c("d")]]);
        let ans = all_answers(&q, &inst, 1);
        assert_eq!(ans.len(), 1);
    }
}
