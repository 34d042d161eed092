//! Repeating a rewrite or a containment check interns nothing: every name
//! they generate (rule variables, frozen constants) is a function of the
//! query it names, so the process-global symbol and term tables stay
//! bounded. One `#[test]` only, because the tables are shared by every
//! thread of the test binary.

use qr_rewrite::{rewrite, RewriteBudget};
use qr_syntax::{parse_query, parse_theory, Symbol, TermId};

/// Interns a new probe symbol and a new probe constant term, returning
/// their indices.
fn probe(name: &str) -> (u32, u32) {
    let s = Symbol::intern(name);
    (s.index(), TermId::constant(s).index())
}

#[test]
fn repeated_rewrites_and_containment_checks_intern_nothing() {
    let theory = parse_theory(
        "human(Y) -> mother(Y,Z).
         mother(X,Y) -> human(Y).
         mother(X,Y) -> parent(X,Y).
         parent(X,Y), parent(Y,Z) -> grandparent(X,Z).",
    )
    .unwrap();
    let query = parse_query("?(X) :- grandparent(X,G), human(G).").unwrap();
    let budget = RewriteBudget::default();

    let warm = rewrite(&theory, &query, budget).unwrap();
    assert!(warm.is_complete());
    let disjuncts = warm.ucq.disjuncts();
    assert!(disjuncts.len() > 2, "the fixture takes several steps");
    let verdicts: Vec<bool> = disjuncts
        .iter()
        .map(|d| qr_hom::contains(d, &query))
        .collect();
    assert!(verdicts[0], "the first disjunct is the query's core");

    let (sym0, term0) = probe("interner-growth-probe-0");
    for i in 0..100 {
        let again = rewrite(&theory, &query, budget).unwrap();
        assert_eq!(again.ucq, warm.ucq);
        let j = i % disjuncts.len();
        assert_eq!(qr_hom::contains(&disjuncts[j], &query), verdicts[j]);
    }
    let (sym1, term1) = probe("interner-growth-probe-1");
    // Each probe interns one symbol and one term of its own.
    assert_eq!(sym1 - sym0 - 1, 0, "symbols interned by repeated work");
    assert_eq!(term1 - term0 - 1, 0, "terms interned by repeated work");
}
