//! The semi-oblivious Skolem chase (Section 3 of the paper) and the
//! machinery built on top of it: provenance (birth atoms, ancestors,
//! minimal supports), model checking, `Core(T,D)` and the termination
//! taxonomy of Section 5 (core termination / FES, all-instances
//! termination).
//!
//! The chase is a semi-decision procedure: `Ch(T,D)` is infinite for most
//! theories studied in the paper, so every entry point takes an explicit
//! [`ChaseBudget`] and reports whether a fixpoint was reached or the budget
//! was exhausted.

pub mod cert;
pub mod core_term;
pub mod engine;
pub mod incremental;
pub mod model;
pub mod provenance;
pub mod sharded;
pub mod skolem;
pub mod stats;

pub use cert::{emit_chase_certs, ChaseCert, ChaseCertBundle};
pub use core_term::{
    all_instances_termination, core_of, core_termination, CoreTermBudget, CoreTermination,
};
pub use engine::{
    chase, chase_all, chase_all_with, chase_naive, chase_naive_with, chase_with, Chase, ChaseAll,
    ChaseBudget, ChaseOutcome, Derivation,
};
pub use incremental::{BatchMode, BatchStats, IncrementalChase, IncrementalStats, WriteBatch};
pub use model::is_model;
pub use provenance::{adversarial_ancestors, minimal_subset, minimal_support, Provenance};
pub use sharded::{chase_sharded, ShardMode, ShardStats};
pub use skolem::SkolemizedRule;
pub use stats::{ChaseStats, RoundStats};

use qr_syntax::{ConjunctiveQuery, Instance, TermId, Theory};

/// `true` iff `Ch_budget(T,D) ⊨ φ(ā)` — i.e. the bounded chase entails the
/// query. Sound for entailment; complete up to the budget.
pub fn entails(
    theory: &Theory,
    db: &Instance,
    query: &ConjunctiveQuery,
    answer: &[TermId],
    budget: ChaseBudget,
) -> bool {
    let result = chase(theory, db, budget);
    qr_hom::holds(query, &result.instance, answer)
}

/// The smallest `n` such that `Ch_n(T,D) ⊨ φ(ā)`, if one exists within the
/// budget (the quantity the paper's `Enough(n, φ, D, T)` is about).
pub fn first_entailment_depth(
    theory: &Theory,
    db: &Instance,
    query: &ConjunctiveQuery,
    answer: &[TermId],
    budget: ChaseBudget,
) -> Option<usize> {
    let result = chase(theory, db, budget);
    (0..=result.rounds).find(|&n| qr_hom::holds(query, &result.prefix(n), answer))
}
