//! Syntactic foundations for the query-rewritability workspace.
//!
//! This crate provides the vocabulary of the paper *"A Journey to the
//! Frontiers of Query Rewritability"* (PODS 2022): interned symbols,
//! hash-consed ground terms (constants and Skolem terms), facts and indexed
//! database instances, conjunctive queries and unions thereof, tuple
//! generating dependencies (existential rules) and theories, together with a
//! text parser, pretty printers, and Gaifman-graph utilities.
//!
//! # Conventions
//!
//! * Ground terms are hash-consed in a process-global arena ([`TermId`]),
//!   which makes the paper's Observation 8 — `Ch(T,F) = Ch(T,D)` holds
//!   *literally*, not merely up to isomorphism — directly observable as set
//!   equality of instances.
//! * Skolem functions follow the paper's Definition 3/4: a Skolem function is
//!   determined by the *isomorphism type* of the (skolemized) rule head and
//!   the canonical index of the existential variable, so two rules with
//!   isomorphic heads share Skolem functions.
//! * Rules of the shape `∀x (true ⇒ ∃z R(x,z))` (used by the paper's theory
//!   `T_d`, Definition 45) are modelled with the builtin domain predicate
//!   [`Pred::dom`], whose single argument ranges over the active domain.
//!
//! # Text syntax
//!
//! The parser ([`parser`]) accepts a Prolog-flavoured syntax:
//!
//! ```text
//! # a theory: variables start with an uppercase letter, '_' or '?'
//! human(X) -> mother(X, Y).          # Y is existential (head-only)
//! mother(X, Y) -> human(Y).
//! true -> r(X, X), g(X, X).          # fully existential head ("loop" rule)
//! dom(X) -> r(X, Z).                 # domain-scoped rule ("pins" rule)
//!
//! # a query: answer variables are listed in the head
//! ?(X) :- mother(X, Y), human(Y).
//!
//! # an instance: all arguments are constants
//! human(abel). mother(abel, eve).
//! ```

pub mod atom;
pub mod display;
pub mod gaifman;
pub mod instance;
pub mod parser;
pub mod query;
pub mod rule;
pub mod symbol;
pub mod term;

pub use atom::{Fact, Pred};
pub use instance::{FactIdx, FactRef, Instance, InstanceSnapshot, StorageStats};
pub use parser::{parse_instance, parse_query, parse_theory, ParseError};
/// The unseeded word-hash maps for id-keyed point lookups (see
/// [`qr_storage::FxHasher`]), for crates above this one, and the tuple
/// hash that [`Instance::index_of_hashed`] and [`Instance::insert_hashed`]
/// take.
pub use qr_storage::{tuple_hash, FxMap, FxSet, TupleHash};
pub use query::{ConjunctiveQuery, QAtom, QTerm, Ucq, Var};
pub use rule::{Tgd, Theory};
pub use symbol::Symbol;
pub use term::{SkolemFn, TermId};

/// A tuple of ground terms, used as query answers and as frontier images.
pub type Tuple = Vec<TermId>;
