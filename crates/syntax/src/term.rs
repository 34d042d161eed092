//! Hash-consed ground terms: constants and Skolem terms.
//!
//! The chase of the paper (Section 3) uses the *Skolem naming convention*:
//! the term created by a rule application is a function of the Skolem
//! function symbol and the frontier tuple, nothing else. Hash-consing every
//! ground term in a process-global arena makes the chase deterministic and
//! makes Observation 8 (`Ch(T,F) = Ch(T,D)` for `D ⊆ F ⊆ Ch(T,D)`, *literal*
//! equality) hold by construction.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

use crate::symbol::Symbol;

/// An interned Skolem function symbol (the paper's `f_i^τ`, Definition 3).
///
/// A Skolem function is identified by a *tag* — a canonical rendering of the
/// isomorphism type `τ` of the rule head together with the index `i` of the
/// existential variable — plus its arity (the number of frontier variables).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SkolemFn(u32);

struct SkolemData {
    tag: Symbol,
    arity: u32,
}

/// A hash-consed ground term: either a constant or a Skolem term.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

/// The observable shape of a ground term.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TermData {
    /// A constant from the original instance.
    Const(Symbol),
    /// A term invented by the chase: `f(args…)`.
    Skolem(SkolemFn, Vec<TermId>),
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum TermKey {
    Const(Symbol),
    Skolem(SkolemFn, Box<[TermId]>),
}

#[derive(Default)]
struct Arena {
    terms: Vec<TermKey>,
    by_key: HashMap<TermKey, u32>,
    skolems: Vec<SkolemData>,
    skolems_by_key: HashMap<(Symbol, u32), u32>,
}

fn arena() -> &'static RwLock<Arena> {
    static ARENA: OnceLock<RwLock<Arena>> = OnceLock::new();
    ARENA.get_or_init(|| RwLock::new(Arena::default()))
}

impl SkolemFn {
    /// Interns a Skolem function symbol with the given tag and arity.
    pub fn intern(tag: Symbol, arity: u32) -> SkolemFn {
        let mut a = arena().write().expect("term arena poisoned");
        if let Some(&id) = a.skolems_by_key.get(&(tag, arity)) {
            return SkolemFn(id);
        }
        let id = u32::try_from(a.skolems.len()).expect("skolem table overflow");
        a.skolems.push(SkolemData { tag, arity });
        a.skolems_by_key.insert((tag, arity), id);
        SkolemFn(id)
    }

    /// The canonical tag of this Skolem function.
    pub fn tag(self) -> Symbol {
        arena().read().expect("term arena poisoned").skolems[self.0 as usize].tag
    }

    /// Number of arguments (frontier size).
    pub fn arity(self) -> u32 {
        arena().read().expect("term arena poisoned").skolems[self.0 as usize].arity
    }
}

impl fmt::Debug for SkolemFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.tag())
    }
}

impl TermId {
    /// The hash-consed constant term for `name`.
    pub fn constant(name: Symbol) -> TermId {
        Self::intern(TermKey::Const(name))
    }

    /// The hash-consed Skolem term `f(args…)`.
    ///
    /// # Panics
    /// Panics if `args.len()` does not match the arity of `f`.
    pub fn skolem(f: SkolemFn, args: &[TermId]) -> TermId {
        assert_eq!(
            args.len(),
            f.arity() as usize,
            "skolem arity mismatch for {:?}",
            f
        );
        Self::intern(TermKey::Skolem(f, args.into()))
    }

    fn intern(key: TermKey) -> TermId {
        {
            let a = arena().read().expect("term arena poisoned");
            if let Some(&id) = a.by_key.get(&key) {
                return TermId(id);
            }
        }
        let mut a = arena().write().expect("term arena poisoned");
        if let Some(&id) = a.by_key.get(&key) {
            return TermId(id);
        }
        let id = u32::try_from(a.terms.len()).expect("term arena overflow");
        a.terms.push(key.clone());
        a.by_key.insert(key, id);
        TermId(id)
    }

    /// Returns the shape of this term.
    pub fn data(self) -> TermData {
        let a = arena().read().expect("term arena poisoned");
        match &a.terms[self.0 as usize] {
            TermKey::Const(s) => TermData::Const(*s),
            TermKey::Skolem(f, args) => TermData::Skolem(*f, args.to_vec()),
        }
    }

    /// `true` iff the term is a constant of some original instance.
    pub fn is_const(self) -> bool {
        matches!(
            arena().read().expect("term arena poisoned").terms[self.0 as usize],
            TermKey::Const(_)
        )
    }

    /// Nesting depth: constants have depth 0, `f(t…)` has depth
    /// `1 + max(depth(t…))` (and depth 1 for nullary Skolem functions).
    pub fn depth(self) -> usize {
        match self.data() {
            TermData::Const(_) => 0,
            TermData::Skolem(_, args) => 1 + args.iter().map(|t| t.depth()).max().unwrap_or(0),
        }
    }

    /// The raw arena index.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.data() {
            TermData::Const(s) => write!(f, "{s}"),
            TermData::Skolem(fun, args) => {
                write!(f, "{}(", fun.tag())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a:?}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_hash_consed() {
        let a = TermId::constant(Symbol::intern("a"));
        let b = TermId::constant(Symbol::intern("a"));
        assert_eq!(a, b);
        assert!(a.is_const());
        assert_eq!(a.depth(), 0);
    }

    #[test]
    fn skolem_terms_are_hash_consed() {
        let f = SkolemFn::intern(Symbol::intern("f_test"), 1);
        let a = TermId::constant(Symbol::intern("a"));
        let t1 = TermId::skolem(f, &[a]);
        let t2 = TermId::skolem(f, &[a]);
        assert_eq!(t1, t2);
        assert!(!t1.is_const());
        assert_eq!(t1.depth(), 1);
        let t3 = TermId::skolem(f, &[t1]);
        assert_ne!(t3, t1);
        assert_eq!(t3.depth(), 2);
    }

    #[test]
    #[should_panic(expected = "skolem arity mismatch")]
    fn skolem_arity_is_checked() {
        let f = SkolemFn::intern(Symbol::intern("f_arity"), 2);
        let a = TermId::constant(Symbol::intern("a"));
        let _ = TermId::skolem(f, &[a]);
    }

    #[test]
    fn display_nests() {
        let f = SkolemFn::intern(Symbol::intern("mum"), 1);
        let abel = TermId::constant(Symbol::intern("abel"));
        let t = TermId::skolem(f, &[TermId::skolem(f, &[abel])]);
        assert_eq!(format!("{t}"), "mum(mum(abel))");
    }
}
