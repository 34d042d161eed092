//! Process-global string interning.
//!
//! Symbols are cheap (`u32`) copies; the backing strings are leaked once and
//! live for the duration of the process, so [`Symbol::as_str`] can hand out
//! `&'static str`. Every call — [`Symbol::as_str`] and ordering included —
//! takes the interner mutex; only the returned string outlives the lock.
//! Equality and hashing compare indices (interning is injective); ordering
//! compares the strings, so no result depends on interning order.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned string.
///
/// Two symbols are equal iff they intern the same string, so equality and
/// hashing are `u32` operations. Symbols order as their strings do.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

struct InternerState {
    /// Keyed by names from parsed text, so it keeps the seeded default
    /// hasher (an unseeded one would let crafted names collide).
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static Mutex<InternerState> {
    static INTERNER: OnceLock<Mutex<InternerState>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(InternerState {
            by_name: HashMap::new(),
            names: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns `name`, returning its unique symbol.
    pub fn intern(name: &str) -> Symbol {
        let mut state = interner().lock().expect("symbol interner poisoned");
        if let Some(&id) = state.by_name.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(state.names.len()).expect("symbol table overflow");
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        state.names.push(leaked);
        state.by_name.insert(leaked, id);
        Symbol(id)
    }

    /// Returns the interned string.
    pub fn as_str(self) -> &'static str {
        let state = interner().lock().expect("symbol interner poisoned");
        state.names[self.0 as usize]
    }

    /// The constant `#i` that [`crate::ConjunctiveQuery::freeze`] gives
    /// variable `i` (`#` opens a parser comment, so no parsed name is one).
    pub fn frozen(i: usize) -> Symbol {
        Symbol::intern(&format!("#{i}"))
    }

    /// `true` iff `name` is reserved for [`Symbol::frozen`] constants.
    pub fn is_frozen_name(name: &str) -> bool {
        name.starts_with('#')
    }

    /// The raw interner index (stable for the process lifetime).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> Ordering {
        if self == other {
            return Ordering::Equal;
        }
        let state = interner().lock().expect("symbol interner poisoned");
        state.names[self.0 as usize].cmp(state.names[other.0 as usize])
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(value: &str) -> Self {
        Symbol::intern(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("abel");
        let b = Symbol::intern("abel");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "abel");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        assert_ne!(Symbol::intern("r"), Symbol::intern("g"));
    }

    #[test]
    fn symbols_order_by_text_not_by_interning_order() {
        let z = Symbol::intern("zz_interned_first");
        let a = Symbol::intern("aa_interned_second");
        assert!(z.index() < a.index());
        assert!(a < z);
        assert_eq!(z.cmp(&z), Ordering::Equal);
    }

    #[test]
    fn frozen_constants_are_shared_per_index() {
        assert_eq!(Symbol::frozen(3), Symbol::frozen(3));
        assert_ne!(Symbol::frozen(3), Symbol::frozen(4));
        assert!(Symbol::is_frozen_name(Symbol::frozen(3).as_str()));
        assert!(!Symbol::is_frozen_name("abel"));
    }
}
