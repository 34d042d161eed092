//! Process-global string interning.
//!
//! Symbols are cheap (`u32`) copies; the backing strings are leaked once and
//! live for the duration of the process, so [`Symbol::as_str`] can hand out
//! `&'static str`. Every call — [`Symbol::as_str`] included — takes the
//! interner mutex; only the returned string outlives the lock.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned string.
///
/// Two symbols are equal iff they intern the same string, so equality and
/// hashing are `u32` operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct InternerState {
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

    /// A fresh symbol guaranteed not to collide with previously interned
    /// names, derived from `stem`. Useful for generated variable names.
    pub fn fresh(stem: &str) -> Symbol {
        let mut state = interner().lock().expect("symbol interner poisoned");
        let mut counter = state.names.len();
        loop {
            let candidate = format!("{stem}#{counter}");
            if !state.by_name.contains_key(candidate.as_str()) {
                let id = u32::try_from(state.names.len()).expect("symbol table overflow");
                let leaked: &'static str = Box::leak(candidate.into_boxed_str());
                state.names.push(leaked);
                state.by_name.insert(leaked, id);
                return Symbol(id);
            }
            counter += 1;
        }
    }

    /// The raw interner index (stable for the process lifetime).
    pub fn index(self) -> u32 {
        self.0
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
    fn fresh_symbols_do_not_collide() {
        let f1 = Symbol::fresh("x");
        let f2 = Symbol::fresh("x");
        assert_ne!(f1, f2);
        // And a later intern of the same text maps back to the fresh symbol.
        assert_eq!(Symbol::intern(f1.as_str()), f1);
    }
}
