//! Conjunctive queries (CQs) and unions of conjunctive queries (UCQs).
//!
//! A CQ `φ(ȳ) = ∃x̄ β(x̄,ȳ)` is stored as its set of atoms plus the list of
//! answer (free) variables `ȳ`; all other variables are implicitly
//! existential. Variables are indices local to the query; a name table is
//! kept for display and round-tripping through the parser.

use std::collections::{HashMap, HashSet};

use crate::atom::Pred;
use crate::instance::Instance;
use crate::symbol::Symbol;
use crate::term::TermId;

/// A query-local variable (dense index into the query's name table).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var(pub u32);

impl Var {
    /// The variable's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A term position in a query atom: a variable or a constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum QTerm {
    /// A (free or existential) variable.
    Var(Var),
    /// A constant.
    Const(Symbol),
}

impl QTerm {
    /// Returns the variable, if this term is one.
    pub fn as_var(self) -> Option<Var> {
        match self {
            QTerm::Var(v) => Some(v),
            QTerm::Const(_) => None,
        }
    }
}

/// A (non-ground) atom `p(u₁,…,uₖ)` appearing in a query or rule.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct QAtom {
    /// The predicate.
    pub pred: Pred,
    /// Arguments; `args.len() == pred.arity()`.
    pub args: Box<[QTerm]>,
}

impl QAtom {
    /// Creates an atom, checking the arity.
    pub fn new(pred: Pred, args: impl Into<Box<[QTerm]>>) -> QAtom {
        let args = args.into();
        assert_eq!(
            args.len(),
            pred.arity() as usize,
            "arity mismatch constructing atom for {pred:?}"
        );
        QAtom { pred, args }
    }

    /// Iterates over the variables of the atom (with repetitions).
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.args.iter().filter_map(|t| t.as_var())
    }

    /// `true` iff `v` occurs in the atom.
    pub fn mentions(&self, v: Var) -> bool {
        self.vars().any(|u| u == v)
    }

    /// Applies a variable substitution, leaving unmapped variables alone.
    pub fn apply(&self, subst: &HashMap<Var, QTerm>) -> QAtom {
        QAtom {
            pred: self.pred,
            args: self
                .args
                .iter()
                .map(|t| match t {
                    QTerm::Var(v) => *subst.get(v).unwrap_or(t),
                    QTerm::Const(_) => *t,
                })
                .collect(),
        }
    }
}

/// A conjunctive query `φ(ȳ) = ∃x̄ β(x̄,ȳ)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ConjunctiveQuery {
    answer: Vec<Var>,
    atoms: Vec<QAtom>,
    var_names: Vec<Symbol>,
}

impl ConjunctiveQuery {
    /// Creates a query.
    ///
    /// # Panics
    /// Panics if a variable index is out of range of `var_names`, if the
    /// body is empty, or if an answer variable does not occur in any atom
    /// (unsafe query).
    pub fn new(answer: Vec<Var>, atoms: Vec<QAtom>, var_names: Vec<Symbol>) -> ConjunctiveQuery {
        assert!(
            !atoms.is_empty(),
            "conjunctive query must have a non-empty body"
        );
        let n = var_names.len() as u32;
        for a in &atoms {
            for v in a.vars() {
                assert!(v.0 < n, "variable index {v:?} out of range");
            }
        }
        for v in &answer {
            assert!(v.0 < n, "answer variable index {v:?} out of range");
            assert!(
                atoms.iter().any(|a| a.mentions(*v)),
                "answer variable {} does not occur in the body",
                var_names[v.index()]
            );
        }
        ConjunctiveQuery {
            answer,
            atoms,
            var_names,
        }
    }

    /// The answer (free) variables `ȳ`, in order.
    pub fn answer_vars(&self) -> &[Var] {
        &self.answer
    }

    /// The atoms of the body.
    pub fn atoms(&self) -> &[QAtom] {
        &self.atoms
    }

    /// Number of atoms — the paper's `|φ(ȳ)|`.
    pub fn size(&self) -> usize {
        self.atoms.len()
    }

    /// `true` iff the query has no answer variables (a Boolean CQ).
    pub fn is_boolean(&self) -> bool {
        self.answer.is_empty()
    }

    /// Display name of a variable.
    pub fn var_name(&self, v: Var) -> Symbol {
        self.var_names[v.index()]
    }

    /// The variable name table (indexed by [`Var`] index).
    pub fn var_names(&self) -> &[Symbol] {
        &self.var_names
    }

    /// All variables that occur in the body, in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for a in &self.atoms {
            for v in a.vars() {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// The existential variables: those occurring in the body but not free.
    pub fn existential_vars(&self) -> Vec<Var> {
        let ans: HashSet<Var> = self.answer.iter().copied().collect();
        self.vars()
            .into_iter()
            .filter(|v| !ans.contains(v))
            .collect()
    }

    /// Renumbers variables to `0..k` in first-occurrence order (answer
    /// variables first) and sorts atoms; the result is a deterministic
    /// representative used for cheap structural deduplication.
    ///
    /// Equal canonical forms imply isomorphic queries; the converse need not
    /// hold (full CQ isomorphism is graph isomorphism), so callers that need
    /// semantic deduplication must additionally use containment checks.
    pub fn canonical(&self) -> ConjunctiveQuery {
        self.canonical_with_map().0
    }

    /// [`canonical`](Self::canonical), additionally returning, for every
    /// atom of `self` (by position), the index of the canonical atom it
    /// became. Atoms merged by deduplication map to the same index. The
    /// core-finding fold uses this to carry per-atom annotations across
    /// re-canonicalization.
    pub fn canonical_with_map(&self) -> (ConjunctiveQuery, Vec<usize>) {
        // Each atom drags its set of origin positions through the sort /
        // dedup / renumber rounds.
        let mut tagged: Vec<(QAtom, Vec<usize>)> = self
            .atoms
            .iter()
            .enumerate()
            .map(|(i, a)| (a.clone(), vec![i]))
            .collect();
        let sort_dedup = |tagged: &mut Vec<(QAtom, Vec<usize>)>| {
            tagged.sort_by(|x, y| x.0.cmp(&y.0));
            let mut merged: Vec<(QAtom, Vec<usize>)> = Vec::with_capacity(tagged.len());
            for (a, origins) in tagged.drain(..) {
                match merged.last_mut() {
                    Some((prev, prev_origins)) if *prev == a => prev_origins.extend(origins),
                    _ => merged.push((a, origins)),
                }
            }
            *tagged = merged;
        };
        // Two renumber/sort rounds make the representative independent of
        // most incidental atom orderings.
        let mut answer = self.answer.clone();
        let mut names = self.var_names.clone();
        for _ in 0..2 {
            sort_dedup(&mut tagged);
            let mut remap: HashMap<Var, Var> = HashMap::new();
            let mut new_names = Vec::new();
            let touch = |v: Var, remap: &mut HashMap<Var, Var>, new_names: &mut Vec<Symbol>| {
                let next = Var(remap.len() as u32);
                *remap.entry(v).or_insert_with(|| {
                    new_names.push(names[v.index()]);
                    next
                })
            };
            for v in &answer {
                touch(*v, &mut remap, &mut new_names);
            }
            for (a, _) in &tagged {
                for v in a.vars() {
                    touch(v, &mut remap, &mut new_names);
                }
            }
            let subst: HashMap<Var, QTerm> =
                remap.iter().map(|(k, v)| (*k, QTerm::Var(*v))).collect();
            for (a, _) in tagged.iter_mut() {
                *a = a.apply(&subst);
            }
            answer = answer.iter().map(|v| remap[v]).collect();
            names = new_names;
        }
        sort_dedup(&mut tagged);
        let mut map = vec![0usize; self.atoms.len()];
        let mut atoms = Vec::with_capacity(tagged.len());
        for (new_idx, (a, origins)) in tagged.into_iter().enumerate() {
            for o in origins {
                map[o] = new_idx;
            }
            atoms.push(a);
        }
        (
            ConjunctiveQuery {
                answer,
                atoms,
                var_names: names,
            },
            map,
        )
    }

    /// Applies a substitution to every atom, keeping the same answer tuple
    /// shape (answer variables must be mapped to variables, if mapped).
    pub fn apply(&self, subst: &HashMap<Var, QTerm>) -> ConjunctiveQuery {
        let answer = self
            .answer
            .iter()
            .map(|v| match subst.get(v) {
                None => *v,
                Some(QTerm::Var(u)) => *u,
                Some(QTerm::Const(_)) => {
                    panic!("substitution maps answer variable {v:?} to a constant")
                }
            })
            .collect();
        ConjunctiveQuery {
            answer,
            atoms: self.atoms.iter().map(|a| a.apply(subst)).collect(),
            var_names: self.var_names.clone(),
        }
    }

    /// Freezes the query into its canonical instance: variable `i` becomes
    /// the reserved constant [`Symbol::frozen`]`(i)`. Returns the instance
    /// together with the variable-to-term mapping.
    pub fn freeze(&self) -> (Instance, HashMap<Var, TermId>) {
        let mut map = HashMap::new();
        for v in self.vars() {
            map.insert(v, TermId::constant(Symbol::frozen(v.index())));
        }
        let mut inst = Instance::new();
        for a in &self.atoms {
            let args: Vec<TermId> = a
                .args
                .iter()
                .map(|t| match t {
                    QTerm::Var(v) => map[v],
                    QTerm::Const(c) => TermId::constant(*c),
                })
                .collect();
            inst.insert(crate::atom::Fact::new(a.pred, args));
        }
        (inst, map)
    }

    /// Views an instance as a Boolean conjunctive query: the `i`-th distinct
    /// term, free ones first, becomes variable `V{i}` (the construction in
    /// the proof of Observation 31). Terms in `free` become answer variables.
    pub fn of_instance(inst: &Instance, free: &[TermId]) -> ConjunctiveQuery {
        let mut var_of: HashMap<TermId, Var> = HashMap::new();
        let mut touch = |t: TermId| {
            let next = Var(var_of.len() as u32);
            *var_of.entry(t).or_insert(next)
        };
        let answer = free.iter().map(|&t| touch(t)).collect();
        let mut atoms = Vec::new();
        for f in inst.iter() {
            let args: Vec<QTerm> = f.terms().map(|t| QTerm::Var(touch(t))).collect();
            atoms.push(QAtom::new(f.pred, args));
        }
        let names = (0..var_of.len())
            .map(|i| Symbol::intern(&format!("V{i}")))
            .collect();
        ConjunctiveQuery::new(answer, atoms, names)
    }

    /// A readable rendering, e.g. `?(X) :- mother(X,Y), human(Y)`.
    pub fn render(&self) -> String {
        crate::display::render_cq(self)
    }
}

/// The name `{stem}_{k}` for slot `pos` of a table holding `names`: the
/// first `k ≥ pos` not taken, so renaming a table again interns nothing.
pub fn local_var_name(names: &[Symbol], stem: Symbol, pos: usize) -> Symbol {
    (pos..)
        .map(|k| Symbol::intern(&format!("{stem}_{k}")))
        .find(|s| !names.contains(s))
        .expect("a finite table leaves some suffix free")
}

/// A union of conjunctive queries, all with the same answer arity.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Ucq {
    disjuncts: Vec<ConjunctiveQuery>,
}

impl Ucq {
    /// Creates a UCQ; all disjuncts must have the same answer arity.
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> Ucq {
        if let Some(first) = disjuncts.first() {
            let n = first.answer_vars().len();
            assert!(
                disjuncts.iter().all(|d| d.answer_vars().len() == n),
                "UCQ disjuncts must share the answer arity"
            );
        }
        Ucq { disjuncts }
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[ConjunctiveQuery] {
        &self.disjuncts
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// `true` iff the UCQ has no disjuncts (unsatisfiable).
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Maximum disjunct size — the paper's rewriting-size measure `rs`.
    pub fn max_disjunct_size(&self) -> usize {
        self.disjuncts
            .iter()
            .map(ConjunctiveQuery::size)
            .max()
            .unwrap_or(0)
    }

    /// Adds a disjunct.
    pub fn push(&mut self, cq: ConjunctiveQuery) {
        if let Some(first) = self.disjuncts.first() {
            assert_eq!(
                first.answer_vars().len(),
                cq.answer_vars().len(),
                "UCQ disjuncts must share the answer arity"
            );
        }
        self.disjuncts.push(cq);
    }
}

impl FromIterator<ConjunctiveQuery> for Ucq {
    fn from_iter<I: IntoIterator<Item = ConjunctiveQuery>>(iter: I) -> Self {
        Ucq::new(iter.into_iter().collect())
    }
}

/// Convenience builder for constructing queries and rules programmatically.
#[derive(Default)]
pub struct VarPool {
    names: Vec<Symbol>,
}

impl VarPool {
    /// A fresh, empty pool.
    pub fn new() -> VarPool {
        VarPool::default()
    }

    /// Returns the variable named `name`, creating it on first use.
    pub fn var(&mut self, name: &str) -> Var {
        let sym = Symbol::intern(name);
        if let Some(i) = self.names.iter().position(|&n| n == sym) {
            return Var(i as u32);
        }
        self.names.push(sym);
        Var(self.names.len() as u32 - 1)
    }

    /// Consumes the pool, returning the name table.
    pub fn into_names(self) -> Vec<Symbol> {
        self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(pred: &str, vars: &[Var]) -> QAtom {
        QAtom::new(
            Pred::new(pred, vars.len() as u32),
            vars.iter().map(|v| QTerm::Var(*v)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn query_construction_and_vars() {
        let mut pool = VarPool::new();
        let x = pool.var("X");
        let y = pool.var("Y");
        let q = ConjunctiveQuery::new(
            vec![x],
            vec![atom("mother", &[x, y]), atom("human", &[y])],
            pool.into_names(),
        );
        assert_eq!(q.size(), 2);
        assert_eq!(q.vars(), vec![x, y]);
        assert_eq!(q.existential_vars(), vec![y]);
        assert!(!q.is_boolean());
    }

    #[test]
    #[should_panic(expected = "does not occur")]
    fn unsafe_query_rejected() {
        let mut pool = VarPool::new();
        let x = pool.var("X");
        let y = pool.var("Y");
        let _ = ConjunctiveQuery::new(vec![y], vec![atom("p", &[x])], pool.into_names());
    }

    #[test]
    fn canonical_is_stable_under_atom_permutation() {
        let mut pool = VarPool::new();
        let x = pool.var("X");
        let y = pool.var("Y");
        let z = pool.var("Z");
        let names = pool.into_names();
        let q1 = ConjunctiveQuery::new(
            vec![],
            vec![atom("e", &[x, y]), atom("e", &[y, z])],
            names.clone(),
        );
        let q2 = ConjunctiveQuery::new(vec![], vec![atom("e", &[y, z]), atom("e", &[x, y])], names);
        assert_eq!(q1.canonical(), q2.canonical());
    }

    #[test]
    fn canonical_with_map_tracks_atom_origins() {
        let mut pool = VarPool::new();
        let x = pool.var("X");
        let y = pool.var("Y");
        let z = pool.var("Z");
        let names = pool.into_names();
        // Includes a duplicate atom (indices 0 and 2 merge after
        // renaming): the map must send both to the same canonical index.
        let q = ConjunctiveQuery::new(
            vec![x],
            vec![
                atom("e", &[y, z]),
                atom("e", &[x, y]),
                atom("e", &[y, z]),
                atom("f", &[z, z]),
            ],
            names,
        );
        let (canon, map) = q.canonical_with_map();
        assert_eq!(canon, q.canonical());
        assert_eq!(map.len(), q.size());
        assert_eq!(map[0], map[2], "duplicate atoms share a canonical slot");
        // Each original atom equals its canonical image under the
        // canonical substitution: check predicates and shared-variable
        // structure survive (predicates are renaming-invariant).
        for (orig, &ni) in q.atoms().iter().zip(&map) {
            assert_eq!(orig.pred, canon.atoms()[ni].pred);
            assert_eq!(orig.args.len(), canon.atoms()[ni].args.len());
        }
        // Every canonical atom is hit by at least one original.
        for ni in 0..canon.size() {
            assert!(map.contains(&ni));
        }
    }

    #[test]
    fn freeze_round_trips_structure() {
        let mut pool = VarPool::new();
        let x = pool.var("X");
        let y = pool.var("Y");
        let q = ConjunctiveQuery::new(
            vec![x],
            vec![atom("e", &[x, y]), atom("e", &[y, x])],
            pool.into_names(),
        );
        let (inst, map) = q.freeze();
        assert_eq!(inst.len(), 2);
        assert_ne!(map[&x], map[&y]);
        // Frozen constants depend only on the variable index.
        assert_eq!(map[&x], TermId::constant(Symbol::frozen(x.index())));
        assert_eq!(q.freeze().1, map);
        let back = ConjunctiveQuery::of_instance(&inst, &[map[&x]]);
        assert_eq!(back.size(), 2);
        assert_eq!(back.answer_vars().len(), 1);
        assert_eq!(back.render(), "?(V0) :- e(V0,V1), e(V1,V0)");
    }

    #[test]
    fn local_var_names_skip_taken_names() {
        let names: Vec<Symbol> = ["X", "A_2", "A_3"].map(Symbol::intern).to_vec();
        let a = Symbol::intern("A");
        assert_eq!(local_var_name(&names, a, 1).as_str(), "A_1");
        assert_eq!(local_var_name(&names, a, 2).as_str(), "A_4");
    }

    #[test]
    fn ucq_measures() {
        let mut pool = VarPool::new();
        let x = pool.var("X");
        let names = pool.into_names();
        let q1 = ConjunctiveQuery::new(vec![], vec![atom("p", &[x])], names.clone());
        let q2 = ConjunctiveQuery::new(vec![], vec![atom("p", &[x]), atom("q", &[x])], names);
        let ucq = Ucq::new(vec![q1, q2]);
        assert_eq!(ucq.len(), 2);
        assert_eq!(ucq.max_disjunct_size(), 2);
    }
}
