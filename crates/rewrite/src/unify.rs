//! Piece unifiers: one backward-resolution step of the rewriting procedure.
//!
//! Given a CQ `Q` and a rule `ρ : B ⇒ ∃w̄ H`, a **piece unifier** selects a
//! non-empty subset `Q' ⊆ Q` (the *piece*), maps each atom of `Q'` to a
//! head atom with the same predicate, and unifies argument-wise. The
//! unifier is *admissible* when, in the induced partition of terms:
//!
//! * no class contains two distinct constants;
//! * a class containing an existential variable `w ∈ w̄` contains no
//!   constant, no universal (frontier) variable of the rule, no second
//!   existential variable, and only query variables that are **non-shared**
//!   (not answer variables, and occurring exclusively inside the piece) —
//!   this is exactly what the Skolem chase can realize: a witness term
//!   `f_i^τ(…)` equals no constant, no frontier term, and no other
//!   witness;
//! * a class containing an answer variable contains no constant (a
//!   documented completeness restriction; the theories of the paper have
//!   constant-free rules, where no completeness is lost).
//!
//! The rewriting step replaces `Q'` by `u(B)` and applies `u` to the rest.

use std::collections::{HashMap, HashSet};

use qr_hom::kernel::pred_mask_bit;
use qr_syntax::query::{local_var_name, ConjunctiveQuery, QAtom, QTerm, Var};
use qr_syntax::{Pred, Symbol, Tgd, Theory};

/// A successful piece unification, carrying the rewritten query.
#[derive(Clone, Debug)]
pub struct PieceUnifier {
    /// Indices (into the input query's atom list) of the unified piece.
    pub piece: Vec<usize>,
    /// The unification choices behind `piece`: for each piece atom (in
    /// ascending query-atom order) the index of the head atom it unified
    /// with. Replaying these pairs through [`apply_piece_unifier`]
    /// rebuilds `result` exactly (same atoms, same variable indices) —
    /// the replayable witness a rewriting certificate records.
    pub unified: Vec<(usize, usize)>,
    /// The rewritten query (canonicalized).
    pub result: ConjunctiveQuery,
}

/// Per-rule piece-unifier index: the head's 64-bit predicate mask (the
/// same bit assignment as the homomorphism kernel's prefilter) and, per
/// head predicate, the head-atom indices carrying it (in head order, so
/// enumeration order is unchanged). Built once per saturation via
/// [`TheoryIndex::new`]; a query atom then consults only same-predicate
/// head atoms instead of scanning the whole head, and a whole rule is
/// skipped when its head mask shares no bit with the query's mask.
pub struct RuleIndex {
    mask: u64,
    head_len: usize,
    by_pred: HashMap<Pred, Vec<usize>>,
}

impl RuleIndex {
    /// Indexes one rule's head.
    pub fn new(rule: &Tgd) -> RuleIndex {
        let mut mask = 0u64;
        let mut by_pred: HashMap<Pred, Vec<usize>> = HashMap::new();
        for (i, h) in rule.head().iter().enumerate() {
            mask |= pred_mask_bit(&h.pred);
            by_pred.entry(h.pred).or_default().push(i);
        }
        RuleIndex {
            mask,
            head_len: rule.head().len(),
            by_pred,
        }
    }

    /// The head's predicate-occupancy mask.
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Number of head atoms (for accounting skipped pairings).
    pub fn head_len(&self) -> usize {
        self.head_len
    }
}

/// One [`RuleIndex`] per rule of a theory, in rule order.
pub struct TheoryIndex {
    rules: Vec<RuleIndex>,
}

impl TheoryIndex {
    /// Indexes every rule head of `theory`.
    pub fn new(theory: &Theory) -> TheoryIndex {
        TheoryIndex {
            rules: theory.rules().iter().map(RuleIndex::new).collect(),
        }
    }

    /// The index of rule `i` (theory rule order).
    pub fn rule(&self, i: usize) -> &RuleIndex {
        &self.rules[i]
    }

    /// The per-rule indexes, in theory rule order.
    pub fn rules(&self) -> &[RuleIndex] {
        &self.rules
    }
}

/// The query-side counterpart of [`RuleIndex::mask`]: the predicate
/// occupancy mask over the query's atoms.
pub fn query_pred_mask(q: &ConjunctiveQuery) -> u64 {
    q.atoms()
        .iter()
        .fold(0u64, |m, a| m | pred_mask_bit(&a.pred))
}

/// What the piece-unifier index did for one enumeration: `probes` counts
/// (query atom × head atom) unification attempts actually made, `skipped`
/// counts pairings pruned statically — predicate-mismatched pairs within a
/// consulted rule, plus the full cross-product of rules the mask prefilter
/// skipped outright.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnifyCounters {
    /// Unification attempts made at descend branch points.
    pub probes: usize,
    /// Pairings never attempted thanks to the index.
    pub skipped: usize,
}

/// A small union–find over dense indices.
#[derive(Clone)]
struct Uf {
    parent: Vec<usize>,
}

impl Uf {
    fn new(n: usize) -> Uf {
        Uf {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// The combined term space for a (query, rule) pair.
struct Space<'a> {
    q: &'a ConjunctiveQuery,
    rule: &'a Tgd,
    nq: usize,
    nr: usize,
    consts: Vec<Symbol>,
    const_ids: HashMap<Symbol, usize>,
    is_exist: Vec<bool>,  // rule vars
    is_answer: Vec<bool>, // query vars
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Node {
    QVar(Var),
    RVar(Var),
    Const(Symbol),
}

impl<'a> Space<'a> {
    fn new(q: &'a ConjunctiveQuery, rule: &'a Tgd) -> Space<'a> {
        let nq = q.var_names().len();
        let nr = rule.var_names().len();
        let mut is_exist = vec![false; nr];
        for v in rule.existential_vars() {
            is_exist[v.index()] = true;
        }
        let mut is_answer = vec![false; nq];
        for v in q.answer_vars() {
            is_answer[v.index()] = true;
        }
        let mut consts = Vec::new();
        let mut const_ids = HashMap::new();
        let mut add_consts = |atoms: &[QAtom]| {
            for a in atoms {
                for t in a.args.iter() {
                    if let QTerm::Const(c) = t {
                        if !const_ids.contains_key(c) {
                            const_ids.insert(*c, consts.len());
                            consts.push(*c);
                        }
                    }
                }
            }
        };
        add_consts(q.atoms());
        add_consts(rule.body());
        add_consts(rule.head());
        Space {
            q,
            rule,
            nq,
            nr,
            consts,
            const_ids,
            is_exist,
            is_answer,
        }
    }

    fn total(&self) -> usize {
        self.nq + self.nr + self.consts.len()
    }

    fn id_of_q(&self, t: &QTerm) -> usize {
        match t {
            QTerm::Var(v) => v.index(),
            QTerm::Const(c) => self.nq + self.nr + self.const_ids[c],
        }
    }

    fn id_of_r(&self, t: &QTerm) -> usize {
        match t {
            QTerm::Var(v) => self.nq + v.index(),
            QTerm::Const(c) => self.nq + self.nr + self.const_ids[c],
        }
    }

    fn node(&self, id: usize) -> Node {
        if id < self.nq {
            Node::QVar(Var(id as u32))
        } else if id < self.nq + self.nr {
            Node::RVar(Var((id - self.nq) as u32))
        } else {
            Node::Const(self.consts[id - self.nq - self.nr])
        }
    }
}

/// Enumerates all admissible piece unifiers of `q` against `rule` and
/// returns the rewritten queries. Rules with builtin (`true`/`dom`) bodies
/// must be filtered out by the caller.
pub fn piece_rewritings(q: &ConjunctiveQuery, rule: &Tgd) -> Vec<PieceUnifier> {
    piece_rewritings_indexed(
        q,
        rule,
        &RuleIndex::new(rule),
        usize::MAX,
        &mut UnifyCounters::default(),
    )
}

/// [`piece_rewritings`] with a prebuilt [`RuleIndex`], a result cap, and
/// counter accumulation. At most `cap` unifiers are returned; enumeration
/// stops the moment the cap is reached (deterministic: the exploration
/// order is fixed, so equal caps give equal prefixes of the uncapped
/// result list). `ridx` must index `rule`.
pub fn piece_rewritings_indexed(
    q: &ConjunctiveQuery,
    rule: &Tgd,
    ridx: &RuleIndex,
    cap: usize,
    counters: &mut UnifyCounters,
) -> Vec<PieceUnifier> {
    // Static pairings the per-predicate head lists prune: for each query
    // atom, the head atoms of a different predicate are never attempted.
    for a in q.atoms() {
        counters.skipped += ridx.head_len - ridx.by_pred.get(&a.pred).map_or(0, |h| h.len());
    }
    let mut out: Vec<PieceUnifier> = Vec::new();
    if cap == 0 {
        return out;
    }
    let space = Space::new(q, rule);
    let mut seen: HashSet<ConjunctiveQuery> = HashSet::new();
    let uf = Uf::new(space.total());
    let mut probes = 0usize;
    descend(
        &space,
        0,
        Vec::new(),
        uf,
        ridx,
        &mut probes,
        &mut |piece, uf| {
            if let Some(result) = finish(&space, piece, uf.clone()) {
                if seen.insert(result.canonical()) {
                    out.push(PieceUnifier {
                        piece: piece.iter().map(|&(ai, _)| ai).collect(),
                        unified: piece.to_vec(),
                        result,
                    });
                }
            }
            out.len() < cap
        },
    );
    counters.probes += probes;
    out
}

/// Recursively decides, per query atom, whether to skip it or unify it with
/// one of the same-predicate head atoms (from the index's per-predicate
/// lists), pruning on hard constant clashes. `emit` returns `false` to
/// stop the enumeration (the result cap was reached); the return value
/// propagates that stop.
fn descend(
    space: &Space<'_>,
    atom_idx: usize,
    piece: Vec<(usize, usize)>,
    uf: Uf,
    ridx: &RuleIndex,
    probes: &mut usize,
    emit: &mut impl FnMut(&[(usize, usize)], &Uf) -> bool,
) -> bool {
    if atom_idx == space.q.atoms().len() {
        if !piece.is_empty() {
            return emit(&piece, &uf);
        }
        return true;
    }
    // Option 1: the atom is not part of the piece.
    if !descend(
        space,
        atom_idx + 1,
        piece.clone(),
        uf.clone(),
        ridx,
        probes,
        emit,
    ) {
        return false;
    }
    // Option 2: unify it with each same-predicate head atom.
    let qatom = &space.q.atoms()[atom_idx];
    let Some(heads) = ridx.by_pred.get(&qatom.pred) else {
        return true;
    };
    for &hi in heads {
        let hatom = &space.rule.head()[hi];
        *probes += 1;
        let mut uf2 = uf.clone();
        let mut ok = true;
        for (qt, ht) in qatom.args.iter().zip(hatom.args.iter()) {
            uf2.union(space.id_of_q(qt), space.id_of_r(ht));
        }
        // Early prune: two distinct constants in one class.
        let mut class_const: HashMap<usize, Symbol> = HashMap::new();
        for (ci, c) in space.consts.iter().enumerate() {
            let root = uf2.find(space.nq + space.nr + ci);
            if let Some(prev) = class_const.insert(root, *c) {
                if prev != *c {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            let mut piece2 = piece.clone();
            piece2.push((atom_idx, hi));
            if !descend(space, atom_idx + 1, piece2, uf2, ridx, probes, emit) {
                return false;
            }
        }
    }
    true
}

/// Replays a recorded piece unification: unions exactly the
/// `(query atom, head atom)` pairs of `unified` and runs the same
/// admissibility validation and query construction as the enumeration.
/// Zero search — the pairs *are* the derivation witness. Returns `None`
/// when the pairs are out of range, not strictly ascending in the query
/// atom (the enumeration's shape), predicate-mismatched, or fail
/// admissibility. The result equals the enumerated
/// [`PieceUnifier::result`] for the same pairs, variable names included.
pub fn apply_piece_unifier(
    q: &ConjunctiveQuery,
    rule: &Tgd,
    unified: &[(usize, usize)],
) -> Option<ConjunctiveQuery> {
    if unified.is_empty() {
        return None;
    }
    let space = Space::new(q, rule);
    let mut uf = Uf::new(space.total());
    let mut last: Option<usize> = None;
    for &(ai, hi) in unified {
        if ai >= q.atoms().len() || hi >= rule.head().len() {
            return None;
        }
        if last.is_some_and(|l| ai <= l) {
            return None;
        }
        last = Some(ai);
        let qatom = &q.atoms()[ai];
        let hatom = &rule.head()[hi];
        if qatom.pred != hatom.pred {
            return None;
        }
        for (qt, ht) in qatom.args.iter().zip(hatom.args.iter()) {
            uf.union(space.id_of_q(qt), space.id_of_r(ht));
        }
    }
    finish(&space, unified, uf)
}

/// Validates the partition and builds the rewritten query.
fn finish(space: &Space<'_>, piece: &[(usize, usize)], mut uf: Uf) -> Option<ConjunctiveQuery> {
    let piece_set: HashSet<usize> = piece.iter().map(|&(ai, _)| ai).collect();
    // Group members by class root.
    let mut classes: HashMap<usize, Vec<Node>> = HashMap::new();
    for id in 0..space.total() {
        let root = uf.find(id);
        classes.entry(root).or_default().push(space.node(id));
    }

    // Query variables whose every occurrence lies inside the piece.
    let confined: HashSet<Var> = {
        let mut all: HashSet<Var> = space.q.vars().into_iter().collect();
        for (i, a) in space.q.atoms().iter().enumerate() {
            if !piece_set.contains(&i) {
                for v in a.vars() {
                    all.remove(&v);
                }
            }
        }
        all
    };

    let mut subst: HashMap<usize, QTerm> = HashMap::new(); // class root -> representative
    for (root, members) in &classes {
        let mut constants: Vec<Symbol> = Vec::new();
        let mut exist: Vec<Var> = Vec::new();
        let mut universal: Vec<Var> = Vec::new();
        let mut answers: Vec<Var> = Vec::new();
        let mut qvars: Vec<Var> = Vec::new();
        for m in members {
            match m {
                Node::Const(c) => {
                    if !constants.contains(c) {
                        constants.push(*c);
                    }
                }
                Node::RVar(v) => {
                    if space.is_exist[v.index()] {
                        exist.push(*v);
                    } else {
                        universal.push(*v);
                    }
                }
                Node::QVar(v) => {
                    if space.is_answer[v.index()] {
                        answers.push(*v);
                    } else {
                        qvars.push(*v);
                    }
                }
            }
        }
        if constants.len() > 1 {
            return None;
        }
        if !exist.is_empty() {
            // Admissibility of existential classes (see module docs).
            let distinct_exist: HashSet<Var> = exist.iter().copied().collect();
            if distinct_exist.len() > 1
                || !constants.is_empty()
                || !universal.is_empty()
                || !answers.is_empty()
                || qvars.iter().any(|v| !confined.contains(v))
            {
                return None;
            }
            // Existential classes vanish with the piece; no representative.
            continue;
        }
        if !answers.is_empty() && !constants.is_empty() {
            // Documented restriction: answer variables never unify with
            // constants (constant-free rules lose nothing).
            return None;
        }
        let rep = if let Some(c) = constants.first() {
            QTerm::Const(*c)
        } else if let Some(v) = answers.first() {
            QTerm::Var(*v)
        } else if let Some(v) = qvars.first() {
            QTerm::Var(*v)
        } else if let Some(v) = universal.first() {
            QTerm::Var(Var((space.nq + v.index()) as u32))
        } else {
            continue; // singleton constant class already covered; unreachable
        };
        subst.insert(*root, rep);
    }

    // The combined variable table: query vars, then rule vars named by
    // stem and slot, so equal rewritings get equal tables.
    let mut names: Vec<Symbol> = space.q.var_names().to_vec();
    for &v in space.rule.var_names() {
        names.push(local_var_name(&names, v, names.len()));
    }

    let apply_q = |t: &QTerm, uf: &mut Uf| -> QTerm {
        let root = uf.find(space.id_of_q(t));
        *subst.get(&root).unwrap_or(t)
    };
    let apply_r = |t: &QTerm, uf: &mut Uf| -> QTerm {
        let root = uf.find(space.id_of_r(t));
        subst.get(&root).copied().unwrap_or(match t {
            QTerm::Var(v) => QTerm::Var(Var((space.nq + v.index()) as u32)),
            QTerm::Const(c) => QTerm::Const(*c),
        })
    };

    let mut atoms: Vec<QAtom> = Vec::new();
    for a in space.rule.body() {
        atoms.push(QAtom::new(
            a.pred,
            a.args
                .iter()
                .map(|t| apply_r(t, &mut uf))
                .collect::<Vec<_>>(),
        ));
    }
    for (i, a) in space.q.atoms().iter().enumerate() {
        if piece_set.contains(&i) {
            continue;
        }
        atoms.push(QAtom::new(
            a.pred,
            a.args
                .iter()
                .map(|t| apply_q(t, &mut uf))
                .collect::<Vec<_>>(),
        ));
    }
    if atoms.is_empty() {
        // The whole query was resolved against a body-less rule; callers
        // exclude such rules, so an empty result signals a logic error.
        return None;
    }

    let answer: Vec<Var> = space
        .q
        .answer_vars()
        .iter()
        .map(|v| match apply_q(&QTerm::Var(*v), &mut uf) {
            QTerm::Var(u) => u,
            QTerm::Const(_) => unreachable!("answer/constant classes are rejected"),
        })
        .collect();

    // Answer variables must still occur in the rewritten body (they do, by
    // admissibility: they never sit in existential classes). Guard anyway.
    if answer.iter().any(|v| !atoms.iter().any(|a| a.mentions(*v))) {
        return None;
    }

    Some(ConjunctiveQuery::new(answer, atoms, names).canonical())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_syntax::{parse_query, parse_theory};

    fn rewrites(theory_src: &str, query_src: &str) -> Vec<String> {
        let t = parse_theory(theory_src).unwrap();
        let q = parse_query(query_src).unwrap();
        let mut out: Vec<String> = piece_rewritings(&q, &t.rules()[0])
            .into_iter()
            .map(|p| p.result.render())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn atomic_rewriting_against_linear_rule() {
        // human(X) -> mother(X,Y): ?(X) :- mother(X,Y) rewrites to human(X).
        let rs = rewrites("human(X) -> mother(X,Y).", "?(X) :- mother(X,Y).");
        assert_eq!(rs.len(), 1);
        assert!(rs[0].contains("human"));
    }

    #[test]
    fn existential_position_blocks_shared_variable() {
        // Y is existential in the head; the query shares Y between two
        // atoms, so only pieces containing both mother-atoms may unify Y.
        let t = parse_theory("human(X) -> mother(X,Y).").unwrap();
        let q = parse_query("? :- mother(A,B), father(B,C).").unwrap();
        // B also occurs in father(B,C), which can never join the piece.
        assert!(piece_rewritings(&q, &t.rules()[0]).is_empty());
    }

    #[test]
    fn answer_variable_blocks_existential_unification() {
        let t = parse_theory("human(X) -> mother(X,Y).").unwrap();
        let q = parse_query("?(B) :- mother(A,B).").unwrap();
        assert!(piece_rewritings(&q, &t.rules()[0]).is_empty());
    }

    #[test]
    fn frontier_unification_allowed() {
        let t = parse_theory("human(X) -> mother(X,Y).").unwrap();
        let q = parse_query("?(A) :- mother(A,B).").unwrap();
        let rs = piece_rewritings(&q, &t.rules()[0]);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].result.render(), "?(A) :- human(A)");
    }

    #[test]
    fn two_atom_piece_through_multi_head() {
        // Multi-head rule: p(X) -> r(X,Z), g(X,Z); query with shared Z needs
        // both atoms in one piece.
        let t = parse_theory("p(X) -> r(X,Z), g(X,Z).").unwrap();
        let q = parse_query("? :- r(U,V), g(U,V).").unwrap();
        let rs = piece_rewritings(&q, &t.rules()[0]);
        assert!(rs.iter().any(|p| p.piece.len() == 2));
        assert!(rs.iter().any(|p| p.result.render() == "? :- p(U)"));
    }

    #[test]
    fn distinct_existentials_do_not_merge() {
        // p(X) -> r(Z,Z2): query r(U,U) must not unify (Z ≠ Z2 in chase).
        let t = parse_theory("p(X) -> r(Z,Z2).").unwrap();
        let q = parse_query("? :- r(U,U).").unwrap();
        assert!(piece_rewritings(&q, &t.rules()[0]).is_empty());
        // But the loop-headed rule p(X) -> r(Z,Z) does unify.
        let t2 = parse_theory("p(X) -> r(Z,Z).").unwrap();
        let rs = piece_rewritings(&q, &t2.rules()[0]);
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn constants_unify_with_frontier() {
        let t = parse_theory("human(X) -> mother(X,Y).").unwrap();
        let q = parse_query("? :- mother(abel, M).").unwrap();
        let rs = piece_rewritings(&q, &t.rules()[0]);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].result.render(), "? :- human(abel)");
    }

    #[test]
    fn constant_clash_rejected() {
        let t = parse_theory("p(X) -> r(abel, X).").unwrap();
        let q = parse_query("? :- r(cain, U).").unwrap();
        assert!(piece_rewritings(&q, &t.rules()[0]).is_empty());
    }

    #[test]
    fn equal_rewritings_of_two_pieces_are_kept_once() {
        // Unifying either atom with the head merges X and Y, so the two
        // one-atom pieces rewrite to the same query, rule variable names
        // included: the dedup set keeps the first.
        let t = parse_theory("s(A,C) -> r(A,A).").unwrap();
        let q = parse_query("? :- r(X,Y), r(Y,X).").unwrap();
        let rs: Vec<String> = piece_rewritings(&q, &t.rules()[0])
            .iter()
            .map(|p| format!("{:?} {}", p.piece, p.result.render()))
            .collect();
        assert_eq!(rs, ["[1] ? :- r(X,X), s(X,C_3)", "[0, 1] ? :- s(X,C_3)"]);
    }

    #[test]
    fn datalog_rule_rewrites_in_place() {
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let q = parse_query("? :- e(a, b).").unwrap();
        let rs = piece_rewritings(&q, &t.rules()[0]);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].result.size(), 2);
    }

    #[test]
    fn indexed_enumeration_matches_unindexed() {
        let t = parse_theory("p(X) -> r(X,Z), g(X,Z).").unwrap();
        let q = parse_query("? :- r(U,V), g(U,V), s(U).").unwrap();
        let rule = &t.rules()[0];
        let full: Vec<String> = piece_rewritings(&q, rule)
            .iter()
            .map(|p| p.result.render())
            .collect();
        let ridx = RuleIndex::new(rule);
        let mut c = UnifyCounters::default();
        let indexed: Vec<String> = piece_rewritings_indexed(&q, rule, &ridx, usize::MAX, &mut c)
            .iter()
            .map(|p| p.result.render())
            .collect();
        assert_eq!(indexed, full, "same unifiers in the same order");
        assert!(c.probes > 0, "attempts are counted");
        // s(U) never meets either head atom (2 pairings); the r-atom skips
        // the g-head and vice versa (1 each).
        assert_eq!(c.skipped, 4);
    }

    #[test]
    fn cap_truncates_to_a_prefix() {
        // A datalog head (no existentials), so each query atom rewrites on
        // its own: two unifiers (the both-atoms piece dies on the a=b
        // constant clash).
        let t = parse_theory("e(X,Y), e(Y,Z) -> e(X,Z).").unwrap();
        let q = parse_query("? :- e(a,b), e(b,c).").unwrap();
        let rule = &t.rules()[0];
        let ridx = RuleIndex::new(rule);
        let results = |pus: Vec<PieceUnifier>| -> Vec<ConjunctiveQuery> {
            pus.into_iter().map(|p| p.result).collect()
        };
        let full = results(piece_rewritings(&q, rule));
        assert!(full.len() >= 2);
        for cap in 0..=full.len() {
            let mut c = UnifyCounters::default();
            let capped = results(piece_rewritings_indexed(&q, rule, &ridx, cap, &mut c));
            assert_eq!(capped, full[..cap], "cap {cap} is an exact prefix");
        }
    }

    #[test]
    fn rule_mask_prefilters_disjoint_queries() {
        let t = parse_theory("p(X) -> r(X,Y).").unwrap();
        let ridx = RuleIndex::new(&t.rules()[0]);
        assert_eq!(ridx.head_len(), 1);
        let disjoint = parse_query("? :- s(U).").unwrap();
        assert_eq!(ridx.mask() & query_pred_mask(&disjoint), 0);
        let touching = parse_query("? :- r(U,V), s(U).").unwrap();
        assert_ne!(ridx.mask() & query_pred_mask(&touching), 0);
    }

    #[test]
    fn replaying_recorded_pairs_rebuilds_each_result() {
        let cases = [
            ("p(X) -> r(X,Z), g(X,Z).", "? :- r(U,V), g(U,V), s(U)."),
            ("e(X,Y), e(Y,Z) -> e(X,Z).", "? :- e(a,b), e(b,c)."),
            ("human(X) -> mother(X,Y).", "?(A) :- mother(A,B)."),
            ("p(X) -> r(X,X).", "? :- r(U,V), s(U), s(V)."),
        ];
        for (tsrc, qsrc) in cases {
            let t = parse_theory(tsrc).unwrap();
            let q = parse_query(qsrc).unwrap();
            let rule = &t.rules()[0];
            let pus = piece_rewritings(&q, rule);
            assert!(!pus.is_empty(), "{qsrc}");
            for pu in pus {
                let replayed =
                    apply_piece_unifier(&q, rule, &pu.unified).expect("recorded pairs replay");
                assert_eq!(replayed, pu.result, "{qsrc}");
            }
        }
    }

    #[test]
    fn replay_rejects_malformed_pairs() {
        let t = parse_theory("human(X) -> mother(X,Y).").unwrap();
        let q = parse_query("?(A) :- mother(A,B), human(C).").unwrap();
        let rule = &t.rules()[0];
        assert!(apply_piece_unifier(&q, rule, &[]).is_none(), "empty piece");
        assert!(
            apply_piece_unifier(&q, rule, &[(7, 0)]).is_none(),
            "atom out of range"
        );
        assert!(
            apply_piece_unifier(&q, rule, &[(0, 5)]).is_none(),
            "head out of range"
        );
        assert!(
            apply_piece_unifier(&q, rule, &[(0, 0), (0, 0)]).is_none(),
            "non-ascending piece"
        );
        assert!(
            apply_piece_unifier(&q, rule, &[(1, 0)]).is_none(),
            "predicate mismatch"
        );
    }

    #[test]
    fn remaining_atoms_substituted() {
        let t = parse_theory("p(X) -> r(X,X).").unwrap();
        let q = parse_query("? :- r(U,V), s(U), s(V).").unwrap();
        // Unifying r(U,V) with r(X,X) merges U and V.
        let rs = piece_rewritings(&q, &t.rules()[0]);
        assert_eq!(rs.len(), 1);
        let rendered = rs[0].result.render();
        assert_eq!(rs[0].result.size(), 2, "{rendered}");
    }
}
