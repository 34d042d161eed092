//! Seeded input generators for the `serve` and `maintain` workloads.
//!
//! Every generator is a pure function of its seed: the same seed gives the
//! same tenants, request stream, graph and write cycles, and the program
//! under test only ever sees what these functions return. The shapes
//! follow the repository's own workload zoo (the four serve tenants, the
//! E11 random TC graph). `materialize` takes its instance from
//! `qr_bench::bulk_workloads` directly.

use qr_serve::{CqRequest, FactWrite, Request, WriteBatch};
use qr_syntax::{Fact, Instance, Pred, Symbol, TermId};

/// SplitMix64: tiny, seedable, and good enough for workload shapes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn constant(name: &str) -> TermId {
    TermId::constant(Symbol::intern(name))
}

fn binary(pred: &str, a: &str, b: &str) -> Fact {
    Fact::new(Pred::new(pred, 2), vec![constant(a), constant(b)])
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// One serve tenant: id, rules, and the constant prefix its data uses.
pub struct TenantSpec {
    pub id: &'static str,
    pub rules: &'static str,
    /// Constant-name prefix of the tenant's individuals (`n3`, `m17`, ...).
    pub prefix: &'static str,
    /// Individuals in the seeded base data.
    pub individuals: usize,
    /// Predicate the write stream inserts into and retracts from.
    pub write_pred: &'static str,
}

/// The four tenants of the repository's serve workloads: `path` and
/// `family` saturate, `guarded` and `tc` rewrite to budget-capped
/// (sound, incomplete) UCQs.
pub const TENANTS: [TenantSpec; 4] = [
    TenantSpec {
        id: "path",
        rules: "e(X,Y) -> e(Y,Z).",
        prefix: "n",
        individuals: 2000,
        write_pred: "e",
    },
    TenantSpec {
        id: "family",
        rules: "human(Y) -> mother(Y,Z).\nmother(X,Y) -> human(Y).",
        prefix: "m",
        individuals: 3000,
        write_pred: "mother",
    },
    TenantSpec {
        id: "guarded",
        rules: "p(X), e(X,Y) -> p(Y).\nq(X) -> p(X).",
        prefix: "g",
        individuals: 3000,
        write_pred: "e",
    },
    TenantSpec {
        id: "tc",
        rules: "e(X,Y), e(Y,Z) -> e(X,Z).",
        prefix: "c",
        individuals: 1500,
        write_pred: "e",
    },
];

/// Seeded base data for every tenant, as instance text (so registration
/// parses it). A few thousand facts per tenant; the edges are random, the
/// amounts are not, so the cost of a query hardly depends on the seed:
/// * `path`: two random out-edges per node;
/// * `family`: one random mother per person, every tenth person human;
/// * `guarded`, `tc`: one random out-edge per node, plus a second on every
///   other node; every 50th `guarded` node is in `q`.
pub fn tenant_data(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x007e_4a47);
    TENANTS
        .iter()
        .map(|t| {
            let n = t.individuals;
            let p = t.prefix;
            let mut out = String::new();
            for i in 0..n {
                let mut edge = |pred: &str, rng: &mut Rng| {
                    let j = rng.below(n);
                    out.push_str(&format!("{pred}({p}{i},{p}{j}). "));
                };
                match t.id {
                    "path" => {
                        edge("e", &mut rng);
                        edge("e", &mut rng);
                    }
                    "family" => edge("mother", &mut rng),
                    _ => {
                        edge("e", &mut rng);
                        if i % 2 == 0 {
                            edge("e", &mut rng);
                        }
                    }
                }
                if (t.id == "family" && i % 10 == 0) || (t.id == "guarded" && i % 50 == 0) {
                    let unary = if t.id == "family" { "human" } else { "q" };
                    out.push_str(&format!("{unary}({p}{i}). "));
                }
            }
            out
        })
        .collect()
}

/// Cache-resident query templates `(tenant, template, weight)`: `{i}`
/// slots are variables. Exact repeats render them as `H{i}`; α-renamed
/// variants use a salted name, which keeps the freeze key, so both should
/// hit. Popularity is skewed, as in real query logs, and the most popular
/// template costs about the middle of the hit range, with about a quarter
/// of the weight on cheaper templates: the read median lands inside that
/// one template's hits, not between two templates of different cost. No
/// template names a constant, whose neighbourhood would change with the
/// seed.
const HOT: [(&str, &str, u32); 9] = [
    ("path", "?({0}) :- e({0},{1}), e({1},{2}).", 45),
    ("family", "?({0}) :- mother({0},{1}).", 15),
    ("family", "?({1}) :- mother({0},{1}), mother({1},{2}).", 8),
    ("tc", "?({1}) :- e({0},{1}), e({1},{2}).", 8),
    ("guarded", "?({1}) :- p({0}), e({0},{1}).", 6),
    ("path", "?({0},{2}) :- e({0},{1}), e({1},{2}).", 6),
    ("guarded", "? :- q({0}), e({0},{1}).", 5),
    ("family", "? :- mother({0},{1}), human({1}).", 4),
    ("path", "?({0}) :- e({0},{1}), e({2},{1}).", 3),
];

/// Draws a hot template by weight.
fn pick_hot(rng: &mut Rng) -> (&'static str, &'static str) {
    let total: u32 = HOT.iter().map(|h| h.2).sum();
    let mut r = rng.below(total as usize) as u32;
    for &(tenant, tpl, w) in &HOT {
        if r < w {
            return (tenant, tpl);
        }
        r -= w;
    }
    unreachable!("r < total weight")
}

/// Cold shapes: `{c}` is one of the tenant's [`COLD_ANCHORS`] individuals.
/// With that many keys per shape a cold key is rarely asked twice between
/// two writes to its tenant, so it misses.
const COLD: [(&str, &str); 8] = [
    ("path", "? :- e({c},V0), e(V0,V1)."),
    ("path", "?(V0) :- e({c},V0), e(V0,V1), e(V1,V2)."),
    ("family", "? :- mother({c},V0), mother(V0,V1)."),
    ("family", "?(V0) :- mother(V0,{c})."),
    ("guarded", "? :- p({c})."),
    ("guarded", "? :- p({c}), e({c},V0)."),
    ("tc", "? :- e({c},V0)."),
    ("tc", "?(V0) :- e({c},V0), e(V0,V1)."),
];

/// Individuals per tenant that cold shapes anchor on. The pool is bounded
/// so that the process-wide homomorphism caches, which keep every query
/// the rewriter ever saw, stop growing once the prelude has sent each cold
/// key; a cold key still misses because writes keep invalidating it.
pub const COLD_ANCHORS: usize = 48;

/// Share of operations that are fact writes.
pub const WRITE_SHARE: f64 = 0.05;
/// Of the reads: exact repeats and α-renamed variants of the hot set.
pub const HOT_SHARE: f64 = 0.75;
pub const ISO_SHARE: f64 = 0.20;
/// Inserts per tenant before one batch retracts them all.
pub const INSERTS_PER_RETRACT: usize = 4;
/// Distinct salts for α-renamed variants: bounded, so the symbol interner
/// stops growing after warm-up and per-op cost cannot drift with run
/// length.
const SALTS: usize = 64;

/// What a generated serve operation is, by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Hot,
    Iso,
    Cold,
    Insert,
    Retract,
}

/// An endless, stationary serve stream. Each tenant inserts fresh facts
/// `write_pred(<individual>, x<slot>)`, one per write, and after
/// [`INSERTS_PER_RETRACT`] of them retracts them all in one batch, so every
/// inserted fact is retracted and the tenant data returns to its base.
pub struct ServeStream {
    rng: Rng,
    pending: Vec<Vec<Fact>>,
    /// Per tenant, the individuals cold shapes anchor on.
    anchors: Vec<Vec<String>>,
    /// Requests still to send before the random mix starts.
    prelude: std::vec::IntoIter<Request>,
}

impl ServeStream {
    /// The stream opens with a prelude that sends every cold key once, so
    /// that caches which never forget reach their steady size before any
    /// measurement; then the random mix runs forever.
    pub fn new(seed: u64) -> ServeStream {
        let mut rng = Rng::new(seed ^ 0x5e_12e);
        let anchors: Vec<Vec<String>> = TENANTS
            .iter()
            .map(|t| {
                (0..COLD_ANCHORS)
                    .map(|_| format!("{}{}", t.prefix, rng.below(t.individuals)))
                    .collect()
            })
            .collect();
        let mut prelude = Vec::new();
        for (tenant, tpl) in COLD {
            for c in &anchors[tenant_index(tenant)] {
                prelude.push(ServeStream::read(tenant, tpl.replace("{c}", c)));
            }
        }
        ServeStream {
            rng,
            pending: vec![Vec::new(); TENANTS.len()],
            anchors,
            prelude: prelude.into_iter(),
        }
    }

    /// Length of the prelude.
    pub fn prelude_len() -> usize {
        COLD.len() * COLD_ANCHORS
    }

    fn read(tenant: &str, query: String) -> Request {
        Request::Query(CqRequest {
            theory: tenant.to_owned(),
            query,
        })
    }
}

impl Iterator for ServeStream {
    type Item = (OpKind, Request);

    fn next(&mut self) -> Option<(OpKind, Request)> {
        if let Some(req) = self.prelude.next() {
            return Some((OpKind::Cold, req));
        }
        let rng = &mut self.rng;
        if rng.unit() < WRITE_SHARE {
            let t = rng.below(TENANTS.len());
            let spec = &TENANTS[t];
            let pending = &mut self.pending[t];
            let (kind, batch) = if pending.len() < INSERTS_PER_RETRACT {
                let anchor = format!("{}{}", spec.prefix, rng.below(spec.individuals));
                let fact = binary(spec.write_pred, &anchor, &format!("x{}", pending.len()));
                pending.push(fact.clone());
                (OpKind::Insert, WriteBatch::insert([fact]))
            } else {
                (OpKind::Retract, WriteBatch::retract(pending.drain(..)))
            };
            let write = FactWrite {
                theory: spec.id.to_owned(),
                batch,
            };
            return Some((kind, Request::Write(write)));
        }
        let r = rng.unit();
        let op = if r < HOT_SHARE + ISO_SHARE {
            let (tenant, tpl) = pick_hot(rng);
            if r < HOT_SHARE {
                let q = render(tpl, &|v| format!("H{v}"));
                (OpKind::Hot, ServeStream::read(tenant, q))
            } else {
                let salt = rng.below(SALTS);
                let q = render(tpl, &|v| format!("S{salt}v{v}"));
                (OpKind::Iso, ServeStream::read(tenant, q))
            }
        } else {
            let (tenant, tpl) = COLD[rng.below(COLD.len())];
            let c = &self.anchors[tenant_index(tenant)][rng.below(COLD_ANCHORS)];
            (
                OpKind::Cold,
                ServeStream::read(tenant, tpl.replace("{c}", c)),
            )
        };
        Some(op)
    }
}

fn tenant_index(id: &str) -> usize {
    TENANTS
        .iter()
        .position(|t| t.id == id)
        .expect("shapes name known tenants")
}

/// Renders a template, substituting each `{i}` slot with `name(i)`.
fn render(tpl: &str, name: &dyn Fn(usize) -> String) -> String {
    let mut out = String::new();
    let mut rest = tpl;
    while let Some(open) = rest.find('{') {
        let close = open + rest[open..].find('}').expect("template braces balance");
        let slot: usize = rest[open + 1..close].parse().expect("numeric slot");
        out.push_str(&rest[..open]);
        out.push_str(&name(slot));
        rest = &rest[close + 1..];
    }
    out.push_str(rest);
    out
}

// ---------------------------------------------------------------------------
// maintain
// ---------------------------------------------------------------------------

/// The maintain workload's theory: transitive closure, as in E11.
pub const TC_RULES: &str = "e(X,Y), e(Y,Z) -> e(X,Z).";

/// An E11-style random graph over `n` vertices with `m >= n` distinct
/// edges `e(v_a, v_b)`: a cycle through all vertices plus `m - n` random
/// chords. The cycle makes the graph strongly connected, so its transitive
/// closure is exactly `n * n` facts and every pendant edge derives the
/// same number of facts. The shape (cycle and chords) is drawn from a
/// fixed seed and `seed` only renames the vertices, so every seed gives
/// an isomorphic graph: the chase does the same work, round for round,
/// and a seed changes the inputs without changing their cost.
pub fn random_graph(seed: u64, n: usize, m: usize) -> Instance {
    let mut rng = Rng::new(seed ^ 0x6a_4f);
    let mut name: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        name.swap(i, rng.below(i + 1));
    }
    let v = |i: usize| format!("v{}", name[i]);
    let mut shape = Rng::new(GRAPH_SHAPE_SEED);
    let mut inst = Instance::new();
    for i in 0..n {
        inst.insert(binary("e", &v(i), &v((i + 1) % n)));
    }
    while inst.len() < m {
        let (a, b) = (shape.below(n), shape.below(n));
        inst.insert(binary("e", &v(a), &v(b)));
    }
    inst
}

/// Seed of the maintain graph's shape; see [`random_graph`].
const GRAPH_SHAPE_SEED: u64 = 0xe11;

/// Endless write cycles for the maintain workload: each cycle is `k`
/// pendant edges `e(v_a, w_s)` (existing vertex to fresh vertex `w_s`,
/// `s < k`), each inserted in its own batch and then retracted together.
/// The fresh names repeat every cycle, so a completed cycle returns the
/// chase to its starting state.
pub struct CycleStream {
    rng: Rng,
    vertices: usize,
    k: usize,
}

impl CycleStream {
    pub fn new(seed: u64, vertices: usize, k: usize) -> CycleStream {
        CycleStream {
            rng: Rng::new(seed ^ 0xc7c1e),
            vertices,
            k,
        }
    }
}

impl Iterator for CycleStream {
    type Item = Vec<Fact>;

    fn next(&mut self) -> Option<Vec<Fact>> {
        Some(
            (0..self.k)
                .map(|s| {
                    let a = self.rng.below(self.vertices);
                    binary("e", &format!("v{a}"), &format!("w{s}"))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(seed: u64, n: usize) -> Vec<OpKind> {
        ServeStream::new(seed)
            .skip(ServeStream::prelude_len())
            .take(n)
            .map(|(k, _)| k)
            .collect()
    }

    fn share(ks: &[OpKind], pred: impl Fn(OpKind) -> bool) -> f64 {
        ks.iter().filter(|&&k| pred(k)).count() as f64 / ks.len() as f64
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a: Vec<_> = ServeStream::new(7).take(500).collect();
        let b: Vec<_> = ServeStream::new(7).take(500).collect();
        assert_eq!(a, b);
        assert_eq!(tenant_data(7), tenant_data(7));
        assert_eq!(random_graph(7, 30, 60), random_graph(7, 30, 60));
        let c1: Vec<_> = CycleStream::new(7, 30, 4).take(5).collect();
        let c2: Vec<_> = CycleStream::new(7, 30, 4).take(5).collect();
        assert_eq!(c1, c2);
    }

    #[test]
    fn generators_differ_across_seeds() {
        let a: Vec<_> = ServeStream::new(1).take(500).collect();
        let b: Vec<_> = ServeStream::new(2).take(500).collect();
        assert_ne!(a, b);
        assert_ne!(tenant_data(1), tenant_data(2));
        assert_ne!(random_graph(1, 30, 60), random_graph(2, 30, 60));
        let c1: Vec<_> = CycleStream::new(1, 30, 4).take(5).collect();
        let c2: Vec<_> = CycleStream::new(2, 30, 4).take(5).collect();
        assert_ne!(c1, c2);
    }

    /// The maintain base is strongly connected and has the same shape
    /// whatever the seed, so its chase, and with it the cost of a batch,
    /// does not depend on the seed.
    #[test]
    fn graph_chase_does_not_depend_on_the_seed() {
        let tc = qr_syntax::parse_theory(TC_RULES).unwrap();
        let chase = |seed| {
            let g = random_graph(seed, 12, 30);
            assert_eq!(g.len(), 30);
            let budget = qr_chase::ChaseBudget::default();
            qr_chase::chase_with(&tc, &g, budget, &qr_exec::Executor::sequential())
        };
        let first = chase(1);
        assert!(first.terminated());
        assert_eq!(first.instance.len(), 12 * 12);
        for seed in [2, 3] {
            let ch = chase(seed);
            assert_eq!(ch.rounds, first.rounds);
            assert_eq!(ch.round_of, first.round_of);
            assert_eq!(ch.stats.triggers(), first.stats.triggers());
        }
    }

    /// The serve stream's mix is the same in every window: per-op cost
    /// cannot drift with run length.
    #[test]
    fn serve_stream_is_stationary() {
        let ks = kinds(11, 40_000);
        let windows: Vec<&[OpKind]> = ks.chunks(10_000).collect();
        for w in &windows {
            let writes = share(w, |k| matches!(k, OpKind::Insert | OpKind::Retract));
            let cold = share(w, |k| k == OpKind::Cold);
            assert!((writes - WRITE_SHARE).abs() < 0.01, "write share {writes}");
            let cold_expected = (1.0 - WRITE_SHARE) * (1.0 - HOT_SHARE - ISO_SHARE);
            assert!((cold - cold_expected).abs() < 0.01, "cold share {cold}");
        }
    }

    /// Every inserted fact is later retracted, by a batch holding several
    /// inserts; inserts are a clear majority of writes, so the write
    /// median lands on inserts.
    #[test]
    fn every_insert_is_retracted_in_a_later_batch() {
        let mut live: Vec<std::collections::HashSet<Fact>> =
            vec![Default::default(); TENANTS.len()];
        let (mut inserts, mut retracts) = (0usize, 0usize);
        for (kind, req) in ServeStream::new(5).take(50_000) {
            let Request::Write(w) = req else { continue };
            let t = TENANTS.iter().position(|s| s.id == w.theory).unwrap();
            match kind {
                OpKind::Insert => {
                    inserts += 1;
                    assert_eq!(w.batch.inserts.len(), 1);
                    assert!(live[t].insert(w.batch.inserts[0].clone()), "fresh fact");
                }
                OpKind::Retract => {
                    retracts += 1;
                    assert_eq!(w.batch.retracts.len(), INSERTS_PER_RETRACT);
                    for f in &w.batch.retracts {
                        assert!(live[t].remove(f), "retracts only what it inserted");
                    }
                }
                _ => unreachable!("writes are inserts or retracts"),
            }
        }
        assert!(live.iter().all(|l| l.len() <= INSERTS_PER_RETRACT));
        let insert_share = inserts as f64 / (inserts + retracts) as f64;
        assert!(insert_share > 0.7, "insert share of writes {insert_share}");
        assert!(
            retracts as f64 / (inserts + retracts) as f64 > 0.1,
            "retracts are a real share of writes"
        );
    }

    /// Reads are dominated by the hot set (exact or α-renamed repeats), so
    /// hits are a clear majority; cold shapes alone keep misses well above
    /// 1% of reads.
    #[test]
    fn read_mix_puts_the_median_on_repeats() {
        let ks = kinds(3, 40_000);
        let reads: Vec<OpKind> = ks
            .into_iter()
            .filter(|k| matches!(k, OpKind::Hot | OpKind::Iso | OpKind::Cold))
            .collect();
        let repeats = share(&reads, |k| matches!(k, OpKind::Hot | OpKind::Iso));
        let cold = share(&reads, |k| k == OpKind::Cold);
        assert!(repeats > 0.9, "repeat share {repeats}");
        assert!(cold > 0.03, "cold share {cold}");
    }

    #[test]
    fn renderer_fills_slots() {
        assert_eq!(
            render("?({0}) :- e({0},{1}).", &|v| format!("Z{v}")),
            "?(Z0) :- e(Z0,Z1)."
        );
    }

    #[test]
    fn tenant_data_parses() {
        for text in tenant_data(9) {
            let inst = qr_syntax::parse_instance(&text).expect("generated data parses");
            assert!(inst.len() > 1000, "thousands of facts per tenant");
        }
    }
}
