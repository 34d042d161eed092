//! The rewriting cache: LRU over structural freeze keys with a byte budget.
//!
//! A cache entry is one *compiled* rewriting — the UCQ returned by the
//! saturation engine plus one [`JoinPlan`] per disjunct, ready to execute
//! against any instance. Entries are keyed by `(theory, freeze key)`, so
//! every query isomorphic to a previously-rewritten one (renamed
//! variables, permuted atoms, answer positions fixed) reuses both the
//! rewriting *and* its compiled plans.
//!
//! Eviction is plain LRU under a **logical** byte budget: entry sizes are
//! computed from fixed per-element costs (the `StorageStats` convention —
//! deterministic across machines, so eviction decisions are too, given the
//! engine touches the cache only at its ordered merge point). The budget
//! never evicts the entry being inserted: an oversized rewriting still
//! serves its own request and simply becomes the next victim.

use std::collections::HashMap;
use std::sync::Arc;

use qr_hom::{CanonicalKey, JoinPlan};
use qr_rewrite::{RewriteOutcome, Rewriting};
use qr_syntax::{Ucq, Var};

/// One disjunct of a cached rewriting, compiled for full answer
/// enumeration (no pre-bound variables).
pub(crate) struct DisjunctPlan {
    pub(crate) plan: JoinPlan,
    pub(crate) answer_vars: Vec<Var>,
}

/// A compiled rewriting: the saturated UCQ, its per-disjunct join plans,
/// and the metadata the serve layer reports per response.
pub struct CacheEntry {
    /// The rewriting set, as returned by the saturation engine.
    pub ucq: Ucq,
    /// `true` iff the rewriting saturated (`RewriteOutcome::Complete`);
    /// budget- or atom-capped rewritings still serve *sound* answers, but
    /// possibly not all certain answers, and responses say so.
    pub complete: bool,
    /// Candidates the saturation engine generated for this rewriting.
    pub generated: usize,
    /// Logical size of this entry under the fixed cost model.
    pub bytes: usize,
    pub(crate) plans: Vec<DisjunctPlan>,
}

impl CacheEntry {
    /// Compiles a finished rewriting into a cache entry.
    pub fn from_rewriting(r: Rewriting) -> Arc<CacheEntry> {
        let plans: Vec<DisjunctPlan> = r
            .ucq
            .disjuncts()
            .iter()
            .map(|d| DisjunctPlan {
                plan: JoinPlan::compile(d.atoms().to_vec(), d.var_names().len(), &[]),
                answer_vars: d.answer_vars().to_vec(),
            })
            .collect();
        let bytes = entry_bytes(&r.ucq);
        Arc::new(CacheEntry {
            complete: matches!(r.outcome, RewriteOutcome::Complete),
            generated: r.generated,
            bytes,
            plans,
            ucq: r.ucq,
        })
    }
}

/// Logical entry size: 64 bytes of header, then per disjunct 48 bytes plus
/// 8 per variable slot (the plan's assignment table), plus per atom twice
/// `16 + 8·arity` (the atom lives once in the UCQ and once in its compiled
/// plan). Fixed costs, not allocator truth — the point is determinism.
fn entry_bytes(ucq: &Ucq) -> usize {
    let mut bytes = 64;
    for d in ucq.disjuncts() {
        bytes += 48 + 8 * d.var_names().len();
        for a in d.atoms() {
            bytes += 2 * (16 + 8 * a.args.len());
        }
    }
    bytes
}

/// Cache key: tenant index plus the kernel's name-independent freeze key.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub(crate) tenant: u32,
    pub(crate) key: CanonicalKey,
}

struct Slot {
    entry: Arc<CacheEntry>,
    last_used: u64,
}

/// The LRU store. All mutation happens under the engine's merge lock, in
/// submission order, so hit/miss/eviction streams are deterministic.
pub(crate) struct RewriteCache {
    budget: usize,
    slots: HashMap<CacheKey, Slot>,
    tick: u64,
    bytes: usize,
    peak_bytes: usize,
}

impl RewriteCache {
    pub(crate) fn new(budget: usize) -> RewriteCache {
        RewriteCache {
            budget,
            slots: HashMap::new(),
            tick: 0,
            bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Looks up and touches an entry (LRU bump).
    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<Arc<CacheEntry>> {
        self.tick += 1;
        let tick = self.tick;
        self.slots.get_mut(key).map(|slot| {
            slot.last_used = tick;
            Arc::clone(&slot.entry)
        })
    }

    /// Residency peek *without* an LRU touch — the speculative check the
    /// pipeline workers use to decide whether a cold rewrite is worth
    /// starting. Never authoritative: only [`RewriteCache::get`] at the
    /// merge point decides hit vs miss.
    pub(crate) fn contains(&self, key: &CacheKey) -> bool {
        self.slots.contains_key(key)
    }

    /// Inserts an entry, then evicts least-recently-used *other* entries
    /// until the byte budget holds (the new entry itself is never evicted
    /// by its own insertion). Returns the number of evictions.
    pub(crate) fn insert(&mut self, key: CacheKey, entry: Arc<CacheEntry>) -> u64 {
        self.tick += 1;
        self.bytes += entry.bytes;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        let prev = self.slots.insert(
            key.clone(),
            Slot {
                entry,
                last_used: self.tick,
            },
        );
        debug_assert!(
            prev.is_none(),
            "insert after a miss: key cannot be resident"
        );
        let mut evicted = 0;
        while self.bytes > self.budget && self.slots.len() > 1 {
            // `last_used` ticks are unique, so the victim is unambiguous.
            let victim = self
                .slots
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
                .expect("len > 1 leaves at least one other entry");
            let slot = self.slots.remove(&victim).expect("victim is resident");
            self.bytes -= slot.entry.bytes;
            evicted += 1;
        }
        evicted
    }

    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    pub(crate) fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr_exec::Executor;
    use qr_hom::canonical_key;
    use qr_rewrite::{rewrite_with, RewriteBudget};
    use qr_syntax::{parse_query, parse_theory};

    fn entry_for(query: &str) -> (CacheKey, Arc<CacheEntry>) {
        let theory = parse_theory("p(X), e(X,Y) -> p(Y).").unwrap();
        let q = parse_query(query).unwrap();
        let r = rewrite_with(
            &theory,
            &q,
            RewriteBudget::default(),
            &Executor::sequential(),
        )
        .unwrap();
        let key = CacheKey {
            tenant: 0,
            key: canonical_key(&q),
        };
        (key, CacheEntry::from_rewriting(r))
    }

    #[test]
    fn isomorphic_queries_share_a_key() {
        let (k1, _) = entry_for("? :- p(A), e(A,B).");
        let (k2, _) = entry_for("? :- e(X,Y), p(X).");
        assert!(k1 == k2, "renamed/permuted queries collapse to one key");
        let (k3, _) = entry_for("? :- p(A), e(B,A).");
        assert!(k1 != k3, "different shape, different key");
    }

    #[test]
    fn lru_evicts_oldest_untouched_entry() {
        let (k1, e1) = entry_for("? :- p(a).");
        let (k2, e2) = entry_for("? :- p(b).");
        let (k3, e3) = entry_for("? :- p(c).");
        let budget = e1.bytes + e2.bytes + e3.bytes - 1;
        let mut cache = RewriteCache::new(budget);
        assert_eq!(cache.insert(k1.clone(), e1), 0);
        assert_eq!(cache.insert(k2.clone(), e2), 0);
        // Touch k1 so k2 becomes the LRU victim.
        assert!(cache.get(&k1).is_some());
        assert_eq!(cache.insert(k3.clone(), e3), 1);
        assert!(cache.contains(&k1));
        assert!(!cache.contains(&k2), "k2 was least recently used");
        assert!(cache.contains(&k3));
        assert!(cache.bytes() <= budget);
        assert!(cache.peak_bytes() > cache.bytes());
    }

    #[test]
    fn inserted_entry_survives_its_own_insertion() {
        let (k1, e1) = entry_for("? :- p(a).");
        let mut cache = RewriteCache::new(1); // absurdly small budget
        assert_eq!(cache.insert(k1.clone(), e1), 0);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&k1), "sole entry is never self-evicted");
        let (k2, e2) = entry_for("? :- p(b).");
        assert_eq!(cache.insert(k2.clone(), e2), 1, "k1 makes way");
        assert!(cache.contains(&k2));
    }
}
