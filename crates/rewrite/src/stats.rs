//! Per-window saturation observability, mirroring `qr-chase`'s
//! `ChaseStats`.
//!
//! A *window* is one BFS generation of the saturation loop: the set of
//! queries that were queued together before any of their descendants
//! (the items of rewriting depth `i` form window `i`). Every counter is a
//! function of the inputs; only the two wall splits vary between runs:
//!
//! * `gen_wall` — time generating the window's piece rewritings;
//! * `merge_wall` — time spent on merge decisions (dedup, subsumption,
//!   eviction, core folds of accepted candidates, budget accounting,
//!   tracing).

use std::time::Duration;

/// Counters and wall splits for one BFS window of the saturation loop.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Window index (0 = the seed query alone).
    pub window: usize,
    /// Queue depth at the window boundary: items submitted to this window.
    pub items: usize,
    /// Items of this window still alive when their merge turn came.
    pub merged: usize,
    /// Items skipped because an earlier arrival evicted them (their
    /// rewritings are never generated).
    pub dead_skipped: usize,
    /// Candidates counted against `max_generated` during this window.
    pub generated: usize,
    /// Candidates dropped at birth by the generation-side dedup: their
    /// name-independent structural key was already processed this run, so
    /// no kernel entry is acquired and no homomorphism sweep runs.
    pub dedup_hits: usize,
    /// Candidates dropped because a kept query already subsumed them.
    pub subsumption_hits: usize,
    /// Kept queries evicted by more general candidates of this window.
    pub evictions: usize,
    /// Candidates discarded for exceeding `max_atoms`.
    pub oversized: usize,
    /// Candidates accepted into the kept set.
    pub accepted: usize,
    /// Alive kept-set size when the window closed.
    pub kept: usize,
    /// (query atom × head atom) unification attempts made by the
    /// piece-unifier enumeration for this window's merged items.
    pub unifier_probes: usize,
    /// (query atom × head atom) pairings pruned statically by the
    /// piece-unifier index — predicate-mismatched pairs and whole rules
    /// skipped by the 64-bit mask prefilter — for this window's merged
    /// items.
    pub unifier_skipped: usize,
    /// Kept entries returned by the predicate-set trie as compatible with
    /// a candidate (subsumption: subset probes; eviction: superset
    /// probes). These are the only entries that reach the kernel.
    pub trie_probes: usize,
    /// Kept entries the trie pruned before any kernel call (alive entries
    /// minus probes, summed over both sweeps of every candidate).
    pub trie_skipped: usize,
    /// Generation time for this window's items.
    pub gen_wall: Duration,
    /// Merge-decision time.
    pub merge_wall: Duration,
}

/// Saturation-run statistics: one [`WindowStats`] per BFS window, in
/// order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Per-window counters, in window order.
    pub windows: Vec<WindowStats>,
}

impl RewriteStats {
    /// Total candidates counted against `max_generated`.
    pub fn generated(&self) -> usize {
        self.windows.iter().map(|w| w.generated).sum()
    }

    /// Total items merged while alive.
    pub fn merged(&self) -> usize {
        self.windows.iter().map(|w| w.merged).sum()
    }

    /// Total items skipped as evicted before their merge turn.
    pub fn dead_skipped(&self) -> usize {
        self.windows.iter().map(|w| w.dead_skipped).sum()
    }

    /// Total candidates dropped at birth by the structural-key dedup.
    pub fn dedup_hits(&self) -> usize {
        self.windows.iter().map(|w| w.dedup_hits).sum()
    }

    /// Total candidates dropped by subsumption.
    pub fn subsumption_hits(&self) -> usize {
        self.windows.iter().map(|w| w.subsumption_hits).sum()
    }

    /// Total kept queries evicted.
    pub fn evictions(&self) -> usize {
        self.windows.iter().map(|w| w.evictions).sum()
    }

    /// Total candidates discarded for exceeding `max_atoms`.
    pub fn oversized(&self) -> usize {
        self.windows.iter().map(|w| w.oversized).sum()
    }

    /// Total candidates accepted into the kept set.
    pub fn accepted(&self) -> usize {
        self.windows.iter().map(|w| w.accepted).sum()
    }

    /// Total piece-unifier unification attempts.
    pub fn unifier_probes(&self) -> usize {
        self.windows.iter().map(|w| w.unifier_probes).sum()
    }

    /// Total pairings pruned by the piece-unifier index.
    pub fn unifier_skipped(&self) -> usize {
        self.windows.iter().map(|w| w.unifier_skipped).sum()
    }

    /// Total kept entries the trie passed to the kernel.
    pub fn trie_probes(&self) -> usize {
        self.windows.iter().map(|w| w.trie_probes).sum()
    }

    /// Total kept entries the trie pruned before any kernel call.
    pub fn trie_skipped(&self) -> usize {
        self.windows.iter().map(|w| w.trie_skipped).sum()
    }

    /// Total generation time.
    pub fn gen_wall(&self) -> Duration {
        self.windows.iter().map(|w| w.gen_wall).sum()
    }

    /// Total merge-decision time.
    pub fn merge_wall(&self) -> Duration {
        self.windows.iter().map(|w| w.merge_wall).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_windows() {
        let stats = RewriteStats {
            windows: vec![
                WindowStats {
                    window: 0,
                    items: 1,
                    merged: 1,
                    generated: 3,
                    dedup_hits: 1,
                    subsumption_hits: 1,
                    accepted: 1,
                    kept: 2,
                    unifier_probes: 9,
                    unifier_skipped: 3,
                    trie_probes: 2,
                    trie_skipped: 1,
                    gen_wall: Duration::from_millis(10),
                    merge_wall: Duration::from_millis(2),
                    ..WindowStats::default()
                },
                WindowStats {
                    window: 1,
                    items: 2,
                    merged: 1,
                    dead_skipped: 1,
                    generated: 5,
                    evictions: 1,
                    oversized: 2,
                    accepted: 1,
                    kept: 2,
                    unifier_probes: 4,
                    unifier_skipped: 8,
                    trie_probes: 1,
                    trie_skipped: 2,
                    gen_wall: Duration::from_millis(6),
                    merge_wall: Duration::from_millis(1),
                    ..WindowStats::default()
                },
            ],
        };
        assert_eq!(stats.generated(), 8);
        assert_eq!(stats.merged(), 2);
        assert_eq!(stats.dead_skipped(), 1);
        assert_eq!(stats.dedup_hits(), 1);
        assert_eq!(stats.subsumption_hits(), 1);
        assert_eq!(stats.evictions(), 1);
        assert_eq!(stats.oversized(), 2);
        assert_eq!(stats.accepted(), 2);
        assert_eq!(stats.unifier_probes(), 13);
        assert_eq!(stats.unifier_skipped(), 11);
        assert_eq!(stats.trie_probes(), 3);
        assert_eq!(stats.trie_skipped(), 3);
        assert_eq!(stats.gen_wall(), Duration::from_millis(16));
        assert_eq!(stats.merge_wall(), Duration::from_millis(3));
    }
}
