//! Observability for chase runs.
//!
//! Every [`run`](crate::engine::chase) fills a [`ChaseStats`] with one
//! [`RoundStats`] per completed (or attempted) round: how many triggers
//! were enumerated, how much raw matcher work was done, what the round
//! produced, and how long it took. The bench harness serializes these
//! counters to `BENCH_chase.json` so the repo's perf trajectory is
//! recorded as data, not anecdotes. The storage footprint of a run is not
//! copied here; it is the chased instance's own `Instance::stats()`.

use std::time::Duration;

/// Counters for a single chase round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// The round number (1-based; round 0 is the input instance).
    pub round: usize,
    /// Complete body matches enumerated (trigger candidates passed to the
    /// head-application stage, before fact dedup).
    pub triggers: u64,
    /// Candidate facts / domain terms scanned by the matcher while
    /// extending partial assignments — the engine's raw work measure.
    pub candidates: u64,
    /// Dom-variable sweep joins actually invoked: `(dom atom, new term)`
    /// pairs that passed the locality filter.
    pub dom_sweeps: u64,
    /// Sweep pairs skipped by the dom-sweep locality index (the term does
    /// not occur in the delta at every position the rest-plan needs).
    pub dom_pruned: u64,
    /// Facts newly added by this round.
    pub facts_added: usize,
    /// Distinct terms that first entered the active domain this round.
    pub terms_added: usize,
    /// Wall time spent enumerating triggers (the phase that runs on the
    /// executor's worker pool).
    pub enum_wall: Duration,
    /// Wall time spent merging task outputs in submission order and
    /// applying the round's insertions.
    pub merge_wall: Duration,
    /// Total wall time of the round (enumeration + merge + bookkeeping).
    pub wall: Duration,
}

/// Per-run chase statistics: one entry per round, in order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Worker threads the round tasks were scheduled on (1 = sequential).
    pub threads: usize,
    /// Per-round counters. The final entry may describe a round that added
    /// nothing (the fixpoint probe).
    pub rounds: Vec<RoundStats>,
}

impl ChaseStats {
    /// Total triggers enumerated across all rounds.
    pub fn triggers(&self) -> u64 {
        self.rounds.iter().map(|r| r.triggers).sum()
    }

    /// Total matcher candidates scanned across all rounds.
    pub fn candidates(&self) -> u64 {
        self.rounds.iter().map(|r| r.candidates).sum()
    }

    /// Total dom-variable sweeps invoked across all rounds.
    pub fn dom_sweeps(&self) -> u64 {
        self.rounds.iter().map(|r| r.dom_sweeps).sum()
    }

    /// Total dom-variable sweeps pruned by the locality index.
    pub fn dom_pruned(&self) -> u64 {
        self.rounds.iter().map(|r| r.dom_pruned).sum()
    }

    /// Total facts added by rule applications (excludes the input).
    pub fn facts_added(&self) -> usize {
        self.rounds.iter().map(|r| r.facts_added).sum()
    }

    /// Total fresh terms introduced by rule applications.
    pub fn terms_added(&self) -> usize {
        self.rounds.iter().map(|r| r.terms_added).sum()
    }

    /// Total wall time across all rounds.
    pub fn wall(&self) -> Duration {
        self.rounds.iter().map(|r| r.wall).sum()
    }

    /// Total trigger-enumeration wall time across all rounds.
    pub fn enum_wall(&self) -> Duration {
        self.rounds.iter().map(|r| r.enum_wall).sum()
    }

    /// Total merge/apply wall time across all rounds.
    pub fn merge_wall(&self) -> Duration {
        self.rounds.iter().map(|r| r.merge_wall).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_rounds() {
        let stats = ChaseStats {
            threads: 1,
            rounds: vec![
                RoundStats {
                    round: 1,
                    triggers: 3,
                    candidates: 10,
                    dom_sweeps: 2,
                    dom_pruned: 1,
                    facts_added: 2,
                    terms_added: 1,
                    enum_wall: Duration::from_micros(3),
                    merge_wall: Duration::from_micros(1),
                    wall: Duration::from_micros(5),
                },
                RoundStats {
                    round: 2,
                    triggers: 4,
                    candidates: 20,
                    dom_sweeps: 1,
                    dom_pruned: 0,
                    facts_added: 0,
                    terms_added: 0,
                    enum_wall: Duration::from_micros(4),
                    merge_wall: Duration::from_micros(2),
                    wall: Duration::from_micros(7),
                },
            ],
        };
        assert_eq!(stats.triggers(), 7);
        assert_eq!(stats.candidates(), 30);
        assert_eq!(stats.dom_sweeps(), 3);
        assert_eq!(stats.dom_pruned(), 1);
        assert_eq!(stats.facts_added(), 2);
        assert_eq!(stats.terms_added(), 1);
        assert_eq!(stats.enum_wall(), Duration::from_micros(7));
        assert_eq!(stats.merge_wall(), Duration::from_micros(3));
        assert_eq!(stats.wall(), Duration::from_micros(12));
    }
}
