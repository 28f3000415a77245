//! Retry/quarantine policy: what happens after a job attempt fails.
//!
//! The policy is deliberately a pure, replayable state machine: the
//! campaign loop feeds every failure into [`FaultLedger::note_failure`]
//! as it happens, and the resume path feeds the checkpoint's replayed
//! [`FailureRecord`](crate::state::FailureRecord)s through the *same*
//! function in the *same* order — so a killed-and-resumed campaign
//! reconstructs attempt counts, per-target failure counts, and the
//! quarantine set exactly as the uninterrupted run built them.
//!
//! The policy itself: a failed attempt is retried (with deterministic,
//! schedule-position backoff — see
//! [`retry_backoff`](crate::scheduler::retry_backoff)) until the job has
//! failed `max_retries + 1` times, at which point it is abandoned.
//! Independently, every failure counts against the job's *target*; once
//! a target accumulates `quarantine_after` failures it is quarantined —
//! its queued shards are dropped and the campaign completes with a
//! partial-results report instead of burning its budget on a degenerate
//! target.

use std::collections::{BTreeMap, BTreeSet};

/// The campaign's failure-handling knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-runs granted to a failed job before it is abandoned (so a job
    /// is attempted at most `max_retries + 1` times).
    pub max_retries: u32,
    /// Cumulative failures (across all shards and attempts) after which
    /// a target is quarantined.
    pub quarantine_after: u32,
}

/// What the policy decided for one failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Re-run the job as attempt `next_attempt`.
    Retry {
        /// The attempt number the re-run will carry.
        next_attempt: u32,
    },
    /// The job exhausted its retry budget; it is abandoned.
    Exhausted,
    /// This failure pushed the target over `quarantine_after`: the job
    /// is abandoned and the target's queued shards must be dropped.
    Quarantine,
    /// The target was already quarantined (an in-flight straggler on a
    /// parallel campaign); the job is abandoned without a retry.
    AlreadyQuarantined,
}

impl Disposition {
    /// True if the job is finished (failed) rather than retried.
    pub fn is_terminal(self) -> bool {
        !matches!(self, Disposition::Retry { .. })
    }
}

/// The replayable failure state of one campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// Highest failed attempt per `(target, shard)` job.
    pub attempts: BTreeMap<(String, u32), u32>,
    /// Cumulative failures per target.
    pub target_failures: BTreeMap<String, u32>,
    /// Targets over the quarantine threshold.
    pub quarantined: BTreeSet<String>,
    /// Jobs resolved as failed (exhausted or quarantined mid-attempt) —
    /// terminal, so resume must not reschedule them.
    pub failed_jobs: BTreeSet<(String, u32)>,
}

impl FaultLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        FaultLedger::default()
    }

    /// Folds in one failed attempt and returns the policy's decision.
    /// Call in failure order — live from the coordinator or replayed from
    /// a checkpoint; both walks produce identical ledgers.
    pub fn note_failure(
        &mut self,
        policy: &RetryPolicy,
        target: &str,
        shard: u32,
        attempt: u32,
    ) -> Disposition {
        let a = self
            .attempts
            .entry((target.to_string(), shard))
            .or_insert(0);
        *a = (*a).max(attempt);
        if self.quarantined.contains(target) {
            self.failed_jobs.insert((target.to_string(), shard));
            return Disposition::AlreadyQuarantined;
        }
        let tf = self.target_failures.entry(target.to_string()).or_insert(0);
        *tf += 1;
        if *tf >= policy.quarantine_after {
            self.quarantined.insert(target.to_string());
            self.failed_jobs.insert((target.to_string(), shard));
            return Disposition::Quarantine;
        }
        if attempt <= policy.max_retries {
            Disposition::Retry {
                next_attempt: attempt + 1,
            }
        } else {
            self.failed_jobs.insert((target.to_string(), shard));
            Disposition::Exhausted
        }
    }

    /// Highest failed attempt recorded for a job (0 = never failed).
    pub fn prior_attempts(&self, target: &str, shard: u32) -> u32 {
        self.attempts
            .get(&(target.to_string(), shard))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    // test-only: unwraps in this module assert test invariants.
    use super::*;

    const POLICY: RetryPolicy = RetryPolicy {
        max_retries: 2,
        quarantine_after: 4,
    };

    #[test]
    fn retries_then_exhausts() {
        let mut l = FaultLedger::new();
        assert_eq!(
            l.note_failure(&POLICY, "t", 0, 1),
            Disposition::Retry { next_attempt: 2 }
        );
        assert_eq!(
            l.note_failure(&POLICY, "t", 0, 2),
            Disposition::Retry { next_attempt: 3 }
        );
        assert_eq!(l.note_failure(&POLICY, "t", 0, 3), Disposition::Exhausted);
        assert!(l.failed_jobs.contains(&("t".to_string(), 0)));
        assert_eq!(l.prior_attempts("t", 0), 3);
        assert_eq!(l.prior_attempts("t", 1), 0);
    }

    #[test]
    fn quarantine_crosses_shards_and_wins_over_retry() {
        let mut l = FaultLedger::new();
        l.note_failure(&POLICY, "t", 0, 1);
        l.note_failure(&POLICY, "t", 1, 1);
        l.note_failure(&POLICY, "t", 2, 1);
        // Fourth failure anywhere in the target quarantines it, even
        // though this job still had retry budget.
        assert_eq!(l.note_failure(&POLICY, "t", 3, 1), Disposition::Quarantine);
        assert!(l.quarantined.contains("t"));
        // Stragglers resolve without retries and without re-counting.
        assert_eq!(
            l.note_failure(&POLICY, "t", 4, 1),
            Disposition::AlreadyQuarantined
        );
        assert_eq!(l.target_failures["t"], 4, "post-quarantine not counted");
        // Other targets are untouched.
        assert_eq!(
            l.note_failure(&POLICY, "u", 0, 1),
            Disposition::Retry { next_attempt: 2 }
        );
    }

    /// The resume guarantee: replaying the same failure sequence through
    /// a fresh ledger reconstructs the exact same state.
    #[test]
    fn replay_reconstructs_identical_ledger() {
        let seq = [
            ("a", 0u32, 1u32),
            ("b", 1, 1),
            ("a", 0, 2),
            ("a", 1, 1),
            ("a", 0, 3),
            ("a", 2, 1),
            ("b", 1, 2),
        ];
        let mut live = FaultLedger::new();
        for (t, s, a) in seq {
            live.note_failure(&POLICY, t, s, a);
        }
        let mut replayed = FaultLedger::new();
        for (t, s, a) in seq {
            replayed.note_failure(&POLICY, t, s, a);
        }
        assert_eq!(live, replayed);
    }
}
