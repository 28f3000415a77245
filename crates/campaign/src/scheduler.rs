//! Jobs and what runs them: the (target × seed-shard) [`Job`] unit, its
//! seed and budget, and [`run_job`], one attempt's fuzzing campaign with
//! the CompDiff oracle attached. Scheduling lives in the coordinator
//! (DESIGN.md §8); the worker loop calls [`run_job`].
//!
//! Determinism: a job's fuzzing seed is derived from `(campaign seed,
//! target name, shard index)` and *never* from which worker runs it or
//! when. Retry backoff is a *queue position* derived from the same seed
//! material — no wall-clock sleeps — so a campaign with failures replays
//! exactly under the same seed and fault plan. A campaign's deduped
//! signature set is the order-independent union of its jobs' sets, so N
//! workers and 1 worker produce identical results.

use crate::cache::CompiledTarget;
use crate::faults::FaultKind;
use crate::state::{FailureKind, JobRecord};
use crate::telem::{CampaignTelemetry, DiffTelemetry};
use crate::CampaignConfig;
use compdiff::{hash64, DiffOutcome, DiffStore};
use fuzzing::{BinaryTarget, FuzzConfig, Fuzzer, Oracle};
use minc_vm::{ExecResult, ExecSession, SessionStats};
use std::collections::BTreeSet;

/// One schedulable unit: one attempt at one seed shard of one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Index into the campaign's target list.
    pub target_index: usize,
    /// Shard index, `0..shards_per_target`.
    pub shard: u32,
    /// 1-based attempt number (2+ are retries).
    pub attempt: u32,
}

/// A finished job, tagged with the worker that ran it. Only `record`
/// enters the checkpoint; the rest is telemetry the coordinator turns
/// into events (the checkpoint schema stays stable).
#[derive(Debug)]
pub struct JobOutput {
    /// Worker index.
    pub worker: usize,
    /// The checkpointable record.
    pub record: JobRecord,
    /// Job wall-clock duration in microseconds, by the campaign clock.
    pub dur_us: u64,
    /// Summed VM statistics across the job's differential sessions.
    pub vm: SessionStats,
}

/// A failed job attempt, already converted to structured data — panic
/// payloads and compile errors never cross the channel raw.
#[derive(Debug)]
pub struct JobFailure {
    /// Worker index.
    pub worker: usize,
    /// The attempt that failed.
    pub job: Job,
    /// Target name (resolved from `job.target_index`).
    pub target: String,
    /// Failure class.
    pub kind: FailureKind,
    /// Human-readable cause (panic payload, compile error, ...).
    pub message: String,
    /// Attempt wall-clock duration in microseconds.
    pub dur_us: u64,
}

/// What one job attempt resolved to.
#[derive(Debug)]
pub enum JobResult {
    /// The attempt completed and produced a checkpointable record.
    Done(JobOutput),
    /// The attempt failed (panic, compile error, or injected fault).
    Failed(JobFailure),
}

/// The result handler's answer to a [`JobResult`] — how the coordinator
/// proceeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Nothing to do; the job is resolved.
    Continue,
    /// Requeue this job (its `attempt` already incremented) at a
    /// deterministic backoff position.
    Retry(Job),
    /// Drop every queued job of this target; the swept jobs are counted
    /// as skipped.
    Quarantine {
        /// Index into the campaign's target list.
        target_index: usize,
    },
    /// Abort the campaign: workers stop picking up jobs and in-flight
    /// results are dropped — the simulated `kill` the resume path
    /// recovers from.
    Stop,
}

/// The per-job RNG seed: a SplitMix64 mix of the campaign seed, the
/// target's name hash, and the shard index. Worker assignment and timing
/// never enter, which is what makes campaigns reproducible at any `-j`.
pub fn job_seed(campaign_seed: u64, target: &str, shard: u32) -> u64 {
    let mut z = campaign_seed
        .wrapping_add(hash64(target.as_bytes()))
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(shard) + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic retry backoff. Instead of a wall-clock delay (which
/// would reintroduce timing into an otherwise pure schedule), backoff is
/// expressed as *queue position* material: the retried job is inserted
/// mid-deque so other queued work runs first. A pure function of the
/// campaign seed and the job identity, so kill/resume replays it.
pub fn retry_backoff(campaign_seed: u64, target: &str, shard: u32, attempt: u32) -> u64 {
    let salt = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(attempt));
    job_seed(campaign_seed ^ salt, target, shard)
}

/// Splits a target's execution budget across its shards; the remainder
/// `r` is spread one-exec-each over the first `r` shards, so the budget
/// is spent exactly and no shard carries more than one extra exec (shard
/// 0 used to absorb the whole remainder, making lease 0 up to
/// `shards - 1` execs heavier than every other lease).
pub fn execs_for_shard(execs_per_target: u64, shards: u32, shard: u32) -> u64 {
    let shards = u64::from(shards.max(1));
    let base = execs_per_target / shards;
    base + u64::from(u64::from(shard) < execs_per_target % shards)
}

/// The differential oracle a worker plugs into its fuzzer: borrows the
/// shared (immutable) engine, writes into job-local accumulators. The
/// sessions are job-local mutable state — one persistent session per
/// differential binary, so every oracle execution in the job runs in
/// persistent mode (the `BinaryCache` shares the read-only binaries
/// across workers; sessions are the per-(worker, binary) hot state).
struct DiffOracle<'a> {
    diff: &'a compdiff::CompDiff,
    sessions: &'a mut [ExecSession],
    store: &'a mut DiffStore,
    oracle_execs: &'a mut u64,
    divergent: &'a mut u64,
    obs: DiffTelemetry<'a>,
}

impl DiffOracle<'_> {
    fn verdict(&mut self, outcome: &DiffOutcome, input: &[u8]) -> bool {
        if outcome.divergent {
            *self.divergent += 1;
            self.store.record(self.diff, outcome, input);
            return true;
        }
        outcome.unresolved_timeout
    }
}

impl Oracle for DiffOracle<'_> {
    fn examine(&mut self, input: &[u8], _result: &ExecResult) -> bool {
        let outcome: DiffOutcome =
            self.diff
                .run_input_observed(self.sessions, input, &mut self.obs);
        *self.oracle_execs += self.diff.binaries().len() as u64;
        self.verdict(&outcome, input)
    }

    fn examine_batch(&mut self, items: &[(Vec<u8>, ExecResult)]) -> Vec<bool> {
        let inputs: Vec<&[u8]> = items.iter().map(|(i, _)| i.as_slice()).collect();
        let outcomes = self
            .diff
            .run_batch_observed(self.sessions, &inputs, &mut self.obs);
        *self.oracle_execs += (self.diff.binaries().len() * items.len()) as u64;
        outcomes
            .iter()
            .zip(&inputs)
            .map(|(outcome, input)| self.verdict(outcome, input))
            .collect()
    }
}

/// Runs one job attempt to completion: a full fuzzing campaign over the
/// shard's seed slice with the CompDiff oracle attached, instrumented
/// through `ctel` (metric updates only — events are the coordinator's
/// job, so a worker thread never touches the recorder).
///
/// # Errors
///
/// Returns the failure kind and message for an injected (non-panic) job
/// fault; injected *panics* unwind out of this function and are caught
/// by the worker loop.
///
/// # Panics
///
/// Panics deliberately when the fault plan schedules `panic@...` for
/// this job attempt (and whenever the fuzzing or VM stack itself has a
/// bug — which is exactly what the worker's `catch_unwind` isolates).
pub fn run_job(
    ct: &CompiledTarget,
    cfg: &CampaignConfig,
    job: Job,
    worker: usize,
    ctel: &CampaignTelemetry,
) -> Result<JobOutput, (FailureKind, String)> {
    let job_start_us = ctel.tel.now_micros();
    if let Some(plan) = cfg.fault_plan.as_deref() {
        match plan.fire_job(&ct.name, job.shard, job.attempt) {
            Some(FaultKind::Panic) => panic!(
                "fault plan panicked job {}#{} (attempt {})",
                ct.name, job.shard, job.attempt
            ),
            Some(FaultKind::Io) => {
                return Err((
                    FailureKind::Io,
                    format!(
                        "injected I/O error in job {}#{} (attempt {})",
                        ct.name, job.shard, job.attempt
                    ),
                ));
            }
            _ => {}
        }
    }
    let seed = job_seed(cfg.seed, &ct.name, job.shard);
    let max_execs = execs_for_shard(cfg.execs_per_target, cfg.shards_per_target, job.shard);
    // The seed-slice: shard s takes every `shards`-th corpus entry
    // starting at s; a shard whose slice is empty falls back to the full
    // corpus (still deterministic — the slice depends only on the shard).
    let mut seeds: Vec<Vec<u8>> = ct
        .seeds
        .iter()
        .skip(job.shard as usize)
        .step_by(cfg.shards_per_target.max(1) as usize)
        .cloned()
        .collect();
    if seeds.is_empty() {
        seeds = ct.seeds.clone();
    }

    let mut store = DiffStore::new();
    let mut oracle_execs = 0u64;
    let mut divergent = 0u64;
    let mut sessions = ct.diff_sessions();
    let stats = Fuzzer::new(
        BinaryTarget::new(&ct.fuzz_binary, cfg.diff_config.vm.clone())
            .with_block_program(std::sync::Arc::clone(&ct.fuzz_blocks)),
        DiffOracle {
            diff: &ct.diff,
            sessions: &mut sessions,
            store: &mut store,
            oracle_execs: &mut oracle_execs,
            divergent: &mut divergent,
            obs: ctel.diff_observer(),
        },
        FuzzConfig {
            max_execs,
            seed,
            max_input_len: cfg.max_input_len,
            deterministic: true,
            dictionary: vec![ct.magic.to_vec()],
            batch_size: cfg.batch_size,
        },
    )
    .with_observer(ctel.fuzz_observer())
    .run(&seeds);

    let mut vm = SessionStats::default();
    for s in &sessions {
        vm.merge(s.stats());
    }
    ctel.record_vm(vm);
    ctel.jobs_done.inc();
    let dur_us = ctel.tel.now_micros().saturating_sub(job_start_us);
    ctel.job_us.record(dur_us);

    let signatures: BTreeSet<String> = store
        .reports()
        .iter()
        .map(|d| d.signature.clone())
        .collect();
    Ok(JobOutput {
        worker,
        record: JobRecord {
            target: ct.name.clone(),
            shard: job.shard,
            execs: stats.execs,
            oracle_execs,
            divergent,
            crashes: stats.crashes.len() as u64,
            signatures: signatures.into_iter().collect(),
        },
        dur_us,
        vm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_seed_depends_on_all_inputs() {
        let base = job_seed(1, "tcpdump", 0);
        assert_ne!(base, job_seed(2, "tcpdump", 0));
        assert_ne!(base, job_seed(1, "mujs", 0));
        assert_ne!(base, job_seed(1, "tcpdump", 1));
        assert_eq!(base, job_seed(1, "tcpdump", 0), "pure function");
    }

    #[test]
    fn shard_budgets_sum_to_target_budget() {
        for (total, shards) in [
            (1_000u64, 4u32),
            (7u64, 3u32),
            (5u64, 8u32),
            (2_001u64, 4u32),
            (0u64, 3u32),
        ] {
            let budgets: Vec<u64> = (0..shards)
                .map(|s| execs_for_shard(total, shards, s))
                .collect();
            let sum: u64 = budgets.iter().sum();
            assert_eq!(sum, total);
            let max = budgets.iter().max().copied().unwrap_or(0);
            let min = budgets.iter().min().copied().unwrap_or(0);
            assert!(
                max - min <= 1,
                "remainder must be spread evenly, got {budgets:?} for {total}/{shards}"
            );
        }
    }

    #[test]
    fn retry_backoff_is_pure_and_attempt_dependent() {
        let a = retry_backoff(1, "tcpdump", 0, 2);
        assert_eq!(a, retry_backoff(1, "tcpdump", 0, 2), "pure function");
        assert_ne!(a, retry_backoff(1, "tcpdump", 0, 3), "varies by attempt");
        assert_ne!(a, retry_backoff(2, "tcpdump", 0, 2), "varies by seed");
    }
}
