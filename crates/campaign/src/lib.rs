//! # campaign — parallel multi-target differential-fuzzing campaigns
//!
//! The paper's evaluation fuzzes 23 targets × 24 hours with CompDiff
//! attached; this crate is the orchestrator that makes that workload
//! practical: one lease coordinator shards every target's budget into
//! (target × seed-slice) [`scheduler::Job`]s across N workers — threads
//! over `mpsc` or processes over a loopback socket, one [`worker`] loop
//! for both — a shared
//! [`cache::BinaryCache`] compiles each target's ten differential binaries
//! (plus the fuzz binary) exactly once, a crash-resilient
//! [`state::CampaignState`] checkpoints each finished job to a JSONL file
//! so a killed campaign resumes where it stopped, and a
//! [`stats::CampaignStats`] aggregator dedups discrepancies campaign-wide
//! by [`compdiff::signature_of`].
//!
//! Campaigns are deterministic: each job's fuzzing RNG is seeded from
//! `(campaign seed, target, shard)` only, so the deduped signature set is
//! identical at any worker count; and since shards are partitioned
//! across workers and events are re-sorted into a canonical order, a
//! campaign at N workers renders the same report and metrics stream on
//! every run and over either transport.
//!
//! Campaigns are also *fault-tolerant*: a panicking job or compile is
//! caught ([`worker`], [`cache`]) and becomes a structured
//! [`state::FailureRecord`]; failed jobs are retried with deterministic
//! backoff and repeatedly failing targets are quarantined
//! ([`policy`]); checkpoints are fsynced per record and survive
//! kill/resume including their failure history ([`state`]); and every
//! recovery path is exercisable on demand through the seeded
//! fault-injection harness ([`faults`]). A campaign with failing jobs
//! completes with a partial-results report instead of aborting.
//!
//! ```
//! let report = campaign::run(&campaign::CampaignConfig {
//!     workers: 2,
//!     execs_per_target: 60,
//!     shards_per_target: 2,
//!     target_filter: Some(vec!["tcpdump".to_string()]),
//!     ..Default::default()
//! })
//! .unwrap();
//! assert_eq!(report.stats.jobs_done, 2);
//! ```

#![warn(missing_docs)]

pub mod cache;
mod coordinator;
pub mod faults;
pub mod policy;
pub mod proto;
pub mod scheduler;
pub mod state;
pub mod stats;
pub mod telem;
pub mod worker;

pub use cache::{BinaryCache, CacheError, CompiledTarget};
pub use coordinator::resolve_worker_exe;
pub use faults::{FaultKind, FaultPlan};
pub use policy::{Disposition, FaultLedger, RetryPolicy};
pub use scheduler::{execs_for_shard, job_seed, retry_backoff, Decision, Job, JobResult};
pub use state::{
    CampaignHeader, CampaignState, FailureKind, FailureRecord, JobRecord, StateError,
    CHECKPOINT_FILE, LOCK_FILE,
};
pub use stats::{CampaignStats, TargetStats};
pub use telem::CampaignTelemetry;
pub use worker::{query_status, run_worker};

use compdiff::{DiffConfig, Json};
use minc_compile::CompilerImpl;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use targets::{SharedSource, Target};
use telemetry::{JsonlRecorder, MonotonicClock, NoopRecorder, Telemetry, TestClock};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Worker threads (ignored when `workers_proc` is set).
    pub workers: usize,
    /// Fuzz-binary execution budget per target (split across shards).
    pub execs_per_target: u64,
    /// Seed shards per target; also the campaign's unit of checkpointing.
    pub shards_per_target: u32,
    /// Root RNG seed.
    pub seed: u64,
    /// Maximum fuzzed input length.
    pub max_input_len: usize,
    /// Differential-engine configuration (implementations, VM limits).
    pub diff_config: DiffConfig,
    /// Implementation used for the coverage-instrumented fuzz binary.
    pub fuzz_impl: CompilerImpl,
    /// Directory for `checkpoint.jsonl`; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from an existing checkpoint instead of starting fresh.
    pub resume: bool,
    /// Where the campaign's programs come from (default: the static
    /// 23-target catalog). Generated programs enter here — e.g.
    /// `targets::dir_source` over a `compdiff progen` output directory.
    pub source: SharedSource,
    /// Restrict the campaign to these source targets (default: all).
    pub target_filter: Option<Vec<String>>,
    /// Abort after this many *live* job attempts resolve (done or
    /// failed) — the test hook that simulates a mid-campaign kill at any
    /// job boundary, including failure boundaries.
    pub stop_after_jobs: Option<usize>,
    /// Re-runs granted to a failed job before it is abandoned.
    pub max_retries: u32,
    /// Cumulative failures after which a target is quarantined (its
    /// remaining shards are skipped and the campaign reports partial
    /// results).
    pub quarantine_after: u32,
    /// Deterministic fault-injection plan; `None` (the production
    /// default) reduces every injection point to one `Option` check.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Suppress the live progress line.
    pub quiet: bool,
    /// Stream telemetry events (JSONL, one `compdiff::json` object per
    /// line) to this path; `None` leaves event recording disabled.
    pub metrics_out: Option<PathBuf>,
    /// Emit a progress line to stderr every this many finished jobs;
    /// `0` disables periodic progress.
    pub progress_every: usize,
    /// Pin the telemetry clock to this fixed microsecond reading instead
    /// of wall time. This makes the report and event stream
    /// byte-identical across runs at any worker count (the determinism
    /// test hook).
    pub fixed_clock_us: Option<u64>,
    /// Inputs per batched oracle sweep: each differential binary runs the
    /// whole batch before the next binary starts, and only inputs whose
    /// output digests disagree are bisected through the full per-input
    /// escalation path. `1` restores strict per-input interleaving.
    pub batch_size: usize,
    /// Run the sanitizer meta-oracle over every selected target after
    /// fuzzing finishes, publishing `sancheck.*` metrics (site counts,
    /// sanitizer false negatives/alarms, cross-impl verdict splits).
    pub sancheck: bool,
    /// Run the campaign's workers as this many *processes* (the JSONL
    /// socket protocol; see DESIGN.md §17) instead of `workers` threads.
    /// `None` (the default) runs threads.
    pub workers_proc: Option<usize>,
    /// Worker executable the coordinator spawns; `None` resolves the
    /// `compdiff` binary next to the current executable.
    pub worker_exe: Option<PathBuf>,
    /// The textual fault-plan spec, carried alongside `fault_plan` so
    /// worker processes can re-parse it under the campaign seed
    /// (`Arc<FaultPlan>` does not cross a process boundary).
    pub fault_plan_spec: Option<String>,
    /// Write the coordinator's status-endpoint address (`host:port`
    /// plus a newline) to this file once it is listening (worker-process
    /// campaigns only; thread campaigns open no socket).
    pub status_addr_out: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            workers: 4,
            execs_per_target: 2_000,
            shards_per_target: 4,
            seed: 0xCA3D,
            max_input_len: 64,
            diff_config: DiffConfig::default(),
            fuzz_impl: CompilerImpl::parse("clang-O1").expect("clang-O1 is a valid impl"),
            checkpoint_dir: None,
            resume: false,
            source: SharedSource::default(),
            target_filter: None,
            stop_after_jobs: None,
            max_retries: 2,
            quarantine_after: 3,
            fault_plan: None,
            quiet: true,
            metrics_out: None,
            progress_every: 0,
            fixed_clock_us: None,
            batch_size: 16,
            sancheck: false,
            workers_proc: None,
            worker_exe: None,
            fault_plan_spec: None,
            status_addr_out: None,
        }
    }
}

/// Errors a campaign can fail with. A failing *job* is not among them:
/// compile errors, panics, and I/O faults inside jobs are handled by the
/// retry/quarantine machinery and reported as partial results.
#[derive(Debug)]
pub enum CampaignError {
    /// The checkpoint could not be created or read.
    State(StateError),
    /// The target filter matched nothing.
    UnknownTarget(String),
    /// The `metrics_out` stream could not be created.
    Metrics(std::io::Error),
    /// Invalid configuration (e.g. an unparseable fault-plan spec).
    Config(String),
    /// The coordinator/worker protocol failed (socket setup, worker
    /// spawn, or a malformed frame).
    Proto(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::State(e) => write!(f, "{e}"),
            CampaignError::UnknownTarget(m) => write!(f, "{m}"),
            CampaignError::Metrics(e) => write!(f, "cannot open metrics stream: {e}"),
            CampaignError::Config(m) => write!(f, "invalid campaign config: {m}"),
            CampaignError::Proto(m) => write!(f, "campaign protocol error: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<StateError> for CampaignError {
    fn from(e: StateError) -> Self {
        CampaignError::State(e)
    }
}

/// The result of [`run`].
#[derive(Debug)]
pub struct CampaignReport {
    /// Aggregated statistics (including checkpoint-replayed jobs).
    pub stats: CampaignStats,
    /// Wall-clock time of this process's portion of the campaign.
    pub elapsed: Duration,
    /// Binary-cache `(hits, misses)`; misses = compiles performed.
    pub cache: (u64, u64),
    /// Checkpoint file, if checkpointing was enabled.
    pub checkpoint: Option<PathBuf>,
    /// True if the campaign stopped early (`stop_after_jobs`).
    pub aborted: bool,
    /// True if checkpointing was disabled mid-campaign after a
    /// persistent append failure (the campaign itself kept running).
    pub checkpoint_degraded: bool,
    /// Final snapshot of the campaign's metric registry (always
    /// populated — aggregation runs even when the event stream is off).
    pub metrics: Json,
}

impl CampaignReport {
    /// The campaign-wide deduped discrepancy-signature set.
    pub fn signatures(&self) -> &BTreeSet<String> {
        &self.stats.signatures
    }

    /// The end-of-campaign summary, with the machine-readable metrics
    /// snapshot merged in as its last line.
    pub fn render_summary(&self) -> String {
        let mut s = self.stats.render_summary(self.elapsed, self.cache);
        s.push_str(&format!("metrics: {}\n", self.metrics.render()));
        s
    }
}

/// Runs a campaign to completion (or to `stop_after_jobs`) over
/// `workers` threads, or over `workers_proc` worker processes when that
/// field is set.
///
/// # Errors
///
/// Fails if the target filter matches nothing, the checkpoint is
/// unusable ([`StateError`]), the fault-plan spec does not parse, or the
/// worker protocol breaks down ([`CampaignError::Proto`]).
pub fn run(cfg: &CampaignConfig) -> Result<CampaignReport, CampaignError> {
    let mut cfg = cfg.clone();
    if cfg.fault_plan.is_none() {
        if let Some(spec) = &cfg.fault_plan_spec {
            let plan = FaultPlan::parse(spec, cfg.seed).map_err(CampaignError::Config)?;
            cfg.fault_plan = Some(Arc::new(plan));
        }
    }
    coordinator::run(&cfg)
}

/// Everything a campaign sets up before jobs run.
pub(crate) struct Prepared {
    /// The selected targets, in schedule order.
    pub(crate) selected: Vec<Target>,
    /// Jobs still to run (checkpoint-replayed ones are filtered out).
    pub(crate) pending: Vec<Job>,
    /// The open checkpoint, if checkpointing is enabled.
    pub(crate) state: Option<CampaignState>,
    /// The aggregator, pre-loaded with any checkpoint-replayed jobs.
    pub(crate) stats: CampaignStats,
    /// The retry/quarantine ledger, pre-loaded from the checkpoint.
    pub(crate) ledger: FaultLedger,
    /// The retry policy in force.
    pub(crate) policy: RetryPolicy,
}

/// The shared campaign preamble: target selection, the pre-fuzz lint
/// pass, checkpoint open (create or resume), failure-history replay, and
/// the pending-job filter.
pub(crate) fn prepare(
    cfg: &CampaignConfig,
    tel: &Arc<Telemetry>,
    ctel: &CampaignTelemetry,
    workers: usize,
) -> Result<Prepared, CampaignError> {
    let selected: Vec<Target> = select_targets(cfg)?;
    let names: Vec<String> = selected.iter().map(|t| t.spec.name.to_string()).collect();

    // Pre-fuzz static pass: lint every selected target so the metrics
    // snapshot carries the static-channel evidence (`lint.findings.*`)
    // next to the dynamic divergence counters. Metrics only — no events —
    // so the event stream stays byte-identical run to run.
    let lint = staticheck_ir::UnstableLint::new();
    for t in &selected {
        let t0 = tel.now_micros();
        if let Ok(findings) = lint.run_source(&t.src) {
            ctel.record_lint(&findings, tel.now_micros().saturating_sub(t0));
        }
    }

    let header = CampaignHeader {
        seed: cfg.seed,
        execs_per_target: cfg.execs_per_target,
        shards_per_target: cfg.shards_per_target,
        targets: names,
    };
    let mut state = match &cfg.checkpoint_dir {
        Some(dir) if cfg.resume => Some(CampaignState::resume(dir, &header)?),
        Some(dir) => Some(CampaignState::create(dir, &header)?),
        None => None,
    };
    if let (Some(st), Some(plan)) = (state.as_mut(), &cfg.fault_plan) {
        st.set_faults(Arc::clone(plan));
    }

    let policy = RetryPolicy {
        max_retries: cfg.max_retries,
        quarantine_after: cfg.quarantine_after,
    };
    let mut ledger = FaultLedger::new();

    let all_jobs: Vec<Job> = (0..selected.len())
        .flat_map(|t| {
            (0..cfg.shards_per_target).map(move |s| Job {
                target_index: t,
                shard: s,
                attempt: 1,
            })
        })
        .collect();
    let mut stats = CampaignStats::new(workers, all_jobs.len());
    if let Some(st) = &state {
        for rec in st.done().values() {
            stats.absorb(None, rec);
        }
        // Replay the failure history through the same policy state
        // machine the live path uses: attempt counts, retry totals, and
        // the quarantine set come out exactly as the uninterrupted run
        // built them.
        for f in st.failures().to_vec() {
            stats.note_failure(&f.target);
            match ledger.note_failure(&policy, &f.target, f.shard, f.attempt) {
                Disposition::Retry { .. } => stats.note_retry(),
                Disposition::Quarantine => {
                    stats.note_quarantine(&f.target);
                    stats.note_failed_job();
                }
                Disposition::Exhausted | Disposition::AlreadyQuarantined => {
                    stats.note_failed_job();
                }
            }
        }
        ctel.targets_quarantined
            .set(ledger.quarantined.len() as u64);
    }
    let mut pending: Vec<Job> = Vec::new();
    for mut j in all_jobs {
        let name = selected[j.target_index].spec.name.as_str();
        if state.as_ref().is_some_and(|st| st.is_done(name, j.shard)) {
            continue;
        }
        if ledger.failed_jobs.contains(&(name.to_string(), j.shard)) {
            // Terminally failed before the kill: already counted via the
            // replay above; rescheduling it would diverge from the
            // uninterrupted run.
            continue;
        }
        if ledger.quarantined.contains(name) {
            stats.note_skipped(name, 1);
            continue;
        }
        j.attempt = ledger.prior_attempts(name, j.shard) + 1;
        pending.push(j);
    }

    Ok(Prepared {
        selected,
        pending,
        state,
        stats,
        ledger,
        policy,
    })
}

/// Canonical event order: `(target index, shard, done-after-failures
/// flag, attempt, failure-before-quarantine rank)`. Results arrive in
/// completion order, which is not deterministic at N > 1 workers;
/// sorting the buffered events by this key is what makes the stream
/// the same at any worker count.
pub(crate) type EventKey = (usize, u32, u8, u32, u8);

/// One buffered telemetry event: canonical sort key, event name, fields.
type BufferedEvent = (EventKey, &'static str, Vec<(&'static str, Json)>);

/// The campaign's per-result state machine: checkpoint-then-aggregate,
/// event buffering, retry/quarantine dispositions, and
/// `stop_after_jobs` accounting. Events are buffered and re-sorted into
/// canonical [`EventKey`] order when the campaign finalizes.
pub(crate) struct ResultHandler<'a> {
    cfg: &'a CampaignConfig,
    tel: &'a Arc<Telemetry>,
    ctel: &'a CampaignTelemetry,
    policy: RetryPolicy,
    pub(crate) state: Option<CampaignState>,
    pub(crate) degraded: bool,
    pub(crate) stats: CampaignStats,
    pub(crate) ledger: FaultLedger,
    live_resolved: usize,
    pub(crate) aborted: bool,
    started: Instant,
    buffered: Vec<BufferedEvent>,
    target_index_of: BTreeMap<String, usize>,
}

impl<'a> ResultHandler<'a> {
    #[allow(clippy::too_many_arguments)] // a constructor over `Prepared`'s parts
    pub(crate) fn new(
        cfg: &'a CampaignConfig,
        tel: &'a Arc<Telemetry>,
        ctel: &'a CampaignTelemetry,
        selected: &[Target],
        state: Option<CampaignState>,
        stats: CampaignStats,
        ledger: FaultLedger,
        policy: RetryPolicy,
    ) -> Self {
        ResultHandler {
            cfg,
            tel,
            ctel,
            policy,
            state,
            degraded: false,
            stats,
            ledger,
            live_resolved: 0,
            aborted: false,
            started: Instant::now(),
            buffered: Vec::new(),
            target_index_of: selected
                .iter()
                .enumerate()
                .map(|(i, t)| (t.spec.name.to_string(), i))
                .collect(),
        }
    }

    /// Buffers one event for the canonical-order flush.
    fn emit(&mut self, key: EventKey, name: &'static str, fields: Vec<(&'static str, Json)>) {
        if self.tel.events_enabled() {
            self.buffered.push((key, name, fields));
        }
    }

    /// Applies one resolved job attempt and returns the coordinator's
    /// next move.
    pub(crate) fn on_result(&mut self, result: JobResult) -> Decision {
        let mut decision = Decision::Continue;
        match result {
            JobResult::Done(out) => {
                // Checkpoint first, aggregate second: a job is "done"
                // only once its record is durably on disk (or
                // checkpointing has been degraded away).
                persist(
                    &mut self.state,
                    &mut self.degraded,
                    self.ctel,
                    self.cfg.quiet,
                    Rec::Job(out.record.clone()),
                );
                self.stats.absorb(Some(out.worker), &out.record);
                let ti = self
                    .target_index_of
                    .get(&out.record.target)
                    .copied()
                    .unwrap_or(0);
                self.emit(
                    (ti, out.record.shard, 1, 0, 0),
                    "job",
                    vec![
                        ("target", Json::Str(out.record.target.clone())),
                        ("shard", Json::Int(i64::from(out.record.shard))),
                        ("worker", Json::Int(out.worker as i64)),
                        ("dur_us", Json::Int(out.dur_us as i64)),
                        ("execs", Json::Int(out.record.execs as i64)),
                        ("oracle_execs", Json::Int(out.record.oracle_execs as i64)),
                        ("divergent", Json::Int(out.record.divergent as i64)),
                        ("crashes", Json::Int(out.record.crashes as i64)),
                        ("signatures", Json::Int(out.record.signatures.len() as i64)),
                        ("pages_restored", Json::Int(out.vm.pages_restored as i64)),
                        (
                            "pages_materialized",
                            Json::Int(out.vm.pages_materialized as i64),
                        ),
                        (
                            "bulk_builtin_ops",
                            Json::Int(out.vm.bulk_builtin_ops as i64),
                        ),
                        (
                            "fallback_builtin_ops",
                            Json::Int(out.vm.fallback_builtin_ops as i64),
                        ),
                        ("block_exec", Json::Int(out.vm.block_exec as i64)),
                        ("interp_fallback", Json::Int(out.vm.interp_fallback as i64)),
                    ],
                );
                if !self.cfg.quiet {
                    eprintln!(
                        "{} <- {}#{}",
                        self.stats.progress_line(),
                        out.record.target,
                        out.record.shard
                    );
                }
            }
            JobResult::Failed(f) => {
                self.stats.note_failure(&f.target);
                if f.kind == FailureKind::Panic {
                    self.ctel.worker_panics.inc();
                }
                persist(
                    &mut self.state,
                    &mut self.degraded,
                    self.ctel,
                    self.cfg.quiet,
                    Rec::Fail(FailureRecord {
                        target: f.target.clone(),
                        shard: f.job.shard,
                        attempt: f.job.attempt,
                        kind: f.kind,
                        message: f.message.clone(),
                    }),
                );
                let disposition =
                    self.ledger
                        .note_failure(&self.policy, &f.target, f.job.shard, f.job.attempt);
                self.emit(
                    (f.job.target_index, f.job.shard, 0, f.job.attempt, 0),
                    "failure",
                    vec![
                        ("target", Json::Str(f.target.clone())),
                        ("shard", Json::Int(i64::from(f.job.shard))),
                        ("attempt", Json::Int(i64::from(f.job.attempt))),
                        ("kind", Json::Str(f.kind.to_string())),
                        ("worker", Json::Int(f.worker as i64)),
                        ("message", Json::Str(f.message.clone())),
                    ],
                );
                if !self.cfg.quiet {
                    eprintln!(
                        "{} !! {}#{} attempt {} failed ({}): {}",
                        self.stats.progress_line(),
                        f.target,
                        f.job.shard,
                        f.job.attempt,
                        f.kind,
                        f.message
                    );
                }
                match disposition {
                    Disposition::Retry { next_attempt } => {
                        self.stats.note_retry();
                        self.ctel.job_retries.inc();
                        decision = Decision::Retry(Job {
                            target_index: f.job.target_index,
                            shard: f.job.shard,
                            attempt: next_attempt,
                        });
                    }
                    Disposition::Quarantine => {
                        self.stats.note_failed_job();
                        self.stats.note_quarantine(&f.target);
                        self.ctel
                            .targets_quarantined
                            .set(self.ledger.quarantined.len() as u64);
                        let failures = self
                            .ledger
                            .target_failures
                            .get(&f.target)
                            .copied()
                            .unwrap_or(0);
                        self.emit(
                            (f.job.target_index, f.job.shard, 0, f.job.attempt, 1),
                            "quarantine",
                            vec![
                                ("target", Json::Str(f.target.clone())),
                                ("failures", Json::Int(i64::from(failures))),
                            ],
                        );
                        if !self.cfg.quiet {
                            eprintln!("quarantined {} after repeated failures", f.target);
                        }
                        decision = Decision::Quarantine {
                            target_index: f.job.target_index,
                        };
                    }
                    Disposition::Exhausted | Disposition::AlreadyQuarantined => {
                        self.stats.note_failed_job();
                    }
                }
            }
        }
        self.live_resolved += 1;
        if self.cfg.progress_every > 0 && self.live_resolved.is_multiple_of(self.cfg.progress_every)
        {
            let secs = self.started.elapsed().as_secs_f64().max(1e-9);
            eprintln!(
                "{} [{:.0} execs/sec]",
                self.stats.progress_line(),
                self.stats.execs as f64 / secs
            );
        }
        match self.cfg.stop_after_jobs {
            Some(k) if self.live_resolved >= k => {
                self.aborted = true;
                Decision::Stop
            }
            _ => decision,
        }
    }

    /// The shared campaign epilogue: quarantine-swept accounting, the
    /// post-fuzz sanitizer audit, the final metric readings, buffered
    /// events in canonical order, the metrics snapshot event, and the
    /// report. Under a fixed clock, `elapsed` derives from the telemetry
    /// clock so the report renders byte-identically across runs and
    /// modes.
    pub(crate) fn finalize(
        mut self,
        swept: &[Job],
        selected: &[Target],
        cache: (u64, u64),
        blocks_translated: u64,
        started_us: u64,
    ) -> CampaignReport {
        for j in swept {
            self.stats
                .note_skipped(&selected[j.target_index].spec.name, 1);
        }

        // Post-fuzz sanitizer audit: run the meta-oracle over every
        // selected target so the metrics snapshot carries the
        // sanitizer-trust evidence (`sancheck.*`) next to the divergence
        // counters. Like the pre-fuzz lint this is metrics-only — no
        // events — so the event stream stays byte-identical run to run.
        if self.cfg.sancheck {
            let scfg = sancheck::SancheckConfig {
                vm: self.cfg.diff_config.vm.clone(),
                ..sancheck::SancheckConfig::default()
            };
            for t in selected {
                let t0 = self.tel.now_micros();
                if let Ok(report) = sancheck::check_source(&t.src, &scfg) {
                    self.ctel
                        .record_sancheck(&report, self.tel.now_micros().saturating_sub(t0));
                }
            }
        }

        self.ctel.record_cache(cache);
        self.ctel.record_blocks_translated(blocks_translated);
        self.ctel.record_execs_per_sec(
            self.stats.execs,
            self.tel.now_micros().saturating_sub(started_us),
        );
        let mut buffered = std::mem::take(&mut self.buffered);
        buffered.sort_by_key(|e| e.0);
        for (_, name, fields) in buffered {
            self.tel.event(name, fields);
        }
        let metrics = self.tel.registry().snapshot();
        self.tel
            .event("metrics", vec![("metrics", metrics.clone())]);
        self.tel.flush();

        let elapsed = if self.cfg.fixed_clock_us.is_some() {
            Duration::from_micros(self.tel.now_micros().saturating_sub(started_us))
        } else {
            self.started.elapsed()
        };
        CampaignReport {
            stats: self.stats,
            elapsed,
            cache,
            checkpoint: self.state.map(|s| s.path().to_path_buf()),
            aborted: self.aborted,
            checkpoint_degraded: self.degraded,
            metrics,
        }
    }
}

/// A checkpointable record, job or failure, for [`persist`].
enum Rec {
    Job(JobRecord),
    Fail(FailureRecord),
}

fn append_rec(st: &mut CampaignState, rec: &Rec) -> Result<(), StateError> {
    match rec {
        Rec::Job(r) => st.append_job(r.clone()),
        Rec::Fail(r) => st.append_failure(r.clone()),
    }
}

/// Appends one record with the repair-then-degrade policy: a failed
/// append is repaired (truncating any partial write) and retried once;
/// if the retry or the fsync also fails, checkpointing is disabled for
/// the rest of the campaign (`degraded`) and the campaign carries on —
/// durability is best-effort, forward progress is not. This is what
/// turns a flaky checkpoint disk into a degraded report instead of an
/// abort or a hang.
fn persist(
    state: &mut Option<CampaignState>,
    degraded: &mut bool,
    ctel: &CampaignTelemetry,
    quiet: bool,
    rec: Rec,
) {
    if *degraded {
        return;
    }
    let Some(st) = state.as_mut() else { return };
    let t0 = ctel.tel.now_micros();
    let mut result = append_rec(st, &rec);
    if let Err(e) = &result {
        ctel.checkpoint_errors.inc();
        if !quiet {
            eprintln!("checkpoint append failed ({e}); repairing and retrying");
        }
        result = st.repair().and_then(|()| append_rec(st, &rec));
    }
    let synced = result.and_then(|()| {
        ctel.checkpoint_write_us
            .record(ctel.tel.now_micros().saturating_sub(t0));
        let t1 = ctel.tel.now_micros();
        st.sync()?;
        ctel.checkpoint_sync_us
            .record(ctel.tel.now_micros().saturating_sub(t1));
        Ok(())
    });
    if let Err(e) = synced {
        ctel.checkpoint_errors.inc();
        *degraded = true;
        if !quiet {
            eprintln!("checkpointing disabled for the rest of the campaign: {e}");
        }
    }
}

/// Assembles the campaign's [`Telemetry`] from the config: a JSONL
/// recorder when `metrics_out` is set (otherwise no-op; the registry
/// aggregates either way), over a monotonic or pinned test clock.
fn build_telemetry(cfg: &CampaignConfig) -> Result<Arc<Telemetry>, CampaignError> {
    let tel = match (&cfg.metrics_out, cfg.fixed_clock_us) {
        (Some(path), clock) => {
            let file = File::create(path).map_err(CampaignError::Metrics)?;
            let rec = JsonlRecorder::new(BufWriter::new(file));
            match clock {
                Some(t) => Telemetry::new(TestClock::fixed(t), rec),
                None => Telemetry::new(MonotonicClock::new(), rec),
            }
        }
        (None, Some(t)) => Telemetry::new(TestClock::fixed(t), NoopRecorder),
        (None, None) => Telemetry::new(MonotonicClock::new(), NoopRecorder),
    };
    Ok(tel)
}

fn select_targets(cfg: &CampaignConfig) -> Result<Vec<Target>, CampaignError> {
    let built = cfg.source.get().targets();
    match &cfg.target_filter {
        None => Ok(built),
        Some(filter) => {
            let mut out = Vec::new();
            for want in filter {
                let t = built.iter().find(|t| t.spec.name == *want).ok_or_else(|| {
                    let known: Vec<&str> = built.iter().map(|t| t.spec.name.as_str()).collect();
                    CampaignError::UnknownTarget(format!(
                        "unknown target `{want}`; {}: {}",
                        cfg.source.get().label(),
                        known.join(", ")
                    ))
                })?;
                out.push(t.clone());
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    // test-only: unwraps in this module assert test invariants.
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("compdiff-telem-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The tentpole acceptance test: one worker plus a pinned test clock
    /// makes the `--metrics-out` stream byte-identical across runs, every
    /// line parses with `compdiff::json`, and the final line is the
    /// metrics snapshot.
    #[test]
    fn metrics_stream_is_deterministic() {
        let dir = temp_dir("determinism");
        let run_once = |path: PathBuf| {
            let report = run(&CampaignConfig {
                workers: 1,
                execs_per_target: 40,
                shards_per_target: 2,
                target_filter: Some(vec!["tcpdump".to_string()]),
                metrics_out: Some(path.clone()),
                fixed_clock_us: Some(0),
                ..Default::default()
            })
            .unwrap();
            (std::fs::read_to_string(path).unwrap(), report)
        };
        let (first, report) = run_once(dir.join("a.jsonl"));
        let (second, _) = run_once(dir.join("b.jsonl"));
        assert_eq!(first, second, "same seed + fixed clock => identical stream");

        let lines: Vec<&str> = first.lines().collect();
        assert!(lines.len() >= 3, "expected job events plus snapshot");
        for line in &lines {
            Json::parse(line).unwrap_or_else(|e| panic!("bad event line {line}: {e}"));
        }
        let job_events = lines
            .iter()
            .filter(|l| Json::parse(l).unwrap().get("ev").and_then(Json::as_str) == Some("job"))
            .count();
        assert_eq!(job_events, 2, "one event per job");
        let last = Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("ev").and_then(Json::as_str), Some("metrics"));
        let counters = last.get("metrics").and_then(|m| m.get("counters")).unwrap();
        assert_eq!(
            counters.get("fuzz.execs").and_then(Json::as_u64),
            Some(report.stats.execs),
            "registry agrees with the aggregator"
        );
        assert_eq!(
            counters.get("campaign.jobs_done").and_then(Json::as_u64),
            Some(2)
        );

        // The snapshot is merged into the human summary too.
        assert!(report.render_summary().contains("metrics: {"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Disabled telemetry still aggregates: no stream, but the report
    /// carries a populated snapshot.
    #[test]
    fn disabled_telemetry_still_snapshots() {
        let report = run(&CampaignConfig {
            workers: 1,
            execs_per_target: 20,
            shards_per_target: 1,
            target_filter: Some(vec!["tcpdump".to_string()]),
            ..Default::default()
        })
        .unwrap();
        let counters = report.metrics.get("counters").unwrap();
        assert_eq!(
            counters.get("fuzz.execs").and_then(Json::as_u64),
            Some(report.stats.execs)
        );
        assert!(
            counters.get("diff.runs").and_then(Json::as_u64).unwrap() > 0,
            "oracle ran"
        );
    }
}
