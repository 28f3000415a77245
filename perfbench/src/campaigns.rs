//! The two campaign workloads: `catalog_campaign` (in-process threads over
//! the 23-target catalog) and `progen_procs` (worker processes with
//! checkpointing over seeded generated programs).
//!
//! A timed round is one `campaign::run`. The traced replay re-runs the same
//! jobs through the crates' public seams — `BinaryCache::get_or_compile`,
//! `fuzzing::Fuzzer` over a wrapped `BinaryTarget`, and an oracle around
//! `CompDiff::run_batch_observed` and `DiffStore::record` — with spans in
//! memory, and keeps one witness input per (job, signature) for the gate.

use crate::trace::{ns_since, DiffClock, Span, Tracer};
use campaign::{execs_for_shard, job_seed, BinaryCache, CampaignConfig, CompiledTarget};
use compdiff::{CompDiff, DiffConfig, DiffOutcome, DiffStore, Json};
use fuzzing::{BinaryTarget, CoverageMap, FuzzConfig, FuzzObserver, Fuzzer, Oracle, TargetExec};
use minc_vm::{ExecResult, ExecSession, VmConfig, VmMode};
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use targets::{CatalogSource, SharedSource, StaticSource, Target, TargetSource};

/// Generated programs in one `progen_procs` round.
pub const PROGEN_PROGRAMS: u64 = 192;

/// Which programs a campaign workload fuzzes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Programs {
    /// The static 23-target catalog.
    Catalog,
    /// `n` programs from `progen::generate`, seeded by the workload seed.
    Progen(u64),
}

/// One campaign workload: its programs and campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignWorkload {
    /// The programs.
    pub programs: Programs,
    /// Campaign seed (and, for progen, the generator seed).
    pub seed: u64,
    /// Worker count (threads, or processes when `procs`).
    pub workers: usize,
    /// Run the workers as processes over the socket protocol.
    pub procs: bool,
    /// Fuzz execs per program.
    pub execs_per_target: u64,
    /// Seed shards (jobs) per program.
    pub shards: u32,
    /// Checkpoint every finished job.
    pub checkpoint: bool,
}

impl CampaignWorkload {
    /// `catalog_campaign`: two worker threads over all 23 catalog targets.
    pub fn catalog(seed: u64) -> Self {
        CampaignWorkload {
            programs: Programs::Catalog,
            seed,
            workers: 2,
            procs: false,
            execs_per_target: 4_000,
            shards: 8,
            checkpoint: false,
        }
    }

    /// `progen_procs`: two worker processes, checkpointing on, over
    /// [`PROGEN_PROGRAMS`] generated programs.
    pub fn progen(seed: u64) -> Self {
        CampaignWorkload {
            programs: Programs::Progen(PROGEN_PROGRAMS),
            seed,
            workers: 2,
            procs: true,
            execs_per_target: 200,
            shards: 1,
            checkpoint: true,
        }
    }

    /// Builds the workload's programs, with spans for generation and
    /// target construction.
    ///
    /// # Errors
    ///
    /// Returns the frontend diagnostic of a generated program that does not
    /// check (the generator promises it never happens).
    pub fn build_targets(&self, tr: &mut Tracer) -> Result<Vec<Target>, String> {
        match self.programs {
            Programs::Catalog => Ok(tr.span("targets.build_s", |_| CatalogSource.targets())),
            Programs::Progen(n) => {
                let sources: Vec<String> = tr.span("progen.generate_s", |_| {
                    (0..n)
                        .map(|i| {
                            let mut rng = fuzzing::Rng::new(progen::mix(self.seed, i));
                            progen::generate(&mut rng).source()
                        })
                        .collect()
                });
                tr.span("targets.build_s", |_| {
                    sources
                        .iter()
                        .enumerate()
                        .map(|(i, src)| targets::target_from_source(&format!("gen-{i:03}"), src))
                        .collect()
                })
            }
        }
    }

    /// The campaign configuration of one timed round. `round_dir` holds the
    /// round's checkpoint; `worker_exe` is the program spawned as a worker
    /// process.
    pub fn config(
        &self,
        programs: &[Target],
        round_dir: Option<PathBuf>,
        worker_exe: Option<PathBuf>,
    ) -> CampaignConfig {
        CampaignConfig {
            workers: self.workers,
            workers_proc: self.procs.then_some(self.workers),
            worker_exe,
            execs_per_target: self.execs_per_target,
            shards_per_target: self.shards,
            seed: self.seed,
            diff_config: diff_config(VmMode::Block),
            source: SharedSource::new(StaticSource::new("perfbench", programs.to_vec())),
            checkpoint_dir: if self.checkpoint { round_dir } else { None },
            quiet: true,
            ..CampaignConfig::default()
        }
    }

    /// Number of jobs in one round.
    pub fn jobs(&self, programs: usize) -> usize {
        programs * self.shards as usize
    }
}

/// The differential configuration every workload uses, in `mode`.
pub fn diff_config(mode: VmMode) -> DiffConfig {
    DiffConfig {
        vm: VmConfig {
            mode,
            ..VmConfig::default()
        },
        ..DiffConfig::default()
    }
}

/// Cold build of the workload's inputs: generate the programs and compile
/// every one into a fresh `BinaryCache` (ten implementations plus the fuzz
/// binary, with block translation). Returns the wall time in seconds.
///
/// # Errors
///
/// Returns the first program that fails to build or compile.
pub fn cold_build(w: &CampaignWorkload) -> Result<f64, String> {
    let t0 = Instant::now();
    let programs = w.build_targets(&mut Tracer::new(t0))?;
    let cfg = w.config(&programs, None, None);
    let cache = BinaryCache::new();
    for t in &programs {
        cache
            .get_or_compile(t, &cfg.diff_config, cfg.fuzz_impl, None, 1)
            .map_err(|e| format!("{}: {e}", t.spec.name))?;
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// What one timed `campaign::run` round produced.
#[derive(Debug, Clone)]
pub struct RoundResult {
    /// Wall time of `campaign::run`, seconds.
    pub wall_s: f64,
    /// Fuzz-binary execs.
    pub execs: u64,
    /// Divergent oracle inputs.
    pub divergent: u64,
    /// Inputs the oracle examined (sum of the batch sizes).
    pub oracle_inputs: u64,
    /// Inputs whose batch digests disagreed and were bisected.
    pub bisections: u64,
    /// The campaign-wide deduped signature set.
    pub signatures: BTreeSet<String>,
    /// Job attempts (done + failed).
    pub attempted: u64,
    /// Failed, lost or quarantine-skipped job attempts.
    pub failed: u64,
    /// The campaign's metric snapshot.
    pub metrics: Json,
}

/// Runs one timed `campaign::run` round.
///
/// # Errors
///
/// Returns the campaign error.
pub fn run_round(cfg: &CampaignConfig) -> Result<RoundResult, String> {
    if let Some(dir) = &cfg.checkpoint_dir {
        // A checkpoint directory must start empty; each round makes its own.
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let t0 = Instant::now();
    let report = campaign::run(cfg).map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(dir) = &cfg.checkpoint_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let s = &report.stats;
    Ok(RoundResult {
        wall_s,
        execs: s.execs,
        divergent: s.divergent,
        oracle_inputs: hist(&report.metrics, "diff.batch_size", "sum"),
        bisections: counter(&report.metrics, "diff.batch_bisections"),
        signatures: s.signatures.clone(),
        attempted: (s.jobs_done as u64) + s.failures,
        failed: s.failures + s.jobs_skipped as u64,
        metrics: report.metrics.clone(),
    })
}

/// A counter from a campaign metric snapshot (0 when absent).
pub fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// A histogram field (`count` or `sum`) from a campaign metric snapshot.
pub fn hist(metrics: &Json, name: &str, field: &str) -> u64 {
    metrics
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get(field))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// One stored divergence: the first input per (job, signature).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Index into the replay's program list.
    pub target: usize,
    /// The diverging input.
    pub input: Vec<u8>,
    /// Its signature as the campaign stores it.
    pub signature: String,
}

/// Counts summed over a replay's jobs.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Fuzz-binary execs.
    pub execs: u64,
    /// Divergent oracle inputs (each one a `DiffStore::record`).
    pub divergent: u64,
    /// Inputs examined by the oracle.
    pub oracle_inputs: u64,
    /// Differential-binary runs, escalation re-runs included.
    pub oracle_runs: u64,
    /// Inputs bisected after a digest disagreement.
    pub bisections: u64,
    /// Timeout-escalation re-runs.
    pub reruns: u64,
    /// Session pages restored across the differential sessions.
    pub pages_restored: u64,
    /// Block-backend executions across the differential sessions.
    pub block_exec: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.execs += o.execs;
        self.divergent += o.divergent;
        self.oracle_inputs += o.oracle_inputs;
        self.oracle_runs += o.oracle_runs;
        self.bisections += o.bisections;
        self.reruns += o.reruns;
        self.pages_restored += o.pages_restored;
        self.block_exec += o.block_exec;
    }
}

/// The result of one traced replay round.
#[derive(Debug)]
pub struct Replay {
    /// The programs the replay regenerated.
    pub programs: Vec<Target>,
    /// Wall time from first span to last, seconds.
    pub wall_s: f64,
    /// Summed counts.
    pub counts: Counts,
    /// The deduped signature set.
    pub signatures: BTreeSet<String>,
    /// One witness per (job, signature), in job order.
    pub witnesses: Vec<Witness>,
    /// Spans, one list per thread (thread 0 is the coordinating thread).
    pub spans: Vec<Vec<Span>>,
}

/// Per-exec timing shared by the fuzz-side wrappers of one job.
struct ExecClock {
    exec_begin: Cell<Instant>,
    cov_reset_ns: Cell<u64>,
    fuzz_exec_ns: Cell<u64>,
}

/// `BinaryTarget` with its run timed; the gap since `exec_begin` is the
/// coverage-map reset.
struct TimedTarget<'a> {
    inner: BinaryTarget<'a>,
    clock: &'a ExecClock,
}

impl TargetExec for TimedTarget<'_> {
    fn run(&mut self, input: &[u8], map: &mut CoverageMap) -> ExecResult {
        let c = self.clock;
        let t0 = Instant::now();
        let reset_ns = t0.duration_since(c.exec_begin.get()).as_nanos() as u64;
        c.cov_reset_ns.set(c.cov_reset_ns.get() + reset_ns);
        let r = self.inner.run(input, map);
        c.fuzz_exec_ns.set(c.fuzz_exec_ns.get() + ns_since(t0));
        r
    }
}

struct ExecBeginStamp<'a>(&'a ExecClock);

impl FuzzObserver for ExecBeginStamp<'_> {
    fn exec_begin(&mut self) {
        self.0.exec_begin.set(Instant::now());
    }
}

/// The campaign's differential oracle, rebuilt from public parts: one span
/// per batch sweep, with VM-run and `DiffStore::record` time carved out.
/// The save verdict is the campaign's: divergent inputs are recorded and
/// saved, unresolved timeouts are saved.
struct TracedOracle<'a> {
    diff: &'a CompDiff,
    sessions: &'a mut [ExecSession],
    store: &'a mut DiffStore,
    tracer: &'a RefCell<Tracer>,
    clock: &'a mut DiffClock,
    divergent: &'a mut u64,
}

impl TracedOracle<'_> {
    fn sweep(&mut self, inputs: &[&[u8]]) -> Vec<bool> {
        let span = self.tracer.borrow_mut().enter("core.sweep_self_s");
        let exec0 = self.clock.exec_ns;
        let outcomes: Vec<DiffOutcome> =
            self.diff
                .run_batch_observed(self.sessions, inputs, &mut *self.clock);
        let mut record_ns = 0u64;
        let verdicts = outcomes
            .iter()
            .zip(inputs)
            .map(|(outcome, input)| {
                if outcome.divergent {
                    *self.divergent += 1;
                    let t0 = Instant::now();
                    self.store.record(self.diff, outcome, input);
                    record_ns += ns_since(t0);
                    true
                } else {
                    outcome.unresolved_timeout
                }
            })
            .collect();
        let mut tr = self.tracer.borrow_mut();
        tr.carve(span, "minc-vm.oracle_exec_s", self.clock.exec_ns - exec0);
        tr.carve(span, "core.record_s", record_ns);
        tr.exit(span);
        verdicts
    }
}

impl Oracle for TracedOracle<'_> {
    fn examine(&mut self, input: &[u8], _result: &ExecResult) -> bool {
        self.sweep(&[input])[0]
    }

    fn examine_batch(&mut self, items: &[(Vec<u8>, ExecResult)]) -> Vec<bool> {
        let inputs: Vec<&[u8]> = items.iter().map(|(i, _)| i.as_slice()).collect();
        self.sweep(&inputs)
    }
}

/// What one replayed job produced.
struct JobReplay {
    counts: Counts,
    signatures: BTreeSet<String>,
    witnesses: Vec<Witness>,
}

/// Replays one campaign job exactly as the campaign's scheduler runs it:
/// same fuzzing seed, exec budget, seed slice, dictionary and batch size.
fn replay_job(
    ct: &CompiledTarget,
    target_index: usize,
    shard: u32,
    cfg: &CampaignConfig,
    tracer: &RefCell<Tracer>,
) -> JobReplay {
    let job = tracer.borrow_mut().enter("campaign.job_self_s");
    let (mut sessions, fuzz_target) = tracer.borrow_mut().span("minc-vm.session_setup_s", |_| {
        (
            ct.diff_sessions(),
            BinaryTarget::new(&ct.fuzz_binary, cfg.diff_config.vm.clone())
                .with_block_program(Arc::clone(&ct.fuzz_blocks)),
        )
    });
    let mut seeds: Vec<Vec<u8>> = ct
        .seeds
        .iter()
        .skip(shard as usize)
        .step_by(cfg.shards_per_target.max(1) as usize)
        .cloned()
        .collect();
    if seeds.is_empty() {
        seeds = ct.seeds.clone();
    }
    let clock = ExecClock {
        exec_begin: Cell::new(Instant::now()),
        cov_reset_ns: Cell::new(0),
        fuzz_exec_ns: Cell::new(0),
    };
    let mut store = DiffStore::new();
    let mut diff_clock = DiffClock::default();
    let mut divergent = 0u64;
    let fuzz_span = tracer.borrow_mut().enter("fuzzing.loop_self_s");
    let stats = Fuzzer::new(
        TimedTarget {
            inner: fuzz_target,
            clock: &clock,
        },
        TracedOracle {
            diff: &ct.diff,
            sessions: &mut sessions,
            store: &mut store,
            tracer,
            clock: &mut diff_clock,
            divergent: &mut divergent,
        },
        FuzzConfig {
            max_execs: execs_for_shard(cfg.execs_per_target, cfg.shards_per_target, shard),
            seed: job_seed(cfg.seed, &ct.name, shard),
            max_input_len: cfg.max_input_len,
            deterministic: true,
            dictionary: vec![ct.magic.to_vec()],
            batch_size: cfg.batch_size,
        },
    )
    .with_observer(ExecBeginStamp(&clock))
    .run(&seeds);
    {
        let mut tr = tracer.borrow_mut();
        tr.carve(fuzz_span, "fuzzing.cov_reset_s", clock.cov_reset_ns.get());
        tr.carve(fuzz_span, "minc-vm.fuzz_exec_s", clock.fuzz_exec_ns.get());
        tr.exit(fuzz_span);
    }

    let d = &diff_clock;
    let mut counts = Counts {
        execs: stats.execs,
        divergent,
        oracle_inputs: d.inputs,
        oracle_runs: d.runs,
        bisections: d.bisections,
        reruns: d.reruns,
        ..Counts::default()
    };
    for s in &sessions {
        let st = s.stats();
        counts.pages_restored += st.pages_restored;
        counts.block_exec += st.block_exec;
    }
    let witnesses: Vec<Witness> = store
        .representatives()
        .into_iter()
        .map(|d| Witness {
            target: target_index,
            input: d.input.clone(),
            signature: d.signature.clone(),
        })
        .collect();
    let signatures = witnesses.iter().map(|w| w.signature.clone()).collect();
    // Freeing the job's sessions and stored divergences is job work too.
    drop(store);
    drop(sessions);
    tracer.borrow_mut().exit(job);
    JobReplay {
        counts,
        signatures,
        witnesses,
    }
}

/// One worker's share of the replay.
struct WorkerOut {
    spans: Vec<Span>,
    jobs: Vec<(usize, JobReplay)>,
}

/// Runs jobs from the shared queue until it is empty.
fn work(
    compiled: &[Arc<CompiledTarget>],
    jobs: &[(usize, u32)],
    next: &AtomicUsize,
    cfg: &CampaignConfig,
    tracer: &RefCell<Tracer>,
) -> Vec<(usize, JobReplay)> {
    let mut out = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&(t, shard)) = jobs.get(i) else {
            return out;
        };
        out.push((i, replay_job(&compiled[t], t, shard, cfg, tracer)));
    }
}

/// Replays one round of the workload with `workers` threads (the
/// coordinating thread is worker 0), tracing every layer.
///
/// The prepare phase mirrors the campaign's: build the programs, lint each
/// (`staticheck-ir`), compile each into a fresh `BinaryCache`.
///
/// # Errors
///
/// Returns a program that fails to build or compile.
pub fn replay(w: &CampaignWorkload) -> Result<Replay, String> {
    let epoch = Instant::now();
    let mut main = Tracer::new(epoch);
    let root = main.enter("round");
    let programs = w.build_targets(&mut main)?;
    let cfg = w.config(&programs, None, None);
    let lint = staticheck_ir::UnstableLint::new();
    for t in &programs {
        main.span("staticheck-ir.lint_s", |_| {
            let _ = lint.run_source(&t.src);
        });
    }
    let cache = BinaryCache::new();
    let mut compiled = Vec::with_capacity(programs.len());
    for t in &programs {
        let ct = main
            .span("minc-compile.compile_s", |_| {
                cache.get_or_compile(t, &cfg.diff_config, cfg.fuzz_impl, None, 1)
            })
            .map_err(|e| format!("{}: {e}", t.spec.name))?;
        compiled.push(ct);
    }
    let jobs: Vec<(usize, u32)> = (0..programs.len())
        .flat_map(|t| (0..w.shards).map(move |s| (t, s)))
        .collect();
    let next = AtomicUsize::new(0);
    let main = RefCell::new(main);
    let mut outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..w.workers.max(1))
            .map(|_| {
                let (compiled, jobs, next, cfg) = (&compiled, &jobs, &next, &cfg);
                scope.spawn(move || {
                    let tr = RefCell::new(Tracer::new(epoch));
                    let root = tr.borrow_mut().enter("worker");
                    let done = work(compiled, jobs, next, cfg, &tr);
                    let mut tr = tr.into_inner();
                    tr.exit(root);
                    WorkerOut {
                        spans: tr.finish(),
                        jobs: done,
                    }
                })
            })
            .collect();
        let mine = work(&compiled, &jobs, &next, &cfg, &main);
        let wait = main.borrow_mut().enter("campaign.join_wait_s");
        let mut outs: Vec<WorkerOut> = handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect();
        main.borrow_mut().exit(wait);
        outs.insert(
            0,
            WorkerOut {
                spans: Vec::new(),
                jobs: mine,
            },
        );
        outs
    });
    let mut main = main.into_inner();
    main.exit(root);
    let wall_s = ns_since(epoch) as f64 / 1e9;
    outs[0].spans = main.finish();

    let mut done: Vec<(usize, JobReplay)> = Vec::with_capacity(jobs.len());
    let mut spans = Vec::with_capacity(outs.len());
    for o in outs {
        spans.push(o.spans);
        done.extend(o.jobs);
    }
    done.sort_by_key(|(i, _)| *i);
    let mut counts = Counts::default();
    let mut signatures = BTreeSet::new();
    let mut witnesses = Vec::new();
    for (_, j) in done {
        counts.add(&j.counts);
        signatures.extend(j.signatures);
        witnesses.extend(j.witnesses);
    }
    Ok(Replay {
        programs,
        wall_s,
        counts,
        signatures,
        witnesses,
        spans,
    })
}
