//! `perfbench` — the repository's end-to-end benchmark.
//!
//! Three workloads, each measured in rounds of whole seconds and reported
//! as the median over the rounds of one run (see `README.md` for why):
//!
//! - `catalog_campaign` — `campaign::run` with two worker threads over the
//!   23 catalog targets;
//! - `progen_procs` — `campaign::run` with two worker processes and
//!   checkpointing over programs `progen::generate` makes from the seed;
//! - `juliet_table3` — a seeded draw from the Juliet suite, evaluated into
//!   Table 3.
//!
//! `--trace 0` prints the end-to-end metrics ([`END_TO_END`]); `--trace 1`
//! alternates untraced rounds with traced replays and prints the per-layer
//! metrics ([`PER_LAYER`]). Both pass the correctness gate ([`gate`]) or
//! print no numbers.

pub mod campaigns;
pub mod gate;
pub mod julietwl;
pub mod trace;

use campaigns::{CampaignWorkload, Replay, RoundResult};
use compdiff::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["catalog_campaign", "progen_procs", "juliet_table3"];

/// End-to-end metrics `(name, unit)`, printed by `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("findings", "count"),
    ("divergent_inputs", "count"),
];

/// Per-layer metrics `(name, unit)`, printed by `--trace 1`. A layer that a
/// workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("fuzzing.cov_reset_s", "s"),
    ("fuzzing.loop_self_s", "s"),
    ("minc-vm.fuzz_exec_s", "s"),
    ("minc-vm.oracle_exec_s", "s"),
    ("minc-vm.session_setup_s", "s"),
    ("minc-vm.ns_per_oracle_run", "ns"),
    ("vm.pages_restored", "count"),
    ("vm.block_exec", "count"),
    ("core.sweep_self_s", "s"),
    ("core.record_s", "s"),
    ("core.bisected_share", "ratio"),
    ("core.escalation_reruns", "count"),
    ("core.dedup_ratio", "ratio"),
    ("campaign.job_self_s", "s"),
    ("campaign.join_wait_s", "s"),
    ("campaign.job_busy_s", "s"),
    ("campaign.outside_jobs_s", "s"),
    ("campaign.checkpoint_s", "s"),
    ("campaign.leases_granted", "count"),
    ("campaign.job_p50_s", "s"),
    ("campaign.job_p90_s", "s"),
    ("campaign.worker_peak_rss_mb", "MB"),
    ("targets.build_s", "s"),
    ("progen.generate_s", "s"),
    ("minc.check_s", "s"),
    ("minc-compile.compile_s", "s"),
    ("staticheck.tools_s", "s"),
    ("staticheck-ir.lint_s", "s"),
    ("sanitizers.compile_s", "s"),
    ("sanitizers.run_s", "s"),
    ("sancheck.check_s", "s"),
    ("juliet.self_s", "s"),
    ("juliet.table3_s", "s"),
    ("juliet.evaluate_s", "s"),
    ("test_p50_ms", "ms"),
    ("test_p95_ms", "ms"),
    ("test_samples", "count"),
    (trace::UNATTRIBUTED, "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.round_s", "s"),
    ("trace.traced_throughput_per_s", "1/s"),
    ("trace.untraced_throughput_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("divergent_share", "ratio"),
    ("false_positives", "count"),
    ("failed_share", "ratio"),
    ("programs", "count"),
    ("nproc", "count"),
];

/// Fresh processes that each time one cold set-up; `setup_s` is their
/// median.
const SETUP_PROBES: usize = 9;
/// Fewest timed rounds per run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Fewest traced rounds per `--trace 1` run.
const MIN_TRACED_ROUNDS: usize = 2;

/// Environment variable naming the directory where worker processes leave
/// their peak RSS.
pub const RSS_DIR_ENV: &str = "PERFBENCH_RSS_DIR";

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed rounds.
    pub seconds: f64,
    /// Print per-layer metrics from traced replays.
    pub trace: bool,
    /// Scratch directory for checkpoints, worker RSS files and the span
    /// dump.
    pub out_dir: PathBuf,
    /// This benchmark's executable, spawned as campaign worker processes
    /// and as set-up probes.
    pub exe: PathBuf,
}

/// Why a run printed no numbers.
#[derive(Debug)]
pub enum Failure {
    /// The machine cannot run the workload as specified.
    Refused(String),
    /// An output was wrong.
    Incorrect(String),
    /// Anything else (I/O, a compile failure, a campaign error).
    Error(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Error(e)
    }
}

/// A finished run: operation counts, metrics in print order, and notes
/// (shape counts, machine facts) for the human reader.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs or tests, over every round).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, unit, value)`.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = Json::Object(
            self.metrics
                .iter()
                .map(|(name, unit, value)| {
                    (
                        (*name).to_string(),
                        Json::obj(vec![
                            ("value", Json::Float(*value)),
                            ("unit", Json::Str((*unit).to_string())),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", metrics),
        ])
    }
}

/// Median of `v` (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// High-water resident set of this process in MB (`VmHWM`).
///
/// # Errors
///
/// Fails when `/proc/self/status` is unreadable or has no `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn refuse_if_oversubscribed(workers: usize) -> Result<(), Failure> {
    let n = nproc();
    if workers > n {
        return Err(Failure::Refused(format!(
            "workload needs {workers} workers but this machine has {n} hardware threads"
        )));
    }
    Ok(())
}

/// Runs `round` until `seconds` have passed and at least `min` rounds ran.
fn rounds<T>(
    seconds: f64,
    min: usize,
    mut round: impl FnMut() -> Result<T, Failure>,
) -> Result<Vec<T>, Failure> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t0.elapsed().as_secs_f64() < seconds {
        out.push(round()?);
    }
    Ok(out)
}

/// One cold set-up of `workload`'s inputs in this process, in seconds: for
/// the campaigns, generate the programs and compile each into a fresh
/// `BinaryCache`; for Juliet, draw the tests, generate their sources and
/// check each through the frontend.
///
/// # Errors
///
/// Fails for an unknown workload or a program that does not compile.
pub fn setup_once(workload: &str, seed: u64) -> Result<f64, String> {
    match workload {
        "catalog_campaign" => campaigns::cold_build(&CampaignWorkload::catalog(seed)),
        "progen_procs" => campaigns::cold_build(&CampaignWorkload::progen(seed)),
        "juliet_table3" => {
            let t0 = Instant::now();
            std::hint::black_box(julietwl::prepare(seed));
            Ok(t0.elapsed().as_secs_f64())
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Median set-up time over [`SETUP_PROBES`] fresh processes. A fresh
/// process is what a user's set-up runs in, and one process's timings sit
/// in one of a few speed modes (repeating the set-up inside one process
/// spread ±30% across processes), so the median is taken across processes.
fn setup_s(opts: &Opts) -> Result<f64, Failure> {
    let seed = opts.seed.to_string();
    let mut times = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let out = std::process::Command::new(&opts.exe)
            .args(["setup-probe", "--workload", &opts.workload, "--seed", &seed])
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| out.status.success())
            .ok_or_else(|| {
                format!(
                    "set-up probe failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        times.push(secs);
    }
    Ok(median(&times))
}

/// Runs one workload as `opts` says.
///
/// # Errors
///
/// See [`Failure`].
pub fn run(opts: &Opts) -> Result<Outcome, Failure> {
    match opts.workload.as_str() {
        "catalog_campaign" => run_campaign(&CampaignWorkload::catalog(opts.seed), opts),
        "progen_procs" => run_campaign(&CampaignWorkload::progen(opts.seed), opts),
        "juliet_table3" => run_juliet(opts),
        other => Err(Failure::Error(format!(
            "unknown workload `{other}`; expected one of {WORKLOADS:?}"
        ))),
    }
}

/// Lays out end-to-end values in [`END_TO_END`] order.
fn end_to_end(values: [f64; END_TO_END.len()]) -> Vec<(&'static str, &'static str, f64)> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect()
}

/// Lays out per-layer values in [`PER_LAYER`] order (0 where absent).
///
/// # Errors
///
/// Names a value whose metric [`PER_LAYER`] does not list.
fn per_layer(
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'static str, &'static str, f64)>, Failure> {
    if let Some(k) = values
        .keys()
        .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
    {
        return Err(Failure::Error(format!(
            "per-layer value `{k}` is not a listed metric"
        )));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(n, u)| (n, u, values.get(n).copied().unwrap_or(0.0)))
        .collect())
}

/// Per-metric medians over the traced rounds.
fn medians(rounds: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut keys: Vec<&'static str> = rounds.iter().flat_map(|r| r.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let v: Vec<f64> = rounds
                .iter()
                .map(|r| r.get(k).copied().unwrap_or(0.0))
                .collect();
            (k, median(&v))
        })
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

// ---- campaigns ----

fn campaign_shape(w: &CampaignWorkload, programs: usize, r: &RoundResult) -> String {
    format!(
        "shape: programs={programs} jobs={} execs={} divergent_inputs={} divergent_share={:.4} \
         core.bisected_share={:.4} findings={} workers={} {}",
        w.jobs(programs),
        r.execs,
        r.divergent,
        ratio(r.divergent, r.oracle_inputs),
        ratio(r.bisections, r.oracle_inputs),
        r.signatures.len(),
        w.workers,
        if w.procs { "processes" } else { "threads" },
    )
}

/// Worker processes' peak RSS left in `dir`, in MB (0 when none).
fn worker_peak_rss_mb(dir: &std::path::Path) -> f64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0.0;
    };
    entries
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path()).ok())
        .filter_map(|s| s.trim().parse::<f64>().ok())
        .fold(0.0, f64::max)
}

fn run_campaign(w: &CampaignWorkload, opts: &Opts) -> Result<Outcome, Failure> {
    refuse_if_oversubscribed(w.workers)?;
    let pid = std::process::id();
    let rss_dir = opts.out_dir.join(format!("rss-{pid}"));
    std::fs::create_dir_all(&rss_dir).map_err(|e| format!("{}: {e}", rss_dir.display()))?;
    // Worker processes inherit this and leave their peak RSS there.
    std::env::set_var(RSS_DIR_ENV, &rss_dir);

    let mut out = Outcome::default();
    let setup_s = if opts.trace { 0.0 } else { setup_s(opts)? };
    let programs = w.build_targets(&mut Tracer::new(Instant::now()))?;
    let cfg = w.config(
        &programs,
        Some(opts.out_dir.join(format!("ckpt-{pid}"))),
        Some(opts.exe.clone()),
    );

    // Peak RSS through set-up and the first round: later rounds start new
    // worker threads whose allocator arenas add to the high-water mark by
    // chance, so the whole-run peak wanders by ±10% on one seed.
    let mut peak_mb: Option<f64> = None;
    let mut timed_round = || -> Result<RoundResult, Failure> {
        let r = campaigns::run_round(&cfg)?;
        if peak_mb.is_none() {
            peak_mb = Some(peak_rss_mb()?.max(worker_peak_rss_mb(&rss_dir)));
        }
        Ok(r)
    };
    let (timed, replays): (Vec<RoundResult>, Vec<Replay>) = if opts.trace {
        rounds(opts.seconds, MIN_TRACED_ROUNDS, || {
            let r = timed_round()?;
            Ok((r, campaigns::replay(w)?))
        })?
        .into_iter()
        .unzip()
    } else {
        let timed = rounds(opts.seconds, MIN_ROUNDS, &mut timed_round)?;
        (timed, vec![campaigns::replay(w)?])
    };

    // The gate.
    gate::rounds_agree(&timed).map_err(Failure::Incorrect)?;
    for rep in &replays {
        gate::replay_matches(&programs, &timed[0], rep).map_err(Failure::Incorrect)?;
    }
    let last = replays.last().expect("at least one replay ran");
    let checked = gate::check_witnesses(&programs, &last.witnesses).map_err(Failure::Incorrect)?;

    let first = &timed[0];
    out.attempted = timed.iter().map(|r| r.attempted).sum();
    out.failed = timed.iter().map(|r| r.failed).sum();
    let tput: Vec<f64> = timed.iter().map(|r| r.execs as f64 / r.wall_s).collect();
    let worker_rss = worker_peak_rss_mb(&rss_dir);
    let _ = std::fs::remove_dir_all(&rss_dir);
    out.notes.push(format!("machine: nproc={}", nproc()));
    out.notes.push(campaign_shape(w, programs.len(), first));
    out.notes.push(format!(
        "gate: {} rounds agree; replay matches; {checked} witnesses re-diverge on the interpreter",
        timed.len()
    ));
    out.notes.push(format!(
        "rounds: {:?} execs/s",
        tput.iter().map(|t| t.round()).collect::<Vec<_>>()
    ));

    if !opts.trace {
        out.metrics = end_to_end([
            median(&tput),
            setup_s,
            peak_mb.expect("a timed round ran"),
            first.signatures.len() as f64,
            first.divergent as f64,
        ]);
        return Ok(out);
    }

    let untraced = median(&tput);
    let layer_rounds: Vec<BTreeMap<&'static str, f64>> = timed
        .iter()
        .zip(&replays)
        .map(|(r, rep)| campaign_layers(w, r, rep))
        .collect();
    let mut values = medians(&layer_rounds);
    let traced = values["trace.traced_throughput_per_s"];
    values.insert("trace.untraced_throughput_per_s", untraced);
    values.insert("trace.overhead_share", 1.0 - traced / untraced);
    values.insert("campaign.worker_peak_rss_mb", worker_rss);
    values.insert("failed_share", ratio(out.failed, out.attempted));
    values.insert("programs", programs.len() as f64);
    values.insert("nproc", nproc() as f64);
    out.notes.push(format!(
        "trace: traced {traced:.0} vs untraced {untraced:.0} execs/s; unattributed {:.2}% of the traced round",
        100.0 * values["trace.unattributed_share"]
    ));
    let path = opts
        .out_dir
        .join(format!("trace-{}-seed{}.jsonl", opts.workload, opts.seed));
    let spans: Vec<Vec<Vec<trace::Span>>> = replays.into_iter().map(|r| r.spans).collect();
    trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes.push(format!("spans: {}", path.display()));
    out.metrics = per_layer(&values)?;
    Ok(out)
}

/// Per-layer values of one traced replay and the untraced round beside it.
fn campaign_layers(
    w: &CampaignWorkload,
    r: &RoundResult,
    rep: &Replay,
) -> BTreeMap<&'static str, f64> {
    let acc = trace::account(&rep.spans);
    let mut m: BTreeMap<&'static str, f64> = acc.seconds.clone();
    let c = &rep.counts;
    m.insert("trace.round_s", acc.root_s);
    m.insert("trace.unattributed_share", acc.unattributed_share());
    m.insert("trace.traced_throughput_per_s", c.execs as f64 / rep.wall_s);
    m.insert(
        "minc-vm.ns_per_oracle_run",
        acc.get("minc-vm.oracle_exec_s") * 1e9 / c.oracle_runs.max(1) as f64,
    );
    m.insert("vm.pages_restored", c.pages_restored as f64);
    m.insert("vm.block_exec", c.block_exec as f64);
    m.insert("core.bisected_share", ratio(c.bisections, c.oracle_inputs));
    m.insert("core.escalation_reruns", c.reruns as f64);
    m.insert(
        "core.dedup_ratio",
        ratio(rep.signatures.len() as u64, c.divergent),
    );
    m.insert("divergent_share", ratio(c.divergent, c.oracle_inputs));
    let jobs: Vec<f64> = trace::durations(&rep.spans, "campaign.job_self_s")
        .into_iter()
        .map(|ns| ns as f64 / 1e9)
        .collect();
    m.insert("campaign.job_p50_s", quantile(&jobs, 0.5));
    m.insert("campaign.job_p90_s", quantile(&jobs, 0.9));
    let busy = campaigns::hist(&r.metrics, "campaign.job_us", "sum") as f64 / 1e6;
    m.insert("campaign.job_busy_s", busy);
    m.insert(
        "campaign.outside_jobs_s",
        w.workers as f64 * r.wall_s - busy,
    );
    m.insert(
        "campaign.checkpoint_s",
        (campaigns::hist(&r.metrics, "campaign.checkpoint_write_us", "sum")
            + campaigns::hist(&r.metrics, "campaign.checkpoint_sync_us", "sum")) as f64
            / 1e6,
    );
    m.insert(
        "campaign.leases_granted",
        campaigns::counter(&r.metrics, "campaign.leases_granted") as f64,
    );
    m
}

// ---- juliet ----

fn run_juliet(opts: &Opts) -> Result<Outcome, Failure> {
    refuse_if_oversubscribed(1)?;
    let vm = julietwl::vm();
    let mut out = Outcome::default();
    let setup_s = if opts.trace { 0.0 } else { setup_s(opts)? };
    let (tests, errored) = julietwl::prepare(opts.seed);

    let mut peak_mb: Option<f64> = None;
    let mut timed_round = || -> Result<julietwl::Round, Failure> {
        let r = julietwl::run_round(&tests, &vm);
        if peak_mb.is_none() {
            peak_mb = Some(peak_rss_mb()?);
        }
        Ok(r)
    };
    let (timed, traced): (Vec<julietwl::Round>, Vec<julietwl::TracedRound>) = if opts.trace {
        rounds(opts.seconds, MIN_TRACED_ROUNDS, || {
            Ok((timed_round()?, julietwl::run_traced(&tests, &vm)))
        })?
        .into_iter()
        .unzip()
    } else {
        (
            rounds(opts.seconds, MIN_ROUNDS, &mut timed_round)?,
            Vec::new(),
        )
    };

    // The gate: every round, traced or not, yields the same evaluations and
    // Table 3, and CompDiff never fires on a good variant.
    let first = &timed[0];
    gate::no_false_positives(&first.evals).map_err(Failure::Incorrect)?;
    for (i, r) in timed.iter().enumerate().skip(1) {
        gate::evals_agree(&format!("round {i} vs round 0"), &r.evals, &first.evals)
            .map_err(Failure::Incorrect)?;
    }
    for (i, t) in traced.iter().enumerate() {
        gate::evals_agree(
            &format!("traced round {i} vs round 0"),
            &t.evals,
            &first.evals,
        )
        .map_err(Failure::Incorrect)?;
        if t.table != first.table {
            return Err(Failure::Incorrect(format!(
                "traced round {i}: Table 3 differs from the untraced one"
            )));
        }
    }

    let n = tests.len() as u64;
    let findings = first.evals.iter().filter(|e| e.compdiff_det).count();
    // CompDiff runs that diverged, bad and good variants; the gate holds the
    // good-variant share at zero.
    let divergent = first
        .evals
        .iter()
        .map(|e| usize::from(e.compdiff_det) + usize::from(e.compdiff_fp))
        .sum::<usize>() as u64;
    let runs = timed.len() + traced.len();
    out.attempted = n * runs as u64;
    out.failed = errored * runs as u64;
    let tput: Vec<f64> = timed.iter().map(|r| n as f64 / r.wall_s).collect();
    out.notes.push(format!("machine: nproc={}", nproc()));
    out.notes.push(format!(
        "shape: programs={n} fuzz_execs=0 divergent_inputs={divergent} divergent_share={:.4} \
         core.bisected_share=0 findings={findings} workers=1",
        ratio(divergent, 2 * n)
    ));
    out.notes.push(format!(
        "gate: {runs} rounds agree on every evaluation and Table 3; 0 false positives"
    ));
    out.notes.push(format!(
        "rounds: {:?} tests/s",
        tput.iter()
            .map(|t| (t * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    ));

    if !opts.trace {
        out.metrics = end_to_end([
            median(&tput),
            setup_s,
            peak_mb.expect("a timed round ran"),
            findings as f64,
            divergent as f64,
        ]);
        return Ok(out);
    }

    let layer_rounds: Vec<BTreeMap<&'static str, f64>> = traced
        .iter()
        .map(|t| {
            let acc = trace::account(std::slice::from_ref(&t.spans));
            let mut m = acc.seconds.clone();
            let c = &t.counts;
            let tests_s: f64 = t
                .spans
                .iter()
                .filter(|s| s.name == "juliet.self_s")
                .map(|s| s.dur_ns() as f64 / 1e9)
                .sum();
            m.insert("juliet.evaluate_s", tests_s);
            m.insert("trace.round_s", acc.root_s);
            m.insert("trace.unattributed_share", acc.unattributed_share());
            m.insert("trace.traced_throughput_per_s", n as f64 / t.wall_s);
            m.insert(
                "minc-vm.ns_per_oracle_run",
                acc.get("minc-vm.oracle_exec_s") * 1e9 / c.oracle_runs.max(1) as f64,
            );
            m.insert("vm.pages_restored", c.pages_restored as f64);
            m.insert("vm.block_exec", c.block_exec as f64);
            m.insert("core.escalation_reruns", c.reruns as f64);
            m
        })
        .collect();
    let mut values = medians(&layer_rounds);
    let untraced = median(&tput);
    let traced_tput = values["trace.traced_throughput_per_s"];
    values.insert("trace.untraced_throughput_per_s", untraced);
    values.insert("trace.overhead_share", 1.0 - traced_tput / untraced);
    let p = |q: f64| {
        let per_round: Vec<f64> = timed
            .iter()
            .map(|r| {
                let ms: Vec<f64> = r.test_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
                quantile(&ms, q)
            })
            .collect();
        median(&per_round)
    };
    values.insert("test_p50_ms", p(0.5));
    values.insert("test_p95_ms", p(0.95));
    values.insert("test_samples", n as f64);
    values.insert("divergent_share", ratio(divergent, 2 * n));
    values.insert("false_positives", (divergent - findings as u64) as f64);
    values.insert("failed_share", ratio(errored, 2 * n));
    values.insert("programs", n as f64);
    values.insert("nproc", nproc() as f64);
    out.notes.push(format!(
        "trace: traced {traced_tput:.1} vs untraced {untraced:.1} tests/s; unattributed {:.2}% of the traced round",
        100.0 * values["trace.unattributed_share"]
    ));
    let path = opts
        .out_dir
        .join(format!("trace-{}-seed{}.jsonl", opts.workload, opts.seed));
    let spans: Vec<Vec<Vec<trace::Span>>> = traced.into_iter().map(|t| vec![t.spans]).collect();
    trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes.push(format!("spans: {}", path.display()));
    out.metrics = per_layer(&values)?;
    Ok(out)
}
