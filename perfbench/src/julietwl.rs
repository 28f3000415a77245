//! The `juliet_table3` workload: a seeded, stratified draw from the full
//! Juliet suite, every test evaluated bad and good into Table 3.
//!
//! A timed round calls `juliet::evaluate` per test and `juliet::table3`
//! once. The traced round evaluates through the functions `evaluate` is
//! made of, in the same order and with the same arguments, with one span
//! per call; the gate requires its `TestEval`s to equal the untimed ones.

use crate::campaigns::diff_config;
use crate::trace::{ns_since, DiffClock, Tracer};
use compdiff::{CompDiff, HashVector};
use fuzzing::Rng;
use juliet::{Cwe, JulietTest, TestEval};
use minc_vm::{ExitStatus, SanitizerKind, VmConfig, VmMode};
use staticheck::Tool;
use std::time::Instant;

/// Share of each CWE's paper test count drawn per round.
pub const DRAW_FRACTION: f64 = 0.025;

/// Residue classes of the test index. The generators pick a test's
/// variant from `i % 8` (and coarser residues), so drawing the same number
/// of tests from every class keeps the variant mix — and with it the
/// detection counts — the same from seed to seed.
const CLASSES: usize = 8;

/// The seeded draw: `(cwe, test index)` pairs, per CWE an equal number of
/// distinct indices from each residue class.
pub fn draw(seed: u64) -> Vec<(Cwe, usize)> {
    let mut rng = Rng::new(seed ^ 0x4A55_4C49_4554);
    let mut out = Vec::new();
    for cwe in Cwe::ALL {
        let n = cwe.paper_count();
        let per_class = ((n as f64 * DRAW_FRACTION / CLASSES as f64).round() as usize).max(1);
        for r in 0..CLASSES {
            let mut pool: Vec<usize> = (r..n).step_by(CLASSES).collect();
            for k in 0..per_class.min(pool.len()) {
                let j = k + rng.below(pool.len() - k);
                pool.swap(k, j);
                out.push((cwe, pool[k]));
            }
        }
    }
    out
}

/// The workload's inputs: the drawn tests' sources, and the number of
/// variants whose source fails the MinC frontend.
pub fn prepare(seed: u64) -> (Vec<JulietTest>, u64) {
    let tests = build(&draw(seed));
    let errored = tests
        .iter()
        .flat_map(|t| [&t.bad, &t.good])
        .filter(|src| minc::check(src).is_err())
        .count() as u64;
    (tests, errored)
}

/// Generates the drawn tests' sources.
pub fn build(drawn: &[(Cwe, usize)]) -> Vec<JulietTest> {
    drawn
        .iter()
        .map(|&(cwe, i)| juliet::generate(cwe, i))
        .collect()
}

/// The VM configuration of every Juliet run.
pub fn vm() -> VmConfig {
    diff_config(VmMode::Block).vm
}

/// One untraced round.
#[derive(Debug)]
pub struct Round {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Per-test evaluations, in draw order.
    pub evals: Vec<TestEval>,
    /// Per-test latency, ns.
    pub test_ns: Vec<u64>,
    /// Table 3 as JSON text.
    pub table: String,
}

/// Evaluates every test with `juliet::evaluate` and aggregates Table 3.
pub fn run_round(tests: &[JulietTest], vm: &VmConfig) -> Round {
    let t0 = Instant::now();
    let mut evals = Vec::with_capacity(tests.len());
    let mut test_ns = Vec::with_capacity(tests.len());
    for t in tests {
        let start = Instant::now();
        evals.push(juliet::evaluate(t, vm));
        test_ns.push(ns_since(start));
    }
    let table = juliet::table3(&evals).to_json().render();
    Round {
        wall_s: t0.elapsed().as_secs_f64(),
        evals,
        test_ns,
        table,
    }
}

/// Counts gathered by a traced round.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Differential-binary runs.
    pub oracle_runs: u64,
    /// Timeout-escalation re-runs.
    pub reruns: u64,
    /// Session pages restored in the fresh CompDiff sessions.
    pub pages_restored: u64,
    /// Block-backend executions in the fresh CompDiff sessions.
    pub block_exec: u64,
}

/// One traced round.
#[derive(Debug)]
pub struct TracedRound {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Per-test evaluations, in draw order.
    pub evals: Vec<TestEval>,
    /// Table 3 as JSON text.
    pub table: String,
    /// Counts.
    pub counts: Counts,
    /// The round's spans (one thread).
    pub spans: Vec<crate::trace::Span>,
}

/// Evaluates every test through `evaluate`'s parts with one span per call.
pub fn run_traced(tests: &[JulietTest], vm: &VmConfig) -> TracedRound {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);
    let root = tr.enter("round");
    let mut counts = Counts::default();
    let evals: Vec<TestEval> = tests
        .iter()
        .map(|t| evaluate_traced(t, vm, &mut tr, &mut counts))
        .collect();
    let table = tr.span("juliet.table3_s", |_| {
        juliet::table3(&evals).to_json().render()
    });
    tr.exit(root);
    TracedRound {
        wall_s: ns_since(epoch) as f64 / 1e9,
        evals,
        table,
        counts,
        spans: tr.finish(),
    }
}

/// Runs a fresh-session CompDiff of `src` on the empty input, as
/// `juliet::evaluate` does: `(divergent, hashes)`, or `None` when the
/// source does not check.
fn compdiff_traced(
    src: &str,
    vm: &VmConfig,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Option<(bool, HashVector)> {
    let cfg = compdiff::DiffConfig {
        vm: vm.clone(),
        ..Default::default()
    };
    let diff = tr
        .span("minc-compile.compile_s", |_| {
            CompDiff::from_source_default(src, cfg)
        })
        .ok()?;
    let mut sessions = tr.span("minc-vm.session_setup_s", |_| diff.make_sessions());
    let mut clock = DiffClock::default();
    let span = tr.enter("core.sweep_self_s");
    let o = diff.run_input_observed(&mut sessions, b"", &mut clock);
    tr.carve(span, "minc-vm.oracle_exec_s", clock.exec_ns);
    tr.exit(span);
    counts.oracle_runs += clock.runs;
    counts.reruns += clock.reruns;
    for s in &sessions {
        let st = s.stats();
        counts.pages_restored += st.pages_restored;
        counts.block_exec += st.block_exec;
    }
    Some((o.divergent, o.hashes))
}

/// `juliet::evaluate`, call for call, with a span around each call.
fn evaluate_traced(
    test: &JulietTest,
    vm: &VmConfig,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> TestEval {
    let span = tr.enter("juliet.self_s");
    let relevant = juliet::harness::relevant_defects(test.cwe.group());
    let tools = [Tool::CoveritySim, Tool::CppcheckSim, Tool::InferSim];
    let lint = tr.span("staticheck-ir.lint_s", |_| {
        staticheck_ir::UnstableLint::new()
    });

    // Static tools and the IR lint, bad then good.
    let mut static_out = [[false; 3]; 2];
    let mut lint_out = [false; 2];
    for (v, src) in [&test.bad, &test.good].into_iter().enumerate() {
        if let Ok(checked) = tr.span("minc.check_s", |_| minc::check(src)) {
            for (t, out) in tools.iter().zip(static_out[v].iter_mut()) {
                *out = tr
                    .span("staticheck.tools_s", |_| staticheck::run_tool(&checked, *t))
                    .iter()
                    .any(|f| relevant.contains(&f.defect));
            }
            lint_out[v] = tr
                .span("staticheck-ir.lint_s", |_| lint.run(&checked))
                .iter()
                .any(|f| relevant.contains(&f.finding.defect));
        }
    }

    // Sanitizer builds and runs.
    let kinds = [
        SanitizerKind::Asan,
        SanitizerKind::Ubsan,
        SanitizerKind::Msan,
    ];
    let mut san_out = [[false; 3]; 2];
    for (v, src) in [&test.bad, &test.good].into_iter().enumerate() {
        if let Ok(bin) = tr.span("sanitizers.compile_s", |_| {
            sanitizers::compile_sanitized(src)
        }) {
            for (k, out) in kinds.iter().zip(san_out[v].iter_mut()) {
                let r = tr.span("sanitizers.run_s", |_| {
                    sanitizers::run_sanitized(&bin, b"", vm, *k)
                });
                *out = matches!(r.status, ExitStatus::Sanitizer(_));
            }
        }
    }

    // Sanitizer meta-oracle.
    let scfg = sancheck::SancheckConfig {
        impls: vec![minc_compile::CompilerImpl::parse("gcc-O0").expect("gcc-O0 is valid")],
        vm: vm.clone(),
        ..sancheck::SancheckConfig::default()
    };
    let relevant_classes: Vec<staticheck_ir::UbClass> = relevant
        .iter()
        .filter_map(|d| staticheck_ir::ubmap::class_of_defect(*d))
        .collect();
    let mut san_miss = [false; 3];
    let mut san_fa = [false; 3];
    if let Ok(rep) = tr.span("sancheck.check_s", |_| {
        sancheck::check_source(&test.bad, &scfg)
    }) {
        for (k, out) in kinds.iter().zip(san_miss.iter_mut()) {
            *out = rep
                .false_negatives
                .iter()
                .any(|f| f.kind == *k && relevant_classes.contains(&f.class));
        }
    }
    if let Ok(rep) = tr.span("sancheck.check_s", |_| {
        sancheck::check_source(&test.good, &scfg)
    }) {
        for (k, out) in kinds.iter().zip(san_fa.iter_mut()) {
            *out = rep.false_positives.iter().any(|f| f.kind == *k);
        }
    }

    // CompDiff over the default ten implementations, fresh sessions.
    let (compdiff_det, hashes) =
        compdiff_traced(&test.bad, vm, tr, counts).unwrap_or((false, vec![0; 10]));
    let compdiff_fp = compdiff_traced(&test.good, vm, tr, counts).is_some_and(|(d, _)| d);

    let eval = TestEval {
        id: test.id.clone(),
        cwe: test.cwe,
        static_det: static_out[0],
        static_fp: static_out[1],
        lint_det: lint_out[0],
        lint_fp: lint_out[1],
        san_det: san_out[0],
        san_fp: san_out[1],
        san_miss,
        san_fa,
        compdiff_det,
        compdiff_fp,
        hashes,
    };
    tr.exit(span);
    eval
}
