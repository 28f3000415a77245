//! The benchmark's own checks: the correctness gate trips on planted wrong
//! findings, a second seed keeps every workload's shape, and
//! `BENCHMARK.json` names exactly the metrics the program prints.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use compdiff::Json;
use perfbench::campaigns::{self, CampaignWorkload, Programs, Witness};
use perfbench::{gate, julietwl, trace};
use std::path::PathBuf;

/// A small in-process catalog campaign: one thread, one shard, enough
/// execs to find a few divergences.
fn small_catalog() -> CampaignWorkload {
    CampaignWorkload {
        programs: Programs::Catalog,
        seed: 3,
        workers: 1,
        procs: false,
        execs_per_target: 1_000,
        shards: 1,
        checkpoint: false,
    }
}

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_perfbench"))
}

#[test]
fn planted_wrong_finding_trips_the_gate() {
    let w = small_catalog();
    let replay = campaigns::replay(&w).expect("replay runs");
    let programs = replay.programs.clone();
    assert!(replay.witnesses.len() >= 2, "the replay finds divergences");
    gate::check_witnesses(&programs, &replay.witnesses).expect("honest witnesses pass");

    // A witness stored under another witness's signature.
    let mut wrong_sig = replay.witnesses.clone();
    let other = wrong_sig
        .iter()
        .map(|x| x.signature.clone())
        .find(|s| *s != wrong_sig[0].signature)
        .expect("two distinct signatures");
    wrong_sig[0].signature = other;
    assert!(gate::check_witnesses(&programs, &wrong_sig).is_err());

    // A "witness" whose input does not diverge: a program's own seed input.
    let t = replay.witnesses[0].target;
    let calm = programs[t]
        .seeds
        .iter()
        .find(|s| {
            !compdiff::CompDiff::from_source_default(&programs[t].src, Default::default())
                .expect("catalog compiles")
                .is_divergent(s)
        })
        .expect("some seed input is stable")
        .clone();
    let planted = vec![Witness {
        target: t,
        input: calm,
        signature: replay.witnesses[0].signature.clone(),
    }];
    assert!(gate::check_witnesses(&programs, &planted).is_err());

    // A finding the untraced campaign never reported.
    let round = campaigns::run_round(&w.config(&programs, None, None)).expect("campaign runs");
    gate::replay_matches(&programs, &round, &replay).expect("replay reproduces the campaign");
    let mut extra = round.clone();
    extra.signatures.insert("p0|planted".to_string());
    assert!(gate::replay_matches(&programs, &extra, &replay).is_err());
    assert!(gate::rounds_agree(&[round, extra]).is_err());
}

#[test]
fn planted_juliet_false_positive_trips_the_gate() {
    let tests = julietwl::build(&julietwl::draw(1)[..24]);
    let round = julietwl::run_round(&tests, &julietwl::vm());
    gate::no_false_positives(&round.evals).expect("CompDiff is silent on good variants");
    let mut planted = round.evals.clone();
    planted[0].compdiff_fp = true;
    assert!(gate::no_false_positives(&planted).is_err());
    planted[0].compdiff_fp = false;
    planted[1].compdiff_det = !planted[1].compdiff_det;
    assert!(gate::evals_agree("planted", &round.evals, &planted).is_err());
}

#[test]
fn second_seed_keeps_catalog_shape() {
    let w = CampaignWorkload::catalog(2);
    let programs = w
        .build_targets(&mut trace::Tracer::new(std::time::Instant::now()))
        .unwrap();
    let r = campaigns::run_round(&w.config(&programs, None, None)).expect("campaign runs");
    assert_eq!(programs.len(), 23);
    let share = r.divergent as f64 / r.oracle_inputs as f64;
    assert!(
        r.divergent > 0 && share <= 0.05,
        "catalog divergent share {share}"
    );
}

#[test]
fn second_seed_keeps_progen_shape() {
    let w = CampaignWorkload::progen(2);
    let programs = w
        .build_targets(&mut trace::Tracer::new(std::time::Instant::now()))
        .unwrap();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("progen-shape");
    let r = campaigns::run_round(&w.config(&programs, Some(dir), Some(worker_exe())))
        .expect("campaign runs");
    let share = r.divergent as f64 / r.oracle_inputs as f64;
    let bisected = r.bisections as f64 / r.oracle_inputs as f64;
    assert!(share >= 0.90, "progen divergent share {share}");
    assert!(bisected >= 0.90, "progen bisected share {bisected}");
    assert_eq!(
        campaigns::counter(&r.metrics, "campaign.leases_granted"),
        w.jobs(programs.len()) as u64,
        "every job went through the lease protocol"
    );
}

#[test]
fn second_seed_keeps_juliet_shape() {
    // Same number of tests per (CWE, variant class) as seed 1.
    let classes = |seed| {
        let mut v: Vec<String> = julietwl::draw(seed)
            .into_iter()
            .map(|(cwe, i)| format!("{cwe}/{}", i % 8))
            .collect();
        v.sort();
        v
    };
    assert_eq!(classes(1), classes(2));
    assert_ne!(
        julietwl::draw(1),
        julietwl::draw(2),
        "the seed picks the tests"
    );

    // No fuzzing and no campaign on the Juliet path.
    let tests = julietwl::build(&julietwl::draw(2)[..40]);
    let t = julietwl::run_traced(&tests, &julietwl::vm());
    let acc = trace::account(std::slice::from_ref(&t.spans));
    for m in [
        "fuzzing.loop_self_s",
        "fuzzing.cov_reset_s",
        "minc-vm.fuzz_exec_s",
        "campaign.job_self_s",
    ] {
        assert_eq!(acc.get(m), 0.0, "{m} on juliet_table3");
    }
    assert!(acc.get("minc-vm.oracle_exec_s") > 0.0);
}

fn names(j: &Json, key: &str) -> Vec<String> {
    j.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn benchmark_json_names_what_the_program_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let j = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    assert_eq!(names(&j, "workloads"), perfbench::WORKLOADS);
    let e2e: Vec<&str> = perfbench::END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(&j, "end_to_end"), e2e);
    let layers: Vec<&str> = perfbench::PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(&j, "per_layer"), layers);
}
