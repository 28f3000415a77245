//! Campaign scaling: the same fixed workload run in-process (thread
//! workers) and across coordinator/worker *processes*, at 1, 2 and 4
//! workers each.
//!
//! Honesty rules for the recorded baseline (`BENCH_campaign.json`):
//! every row records its worker count and execution mode, the file
//! records the machine's hardware thread count, and the 4-worker
//! speedup is only measured when the machine actually has >= 4
//! hardware threads — otherwise the file carries an explicit
//! `speedup_4_workers_refused` entry instead of a meaningless ~1x
//! ratio from an oversubscribed single core.

use campaign::CampaignConfig;
use compdiff::Json;
use compdiff_bench::harness::{write_json, BenchGroup};
use std::path::Path;

fn workload() -> CampaignConfig {
    CampaignConfig {
        execs_per_target: 4_000,
        shards_per_target: 4,
        target_filter: Some(
            ["tcpdump", "MuJS", "openssl", "php"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        ),
        ..Default::default()
    }
}

fn threads(workers: usize) -> CampaignConfig {
    CampaignConfig {
        workers,
        ..workload()
    }
}

fn procs(workers: usize, exe: &Path) -> CampaignConfig {
    CampaignConfig {
        workers_proc: Some(workers),
        worker_exe: Some(exe.to_path_buf()),
        ..workload()
    }
}

fn row(name: &str, workers: usize, mode: &str) -> Json {
    Json::obj(vec![
        ("name", Json::Str(format!("campaign/{name}"))),
        ("workers", Json::Int(workers as i64)),
        ("mode", Json::Str(mode.to_string())),
    ])
}

fn main() {
    let mut g = BenchGroup::new("campaign");
    g.sample_size(5);
    let mut rows = Vec::new();
    for n in [1, 2, 4] {
        g.bench(&format!("threads_{n}"), || {
            campaign::run(&threads(n)).unwrap()
        });
        rows.push(row(&format!("threads_{n}"), n, "threads"));
    }

    // The multi-process rows need the `compdiff` binary on disk (it is
    // the worker executable); probe via the same resolution chain the
    // coordinator uses and skip honestly when it is absent.
    let worker_exe = campaign::resolve_worker_exe(&workload());
    let procs_medians = match &worker_exe {
        Ok(exe) => {
            let medians = [1, 2, 4].map(|n| {
                rows.push(row(&format!("procs_{n}"), n, "processes"));
                g.bench(&format!("procs_{n}"), || {
                    campaign::run(&procs(n, exe)).unwrap()
                })
                .median
                .as_secs_f64()
            });
            Some(medians)
        }
        Err(e) => {
            println!("campaign/procs_*: skipped ({e}); build the compdiff binary first");
            None
        }
    };
    let results = g.finish();

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut extra = vec![
        ("hardware_threads", Json::Int(cores as i64)),
        ("rows", Json::Array(rows)),
    ];
    // The headline speedups are the *process* scaling path — measuring
    // one on fewer hardware threads than workers would time contention,
    // not scaling, so it is refused outright rather than recorded.
    if let Some([one, two, _]) = procs_medians.filter(|_| cores >= 2) {
        let speedup = one / two;
        println!("campaign 2-process speedup: {speedup:.2}x on {cores} hardware threads");
        extra.push(("speedup_2_workers", Json::Float(speedup)));
    }
    match procs_medians {
        Some([one, _, four]) if cores >= 4 => {
            let speedup = one / four;
            println!("campaign 4-process speedup: {speedup:.2}x on {cores} hardware threads");
            extra.push(("speedup_4_workers", Json::Float(speedup)));
            write_json("BENCH_campaign.json", &results, extra);
            assert!(
                speedup >= 1.8,
                "expected >=1.8x at 4 worker processes on {cores} cores, got {speedup:.2}x"
            );
        }
        Some(_) => {
            let reason = format!("hardware_threads {cores} < workers 4; speedup not measured");
            println!("campaign 4-process speedup refused: {reason}");
            extra.push(("speedup_4_workers_refused", Json::Str(reason)));
            write_json("BENCH_campaign.json", &results, extra);
        }
        None => {
            let reason = "worker executable unavailable; speedup not measured".to_string();
            extra.push(("speedup_4_workers_refused", Json::Str(reason)));
            write_json("BENCH_campaign.json", &results, extra);
        }
    }
}
