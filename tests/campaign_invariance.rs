//! The campaign knob-invariance matrix: worker threads × oracle batch
//! size × VM engine. Every point runs the same small campaigns and must
//! find the same things; at two workers the rendered report and the
//! `--metrics-out` stream must also be byte-identical run to run.
//!
//! Two campaigns: readelf and brotli at 150 execs per target, which
//! find nothing but exercise every knob, and php at 1000, which finds
//! divergences, so the signature sets being compared are not empty.

use campaign::{CampaignConfig, CampaignReport};
use minc_vm::VmMode;
use std::path::{Path, PathBuf};

/// One point of the matrix.
#[derive(Debug, Clone, Copy)]
struct Point {
    workers: usize,
    batch_size: usize,
    mode: VmMode,
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("compdiff-invariance-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One campaign of the matrix: its targets and per-target budget.
const CAMPAIGNS: [(&[&str], u64); 2] = [(&["readelf", "brotli"], 150), (&["php"], 1000)];

/// Runs `targets` at `execs` per target in 2 shards, seed 11, under a
/// fixed clock, streaming events to `metrics`.
fn run(targets: &[&str], execs: u64, p: Point, metrics: &Path) -> CampaignReport {
    let mut cfg = CampaignConfig {
        workers: p.workers,
        batch_size: p.batch_size,
        execs_per_target: execs,
        shards_per_target: 2,
        seed: 11,
        target_filter: Some(targets.iter().map(|t| t.to_string()).collect()),
        metrics_out: Some(metrics.to_path_buf()),
        fixed_clock_us: Some(0),
        ..Default::default()
    };
    cfg.diff_config.vm.mode = p.mode;
    campaign::run(&cfg).unwrap()
}

#[test]
fn findings_do_not_depend_on_workers_batch_size_or_vm_mode() {
    let dir = temp_dir("matrix");
    let mut points = Vec::new();
    for workers in [1, 2] {
        for batch_size in [1, 16] {
            for mode in [VmMode::Interp, VmMode::Block] {
                points.push(Point {
                    workers,
                    batch_size,
                    mode,
                });
            }
        }
    }

    for (c, &(targets, execs)) in CAMPAIGNS.iter().enumerate() {
        let mut reference: Option<(Point, CampaignReport)> = None;
        for (i, &p) in points.iter().enumerate() {
            let stream_a = dir.join(format!("{c}-{i}-a.jsonl"));
            let report = run(targets, execs, p, &stream_a);
            assert!(report.stats.is_complete(), "{p:?}");
            assert_eq!(
                report.stats.jobs_done,
                2 * targets.len(),
                "{p:?}: 2 shards per target"
            );

            if p.workers > 1 {
                let stream_b = dir.join(format!("{c}-{i}-b.jsonl"));
                let again = run(targets, execs, p, &stream_b);
                assert_eq!(
                    report.render_summary(),
                    again.render_summary(),
                    "{p:?}: reports must be byte-identical across runs"
                );
                assert_eq!(
                    std::fs::read_to_string(&stream_a).unwrap(),
                    std::fs::read_to_string(&stream_b).unwrap(),
                    "{p:?}: metrics streams must be byte-identical across runs"
                );
            }

            let Some((q, want)) = &reference else {
                reference = Some((p, report));
                continue;
            };
            assert_eq!(report.signatures(), want.signatures(), "{p:?} vs {q:?}");
            assert_eq!(
                report.stats.per_target, want.stats.per_target,
                "{p:?} vs {q:?}"
            );
            assert_eq!(report.stats.execs, want.stats.execs, "{p:?} vs {q:?}");
            assert_eq!(
                report.stats.divergent, want.stats.divergent,
                "{p:?} vs {q:?}"
            );
        }
        let (_, want) = reference.unwrap();
        assert!(
            c == 0 || !want.signatures().is_empty(),
            "php must diverge within 1000 execs"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
