//! Coverage-bookkeeping equivalence suite.
//!
//! `CoverageMap` resets, counts and merges by walking the list of slots
//! an execution touched instead of scanning all `MAP_SIZE` bytes. This
//! suite keeps the original dense three-pass map as the reference and
//! pins that the two agree exactly — edge count, bucketed edges in index
//! order, merge verdict and global edge count — after every execution of
//! every catalog target in both VM modes, on the saturation, reset,
//! clone and higher-bucket edge cases, and on whole CompDiff-AFL++
//! campaigns whose queue and findings depend on those verdicts.

use compdiff::{CompDiffAfl, DiffConfig};
use fuzzing::{mutate, CoverageMap, CoveredHooks, FuzzConfig, GlobalCoverage, Rng, MAP_SIZE};
use minc_compile::CompilerImpl;
use minc_vm::hooks::{Hooks, Loc};
use minc_vm::{ExecSession, VmConfig, VmMode};
use targets::{build, catalog};

/// The dense reference: one byte per slot, every query a full scan.
struct DenseMap {
    map: Box<[u8; MAP_SIZE]>,
}

impl DenseMap {
    fn new() -> Self {
        DenseMap {
            map: Box::new([0u8; MAP_SIZE]),
        }
    }

    fn reset(&mut self) {
        self.map.fill(0);
    }

    /// The slot hash of `CoverageMap` (a mismatch shows up as differing
    /// indices in `buckets`).
    fn edge_index(from: Loc, to: Loc) -> usize {
        let a = (from.func as u64)
            .wrapping_mul(0x9e37_79b1)
            .wrapping_add((from.block as u64).wrapping_mul(0x85eb_ca77));
        let b = (to.func as u64)
            .wrapping_mul(0xc2b2_ae3d)
            .wrapping_add((to.block as u64).wrapping_mul(0x27d4_eb2f));
        ((a >> 1) ^ b) as usize & (MAP_SIZE - 1)
    }

    fn record(&mut self, from: Loc, to: Loc) {
        let idx = Self::edge_index(from, to);
        self.map[idx] = self.map[idx].saturating_add(1);
    }

    fn count_edges(&self) -> usize {
        self.map.iter().filter(|&&b| b != 0).count()
    }

    fn buckets(&self) -> Vec<(usize, u8)> {
        self.map
            .iter()
            .enumerate()
            .filter(|(_, &b)| b != 0)
            .map(|(i, &b)| (i, CoverageMap::classify(b)))
            .collect()
    }
}

/// The dense reference's virgin map.
struct DenseGlobal {
    virgin: Box<[u8; MAP_SIZE]>,
}

impl DenseGlobal {
    fn new() -> Self {
        DenseGlobal {
            virgin: Box::new([0u8; MAP_SIZE]),
        }
    }

    fn merge(&mut self, exec: &DenseMap) -> bool {
        let mut new = false;
        for (i, bucket) in exec.buckets() {
            if self.virgin[i] & bucket != bucket {
                self.virgin[i] |= bucket;
                new = true;
            }
        }
        new
    }

    fn edges_seen(&self) -> usize {
        self.virgin.iter().filter(|&&b| b != 0).count()
    }
}

/// Inner hooks of a `CoveredHooks`: every edge the VM reports reaches
/// the reference map too, so both maps see the identical edge stream.
struct ReferenceHooks<'m>(&'m mut DenseMap);

impl Hooks for ReferenceHooks<'_> {
    fn on_edge(&mut self, from: Loc, to: Loc) {
        self.0.record(from, to);
    }
    fn bulk_mem_ok(&self) -> bool {
        true
    }
}

/// A `CoverageMap` and the dense reference driven in lockstep, each with
/// its own global map.
struct Lockstep {
    map: CoverageMap,
    global: GlobalCoverage,
    dense: DenseMap,
    dense_global: DenseGlobal,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep {
            map: CoverageMap::new(),
            global: GlobalCoverage::new(),
            dense: DenseMap::new(),
            dense_global: DenseGlobal::new(),
        }
    }

    fn reset(&mut self) {
        self.map.reset();
        self.dense.reset();
    }

    fn record(&mut self, from: Loc, to: Loc) {
        self.map.record(from, to);
        self.dense.record(from, to);
    }

    /// Asserts count, buckets, merge verdict and global count agree;
    /// returns the merge verdict.
    fn check_and_merge(&mut self, what: &str) -> bool {
        assert_eq!(
            self.map.count_edges(),
            self.dense.count_edges(),
            "{what}: count_edges"
        );
        assert_eq!(
            self.map.buckets().collect::<Vec<_>>(),
            self.dense.buckets(),
            "{what}: buckets"
        );
        let new = self.global.merge(&self.map);
        assert_eq!(
            new,
            self.dense_global.merge(&self.dense),
            "{what}: merge verdict"
        );
        assert_eq!(
            self.global.edges_seen(),
            self.dense_global.edges_seen(),
            "{what}: edges_seen"
        );
        new
    }
}

fn loc(func: u32, block: u32) -> Loc {
    Loc {
        func,
        block,
        inst: 0,
    }
}

#[test]
fn catalog_execs_match_dense_reference_in_both_vm_modes() {
    let fuzz_impl = CompilerImpl::parse("clang-O1").unwrap();
    for spec in catalog() {
        let target = build(&spec);
        let bin = minc_compile::compile_source(&target.src, fuzz_impl).unwrap();
        for mode in [VmMode::Interp, VmMode::Block] {
            let vm = VmConfig {
                mode,
                ..VmConfig::default()
            };
            let mut session = ExecSession::new(&bin);
            let mut rng = Rng::new(0xC0DE ^ u64::from(spec.magic[0]));
            let mut lock = Lockstep::new();
            let mut inputs = target.seeds.clone();
            inputs.push(target.trigger(&spec.bugs[0]));
            for i in 0..120 {
                let parent = &inputs[i % inputs.len()];
                inputs.push(mutate::havoc(parent, &mut rng, 64));
            }
            for (i, input) in inputs.iter().enumerate() {
                lock.reset();
                session.run_with_hooks(
                    &bin,
                    input,
                    &vm,
                    &mut CoveredHooks::new(&mut lock.map, ReferenceHooks(&mut lock.dense)),
                );
                lock.check_and_merge(&format!("{} {mode} input #{i}", spec.name));
            }
            assert!(
                lock.global.edges_seen() > 1,
                "{} {mode}: no coverage recorded",
                spec.name
            );
        }
    }
}

#[test]
fn saturated_slot_counts_once_and_resets_clean() {
    let mut lock = Lockstep::new();
    for _ in 0..300 {
        lock.record(loc(0, 0), loc(0, 1));
    }
    lock.record(loc(0, 1), loc(0, 2));
    assert!(lock.check_and_merge("saturated"));
    assert_eq!(lock.map.count_edges(), 2);
    assert!(lock.map.buckets().any(|(_, b)| b == 128));

    // Reset after saturation leaves nothing behind, and the next hit of
    // the saturated edge is a fresh 0→1 transition.
    lock.reset();
    lock.check_and_merge("reset after saturation");
    assert_eq!(lock.map.count_edges(), 0);
    // Only bucket 128 of that slot was seen, so bucket 1 is new.
    lock.record(loc(0, 0), loc(0, 1));
    assert!(lock.check_and_merge("one hit after reset"));
    assert_eq!(lock.map.buckets().count(), 1);
}

#[test]
fn cloned_map_is_independent_and_equivalent() {
    let mut lock = Lockstep::new();
    for b in 0..40 {
        lock.record(loc(1, b), loc(1, b + 1));
    }
    let snapshot = lock.map.clone();
    // Mutate and reset the original; the clone keeps its own contents.
    lock.record(loc(2, 0), loc(2, 1));
    assert!(lock.check_and_merge("original"));
    lock.reset();

    // The clone merges like the dense map it was copied from.
    let mut dense = DenseMap::new();
    for b in 0..40 {
        dense.record(loc(1, b), loc(1, b + 1));
    }
    assert_eq!(snapshot.count_edges(), dense.count_edges());
    assert_eq!(snapshot.buckets().collect::<Vec<_>>(), dense.buckets());
    let (mut global, mut dense_global) = (GlobalCoverage::new(), DenseGlobal::new());
    assert_eq!(global.merge(&snapshot), dense_global.merge(&dense));
    assert_eq!(global.edges_seen(), dense_global.edges_seen());

    // A reset clone forgets exactly what it touched.
    let mut cleared = snapshot.clone();
    cleared.reset();
    assert_eq!(cleared.count_edges(), 0);
    assert_eq!(cleared.buckets().count(), 0);
    assert_eq!(snapshot.count_edges(), 40);
}

#[test]
fn higher_bucket_on_seen_edge_is_new() {
    let mut lock = Lockstep::new();
    lock.record(loc(3, 0), loc(3, 1));
    assert!(lock.check_and_merge("first hit"));
    assert!(!lock.check_and_merge("same map again"));
    // Same edge, hit three times: bucket 4 has not been seen yet.
    lock.reset();
    for _ in 0..3 {
        lock.record(loc(3, 0), loc(3, 1));
    }
    assert!(lock.check_and_merge("bucket 4"));
    // Back to one hit: bucket 1 is already in the virgin map.
    lock.reset();
    lock.record(loc(3, 0), loc(3, 1));
    assert!(!lock.check_and_merge("bucket 1 again"));
    assert_eq!(lock.global.edges_seen(), 1);
}

/// `(execs, edges, corpus_len, crashes, oracle_finds)` of a seeded
/// CompDiff-AFL++ run: coverage verdicts decide the queue, so any change
/// in `merge` or `count_edges` moves these numbers.
fn pinned_campaign(name: &str) -> (u64, usize, usize, usize, usize) {
    let spec = catalog().into_iter().find(|s| s.name == name).unwrap();
    let target = build(&spec);
    let afl = CompDiffAfl::from_source_default(
        &target.src,
        FuzzConfig {
            max_execs: 3_000,
            seed: 17,
            ..Default::default()
        },
        DiffConfig::default(),
    )
    .unwrap();
    let stats = afl.run(&target.seeds).campaign;
    (
        stats.execs,
        stats.edges,
        stats.corpus_len,
        stats.crashes.len(),
        stats.oracle_finds.len(),
    )
}

#[test]
fn compdiff_campaigns_match_dense_map_results() {
    // Recorded with the dense three-pass map.
    let expected = [
        ("tcpdump", (3000, 25, 14, 0, 1)),
        ("readelf", (3000, 20, 14, 0, 1)),
        ("jq", (3000, 20, 14, 0, 1)),
    ];
    for (name, want) in expected {
        assert_eq!(pinned_campaign(name), want, "{name}");
    }
}
