//! AFL-style edge coverage.
//!
//! A 64 KiB byte map indexed by the hash of (previous block, current
//! block); hit counts are bucketed into AFL's eight classes before novelty
//! comparison, exactly like AFL++'s `classify_counts` + `has_new_bits`.
//!
//! The map also lists the slots an execution touched, so reset, edge
//! count and merge cost O(distinct edges hit) rather than a scan of all
//! `MAP_SIZE` bytes: catalog targets touch tens of slots per execution.

use minc_compile::ir::{BinKind, IrType};
use minc_vm::hooks::{FreeDisposition, Hooks, Loc, PoisonUse};
use minc_vm::result::Fault;

/// Size of the coverage map (AFL's default).
pub const MAP_SIZE: usize = 1 << 16;

/// One execution's raw edge hit counts.
#[derive(Clone)]
pub struct CoverageMap {
    map: Box<[u8; MAP_SIZE]>,
    /// Every nonzero slot, in first-hit order. A slot is listed when
    /// `record` moves it from 0 to 1; counts saturate, so it stays
    /// nonzero (and listed once) until `reset`.
    touched: Vec<u32>,
}

impl std::fmt::Debug for CoverageMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CoverageMap({} edges)", self.count_edges())
    }
}

impl Default for CoverageMap {
    fn default() -> Self {
        Self::new()
    }
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> Self {
        CoverageMap {
            map: Box::new([0u8; MAP_SIZE]),
            touched: Vec::new(),
        }
    }

    /// Zeroes the map for the next execution.
    pub fn reset(&mut self) {
        for &i in &self.touched {
            self.map[i as usize] = 0;
        }
        self.touched.clear();
    }

    fn edge_index(from: Loc, to: Loc) -> usize {
        let a = (from.func as u64)
            .wrapping_mul(0x9e37_79b1)
            .wrapping_add((from.block as u64).wrapping_mul(0x85eb_ca77));
        let b = (to.func as u64)
            .wrapping_mul(0xc2b2_ae3d)
            .wrapping_add((to.block as u64).wrapping_mul(0x27d4_eb2f));
        ((a >> 1) ^ b) as usize & (MAP_SIZE - 1)
    }

    /// Records one edge.
    pub fn record(&mut self, from: Loc, to: Loc) {
        let idx = Self::edge_index(from, to);
        let slot = &mut self.map[idx];
        if *slot == 0 {
            self.touched.push(idx as u32);
        }
        *slot = slot.saturating_add(1);
    }

    /// AFL's hit-count bucketing: 0,1,2,3,4-7,8-15,16-31,32-127,128+.
    pub fn classify(count: u8) -> u8 {
        match count {
            0 => 0,
            1 => 1,
            2 => 2,
            3 => 4,
            4..=7 => 8,
            8..=15 => 16,
            16..=31 => 32,
            32..=127 => 64,
            _ => 128,
        }
    }

    /// Number of distinct edges hit.
    pub fn count_edges(&self) -> usize {
        self.touched.len()
    }

    /// Iterates (index, bucketed count) of hit edges in ascending index
    /// order.
    pub fn buckets(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        let mut order = self.touched.clone();
        order.sort_unstable();
        order.into_iter().map(|i| {
            let i = i as usize;
            (i, Self::classify(self.map[i]))
        })
    }
}

/// Accumulated coverage across a whole campaign ("virgin bits").
#[derive(Clone)]
pub struct GlobalCoverage {
    virgin: Box<[u8; MAP_SIZE]>,
}

impl std::fmt::Debug for GlobalCoverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GlobalCoverage({} edges)", self.edges_seen())
    }
}

impl Default for GlobalCoverage {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalCoverage {
    /// Fresh (all-virgin) global map.
    pub fn new() -> Self {
        GlobalCoverage {
            virgin: Box::new([0u8; MAP_SIZE]),
        }
    }

    /// Merges one execution's coverage; returns `true` if it contributed
    /// any new bucketed bit (AFL's "interesting" criterion).
    pub fn merge(&mut self, exec: &CoverageMap) -> bool {
        let mut new = false;
        for &i in &exec.touched {
            let i = i as usize;
            let bucket = CoverageMap::classify(exec.map[i]);
            let virgin = &mut self.virgin[i];
            if *virgin & bucket != bucket {
                *virgin |= bucket;
                new = true;
            }
        }
        new
    }

    /// Number of edge slots seen so far.
    pub fn edges_seen(&self) -> usize {
        self.virgin.iter().filter(|&&b| b != 0).count()
    }
}

/// Hook adapter that records coverage and forwards everything else to an
/// inner hooks implementation (so coverage composes with sanitizers, as in
/// a real `afl-clang-fast -fsanitize=...` build).
#[derive(Debug)]
pub struct CoveredHooks<'m, H: Hooks> {
    /// The per-execution map being filled.
    pub map: &'m mut CoverageMap,
    /// The inner instrumentation (use [`minc_vm::NoHooks`] for plain AFL).
    pub inner: H,
}

impl<'m, H: Hooks> CoveredHooks<'m, H> {
    /// Creates the adapter.
    pub fn new(map: &'m mut CoverageMap, inner: H) -> Self {
        CoveredHooks { map, inner }
    }
}

impl<H: Hooks> Hooks for CoveredHooks<'_, H> {
    fn on_edge(&mut self, from: Loc, to: Loc) {
        self.map.record(from, to);
        self.inner.on_edge(from, to);
    }
    fn check_load(&mut self, addr: u64, width: u64, loc: Loc) -> Option<Fault> {
        self.inner.check_load(addr, width, loc)
    }
    fn check_store(&mut self, addr: u64, width: u64, loc: Loc) -> Option<Fault> {
        self.inner.check_store(addr, width, loc)
    }
    fn check_bin(
        &mut self,
        op: BinKind,
        ty: IrType,
        a: u64,
        b: u64,
        ub_signed: bool,
        loc: Loc,
    ) -> Option<Fault> {
        self.inner.check_bin(op, ty, a, b, ub_signed, loc)
    }
    fn heap_redzone(&self) -> u64 {
        self.inner.heap_redzone()
    }
    fn on_malloc(&mut self, addr: u64, size: u64) {
        self.inner.on_malloc(addr, size);
    }
    fn on_free(&mut self, addr: u64, size: u64, loc: Loc) -> Result<FreeDisposition, Fault> {
        self.inner.on_free(addr, size, loc)
    }
    fn on_bad_free(&mut self, addr: u64, loc: Loc) -> Option<Fault> {
        self.inner.on_bad_free(addr, loc)
    }
    fn on_frame_enter(&mut self, lo: u64, hi: u64, slots: &[(u64, u64)]) {
        self.inner.on_frame_enter(lo, hi, slots);
    }
    fn on_frame_exit(&mut self, lo: u64, hi: u64) {
        self.inner.on_frame_exit(lo, hi);
    }
    fn track_poison(&self) -> bool {
        self.inner.track_poison()
    }
    fn load_poison(&mut self, addr: u64, width: u64) -> bool {
        self.inner.load_poison(addr, width)
    }
    fn store_poison(&mut self, addr: u64, width: u64, poisoned: bool) {
        self.inner.store_poison(addr, width, poisoned);
    }
    fn on_poison_use(&mut self, use_: PoisonUse, loc: Loc) -> Option<Fault> {
        self.inner.on_poison_use(use_, loc)
    }
    fn on_exit(&mut self, live_heap: &[(u64, u64)]) -> Option<Fault> {
        self.inner.on_exit(live_heap)
    }
    // Coverage instruments edges only, never individual memory accesses,
    // so bulk memory operations are fine whenever the inner hooks allow
    // them (e.g. plain-AFL fuzzing over NoHooks keeps the VM fast path).
    fn bulk_mem_ok(&self) -> bool {
        self.inner.bulk_mem_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(f: u32, b: u32) -> Loc {
        Loc {
            func: f,
            block: b,
            inst: 0,
        }
    }

    #[test]
    fn classify_buckets() {
        assert_eq!(CoverageMap::classify(0), 0);
        assert_eq!(CoverageMap::classify(1), 1);
        assert_eq!(CoverageMap::classify(2), 2);
        assert_eq!(CoverageMap::classify(3), 4);
        assert_eq!(CoverageMap::classify(5), 8);
        assert_eq!(CoverageMap::classify(10), 16);
        assert_eq!(CoverageMap::classify(20), 32);
        assert_eq!(CoverageMap::classify(100), 64);
        assert_eq!(CoverageMap::classify(200), 128);
    }

    #[test]
    fn novelty_detection() {
        let mut global = GlobalCoverage::new();
        let mut exec = CoverageMap::new();
        exec.record(loc(0, 0), loc(0, 1));
        assert!(global.merge(&exec), "first edge is new");
        assert!(!global.merge(&exec), "same coverage is not new");
        // Same edge, higher hit bucket -> new again.
        for _ in 0..10 {
            exec.record(loc(0, 0), loc(0, 1));
        }
        assert!(global.merge(&exec), "new hit-count bucket counts as new");
    }

    #[test]
    fn distinct_edges_mostly_distinct_slots() {
        let mut m = CoverageMap::new();
        for b in 0..200u32 {
            m.record(loc(0, b), loc(0, b + 1));
        }
        assert!(m.count_edges() > 190, "hash collisions should be rare");
    }

    #[test]
    fn reset_clears() {
        let mut m = CoverageMap::new();
        m.record(loc(1, 2), loc(1, 3));
        assert_eq!(m.count_edges(), 1);
        m.reset();
        assert_eq!(m.count_edges(), 0);
    }
}
