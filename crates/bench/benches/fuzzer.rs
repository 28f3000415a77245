//! Fuzzer throughput: plain AFL++ loop vs CompDiff-AFL++ (the oracle's
//! k-executions cost — the other face of the §5 overhead claim), beside
//! the micro row for the per-exec coverage bookkeeping both loops pay.
//! Results go to `BENCH_fuzzer.json` when `COMPDIFF_BENCH_JSON_DIR` is set.

use compdiff::{CompDiffAfl, DiffConfig};
use compdiff_bench::harness::{write_json, BenchGroup};
use fuzzing::{BinaryTarget, CoverageMap, FuzzConfig, Fuzzer, GlobalCoverage, NoOracle};
use minc_compile::{compile_source, CompilerImpl};
use minc_vm::hooks::Loc;
use minc_vm::VmConfig;

const SRC: &str = r#"
    int main() {
        char b[16];
        long n = read_input(b, 16L);
        int cs = 0;
        long i;
        for (i = 0; i < n; i++) { cs = cs * 31 + (int)b[i]; }
        printf("%d\n", cs);
        return 0;
    }
"#;

fn main() {
    let mut g = BenchGroup::new("fuzzer");
    g.sample_size(10);
    // One exec's coverage bookkeeping on a catalog-sized path: reset,
    // record 40 edges, count and merge.
    let mut map = CoverageMap::new();
    let mut global = GlobalCoverage::new();
    let loc = |block| Loc {
        func: 0,
        block,
        inst: 0,
    };
    g.bench("coverage_exec_cycle", || {
        map.reset();
        for b in 0..40 {
            map.record(loc(b), loc(b + 1));
        }
        (map.count_edges(), global.merge(&map))
    });
    let bin = compile_source(SRC, CompilerImpl::parse("clang-O1").unwrap()).unwrap();
    g.bench("plain_afl_2000_execs", || {
        let target = BinaryTarget::new(&bin, VmConfig::default());
        let cfg = FuzzConfig {
            max_execs: 2_000,
            seed: 1,
            ..Default::default()
        };
        Fuzzer::new(target, NoOracle, cfg).run(&[b"seed".to_vec()])
    });
    g.bench("compdiff_afl_2000_execs", || {
        let afl = CompDiffAfl::from_source_default(
            SRC,
            FuzzConfig {
                max_execs: 2_000,
                seed: 1,
                ..Default::default()
            },
            DiffConfig::default(),
        )
        .unwrap();
        afl.run(&[b"seed".to_vec()])
    });
    write_json("BENCH_fuzzer.json", &g.finish(), Vec::new());
}
