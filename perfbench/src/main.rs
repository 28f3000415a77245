//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Human-readable notes go first; the last line of standard output is the
//! JSON result. A wrong output prints no result and exits 1; a machine
//! that cannot run the workload exits 2. The same executable serves as the
//! campaign's worker process (`perfbench campaign-worker --connect ADDR`)
//! and as a set-up probe (`perfbench setup-probe --workload W --seed N`).

use perfbench::{Failure, Opts, RSS_DIR_ENV};
use std::path::PathBuf;
use std::process::ExitCode;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let need = |name: &str| flag(args, name).ok_or_else(|| format!("missing {name}"));
    let workload = need("--workload")?.to_string();
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}` (0 or 1)")),
    };
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        exe,
    })
}

/// One campaign worker process; leaves its peak RSS for the benchmark.
fn worker(args: &[String]) -> ExitCode {
    let Some(addr) = flag(args, "--connect") else {
        eprintln!("campaign-worker needs --connect HOST:PORT");
        return ExitCode::from(2);
    };
    if let Err(e) = campaign::run_worker(addr) {
        eprintln!("worker: {e}");
        return ExitCode::from(1);
    }
    if let (Some(dir), Ok(mb)) = (std::env::var_os(RSS_DIR_ENV), perfbench::peak_rss_mb()) {
        let path = PathBuf::from(dir).join(format!("worker-{}", std::process::id()));
        let _ = std::fs::write(path, format!("{mb}\n"));
    }
    ExitCode::SUCCESS
}

/// One cold set-up in this fresh process; prints its seconds.
fn setup_probe(args: &[String]) -> ExitCode {
    let (Some(workload), Some(Ok(seed))) = (
        flag(args, "--workload"),
        flag(args, "--seed").map(str::parse::<u64>),
    ) else {
        eprintln!("setup-probe needs --workload NAME --seed N");
        return ExitCode::from(2);
    };
    match perfbench::setup_once(workload, seed) {
        Ok(secs) => {
            println!("{secs}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("setup-probe: {e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("campaign-worker") => return worker(&args[1..]),
        Some("setup-probe") => return setup_probe(&args[1..]),
        _ => {}
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                perfbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&opts) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            println!("{}", outcome.to_json().render());
            ExitCode::SUCCESS
        }
        Err(Failure::Incorrect(why)) => {
            eprintln!("correctness gate failed: {why}");
            ExitCode::from(1)
        }
        Err(Failure::Refused(why)) => {
            eprintln!("refused: {why}");
            ExitCode::from(2)
        }
        Err(Failure::Error(why)) => {
            eprintln!("error: {why}");
            ExitCode::from(1)
        }
    }
}
