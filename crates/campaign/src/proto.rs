//! The coordinator/worker protocol (see DESIGN.md §17): `compdiff::Json`
//! frames, passed as values over `mpsc` to worker threads and as
//! line-delimited JSON over a local TCP socket to worker processes.
//!
//! Every frame is one `compdiff::Json` object (one line on the wire),
//! tagged with a `"t"` field. The conversation:
//!
//! ```text
//! worker → hello {pid}                 coordinator → config {campaign...}
//! worker → lease_req                   coordinator → lease {lease, target, shard, attempt}
//! worker → renew {lease}               (no reply; refreshes the expiry clock)
//! worker → done {lease, record, ...}   coordinator → ack
//! worker → failed {lease, kind, ...}   coordinator → ack
//! (campaign drained)                   coordinator → shutdown
//! worker → bye {cache counters}, closes
//! anyone → status                      coordinator → status {progress...}, closes
//! ```
//!
//! A worker process adds its registry snapshot (`metrics`) to `done`,
//! `failed` and `bye`; worker threads share the campaign's registry.
//! Only socket workers get the config frame, which carries everything a
//! worker needs to rebuild its `CampaignConfig` and target set; targets
//! travel as (name, magic, src, hex seeds) and are recompiled by the
//! worker's own `BinaryCache`. `DiffConfig::filters` does not cross the
//! wire — the CLI cannot set filters, so campaign workers always run
//! with the default (empty) filter set, same as worker threads.

use crate::{CampaignConfig, FailureKind, JobRecord};
use compdiff::Json;
use minc_compile::CompilerImpl;
use minc_vm::{SessionStats, VmMode};
use std::io::{BufRead, ErrorKind, Read, Write};
use targets::{Target, TargetSpec};

/// The longest frame [`read_frame`] accepts, newline included. The
/// largest legitimate frame is `config`, which carries every target's
/// source: 192 generated programs render to about 150 KiB, so 16 MiB
/// leaves a hundredfold margin while capping what one peer can make the
/// coordinator buffer.
pub const MAX_FRAME_BYTES: u64 = 16 << 20;

/// Writes one frame: compact JSON, newline, flush.
pub(crate) fn write_frame(w: &mut impl Write, v: &Json) -> std::io::Result<()> {
    writeln!(w, "{}", v.render())?;
    w.flush()
}

/// Reads one frame; `Ok(None)` is a clean EOF (peer closed).
///
/// # Errors
///
/// I/O errors pass through. A frame longer than [`MAX_FRAME_BYTES`]
/// (read no further than the cap), one that is not UTF-8, and one that
/// is not JSON are [`ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl BufRead) -> std::io::Result<Option<Json>> {
    let invalid = |msg: String| std::io::Error::new(ErrorKind::InvalidData, msg);
    let mut line = Vec::new();
    let n = r.take(MAX_FRAME_BYTES).read_until(b'\n', &mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n as u64 == MAX_FRAME_BYTES && line.last() != Some(&b'\n') {
        return Err(invalid(format!("frame exceeds {MAX_FRAME_BYTES} bytes")));
    }
    let line = std::str::from_utf8(&line).map_err(|e| invalid(e.to_string()))?;
    Json::parse(line.trim_end())
        .map(Some)
        .map_err(|e| invalid(e.to_string()))
}

/// The frame's `"t"` tag.
pub(crate) fn frame_type(v: &Json) -> Option<&str> {
    v.get("t").and_then(Json::as_str)
}

/// A one-field frame: `{"t": tag}`.
pub(crate) fn tagged(tag: &str) -> Json {
    Json::obj(vec![("t", Json::Str(tag.to_string()))])
}

pub(crate) fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

pub(crate) fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("odd-length hex string `{s}`"));
    }
    (0..s.len() / 2)
        .map(|i| {
            u8::from_str_radix(&s[2 * i..2 * i + 2], 16)
                .map_err(|_| format!("bad hex string `{s}`"))
        })
        .collect()
}

/// Serializes the campaign parameters plus the selected targets into
/// the config frame the coordinator sends after `hello`.
pub(crate) fn config_frame(cfg: &CampaignConfig, targets: &[Target]) -> Json {
    let targets_json: Vec<Json> = targets
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("name", Json::Str(t.spec.name.clone())),
                (
                    "magic",
                    Json::Array(vec![
                        Json::Int(i64::from(t.spec.magic[0])),
                        Json::Int(i64::from(t.spec.magic[1])),
                    ]),
                ),
                ("src", Json::Str(t.src.clone())),
                (
                    "seeds",
                    Json::Array(t.seeds.iter().map(|s| Json::Str(hex_encode(s))).collect()),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("t", Json::Str("config".to_string())),
        ("seed", Json::Int(cfg.seed as i64)),
        ("execs_per_target", Json::Int(cfg.execs_per_target as i64)),
        ("shards", Json::Int(i64::from(cfg.shards_per_target))),
        ("max_input_len", Json::Int(cfg.max_input_len as i64)),
        ("batch_size", Json::Int(cfg.batch_size as i64)),
        ("fuzz_impl", Json::Str(cfg.fuzz_impl.to_string())),
        ("vm_mode", Json::Str(cfg.diff_config.vm.mode.to_string())),
        (
            "step_limit",
            Json::Int(cfg.diff_config.vm.step_limit as i64),
        ),
        (
            "max_frames",
            Json::Int(cfg.diff_config.vm.max_frames as i64),
        ),
        (
            "heap_limit",
            Json::Int(cfg.diff_config.vm.heap_limit as i64),
        ),
        (
            "timeout_escalations",
            Json::Int(i64::from(cfg.diff_config.timeout_escalations)),
        ),
        (
            "fixed_clock_us",
            match cfg.fixed_clock_us {
                Some(t) => Json::Int(t as i64),
                None => Json::Null,
            },
        ),
        (
            "fault_plan",
            match &cfg.fault_plan_spec {
                Some(spec) => Json::Str(spec.clone()),
                None => Json::Null,
            },
        ),
        ("targets", Json::Array(targets_json)),
    ])
}

/// Rebuilds the worker-side `CampaignConfig` and target set from a
/// config frame. The reconstructed `Target`s carry wire placeholders for
/// the catalog-only metadata (`input_type`, `version`, `bugs`) — the
/// campaign path compiles from `src` and never reads those fields.
pub(crate) fn parse_config(v: &Json) -> Result<(CampaignConfig, Vec<Target>), String> {
    let int = |k: &str| {
        v.get(k)
            .and_then(Json::as_i64)
            .ok_or(format!("config missing {k}"))
    };
    let mut cfg = CampaignConfig {
        seed: int("seed")? as u64,
        execs_per_target: int("execs_per_target")? as u64,
        shards_per_target: u32::try_from(int("shards")?).map_err(|_| "shards out of range")?,
        max_input_len: usize::try_from(int("max_input_len")?)
            .map_err(|_| "max_input_len out of range")?,
        batch_size: usize::try_from(int("batch_size")?).map_err(|_| "batch_size out of range")?,
        ..CampaignConfig::default()
    };
    let fuzz_impl = v
        .get("fuzz_impl")
        .and_then(Json::as_str)
        .ok_or("config missing fuzz_impl")?;
    cfg.fuzz_impl =
        CompilerImpl::parse(fuzz_impl).ok_or(format!("unknown fuzz_impl `{fuzz_impl}`"))?;
    let mode = v
        .get("vm_mode")
        .and_then(Json::as_str)
        .ok_or("config missing vm_mode")?;
    cfg.diff_config.vm.mode = VmMode::parse(mode).ok_or(format!("unknown vm_mode `{mode}`"))?;
    cfg.diff_config.vm.step_limit = int("step_limit")? as u64;
    cfg.diff_config.vm.max_frames =
        usize::try_from(int("max_frames")?).map_err(|_| "max_frames out of range")?;
    cfg.diff_config.vm.heap_limit = int("heap_limit")? as u64;
    cfg.diff_config.timeout_escalations =
        u32::try_from(int("timeout_escalations")?).map_err(|_| "timeout_escalations range")?;
    cfg.fixed_clock_us = match v.get("fixed_clock_us") {
        Some(Json::Null) | None => None,
        Some(t) => Some(t.as_i64().ok_or("bad fixed_clock_us")? as u64),
    };
    cfg.fault_plan_spec = match v.get("fault_plan") {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    };

    let mut targets = Vec::new();
    for t in v
        .get("targets")
        .and_then(Json::as_array)
        .ok_or("config missing targets")?
    {
        let name = t
            .get("name")
            .and_then(Json::as_str)
            .ok_or("target missing name")?
            .to_string();
        let magic_arr = t
            .get("magic")
            .and_then(Json::as_array)
            .ok_or("target missing magic")?;
        let byte = |i: usize| {
            magic_arr
                .get(i)
                .and_then(Json::as_u64)
                .and_then(|b| u8::try_from(b).ok())
                .ok_or("bad magic byte")
        };
        let magic = [byte(0)?, byte(1)?];
        let src = t
            .get("src")
            .and_then(Json::as_str)
            .ok_or("target missing src")?
            .to_string();
        let seeds = t
            .get("seeds")
            .and_then(Json::as_array)
            .ok_or("target missing seeds")?
            .iter()
            .map(|s| hex_decode(s.as_str().ok_or("non-string seed")?))
            .collect::<Result<Vec<_>, _>>()?;
        targets.push(Target {
            spec: TargetSpec {
                name,
                input_type: "wire",
                version: "wire",
                magic,
                bugs: Vec::new(),
            },
            src,
            seeds,
        });
    }
    Ok((cfg, targets))
}

/// Serializes one job's VM-session statistics for the `done` frame.
pub(crate) fn vm_to_json(vm: &SessionStats) -> Json {
    Json::obj(vec![
        ("runs", Json::Int(vm.runs as i64)),
        ("pages_restored", Json::Int(vm.pages_restored as i64)),
        (
            "pages_materialized",
            Json::Int(vm.pages_materialized as i64),
        ),
        ("bulk_builtin_ops", Json::Int(vm.bulk_builtin_ops as i64)),
        (
            "fallback_builtin_ops",
            Json::Int(vm.fallback_builtin_ops as i64),
        ),
        ("poisoned_rebuilds", Json::Int(vm.poisoned_rebuilds as i64)),
        ("blocks_translated", Json::Int(vm.blocks_translated as i64)),
        ("block_cache_hits", Json::Int(vm.block_cache_hits as i64)),
        ("block_exec", Json::Int(vm.block_exec as i64)),
        ("interp_fallback", Json::Int(vm.interp_fallback as i64)),
        ("loader_skips", Json::Int(vm.loader_skips as i64)),
    ])
}

/// Reads the VM statistics back out of a `done` frame.
pub(crate) fn vm_from_json(v: &Json) -> SessionStats {
    let u = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
    SessionStats {
        runs: u("runs"),
        pages_restored: u("pages_restored"),
        pages_materialized: u("pages_materialized"),
        bulk_builtin_ops: u("bulk_builtin_ops"),
        fallback_builtin_ops: u("fallback_builtin_ops"),
        poisoned_rebuilds: u("poisoned_rebuilds"),
        blocks_translated: u("blocks_translated"),
        block_cache_hits: u("block_cache_hits"),
        block_exec: u("block_exec"),
        interp_fallback: u("interp_fallback"),
        loader_skips: u("loader_skips"),
    }
}

/// The coordinator's lease grant.
pub(crate) fn lease_frame(lease: u64, job: crate::Job) -> Json {
    Json::obj(vec![
        ("t", Json::Str("lease".to_string())),
        ("lease", Json::Int(lease as i64)),
        ("target", Json::Int(job.target_index as i64)),
        ("shard", Json::Int(i64::from(job.shard))),
        ("attempt", Json::Int(i64::from(job.attempt))),
    ])
}

/// The worker's successful-job report.
pub(crate) fn done_frame(lease: u64, record: &JobRecord, dur_us: u64, vm: &SessionStats) -> Json {
    Json::obj(vec![
        ("t", Json::Str("done".to_string())),
        ("lease", Json::Int(lease as i64)),
        ("record", record.to_json()),
        ("dur_us", Json::Int(dur_us as i64)),
        ("vm", vm_to_json(vm)),
    ])
}

/// The worker's failed-attempt report.
pub(crate) fn failed_frame(lease: u64, kind: FailureKind, message: &str, dur_us: u64) -> Json {
    Json::obj(vec![
        ("t", Json::Str("failed".to_string())),
        ("lease", Json::Int(lease as i64)),
        ("kind", Json::Str(kind.as_str().to_string())),
        ("message", Json::Str(message.to_string())),
        ("dur_us", Json::Int(dur_us as i64)),
    ])
}

#[cfg(test)]
mod tests {
    // test-only: unwraps in this module assert test invariants.
    use super::*;

    #[test]
    fn frames_roundtrip_through_a_pipe() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, &tagged("hello")).unwrap();
        write_frame(&mut buf, &tagged("ack")).unwrap();
        let mut r = std::io::BufReader::new(buf.as_slice());
        let first = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(frame_type(&first), Some("hello"));
        let second = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(frame_type(&second), Some("ack"));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn progen_config_frame_fits_under_the_cap() {
        // The largest legitimate frame: a config carrying 192 generated
        // programs, the size of the progen benchmark campaign.
        let targets: Vec<Target> = (0..192)
            .map(|i| {
                let mut rng = fuzzing::Rng::new(progen::mix(1, i));
                let src = progen::generate(&mut rng).source();
                targets::target_from_source(&format!("progen_{i:03}"), &src).unwrap()
            })
            .collect();
        let frame = config_frame(&CampaignConfig::default(), &targets);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        assert!(
            (buf.len() as u64) * 8 < MAX_FRAME_BYTES,
            "a {}-byte config leaves under 8x headroom",
            buf.len()
        );
        let got = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        let (_, got_targets) = parse_config(&got).unwrap();
        assert_eq!(got_targets.len(), 192);
        assert_eq!(got_targets[191].src, targets[191].src);
    }

    #[test]
    fn config_frame_roundtrips_parameters_and_targets() {
        let mut cfg = CampaignConfig {
            seed: u64::MAX - 3, // exercises the i64 bit-cast
            execs_per_target: 777,
            shards_per_target: 3,
            max_input_len: 48,
            batch_size: 8,
            fault_plan_spec: Some("die@tcpdump#0".to_string()),
            fixed_clock_us: Some(5),
            ..CampaignConfig::default()
        };
        cfg.diff_config.vm.mode = VmMode::Interp;
        cfg.diff_config.vm.step_limit = 12_345;
        let targets = vec![Target {
            spec: TargetSpec {
                name: "tcpdump".to_string(),
                input_type: "pcap",
                version: "4.9",
                magic: [0xD4, 0xC3],
                bugs: Vec::new(),
            },
            src: "int main() { return 0; }".to_string(),
            seeds: vec![vec![0xD4, 0xC3, 0x00], vec![]],
        }];
        let frame = config_frame(&cfg, &targets);
        // The frame survives an actual render/parse cycle (the wire).
        let parsed = Json::parse(&frame.render()).unwrap();
        let (got_cfg, got_targets) = parse_config(&parsed).unwrap();
        assert_eq!(got_cfg.seed, cfg.seed);
        assert_eq!(got_cfg.execs_per_target, 777);
        assert_eq!(got_cfg.shards_per_target, 3);
        assert_eq!(got_cfg.max_input_len, 48);
        assert_eq!(got_cfg.batch_size, 8);
        assert_eq!(got_cfg.diff_config.vm.mode, VmMode::Interp);
        assert_eq!(got_cfg.diff_config.vm.step_limit, 12_345);
        assert_eq!(got_cfg.fixed_clock_us, Some(5));
        assert_eq!(got_cfg.fault_plan_spec.as_deref(), Some("die@tcpdump#0"));
        assert_eq!(got_targets.len(), 1);
        assert_eq!(got_targets[0].spec.name, "tcpdump");
        assert_eq!(got_targets[0].spec.magic, [0xD4, 0xC3]);
        assert_eq!(got_targets[0].src, targets[0].src);
        assert_eq!(got_targets[0].seeds, targets[0].seeds);
    }

    #[test]
    fn vm_stats_roundtrip() {
        let vm = SessionStats {
            runs: 1,
            pages_restored: 2,
            pages_materialized: 3,
            bulk_builtin_ops: 4,
            fallback_builtin_ops: 5,
            poisoned_rebuilds: 6,
            blocks_translated: 7,
            block_cache_hits: 8,
            block_exec: 9,
            interp_fallback: 10,
            loader_skips: 11,
        };
        assert_eq!(vm_from_json(&vm_to_json(&vm)), vm);
    }

    #[test]
    fn hex_roundtrips_and_rejects_garbage() {
        assert_eq!(hex_encode(&[0x00, 0xFF, 0x3A]), "00ff3a");
        assert_eq!(hex_decode("00ff3a").unwrap(), vec![0x00, 0xFF, 0x3A]);
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        assert!(hex_decode("abc").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "non-hex digits");
    }
}
