//! The campaign worker: one loop, lease → load → run the job → report,
//! that serves both transports (DESIGN.md §8, §17).
//!
//! [`serve`] is the whole worker. A worker thread runs it over `mpsc`
//! channels with the campaign's own [`BinaryCache`], telemetry and fault
//! plan; a worker process ([`run_worker`]) runs it over the coordinator's
//! socket with its own. While a job runs, a renewer thread keeps the
//! held lease from expiring, so a long job keeps its lease and a hung
//! one loses it.
//!
//! A worker is stateless beyond the targets it has loaded and its VM
//! sessions: all scheduling, checkpointing, dedup, and event emission
//! live in the coordinator. Killing a worker at any point loses at most
//! its in-flight lease, which the coordinator reclaims and re-queues.

use crate::cache::{BinaryCache, CompiledTarget};
use crate::faults::{panic_message, FaultKind};
use crate::proto::{
    done_frame, failed_frame, frame_type, parse_config, read_frame, tagged, write_frame,
};
use crate::scheduler::{run_job, Job};
use crate::state::FailureKind;
use crate::{CampaignConfig, CampaignTelemetry, FaultPlan};
use compdiff::Json;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use targets::Target;
use telemetry::{MonotonicClock, NoopRecorder, Telemetry, TestClock};

/// How often a worker renews the lease it holds. The coordinator's
/// expiry timeout is sixty times longer.
const RENEW: Duration = Duration::from_millis(500);

/// What a worker runs jobs with: the campaign's own for a thread, the
/// process's own for a worker process.
pub(crate) struct WorkerEnv<'a> {
    pub(crate) cfg: &'a CampaignConfig,
    pub(crate) targets: &'a [Target],
    pub(crate) cache: &'a BinaryCache,
    pub(crate) ctel: &'a CampaignTelemetry,
}

/// How [`serve`] ended.
pub(crate) enum Exit {
    /// The coordinator said `shutdown`; the worker said `bye`.
    Shutdown,
    /// The coordinator closed this worker's channel.
    Closed,
    /// The fault plan's `die@` fired: the worker ends while it holds the
    /// lease, before any result.
    Died,
}

/// The targets one worker has loaded, in front of the shared cache. The
/// counts are per worker: a worker process compiles on every load,
/// while a worker thread looks the target up in the campaign's cache,
/// which compiles it once. Either way a transport reports the same
/// numbers for the same schedule.
#[derive(Default)]
struct Loaded {
    by_index: HashMap<usize, Arc<CompiledTarget>>,
    hits: u64,
    misses: u64,
    blocks: u64,
}

impl Loaded {
    fn get(
        &mut self,
        env: &WorkerEnv<'_>,
        target: &Target,
        job: Job,
    ) -> Result<Arc<CompiledTarget>, String> {
        if let Some(ct) = self.by_index.get(&job.target_index) {
            self.hits += 1;
            return Ok(Arc::clone(ct));
        }
        let cfg = env.cfg;
        let ct = env
            .cache
            .get_or_compile(
                target,
                &cfg.diff_config,
                cfg.fuzz_impl,
                cfg.fault_plan.as_deref(),
                job.attempt,
            )
            .map_err(|e| e.to_string())?;
        self.misses += 1;
        self.blocks += ct.block_count();
        self.by_index.insert(job.target_index, Arc::clone(&ct));
        Ok(ct)
    }
}

/// Runs one worker until the coordinator shuts it down or closes its
/// channel. `send` delivers a frame to the coordinator; `recv` takes the
/// next one from it (`None` once the channel is closed).
///
/// # Errors
///
/// Returns a message when `send` or `recv` fails or a frame is
/// malformed.
pub(crate) fn serve(
    env: &WorkerEnv<'_>,
    send: &(dyn Fn(Json) -> Result<(), String> + Sync),
    recv: impl FnMut() -> Result<Option<Json>, String>,
) -> Result<Exit, String> {
    // The lease currently held (0 = none), renewed until the loop ends.
    let held = &AtomicU64::new(0);
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(RENEW) {
                let lease = held.load(Ordering::Relaxed);
                if lease == 0 {
                    continue;
                }
                let renew = Json::obj(vec![
                    ("t", Json::Str("renew".to_string())),
                    ("lease", Json::Int(lease as i64)),
                ]);
                if send(renew).is_err() {
                    break;
                }
            }
        });
        let exit = run_leases(env, send, recv, held);
        drop(stop_tx);
        exit
    })
}

fn run_leases(
    env: &WorkerEnv<'_>,
    send: &(dyn Fn(Json) -> Result<(), String> + Sync),
    mut recv: impl FnMut() -> Result<Option<Json>, String>,
    held: &AtomicU64,
) -> Result<Exit, String> {
    let mut loaded = Loaded::default();
    send(tagged("lease_req"))?;
    loop {
        let Some(frame) = recv()? else {
            return Ok(Exit::Closed);
        };
        match frame_type(&frame) {
            Some("lease") => {
                let u = |k: &str| {
                    frame
                        .get(k)
                        .and_then(Json::as_u64)
                        .ok_or(format!("lease frame missing {k}"))
                };
                let lease = u("lease")?;
                let job = Job {
                    target_index: usize::try_from(u("target")?).map_err(|e| e.to_string())?,
                    shard: u32::try_from(u("shard")?).map_err(|e| e.to_string())?,
                    attempt: u32::try_from(u("attempt")?).map_err(|e| e.to_string())?,
                };
                let target = env
                    .targets
                    .get(job.target_index)
                    .ok_or(format!("lease names unknown target {}", job.target_index))?;
                if let Some(plan) = env.cfg.fault_plan.as_deref() {
                    if plan.fire_job(&target.spec.name, job.shard, job.attempt)
                        == Some(FaultKind::Die)
                    {
                        return Ok(Exit::Died);
                    }
                }
                held.store(lease, Ordering::Relaxed);
                let start_us = env.ctel.tel.now_micros();
                // The unwind boundary: a panic anywhere in the load or the
                // job (real or injected) resolves *this attempt*, not the
                // worker. Worker index 0 here; the coordinator stamps the
                // worker's logical index into the output.
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    let ct = loaded
                        .get(env, target, job)
                        .map_err(|e| (FailureKind::Compile, e))?;
                    run_job(&ct, env.cfg, job, 0, env.ctel)
                }));
                held.store(0, Ordering::Relaxed);
                let dur_us = env.ctel.tel.now_micros().saturating_sub(start_us);
                send(match attempt {
                    Ok(Ok(out)) => done_frame(lease, &out.record, out.dur_us, &out.vm),
                    Ok(Err((kind, message))) => failed_frame(lease, kind, &message, dur_us),
                    Err(payload) => failed_frame(
                        lease,
                        FailureKind::Panic,
                        &panic_message(payload.as_ref()),
                        dur_us,
                    ),
                })?;
            }
            Some("ack") => send(tagged("lease_req"))?,
            Some("shutdown") => {
                send(Json::obj(vec![
                    ("t", Json::Str("bye".to_string())),
                    ("cache_hits", Json::Int(loaded.hits as i64)),
                    ("cache_misses", Json::Int(loaded.misses as i64)),
                    ("blocks_translated", Json::Int(loaded.blocks as i64)),
                ]))?;
                return Ok(Exit::Shutdown);
            }
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
}

fn io_err(context: &str, e: std::io::Error) -> String {
    format!("worker {context}: {e}")
}

/// Runs one campaign worker process against the coordinator at `addr`
/// (`host:port`). Returns when the coordinator sends `shutdown`; exits
/// the process with status 137 when the fault plan's `die@` fires.
///
/// # Errors
///
/// Returns a message when the connection fails, a frame is malformed,
/// or the coordinator disappears mid-campaign.
pub fn run_worker(addr: &str) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| io_err("clone", e))?);
    let writer = Mutex::new(BufWriter::new(stream));
    let write = |frame: &Json| {
        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
        write_frame(&mut *w, frame).map_err(|e| io_err("send", e))
    };

    write(&Json::obj(vec![
        ("t", Json::Str("hello".to_string())),
        ("pid", Json::Int(i64::from(std::process::id()))),
    ]))?;
    let first = read_frame(&mut reader)
        .map_err(|e| io_err("read config", e))?
        .ok_or("coordinator closed before sending config")?;
    match frame_type(&first) {
        // A late joiner: the campaign already drained. Exit quietly.
        Some("shutdown") => return Ok(()),
        Some("config") => {}
        other => return Err(format!("expected config frame, got {other:?}")),
    }
    let (mut cfg, targets) = parse_config(&first)?;
    if let Some(spec) = &cfg.fault_plan_spec {
        cfg.fault_plan = Some(Arc::new(FaultPlan::parse(spec, cfg.seed)?));
    }

    // Worker telemetry: registry only (no recorder) — snapshots ride the
    // result and `bye` frames and the coordinator merges them. Under a
    // fixed clock every duration reads as zero, exactly like a worker
    // thread under the same clock.
    let tel = match cfg.fixed_clock_us {
        Some(t) => Telemetry::new(TestClock::fixed(t), NoopRecorder),
        None => Telemetry::new(MonotonicClock::new(), NoopRecorder),
    };
    let ctel = CampaignTelemetry::new(Arc::clone(&tel));
    let cache = BinaryCache::new();
    let env = WorkerEnv {
        cfg: &cfg,
        targets: &targets,
        cache: &cache,
        ctel: &ctel,
    };
    // Results and `bye` carry this process's registry snapshot.
    let send = |mut frame: Json| {
        if matches!(frame_type(&frame), Some("done" | "failed" | "bye")) {
            if let Json::Object(fields) = &mut frame {
                fields.push(("metrics".to_string(), tel.registry().snapshot()));
            }
        }
        write(&frame)
    };
    let recv = || read_frame(&mut reader).map_err(|e| io_err("read", e));
    match serve(&env, &send, recv)? {
        Exit::Shutdown => Ok(()),
        Exit::Closed => Err("coordinator closed the connection mid-campaign".to_string()),
        Exit::Died => std::process::exit(137),
    }
}

/// Queries a running coordinator's status endpoint at `addr` (the
/// address written via `--status-addr-out`) and returns the status
/// object: job progress, lease/worker counts, and the merged metric
/// snapshot.
///
/// # Errors
///
/// Returns a message when the connection or the reply fails.
pub fn query_status(addr: &str) -> Result<Json, String> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| io_err("clone", e))?);
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, &tagged("status")).map_err(|e| io_err("send", e))?;
    read_frame(&mut reader)
        .map_err(|e| io_err("read", e))?
        .ok_or_else(|| "coordinator closed without replying".to_string())
}
