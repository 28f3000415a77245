//! The campaign's one scheduler (DESIGN.md §8, §17).
//!
//! [`run`] owns everything a campaign must have exactly one of: the
//! shard queues and lease table, the checkpoint writer, the
//! campaign-wide signature dedup (via the shared [`ResultHandler`]), and
//! the metric registry the status endpoint and final snapshot read.
//! Workers own nothing durable. Every worker runs [`worker::serve`] and
//! trades the same [`crate::proto`] frames with one event loop, over one
//! of two transports:
//!
//! - **threads** (`workers`): scoped threads in this process, frames
//!   passed as values over `mpsc`, sharing the campaign's
//!   [`BinaryCache`], telemetry and fault plan by reference;
//! - **processes** (`workers_proc`): `compdiff campaign-worker`
//!   children, frames as JSON lines over a loopback TCP socket, each
//!   with its own cache and registry, whose snapshots are merged at the
//!   end.
//!
//! Determinism: shards are *partitioned* round-robin across the `n`
//! logical worker indexes (no stealing), each job's RNG seed depends
//! only on `(campaign seed, target, shard)`, retries re-queue at a
//! [`retry_backoff`] position, and events are buffered and re-sorted
//! into canonical [`crate::EventKey`] order before they hit the
//! recorder. A clean N-worker campaign is therefore byte-identical —
//! report and metrics stream — across runs and across transports.
//!
//! Fault tolerance: a worker that dies or whose channel is severed
//! mid-lease surfaces as `Gone` (EOF on its socket, or the thread's
//! exit); the coordinator reclaims the lease as a [`FailureKind::Lost`]
//! attempt (feeding the ordinary retry/quarantine policy) and starts a
//! replacement worker while its shard queue is non-empty. A worker that
//! stops renewing is reclaimed the same way after [`LEASE_TIMEOUT`].
//! Only the connection holding a lease may renew or resolve it; any
//! other sender is severed.

use crate::cache::BinaryCache;
use crate::proto::{
    config_frame, frame_type, lease_frame, read_frame, tagged, vm_from_json, write_frame,
};
use crate::scheduler::{retry_backoff, Decision, Job, JobFailure, JobOutput, JobResult};
use crate::state::{FailureKind, JobRecord};
use crate::telem::CampaignTelemetry;
use crate::worker::{self, WorkerEnv};
use crate::{
    build_telemetry, prepare, CampaignConfig, CampaignError, CampaignReport, Prepared,
    ResultHandler,
};
use compdiff::Json;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use targets::Target;
use telemetry::{MetricRegistry, Telemetry};

/// How often the main loop wakes with no traffic: lease-expiry scans and
/// child reaping run at this cadence.
const TICK: Duration = Duration::from_millis(200);

/// How long a lease survives without a renewal before it is reclaimed.
/// Workers renew every 500 ms, so only a hung worker gets here.
const LEASE_TIMEOUT: Duration = Duration::from_secs(30);

/// Replacement workers granted beyond the initial `n` before the
/// coordinator gives up (a crash-looping worker would otherwise respawn
/// forever).
const RESPAWN_SLACK: usize = 256;

/// The lost-lease failure message for a closed connection (worker death
/// or injected drop — indistinguishable to the coordinator, by design).
const MSG_CONN_LOST: &str = "worker lost mid-lease (connection closed)";

/// Locates the worker executable the coordinator spawns: the config's
/// `worker_exe` if set, else `$COMPDIFF_WORKER_EXE`, else the running
/// `compdiff` binary itself, else a `compdiff` next to (or one directory
/// above) the current executable — the latter finds `target/<profile>/
/// compdiff` from test and bench binaries in `target/<profile>/deps/`.
///
/// # Errors
///
/// [`CampaignError::Proto`] when no candidate exists.
pub fn resolve_worker_exe(cfg: &CampaignConfig) -> Result<PathBuf, CampaignError> {
    if let Some(exe) = &cfg.worker_exe {
        return Ok(exe.clone());
    }
    if let Ok(exe) = std::env::var("COMPDIFF_WORKER_EXE") {
        return Ok(PathBuf::from(exe));
    }
    let exe = std::env::current_exe()
        .map_err(|e| CampaignError::Proto(format!("cannot locate current executable: {e}")))?;
    if exe.file_stem().and_then(|s| s.to_str()) == Some("compdiff") {
        return Ok(exe);
    }
    if let Some(dir) = exe.parent() {
        let sibling = dir.join("compdiff");
        if sibling.is_file() {
            return Ok(sibling);
        }
        if let Some(up) = dir.parent() {
            let above = up.join("compdiff");
            if above.is_file() {
                return Ok(above);
            }
        }
    }
    Err(CampaignError::Proto(
        "cannot locate the compdiff worker executable; set CampaignConfig::worker_exe \
         or the COMPDIFF_WORKER_EXE environment variable"
            .to_string(),
    ))
}

/// What the transports deliver to the single-threaded main loop.
enum Ev {
    /// A worker process said hello; `out` feeds its writer thread and
    /// `sock` is a handle the coordinator can `shutdown()` to force the
    /// connection closed.
    Hello {
        conn: u64,
        out: mpsc::Sender<Json>,
        sock: TcpStream,
    },
    /// One frame from a worker.
    Frame { conn: u64, frame: Json },
    /// The worker is gone: its socket closed or its thread returned.
    Gone { conn: u64 },
    /// A status client wants the live progress object.
    Status { reply: mpsc::Sender<Json> },
}

/// Per-connection coordinator state.
struct ConnState {
    /// The logical worker index (deque) this worker serves.
    widx: usize,
    /// Frames to the worker; `None` once severed.
    out: Option<mpsc::Sender<Json>>,
    /// The socket of a worker process, for forcing it closed.
    sock: Option<TcpStream>,
    /// The lease this worker currently holds, if any.
    lease: Option<u64>,
    /// True if the worker asked for a lease while its deque was empty —
    /// a retry landing there re-grants immediately.
    parked: bool,
}

/// One outstanding lease.
struct LeaseInfo {
    job: Job,
    conn: u64,
    last_renew: Instant,
}

/// How the coordinator starts workers.
enum Spawner {
    /// Worker threads. New ones wait in `queued` until the event loop,
    /// which owns the thread scope, starts them.
    Threads {
        ev_tx: mpsc::Sender<Ev>,
        queued: Vec<(u64, mpsc::Receiver<Json>)>,
    },
    /// Worker processes, which connect back to `addr`.
    Procs {
        exe: PathBuf,
        addr: String,
        children: Vec<Child>,
    },
}

/// Reads one frame, forwards the stream to the main loop, and (for
/// worker connections) owns the writer thread. Runs on its own thread
/// per accepted connection.
fn serve_conn(stream: TcpStream, id: u64, ev_tx: &mpsc::Sender<Ev>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let Ok(Some(first)) = read_frame(&mut reader) else {
        return;
    };
    match frame_type(&first) {
        Some("status") => {
            let (tx, rx) = mpsc::channel();
            if ev_tx.send(Ev::Status { reply: tx }).is_err() {
                return;
            }
            if let Ok(reply) = rx.recv() {
                let mut w = BufWriter::new(stream);
                let _ = write_frame(&mut w, &reply);
            }
        }
        Some("hello") => {
            let Ok(sock) = stream.try_clone() else {
                return;
            };
            let (out_tx, out_rx) = mpsc::channel::<Json>();
            let writer = std::thread::spawn(move || {
                let mut w = BufWriter::new(stream);
                for frame in out_rx {
                    if write_frame(&mut w, &frame).is_err() {
                        break;
                    }
                }
            });
            if ev_tx
                .send(Ev::Hello {
                    conn: id,
                    out: out_tx,
                    sock,
                })
                .is_err()
            {
                return;
            }
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                if ev_tx.send(Ev::Frame { conn: id, frame }).is_err() {
                    break;
                }
            }
            let _ = ev_tx.send(Ev::Gone { conn: id });
            let _ = writer.join();
        }
        _ => {}
    }
}

/// The loopback listener worker processes and status clients connect
/// to, with its accept thread.
struct Listener {
    addr: String,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl Listener {
    fn bind(cfg: &CampaignConfig, ev_tx: &mpsc::Sender<Ev>) -> Result<Listener, CampaignError> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| CampaignError::Proto(format!("cannot bind coordinator socket: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| CampaignError::Proto(format!("cannot read coordinator address: {e}")))?
            .to_string();
        if let Some(path) = &cfg.status_addr_out {
            std::fs::write(path, format!("{addr}\n")).map_err(|e| {
                CampaignError::Proto(format!("cannot write status address file: {e}"))
            })?;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let ev_tx = ev_tx.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut next_id: u64 = 0;
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    next_id += 1;
                    let id = next_id;
                    let ev_tx = ev_tx.clone();
                    std::thread::spawn(move || serve_conn(stream, id, &ev_tx));
                }
            })
        };
        Ok(Listener { addr, stop, accept })
    }

    /// Stops accepting; the dummy connection unblocks the blocking
    /// accept.
    fn close(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr);
        let _ = self.accept.join();
    }
}

/// Runs one worker thread: [`worker::serve`] over `mpsc`, then `Gone`.
fn thread_worker(
    conn: u64,
    rx: mpsc::Receiver<Json>,
    ev_tx: mpsc::Sender<Ev>,
    env: &WorkerEnv<'_>,
) {
    /// Reports the worker gone however it ends, a panic included, so the
    /// coordinator never waits on a dead thread.
    struct Gone<'a>(&'a mpsc::Sender<Ev>, u64);
    impl Drop for Gone<'_> {
        fn drop(&mut self) {
            let _ = self.0.send(Ev::Gone { conn: self.1 });
        }
    }
    let _gone = Gone(&ev_tx, conn);
    let send = |frame: Json| {
        ev_tx
            .send(Ev::Frame { conn, frame })
            .map_err(|_| "coordinator gone".to_string())
    };
    // A thread that dies (`die@`) just returns; its `Gone` reclaims the
    // lease exactly as a dead process's EOF does.
    let _ = worker::serve(env, &send, || Ok(rx.recv().ok()));
}

/// The single-threaded campaign brain: every field that must exist
/// exactly once, mutated only from the event loop.
struct Coordinator<'a> {
    cfg: &'a CampaignConfig,
    tel: &'a Arc<Telemetry>,
    ctel: &'a CampaignTelemetry,
    selected: &'a [Target],
    handler: ResultHandler<'a>,
    /// Logical worker indexes (deque count) — *not* live worker count.
    n: usize,
    /// Per-index shard queues; index `i` gets jobs `i, i+n, i+2n, ...`.
    deques: Vec<VecDeque<Job>>,
    /// Jobs queued or leased but not yet resolved.
    outstanding: usize,
    conns: HashMap<u64, ConnState>,
    leases: HashMap<u64, LeaseInfo>,
    lease_seq: u64,
    /// Worker indexes with no live connection serving them.
    free_idx: BTreeSet<usize>,
    /// Queued jobs dropped by quarantine sweeps.
    swept: Vec<Job>,
    stopping: bool,
    finishing: bool,
    spawner: Spawner,
    /// Total workers ever started (respawn-cap accounting).
    spawned: usize,
    /// Processes spawned but not yet hello'd.
    pending_spawns: usize,
    /// Latest metric snapshot per worker process (a respawned process
    /// gets a fresh connection id, so dead workers' final snapshots
    /// survive).
    worker_metrics: HashMap<u64, Json>,
    /// Summed worker binary-cache (hits, misses) from `bye`.
    cache_sums: (u64, u64),
    /// Summed worker superblock counts from `bye`.
    blocks_sum: u64,
    /// First unrecoverable protocol error; aborts the event loop.
    fatal: Option<CampaignError>,
}

impl Coordinator<'_> {
    fn fail(&mut self, e: CampaignError) {
        self.fatal.get_or_insert(e);
    }

    fn send(&self, conn: u64, frame: Json) {
        if let Some(out) = self.conns.get(&conn).and_then(|c| c.out.as_ref()) {
            let _ = out.send(frame);
        }
    }

    /// Forces `conn` closed: a thread's channel closes, a process's
    /// socket shuts down. `Gone` follows once the worker notices.
    fn sever(&mut self, conn: u64) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.out = None;
            c.parked = false;
            if let Some(s) = &c.sock {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }

    fn broadcast_shutdown(&self) {
        for c in self.conns.values() {
            if let Some(out) = &c.out {
                let _ = out.send(tagged("shutdown"));
            }
        }
    }

    /// The free worker index most in need of a worker: longest deque,
    /// ties to the smallest index.
    fn pick_index(&self) -> Option<usize> {
        self.free_idx
            .iter()
            .copied()
            .max_by_key(|&i| (self.deques[i].len(), std::cmp::Reverse(i)))
    }

    /// Binds a new worker connection to the free index most in need.
    fn register(&mut self, conn: u64, out: mpsc::Sender<Json>, sock: Option<TcpStream>) {
        let Some(widx) = self.pick_index() else {
            let _ = out.send(tagged("shutdown"));
            return;
        };
        if sock.is_some() {
            let _ = out.send(config_frame(self.cfg, self.selected));
        }
        self.free_idx.remove(&widx);
        self.conns.insert(
            conn,
            ConnState {
                widx,
                out: Some(out),
                sock,
                lease: None,
                parked: false,
            },
        );
    }

    fn spawn_worker(&mut self) -> Result<(), CampaignError> {
        if self.spawned >= self.n + RESPAWN_SLACK {
            return Err(CampaignError::Proto(format!(
                "worker respawn cap exceeded ({} spawns for {} worker slots)",
                self.spawned, self.n
            )));
        }
        let conn = self.spawned as u64 + 1;
        let thread_tx = match &mut self.spawner {
            Spawner::Threads { queued, .. } => {
                let (tx, rx) = mpsc::channel();
                queued.push((conn, rx));
                Some(tx)
            }
            Spawner::Procs {
                exe,
                addr,
                children,
            } => {
                let child = Command::new(&*exe)
                    .args(["campaign-worker", "--connect", addr.as_str()])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .spawn()
                    .map_err(|e| {
                        CampaignError::Proto(format!(
                            "cannot spawn worker `{}`: {e}",
                            exe.display()
                        ))
                    })?;
                children.push(child);
                None
            }
        };
        self.spawned += 1;
        self.ctel.workers_spawned.inc();
        match thread_tx {
            // A thread needs no hello: it is bound at once.
            Some(tx) => self.register(conn, tx, None),
            None => self.pending_spawns += 1,
        }
        Ok(())
    }

    /// Starts workers until every free index with queued work has one on
    /// the way. The only respawn site, so a burst of lost leases cannot
    /// over-spawn.
    fn ensure_workers(&mut self) {
        if self.finishing || self.stopping || self.fatal.is_some() {
            return;
        }
        loop {
            let needy = self
                .free_idx
                .iter()
                .filter(|&&i| !self.deques[i].is_empty())
                .count();
            if self.pending_spawns >= needy {
                return;
            }
            if let Err(e) = self.spawn_worker() {
                self.fail(e);
                return;
            }
        }
    }

    /// Resolves `job` as a lost lease (worker death, dropped connection,
    /// or expiry) through the ordinary failure policy.
    fn lost(&mut self, widx: usize, job: Job, message: &str) {
        let decision = self.handler.on_result(JobResult::Failed(JobFailure {
            worker: widx,
            job,
            target: self.selected[job.target_index].spec.name.clone(),
            kind: FailureKind::Lost,
            message: message.to_string(),
            dur_us: 0,
        }));
        self.apply_decision(decision);
    }

    fn maybe_finish(&mut self) {
        if !self.finishing && !self.stopping && self.outstanding == 0 {
            self.finishing = true;
            self.broadcast_shutdown();
        }
    }

    fn apply_decision(&mut self, decision: Decision) {
        match decision {
            Decision::Continue => {
                self.outstanding -= 1;
                self.maybe_finish();
            }
            Decision::Retry(job) => {
                // The retry lands mid-deque at a position derived only
                // from the campaign seed and the job identity.
                let name = self.selected[job.target_index].spec.name.as_str();
                let back = retry_backoff(self.cfg.seed, name, job.shard, job.attempt);
                let d = (back % self.n as u64) as usize;
                let dq = &mut self.deques[d];
                let pos = ((back >> 32) as usize) % (dq.len() + 1);
                dq.insert(pos, job);
                let parked = self
                    .conns
                    .iter()
                    .find(|(_, c)| c.widx == d && c.parked)
                    .map(|(&id, _)| id);
                match parked {
                    Some(id) => self.try_grant(id),
                    None => self.ensure_workers(),
                }
            }
            Decision::Quarantine { target_index } => {
                self.outstanding -= 1;
                let mut removed = 0usize;
                let swept = &mut self.swept;
                for dq in &mut self.deques {
                    dq.retain(|j| {
                        let hit = j.target_index == target_index;
                        if hit {
                            swept.push(*j);
                            removed += 1;
                        }
                        !hit
                    });
                }
                self.outstanding -= removed;
                self.maybe_finish();
            }
            Decision::Stop => {
                self.stopping = true;
                self.broadcast_shutdown();
            }
        }
    }

    /// Answers a `lease_req`: pop the connection's own deque (no
    /// stealing — partitioning is what keeps N workers deterministic)
    /// or park the worker until a retry lands there.
    fn try_grant(&mut self, conn: u64) {
        if self.finishing || self.stopping {
            self.send(conn, tagged("shutdown"));
            return;
        }
        let (widx, job) = {
            let Some(c) = self.conns.get_mut(&conn) else {
                return;
            };
            match self.deques[c.widx].pop_front() {
                Some(job) => {
                    c.parked = false;
                    (c.widx, job)
                }
                None => {
                    c.parked = true;
                    return;
                }
            }
        };
        self.lease_seq += 1;
        let lease = self.lease_seq;
        self.ctel.leases_granted.inc();
        if self
            .cfg
            .fault_plan
            .as_deref()
            .is_some_and(|p| p.fire_conn(lease))
        {
            // Injected connection drop: sever instead of granting. The
            // popped job is immediately a lost lease; `Gone` follows and
            // starts a replacement for the queue.
            self.sever(conn);
            self.lost(widx, job, MSG_CONN_LOST);
            return;
        }
        self.leases.insert(
            lease,
            LeaseInfo {
                job,
                conn,
                last_renew: Instant::now(),
            },
        );
        if let Some(c) = self.conns.get_mut(&conn) {
            c.lease = Some(lease);
        }
        self.send(conn, lease_frame(lease, job));
    }

    /// Applies a `done`/`failed` frame: resolve the lease, feed the
    /// shared result handler, answer `ack`. Only the lease's holder may
    /// resolve it.
    fn handle_result(&mut self, conn: u64, frame: &Json) {
        let Some(lease) = frame.get("lease").and_then(Json::as_u64) else {
            self.fail(CampaignError::Proto(
                "result frame without a lease".to_string(),
            ));
            return;
        };
        match self.leases.get(&lease).map(|li| li.conn) {
            None => {
                // The lease was already reclaimed (expired or severed);
                // the job re-ran elsewhere. First resolution won.
                self.ctel.stale_results.inc();
                self.send(conn, tagged("ack"));
                return;
            }
            Some(holder) if holder != conn => {
                // Another worker's lease: sever the sender. Its own lease
                // is reclaimed when it is gone; the holder's is untouched.
                self.sever(conn);
                return;
            }
            Some(_) => {}
        }
        let (Some(li), Some(c)) = (self.leases.remove(&lease), self.conns.get_mut(&conn)) else {
            return;
        };
        c.lease = None;
        let widx = c.widx;
        if self.stopping {
            // A stopped campaign drops in-flight results, but the worker
            // is still acked so it reaches its shutdown cleanly.
            self.send(conn, tagged("ack"));
            return;
        }
        let result = if frame_type(frame) == Some("done") {
            let record = frame
                .get("record")
                .ok_or_else(|| "done frame without a record".to_string())
                .and_then(JobRecord::from_json);
            match record {
                Ok(record) => JobResult::Done(JobOutput {
                    worker: widx,
                    record,
                    dur_us: frame.get("dur_us").and_then(Json::as_u64).unwrap_or(0),
                    vm: frame.get("vm").map(vm_from_json).unwrap_or_default(),
                }),
                Err(e) => {
                    self.fail(CampaignError::Proto(format!("bad done frame: {e}")));
                    return;
                }
            }
        } else {
            let kind = frame
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| "failed frame without a kind".to_string())
                .and_then(FailureKind::parse);
            match kind {
                Ok(kind) => JobResult::Failed(JobFailure {
                    worker: widx,
                    job: li.job,
                    target: self.selected[li.job.target_index].spec.name.clone(),
                    kind,
                    message: frame
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    dur_us: frame.get("dur_us").and_then(Json::as_u64).unwrap_or(0),
                }),
                Err(e) => {
                    self.fail(CampaignError::Proto(format!("bad failed frame: {e}")));
                    return;
                }
            }
        };
        let decision = self.handler.on_result(result);
        self.apply_decision(decision);
        self.send(conn, tagged("ack"));
    }

    fn handle_frame(&mut self, conn: u64, frame: &Json) {
        if let Some(m) = frame.get("metrics") {
            self.worker_metrics.insert(conn, m.clone());
        }
        let Some(c) = self.conns.get(&conn) else {
            return;
        };
        if c.out.is_none() {
            // Severed: nothing it says counts any more.
            if matches!(frame_type(frame), Some("done" | "failed")) {
                self.ctel.stale_results.inc();
            }
            return;
        }
        match frame_type(frame) {
            Some("lease_req") => self.try_grant(conn),
            Some("renew") => {
                let lease = frame.get("lease").and_then(Json::as_u64);
                match lease.and_then(|l| self.leases.get_mut(&l)) {
                    Some(li) if li.conn == conn => li.last_renew = Instant::now(),
                    Some(_) => self.sever(conn),
                    None => {}
                }
            }
            Some("done" | "failed") => self.handle_result(conn, frame),
            Some("bye") => {
                let u = |k: &str| frame.get(k).and_then(Json::as_u64).unwrap_or(0);
                self.cache_sums.0 += u("cache_hits");
                self.cache_sums.1 += u("cache_misses");
                self.blocks_sum += u("blocks_translated");
            }
            _ => {}
        }
    }

    fn handle_gone(&mut self, conn: u64) {
        let Some(c) = self.conns.remove(&conn) else {
            return;
        };
        self.free_idx.insert(c.widx);
        if let Some(lease) = c.lease {
            if let Some(li) = self.leases.remove(&lease) {
                if !self.stopping {
                    self.lost(c.widx, li.job, MSG_CONN_LOST);
                }
            }
        }
        self.ensure_workers();
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Hello { conn, out, sock } => {
                if self.finishing || self.stopping {
                    // A straggler connecting after the campaign drained:
                    // shut it down without tracking it.
                    let _ = out.send(tagged("shutdown"));
                    return;
                }
                self.pending_spawns = self.pending_spawns.saturating_sub(1);
                self.register(conn, out, Some(sock));
            }
            Ev::Frame { conn, frame } => self.handle_frame(conn, &frame),
            Ev::Gone { conn } => self.handle_gone(conn),
            Ev::Status { reply } => {
                let _ = reply.send(self.status());
            }
        }
    }

    /// Reclaims leases whose workers stopped renewing. Wall-clock by
    /// necessity (a hung worker is a wall-clock phenomenon).
    fn expire_leases(&mut self) {
        let expired: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, li)| li.last_renew.elapsed() >= LEASE_TIMEOUT)
            .map(|(&l, _)| l)
            .collect();
        for l in expired {
            let Some(li) = self.leases.remove(&l) else {
                continue;
            };
            self.ctel.leases_expired.inc();
            let widx = self.conns.get(&li.conn).map_or(0, |c| c.widx);
            if let Some(c) = self.conns.get_mut(&li.conn) {
                c.lease = None;
            }
            // Sever: a late result from the hung worker must not race
            // the re-run (and would be dropped as stale anyway).
            self.sever(li.conn);
            if !self.stopping {
                self.lost(widx, li.job, "lease expired without renewal");
            }
        }
    }

    /// Reaps exited worker processes (avoids zombie accumulation during
    /// long campaigns with respawns).
    fn reap(&mut self) {
        if let Spawner::Procs { children, .. } = &mut self.spawner {
            children.retain_mut(|child| !matches!(child.try_wait(), Ok(Some(_))));
        }
    }

    /// The live status object: progress counters plus a merged metric
    /// snapshot (coordinator registry + every worker's latest snapshot).
    fn status(&self) -> Json {
        let reg = MetricRegistry::new();
        reg.merge_snapshot(&self.tel.registry().snapshot());
        for m in self.worker_metrics.values() {
            reg.merge_snapshot(m);
        }
        let st = &self.handler.stats;
        Json::obj(vec![
            ("t", Json::Str("status".to_string())),
            ("jobs_total", Json::Int(st.jobs_total as i64)),
            ("jobs_done", Json::Int(st.jobs_done as i64)),
            ("jobs_failed", Json::Int(st.jobs_failed as i64)),
            ("execs", Json::Int(st.execs as i64)),
            ("divergent", Json::Int(st.divergent as i64)),
            ("signatures", Json::Int(st.signatures.len() as i64)),
            ("failures", Json::Int(st.failures as i64)),
            ("workers", Json::Int(self.conns.len() as i64)),
            ("leases_active", Json::Int(self.leases.len() as i64)),
            ("outstanding", Json::Int(self.outstanding as i64)),
            ("metrics", reg.snapshot()),
        ])
    }
}

/// Runs the campaign: `cfg.workers_proc` worker processes when set,
/// else `cfg.workers` worker threads. Partial results instead of
/// aborts; the same report and stream either way.
pub(crate) fn run(cfg: &CampaignConfig) -> Result<CampaignReport, CampaignError> {
    let n = cfg.workers_proc.unwrap_or(cfg.workers).max(1);
    let started = Instant::now();
    let tel = build_telemetry(cfg)?;
    let started_us = tel.now_micros();
    let ctel = CampaignTelemetry::new(Arc::clone(&tel));
    let Prepared {
        selected,
        pending,
        state,
        stats,
        ledger,
        policy,
    } = prepare(cfg, &tel, &ctel, n)?;
    let mut handler = ResultHandler::new(cfg, &tel, &ctel, &selected, state, stats, ledger, policy);
    handler.started = started;

    let (ev_tx, ev_rx) = mpsc::channel::<Ev>();
    let (spawner, listener) = match cfg.workers_proc {
        None => (
            Spawner::Threads {
                ev_tx,
                queued: Vec::new(),
            },
            None,
        ),
        Some(_) => {
            let exe = resolve_worker_exe(cfg)?;
            let listener = Listener::bind(cfg, &ev_tx)?;
            let spawner = Spawner::Procs {
                exe,
                addr: listener.addr.clone(),
                children: Vec::new(),
            };
            (spawner, Some(listener))
        }
    };

    let mut deques: Vec<VecDeque<Job>> = (0..n).map(|_| VecDeque::new()).collect();
    for (i, &job) in pending.iter().enumerate() {
        deques[i % n].push_back(job);
    }
    let mut co = Coordinator {
        cfg,
        tel: &tel,
        ctel: &ctel,
        selected: &selected,
        handler,
        n,
        outstanding: pending.len(),
        deques,
        conns: HashMap::new(),
        leases: HashMap::new(),
        lease_seq: 0,
        free_idx: (0..n).collect(),
        swept: Vec::new(),
        stopping: false,
        finishing: false,
        spawner,
        spawned: 0,
        pending_spawns: 0,
        worker_metrics: HashMap::new(),
        cache_sums: (0, 0),
        blocks_sum: 0,
        fatal: None,
    };
    if co.outstanding == 0 {
        // Everything was replayed from the checkpoint; no workers needed.
        co.finishing = true;
    } else {
        for _ in 0..n {
            if let Err(e) = co.spawn_worker() {
                co.fail(e);
                break;
            }
        }
    }

    let cache = BinaryCache::new();
    let env = WorkerEnv {
        cfg,
        targets: &selected,
        cache: &cache,
        ctel: &ctel,
    };
    let env = &env;
    std::thread::scope(|scope| {
        loop {
            if let Spawner::Threads { ev_tx, queued } = &mut co.spawner {
                for (conn, rx) in queued.drain(..) {
                    let ev_tx = ev_tx.clone();
                    scope.spawn(move || thread_worker(conn, rx, ev_tx, env));
                }
            }
            if co.fatal.is_some() || ((co.finishing || co.stopping) && co.conns.is_empty()) {
                break;
            }
            match ev_rx.recv_timeout(TICK) {
                Ok(ev) => co.handle(ev),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    co.expire_leases();
                    co.reap();
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        // Close every channel still open (after a fatal error) so the
        // scope's threads can return.
        co.conns.clear();
    });

    let Coordinator {
        handler,
        spawner,
        swept,
        worker_metrics,
        cache_sums,
        blocks_sum,
        fatal,
        ..
    } = co;
    if let Some(listener) = listener {
        listener.close();
    }
    if let Spawner::Procs { children, .. } = spawner {
        let deadline = Instant::now() + Duration::from_secs(10);
        for mut child in children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) => {
                        if Instant::now() >= deadline {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
        }
    }
    if let Some(e) = fatal {
        return Err(e);
    }

    // Fold every worker process's final metric snapshot into the campaign
    // registry (commutative merges — HashMap order does not matter), so
    // the final snapshot reads identically to a thread campaign's.
    for m in worker_metrics.values() {
        tel.registry().merge_snapshot(m);
    }
    Ok(handler.finalize(&swept, &selected, cache_sums, blocks_sum, started_us))
}
