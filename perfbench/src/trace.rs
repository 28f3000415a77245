//! In-memory span recording for the traced replay.
//!
//! A [`Tracer`] belongs to one thread. Spans nest on a stack; each span
//! names the per-layer metric its *self time* is charged to. Hot paths
//! (one VM run, one coverage-map reset) are too short to be spans of
//! their own, so the code around them sums their durations and *carves*
//! the sum out of the enclosing span when it closes: the carved time is
//! charged to its own metric and removed from the span's self time.
//!
//! Nothing is written while the benchmark runs; [`write_jsonl`] dumps every
//! span when the run ends.

use compdiff::{DiffObserver, Json};
use minc_vm::ExecResult;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// The per-layer metric charged with this span's self time. Root spans
    /// (no parent) are charged to [`UNATTRIBUTED`] instead.
    pub name: &'static str,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Durations summed inside this span without spans of their own.
    pub carved: Vec<(&'static str, u64)>,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The metric that collects root self time: work no layer span covers.
pub const UNATTRIBUTED: &str = "unattributed_s";

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch` (shared by every
    /// thread of one round, so spans line up across threads).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        ns_since(self.epoch)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
            carved: Vec::new(),
        });
        self.open.push(idx);
        idx
    }

    /// Charges `ns` of the open span `idx` to `metric` instead of the
    /// span's own metric.
    pub fn carve(&mut self, idx: usize, metric: &'static str, ns: u64) {
        let carved = &mut self.spans[idx].carved;
        match carved.iter_mut().find(|(m, _)| *m == metric) {
            Some((_, sum)) => *sum += ns,
            None => carved.push((metric, ns)),
        }
    }

    /// Closes span `idx`, which must be the innermost open span.
    pub fn exit(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans close in LIFO order");
        self.spans[idx].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.enter(name);
        let out = f(self);
        self.exit(idx);
        out
    }

    /// The recorded spans; every span must be closed.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed spans at finish");
        self.spans
    }
}

/// Nanoseconds elapsed since `epoch`.
pub fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sums differential-run time and counts at the `DiffObserver` seam: one
/// clock read per run, no span.
#[derive(Debug, Default)]
pub struct DiffClock {
    begin: Option<Instant>,
    /// Time inside binary runs, ns.
    pub exec_ns: u64,
    /// Binary runs, escalation re-runs included.
    pub runs: u64,
    /// Timeout-escalation re-runs.
    pub reruns: u64,
    /// Inputs swept in batches.
    pub inputs: u64,
    /// Batch inputs bisected after a digest disagreement.
    pub bisections: u64,
}

impl DiffObserver for DiffClock {
    fn exec_begin(&mut self, _impl_idx: usize, round: u32) {
        if round > 0 {
            self.reruns += 1;
        }
        self.begin = Some(Instant::now());
    }

    fn exec_end(&mut self, _impl_idx: usize, _result: &ExecResult, _round: u32) {
        if let Some(t0) = self.begin.take() {
            self.exec_ns += ns_since(t0);
        }
        self.runs += 1;
    }

    fn batch(&mut self, size: usize, bisections: usize) {
        self.inputs += size as u64;
        self.bisections += bisections as u64;
    }
}

/// Per-metric time of one traced round.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    /// Seconds per layer metric: span self time plus carved time. Includes
    /// [`UNATTRIBUTED`].
    pub seconds: BTreeMap<&'static str, f64>,
    /// Summed duration of every root span (the traced round's busy time
    /// across its threads), in seconds.
    pub root_s: f64,
}

impl Accounting {
    /// Seconds charged to `metric` (0 when nothing was).
    pub fn get(&self, metric: &str) -> f64 {
        self.seconds.get(metric).copied().unwrap_or(0.0)
    }

    /// Root self time as a share of the round's busy time.
    pub fn unattributed_share(&self) -> f64 {
        if self.root_s > 0.0 {
            self.get(UNATTRIBUTED) / self.root_s
        } else {
            0.0
        }
    }
}

/// Splits every thread's spans into per-metric self time.
pub fn account(threads: &[Vec<Span>]) -> Accounting {
    let mut acc = Accounting::default();
    let mut add = |m: &'static str, ns: u64| {
        *acc.seconds.entry(m).or_insert(0.0) += ns as f64 / 1e9;
    };
    let mut root_ns = 0u64;
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        for (s, children) in spans.iter().zip(child_ns) {
            let carved: u64 = s.carved.iter().map(|(_, ns)| ns).sum();
            let self_ns = s.dur_ns().saturating_sub(children + carved);
            match s.parent {
                None => {
                    root_ns += s.dur_ns();
                    add(UNATTRIBUTED, self_ns);
                }
                Some(_) => add(s.name, self_ns),
            }
            for &(m, ns) in &s.carved {
                add(m, ns);
            }
        }
    }
    acc.root_s = root_ns as f64 / 1e9;
    acc
}

/// Inclusive durations (ns) of every span named `name`.
pub fn durations(threads: &[Vec<Span>], name: &str) -> Vec<u64> {
    threads
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Writes every span as one JSON object per line: round, thread, index,
/// parent, name, start/end ns and carved sums.
///
/// # Errors
///
/// Returns the I/O error from creating or writing the file.
pub fn write_jsonl(path: &Path, rounds: &[Vec<Vec<Span>>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (r, threads) in rounds.iter().enumerate() {
        for (t, spans) in threads.iter().enumerate() {
            for (i, s) in spans.iter().enumerate() {
                let carved = Json::Object(
                    s.carved
                        .iter()
                        .map(|(m, ns)| ((*m).to_string(), Json::Int(*ns as i64)))
                        .collect(),
                );
                let line = Json::obj(vec![
                    ("round", Json::Int(r as i64)),
                    ("thread", Json::Int(t as i64)),
                    ("id", Json::Int(i as i64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                    ("carved", carved),
                ]);
                writeln!(out, "{}", line.render())?;
            }
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            carved: Vec::new(),
        }
    }

    #[test]
    fn self_time_excludes_children_and_carved_time() {
        let mut child = span("b", Some(0), 10, 40);
        child.carved.push(("c", 5));
        let threads = vec![vec![span("root", None, 0, 100), child]];
        let acc = account(&threads);
        assert_eq!(acc.get(UNATTRIBUTED), 70e-9);
        assert_eq!(acc.get("b"), 25e-9);
        assert_eq!(acc.get("c"), 5e-9);
        assert_eq!(acc.root_s, 100e-9);
    }
}
