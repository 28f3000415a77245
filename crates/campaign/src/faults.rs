//! Deterministic fault injection: the campaign's chaos harness.
//!
//! Long differential campaigns die to worker panics, torn checkpoints,
//! and flaky I/O. The recovery paths for those failures are exactly the
//! code that never runs in a clean test suite, so this module makes the
//! failures *schedulable*: a [`FaultPlan`] names concrete injection
//! points (a job attempt, a compile, a checkpoint append, a lease
//! grant) and the worker loop, binary cache, checkpoint writer and
//! coordinator consult it at each point. The default (`None` plan) is a single `Option` check — no
//! fault machinery runs in production campaigns.
//!
//! Determinism is the design constraint: every firing decision is a pure
//! function of the site identity (target, shard, attempt number, append
//! sequence) and the campaign seed — never of wall-clock time or thread
//! timing — so the same seed plus the same plan replays the same
//! failures, and a killed campaign resumed under the same plan walks the
//! same recovery path. (The one exception: `checkpoint:any` rules with a
//! finite count keep a process-local budget, and append sequence numbers
//! count attempts in the current process; plans meant to survive
//! kill/resume should use attempt-scoped job rules or indexed checkpoint
//! rules that fire before the kill point.)
//!
//! # Plan grammar
//!
//! A plan is a comma-separated list of rules, each `kind@site[*count]`:
//!
//! ```text
//! panic@tcpdump#1          panic on the first attempt of job tcpdump#1
//! panic@tcpdump#any*2      panic on attempts 1-2 of every tcpdump shard
//! panic@any#any*inf        every job attempt panics
//! panic@seeded#7*inf       panic on jobs whose seed is divisible by 7
//! io@jq#0                  job jq#0 fails with a (non-panic) I/O error
//! panic@compile:mujs       the mujs compile panics (first attempt only)
//! fail@compile:jq*inf      every jq compile returns an error
//! io@checkpoint:3          the 3rd checkpoint append fails
//! io@checkpoint:any*inf    every checkpoint append fails
//! die@tcpdump#0            the worker running tcpdump#0 ends mid-lease
//! drop@conn:1              the coordinator severs the 1st lease grant
//! drop@conn:any*2          ...the first 2 grants
//! ```
//!
//! Kinds: `panic` (job or compile sites), `io` (job or checkpoint
//! sites), `fail` (compile sites), `die` (job sites; the worker ends
//! while it holds the lease — a process exits 137, a thread returns),
//! `drop` (conn sites; the coordinator closes the worker's channel —
//! socket or `mpsc` — instead of delivering a lease grant). `*count` bounds the attempt
//! number a rule still fires at (`*inf` = every attempt); the default is
//! 1, i.e. "fail once, let the retry succeed". For `conn:any` rules the
//! count is a firing budget over grant sequence numbers, like
//! `checkpoint:any`. Target names are not validated against the catalog
//! — an unknown name simply never matches.

use crate::scheduler::job_seed;
use std::sync::atomic::{AtomicU64, Ordering};

/// What an injection point does when its rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Unwind with a panic (exercises `catch_unwind` isolation).
    Panic,
    /// Fail with a synthetic I/O error (no unwinding).
    Io,
    /// A compile returns an error instead of a binary.
    CompileFail,
    /// The worker ends while it holds the lease: a process exits 137, a
    /// thread returns.
    Die,
    /// The coordinator severs the worker's channel instead of delivering
    /// a lease grant.
    Drop,
}

/// Where a rule applies.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Site {
    /// A (target × shard) job attempt; `None` is a wildcard.
    Job {
        target: Option<String>,
        shard: Option<u32>,
    },
    /// Jobs whose [`job_seed`] is divisible by `modulus` — a
    /// campaign-seed-dependent pseudo-random selection.
    Seeded { modulus: u64 },
    /// A target's compilation in the binary cache.
    Compile { target: Option<String> },
    /// A checkpoint append; `None` is a wildcard over sequence numbers.
    Checkpoint { index: Option<u64> },
    /// A coordinator→worker lease grant, by grant sequence number;
    /// `None` is a wildcard.
    Conn { index: Option<u64> },
}

/// One `kind@site*count` rule.
#[derive(Debug)]
struct Rule {
    kind: FaultKind,
    site: Site,
    /// Highest attempt number this rule still fires at (`None` = every
    /// attempt). For `checkpoint:any` rules this is a firing budget.
    count: Option<u64>,
    /// Firings consumed so far — only consulted by `checkpoint:any`
    /// rules, whose "attempts" have no stable cross-process identity.
    spent: AtomicU64,
}

/// A parsed, shareable fault plan. See the module docs for the grammar.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// Parses `spec` into a plan. `seed` is the campaign seed; it drives
    /// `seeded#k` site matching so the selected jobs vary with the
    /// campaign, not with the plan text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending rule on any syntax error
    /// or invalid kind/site combination.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            rules.push(parse_rule(raw)?);
        }
        if rules.is_empty() {
            return Err("empty fault plan".to_string());
        }
        Ok(FaultPlan { seed, rules })
    }

    /// Consults job-site rules for `target`/`shard` at `attempt`
    /// (1-based). Returns the first matching rule's kind.
    pub fn fire_job(&self, target: &str, shard: u32, attempt: u32) -> Option<FaultKind> {
        self.rules.iter().find_map(|r| {
            let site_hit = match &r.site {
                Site::Job {
                    target: t,
                    shard: s,
                } => t.as_deref().is_none_or(|t| t == target) && s.is_none_or(|s| s == shard),
                Site::Seeded { modulus } => {
                    job_seed(self.seed, target, shard).is_multiple_of(*modulus)
                }
                _ => return None,
            };
            (site_hit && r.count.is_none_or(|c| u64::from(attempt) <= c)).then_some(r.kind)
        })
    }

    /// Consults compile-site rules for `target`; `attempt` is the job
    /// attempt the compile serves (compiles are retried with their job).
    pub fn fire_compile(&self, target: &str, attempt: u32) -> Option<FaultKind> {
        self.rules.iter().find_map(|r| {
            let Site::Compile { target: t } = &r.site else {
                return None;
            };
            (t.as_deref().is_none_or(|t| t == target)
                && r.count.is_none_or(|c| u64::from(attempt) <= c))
            .then_some(r.kind)
        })
    }

    /// Consults checkpoint-site rules for append attempt `seq` (1-based,
    /// counting every append attempt the writer makes). Returns true if
    /// the append should fail with an injected I/O error.
    pub fn fire_checkpoint(&self, seq: u64) -> bool {
        self.rules.iter().any(|r| {
            let Site::Checkpoint { index } = &r.site else {
                return false;
            };
            match index {
                Some(i) => *i == seq,
                None => match r.count {
                    None => true,
                    Some(budget) => r.spent.fetch_add(1, Ordering::Relaxed) < budget,
                },
            }
        })
    }

    /// Consults conn-site rules for lease grant `seq` (1-based, counting
    /// every grant the coordinator makes). Returns true if the
    /// coordinator should sever the connection instead of delivering the
    /// grant. Same budget semantics as [`Self::fire_checkpoint`]:
    /// `conn:any*N` keeps a process-local firing budget.
    pub fn fire_conn(&self, seq: u64) -> bool {
        self.rules.iter().any(|r| {
            let Site::Conn { index } = &r.site else {
                return false;
            };
            match index {
                Some(i) => *i == seq,
                None => match r.count {
                    None => true,
                    Some(budget) => r.spent.fetch_add(1, Ordering::Relaxed) < budget,
                },
            }
        })
    }
}

fn parse_rule(raw: &str) -> Result<Rule, String> {
    let (kind_str, rest) = raw
        .split_once('@')
        .ok_or_else(|| format!("bad fault rule `{raw}`: expected kind@site"))?;
    let kind = match kind_str {
        "panic" => FaultKind::Panic,
        "io" => FaultKind::Io,
        "fail" => FaultKind::CompileFail,
        "die" => FaultKind::Die,
        "drop" => FaultKind::Drop,
        other => return Err(format!("bad fault kind `{other}` in `{raw}`")),
    };
    let (site_str, count) = match rest.rsplit_once('*') {
        Some((site, "inf")) => (site, None),
        Some((site, n)) => (
            site,
            Some(
                n.parse::<u64>()
                    .map_err(|_| format!("bad fault count `{n}` in `{raw}`"))?,
            ),
        ),
        None => (rest, Some(1)),
    };
    let site = parse_site(site_str, raw)?;
    let valid = matches!(
        (kind, &site),
        (
            FaultKind::Panic,
            Site::Job { .. } | Site::Seeded { .. } | Site::Compile { .. }
        ) | (
            FaultKind::Io,
            Site::Job { .. } | Site::Seeded { .. } | Site::Checkpoint { .. }
        ) | (FaultKind::CompileFail, Site::Compile { .. })
            | (FaultKind::Die, Site::Job { .. } | Site::Seeded { .. })
            | (FaultKind::Drop, Site::Conn { .. })
    );
    if !valid {
        return Err(format!(
            "fault kind `{kind_str}` cannot target site `{site_str}` in `{raw}`"
        ));
    }
    Ok(Rule {
        kind,
        site,
        count,
        spent: AtomicU64::new(0),
    })
}

fn parse_site(site: &str, raw: &str) -> Result<Site, String> {
    if let Some(rest) = site.strip_prefix("compile:") {
        return Ok(Site::Compile {
            target: wildcard(rest).map(str::to_string),
        });
    }
    if let Some(rest) = site.strip_prefix("checkpoint:") {
        let index = match wildcard(rest) {
            None => None,
            Some(n) => Some(
                n.parse::<u64>()
                    .map_err(|_| format!("bad checkpoint index `{n}` in `{raw}`"))?,
            ),
        };
        return Ok(Site::Checkpoint { index });
    }
    if let Some(rest) = site.strip_prefix("conn:") {
        let index = match wildcard(rest) {
            None => None,
            Some(n) => Some(
                n.parse::<u64>()
                    .map_err(|_| format!("bad conn index `{n}` in `{raw}`"))?,
            ),
        };
        return Ok(Site::Conn { index });
    }
    if let Some(rest) = site.strip_prefix("seeded#") {
        let modulus = rest
            .parse::<u64>()
            .map_err(|_| format!("bad seeded modulus `{rest}` in `{raw}`"))?;
        if modulus == 0 {
            return Err(format!("seeded modulus must be nonzero in `{raw}`"));
        }
        return Ok(Site::Seeded { modulus });
    }
    let (target, shard) = site
        .split_once('#')
        .ok_or_else(|| format!("bad fault site `{site}` in `{raw}`"))?;
    let shard = match wildcard(shard) {
        None => None,
        Some(s) => Some(
            s.parse::<u32>()
                .map_err(|_| format!("bad shard `{s}` in `{raw}`"))?,
        ),
    };
    Ok(Site::Job {
        target: wildcard(target).map(str::to_string),
        shard,
    })
}

fn wildcard(s: &str) -> Option<&str> {
    (s != "any").then_some(s)
}

/// Renders a caught panic payload as text (panics carry `&str` or
/// `String` payloads in practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    // test-only: unwraps in this module assert test invariants.
    use super::*;

    #[test]
    fn job_rules_scope_by_attempt() {
        let p = FaultPlan::parse("panic@tcpdump#1*2", 9).unwrap();
        assert_eq!(p.fire_job("tcpdump", 1, 1), Some(FaultKind::Panic));
        assert_eq!(p.fire_job("tcpdump", 1, 2), Some(FaultKind::Panic));
        assert_eq!(p.fire_job("tcpdump", 1, 3), None, "retry 3 must succeed");
        assert_eq!(p.fire_job("tcpdump", 0, 1), None, "other shard");
        assert_eq!(p.fire_job("jq", 1, 1), None, "other target");
    }

    #[test]
    fn wildcards_and_io_kind() {
        let p = FaultPlan::parse("io@any#any*inf", 9).unwrap();
        assert_eq!(p.fire_job("x", 0, 1), Some(FaultKind::Io));
        assert_eq!(p.fire_job("y", 9, 40), Some(FaultKind::Io));

        let p = FaultPlan::parse("panic@tcpdump#any", 9).unwrap();
        assert_eq!(p.fire_job("tcpdump", 3, 1), Some(FaultKind::Panic));
        assert_eq!(p.fire_job("tcpdump", 3, 2), None, "default count is 1");
    }

    #[test]
    fn seeded_site_depends_on_campaign_seed() {
        let p = FaultPlan::parse("panic@seeded#3*inf", 1).unwrap();
        let fired: Vec<bool> = (0..32)
            .map(|s| p.fire_job("tcpdump", s, 1).is_some())
            .collect();
        assert!(fired.iter().any(|&b| b), "some shard must fire");
        assert!(!fired.iter().all(|&b| b), "not every shard fires");
        // A different campaign seed selects a different shard subset.
        let q = FaultPlan::parse("panic@seeded#3*inf", 2).unwrap();
        let fired_q: Vec<bool> = (0..32)
            .map(|s| q.fire_job("tcpdump", s, 1).is_some())
            .collect();
        assert_ne!(fired, fired_q);
    }

    #[test]
    fn compile_and_checkpoint_sites() {
        let p = FaultPlan::parse("fail@compile:jq*inf,panic@compile:mujs", 9).unwrap();
        assert_eq!(p.fire_compile("jq", 5), Some(FaultKind::CompileFail));
        assert_eq!(p.fire_compile("mujs", 1), Some(FaultKind::Panic));
        assert_eq!(p.fire_compile("mujs", 2), None);
        assert_eq!(p.fire_compile("tcpdump", 1), None);

        let p = FaultPlan::parse("io@checkpoint:3", 9).unwrap();
        assert!(!p.fire_checkpoint(2));
        assert!(p.fire_checkpoint(3));
        assert!(!p.fire_checkpoint(4));

        let p = FaultPlan::parse("io@checkpoint:any*2", 9).unwrap();
        assert!(p.fire_checkpoint(1));
        assert!(p.fire_checkpoint(7), "index is irrelevant for `any`");
        assert!(!p.fire_checkpoint(8), "budget of 2 exhausted");
    }

    #[test]
    fn conn_sites_fire_by_grant_sequence() {
        let p = FaultPlan::parse("drop@conn:2", 9).unwrap();
        assert!(!p.fire_conn(1));
        assert!(p.fire_conn(2));
        assert!(!p.fire_conn(3));

        let p = FaultPlan::parse("drop@conn:any*2", 9).unwrap();
        assert!(p.fire_conn(1));
        assert!(p.fire_conn(5), "index is irrelevant for `any`");
        assert!(!p.fire_conn(6), "budget of 2 exhausted");

        // die@ is a job-site kind and flows through fire_job like any
        // other; the worker loop ends the worker when it fires.
        let p = FaultPlan::parse("die@tcpdump#0", 9).unwrap();
        assert_eq!(p.fire_job("tcpdump", 0, 1), Some(FaultKind::Die));
        assert_eq!(p.fire_job("tcpdump", 0, 2), None, "default count is 1");
        assert!(!p.fire_conn(1), "no conn rule in the plan");
    }

    #[test]
    fn invalid_specs_are_rejected() {
        for bad in [
            "",
            "panic",
            "zap@tcpdump#1",
            "panic@checkpoint:1",
            "fail@tcpdump#1",
            "io@compile:jq",
            "panic@tcpdump#x",
            "panic@tcpdump#1*many",
            "panic@seeded#0",
            "io@checkpoint:x",
            "panic@conn:1",
            "drop@tcpdump#0",
            "die@checkpoint:1",
            "drop@conn:x",
        ] {
            assert!(
                FaultPlan::parse(bad, 0).is_err(),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(s.as_ref()), "boom");
        let s: Box<dyn std::any::Any + Send> = Box::new("grown".to_string());
        assert_eq!(panic_message(s.as_ref()), "grown");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u8);
        assert_eq!(panic_message(s.as_ref()), "non-string panic payload");
    }
}
