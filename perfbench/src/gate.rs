//! The correctness gate. Every check returns `Err` with a reason; the run
//! then prints no numbers.

use crate::campaigns::{diff_config, Replay, RoundResult, Witness};
use compdiff::{signature_with_hash, CompDiff};
use juliet::TestEval;
use minc_vm::VmMode;
use std::collections::BTreeSet;
use targets::Target;

/// Re-runs every witness through a freshly compiled `CompDiff` on the
/// reference interpreter (`VmMode::Interp`, independent of the block
/// backend the campaign ran on). Each must diverge with the signature the
/// campaign stored. Returns the number of witnesses checked.
///
/// # Errors
///
/// Names the first witness that does not diverge or diverges differently.
pub fn check_witnesses(programs: &[Target], witnesses: &[Witness]) -> Result<usize, String> {
    let mut by_target: Vec<Vec<&Witness>> = vec![Vec::new(); programs.len()];
    for w in witnesses {
        by_target
            .get_mut(w.target)
            .ok_or_else(|| format!("witness names program #{} of {}", w.target, programs.len()))?
            .push(w);
    }
    for (t, ws) in programs.iter().zip(by_target) {
        if ws.is_empty() {
            continue;
        }
        let diff = CompDiff::from_source_default(&t.src, diff_config(VmMode::Interp))
            .map_err(|e| format!("{}: {e}", t.spec.name))?;
        let mut sessions = diff.make_sessions();
        for w in ws {
            let o = diff.run_input_sessions(&mut sessions, &w.input);
            if !o.divergent {
                return Err(format!(
                    "witness {:?} of {} does not diverge on the interpreter",
                    w.input, t.spec.name
                ));
            }
            let sig = signature_with_hash(diff.src_hash(), &diff.impls(), &o);
            if sig != w.signature {
                return Err(format!(
                    "witness {:?} of {} diverges as `{sig}` on the interpreter, stored as `{}`",
                    w.input, t.spec.name, w.signature
                ));
            }
        }
    }
    Ok(witnesses.len())
}

/// Requires two signature sets to be equal.
///
/// # Errors
///
/// Names a few signatures on each side of the difference.
pub fn same_signatures(
    what: &str,
    a: &BTreeSet<String>,
    b: &BTreeSet<String>,
) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let only_a: Vec<&String> = a.difference(b).take(3).collect();
    let only_b: Vec<&String> = b.difference(a).take(3).collect();
    Err(format!(
        "{what}: signature sets differ ({} vs {}); only left: {only_a:?}; only right: {only_b:?}",
        a.len(),
        b.len()
    ))
}

/// Requires every timed round to produce the first round's findings.
///
/// # Errors
///
/// Names the first round that differs.
pub fn rounds_agree(rounds: &[RoundResult]) -> Result<(), String> {
    let Some(first) = rounds.first() else {
        return Err("no rounds ran".to_string());
    };
    for (i, r) in rounds.iter().enumerate().skip(1) {
        same_signatures(
            &format!("round {i} vs round 0"),
            &r.signatures,
            &first.signatures,
        )?;
        if (r.execs, r.divergent) != (first.execs, first.divergent) {
            return Err(format!(
                "round {i}: {} execs / {} divergent vs round 0: {} / {}",
                r.execs, r.divergent, first.execs, first.divergent
            ));
        }
    }
    Ok(())
}

/// Requires the traced replay to reproduce the untraced campaign: the same
/// programs, signature set, exec count and divergent inputs.
///
/// # Errors
///
/// Names the first difference.
pub fn replay_matches(
    programs: &[Target],
    round: &RoundResult,
    replay: &Replay,
) -> Result<(), String> {
    let same_programs = programs.len() == replay.programs.len()
        && programs
            .iter()
            .zip(&replay.programs)
            .all(|(a, b)| a.spec.name == b.spec.name && a.src == b.src);
    if !same_programs {
        return Err("the replay built different programs".to_string());
    }
    same_signatures(
        "campaign vs traced replay",
        &round.signatures,
        &replay.signatures,
    )?;
    if (round.execs, round.divergent) != (replay.counts.execs, replay.counts.divergent) {
        return Err(format!(
            "campaign: {} execs / {} divergent; replay: {} / {}",
            round.execs, round.divergent, replay.counts.execs, replay.counts.divergent
        ));
    }
    Ok(())
}

/// Requires two evaluations of the same draw to agree test for test.
///
/// # Errors
///
/// Names the first test that differs.
pub fn evals_agree(what: &str, a: &[TestEval], b: &[TestEval]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{what}: {} vs {} evaluations", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        let (dx, dy) = (format!("{x:?}"), format!("{y:?}"));
        if dx != dy {
            return Err(format!("{what}: test {} differs:\n  {dx}\n  {dy}", x.id));
        }
    }
    Ok(())
}

/// CompDiff must never diverge on a good variant (the paper's Finding 5).
///
/// # Errors
///
/// Names the tests with a false positive.
pub fn no_false_positives(evals: &[TestEval]) -> Result<(), String> {
    let fps: Vec<&str> = evals
        .iter()
        .filter(|e| e.compdiff_fp)
        .map(|e| e.id.as_str())
        .collect();
    if fps.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "CompDiff false positives on good variants: {fps:?}"
        ))
    }
}
