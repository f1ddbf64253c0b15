//! Recovery-line detection.
//!
//! The paper's two requirements for a recovery line over processes
//! P₁…Pₙ (§2.2):
//!
//! 1. the line contains one recovery point RPᵢ per process;
//! 2. for every pair (RPᵢ, RPⱼ) in the line, no interaction between Pᵢ
//!    and Pⱼ is *sandwiched* between t\[RPᵢ\] and t\[RPⱼ\].
//!
//! Equivalently: the cut defined by the RP times is consistent — every
//! interaction lies entirely before or entirely after it for the pair
//! involved.

use crate::history::{History, ProcessId, RpKind, RpRecord};

/// A recovery line: one restart time per process (the times of the
/// constituent RPs), plus when the line came into existence (the time
/// of its latest RP).
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryLine {
    /// Restart time of each process.
    pub restart: Vec<f64>,
    /// Kind of the saved state used per process.
    pub kinds: Vec<RpKind>,
    /// max(restart) — the moment the line formed.
    pub formed_at: f64,
}

/// Whether the cut given by per-process `restart` times is consistent:
/// no interaction of pair (i, j) lies strictly after one side's restart
/// and at/before the other's (the paper's "sandwiched" condition).
pub fn is_consistent_cut(h: &History, restart: &[f64]) -> bool {
    assert_eq!(restart.len(), h.n(), "one restart time per process");
    for ir in h.interactions() {
        let (a, b) = (ir.from.0, ir.to.0);
        let (lo, hi) = if restart[a] <= restart[b] {
            (restart[a], restart[b])
        } else {
            (restart[b], restart[a])
        };
        // Sandwiched: strictly after the earlier restart, at or before
        // the later one. (An interaction exactly at both restarts means
        // the saved states both precede it — not sandwiched.)
        if ir.time > lo && ir.time <= hi && lo != hi {
            return false;
        }
    }
    true
}

/// Whether the cut is free of *orphan messages* under directed
/// semantics: no message exists whose sender restarts before it was
/// sent while its receiver's restart still includes the receipt. The
/// weaker sibling of [`is_consistent_cut`], appropriate when senders
/// log outgoing messages for replay (Russell's refinement; see
/// `rollback::RollbackRule::Directed`).
pub fn is_orphan_free_cut(h: &History, restart: &[f64]) -> bool {
    assert_eq!(restart.len(), h.n(), "one restart time per process");
    for ir in h.interactions() {
        let sent = restart[ir.from.0];
        let received = restart[ir.to.0];
        if ir.time > sent && ir.time <= received {
            return false;
        }
    }
    true
}

/// All recovery lines over the *real* RPs of the history, in formation
/// order, by the flag-scan algorithm that mirrors the paper's Markov
/// model: replay events in time order, track per-process "last action
/// was an RP" flags, and emit a line whenever all flags are set.
///
/// Returns lines formed strictly after time 0 (the initial states form
/// the implicit line 0, which is also emitted, at index 0).
pub fn find_recovery_lines(h: &History) -> Vec<RecoveryLine> {
    // Merge per-process RP streams and the interaction stream.
    #[derive(Clone, Copy)]
    enum Ev {
        Rp(usize, f64),
        Inter(usize, usize),
    }
    let mut events: Vec<(f64, usize, Ev)> = Vec::new();
    for i in 0..h.n() {
        for r in h.rps(ProcessId(i)) {
            if r.is_real() && r.time > 0.0 {
                events.push((r.time, 0, Ev::Rp(i, r.time)));
            }
        }
    }
    for ir in h.interactions() {
        events.push((ir.time, 1, Ev::Inter(ir.from.0, ir.to.0)));
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));

    let n = h.n();
    let mut last_rp_time = vec![0.0_f64; n];
    let mut flags = vec![true; n]; // initial states are RPs
    let mut lines = vec![RecoveryLine {
        restart: vec![0.0; n],
        kinds: vec![RpKind::Real; n],
        formed_at: 0.0,
    }];

    for (_, _, ev) in events {
        match ev {
            Ev::Rp(i, t) => {
                last_rp_time[i] = t;
                flags[i] = true;
                if flags.iter().all(|&f| f) {
                    lines.push(RecoveryLine {
                        restart: last_rp_time.clone(),
                        kinds: vec![RpKind::Real; n],
                        formed_at: t,
                    });
                }
            }
            Ev::Inter(a, b) => {
                flags[a] = false;
                flags[b] = false;
            }
        }
    }
    lines
}

/// The most recent recovery line formed at or before `t`, by the same
/// flag scan. Always defined (the initial states are a line).
pub fn latest_recovery_line(h: &History, t: f64) -> RecoveryLine {
    find_recovery_lines(h)
        .into_iter()
        .rfind(|l| l.formed_at <= t)
        .expect("line 0 always exists")
}

/// Brute-force check used in tests and audits: enumerate all
/// combinations of real RPs (one per process, at or before `t`) and
/// return the consistent combination with the latest minimum time —
/// i.e. the best possible restart line. Exponential in n; intended for
/// small histories only.
pub fn best_line_brute_force(h: &History, t: f64) -> Option<Vec<f64>> {
    let n = h.n();
    let candidates: Vec<Vec<&RpRecord>> = (0..n)
        .map(|i| {
            h.rps(ProcessId(i))
                .iter()
                .filter(|r| r.is_real() && r.time <= t)
                .collect()
        })
        .collect();
    if candidates.iter().any(|c| c.is_empty()) {
        return None;
    }
    let mut best: Option<Vec<f64>> = None;
    let mut idx = vec![0usize; n];
    loop {
        let restart: Vec<f64> = (0..n).map(|i| candidates[i][idx[i]].time).collect();
        if is_consistent_cut(h, &restart) {
            let score: f64 = restart.iter().sum();
            let best_score = best.as_ref().map(|b| b.iter().sum::<f64>());
            if best_score.is_none_or(|s| score > s) {
                best = Some(restart);
            }
        }
        // Odometer increment.
        let mut k = 0;
        loop {
            if k == n {
                return best;
            }
            idx[k] += 1;
            if idx[k] < candidates[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    /// The paper's Figure 1 shape: three processes, interactions that
    /// break some RP combinations.
    fn figure1_like_history() -> History {
        let mut h = History::new(3);
        h.record_rp(p(0), 1.0); // RP1^1
        h.record_rp(p(1), 1.2); // RP2^1
        h.record_rp(p(2), 1.4); // RP3^1  → line forms here
        h.record_interaction(p(0), p(1), 2.0);
        h.record_rp(p(1), 2.5); // RP2^2
        h.record_interaction(p(1), p(2), 3.0);
        h.record_rp(p(0), 3.5); // RP1^2
        h.record_rp(p(2), 4.0); // RP3^2
        h
    }

    #[test]
    fn initial_states_are_a_line() {
        let h = History::new(3);
        let lines = find_recovery_lines(&h);
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].restart, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn flag_scan_finds_figure1_line() {
        let h = figure1_like_history();
        let lines = find_recovery_lines(&h);
        // Line 0 (initial); then each of the first three RPs arrives
        // while every flag is still set, so each completes a new line
        // (the R4 semantics: a fresh RP at a recovery line immediately
        // forms the next line).
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].restart, vec![1.0, 0.0, 0.0]);
        assert_eq!(lines[2].restart, vec![1.0, 1.2, 0.0]);
        assert_eq!(lines[3].restart, vec![1.0, 1.2, 1.4]);
        assert_eq!(lines[3].formed_at, 1.4);
        // After t = 1.4 the interactions at 2.0 / 3.0 keep breaking
        // combinations: (3.5, 2.5, 4.0) has no sandwiched interaction?
        // P1–P2: interactions at 2.0 — before both 3.5 and 2.5 → fine;
        // P2–P3: at 3.0 — sandwiched between 2.5 and 4.0 → broken.
        assert!(!is_consistent_cut(&h, &[3.5, 2.5, 4.0]));
    }

    #[test]
    fn flag_scan_lines_are_conservative_vs_brute_force() {
        // The flag model (the paper's Markov chain) recognises lines
        // formed by mutually fresh *latest* RPs. The best consistent
        // cut can be strictly later: here (3.5, 2.5, 1.4) is consistent
        // (the 3.0 interaction lies after both 2.5 and 1.4) although the
        // flag scan's last line is (1.0, 1.2, 1.4). The scan is thus a
        // sound lower bound, exactly as the paper's model intends
        // ("the interval X does represent an inner bound").
        let h = figure1_like_history();
        let latest = latest_recovery_line(&h, 10.0);
        let brute = best_line_brute_force(&h, 10.0).unwrap();
        assert!(is_consistent_cut(&h, &latest.restart));
        assert!(is_consistent_cut(&h, &brute));
        let scan_sum: f64 = latest.restart.iter().sum();
        let brute_sum: f64 = brute.iter().sum();
        assert!(scan_sum <= brute_sum + 1e-12);
        assert_eq!(brute, vec![3.5, 2.5, 1.4]);
    }

    #[test]
    fn orphan_free_is_weaker_than_consistent() {
        let mut h = History::new(2);
        h.record_rp(p(0), 1.0);
        h.record_interaction(p(1), p(0), 2.0); // P2 → P1
        h.record_rp(p(1), 3.0);
        // Cut (1.0, 3.0): the message at 2.0 is sandwiched (symmetric
        // model rejects) but not an orphan (sender P2's restart 3.0 is
        // after the send — wait, orphan iff time > restart[sender]:
        // 2.0 ≤ 3.0, and receiver restart 1.0 < 2.0 ⇒ receiver already
        // discards the receipt). Orphan-free accepts.
        assert!(!is_consistent_cut(&h, &[1.0, 3.0]));
        assert!(is_orphan_free_cut(&h, &[1.0, 3.0]));
        // Reverse the direction: now it is an orphan for cut (3.0, 1.0).
        let mut h2 = History::new(2);
        h2.record_rp(p(0), 1.0);
        h2.record_interaction(p(0), p(1), 2.0); // P1 → P2
        h2.record_rp(p(1), 3.0);
        assert!(!is_orphan_free_cut(&h2, &[1.0, 3.0]));
    }

    #[test]
    fn every_consistent_cut_is_orphan_free() {
        let mut h = History::new(3);
        h.record_rp(p(0), 1.0);
        h.record_interaction(p(0), p(1), 1.5);
        h.record_rp(p(1), 2.0);
        h.record_interaction(p(1), p(2), 2.5);
        h.record_rp(p(2), 3.0);
        for cut in [
            vec![0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0],
            vec![1.0, 2.0, 3.0],
        ] {
            if is_consistent_cut(&h, &cut) {
                assert!(is_orphan_free_cut(&h, &cut), "{cut:?}");
            }
        }
    }

    #[test]
    fn consistent_cut_rejects_sandwiched_interaction() {
        let mut h = History::new(2);
        h.record_rp(p(0), 1.0);
        h.record_interaction(p(0), p(1), 2.0);
        h.record_rp(p(1), 3.0);
        assert!(!is_consistent_cut(&h, &[1.0, 3.0]));
        assert!(is_consistent_cut(&h, &[1.0, 0.0]));
        assert!(is_consistent_cut(&h, &[1.0, 1.0])); // equal cut, interaction after both
    }

    #[test]
    fn interaction_then_rps_forms_line() {
        let mut h = History::new(2);
        h.record_interaction(p(0), p(1), 0.5);
        h.record_rp(p(0), 1.0);
        h.record_rp(p(1), 2.0);
        let lines = find_recovery_lines(&h);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].restart, vec![1.0, 2.0]);
        assert!(is_consistent_cut(&h, &lines[1].restart));
    }

    #[test]
    fn every_scanned_line_is_consistent() {
        // A longer pseudo-random history; all flag-scan lines must pass
        // the direct consistency check.
        let mut h = History::new(4);
        let mut s = 0xdeadbeefu64;
        let mut t = 0.0;
        for _ in 0..200 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t += ((s >> 11) as f64 / (1u64 << 53) as f64) + 0.01;
            let kind = (s >> 3) % 3;
            let a = ((s >> 8) % 4) as usize;
            let b = ((s >> 16) % 4) as usize;
            if kind == 0 || a == b {
                h.record_rp(p(a), t);
            } else {
                h.record_interaction(p(a), p(b), t);
            }
        }
        let lines = find_recovery_lines(&h);
        assert!(lines.len() > 1, "expected some lines in 200 events");
        for line in &lines {
            assert!(is_consistent_cut(&h, &line.restart), "line {line:?}");
        }
    }

    #[test]
    fn latest_line_respects_time_bound() {
        let h = figure1_like_history();
        let at_half = latest_recovery_line(&h, 0.5);
        assert_eq!(at_half.restart, vec![0.0, 0.0, 0.0]);
        let at_1 = latest_recovery_line(&h, 1.0);
        assert_eq!(at_1.restart, vec![1.0, 0.0, 0.0]);
        let at_2 = latest_recovery_line(&h, 2.0);
        assert_eq!(at_2.restart, vec![1.0, 1.2, 1.4]);
    }
}
