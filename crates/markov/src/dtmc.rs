//! Discrete-time Markov chains and expected-visit analysis.
//!
//! Used for the paper's chain `Y_d` (§2.3): the uniformized jump chain
//! of the flag CTMC, in which one step corresponds to one event (a
//! recovery-point establishment or an interaction). E\[Lᵢ\] — the mean
//! number of states saved by process Pᵢ between recovery lines — is an
//! expected count of marked transitions before absorption, computed from
//! the fundamental matrix N = (I − Q)⁻¹.

use crate::solver::TransientBlock;
use crate::sparse::{Csr, Triplets};

/// A finite-state DTMC described by its (row-stochastic) transition
/// matrix.
#[derive(Clone, Debug)]
pub struct Dtmc {
    n: usize,
    p: Csr,
}

impl Dtmc {
    /// Builds a chain from `(from, to, prob)` entries; missing mass on a
    /// row is added as a self-loop, so builders may list only the
    /// state-changing transitions.
    ///
    /// # Panics
    /// Panics if any row's listed probability mass exceeds 1 (beyond
    /// rounding), or entries are invalid.
    pub fn from_transitions(n: usize, transitions: &[(usize, usize, f64)]) -> Self {
        let mut t = Triplets::new(n, n);
        let mut mass = vec![0.0; n];
        for &(from, to, p) in transitions {
            assert!(from < n && to < n, "transition ({from},{to}) out of range");
            assert!(
                p > 0.0 && p.is_finite(),
                "probability {p} on ({from},{to}) must be positive and finite"
            );
            t.push(from, to, p);
            mass[from] += p;
        }
        for (i, &m) in mass.iter().enumerate() {
            assert!(m <= 1.0 + 1e-9, "row {i} has probability mass {m} > 1");
            let slack = (1.0 - m).max(0.0);
            if slack > 1e-15 {
                t.push(i, i, slack);
            }
        }
        Dtmc { n, p: t.to_csr() }
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// Transition probability `p(from, to)`.
    pub fn prob(&self, from: usize, to: usize) -> f64 {
        self.p.get(from, to)
    }

    /// The transition matrix.
    pub fn matrix(&self) -> &Csr {
        &self.p
    }

    /// Expected number of *steps spent* in each transient state before
    /// absorption, starting from `start`: the `start` row of the
    /// fundamental matrix N = (I − Q)⁻¹, scattered back to global state
    /// indices (absorbing states get 0).
    ///
    /// `is_transient[s]` declares which states are transient; absorbing
    /// states (and their self-loops) are excluded from Q. I − Q is the
    /// transient block ([`crate::solver`]) whose rates are the transient
    /// pᵢⱼ and whose rate into absorption is each row's probability of
    /// absorbing; the visits are its transposed solve.
    ///
    /// # Panics
    /// Panics if `start` is not transient, or if no absorbing state is
    /// reachable (the expected counts would diverge).
    pub fn expected_visits(&self, start: usize, is_transient: &[bool]) -> Vec<f64> {
        assert_eq!(is_transient.len(), self.n);
        assert!(is_transient[start], "start state must be transient");
        let block =
            TransientBlock::new(self.n, |s| is_transient[s], |s| self.p.row(s), |p| 1.0 - p);
        // (I − Qᵀ)·v = e_start: v[j] = expected visits to j.
        let mut b = vec![0.0; block.dim()];
        b[block.local(start)] = 1.0;
        let visits = block.solve_transpose(&b);
        let mut out = vec![0.0; self.n];
        for (k, s) in (0..self.n).filter(|&s| is_transient[s]).enumerate() {
            out[s] = visits[k];
        }
        out
    }

    /// Expected number of steps before absorption from `start`
    /// (= Σ expected visits over transient states).
    pub fn expected_steps(&self, start: usize, is_transient: &[bool]) -> f64 {
        self.expected_visits(start, is_transient).iter().sum()
    }

    /// Probability of eventually being absorbed in `target` (an
    /// absorbing state), from `start`.
    pub fn absorption_probability(
        &self,
        start: usize,
        target: usize,
        is_transient: &[bool],
    ) -> f64 {
        let visits = self.expected_visits(start, is_transient);
        (0..self.n)
            .filter(|&s| is_transient[s])
            .map(|s| visits[s] * self.prob(s, target))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;
    use crate::solver::DENSE_MAX_STATES;

    #[test]
    fn geometric_visits() {
        // 0 stays with prob 0.75, absorbs into 1 with 0.25:
        // expected visits to 0 = 1/0.25 = 4.
        let d = Dtmc::from_transitions(2, &[(0, 1, 0.25)]);
        let v = d.expected_visits(0, &[true, false]);
        assert!((v[0] - 4.0).abs() < 1e-12);
        assert_eq!(v[1], 0.0);
        assert!((d.expected_steps(0, &[true, false]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn self_loop_is_filled_in() {
        let d = Dtmc::from_transitions(2, &[(0, 1, 0.25)]);
        assert!((d.prob(0, 0) - 0.75).abs() < 1e-12);
        assert!((d.prob(1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gamblers_ruin_absorption_probabilities() {
        // States 0..=4; 0 and 4 absorbing; fair coin.
        let mut tr = Vec::new();
        for s in 1..4usize {
            tr.push((s, s - 1, 0.5));
            tr.push((s, s + 1, 0.5));
        }
        let d = Dtmc::from_transitions(5, &tr);
        let transient = [false, true, true, true, false];
        for start in 1..4 {
            let p_win = d.absorption_probability(start, 4, &transient);
            assert!(
                (p_win - start as f64 / 4.0).abs() < 1e-10,
                "from {start}: {p_win}"
            );
            // Expected duration of fair ruin from i is i(N−i).
            let steps = d.expected_steps(start, &transient);
            let expect = (start * (4 - start)) as f64;
            assert!((steps - expect).abs() < 1e-9, "steps from {start}: {steps}");
        }
    }

    #[test]
    fn visits_sum_decomposes_by_state() {
        let d = Dtmc::from_transitions(3, &[(0, 1, 0.5), (0, 2, 0.25), (1, 0, 0.3), (1, 2, 0.7)]);
        let transient = [true, true, false];
        let v = d.expected_visits(0, &transient);
        let steps = d.expected_steps(0, &transient);
        assert!((v[0] + v[1] - steps).abs() < 1e-12);
        // Absorption is certain.
        let p = d.absorption_probability(0, 2, &transient);
        assert!((p - 1.0).abs() < 1e-10);
    }

    #[test]
    fn gth_visits_match_the_lu_reference() {
        let d = Dtmc::from_transitions(
            4,
            &[
                (0, 1, 0.5),
                (0, 2, 0.25),
                (1, 0, 0.3),
                (1, 2, 0.6),
                (2, 0, 0.1),
                (2, 3, 0.7),
            ],
        );
        let transient = [true, true, true, false];
        let gth = d.expected_visits(0, &transient);
        // (I − Qᵀ)·v = e_0 by partially pivoted LU.
        let mut a = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                a[(j, i)] -= d.prob(i, j);
            }
        }
        let lu = crate::linalg::solve(a, &[1.0, 0.0, 0.0]).unwrap();
        for s in 0..3 {
            assert!(
                (gth[s] - lu[s]).abs() < 1e-9,
                "state {s}: {} vs {}",
                gth[s],
                lu[s]
            );
        }
        assert_eq!(gth[3], 0.0);
    }

    #[test]
    fn krylov_visits_match_gamblers_ruin_closed_form() {
        // A biased walk on 0..=N with both ends absorbing: N − 1 = 300
        // transient states, past the dense cap, so the solve runs on the
        // Krylov arm. Up with p, down with q = 1 − p, r = q/p: from i the
        // walk wins with probability (1 − rⁱ)/(1 − r^N) and lasts
        // i/(q − p) − N/(q − p)·(1 − rⁱ)/(1 − r^N) steps on average.
        let n = 301usize;
        let (p, q) = (0.55, 0.45);
        let mut tr = Vec::new();
        for s in 1..n {
            tr.push((s, s + 1, p));
            tr.push((s, s - 1, q));
        }
        let d = Dtmc::from_transitions(n + 1, &tr);
        let transient: Vec<bool> = (0..=n).map(|s| s != 0 && s != n).collect();
        assert!(transient.iter().filter(|&&t| t).count() > DENSE_MAX_STATES);
        let r: f64 = q / p;
        for start in [1usize, 150, 299] {
            let win = (1.0 - r.powi(start as i32)) / (1.0 - r.powi(n as i32));
            let steps = start as f64 / (q - p) - n as f64 / (q - p) * win;
            let got_steps = d.expected_steps(start, &transient);
            assert!(
                (got_steps - steps).abs() <= 1e-9 * steps,
                "steps from {start}: {got_steps} vs {steps}"
            );
            let got_win = d.absorption_probability(start, n, &transient);
            assert!(
                (got_win - win).abs() <= 1e-9,
                "win from {start}: {got_win} vs {win}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "mass")]
    fn overfull_row_rejected() {
        let _ = Dtmc::from_transitions(2, &[(0, 1, 0.8), (0, 0, 0.4)]);
    }
}
