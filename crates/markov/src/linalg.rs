//! Small dense linear algebra: row-major matrices and GTH elimination
//! for the transient block of an absorbing chain.
//!
//! The recovery-line chains solved densely here stay under the dense
//! cap of [`crate::solver`] (2⁸ transient states), where
//! straightforward elimination is both simple and fast enough; larger
//! chains go through [`crate::sparse`] and iterative solves instead.
//! Every dense absorption solve, of a CTMC's −Q_TT and of a DTMC's
//! I − Q alike, uses [`GthFactors`], which keeps its digits however stiff
//! the chain. A partially pivoted LU solve is compiled for the tests
//! alone, as the independent reference GTH is checked against.

use std::fmt;

/// Error returned when a factorisation encounters a (numerically)
/// singular matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SingularMatrix {
    /// The elimination column where no usable pivot was found.
    pub column: usize,
}

impl fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for SingularMatrix {}

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major nested slice (rows must be equal length).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// `self · v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum::<f64>())
            .collect()
    }

    /// `vᵀ · self` (left multiplication by a row vector).
    pub fn vec_mul(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += vi * a;
            }
        }
        out
    }

    /// Dense matrix product `self · rhs`.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Max-abs entry (for convergence checks in tests).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// An LU factorisation with partial pivoting, `P·A = L·U`: the tests'
/// reference for [`GthFactors`].
#[cfg(test)]
pub(crate) struct LuFactors {
    lu: Matrix,
    perm: Vec<usize>,
}

#[cfg(test)]
impl LuFactors {
    /// Factorises `a` (consumed).
    pub(crate) fn new(mut a: Matrix) -> Result<Self, SingularMatrix> {
        assert_eq!(a.rows, a.cols, "LU requires a square matrix");
        let n = a.rows;
        // Relative singularity threshold: a pivot below machine epsilon
        // times the matrix magnitude means the system is numerically
        // singular at f64 precision regardless of its exact rank.
        let scale = a.max_abs().max(1e-300);
        let threshold = scale * f64::EPSILON * 16.0;
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Partial pivot: largest magnitude on/below the diagonal.
            let (pivot_row, pivot_val) =
                (col..n)
                    .map(|r| (r, a[(r, col)].abs()))
                    .fold(
                        (col, -1.0),
                        |best, cand| if cand.1 > best.1 { cand } else { best },
                    );
            if pivot_val <= threshold {
                return Err(SingularMatrix { column: col });
            }
            if pivot_row != col {
                perm.swap(pivot_row, col);
                for j in 0..n {
                    let tmp = a[(col, j)];
                    a[(col, j)] = a[(pivot_row, j)];
                    a[(pivot_row, j)] = tmp;
                }
            }
            let inv_pivot = 1.0 / a[(col, col)];
            for r in col + 1..n {
                let factor = a[(r, col)] * inv_pivot;
                a[(r, col)] = factor;
                if factor == 0.0 {
                    continue;
                }
                for j in col + 1..n {
                    let u = a[(col, j)];
                    a[(r, j)] -= factor * u;
                }
            }
        }
        Ok(LuFactors { lu: a, perm })
    }

    /// Solves `A·x = b`.
    pub(crate) fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows;
        assert_eq!(b.len(), n, "dimension mismatch");
        // Apply permutation, then forward/back substitution.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                acc -= self.lu[(i, j)] * xj;
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                acc -= self.lu[(i, j)] * xj;
            }
            x[i] = acc / self.lu[(i, i)];
        }
        x
    }
}

/// Convenience: solves `A·x = b` by LU with partial pivoting.
#[cfg(test)]
pub(crate) fn solve(a: Matrix, b: &[f64]) -> Result<Vec<f64>, SingularMatrix> {
    Ok(LuFactors::new(a)?.solve(b))
}

/// GTH elimination (Grassmann, Taksar & Heyman 1985) of the transient
/// block of an absorbing CTMC: `−Q_TT = L·U` without a single
/// subtraction.
///
/// Each row is kept as its off-diagonal rates qᵢⱼ ≥ 0 plus its rate
/// straight into absorption sᵢ ≥ 0. Eliminating state k folds every
/// path i → k → j into qᵢⱼ and i → k → absorption into sᵢ, and the pivot
/// is rebuilt as the sum dₖ = sₖ + Σ_{j>k} qₖⱼ instead of being updated
/// by subtraction. On these M-matrices that keeps every factor, and the
/// solution of a non-negative right-hand side, accurate entrywise to a
/// small multiple of ε (O'Cinneide 1993), however large E\[X\] grows;
/// partially pivoted LU loses digits in proportion to the conditioning
/// and declares the domino-regime chains singular.
pub struct GthFactors {
    /// Below the diagonal, column k holds qᵢₖ at k's elimination; above
    /// it, row k holds qₖⱼ at k's elimination. The diagonal is unused.
    q: Matrix,
    /// The pivots dₖ.
    d: Vec<f64>,
}

impl GthFactors {
    /// Factorises the transient block whose off-diagonal rates are
    /// `rates` (its diagonal is ignored) and whose rates straight into
    /// absorption are `absorb`. Fails at the first state left with no way
    /// out (dₖ = 0): from there the chain never absorbs.
    ///
    /// # Panics
    /// Panics unless `rates` is square with one row per `absorb` entry.
    pub fn new(mut rates: Matrix, mut absorb: Vec<f64>) -> Result<Self, SingularMatrix> {
        let n = rates.rows;
        assert!(
            rates.cols == n && absorb.len() == n,
            "GTH needs a square block and one absorption rate per row"
        );
        let mut d = vec![0.0; n];
        for k in 0..n {
            let (head, tail) = rates.data.split_at_mut((k + 1) * n);
            let row_k = &head[k * n..];
            d[k] = absorb[k] + row_k[k + 1..].iter().sum::<f64>();
            if !(d[k] > 0.0 && d[k].is_finite()) {
                return Err(SingularMatrix { column: k });
            }
            for (i, row_i) in (k + 1..n).zip(tail.chunks_exact_mut(n)) {
                let f = row_i[k] / d[k];
                if f == 0.0 {
                    continue;
                }
                for (j, (q, &qk)) in row_i.iter_mut().zip(row_k).enumerate().skip(k + 1) {
                    if j != i {
                        *q += f * qk;
                    }
                }
                absorb[i] += f * absorb[k];
            }
        }
        Ok(GthFactors { q: rates, d })
    }

    /// Solves `(−Q_TT)·x = b`: forward through L (xᵢ += qᵢₖ·xₖ/dₖ),
    /// then back through U (xₖ = (xₖ + Σ_{j>k} qₖⱼ·xⱼ)/dₖ).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.d.len();
        assert_eq!(b.len(), n, "dimension mismatch");
        let mut x = b.to_vec();
        for k in 0..n {
            let xk = x[k] / self.d[k];
            for (i, xi) in x.iter_mut().enumerate().skip(k + 1) {
                *xi += self.q[(i, k)] * xk;
            }
        }
        for k in (0..n).rev() {
            let row = &self.q.row(k)[k + 1..];
            let acc: f64 = row.iter().zip(&x[k + 1..]).map(|(q, x)| q * x).sum();
            x[k] = (x[k] + acc) / self.d[k];
        }
        x
    }

    /// Solves the transposed system `(−Q_TT)ᵀ·x = b` with the same
    /// factors: forward through Uᵀ, then back through Lᵀ.
    pub fn solve_transpose(&self, b: &[f64]) -> Vec<f64> {
        let n = self.d.len();
        assert_eq!(b.len(), n, "dimension mismatch");
        let mut x = b.to_vec();
        for k in 0..n {
            x[k] /= self.d[k];
            let xk = x[k];
            let row = &self.q.row(k)[k + 1..];
            for (xj, &q) in x[k + 1..].iter_mut().zip(row) {
                *xj += q * xk;
            }
        }
        for k in (0..n).rev() {
            let acc: f64 = (k + 1..n).map(|i| self.q[(i, k)] * x[i]).sum();
            x[k] += acc / self.d[k];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        a.mul_vec(x)
            .iter()
            .zip(b)
            .map(|(ax, bi)| (ax - bi).abs())
            .fold(0.0_f64, f64::max)
    }

    #[test]
    fn solves_small_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = [5.0, 10.0];
        let x = solve(a.clone(), &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solves_with_pivoting_needed() {
        // Zero on the diagonal forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let b = [2.0, 3.0];
        let x = solve(a.clone(), &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(solve(a, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn solves_random_dense_system() {
        // Deterministic pseudo-random SPD-ish matrix.
        let n = 40;
        let mut a = Matrix::zeros(n, n);
        let mut s = 0x12345u64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += n as f64; // diagonal dominance → well conditioned
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let x = solve(a.clone(), &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn mat_vec_and_vec_mat_agree_with_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let v = [1.0, -1.0];
        let left = a.vec_mul(&v);
        let right = a.transpose().mul_vec(&v);
        assert_eq!(left, right);
    }

    #[test]
    fn matrix_product_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.mul(&i), a);
        assert_eq!(i.mul(&a), a);
    }

    /// Off-diagonal rates and absorption rates of a 6-state transient
    /// block with a zero rate and a state that cannot absorb directly.
    fn absorbing_block() -> (Matrix, Vec<f64>) {
        let n = 6;
        let mut rates = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j && (i + 2 * j) % 5 != 0 {
                    rates[(i, j)] = 0.3 + ((i * 7 + j * 3) % 11) as f64 / 4.0;
                }
            }
        }
        let absorb = (0..n)
            .map(|i| if i == 2 { 0.0 } else { 0.1 * (i + 1) as f64 })
            .collect();
        (rates, absorb)
    }

    #[test]
    fn gth_solves_match_lu_both_ways() {
        let (rates, absorb) = absorbing_block();
        let n = absorb.len();
        // −Q_TT: exit rates on the diagonal, −qᵢⱼ off it.
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    a[(i, j)] = -rates[(i, j)];
                    a[(i, i)] += rates[(i, j)];
                }
            }
            a[(i, i)] += absorb[i];
        }
        let gth = GthFactors::new(rates, absorb).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        for (got, want) in [
            (gth.solve(&b), solve(a.clone(), &b).unwrap()),
            (gth.solve_transpose(&b), solve(a.transpose(), &b).unwrap()),
        ] {
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-13 * w.abs(), "{g} vs {w}");
            }
        }
    }

    #[test]
    fn gth_refuses_a_chain_that_never_absorbs() {
        // State 1 only feeds state 0, which only feeds state 1.
        let rates = Matrix::from_rows(&[&[0.0, 2.0, 0.0], &[1.0, 0.0, 0.0], &[1.0, 1.0, 0.0]]);
        let err = GthFactors::new(rates, vec![0.0, 0.0, 1.0]).err();
        assert_eq!(err, Some(SingularMatrix { column: 1 }));
    }

    #[test]
    fn reusing_factors_for_multiple_rhs() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let lu = LuFactors::new(a.clone()).unwrap();
        for b in [[1.0, 0.0], [0.0, 1.0], [2.0, 5.0]] {
            let x = lu.solve(&b);
            assert!(residual(&a, &x, &b) < 1e-12);
        }
    }

    fn diag_dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
        prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |vals| {
            let mut m = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    m[(i, j)] = vals[i * n + j];
                }
                m[(i, i)] += n as f64 + 1.0;
            }
            m
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lu_solves_diag_dominant_systems(
            a in diag_dominant_matrix(8),
            b in prop::collection::vec(-10.0f64..10.0, 8),
        ) {
            let x = solve(a.clone(), &b).expect("diag dominant is nonsingular");
            let r = a.mul_vec(&x);
            for (ri, bi) in r.iter().zip(&b) {
                prop_assert!((ri - bi).abs() < 1e-8, "residual {} vs {}", ri, bi);
            }
        }
    }
}
