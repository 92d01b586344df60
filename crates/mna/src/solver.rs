//! In-place dense LU factorization with a reusable pivot order.
//!
//! [`LuFactor`] owns every buffer the solve path needs — the stamping
//! target, the factored copy, the permutation and the substitution
//! scratch — so a transient loop performs **zero allocation per solve**.
//! [`LuFactor::factor`] runs full partial pivoting and records the pivot
//! order; [`LuFactor::refactor`] re-eliminates *new numeric values* under
//! the recorded order (the common case when only element values changed
//! between timesteps or sweep corners), falling back to a fresh
//! factorization when a recorded pivot has gone numerically stale.

/// Pivots smaller than this are treated as exact zeros.
const PIVOT_ABS_MIN: f64 = 1e-300;
/// A reused pivot must be at least this fraction of its column maximum,
/// or the stored pivot order is considered stale and rebuilt.
const PIVOT_RTOL: f64 = 1e-3;

/// The matrix was numerically singular.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Singular;

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "singular matrix")
    }
}

impl std::error::Error for Singular {}

/// Counters describing how much factorization work a solver instance did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Full factorizations with fresh partial pivoting.
    pub factorizations: u64,
    /// Re-factorizations that reused the recorded pivot order.
    pub refactorizations: u64,
    /// Refactorization attempts whose recorded pivot order went stale and
    /// fell back to a full factorization (counted in `factorizations` too).
    pub pivot_rebuilds: u64,
    /// Triangular solves.
    pub solves: u64,
    /// Transient steps recorded without solving, because the step before
    /// them was an exact fixed point of the step map (see
    /// [`crate::Engine::tran`]). Only an engine counts these; a bare
    /// [`LuFactor`] reports 0.
    pub repeated_steps: u64,
}

/// Preallocated dense LU working set: stamp into it, factor (or refactor)
/// in place, then solve as many right-hand sides as needed.
#[derive(Clone, Debug)]
pub struct LuFactor {
    n: usize,
    /// Stamping target (row-major); survives factorization.
    vals: Vec<f64>,
    /// Factored copy of `vals` (L below, U on/above the diagonal, rows
    /// addressed through `perm`).
    lu: Vec<f64>,
    perm: Vec<usize>,
    /// Forward-substitution scratch.
    y: Vec<f64>,
    factored: bool,
    stats: SolveStats,
}

impl LuFactor {
    /// Creates an `n × n` working set with all values zero.
    pub fn new(n: usize) -> LuFactor {
        LuFactor {
            n,
            vals: vec![0.0; n * n],
            lu: vec![0.0; n * n],
            perm: (0..n).collect(),
            y: vec![0.0; n],
            factored: false,
            stats: SolveStats::default(),
        }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Resets all stamped values to zero, keeping allocations and the
    /// recorded pivot order.
    pub fn clear(&mut self) {
        self.vals.fill(0.0);
    }

    /// Adds `v` to value `(r, c)` — the MNA "stamp" operation.
    #[inline]
    pub fn stamp(&mut self, r: usize, c: usize, v: f64) {
        self.vals[r * self.n + c] += v;
    }

    /// Stamped value at `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.vals[r * self.n + c]
    }

    /// Direct access to the row-major stamping target, for bulk fills.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Factorization-work counters.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Eliminates column `col` under the current permutation. Returns the
    /// absolute pivot value.
    fn eliminate(&mut self, col: usize) -> f64 {
        let n = self.n;
        let prow = self.perm[col];
        let pval = self.lu[prow * n + col];
        let (perm, lu) = (&self.perm, &mut self.lu);
        for &row in &perm[col + 1..] {
            let factor = lu[row * n + col] / pval;
            lu[row * n + col] = factor;
            for c in col + 1..n {
                lu[row * n + c] -= factor * lu[prow * n + c];
            }
        }
        pval.abs()
    }

    /// Factors the stamped values with full partial pivoting, recording
    /// the pivot order for later [`LuFactor::refactor`] calls.
    ///
    /// # Errors
    ///
    /// [`Singular`] when no usable pivot exists in some column.
    pub fn factor(&mut self) -> Result<(), Singular> {
        self.stats.factorizations += 1;
        self.factored = false;
        self.lu.copy_from_slice(&self.vals);
        let n = self.n;
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        for col in 0..n {
            let mut best = col;
            let mut best_val = self.lu[self.perm[col] * n + col].abs();
            for r in col + 1..n {
                let v = self.lu[self.perm[r] * n + col].abs();
                if v > best_val {
                    best_val = v;
                    best = r;
                }
            }
            if best_val < PIVOT_ABS_MIN {
                return Err(Singular);
            }
            self.perm.swap(col, best);
            self.eliminate(col);
        }
        self.factored = true;
        Ok(())
    }

    /// Re-factors the (re-stamped) values reusing the pivot order recorded
    /// by the last [`LuFactor::factor`] — the cheap path when only numeric
    /// values changed, e.g. between Newton iterations, timesteps, or
    /// same-topology sweep corners.
    ///
    /// Each reused pivot is checked against its column maximum; if it has
    /// gone numerically stale the call transparently falls back to a full
    /// factorization (`pivot_rebuilds` counts these).
    ///
    /// # Errors
    ///
    /// [`Singular`] when the matrix is singular under either path.
    pub fn refactor(&mut self) -> Result<(), Singular> {
        if !self.factored {
            return self.factor();
        }
        self.factored = false;
        self.lu.copy_from_slice(&self.vals);
        let n = self.n;
        for col in 0..n {
            let pval = self.lu[self.perm[col] * n + col].abs();
            let mut col_max = pval;
            for r in col + 1..n {
                col_max = col_max.max(self.lu[self.perm[r] * n + col].abs());
            }
            if pval < PIVOT_ABS_MIN || pval < PIVOT_RTOL * col_max {
                self.stats.pivot_rebuilds += 1;
                return self.factor();
            }
            self.eliminate(col);
        }
        self.stats.refactorizations += 1;
        self.factored = true;
        Ok(())
    }

    /// Solves `A x = b` in place (`b` becomes `x`) against the current
    /// factorization.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful factorization or on a length
    /// mismatch.
    pub fn solve_in_place(&mut self, b: &mut [f64]) {
        assert!(self.factored, "solve_in_place before factor");
        assert_eq!(b.len(), self.n, "dimension mismatch");
        self.stats.solves += 1;
        let n = self.n;
        // Forward substitution (L has implicit unit diagonal).
        for i in 0..n {
            let row = self.perm[i];
            let mut sum = b[row];
            for (j, yj) in self.y.iter().enumerate().take(i) {
                sum -= self.lu[row * n + j] * yj;
            }
            self.y[i] = sum;
        }
        // Back substitution, writing x into b.
        for i in (0..n).rev() {
            let row = self.perm[i];
            let mut sum = self.y[i];
            for (j, xj) in b.iter().enumerate().skip(i + 1) {
                sum -= self.lu[row * n + j] * xj;
            }
            b[i] = sum / self.lu[row * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(m: &mut LuFactor, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        m.solve_in_place(&mut x);
        x
    }

    #[test]
    fn solves_identity() {
        let mut m = LuFactor::new(3);
        for i in 0..3 {
            m.stamp(i, i, 1.0);
        }
        m.factor().unwrap();
        assert_eq!(solve(&mut m, &[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_requiring_pivot() {
        let mut m = LuFactor::new(2);
        m.stamp(0, 1, 1.0);
        m.stamp(1, 0, 1.0);
        m.factor().unwrap();
        let x = solve(&mut m, &[3.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let mut m = LuFactor::new(2);
        m.stamp(0, 0, 1.0);
        m.stamp(0, 1, 2.0);
        m.stamp(1, 0, 2.0);
        m.stamp(1, 1, 4.0);
        assert_eq!(m.factor(), Err(Singular));
        assert_eq!(m.refactor(), Err(Singular));
    }

    #[test]
    fn refactor_reuses_pivot_order() {
        use cnfet_rng::{Rng, SeedableRng};
        let mut rng = cnfet_rng::rngs::StdRng::seed_from_u64(7);
        let n = 12;
        let mut m = LuFactor::new(n);
        for round in 0..5 {
            m.clear();
            for r in 0..n {
                for c in 0..n {
                    m.stamp(r, c, rng.gen_range(-1.0..1.0));
                }
                m.stamp(r, r, 4.0); // diagonally dominant: stable pivots
            }
            let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
            let b: Vec<f64> = (0..n)
                .map(|r| (0..n).map(|c| m.at(r, c) * x_true[c]).sum())
                .collect();
            m.refactor().unwrap();
            let x = solve(&mut m, &b);
            for (a, e) in x.iter().zip(&x_true) {
                assert!((a - e).abs() < 1e-9, "round {round}: {a} vs {e}");
            }
        }
        let stats = m.stats();
        // First round had no recorded order; the other four reused it.
        assert_eq!(stats.factorizations, 1);
        assert_eq!(stats.refactorizations, 4);
        assert_eq!(stats.pivot_rebuilds, 0);
        assert_eq!(stats.solves, 5);
    }

    #[test]
    fn stale_pivot_order_falls_back_to_full_factorization() {
        let mut m = LuFactor::new(2);
        m.stamp(0, 0, 1.0);
        m.stamp(1, 1, 1.0);
        m.factor().unwrap(); // records the identity pivot order
        m.clear();
        // New values need the rows swapped: the stored order is stale.
        m.stamp(0, 1, 1.0);
        m.stamp(1, 0, 1.0);
        m.refactor().unwrap();
        let x = solve(&mut m, &[3.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        let stats = m.stats();
        assert_eq!(stats.pivot_rebuilds, 1);
        assert_eq!(stats.factorizations, 2);
        assert_eq!(stats.refactorizations, 0);
    }

    #[test]
    fn clear_keeps_dimension_and_pivots() {
        let mut m = LuFactor::new(2);
        m.stamp(0, 0, 5.0);
        m.clear();
        assert_eq!(m.at(0, 0), 0.0);
        assert_eq!(m.n(), 2);
    }
}
