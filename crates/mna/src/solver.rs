//! In-place LU factorization over a fixed nonzero structure, with a
//! reusable pivot order.
//!
//! [`LuFactor`] owns every buffer the solve path needs — the stamping
//! target, the factored copy, the permutation, the substitution scratch
//! and the factor's nonzero structure — so a transient loop performs
//! **zero allocation per solve**. Storage is dense (`n × n` values), but
//! work follows the structure: every position stamping may touch is
//! declared when the working set is built (the positions its pattern's
//! elements stamp), and [`LuFactor::factor`] adds the symbolic fill-in
//! of the pivot order it picks. That structure — per-row lists of the L and
//! U entries and per-column lists of the rows below each pivot — is
//! derived once per pivot order, never from numeric values (an entry can
//! be exactly zero on one step and nonzero on the next), and
//! [`LuFactor::refactor`], elimination and both triangular solves walk
//! only those lists. A ladder's factors have O(n) entries, so its solves
//! cost O(n), not O(n²).
//!
//! [`LuFactor::factor`] runs full partial pivoting and records the pivot
//! order; [`LuFactor::refactor`] re-eliminates *new numeric values* under
//! the recorded order (the common case when only element values changed
//! between timesteps or sweep corners), falling back to a fresh
//! factorization when a recorded pivot has gone numerically stale.
//!
//! The results are bit-identical to dense elimination and substitution
//! over every entry. A skipped entry is an exact zero, and subtracting
//! its product (±0) from a partial sum changes no bit — except when the
//! partial sum is −0.0 and the product is −0.0 as well, which yields
//! +0.0. Stamped values and the entries elimination derives from them
//! are never −0.0, so the only −0.0 partial sums are substitution rows
//! whose right-hand side starts at −0.0; those rows replay the dense sum,
//! with every skipped L entry at the sign dense elimination leaves it
//! (`+0.0 / pivot`). Non-finite values are outside this contract: dense
//! elimination would spread a NaN through `0 × ∞` terms that the
//! structure never computes.

/// Pivots smaller than this are treated as exact zeros.
const PIVOT_ABS_MIN: f64 = 1e-300;
/// A reused pivot must be at least this fraction of its column maximum,
/// or the stored pivot order is considered stale and rebuilt.
const PIVOT_RTOL: f64 = 1e-3;
/// The bits of −0.0, the one partial sum an exact-zero product changes.
const NEG_ZERO: u64 = (-0.0f64).to_bits();

/// The matrix was numerically singular.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Singular;

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
    /// LU working set reports 0.
    pub repeated_steps: u64,
}

/// Index lists packed end to end: list `k` is `idx[start[k]..start[k + 1]]`.
#[derive(Clone, Debug, Default)]
struct Lists {
    start: Vec<usize>,
    idx: Vec<u32>,
}

impl Lists {
    fn reset(&mut self) {
        self.start.clear();
        self.start.push(0);
        self.idx.clear();
    }

    /// Ends the list being appended to.
    fn close(&mut self) {
        self.start.push(self.idx.len());
    }

    fn get(&self, k: usize) -> &[u32] {
        &self.idx[self.start[k]..self.start[k + 1]]
    }

    /// Every list in order — cheaper than [`Lists::get`] per list.
    fn iter(&self) -> impl DoubleEndedIterator<Item = &[u32]> + ExactSizeIterator {
        self.start.windows(2).map(|w| &self.idx[w[0]..w[1]])
    }
}

/// Preallocated LU working set: stamp into it, factor (or refactor) in
/// place, then solve as many right-hand sides as needed. Values are
/// stored densely; work walks the nonzero structure (see the module
/// docs).
#[derive(Clone, Debug)]
pub(crate) struct LuFactor {
    n: usize,
    /// Stamping target (row-major); survives factorization.
    vals: Vec<f64>,
    /// Factored copy of `vals` (L below, U on/above the diagonal, rows
    /// addressed through `perm`).
    lu: Vec<f64>,
    perm: Vec<usize>,
    /// Forward-substitution scratch.
    y: Vec<f64>,
    /// `u64` words per row of a bit matrix.
    words: usize,
    /// Positions stamping may touch, one bit row per matrix row.
    stamped: Vec<u64>,
    /// `stamped` plus the fill-in of the recorded pivot order.
    fill: Vec<u64>,
    /// Per pivot position `k`: the columns past `k` of row `perm[k]`.
    upper: Lists,
    /// Per pivot position `k`: the rows below it with an entry in column `k`.
    below: Lists,
    /// Per row position `i`: the columns before `i` of row `perm[i]`.
    lower: Lists,
    factored: bool,
    stats: SolveStats,
}

impl LuFactor {
    /// Creates an `n × n` working set whose stamps only ever touch the
    /// `(row, column)` positions of `entries`; every other value stays
    /// an exact zero, and no work is spent on it.
    pub(crate) fn with_structure(
        n: usize,
        entries: impl IntoIterator<Item = (usize, usize)>,
    ) -> LuFactor {
        let words = n.div_ceil(64);
        let mut stamped = vec![0u64; n * words];
        for (r, c) in entries {
            assert!(r < n && c < n, "entry ({r}, {c}) outside a {n}×{n} matrix");
            stamped[r * words + c / 64] |= 1 << (c % 64);
        }
        LuFactor {
            n,
            vals: vec![0.0; n * n],
            lu: vec![0.0; n * n],
            perm: (0..n).collect(),
            y: vec![0.0; n],
            words,
            fill: stamped.clone(),
            stamped,
            upper: Lists::default(),
            below: Lists::default(),
            lower: Lists::default(),
            factored: false,
            stats: SolveStats::default(),
        }
    }

    /// Resets all stamped values to zero, keeping allocations, the
    /// structure and the recorded pivot order.
    pub fn clear(&mut self) {
        self.vals.fill(0.0);
    }

    /// Adds `v` to value `(r, c)` — the MNA "stamp" operation.
    #[inline]
    pub fn stamp(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(
            has(&self.stamped, self.words, r, c),
            "stamp at ({r}, {c}) outside the declared structure"
        );
        self.vals[r * self.n + c] += v;
    }

    /// Factorization-work counters.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Factors the stamped values with full partial pivoting, recording
    /// the pivot order for later [`LuFactor::refactor`] calls, and derives
    /// that order's fill-in and entry lists as it goes.
    ///
    /// # Errors
    ///
    /// [`Singular`] when no usable pivot exists in some column.
    pub fn factor(&mut self) -> Result<(), Singular> {
        self.stats.factorizations += 1;
        self.factored = false;
        self.lu.copy_from_slice(&self.vals);
        self.fill.copy_from_slice(&self.stamped);
        self.upper.reset();
        self.below.reset();
        let (n, words) = (self.n, self.words);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        for col in 0..n {
            // The first largest magnitude in the column; rows without an
            // entry there hold exact zeros and could never win.
            let mut best = col;
            let mut best_val = self.lu[self.perm[col] * n + col].abs();
            for r in col + 1..n {
                let row = self.perm[r];
                if has(&self.fill, words, row, col) {
                    let v = self.lu[row * n + col].abs();
                    if v > best_val {
                        best_val = v;
                        best = r;
                    }
                }
            }
            if best_val < PIVOT_ABS_MIN {
                return Err(Singular);
            }
            self.perm.swap(col, best);
            let prow = self.perm[col];
            // The pivot row's entries past the diagonal are final: only
            // earlier columns' eliminations add to a row.
            push_bits(
                &mut self.upper,
                &self.fill[prow * words..][..words],
                col + 1,
                n,
            );
            self.upper.close();
            // Symbolic elimination: every row with an entry in this
            // column takes the pivot row's entries past it.
            for r in col + 1..n {
                let row = self.perm[r];
                if has(&self.fill, words, row, col) {
                    self.below.idx.push(row as u32);
                    for w in col / 64..words {
                        let mask = if w == col / 64 {
                            (!0u64 << (col % 64)) << 1
                        } else {
                            !0
                        };
                        self.fill[row * words + w] |= self.fill[prow * words + w] & mask;
                    }
                }
            }
            self.below.close();
            let (below, upper) = (self.below.get(col), self.upper.get(col));
            eliminate(&mut self.lu, prow * n, col, n, below, upper);
        }
        self.lower.reset();
        for i in 0..n {
            let row = self.perm[i];
            push_bits(&mut self.lower, &self.fill[row * words..][..words], 0, i);
            self.lower.close();
        }
        self.factored = true;
        Ok(())
    }

    /// Re-factors the (re-stamped) values reusing the pivot order and
    /// entry lists recorded by the last [`LuFactor::factor`] — the cheap
    /// path when only numeric values changed, e.g. between Newton
    /// iterations, timesteps, or same-topology sweep corners.
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
        let lists = self.below.iter().zip(self.upper.iter());
        let mut stale = false;
        for (col, (&prow, (below, upper))) in self.perm.iter().zip(lists).enumerate() {
            let pval = self.lu[prow * n + col].abs();
            let mut col_max = pval;
            for &row in below {
                col_max = col_max.max(self.lu[row as usize * n + col].abs());
            }
            if pval < PIVOT_ABS_MIN || pval < PIVOT_RTOL * col_max {
                stale = true;
                break;
            }
            eliminate(&mut self.lu, prow * n, col, n, below, upper);
        }
        if stale {
            self.stats.pivot_rebuilds += 1;
            return self.factor();
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
        let (n, words) = (self.n, self.words);
        // Forward substitution (L has implicit unit diagonal).
        for (i, (&row, lower)) in self.perm.iter().zip(self.lower.iter()).enumerate() {
            let lu = &self.lu[row * n..][..n];
            let mut sum = b[row];
            if sum.to_bits() == NEG_ZERO {
                // Replay the dense sum: a skipped L entry is the +0.0 a
                // dense elimination divides by its column's pivot.
                for (j, (&l, &yj)) in lu[..i].iter().zip(&self.y[..i]).enumerate() {
                    let l = if has(&self.fill, words, row, j) {
                        l
                    } else {
                        0.0 / self.lu[self.perm[j] * n + j]
                    };
                    sum -= l * yj;
                }
            } else {
                for &j in lower {
                    sum -= lu[j as usize] * self.y[j as usize];
                }
            }
            self.y[i] = sum;
        }
        // Back substitution, writing x into b. Skipped U entries are
        // stored as the +0.0 a dense elimination leaves there.
        let rows = self.perm.iter().zip(self.upper.iter()).enumerate();
        for (i, (&row, upper)) in rows.rev() {
            let lu = &self.lu[row * n..][..n];
            let mut sum = self.y[i];
            if sum.to_bits() == NEG_ZERO {
                for (&u, &xj) in lu[i + 1..].iter().zip(&b[i + 1..]) {
                    sum -= u * xj;
                }
            } else {
                for &j in upper {
                    sum -= lu[j as usize] * b[j as usize];
                }
            }
            b[i] = sum / lu[i];
        }
    }
}

/// Eliminates column `col` below pivot row `lu[prow..prow + n]`, over
/// the rows (`below`) with an entry in the column and the pivot row's
/// entries past it (`upper`).
fn eliminate(lu: &mut [f64], prow: usize, col: usize, n: usize, below: &[u32], upper: &[u32]) {
    let pval = lu[prow + col];
    for &row in below {
        let row = row as usize * n;
        let factor = lu[row + col] / pval;
        lu[row + col] = factor;
        for &c in upper {
            let c = c as usize;
            lu[row + c] -= factor * lu[prow + c];
        }
    }
}

/// Whether bit row `r` of a bit matrix holds column `c`.
#[inline]
fn has(bits: &[u64], words: usize, r: usize, c: usize) -> bool {
    bits[r * words + c / 64] >> (c % 64) & 1 == 1
}

/// Appends the columns `from..to` set in one bit row to the open list.
fn push_bits(lists: &mut Lists, row: &[u64], from: usize, to: usize) {
    for (w, &word) in row.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let c = w * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            if c >= to {
                return;
            }
            if c >= from {
                lists.idx.push(c as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnfet_rng::rngs::StdRng;
    use cnfet_rng::{Rng, SeedableRng};

    /// An `n × n` working set any of whose positions may be stamped.
    fn full(n: usize) -> LuFactor {
        LuFactor::with_structure(n, (0..n).flat_map(|r| (0..n).map(move |c| (r, c))))
    }

    fn solve(m: &mut LuFactor, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        m.solve_in_place(&mut x);
        x
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Dense elimination and substitution over every entry, as the solver
    /// ran before it followed the structure: the bitwise oracle.
    struct DenseLu {
        n: usize,
        vals: Vec<f64>,
        lu: Vec<f64>,
        perm: Vec<usize>,
        y: Vec<f64>,
        factored: bool,
        stats: SolveStats,
    }

    impl DenseLu {
        fn new(n: usize) -> DenseLu {
            DenseLu {
                n,
                vals: vec![0.0; n * n],
                lu: vec![0.0; n * n],
                perm: (0..n).collect(),
                y: vec![0.0; n],
                factored: false,
                stats: SolveStats::default(),
            }
        }

        fn eliminate(&mut self, col: usize) {
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
        }

        fn factor(&mut self) -> Result<(), Singular> {
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

        fn refactor(&mut self) -> Result<(), Singular> {
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

        fn solve_in_place(&mut self, b: &mut [f64]) {
            assert!(self.factored);
            self.stats.solves += 1;
            let n = self.n;
            for i in 0..n {
                let row = self.perm[i];
                let mut sum = b[row];
                for (j, yj) in self.y.iter().enumerate().take(i) {
                    sum -= self.lu[row * n + j] * yj;
                }
                self.y[i] = sum;
            }
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

    /// Refactors both solvers and, when they factor, solves three
    /// right-hand sides — about a quarter of their entries −0.0 and
    /// another quarter +0.0 — asserting bit-equal results and counters.
    fn assert_same_solves(rng: &mut StdRng, lu: &mut LuFactor, dense: &mut DenseLu, what: &str) {
        let (got, want) = (lu.refactor(), dense.refactor());
        assert_eq!(got, want, "{what}");
        if got.is_ok() {
            for _ in 0..3 {
                let b: Vec<f64> = (0..lu.n)
                    .map(|_| match rng.gen_range(0..4u32) {
                        0 => -0.0,
                        1 => 0.0,
                        _ => rng.gen_range(-1.0..1.0),
                    })
                    .collect();
                let (mut x, mut x_dense) = (b.clone(), b);
                lu.solve_in_place(&mut x);
                dense.solve_in_place(&mut x_dense);
                assert_eq!(bits(&x), bits(&x_dense), "{what}");
            }
        }
        assert_eq!(lu.stats(), dense.stats, "{what}");
    }

    /// Random sparse systems shaped like MNA matrices (most diagonals
    /// present, some missing as on a source's branch row, a few
    /// off-diagonal entries per row) solve bit for bit like dense
    /// elimination: across refactors whose stamped entries are exactly
    /// 0.0 in one round and nonzero in the next, across stale pivot
    /// orders that fall back to a fresh factorization, across singular
    /// rounds, and with −0.0 right-hand sides.
    #[test]
    fn structured_solves_match_dense_elimination_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut totals = SolveStats::default();
        let mut singular = 0;
        for case in 0..200 {
            let n = rng.gen_range(1..=40usize);
            let mut entries = Vec::new();
            for r in 0..n {
                if rng.gen_range(0..10u32) < 8 {
                    entries.push((r, r));
                }
                for _ in 0..rng.gen_range(0..=3u32) {
                    let c = rng.gen_range(0..n);
                    entries.push((r, c));
                    entries.push((c, r));
                }
            }
            let mut lu = LuFactor::with_structure(n, entries.iter().copied());
            let mut dense = DenseLu::new(n);
            for round in 0..6 {
                lu.clear();
                dense.vals.fill(0.0);
                for &(r, c) in &entries {
                    let v = match rng.gen_range(0..8u32) {
                        0 => 0.0,
                        1 => -0.0,
                        2 if r == c => rng.gen_range(2.0..4.0),
                        _ => rng.gen_range(-1.0..1.0),
                    };
                    lu.stamp(r, c, v);
                    dense.vals[r * n + c] += v;
                }
                assert_same_solves(
                    &mut rng,
                    &mut lu,
                    &mut dense,
                    &format!("case {case}/{round}"),
                );
                singular += usize::from(!lu.factored);
            }
            let s = lu.stats();
            totals.factorizations += s.factorizations;
            totals.refactorizations += s.refactorizations;
            totals.pivot_rebuilds += s.pivot_rebuilds;
        }
        assert!(totals.refactorizations > 100, "{totals:?}");
        assert!(totals.pivot_rebuilds > 20, "{totals:?}");
        assert!(singular > 0, "no singular round");
    }

    /// A ladder's elimination fills nothing, and a structure whose pivot
    /// order creates fill keeps it: an arrow matrix pivoted on its dense
    /// row first fills every other row.
    #[test]
    fn symbolic_fill_follows_the_pivot_order() {
        let n = 6;
        let ladder = (0..n).flat_map(|i| {
            let next = (i + 1 < n).then_some([(i, i + 1), (i + 1, i)]);
            std::iter::once((i, i)).chain(next.into_iter().flatten())
        });
        let mut m = LuFactor::with_structure(n, ladder);
        for i in 0..n {
            m.stamp(i, i, 4.0);
            if i + 1 < n {
                m.stamp(i, i + 1, -1.0);
                m.stamp(i + 1, i, -1.0);
            }
        }
        m.factor().unwrap();
        let entries = |m: &LuFactor| m.lower.idx.len() + m.upper.idx.len();
        assert_eq!(entries(&m), 2 * (n - 1), "a tridiagonal factor has no fill");

        // Row 0 and column 0 full, plus the diagonal; row 0 has the
        // largest entry in column 0, so it pivots first and fills all.
        let arrow = (0..n).flat_map(|i| [(0, i), (i, 0), (i, i)]);
        let mut m = LuFactor::with_structure(n, arrow);
        for i in 0..n {
            m.stamp(i, i, if i == 0 { 10.0 } else { 1.0 });
            if i > 0 {
                m.stamp(0, i, 1.0);
                m.stamp(i, 0, 1.0);
            }
        }
        m.factor().unwrap();
        assert_eq!(entries(&m), n * (n - 1), "the arrow's factors are full");
        let x = solve(&mut m, &vec![1.0; n]);
        let mut dense = DenseLu::new(n);
        dense.vals.copy_from_slice(&m.vals);
        dense.factor().unwrap();
        let mut want = vec![1.0; n];
        dense.solve_in_place(&mut want);
        assert_eq!(bits(&x), bits(&want));
    }

    #[test]
    fn solves_identity() {
        let mut m = full(3);
        for i in 0..3 {
            m.stamp(i, i, 1.0);
        }
        m.factor().unwrap();
        assert_eq!(solve(&mut m, &[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_requiring_pivot() {
        let mut m = full(2);
        m.stamp(0, 1, 1.0);
        m.stamp(1, 0, 1.0);
        m.factor().unwrap();
        let x = solve(&mut m, &[3.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let mut m = full(2);
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
        let mut m = full(n);
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
                .map(|r| (0..n).map(|c| m.vals[r * n + c] * x_true[c]).sum())
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
        let mut m = full(2);
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
        let mut m = full(2);
        m.stamp(0, 0, 5.0);
        m.clear();
        assert_eq!(m.vals, [0.0; 4]);
        assert_eq!(m.n, 2);
    }
}
