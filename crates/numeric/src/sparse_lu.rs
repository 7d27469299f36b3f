//! Sparse LU factorization (left-looking, partial pivoting) with a
//! fill-reducing column order and a reusable symbolic phase.
//!
//! This is a Gilbert–Peierls-style factorization specialized for circuit
//! matrices: column-by-column elimination with a dense working column
//! (a SPAX vector), threshold partial pivoting, and L/U stored in CSC
//! form. For the matrix sizes the TCAM experiments produce (10²–10⁴
//! unknowns with a few entries per row) this comfortably beats dense LU
//! while staying simple enough to verify exhaustively against
//! [`crate::dense::DenseMatrix::lu`].
//!
//! As in KLU (Davis & Palamadai Natarajan, ACM TOMS 37(3), 2010), the
//! columns are eliminated in an approximate-minimum-degree order `q`
//! computed on the pattern of `A + Aᵀ` (the crate's `amd` module), and the
//! pivot of column `q[k]` is its diagonal row `q[k]` whenever that entry is
//! within `REFACTOR_PIVOT_TOL` (1e-3) of the column's largest candidate,
//! which keeps the symmetric order's low fill; otherwise (e.g. the
//! structurally zero diagonal of a voltage-source branch row) the largest
//! candidate wins. The factorization is `P·A·Q = L·U`.
//!
//! Circuit matrices have a **fixed sparsity pattern** across Newton
//! iterations and time steps — only the values change. [`SparseLu::factorize`]
//! therefore captures the full symbolic result (column order, column
//! elimination patterns, pivot order, preallocated L/U storage), and
//! [`SparseLu::refactorize`] redoes only the numeric elimination over that
//! pattern with **zero allocation**, which is the production-SPICE
//! (KLU-style) split between symbolic and numeric factorization. A pivot
//! growth check guards the reused pivot order: when the new values make a
//! reused pivot relatively tiny, `refactorize` reports
//! [`NumericError::PivotDegraded`] and the caller re-pivots with
//! [`SparseLu::factorize_with_order`], reusing the cached column order —
//! the order depends only on the pattern, so it is computed once.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::amd::{amd_order, is_permutation};
use crate::sparse::CscMatrix;
use crate::{NumericError, Result};

/// Relative pivot threshold, the same 1e-3 default as KLU's partial-pivot
/// tolerance. [`SparseLu::factorize`] keeps the diagonal pivot when it is at
/// least this fraction of the largest candidate magnitude in its column;
/// [`SparseLu::refactorize`] reports a reused pivot below this fraction as
/// degraded.
const REFACTOR_PIVOT_TOL: f64 = 1e-3;

/// A sparse LU factorization `P·A·Q = L·U` of a square [`CscMatrix`].
///
/// The L/U **pattern** stored here is structural: every position reachable
/// by the elimination is kept even when its first numeric value happens to
/// be zero, so the pattern stays valid for any later value assignment with
/// the same sparsity — the invariant [`SparseLu::refactorize`] relies on.
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Column-compressed unit-lower-triangular factor (diagonal implicit).
    l_col_ptr: Vec<usize>,
    l_row_idx: Vec<usize>,
    l_values: Vec<f64>,
    /// Column-compressed upper-triangular factor: off-diagonals sorted by
    /// ascending pivot row, diagonal stored last per column.
    u_col_ptr: Vec<usize>,
    u_row_idx: Vec<usize>,
    u_values: Vec<f64>,
    /// Row permutation: `perm[k]` is the original row index placed at row k.
    perm: Vec<usize>,
    /// Column order: `q[k]` is the original column eliminated at step k.
    q: Vec<usize>,
    /// Dense working column (original-row indexed), kept zeroed between
    /// calls so `refactorize` allocates nothing.
    work: Vec<f64>,
    /// Gather buffer for `solve_in_place`.
    scratch: Vec<f64>,
}

impl SparseLu {
    /// Factorizes `a` from scratch: computes the fill-reducing column order
    /// from `a`'s pattern, then chooses pivots by threshold partial pivoting
    /// and captures the symbolic pattern for later
    /// [`SparseLu::refactorize`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] for non-square input and
    /// [`NumericError::SingularMatrix`] when no usable pivot exists in a
    /// column.
    pub fn factorize(a: &CscMatrix) -> Result<Self> {
        check_square(a)?;
        Self::factorize_ordered(a, amd_order(a))
    }

    /// Factorizes `a` from scratch with a given column order `q` (`q[k]` is
    /// the column eliminated at step k), re-choosing every pivot. This is
    /// the fallback after [`NumericError::PivotDegraded`]: pass the cached
    /// [`SparseLu::column_order`] of the same pattern, so the ordering is
    /// not recomputed.
    ///
    /// # Errors
    ///
    /// As [`SparseLu::factorize`], plus [`NumericError::DimensionMismatch`]
    /// when `q` is not a permutation of `0..n`.
    pub fn factorize_with_order(a: &CscMatrix, q: &[usize]) -> Result<Self> {
        check_square(a)?;
        let n = a.n_rows();
        if !is_permutation(q, n) {
            return Err(NumericError::DimensionMismatch {
                expected: format!("a permutation of 0..{n}"),
                found: format!("column order of len {}", q.len()),
            });
        }
        Self::factorize_ordered(a, q.to_vec())
    }

    fn factorize_ordered(a: &CscMatrix, q: Vec<usize>) -> Result<Self> {
        let n = a.n_rows();
        // pinv[orig_row] = factored position, or usize::MAX while unpivoted.
        let mut pinv = vec![usize::MAX; n];
        let mut perm = vec![usize::MAX; n];

        let mut l_col_ptr = vec![0usize];
        let mut l_row_idx: Vec<usize> = Vec::new();
        let mut l_values: Vec<f64> = Vec::new();
        let mut u_col_ptr = vec![0usize];
        let mut u_row_idx: Vec<usize> = Vec::new();
        let mut u_values: Vec<f64> = Vec::new();

        // Dense working column indexed by *original* row id.
        let mut work = vec![0.0_f64; n];
        let mut pattern: Vec<usize> = Vec::with_capacity(n);
        let mut in_pattern = vec![false; n];
        // Pivot steps still to apply to the current column, smallest first.
        let mut pending: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
        // Scratch for sorting one U column by pivot row.
        let mut u_col_sort: Vec<(usize, f64)> = Vec::with_capacity(n);

        let col_ptr = a.col_ptr();
        let row_idx = a.row_idx();
        let values = a.values();

        for (k, &col) in q.iter().enumerate() {
            // Scatter column q[k] of A into the working vector.
            pattern.clear();
            for idx in col_ptr[col]..col_ptr[col + 1] {
                let r = row_idx[idx];
                work[r] = values[idx];
                if !in_pattern[r] {
                    in_pattern[r] = true;
                    pattern.push(r);
                    if pinv[r] != usize::MAX {
                        pending.push(Reverse(pinv[r]));
                    }
                }
            }

            // Left-looking update: eliminate with every previous pivot column
            // j < k whose pivot row appears in the working pattern, in
            // ascending pivot order so fill-in cascades correctly. A row that
            // L column j brings into the pattern was unpivoted at step j, so
            // its own pivot step (if any) is later than j and the heap keeps
            // the order ascending. The merge is purely structural — a
            // numerically zero multiplier still contributes its fill pattern,
            // so the captured pattern stays valid for any later values
            // (refactorize depends on this).
            while let Some(Reverse(j)) = pending.pop() {
                let ujk = work[perm[j]];
                for idx in l_col_ptr[j]..l_col_ptr[j + 1] {
                    let r = l_row_idx[idx];
                    if !in_pattern[r] {
                        in_pattern[r] = true;
                        pattern.push(r);
                        if pinv[r] != usize::MAX {
                            pending.push(Reverse(pinv[r]));
                        }
                    }
                    work[r] -= l_values[idx] * ujk;
                }
            }

            // Threshold partial pivot among not-yet-pivoted pattern rows:
            // the diagonal row q[k] when it is within REFACTOR_PIVOT_TOL of
            // the largest candidate, else the largest candidate.
            let mut piv_row = usize::MAX;
            let mut piv_mag = 0.0_f64;
            for &r in &pattern {
                if pinv[r] == usize::MAX {
                    let m = work[r].abs();
                    if m > piv_mag {
                        piv_mag = m;
                        piv_row = r;
                    }
                }
            }
            if piv_row == usize::MAX || piv_mag < f64::MIN_POSITIVE || !piv_mag.is_finite() {
                return Err(NumericError::SingularMatrix { column: col });
            }
            if pinv[col] == usize::MAX && work[col].abs() >= REFACTOR_PIVOT_TOL * piv_mag {
                piv_row = col;
            }
            let pivot = work[piv_row];
            perm[k] = piv_row;
            pinv[piv_row] = k;

            // Emit U column k: every structurally reached pivoted row (even
            // if its value is currently zero), sorted ascending so the
            // refactorize elimination replays in pivot order; diagonal last.
            u_col_sort.clear();
            for &r in &pattern {
                let p = pinv[r];
                if p != usize::MAX && p < k {
                    u_col_sort.push((p, work[r]));
                }
            }
            u_col_sort.sort_unstable_by_key(|&(p, _)| p);
            for &(p, v) in &u_col_sort {
                u_row_idx.push(p);
                u_values.push(v);
            }
            u_row_idx.push(k);
            u_values.push(pivot);
            u_col_ptr.push(u_row_idx.len());

            // Emit L column k (all unpivoted pattern rows), scaled by pivot.
            for &r in &pattern {
                if pinv[r] == usize::MAX {
                    l_row_idx.push(r);
                    l_values.push(work[r] / pivot);
                }
            }
            l_col_ptr.push(l_row_idx.len());

            // Clear the working vector.
            for &r in &pattern {
                work[r] = 0.0;
                in_pattern[r] = false;
            }
        }

        Ok(Self {
            n,
            l_col_ptr,
            l_row_idx,
            l_values,
            u_col_ptr,
            u_row_idx,
            u_values,
            perm,
            q,
            work,
            scratch: vec![0.0; n],
        })
    }

    /// Recomputes the numeric factors for `a` reusing the stored symbolic
    /// pattern and pivot order — zero allocation, no pattern recomputation.
    ///
    /// `a` must have the same sparsity pattern as the matrix this
    /// factorization was created from (the fixed-pattern invariant of MNA
    /// systems); entries outside the captured pattern would be silently
    /// mis-handled, which is why the circuit layer owns that contract.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] when `a` has a different size.
    /// * [`NumericError::PivotDegraded`] when a reused pivot fails the
    ///   relative growth check (or became exactly zero / non-finite). The
    ///   factorization content is unspecified afterwards; the caller must
    ///   fall back to [`SparseLu::factorize_with_order`] with this
    ///   factorization's [`SparseLu::column_order`].
    pub fn refactorize(&mut self, a: &CscMatrix) -> Result<()> {
        if a.n_rows() != self.n || a.n_cols() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("{0}x{0} matrix", self.n),
                found: format!("{}x{}", a.n_rows(), a.n_cols()),
            });
        }
        let col_ptr = a.col_ptr();
        let row_idx = a.row_idx();
        let values = a.values();

        for k in 0..self.n {
            // Scatter column q[k] of A (work is zeroed between columns).
            let col = self.q[k];
            for idx in col_ptr[col]..col_ptr[col + 1] {
                self.work[row_idx[idx]] = values[idx];
            }

            // Eliminate along the stored U pattern, ascending pivot order.
            let ulo = self.u_col_ptr[k];
            let uhi = self.u_col_ptr[k + 1];
            for uidx in ulo..uhi - 1 {
                let j = self.u_row_idx[uidx];
                let ujk = self.work[self.perm[j]];
                self.u_values[uidx] = ujk;
                if ujk != 0.0 {
                    for lidx in self.l_col_ptr[j]..self.l_col_ptr[j + 1] {
                        self.work[self.l_row_idx[lidx]] -= self.l_values[lidx] * ujk;
                    }
                }
            }

            // Reused pivot with growth check: candidates for this column
            // under full pivoting would be the pivot row plus every L row.
            let piv_row = self.perm[k];
            let pivot = self.work[piv_row];
            let mut cand_max = pivot.abs();
            for lidx in self.l_col_ptr[k]..self.l_col_ptr[k + 1] {
                cand_max = cand_max.max(self.work[self.l_row_idx[lidx]].abs());
            }
            if !pivot.is_finite()
                || pivot.abs() < f64::MIN_POSITIVE
                || pivot.abs() < REFACTOR_PIVOT_TOL * cand_max
            {
                // Leave the workspace clean for the next attempt.
                self.work.fill(0.0);
                return Err(NumericError::PivotDegraded { column: col });
            }
            self.u_values[uhi - 1] = pivot;

            // Emit L column k and clear the touched work entries.
            for lidx in self.l_col_ptr[k]..self.l_col_ptr[k + 1] {
                let r = self.l_row_idx[lidx];
                self.l_values[lidx] = self.work[r] / pivot;
                self.work[r] = 0.0;
            }
            self.work[piv_row] = 0.0;
            for uidx in ulo..uhi - 1 {
                self.work[self.perm[self.u_row_idx[uidx]]] = 0.0;
            }
        }
        Ok(())
    }

    /// Solves `A x = b` with the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("len {}", self.n),
                found: format!("len {}", b.len()),
            });
        }
        let mut x = b.to_vec();
        let mut gather = vec![0.0; self.n];
        self.solve_buffers(&mut x, &mut gather);
        Ok(x)
    }

    /// Solves `A x = b` in place: `b` enters as the right-hand side and
    /// exits as the solution. Uses the preallocated internal gather buffer,
    /// so the hot loop performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve_in_place(&mut self, b: &mut [f64]) -> Result<()> {
        if b.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("len {}", self.n),
                found: format!("len {}", b.len()),
            });
        }
        // Split-borrow the scratch out so `self` stays shareable.
        let mut gather = std::mem::take(&mut self.scratch);
        self.solve_buffers(b, &mut gather);
        self.scratch = gather;
        Ok(())
    }

    /// Core triangular solves over caller-provided buffers. `x` holds `b`
    /// on entry and the solution on exit; `gather` is overwritten.
    fn solve_buffers(&self, x: &mut [f64], gather: &mut [f64]) {
        // Forward solve L y = P b. y is kept in *original-row* space to
        // match L's row indices.
        for k in 0..self.n {
            let pr = self.perm[k];
            let yk = x[pr];
            if yk != 0.0 {
                for idx in self.l_col_ptr[k]..self.l_col_ptr[k + 1] {
                    x[self.l_row_idx[idx]] -= self.l_values[idx] * yk;
                }
            }
        }
        // Gather into pivot order.
        for k in 0..self.n {
            gather[k] = x[self.perm[k]];
        }
        // Back solve U z = y. U column k: off-diagonals (rows < k) then
        // diagonal last.
        for k in (0..self.n).rev() {
            let lo = self.u_col_ptr[k];
            let hi = self.u_col_ptr[k + 1];
            let diag = self.u_values[hi - 1];
            let xk = gather[k] / diag;
            gather[k] = xk;
            if xk != 0.0 {
                for idx in lo..hi - 1 {
                    gather[self.u_row_idx[idx]] -= self.u_values[idx] * xk;
                }
            }
        }
        // Undo the column order: x = Q z.
        for (k, &col) in self.q.iter().enumerate() {
            x[col] = gather[k];
        }
    }

    /// System dimension.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total stored entries in L and U (fill-in metric).
    #[must_use]
    pub fn factor_nnz(&self) -> usize {
        self.l_values.len() + self.u_values.len()
    }

    /// The column elimination order: entry k is the original column
    /// eliminated at step k.
    #[must_use]
    pub fn column_order(&self) -> &[usize] {
        &self.q
    }
}

fn check_square(a: &CscMatrix) -> Result<()> {
    if a.n_rows() == a.n_cols() {
        Ok(())
    } else {
        Err(NumericError::DimensionMismatch {
            expected: "square matrix".into(),
            found: format!("{}x{}", a.n_rows(), a.n_cols()),
        })
    }
}

/// Numeric backend for structure-shared Monte-Carlo sweeps: one symbolic
/// analysis (pattern, pivot order, fill-in) shared across `n_lanes`
/// independent numeric factorizations whose values are laid out SoA across
/// lanes. The CPU implementation is [`BatchedLu`]; the trait is the seam a
/// GPU backend would slot into (same plane layout, device-side kernels).
///
/// Plane layout contract: a per-entry quantity `q` for lane `l` lives at
/// `q[entry * n_lanes + l]`, so the innermost lane loop is contiguous and
/// vectorizable. Matrix value planes are indexed by the CSC entry order of
/// the pattern matrix; solution planes by unknown index.
pub trait SweepBackend {
    /// System dimension (unknowns per lane).
    fn n(&self) -> usize;

    /// Number of lanes factored per call.
    fn n_lanes(&self) -> usize;

    /// Recomputes the numeric factors of every *active* lane from the SoA
    /// value planes (`values[entry * n_lanes + lane]`, entry-indexed by
    /// `pattern`'s CSC order). Inactive lanes are untouched. Per-lane
    /// failures (degraded pivot, non-finite pivot) land in `status` — a lane
    /// that fails is cleaned up and skipped for the rest of the pass, and
    /// never poisons its neighbours.
    ///
    /// `pattern` must have the sparsity pattern the backend was built from.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with `n`/`n_lanes`/the pattern.
    fn refactorize_lanes(
        &mut self,
        pattern: &CscMatrix,
        values: &[f64],
        active: &[bool],
        status: &mut [Option<NumericError>],
    );

    /// Solves one system per active lane with the current factors: `x`
    /// (`x[i * n_lanes + lane]`) holds the right-hand sides on entry and the
    /// solutions on exit. Inactive lanes' planes are untouched.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with `n`/`n_lanes`.
    fn solve_lanes(&mut self, x: &mut [f64], active: &[bool]);
}

/// CPU lane-batched LU: the [`SweepBackend`] used by the batched transient
/// engine. Built from one scalar [`SparseLu`] whose symbolic pattern and
/// pivot order are shared by every lane; numeric factors live in SoA planes
/// so the refactorization and triangular-solve inner loops run contiguously
/// across lanes.
///
/// Per-lane arithmetic replays the scalar [`SparseLu::refactorize`] /
/// [`SparseLu::solve_in_place`] operation order *exactly* (same column
/// order, same elimination order, same zero-skip guards), so a lane of a
/// batch is bit-identical to running that lane's values through the scalar
/// path — the property the batched-vs-scalar equivalence tests pin down.
#[derive(Debug, Clone)]
pub struct BatchedLu {
    n: usize,
    n_lanes: usize,
    // Shared symbolic structure, cloned from the seed factorization.
    l_col_ptr: Vec<usize>,
    l_row_idx: Vec<usize>,
    u_col_ptr: Vec<usize>,
    u_row_idx: Vec<usize>,
    perm: Vec<usize>,
    q: Vec<usize>,
    // SoA numeric planes: `[entry * n_lanes + lane]`.
    l_values: Vec<f64>,
    u_values: Vec<f64>,
    /// Dense working planes, `[orig_row * n_lanes + lane]`, zeroed between
    /// calls per the same invariant as the scalar `work`.
    work: Vec<f64>,
    /// Per-lane scratch (`yk`/`xk` of the current column).
    lane_tmp: Vec<f64>,
    /// Gather planes for the batched triangular solves.
    gather: Vec<f64>,
}

impl BatchedLu {
    /// Builds the batch around `seed`'s symbolic structure and installs the
    /// seed's numeric factors into lane `seed_lane` verbatim. Other lanes
    /// hold zeros until the first [`SweepBackend::refactorize_lanes`].
    ///
    /// Installing the seed values (rather than refactorizing lane
    /// `seed_lane` too) preserves bit-identity with the scalar path, whose
    /// first solve uses the factors produced by full-pivoting
    /// [`SparseLu::factorize`] directly.
    ///
    /// # Panics
    ///
    /// Panics when `n_lanes == 0` or `seed_lane >= n_lanes`.
    #[must_use]
    pub fn from_seed(seed: &SparseLu, n_lanes: usize, seed_lane: usize) -> Self {
        assert!(n_lanes > 0, "batched LU needs at least one lane");
        assert!(seed_lane < n_lanes, "seed lane out of range");
        let n = seed.n;
        let mut l_values = vec![0.0; seed.l_values.len() * n_lanes];
        let mut u_values = vec![0.0; seed.u_values.len() * n_lanes];
        for (e, &v) in seed.l_values.iter().enumerate() {
            l_values[e * n_lanes + seed_lane] = v;
        }
        for (e, &v) in seed.u_values.iter().enumerate() {
            u_values[e * n_lanes + seed_lane] = v;
        }
        Self {
            n,
            n_lanes,
            l_col_ptr: seed.l_col_ptr.clone(),
            l_row_idx: seed.l_row_idx.clone(),
            u_col_ptr: seed.u_col_ptr.clone(),
            u_row_idx: seed.u_row_idx.clone(),
            perm: seed.perm.clone(),
            q: seed.q.clone(),
            l_values,
            u_values,
            work: vec![0.0; n * n_lanes],
            lane_tmp: vec![0.0; n_lanes],
            gather: vec![0.0; n * n_lanes],
        }
    }

    /// The shared column elimination order (see [`SparseLu::column_order`]);
    /// a lane that degrades re-pivots privately with
    /// [`SparseLu::factorize_with_order`] over this order.
    #[must_use]
    pub fn column_order(&self) -> &[usize] {
        &self.q
    }

    /// Copies one lane's solution/right-hand-side plane into a contiguous
    /// buffer (`out[i] = plane[i * n_lanes + lane]`).
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or an out-of-range lane.
    pub fn gather_lane(&self, plane: &[f64], lane: usize, out: &mut [f64]) {
        assert!(lane < self.n_lanes);
        assert_eq!(out.len() * self.n_lanes, plane.len());
        for (i, o) in out.iter_mut().enumerate() {
            *o = plane[i * self.n_lanes + lane];
        }
    }
}

impl SweepBackend for BatchedLu {
    fn n(&self) -> usize {
        self.n
    }

    fn n_lanes(&self) -> usize {
        self.n_lanes
    }

    fn refactorize_lanes(
        &mut self,
        pattern: &CscMatrix,
        values: &[f64],
        active: &[bool],
        status: &mut [Option<NumericError>],
    ) {
        let nl = self.n_lanes;
        assert_eq!(pattern.n_rows(), self.n, "pattern dimension mismatch");
        assert_eq!(pattern.n_cols(), self.n, "pattern dimension mismatch");
        assert_eq!(values.len(), pattern.nnz() * nl, "value plane length");
        assert_eq!(active.len(), nl, "active mask length");
        assert_eq!(status.len(), nl, "status slice length");

        let col_ptr = pattern.col_ptr();
        let row_idx = pattern.row_idx();
        // Lanes still being factored this pass: starts as the active set and
        // shrinks as lanes fail their pivot check.
        let mut live: Vec<bool> = active.to_vec();
        for s in status.iter_mut() {
            *s = None;
        }

        for k in 0..self.n {
            let all_live = live.iter().all(|&a| a);

            // Scatter column q[k] of A into the working planes.
            let col = self.q[k];
            for idx in col_ptr[col]..col_ptr[col + 1] {
                let r = row_idx[idx];
                let src = &values[idx * nl..(idx + 1) * nl];
                let dst = &mut self.work[r * nl..(r + 1) * nl];
                if all_live {
                    dst.copy_from_slice(src);
                } else {
                    for lane in 0..nl {
                        if live[lane] {
                            dst[lane] = src[lane];
                        }
                    }
                }
            }

            // Eliminate along the stored U pattern, ascending pivot order —
            // the same replay as the scalar `refactorize`, with the lane
            // loop innermost over contiguous planes.
            let ulo = self.u_col_ptr[k];
            let uhi = self.u_col_ptr[k + 1];
            for uidx in ulo..uhi - 1 {
                let j = self.u_row_idx[uidx];
                let pr = self.perm[j];
                let mut all_nonzero = all_live;
                let mut any_nonzero = false;
                {
                    let ujk_dst = &mut self.u_values[uidx * nl..(uidx + 1) * nl];
                    let ujk_src = &self.work[pr * nl..(pr + 1) * nl];
                    for lane in 0..nl {
                        if live[lane] {
                            ujk_dst[lane] = ujk_src[lane];
                            any_nonzero |= ujk_src[lane] != 0.0;
                            all_nonzero &= ujk_src[lane] != 0.0;
                        } else {
                            all_nonzero = false;
                        }
                    }
                }
                // Whole-column skip, mirroring the scalar `ujk != 0.0` fast
                // path: the union U pattern is mostly numerically zero at any
                // one operating point (open relays, off transistors), and the
                // lanes share that zero structure, so this skip carries the
                // bulk of the scalar path's sparsity win into the batch.
                if !any_nonzero {
                    continue;
                }
                for lidx in self.l_col_ptr[j]..self.l_col_ptr[j + 1] {
                    let r = self.l_row_idx[lidx];
                    let lv = &self.l_values[lidx * nl..(lidx + 1) * nl];
                    let ujk = &self.u_values[uidx * nl..(uidx + 1) * nl];
                    let dst = &mut self.work[r * nl..(r + 1) * nl];
                    if all_nonzero {
                        // Contiguous unguarded FMA across lanes.
                        for lane in 0..nl {
                            dst[lane] -= lv[lane] * ujk[lane];
                        }
                    } else {
                        // Per-lane zero-skip exactly as the scalar path.
                        for lane in 0..nl {
                            if live[lane] && ujk[lane] != 0.0 {
                                dst[lane] -= lv[lane] * ujk[lane];
                            }
                        }
                    }
                }
            }

            // Reused pivot with the scalar growth check, per lane.
            let piv_row = self.perm[k];
            for lane in 0..nl {
                if !live[lane] {
                    continue;
                }
                let pivot = self.work[piv_row * nl + lane];
                let mut cand_max = pivot.abs();
                for lidx in self.l_col_ptr[k]..self.l_col_ptr[k + 1] {
                    cand_max = cand_max.max(self.work[self.l_row_idx[lidx] * nl + lane].abs());
                }
                if !pivot.is_finite()
                    || pivot.abs() < f64::MIN_POSITIVE
                    || pivot.abs() < REFACTOR_PIVOT_TOL * cand_max
                {
                    status[lane] = Some(NumericError::PivotDegraded { column: col });
                    live[lane] = false;
                    // Leave this lane's workspace clean (the scalar path
                    // zeroes its whole work vector on failure).
                    for r in 0..self.n {
                        self.work[r * nl + lane] = 0.0;
                    }
                    continue;
                }
                self.u_values[(uhi - 1) * nl + lane] = pivot;
            }

            // Emit L column k and clear the touched work entries for the
            // lanes still live.
            for lidx in self.l_col_ptr[k]..self.l_col_ptr[k + 1] {
                let r = self.l_row_idx[lidx];
                for (lane, &is_live) in live.iter().enumerate() {
                    if is_live {
                        let pivot = self.u_values[(uhi - 1) * nl + lane];
                        let w = self.work[r * nl + lane];
                        self.l_values[lidx * nl + lane] = w / pivot;
                        self.work[r * nl + lane] = 0.0;
                    }
                }
            }
            for (lane, &is_live) in live.iter().enumerate() {
                if is_live {
                    self.work[piv_row * nl + lane] = 0.0;
                }
            }
            for uidx in ulo..uhi - 1 {
                let pr = self.perm[self.u_row_idx[uidx]];
                for (lane, &is_live) in live.iter().enumerate() {
                    if is_live {
                        self.work[pr * nl + lane] = 0.0;
                    }
                }
            }
        }
    }

    fn solve_lanes(&mut self, x: &mut [f64], active: &[bool]) {
        let nl = self.n_lanes;
        assert_eq!(x.len(), self.n * nl, "solution plane length");
        assert_eq!(active.len(), nl, "active mask length");
        let all = active.iter().all(|&a| a);

        // Forward solve L y = P b, in original-row space, replaying the
        // scalar op order (including the yk == 0 skip) per lane.
        for k in 0..self.n {
            let pr = self.perm[k];
            let mut any_nonzero = false;
            let mut all_nonzero = all;
            {
                let yk_src = &x[pr * nl..(pr + 1) * nl];
                for lane in 0..nl {
                    let live = active[lane];
                    let yk = if live { yk_src[lane] } else { 0.0 };
                    self.lane_tmp[lane] = yk;
                    any_nonzero |= yk != 0.0;
                    all_nonzero &= live && yk != 0.0;
                }
            }
            if !any_nonzero {
                continue;
            }
            for idx in self.l_col_ptr[k]..self.l_col_ptr[k + 1] {
                let r = self.l_row_idx[idx];
                let lv = &self.l_values[idx * nl..(idx + 1) * nl];
                let dst = &mut x[r * nl..(r + 1) * nl];
                if all_nonzero {
                    for lane in 0..nl {
                        dst[lane] -= lv[lane] * self.lane_tmp[lane];
                    }
                } else {
                    for lane in 0..nl {
                        let yk = self.lane_tmp[lane];
                        if yk != 0.0 {
                            dst[lane] -= lv[lane] * yk;
                        }
                    }
                }
            }
        }

        // Gather into pivot order.
        for k in 0..self.n {
            let pr = self.perm[k];
            let src = &x[pr * nl..(pr + 1) * nl];
            let dst = &mut self.gather[k * nl..(k + 1) * nl];
            if all {
                dst.copy_from_slice(src);
            } else {
                for lane in 0..nl {
                    if active[lane] {
                        dst[lane] = src[lane];
                    }
                }
            }
        }

        // Back solve U x = z; off-diagonals first, diagonal stored last.
        for k in (0..self.n).rev() {
            let lo = self.u_col_ptr[k];
            let hi = self.u_col_ptr[k + 1];
            let mut any_nonzero = false;
            let mut all_nonzero = all;
            {
                let diag = &self.u_values[(hi - 1) * nl..hi * nl];
                for lane in 0..nl {
                    let live = active[lane];
                    let xk = if live {
                        self.gather[k * nl + lane] / diag[lane]
                    } else {
                        0.0
                    };
                    if live {
                        self.gather[k * nl + lane] = xk;
                    }
                    self.lane_tmp[lane] = xk;
                    any_nonzero |= xk != 0.0;
                    all_nonzero &= live && xk != 0.0;
                }
            }
            if !any_nonzero {
                continue;
            }
            for idx in lo..hi - 1 {
                let r = self.u_row_idx[idx];
                let uv = &self.u_values[idx * nl..(idx + 1) * nl];
                let dst = &mut self.gather[r * nl..(r + 1) * nl];
                if all_nonzero {
                    for lane in 0..nl {
                        dst[lane] -= uv[lane] * self.lane_tmp[lane];
                    }
                } else {
                    for lane in 0..nl {
                        let xk = self.lane_tmp[lane];
                        if xk != 0.0 {
                            dst[lane] -= uv[lane] * xk;
                        }
                    }
                }
            }
        }

        // Copy the solutions back out through the column order: x = Q z.
        for (k, &col) in self.q.iter().enumerate() {
            let src = &self.gather[k * nl..(k + 1) * nl];
            let dst = &mut x[col * nl..(col + 1) * nl];
            if all {
                dst.copy_from_slice(src);
            } else {
                for lane in 0..nl {
                    if active[lane] {
                        dst[lane] = src[lane];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::sparse::TripletMatrix;

    fn residual_inf(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x).unwrap();
        ax.iter()
            .zip(b)
            .fold(0.0_f64, |m, (p, q)| m.max((p - q).abs()))
    }

    #[test]
    fn diagonal_solve() {
        let mut t = TripletMatrix::new(3, 3);
        t.add(0, 0, 2.0);
        t.add(1, 1, 4.0);
        t.add(2, 2, 8.0);
        let (a, _) = t.to_csc().unwrap();
        let lu = SparseLu::factorize(&a).unwrap();
        let x = lu.solve(&[2.0, 4.0, 8.0]).unwrap();
        assert_eq!(x, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn pivoting_required() {
        // (0,0) is zero; factorization must swap rows.
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 1, 2.0);
        t.add(1, 0, 3.0);
        t.add(1, 1, 1.0);
        let (a, _) = t.to_csc().unwrap();
        let lu = SparseLu::factorize(&a).unwrap();
        let b = [4.0, 5.0];
        let x = lu.solve(&b).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(1, 0, 2.0);
        t.add(0, 1, 2.0);
        t.add(1, 1, 4.0);
        let (a, _) = t.to_csc().unwrap();
        assert!(matches!(
            SparseLu::factorize(&a),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn structurally_missing_column_is_singular() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(1, 0, 1.0); // column 1 entirely empty except we must add something somewhere
        t.add(0, 1, 0.0);
        let (a, _) = t.to_csc().unwrap();
        assert!(SparseLu::factorize(&a).is_err());
    }

    /// A circuit-flavoured random pattern: dominant diagonal plus ring
    /// couplings, values drawn from `rng`.
    fn ring_system(n: usize, rng: &mut SplitMix64) -> (CscMatrix, Vec<f64>) {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 3.0 + rng.uniform(-0.5, 0.5));
            let j = (i + 1) % n;
            t.add(i, j, rng.uniform(-0.5, 0.5));
            t.add(j, i, rng.uniform(-0.5, 0.5));
        }
        let (a, _) = t.to_csc().unwrap();
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-0.5, 0.5)).collect();
        (a, b)
    }

    /// A bordered (arrow) random pattern with the border first: row and
    /// column 0 couple to every unknown, as a shared supply line does in
    /// an array netlist. Natural order fills it completely.
    fn arrow_system(n: usize, rng: &mut SplitMix64) -> (CscMatrix, Vec<f64>) {
        let mut t = TripletMatrix::new(n, n);
        t.add(0, 0, n as f64);
        for i in 1..n {
            t.add(i, i, 3.0 + rng.uniform(-0.5, 0.5));
            t.add(0, i, rng.uniform(-0.5, 0.5));
            t.add(i, 0, rng.uniform(-0.5, 0.5));
        }
        let (a, _) = t.to_csc().unwrap();
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-0.5, 0.5)).collect();
        (a, b)
    }

    /// An unsymmetric random pattern: a dominant diagonal, about three
    /// scattered off-diagonals per column, and unknown 1 coupled to every
    /// other one (a hub that the ordering must keep for last).
    fn scatter_system(n: usize, rng: &mut SplitMix64) -> (CscMatrix, Vec<f64>) {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 4.0 + rng.uniform(-0.5, 0.5));
            if n > 1 && i != 1 {
                t.add(1, i, rng.uniform(-0.1, 0.1));
            }
        }
        for _ in 0..3 * n {
            let (i, j) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
            t.add(i, j, rng.uniform(-0.5, 0.5));
        }
        let (a, _) = t.to_csc().unwrap();
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-0.5, 0.5)).collect();
        (a, b)
    }

    fn assert_matches_dense(a: &CscMatrix, b: &[f64], what: &str) {
        let xs = SparseLu::factorize(a).unwrap().solve(b).unwrap();
        let xd = a.to_dense().solve(b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-9, "{what}: {s} vs {d}");
        }
    }

    #[test]
    fn matches_dense_on_random_systems() {
        let mut rng = SplitMix64::new(0x9E37_79B9);
        for n in [2usize, 5, 12, 30, 64] {
            let (a, b) = ring_system(n, &mut rng);
            assert_matches_dense(&a, &b, &format!("ring n={n}"));
            let (a, b) = arrow_system(n, &mut rng);
            assert_matches_dense(&a, &b, &format!("arrow n={n}"));
            let (a, b) = scatter_system(n, &mut rng);
            assert_matches_dense(&a, &b, &format!("scatter n={n}"));
        }
    }

    #[test]
    fn column_order_is_a_permutation() {
        let mut rng = SplitMix64::new(5);
        for n in [1usize, 2, 7, 40, 300] {
            let systems = [
                ring_system(n, &mut rng),
                arrow_system(n, &mut rng),
                scatter_system(n, &mut rng),
            ];
            for (a, _) in systems {
                let lu = SparseLu::factorize(&a).unwrap();
                assert!(is_permutation(lu.column_order(), n), "n={n}");
            }
        }
    }

    #[test]
    fn arrow_with_border_first_has_linear_fill() {
        let mut rng = SplitMix64::new(17);
        let n = 200;
        let (a, b) = arrow_system(n, &mut rng);
        // Same pattern with each leaf column's border entry (row 0) larger
        // than its diagonal: a pure magnitude pivot takes the border row in
        // the first leaf column, and every later leaf column then picks up
        // fill through it (2.5x nnz(A) here); the diagonal preference keeps
        // the fill at the pattern's own size.
        let mut weak_diag = a.clone();
        for col in 1..n {
            let idx = a.col_ptr()[col];
            assert_eq!(a.row_idx()[idx], 0, "row 0 leads each column");
            weak_diag.values_mut()[idx] = 5.0 + rng.uniform(0.0, 1.0);
        }
        for a in [a, weak_diag] {
            let lu = SparseLu::factorize(&a).unwrap();
            assert!(
                lu.factor_nnz() <= 2 * a.nnz(),
                "ordered fill {} vs nnz(A) {}",
                lu.factor_nnz(),
                a.nnz()
            );
            // Natural order eliminates the border first and fills
            // everything.
            let identity: Vec<usize> = (0..n).collect();
            let natural = SparseLu::factorize_with_order(&a, &identity).unwrap();
            assert!(
                natural.factor_nnz() >= n * n,
                "natural fill {}",
                natural.factor_nnz()
            );
            let (xo, xn) = (lu.solve(&b).unwrap(), natural.solve(&b).unwrap());
            for (o, m) in xo.iter().zip(&xn) {
                assert!((o - m).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn structurally_zero_diagonal_forces_off_diagonal_pivot() {
        // MNA of a grounded voltage source E driving node a, with node a
        // tied to node b by G2 and both nodes to ground (G1, G3). Unknowns:
        // i_src, v_a, v_b. The branch row 0 has no diagonal entry, and its
        // column has the lowest degree, so it is eliminated first while
        // nothing has filled its diagonal yet.
        let (g1, g2, g3, e) = (1e-3, 2e-3, 5e-4, 0.8);
        let mut t = TripletMatrix::new(3, 3);
        t.add(1, 1, g1 + g2);
        t.add(1, 2, -g2);
        t.add(2, 1, -g2);
        t.add(2, 2, g2 + g3);
        t.add(1, 0, 1.0);
        t.add(0, 1, 1.0);
        let (a, _) = t.to_csc().unwrap();
        let lu = SparseLu::factorize(&a).unwrap();
        assert_eq!(lu.column_order()[0], 0, "branch column first");
        assert_eq!(lu.perm[0], 1, "its pivot is the node-a row");
        let b = [e, 0.0, 0.0];
        let x = lu.solve(&b).unwrap();
        assert!((x[1] - e).abs() < 1e-12);
        assert!((x[2] - e * g2 / (g2 + g3)).abs() < 1e-12);
        assert!(residual_inf(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn pivot_degraded_fallback_keeps_cached_order() {
        let mut rng = SplitMix64::new(0xDE6);
        let n = 30;
        let (a0, b) = arrow_system(n, &mut rng);
        let mut lu = SparseLu::factorize(&a0).unwrap();
        let q0 = lu.column_order().to_vec();
        // Shrink leaf 5's diagonal far below its border coupling: the
        // reused diagonal pivot for column 5 is no longer acceptable.
        let mut a1 = a0.clone();
        for idx in a0.col_ptr()[5]..a0.col_ptr()[6] {
            if a0.row_idx()[idx] == 5 {
                a1.values_mut()[idx] = 1e-9;
            }
        }
        assert_eq!(
            lu.refactorize(&a1),
            Err(NumericError::PivotDegraded { column: 5 })
        );
        let fresh = SparseLu::factorize_with_order(&a1, lu.column_order()).unwrap();
        assert_eq!(fresh.column_order(), q0.as_slice());
        assert_ne!(
            fresh.perm, lu.perm,
            "column 5 must now pivot off the diagonal"
        );
        let x = fresh.solve(&b).unwrap();
        assert!(residual_inf(&a1, &x, &b) < 1e-9);
        // Not a permutation of 0..n: rejected, not mis-factored.
        assert!(matches!(
            SparseLu::factorize_with_order(&a1, &q0[1..]),
            Err(NumericError::DimensionMismatch { .. })
        ));
        let mut dup = q0.clone();
        dup[1] = dup[0];
        assert!(SparseLu::factorize_with_order(&a1, &dup).is_err());
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let mut rng = SplitMix64::new(11);
        let (a, b) = ring_system(20, &mut rng);
        let mut lu = SparseLu::factorize(&a).unwrap();
        let x_ref = lu.solve(&b).unwrap();
        let mut x = b.clone();
        lu.solve_in_place(&mut x).unwrap();
        assert_eq!(x, x_ref);
        // And the scratch reuse survives a second call.
        let mut x2 = b.clone();
        lu.solve_in_place(&mut x2).unwrap();
        assert_eq!(x2, x_ref);
    }

    #[test]
    fn refactorize_identical_values_is_identity() {
        let mut rng = SplitMix64::new(21);
        let (a, b) = ring_system(24, &mut rng);
        let mut lu = SparseLu::factorize(&a).unwrap();
        let x1 = lu.solve(&b).unwrap();
        lu.refactorize(&a).unwrap();
        let x2 = lu.solve(&b).unwrap();
        assert_eq!(x1, x2, "same values must reproduce bit-identical factors");
    }

    #[test]
    fn refactorize_matches_fresh_factorization() {
        // Property test: fixed pattern, randomized values. The cached
        // symbolic refactorization must agree with a from-scratch
        // factorization to 1e-12 on every solve.
        let mut rng = SplitMix64::new(0xD1CE);
        for n in [4usize, 9, 33, 80] {
            let (a0, _) = ring_system(n, &mut rng);
            let mut lu = SparseLu::factorize(&a0).unwrap();
            for _round in 0..25 {
                // New values on the same pattern (keep diagonals dominant so
                // the reused pivot order stays healthy).
                let mut a = a0.clone();
                let nv = a.values().len();
                for idx in 0..nv {
                    let on_diag = a0.values()[idx].abs() >= 2.0;
                    a.values_mut()[idx] = if on_diag {
                        3.0 + rng.uniform(-0.5, 0.5)
                    } else {
                        rng.uniform(-0.5, 0.5)
                    };
                }
                let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
                lu.refactorize(&a).unwrap();
                let x_re = lu.solve(&b).unwrap();
                let x_fresh = SparseLu::factorize(&a).unwrap().solve(&b).unwrap();
                for (p, q) in x_re.iter().zip(&x_fresh) {
                    assert!((p - q).abs() < 1e-12, "n={n}: {p} vs {q}");
                }
            }
        }
    }

    #[test]
    fn refactorize_captures_fill_that_was_numerically_zero() {
        // The first factorization sees a value of exactly 0.0 on a
        // structural entry; a later refactorize makes it nonzero. The
        // structural pattern must have kept the slot.
        let mut t = TripletMatrix::new(3, 3);
        t.add(0, 0, 2.0);
        t.add(1, 0, 0.0); // structurally present, numerically zero
        t.add(1, 1, 2.0);
        t.add(2, 1, 1.0);
        t.add(0, 2, 1.0);
        t.add(2, 2, 2.0);
        let (a0, _) = t.to_csc().unwrap();
        let mut lu = SparseLu::factorize(&a0).unwrap();

        let mut a1 = a0.clone();
        // Flip the zero entry on: fill at (1,2) now matters.
        for (idx, _) in a0.values().iter().enumerate() {
            if a1.values()[idx] == 0.0 {
                a1.values_mut()[idx] = 1.5;
            }
        }
        let b = [1.0, -2.0, 0.5];
        lu.refactorize(&a1).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(residual_inf(&a1, &x, &b) < 1e-12);
    }

    #[test]
    fn degraded_pivot_reports_fallback_not_wrong_answer() {
        // Factorize with a dominant (0,0); then shrink it so the reused
        // pivot order is catastrophically bad for the new values.
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 10.0);
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        t.add(1, 1, 10.0);
        let (a0, _) = t.to_csc().unwrap();
        let mut lu = SparseLu::factorize(&a0).unwrap();

        let mut a1 = a0.clone();
        for idx in 0..a1.values().len() {
            let (r, v) = (a0.row_idx()[idx], a0.values()[idx]);
            // Column-major CSC: identify (0,0) by column 0 / row 0.
            if idx < a0.col_ptr()[1] && r == 0 && v == 10.0 {
                a1.values_mut()[idx] = 1e-9;
            }
        }
        match lu.refactorize(&a1) {
            Err(NumericError::PivotDegraded { .. }) => {
                // The documented fallback path must still solve correctly.
                let fresh = SparseLu::factorize(&a1).unwrap();
                let b = [1.0, 2.0];
                let x = fresh.solve(&b).unwrap();
                assert!(residual_inf(&a1, &x, &b) < 1e-9);
            }
            other => panic!("expected PivotDegraded, got {other:?}"),
        }
        // After the failed refactorize, the workspace must be clean enough
        // for a subsequent successful refactorize on the original values.
        lu.refactorize(&a0).unwrap();
        let x = lu.solve(&[1.0, 2.0]).unwrap();
        assert!(residual_inf(&a0, &x, &[1.0, 2.0]) < 1e-12);
    }

    #[test]
    fn refactorize_dimension_check() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(1, 1, 1.0);
        let (a, _) = t.to_csc().unwrap();
        let mut lu = SparseLu::factorize(&a).unwrap();
        let mut t3 = TripletMatrix::new(3, 3);
        for i in 0..3 {
            t3.add(i, i, 1.0);
        }
        let (a3, _) = t3.to_csc().unwrap();
        assert!(matches!(
            lu.refactorize(&a3),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn fill_in_reported() {
        let mut t = TripletMatrix::new(3, 3);
        for i in 0..3 {
            t.add(i, i, 1.0);
        }
        let (a, _) = t.to_csc().unwrap();
        let lu = SparseLu::factorize(&a).unwrap();
        assert_eq!(lu.factor_nnz(), 3); // diagonal only: U diag, empty L
        assert_eq!(lu.n(), 3);
    }

    /// Strides contiguous per-lane vectors into an SoA plane.
    fn to_plane(lanes: &[Vec<f64>]) -> Vec<f64> {
        let nl = lanes.len();
        let n = lanes[0].len();
        let mut plane = vec![0.0; n * nl];
        for (lane, v) in lanes.iter().enumerate() {
            for (i, &x) in v.iter().enumerate() {
                plane[i * nl + lane] = x;
            }
        }
        plane
    }

    #[test]
    fn batched_lane_is_bit_identical_to_scalar() {
        // Each lane: same pattern, different values. Every lane's solution
        // must match the scalar factorize-once-then-refactorize path BIT
        // FOR BIT (identical op order), including the seeded lane 0 — on
        // patterns whose column order is not the identity.
        let mut rng = SplitMix64::new(0xBA7C);
        let ring = ring_system(40, &mut rng).0;
        let arrow = arrow_system(40, &mut rng).0;
        for a0 in [ring, arrow] {
            let q = SparseLu::factorize(&a0).unwrap().column_order().to_vec();
            assert!(q.iter().enumerate().any(|(k, &c)| k != c), "{q:?}");
            assert_batched_lanes_match_scalar(&a0, 7, &mut rng);
        }
    }

    fn assert_batched_lanes_match_scalar(a0: &CscMatrix, n_lanes: usize, rng: &mut SplitMix64) {
        let n = a0.n_rows();
        let mut lane_mats: Vec<CscMatrix> = vec![a0.clone()];
        for _ in 1..n_lanes {
            let mut a = a0.clone();
            for idx in 0..a.values().len() {
                let on_diag = a0.values()[idx].abs() >= 2.0;
                a.values_mut()[idx] = if on_diag {
                    a0.values()[idx] + rng.uniform(-0.5, 0.5)
                } else {
                    rng.uniform(-0.5, 0.5)
                };
            }
            lane_mats.push(a);
        }
        let rhs: Vec<Vec<f64>> = (0..n_lanes)
            .map(|_| (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect())
            .collect();

        // Scalar reference: lane 0 solves straight off factorize; other
        // lanes replay lane 0's symbolic structure via refactorize — the
        // same protocol the batch uses.
        let seed = SparseLu::factorize(&lane_mats[0]).unwrap();
        let mut expected: Vec<Vec<f64>> = Vec::new();
        expected.push(seed.solve(&rhs[0]).unwrap());
        for lane in 1..n_lanes {
            let mut lu = seed.clone();
            lu.refactorize(&lane_mats[lane]).unwrap();
            expected.push(lu.solve(&rhs[lane]).unwrap());
        }

        // Batched: seed lane 0, refactorize the rest, solve all at once.
        let mut batch = BatchedLu::from_seed(&seed, n_lanes, 0);
        assert_eq!(batch.n(), n);
        assert_eq!(batch.n_lanes(), n_lanes);
        assert_eq!(batch.column_order(), seed.column_order());
        let values_plane = {
            let vals: Vec<Vec<f64>> = lane_mats.iter().map(|m| m.values().to_vec()).collect();
            to_plane(&vals)
        };
        let mut active = vec![true; n_lanes];
        active[0] = false; // lane 0 keeps the installed factorize factors
        let mut status = vec![None; n_lanes];
        batch.refactorize_lanes(a0, &values_plane, &active, &mut status);
        assert!(status.iter().all(Option::is_none), "{status:?}");

        let mut x = to_plane(&rhs);
        batch.solve_lanes(&mut x, &vec![true; n_lanes]);
        let mut got = vec![0.0; n];
        for (lane, want) in expected.iter().enumerate() {
            batch.gather_lane(&x, lane, &mut got);
            for (i, (g, e)) in got.iter().zip(want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    e.to_bits(),
                    "lane {lane} unknown {i}: {g} vs {e}"
                );
            }
        }
    }

    #[test]
    fn batched_repeated_refactorize_matches_scalar_loop() {
        // Newton-style repeated value updates: each round refactorizes all
        // lanes and solves; every round must stay bit-identical to per-lane
        // scalar refactorize loops.
        let mut rng = SplitMix64::new(0xFACE);
        let n = 24;
        let n_lanes = 4;
        let (a0, _) = ring_system(n, &mut rng);
        let seed = SparseLu::factorize(&a0).unwrap();
        let mut scalar: Vec<SparseLu> = (0..n_lanes).map(|_| seed.clone()).collect();
        let mut batch = BatchedLu::from_seed(&seed, n_lanes, 0);
        let active = vec![true; n_lanes];
        let mut status = vec![None; n_lanes];

        for _round in 0..10 {
            let mut lane_vals: Vec<Vec<f64>> = Vec::new();
            for _ in 0..n_lanes {
                let mut v = a0.values().to_vec();
                for (idx, slot) in v.iter_mut().enumerate() {
                    let on_diag = a0.values()[idx].abs() >= 2.0;
                    *slot = if on_diag {
                        3.0 + rng.uniform(-0.5, 0.5)
                    } else {
                        rng.uniform(-0.5, 0.5)
                    };
                }
                lane_vals.push(v);
            }
            let rhs: Vec<Vec<f64>> = (0..n_lanes)
                .map(|_| (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect())
                .collect();

            let plane = to_plane(&lane_vals);
            batch.refactorize_lanes(&a0, &plane, &active, &mut status);
            assert!(status.iter().all(Option::is_none));
            let mut x = to_plane(&rhs);
            batch.solve_lanes(&mut x, &active);

            let mut got = vec![0.0; n];
            for lane in 0..n_lanes {
                let mut a = a0.clone();
                a.values_mut().copy_from_slice(&lane_vals[lane]);
                scalar[lane].refactorize(&a).unwrap();
                let want = scalar[lane].solve(&rhs[lane]).unwrap();
                batch.gather_lane(&x, lane, &mut got);
                for (g, e) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), e.to_bits(), "lane {lane}");
                }
            }
        }
    }

    #[test]
    fn degraded_lane_is_reported_and_isolated() {
        // Lane 1's values make the reused pivot order catastrophically bad;
        // the batch must flag exactly that lane and keep lane 0 and lane 2
        // bit-identical to their scalar solves.
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 10.0);
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        t.add(1, 1, 10.0);
        let (a0, _) = t.to_csc().unwrap();
        let seed = SparseLu::factorize(&a0).unwrap();

        let healthy = a0.values().to_vec();
        let mut bad = healthy.clone();
        for (idx, v) in bad.iter_mut().enumerate() {
            if a0.row_idx()[idx] == 0 && idx < a0.col_ptr()[1] {
                *v = 1e-9; // shrink the reused (0,0) pivot
            }
        }
        let lanes = vec![healthy.clone(), bad, healthy.clone()];
        let plane = to_plane(&lanes);

        let mut batch = BatchedLu::from_seed(&seed, 3, 0);
        let active = vec![true; 3];
        let mut status = vec![None; 3];
        batch.refactorize_lanes(&a0, &plane, &active, &mut status);
        assert!(status[0].is_none());
        assert!(
            matches!(status[1], Some(NumericError::PivotDegraded { .. })),
            "{status:?}"
        );
        assert!(status[2].is_none());

        // Healthy lanes solve bit-identically to scalar despite the failure
        // in between (lane 1 masked out of the solve).
        let rhs = vec![vec![1.0, 2.0], vec![0.0, 0.0], vec![-1.0, 0.5]];
        let mut x = to_plane(&rhs);
        batch.solve_lanes(&mut x, &[true, false, true]);
        let mut lu = seed.clone();
        let mut a = a0.clone();
        let mut got = vec![0.0; 2];
        for lane in [0usize, 2] {
            a.values_mut().copy_from_slice(&lanes[lane]);
            lu.refactorize(&a).unwrap();
            let want = lu.solve(&rhs[lane]).unwrap();
            batch.gather_lane(&x, lane, &mut got);
            for (g, e) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), e.to_bits(), "lane {lane}");
            }
        }
        // The masked lane's plane is untouched by the solve.
        batch.gather_lane(&x, 1, &mut got);
        assert_eq!(got, vec![0.0, 0.0]);

        // After the degraded pass, a refactorize with healthy values on the
        // failed lane succeeds (workspace was left clean).
        let plane2 = to_plane(&[healthy.clone(), healthy.clone(), healthy]);
        batch.refactorize_lanes(&a0, &plane2, &active, &mut status);
        assert!(status.iter().all(Option::is_none), "{status:?}");
    }

    #[test]
    fn inactive_lanes_are_untouched_by_refactorize() {
        let mut rng = SplitMix64::new(77);
        let (a0, b) = ring_system(16, &mut rng);
        let seed = SparseLu::factorize(&a0).unwrap();
        let mut batch = BatchedLu::from_seed(&seed, 2, 0);
        // Refactorize only lane 1 with different values; lane 0's installed
        // factors must survive and still solve bit-identically to the seed.
        let mut other = a0.values().to_vec();
        for v in &mut other {
            *v *= 1.25;
        }
        let plane = to_plane(&[vec![0.0; a0.nnz()], other]);
        let mut status = vec![None; 2];
        batch.refactorize_lanes(&a0, &plane, &[false, true], &mut status);
        // Lane 1's matrix is a scalar multiple: still well-conditioned.
        assert!(status[1].is_none());
        let want = seed.solve(&b).unwrap();
        let mut x = to_plane(&[b.clone(), vec![0.0; 16]]);
        batch.solve_lanes(&mut x, &[true, false]);
        let mut got = vec![0.0; 16];
        batch.gather_lane(&x, 0, &mut got);
        for (g, e) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn solve_length_check() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(1, 1, 1.0);
        let (a, _) = t.to_csc().unwrap();
        let mut lu = SparseLu::factorize(&a).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
        let mut short = [1.0];
        assert!(lu.solve_in_place(&mut short).is_err());
    }
}
