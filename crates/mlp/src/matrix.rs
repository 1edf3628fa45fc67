//! Minimal dense row-major matrix used by the MLP.
//!
//! Every product runs through one register-tiled loop body
//! (`mm_row_into`) that computes one output row of `A · B` or, reading
//! a column of `A` with stride, of `Aᵀ · B`. For every output element the
//! products are accumulated over `k` in ascending order, each product
//! rounded before it is added, skipping `a == 0.0` terms exactly like the
//! naive triple loop — so every kernel is **bit-identical** to that loop,
//! subnormals and infinities included (property-tested against the
//! oracle in `tests/kernels.rs`); a NaN lands in the same elements, though
//! Rust leaves its payload bits unspecified. Tiling only changes which
//! intermediate lives in a register, never the sequence of floating-point
//! operations that produces an element.
//!
//! The body is compiled twice: for the baseline target and inside a
//! `#[target_feature(enable = "avx2")]` wrapper around a whole matrix
//! call. `dispatch` picks the AVX2 build when the CPU reports it, so
//! each vector operation covers 4 doubles instead of SSE2's 2. FMA is
//! never enabled: a fused multiply-add rounds once where the loop rounds
//! twice, and would change the bits. `matmul_parallel` splits output rows
//! across threads; rows are independent, so any thread count returns the
//! same bits.

use crate::require;
use std::fmt;

/// Width of the register tile the kernels accumulate into. 48 doubles
/// are twelve of AVX2's sixteen vector registers, and the default
/// estimator's 96-wide layers split into two full tiles. Measured against
/// 16, 32 and 64 in DESIGN.md §7c: at 32 the compiler turns the inlined
/// fixed-width tile into scalar code.
const TILE: usize = 48;

/// One output row `out_row = Σ_k av_k · B[k][·]`, over the `(k, av_k)`
/// terms in ascending `k`, with an optional fused bias added after the
/// whole sum (matching `matmul` + `add_row` exactly). `av_k == 0.0` terms
/// are skipped, like the naive loop. Full-width tiles take a fixed-width
/// path the compiler unrolls; only a ragged last tile takes the
/// variable-width one.
#[inline(always)]
fn mm_row_into(
    terms: impl Iterator<Item = (usize, f64)> + Clone,
    b: &[f64],
    p: usize,
    out_row: &mut [f64],
    bias: Option<&[f64]>,
) {
    let mut j0 = 0;
    while j0 < p {
        let w = TILE.min(p - j0);
        let mut acc = [0.0f64; TILE];
        if w == TILE {
            for (k, av) in terms.clone() {
                if av == 0.0 {
                    continue;
                }
                let br = &b[k * p + j0..k * p + j0 + TILE];
                for (ac, &bv) in acc.iter_mut().zip(br) {
                    *ac += av * bv;
                }
            }
        } else {
            for (k, av) in terms.clone() {
                if av == 0.0 {
                    continue;
                }
                let br = &b[k * p + j0..k * p + j0 + w];
                for (ac, &bv) in acc[..w].iter_mut().zip(br) {
                    *ac += av * bv;
                }
            }
        }
        match bias {
            Some(bias) => {
                for ((o, &ac), &bi) in out_row[j0..j0 + w]
                    .iter_mut()
                    .zip(&acc[..w])
                    .zip(&bias[j0..j0 + w])
                {
                    *o = ac + bi;
                }
            }
            None => out_row[j0..j0 + w].copy_from_slice(&acc[..w]),
        }
        j0 += w;
    }
}

/// One whole-matrix kernel call: the unit [`dispatch`] hands to a build,
/// so the feature check and the target-feature boundary are crossed once
/// per matrix, not once per row.
enum Kernel<'a> {
    /// `out = A · B (+ bias)`, `A` holding whole rows of width `m`.
    Rows {
        a: &'a [f64],
        m: usize,
        b: &'a [f64],
        p: usize,
        bias: Option<&'a [f64]>,
        out: &'a mut [f64],
    },
    /// `out = Aᵀ · B` for an `n × m` matrix `A`: row `i` of the product
    /// reads column `i` of `A`, so `Aᵀ` is never materialized.
    TransposeA {
        a: &'a [f64],
        m: usize,
        b: &'a [f64],
        p: usize,
        out: &'a mut [f64],
    },
}

impl Kernel<'_> {
    /// The portable body, also the body of every feature-specific build.
    #[inline(always)]
    fn run(self) {
        match self {
            Kernel::Rows {
                a,
                m,
                b,
                p,
                bias,
                out,
            } => {
                for (a_row, out_row) in a.chunks_exact(m).zip(out.chunks_exact_mut(p)) {
                    mm_row_into(a_row.iter().copied().enumerate(), b, p, out_row, bias);
                }
            }
            Kernel::TransposeA { a, m, b, p, out } => {
                for (i, out_row) in out.chunks_exact_mut(p).enumerate() {
                    let column = a[i..].iter().copied().step_by(m).enumerate();
                    mm_row_into(column, b, p, out_row, None);
                }
            }
        }
    }
}

/// [`Kernel::run`] compiled with AVX2 enabled (and FMA not).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2(kernel: Kernel<'_>) {
    kernel.run();
}

/// Runs `kernel` on the widest build this CPU supports. Both builds
/// return the same bits; only their speed differs.
fn dispatch(kernel: Kernel<'_>) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `run_avx2` requires only that the CPU supports AVX2,
        // which `is_x86_feature_detected!` has just confirmed.
        #[allow(unsafe_code)]
        unsafe {
            run_avx2(kernel);
        }
        return;
    }
    kernel.run();
}

/// A dense `rows × cols` matrix of `f64`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        require(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        require(data.len() == rows * cols, "data length mismatch");
        require(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        require(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        require(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            require(r.len() == cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
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

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of the backing row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · rhs` through the register-tiled kernel.
    /// Bit-identical to the naive triple loop.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        require(self.cols == rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree or `out` has the wrong shape.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.mm_rows_into(rhs, None, out);
    }

    /// Fused `self · rhs + bias` (bias broadcast over rows), into a
    /// caller-provided buffer. The bias is added after the full `k`
    /// accumulation, so the result is bit-identical to
    /// `matmul` followed by [`Self::add_row`].
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_bias_into(&self, rhs: &Matrix, bias: &[f64], out: &mut Matrix) {
        require(bias.len() == rhs.cols, "bias length mismatch");
        self.mm_rows_into(rhs, Some(bias), out);
    }

    /// Shape checks and dispatch shared by [`Self::matmul_into`] and
    /// [`Self::matmul_bias_into`].
    fn mm_rows_into(&self, rhs: &Matrix, bias: Option<&[f64]>, out: &mut Matrix) {
        require(self.cols == rhs.rows, "inner dimensions must agree");
        require(
            (out.rows, out.cols) == (self.rows, rhs.cols),
            "output shape mismatch",
        );
        dispatch(Kernel::Rows {
            a: &self.data,
            m: self.cols,
            b: &rhs.data,
            p: rhs.cols,
            bias,
            out: &mut out.data,
        });
    }

    /// `selfᵀ · rhs` without materializing the transpose, into a
    /// caller-provided buffer. Bit-identical to
    /// `self.transpose().matmul(rhs)`.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_transpose_a_into(&self, rhs: &Matrix, out: &mut Matrix) {
        require(self.rows == rhs.rows, "inner dimensions must agree");
        require(
            (out.rows, out.cols) == (self.cols, rhs.cols),
            "output shape mismatch",
        );
        dispatch(Kernel::TransposeA {
            a: &self.data,
            m: self.cols,
            b: &rhs.data,
            p: rhs.cols,
            out: &mut out.data,
        });
    }

    /// `selfᵀ · rhs`, allocating the output.
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree.
    pub fn matmul_transpose_a(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.matmul_transpose_a_into(rhs, &mut out);
        out
    }

    /// `self · rhsᵀ` into a caller-provided buffer, using `scratch` to
    /// hold the transposed `rhs` (rows stay contiguous for the kernel).
    /// Bit-identical to `self.matmul(&rhs.transpose())`.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_transpose_b_into(&self, rhs: &Matrix, scratch: &mut Matrix, out: &mut Matrix) {
        require(self.cols == rhs.cols, "inner dimensions must agree");
        rhs.transpose_into(scratch);
        self.matmul_into(scratch, out);
    }

    /// `self · rhsᵀ`, allocating the output.
    ///
    /// # Panics
    ///
    /// Panics if the column counts disagree.
    pub fn matmul_transpose_b(&self, rhs: &Matrix) -> Matrix {
        require(self.cols == rhs.cols, "inner dimensions must agree");
        let mut scratch = Matrix::zeros(rhs.cols, rhs.rows);
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_transpose_b_into(rhs, &mut scratch, &mut out);
        out
    }

    /// Matrix product with output rows computed on up to `threads` worker
    /// threads. Every row of the product depends only on the matching row
    /// of `self`, so the result is bit-identical to [`Self::matmul`] at
    /// any thread count; `threads <= 1` runs inline with no
    /// synchronization (the same ordered fork-join discipline as
    /// `pipette::parallel::ordered_map`). Each worker owns a disjoint,
    /// contiguous block of output rows, so the partition never affects
    /// the bits.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul_parallel(&self, rhs: &Matrix, threads: usize) -> Matrix {
        require(self.cols == rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let (m, p) = (self.cols, rhs.cols);
        let workers = threads.clamp(1, self.rows);
        let rows_per = self.rows.div_ceil(workers);
        let blocks = self
            .data
            .chunks(rows_per * m)
            .zip(out.data.chunks_mut(rows_per * p));
        let kernels = blocks.map(|(a, out)| Kernel::Rows {
            a,
            m,
            b: &rhs.data,
            p,
            bias: None,
            out,
        });
        if workers <= 1 {
            kernels.for_each(dispatch);
        } else {
            std::thread::scope(|scope| {
                for kernel in kernels {
                    scope.spawn(move || dispatch(kernel));
                }
            });
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong shape.
    pub fn transpose_into(&self, out: &mut Matrix) {
        require(
            (out.rows, out.cols) == (self.cols, self.rows),
            "output shape mismatch",
        );
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Adds a row vector (bias) to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row(&mut self, bias: &[f64]) {
        require(bias.len() == self.cols, "bias length mismatch");
        for row in self.data.chunks_mut(self.cols) {
            for (cell, b) in row.iter_mut().zip(bias) {
                *cell += b;
            }
        }
    }

    /// Column sums, returned as a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.col_sums_into(&mut out);
        out
    }

    /// Column sums into a caller-provided buffer (no allocation). Rows
    /// accumulate in ascending order, matching [`Self::col_sums`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != cols`.
    pub fn col_sums_into(&self, out: &mut [f64]) {
        require(out.len() == self.cols, "output length mismatch");
        out.iter_mut().for_each(|v| *v = 0.0);
        for row in self.data.chunks(self.cols) {
            for (acc, cell) in out.iter_mut().zip(row) {
                *acc += cell;
            }
        }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise binary combination.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        require(
            (self.rows, self.cols) == (rhs.rows, rhs.cols),
            "shape mismatch",
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Selects a subset of rows (with repetition allowed), e.g. a minibatch.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or contains an out-of-range row.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        require(!indices.is_empty(), "need at least one row");
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Copies the selected rows into a caller-provided buffer (the
    /// allocation-free [`Self::select_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if `out.rows() != indices.len()`, widths differ, or an
    /// index is out of range.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        require(out.rows == indices.len(), "output row count mismatch");
        require(out.cols == self.cols, "output width mismatch");
        for (&i, out_row) in indices.iter().zip(out.data.chunks_mut(self.cols)) {
            out_row.copy_from_slice(self.row(i));
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}:", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn add_row_and_col_sums() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row(&[1.0, 2.0, 3.0]);
        assert_eq!(a.col_sums(), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn fused_bias_matches_two_step() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.0], &[0.5, 4.0, -1.0]]);
        let b = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, -3.0], &[1.5, 2.5]]);
        let bias = [0.25, -0.75];
        let mut two_step = a.matmul(&b);
        two_step.add_row(&bias);
        let mut fused = Matrix::zeros(2, 2);
        a.matmul_bias_into(&b, &bias, &mut fused);
        assert_eq!(fused, two_step);
    }

    #[test]
    fn transpose_variants_match_materialized() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 0.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        // Aᵀ·B  (2×3ᵀ = 3×2, times 2×2)
        assert_eq!(a.matmul_transpose_a(&b), a.transpose().matmul(&b));
        // A·Bᵀ with B sharing A's width.
        let c = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[3.0, -1.0, 0.5]]);
        assert_eq!(a.matmul_transpose_b(&c), a.matmul(&c.transpose()));
    }

    #[test]
    fn gather_rows_matches_select_rows() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let idx = [2usize, 0, 2, 1];
        let mut out = Matrix::zeros(4, 1);
        a.gather_rows_into(&idx, &mut out);
        assert_eq!(out, a.select_rows(&idx));
    }

    #[test]
    fn select_rows_repeats() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let b = a.select_rows(&[2, 0, 2]);
        assert_eq!(b, Matrix::from_rows(&[&[3.0], &[1.0], &[3.0]]));
    }

    #[test]
    fn map_and_zip() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.map(f64::abs), Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        assert_eq!(a.zip(&b, |x, y| x + y), Matrix::from_rows(&[&[11.0, 18.0]]));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    /// Values that stress the kernels: exact zeros (the skip predicate),
    /// subnormals, infinities and ordinary numbers.
    fn awkward_matrix(rows: usize, cols: usize, rng: &mut rand_chacha::ChaCha8Rng) -> Matrix {
        use rand::Rng;
        let data = (0..rows * cols)
            .map(|_| match rng.gen_range(0u32..10) {
                0 | 1 => 0.0,
                2 => f64::MIN_POSITIVE * rng.gen_range(-1.0..1.0),
                3 if rng.gen_range(0u32..20) == 0 => f64::INFINITY,
                _ => rng.gen_range(-4.0..4.0),
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    /// The public kernels go through `dispatch`, which takes the AVX2
    /// build on a CPU that has it; `Kernel::run` called directly is the
    /// portable build. Both must return the same bits, on shapes that
    /// straddle the tile width (full tiles, ragged tails, a single
    /// column).
    #[test]
    fn portable_body_matches_dispatched_kernels() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(15);
        for (n, m, p) in [
            (1, 1, 1),
            (3, 31, 47),
            (5, 48, 48),
            (4, 65, 97),
            (2, 64, 49),
            (9, 7, 96),
        ] {
            let a = awkward_matrix(n, m, &mut rng);
            let b = awkward_matrix(m, p, &mut rng);
            let bias: Vec<f64> = (0..p).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let shape = format!("{n}x{m}x{p}");

            let mut want = vec![0.0; n * p];
            Kernel::Rows {
                a: a.as_slice(),
                m,
                b: b.as_slice(),
                p,
                bias: None,
                out: &mut want,
            }
            .run();
            assert_same_bits(a.matmul(&b).as_slice(), &want, &format!("rows {shape}"));

            let mut fused = Matrix::zeros(n, p);
            a.matmul_bias_into(&b, &bias, &mut fused);
            Kernel::Rows {
                a: a.as_slice(),
                m,
                b: b.as_slice(),
                p,
                bias: Some(&bias),
                out: &mut want,
            }
            .run();
            assert_same_bits(fused.as_slice(), &want, &format!("fused bias {shape}"));

            // Aᵀ·B for an m×n A and an m×p B (so the product is n×p).
            let at = awkward_matrix(m, n, &mut rng);
            Kernel::TransposeA {
                a: at.as_slice(),
                m: n,
                b: b.as_slice(),
                p,
                out: &mut want,
            }
            .run();
            assert_same_bits(
                at.matmul_transpose_a(&b).as_slice(),
                &want,
                &format!("transpose-a {shape}"),
            );
        }
    }

    proptest! {
        #[test]
        fn matmul_distributes_over_transpose(
            n in 1usize..5, m in 1usize..5, k in 1usize..5,
            seed in 0u64..1000,
        ) {
            // (A·B)ᵀ = Bᵀ·Aᵀ
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let a = Matrix::from_vec(n, m, (0..n * m).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let b = Matrix::from_vec(m, k, (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-12);
            }
        }
    }
}
