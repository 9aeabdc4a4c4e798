//! Row-major dense matrix with cache-blocked multiplication.

use crate::{LinalgError, Result};

/// Block edge (in elements) for the cache-blocked multiply. 64x64 f64
/// tiles are 32 KiB — three of them fit in a typical 256 KiB L2 slice.
const BLOCK: usize = 64;

/// A dense, row-major `f64` matrix.
///
/// This is deliberately minimal: exactly the operations the GP stack and
/// schedulers need, with contiguous storage so the hot loops vectorize.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// An `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n x n` identity matrix.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector. Panics if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Mat::from_vec: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Mat { rows, cols, data }
    }

    /// Build from nested row slices (test/bench convenience).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Mat::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Mat::from_vec(r, c, data)
    }

    /// Build by evaluating `f(i, j)` on every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// A diagonal matrix with the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Mat::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True if the matrix is square.
    #[inline]
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the raw row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the raw row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Copy the diagonal into a new vector.
    #[cfg(test)]
    pub(crate) fn diag(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Transposed copy (tests only: production code reads columns or
    /// builds the transposed operand directly).
    #[cfg(test)]
    pub(crate) fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// `self + other`.
    pub fn add(&self, other: &Mat) -> Result<Mat> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// `self - other`.
    pub fn sub(&self, other: &Mat) -> Result<Mat> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    fn zip_with(&self, other: &Mat, op: &'static str, f: impl Fn(f64, f64) -> f64) -> Result<Mat> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimMismatch {
                op,
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Scale every entry by `s`.
    pub fn scale(&self, s: f64) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * s).collect(),
        }
    }

    /// Add `eps` to the diagonal in place (jitter for SPD factorizations).
    pub fn add_diag(&mut self, eps: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += eps;
        }
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimMismatch {
                op: "matvec",
                left: (self.rows, self.cols),
                right: (x.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| crate::vecops::dot(self.row(i), x))
            .collect())
    }

    /// Transposed matrix-vector product `self^T * x`.
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::DimMismatch {
                op: "matvec_t",
                left: (self.cols, self.rows),
                right: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += xi * a;
            }
        }
        Ok(out)
    }

    /// Matrix product `self * other`, cache-blocked.
    pub fn matmul(&self, other: &Mat) -> Result<Mat> {
        if self.cols != other.rows {
            return Err(LinalgError::DimMismatch {
                op: "matmul",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Mat::zeros(m, n);
        for i in 0..m {
            let (a_row, out_row) = (self.row(i), &mut out.data[i * n..(i + 1) * n]);
            mul_row_blocked(a_row, other, out_row, k, n);
        }
        Ok(out)
    }

    /// `self^T * self` — the Gram matrix, exploiting symmetry.
    #[cfg(test)]
    pub(crate) fn gram(&self) -> Mat {
        let n = self.cols;
        let mut g = Mat::zeros(n, n);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (j, &rj) in row.iter().enumerate() {
                if rj == 0.0 {
                    continue;
                }
                for (l, &rl) in row.iter().enumerate().skip(j) {
                    g[(j, l)] += rj * rl;
                }
            }
        }
        for j in 0..n {
            for l in 0..j {
                g[(j, l)] = g[(l, j)];
            }
        }
        g
    }

    /// Maximum absolute entry difference to `other` (test helper).
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Symmetrize in place: `A <- (A + A^T) / 2`. Useful before Cholesky
    /// when round-off has broken exact symmetry.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }
}

/// One output row of a blocked GEMM: `out_row += a_row * b`.
///
/// Iterating `l` (the shared dimension) in the middle loop turns the inner
/// loop into a contiguous axpy over `b`'s row — the access pattern that
/// lets LLVM vectorize without any unsafe indexing.
fn mul_row_blocked(a_row: &[f64], b: &Mat, out_row: &mut [f64], k: usize, n: usize) {
    for l0 in (0..k).step_by(BLOCK) {
        let l1 = (l0 + BLOCK).min(k);
        for j0 in (0..n).step_by(BLOCK) {
            let j1 = (j0 + BLOCK).min(n);
            #[allow(clippy::needless_range_loop)]
            for l in l0..l1 {
                let a = a_row[l];
                if a == 0.0 {
                    continue;
                }
                let b_row = &b.row(l)[j0..j1];
                let out = &mut out_row[j0..j1];
                for (o, &bv) in out.iter_mut().zip(b_row) {
                    *o += a * bv;
                }
            }
        }
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Mat::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Mat::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Mat::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn matmul_dim_mismatch_errors() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn blocked_matmul_matches_naive_large() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (m, k, n) = (150, 90, 70); // spans more than one 64-wide block
        let a = Mat::from_fn(m, k, |_, _| rng.gen_range(-1.0..1.0));
        let b = Mat::from_fn(k, n, |_, _| rng.gen_range(-1.0..1.0));
        let fast = a.matmul(&b).unwrap();
        let mut naive = Mat::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a[(i, l)] * b[(l, j)];
                }
                naive[(i, j)] = acc;
            }
        }
        assert!(fast.max_abs_diff(&naive) < 1e-9);
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn matvec_and_matvec_t() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let y = a.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0, 11.0]);
        let z = a.matvec_t(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(z, vec![9.0, 12.0]);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.max_abs_diff(&explicit) < 1e-12);
    }

    #[test]
    fn add_sub_scale_diag() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::identity(2);
        assert!(approx(a.add(&b).unwrap()[(0, 0)], 2.0));
        assert!(approx(a.sub(&b).unwrap()[(1, 1)], 3.0));
        assert!(approx(a.scale(2.0)[(1, 0)], 6.0));
        let mut c = a.clone();
        c.add_diag(0.5);
        assert!(approx(c[(0, 0)], 1.5) && approx(c[(0, 1)], 2.0));
        assert_eq!(a.diag(), vec![1.0, 4.0]);
    }

    #[test]
    fn symmetrize_fixes_roundoff() {
        let mut a = Mat::from_rows(&[&[1.0, 2.0 + 1e-13], &[2.0, 5.0]]);
        a.symmetrize();
        assert_eq!(a[(0, 1)], a[(1, 0)]);
    }

    #[test]
    fn from_diag_and_col() {
        let d = Mat::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.col(1), vec![0.0, 2.0, 0.0]);
        assert_eq!(d.diag(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Mat::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }
}
