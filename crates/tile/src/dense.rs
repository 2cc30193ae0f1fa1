//! A plain row-major dense `f64` matrix for reference paths and statistics.

/// Row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        DenseMatrix { rows, cols, data }
    }

    /// Build from an element function.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, x: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = x;
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// `y = A x` (allocating).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Transpose (allocating).
    pub fn transpose(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Mirror the lower triangle into the upper (in place), making the
    /// matrix exactly symmetric.
    pub fn symmetrize_from_lower(&mut self) {
        assert_eq!(self.rows, self.cols);
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let x = self.get(j, i);
                self.set(i, j, x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_id() {
        let a = DenseMatrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(a.matvec(&x), x);
    }

    #[test]
    fn from_fn_and_get() {
        let a = DenseMatrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(a.get(2, 1), 21.0);
        assert_eq!(a.row(1), &[10.0, 11.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_fn(3, 5, |i, j| (i + 2 * j) as f64 * 0.3);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn symmetrize() {
        let mut a =
            DenseMatrix::from_fn(3, 3, |i, j| if i >= j { (i + j + 1) as f64 } else { -99.0 });
        a.symmetrize_from_lower();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a.get(i, j), a.get(j, i));
            }
        }
    }

    #[test]
    fn fro_norm() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(a.fro_norm(), 5.0);
    }
}
