//! Small dense matrices with LU factorization.
//!
//! Used for the coarsest level of the AMG hierarchy ("the system is solved
//! directly on the coarsest level", paper Section III-B) and as a reference
//! in tests. Row-major storage; partial pivoting.

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            *m.at_mut(i, i) = 1.0;
        }
        m
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.ncols + c]
    }

    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.ncols + c]
    }

    /// Dense mat-vec.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        (0..self.nrows)
            .map(|r| (0..self.ncols).map(|c| self.at(r, c) * x[c]).sum())
            .collect()
    }

    /// LU factorization with partial pivoting.
    pub fn lu(&self) -> Result<LuFactors, SingularMatrix> {
        assert_eq!(self.nrows, self.ncols, "LU requires a square matrix");
        let n = self.nrows;
        let mut a = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot: largest |a[i][k]| for i >= k.
            let mut p = k;
            let mut best = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-300 {
                return Err(SingularMatrix { pivot: k });
            }
            if p != k {
                for c in 0..n {
                    a.swap(k * n + c, p * n + c);
                }
                perm.swap(k, p);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let l = a[i * n + k] / pivot;
                a[i * n + k] = l;
                for c in (k + 1)..n {
                    a[i * n + c] -= l * a[k * n + c];
                }
            }
        }
        Ok(LuFactors { n, lu: a, perm })
    }
}

/// The matrix was (numerically) singular.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularMatrix {
    /// The elimination step at which no usable pivot remained.
    pub pivot: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "singular matrix at pivot {}", self.pivot)
    }
}

impl std::error::Error for SingularMatrix {}

/// LU factors with the row permutation.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
}

impl LuFactors {
    /// Solve `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solve `A x = b` into `x`, with the arithmetic of [`LuFactors::solve`]
    /// and no allocation.
    #[allow(clippy::needless_range_loop)]
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        assert_eq!(x.len(), self.n);
        let n = self.n;
        // Apply permutation.
        for (x, &p) in x.iter_mut().zip(&self.perm) {
            *x = b[p];
        }
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let mut acc = x[i];
            for c in 0..i {
                acc -= self.lu[i * n + c] * x[c];
            }
            x[i] = acc;
        }
        // Backward substitution.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for c in (i + 1)..n {
                acc -= self.lu[i * n + c] * x[c];
            }
            x[i] = acc / self.lu[i * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve() {
        let m = DenseMatrix::identity(4);
        let lu = m.lu().unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(lu.solve(&b), b);
    }

    #[test]
    fn solve_small_system() {
        // [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
        let mut m = DenseMatrix::zeros(2, 2);
        *m.at_mut(0, 0) = 2.0;
        *m.at_mut(0, 1) = 1.0;
        *m.at_mut(1, 0) = 1.0;
        *m.at_mut(1, 1) = 3.0;
        let x = m.lu().unwrap().solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1; 1 0] needs a row swap.
        let mut m = DenseMatrix::zeros(2, 2);
        *m.at_mut(0, 1) = 1.0;
        *m.at_mut(1, 0) = 1.0;
        let x = m.lu().unwrap().solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let mut m = DenseMatrix::zeros(2, 2);
        *m.at_mut(0, 0) = 1.0;
        *m.at_mut(0, 1) = 2.0;
        *m.at_mut(1, 0) = 2.0;
        *m.at_mut(1, 1) = 4.0;
        assert!(m.lu().is_err());
    }

    #[test]
    fn random_roundtrip() {
        let n = 20;
        let mut m = DenseMatrix::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                let h = mis2_prim::hash::splitmix64((r * n + c) as u64);
                *m.at_mut(r, c) = ((h % 1000) as f64 - 500.0) / 100.0;
            }
            // Diagonal dominance for well-conditioned test.
            *m.at_mut(r, r) += 50.0;
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let b = m.matvec(&x_true);
        let x = m.lu().unwrap().solve(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-9, "component {i}");
        }
    }

    #[test]
    fn matvec() {
        let mut m = DenseMatrix::zeros(2, 3);
        *m.at_mut(0, 0) = 1.0;
        *m.at_mut(0, 2) = 2.0;
        *m.at_mut(1, 1) = -1.0;
        assert_eq!(m.matvec(&[1.0, 2.0, 3.0]), vec![7.0, -2.0]);
    }
}
