//! Dense vector kernels with deterministic reductions, and the
//! [`Operator`] seam the Krylov solvers apply their matrix through.
//!
//! The Krylov solvers (CG, GMRES) are built on these. Dot products and
//! norms use the fixed-block deterministic reduction from `mis2-prim`, so a
//! whole solve is bitwise reproducible across thread counts — extending the
//! paper's determinism property through the solver stack. The element-wise
//! kernels are `zip` loops over the sub-slices `par::for_each_slice_mut`
//! hands out, which the compiler vectorises; [`axpy_dot`] / [`axpy_norm2`]
//! fold an update into the reduction that follows it.

use mis2_prim::par;

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    par::for_each_slice_mut(y, |lo, y| {
        for (y, x) in y.iter_mut().zip(&x[lo..]) {
            *y += alpha * x;
        }
    });
}

/// `y = x + beta * y` (xpay — the CG direction update).
pub fn xpay(x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    par::for_each_slice_mut(y, |lo, y| {
        for (y, x) in y.iter_mut().zip(&x[lo..]) {
            *y = x + beta * *y;
        }
    });
}

/// `x *= alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    par::for_each_slice_mut(x, |_, x| {
        for v in x {
            *v *= alpha;
        }
    });
}

/// Deterministic dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    mis2_prim::reduce::det_dot(a, b)
}

/// [`axpy`]`(alpha, x, y)` then [`dot`]`(y, z)`, bit for bit, in one pass
/// over the vectors (a Gram-Schmidt step: subtract the last projection,
/// take the next inner product).
pub fn axpy_dot(alpha: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> f64 {
    mis2_prim::reduce::det_axpy_dot(alpha, x, y, z)
}

/// [`axpy`]`(alpha, x, y)` then [`norm2`]`(y)`, bit for bit, in one pass.
pub fn axpy_norm2(alpha: f64, x: &[f64], y: &mut [f64]) -> f64 {
    mis2_prim::reduce::det_axpy_norm_sq(alpha, x, y).sqrt()
}

/// Deterministic Euclidean norm.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `z = a - b` elementwise.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len());
    par::map_range(0..a.len(), |i| a[i] - b[i])
}

/// A square linear operator the Krylov solvers can apply: all CG and GMRES
/// ever do with `A` is `y = A x`, so they take this in place of a stored
/// matrix. [`CsrMatrix`](crate::CsrMatrix) is one (its `spmv_into`);
/// [`GraphLaplacian`](crate::gen::GraphLaplacian) is the same operator as
/// `from_graph_with_diag` applied straight off the graph.
///
/// **The bit contract an implementor owes.** Every result in this workspace
/// is pinned bit for bit across backends and pool sizes, so `apply_into`
/// must compute each `y[r]` the way `CsrMatrix::spmv_into` does for the
/// matrix it stands for: one accumulator per row starting at `0.0`, the
/// row's terms added in ascending column order, each product rounded and
/// then each sum — no reassociation, no partial sums, no fused
/// multiply-add, nothing that depends on how rows are split over threads.
/// (`acc + (-1.0 * x)` and `acc - x` are the same IEEE operation, so a
/// stored `-1.0` need not be multiplied by.)
pub trait Operator {
    /// Rows, which is also the length of `x` and `y`.
    fn nrows(&self) -> usize;

    /// `y = A x`, overwriting `y`.
    fn apply_into(&self, x: &[f64], y: &mut [f64]);
}

impl Operator for crate::csr_matrix::CsrMatrix {
    fn nrows(&self) -> usize {
        self.nrows()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_into(x, y);
    }
}

/// Residual `r = b - A x` of an operator.
pub fn residual<A: Operator + ?Sized>(a: &A, x: &[f64], b: &[f64]) -> Vec<f64> {
    let mut ax = vec![0.0; a.nrows()];
    a.apply_into(x, &mut ax);
    sub(b, &ax)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_basic() {
        let mut y = vec![1.0, 2.0, 3.0];
        axpy(2.0, &[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn xpay_basic() {
        let mut y = vec![1.0, 2.0];
        xpay(&[10.0, 20.0], 0.5, &mut y);
        assert_eq!(y, vec![10.5, 21.0]);
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn dot_deterministic() {
        let a: Vec<f64> = (0..100_000).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..100_000).map(|i| (i as f64).cos()).collect();
        let d1 = mis2_prim::pool::with_pool(1, || dot(&a, &b));
        let d2 = mis2_prim::pool::with_pool(3, || dot(&a, &b));
        assert_eq!(d1.to_bits(), d2.to_bits());
    }

    #[test]
    fn residual_zero_for_exact_solution() {
        let m = crate::csr_matrix::CsrMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let r = residual(&m, &x, &x);
        assert!(norm2(&r) < 1e-15);
    }
}
