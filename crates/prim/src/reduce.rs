//! Deterministic parallel reductions.
//!
//! Floating-point addition is not associative, so a naive parallel sum can
//! return different values depending on how the runtime splits the work.
//! The solver stack (dot products inside CG/GMRES)
//! must be bitwise reproducible for the paper's determinism claims to carry
//! through end-to-end, so the f64 reductions here use a fixed block
//! decomposition: block partial sums are computed in parallel (each block
//! sequentially, in index order) and the short vector of block sums is then
//! folded sequentially. The result is identical for any thread count.
//!
//! **The one block rule.** [`det_dot`] and the fused [`det_axpy_dot`] /
//! [`det_axpy_norm_sq`] share it, written once in `blocked_sum`: below
//! `SEQ_CUTOFF` elements the whole range is one `Iterator::sum` on the
//! caller; from there up the range is cut into [`par::DET_BLOCK`]-element
//! blocks, each block one `Iterator::sum` in index order, and the block
//! sums are folded by one more `Iterator::sum` in block order. The fused
//! forms update `y` inside that same walk, so `det_axpy_dot(α, x, y, z)`
//! returns the bits of `axpy(α, x, y)` followed by `det_dot(y, z)` in one
//! pass over the data and one region instead of two of each.

use crate::par::{self, SEQ_CUTOFF};
use crate::ptr::SharedMut;

/// Fixed block size (thread-count independent).
const BLOCK: usize = par::DET_BLOCK;

/// Sum of `block_sum(lo, hi)` over the blocks the rule in the module doc
/// cuts `0..n` into, every block visited exactly once.
fn blocked_sum(n: usize, block_sum: impl Fn(usize, usize) -> f64 + Sync) -> f64 {
    if n < SEQ_CUTOFF {
        return block_sum(0, n);
    }
    let partials: Vec<f64> = par::map_blocks(n.div_ceil(BLOCK), |blk| {
        let lo = blk * BLOCK;
        block_sum(lo, (lo + BLOCK).min(n))
    });
    partials.iter().sum()
}

/// Deterministic parallel dot product.
pub fn det_dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    blocked_sum(a.len(), |lo, hi| {
        a[lo..hi].iter().zip(&b[lo..hi]).map(|(x, y)| x * y).sum()
    })
}

/// `y += alpha * x`, then `⟨y, z⟩` of the updated `y`, in one pass: the
/// bits of an element-wise `axpy` followed by [`det_dot`]`(y, z)`.
pub fn det_axpy_dot(alpha: f64, x: &[f64], y: &mut [f64], z: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    assert_eq!(z.len(), y.len(), "dot product length mismatch");
    let yw = SharedMut::new(y);
    blocked_sum(x.len(), |lo, hi| {
        // SAFETY: `blocked_sum` visits disjoint ranges, each exactly once.
        let y = unsafe { yw.slice_mut(lo, hi) };
        y.iter_mut()
            .zip(&x[lo..hi])
            .zip(&z[lo..hi])
            .map(|((y, x), z)| {
                *y += alpha * x;
                *y * z
            })
            .sum()
    })
}

/// [`det_axpy_dot`] with `z = y`: `y += alpha * x`, then `⟨y, y⟩`.
pub fn det_axpy_norm_sq(alpha: f64, x: &[f64], y: &mut [f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    let yw = SharedMut::new(y);
    blocked_sum(x.len(), |lo, hi| {
        // SAFETY: `blocked_sum` visits disjoint ranges, each exactly once.
        let y = unsafe { yw.slice_mut(lo, hi) };
        y.iter_mut()
            .zip(&x[lo..hi])
            .map(|(y, x)| {
                *y += alpha * x;
                *y * *y
            })
            .sum()
    })
}

/// Parallel minimum; `None` on empty input. Min is commutative and
/// idempotent so any reduction order gives the same result.
pub fn det_min<T: Copy + Ord + Send + Sync>(data: &[T]) -> Option<T> {
    par::chunked_reduce(
        data,
        BLOCK,
        |c| c.iter().copied().min(),
        None,
        |a, b| match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        },
    )
}

/// Parallel maximum; `None` on empty input.
pub fn det_max<T: Copy + Ord + Send + Sync>(data: &[T]) -> Option<T> {
    par::chunked_reduce(
        data,
        BLOCK,
        |c| c.iter().copied().max(),
        None,
        |a, b| match (a, b) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        assert_eq!(det_dot(&[], &[]), 0.0);
        assert_eq!(det_min::<u32>(&[]), None);
    }

    #[test]
    fn dot_matches_sequential() {
        let n = 100_000;
        let a: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let got = det_dot(&a, &b);
        let want: f64 = {
            // reproduce the exact blocked order
            let partials: Vec<f64> = a
                .chunks(BLOCK)
                .zip(b.chunks(BLOCK))
                .map(|(ca, cb)| ca.iter().zip(cb).map(|(x, y)| x * y).sum())
                .collect();
            partials.iter().sum()
        };
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn dot_bitwise_stable_across_threads() {
        let data: Vec<f64> = (0..200_000)
            .map(|i| (crate::hash::splitmix64(i) as f64) / 1e12)
            .collect();
        let baseline = crate::pool::with_pool(1, || det_dot(&data, &data));
        for t in [2, 3, 8] {
            let got = crate::pool::with_pool(t, || det_dot(&data, &data));
            assert_eq!(got.to_bits(), baseline.to_bits(), "{t} threads differ");
        }
    }

    #[test]
    fn fused_forms_are_axpy_then_dot_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let noise = |n: usize, salt: u64| -> Vec<f64> {
            (0..n as u64)
                .map(|i| {
                    (crate::hash::splitmix64(i ^ salt) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
                })
                .collect()
        };
        for n in [0, 1, 7, SEQ_CUTOFF - 1, SEQ_CUTOFF, 3 * BLOCK + 5] {
            // All-zero inputs too: the sums are then signed zeros, so the
            // value the fold starts from shows in the result.
            for zeros in [false, true] {
                let (x, y0, z) = if zeros {
                    (vec![0.0; n], vec![-0.0; n], vec![0.0; n])
                } else {
                    (noise(n, 1), noise(n, 2), noise(n, 3))
                };
                for alpha in [0.0, -0.0, 1e-300, -2.5] {
                    let mut want_y = y0.clone();
                    for (y, x) in want_y.iter_mut().zip(&x) {
                        *y += alpha * x;
                    }
                    for t in [1, 2, 5] {
                        let what = format!("n = {n}, alpha = {alpha:e}, {t} threads");
                        crate::pool::with_pool(t, || {
                            let mut y = y0.clone();
                            let got = det_axpy_dot(alpha, &x, &mut y, &z);
                            assert_eq!(bits(&y), bits(&want_y), "{what}");
                            assert_eq!(got.to_bits(), det_dot(&want_y, &z).to_bits(), "{what}");
                            let mut y = y0.clone();
                            let got = det_axpy_norm_sq(alpha, &x, &mut y);
                            assert_eq!(bits(&y), bits(&want_y), "{what}");
                            let want = det_dot(&want_y, &want_y);
                            assert_eq!(got.to_bits(), want.to_bits(), "{what}");
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn min_max() {
        let data: Vec<u64> = (0..50_000).map(crate::hash::splitmix64).collect();
        assert_eq!(det_min(&data), data.iter().copied().min());
        assert_eq!(det_max(&data), data.iter().copied().max());
    }
}
