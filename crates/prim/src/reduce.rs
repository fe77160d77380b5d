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

use crate::par;

/// Fixed block size (thread-count independent).
const BLOCK: usize = par::DET_BLOCK;
const SEQ_CUTOFF: usize = 1 << 14;

/// Deterministic parallel sum of `f64` values.
pub fn det_sum_f64(data: &[f64]) -> f64 {
    if data.len() < SEQ_CUTOFF {
        return data.iter().sum();
    }
    par::chunked_reduce(data, BLOCK, |c| c.iter().sum::<f64>(), 0.0, |a, b| a + b)
}

/// Deterministic parallel dot product.
pub fn det_dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    if a.len() < SEQ_CUTOFF {
        return a.iter().zip(b).map(|(x, y)| x * y).sum();
    }
    let nblocks = a.len().div_ceil(BLOCK);
    let partials: Vec<f64> = par::map_blocks(nblocks, |blk| {
        let lo = blk * BLOCK;
        let hi = (lo + BLOCK).min(a.len());
        a[lo..hi].iter().zip(&b[lo..hi]).map(|(x, y)| x * y).sum()
    });
    partials.iter().sum()
}

/// Parallel sum of usize values (integers are associative, but we keep the
/// same structure for symmetry and overflow checking in debug builds).
pub fn det_sum_usize(data: &[usize]) -> usize {
    if data.len() < SEQ_CUTOFF {
        return data.iter().sum();
    }
    par::chunked_reduce(data, BLOCK, |c| c.iter().sum::<usize>(), 0, |a, b| a + b)
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
    fn sum_small() {
        assert_eq!(det_sum_f64(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(det_sum_usize(&[1, 2, 3]), 6);
    }

    #[test]
    fn sum_empty() {
        assert_eq!(det_sum_f64(&[]), 0.0);
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
    fn f64_sum_bitwise_stable_across_threads() {
        let data: Vec<f64> = (0..200_000)
            .map(|i| (crate::hash::splitmix64(i) as f64) / 1e12)
            .collect();
        let baseline = crate::pool::with_pool(1, || det_sum_f64(&data));
        for t in [2, 3, 8] {
            let got = crate::pool::with_pool(t, || det_sum_f64(&data));
            assert_eq!(got.to_bits(), baseline.to_bits(), "{t} threads differ");
        }
    }

    #[test]
    fn min_max() {
        let data: Vec<u64> = (0..50_000).map(crate::hash::splitmix64).collect();
        assert_eq!(det_min(&data), data.iter().copied().min());
        assert_eq!(det_max(&data), data.iter().copied().max());
    }
}
