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
    fn min_max() {
        let data: Vec<u64> = (0..50_000).map(crate::hash::splitmix64).collect();
        assert_eq!(det_min(&data), data.iter().copied().min());
        assert_eq!(det_max(&data), data.iter().copied().max());
    }
}
