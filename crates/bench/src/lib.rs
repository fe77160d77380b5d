//! # mis2-bench — reproduction harness for every table and figure
//!
//! One function per artifact of the paper's evaluation (Section VI):
//!
//! | paper artifact | function | `repro` subcommand |
//! |---|---|---|
//! | Table I (priority schemes) | [`experiments::table1`] | `table1` |
//! | Table II (suite stats + times) | [`experiments::table2`] | `table2` |
//! | Table III (structured scaling) | [`experiments::table3`] | `table3` |
//! | Figure 2 (optimization ladder) | [`experiments::fig2`] | `fig2` |
//! | Figure 3 (bandwidth efficiency) | [`experiments::fig3`] | `fig3` |
//! | Figures 4/5 (strong scaling) | [`experiments::fig4`] | `fig4` |
//! | Figure 6 (vs CUSP) | [`experiments::fig6`] | `fig6` |
//! | Figure 7 (coarsening vs ViennaCL) | [`experiments::fig7`] | `fig7` |
//! | Table IV (MIS-2 quality) | [`experiments::table4`] | `table4` |
//! | Table V (MueLu aggregation) | [`experiments::table5`] | `table5` |
//! | Table VI (point vs cluster SGS) | [`experiments::table6`] | `table6` |
//!
//! Hardware substitutions (single host CPU instead of V100/MI100/Skylake/
//! TX2) follow the substitution policy in [`mis2_graph::suite`]'s module
//! doc; the harness sweeps worker-pool sizes where the paper sweeps
//! architectures or OpenMP threads.

pub mod bandwidth;
pub mod experiments;
pub mod tables;
pub mod timing;

pub use tables::Table;

/// Options shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Problem scale (tiny / small / paper).
    pub scale: mis2_graph::Scale,
    /// Timing trials per measurement (the paper uses 100 for Table II).
    pub trials: usize,
    /// Thread counts to sweep (defaults to [1, ..., num_cpus]).
    pub threads: ThreadSweep,
}

/// Which thread counts to run.
#[derive(Debug, Clone, Copy)]
pub enum ThreadSweep {
    /// 1..=available cores (powers of two plus the max).
    Auto,
    /// Only the default pool.
    Default,
}

impl RunOpts {
    /// Thread counts for scaling sweeps.
    pub fn thread_counts(&self) -> Vec<usize> {
        match self.threads {
            ThreadSweep::Default => vec![mis2_prim::pool::max_threads()],
            ThreadSweep::Auto => {
                let max = mis2_prim::pool::max_threads();
                let mut v = vec![1usize];
                let mut t = 2;
                while t < max {
                    v.push(t);
                    t *= 2;
                }
                if max > 1 {
                    v.push(max);
                }
                v.dedup();
                v
            }
        }
    }
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            scale: mis2_graph::Scale::Tiny,
            trials: 3,
            threads: ThreadSweep::Auto,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_start_at_one() {
        let opts = RunOpts::default();
        let t = opts.thread_counts();
        assert_eq!(t[0], 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn default_sweep_single_entry() {
        let opts = RunOpts {
            threads: ThreadSweep::Default,
            ..Default::default()
        };
        assert_eq!(opts.thread_counts().len(), 1);
    }
}
