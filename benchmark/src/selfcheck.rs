//! `selfcheck`: does the benchmark agree with itself? Two sets of runs of
//! the same code, interleaved A1 B1 A2 B2 A3 B3 so that a drifting host
//! touches both alike, compared cell by cell (metric × workload) against
//! the benchmark's own bounds — the comparison a later change is held to,
//! with no change made.

use crate::run::{run_child, Args};
use crate::spec::{self, Better, Workload};
use crate::stats::{iqr_over_median, median};

/// Runs per set.
const ROUNDS: usize = 3;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound, and A's no
    /// worse than B's.
    Agree,
    /// The medians differ by more than the bound, but so do runs within
    /// one set: the benchmark cannot tell, and says so.
    Unresolved,
    /// The medians differ by more than the bound while each set repeats
    /// within it: the same code measured as two different programs.
    Disagree,
}

/// Run-to-run spread of one set: the statistic the acceptance check of
/// the benchmark uses, quartile distance over median (for three runs,
/// highest minus lowest over the middle one).
fn spread(set: &[f64]) -> f64 {
    iqr_over_median(set)
}

/// How much worse the worse of the two medians is than the better, as a
/// share of the better. The sets are the same code, so neither is "the
/// parent": the check is symmetric.
fn gap(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let (good, bad) = match better {
        Better::Lower => (ma.min(mb), ma.max(mb)),
        Better::Higher => (ma.max(mb), ma.min(mb)),
    };
    (good - bad).abs() / good
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if gap(a, b, better) <= bound {
        Verdict::Agree
    } else if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Disagree
    }
}

/// Run the check over `workloads`; returns whether no cell disagrees and
/// every run was correct.
pub fn selfcheck(workloads: &[&'static Workload], args: Args) -> bool {
    // values[workload][set][metric] = one reading per round
    let nm = spec::END_TO_END.len();
    let mut values = vec![[vec![Vec::new(); nm], vec![Vec::new(); nm]]; workloads.len()];
    let mut clean = true;
    for round in 0..ROUNDS {
        for (set, label) in ["A", "B"].into_iter().enumerate() {
            for (w, workload) in workloads.iter().enumerate() {
                eprintln!("selfcheck: {label}{} {}", round + 1, workload.name);
                match run_child(workload, args, true) {
                    Ok(child) => {
                        if !child.correct {
                            eprintln!("selfcheck: {} was not correct", workload.name);
                            clean = false;
                        }
                        if child.drifted {
                            eprintln!("selfcheck: the host drifted during {}", workload.name);
                        }
                        for (m, spec) in spec::END_TO_END.iter().enumerate() {
                            let v = child
                                .metrics
                                .iter()
                                .find(|(name, _)| name == spec.name)
                                .map(|(_, v)| *v)
                                .expect("every end-to-end metric is reported");
                            values[w][set][m].push(v);
                        }
                    }
                    Err(why) => {
                        eprintln!("selfcheck: {why}");
                        return false;
                    }
                }
            }
        }
    }
    println!(
        "{:<12} {:<18} {:>12} {:>12} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "gap%", "spread%", "bound%"
    );
    for (w, workload) in workloads.iter().enumerate() {
        for (m, spec) in spec::END_TO_END.iter().enumerate() {
            let (a, b) = (&values[w][0][m], &values[w][1][m]);
            let verdict = judge(a, b, spec.better, spec.bound);
            clean &= verdict != Verdict::Disagree;
            println!(
                "{:<12} {:<18} {:>12.4} {:>12.4} {:>7.2} {:>7.2} {:>6.1}  {}",
                workload.name,
                spec.name,
                median(a),
                median(b),
                100.0 * gap(a, b, spec.better),
                100.0 * spread(a).max(spread(b)),
                100.0 * spec.bound,
                match verdict {
                    Verdict::Agree => "agree",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Disagree => "DISAGREE",
                },
            );
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_within_the_bound_agree() {
        let a = [100.0, 101.0, 99.0];
        let b = [104.0, 103.0, 105.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::Agree);
        assert_eq!(judge(&b, &a, Better::Lower, 0.10), Verdict::Agree);
        assert_eq!(judge(&a, &b, Better::Higher, 0.10), Verdict::Agree);
    }

    #[test]
    fn steady_sets_apart_by_more_than_the_bound_disagree() {
        let a = [100.0, 101.0, 99.0];
        let b = [120.0, 121.0, 119.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::Disagree);
        assert_eq!(judge(&a, &b, Better::Higher, 0.10), Verdict::Disagree);
        // The check is symmetric: neither set is the parent.
        assert_eq!(judge(&b, &a, Better::Lower, 0.10), Verdict::Disagree);
    }

    #[test]
    fn noisy_sets_apart_by_more_than_the_bound_are_unresolved() {
        let a = [100.0, 130.0, 99.0];
        let b = [120.0, 121.0, 119.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn gap_is_relative_to_the_better_median() {
        assert!((gap(&[100.0], &[125.0], Better::Lower) - 0.25).abs() < 1e-12);
        assert!((gap(&[100.0], &[125.0], Better::Higher) - 0.20).abs() < 1e-12);
        assert!((spread(&[90.0, 100.0, 120.0]) - 0.30).abs() < 1e-12);
    }
}
