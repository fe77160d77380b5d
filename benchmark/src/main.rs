//! The repo benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! mis2-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]
//! mis2-benchmark run [--seed N] [--seconds S] [--trace 0|1]   every workload, a child process each
//! mis2-benchmark run --list
//! mis2-benchmark selfcheck [--workload W] [--seed N] [--seconds S]   the gated workloads, or W
//! mis2-benchmark spec                                         BENCHMARK.json, from the table
//! ```

mod hist;
mod host;
mod json;
mod load;
mod pipe;
mod probes;
mod run;
mod selfcheck;
mod spec;
mod stats;
mod trace;
mod workloads;
mod yard;

use std::process::ExitCode;

const USAGE: &str =
    "usage: mis2-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--list]
       mis2-benchmark selfcheck [--workload W] [--seed N] [--seconds S]
       mis2-benchmark spec";

struct Cli {
    workload: Option<&'static spec::Workload>,
    list: bool,
    args: run::Args,
}

fn parse(mut words: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        list: false,
        args: run::Args {
            seed: 1,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
        },
    };
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => cli.list = true,
            "--workload" => {
                let name = value()?;
                cli.workload = Some(spec::workload(&name).ok_or_else(|| {
                    let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                cli.args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                cli.args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number in (0, 60]")?;
            }
            "--trace" => {
                cli.args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn list() {
    println!(
        "workloads ({} s measured each, closed loops, pool = host CPUs):",
        spec::RUN_SECONDS
    );
    for w in spec::WORKLOADS {
        println!(
            "  {:<12} tail p{:<3} {:<9} op = {}",
            w.name,
            w.tail_pct,
            if w.gated { "gated" } else { "not gated" },
            w.op
        );
        println!("  {:<12} why: {}", "", w.why);
    }
    println!("\nend-to-end metrics (every workload, untraced run):");
    for m in spec::END_TO_END {
        println!(
            "  {:<20} {:<13} {:<6} bound {:>4.0}%  {}",
            m.name,
            m.unit,
            m.better.name(),
            100.0 * m.bound,
            m.meaning
        );
    }
    println!("\nper-layer metrics (traced run, no bound):");
    for m in spec::PER_LAYER {
        println!(
            "  {:<28} {:<8} {:<6} -> {}",
            m.name,
            m.unit,
            m.better.name(),
            m.moves
        );
    }
}

fn main() -> ExitCode {
    let mut words = std::env::args().skip(1);
    let command = words.next();
    let cli = match parse(words) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match command.as_deref() {
        Some("run") if cli.list => {
            list();
            true
        }
        Some("run") => match cli.workload {
            Some(workload) => {
                let report = run::run_one(workload, cli.args);
                run::print_and_save(workload, cli.args, &report);
                // An incorrect run still exits 0: the result line says
                // `correct: false`, and that is the driver's to judge.
                true
            }
            None => run::run_all(cli.args),
        },
        Some("selfcheck") => {
            let chosen: Vec<_> = match cli.workload {
                Some(w) => vec![w],
                None => spec::WORKLOADS.iter().filter(|w| w.gated).collect(),
            };
            selfcheck::selfcheck(&chosen, cli.args)
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json().render_pretty());
            true
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
