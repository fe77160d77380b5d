//! `mis2cli` — run the library's algorithms on a Matrix Market file or a
//! named suite workload.
//!
//! ```text
//! mis2cli <command> (--mtx FILE | --workload NAME [--scale S]) [--seed N]
//!         [--threads N] [options]
//!
//! commands:
//!   stats       graph summary statistics
//!   mis2        Algorithm 1 (deterministic MIS-2)
//!   aggregate   Algorithm 3 (MIS-2 aggregation) with its shape metrics
//!   coarsen     recursive multilevel coarsening summary
//!   color       deterministic distance-1 coloring
//!   colord2     deterministic distance-2 coloring
//! ```

use mis2_coarsen as coarsen;
use mis2_core as core_;
use mis2_graph::{io, suite, CsrGraph, Scale};

struct Args {
    command: String,
    mtx: Option<String>,
    workload: Option<String>,
    scale: Scale,
    seed: u64,
    threads: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: mis2cli <stats|mis2|aggregate|coarsen|color|colord2>\n\
         \x20       (--mtx FILE | --workload NAME [--scale tiny|small|paper])\n\
         \x20       [--seed N] [--threads N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
    }
    let mut a = Args {
        command: argv[0].clone(),
        mtx: None,
        workload: None,
        scale: Scale::Small,
        seed: 0,
        threads: None,
    };
    let mut i = 1;
    while i < argv.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--mtx" => a.mtx = Some(take(&mut i)),
            "--workload" => a.workload = Some(take(&mut i)),
            "--scale" => a.scale = Scale::parse(&take(&mut i)).unwrap_or_else(|| usage()),
            "--seed" => a.seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--threads" => a.threads = Some(take(&mut i).parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
        i += 1;
    }
    if a.threads == Some(0) {
        eprintln!("error: --threads must be at least 1 (the calling thread counts)");
        std::process::exit(2);
    }
    a
}

fn load_graph(a: &Args) -> CsrGraph {
    match (&a.mtx, &a.workload) {
        (Some(path), _) => match io::read_graph_file(path) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("error reading {path}: {e}");
                std::process::exit(1);
            }
        },
        (None, Some(name)) => match suite::try_build(name, a.scale) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        },
        (None, None) => {
            eprintln!("no input: pass --mtx FILE or --workload NAME");
            eprintln!(
                "workloads: {}",
                suite::all_workloads()
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = parse_args();
    match args.threads {
        // Cap every parallel region of the run (determinism contract:
        // results are identical at any cap).
        Some(t) => mis2_prim::pool::with_pool(t, || run(&args)),
        None => run(&args),
    }
}

fn run(args: &Args) {
    let g = load_graph(args);
    println!("graph: {}", g.stats());
    let t = std::time::Instant::now();
    match args.command.as_str() {
        "stats" => {
            let hist = mis2_graph::ops::degree_histogram(&g);
            let (ncomp, _) = mis2_graph::ops::connected_components(&g);
            println!("connected components: {ncomp}");
            let show = hist.iter().enumerate().filter(|(_, &c)| c > 0).take(12);
            for (d, c) in show {
                println!("  degree {d:>4}: {c} vertices");
            }
        }
        "mis2" => {
            let r = core_::mis2_with_config(
                &g,
                &core_::Mis2Config {
                    seed: args.seed,
                    ..Default::default()
                },
            );
            core_::verify_mis2(&g, &r.is_in).expect("internal error: invalid MIS-2");
            println!(
                "|MIS-2| = {} ({:.3}% of V), {} iterations, verified",
                r.size(),
                100.0 * r.size() as f64 / g.num_vertices() as f64,
                r.iterations
            );
        }
        "aggregate" => {
            let agg = coarsen::mis2_aggregation(&g);
            agg.validate(&g)
                .expect("internal error: invalid aggregation");
            let s = coarsen::aggregate_stats(&g, &agg);
            println!(
                "{} aggregates, mean size {:.2}, max size {}, verified",
                s.count, s.mean_size, s.max_size
            );
            println!(
                "max_root_radius {}, internal_edge_fraction {:.3}",
                s.max_root_radius.unwrap_or(0),
                s.internal_edge_fraction
            );
        }
        "coarsen" => {
            let levels = coarsen::coarsen_recursive(&g, 100, 12);
            for (i, lvl) in levels.iter().enumerate() {
                println!("  level {i}: {}", lvl.graph.stats());
            }
        }
        "color" => {
            let c = mis2_color::color_d1(&g, args.seed);
            mis2_color::verify_coloring_d1(&g, &c.colors).expect("invalid coloring");
            println!("{} colors in {} rounds, verified", c.num_colors, c.rounds);
        }
        "colord2" => {
            let c = mis2_color::color_d2(&g, args.seed);
            mis2_color::verify_coloring_d2(&g, &c.colors).expect("invalid coloring");
            println!(
                "{} distance-2 colors in {} rounds, verified",
                c.num_colors, c.rounds
            );
        }
        _ => usage(),
    }
    println!("elapsed: {:.1} ms", t.elapsed().as_secs_f64() * 1e3);
}
