//! `kernel_mesh` and `kernel_rmat`: one op is one `mis2_with_config` on
//! the whole pool. The two graphs put the same `core` layer to different
//! use: a flat FE-mesh stand-in where every row is in the small degree
//! class, and a Graph500 R-MAT whose hub rows reach the medium class and
//! whose frontier collapses in fewer rounds.
//!
//! The ops of a run cycle through [`PRIORITY_SEEDS`] values of
//! `Mis2Config.seed`. What one MIS-2 costs depends on the priorities it
//! draws (on the R-MAT graph by ±6%, the same from run to run), so a run
//! on a single value would measure that draw, and ten seeds ten draws.

use super::{measure, ms, timed_setups, Cx, Outcome, Readings};
use crate::json::Value;
use crate::load::Client;
use crate::yard::Gather;
use mis2_core::{mis2_with_config, verify_mis2, Mis2Config, Mis2Result};
use mis2_graph::{gen, CsrGraph};
use mis2_prim::hash::splitmix64;
use mis2_prim::pool::with_pool;
use std::time::Instant;

#[derive(Clone, Copy)]
pub enum Kind {
    Mesh,
    Rmat,
}

/// Vertices of the mesh: the Emilia_923 class (base degree 22, one local
/// hub per 20 000 vertices) that 13 of the paper's 17 matrices fall in.
/// Half a million vertices keep an op near 50 ms and set-up under half a
/// second.
const MESH_VERTICES: usize = 500_000;
/// R-MAT scale 18, edge factor 16, a/b/c = .57/.19/.19 (Graph500): 262 144
/// vertices, hub degree about 25 000, an op near 60 ms.
const RMAT_SCALE: u32 = 18;
/// Values of `Mis2Config.seed` the ops of a run cycle through; the first
/// is the run's seed itself.
const PRIORITY_SEEDS: usize = 8;
/// Adjacency entries between two barriers of the yardstick: 44 barriers in
/// a reading of 20 ms on the mesh, 48 in 31 ms on the R-MAT graph, against
/// about a hundred pool regions in an op of 47 and 60 ms. In the host's
/// slow-wake-up phases op and reading then grow by the same half.
const YARDSTICK_BLOCK: usize = 1 << 20;

pub fn generate(kind: Kind, seed: u64) -> CsrGraph {
    match kind {
        Kind::Mesh => gen::mesh3d(
            MESH_VERTICES,
            22,
            0.02,
            2,
            40,
            MESH_VERTICES / 20_000,
            26,
            seed,
        ),
        Kind::Rmat => gen::rmat(RMAT_SCALE, 16, 0.57, 0.19, 0.19, seed),
    }
}

pub fn run(kind: Kind, cx: &Cx) -> Outcome {
    let cpus = cx.cpus;
    let cfgs: Vec<Mis2Config> = (0..PRIORITY_SEEDS as u64)
        .map(|i| Mis2Config {
            seed: match i {
                0 => cx.seed,
                i => splitmix64(cx.seed ^ splitmix64(i)),
            },
            ..Default::default()
        })
        .collect();
    let mut gen_ms = 0.0;
    // Set-up: generate the graph and run one op, which starts the pool and
    // faults the kernel's work arrays in.
    let (g, setups_s) = timed_setups(
        || {
            let (g, t) = ms(|| generate(kind, cx.seed));
            gen_ms = t;
            std::hint::black_box(with_pool(cpus, || mis2_with_config(&g, &cfgs[0])));
            g
        },
        drop,
    );
    // Oracle: the frozen reference engine's result under each priority
    // seed, checked by `verify_mis2` (and, under the first, against both
    // pool sizes of the adaptive engine). An op is correct when its whole
    // result (set, mask, round count and per-round history) equals it, so
    // every accepted result is a verified MIS-2 without verifying it again.
    let oracle = crate::probes::core(&g, cx.seed, cpus);
    let mut valid = oracle.consistent.clone();
    let mut references: Vec<Mis2Result> = vec![oracle.reference.clone()];
    for cfg in &cfgs[1..] {
        let reference = with_pool(cpus, || mis2_core::reference::mis2_with_config(&g, cfg));
        if let Err(e) = verify_mis2(&g, &reference.is_in) {
            valid = valid.and(Err(format!(
                "the reference result under priority seed {} is not an MIS-2: {e:?}",
                cfg.seed
            )));
        }
        references.push(reference);
    }

    let op = |turn: &mut usize, c: &mut Client| {
        let which = *turn % PRIORITY_SEEDS;
        *turn += 1;
        let root = c.rec.begin("harness.op");
        let s = c.rec.begin("core.mis2");
        let t = Instant::now();
        let got = with_pool(cpus, || mis2_with_config(&g, &cfgs[which]));
        let latency = t.elapsed();
        c.rec.end(s);
        let s = c.rec.begin("harness.check");
        let want = &references[which];
        let verdict = if got == *want {
            Ok(())
        } else {
            Err(format!(
                "result differs from the reference engine: |set| {} vs {}, rounds {} vs {}",
                got.size(),
                want.size(),
                got.iterations,
                want.iterations
            ))
        };
        drop(got);
        c.rec.end(s);
        c.rec.end(root);
        c.done(latency, verdict);
    };
    let mut yardstick = Gather::new(vec![&g], cpus, YARDSTICK_BLOCK);
    let (plain, traced) = measure(&mut [0usize], cx, &mut || yardstick.read(), op);

    let mut layers = Readings::new();
    if cx.trace {
        layers.push(("graph.gen_ms", gen_ms));
        layers.extend(oracle.readings.iter().copied());
        let p50_ms = plain.hist.quantile_ns(0.5) / 1e6;
        let p1_ms = oracle.reading("core.mis2_p1_ms");
        layers.push(("prim.scaling_eff", p1_ms / p50_ms / cpus as f64));
    }
    let rounds: Vec<Value> = references
        .iter()
        .map(|r| Value::from(r.iterations as u64))
        .collect();
    Outcome {
        setups_s,
        plain,
        traced,
        valid,
        layers,
        inputs: Value::obj([
            ("vertices", Value::from(g.num_vertices() as u64)),
            ("edges", Value::from(g.num_edges() as u64)),
            ("max_degree", Value::from(g.max_degree() as u64)),
            ("graph_bytes", Value::from(g.heap_bytes() as u64)),
            ("priority_seeds", Value::from(PRIORITY_SEEDS as u64)),
            ("rounds", Value::Arr(rounds)),
            ("set_size", Value::from(oracle.reference.size() as u64)),
            ("yardstick_sweeps", Value::from(yardstick.sweeps() as u64)),
            (
                "yardstick_barriers",
                Value::from(yardstick.barriers() as u64),
            ),
        ]),
        probe_graph: g,
        serves_probe_graph: false,
    }
}
