//! Graph generators.
//!
//! The paper evaluates on two Galeri/Trilinos-generated structured problems
//! plus 15 SuiteSparse matrices:
//!
//! * `Laplace3D_100` — a 100^3 grid with a 7-point stencil ([`laplace3d`]);
//! * `Elasticity3D_60` — a 60^3 grid with a 27-point stencil and 3 degrees of
//!   freedom per grid point ([`elasticity3d`]).
//!
//! Those two are generated here *exactly* as in the paper. The SuiteSparse
//! matrices cannot be redistributed, so [`crate::suite`] composes the
//! generators in this module (structured stencils, jittered meshes, random
//! models) into stand-ins that match each matrix's published |V|, average
//! degree and maximum degree (Table II of the paper).
//!
//! All generators are deterministic functions of their parameters (random
//! models take an explicit seed and use splitmix64 streams, never global
//! RNG state).
//!
//! The grid generators ([`stencil3d`] and the problems on it,
//! [`elasticity3d`], [`torus3d`], [`mesh3d`]) and [`merge_edges`] know each
//! row's length before they write it, so they write their rows straight
//! into the graph's final arrays (`CsrGraph::from_sized_rows`), one graph
//! alive at a time. A stencil's offsets are sorted once by their linear
//! delta, so a row of an open box comes out strictly ascending and is not
//! sorted again. `mesh3d` writes each row as its stencil neighbours, then
//! its extra edges; only rows with extras are sorted. The random models
//! build through `CsrGraph::from_edges`.

use crate::csr::{bucket_edges, CsrGraph, VertexId};
use mis2_prim::hash::splitmix64;
use mis2_prim::par;

/// 3D stencil offsets: the 6 face neighbors (7-point stencil minus center).
pub const OFFSETS_7PT: [(i32, i32, i32); 6] = [
    (-1, 0, 0),
    (1, 0, 0),
    (0, -1, 0),
    (0, 1, 0),
    (0, 0, -1),
    (0, 0, 1),
];

/// All 26 neighbors of the 27-point stencil (minus center).
pub fn offsets_27pt() -> Vec<(i32, i32, i32)> {
    let mut out = Vec::with_capacity(26);
    for dz in -1..=1 {
        for dy in -1..=1 {
            for dx in -1..=1 {
                if (dx, dy, dz) != (0, 0, 0) {
                    out.push((dx, dy, dz));
                }
            }
        }
    }
    out
}

/// Approximately the `k` offsets nearest the origin (excluding the origin),
/// ordered by squared distance then lexicographically, **always emitted in
/// `{o, -o}` pairs** so the resulting stencil graph is symmetric even when
/// `k` cuts through a distance shell. Odd `k` rounds up to the next even
/// count. Used by [`mesh3d`] to hit a target average degree.
pub fn offsets_nearest(k: usize) -> Vec<(i32, i32, i32)> {
    // Radius 4 gives (9^3 - 1) / 2 = 364 pairs, plenty. Enumerate only the
    // lexicographically-positive half space.
    let r = 4i32;
    let mut cand: Vec<(i32, (i32, i32, i32))> = Vec::new();
    for dz in -r..=r {
        for dy in -r..=r {
            for dx in -r..=r {
                let positive = dz > 0 || (dz == 0 && dy > 0) || (dz == 0 && dy == 0 && dx > 0);
                if positive {
                    cand.push((dx * dx + dy * dy + dz * dz, (dx, dy, dz)));
                }
            }
        }
    }
    cand.sort_unstable();
    let pairs = k.div_ceil(2);
    assert!(pairs <= cand.len(), "offsets_nearest: k = {k} too large");
    let mut out = Vec::with_capacity(pairs * 2);
    for (_, (dx, dy, dz)) in cand.into_iter().take(pairs) {
        out.push((dx, dy, dz));
        out.push((-dx, -dy, -dz));
    }
    out
}

/// A stencil on an `nx x ny x nz` grid, its offsets sorted once by their
/// linear delta `Δ(o) = dx + nx * (dy + ny * dz)`. Inside the box the
/// neighbour of `v` at `o` is `v + Δ(o)`, so an open box's rows come out
/// strictly ascending, and a vertex at least the offsets' reach away from
/// every face has all of them, with no bounds check.
struct Stencil {
    dims: [usize; 3],
    offsets: Vec<[i64; 3]>,
    deltas: Vec<i64>,
    /// The largest `|o[a]|` on each axis `a`.
    reach: [usize; 3],
}

impl Stencil {
    fn new(
        nx: usize,
        ny: usize,
        nz: usize,
        offsets: impl IntoIterator<Item = (i32, i32, i32)>,
    ) -> Self {
        let delta = |o: &[i64; 3]| o[0] + nx as i64 * (o[1] + ny as i64 * o[2]);
        let mut offsets: Vec<[i64; 3]> = offsets
            .into_iter()
            .map(|(dx, dy, dz)| [dx as i64, dy as i64, dz as i64])
            .collect();
        offsets.sort_by_key(|o| (delta(o), *o));
        let reach = |a: usize| {
            offsets
                .iter()
                .map(|o| o[a].unsigned_abs() as usize)
                .max()
                .unwrap_or(0)
        };
        Stencil {
            dims: [nx, ny, nz],
            deltas: offsets.iter().map(delta).collect(),
            reach: [reach(0), reach(1), reach(2)],
            offsets,
        }
    }

    fn len(&self) -> usize {
        self.dims.iter().product()
    }

    #[inline]
    fn coords(&self, v: usize) -> [usize; 3] {
        let [nx, ny, _] = self.dims;
        [v % nx, (v / nx) % ny, v / (nx * ny)]
    }

    /// Every offset of `c` lands in the box.
    #[inline]
    fn interior(&self, c: [usize; 3]) -> bool {
        (0..3).all(|a| c[a] >= self.reach[a] && c[a] + self.reach[a] < self.dims[a])
    }

    #[inline]
    fn inside(&self, c: [usize; 3], o: &[i64; 3]) -> bool {
        (0..3).all(|a| (0..self.dims[a] as i64).contains(&(c[a] as i64 + o[a])))
    }

    /// How many neighbours `v` has in the open box.
    fn count(&self, v: usize) -> usize {
        let c = self.coords(v);
        if self.interior(c) {
            self.offsets.len()
        } else {
            self.offsets.iter().filter(|o| self.inside(c, o)).count()
        }
    }

    /// Write `v`'s neighbours in the open box, ascending, to the front of
    /// `out`; returns how many there are.
    #[inline]
    fn write(&self, v: usize, out: &mut [VertexId]) -> usize {
        let c = self.coords(v);
        if self.interior(c) {
            for (slot, &d) in out.iter_mut().zip(&self.deltas) {
                *slot = (v as i64 + d) as VertexId;
            }
            return self.deltas.len();
        }
        let mut k = 0;
        for (o, &d) in self.offsets.iter().zip(&self.deltas) {
            if self.inside(c, o) {
                out[k] = (v as i64 + d) as VertexId;
                k += 1;
            }
        }
        k
    }

    /// The graph of the stencil on the open box.
    fn graph(&self) -> CsrGraph {
        CsrGraph::from_sized_rows(
            self.len(),
            |v| self.count(v),
            |v, row| {
                self.write(v, row);
            },
        )
    }
}

/// General 3D stencil graph on an open (non-periodic) `nx x ny x nz` grid.
///
/// The offset list must be symmetric (contain `-o` for each `o`) for the
/// result to be undirected; all built-in offset sets are.
pub fn stencil3d(nx: usize, ny: usize, nz: usize, offsets: &[(i32, i32, i32)]) -> CsrGraph {
    // The origin would make a self-loop.
    let offsets = offsets.iter().copied().filter(|&o| o != (0, 0, 0));
    Stencil::new(nx, ny, nz, offsets).graph()
}

/// 7-point Laplacian grid graph — the paper's `Laplace3D` (Galeri
/// `Laplace3D`). `laplace3d(100, 100, 100)` is the exact `Laplace3D_100`
/// problem from Tables II/III/V.
///
/// ```
/// let g = mis2_graph::gen::laplace3d(10, 10, 10);
/// assert_eq!(g.num_vertices(), 1000);
/// assert_eq!(g.max_degree(), 6);
/// ```
pub fn laplace3d(nx: usize, ny: usize, nz: usize) -> CsrGraph {
    stencil3d(nx, ny, nz, &OFFSETS_7PT)
}

/// 5-point 2D Laplacian grid graph.
pub fn laplace2d(nx: usize, ny: usize) -> CsrGraph {
    stencil3d(nx, ny, 1, &[(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0)])
}

/// 27-point stencil with `dof` degrees of freedom per grid point — the
/// paper's `Elasticity3D` (Galeri `Elasticity3D`, dof = 3): every dof of a
/// node is connected to every dof of all 27-stencil neighbor nodes
/// (including the other dofs of its own node, excluding itself).
/// `elasticity3d(60, 60, 60, 3)` is the exact `Elasticity3D_60` problem
/// (|V| = 648 000, avg degree just under 81).
pub fn elasticity3d(nx: usize, ny: usize, nz: usize, dof: usize) -> CsrGraph {
    // The node's own offset sorts among the others, so a row of dofs
    // node by node, less `v` itself, is strictly ascending.
    let nodes = Stencil::new(nx, ny, nz, offsets_27pt().into_iter().chain([(0, 0, 0)]));
    CsrGraph::from_sized_rows(
        nodes.len() * dof,
        |v| nodes.count(v / dof) * dof - 1,
        |v, row| {
            let mut near = [0; 27];
            let count = nodes.write(v / dof, &mut near);
            let dofs = near[..count]
                .iter()
                .flat_map(|&nb| (0..dof).map(move |d| nb as usize * dof + d))
                .filter(|&w| w != v);
            for (slot, w) in row.iter_mut().zip(dofs) {
                *slot = w as VertexId;
            }
        },
    )
}

/// Periodic (torus) 3D stencil graph: like [`stencil3d`] but offsets wrap
/// around, so every vertex has the full stencil degree — useful for
/// boundary-free algorithmic studies (iteration counts, scaling laws).
pub fn torus3d(nx: usize, ny: usize, nz: usize, offsets: &[(i32, i32, i32)]) -> CsrGraph {
    assert!(
        nx >= 3 && ny >= 3 && nz >= 1,
        "torus needs >= 3 cells per periodic dim"
    );
    // An offset that wraps onto the vertex itself (the origin among them)
    // does so at every vertex.
    let dims = [nx as i64, ny as i64, nz as i64];
    let elsewhere = |&(dx, dy, dz): &(i32, i32, i32)| {
        [dx, dy, dz]
            .iter()
            .zip(dims)
            .any(|(&d, n)| (d as i64).rem_euclid(n) != 0)
    };
    let st = Stencil::new(nx, ny, nz, offsets.iter().copied().filter(elsewhere));
    CsrGraph::from_sized_rows(
        st.len(),
        |_| st.offsets.len(),
        |v, row| {
            let c = st.coords(v);
            if st.interior(c) {
                st.write(v, row);
                return;
            }
            // Rows that wrap are sorted, and deduplicated where two
            // offsets wrap onto one vertex.
            for (slot, o) in row.iter_mut().zip(&st.offsets) {
                let w = [0, 1, 2].map(|a| (c[a] as i64 + o[a]).rem_euclid(dims[a]) as usize);
                *slot = (w[0] + nx * (w[1] + ny * w[2])) as VertexId;
            }
        },
    )
}

/// Path graph `0 - 1 - ... - (n-1)`.
pub fn path(n: usize) -> CsrGraph {
    let edges: Vec<(VertexId, VertexId)> = (0..n.saturating_sub(1))
        .map(|i| (i as VertexId, (i + 1) as VertexId))
        .collect();
    CsrGraph::from_edges(n, &edges)
}

/// Cycle graph.
pub fn cycle(n: usize) -> CsrGraph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut edges: Vec<(VertexId, VertexId)> = (0..n - 1)
        .map(|i| (i as VertexId, (i + 1) as VertexId))
        .collect();
    edges.push(((n - 1) as VertexId, 0));
    CsrGraph::from_edges(n, &edges)
}

/// Star graph: vertex 0 connected to all others.
pub fn star(n: usize) -> CsrGraph {
    let edges: Vec<(VertexId, VertexId)> = (1..n).map(|i| (0, i as VertexId)).collect();
    CsrGraph::from_edges(n, &edges)
}

/// Complete graph K_n.
pub fn complete(n: usize) -> CsrGraph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u as VertexId, v as VertexId));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Erdős–Rényi G(n, m): `m` distinct undirected edges drawn uniformly
/// (deterministically from `seed`).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(n >= 2 || m == 0);
    let max_m = n * (n - 1) / 2;
    let m = m.min(max_m);
    let mut edges = std::collections::HashSet::with_capacity(m * 2);
    let mut ctr = 0u64;
    while edges.len() < m {
        let h = splitmix64(seed ^ splitmix64(ctr));
        ctr += 1;
        let u = (h % n as u64) as VertexId;
        let v = ((h >> 32) % n as u64) as VertexId;
        if u == v {
            continue;
        }
        let e = (u.min(v), u.max(v));
        edges.insert(e);
    }
    let edges: Vec<_> = {
        let mut v: Vec<_> = edges.into_iter().collect();
        v.sort_unstable();
        v
    };
    CsrGraph::from_edges(n, &edges)
}

/// Approximately d-regular random graph: ring edges (guaranteeing
/// connectivity) plus `(d-2)/2` random chords per vertex.
pub fn random_regular_ish(n: usize, d: usize, seed: u64) -> CsrGraph {
    assert!(n >= 3);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(n * d / 2 + n);
    for i in 0..n {
        edges.push((i as VertexId, ((i + 1) % n) as VertexId));
    }
    let chords_per_vertex = d.saturating_sub(2) / 2;
    for i in 0..n {
        for c in 0..chords_per_vertex {
            let h = splitmix64(seed ^ splitmix64((i * 31 + c) as u64));
            let j = (h % n as u64) as usize;
            if j != i {
                edges.push((i as VertexId, j as VertexId));
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// RMAT power-law generator (Graph500-style): `2^scale` vertices,
/// `edge_factor * 2^scale` edge samples with partition probabilities
/// `(a, b, c, 1-a-b-c)`. `scale` is at most 31, so that every vertex id
/// fits a [`VertexId`].
pub fn rmat(scale: u32, edge_factor: usize, a: f64, b: f64, c: f64, seed: u64) -> CsrGraph {
    assert!(
        scale <= 31,
        "rmat scale {scale} > 31: vertex ids would not fit"
    );
    CsrGraph::from_edges(
        1usize << scale,
        &rmat_edges(scale, edge_factor, a, b, c, seed),
    )
}

/// The edge samples [`rmat`] builds its graph from, in sample order.
///
/// Each level draws `r = k / 2^53` from the top 53 bits `k` of a hash and
/// picks the first quadrant whose running sum `a`, `a + b`, `a + b + c`
/// exceeds `r`. The division is exact, so `r < x` holds exactly when
/// `k < ceil(x * 2^53)`: the level compares `k` with three integer
/// thresholds and counts, with no branch. The running max keeps the
/// first-match order when `b` or `c` is negative. A NaN or negative sum
/// gives threshold 0 (no `k` is below it) and a sum above 1 one above
/// every `k`, as the `f64` compares do.
pub fn rmat_edges(
    scale: u32,
    edge_factor: usize,
    a: f64,
    b: f64,
    c: f64,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    let threshold = |x: f64| (x * (1u64 << 53) as f64).ceil().max(0.0) as u64;
    let ta = threshold(a);
    let tab = threshold(a + b).max(ta);
    let tabc = threshold(a + b + c).max(tab);
    let m = edge_factor << scale;
    par::map_range(0..m as u64, |e| {
        let mut u = 0usize;
        let mut v = 0usize;
        for lvl in 0..scale {
            let k = splitmix64(seed ^ splitmix64(e * 64 + lvl as u64)) >> 11;
            let q = (k >= ta) as usize + (k >= tab) as usize + (k >= tabc) as usize;
            u = (u << 1) | (q >> 1);
            v = (v << 1) | (q & 1);
        }
        (u as VertexId, v as VertexId)
    })
}

/// Mesh-like graph: a 3D box with the `base_deg` nearest-offset stencil,
/// plus `extra_frac` of vertices receiving `extra_deg` additional random
/// short-range edges (window `window`), giving FE-mesh-style degree
/// variance. `hub_count` vertices additionally become local hubs of degree
/// roughly `hub_deg` (to match published max-degree values).
#[allow(clippy::too_many_arguments)]
pub fn mesh3d(
    n_target: usize,
    base_deg: usize,
    extra_frac: f64,
    extra_deg: usize,
    window: usize,
    hub_count: usize,
    hub_deg: usize,
    seed: u64,
) -> CsrGraph {
    let side = (n_target as f64).cbrt().round().max(2.0) as usize;
    let (nx, ny) = (side, side);
    let nz = n_target.div_ceil(nx * ny).max(1);
    let n = nx * ny * nz;
    let stencil = Stencil::new(nx, ny, nz, offsets_nearest(base_deg));
    if extra_frac <= 0.0 && hub_count == 0 {
        return stencil.graph();
    }
    // Random local extras.
    let mut extra_edges: Vec<(VertexId, VertexId)> = Vec::new();
    let n_extra_vertices = (n as f64 * extra_frac) as usize;
    for k in 0..n_extra_vertices {
        let h = splitmix64(seed ^ splitmix64(k as u64));
        let v = (h % n as u64) as usize;
        for j in 0..extra_deg {
            let h2 = splitmix64(h ^ splitmix64(j as u64 + 7));
            let delta = (h2 % (2 * window as u64 + 1)) as i64 - window as i64;
            let u = v as i64 + delta;
            if u >= 0 && (u as usize) < n && u as usize != v {
                extra_edges.push((v as VertexId, u as VertexId));
            }
        }
    }
    // Hubs.
    for k in 0..hub_count {
        let h = splitmix64(seed ^ splitmix64(0xDEAD ^ k as u64));
        let v = (h % n as u64) as usize;
        for j in 0..hub_deg {
            let h2 = splitmix64(h ^ splitmix64(j as u64));
            let delta = (h2 % (4 * window as u64 + 1)) as i64 - 2 * window as i64;
            let u = v as i64 + delta;
            if u >= 0 && (u as usize) < n && u as usize != v {
                extra_edges.push((v as VertexId, u as VertexId));
            }
        }
    }
    // Each row is its stencil neighbours, then its extras: only a row
    // with extras is sorted.
    let (starts, targets) = bucket_edges(n, &extra_edges);
    drop(extra_edges);
    let extras = |v: usize| &targets[starts[v]..starts[v + 1]];
    CsrGraph::from_sized_rows(
        n,
        |v| stencil.count(v) + extras(v).len(),
        |v, row| {
            let k = stencil.write(v, row);
            row[k..].copy_from_slice(extras(v));
        },
    )
}

/// Union of an existing graph and extra undirected edges.
pub fn merge_edges(g: &CsrGraph, extra: &[(VertexId, VertexId)]) -> CsrGraph {
    let n = g.num_vertices();
    let (starts, targets) = bucket_edges(n, extra);
    let extras = |v: usize| &targets[starts[v]..starts[v + 1]];
    CsrGraph::from_sized_rows(
        n,
        |v| g.degree(v as VertexId) + extras(v).len(),
        |v, row| {
            let (own, more) = row.split_at_mut(g.degree(v as VertexId));
            own.copy_from_slice(g.neighbors(v as VertexId));
            more.copy_from_slice(extras(v));
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generators as they were first written, kept as the oracle of
    /// the ones above: each row pushed onto a row-block buffer
    /// (`from_row_blocks`) and sorted there, and `mesh3d` as the stencil
    /// graph merged with its extra edges.
    mod oracle {
        use crate::csr::{bucket_edges, sort_dedup_from, CsrGraph, VertexId};
        use crate::gen::{offsets_27pt, offsets_nearest};
        use mis2_prim::hash::splitmix64;

        fn grid_id(nx: usize, ny: usize, x: usize, y: usize, z: usize) -> VertexId {
            (x + nx * (y + ny * z)) as VertexId
        }

        pub fn stencil3d(nx: usize, ny: usize, nz: usize, offsets: &[(i32, i32, i32)]) -> CsrGraph {
            CsrGraph::from_row_blocks(
                nx * ny * nz,
                || (),
                |_, v, row| {
                    let start = row.len();
                    let (x, y, z) = (v % nx, (v / nx) % ny, v / (nx * ny));
                    for &(dx, dy, dz) in offsets {
                        let (xx, yy, zz) = (
                            x as i64 + dx as i64,
                            y as i64 + dy as i64,
                            z as i64 + dz as i64,
                        );
                        if xx >= 0
                            && (xx as usize) < nx
                            && yy >= 0
                            && (yy as usize) < ny
                            && zz >= 0
                            && (zz as usize) < nz
                        {
                            row.push(grid_id(nx, ny, xx as usize, yy as usize, zz as usize));
                        }
                    }
                    row[start..].sort_unstable();
                },
            )
        }

        pub fn elasticity3d(nx: usize, ny: usize, nz: usize, dof: usize) -> CsrGraph {
            let offsets = offsets_27pt();
            CsrGraph::from_row_blocks(
                nx * ny * nz * dof,
                || (),
                |_, v, row| {
                    let start = row.len();
                    let (node, my_dof) = (v / dof, v % dof);
                    let (x, y, z) = (node % nx, (node / nx) % ny, node / (nx * ny));
                    for d in 0..dof {
                        if d != my_dof {
                            row.push((node * dof + d) as VertexId);
                        }
                    }
                    for &(dx, dy, dz) in &offsets {
                        let (xx, yy, zz) = (
                            x as i64 + dx as i64,
                            y as i64 + dy as i64,
                            z as i64 + dz as i64,
                        );
                        if xx >= 0
                            && (xx as usize) < nx
                            && yy >= 0
                            && (yy as usize) < ny
                            && zz >= 0
                            && (zz as usize) < nz
                        {
                            let nb = grid_id(nx, ny, xx as usize, yy as usize, zz as usize);
                            for d in 0..dof {
                                row.push((nb as usize * dof + d) as VertexId);
                            }
                        }
                    }
                    row[start..].sort_unstable();
                },
            )
        }

        pub fn torus3d(nx: usize, ny: usize, nz: usize, offsets: &[(i32, i32, i32)]) -> CsrGraph {
            CsrGraph::from_row_blocks(
                nx * ny * nz,
                || (),
                |_, v, row| {
                    let start = row.len();
                    let (x, y, z) = (v % nx, (v / nx) % ny, v / (nx * ny));
                    row.extend(
                        offsets
                            .iter()
                            .map(|&(dx, dy, dz)| {
                                let xx = (x as i64 + dx as i64).rem_euclid(nx as i64) as usize;
                                let yy = (y as i64 + dy as i64).rem_euclid(ny as i64) as usize;
                                let zz = (z as i64 + dz as i64).rem_euclid(nz as i64) as usize;
                                grid_id(nx, ny, xx, yy, zz)
                            })
                            .filter(|&w| w as usize != v),
                    );
                    sort_dedup_from(row, start);
                },
            )
        }

        pub fn merge_edges(g: &CsrGraph, extra: &[(VertexId, VertexId)]) -> CsrGraph {
            let n = g.num_vertices();
            let (offsets, targets) = bucket_edges(n, extra);
            CsrGraph::from_row_blocks(
                n,
                || (),
                |_, v, row| {
                    let start = row.len();
                    row.extend_from_slice(g.neighbors(v as VertexId));
                    row.extend_from_slice(&targets[offsets[v]..offsets[v + 1]]);
                    sort_dedup_from(row, start);
                },
            )
        }

        #[allow(clippy::too_many_arguments)]
        pub fn mesh3d(
            n_target: usize,
            base_deg: usize,
            extra_frac: f64,
            extra_deg: usize,
            window: usize,
            hub_count: usize,
            hub_deg: usize,
            seed: u64,
        ) -> CsrGraph {
            let side = (n_target as f64).cbrt().round().max(2.0) as usize;
            let (nx, ny) = (side, side);
            let nz = n_target.div_ceil(nx * ny).max(1);
            let n = nx * ny * nz;
            let g = stencil3d(nx, ny, nz, &offsets_nearest(base_deg));
            if extra_frac <= 0.0 && hub_count == 0 {
                return g;
            }
            let mut extra_edges: Vec<(VertexId, VertexId)> = Vec::new();
            for k in 0..(n as f64 * extra_frac) as usize {
                let h = splitmix64(seed ^ splitmix64(k as u64));
                let v = (h % n as u64) as usize;
                for j in 0..extra_deg {
                    let h2 = splitmix64(h ^ splitmix64(j as u64 + 7));
                    let delta = (h2 % (2 * window as u64 + 1)) as i64 - window as i64;
                    let u = v as i64 + delta;
                    if u >= 0 && (u as usize) < n && u as usize != v {
                        extra_edges.push((v as VertexId, u as VertexId));
                    }
                }
            }
            for k in 0..hub_count {
                let h = splitmix64(seed ^ splitmix64(0xDEAD ^ k as u64));
                let v = (h % n as u64) as usize;
                for j in 0..hub_deg {
                    let h2 = splitmix64(h ^ splitmix64(j as u64));
                    let delta = (h2 % (4 * window as u64 + 1)) as i64 - 2 * window as i64;
                    let u = v as i64 + delta;
                    if u >= 0 && (u as usize) < n && u as usize != v {
                        extra_edges.push((v as VertexId, u as VertexId));
                    }
                }
            }
            merge_edges(&g, &extra_edges)
        }
    }

    /// `got()` at pools {1, 2, 3, 5, 8} against the oracle's graph at pool
    /// 1: the same rows, the same bytes charged, capacity equal to length.
    fn assert_builds_as_the_oracle(
        what: &str,
        got: impl Fn() -> CsrGraph + Sync,
        want: impl FnOnce() -> CsrGraph + Send,
    ) {
        let want = mis2_prim::pool::with_pool(1, want);
        want.validate_symmetric().unwrap();
        let exact = std::mem::size_of_val(want.row_ptr()) + std::mem::size_of_val(want.col_idx());
        assert_eq!(want.heap_bytes(), exact, "{what}: the oracle");
        for pool in [1usize, 2, 3, 5, 8] {
            let g = mis2_prim::pool::with_pool(pool, &got);
            assert_eq!(g, want, "{what}, pool {pool}");
            assert_eq!(g.heap_bytes(), exact, "{what}, pool {pool}");
        }
    }

    #[test]
    fn every_row_generator_builds_the_graph_of_the_oracle_at_every_pool_size() {
        // Without extras or hubs, extras alone, hubs alone, both, and
        // windows wider than the box, so draws fall off both of its ends.
        let meshes = [
            (3000, 22, 0.0, 0, 0, 0, 0, 1),
            (8000, 18, 0.1, 4, 50, 0, 0, 2),
            (8000, 18, 0.0, 0, 50, 5, 30, 3),
            (8000, 18, 0.1, 4, 50, 5, 30, 99),
            (20_000, 22, 0.02, 2, 40, 3, 26, 5),
            (500, 12, 0.5, 6, 400, 3, 40, 7),
            (30, 26, 0.9, 8, 1000, 4, 60, 8),
            (1, 6, 0.5, 2, 3, 1, 4, 9),
        ];
        for (n, base, frac, deg, window, hubs, hub_deg, seed) in meshes {
            assert_builds_as_the_oracle(
                &format!("mesh3d({n}, {base}, {frac}, {deg}, {window}, {hubs}, {hub_deg})"),
                || mesh3d(n, base, frac, deg, window, hubs, hub_deg, seed),
                || oracle::mesh3d(n, base, frac, deg, window, hubs, hub_deg, seed),
            );
        }
        let plane = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0)];
        // Dimension 3 with offsets of length 2, which wrap onto those of
        // length 1 (the dedup path), 2-D slabs, and a z of 2, where both
        // z offsets reach the same vertex.
        for (dims, offsets) in [
            ((3, 3, 3), OFFSETS_7PT.to_vec()),
            ((3, 3, 3), offsets_nearest(40)),
            ((3, 4, 5), offsets_27pt()),
            ((6, 6, 1), plane.to_vec()),
            ((5, 4, 1), OFFSETS_7PT.to_vec()),
            ((4, 3, 2), OFFSETS_7PT.to_vec()),
            ((17, 13, 11), offsets_nearest(18)),
        ] {
            let (nx, ny, nz) = dims;
            assert_builds_as_the_oracle(
                &format!("torus3d({nx}, {ny}, {nz}), {} offsets", offsets.len()),
                || torus3d(nx, ny, nz, &offsets),
                || oracle::torus3d(nx, ny, nz, &offsets),
            );
        }
        for (dims, dof) in [
            ((5, 4, 3), 1),
            ((4, 4, 4), 3),
            ((9, 7, 6), 3),
            ((2, 1, 1), 2),
        ] {
            let (nx, ny, nz) = dims;
            assert_builds_as_the_oracle(
                &format!("elasticity3d({nx}, {ny}, {nz}, {dof})"),
                || elasticity3d(nx, ny, nz, dof),
                || oracle::elasticity3d(nx, ny, nz, dof),
            );
        }
        assert_builds_as_the_oracle(
            "laplace2d(30, 20)",
            || laplace2d(30, 20),
            || oracle::stencil3d(30, 20, 1, &plane),
        );
        assert_builds_as_the_oracle(
            "laplace3d(17, 9, 5)",
            || laplace3d(17, 9, 5),
            || oracle::stencil3d(17, 9, 5, &OFFSETS_7PT),
        );
        for (dims, k) in [
            ((5, 4, 3), 10),
            ((23, 19, 7), 60),
            ((1, 1, 1), 6),
            ((2, 9, 1), 26),
        ] {
            let (nx, ny, nz) = dims;
            let offsets = offsets_nearest(k);
            assert_builds_as_the_oracle(
                &format!("stencil3d({nx}, {ny}, {nz}), {k} offsets"),
                || stencil3d(nx, ny, nz, &offsets),
                || oracle::stencil3d(nx, ny, nz, &offsets),
            );
        }
        // Extras with self-loops, repeats in both orientations, edges the
        // graph already has, in no order; and none at all.
        let g = laplace3d(12, 11, 7);
        let n = g.num_vertices() as u64;
        let mut extra: Vec<(VertexId, VertexId)> = (0..3000u64)
            .map(|i| {
                let h = splitmix64(i ^ 0x5EED);
                let u = (h % n) as VertexId;
                let v = if h >> 61 == 0 {
                    u
                } else {
                    ((h >> 32) % n) as VertexId
                };
                (u, v)
            })
            .collect();
        extra.extend([(0, 1), (1, 0), (0, 1), (5, 5), (900, 3), (3, 900)]);
        assert!(extra.iter().any(|&(u, v)| u == v));
        for (what, extra) in [("merge_edges", &extra[..]), ("merge_edges, no extras", &[])] {
            assert_builds_as_the_oracle(
                what,
                || merge_edges(&g, extra),
                || oracle::merge_edges(&g, extra),
            );
        }
    }

    #[test]
    fn stencil_rows_come_out_strictly_ascending_as_written() {
        // What lets `from_sized_rows` leave a row of an open box unsorted:
        // the offsets in delta order give ascending ids, interior vertices
        // and those on faces, edges and corners alike.
        let sets = [
            OFFSETS_7PT.to_vec(),
            offsets_nearest(22),
            offsets_nearest(60),
            offsets_27pt().into_iter().chain([(0, 0, 0)]).collect(),
        ];
        for (nx, ny, nz) in [(9, 8, 7), (3, 5, 2), (1, 1, 4), (12, 1, 1)] {
            for offsets in &sets {
                let st = Stencil::new(nx, ny, nz, offsets.iter().copied());
                let mut row = vec![0; offsets.len()];
                for v in 0..st.len() {
                    let k = st.write(v, &mut row);
                    assert_eq!(k, st.count(v), "{nx}x{ny}x{nz}, vertex {v}");
                    assert!(
                        row[..k].windows(2).all(|w| w[0] < w[1]),
                        "{nx}x{ny}x{nz}, {} offsets, vertex {v}: {:?}",
                        offsets.len(),
                        &row[..k]
                    );
                }
            }
        }
    }

    #[test]
    fn laplace3d_shape() {
        let g = laplace3d(4, 4, 4);
        assert_eq!(g.num_vertices(), 64);
        // Interior vertex has degree 6, corner has 3.
        assert_eq!(g.max_degree(), 6);
        assert_eq!(g.min_degree(), 3);
        g.validate_symmetric().unwrap();
        // Corner (0,0,0) connects to (1,0,0), (0,1,0), (0,0,1) = ids 1, 4, 16.
        assert_eq!(g.neighbors(0), &[1, 4, 16]);
    }

    #[test]
    fn laplace3d_100_matches_paper_stats() {
        // Paper Table II: Laplace3D_100 has |V| = 1e6, |E| = 6.94e6 nonzeros,
        // avg degree 6.94, max degree 7 (the paper's counts include the
        // diagonal; without it max interior degree is 6... check: avg 6.94
        // means ~6.94 entries/row INCLUDING diagonal: 5.94 off-diag. Our
        // structural graph stores off-diagonal only: 100^3 grid 7pt has
        // 6*100^3 - 6*100^2 directed edges = 5.94e6.
        let g = laplace3d(100, 100, 100);
        assert_eq!(g.num_vertices(), 1_000_000);
        assert_eq!(g.num_directed_edges(), 6 * 1_000_000 - 6 * 10_000);
        assert_eq!(g.max_degree(), 6);
    }

    #[test]
    fn laplace2d_shape() {
        let g = laplace2d(3, 3);
        assert_eq!(g.num_vertices(), 9);
        assert_eq!(g.max_degree(), 4); // center vertex
        assert_eq!(g.min_degree(), 2); // corners
        g.validate_symmetric().unwrap();
    }

    #[test]
    fn elasticity3d_shape() {
        let g = elasticity3d(4, 4, 4, 3);
        assert_eq!(g.num_vertices(), 64 * 3);
        // Interior node: 27 nodes x 3 dofs - self = 80.
        assert_eq!(g.max_degree(), 80);
        g.validate_symmetric().unwrap();
    }

    #[test]
    fn elasticity_avg_degree_near_paper() {
        // Paper: Elasticity3D_60 avg degree 78.33 (incl. diagonal), max 81.
        // Structure-only: avg ~77.3, max 80 on a smaller grid already.
        // On a 10^3 grid only half the nodes are interior, pulling the mean
        // down; it converges towards ~78 as the grid grows.
        let g = elasticity3d(10, 10, 10, 3);
        assert!(g.avg_degree() > 55.0 && g.avg_degree() < 81.0);
        let g20 = elasticity3d(20, 20, 20, 3);
        assert!(g20.avg_degree() > g.avg_degree());
    }

    #[test]
    fn path_cycle_star_complete() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(star(5).num_edges(), 4);
        assert_eq!(star(5).degree(0), 4);
        assert_eq!(complete(5).num_edges(), 10);
        assert_eq!(complete(5).min_degree(), 4);
    }

    #[test]
    fn erdos_renyi_edge_count_and_determinism() {
        let g1 = erdos_renyi(100, 300, 42);
        let g2 = erdos_renyi(100, 300, 42);
        assert_eq!(g1, g2);
        assert_eq!(g1.num_edges(), 300);
        g1.validate_symmetric().unwrap();
        let g3 = erdos_renyi(100, 300, 43);
        assert_ne!(g1, g3, "different seeds should differ");
    }

    #[test]
    fn erdos_renyi_caps_at_complete() {
        let g = erdos_renyi(5, 1000, 1);
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn random_regular_ish_degree() {
        let g = random_regular_ish(1000, 8, 7);
        let avg = g.avg_degree();
        assert!(avg > 6.0 && avg < 9.0, "avg degree {avg} out of range");
        g.validate_symmetric().unwrap();
    }

    #[test]
    fn rmat_shape() {
        let g = rmat(10, 8, 0.57, 0.19, 0.19, 3);
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.num_edges() > 1000);
        g.validate_symmetric().unwrap();
        // Power-law: max degree much larger than average.
        assert!(g.max_degree() as f64 > 3.0 * g.avg_degree());
    }

    /// Edge `e` of [`rmat`] as the generator first drew it: one `f64`
    /// compare chain per level. The oracle for the integer draw.
    fn rmat_edge_spec(
        e: u64,
        scale: u32,
        a: f64,
        b: f64,
        c: f64,
        seed: u64,
    ) -> (VertexId, VertexId) {
        let mut u = 0usize;
        let mut v = 0usize;
        for lvl in 0..scale {
            let h = splitmix64(seed ^ splitmix64(e * 64 + lvl as u64));
            let r = (h >> 11) as f64 / (1u64 << 53) as f64;
            let (du, dv) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        (u as VertexId, v as VertexId)
    }

    fn assert_rmat_edges_match_spec(scale: u32, edge_factor: usize, (a, b, c): (f64, f64, f64)) {
        let seed = splitmix64(scale as u64 ^ a.to_bits() ^ b.to_bits().rotate_left(21));
        let got = rmat_edges(scale, edge_factor, a, b, c, seed);
        assert_eq!(got.len(), edge_factor << scale);
        for (e, &edge) in got.iter().enumerate() {
            let want = rmat_edge_spec(e as u64, scale, a, b, c, seed);
            assert_eq!(
                edge, want,
                "edge {e}, scale {scale}, (a, b, c) = ({a}, {b}, {c})"
            );
        }
    }

    /// Graph500 and skewed parameters, sums that fall below an earlier
    /// threshold (a negative `b` or `c`) or pass 1, empty partitions, and
    /// NaN and infinite thresholds.
    const RMAT_PARAMS: [(f64, f64, f64); 17] = [
        (0.57, 0.19, 0.19),
        (0.65, 0.15, 0.15),
        (0.6, 0.2, 0.1),
        (0.3, -0.1, 0.5),
        (0.5, 0.0, 0.0),
        (0.2, 0.9, 0.4),
        (-0.1, 0.3, 0.3),
        (1.0, 0.0, 0.0),
        (0.25, 0.25, 0.25),
        (f64::NAN, 0.2, 0.2),
        (0.2, f64::NAN, 0.2),
        (0.2, 0.2, f64::NAN),
        (f64::INFINITY, 0.0, 0.0),
        (0.2, f64::INFINITY, 0.1),
        (0.2, 0.3, f64::INFINITY),
        (f64::NEG_INFINITY, 0.5, 0.5),
        (0.2, f64::NEG_INFINITY, f64::INFINITY),
    ];

    #[test]
    fn rmat_draws_the_edges_of_the_compare_chain() {
        for params in RMAT_PARAMS {
            for scale in 8..=14 {
                assert_rmat_edges_match_spec(scale, 2, params);
            }
        }
    }

    /// `kernel_rmat`'s and `rmat_18_skew`'s scale and edge factor:
    /// `cargo test --release -p mis2-graph --lib rmat_draws -- --ignored`.
    #[test]
    #[ignore]
    fn rmat_draws_the_edges_of_the_compare_chain_at_scale_18() {
        for params in [(0.57, 0.19, 0.19), (0.65, 0.15, 0.15)] {
            assert_rmat_edges_match_spec(18, 16, params);
        }
    }

    #[test]
    fn offsets_nearest_ordering() {
        let o = offsets_nearest(6);
        // First six are the face neighbors (distance^2 = 1).
        for off in &o {
            let d2 = off.0 * off.0 + off.1 * off.1 + off.2 * off.2;
            assert_eq!(d2, 1, "offset {off:?} not a face neighbor");
        }
        let o26 = offsets_nearest(26);
        assert_eq!(o26.len(), 26);
    }

    #[test]
    fn mesh3d_hits_degree_targets() {
        let g = mesh3d(8000, 18, 0.1, 4, 50, 5, 30, 99);
        let avg = g.avg_degree();
        assert!(avg > 16.0 && avg < 22.0, "avg {avg}");
        assert!(g.max_degree() >= 30, "max {}", g.max_degree());
        g.validate_symmetric().unwrap();
    }

    #[test]
    fn stencil_symmetric_offsets_required() {
        // A symmetric offset set produces a symmetric graph even with
        // boundary clipping.
        let g = stencil3d(5, 4, 3, &offsets_nearest(10));
        g.validate_symmetric().unwrap();
    }

    #[test]
    fn torus_is_regular() {
        // Periodic wrap removes boundary effects: every vertex has the
        // full stencil degree.
        let g = torus3d(5, 5, 5, &OFFSETS_7PT);
        assert_eq!(g.min_degree(), 6);
        assert_eq!(g.max_degree(), 6);
        g.validate_symmetric().unwrap();
    }

    #[test]
    fn torus_2d_slab() {
        let g = torus3d(6, 6, 1, &[(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0)]);
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.max_degree(), 4);
        g.validate_symmetric().unwrap();
        // Wrap edge exists: (0,0) adjacent to (5,0) = id 5.
        assert!(g.has_edge(0, 5));
    }

    #[test]
    fn torus_small_dims_dedup() {
        // nx = 3: offsets -1 and +1 from the same vertex hit distinct
        // neighbors; degree stays 6 with no duplicates.
        let g = torus3d(3, 3, 3, &OFFSETS_7PT);
        g.validate_symmetric().unwrap();
        assert_eq!(g.max_degree(), 6);
    }
}
