//! # mis2-color — parallel graph coloring substrate
//!
//! Coloring appears in two places in the paper:
//!
//! * the **cluster multicolor Gauss-Seidel** preconditioner (Algorithm 4)
//!   colors the *coarsened* graph to find independent clusters that can be
//!   swept in parallel;
//! * the **D2C aggregation baselines** of Table V ("Serial D2C", "NB D2C")
//!   use net-based distance-2 coloring to pick aggregate roots.
//!
//! Provided algorithms:
//!
//! * [`jp::color_d1`] — deterministic parallel distance-1 coloring
//!   (Jones–Plassmann with xorshift\* priorities, hashed once per vertex);
//! * [`d2::color_d2`] — deterministic parallel distance-2 coloring: the
//!   same Jones–Plassmann loop over two-hop neighborhoods (the
//!   "net-based" scheme);
//! * [`d2::color_d2_speculative`] — the nondeterministic speculative
//!   distance-2 coloring of the "NB D2C" baseline;
//! * [`d2::color_d2_serial`] — sequential greedy distance-2 coloring
//!   (the "Serial D2C" baseline's coloring step);
//! * [`sets::ColorSets`] — CRS-by-color layout for visiting color classes.
//!
//! Every parallel write here is owner-computes: a round's winners pick
//! their colors in a map over the previous round's color array, and a
//! plain loop writes them back.

pub mod d2;
pub mod jp;
pub mod sets;
pub mod verify;

pub use d2::{color_d2, color_d2_serial, color_d2_speculative};
pub use jp::color_d1;
pub use sets::ColorSets;
pub use verify::{verify_coloring_d1, verify_coloring_d2, ColoringViolation};

/// A coloring: `colors[v]` in `0..num_colors`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// Per-vertex color, `0..num_colors`.
    pub colors: Vec<u32>,
    /// Number of distinct colors used.
    pub num_colors: u32,
    /// Rounds the parallel algorithm needed (1 for serial algorithms).
    pub rounds: usize,
}

impl Coloring {
    /// Construct from a raw color array (recomputes `num_colors`).
    pub fn from_colors(colors: Vec<u32>, rounds: usize) -> Self {
        let num_colors = colors.iter().copied().max().map_or(0, |m| m + 1);
        Coloring {
            colors,
            num_colors,
            rounds,
        }
    }
}
