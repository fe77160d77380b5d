//! CRS-by-color layout.
//!
//! D2C aggregation (Table V) roots its aggregates one color class at a
//! time: "for color in colors: parallel-for over the vertices of that
//! color". This structure groups vertex ids by color contiguously so each
//! wave is a cache-friendly slice, built deterministically with the
//! workspace's one counting sort.

use crate::Coloring;
use mis2_graph::VertexId;

/// Vertices grouped by color: `members[offsets[c]..offsets[c+1]]` holds the
/// vertices of color `c` in ascending id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorSets {
    offsets: Vec<usize>,
    members: Vec<VertexId>,
}

impl ColorSets {
    /// Build from a coloring.
    pub fn build(coloring: &Coloring) -> Self {
        let colors = coloring.colors.iter().copied();
        let (offsets, members) =
            mis2_prim::bucket_by_key(coloring.num_colors as usize, colors.zip(0u32..));
        ColorSets { offsets, members }
    }

    /// Number of colors.
    #[inline]
    pub fn num_colors(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The vertices of color `c` (ascending ids).
    #[inline]
    pub fn members(&self, c: usize) -> &[VertexId] {
        &self.members[self.offsets[c]..self.offsets[c + 1]]
    }

    /// Iterate over `(color, members)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[VertexId])> {
        (0..self.num_colors()).map(move |c| (c, self.members(c)))
    }

    /// Total vertices across all colors.
    pub fn total(&self) -> usize {
        self.members.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jp::color_d1;
    use mis2_graph::gen;

    #[test]
    fn partition_property() {
        let g = gen::erdos_renyi(200, 800, 4);
        let c = color_d1(&g, 0);
        let sets = ColorSets::build(&c);
        assert_eq!(sets.num_colors(), c.num_colors as usize);
        assert_eq!(sets.total(), 200);
        // Every vertex appears exactly once, under its own color.
        let mut seen = [false; 200];
        for (color, members) in sets.iter() {
            for &v in members {
                assert!(!seen[v as usize], "duplicate vertex {v}");
                seen[v as usize] = true;
                assert_eq!(c.colors[v as usize] as usize, color);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn members_sorted() {
        let g = gen::laplace2d(10, 10);
        let sets = ColorSets::build(&color_d1(&g, 0));
        for (_, members) in sets.iter() {
            for w in members.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn empty() {
        let c = Coloring::from_colors(vec![], 0);
        let sets = ColorSets::build(&c);
        assert_eq!(sets.num_colors(), 0);
        assert_eq!(sets.total(), 0);
    }
}
