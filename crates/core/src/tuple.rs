//! Status-tuple representations (Section V-C of the paper).
//!
//! Algorithm 1 tracks, per vertex, a 3-tuple `(status, rand, ID)` ordered
//! lexicographically with `IN < UNDECIDED < OUT`. Two representations are
//! provided:
//!
//! * [`Packed`] — the paper's compressed representation: a single unsigned
//!   word with `IN = 0`, `OUT = MAX`, and undecided vertices packed as
//!   `(priority << b) | (id + 1)` where `b = ceil(log2(|V| + 2))` id bits.
//!   Equation 1 of the paper shows no packed undecided value can collide
//!   with either sentinel. We use a 64-bit word (the paper uses the vertex
//!   id width, typically 32; with 64 bits priority ties are essentially
//!   impossible while keeping the exact same packing scheme).
//! * [`Unpacked`] — the straightforward 3-field struct Bell's algorithm
//!   uses; kept as the ablation baseline for the "Packed Status" bar of
//!   Figure 2.
//!
//! Both implement [`TupleRepr`] so the Algorithm 1 engine is generic over
//! the representation.

/// Number of id bits `b = ceil(log2(n + 2))`, i.e. the bit length of
/// `n + 1`. Guarantees `2^b >= n + 2`, which by the paper's Equation 1
/// ensures `(priority << b) | (id + 1)` never equals `0` (IN) or the
/// all-ones word (OUT).
#[inline]
pub fn id_bits(n: usize) -> u32 {
    debug_assert!(n > 0);
    u64::BITS - ((n as u64) + 1).leading_zeros()
}

/// Abstraction over the two tuple representations. `Ord` must realize the
/// lexicographic `(status, priority, id)` order with `IN < UNDECIDED < OUT`.
pub trait TupleRepr: Copy + Send + Sync + Ord + Eq + std::fmt::Debug {
    /// The `IN` sentinel (smallest value).
    const IN: Self;
    /// The `OUT` sentinel (largest value).
    const OUT: Self;
    /// Not `OUT`, and no smaller than any undecided tuple: the column value
    /// of a vertex no pass computes (the start of `M` in the engine).
    const LAST: Self;
    /// An undecided tuple for vertex `id` with the given priority.
    /// `bits` is the precomputed [`id_bits`] of the graph.
    fn undecided(priority: u64, id: u32, bits: u32) -> Self;
    /// Is this the `IN` sentinel?
    fn is_in(self) -> bool;
    /// Is this the `OUT` sentinel?
    fn is_out(self) -> bool;
    /// Is this neither sentinel?
    #[inline]
    fn is_undecided(self) -> bool {
        !self.is_in() && !self.is_out()
    }
}

/// The paper's packed single-word representation.
pub type Packed = u64;

impl TupleRepr for Packed {
    const IN: Self = 0;
    const OUT: Self = u64::MAX;
    // The low `b` bits of an undecided word hold `id + 1 <= 2^b - 2`.
    const LAST: Self = u64::MAX - 1;

    #[inline]
    fn undecided(priority: u64, id: u32, bits: u32) -> Self {
        // Keep only the priority bits that fit above the id field; the id
        // (+1, so it is nonzero) functions as the tiebreak in the low bits.
        let prio_bits = 64 - bits;
        let masked = if prio_bits == 64 {
            priority
        } else {
            priority & ((1u64 << prio_bits) - 1)
        };
        (masked << bits) | (id as u64 + 1)
    }

    #[inline]
    fn is_in(self) -> bool {
        self == 0
    }

    #[inline]
    fn is_out(self) -> bool {
        self == u64::MAX
    }
}

/// Extract `(priority, id)` from a packed undecided tuple (test helper).
#[inline]
pub fn unpack(t: Packed, bits: u32) -> (u64, u32) {
    debug_assert!(t != Packed::IN && t != Packed::OUT);
    let id_mask = (1u64 << bits) - 1;
    ((t >> bits), ((t & id_mask) - 1) as u32)
}

/// Vertex status in the explicit 3-field representation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum Status3 {
    In = 0,
    Undecided = 1,
    Out = 2,
}

/// Bell-style explicit `(status, priority, id)` tuple. Derived `Ord` is
/// lexicographic over the declaration order, exactly the paper's comparison
/// rule.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Unpacked {
    pub status: Status3,
    pub priority: u64,
    pub id: u32,
}

impl TupleRepr for Unpacked {
    const IN: Self = Unpacked {
        status: Status3::In,
        priority: 0,
        id: 0,
    };
    const OUT: Self = Unpacked {
        status: Status3::Out,
        priority: u64::MAX,
        id: u32::MAX,
    };
    const LAST: Self = Unpacked {
        status: Status3::Undecided,
        priority: u64::MAX,
        id: u32::MAX,
    };

    #[inline]
    fn undecided(priority: u64, id: u32, _bits: u32) -> Self {
        Unpacked {
            status: Status3::Undecided,
            priority,
            id,
        }
    }

    #[inline]
    fn is_in(self) -> bool {
        self.status == Status3::In
    }

    #[inline]
    fn is_out(self) -> bool {
        self.status == Status3::Out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_bits_matches_formula() {
        // b = ceil(log2(n + 2))
        for n in 1..1000usize {
            let want = ((n + 2) as f64).log2().ceil() as u32;
            assert_eq!(id_bits(n), want, "n = {n}");
        }
        assert_eq!(id_bits(1), 2);
        assert_eq!(id_bits(2), 2);
        assert_eq!(id_bits(3), 3); // log2(5) -> 3
        assert_eq!(id_bits(1_000_000), 20);
    }

    #[test]
    fn packed_never_collides_with_sentinels() {
        // Equation 1 of the paper: for any priority and id, the packed value
        // is strictly between IN and OUT.
        for n in [1usize, 2, 3, 7, 100, 1 << 20] {
            let bits = id_bits(n);
            for &prio in &[0u64, 1, u64::MAX, 0xDEAD_BEEF_DEAD_BEEF] {
                for &id in &[0u32, (n as u32 - 1) / 2, n as u32 - 1] {
                    let t = Packed::undecided(prio, id, bits);
                    assert!(t > Packed::IN, "n={n} prio={prio} id={id}");
                    assert!(t <= Packed::LAST, "n={n} prio={prio} id={id}");
                }
            }
        }
    }

    #[test]
    fn packed_roundtrip() {
        let bits = id_bits(1000);
        for id in (0..1000u32).step_by(37) {
            for prio in [0u64, 5, 1 << 40] {
                let t = Packed::undecided(prio, id, bits);
                let (p, i) = unpack(t, bits);
                assert_eq!(i, id);
                assert_eq!(p, prio & ((1 << (64 - bits)) - 1));
            }
        }
    }

    #[test]
    fn packed_order_matches_tuple_order() {
        // Packed comparison must equal (priority, id) lexicographic order.
        let bits = id_bits(100);
        let prio_mask = (1u64 << (64 - bits)) - 1;
        let cases = [(0u64, 0u32), (0, 99), (1, 0), (5, 50), (5, 51), (6, 0)];
        for &(p1, i1) in &cases {
            for &(p2, i2) in &cases {
                let a = Packed::undecided(p1, i1, bits);
                let b = Packed::undecided(p2, i2, bits);
                let want = (p1 & prio_mask, i1).cmp(&(p2 & prio_mask, i2));
                assert_eq!(a.cmp(&b), want, "({p1},{i1}) vs ({p2},{i2})");
            }
        }
    }

    #[test]
    fn packed_ids_break_ties() {
        // Same priority, different id -> distinct packed values (the paper's
        // uniqueness requirement).
        let bits = id_bits(1 << 20);
        let a = Packed::undecided(42, 7, bits);
        let b = Packed::undecided(42, 8, bits);
        assert_ne!(a, b);
        assert!(a < b);
    }

    #[test]
    fn unpacked_ordering() {
        assert!(Unpacked::IN < Unpacked::undecided(0, 0, 0));
        assert!(Unpacked::undecided(u64::MAX, u32::MAX, 0) <= Unpacked::LAST);
        assert!(Unpacked::LAST < Unpacked::OUT);
        assert!(Unpacked::undecided(3, 9, 0) < Unpacked::undecided(4, 0, 0));
        assert!(Unpacked::undecided(3, 9, 0) < Unpacked::undecided(3, 10, 0));
    }

    #[test]
    fn sentinel_predicates() {
        assert!(Packed::IN.is_in() && !Packed::IN.is_out());
        assert!(Packed::OUT.is_out() && !Packed::OUT.is_in());
        assert!(!Packed::LAST.is_out() && !Unpacked::LAST.is_out());
        assert!(Packed::undecided(1, 1, 8).is_undecided());
        assert!(Unpacked::IN.is_in());
        assert!(Unpacked::OUT.is_out());
        assert!(Unpacked::undecided(1, 1, 0).is_undecided());
    }
}
