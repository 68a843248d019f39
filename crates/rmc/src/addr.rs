//! The node-prefix address codec.
//!
//! Section III-B of the paper: the 14 most-significant bits of a 48-bit
//! physical address name the home node of the data. Prefix 0 means "one of
//! my local memory controllers"; any other prefix routes the access to the
//! RMC, which forwards it to that node, where the receiving RMC **sets the
//! prefix to zero** and replays the access locally. Because node ids start
//! at 1, every node shares an identical memory-map conception and no RMC
//! needs a translation table.
//!
//! The codec also exposes the paper's *overlapped segment* quirk: node `k`
//! addressing prefix `k` would reach its own memory through the fabric
//! (loopback). A reservation never produces such addresses (a node never
//! lends to itself), and [`RemoteRef::expect_no_loopback`] lets callers
//! assert that.

use cohfree_fabric::NodeId;
use cohfree_mem::map::{NODE_ADDR_BITS, NODE_WINDOW_BYTES};

/// A decoded physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteRef {
    /// Prefix 0: the address refers to the issuing node's local memory.
    Local {
        /// Node-local physical address.
        offset: u64,
    },
    /// Non-zero prefix naming another node.
    Remote {
        /// Node whose DRAM backs the address.
        home: NodeId,
        /// Physical address within the home node.
        offset: u64,
    },
    /// Non-zero prefix naming the issuing node itself — the overlapped
    /// "loopback" segment that correct reservations never produce.
    Loopback {
        /// Physical address within this node.
        offset: u64,
    },
}

/// Encode a home node and node-local offset into a prefixed physical address.
///
/// ```
/// use cohfree_fabric::NodeId;
/// use cohfree_rmc::addr::{encode, strip_prefix};
///
/// // The paper's Section III-B example: node 3's zone at 0x4100_0000.
/// let prefixed = encode(NodeId::new(3), 0x4100_0000);
/// assert_eq!(prefixed, (3 << 34) | 0x4100_0000);
/// assert_eq!(strip_prefix(prefixed), 0x4100_0000);
/// ```
///
/// # Panics
/// Panics if `offset` does not fit the per-node window (2^34 bytes).
pub fn encode(home: NodeId, offset: u64) -> u64 {
    assert!(
        offset < NODE_WINDOW_BYTES,
        "offset {offset:#x} exceeds the node window"
    );
    ((home.get() as u64) << NODE_ADDR_BITS) | offset
}

/// Split a prefixed address into `(prefix, offset)`; prefix 0 = local.
pub fn split(addr: u64) -> (u16, u64) {
    (
        (addr >> NODE_ADDR_BITS) as u16,
        addr & (NODE_WINDOW_BYTES - 1),
    )
}

/// Decode an address as seen by node `me`.
pub fn decode(me: NodeId, addr: u64) -> RemoteRef {
    let (prefix, offset) = split(addr);
    if prefix == 0 {
        RemoteRef::Local { offset }
    } else if prefix == me.get() {
        RemoteRef::Loopback { offset }
    } else {
        RemoteRef::Remote {
            home: NodeId::new(prefix),
            offset,
        }
    }
}

/// What the receiving RMC does on arrival: clear the 14 prefix bits,
/// yielding the home node's local physical address.
pub fn strip_prefix(addr: u64) -> u64 {
    addr & (NODE_WINDOW_BYTES - 1)
}

impl RemoteRef {
    /// The home node for a remote reference.
    pub fn home(self) -> Option<NodeId> {
        match self {
            RemoteRef::Remote { home, .. } => Some(home),
            _ => None,
        }
    }

    /// Classify, treating loopback as a protocol violation.
    ///
    /// # Panics
    /// Panics on [`RemoteRef::Loopback`] — the reservation mechanism
    /// guarantees this never happens in practice (Section III-B).
    pub fn expect_no_loopback(self) -> RemoteRef {
        assert!(
            !matches!(self, RemoteRef::Loopback { .. }),
            "loopback address observed: a reservation must never map a \
             node's own memory through its RMC"
        );
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn paper_worked_example() {
        // Section III-B: node 3 reserves locally at 0x0000_4100_0000 and
        // returns the prefixed form; node 1 later issues the prefixed
        // address and node 3's RMC strips it back.
        let local = 0x0000_4100_0000u64;
        let prefixed = encode(n(3), local);
        assert_eq!(prefixed, (3u64 << 34) | local);
        assert_eq!(strip_prefix(prefixed), local);
        match decode(n(1), prefixed) {
            RemoteRef::Remote { home, offset } => {
                assert_eq!(home, n(3));
                assert_eq!(offset, local);
            }
            other => panic!("expected remote, got {other:?}"),
        }
    }

    #[test]
    fn prefix_zero_is_local() {
        assert_eq!(decode(n(1), 0x1234), RemoteRef::Local { offset: 0x1234 });
        assert_eq!(
            decode(n(1), NODE_WINDOW_BYTES - 1),
            RemoteRef::Local {
                offset: NODE_WINDOW_BYTES - 1
            }
        );
    }

    #[test]
    fn loopback_detected() {
        let addr = encode(n(5), 0x42);
        assert_eq!(decode(n(5), addr), RemoteRef::Loopback { offset: 0x42 });
        assert_eq!(
            decode(n(6), addr),
            RemoteRef::Remote {
                home: n(5),
                offset: 0x42
            }
        );
    }

    #[test]
    #[should_panic(expected = "loopback address observed")]
    fn loopback_guard_fires() {
        decode(n(5), encode(n(5), 0)).expect_no_loopback();
    }

    #[test]
    fn round_trip_random() {
        let mut rng = cohfree_sim::Rng::new(99);
        for _ in 0..1_000 {
            let home = n(rng.range(1, 16384) as u16);
            let offset = rng.below(NODE_WINDOW_BYTES);
            let addr = encode(home, offset);
            let (p, o) = split(addr);
            assert_eq!(p, home.get());
            assert_eq!(o, offset);
            assert_eq!(strip_prefix(addr), offset);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the node window")]
    fn oversized_offset_rejected() {
        encode(n(1), NODE_WINDOW_BYTES);
    }

    #[test]
    fn home_accessor() {
        assert_eq!(decode(n(1), encode(n(2), 0)).home(), Some(n(2)));
        assert_eq!(decode(n(1), 0).home(), None);
    }
}
