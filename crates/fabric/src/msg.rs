//! Fabric messages.
//!
//! Messages are HT-style packets exchanged between RMCs. Every message
//! carries a `tag` so responses can be matched to outstanding requests, and
//! a wire size derived from its kind — requests are header-only (plus data
//! for writes), responses carry the requested data.

use std::fmt;
use std::num::NonZeroU16;

/// A 1-based cluster node identifier.
///
/// The paper reserves prefix 0 to mean "local", so **node 0 never exists**;
/// this invariant is enforced at construction. With the 14-bit address
/// prefix, at most `2^14 - 1 = 16383` nodes are addressable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(NonZeroU16);

/// Maximum addressable node id under the 14-bit prefix (ids are 1-based).
pub const MAX_NODE_ID: u16 = (1 << 14) - 1;

impl NodeId {
    /// Construct a node id.
    ///
    /// # Panics
    /// Panics if `id` is 0 (reserved for "local") or exceeds the 14-bit
    /// prefix space.
    pub fn new(id: u16) -> NodeId {
        assert!(
            id >= 1,
            "node ids are 1-based; node 0 is reserved for 'local'"
        );
        assert!(
            id <= MAX_NODE_ID,
            "node id {id} exceeds the 14-bit prefix space (max {MAX_NODE_ID})"
        );
        NodeId(NonZeroU16::new(id).expect("checked above"))
    }

    /// Construct if valid.
    pub fn try_new(id: u16) -> Option<NodeId> {
        (1..=MAX_NODE_ID).contains(&id).then(|| NodeId::new(id))
    }

    /// The raw 1-based id.
    #[inline]
    pub fn get(self) -> u16 {
        self.0.get()
    }

    /// Zero-based index for array addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0.get() as usize - 1
    }

    /// The node with zero-based index `i`.
    #[inline]
    pub fn from_index(i: usize) -> NodeId {
        NodeId::new(u16::try_from(i + 1).expect("node index out of range"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0.get())
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0.get())
    }
}

/// What a fabric message does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Remote memory read request for `bytes` (typically one cache line).
    ReadReq {
        /// Bytes requested.
        bytes: u32,
    },
    /// Read response carrying `bytes` of data.
    ReadResp {
        /// Bytes of data carried.
        bytes: u32,
    },
    /// Remote memory write (posted or non-posted) carrying `bytes` of data.
    WriteReq {
        /// Bytes of data carried.
        bytes: u32,
    },
    /// Write completion acknowledgement.
    WriteAck,
    /// Remote-swap page fetch request.
    PageReq {
        /// Page size requested.
        bytes: u32,
    },
    /// Remote-swap page fetch response carrying a whole page.
    PageResp {
        /// Page size carried.
        bytes: u32,
    },
    /// Remote-swap page write-out (evicting a dirty page to its home).
    PageWrite {
        /// Page size carried.
        bytes: u32,
    },
    /// Acknowledgement of a page write-out.
    PageWriteAck,
    /// Coherent-DSM read request: like [`MsgKind::ReadReq`], but the home
    /// must snoop every cache in the (inter-node) coherency domain before
    /// answering — the 3Leaf/Aqua-style baseline the paper argues against.
    CohReadReq {
        /// Bytes requested.
        bytes: u32,
    },
    /// Snoop probe sent by the home node to one coherency-domain member.
    ProbeReq,
    /// A member's snoop response (no data in the clean-sharer common case).
    ProbeResp,
}

/// HT-style packet header size on the wire (command + address + routing
/// prefix), per the High-Node-Count HT encapsulation.
pub const HEADER_BYTES: u32 = 12;

impl MsgKind {
    /// Payload bytes carried (data only, excluding the header).
    pub fn payload_bytes(self) -> u32 {
        match self {
            MsgKind::ReadReq { .. } => 0,
            MsgKind::ReadResp { bytes } => bytes,
            MsgKind::WriteReq { bytes } => bytes,
            MsgKind::WriteAck => 0,
            MsgKind::PageReq { .. } => 0,
            MsgKind::PageResp { bytes } => bytes,
            MsgKind::PageWrite { bytes } => bytes,
            MsgKind::PageWriteAck => 0,
            MsgKind::CohReadReq { .. } => 0,
            MsgKind::ProbeReq => 0,
            MsgKind::ProbeResp => 0,
        }
    }

    /// Total bytes on the wire, header included.
    pub fn wire_bytes(self) -> u32 {
        HEADER_BYTES + self.payload_bytes()
    }

    /// True for messages that answer an earlier request.
    pub fn is_response(self) -> bool {
        matches!(
            self,
            MsgKind::ReadResp { .. }
                | MsgKind::WriteAck
                | MsgKind::PageResp { .. }
                | MsgKind::PageWriteAck
                | MsgKind::ProbeResp
        )
    }
}

/// A message in flight between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Message kind (determines wire size).
    pub kind: MsgKind,
    /// Correlation tag: responses copy the request's tag.
    pub tag: u64,
    /// Physical address the message refers to (prefixed form for memory
    /// operations; 0 when meaningless).
    pub addr: u64,
}

impl Message {
    /// Convenience constructor (address 0).
    pub fn new(src: NodeId, dst: NodeId, kind: MsgKind, tag: u64) -> Message {
        Message {
            src,
            dst,
            kind,
            tag,
            addr: 0,
        }
    }

    /// Constructor carrying a physical address.
    pub fn with_addr(src: NodeId, dst: NodeId, kind: MsgKind, tag: u64, addr: u64) -> Message {
        Message {
            src,
            dst,
            kind,
            tag,
            addr,
        }
    }

    /// Bytes this message occupies on each link it traverses.
    pub fn wire_bytes(&self) -> u32 {
        self.kind.wire_bytes()
    }

    /// Build the response message travelling back to the requester.
    ///
    /// # Panics
    /// Panics (debug) if `kind` is not a response kind.
    pub fn reply(&self, kind: MsgKind) -> Message {
        debug_assert!(
            kind.is_response(),
            "reply() with non-response kind {kind:?}"
        );
        Message {
            src: self.dst,
            dst: self.src,
            kind,
            tag: self.tag,
            addr: self.addr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ids_are_one_based() {
        let n = NodeId::new(1);
        assert_eq!(n.get(), 1);
        assert_eq!(n.index(), 0);
        assert_eq!(NodeId::from_index(0), n);
        assert_eq!(NodeId::from_index(15).get(), 16);
    }

    #[test]
    #[should_panic(expected = "node 0 is reserved")]
    fn node_zero_rejected() {
        let _ = NodeId::new(0);
    }

    #[test]
    #[should_panic(expected = "14-bit prefix")]
    fn node_beyond_prefix_rejected() {
        let _ = NodeId::new(MAX_NODE_ID + 1);
    }

    #[test]
    fn try_new_bounds() {
        assert!(NodeId::try_new(0).is_none());
        assert!(NodeId::try_new(1).is_some());
        assert!(NodeId::try_new(MAX_NODE_ID).is_some());
        assert!(NodeId::try_new(MAX_NODE_ID + 1).is_none());
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(MsgKind::ReadReq { bytes: 64 }.wire_bytes(), HEADER_BYTES);
        assert_eq!(
            MsgKind::ReadResp { bytes: 64 }.wire_bytes(),
            HEADER_BYTES + 64
        );
        assert_eq!(
            MsgKind::WriteReq { bytes: 64 }.wire_bytes(),
            HEADER_BYTES + 64
        );
        assert_eq!(MsgKind::WriteAck.wire_bytes(), HEADER_BYTES);
        assert_eq!(
            MsgKind::PageResp { bytes: 4096 }.wire_bytes(),
            HEADER_BYTES + 4096
        );
    }

    #[test]
    fn response_classification() {
        assert!(!MsgKind::ReadReq { bytes: 64 }.is_response());
        assert!(MsgKind::ReadResp { bytes: 64 }.is_response());
        assert!(MsgKind::WriteAck.is_response());
        assert!(!MsgKind::PageReq { bytes: 4096 }.is_response());
        assert!(MsgKind::PageWriteAck.is_response());
        assert!(!MsgKind::CohReadReq { bytes: 64 }.is_response());
        assert!(!MsgKind::ProbeReq.is_response());
        assert!(MsgKind::ProbeResp.is_response());
    }

    #[test]
    fn reply_swaps_endpoints_and_keeps_tag() {
        let req = Message::new(
            NodeId::new(3),
            NodeId::new(7),
            MsgKind::ReadReq { bytes: 64 },
            99,
        );
        let resp = req.reply(MsgKind::ReadResp { bytes: 64 });
        assert_eq!(resp.src, NodeId::new(7));
        assert_eq!(resp.dst, NodeId::new(3));
        assert_eq!(resp.tag, 99);
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", NodeId::new(12)), "n12");
        assert_eq!(format!("{:?}", NodeId::new(12)), "n12");
    }
}
