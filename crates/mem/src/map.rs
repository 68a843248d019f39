//! The physical address layout.
//!
//! Figure 3 of the paper: each node sees a 48-bit physical address space in
//! which addresses whose 14 most-significant bits are zero refer to local
//! memory (owned by one of the socket memory controllers), and everything
//! else is mapped to the RMC. These constants fix that split; the RMC
//! crate's `addr` module owns the prefix codec, and
//! [`crate::dram::NodeMemory`] picks the socket of a local address.

/// Width of the node-identifier prefix (most-significant address bits).
pub const PREFIX_BITS: u32 = 14;
/// Total physical address width modelled (AMD64-era 48-bit).
pub const ADDR_BITS: u32 = 48;
/// Bits of address space owned by a single node (48 - 14 = 34 ⇒ 16 GiB).
pub const NODE_ADDR_BITS: u32 = ADDR_BITS - PREFIX_BITS;
/// Per-node address window size implied by the prefix split (16 GiB).
pub const NODE_WINDOW_BYTES: u64 = 1 << NODE_ADDR_BITS;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_the_paper() {
        // 14-bit prefix over 48-bit addresses leaves a 16 GiB node window —
        // exactly the prototype's per-node memory.
        assert_eq!(NODE_WINDOW_BYTES, 16 << 30);
    }
}
