#![warn(missing_docs)]

//! # cohfree-rmc — the Remote Memory Controller
//!
//! The paper's central hardware contribution: a HyperTransport I/O unit that
//! lets plain load/store instructions reach memory in other nodes with **no
//! software on the access path** and **no inter-node coherency traffic**.
//!
//! * [`addr`] — the 14-most-significant-bits node-prefix codec ("there is no
//!   node 0", so the RMC needs no translation tables),
//! * [`client`] — the requesting-side datapath: bounded request slots,
//!   FPGA-class per-message processing on a single front-end engine (shared
//!   by requests and responses — the root of the client-side bottleneck the
//!   paper measures in Fig. 7), NACK/retry arbitration with a wasted-cycles
//!   penalty,
//! * [`server`] — the home-side datapath: prefix strip, replay against the
//!   local memory controllers, response generation (the congestion point of
//!   Fig. 8),
//! * [`prefetch`] — a sequential stream prefetcher, the paper's "future
//!   work" extension, used by the `abl_prefetch` ablation.
//!
//! All components are pure state machines: they consume events and return
//! actions with explicit timestamps; the event loop in `cohfree-core` wires
//! them to the fabric and memory models.

pub mod addr;
pub mod client;
pub mod prefetch;
pub mod server;

pub use addr::{decode, encode, strip_prefix, RemoteRef};
pub use client::{Completion, RmcClient, Submit};
pub use prefetch::Prefetcher;
pub use server::RmcServer;

use cohfree_sim::SimDuration;

/// Timing/sizing parameters for one RMC.
///
/// The client-side pass is several times heavier than the server-side one:
/// it bridges processor I/O semantics to HNC-HT, allocates/retires request
/// slots and matches tags, while the server side only strips the prefix and
/// replays the access. The paper's own measurements locate the bottleneck
/// in the *local* (client) RMC, and the asymmetry is what makes one client
/// saturate at about two cores while a memory server absorbs around a dozen
/// client threads before congesting (Figs. 7 and 8).
#[derive(Debug, Clone, Copy)]
pub struct RmcConfig {
    /// Client-side front-end occupancy per message (request out or
    /// response in). FPGA-class; see [`RmcConfig::asic`].
    pub proc_time: SimDuration,
    /// Server-side front-end occupancy per message.
    pub server_proc_time: SimDuration,
    /// Client request slots (in-flight transactions the RMC can track).
    /// The prototype's I/O-unit design tracked very few.
    pub request_slots: usize,
    /// How long a NACKed requester waits before re-offering.
    pub retry_interval: SimDuration,
    /// Loss-recovery timeout: if a transaction's response has not arrived
    /// this long after injection, the RMC retransmits the request. Only
    /// armed when the fabric is lossy (`FabricConfig::loss_rate > 0`).
    pub timeout: SimDuration,
}

impl Default for RmcConfig {
    fn default() -> Self {
        RmcConfig {
            proc_time: SimDuration::ns(300),
            server_proc_time: SimDuration::ns(50),
            request_slots: 3,
            retry_interval: SimDuration::ns(150),
            timeout: SimDuration::us(30),
        }
    }
}

impl RmcConfig {
    /// An optimistic ASIC-class RMC (for ablations): 4× faster front-ends,
    /// deeper queues — the paper's "improved implementations" scenario.
    pub fn asic() -> Self {
        RmcConfig {
            proc_time: SimDuration::ns(75),
            server_proc_time: SimDuration::ns(15),
            request_slots: 16,
            retry_interval: SimDuration::ns(50),
            timeout: SimDuration::us(30),
        }
    }
}
