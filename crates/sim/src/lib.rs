#![warn(missing_docs)]

//! # cohfree-sim — deterministic discrete-event simulation engine
//!
//! Foundation crate for the cohfree cluster simulator. It deliberately knows
//! nothing about networks, memories or operating systems; it provides:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution simulated time,
//! * [`EventQueue`] — a total-ordered pending-event set with deterministic
//!   tie-breaking (FIFO among same-timestamp events),
//! * [`queueing`] — small analytic building blocks ([`queueing::FifoServer`])
//!   for modelling contended serial resources (memory controllers, RMC
//!   front-ends, links),
//! * [`stats`] — counters and latency histograms used by every
//!   model component,
//! * [`rng`] — a self-contained xoshiro256** PRNG so that every simulation is
//!   reproducible from a single `u64` seed with no external dependencies,
//! * [`faultlog`] — a timestamped record of fault injections, failure
//!   detections and recovery actions, serialized into cluster snapshots,
//! * [`span`] — per-transaction span tracing: a bounded [`TraceSink`]
//!   attributing each traced access's end-to-end latency to phases
//!   (stall, wire, queueing, service, ...), exportable as a Chrome
//!   trace-event document.
//!
//! ## Modelling style
//!
//! Higher-level crates implement hardware/OS components as *pure state
//! machines* that consume an input event and return a list of actions
//! (send packet on link, deliver response after d ns, ...). A thin "world"
//! in `cohfree-core` converts actions into [`EventQueue`] entries. This keeps
//! every component unit-testable without an event loop and keeps the engine
//! free of dynamic dispatch.

pub mod engine;
pub mod faultlog;
pub mod fxhash;
pub mod queueing;
pub mod rng;
pub mod snapshot;
pub mod span;
pub mod stats;
pub mod time;

pub use engine::EventQueue;
pub use faultlog::{FaultLog, FaultLogEntry};
pub use fxhash::{FastMap, FastSet};
pub use queueing::FifoServer;
pub use rng::Rng;
pub use snapshot::Json;
pub use span::{Phase, SpanRecord, TraceMode, TraceSink};
pub use time::{SimDuration, SimTime};
