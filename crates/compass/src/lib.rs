//! # tn-compass — the software expression of the neurosynaptic kernel
//!
//! Compass is "a highly-optimized function-level simulator for large-scale
//! networks of spiking neurons organized as neurosynaptic cores" (paper
//! Section III-B). This crate is its Rust counterpart, executing the exact
//! blueprint semantics of [`tn_core`]:
//!
//! * [`phases`] — the tick's four phase bodies (Faults → Input → Neurons
//!   → Routing), written once and called by every engine;
//! * [`driver::TickDriver`] — the single-threaded driver over those
//!   phases, parameterised by a routing policy. With the [`Direct`]
//!   policy it is [`ReferenceSim`], the obviously-correct ground truth of
//!   the 1:1 equivalence regressions; `tn-chip` supplies the mesh +
//!   timing + energy policy that makes it the chip simulator; and
//! * [`parallel::ParallelSim`] — the multithreaded simulator mirroring the
//!   Compass design: cores partitioned across threads with load balancing,
//!   the same phases run per worker over its owned range, pairwise spike
//!   aggregation between thread pairs, and a two-step barrier
//!   synchronization per tick.
//!
//! All engines produce bit-identical network state for identical
//! (configuration, seed, input) triples — the property paper Section VI-A
//! verifies between Compass and the TrueNorth silicon with 413,333
//! regressions.

pub mod driver;
pub mod output;
pub mod parallel;
pub mod partition;
pub mod phases;
pub mod session;
pub(crate) mod sync;

pub use driver::{Direct, ReferenceSim, RoutePolicy, TickDriver};
pub use output::{OutputEvent, SpikeRecord};
pub use parallel::ParallelSim;
pub use partition::{owner_of, weighted_split_points};
pub use session::{publish_common, KernelSession};
