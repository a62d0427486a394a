//! tn-serve: a multi-session spike-streaming runtime service over the
//! neurosynaptic kernel.
//!
//! The paper's system is not a batch simulator but a *real-time
//! platform*: a board that free-runs at the 1 ms tick while hosts stream
//! spikes in and read spikes out. This crate supplies that operational
//! layer for the reproduction — a long-running TCP service hosting live
//! simulator instances ("sessions") of any kernel expression
//! ([`tn_chip::TrueNorthSim`], [`tn_compass::ReferenceSim`],
//! [`tn_compass::ParallelSim`]) behind one versioned binary protocol:
//!
//! - **sessions** are named, created from a lint-verified model file or
//!   a blank board, and multiplexed onto a small fixed pool of driver
//!   shards ([`ShardExecutor`]) honoring the paper's 1 ms tick
//!   ([`Pace::RealTime`]) on a shared deadline wheel or free-running
//!   ([`Pace::MaxSpeed`]);
//! - **injection** goes through a bounded queue with explicit
//!   backpressure — overload is shed and *counted*, never allowed to
//!   stall the tick loop ([`Response::Overloaded`]);
//! - **outputs** stream to subscribers tick by tick
//!   ([`Response::TickUpdate`]), with per-tick statistics and modelled
//!   energy;
//! - **state** is portable: sessions checkpoint to
//!   [`tn_core::NetworkSnapshot`] bytes and restore across sessions,
//!   engines, and server restarts.
//!
//! Because every expression of the kernel is deterministic, a served
//! session fed an injection trace over the wire reproduces a local batch
//! run *bit-exactly* — the integration tests assert equality of output
//! transcripts and state digests.
//!
//! Entry points: [`Server::spawn`] (embedded/tests), the `tn-serve`
//! binary (standalone), and [`Client`] (blocking connection).

pub mod client;
pub mod executor;
pub mod protocol;
pub mod resilient;
pub(crate) mod scheduler;
pub mod server;
pub mod session;
pub(crate) mod sync;

pub use client::{Client, ClientError, SessionEvent};
pub use executor::{default_shards, ExecutorConfig, ShardExecutor};
pub use protocol::{
    Engine, ErrorCode, Health, ModelSource, Pace, ProtocolError, Request, Response, SessionEntry,
    SessionStats, TickUpdate,
};
pub use resilient::{BackoffPolicy, ReconnectingClient, RetrySequence, SessionSpec};
pub use server::{Server, ServerConfig, ServerHandle};
pub use session::{Cmd, MigrationTicket, Outbound, SessionConfig, SessionGone, SessionHandle};
