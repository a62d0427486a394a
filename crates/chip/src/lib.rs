//! # tn-chip — the silicon expression of the neurosynaptic kernel
//!
//! The paper's TrueNorth chip is "a 4,096 core, 1 million neuron, and 256
//! million synapse brain-inspired neurosynaptic processor, that consumes
//! 65mW of power running at real-time and delivers 46 Giga-Synaptic
//! OPS/Watt". We cannot fabricate silicon, so this crate is an
//! *architectural simulator* of the chip that executes the exact same
//! blueprint semantics as `tn-compass` (enabling the paper's 1:1
//! equivalence regressions) while additionally modelling what the silicon
//! adds:
//!
//! * the **2D mesh network-on-chip** with five-port routers and
//!   deadlock-free dimension-order routing ([`mesh`], [`router`]),
//! * **merge–split peripheral blocks** that serialize packets across chip
//!   boundaries, enabling seamless multi-chip tiling ([`mesh`]),
//! * **fault tolerance**: defective cores are disabled and spike events
//!   are routed around them ([`mesh::DefectMap`]),
//! * a calibrated component **energy model** (leak + neuron evaluation +
//!   crossbar row read + synaptic accumulate + packet hop) ([`energy`]),
//! * a **timing model** giving the maximum tick frequency as a function of
//!   load and supply voltage ([`timing`]), and
//! * **voltage scaling** laws for both ([`voltage`]).
//!
//! Calibration anchors (documented in `DESIGN.md`): the three published
//! operating points — ≈46 GSOPS/W at 65 mW running (20 Hz, 128 syn) in
//! real time, ≈81 GSOPS/W running the same network ≈5× faster, and
//! ≈400 GSOPS/W at the (200 Hz, 256 syn) corner — plus the fmax trends of
//! paper Fig. 5(b,c).

pub mod board;
pub mod energy;
pub mod mesh;
pub mod router;
pub mod stream;
pub(crate) mod sync;
pub mod timing;
pub mod tnsim;
pub mod voltage;

pub use board::Board;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use mesh::{DefectMap, LinkAccounting, Mesh};
pub use router::{route_path, RoutePath};
pub use stream::{stream_channel, Injector, OfferOutcome, StreamSource};
pub use timing::TimingModel;
pub use tnsim::{ChipModel, ChipReport, TrueNorthSim};
pub use voltage::VoltageParams;
