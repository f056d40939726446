//! # braidio-net — deterministic multi-device network simulation
//!
//! The pairwise engine (`braidio-mac::sim`) answers "how many bits can
//! *these two* devices move?". This crate scales the question to a room:
//! N devices with heterogeneous batteries and positions, M traffic pairs,
//! foreign-carrier interference between them, and a pluggable carrier
//! arbitration policy — driven by a deterministic discrete-event kernel
//! whose delivery order is a pure function of the scenario, so every run
//! is bit-identical regardless of host, thread count, or insertion order.
//!
//! * [`kernel`] — the DES event queue with total-order tie-breaking.
//! * [`interference`] — many-source foreign-carrier coupling, generalizing
//!   `mac::coexistence` from one interferer to a fleet.
//! * [`cache`] — incrementally maintained pairwise interference sums (the
//!   large-fleet fast path; bit-identical to the brute-force rescan).
//! * [`arbitration`] — who may put a carrier up, when (uncoordinated,
//!   round-robin TDMA, static channel plans).
//! * [`scenario`] — device placement, batteries, traffic pairs, and the
//!   open-system churn roster ([`FleetScenario::open_system`]).
//! * [`lifecycle`] — the per-link session phase machine
//!   (Init → Probe → Warm → Live ⇄ Degrade → Cooldown → Probe | Dead).
//! * [`discovery`] — beacon/passive-listen admission priced by
//!   `mac::wakeup`'s detector economics.
//! * [`engine`] — the event-driven fleet simulator ([`run_fleet`]).
//! * [`metrics`] — goodput, per-device lifetime, carrier duty, Jain
//!   fairness ([`FleetReport`]), steady-state churn metrics
//!   ([`metrics::ChurnReport`]).
//! * [`digest`] — report identity: an FNV-1a-64 digest over every bit of
//!   a [`FleetReport`] ([`digest::report_digest`]).
//!
//! ```
//! use braidio_net::{run_fleet, Arbitration, FleetScenario};
//! use braidio_units::{Meters, Seconds};
//!
//! // Two pairs sharing a room without coordination: the foreign carriers
//! // strip the detector-based modes (backscatter, passive) at any
//! // separation, exactly as the §7 coexistence analysis predicts.
//! let sc = FleetScenario::independent_pairs(
//!     2,
//!     Meters::new(0.5),
//!     Meters::new(10.0),
//!     1.0,
//!     1.0,
//!     Arbitration::Uncoordinated,
//! )
//! .with_horizon(Seconds::new(10.0));
//! let report = run_fleet(&sc);
//! assert!(report.total_bits() > 0.0);
//! assert_eq!(report.mode_share(braidio_radio::Mode::Backscatter), 0.0);
//! ```

pub mod arbitration;
pub mod cache;
pub mod digest;
pub mod discovery;
pub mod engine;
pub mod interference;
pub mod kernel;
pub mod lifecycle;
pub mod metrics;
pub mod scenario;

pub use arbitration::Arbitration;
pub use discovery::DiscoveryConfig;
pub use engine::{run_fleet, run_fleet_sampled};
pub use kernel::{DeviceId, EventQueue};
pub use lifecycle::{LifecyclePolicy, LinkPhase, PhaseEvent};
pub use metrics::{jain_fairness, ChurnReport, FleetReport};
pub use scenario::{ChurnConfig, DeviceSpec, FleetScenario, PairSpec};
