//! # Braidio — a power-proportional active/passive radio
//!
//! A full-system reproduction of *"Braidio: An Integrated Active-Passive
//! Radio for Mobile Devices with Asymmetric Energy Budgets"* (SIGCOMM
//! 2016), built on a first-principles RF + analog-circuit simulation
//! substrate.
//!
//! Braidio's idea: the dominant cost of communication is *carrier
//! generation*. An active radio generates the carrier at both ends
//! (symmetric power); a backscatter system generates it only at the reader.
//! A radio that can place the carrier at either end — and interleave
//! ("braid") the placements packet by packet — can split the power burden
//! of a link *in proportion to the batteries* of the two devices, buying
//! orders of magnitude more lifetime for the smaller one.
//!
//! ## Quick start
//!
//! ```
//! use braidio::prelude::*;
//!
//! // A fitness band streams sensor data to a laptop half a meter away.
//! let outcome = Transfer::between(devices::NIKE_FUEL_BAND, devices::MACBOOK_PRO_15)
//!     .at_distance(Meters::new(0.5))
//!     .run();
//!
//! // Carrier offload moves the carrier to the laptop, so the band spends
//! // ~nothing per bit and outlives a Bluetooth link by orders of magnitude.
//! assert!(outcome.gain_over_bluetooth() > 100.0);
//! ```
//!
//! ## Layering
//!
//! | crate | contents |
//! |---|---|
//! | [`units`] | typed quantities (dBm, watts, joules, meters, bit/s) |
//! | [`telemetry`] | deterministic event bus, profiling spans, trace sinks |
//! | [`rfsim`] | path loss, fading, phase cancellation, link budgets |
//! | [`circuits`] | charge pump, envelope detector, amplifier, comparator |
//! | [`phy`] | OOK modulation, framing, CRC, BER models |
//! | [`radio`] | modes, power characterization, baselines, devices |
//! | [`mac`] | Eq. 1 offload solver, regimes, braided scheduler, simulator |
//! | [`net`] | deterministic discrete-event kernel, multi-device fleets |
//!
//! This crate re-exports the stack and adds the ergonomic [`Transfer`]
//! builder plus the packet-level [`live::LiveLink`] used by the examples.

#![warn(missing_docs)]

pub use braidio_circuits as circuits;
pub use braidio_mac as mac;
pub use braidio_net as net;
pub use braidio_phy as phy;
pub use braidio_pool as pool;
pub use braidio_radio as radio;
pub use braidio_rfsim as rfsim;
pub use braidio_telemetry as telemetry;
pub use braidio_units as units;

pub mod driver;
pub mod live;
pub mod transfer;

pub use transfer::{Outcome, Transfer};

/// The convenience prelude: everything the examples and most downstream
/// users need.
pub mod prelude {
    pub use crate::driver::{Command, Driver, Event};
    pub use crate::live::{LiveConfig, LiveLink, PacketOutcome};
    pub use crate::transfer::{Outcome, Transfer};
    pub use braidio_mac::{Policy, Regime, Traffic};
    pub use braidio_radio::characterization::{Characterization, Rate};
    pub use braidio_radio::devices;
    pub use braidio_radio::{Battery, Mode};
    pub use braidio_units::{
        BitsPerSecond, Decibels, Hertz, Joules, JoulesPerBit, Meters, Seconds, Watts,
    };
}
