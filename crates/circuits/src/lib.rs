//! Analog front-end simulation for the Braidio reproduction.
//!
//! The paper's passive receive chain (§3.2, Fig. 3, Table 4) is:
//!
//! ```text
//! antenna → SAW filter → N-stage RF charge pump → high-pass filter
//!         → instrumentation amplifier (INA2331) → comparator (NCS2200)
//! ```
//!
//! This crate simulates each block at the level the paper's arguments
//! need:
//!
//! * [`diode`] — piecewise-linear Schottky diode, the nonlinearity behind
//!   both the charge pump and the envelope detector.
//! * [`charge_pump`] — transient simulation of the Dickson RF charge pump,
//!   reproducing Fig. 3(b), with steady-state boost/impedance formulas.
//! * [`envelope`] — attack/decay envelope detector used by the Monte-Carlo
//!   OOK demodulator in `braidio-phy`.
//! * [`filter`] — single-pole RC high-pass (the self-interference → DC
//!   rejection trick).
//! * [`amplifier`] — the high-impedance, low-input-capacitance baseband
//!   amplifier, with source-loading effects.
//! * [`comparator`] — threshold + hysteresis slicer.
//! * [`harvester`] — the same pump used as a WISP-style RF energy
//!   harvester: battery-free tag-mode operating range.
//! * [`carrier`] — the SI4432-class programmable carrier emitter (the
//!   125 mW that carrier offload moves between endpoints).
//! * [`mcu`] — the ATMEGA328P-class controller power model.
//! * [`chain`] — the assembled passive receive chain.
//! * [`streaming`] — the same chain fused into a per-sample, O(1)-state
//!   streaming pipeline (the Monte-Carlo hot path).

#![warn(missing_docs)]

pub mod amplifier;
pub mod carrier;
pub mod chain;
pub mod charge_pump;
pub mod comparator;
pub mod diode;
pub mod envelope;
pub mod filter;
pub mod harvester;
pub mod mcu;
pub mod streaming;

pub use chain::PassiveReceiverChain;
pub use charge_pump::DicksonChargePump;
pub use diode::Diode;
pub use streaming::StreamingChain;
