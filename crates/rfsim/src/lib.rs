//! RF propagation substrate for the Braidio reproduction.
//!
//! The paper characterizes its hardware over the air; we replace the
//! over-the-air part with first-principles models:
//!
//! * [`geometry`] — 2-D positions for antennas/devices (the paper's
//!   experiments live in a 6 m × 6 m room).
//! * [`pathloss`] — Friis free-space loss and the two-way backscatter budget.
//! * [`channel`] — complex-baseband channel gains (amplitude *and* phase),
//!   the ingredient the envelope detector's phase-cancellation problem is
//!   made of.
//! * [`phase_cancel`] — the §3.2 analysis: background + backscatter phasors,
//!   nulls, and 2-antenna diversity (Figs. 4–6).
//! * [`fading`] — log-normal shadowing, deterministically seeded.
//! * [`noise`] — thermal floor, noise figures, detector noise-equivalent
//!   power.
//! * [`interference`] — out-of-band interferers and the SAW front-end filter
//!   that suppresses them.
//! * [`linkbudget`] — the calculator gluing it together: received power and
//!   SNR for active, passive-receiver and backscatter links.
//! * [`fault`] — smoltcp-style fault injection knobs (drop/corrupt chance)
//!   used by the MAC-layer link simulator.

#![warn(missing_docs)]

pub mod channel;
pub mod fading;
pub mod fault;
pub mod geometry;
pub mod interference;
pub mod linkbudget;
pub mod noise;
pub mod pathloss;
pub mod phase_cancel;

pub use channel::ChannelGain;
pub use geometry::Point;
pub use linkbudget::{LinkBudget, LinkKind};
