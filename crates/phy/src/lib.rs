//! Physical layer for the Braidio reproduction.
//!
//! * [`modulation`] — OOK/ASK baseband waveform generation (the modulation
//!   the passive and backscatter modes use) and the FSK parameters of the
//!   active radio.
//! * [`crc`] — CRC-16/CCITT, the frame check sequence.
//! * [`frame`] — preamble + sync + length + payload + FCS framing, with
//!   error-tolerant preamble correlation.
//! * [`ber`] — closed-form bit-error-rate models: noncoherent envelope
//!   detection (Rayleigh/Rician threshold statistics via the Marcum
//!   Q-function) for the passive/backscatter links, coherent detection for
//!   the active radio and the commercial-reader baseline.
//! * [`noise`] — streaming additive Gaussian envelope corruption with a
//!   fixed RNG draw-order contract.
//! * [`montecarlo`] — end-to-end Monte-Carlo BER through the
//!   `braidio-circuits` receive chain, used to validate the closed forms;
//!   fused with [`noise`] and the streaming chain into a zero-allocation
//!   per-sample loop.

#![warn(missing_docs)]

pub mod ber;
pub mod crc;
pub mod frame;
pub mod modulation;
pub mod montecarlo;
pub mod noise;

pub use ber::{ber_coherent, ber_ook_noncoherent};
pub use frame::Frame;
pub use modulation::OokModulator;
