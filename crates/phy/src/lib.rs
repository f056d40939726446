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
//! * [`coding`] — Manchester and FM0 line codes: DC balance for the
//!   AC-coupled detector chain, polarity insensitivity for FM0.
//! * [`sync`] — early/late bit synchronizer recovering decisions from the
//!   oversampled comparator stream.
//! * [`fec`] — Hamming(7,4) + block interleaving for the lossy regime
//!   edges (the coding direction of the related work the paper cites).
//! * [`noise`] — streaming additive Gaussian envelope corruption with a
//!   fixed RNG draw-order contract.
//! * [`montecarlo`] — end-to-end Monte-Carlo BER through the
//!   `braidio-circuits` receive chain, used to validate the closed forms;
//!   fused with [`noise`] and the streaming chain into a zero-allocation
//!   per-sample loop.
//! * [`backscatter_link`] — the full waveform path: frame → line code →
//!   tag switching → phasor channel with self-interference → chain → clock
//!   recovery → decode, including frame-level antenna diversity.

#![warn(missing_docs)]

pub mod backscatter_link;
pub mod ber;
pub mod coding;
pub mod crc;
pub mod fec;
pub mod frame;
pub mod modulation;
pub mod montecarlo;
pub mod noise;
pub mod pie;
pub mod sync;

pub use ber::{ber_coherent, ber_ook_noncoherent};
pub use frame::Frame;
pub use modulation::OokModulator;
