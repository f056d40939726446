//! Energy-aware carrier offload — the Braidio contribution (§4).
//!
//! * [`offload`] — the Eq. 1 optimizer: pick per-mode fractions so the two
//!   endpoints drain in proportion to their batteries, maximizing total
//!   bits. Solved exactly by vertex enumeration (the optimum provably uses
//!   at most two modes, which is also why the paper's optimal points lie on
//!   line BC of Fig. 9).
//! * [`regimes`] — the Fig. 8 operating regimes: which modes are viable at
//!   a given separation.
//! * [`probe`] — the probe/measurement step that discovers per-mode SNR and
//!   best bitrate before planning.
//! * [`scheduler`] — the braided packet-by-packet mode sequence (§4.2's
//!   "Active-Active-Passive-Backscatter (repeated)"), with fallback to
//!   active on link failures.
//! * [`coexistence`] — two pairs in one room: why in-band neighbours must
//!   coordinate (the Table 3 in-band weakness, quantified).
//! * [`mobility`] — deterministic separation traces (static, linear walk,
//!   bounded random walk) for dynamic-link experiments.
//! * [`duty`] — daily sensor workloads: idle (wake-up receiver) power plus
//!   per-bit transfer cost as a closed-form lifetime budget.
//! * [`wakeup`] — the always-on passive wake-up receiver vs duty-cycled
//!   listening (the "interesting option" §4 notes the architecture
//!   enables).
//! * [`sim`] — the link simulator of §6.3: drains two batteries through a
//!   traffic pattern under a policy (Braidio, Bluetooth baseline, or a
//!   single pinned mode) and reports total bits moved — the engine behind
//!   Figs. 15–18.

#![warn(missing_docs)]

pub mod coexistence;
pub mod duty;
pub mod mobility;
pub mod offload;
pub mod probe;
pub mod regimes;
pub mod scheduler;
pub mod sim;
pub mod wakeup;

pub use offload::{solve, LinkOption, OffloadPlan};
pub use regimes::Regime;
pub use sim::{simulate_transfer, Policy, SimReport, Traffic, TransferSetup};
