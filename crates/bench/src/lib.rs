//! Experiment regenerators: one module per table/figure of the paper's
//! evaluation, plus shared formatting helpers.
//!
//! Run them through the `experiments` binary:
//!
//! ```text
//! cargo run --release -p braidio-bench --bin experiments -- all
//! cargo run --release -p braidio-bench --bin experiments -- fig15
//! ```
//!
//! Each module exposes a `run()` that computes the experiment's data
//! through the library (never from hard-coded results) and prints it in the
//! same rows/series the paper reports. EXPERIMENTS.md records the
//! paper-vs-measured comparison for every entry.

#![warn(missing_docs)]

pub mod ablation;
pub mod analyze;
pub mod benchdiff;
pub mod coexistence;
pub mod dynamic;
pub mod fig1;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod fig9;
pub mod fleet;
pub mod lifetime;
pub mod mcber;
pub mod metrics;
pub mod render;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table5;
pub mod validation;

/// All experiment names, in paper order.
pub const ALL: &[(&str, fn())] = &[
    ("fig1", fig1::run),
    ("table1", table1::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig6", fig6::run),
    ("fig9", fig9::run),
    ("table5", table5::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("fig18", fig18::run),
    ("ablation", ablation::run),
    ("validation", validation::run),
    ("dynamic", dynamic::run),
    ("coexistence", coexistence::run),
    ("lifetime", lifetime::run),
    ("fleet", fleet::run),
];

/// Hidden experiments: runnable by name but excluded from `all`, so the
/// default output stays byte-stable while CI and developers can still
/// reach them (e.g. the `mcber` low-bitrate regression probe).
pub const HIDDEN: &[(&str, fn())] = &[("mcber", mcber::run)];
