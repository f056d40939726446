//! Deterministic telemetry for the Braidio simulation stack.
//!
//! Every layer of the simulator — the DES kernel, the fleet engine's
//! probe → plan → braid protocol, `mac::sim`'s epoch loop, the pairwise
//! `LiveLink` — can narrate what it does through one typed event bus. The
//! design contract, in order of importance:
//!
//! 1. **Zero cost when off.** Emission is gated on the calling thread's
//!    switch, a `const`-initialised thread-local `Cell<bool>`; with capture
//!    off the instrumented hot paths pay one load and one predictable
//!    branch. Counters are not bumped per event at all: the state that
//!    sees an event (a memo, a cache, the event queue) keeps a plain
//!    integer tally, and its run publishes each total once, when it ends
//!    ([`count_by`]).
//! 2. **Simulated time only.** [`Event`]s carry *virtual* seconds, never
//!    wall clock, so a trace is a pure function of the scenario: running
//!    `experiments fleet --trace-events` at `--jobs 1` and `--jobs 4`
//!    produces byte-identical files. Wall clock lives exclusively in
//!    [`span()`]-based profiling records, which are kept in a separate
//!    stream and never mixed into event sinks.
//! 3. **Thread-deterministic merging.** Worker threads buffer into
//!    thread-locals; `braidio-pool` hands each worker its caller's
//!    switches and run id ([`Scope`]), drains each buffer at chunk
//!    boundaries and re-injects the batches in *chunk index order*, so the
//!    merged stream is the one a serial run would have produced. The
//!    switches belong to the thread that sets them: two runs on two
//!    threads capture independently.
//! 4. **Closed vocabulary.** The event set is a fixed enum
//!    ([`Event`]), not free-form strings, so sinks, validators and the
//!    energy-ledger audit can be exhaustive.
//!
//! Track identity is the triple `(run, unit, track)`: `run` is the sum of
//! the nested [`with_run`] offsets (the experiment driver's per-experiment
//! block plus the work item's index), `unit` counts simulation sessions
//! within a run (each session restarts its virtual clock at zero, see
//! [`begin_unit`]), and [`Track`] names a device or pair inside the
//! session. Within one identity, event times are
//! monotone non-decreasing — a property [`sink::validate_jsonl`] checks.
//!
//! Sinks ([`sink`]) render the captured stream as schema-versioned JSONL
//! and as Chrome trace-event JSON loadable in Perfetto (one track per
//! device). [`sink::fold_energy`] folds `EnergyDebit` events into a
//! per-device ledger, which the fleet experiment asserts against each
//! battery's measured drain — observability doubling as a correctness
//! oracle.

#![warn(missing_docs)]

pub mod bus;
pub mod event;
pub mod sink;
pub mod span;
pub mod timeseries;

pub use bus::{
    active, begin_unit, count_by, counters_snapshot, drain_thread, emit, enabled, events_snapshot,
    inject, profiling, run_id, set_enabled, set_profiling, spans_snapshot, take_events, take_spans,
    with_run, Batch, Scope,
};
pub use event::{DeathReason, Event, ModeTag, PhaseTag, RateTag, Stamped, Track};
pub use span::{span, Span, SpanRecord, MAX_SPAN_DEPTH};
pub use timeseries::{Sample, Series};

/// The shared unit types events are stamped with, re-exported so sinks and
/// tests can construct timestamps without a separate dependency.
pub use braidio_units as units;
