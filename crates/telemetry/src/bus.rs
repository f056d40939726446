//! The event bus: per-thread switches and buffers, and the batch
//! drain/inject protocol `braidio-pool` uses to merge worker buffers
//! deterministically.
//!
//! Scope: the capture switches and the run id belong to the calling
//! thread. A run's modes are set on the thread that runs it, and
//! `braidio-pool` hands each worker its caller's [`Scope`] before the
//! first chunk, so a parallel map sees the modes a serial one would and
//! two runs on two threads never see each other's.
//!
//! Fast path: [`emit`], [`count_by`] and [`crate::span()`] each start with
//! one load of a `const`-initialised thread-local `Cell<bool>`; when the
//! corresponding switch is off they return immediately, so uninstrumented
//! runs pay a single predictable branch per call site (`experiments`
//! output is byte-identical with and without the switches thrown — see
//! `DESIGN.md` §9). Counters are not per-event: an owner keeps its own
//! tallies and publishes each total once with [`count_by`].
//!
//! Buffering: everything lands in thread-locals. Serial code therefore
//! accumulates its stream in program order on the calling thread. Parallel
//! code goes through `braidio-pool`, whose workers call [`drain_thread`] at
//! every chunk boundary; the pool hands the batches back to the caller in
//! chunk index order, and [`inject`] appends them to the caller's buffers —
//! reproducing the exact stream a serial run would have written.

use crate::event::{Event, Stamped};
use crate::span::SpanRecord;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

struct Local {
    run: u32,
    unit: u32,
    unit_next: u32,
    events: Vec<Stamped>,
    spans: Vec<SpanRecord>,
    counters: BTreeMap<&'static str, u64>,
}

thread_local! {
    /// Event capture switch (`--trace-events` / `--trace-chrome`).
    static EVENTS_ON: Cell<bool> = const { Cell::new(false) };
    /// Wall-clock span capture switch (`--profile`).
    static PROFILE_ON: Cell<bool> = const { Cell::new(false) };
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            run: 0,
            unit: 0,
            unit_next: 0,
            events: Vec::new(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        })
    };
}

/// Is event capture on for this thread?
#[inline]
pub fn enabled() -> bool {
    EVENTS_ON.get()
}

/// Turn event capture on or off for this thread (and the pool workers its
/// parallel maps start).
pub fn set_enabled(on: bool) {
    EVENTS_ON.set(on);
}

/// Is wall-clock profiling on for this thread?
#[inline]
pub fn profiling() -> bool {
    PROFILE_ON.get()
}

/// Turn wall-clock profiling on or off for this thread (and the pool
/// workers its parallel maps start).
pub fn set_profiling(on: bool) {
    PROFILE_ON.set(on);
}

/// Is any capture (events, counters, or spans) on? The pool drains worker
/// buffers only when this is true.
#[inline]
pub fn active() -> bool {
    enabled() || profiling()
}

/// This thread's run id: the sum of the enclosing [`with_run`] offsets.
pub fn run_id() -> u32 {
    LOCAL.with(|l| l.borrow().run)
}

/// Run `f` with this thread's run id raised by `run` (and a fresh unit
/// counter), restoring the previous ids afterwards. Runs nest: the
/// experiment driver wraps experiment `j` in `with_run(j << 16, ..)` so
/// experiments keep disjoint run-id blocks, and parallel sweeps wrap each
/// work item in `with_run(item_index, ..)` so the item's events are
/// stamped with a stable id regardless of which worker ran it.
pub fn with_run<R>(run: u32, f: impl FnOnce() -> R) -> R {
    let prev = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let prev = (l.run, l.unit, l.unit_next);
        l.run += run;
        l.unit = 0;
        l.unit_next = 0;
        prev
    });
    struct Restore((u32, u32, u32));
    impl Drop for Restore {
        fn drop(&mut self) {
            let (run, unit, unit_next) = self.0;
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l.run = run;
                l.unit = unit;
                l.unit_next = unit_next;
            });
        }
    }
    let _restore = Restore(prev);
    f()
}

/// A thread's capture switches and run id, `(events, profiling, run)`.
/// `braidio-pool` takes the caller's with [`Scope::current`] and
/// [`Scope::enter`]s it on each worker before the first chunk, so work on
/// a worker is captured and stamped as it would be on the caller.
#[derive(Debug, Clone, Copy)]
pub struct Scope(bool, bool, u32);

impl Scope {
    /// The calling thread's switches and run id.
    pub fn current() -> Scope {
        Scope(enabled(), profiling(), run_id())
    }

    /// Adopt this scope's switches and run id on the calling thread.
    pub fn enter(self) {
        set_enabled(self.0);
        set_profiling(self.1);
        LOCAL.with(|l| l.borrow_mut().run = self.2);
    }
}

/// Start a new simulation session (unit) on this thread: every simulator
/// whose virtual clock restarts at zero calls this once at entry, so the
/// `(run, unit, track)` identity keeps per-track time monotone even when
/// one run hosts several sessions. No-op while capture is off.
pub fn begin_unit() {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.unit_next += 1;
        l.unit = l.unit_next;
    });
}

/// Emit an event (no-op unless event capture is on).
#[inline]
pub fn emit(event: Event) {
    if !enabled() {
        return;
    }
    emit_slow(event);
}

#[cold]
fn emit_slow(event: Event) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let (run, unit) = (l.run, l.unit);
        l.events.push(Stamped { run, unit, event });
    });
}

/// Add `n` to a named counter (no-op unless capture is active, or when
/// `n` is zero, so a counter that never moved stays absent). Names must be
/// `'static` lowercase dotted identifiers — they land in `--bench-json`
/// verbatim. A counter is a total its owner already keeps, published once
/// when its run ends: the fleet engine's `net.*` names and what they count
/// are listed on the one function that publishes them
/// (`braidio_net::engine`, `Fleet::publish_counters`).
#[inline]
pub fn count_by(name: &'static str, n: u64) {
    if n == 0 || !active() {
        return;
    }
    LOCAL.with(|l| {
        *l.borrow_mut().counters.entry(name).or_insert(0) += n;
    });
}

pub(crate) fn push_span(rec: SpanRecord) {
    LOCAL.with(|l| l.borrow_mut().spans.push(rec));
}

/// Everything one thread buffered since its last drain.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Batch {
    /// Stamped events, in emission order.
    pub events: Vec<Stamped>,
    /// Completed profiling spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Counter increments, by name.
    pub counters: Vec<(&'static str, u64)>,
}

impl Batch {
    /// True when the batch carries nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.spans.is_empty() && self.counters.is_empty()
    }
}

/// Take this thread's buffered events, spans and counters (leaving the
/// run/unit ids untouched). The pool calls this on workers at chunk
/// boundaries.
pub fn drain_thread() -> Batch {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        Batch {
            events: std::mem::take(&mut l.events),
            spans: std::mem::take(&mut l.spans),
            counters: std::mem::take(&mut l.counters).into_iter().collect(),
        }
    })
}

/// Append a drained batch to this thread's buffers. The pool calls this on
/// the *calling* thread, in chunk index order, after the workers join.
pub fn inject(batch: Batch) {
    if batch.is_empty() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.events.extend(batch.events);
        l.spans.extend(batch.spans);
        for (name, n) in batch.counters {
            *l.counters.entry(name).or_insert(0) += n;
        }
    });
}

/// Take (and clear) this thread's captured events.
pub fn take_events() -> Vec<Stamped> {
    LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().events))
}

/// A copy of this thread's captured events, left in place.
pub fn events_snapshot() -> Vec<Stamped> {
    LOCAL.with(|l| l.borrow().events.clone())
}

/// Take (and clear) this thread's captured profiling spans.
pub fn take_spans() -> Vec<SpanRecord> {
    LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans))
}

/// A copy of this thread's captured profiling spans, left in place.
pub fn spans_snapshot() -> Vec<SpanRecord> {
    LOCAL.with(|l| l.borrow().spans.clone())
}

/// This thread's counter totals, sorted by name.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    LOCAL.with(|l| {
        l.borrow()
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Track;
    use braidio_units::Seconds;

    fn ev(at: f64) -> Event {
        Event::CarrierGrant {
            at: Seconds::new(at),
            track: Track::Pair(0),
        }
    }

    #[test]
    fn emit_is_a_noop_while_disabled() {
        let _ = take_events();
        emit(ev(1.0));
        assert!(take_events().is_empty());
    }

    #[test]
    fn emit_stamps_nested_runs_and_units() {
        let _ = take_events();
        set_enabled(true);
        with_run(100, || {
            emit(ev(2.0));
            with_run(7, || {
                begin_unit();
                emit(ev(0.5));
                begin_unit();
                emit(ev(0.0));
            });
            emit(ev(3.0));
        });
        emit(ev(4.0));
        set_enabled(false);
        let stamps: Vec<(u32, u32)> = take_events().iter().map(|e| (e.run, e.unit)).collect();
        assert_eq!(stamps, vec![(100, 0), (107, 1), (107, 2), (100, 0), (0, 0)]);
    }

    #[test]
    fn drain_and_inject_round_trip() {
        let _ = take_events();
        set_enabled(true);
        emit(ev(1.0));
        count_by("a.b", 2);
        count_by("a.zero", 0);
        let batch = drain_thread();
        assert_eq!(batch.events.len(), 1);
        assert_eq!(batch.counters, vec![("a.b", 2)]);
        assert!(take_events().is_empty(), "drained");
        inject(batch);
        count_by("a.b", 1);
        set_enabled(false);
        assert_eq!(take_events().len(), 1);
        assert_eq!(counters_snapshot(), vec![("a.b".to_string(), 3)]);
        let _ = drain_thread();
    }

    #[test]
    fn counters_are_off_while_inactive() {
        let _ = drain_thread();
        count_by("never.recorded", 1);
        assert!(counters_snapshot().is_empty());
    }
}
