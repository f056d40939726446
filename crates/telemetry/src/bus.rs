//! The event bus: process-wide switches, thread-local buffers, and the
//! batch drain/inject protocol `braidio-pool` uses to merge worker
//! buffers deterministically.
//!
//! Fast path: [`emit`], [`count_by`] and [`crate::span()`] each start with
//! one `Relaxed` load of a static `AtomicBool`; when the corresponding
//! switch is off they return immediately, so uninstrumented runs pay a
//! single predictable branch per call site (`experiments` output is
//! byte-identical with and without the switches thrown — see `DESIGN.md`
//! §9). Counters are not per-event: an owner keeps its own tallies and
//! publishes each total once with [`count_by`].
//!
//! Buffering: everything lands in thread-locals. Serial code therefore
//! accumulates its stream in program order on the calling thread. Parallel
//! code goes through `braidio-pool`, whose workers call [`drain_thread`] at
//! every chunk boundary; the pool hands the batches back to the caller in
//! chunk index order, and [`inject`] appends them to the caller's buffers —
//! reproducing the exact stream a serial run would have written.

use crate::event::{Event, Stamped};
use crate::span::SpanRecord;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Event capture switch (`--trace-events` / `--trace-chrome`).
static EVENTS_ON: AtomicBool = AtomicBool::new(false);
/// Wall-clock span capture switch (`--profile`).
static PROFILE_ON: AtomicBool = AtomicBool::new(false);
/// Run-id base, set serially by the experiment driver per experiment so
/// run ids never collide across experiments in one invocation.
static RUN_BASE: AtomicU32 = AtomicU32::new(0);

struct Local {
    run: u32,
    unit: u32,
    unit_next: u32,
    events: Vec<Stamped>,
    spans: Vec<SpanRecord>,
    counters: BTreeMap<&'static str, u64>,
}

thread_local! {
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

/// Is event capture on?
#[inline]
pub fn enabled() -> bool {
    EVENTS_ON.load(Ordering::Relaxed)
}

/// Turn event capture on or off (process-wide).
pub fn set_enabled(on: bool) {
    EVENTS_ON.store(on, Ordering::SeqCst);
}

/// Is wall-clock profiling on?
#[inline]
pub fn profiling() -> bool {
    PROFILE_ON.load(Ordering::Relaxed)
}

/// Turn wall-clock profiling on or off (process-wide).
pub fn set_profiling(on: bool) {
    PROFILE_ON.store(on, Ordering::SeqCst);
}

/// Is any capture (events, counters, or spans) on? The pool drains worker
/// buffers only when this is true.
#[inline]
pub fn active() -> bool {
    enabled() || profiling()
}

/// Set the run-id base added to every local run id (the experiment driver
/// calls this serially, once per experiment).
pub fn set_run_base(base: u32) {
    RUN_BASE.store(base, Ordering::SeqCst);
}

/// The current run-id base.
pub fn run_base() -> u32 {
    RUN_BASE.load(Ordering::SeqCst)
}

/// Run `f` with this thread's local run id set to `run` (and a fresh unit
/// counter), restoring the previous ids afterwards. Parallel experiments
/// wrap each work item in `with_run(item_index, ..)` so the item's events
/// are stamped with a stable id regardless of which worker ran it.
pub fn with_run<R>(run: u32, f: impl FnOnce() -> R) -> R {
    let prev = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let prev = (l.run, l.unit, l.unit_next);
        l.run = run;
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
    let base = run_base();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let run = base + l.run;
        let unit = l.unit;
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

/// Serializes crate tests that throw the process-wide switches.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Track;
    use braidio_units::Seconds;

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        test_lock()
    }

    fn ev(at: f64) -> Event {
        Event::CarrierGrant {
            at: Seconds::new(at),
            track: Track::Pair(0),
        }
    }

    #[test]
    fn emit_is_a_noop_while_disabled() {
        let _g = locked();
        let _ = take_events();
        emit(ev(1.0));
        assert!(take_events().is_empty());
    }

    #[test]
    fn emit_stamps_run_base_plus_local_run_and_unit() {
        let _g = locked();
        let _ = take_events();
        set_enabled(true);
        set_run_base(100);
        with_run(7, || {
            begin_unit();
            emit(ev(0.5));
            begin_unit();
            emit(ev(0.0));
        });
        emit(ev(2.0));
        set_enabled(false);
        set_run_base(0);
        let events = take_events();
        assert_eq!(events.len(), 3);
        assert_eq!((events[0].run, events[0].unit), (107, 1));
        assert_eq!((events[1].run, events[1].unit), (107, 2));
        assert_eq!((events[2].run, events[2].unit), (100, 0));
    }

    #[test]
    fn drain_and_inject_round_trip() {
        let _g = locked();
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
        let _g = locked();
        let _ = drain_thread();
        count_by("never.recorded", 1);
        assert!(counters_snapshot().is_empty());
    }
}
