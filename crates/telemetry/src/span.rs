//! Wall-clock profiling spans.
//!
//! Spans measure where *host* time goes (re-plan solving, pool chunks) and
//! are the only place wall clock is allowed into telemetry: they live in a
//! stream separate from the simulated-time events, so event traces stay
//! deterministic while profiles do not pretend to be.
//!
//! Usage: `let _span = telemetry::span("net.replan");` — the span records
//! itself when dropped. When profiling is off ([`crate::profiling`]), the
//! guard is inert and the only cost is one relaxed atomic load.
//!
//! Each record carries the *stack path* of span names active on its thread
//! when it closed (itself last), up to [`MAX_SPAN_DEPTH`] deep. The path is
//! what lets the collapsed-stacks renderer
//! ([`crate::sink::render_profile_folded`]) attribute self time: a
//! `pool.chunk` that spends most of its wall clock inside `net.replan`
//! shows up as `pool.chunk;net.replan`, not as opaque `pool.chunk` time.

use crate::bus;
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// The process profiling epoch: all span timestamps are microseconds since
/// the first span (or explicit epoch touch) of the process.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Deepest span nesting a record can represent. The engine's deepest known
/// chain is `pool.chunk > net.replan > net.wave > net.wave.edges` (depth
/// 4, a wave stage under a scenario's pool chunk); the array is
/// fixed-size so records stay `Copy` and recording never allocates. Deeper
/// frames (a bench harness span above all four) are dropped from the
/// *root* end, keeping the leaf-ward names that matter for self-time
/// attribution.
pub const MAX_SPAN_DEPTH: usize = 4;

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Static span name (`net.replan`, `pool.chunk`, ...).
    pub name: &'static str,
    /// Display lane; the pool rewrites this to the chunk index so
    /// concurrent chunks render on separate tracks.
    pub lane: u32,
    /// Start, µs of wall clock since the process profiling epoch.
    pub start_us: f64,
    /// Duration, µs of wall clock.
    pub dur_us: f64,
    /// Enclosing span names on this thread when the span closed, outermost
    /// first, ending with the span itself; `path[..depth]` is meaningful.
    pub path: [&'static str; MAX_SPAN_DEPTH],
    /// How many leading entries of `path` are filled (at least 1: the span
    /// itself).
    pub depth: u8,
}

impl SpanRecord {
    /// A record with no ancestry: `path` is just the name. Convenience for
    /// tests and for call sites that synthesize records outside a guard.
    pub fn leaf(name: &'static str, lane: u32, start_us: f64, dur_us: f64) -> Self {
        let mut path = [""; MAX_SPAN_DEPTH];
        path[0] = name;
        SpanRecord {
            name,
            lane,
            start_us,
            dur_us,
            path,
            depth: 1,
        }
    }

    /// The filled prefix of the stack path, outermost first.
    pub fn stack(&self) -> &[&'static str] {
        &self.path[..self.depth as usize]
    }
}

/// An active span guard; records a [`SpanRecord`] on drop.
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
#[derive(Debug)]
pub struct Span(Option<(&'static str, Instant)>);

/// Open a span named `name` (inert unless profiling is on).
#[inline]
pub fn span(name: &'static str) -> Span {
    if !bus::profiling() {
        return Span(None);
    }
    let e = epoch(); // pin the epoch before taking the start time
    let _ = e;
    STACK.with(|s| s.borrow_mut().push(name));
    Span(Some((name, Instant::now())))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((name, start)) = self.0.take() else {
            return;
        };
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        let start_us = start.duration_since(epoch()).as_secs_f64() * 1e6;
        // Snapshot the stack (self is still on top), then pop. Frames
        // beyond MAX_SPAN_DEPTH drop from the root end: the leaf-ward
        // names carry the attribution.
        let (path, depth) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let mut path = [""; MAX_SPAN_DEPTH];
            let skip = s.len().saturating_sub(MAX_SPAN_DEPTH);
            let depth = s.len() - skip;
            for (slot, frame) in path.iter_mut().zip(&s[skip..]) {
                *slot = frame;
            }
            s.pop();
            (path, depth as u8)
        });
        bus::push_span(SpanRecord {
            name,
            lane: 0,
            start_us,
            dur_us,
            path,
            depth: depth.max(1),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_without_profiling() {
        let _g = bus::test_lock();
        // Event capture alone must not record spans.
        let _ = bus::take_spans();
        {
            let _s = span("test.inert");
        }
        assert!(bus::take_spans().is_empty());
    }

    #[test]
    fn records_when_profiling() {
        let _g = bus::test_lock();
        let _ = bus::take_spans();
        bus::set_profiling(true);
        {
            let _s = span("test.scope");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        bus::set_profiling(false);
        let spans = bus::take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "test.scope");
        assert!(spans[0].dur_us >= 500.0, "dur {}", spans[0].dur_us);
        assert!(spans[0].start_us >= 0.0);
        assert_eq!(spans[0].stack(), &["test.scope"]);
    }

    #[test]
    fn nested_spans_carry_their_stack_path() {
        let _g = bus::test_lock();
        let _ = bus::take_spans();
        bus::set_profiling(true);
        {
            let _a = span("test.outer");
            {
                let _b = span("test.mid");
                let _c = span("test.leaf");
            }
            let _d = span("test.sibling");
        }
        bus::set_profiling(false);
        let spans = bus::take_spans();
        // Records land in completion (drop) order: leaf, mid, sibling, outer.
        let stacks: Vec<&[&str]> = spans.iter().map(|s| s.stack()).collect();
        assert_eq!(
            stacks,
            vec![
                &["test.outer", "test.mid", "test.leaf"][..],
                &["test.outer", "test.mid"][..],
                &["test.outer", "test.sibling"][..],
                &["test.outer"][..],
            ]
        );
    }

    #[test]
    fn overdeep_nesting_keeps_the_leafward_frames() {
        let _g = bus::test_lock();
        let _ = bus::take_spans();
        bus::set_profiling(true);
        {
            let _a = span("test.d1");
            let _b = span("test.d2");
            let _c = span("test.d3");
            let _d = span("test.d4");
            let _e = span("test.d5");
        }
        bus::set_profiling(false);
        let spans = bus::take_spans();
        // The depth-5 leaf keeps its 4 leaf-most frames; the root is cut.
        assert_eq!(
            spans[0].stack(),
            &["test.d2", "test.d3", "test.d4", "test.d5"]
        );
        assert_eq!(spans[4].stack(), &["test.d1"]);
    }
}
