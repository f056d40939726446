//! Deterministic parallel execution for the simulation engine.
//!
//! Every sweep in the Braidio evaluation — the 10×10 device matrices of
//! Figs. 15–17, the distance grid of Fig. 18, Monte-Carlo BER chunks — is
//! embarrassingly parallel at the *index* level: cell `(i)` is a pure
//! function of `i`. This module runs such maps on scoped `std::thread`
//! workers while keeping the result **bit-for-bit identical at any thread
//! count**:
//!
//! * work is chunked by *index*, never by thread: chunk boundaries are a
//!   pure function of the item count, and each index's value is computed
//!   by calling the same pure closure;
//! * results are merged in chunk order, so the output `Vec` is the same
//!   one a serial `map` would produce;
//! * threads only race for *which chunk to grab next* (an atomic
//!   counter), which affects scheduling, not values.
//!
//! Thread count: the calling thread's [`set_threads`] override (the
//! `experiments --jobs N` flag) when set, else
//! [`std::thread::available_parallelism`]. The pool reads no environment
//! variable. The override, like the telemetry switches and run id, belongs
//! to the thread that sets it: each worker adopts its caller's before the
//! first chunk, so nested maps see what the caller sees, and two threads
//! comparing thread counts side by side never see each other's.
//!
//! No dependencies, in the workspace's smoltcp-style spirit (DESIGN.md §5).

#![warn(missing_docs)]

use braidio_telemetry as telemetry;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// This thread's override, installed by [`set_threads`]. Zero means
    /// "unset".
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Override the worker count for this thread's subsequent parallel maps.
///
/// `set_threads(0)` clears the override, restoring auto-detection. This
/// is what `experiments --jobs N` calls.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.set(n);
}

/// The number of worker threads this thread's parallel maps will use.
pub fn thread_count() -> usize {
    let forced = THREAD_OVERRIDE.get();
    if forced > 0 {
        return forced;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Which rule decided [`thread_count`], so benchmark reports can
/// attribute a wall-clock number to how its core count was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadSource {
    /// [`set_threads`] — the `experiments --jobs N` flag.
    Flag,
    /// [`std::thread::available_parallelism`] auto-detection.
    Auto,
}

impl ThreadSource {
    /// Stable lowercase label for machine-readable reports.
    pub fn label(self) -> &'static str {
        match self {
            ThreadSource::Flag => "jobs-flag",
            ThreadSource::Auto => "auto",
        }
    }
}

/// Where the current [`thread_count`] comes from.
pub fn thread_source() -> ThreadSource {
    if THREAD_OVERRIDE.get() > 0 {
        ThreadSource::Flag
    } else {
        ThreadSource::Auto
    }
}

/// The chunk size [`par_map_indexed`] uses for an `n`-item map: index-based
/// boundaries from a fixed 4× oversubscription of the current thread count.
/// Public so intra-wave fan-outs (the fleet engine's planning wave) and the
/// benchmark metadata report the exact scheduling granularity in use —
/// chunking only affects scheduling, never values.
pub fn default_chunk(n: usize) -> usize {
    let threads = thread_count().min(n.max(1));
    n.div_ceil(threads * 4).max(1)
}

/// Run `set_threads(n)`, evaluate `f`, then restore this thread's previous
/// override. Other threads keep theirs.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.set(self.0);
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.replace(n));
    f()
}

/// Map `f` over `0..n` in parallel, returning results in index order.
///
/// Deterministic: for a pure `f`, the result is identical at any thread
/// count (including 1). Panics in `f` propagate to the caller.
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // Index-based chunking: boundaries depend only on `n` and a fixed
    // oversubscription factor, never on which thread runs what.
    par_map_indexed_with_chunk(n, default_chunk(n), f)
}

/// [`par_map_indexed`] with an explicit chunk size.
///
/// The default oversubscription-derived chunking is right for large grids
/// of uniform cells; callers mapping a handful of wildly uneven work items
/// (the fleet runner's scenario grids, where one scenario can cost 100×
/// another) pass `chunk = 1` so every item is its own schedulable unit.
/// Values are identical for any `chunk` and thread count — chunking only
/// decides scheduling granularity and wall-clock span lanes.
pub fn par_map_indexed_with_chunk<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(chunk >= 1, "chunk size must be at least 1");
    let threads = thread_count().min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }

    let nchunks = n.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<R>, telemetry::Batch)>> =
        Mutex::new(Vec::with_capacity(nchunks));

    // Each worker runs under its caller's override, capture switches and
    // run id, so nested maps and the events they stamp see what a serial
    // run on the caller would.
    let forced = THREAD_OVERRIDE.get();
    let scope = telemetry::Scope::current();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                THREAD_OVERRIDE.set(forced);
                scope.enter();
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= nchunks {
                        break;
                    }
                    let lo = c * chunk;
                    let hi = (lo + chunk).min(n);
                    let values: Vec<R> = {
                        let _span = telemetry::span("pool.chunk");
                        (lo..hi).map(&f).collect()
                    };
                    // Drain whatever the chunk buffered on this worker so the
                    // caller can re-inject the batches in chunk index order —
                    // the merged telemetry stream is then the one a serial run
                    // would produce, regardless of which worker ran the chunk.
                    let batch = if telemetry::active() {
                        let mut b = telemetry::drain_thread();
                        for sp in &mut b.spans {
                            sp.lane = c as u32;
                        }
                        b
                    } else {
                        telemetry::Batch::default()
                    };
                    done.lock()
                        .expect("worker panicked holding results")
                        .push((c, values, batch));
                }
            });
        }
    });

    let mut parts = done.into_inner().expect("worker panicked holding results");
    parts.sort_unstable_by_key(|&(c, ..)| c);
    debug_assert_eq!(parts.len(), nchunks);
    parts
        .into_iter()
        .flat_map(|(_, v, batch)| {
            telemetry::inject(batch);
            v
        })
        .collect()
}

/// How much work a fan-out must carry before [`par_map_sized`] hands it to
/// the workers, in units of one elementary evaluation of the fleet
/// engine's planning wave: an interference edge lane, a wave key, an
/// options γ query (tens of ns each).
///
/// Measured on a 2-vCPU KVM guest: handing an eight-item map to the scoped
/// workers took 89–96 µs at 2 threads and 169–184 µs at 4 (p50 of 201
/// maps), and the edge kernel costs about 29 ns a lane on one thread. So
/// below about 8 000 lanes (~240 µs of serial work) the hand-off costs
/// more than the second core saves, and the map runs on the calling
/// thread instead.
pub const INLINE_WORK: usize = 1 << 13;

/// [`par_map_indexed_with_chunk`] for a map that does about `work` units
/// of work in all (see [`INLINE_WORK`]): below `INLINE_WORK` it runs on the
/// calling thread, as a one-thread pool would, with no `pool.chunk` spans.
/// The values and their order are the same either way.
///
/// The cutoff looks only at the map's own work, never at the thread
/// count, so concurrent callers (a fleet grid's scenarios each running
/// their own waves) decide independently.
pub fn par_map_sized<R, F>(n: usize, chunk: usize, work: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if work < INLINE_WORK {
        return (0..n).map(f).collect();
    }
    par_map_indexed_with_chunk(n, chunk, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map() {
        let serial: Vec<u64> = (0..1000)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        let parallel = with_threads(4, || {
            par_map_indexed(1000, |i| (i as u64).wrapping_mul(2654435761))
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn identical_at_any_thread_count() {
        let f = |i: usize| (i as f64).sqrt().sin();
        let one = with_threads(1, || par_map_indexed(777, f));
        for threads in [2, 3, 4, 8, 16] {
            let many = with_threads(threads, || par_map_indexed(777, f));
            assert_eq!(one.len(), many.len());
            for (a, b) in one.iter().zip(&many) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads {threads}");
            }
        }
    }

    #[test]
    fn explicit_chunk_sizes_match_serial_bitwise() {
        let f = |i: usize| (i as f64).cbrt().cos();
        let serial: Vec<f64> = (0..101).map(f).collect();
        for chunk in [1, 2, 7, 101, 500] {
            let par = with_threads(4, || par_map_indexed_with_chunk(101, chunk, f));
            assert_eq!(serial.len(), par.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "chunk {chunk}");
            }
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(par_map_indexed(0, |i| i).is_empty());
        assert_eq!(par_map_indexed(1, |i| i), vec![0]);
    }

    #[test]
    fn override_wins_and_clears_to_auto_detection() {
        set_threads(3);
        assert_eq!(thread_count(), 3);
        assert_eq!(thread_source(), ThreadSource::Flag);
        set_threads(0);
        let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(thread_count(), auto);
        assert_eq!(thread_source(), ThreadSource::Auto);
    }

    #[test]
    fn default_chunk_tracks_thread_count() {
        with_threads(4, || {
            // 4 threads × 4-way oversubscription → 16 chunks.
            assert_eq!(default_chunk(1600), 100);
            assert_eq!(default_chunk(16), 1);
            // Degenerate sizes never produce a zero chunk.
            assert_eq!(default_chunk(0), 1);
            assert_eq!(default_chunk(1), 1);
        });
        with_threads(1, || assert_eq!(default_chunk(1600), 400));
    }

    #[test]
    fn telemetry_merges_in_index_order_at_any_thread_count() {
        let emit_for = |i: usize| {
            telemetry::with_run(i as u32, || {
                telemetry::begin_unit();
                telemetry::emit(telemetry::Event::WakeupDetect {
                    at: telemetry::units::Seconds::new(i as f64),
                    track: telemetry::Track::Device(i as u32),
                });
                i
            })
        };
        telemetry::set_enabled(true);
        let _ = telemetry::take_events();
        let serial = with_threads(1, || par_map_indexed(123, emit_for));
        let serial_events = telemetry::take_events();
        let parallel = with_threads(8, || par_map_indexed(123, emit_for));
        let parallel_events = telemetry::take_events();
        telemetry::set_enabled(false);
        assert_eq!(serial, parallel);
        assert_eq!(serial_events.len(), 123);
        assert_eq!(serial_events, parallel_events);
    }

    #[test]
    fn sized_maps_match_serial_on_both_sides_of_the_cutoff() {
        let f = |i: usize| (i as f64).sqrt().cos();
        let serial: Vec<f64> = (0..64).map(f).collect();
        for work in [0, INLINE_WORK - 1, INLINE_WORK, 10 * INLINE_WORK] {
            let got = with_threads(4, || par_map_sized(64, 3, work, f));
            assert_eq!(serial.len(), got.len());
            for (a, b) in serial.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits(), "work {work}");
            }
        }
    }

    #[test]
    fn small_maps_stay_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = |work| {
            with_threads(4, || {
                par_map_sized(16, 1, work, |_| std::thread::current().id())
            })
        };
        assert!(ran_on(INLINE_WORK - 1).iter().all(|&t| t == caller));
        assert!(ran_on(INLINE_WORK).iter().all(|&t| t != caller));
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map_indexed(100, |i| {
                    assert!(i != 57, "intentional");
                    i
                })
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn concurrent_callers_keep_their_own_modes_and_run_ids() {
        // A traced run at 4 threads and an untraced one at 1 set their
        // modes before the first barrier and map between the two, so a
        // shared switch, override or run id shows on one side or the other.
        let barrier = std::sync::Barrier::new(2);
        let run = |traced: bool, threads: usize| {
            let _ = telemetry::take_events();
            if traced {
                telemetry::set_enabled(true);
            }
            let counts = telemetry::with_run(if traced { 7 } else { 0 }, || {
                with_threads(threads, || {
                    barrier.wait();
                    // Each item emits at the run id its worker inherited,
                    // then under its own `with_run(i)`.
                    let counts = par_map_indexed(64, |i| {
                        let ev = telemetry::Event::WakeupDetect {
                            at: telemetry::units::Seconds::new(0.0),
                            track: telemetry::Track::Device(i as u32),
                        };
                        telemetry::emit(ev);
                        telemetry::with_run(i as u32, || {
                            telemetry::emit(ev);
                            thread_count()
                        })
                    });
                    barrier.wait();
                    counts
                })
            });
            telemetry::set_enabled(false);
            let events = telemetry::take_events();
            let stamps: Vec<(u32, u32)> = events.iter().map(|e| (e.run, e.unit)).collect();
            (counts, stamps)
        };
        let (traced, untraced) = std::thread::scope(|s| {
            let a = s.spawn(|| run(true, 4));
            let b = s.spawn(|| run(false, 1));
            (a.join().unwrap(), b.join().unwrap())
        });
        let want: Vec<(u32, u32)> = (0..64).flat_map(|i| [(7, 0), (7 + i, 0)]).collect();
        assert_eq!(traced, (vec![4; 64], want));
        assert_eq!(untraced, (vec![1; 64], vec![]));
    }
}
