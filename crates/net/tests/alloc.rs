//! The planning wave is allocation-free in steady state — asserted, not
//! just documented. A counting allocator wraps `System` for this test
//! binary; running the same scenario at horizon T and 2T must cost the
//! same heap traffic, because everything the extra simulated time does
//! (planning waves, quantum scheduling, interference sums, memoized
//! option lookups on warm keys) lives in preallocated or inline storage.
//! Only setup (scenario construction, event-queue/cache sizing, the first
//! wave's memo inserts) may allocate.

use braidio_net::{run_fleet, Arbitration, FleetScenario};
use braidio_units::{Meters, Seconds};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates all allocation to `System`; only bookkeeping added.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

fn scenario(pairs: usize, horizon: Seconds, arb: Arbitration) -> FleetScenario {
    FleetScenario::grid_pairs(pairs, Meters::new(0.5), Meters::new(3.0), 1.0, 1.0, arb)
        .with_horizon(horizon)
}

#[test]
fn planning_wave_is_allocation_free_in_steady_state() {
    for arb in [
        Arbitration::Uncoordinated,
        Arbitration::TdmaRoundRobin {
            slot: Seconds::new(0.25),
        },
    ] {
        // Warm the process-wide characterization so neither run below
        // pays its first-touch cost.
        run_fleet(&scenario(8, Seconds::new(10.0), arb));

        let measure = |horizon: Seconds| {
            let sc = scenario(8, horizon, arb);
            let before = allocations();
            let report = run_fleet(&sc);
            (allocations() - before, report)
        };
        let (short, r1) = measure(Seconds::new(30.0));
        let (long, r2) = measure(Seconds::new(60.0));
        assert!(
            r2.total_bits() > r1.total_bits(),
            "{arb:?}: the longer run must actually do more work"
        );
        // Doubling the simulated time adds re-plan waves and thousands of
        // quantum events; none of them may touch the heap. The small slack
        // covers memo inserts for interference values first reached after
        // the 30 s mark (pair deaths change the keys).
        assert!(
            long <= short + 64,
            "{arb:?}: steady state allocates ({short} allocs at 30 s, {long} at 60 s)"
        );
    }
}
