//! Tier-1 smoke for the fleet kernel's event queue.
//!
//! The queue is a monotone radix queue, so its delivery order is only as
//! good as its bucket bookkeeping. These runs interleave schedules and
//! pops and hold the queue to a sorted model of the full key
//! `(time bits, seq, device, insertion index)`, step for step: once over
//! times that span binades and collide exactly, and once in the shape of
//! a long-running room of 1 024 staggered pairs.

use braidio::net::EventQueue;
use braidio::units::Seconds;
use std::collections::BTreeSet;

type Key = (u64, u64, u32, u32);

/// Interleaved schedules/pops checked against a sorted model.
struct Checked {
    q: EventQueue<u32>,
    model: BTreeSet<Key>,
    next: u32,
}

impl Checked {
    fn new() -> Self {
        Checked {
            q: EventQueue::new(),
            model: BTreeSet::new(),
            next: 0,
        }
    }

    fn schedule(&mut self, t: f64, seq: u64, device: u32) {
        self.q.schedule(Seconds::new(t), seq, device, self.next);
        // The queue delivers zero of either sign as `+0.0`.
        self.model
            .insert(((t + 0.0).to_bits(), seq, device, self.next));
        self.next += 1;
        assert_eq!(self.q.len(), self.model.len());
    }

    fn pop(&mut self) -> Option<Key> {
        let got = self
            .q
            .pop()
            .map(|e| (e.time.seconds().to_bits(), e.seq, e.device, e.event));
        assert_eq!(got, self.model.pop_first());
        got
    }
}

/// A 64-bit LCG: deterministic draws without a seeded RNG dependency.
fn lcg(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    }
}

#[test]
fn interleaved_binades_ties_and_same_instant_reentry() {
    let mut draw = lcg(0x5eed);
    let mut c = Checked::new();
    // Zero of either sign before anything is delivered.
    c.schedule(5.0, 0, 0);
    c.schedule(-0.0, 0, 0);
    c.schedule(0.0, 0, 0);
    for _ in 0..40_000 {
        let now = c.q.now().seconds();
        let tick = (draw() % 16) as f64;
        let asked = match draw() % 8 {
            0 => 0.0,
            1 => 1e-300 * (1.0 + tick),
            2 => tick * 0.125,
            3 => 1e9 + tick * 0.125,
            // Same instant, any `seq` — possibly below the event just
            // delivered, as a cooldown's probes are at `now`.
            4 => now,
            5 => now + tick * 0.125,
            _ => {
                c.pop();
                continue;
            }
        };
        // A narrow (seq, device) range makes exact-duplicate keys common.
        c.schedule(asked.max(now), draw() % 4, (draw() % 3) as u32);
    }
    while c.pop().is_some() {}
}

#[test]
fn lattice_hold_of_1024_pairs() {
    // Room-shaped load: 1 024 pairs associate on a 1 ms stagger, and each
    // delivery re-arms its pair 0.2 s later, so pairs keep landing on
    // shared instants that only `seq` and `device` tell apart.
    const PAIRS: u32 = 1024;
    let mut c = Checked::new();
    for i in 0..PAIRS {
        c.schedule(i as f64 * 1e-3, u64::from(i % 3), i);
    }
    let (mut last, mut shared) = (u64::MAX, 0);
    for _ in 0..60_000 {
        let (bits, seq, device, _) = c.pop().expect("the hold keeps every pair pending");
        shared += usize::from(bits == last);
        last = bits;
        c.schedule(f64::from_bits(bits) + 0.2, seq, device);
    }
    assert_eq!(c.q.delivered(), 60_000);
    assert!(shared > 0, "the lattice must put pairs on shared instants");
    assert_eq!(c.q.len(), PAIRS as usize);
}
