//! Tier-1 smoke for the fleet kernel's event queue and completion tree.
//!
//! The queue is a monotone radix queue, so its delivery order is only as
//! good as its bucket bookkeeping. These runs interleave schedules and
//! pops and hold the queue to a sorted model of the full key
//! `(time bits, seq, device, insertion index)`, step for step: once over
//! times that span binades and collide exactly, and once in the shape of
//! a long-running room of 1 024 staggered pairs. A last run merges the
//! queue with a completion tree the way the fleet engine does, in the
//! same room shape, and holds the merged delivery order to the model.

use braidio::net::{CompletionTree, EventQueue};
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

/// The completion class of the merged run, the fleet's quantum rank.
const DONE: u64 = 4;

/// A queue and a completion tree delivered together, checked against a
/// sorted model. Model keys extend the kernel key with the source (the
/// queue's event first on an equal key) and the queue's insertion index.
struct Merged {
    q: EventQueue<u32>,
    tree: CompletionTree,
    model: BTreeSet<(u64, u64, u32, u8, u32)>,
    armed: Vec<Option<u64>>,
    next: u32,
}

/// A tree delivery's payload.
const FROM_TREE: u32 = u32::MAX;

impl Merged {
    fn new(devices: u32) -> Self {
        Merged {
            q: EventQueue::new(),
            tree: CompletionTree::new(devices as usize, DONE),
            model: BTreeSet::new(),
            armed: vec![None; devices as usize],
            next: 0,
        }
    }

    fn schedule(&mut self, t: f64, seq: u64, device: u32) {
        self.q.schedule(Seconds::new(t), seq, device, self.next);
        self.model.insert((t.to_bits(), seq, device, 0, self.next));
        self.next += 1;
    }

    fn arm(&mut self, device: u32, t: f64) {
        self.tree.arm(device, Seconds::new(t));
        if let Some(old) = self.armed[device as usize].replace(t.to_bits()) {
            self.model.remove(&(old, DONE, device, 1, FROM_TREE));
        }
        self.model.insert((t.to_bits(), DONE, device, 1, FROM_TREE));
    }

    /// Move `device`'s armed completion into the queue, as an aborted
    /// quantum's completion moves.
    fn requeue(&mut self, device: u32) -> f64 {
        let bits = self.armed[device as usize].take().expect("armed");
        self.model.remove(&(bits, DONE, device, 1, FROM_TREE));
        self.q.requeue(&mut self.tree, device, self.next);
        self.model.insert((bits, DONE, device, 0, self.next));
        self.next += 1;
        f64::from_bits(bits)
    }

    fn pop(&mut self) -> Option<(u64, u64, u32, u8, u32)> {
        let got = self.q.pop_with(&mut self.tree, |_| FROM_TREE).map(|e| {
            let from_tree = u8::from(e.event == FROM_TREE);
            (
                e.time.seconds().to_bits(),
                e.seq,
                e.device,
                from_tree,
                e.event,
            )
        });
        assert_eq!(got, self.model.pop_first());
        if let Some((bits, _, device, from_tree, _)) = got {
            // `now` is the last delivered instant, whichever side it came
            // from.
            assert_eq!(self.q.now().seconds().to_bits(), bits);
            if from_tree == 1 {
                self.armed[device as usize] = None;
            }
        }
        got
    }
}

#[test]
fn merged_room_run_of_1024_pairs() {
    // Room-shaped: 1 024 pairs braid quanta completing on a 1 ms stagger,
    // each re-armed 0.2 s after it completes, with a re-plan per pair
    // every 10 s in the queue. Now and then a re-plan aborts another
    // pair's quantum (its completion moves to the queue at its own key)
    // and restarts it, at the same key or later, and acts at its own
    // instant in a lower or a higher class.
    const PAIRS: u32 = 1024;
    let mut draw = lcg(0xb7a1d);
    let mut m = Merged::new(PAIRS);
    for i in 0..PAIRS {
        let t = f64::from(i) * 1e-3;
        m.arm(i, t);
        m.schedule(t + 10.0, 3, i);
    }
    let (mut completions, mut requeued, mut ties) = (0, 0, 0);
    for _ in 0..80_000 {
        let (bits, seq, device, from_tree, _) = m.pop().expect("every pair stays pending");
        let now = f64::from_bits(bits);
        match (seq, from_tree) {
            (DONE, 1) => {
                completions += 1;
                m.arm(device, now + 0.2);
            }
            (3, _) => {
                m.schedule(now + 10.0, 3, device);
                if draw().is_multiple_of(4) {
                    let victim = (draw() % u64::from(PAIRS)) as u32;
                    if m.armed[victim as usize].is_some() {
                        let at = m.requeue(victim);
                        requeued += 1;
                        let again = if draw().is_multiple_of(2) {
                            at
                        } else {
                            at + 0.2
                        };
                        ties += usize::from(again == at);
                        m.arm(victim, again);
                    }
                }
                match draw() % 8 {
                    0 => m.schedule(now, 2, device),
                    1 => m.schedule(now, 5, device),
                    _ => {}
                }
            }
            _ => {}
        }
    }
    assert!(
        completions > 60_000,
        "completions carry the run: {completions}"
    );
    assert!(
        requeued > 100 && ties > 0,
        "{requeued} requeued, {ties} ties"
    );
    assert_eq!(m.q.delivered(), 80_000);
    while m.pop().is_some() {}
}
