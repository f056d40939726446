//! The deterministic discrete-event simulation kernel.
//!
//! [`EventQueue`] delivers events in a *total* order over the key
//! `(time, seq, device)`:
//!
//! * `time` — virtual time of the event (finite, non-decreasing);
//! * `seq` — a caller-assigned sequence class that ranks same-instant
//!   events (the network engine uses the event kind's protocol rank, so a
//!   replan always lands before the quantum it reshapes);
//! * `device` — the owning device, breaking ties between peers that act at
//!   the same instant in the same phase.
//!
//! The queue never sees an event that no one observes. The fleet engine
//! commits an unobserved private pair's next quanta inside the handler of
//! the completion it was delivered, each at its own finish time, without
//! scheduling them here (DESIGN.md §8.2); it adds them to what
//! [`EventQueue::scheduled`] and [`EventQueue::delivered`] count, so its
//! `net.kernel.*` totals and its report's event count are those of a run
//! that delivers them all.
//!
//! Because every key component is semantic — none is an insertion counter —
//! the delivery order of a set of uniquely-keyed events is invariant under
//! the order they were scheduled in, under thread count, and under host.
//! (An internal monotonic counter exists only as a last-resort tie-break
//! so that duplicate keys in the queue still pop in a reproducible order;
//! engines that want full insertion-order invariance must keep keys
//! unique.)
//!
//! Times compare as the IEEE-754 bits of a non-negative finite `f64`: for
//! that range bit order equals numeric order. `schedule` rejects
//! negative and non-finite times and canonicalise `-0.0` to `+0.0`, whose
//! sign bit would otherwise sort it after every positive time.
//!
//! # A monotone radix queue
//!
//! `schedule` forbids the past, so every pending time is at or after
//! `now`, the last delivered instant. The queue exploits that monotonicity
//! instead of keeping a comparison heap over all pending events:
//!
//! * events *at* `now` sit in a small front heap ordered by
//!   `(seq, device, stamp)` — an event may join it with a lower `seq` than
//!   the one just delivered, and still pops next;
//! * an event whose time bits first differ from `now`'s at bit `b` waits,
//!   unordered, in bucket `b + 1`. Each bucket also remembers its least
//!   time.
//!
//! When the front runs dry, `pop` takes the lowest non-empty bucket,
//! advances `now` to that bucket's least time and redistributes it. Its
//! events either equal the new `now` (they join the front) or first differ
//! from it at a lower bit (they drop to a lower bucket). The new `now`
//! agrees with the old one above the emptied bucket's bit, so every higher
//! bucket keeps its index. An event therefore moves at most 63 times in
//! its life, and nothing pending ever precedes the front: the pop sequence
//! is the sorted key sequence, exactly what any exact priority queue over
//! the same unique keys delivers.
//!
//! Parked events live in two parallel arrays indexed by slot: the links
//! (time bits and the next slot of the list) and the parked events (rank
//! and payload). Each bucket is an intrusive list threaded through the
//! links, with freed slots chained for reuse, so storage is O(pending
//! events): neither array ever holds more slots than the deepest the queue
//! has been. Redistributing a bucket walks only the 16-byte links, and
//! reads a parked event when it joins the front.

use braidio_units::Seconds;

/// Index of a device in the fleet (also used for event tie-breaking).
pub type DeviceId = u32;

/// One scheduled event.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled<E> {
    /// Virtual delivery time.
    pub time: Seconds,
    /// Same-instant ordering class (lower delivers first).
    pub seq: u64,
    /// The device this event belongs to (final semantic tie-break).
    pub device: DeviceId,
    /// The payload.
    pub event: E,
    /// Insertion counter: last-resort tie-break for *duplicate* keys only.
    stamp: u64,
}

impl<E> Scheduled<E> {
    /// The same-instant order `(seq, device, stamp)`.
    fn rank(&self) -> (u64, DeviceId, u64) {
        (self.seq, self.device, self.stamp)
    }
}

/// A parked event's list entry: its time bits and the next slot of its
/// list (a bucket, or the free chain).
#[derive(Debug, Clone, Copy)]
struct Link {
    time: u64,
    next: u32,
}

/// A parked event's rank and payload (`None` once it left).
#[derive(Debug)]
struct Parked<E> {
    seq: u64,
    stamp: u64,
    device: DeviceId,
    event: Option<E>,
}

/// Ends an intrusive list of slots.
const NIL: u32 = u32::MAX;

/// Bucket `b` in `1..=63` holds the events whose time bits first differ
/// from `now`'s at bit `b - 1`; index 0 is unused (those events are in the
/// front heap). Non-negative `f64` bits never differ in the sign bit.
const BUCKETS: usize = 64;

/// The bucket of time `bits` relative to `now` (0 when they are equal).
fn bucket(bits: u64, now: u64) -> usize {
    (u64::BITS - (bits ^ now).leading_zeros()) as usize
}

/// The bits of an event time, `-0.0` canonicalised to `+0.0`.
///
/// Panics if `time` is non-finite or negative.
fn time_bits(time: Seconds) -> u64 {
    let t = time.seconds();
    assert!(
        t.is_finite() && t >= 0.0,
        "event time must be finite and non-negative, got {time}"
    );
    (t + 0.0).to_bits()
}

/// The event queue: a priority queue in virtual time.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Events at `now`: a binary min-heap on [`Scheduled::rank`].
    front: Vec<Scheduled<E>>,
    /// Storage for the bucket lists: the links walked by `advance`, and
    /// the parked events they lead to.
    links: Vec<Link>,
    parked: Vec<Parked<E>>,
    /// Head of the chain of free slots.
    free: u32,
    /// Head of each bucket's list.
    head: [u32; BUCKETS],
    /// Least time bits in each non-empty bucket.
    least: [u64; BUCKETS],
    /// Bit `b` is set when bucket `b` is non-empty.
    occupied: u64,
    /// Bits of the current virtual time.
    now: u64,
    len: usize,
    stamp: u64,
    scheduled: u64,
    delivered: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue at `t = 0`.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue at `t = 0` with space for `cap` parked events.
    ///
    /// Sizing from the scenario (the fleet engine sizes it for its
    /// bring-up events plus one quantum completion per pair) avoids
    /// repeated regrowth mid-run; capacity is an allocation hint only
    /// and changes no delivery order or timing semantics.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            front: Vec::new(),
            links: Vec::with_capacity(cap),
            parked: Vec::with_capacity(cap),
            free: NIL,
            head: [NIL; BUCKETS],
            least: [0; BUCKETS],
            occupied: 0,
            now: 0.0f64.to_bits(),
            len: 0,
            stamp: 0,
            scheduled: 0,
            delivered: 0,
        }
    }

    /// Current virtual time: the time of the last delivered event.
    pub fn now(&self) -> Seconds {
        Seconds::new(f64::from_bits(self.now))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total events scheduled so far.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Schedule `event` at `time` with ordering class `seq` for `device`.
    ///
    /// Panics if `time` is non-finite, negative, or in the past — a DES
    /// must never travel backwards. `-0.0` is scheduled as `+0.0`.
    pub fn schedule(&mut self, time: Seconds, seq: u64, device: DeviceId, event: E) {
        let bits = time_bits(time);
        assert!(
            bits >= self.now,
            "cannot schedule into the past: {} < now {}",
            f64::from_bits(bits),
            self.now()
        );
        self.scheduled += 1;
        let stamp = self.stamp;
        self.stamp += 1;
        self.len += 1;
        if bits == self.now {
            self.push_front(Scheduled {
                time: Seconds::new(f64::from_bits(bits)),
                seq,
                device,
                event,
                stamp,
            });
        } else {
            let s = self.alloc(
                bits,
                Parked {
                    seq,
                    stamp,
                    device,
                    event: Some(event),
                },
            );
            self.link(s, bits);
        }
    }

    /// Deliver the next event (earliest key), advancing virtual time.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        if self.front.is_empty() && !self.advance() {
            return None;
        }
        let ev = self.pop_front();
        self.len -= 1;
        self.delivered += 1;
        Some(ev)
    }

    /// Advance `now` to the least time in the lowest non-empty bucket, the
    /// earliest pending time, and redistribute that bucket: its events now
    /// at `now` join the front heap, the others drop to lower buckets.
    /// Every higher bucket keeps its index. False when nothing is pending.
    fn advance(&mut self) -> bool {
        if self.occupied == 0 {
            return false;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        debug_assert!(self.least[b] > self.now);
        self.now = self.least[b];
        let mut s = std::mem::replace(&mut self.head[b], NIL);
        while s != NIL {
            let Link { time: bits, next } = self.links[s as usize];
            if bits == self.now {
                let parked = &mut self.parked[s as usize];
                let entry = Scheduled {
                    time: Seconds::new(f64::from_bits(bits)),
                    seq: parked.seq,
                    device: parked.device,
                    event: parked.event.take().expect("a listed slot holds an event"),
                    stamp: parked.stamp,
                };
                self.links[s as usize].next = self.free;
                self.free = s;
                self.push_front(entry);
            } else {
                self.link(s, bits);
            }
            s = next;
        }
        true
    }

    /// Park an event at time `bits` in a free slot (growing the storage
    /// only when none is free) and return its index.
    fn alloc(&mut self, bits: u64, parked: Parked<E>) -> u32 {
        let link = Link {
            time: bits,
            next: NIL,
        };
        if self.free == NIL {
            assert!(
                self.links.len() < NIL as usize,
                "fewer than 2^32 - 1 events pending"
            );
            self.links.push(link);
            self.parked.push(parked);
            (self.links.len() - 1) as u32
        } else {
            let s = self.free;
            self.free = self.links[s as usize].next;
            self.links[s as usize] = link;
            self.parked[s as usize] = parked;
            s
        }
    }

    /// Push slot `s`, whose event is at time `bits > now`, onto its
    /// bucket.
    fn link(&mut self, s: u32, bits: u64) {
        let b = bucket(bits, self.now);
        self.links[s as usize].next = self.head[b];
        self.head[b] = s;
        if self.occupied & (1 << b) == 0 || bits < self.least[b] {
            self.least[b] = bits;
        }
        self.occupied |= 1 << b;
    }

    /// Add `entry`, an event at `now`, to the front heap.
    fn push_front(&mut self, entry: Scheduled<E>) {
        let mut i = self.front.len();
        self.front.push(entry);
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.front[parent].rank() <= self.front[i].rank() {
                break;
            }
            self.front.swap(i, parent);
            i = parent;
        }
    }

    /// Remove the front heap's least entry; the front must be non-empty.
    fn pop_front(&mut self) -> Scheduled<E> {
        let top = self.front.swap_remove(0);
        let n = self.front.len();
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.front[right].rank() < self.front[left].rank() {
                right
            } else {
                left
            };
            if self.front[i].rank() <= self.front[child].rank() {
                break;
            }
            self.front.swap(i, child);
            i = child;
        }
        top
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(f64, u64, DeviceId, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time.seconds(), e.seq, e.device, e.event));
        }
        out
    }

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(3.0), 0, 0, 30);
        q.schedule(Seconds::new(1.0), 0, 0, 10);
        q.schedule(Seconds::new(2.0), 0, 0, 20);
        let events: Vec<u32> = drain(&mut q).into_iter().map(|e| e.3).collect();
        assert_eq!(events, vec![10, 20, 30]);
    }

    #[test]
    fn same_time_orders_by_seq_then_device() {
        let mut q = EventQueue::new();
        let t = Seconds::new(1.0);
        q.schedule(t, 2, 0, 0);
        q.schedule(t, 1, 5, 1);
        q.schedule(t, 1, 2, 2);
        q.schedule(t, 0, 9, 3);
        let events: Vec<u32> = drain(&mut q).into_iter().map(|e| e.3).collect();
        assert_eq!(events, vec![3, 2, 1, 0]);
    }

    #[test]
    fn order_invariant_under_insertion_order() {
        // The kernel's core contract: with unique keys, the pop sequence
        // does not depend on the push sequence.
        let keys: Vec<(f64, u64, DeviceId)> = vec![
            (0.5, 1, 0),
            (0.5, 0, 3),
            (0.5, 0, 1),
            (1.0, 4, 2),
            (0.25, 7, 9),
            (1.0, 4, 1),
            (2.0, 0, 0),
        ];
        let run = |order: &[usize]| {
            let mut q = EventQueue::new();
            for &i in order {
                let (t, s, d) = keys[i];
                q.schedule(Seconds::new(t), s, d, i as u32);
            }
            drain(&mut q)
        };
        let forward: Vec<usize> = (0..keys.len()).collect();
        let reverse: Vec<usize> = (0..keys.len()).rev().collect();
        let interleaved = vec![3, 0, 6, 1, 4, 2, 5];
        let a = run(&forward);
        let b = run(&reverse);
        let c = run(&interleaved);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn time_advances_with_delivery() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(2.0), 0, 0, ());
        q.schedule(Seconds::new(1.0), 0, 0, ());
        assert_eq!(q.now(), Seconds::ZERO);
        q.pop();
        assert_eq!(q.now(), Seconds::new(1.0));
        q.pop();
        assert_eq!(q.now(), Seconds::new(2.0));
        assert_eq!(q.delivered(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_scheduling_into_the_past() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(5.0), 0, 0, ());
        q.pop();
        q.schedule(Seconds::new(1.0), 0, 0, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_non_finite_time() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(f64::NAN), 0, 0, ());
    }

    #[test]
    fn with_capacity_reserves_without_changing_semantics() {
        let mut q = EventQueue::with_capacity(16);
        assert!(q.is_empty());
        for i in 0..10u32 {
            q.schedule(Seconds::new(1.0 + i as f64), 0, 0, i);
        }
        let events: Vec<u32> = drain(&mut q).into_iter().map(|e| e.3).collect();
        assert_eq!(events, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn with_capacity_still_rejects_the_past() {
        let mut q = EventQueue::with_capacity(8);
        q.schedule(Seconds::new(5.0), 0, 0, ());
        q.pop();
        q.schedule(Seconds::new(1.0), 0, 0, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn with_capacity_still_rejects_non_finite_time() {
        let mut q = EventQueue::with_capacity(8);
        q.schedule(Seconds::new(f64::INFINITY), 0, 0, ());
    }

    #[test]
    fn duplicate_keys_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = Seconds::new(1.0);
        for i in 0..5u32 {
            q.schedule(t, 0, 0, i);
        }
        let events: Vec<u32> = drain(&mut q).into_iter().map(|e| e.3).collect();
        assert_eq!(events, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn negative_zero_is_scheduled_as_positive_zero() {
        // `-0.0` carries the sign bit, so ordered by raw bits it would
        // deliver after 5.0 and run the clock backwards.
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(5.0), 0, 0, 5);
        q.schedule(Seconds::new(-0.0), 0, 0, 0);
        let popped = drain(&mut q);
        assert_eq!(popped.iter().map(|e| e.3).collect::<Vec<_>>(), vec![0, 5]);
        assert_eq!(popped[0].0.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn same_instant_lower_seq_delivers_next() {
        // An event scheduled at `now` with a lower `seq` than the one just
        // delivered is still the next key, ahead of later same-instant ones.
        let mut q = EventQueue::new();
        let t = Seconds::new(2.0);
        q.schedule(t, 5, 0, 50);
        q.schedule(t, 7, 0, 70);
        q.schedule(Seconds::new(3.0), 0, 0, 30);
        assert_eq!(q.pop().map(|e| e.event), Some(50));
        q.schedule(t, 1, 0, 10);
        let events: Vec<u32> = drain(&mut q).into_iter().map(|e| e.3).collect();
        assert_eq!(events, vec![10, 70, 30]);
    }

    #[test]
    fn interleaved_matches_a_binary_heap_oracle() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Times spread over many binades and exact ties, schedules and
        // pops interleaved; the std heap on the full key is the oracle.
        let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lcg >> 33
        };
        let mut q = EventQueue::new();
        let mut oracle = BinaryHeap::new();
        let mut stamp = 0u32;
        for _ in 0..20_000 {
            if next() % 3 != 0 {
                let now = q.now().seconds();
                let dt = match next() % 5 {
                    0 => 0.0,
                    1 => 1e-300,
                    2 => (next() % 16) as f64 * 0.125,
                    3 => 1e9,
                    _ => (next() % 1000) as f64 * 1e-6,
                };
                let (seq, device) = (next() % 4, (next() % 3) as DeviceId);
                let t = Seconds::new(now + dt);
                q.schedule(t, seq, device, stamp);
                oracle.push(Reverse((t.seconds().to_bits(), seq, device, stamp)));
                stamp += 1;
            } else {
                let got = q
                    .pop()
                    .map(|e| (e.time.seconds().to_bits(), e.seq, e.device, e.event));
                assert_eq!(got, oracle.pop().map(|Reverse(k)| k));
            }
            assert_eq!(q.len(), oracle.len());
        }
        while let Some(Reverse(k)) = oracle.pop() {
            let e = q.pop().expect("the queue holds what the oracle holds");
            assert_eq!((e.time.seconds().to_bits(), e.seq, e.device, e.event), k);
        }
        assert!(q.pop().is_none());
    }
}
