//! The deterministic discrete-event simulation kernel.
//!
//! Two structures share one delivery order, a *total* order over the key
//! `(time, seq, device)`:
//!
//! * `time` — virtual time of the event (finite, non-decreasing);
//! * `seq` — a caller-assigned sequence class that ranks same-instant
//!   events (the network engine uses the event kind's protocol rank, so a
//!   replan always lands before the quantum it reshapes);
//! * `device` — the owning device, breaking ties between peers that act at
//!   the same instant in the same phase.
//!
//! [`EventQueue`] holds any number of events of any class.
//! [`CompletionTree`] holds at most one event per device, all of one class:
//! an engine whose devices each have exactly one next event of a frequent
//! kind (the fleet's current quantum completion) arms it there instead of
//! filing it in the queue, and [`EventQueue::pop_with`] delivers whichever
//! head has the lesser key. On an equal key the queue's event goes first.
//! [`EventQueue::requeue`] moves an armed event into the queue at its own
//! key, for an engine that must still deliver an event it no longer treats
//! as current.
//!
//! Neither structure sees an event that no one observes. The fleet engine
//! commits an unobserved private pair's next quanta inside the handler of
//! the completion it was delivered, each at its own finish time, without
//! arming them here (DESIGN.md §8.2); it adds them to what
//! [`EventQueue::scheduled`], [`CompletionTree::armed`] and
//! [`EventQueue::delivered`] count, so its `net.kernel.*` totals and its
//! report's event count are those of a run that delivers them all.
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
//! that range bit order equals numeric order. `schedule` and `arm` reject
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
//! `pop_with` reads the queue's head without advancing `now` past the
//! tree's head: it compares the lowest bucket's least time first. When the
//! tree's event is delivered, `now` advances to its time the same way,
//! redistributing at most the one bucket whose index that moves (every
//! lower bucket is empty, since nothing pending precedes the delivery). So
//! `now` is always the last delivered instant, from either source, and a
//! handler of the tree's event can schedule at its own instant.
//!
//! Payloads live in one slab and each bucket is an intrusive list threaded
//! through it, with freed slots chained for reuse, so storage is
//! O(pending events): the slab never holds more slots than the deepest the
//! queue has been.
//!
//! # A completion tree
//!
//! The tree is a winner tree over inline `u128` keys
//! `(time bits << 32) | device`, which sort as `(time, device)`. Its `2n`
//! nodes are laid out bottom-up: device `d`'s leaf is node `n + d`, node
//! `i < n` holds the lesser of nodes `2i` and `2i + 1`, and node 1 is the
//! head. Arming or clearing a leaf replays the minimum up its path, in
//! `O(log n)` and without a branch on the keys. An unarmed leaf holds
//! `u128::MAX`, above every armed key. A delivered head stays in its leaf
//! until its device is armed again (one replay then serves both) or the
//! tree is read otherwise, which clears it first.

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

/// One slab slot: a parked event's key and payload, stored flat so the
/// list link takes padding a nested `Scheduled` would waste, and the next
/// slot of its list (a bucket, or the free chain when `event` is `None`).
#[derive(Debug)]
struct Slot<E> {
    /// Time bits.
    time: u64,
    seq: u64,
    stamp: u64,
    device: DeviceId,
    next: u32,
    event: Option<E>,
}

/// Ends an intrusive slab list.
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

/// A key above every event's: what `pop` delivers up to.
const NO_BOUND: (u64, u64, DeviceId) = (u64::MAX, u64::MAX, DeviceId::MAX);

/// The event queue: a priority queue in virtual time.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Events at `now`: a binary min-heap on [`Scheduled::rank`].
    front: Vec<Scheduled<E>>,
    /// Storage for the bucket lists.
    slab: Vec<Slot<E>>,
    /// Head of the chain of free slab slots.
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

    /// An empty queue at `t = 0` with slab space for `cap` pending events.
    ///
    /// Sizing from the scenario (the fleet engine sizes it for its
    /// bring-up events) avoids repeated slab regrowth mid-run; capacity is
    /// an allocation hint only and changes no delivery order or timing
    /// semantics.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            front: Vec::new(),
            slab: Vec::with_capacity(cap),
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

    /// Current virtual time: the time of the last delivered event, a
    /// completion delivered through [`pop_with`](Self::pop_with) included.
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

    /// Total events delivered so far, completion-tree deliveries through
    /// [`pop_with`](Self::pop_with) included.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total events scheduled so far. A completion moved in by
    /// [`requeue`](Self::requeue) is not counted again: its tree counted it
    /// when it was armed.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Schedule `event` at `time` with ordering class `seq` for `device`.
    ///
    /// Panics if `time` is non-finite, negative, or in the past — a DES
    /// must never travel backwards. `-0.0` is scheduled as `+0.0`.
    pub fn schedule(&mut self, time: Seconds, seq: u64, device: DeviceId, event: E) {
        self.scheduled += 1;
        self.insert(time_bits(time), seq, device, event);
    }

    /// File an event at time `bits` (no earlier than `now`).
    fn insert(&mut self, bits: u64, seq: u64, device: DeviceId, event: E) {
        assert!(
            bits >= self.now,
            "cannot schedule into the past: {} < now {}",
            f64::from_bits(bits),
            self.now()
        );
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
            let s = self.alloc(Slot {
                time: bits,
                seq,
                stamp,
                device,
                next: NIL,
                event: Some(event),
            });
            self.link(s, bits);
        }
    }

    /// Deliver the next event (earliest key), advancing virtual time.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.pop_through(NO_BOUND)
    }

    /// Deliver the earlier of this queue's next event and `done`'s head,
    /// by the key `(time, seq, device)`; on an equal key the queue's event
    /// goes first. A completion leaves the tree and is delivered as
    /// `completion(device)`. Either way `now` advances to the delivered
    /// time.
    ///
    /// Panics if the tree's head lies before `now` (armed in the past).
    pub fn pop_with(
        &mut self,
        done: &mut CompletionTree,
        completion: impl FnOnce(DeviceId) -> E,
    ) -> Option<Scheduled<E>> {
        let Some((bits, device)) = done.head_bits() else {
            return self.pop();
        };
        if let Some(ev) = self.pop_through((bits, done.seq, device)) {
            return Some(ev);
        }
        assert!(
            bits >= self.now,
            "cannot deliver a completion from the past"
        );
        done.take_head(device);
        self.advance_to(bits);
        self.delivered += 1;
        Some(Scheduled {
            time: Seconds::new(f64::from_bits(bits)),
            seq: done.seq,
            device,
            event: completion(device),
            stamp: 0,
        })
    }

    /// Move `device`'s armed completion out of `done` and into this queue
    /// at its own key, as `event`.
    ///
    /// Panics if `device` has no completion armed, or if it lies before
    /// `now`.
    pub fn requeue(&mut self, done: &mut CompletionTree, device: DeviceId, event: E) {
        let time = done
            .disarm(device)
            .expect("a requeued device has a completion armed");
        self.insert(time.seconds().to_bits(), done.seq, device, event);
    }

    /// Deliver the next event if its key is at or before `bound`, never
    /// advancing `now` past `bound`'s time.
    fn pop_through(&mut self, bound: (u64, u64, DeviceId)) -> Option<Scheduled<E>> {
        if self.front.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            let least = self.least[self.occupied.trailing_zeros() as usize];
            if least > bound.0 {
                return None;
            }
            self.advance_to(least);
        }
        let top = &self.front[0];
        if (self.now, top.seq, top.device) > bound {
            return None;
        }
        let ev = self.pop_front();
        self.len -= 1;
        self.delivered += 1;
        Some(ev)
    }

    /// Advance `now` to `bits`, which is at or before every pending time,
    /// and redistribute the one bucket whose events that moves: those now
    /// at `now` join the front heap, the others drop to lower buckets.
    /// Every lower bucket is empty (its events would precede `bits`), and
    /// every higher one keeps its index.
    fn advance_to(&mut self, bits: u64) {
        debug_assert!(bits >= self.now);
        let b = bucket(bits, self.now);
        debug_assert_eq!(self.occupied & ((1 << b) - 1), 0);
        self.now = bits;
        if self.occupied & (1 << b) == 0 {
            return;
        }
        self.occupied &= !(1 << b);
        let mut s = std::mem::replace(&mut self.head[b], NIL);
        while s != NIL {
            let slot = &mut self.slab[s as usize];
            let (next, bits) = (slot.next, slot.time);
            if bits == self.now {
                let entry = Scheduled {
                    time: Seconds::new(f64::from_bits(bits)),
                    seq: slot.seq,
                    device: slot.device,
                    event: slot.event.take().expect("a listed slot holds an event"),
                    stamp: slot.stamp,
                };
                slot.next = self.free;
                self.free = s;
                self.push_front(entry);
            } else {
                self.link(s, bits);
            }
            s = next;
        }
    }

    /// Store `slot` in a free slab slot (growing the slab only when none
    /// is free) and return its index.
    fn alloc(&mut self, slot: Slot<E>) -> u32 {
        if self.free == NIL {
            assert!(
                self.slab.len() < NIL as usize,
                "fewer than 2^32 - 1 events pending"
            );
            self.slab.push(slot);
            (self.slab.len() - 1) as u32
        } else {
            let s = self.free;
            self.free = self.slab[s as usize].next;
            self.slab[s as usize] = slot;
            s
        }
    }

    /// Push slab slot `s`, whose event is at time `bits > now`, onto its
    /// bucket.
    fn link(&mut self, s: u32, bits: u64) {
        let b = bucket(bits, self.now);
        self.slab[s as usize].next = self.head[b];
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

/// An unarmed leaf's key, above every armed one.
const UNARMED: u128 = u128::MAX;

/// The lesser of two keys, selected through a mask rather than a branch,
/// so a replay costs the same however the keys fall.
#[inline(always)]
fn lesser(a: u128, b: u128) -> u128 {
    let a_wins = u128::from(a < b).wrapping_neg();
    (a & a_wins) | (b & !a_wins)
}

/// At most one pending event per device, all of one `seq` class, in a
/// winner tree over inline `(time bits << 32) | device` keys (see the
/// module doc). Delivered through [`EventQueue::pop_with`].
#[derive(Debug, Clone)]
pub struct CompletionTree {
    /// Node 1 is the head, device `d`'s leaf is node `n + d`, and node
    /// `i < n` is the lesser of nodes `2i` and `2i + 1`. Node 0 is unused.
    node: Vec<u128>,
    /// The number of leaves.
    n: usize,
    /// The same-instant class of every event in the tree.
    seq: u64,
    armed: u64,
    /// The device whose event was delivered last, while its leaf still
    /// holds the delivered key: a handler usually re-arms that device at
    /// once, and one replay then serves both the delivery and the arm.
    /// Everything else that reads the tree clears the leaf first.
    delivered: Option<DeviceId>,
}

impl CompletionTree {
    /// An empty tree with one leaf per device in `0..devices`, whose
    /// events all rank as class `seq`.
    pub fn new(devices: usize, seq: u64) -> Self {
        assert!(
            devices <= DeviceId::MAX as usize,
            "device ids fit below u32::MAX"
        );
        CompletionTree {
            node: vec![UNARMED; 2 * devices.max(1)],
            n: devices,
            seq,
            armed: 0,
            delivered: None,
        }
    }

    /// Arm `device`'s event at `time`, replacing any event it had armed.
    ///
    /// Panics if `time` is non-finite or negative; `-0.0` is armed as
    /// `+0.0`.
    pub fn arm(&mut self, device: DeviceId, time: Seconds) {
        let key = u128::from(time_bits(time)) << 32 | u128::from(device);
        if self.delivered != Some(device) {
            self.settle();
        }
        self.delivered = None;
        self.armed += 1;
        self.set(device, key);
    }

    /// Clear `device`'s event, returning its time if one was armed.
    pub fn disarm(&mut self, device: DeviceId) -> Option<Seconds> {
        self.settle();
        let key = self.node[self.n + device as usize];
        (key != UNARMED).then(|| {
            self.set(device, UNARMED);
            Seconds::new(f64::from_bits((key >> 32) as u64))
        })
    }

    /// Total events armed so far.
    pub fn armed(&self) -> u64 {
        self.armed
    }

    /// Clear the leaf of the event delivered last, if it is still there.
    fn settle(&mut self) {
        if let Some(device) = self.delivered.take() {
            self.set(device, UNARMED);
        }
    }

    /// The earliest event's time bits and device; it stays in the tree.
    fn head_bits(&mut self) -> Option<(u64, DeviceId)> {
        self.settle();
        let key = self.node[1];
        (key != UNARMED).then_some(((key >> 32) as u64, key as DeviceId))
    }

    /// Take the head returned by [`head_bits`](Self::head_bits) out of the
    /// tree. Its leaf is cleared lazily.
    fn take_head(&mut self, device: DeviceId) {
        debug_assert_eq!(self.node[1] as DeviceId, device);
        self.delivered = Some(device);
    }

    /// Store `key` in `device`'s leaf and replay the minimum up its path:
    /// each level carries the winner so far and reads only its sibling.
    fn set(&mut self, device: DeviceId, key: u128) {
        assert!((device as usize) < self.n, "device {device} has no leaf");
        let mut i = self.n + device as usize;
        let node = &mut self.node[..2 * self.n];
        node[i] = key;
        let mut win = key;
        while i > 1 {
            win = lesser(win, node[i ^ 1]);
            i /= 2;
            node[i] = win;
        }
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

    /// A 64-bit LCG: deterministic draws without a seeded RNG.
    fn lcg(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        }
    }

    #[test]
    fn completion_tree_matches_a_btreeset_oracle() {
        use std::collections::BTreeSet;
        // 37 leaves (not a power of two), armed at the last delivered
        // instant plus an offset from a small set, so exact ties across
        // devices are common; zero of both signs opens the run. Arms,
        // re-arms of armed leaves, disarms and deliveries interleave; the
        // sorted set of `(time bits, device)` is the oracle.
        const N: u32 = 37;
        let offsets = [0.0, 0.25, 0.5, 0.5, 1.0, 3.0, 1e-300, 7.5];
        let mut draw = lcg(0x7e57);
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut tree = CompletionTree::new(N as usize, 4);
        let mut oracle: BTreeSet<(u64, u32)> = BTreeSet::from([(0, 3), (0, 5)]);
        let mut armed: Vec<Option<u64>> = vec![None; N as usize];
        tree.arm(5, Seconds::new(-0.0));
        tree.arm(3, Seconds::new(0.0));
        (armed[3], armed[5]) = (Some(0), Some(0));
        let mut arms = 2;
        for _ in 0..20_000 {
            let d = (draw() % u64::from(N)) as u32;
            match draw() % 4 {
                0 | 1 => {
                    let dt = offsets[(draw() % offsets.len() as u64) as usize];
                    let t = q.now().seconds() + dt;
                    tree.arm(d, Seconds::new(t));
                    arms += 1;
                    let bits = (t + 0.0).to_bits();
                    if let Some(old) = armed[d as usize].replace(bits) {
                        oracle.remove(&(old, d));
                    }
                    oracle.insert((bits, d));
                }
                2 => {
                    let got = tree.disarm(d).map(|t| t.seconds().to_bits());
                    let want = armed[d as usize].take();
                    assert_eq!(got, want);
                    if let Some(bits) = want {
                        oracle.remove(&(bits, d));
                    }
                }
                _ => {
                    let got = q
                        .pop_with(&mut tree, |d| d)
                        .map(|e| (e.time.seconds().to_bits(), e.device));
                    let want = oracle.pop_first();
                    assert_eq!(got, want);
                    if let Some((bits, d)) = got {
                        assert_eq!(bits.to_be_bytes()[0] & 0x80, 0, "no -0.0 is delivered");
                        armed[d as usize] = None;
                    }
                }
            }
        }
        while let Some(want) = oracle.pop_first() {
            let e = q
                .pop_with(&mut tree, |d| d)
                .expect("the tree holds what the oracle holds");
            assert_eq!((e.time.seconds().to_bits(), e.device), want);
        }
        assert!(q.pop_with(&mut tree, |d| d).is_none());
        assert_eq!(tree.armed(), arms);
    }

    #[test]
    fn merged_heads_deliver_by_the_full_key() {
        // Same instant: a lower class beats the tree's, a higher one loses
        // to it; within the tree's class the lower device goes first, and
        // on an equal key the queue's event does.
        let t = Seconds::new(2.0);
        let mut q = EventQueue::new();
        let mut tree = CompletionTree::new(8, 4);
        q.schedule(t, 5, 0, "departure 0");
        q.schedule(t, 3, 7, "replan 7");
        q.schedule(t, 4, 6, "queued completion 6");
        q.schedule(t, 4, 2, "queued completion 2");
        tree.arm(3, t);
        tree.arm(6, t);
        let mut order = Vec::new();
        while let Some(e) = q.pop_with(&mut tree, |_| "tree completion") {
            order.push((e.event, e.device));
        }
        assert_eq!(
            order,
            vec![
                ("replan 7", 7),
                ("queued completion 2", 2),
                ("tree completion", 3),
                ("queued completion 6", 6),
                ("tree completion", 6),
                ("departure 0", 0),
            ]
        );
        assert_eq!((q.scheduled(), tree.armed(), q.delivered()), (4, 2, 6));
    }

    #[test]
    fn pop_with_never_advances_now_past_the_tree() {
        let mut q = EventQueue::new();
        let mut tree = CompletionTree::new(2, 4);
        q.schedule(Seconds::new(5.0), 0, 0, 50);
        tree.arm(1, Seconds::new(1.0));
        let e = q.pop_with(&mut tree, |d| d).expect("the completion is due");
        assert_eq!((e.time, e.event), (Seconds::new(1.0), 1));
        assert_eq!(q.now(), Seconds::new(1.0));
        // The completion's handler acts at its own instant.
        q.schedule(Seconds::new(1.0), 0, 1, 10);
        let got: Vec<u32> = std::iter::from_fn(|| q.pop_with(&mut tree, |d| d))
            .map(|e| e.event)
            .collect();
        assert_eq!(got, vec![10, 50]);
    }

    #[test]
    fn requeue_moves_a_completion_at_its_key_without_a_schedule() {
        let mut q = EventQueue::new();
        let mut tree = CompletionTree::new(4, 4);
        tree.arm(2, Seconds::new(3.0));
        q.requeue(&mut tree, 2, 20);
        // The leaf is free again; a fresh arm at the same key pops after
        // the requeued event.
        assert_eq!(tree.disarm(2), None);
        tree.arm(2, Seconds::new(3.0));
        let got: Vec<(Seconds, u64, u32)> = std::iter::from_fn(|| q.pop_with(&mut tree, |_| 21))
            .map(|e| (e.time, e.seq, e.event))
            .collect();
        assert_eq!(
            got,
            vec![(Seconds::new(3.0), 4, 20), (Seconds::new(3.0), 4, 21)]
        );
        assert_eq!((q.scheduled(), tree.armed(), q.delivered()), (0, 2, 2));
    }

    #[test]
    fn a_delivered_leaf_is_cleared_for_every_reader() {
        // The delivered head stays in its leaf until the next arm of its
        // device; a disarm, another device's arm or the next delivery must
        // not see it.
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut tree = CompletionTree::new(3, 4);
        tree.arm(0, Seconds::new(1.0));
        tree.arm(1, Seconds::new(2.0));
        assert_eq!(q.pop_with(&mut tree, |d| d).map(|e| e.event), Some(0));
        assert_eq!(tree.disarm(0), None);
        assert_eq!(q.pop_with(&mut tree, |d| d).map(|e| e.event), Some(1));
        tree.arm(2, Seconds::new(4.0));
        assert_eq!(q.pop_with(&mut tree, |d| d).map(|e| e.event), Some(2));
        assert!(q.pop_with(&mut tree, |d| d).is_none());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn completion_tree_rejects_non_finite_time() {
        CompletionTree::new(1, 0).arm(0, Seconds::new(f64::NAN));
    }
}
