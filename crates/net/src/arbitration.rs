//! Carrier arbitration: who may park a carrier in the band, when.
//!
//! The coexistence analysis (`mac::coexistence`) ends on a sharp note:
//! distance cannot save the backscatter regime from an uncoordinated
//! in-band carrier, so multi-pair deployments must coordinate — the same
//! pressure that produced EPC Gen2's dense-reader mode. This module is the
//! coordination knob of the fleet simulator:
//!
//! * [`Arbitration::Uncoordinated`] — every pair transmits whenever it
//!   likes on its own (independently chosen) channel. Foreign carriers
//!   land adjacent-channel, the worst realistic coupling for an envelope
//!   detector (the carrier beat falls inside the baseband).
//! * [`Arbitration::TdmaRoundRobin`] — time slots rotate round-robin over
//!   the pairs; only the slot owner's carrier is up. Airtime divides by
//!   the fleet size, but every slot is interference-free.
//! * [`Arbitration::ChannelPlan`] — pairs are statically assigned one of
//!   `channels` ISM channels (`pair % channels`). Same-channel neighbours
//!   couple co-channel (−10 dB: the quasi-static superposition is mostly
//!   removed by the high-pass); different-channel neighbours still couple
//!   adjacent-channel at full power, because an envelope detector has no
//!   channel selectivity — frequency planning alone cannot rescue a
//!   channel-blind receiver, which the fleet experiment demonstrates.

use braidio_mac::coexistence::ChannelRelation;
use braidio_units::Seconds;

/// A carrier-arbitration policy for a fleet of pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arbitration {
    /// No coordination: all carriers up at once, adjacent-channel coupling.
    Uncoordinated,
    /// Round-robin TDMA over the pairs with the given slot length.
    TdmaRoundRobin {
        /// Slot duration.
        slot: Seconds,
    },
    /// Static frequency plan over `channels` ISM channels.
    ChannelPlan {
        /// Number of channels in the plan (≥ 1).
        channels: usize,
    },
}

impl Arbitration {
    /// Short label for experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Arbitration::Uncoordinated => "uncoordinated",
            Arbitration::TdmaRoundRobin { .. } => "tdma",
            Arbitration::ChannelPlan { .. } => "channel-plan",
        }
    }

    /// How the carrier of pair `other` lands in the receiver of pair
    /// `victim`. Only meaningful for policies where both may be up at once.
    /// Every policy relates `(victim − s, other − s)` as it relates
    /// `(victim, other)`, which lets the bulk wave copy an edge from a
    /// lattice neighbour's row (`PairGainCache::rebuild_all_shared`).
    pub fn relation(self, victim: usize, other: usize) -> ChannelRelation {
        match self {
            Arbitration::Uncoordinated => ChannelRelation::AdjacentChannel,
            // TDMA pairs never overlap in time; the relation is moot but
            // co-channel is the honest answer (one shared channel).
            Arbitration::TdmaRoundRobin { .. } => ChannelRelation::CoChannel,
            Arbitration::ChannelPlan { channels } => {
                let c = channels.max(1);
                if victim % c == other % c {
                    ChannelRelation::CoChannel
                } else {
                    ChannelRelation::AdjacentChannel
                }
            }
        }
    }

    /// The victim's *relation row*: a label such that two victims with
    /// equal rows see every pair's carrier under the same relation —
    /// `relation_row(v) == relation_row(w)` implies
    /// `relation(v, q) == relation(w, q)` for every `q`. A channel plan's
    /// row is the victim's channel, `victim % channels`; every other policy
    /// relates all pairs alike, so its row is 0. The wave sweep keys
    /// shared-receiver victim groups on it.
    pub fn relation_row(self, victim: usize) -> usize {
        match self {
            Arbitration::ChannelPlan { channels } => victim % channels.max(1),
            Arbitration::Uncoordinated | Arbitration::TdmaRoundRobin { .. } => 0,
        }
    }

    /// May pair `pair` (of `n_pairs`) transmit at time `t`?
    pub fn may_transmit(self, pair: usize, n_pairs: usize, t: Seconds) -> bool {
        match self {
            Arbitration::Uncoordinated | Arbitration::ChannelPlan { .. } => true,
            Arbitration::TdmaRoundRobin { slot } => {
                if n_pairs <= 1 {
                    return true;
                }
                slot_index(t.seconds(), slot.seconds()) % n_pairs as u64 == pair as u64
            }
        }
    }

    /// Do the carriers of two distinct pairs ever overlap in time?
    pub fn carriers_overlap(self) -> bool {
        !matches!(self, Arbitration::TdmaRoundRobin { .. })
    }

    /// The earliest time ≥ `t` at which `pair` may transmit.
    ///
    /// Inlined: the fleet engine asks once per quantum, and only a TDMA
    /// pair outside its slot takes the out-of-line wait.
    #[inline]
    pub fn next_transmit_at(self, pair: usize, n_pairs: usize, t: Seconds) -> Seconds {
        match self {
            Arbitration::TdmaRoundRobin { slot }
                if n_pairs > 1 && !self.may_transmit(pair, n_pairs, t) =>
            {
                next_own_slot(slot, pair, n_pairs, t)
            }
            _ => t,
        }
    }

    /// The end of the transmit window containing `t` (which must be a
    /// permitted time), or `None` when the window is unbounded.
    pub fn window_end(self, pair: usize, n_pairs: usize, t: Seconds) -> Option<Seconds> {
        match self {
            Arbitration::Uncoordinated | Arbitration::ChannelPlan { .. } => None,
            Arbitration::TdmaRoundRobin { slot } => {
                if n_pairs <= 1 {
                    return None;
                }
                debug_assert!(self.may_transmit(pair, n_pairs, t));
                let s = slot.seconds();
                let idx = slot_index(t.seconds(), s);
                Some(Seconds::new((idx + 1) as f64 * s))
            }
        }
    }

    /// The long-run fraction of airtime a pair owns.
    pub fn airtime_share(self, n_pairs: usize) -> f64 {
        match self {
            Arbitration::Uncoordinated | Arbitration::ChannelPlan { .. } => 1.0,
            Arbitration::TdmaRoundRobin { .. } => 1.0 / n_pairs.max(1) as f64,
        }
    }
}

/// The index of the TDMA slot of length `s` that holds `t`: `⌊t / s⌋`.
/// The float-to-int cast truncates toward zero and saturates, so it
/// equals `(t / s).floor() as u64` for every `f64` (a negative quotient
/// or NaN maps to 0 either way) without a call to libm's `floor`, which
/// the baseline x86-64 target has no instruction for.
#[inline]
fn slot_index(t: f64, s: f64) -> u64 {
    (t / s) as u64
}

/// The start of `pair`'s next TDMA slot after `t`, which lies outside
/// its own slot: strictly later than `t`, so a caller sees a deferral as
/// `next_transmit_at(..) != t`. Out of line, so that
/// [`Arbitration::next_transmit_at`] stays small enough to inline into
/// the fleet engine's quantum train.
#[inline(never)]
fn next_own_slot(slot: Seconds, pair: usize, n_pairs: usize, t: Seconds) -> Seconds {
    let s = slot.seconds();
    let idx = slot_index(t.seconds(), s);
    let n = n_pairs as u64;
    // Slots cycle with period n; the pair owns slots ≡ pair (mod n).
    let cur = idx % n;
    let ahead = (pair as u64 + n - cur) % n;
    debug_assert!(ahead > 0, "caller handled the own-slot case");
    let k = idx + ahead;
    // `k * s` can round a hair below the true boundary when `s` is not
    // dyadic (e.g. 0.1 s slots), which would land the result in the
    // previous slot; nudge up until it floors to `k` so the postcondition
    // `may_transmit` holds.
    let mut at = k as f64 * s;
    while slot_index(at, s) < k {
        at = f64::from_bits(at.to_bits() + 1);
    }
    Seconds::new(at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncoordinated_is_always_on_adjacent() {
        let a = Arbitration::Uncoordinated;
        assert!(a.may_transmit(3, 8, Seconds::new(12.34)));
        assert_eq!(a.relation(0, 1), ChannelRelation::AdjacentChannel);
        assert!(a.carriers_overlap());
        assert_eq!(a.airtime_share(8), 1.0);
    }

    #[test]
    fn tdma_slots_rotate_round_robin() {
        let a = Arbitration::TdmaRoundRobin {
            slot: Seconds::new(0.5),
        };
        // 3 pairs: slot k belongs to pair k mod 3.
        for k in 0..9u32 {
            let t = Seconds::new(k as f64 * 0.5 + 0.1);
            for p in 0..3 {
                assert_eq!(
                    a.may_transmit(p, 3, t),
                    (k as usize % 3) == p,
                    "slot {k} pair {p}"
                );
            }
        }
        assert!(!a.carriers_overlap());
        assert!((a.airtime_share(4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tdma_next_transmit_lands_in_own_slot() {
        let a = Arbitration::TdmaRoundRobin {
            slot: Seconds::new(1.0),
        };
        // At t = 0.2 (pair 0's slot), pair 2 waits until t = 2.
        let t = a.next_transmit_at(2, 4, Seconds::new(0.2));
        assert_eq!(t, Seconds::new(2.0));
        assert!(a.may_transmit(2, 4, t));
        // Already in its own slot: no wait.
        let t2 = a.next_transmit_at(0, 4, Seconds::new(0.2));
        assert_eq!(t2, Seconds::new(0.2));
        // Window end closes at the slot boundary.
        assert_eq!(a.window_end(0, 4, t2), Some(Seconds::new(1.0)));
    }

    #[test]
    fn single_pair_tdma_degenerates_to_always_on() {
        let a = Arbitration::TdmaRoundRobin {
            slot: Seconds::new(1.0),
        };
        assert!(a.may_transmit(0, 1, Seconds::new(7.7)));
        assert_eq!(a.window_end(0, 1, Seconds::new(7.7)), None);
        assert_eq!(a.airtime_share(1), 1.0);
    }

    #[test]
    fn equal_relation_rows_mean_equal_relations() {
        // The contract the shared-receiver wave relies on, tabled over
        // every policy shape and small fleets: equal rows ⇒ identical
        // relations to every source. Equivalently, victims whose relations
        // differ anywhere are never merged into one row.
        let policies = [
            Arbitration::Uncoordinated,
            Arbitration::TdmaRoundRobin {
                slot: Seconds::new(0.25),
            },
            Arbitration::ChannelPlan { channels: 1 },
            Arbitration::ChannelPlan { channels: 2 },
            Arbitration::ChannelPlan { channels: 3 },
        ];
        for a in policies {
            for n in 1..=9 {
                for v in 0..n {
                    for w in 0..n {
                        let same = (0..n).all(|q| a.relation(v, q) == a.relation(w, q));
                        if a.relation_row(v) == a.relation_row(w) {
                            assert!(
                                same,
                                "{a:?} n={n}: rows of {v} and {w} merge unequal relations"
                            );
                        }
                    }
                }
            }
        }
        // A channel plan splits rows by channel, nothing else does.
        assert_eq!(Arbitration::ChannelPlan { channels: 2 }.relation_row(5), 1);
        assert_eq!(Arbitration::ChannelPlan { channels: 3 }.relation_row(5), 2);
        assert_eq!(Arbitration::Uncoordinated.relation_row(5), 0);
    }

    #[test]
    fn relations_are_invariant_under_a_common_shift() {
        // The bulk wave copies source `q`'s edge at victim `v` from a row
        // led by `v − s` at source `q − s`, which is exact only if every
        // policy relates the shifted pair as it relates the original.
        let policies = [
            Arbitration::Uncoordinated,
            Arbitration::TdmaRoundRobin {
                slot: Seconds::new(0.25),
            },
            Arbitration::ChannelPlan { channels: 0 },
            Arbitration::ChannelPlan { channels: 1 },
            Arbitration::ChannelPlan { channels: 2 },
            Arbitration::ChannelPlan { channels: 3 },
            Arbitration::ChannelPlan { channels: 7 },
        ];
        for a in policies {
            for v in 0..40 {
                for q in 0..40 {
                    for s in 0..=v.min(q) {
                        assert_eq!(
                            a.relation(v - s, q - s),
                            a.relation(v, q),
                            "{a:?}: ({v}, {q}) shifted by {s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn slot_index_equals_the_floored_quotient() {
        // The cast must agree with `floor` wherever a quotient can land:
        // signed zeros, exact slot multiples and their neighbours one ULP
        // away, negatives, NaN, the infinities and quotients past `u64`.
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let down = |x: f64| f64::from_bits(x.to_bits() - 1);
        for s in [0.25, 0.1, 1.0, 3.0] {
            let mut ts = vec![
                0.0,
                -0.0,
                -1e-300,
                -s,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1e300,
                f64::MAX,
            ];
            for k in 1..=64u32 {
                let t = f64::from(k) * s;
                ts.extend([t, up(t), down(t), -t]);
            }
            for t in ts {
                assert_eq!(
                    slot_index(t, s),
                    (t / s).floor() as u64,
                    "t = {t:e}, s = {s}"
                );
            }
        }
    }

    #[test]
    fn channel_plan_couples_by_assignment() {
        let a = Arbitration::ChannelPlan { channels: 2 };
        // Pairs 0 and 2 share channel 0: co-channel.
        assert_eq!(a.relation(0, 2), ChannelRelation::CoChannel);
        // Pairs 0 and 1 sit on different channels: adjacent-channel.
        assert_eq!(a.relation(0, 1), ChannelRelation::AdjacentChannel);
        assert!(a.may_transmit(1, 4, Seconds::ZERO));
    }
}
