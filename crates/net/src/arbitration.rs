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
                let idx = (t.seconds() / slot.seconds()).floor() as u64;
                idx % n_pairs as u64 == pair as u64
            }
        }
    }

    /// Do the carriers of two distinct pairs ever overlap in time?
    pub fn carriers_overlap(self) -> bool {
        !matches!(self, Arbitration::TdmaRoundRobin { .. })
    }

    /// The earliest time ≥ `t` at which `pair` may transmit.
    pub fn next_transmit_at(self, pair: usize, n_pairs: usize, t: Seconds) -> Seconds {
        match self {
            Arbitration::Uncoordinated | Arbitration::ChannelPlan { .. } => t,
            Arbitration::TdmaRoundRobin { slot } => {
                if n_pairs <= 1 || self.may_transmit(pair, n_pairs, t) {
                    return t;
                }
                // The pair is outside its slot and must wait for its turn.
                braidio_telemetry::count("net.arbitration.deferred");
                let s = slot.seconds();
                let idx = (t.seconds() / s).floor() as u64;
                let n = n_pairs as u64;
                // Slots cycle with period n; the pair owns slots ≡ pair (mod n).
                let cur = idx % n;
                let ahead = (pair as u64 + n - cur) % n;
                debug_assert!(ahead > 0, "caller handled the own-slot case");
                let k = idx + ahead;
                // `k * s` can round a hair below the true boundary when `s`
                // is not dyadic (e.g. 0.1 s slots), which would land the
                // result in the previous slot; nudge up until it floors to
                // `k` so the postcondition `may_transmit` holds.
                let mut at = k as f64 * s;
                while ((at / s).floor() as u64) < k {
                    at = f64::from_bits(at.to_bits() + 1);
                }
                Seconds::new(at)
            }
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
                let idx = (t.seconds() / s).floor() as u64;
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
    fn channel_plan_couples_by_assignment() {
        let a = Arbitration::ChannelPlan { channels: 2 };
        // Pairs 0 and 2 share channel 0: co-channel.
        assert_eq!(a.relation(0, 2), ChannelRelation::CoChannel);
        // Pairs 0 and 1 sit on different channels: adjacent-channel.
        assert_eq!(a.relation(0, 1), ChannelRelation::AdjacentChannel);
        assert!(a.may_transmit(1, 4, Seconds::ZERO));
    }
}
