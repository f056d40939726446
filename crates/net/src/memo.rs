//! The re-plan memos' shared plumbing, and the probe-cost memo.
//!
//! A re-plan (PAPER.md §4.2) probes all three modes and re-solves the
//! options search. Both depend on the pair's separation, and the options
//! search also on its interference sum, so the engine memoizes them on
//! integer keys: the probe round on the separation's `f64` bits
//! ([`ProbeMemo`]), the options search on its quantized key
//! ([`crate::interference::OptionsMemo`]). Every memo here is exact —
//! a value is the same function of the same bits whichever lookup
//! computed it — so a memo changes costs, never outputs.
//!
//! The keys are already integers that vary in every bit, so the maps hash
//! them with one multiply-xor round per word ([`KeyHasher`]) instead of
//! SipHash, and every map is bounded by the same clear-at-cap rule
//! ([`insert_capped`]).

use braidio_mac::probe::LinkProber;
use braidio_radio::characterization::Characterization;
use braidio_units::{Joules, Meters, Seconds};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Bound on every re-plan memo; reaching it clears the map. Values are
/// pure functions of their keys, so a clear never changes a result.
pub const MEMO_CAP: usize = 65536;

/// A multiply-xor hasher for integer keys: each word is xored into the
/// rotated state and multiplied by an odd 64-bit constant, and `finish`
/// folds the high half (where the product mixes best) into the low half
/// that picks the bucket. Fixed, so a map's layout is the same on every
/// run; the memos never iterate their maps, so that layout reaches no
/// output either way.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A hash map on integer keys, hashed by [`KeyHasher`].
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// Insert into a re-plan memo, clearing it first when it holds
/// [`MEMO_CAP`] entries.
pub fn insert_capped<K: std::hash::Hash + Eq, V>(map: &mut KeyMap<K, V>, key: K, value: V) {
    if map.len() >= MEMO_CAP {
        map.clear();
    }
    map.insert(key, value);
}

/// What a probe round charges: the part of
/// [`braidio_mac::probe::ProbeReport`] the fleet engine reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeCost {
    /// Time spent probing all three modes.
    pub airtime: Seconds,
    /// Energy spent at the initiating (transmitting) side.
    pub energy_initiator: Joules,
    /// Energy spent at the responding (receiving) side.
    pub energy_responder: Joules,
}

/// Exact memo of [`LinkProber::ideal`]'s probe round, keyed by the
/// separation's `f64` bits. An ideal probe is a pure function of the
/// characterization and the separation, so one memo serves every pair of
/// a fleet: pairs at one separation share an entry, and a pair that moves
/// looks its new separation up like any other.
#[derive(Debug, Default)]
pub struct ProbeMemo {
    cache: KeyMap<u64, ProbeCost>,
    hits: u64,
    misses: u64,
}

impl ProbeMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups served from the memo so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that ran the probe round so far, one per separation bit
    /// pattern (and per clear at [`MEMO_CAP`]).
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// The probe round's cost at separation `d`, counted as a hit or a
    /// miss.
    pub fn cost(&mut self, ch: &Characterization, d: Meters) -> ProbeCost {
        let key = d.meters().to_bits();
        if let Some(&cost) = self.cache.get(&key) {
            self.hits += 1;
            return cost;
        }
        let report = LinkProber::ideal().probe(ch, d);
        let cost = ProbeCost {
            airtime: report.airtime,
            energy_initiator: report.energy_initiator,
            energy_responder: report.energy_responder,
        };
        insert_capped(&mut self.cache, key, cost);
        self.misses += 1;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same(a: ProbeCost, b: ProbeCost) -> bool {
        a.airtime.seconds().to_bits() == b.airtime.seconds().to_bits()
            && a.energy_initiator.joules().to_bits() == b.energy_initiator.joules().to_bits()
            && a.energy_responder.joules().to_bits() == b.energy_responder.joules().to_bits()
    }

    fn probed(ch: &Characterization, d: Meters) -> ProbeCost {
        let r = LinkProber::ideal().probe(ch, d);
        ProbeCost {
            airtime: r.airtime,
            energy_initiator: r.energy_initiator,
            energy_responder: r.energy_responder,
        }
    }

    #[test]
    fn probe_memo_matches_the_prober_bitwise_for_repeated_and_moved_separations() {
        let ch = Characterization::braidio();
        let mut memo = ProbeMemo::new();
        // A walk out and back: every separation is met twice, the second
        // time from the memo, and neighbouring separations one ULP apart
        // (a pair that moved by the least amount) get entries of their own.
        let mut walk: Vec<f64> = (1..=40).map(|i| 0.05 * i as f64).collect();
        walk.push(f64::from_bits(0.5f64.to_bits() + 1));
        walk.push(f64::from_bits(0.5f64.to_bits() - 1));
        walk.extend((1..=40).rev().map(|i| 0.05 * i as f64));
        for &m in &walk {
            let d = Meters::new(m);
            assert!(same(memo.cost(&ch, d), probed(&ch, d)), "at {m} m");
        }
        assert_eq!(memo.cache.len(), 42);
        assert_eq!((memo.hits(), memo.misses()), (40, 42));
    }

    #[test]
    fn insert_capped_clears_a_full_map_first() {
        let mut map: KeyMap<u64, u64> = KeyMap::default();
        for k in 0..MEMO_CAP as u64 {
            insert_capped(&mut map, k, k);
        }
        assert_eq!(map.len(), MEMO_CAP);
        // Re-inserting a present key into a full map clears it too: the
        // rule reads the length, not the key.
        insert_capped(&mut map, 7, 7);
        assert_eq!(map.len(), 1);
        insert_capped(&mut map, 8, 8);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn key_hasher_spreads_neighbouring_keys_over_buckets() {
        // Consecutive integers (neighbouring distance bits, adjacent
        // quantized log-distances) must not pile into a few low buckets.
        let buckets = 1024u64;
        let mut seen = vec![false; buckets as usize];
        for k in 0..buckets {
            let mut h = KeyHasher::default();
            h.write_u64(k);
            seen[(h.finish() % buckets) as usize] = true;
        }
        let filled = seen.iter().filter(|&&s| s).count();
        assert!(filled > 600, "{filled} of {buckets} buckets used");
    }
}
