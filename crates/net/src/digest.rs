//! Report identity: an FNV-1a-64 digest over every bit of a
//! [`FleetReport`].
//!
//! Two reports are the same run's output iff their digests agree, so a
//! test states "no output moved" as one `assert_eq!` on [`report_digest`],
//! and the committed golden manifest (`goldens/digests.txt`) pins each
//! scenario's report, JSONL trace and energy ledger as one hex word each.
//! The field order and encoding match the fleet benchmark's own digest,
//! so the two agree on every report.

use crate::FleetReport;
use braidio_units::Seconds;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64, fed word by word in little-endian byte order.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Feed raw bytes (a rendered trace, say).
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feed one word.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feed one float's bit pattern.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// An optional instant: a presence tag, then the bits when present.
    fn opt_s(&mut self, v: Option<Seconds>) {
        match v {
            None => self.u64(0),
            Some(s) => {
                self.u64(1);
                self.f64(s.seconds());
            }
        }
    }

    /// A length prefix, so adjacent vectors cannot trade elements.
    pub fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// The digest of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of every field of `r`, in declaration order, with a length
/// prefix before each vector and a presence tag before the churn block.
pub fn report_digest(r: &FleetReport) -> u64 {
    let mut h = Fnv64::default();
    h.f64(r.horizon.seconds());
    h.f64(r.end_time.seconds());
    h.u64(r.events);
    h.u64(r.replans);
    h.len(r.pair_bits.len());
    for &b in &r.pair_bits {
        h.f64(b);
    }
    h.len(r.pair_mode_bits.len());
    for modes in &r.pair_mode_bits {
        for &(mode, bits) in modes {
            h.u64(mode as u64);
            h.f64(bits);
        }
    }
    h.len(r.pair_dead_at.len());
    for &t in &r.pair_dead_at {
        h.opt_s(t);
    }
    h.len(r.device_spent.len());
    for j in &r.device_spent {
        h.f64(j.joules());
    }
    h.len(r.device_dead_at.len());
    for &t in &r.device_dead_at {
        h.opt_s(t);
    }
    h.len(r.device_carrier_time.len());
    for t in &r.device_carrier_time {
        h.f64(t.seconds());
    }
    match &r.churn {
        None => h.u64(0),
        Some(c) => {
            h.u64(1);
            h.f64(c.window.seconds());
            for n in [c.sessions, c.admitted, c.departed, c.died, c.roams] {
                h.u64(n as u64);
            }
            h.len(c.admission_latency.len());
            for t in &c.admission_latency {
                h.f64(t.seconds());
            }
            for &t in &c.phase_time {
                h.f64(t);
            }
            h.opt_s(c.session_half_life);
            h.len(c.window_bits.len());
            for &b in &c.window_bits {
                h.f64(b);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_64_matches_the_published_vectors() {
        let digest = |s: &str| {
            let mut h = Fnv64::default();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }
}
