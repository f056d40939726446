//! Output check: an FNV-1a-64 digest over every bit of a `FleetReport`,
//! plus the invariants a report must satisfy whatever its digest.

use braidio_net::{FleetReport, FleetScenario};
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
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
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
    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of every field of `r`, in declaration order.
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

/// Digest of a whole scenario set: the per-scenario digests in set order.
pub fn set_digest(per_scenario: &[u64]) -> u64 {
    let mut h = Fnv64::default();
    h.len(per_scenario.len());
    for &d in per_scenario {
        h.u64(d);
    }
    h.finish()
}

/// Invariants every report must hold, independent of the recorded digest:
/// shapes match the scenario, no device spent more than its battery held,
/// every bit count is finite and non-negative, and the kernel delivered
/// at least one event. Returns the first violation.
pub fn check_invariants(sc: &FleetScenario, r: &FleetReport) -> Result<(), String> {
    if r.pair_bits.len() != sc.pairs.len() || r.device_spent.len() != sc.devices.len() {
        return Err(format!(
            "report shape {}x{} does not match scenario {}x{}",
            r.pair_bits.len(),
            r.device_spent.len(),
            sc.pairs.len(),
            sc.devices.len()
        ));
    }
    if r.events == 0 {
        return Err("the kernel delivered no events".into());
    }
    for (d, (spent, spec)) in r.device_spent.iter().zip(&sc.devices).enumerate() {
        let (spent, cap) = (spent.joules(), spec.battery.joules());
        if !spent.is_finite() || spent < 0.0 {
            return Err(format!("device {d} spent {spent} J"));
        }
        // `device_spent` is energy demanded: the draw that empties a
        // battery is recorded in full, so only a device still alive at the
        // end is bound by its capacity, and a dead one must have reached
        // it. (Relative 1e-12 absorbs the rounding of summed debits.)
        let dead = r.device_dead_at[d].is_some();
        if !dead && spent > cap * (1.0 + 1e-12) {
            return Err(format!(
                "live device {d} spent {spent} J of a {cap} J battery"
            ));
        }
        if dead && spent < cap * (1.0 - 1e-12) {
            return Err(format!("device {d} died having spent {spent} J of {cap} J"));
        }
    }
    let bad_bits = |b: f64| !b.is_finite() || b < 0.0;
    if let Some(p) = r.pair_bits.iter().position(|&b| bad_bits(b)) {
        return Err(format!("pair {p} delivered {} bits", r.pair_bits[p]));
    }
    if let Some(p) = r
        .pair_mode_bits
        .iter()
        .position(|m| m.iter().any(|&(_, b)| bad_bits(b)))
    {
        return Err(format!("pair {p} has a non-finite per-mode bit count"));
    }
    if let Some(c) = &r.churn {
        if c.window_bits.iter().any(|&b| bad_bits(b)) {
            return Err("a churn window bit count is non-finite".into());
        }
    }
    Ok(())
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

    #[test]
    fn set_digest_depends_on_order() {
        assert_ne!(set_digest(&[1, 2]), set_digest(&[2, 1]));
        assert_ne!(set_digest(&[1]), set_digest(&[1, 0]));
    }
}
