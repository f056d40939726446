//! Tier-1 witness of the fleet engine's partial last quantum.
//!
//! Each installed plan is compiled into a quantum recipe: every quantum
//! but a battery's last one is the recipe's precomputed full quantum, and
//! the last one is recomputed at its smaller, affordable size. The large
//! benchmark fleets stop at their horizon before any battery runs out, so
//! they never take that second path. These small closed fleets carry
//! milliwatt-hour batteries and a horizon long enough for every pair to
//! drain one, so every pair ends on a partial quantum.
//!
//! Each report is held to an FNV-1a-64 digest of every field, recorded
//! from the engine that re-derived every quantum from its plan, and its
//! energy ledger is checked: every pair died, delivered a non-whole number
//! of quanta, and left behind a device that spent its whole capacity.

use braidio::net::{run_fleet, Arbitration, FleetReport, FleetScenario};
use braidio::units::{Meters, Seconds};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64, fed word by word in little-endian byte order.
struct Fnv64(u64);

impl Fnv64 {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

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
}

/// Digest of every field of a closed fleet's report, in declaration
/// order, with a length prefix before each vector.
fn digest(r: &FleetReport) -> u64 {
    assert!(r.churn.is_none(), "closed fleets carry no churn report");
    let mut h = Fnv64(FNV_OFFSET);
    h.f64(r.horizon.seconds());
    h.f64(r.end_time.seconds());
    h.u64(r.events);
    h.u64(r.replans);
    h.u64(r.pair_bits.len() as u64);
    for &b in &r.pair_bits {
        h.f64(b);
    }
    h.u64(r.pair_mode_bits.len() as u64);
    for modes in &r.pair_mode_bits {
        for &(mode, bits) in modes {
            h.u64(mode as u64);
            h.f64(bits);
        }
    }
    h.u64(r.pair_dead_at.len() as u64);
    for &t in &r.pair_dead_at {
        h.opt_s(t);
    }
    h.u64(r.device_spent.len() as u64);
    for j in &r.device_spent {
        h.f64(j.joules());
    }
    h.u64(r.device_dead_at.len() as u64);
    for &t in &r.device_dead_at {
        h.opt_s(t);
    }
    h.u64(r.device_carrier_time.len() as u64);
    for t in &r.device_carrier_time {
        h.f64(t.seconds());
    }
    h.0
}

/// Four pairs in a row, 1 mWh transmitters and 4 mWh receivers, run until
/// every battery-limited session has ended.
fn drain_fleet(arbitration: Arbitration) -> FleetScenario {
    FleetScenario::independent_pairs(
        4,
        Meters::new(0.5),
        Meters::new(5.0),
        1e-3,
        4e-3,
        arbitration,
    )
    .with_horizon(Seconds::new(1e6))
}

/// Run `sc`, check its energy ledger, and return its digest.
fn run_and_check(sc: &FleetScenario) -> u64 {
    let r = run_fleet(sc);
    let quantum_bits = sc.packet_bits * sc.quantum_packets;
    for (p, spec) in sc.pairs.iter().enumerate() {
        let died = r.pair_dead_at[p].expect("every pair drains a battery");
        assert!(died.seconds() < sc.horizon.seconds(), "pair {p}");
        // The last quantum committed was a partial one.
        assert!(r.pair_bits[p] > quantum_bits, "pair {p} braided");
        assert_ne!(r.pair_bits[p] % quantum_bits, 0.0, "pair {p}");
        // The battery that ended the session was drained to empty.
        let dead: Vec<usize> = [spec.tx, spec.rx]
            .into_iter()
            .filter(|&d| r.device_dead_at[d].is_some())
            .collect();
        assert!(!dead.is_empty(), "pair {p} died with both batteries up");
        for d in dead {
            let cap = sc.devices[d].battery.joules();
            // The ledger sums the draws the battery subtracted one by one,
            // so the two roundings may differ in the last place.
            let spent = r.device_spent[d].joules();
            assert!(
                spent >= cap * (1.0 - 1e-12),
                "device {d}: {spent} of {cap} J"
            );
        }
    }
    digest(&r)
}

#[test]
fn uncoordinated_fleet_ends_on_partial_quanta() {
    let got = run_and_check(&drain_fleet(Arbitration::Uncoordinated));
    assert_eq!(got, 0x7bf5_52aa_6b14_b7bb, "digest {got:#018x}");
}

#[test]
fn tdma_fleet_ends_on_partial_quanta() {
    let got = run_and_check(&drain_fleet(Arbitration::TdmaRoundRobin {
        slot: Seconds::new(0.25),
    }));
    assert_eq!(got, 0xead7_44be_9c85_65fd, "digest {got:#018x}");
}
