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
//! Each report is held to its `drain-4-*` line in the golden manifest
//! (`goldens/digests.txt`, first recorded from the engine that re-derived
//! every quantum from its plan), and its energy ledger is checked: every
//! pair died, delivered a non-whole number of quanta, and left behind a
//! device that spent its whole capacity.

mod common;

use braidio::net::digest::report_digest;
use braidio::net::{run_fleet, Arbitration, FleetScenario};
use braidio::units::Seconds;
use common::{drain_fleet, golden};

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
    report_digest(&r)
}

#[test]
fn uncoordinated_fleet_ends_on_partial_quanta() {
    let got = run_and_check(&drain_fleet(Arbitration::Uncoordinated));
    assert_eq!(got, golden("drain-4-uncoordinated", "report"), "{got:016x}");
}

#[test]
fn tdma_fleet_ends_on_partial_quanta() {
    let got = run_and_check(&drain_fleet(Arbitration::TdmaRoundRobin {
        slot: Seconds::new(0.25),
    }));
    assert_eq!(got, golden("drain-4-tdma", "report"), "{got:016x}");
}
