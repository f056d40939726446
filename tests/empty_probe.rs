//! Tier-1 witness of a closed fleet's empty probe round.
//!
//! Two pairs share a room without arbitration, so each one's receiver
//! hears the other's carrier at full power. That foreign carrier strips
//! backscatter at any spacing (§7, Table 3). Pair 0 is pinned to
//! backscatter, so its first probe round finds no viable mode. A closed
//! fleet runs the zero-retry lifecycle policy: it has no cooldown to
//! quiesce into, so the session ends at the probe instant, having moved no
//! bits. Pair 1 keeps every mode and braids to the horizon.
//!
//! The death instant, the event count and pair 1's bits are pinned
//! bit-for-bit to the values the engine gave before every lifecycle
//! decision moved onto the policy.

use braidio::net::{run_fleet, Arbitration, FleetScenario};
use braidio::radio::Mode;
use braidio::units::{Meters, Seconds};

fn scenario() -> FleetScenario {
    let mut sc = FleetScenario::independent_pairs(
        2,
        Meters::new(2.0),
        Meters::new(50.0),
        1.0,
        1.0,
        Arbitration::Uncoordinated,
    )
    .with_horizon(Seconds::new(10.0));
    sc.pairs[0].pinned_mode = Some(Mode::Backscatter);
    sc
}

/// `pair_dead_at[0]` as recorded: association at t = 0, the status
/// exchange, then one probe round's airtime.
const DEATH_BITS: u64 = 0x3f9b_4352_6527_a205;
/// Kernel deliveries of the whole run.
const EVENTS: u64 = 54;
/// Pair 1's delivered bits at the 10 s horizon.
const PAIR1_BITS: u64 = 0x4163_013c_0000_0000;

#[test]
fn closed_pair_with_no_viable_mode_dies_at_its_probe_round() {
    let r = run_fleet(&scenario());
    let dead = r.pair_dead_at[0].expect("pair 0 has no viable mode");
    assert_eq!(dead.seconds().to_bits(), DEATH_BITS, "death at {dead:?}");
    assert!(dead.seconds() < 0.1, "the session ends at bring-up");
    assert_eq!(r.pair_bits[0], 0.0);
    assert!(r.pair_mode_bits[0].iter().all(|&(_, b)| b == 0.0));
    // Probing was paid for, but nothing else: no device ran dry.
    assert!(r.device_spent[0].joules() > 0.0);
    assert!(r.device_dead_at.iter().all(Option::is_none));
    assert_eq!(r.pair_dead_at[1], None);
    assert_eq!(r.pair_bits[1].to_bits(), PAIR1_BITS);
    assert_eq!(r.mode_share(Mode::Backscatter), 0.0);
    assert_eq!(r.events, EVENTS);
    assert!(r.churn.is_none(), "a closed fleet carries no churn report");
}
