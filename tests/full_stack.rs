//! Full-stack integration: the serial driver, the live link, mobility and
//! the telemetry trace working together — one session from bytes to braids.

use braidio::driver::{Command, Driver, Event};
use braidio::prelude::*;
use braidio_telemetry as telemetry;

/// Run `f` with event capture on; return its result and the events it
/// emitted on this thread.
fn captured<R>(f: impl FnOnce() -> R) -> (R, Vec<telemetry::Event>) {
    telemetry::set_enabled(true);
    let _ = telemetry::take_events();
    let out = f();
    let events = telemetry::take_events();
    telemetry::set_enabled(false);
    (out, events.into_iter().map(|s| s.event).collect())
}

/// A host walks a watch↔phone module through a day: probe near, send,
/// walk away, re-probe, send more — all over the byte protocol — and the
/// event trace tells a coherent story.
#[test]
fn byte_protocol_session_with_mobility() {
    let mut module = Driver::new(
        devices::APPLE_WATCH,
        devices::IPHONE_6S,
        LiveConfig::default(),
    );

    let exec = |m: &mut Driver, c: Command| Event::decode(&m.execute(&c.encode())).unwrap();

    // Near: the braid leans backscatter (watch battery ≪ phone battery).
    assert_eq!(
        exec(&mut module, Command::SetDistance(40)),
        Event::Ack(0x02)
    );
    match exec(&mut module, Command::Probe) {
        Event::ProbeReport(rates) => assert_eq!(rates[2], 3, "{rates:?}"),
        other => panic!("{other:?}"),
    }
    match exec(&mut module, Command::Send(500)) {
        Event::SendReport { delivered, lost } => {
            assert_eq!(delivered, 500);
            assert_eq!(lost, 0);
        }
        other => panic!("{other:?}"),
    }

    // Walk to regime B: no backscatter, watch transmits actively.
    assert_eq!(
        exec(&mut module, Command::SetDistance(320)),
        Event::Ack(0x02)
    );
    match exec(&mut module, Command::Probe) {
        Event::ProbeReport(rates) => {
            assert_eq!(rates[2], 0, "no backscatter at 3.2 m: {rates:?}");
            assert!(rates[0] == 3 || rates[1] == 3, "{rates:?}");
        }
        other => panic!("{other:?}"),
    }
    match exec(&mut module, Command::Send(100)) {
        Event::SendReport { delivered, .. } => assert!(delivered >= 95),
        other => panic!("{other:?}"),
    }
}

/// The trace's account of a braided session is internally consistent with
/// the link statistics and shows the plan actually interleaving.
#[test]
fn trace_tells_the_braid_story() {
    let (stats, events) = captured(|| {
        let mut link = LiveLink::open(
            devices::IPHONE_6S,
            devices::NEXUS_6P,
            LiveConfig {
                seed: 5,
                ..LiveConfig::default()
            },
        );
        link.run_packets(2000)
    });

    let mut packet_count = 0u64;
    let mut lost_count = 0u64;
    let mut last_at = Seconds::ZERO;
    let mut modes_seen = std::collections::BTreeSet::new();
    for e in &events {
        assert!(e.at() >= last_at, "trace must be time-ordered");
        last_at = e.at();
        match e {
            telemetry::Event::QuantumDelivered { mode, .. } => {
                packet_count += 1;
                modes_seen.insert(*mode);
            }
            telemetry::Event::QuantumLost { mode, .. } => {
                packet_count += 1;
                lost_count += 1;
                modes_seen.insert(*mode);
            }
            _ => {}
        }
    }
    // No fault injection, but the channel itself has a small nonzero BER at
    // 0.5 m (PER ~ 1e-5 per packet), so the occasional loss is physical.
    assert!(lost_count <= 3, "near-clean channel: {lost_count} lost");
    assert_eq!(packet_count, stats.delivered + stats.lost);
    assert_eq!(lost_count, stats.lost);
    // Near-symmetric phones braid two modes.
    assert!(modes_seen.len() >= 2, "{modes_seen:?}");
}

/// Mobility + fault injection + trace together: the link survives a noisy
/// walk and the trace records the re-plans it took.
#[test]
fn noisy_mobile_session_survives() {
    use braidio::mac::mobility::{MobilityTrace, RandomWalk};
    let (stats, events) = captured(|| {
        let mut link = LiveLink::open(
            devices::PEBBLE_WATCH,
            devices::IPHONE_6_PLUS,
            LiveConfig {
                drop_chance: 0.08,
                shadowing_sigma_db: 3.0,
                seed: 11,
                ..LiveConfig::default()
            },
        );
        let mut walk = RandomWalk::new(
            Meters::new(0.5),
            Meters::new(0.3),
            Meters::new(2.2), // stay inside regime A/B
            Meters::new(0.4),
            Seconds::new(1.0),
            3,
        );
        for step in 0..40 {
            link.set_distance(walk.distance_at(Seconds::new(step as f64)));
            let _ = link.run_packets(100);
        }
        link.stats()
    });
    assert!(stats.delivery_ratio() > 0.8, "{stats:?}");
    assert!(stats.replans >= 10, "walk should force re-plans: {stats:?}");
    let replans = events
        .iter()
        .filter(|e| matches!(e, telemetry::Event::Replan { .. }))
        .count() as u64;
    assert_eq!(replans, stats.replans);
}
