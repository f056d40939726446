//! The golden-digest gate: the fleet engine's observable output, pinned.
//!
//! Each scenario below runs with event capture on, and three FNV-1a-64
//! digests stand for everything it produced: the [`FleetReport`] (every
//! field, via `net::digest::report_digest`), the rendered JSONL event
//! trace, and the per-device energy ledger folded from that trace. They
//! must match `goldens/digests.txt` at 1 and at 4 pool threads, so any
//! output bit that moves, against the committed output or across thread
//! counts, fails here at tier 1. Each scenario also runs untraced and
//! under a time-series sampler, and all three reports must be equal: only
//! the untraced run commits a private pair's quanta ahead of its event
//! loop, so this holds that path to the traced one.
//!
//! The scenarios are the grids, stars and walking pairs that the engine's
//! SoA rewrite was first held to, the drain fleets that end every session
//! on a partial quantum, two open systems and one city block, plus those
//! that make defects visible in the output that the others hide:
//!
//! * `walk-2`: a receiver walks toward a foreign transmitter, so its
//!   detector modes hinge on the interference sum at its new position,
//!   and a sum cached from before the move changes its plans. (In
//!   `mobile-4` and `mobile-80` a stale sum never crosses a mode
//!   threshold, so their output does not move.)
//! * `sparse-16-channel-plan`: a two-channel plan on a grid sparse enough
//!   that co-channel and adjacent-channel carriers plan differently, so a
//!   slip in the channel relation moves the output. (On the 3 m
//!   `grid-*-channel-plan` grids every carrier strips the detector modes,
//!   and their lines equal the uncoordinated ones.)
//! * `quanta-4`: small-battery transmitters braid backscatter in
//!   one-packet quanta, so the amortized Table 5 charge for entering
//!   backscatter, the largest switching cost, is a visible share of the
//!   transmitter's per-bit cost: one ULP on it moves the output. (With the
//!   default 100-packet quanta, and for the five smaller costs, the charge
//!   is rounded away and no output bit depends on its last place.)
//! * `skewed-star-4-tdma`: four tags at distinct distances share one small
//!   hub battery, which dies inside the horizon. Its pairs are not
//!   private, so none may commit quanta ahead: the hub's draws differ per
//!   pair and must subtract in event order. (Symmetric stars subtract
//!   equal draws, whose order no output bit shows.)
//! * `on-replan-2-uncoordinated`: quanta whose airtime divides the
//!   re-plan interval in binary, so a quantum's finish lands on its
//!   pair's re-plan instant bit for bit. The re-plan's probe round is
//!   charged first there; a quantum committed ahead onto that instant
//!   would be charged before it, and the battery and spent sums would
//!   round differently.
//! * `half-bit-2-uncoordinated`: a transmitter sized to eight full quanta
//!   and half a bit, whose last full quantum ends its session mid-train.
//!   Committed ahead, that quantum would take the pair off the air before
//!   its death instant, and its neighbour's re-plan in between would plan
//!   without that pair's carrier.
//! * `revive-2-uncoordinated`: an open system whose backscatter-pinned
//!   session braids 21 s quanta at 10 kbps. A neighbour's carrier empties
//!   its probe round at 3.5 s, with a quantum in flight until 21.7 s; the
//!   neighbour departs, and the session is revived and braiding again at
//!   5.6 s. The aborted quantum's completion is still delivered at 21.7 s
//!   and must commit nothing: were it read as current, it would commit
//!   the revived session's quantum early.
//! * `approach-2-uncoordinated`: `walk-2`'s pairs, but the receiver walks
//!   on to 2 m from the static pair's receiver. The static pair's sum is
//!   folded from its receiver's edge row, built at a re-plan, and every
//!   step of the walk moves an edge that row holds; its plans hinge on
//!   the walker's carrier, so a row kept past a move changes them.
//!
//! A reordered interference sum changes no output bit: interference
//! reaches a plan only through the options memo's 2⁻³²-log quantized key.
//! The engine's debug shadow check, which every scenario here runs in a
//! debug build, is what catches it.
//!
//! A deliberate output change re-records the manifest with
//! `cargo test --test goldens -- --ignored record_goldens` and explains
//! the manifest diff (CONTRIBUTING.md, "Intentional output changes").

mod common;

use braidio::mac::mobility::LinearWalk;
use braidio::net::digest::{report_digest, Fnv64};
use braidio::net::{
    run_fleet, run_fleet_sampled, Arbitration, ChurnConfig, DeviceSpec, DiscoveryConfig,
    FleetScenario, LifecyclePolicy, PairSpec,
};
use braidio::radio::Mode;
use braidio::rfsim::geometry::Point;
use braidio::units::{Joules, Meters, Seconds};
use braidio_telemetry as telemetry;
use common::{drain_fleet, golden, MANIFEST};

const SLOT: Seconds = Seconds::new(0.25);
const TDMA: Arbitration = Arbitration::TdmaRoundRobin { slot: SLOT };

fn scenarios() -> Vec<(String, FleetScenario)> {
    let mut out = Vec::new();
    // The acceptance grids: 32 and 64 pairs under every policy.
    for m in [32usize, 64] {
        for arb in [
            Arbitration::Uncoordinated,
            Arbitration::ChannelPlan { channels: 2 },
            TDMA,
        ] {
            out.push((
                format!("grid-{m}-{}", arb.label()),
                FleetScenario::grid_pairs(m, Meters::new(0.5), Meters::new(3.0), 1.0, 1.0, arb)
                    .with_horizon(Seconds::new(15.0)),
            ));
        }
    }
    // On the 3 m grids every foreign carrier strips the detector modes
    // whatever its channel, so their channel-plan lines equal the
    // uncoordinated ones. At 4 m a co-channel carrier (10 dB weaker than an
    // adjacent one) leaves some modes up, so this grid's output differs from
    // both the uncoordinated 4 m grid and an interference-free one.
    out.push((
        "sparse-16-channel-plan".into(),
        FleetScenario::grid_pairs(
            16,
            Meters::new(0.5),
            Meters::new(4.0),
            1.0,
            1.0,
            Arbitration::ChannelPlan { channels: 2 },
        )
        .with_horizon(Seconds::new(15.0)),
    ));
    // Stars: TDMA coasts, uncoordinated kills sessions (the death path:
    // wave re-dirtying, quantum aborts).
    for arb in [TDMA, Arbitration::Uncoordinated] {
        out.push((
            format!("star-8-{}", arb.label()),
            FleetScenario::star(8, Meters::new(0.5), 99.5, 0.001, arb)
                .with_horizon(Seconds::new(120.0)),
        ));
    }
    // Mobility: a walking pair invalidates the interference field mid-run.
    let mut sc = FleetScenario::independent_pairs(
        4,
        Meters::new(0.5),
        Meters::new(3.0),
        1.0,
        1.0,
        Arbitration::Uncoordinated,
    )
    .with_horizon(Seconds::new(30.0));
    sc.replan_interval = Seconds::new(1.0);
    sc.pairs[1].walk = Some(LinearWalk {
        start: Meters::new(0.5),
        end: Meters::new(4.0),
        duration: Seconds::new(20.0),
    });
    out.push(("mobile-4-uncoordinated".into(), sc));
    // The same on a grid wider than one edge tile: the walking pair's lazy
    // sums run the tiled kernel across multi-tile source lists, and every
    // move must drop the cached sums and edge rows.
    let mut sc = FleetScenario::grid_pairs(
        80,
        Meters::new(0.5),
        Meters::new(3.0),
        1.0,
        1.0,
        Arbitration::Uncoordinated,
    )
    .with_horizon(Seconds::new(15.0));
    sc.replan_interval = Seconds::new(1.0);
    sc.pairs[0].walk = Some(LinearWalk {
        start: Meters::new(0.5),
        end: Meters::new(4.0),
        duration: Seconds::new(10.0),
    });
    out.push(("mobile-80-uncoordinated".into(), sc));
    // Pair 0's receiver walks from 0.5 m to 4 m straight toward pair 1's
    // transmitter, 10 m away.
    let device = |x: f64, y: f64| DeviceSpec {
        pos: Point::new(x, y),
        battery: Joules::from_watt_hours(1.0),
    };
    let mut pairs = vec![PairSpec::braided(0, 1), PairSpec::braided(2, 3)];
    pairs[0].walk = Some(LinearWalk {
        start: Meters::new(0.5),
        end: Meters::new(4.0),
        duration: Seconds::new(60.0),
    });
    let devices = vec![
        device(0.0, 0.0),
        device(0.5, 0.0),
        device(10.0, 0.0),
        device(10.0, 0.5),
    ];
    let mut sc = FleetScenario::new(devices, pairs, Arbitration::Uncoordinated)
        .with_horizon(Seconds::new(60.0));
    sc.replan_interval = Seconds::new(1.0);
    out.push(("walk-2-uncoordinated".into(), sc));
    // Milliwatt-hour batteries: every session ends on a partial quantum.
    for arb in [Arbitration::Uncoordinated, TDMA] {
        out.push((format!("drain-4-{}", arb.label()), drain_fleet(arb)));
    }
    // 10 mWh transmitters braiding backscatter at 2 m in one-packet quanta.
    let mut sc =
        FleetScenario::independent_pairs(4, Meters::new(2.0), Meters::new(3.0), 0.01, 1.0, TDMA)
            .with_horizon(Seconds::new(60.0));
    sc.quantum_packets = 1.0;
    sc.replan_interval = Seconds::new(1.0);
    out.push(("quanta-4-tdma".into(), sc));
    // Open systems: admissions, cooldowns, departures and roams.
    for arb in [Arbitration::Uncoordinated, TDMA] {
        out.push((
            format!("open-4-{}", arb.label()),
            FleetScenario::open_system(4, 40, Seconds::new(20.0), 11, arb),
        ));
    }
    // One city block family: meshes beside stars.
    out.push((
        "city-64-uncoordinated".into(),
        FleetScenario::city_block(64, Arbitration::Uncoordinated).with_horizon(Seconds::new(12.0)),
    ));
    // A skewed star: four tags at distinct distances braid to one small
    // hub battery that dies inside the horizon. Each pair draws a
    // different energy per quantum from the shared hub, so the hub's
    // ledger and its death instant hold the draws to event order.
    let hub = DeviceSpec {
        pos: Point::ORIGIN,
        battery: Joules::new(0.1),
    };
    let tag = |x: f64, y: f64| DeviceSpec {
        pos: Point::new(x, y),
        battery: Joules::from_watt_hours(1.0),
    };
    let devices = vec![
        hub,
        tag(0.4, 0.0),
        tag(0.0, 0.7),
        tag(-1.1, 0.0),
        tag(0.0, -1.6),
    ];
    let pairs = (1..=4).map(|t| PairSpec::braided(t, 0)).collect();
    let mut sc = FleetScenario::new(devices, pairs, TDMA).with_horizon(Seconds::new(600.0));
    sc.replan_interval = Seconds::new(5.0);
    out.push(("skewed-star-4-tdma".into(), sc));
    // Two pairs 3 m apart; pair 0 is pinned to active, and pair 0's
    // carrier leaves its neighbour only active too. Both braid 125 000-bit
    // quanta, 0.125 s at 1 Mbps, eight to the 1 s re-plan interval.
    let dev = |x: f64, y: f64, battery: Joules| DeviceSpec {
        pos: Point::new(x, y),
        battery,
    };
    let wh = Joules::from_watt_hours(1.0);
    let devices = vec![
        dev(0.0, 0.0, wh),
        dev(0.0, 0.5, wh),
        dev(3.0, 0.0, wh),
        dev(3.0, 0.5, wh),
    ];
    let mut pairs = vec![PairSpec::braided(0, 1), PairSpec::braided(2, 3)];
    pairs[0].pinned_mode = Some(Mode::Active);
    let mut sc = FleetScenario::new(devices.clone(), pairs, Arbitration::Uncoordinated)
        .with_horizon(Seconds::new(20.0));
    sc.packet_bits = 1250.0;
    sc.replan_interval = Seconds::new(1.0);
    out.push(("on-replan-2-uncoordinated".into(), sc));
    // The same two pairs without control traffic, now with pair 1 pinned
    // to active in 124 900-bit quanta (0.1249 s) and its transmitter
    // holding eight quanta's draw and about half a bit: its eighth quantum
    // ends the session at 1.0002 s, just after pair 0 re-plans at 1 s.
    let mut devices = devices;
    devices[2].battery = Joules::new(8.6420851245e-2);
    let mut pairs = vec![PairSpec::braided(0, 1), PairSpec::braided(2, 3)];
    pairs[1].pinned_mode = Some(Mode::Active);
    let mut sc = FleetScenario::new(devices, pairs, Arbitration::Uncoordinated)
        .with_horizon(Seconds::new(5.0))
        .without_control_overhead();
    sc.packet_bits = 1249.0;
    sc.replan_interval = Seconds::new(1.0);
    out.push(("half-bit-2-uncoordinated".into(), sc));
    // A session pinned to backscatter 2 m from its hub, and a neighbour
    // 3 m away that is present from 3 s to 4.5 s: its carrier quiesces the
    // session at its 3.5 s re-plan, and the 2 s cooldown revives it.
    let devices = vec![
        dev(0.0, 0.0, Joules::from_watt_hours(99.5)),
        dev(2.0, 0.0, wh),
        dev(3.0, 0.0, Joules::from_watt_hours(99.5)),
        dev(3.0, 0.5, wh),
    ];
    let mut pairs = vec![PairSpec::braided(1, 0), PairSpec::braided(3, 2)];
    pairs[0].pinned_mode = Some(Mode::Backscatter);
    let mut sc = FleetScenario::new(devices, pairs, Arbitration::Uncoordinated)
        .with_horizon(Seconds::new(30.0));
    for (pair, (arrival, departure)) in sc.pairs.iter_mut().zip([(0.1, 30.0), (3.0, 4.5)]) {
        pair.arrival = Some(Seconds::new(arrival));
        pair.departure = Some(Seconds::new(departure));
    }
    sc.replan_interval = Seconds::new(1.0);
    sc.churn = Some(ChurnConfig {
        seed: 0,
        lifecycle: LifecyclePolicy::default(),
        discovery: DiscoveryConfig::default(),
        window: Seconds::new(10.0),
    });
    sc.validate();
    out.push(("revive-2-uncoordinated".into(), sc));
    // Pair 0's receiver walks 7.5 m straight toward the static pair 1,
    // ending 2 m from its receiver.
    let mut pairs = vec![PairSpec::braided(0, 1), PairSpec::braided(2, 3)];
    pairs[0].walk = Some(LinearWalk {
        start: Meters::new(0.5),
        end: Meters::new(8.0),
        duration: Seconds::new(60.0),
    });
    let devices = vec![
        dev(0.0, 0.0, wh),
        dev(0.5, 0.0, wh),
        dev(10.0, 0.0, wh),
        dev(10.0, 0.5, wh),
    ];
    let mut sc = FleetScenario::new(devices, pairs, Arbitration::Uncoordinated)
        .with_horizon(Seconds::new(60.0));
    sc.replan_interval = Seconds::new(1.0);
    out.push(("approach-2-uncoordinated".into(), sc));
    out
}

/// The three artifact digests of `sc` run at `threads` pool threads:
/// report, rendered JSONL trace, folded per-device energy ledger. The
/// report must be the same untraced and sampled, the runs in which a
/// private pair's quanta commit ahead or not at all.
fn artifacts(name: &str, sc: &FleetScenario, threads: usize) -> [(&'static str, u64); 3] {
    braidio::pool::with_threads(threads, || {
        telemetry::set_enabled(true);
        let _ = telemetry::take_events();
        let report = telemetry::with_run(0, || run_fleet(sc));
        let events = telemetry::take_events();
        telemetry::set_enabled(false);
        let untraced = report_digest(&run_fleet(sc));
        let (sampled, _) = run_fleet_sampled(sc, sc.horizon / 8.0);
        assert_eq!(
            (untraced, report_digest(&sampled)),
            (report_digest(&report), report_digest(&report)),
            "{name}: untraced and sampled reports differ from the traced one"
        );
        let mut jsonl = Fnv64::default();
        jsonl.bytes(telemetry::sink::render_jsonl(&events).as_bytes());
        let mut ledger: Vec<(u32, u32, u64)> = telemetry::sink::fold_energy(&events)
            .into_iter()
            .filter_map(|((run, track), j)| match track {
                telemetry::Track::Device(d) => Some((run, d, j.to_bits())),
                _ => None,
            })
            .collect();
        assert!(!ledger.is_empty(), "empty energy ledger");
        ledger.sort_unstable();
        let mut folded = Fnv64::default();
        folded.len(ledger.len());
        for (run, d, bits) in ledger {
            folded.u64(run.into());
            folded.u64(d.into());
            folded.u64(bits);
        }
        [
            ("report", report_digest(&report)),
            ("jsonl", jsonl.finish()),
            ("ledger", folded.finish()),
        ]
    })
}

/// The manifest every scenario produces at one pool thread.
fn render() -> String {
    let mut out = String::from(
        "# Golden digests of tests/goldens.rs: <scenario> <artifact> <FNV-1a-64>.\n\
         # Re-record: cargo test --test goldens -- --ignored record_goldens\n",
    );
    for (name, sc) in scenarios() {
        for (artifact, digest) in artifacts(&name, &sc, 1) {
            out.push_str(&format!("{name} {artifact} {digest:016x}\n"));
        }
    }
    out
}

#[test]
fn fleet_output_matches_the_golden_manifest() {
    for threads in [1, 4] {
        let mut moved = Vec::new();
        for (name, sc) in scenarios() {
            for (artifact, got) in artifacts(&name, &sc, threads) {
                let want = golden(&name, artifact);
                if got != want {
                    moved.push(format!("{name} {artifact} {got:016x}, pinned {want:016x}"));
                }
            }
        }
        assert!(
            moved.is_empty(),
            "output moved at {threads} threads:\n{}",
            moved.join("\n")
        );
    }
}

#[test]
#[ignore = "rewrites goldens/digests.txt; run only for an intended output change"]
fn record_goldens() {
    std::fs::write(MANIFEST, render()).expect("write the golden manifest");
}
