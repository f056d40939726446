//! A train of quanta committed ahead that crosses the start of an open
//! system's report window. A train tests each quantum against the window
//! at that quantum's own finish time, so the window bits of an untraced
//! run (which trains) equal those of an event-captured run (which delivers
//! every completion through the queue).

use braidio_net::digest::report_digest;
use braidio_net::{
    run_fleet, Arbitration, ChurnConfig, DeviceSpec, DiscoveryConfig, FleetScenario,
    LifecyclePolicy, PairSpec,
};
use braidio_rfsim::geometry::Point;
use braidio_telemetry as telemetry;
use braidio_units::{Joules, Seconds};

#[test]
fn a_train_across_the_window_start_counts_each_quantum_at_its_finish() {
    // One tag session at a hub, admitted after t = 1 s and departing at
    // 29 s of a 30 s horizon. Its re-plans fall one second apart, and the
    // report window, the last 10.5 s, starts at 19.5 s, inside the train
    // between two of them. With no energy thresholds the policy reads no
    // battery between quanta, so the Live, private session trains.
    let hub = DeviceSpec {
        pos: Point::ORIGIN,
        battery: Joules::from_watt_hours(99.5),
    };
    let tag = DeviceSpec {
        pos: Point::new(0.5, 0.0),
        battery: Joules::from_watt_hours(1.0),
    };
    let mut sc = FleetScenario::new(
        vec![hub, tag],
        vec![PairSpec::braided(1, 0)],
        Arbitration::TdmaRoundRobin {
            slot: Seconds::new(0.25),
        },
    )
    .with_horizon(Seconds::new(30.0));
    sc.pairs[0].arrival = Some(Seconds::new(1.0));
    sc.pairs[0].departure = Some(Seconds::new(29.0));
    sc.replan_interval = Seconds::new(1.0);
    sc.churn = Some(ChurnConfig {
        seed: 0,
        lifecycle: LifecyclePolicy {
            degrade_frac: 0.0,
            critical_frac: 0.0,
            ..LifecyclePolicy::default()
        },
        discovery: DiscoveryConfig::default(),
        window: Seconds::new(10.5),
    });
    sc.validate();

    telemetry::set_profiling(true);
    let _ = telemetry::drain_thread();
    let untraced = run_fleet(&sc);
    let ahead = telemetry::counters_snapshot()
        .into_iter()
        .find(|(name, _)| name == "net.kernel.ahead")
        .map_or(0, |(_, v)| v);
    let _ = (telemetry::drain_thread(), telemetry::take_spans());
    telemetry::set_profiling(false);

    telemetry::set_enabled(true);
    let traced = run_fleet(&sc);
    telemetry::set_enabled(false);
    let _ = telemetry::take_events();

    assert!(ahead > 0, "the session committed nothing ahead");
    let window = |r: &braidio_net::FleetReport| {
        r.churn
            .as_ref()
            .expect("an open system")
            .window_bits
            .iter()
            .map(|b| b.to_bits())
            .collect::<Vec<_>>()
    };
    let bits = f64::from_bits(window(&traced)[0]);
    assert!(
        bits > 0.0 && bits < traced.pair_bits[0],
        "the window starts mid-session ({bits} of {} bits)",
        traced.pair_bits[0]
    );
    assert_eq!(window(&untraced), window(&traced), "window bits");
    assert_eq!(report_digest(&untraced), report_digest(&traced));
}
