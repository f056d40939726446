//! The §6.3 link simulator.
//!
//! "We design a simulator that simulates link behavior based on the above
//! described experimental characterization, and outputs the simulated
//! performance given as input the energy levels of two end points and the
//! traffic pattern between them. Our simulator includes a full
//! implementation of the energy-aware carrier offload algorithm."
//!
//! The simulator advances in *epochs*: within an epoch the offload plan is
//! fixed and batteries drain linearly, so the epoch can be integrated in
//! closed form; between epochs the plan is re-solved against the new energy
//! ratio (this is the paper's periodic re-computation). Per-packet costs —
//! Table 5 mode-switch energy at the braid's alternation rate, and probe
//! exchanges at the re-plan cadence — are charged inside each epoch.
//!
//! Four policies share the engine:
//! * [`Policy::Braidio`] — the full carrier-offload algorithm;
//! * [`Policy::Bluetooth`] — the symmetric module baseline (Figs. 15/17/18);
//! * [`Policy::SingleMode`] — one pinned mode (the Fig. 16 comparators);
//! * [`Policy::BestSingleMode`] — the best of the three in isolation
//!   (Fig. 16's baseline).

use crate::offload::{options_at, solve_memo, OffloadPlan};
use braidio_radio::bluetooth::BluetoothRadio;
use braidio_radio::characterization::Characterization;
use braidio_radio::switching::SwitchingOverhead;
use braidio_radio::{Battery, Mode, Role};
use braidio_telemetry as telemetry;
use braidio_units::{Joules, Meters, Seconds};

/// Traffic direction pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Device 1 streams to device 2 (Fig. 15's scenario).
    Unidirectional,
    /// Equal data both ways, alternating (Fig. 17's scenario).
    Bidirectional,
}

/// Which link-layer policy drives the transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Energy-aware carrier offload across all viable modes.
    Braidio,
    /// Symmetric Bluetooth module at 1 Mbps.
    Bluetooth,
    /// A single pinned Braidio mode (at its best operational rate).
    SingleMode(Mode),
    /// The best single pinned mode for this device pair.
    BestSingleMode,
}

/// A transfer experiment description.
#[derive(Debug, Clone)]
pub struct TransferSetup {
    /// Link characterization (hardware + calibration).
    pub ch: Characterization,
    /// Mode-switch costs.
    pub switching: SwitchingOverhead,
    /// Device separation.
    pub distance: Meters,
    /// Device 1 battery (the transmitter under unidirectional traffic).
    pub e1: Joules,
    /// Device 2 battery.
    pub e2: Joules,
    /// Traffic pattern.
    pub traffic: Traffic,
    /// Link policy.
    pub policy: Policy,
    /// Link-layer packet size in bits (airtime granularity of the braid).
    pub packet_bits: f64,
    /// Packets sent in one mode before the braid may switch ("switches
    /// between the modes after a certain number of packets", §4.2). Larger
    /// quanta amortize the Table 5 switch energy; smaller quanta track the
    /// target fractions more tightly.
    pub braid_quantum_packets: f64,
    /// Re-plan (probe) interval in link time.
    pub replan_interval: Seconds,
}

impl TransferSetup {
    /// A setup with the paper's defaults: 0.5 m separation (all modes at
    /// peak rate), 256-byte packets, 10 s re-plan cadence.
    pub fn new(e1_wh: f64, e2_wh: f64, policy: Policy) -> Self {
        TransferSetup {
            ch: Characterization::braidio(),
            switching: SwitchingOverhead::table5(),
            distance: Meters::new(0.5),
            e1: Joules::from_watt_hours(e1_wh),
            e2: Joules::from_watt_hours(e2_wh),
            traffic: Traffic::Unidirectional,
            policy,
            packet_bits: 2120.0, // 256-byte payload framed
            braid_quantum_packets: 100.0,
            replan_interval: Seconds::new(10.0),
        }
    }

    /// Same setup at a different distance.
    pub fn at_distance(mut self, d: Meters) -> Self {
        self.distance = d;
        self
    }

    /// Same setup with different traffic.
    pub fn with_traffic(mut self, traffic: Traffic) -> Self {
        self.traffic = traffic;
        self
    }
}

/// Result of a simulated transfer.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Total link bits moved before an endpoint died (or the link closed).
    pub bits: f64,
    /// Link time elapsed.
    pub duration: Seconds,
    /// Energy drawn from device 1.
    pub e1_spent: Joules,
    /// Energy drawn from device 2.
    pub e2_spent: Joules,
    /// Bits per mode.
    pub mode_bits: [(Mode, f64); 3],
    /// Epochs simulated (re-plan rounds).
    pub epochs: usize,
    /// Mode switches charged.
    pub switches: f64,
}

impl SimReport {
    fn empty() -> Self {
        SimReport {
            bits: 0.0,
            duration: Seconds::ZERO,
            e1_spent: Joules::ZERO,
            e2_spent: Joules::ZERO,
            mode_bits: [
                (Mode::Active, 0.0),
                (Mode::Passive, 0.0),
                (Mode::Backscatter, 0.0),
            ],
            epochs: 0,
            switches: 0.0,
        }
    }

    fn add_mode_bits(&mut self, mode: Mode, bits: f64) {
        for (m, b) in self.mode_bits.iter_mut() {
            if *m == mode {
                *b += bits;
            }
        }
    }

    /// The fraction of bits carried by `mode`.
    pub fn mode_share(&self, mode: Mode) -> f64 {
        if self.bits == 0.0 {
            return 0.0;
        }
        self.mode_bits
            .iter()
            .find(|(m, _)| *m == mode)
            .map(|(_, b)| b / self.bits)
            .unwrap_or(0.0)
    }
}

/// Run a transfer to battery exhaustion and report the total bits moved.
pub fn simulate_transfer(setup: &TransferSetup) -> SimReport {
    match setup.policy {
        Policy::Bluetooth => simulate_bluetooth(setup),
        Policy::SingleMode(mode) => simulate_single_mode(setup, mode),
        Policy::BestSingleMode => Mode::ALL
            .into_iter()
            .map(|m| simulate_single_mode(setup, m))
            .max_by(|a, b| a.bits.partial_cmp(&b.bits).expect("finite bits"))
            .expect("three modes"),
        Policy::Braidio => simulate_braidio(setup),
    }
}

fn simulate_bluetooth(setup: &TransferSetup) -> SimReport {
    let radio = BluetoothRadio::baseline();
    let t = radio.tx_energy_per_bit().joules_per_bit();
    let r = radio.rx_energy_per_bit().joules_per_bit();
    let (c1, c2) = per_bit_costs_for_traffic(t, r, setup.traffic);
    let bits = (setup.e1.joules() / c1).min(setup.e2.joules() / c2);
    let mut report = SimReport::empty();
    report.bits = bits;
    report.duration = radio.rate.time_for_bits(bits);
    report.e1_spent = Joules::new(bits * c1);
    report.e2_spent = Joules::new(bits * c2);
    report.add_mode_bits(Mode::Active, bits);
    report.epochs = 1;
    report
}

/// Per-bit cost seen by each device given the traffic pattern, for a link
/// whose directional costs are `t` (transmit) and `r` (receive).
fn per_bit_costs_for_traffic(t: f64, r: f64, traffic: Traffic) -> (f64, f64) {
    match traffic {
        Traffic::Unidirectional => (t, r),
        // Half the bits flow each way, so each device transmits half and
        // receives half.
        Traffic::Bidirectional => (0.5 * (t + r), 0.5 * (t + r)),
    }
}

fn simulate_single_mode(setup: &TransferSetup, mode: Mode) -> SimReport {
    let Some(rate) = setup.ch.max_rate(mode, setup.distance) else {
        return SimReport::empty();
    };
    let p = setup.ch.power(mode, rate).expect("rate from table");
    let t = p.tx_energy_per_bit().joules_per_bit();
    let r = p.rx_energy_per_bit().joules_per_bit();
    let (c1, c2) = per_bit_costs_for_traffic(t, r, setup.traffic);
    let bits = (setup.e1.joules() / c1).min(setup.e2.joules() / c2);
    let mut report = SimReport::empty();
    report.bits = bits;
    report.duration = rate.bps().time_for_bits(bits);
    report.e1_spent = Joules::new(bits * c1);
    report.e2_spent = Joules::new(bits * c2);
    report.add_mode_bits(mode, bits);
    report.epochs = 1;
    report
}

/// The braid's mode-alternation rate: switches per packet for a plan with
/// fractions `p` over at most two modes.
pub fn switches_per_packet(plan: &OffloadPlan) -> f64 {
    if plan.allocations.len() < 2 {
        return 0.0;
    }
    let p = plan.allocations[0]
        .fraction
        .min(plan.allocations[1].fraction);
    // Bresenham interleaving alternates 2·min(p, 1−p) of the time.
    2.0 * p.min(1.0 - p)
}

/// The plan's `(tx, rx)` cost per bit, in J/bit, with the amortized Table 5
/// switching charge: [`switches_per_packet`] switches per `switch_bits`-bit
/// braid quantum, each paying the mean entry cost of the braid's two modes
/// on that role. The one definition of the charge: this pairwise engine
/// and the network simulator (`braidio-net`) both call it, so they bill
/// identical bits.
pub fn per_bit_costs(
    plan: &OffloadPlan,
    switching: &SwitchingOverhead,
    switch_bits: f64,
) -> (f64, f64) {
    let spp = switches_per_packet(plan);
    // Average entry cost per switch on each role (alternating entries into
    // the two modes of the braid).
    let (mut sw_tx, mut sw_rx) = (0.0, 0.0);
    if plan.allocations.len() == 2 {
        for a in &plan.allocations {
            sw_tx += switching.cost(a.option.mode, Role::Transmitter).joules() / 2.0;
            sw_rx += switching.cost(a.option.mode, Role::Receiver).joules() / 2.0;
        }
    }
    (
        plan.tx_cost.joules_per_bit() + spp * sw_tx / switch_bits,
        plan.rx_cost.joules_per_bit() + spp * sw_rx / switch_bits,
    )
}

fn simulate_braidio(setup: &TransferSetup) -> SimReport {
    telemetry::begin_unit();
    let mut b1 = Battery::new(setup.e1);
    let mut b2 = Battery::new(setup.e2);
    let mut report = SimReport::empty();
    // Primary mode of the previous epoch's transmitter-direction plan, for
    // telemetry ModeSwitch edges at regime transitions.
    let mut last_mode: Option<Mode> = None;

    // Probe exchange cost per re-plan: one 256-bit exchange per mode at its
    // operational rate (see `probe`), approximated from the plan options.
    const MAX_EPOCHS: usize = 20_000;
    // Fraction of the limiting side consumed per epoch.
    const EPOCH_FRACTION: f64 = 0.1;

    // The separation is fixed for the whole transfer, so the viable option
    // set is too; only the battery ratio evolves between epochs.
    let opts = options_at(&setup.ch, setup.distance);

    while !b1.is_dead() && !b2.is_dead() && report.epochs < MAX_EPOCHS {
        report.epochs += 1;

        // One direction per half-epoch under bidirectional traffic.
        let directions: &[(Role, f64)] = match setup.traffic {
            Traffic::Unidirectional => &[(Role::Transmitter, 1.0)],
            Traffic::Bidirectional => &[(Role::Transmitter, 0.5), (Role::Receiver, 0.5)],
        };

        // Resolve plans for each direction against current energy levels.
        let mut plans = Vec::new();
        for &(dir1, share) in directions {
            let (e_tx, e_rx) = match dir1 {
                Role::Transmitter => (b1.remaining(), b2.remaining()),
                Role::Receiver => (b2.remaining(), b1.remaining()),
            };
            match solve_memo(&opts, e_tx, e_rx) {
                Some(plan) => plans.push((dir1, share, plan)),
                None => {
                    // Link out of range.
                    if telemetry::enabled() {
                        let track = telemetry::Track::Pair(0);
                        telemetry::emit(telemetry::Event::Replan {
                            at: report.duration,
                            track,
                            planned: false,
                            exact: false,
                            primary: None,
                        });
                        telemetry::emit(telemetry::Event::SessionDead {
                            at: report.duration,
                            track,
                            reason: telemetry::DeathReason::NoViableMode,
                        });
                    }
                    return report;
                }
            }
        }
        if telemetry::enabled() {
            let track = telemetry::Track::Pair(0);
            for (_, _, plan) in &plans {
                let primary = plan
                    .allocations
                    .iter()
                    .max_by(|a, b| a.fraction.partial_cmp(&b.fraction).expect("finite"))
                    .map(|a| a.option.mode);
                telemetry::emit(telemetry::Event::Replan {
                    at: report.duration,
                    track,
                    planned: true,
                    exact: plan.exact,
                    primary: primary.map(Into::into),
                });
            }
            // Regime transitions show on the transmitter-direction braid.
            let primary = plans[0]
                .2
                .allocations
                .iter()
                .max_by(|a, b| a.fraction.partial_cmp(&b.fraction).expect("finite"))
                .map(|a| a.option.mode);
            if let Some(primary) = primary {
                if last_mode != Some(primary) {
                    telemetry::emit(telemetry::Event::ModeSwitch {
                        at: report.duration,
                        track,
                        from: last_mode.map(Into::into),
                        to: primary.into(),
                    });
                    last_mode = Some(primary);
                }
            }
        }

        // Per-bit drain on each device, aggregated over directions,
        // including amortized switching overhead.
        let mut c1 = 0.0f64;
        let mut c2 = 0.0f64;
        let mut rate_weighted_time_per_bit = 0.0f64;
        let mut switches_per_bit_total = 0.0f64;
        for (dir1, share, plan) in &plans {
            let switch_bits = setup.packet_bits * setup.braid_quantum_packets;
            let (t, r) = per_bit_costs(plan, &setup.switching, switch_bits);
            switches_per_bit_total += share * switches_per_packet(plan) / switch_bits;
            match dir1 {
                Role::Transmitter => {
                    c1 += share * t;
                    c2 += share * r;
                }
                Role::Receiver => {
                    c1 += share * r;
                    c2 += share * t;
                }
            }
            // Airtime per bit: weighted over allocations by fraction/rate.
            for a in &plan.allocations {
                rate_weighted_time_per_bit += share * a.fraction / a.option.rate.bps().bps();
            }
        }

        // Bits until the first battery would die under this blended cost.
        let bits_possible = (b1.remaining().joules() / c1).min(b2.remaining().joules() / c2);
        let bits_epoch = bits_possible * EPOCH_FRACTION;
        if !bits_epoch.is_finite() || bits_epoch < 1.0 {
            // Drain whatever remains and stop.
            let final_bits = bits_possible.max(0.0);
            drain(&mut b1, &mut b2, final_bits, c1, c2, &mut report);
            attribute_bits(&plans, final_bits, &mut report);
            report.duration += Seconds::new(final_bits * rate_weighted_time_per_bit);
            emit_epoch(&plans, final_bits, c1, c2, report.duration);
            break;
        }

        drain(&mut b1, &mut b2, bits_epoch, c1, c2, &mut report);
        attribute_bits(&plans, bits_epoch, &mut report);
        report.duration += Seconds::new(bits_epoch * rate_weighted_time_per_bit);
        report.switches += bits_epoch * switches_per_bit_total;
        emit_epoch(&plans, bits_epoch, c1, c2, report.duration);
    }
    if b1.is_dead() || b2.is_dead() {
        telemetry::emit(telemetry::Event::SessionDead {
            at: report.duration,
            track: telemetry::Track::Pair(0),
            reason: telemetry::DeathReason::BatteryDead,
        });
    }
    report
}

/// Telemetry for one integrated epoch: the bits each braid allocation
/// carried (at the epoch's end time) and the energy both devices paid,
/// mirroring what [`drain`] and [`attribute_bits`] just committed.
fn emit_epoch(plans: &[(Role, f64, OffloadPlan)], bits: f64, c1: f64, c2: f64, at: Seconds) {
    if !telemetry::enabled() {
        return;
    }
    let track = telemetry::Track::Pair(0);
    for (_, share, plan) in plans {
        for a in &plan.allocations {
            telemetry::emit(telemetry::Event::QuantumDelivered {
                at,
                track,
                mode: a.option.mode.into(),
                rate: a.option.rate.into(),
                bits: bits * share * a.fraction,
            });
        }
    }
    telemetry::emit(telemetry::Event::EnergyDebit {
        at,
        track: telemetry::Track::Device(0),
        joules: Joules::new(bits * c1),
    });
    telemetry::emit(telemetry::Event::EnergyDebit {
        at,
        track: telemetry::Track::Device(1),
        joules: Joules::new(bits * c2),
    });
}

/// Run a Braidio transfer while the pair moves along a mobility trace.
///
/// Epochs are additionally capped at `trace_interval` of link time so the
/// simulator samples the trace densely enough to see regime transitions;
/// `setup.distance` is ignored (the trace supplies it). Size the batteries
/// so the transfer spans the motion you care about — a full laptop battery
/// takes weeks of link time, which would quantize any realistic walk away.
pub fn simulate_mobile_transfer(
    setup: &TransferSetup,
    trace: &mut dyn crate::mobility::MobilityTrace,
    trace_interval: Seconds,
) -> SimReport {
    assert!(trace_interval.seconds() > 0.0);
    let mut b1 = Battery::new(setup.e1);
    let mut b2 = Battery::new(setup.e2);
    let mut report = SimReport::empty();
    const MAX_EPOCHS: usize = 200_000;
    const EPOCH_FRACTION: f64 = 0.1;

    while !b1.is_dead() && !b2.is_dead() && report.epochs < MAX_EPOCHS {
        report.epochs += 1;
        let d = trace.distance_at(report.duration);
        let opts = options_at(&setup.ch, d);
        let Some(plan) = solve_memo(&opts, b1.remaining(), b2.remaining()) else {
            // Out of range right now: idle through one trace interval.
            report.duration += trace_interval;
            continue;
        };
        let c1 = plan.tx_cost.joules_per_bit();
        let c2 = plan.rx_cost.joules_per_bit();
        let time_per_bit: f64 = plan
            .allocations
            .iter()
            .map(|a| a.fraction / a.option.rate.bps().bps())
            .sum();
        let bits_possible = (b1.remaining().joules() / c1).min(b2.remaining().joules() / c2);
        let bits_by_time = trace_interval.seconds() / time_per_bit;
        let bits_epoch = (bits_possible * EPOCH_FRACTION).min(bits_by_time);
        if !bits_epoch.is_finite() || bits_epoch < 1.0 {
            drain(
                &mut b1,
                &mut b2,
                bits_possible.max(0.0),
                c1,
                c2,
                &mut report,
            );
            report.duration += Seconds::new(bits_possible.max(0.0) * time_per_bit);
            break;
        }
        drain(&mut b1, &mut b2, bits_epoch, c1, c2, &mut report);
        for a in &plan.allocations {
            report.add_mode_bits(a.option.mode, bits_epoch * a.fraction);
        }
        report.duration += Seconds::new(bits_epoch * time_per_bit);
    }
    report
}

fn drain(b1: &mut Battery, b2: &mut Battery, bits: f64, c1: f64, c2: f64, report: &mut SimReport) {
    let d1 = Joules::new(bits * c1);
    let d2 = Joules::new(bits * c2);
    b1.draw(d1);
    b2.draw(d2);
    report.e1_spent += d1;
    report.e2_spent += d2;
    report.bits += bits;
}

fn attribute_bits(plans: &[(Role, f64, OffloadPlan)], bits: f64, report: &mut SimReport) {
    for (_, share, plan) in plans {
        for a in &plan.allocations {
            report.add_mode_bits(a.option.mode, bits * share * a.fraction);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gain(e1_wh: f64, e2_wh: f64) -> f64 {
        let braidio = simulate_transfer(&TransferSetup::new(e1_wh, e2_wh, Policy::Braidio));
        let bt = simulate_transfer(&TransferSetup::new(e1_wh, e2_wh, Policy::Bluetooth));
        braidio.bits / bt.bits
    }

    #[test]
    fn equal_batteries_gain_is_1_43() {
        // Fig. 15's diagonal.
        let g = gain(1.0, 1.0);
        assert!((g - 1.43).abs() < 0.02, "diagonal gain {g}");
    }

    #[test]
    fn epoch_loop_repeats_bitwise() {
        // The epoch loop is a pure function of its setup: a repeat run
        // produces identical results.
        let setup = TransferSetup::new(1.0, 1.0, Policy::Braidio);
        let first = simulate_transfer(&setup);
        let again = simulate_transfer(&setup);
        assert_eq!(first.bits.to_bits(), again.bits.to_bits());
        assert_eq!(
            first.duration.seconds().to_bits(),
            again.duration.seconds().to_bits()
        );
    }

    #[test]
    fn asymmetric_gains_grow_to_hundreds() {
        // Fuel Band (0.26 Wh) <-> MacBook Pro 15 (99.5 Wh): the paper's
        // corners are 299x/397x; the model must land in the same decade.
        let up = gain(0.26, 99.5);
        let down = gain(99.5, 0.26);
        assert!(up > 100.0, "small->large gain {up}");
        assert!(down > 100.0, "large->small gain {down}");
        assert!(down > up, "passive direction should win: {down} vs {up}");
    }

    #[test]
    fn gain_monotone_in_asymmetry() {
        let mut prev = 0.0;
        for ratio in [1.0, 3.0, 10.0, 30.0, 100.0, 300.0] {
            let g = gain(1.0, ratio);
            assert!(g > prev, "ratio {ratio}: gain {g} after {prev}");
            prev = g;
        }
    }

    #[test]
    fn braidio_beats_best_single_mode() {
        // Fig. 16: switching between modes buys up to ~78% over the best
        // single mode, and never loses.
        for (e1, e2) in [(1.0, 1.0), (6.55, 11.1), (0.26, 99.5), (13.3, 6.55)] {
            let braidio = simulate_transfer(&TransferSetup::new(e1, e2, Policy::Braidio));
            let best = simulate_transfer(&TransferSetup::new(e1, e2, Policy::BestSingleMode));
            let g = braidio.bits / best.bits;
            assert!(
                g >= 0.999,
                "braidio must not lose to a single mode: {e1}/{e2} -> {g}"
            );
            assert!(g < 2.5, "sanity: {g}");
        }
    }

    #[test]
    fn fig16_style_gain_between_phones() {
        // iPhone 6S -> iPhone 6 Plus: the paper reports 1.78x over the best
        // single mode. Same ballpark expected.
        let braidio = simulate_transfer(&TransferSetup::new(6.55, 11.1, Policy::Braidio));
        let best = simulate_transfer(&TransferSetup::new(6.55, 11.1, Policy::BestSingleMode));
        let g = braidio.bits / best.bits;
        assert!((1.3..=2.0).contains(&g), "gain over best single {g}");
    }

    #[test]
    fn bidirectional_beats_unidirectional_when_asymmetric() {
        // Fig. 17 vs Fig. 15: "results are a bit better than the
        // unidirectional case" under high asymmetry.
        let uni = gain(0.26, 99.5);
        let bi = {
            let b = simulate_transfer(
                &TransferSetup::new(0.26, 99.5, Policy::Braidio)
                    .with_traffic(Traffic::Bidirectional),
            );
            let bt = simulate_transfer(
                &TransferSetup::new(0.26, 99.5, Policy::Bluetooth)
                    .with_traffic(Traffic::Bidirectional),
            );
            b.bits / bt.bits
        };
        assert!(bi > uni * 0.95, "bi {bi} vs uni {uni}");
    }

    #[test]
    fn both_batteries_die_together_under_braidio() {
        let r = simulate_transfer(&TransferSetup::new(10.0, 1.0, Policy::Braidio));
        let e1_left = Joules::from_watt_hours(10.0) - r.e1_spent;
        let e2_left = Joules::from_watt_hours(1.0) - r.e2_spent;
        // Both ends drained to (nearly) nothing: power-proportional.
        assert!(e1_left.joules() < 0.01 * 3600.0 * 10.0, "e1 left {e1_left}");
        assert!(e2_left.joules() < 0.01 * 3600.0, "e2 left {e2_left}");
    }

    #[test]
    fn out_of_range_moves_zero_bits() {
        let setup = TransferSetup::new(1.0, 1.0, Policy::Braidio).at_distance(Meters::new(2000.0));
        let r = simulate_transfer(&setup);
        assert_eq!(r.bits, 0.0);
    }

    #[test]
    fn beyond_backscatter_range_small_to_large_equals_bluetooth() {
        // Fig. 18: once backscatter dies (> 2.4 m), a small transmitter
        // cannot offload its carrier, so Braidio ≈ Bluetooth.
        let setup = TransferSetup::new(0.26, 99.5, Policy::Braidio).at_distance(Meters::new(3.0));
        let braidio = simulate_transfer(&setup);
        let bt = simulate_transfer(
            &TransferSetup::new(0.26, 99.5, Policy::Bluetooth).at_distance(Meters::new(3.0)),
        );
        let g = braidio.bits / bt.bits;
        assert!((0.95..=1.1).contains(&g), "gain {g}");
    }

    #[test]
    fn beyond_backscatter_range_large_to_small_still_wins() {
        // ... while the passive-receiver direction keeps double-digit gains.
        let setup = TransferSetup::new(99.5, 0.26, Policy::Braidio).at_distance(Meters::new(3.0));
        let braidio = simulate_transfer(&setup);
        let bt = simulate_transfer(
            &TransferSetup::new(99.5, 0.26, Policy::Bluetooth).at_distance(Meters::new(3.0)),
        );
        let g = braidio.bits / bt.bits;
        assert!(g > 10.0, "gain {g}");
    }

    #[test]
    fn mode_shares_reflect_asymmetry() {
        // Large transmitter battery -> passive-heavy braid.
        let r = simulate_transfer(&TransferSetup::new(99.5, 0.26, Policy::Braidio));
        assert!(r.mode_share(Mode::Passive) > 0.9, "{:?}", r.mode_bits);
        // Small transmitter battery -> backscatter-heavy braid.
        let r = simulate_transfer(&TransferSetup::new(0.26, 99.5, Policy::Braidio));
        assert!(r.mode_share(Mode::Backscatter) > 0.9, "{:?}", r.mode_bits);
    }

    #[test]
    fn mobile_transfer_adapts_to_the_walk() {
        use crate::mobility::{LinearWalk, Static};
        // Tiny batteries so the transfer spans the walk: 3 mWh and 30 mWh.
        let setup = TransferSetup::new(0.003, 0.03, Policy::Braidio);
        // Static pin at 0.5 m for reference.
        let mut near = Static(Meters::new(0.5));
        let r_near = simulate_mobile_transfer(&setup, &mut near, Seconds::new(1.0));
        // A walk out to 3 m (past the backscatter edge) over 100 s.
        let mut walk = LinearWalk {
            start: Meters::new(0.5),
            end: Meters::new(3.0),
            duration: Seconds::new(100.0),
        };
        let r_walk = simulate_mobile_transfer(&setup, &mut walk, Seconds::new(1.0));
        // Both finish the batteries; the walking pair moves fewer bits
        // because the cheap backscatter mode disappears mid-transfer.
        assert!(r_walk.bits > 0.0);
        assert!(
            r_walk.bits < r_near.bits,
            "walk {} vs near {}",
            r_walk.bits,
            r_near.bits
        );
        // The walk's braid includes a backscatter phase early on...
        assert!(r_walk.mode_share(Mode::Backscatter) > 0.0);
        // ...but less of it than the static near pair.
        assert!(r_walk.mode_share(Mode::Backscatter) < r_near.mode_share(Mode::Backscatter));
    }

    #[test]
    fn mobile_static_trace_matches_fixed_simulation() {
        use crate::mobility::Static;
        let setup = TransferSetup::new(0.001, 0.001, Policy::Braidio);
        let fixed = simulate_transfer(&setup);
        let mut trace = Static(Meters::new(0.5));
        let mobile = simulate_mobile_transfer(&setup, &mut trace, Seconds::new(1e9));
        let ratio = mobile.bits / fixed.bits;
        // The mobile path charges no switching overhead, so it lands within
        // a percent above the fixed simulation.
        assert!((0.99..=1.02).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn out_of_range_walk_idles_without_panic() {
        use crate::mobility::Static;
        let setup = TransferSetup::new(0.001, 0.001, Policy::Braidio);
        let mut far = Static(Meters::new(2000.0));
        let r = simulate_mobile_transfer(&setup, &mut far, Seconds::new(1.0));
        assert_eq!(r.bits, 0.0);
        assert!(r.duration > Seconds::ZERO, "time still passes while idle");
    }

    #[test]
    fn duration_accounting_is_positive_and_consistent() {
        let r = simulate_transfer(&TransferSetup::new(1.0, 1.0, Policy::Braidio));
        assert!(r.duration > Seconds::ZERO);
        // All modes run at 1 Mbps here, so duration = bits / 1 Mbps.
        let expected = r.bits / 1e6;
        assert!(
            (r.duration.seconds() / expected - 1.0).abs() < 1e-6,
            "duration {} vs {expected}",
            r.duration
        );
    }

    #[test]
    fn switching_overhead_is_charged_but_small() {
        let with = simulate_transfer(&TransferSetup::new(1.0, 1.0, Policy::Braidio));
        assert!(with.switches > 0.0);
        // The braid alternates, but Table 5 costs shave well under 5%.
        let ideal_plan = crate::offload::solve_at(
            &Characterization::braidio(),
            Meters::new(0.5),
            Joules::from_watt_hours(1.0),
            Joules::from_watt_hours(1.0),
        )
        .unwrap();
        let ideal_bits =
            ideal_plan.bits_until_death(Joules::from_watt_hours(1.0), Joules::from_watt_hours(1.0));
        let loss = 1.0 - with.bits / ideal_bits;
        assert!((0.0..0.01).contains(&loss), "switching loss {loss}");
    }
}
