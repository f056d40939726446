//! Packet-level live link: the dynamic side of §4.2.
//!
//! [`crate::Transfer`] integrates whole battery lifetimes analytically; this
//! module instead steps one packet at a time through the probe → plan →
//! braid → fallback loop, with log-normal shadowing and smoltcp-style fault
//! injection. It is the engine for interactive examples and for testing the
//! MAC's failure handling ("Braidio simply falls back to the active mode if
//! the current operating mode is performing poorly"). Every packet, re-plan
//! and session end is an event on the telemetry bus, on track `Pair(0)`, in
//! the vocabulary of the fleet engine's traces.

use braidio_mac::offload::{solve, OffloadPlan};
use braidio_mac::probe::LinkProber;
use braidio_mac::scheduler::{BraidedScheduler, Decision};
use braidio_phy::ber::packet_error_rate;
use braidio_radio::characterization::{Characterization, Rate};
use braidio_radio::devices::Device;
use braidio_radio::switching::SwitchingOverhead;
use braidio_radio::{Battery, Mode, Role};
use braidio_rfsim::fault::{FaultInjector, Verdict};
use braidio_telemetry::{emit, DeathReason, Event, Track};
use braidio_units::{Joules, Meters, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A live link's telemetry track: a pairwise session is its one pair.
const TRACK: Track = Track::Pair(0);

/// Configuration of a live link.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Device separation.
    pub distance: Meters,
    /// Payload bytes per packet.
    pub payload_bytes: usize,
    /// Shadowing standard deviation applied to probe measurements, dB.
    pub shadowing_sigma_db: f64,
    /// Random drop probability (fault injection).
    pub drop_chance: f64,
    /// Random corrupt probability (fault injection).
    pub corrupt_chance: f64,
    /// Re-plan after this many packets even without failures.
    pub replan_every: usize,
    /// Packets to dwell in one mode before the braid may switch
    /// (amortizes the Table 5 switch energy, §4.2).
    pub braid_quantum: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            distance: Meters::new(0.5),
            payload_bytes: 64,
            shadowing_sigma_db: 0.0,
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            replan_every: 1000,
            braid_quantum: 100,
            seed: 1,
        }
    }
}

/// What happened to one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketOutcome {
    /// Delivered and acknowledged.
    Delivered {
        /// Mode used.
        mode: Mode,
        /// Rate used.
        rate: Rate,
    },
    /// Lost (channel error or injected fault).
    Lost {
        /// Mode used.
        mode: Mode,
    },
    /// The link re-probed and re-planned instead of sending.
    Replanned,
    /// No mode closes the link at this distance.
    LinkDown,
    /// An endpoint's battery is exhausted.
    BatteryDead,
}

/// Aggregate statistics of a live run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveStats {
    /// Packets delivered.
    pub delivered: u64,
    /// Packets lost.
    pub lost: u64,
    /// Re-plan rounds.
    pub replans: u64,
    /// Bits of payload delivered.
    pub payload_bits: f64,
    /// Link time elapsed.
    pub airtime: Seconds,
}

impl LiveStats {
    /// Delivery ratio over attempted packets.
    pub fn delivery_ratio(&self) -> f64 {
        let attempts = self.delivered + self.lost;
        if attempts == 0 {
            return 0.0;
        }
        self.delivered as f64 / attempts as f64
    }
}

/// A packet-stepped Braidio link between two devices.
///
/// ```
/// use braidio::prelude::*;
///
/// let mut link = LiveLink::open(
///     devices::PEBBLE_WATCH,
///     devices::NEXUS_6P,
///     LiveConfig { drop_chance: 0.05, seed: 7, ..LiveConfig::default() },
/// );
/// let stats = link.run_packets(500);
/// assert!(stats.delivery_ratio() > 0.9);
/// assert!(link.plan().is_some(), "a braid is installed after probing");
/// ```
#[derive(Debug)]
pub struct LiveLink {
    /// Link characterization.
    pub ch: Characterization,
    switching: SwitchingOverhead,
    config: LiveConfig,
    tx_battery: Battery,
    rx_battery: Battery,
    prober: LinkProber,
    scheduler: Option<BraidedScheduler>,
    plan: Option<OffloadPlan>,
    last_mode: Option<Mode>,
    packets_since_plan: usize,
    rng: StdRng,
    fault: FaultInjector,
    stats: LiveStats,
}

impl LiveLink {
    /// Open a link from `tx` to `rx`.
    pub fn open(tx: Device, rx: Device, config: LiveConfig) -> Self {
        braidio_telemetry::begin_unit();
        let prober = if config.shadowing_sigma_db > 0.0 {
            LinkProber::with_shadowing(config.shadowing_sigma_db, config.seed ^ 0xBEEF)
        } else {
            LinkProber::ideal()
        };
        LiveLink {
            ch: Characterization::braidio(),
            switching: SwitchingOverhead::table5(),
            fault: FaultInjector::new(
                config.drop_chance,
                config.corrupt_chance,
                config.seed ^ 0xFA17,
            ),
            rng: StdRng::seed_from_u64(config.seed),
            tx_battery: tx.battery(),
            rx_battery: rx.battery(),
            prober,
            scheduler: None,
            plan: None,
            last_mode: None,
            packets_since_plan: 0,
            config,
            stats: LiveStats::default(),
        }
    }

    /// Move the pair (mobility): updates the separation and, if it moved by
    /// more than 10 cm since the last plan, schedules a re-probe so the
    /// braid adapts (the §4.2 "periodically re-computes … depending on
    /// observed dynamics" path — large moves shouldn't wait for failures).
    pub fn set_distance(&mut self, d: Meters) {
        assert!(d.is_physical(), "distance must be non-negative");
        let moved = (d.meters() - self.config.distance.meters()).abs();
        self.config.distance = d;
        if moved > 0.1 {
            self.scheduler = None; // force a re-plan on the next step
        }
    }

    /// Remaining energy at the transmitter.
    pub fn tx_remaining(&self) -> Joules {
        self.tx_battery.remaining()
    }

    /// Remaining energy at the receiver.
    pub fn rx_remaining(&self) -> Joules {
        self.rx_battery.remaining()
    }

    /// The current plan, if one exists.
    pub fn plan(&self) -> Option<&OffloadPlan> {
        self.plan.as_ref()
    }

    /// Statistics so far.
    pub fn stats(&self) -> LiveStats {
        self.stats
    }

    /// The on-air bits of one framed packet.
    fn packet_bits(&self) -> f64 {
        braidio_phy::frame::Frame::new(vec![0u8; self.config.payload_bytes]).air_bits() as f64
    }

    fn replan(&mut self) -> bool {
        let report = self.prober.probe(&self.ch, self.config.distance);
        // Charge the probe exchange to both sides.
        self.tx_battery.draw(report.energy_initiator);
        self.rx_battery.draw(report.energy_responder);
        self.stats.airtime += report.airtime;
        self.stats.replans += 1;
        let options = report.options(&self.ch);
        match solve(
            &options,
            self.tx_battery.remaining(),
            self.rx_battery.remaining(),
        ) {
            Some(plan) => {
                self.scheduler =
                    Some(BraidedScheduler::new(&plan).with_quantum(self.config.braid_quantum));
                self.plan = Some(plan);
                self.packets_since_plan = 0;
                true
            }
            None => {
                self.scheduler = None;
                self.plan = None;
                false
            }
        }
    }

    /// Re-probe and re-plan in place of a packet: a `Replan` on the
    /// telemetry bus, then a `SessionDead` when no mode closes the link.
    fn replan_step(&mut self) -> PacketOutcome {
        let planned = self.replan();
        let at = self.stats.airtime;
        emit(Event::Replan {
            at,
            track: TRACK,
            planned,
            exact: false,
            primary: None,
        });
        if !planned {
            emit(Event::SessionDead {
                at,
                track: TRACK,
                reason: DeathReason::NoViableMode,
            });
            return PacketOutcome::LinkDown;
        }
        PacketOutcome::Replanned
    }

    /// Advance by one packet.
    pub fn step(&mut self) -> PacketOutcome {
        if self.tx_battery.is_dead() || self.rx_battery.is_dead() {
            emit(Event::SessionDead {
                at: self.stats.airtime,
                track: TRACK,
                reason: DeathReason::BatteryDead,
            });
            return PacketOutcome::BatteryDead;
        }
        if self.scheduler.is_none() || self.packets_since_plan >= self.config.replan_every {
            return self.replan_step();
        }
        let option = match self.scheduler.as_mut().expect("planned").next() {
            Decision::Replan => return self.replan_step(),
            Decision::Send(o) => o,
        };

        // Charge mode-switch energy when the braid changes mode.
        if self.last_mode != Some(option.mode) {
            self.tx_battery
                .draw(self.switching.cost(option.mode, Role::Transmitter));
            self.rx_battery
                .draw(self.switching.cost(option.mode, Role::Receiver));
            self.last_mode = Some(option.mode);
        }

        // Airtime + data energy.
        let bits = self.packet_bits();
        let airtime = option.rate.bps().time_for_bits(bits);
        self.stats.airtime += airtime;
        self.tx_battery
            .draw(Joules::new(option.tx_cost.joules_per_bit() * bits));
        self.rx_battery
            .draw(Joules::new(option.rx_cost.joules_per_bit() * bits));
        self.packets_since_plan += 1;

        // Delivery: channel BER (packet error rate) plus injected faults.
        let ber = self.ch.ber(option.mode, option.rate, self.config.distance);
        let per = packet_error_rate(ber, bits as usize);
        let channel_ok = self.rng.random_bool((1.0 - per).clamp(0.0, 1.0));
        let delivered = channel_ok && self.fault.judge() == Verdict::Deliver;

        self.scheduler.as_mut().expect("planned").report(delivered);
        let (at, mode, rate) = (self.stats.airtime, option.mode.into(), option.rate.into());
        let payload_bits = (self.config.payload_bytes * 8) as f64;
        emit(if delivered {
            Event::QuantumDelivered {
                at,
                track: TRACK,
                mode,
                rate,
                bits: payload_bits,
            }
        } else {
            Event::QuantumLost {
                at,
                track: TRACK,
                mode,
                rate,
                bits: payload_bits,
            }
        });
        if delivered {
            self.stats.delivered += 1;
            self.stats.payload_bits += payload_bits;
            PacketOutcome::Delivered {
                mode: option.mode,
                rate: option.rate,
            }
        } else {
            self.stats.lost += 1;
            PacketOutcome::Lost { mode: option.mode }
        }
    }

    /// Step `n` packets (re-plans count toward `n`) and return the stats.
    pub fn run_packets(&mut self, n: usize) -> LiveStats {
        for _ in 0..n {
            match self.step() {
                PacketOutcome::BatteryDead | PacketOutcome::LinkDown => break,
                _ => {}
            }
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braidio_radio::devices;

    #[test]
    fn clean_link_delivers_everything() {
        let mut link = LiveLink::open(
            devices::APPLE_WATCH,
            devices::IPHONE_6S,
            LiveConfig::default(),
        );
        let stats = link.run_packets(500);
        assert!(stats.delivered > 400);
        assert_eq!(stats.lost, 0);
        assert!(stats.delivery_ratio() > 0.999);
    }

    #[test]
    fn fault_injection_loses_packets_but_link_survives() {
        let mut link = LiveLink::open(
            devices::APPLE_WATCH,
            devices::IPHONE_6S,
            LiveConfig {
                drop_chance: 0.15,
                ..LiveConfig::default()
            },
        );
        let stats = link.run_packets(2000);
        assert!(stats.lost > 100, "lost {}", stats.lost);
        assert!(stats.delivered > 1000, "delivered {}", stats.delivered);
        // Fallback churn: failures trigger re-plans beyond the periodic one.
        assert!(stats.replans >= 2, "replans {}", stats.replans);
    }

    #[test]
    fn asymmetric_pair_braids_toward_backscatter() {
        let mut link = LiveLink::open(
            devices::NIKE_FUEL_BAND,
            devices::MACBOOK_PRO_15,
            LiveConfig::default(),
        );
        let _ = link.run_packets(50);
        let plan = link.plan().expect("planned");
        assert!(plan.mode_fraction(Mode::Backscatter) > 0.9);
    }

    #[test]
    fn out_of_range_link_reports_down() {
        let mut link = LiveLink::open(
            devices::APPLE_WATCH,
            devices::IPHONE_6S,
            LiveConfig {
                distance: Meters::new(2000.0),
                ..LiveConfig::default()
            },
        );
        assert_eq!(link.step(), PacketOutcome::LinkDown);
    }

    #[test]
    fn batteries_drain_as_the_link_runs() {
        let mut link = LiveLink::open(
            devices::APPLE_WATCH,
            devices::IPHONE_6S,
            LiveConfig::default(),
        );
        let tx0 = link.tx_remaining();
        let rx0 = link.rx_remaining();
        let _ = link.run_packets(200);
        assert!(link.tx_remaining() < tx0);
        assert!(link.rx_remaining() < rx0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut link = LiveLink::open(
                devices::PEBBLE_WATCH,
                devices::NEXUS_6P,
                LiveConfig {
                    drop_chance: 0.1,
                    seed,
                    ..LiveConfig::default()
                },
            );
            let s = link.run_packets(300);
            (s.delivered, s.lost, s.replans)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn mobility_walk_reshapes_the_plan() {
        use braidio_mac::mobility::{LinearWalk, MobilityTrace};
        let mut link = LiveLink::open(
            devices::NIKE_FUEL_BAND,
            devices::MACBOOK_PRO_15,
            LiveConfig::default(),
        );
        // Close in: backscatter-heavy plan.
        let _ = link.run_packets(20);
        assert!(link.plan().unwrap().mode_fraction(Mode::Backscatter) > 0.9);

        // Walk out to 3 m over a simulated stroll; feed the trace in.
        let mut walk = LinearWalk {
            start: Meters::new(0.5),
            end: Meters::new(3.0),
            duration: Seconds::new(10.0),
        };
        for step in 0..=10 {
            let t = Seconds::new(step as f64);
            link.set_distance(walk.distance_at(t));
            let _ = link.run_packets(20);
        }
        // Beyond the 2.4 m backscatter edge, the plan cannot use
        // backscatter at all; a FuelBand transmitter gets no offload.
        let plan = link.plan().expect("replanned during the walk");
        assert_eq!(plan.mode_fraction(Mode::Backscatter), 0.0, "{plan:?}");
        assert!(link.stats().replans >= 2);
        // And the link still delivers.
        let before = link.stats().delivered;
        let _ = link.run_packets(50);
        assert!(link.stats().delivered > before);
    }

    #[test]
    fn small_moves_do_not_thrash_replans() {
        let mut link = LiveLink::open(
            devices::APPLE_WATCH,
            devices::IPHONE_6S,
            LiveConfig::default(),
        );
        let _ = link.run_packets(10);
        let replans = link.stats().replans;
        for i in 0..50 {
            link.set_distance(Meters::new(0.5 + 0.001 * (i % 5) as f64));
            let _ = link.step();
        }
        assert_eq!(
            link.stats().replans,
            replans,
            "centimeter jitter should not re-probe"
        );
    }

    /// Run `f` with event capture on; return the events it emitted.
    fn captured(f: impl FnOnce()) -> Vec<Event> {
        braidio_telemetry::set_enabled(true);
        let _ = braidio_telemetry::take_events();
        f();
        let events = braidio_telemetry::take_events();
        braidio_telemetry::set_enabled(false);
        events.into_iter().map(|s| s.event).collect()
    }

    #[test]
    fn maps_onto_the_telemetry_vocabulary() {
        // Each packet is a quantum of 8 × payload bytes on the session's
        // one track, delivered or lost.
        let config = LiveConfig {
            drop_chance: 0.3,
            ..LiveConfig::default()
        };
        let payload_bits = (config.payload_bytes * 8) as f64;
        let events = captured(|| {
            let mut link = LiveLink::open(devices::APPLE_WATCH, devices::IPHONE_6S, config);
            link.run_packets(200);
        });
        let (mut delivered, mut lost) = (0, 0);
        for e in &events {
            match *e {
                Event::QuantumDelivered { track, bits, .. } => {
                    assert_eq!((track, bits), (TRACK, payload_bits));
                    delivered += 1;
                }
                Event::QuantumLost { track, bits, .. } => {
                    assert_eq!((track, bits), (TRACK, payload_bits));
                    lost += 1;
                }
                _ => {}
            }
        }
        assert!(
            delivered > 0 && lost > 0,
            "{delivered} delivered, {lost} lost"
        );
        // A down link is a failed re-plan, then a session dead for want of
        // a viable mode.
        let events = captured(|| {
            let mut link = LiveLink::open(
                devices::APPLE_WATCH,
                devices::IPHONE_6S,
                LiveConfig {
                    distance: Meters::new(2000.0),
                    ..LiveConfig::default()
                },
            );
            assert_eq!(link.step(), PacketOutcome::LinkDown);
        });
        assert!(matches!(
            events[..],
            [
                Event::Replan { planned: false, .. },
                Event::SessionDead {
                    track: TRACK,
                    reason: DeathReason::NoViableMode,
                    ..
                }
            ]
        ));
    }

    #[test]
    fn shadowed_probes_still_produce_working_plans() {
        let mut link = LiveLink::open(
            devices::APPLE_WATCH,
            devices::IPHONE_6S,
            LiveConfig {
                shadowing_sigma_db: 4.0,
                distance: Meters::new(1.5),
                ..LiveConfig::default()
            },
        );
        let stats = link.run_packets(500);
        assert!(stats.delivery_ratio() > 0.8, "{:?}", stats);
    }
}
