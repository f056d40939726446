//! The frozen pre-SoA fleet engine, kept verbatim as a bitwise oracle.
//!
//! This module is the array-of-structs engine (and its dense
//! per-edge-matrix interference cache) exactly as it shipped before the
//! structure-of-arrays refactor in [`crate::engine`]. It exists for one
//! purpose: the `soa-vs-baseline` equivalence gate runs the same scenarios
//! through both engines and asserts every simulated quantity — reports,
//! JSONL traces, per-device energy ledgers — is byte-identical. It is not
//! part of the public API and makes no attempt to scale; do not add
//! features here.

#![doc(hidden)]

use crate::arbitration::Arbitration;
use crate::interference::{carrier_contribution, CarrierSource, OptionsMemo};
use crate::kernel::EventQueue;
use crate::metrics::FleetReport;
use crate::scenario::FleetScenario;
use braidio_mac::fsm::{Event as FsmEvent, OffloadFsm};
use braidio_mac::mobility::MobilityTrace;
use braidio_mac::offload::{solve_memo, OffloadPlan};
use braidio_mac::probe::LinkProber;
use braidio_mac::sim::per_bit_costs;
use braidio_radio::characterization::Rate;
use braidio_radio::{Battery, Mode};
use braidio_rfsim::geometry::Point;
use braidio_telemetry as telemetry;
use braidio_units::{Joules, Meters, Seconds, Watts};

const STATUS_BITS: f64 = 256.0;

const ASSOC_STAGGER: Seconds = Seconds::new(1e-3);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Associate,
    StatusExchanged,
    ProbesDone,
    Replan,
    QuantumDone,
}

impl Kind {
    fn rank(self) -> u64 {
        match self {
            Kind::Associate => 0,
            Kind::StatusExchanged => 1,
            Kind::ProbesDone => 2,
            Kind::Replan => 3,
            Kind::QuantumDone => 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Ev {
    pair: usize,
    kind: Kind,
}

type Slice = (Mode, Rate, f64, bool, bool, Seconds);

const FILL_SLICE: Slice = (
    Mode::Active,
    Rate::Kbps10,
    0.0,
    false,
    false,
    Seconds::new(0.0),
);

#[derive(Debug, Clone)]
struct PendingQuantum {
    bits: f64,
    e_tx: Joules,
    e_rx: Joules,
    slices: [Slice; 2],
    nslices: u8,
    last: bool,
}

impl PendingQuantum {
    fn slices(&self) -> &[Slice] {
        &self.slices[..self.nslices as usize]
    }
}

#[derive(Debug)]
struct DeviceRt {
    pos: Point,
    battery: Battery,
    spent: Joules,
    dead_at: Option<Seconds>,
    carrier_time: Seconds,
}

#[derive(Debug)]
struct PairRt {
    fsm: OffloadFsm,
    plan: Option<OffloadPlan>,
    pending: Option<PendingQuantum>,
    bits: f64,
    mode_bits: [(Mode, f64); 3],
    dead_at: Option<Seconds>,
    dir: Point,
    last_mode: Option<Mode>,
}

/// The dense per-edge interference cache the SoA refactor replaced:
/// `contrib[victim * n + source]` holds each source's detector-referred
/// power (NaN = stale), and a dirty sum replays the cached contributions
/// in pair-index order. O(n²) memory — the reason it was retired.
#[derive(Debug)]
struct ScalarGainCache {
    n: usize,
    contrib: Vec<f64>,
    sum: Vec<f64>,
    sum_dirty: Vec<bool>,
    live: Vec<bool>,
}

impl ScalarGainCache {
    fn new(n: usize) -> Self {
        ScalarGainCache {
            n,
            contrib: vec![f64::NAN; n * n],
            sum: vec![0.0; n],
            sum_dirty: vec![true; n],
            live: vec![true; n],
        }
    }

    fn is_live(&self, q: usize) -> bool {
        self.live[q]
    }

    fn mark_dead(&mut self, q: usize) {
        if !self.live[q] {
            return;
        }
        self.live[q] = false;
        for d in self.sum_dirty.iter_mut() {
            *d = true;
        }
    }

    fn invalidate_pair(&mut self, p: usize) {
        let n = self.n;
        for q in 0..n {
            self.contrib[p * n + q] = f64::NAN;
            self.contrib[q * n + p] = f64::NAN;
        }
        for d in self.sum_dirty.iter_mut() {
            *d = true;
        }
    }

    fn interference<E>(&mut self, victim: usize, mut edge: E) -> Watts
    where
        E: FnMut(usize) -> Watts,
    {
        let n = self.n;
        if !self.sum_dirty[victim] {
            return Watts::new(self.sum[victim]);
        }
        let mut acc = Watts::new(0.0);
        for q in 0..n {
            if q == victim || !self.live[q] {
                continue;
            }
            let slot = &mut self.contrib[victim * n + q];
            if slot.is_nan() {
                *slot = edge(q).watts();
            }
            acc += Watts::new(*slot);
        }
        self.sum[victim] = acc.watts();
        self.sum_dirty[victim] = false;
        acc
    }
}

/// Run a fleet scenario through the pre-refactor engine (the bitwise
/// oracle of the `soa-vs-baseline` gate).
pub fn run_fleet_baseline(scenario: &FleetScenario) -> FleetReport {
    scenario.validate();
    assert!(
        scenario.churn.is_none(),
        "the frozen baseline engine predates the lifecycle subsystem; \
         open-system scenarios have no oracle here"
    );
    let mut sim = Fleet::new(scenario);
    sim.run()
}

struct Fleet<'a> {
    sc: &'a FleetScenario,
    q: EventQueue<Ev>,
    devices: Vec<DeviceRt>,
    pairs: Vec<PairRt>,
    replans: u64,
    gains: ScalarGainCache,
    options: OptionsMemo,
}

impl<'a> Fleet<'a> {
    fn new(sc: &'a FleetScenario) -> Self {
        let devices = sc
            .devices
            .iter()
            .map(|d| DeviceRt {
                pos: d.pos,
                battery: Battery::new(d.battery),
                spent: Joules::ZERO,
                dead_at: None,
                carrier_time: Seconds::ZERO,
            })
            .collect();
        let pairs = sc
            .pairs
            .iter()
            .map(|p| PairRt {
                fsm: OffloadFsm::new(),
                plan: None,
                pending: None,
                bits: 0.0,
                mode_bits: [
                    (Mode::Active, 0.0),
                    (Mode::Passive, 0.0),
                    (Mode::Backscatter, 0.0),
                ],
                dead_at: None,
                dir: sc.devices[p.tx]
                    .pos
                    .direction_to(sc.devices[p.rx].pos)
                    .unwrap_or(Point::new(1.0, 0.0)),
                last_mode: None,
            })
            .collect();
        let gains = ScalarGainCache::new(sc.pairs.len());
        Fleet {
            sc,
            q: EventQueue::new(),
            devices,
            pairs,
            replans: 0,
            gains,
            options: OptionsMemo::new(),
        }
    }

    fn run(&mut self) -> FleetReport {
        telemetry::begin_unit();
        for i in 0..self.pairs.len() {
            self.q.schedule(
                Seconds::new(i as f64 * ASSOC_STAGGER.seconds()),
                Kind::Associate.rank(),
                i as u32,
                Ev {
                    pair: i,
                    kind: Kind::Associate,
                },
            );
        }
        let mut last = Seconds::ZERO;
        let mut truncated = false;
        while let Some(ev) = self.q.pop() {
            if ev.time > self.sc.horizon {
                truncated = true;
                break;
            }
            last = ev.time;
            self.handle(ev.event.pair, ev.event.kind, ev.time);
        }
        let end_time = if truncated { self.sc.horizon } else { last };
        for p in 0..self.pairs.len() {
            self.abort_pending(p, end_time);
        }
        FleetReport {
            horizon: self.sc.horizon,
            end_time,
            events: self.q.delivered(),
            replans: self.replans,
            pair_bits: self.pairs.iter().map(|p| p.bits).collect(),
            pair_mode_bits: self.pairs.iter().map(|p| p.mode_bits).collect(),
            pair_dead_at: self.pairs.iter().map(|p| p.dead_at).collect(),
            device_spent: self.devices.iter().map(|d| d.spent).collect(),
            device_dead_at: self.devices.iter().map(|d| d.dead_at).collect(),
            device_carrier_time: self.devices.iter().map(|d| d.carrier_time).collect(),
            churn: None,
        }
    }

    fn handle(&mut self, p: usize, kind: Kind, now: Seconds) {
        if self.pairs[p].fsm.is_dead() {
            return;
        }
        let (tx, rx) = (self.sc.pairs[p].tx, self.sc.pairs[p].rx);
        if kind != Kind::QuantumDone
            && (self.devices[tx].battery.is_dead() || self.devices[rx].battery.is_dead())
        {
            self.kill(p, now);
            return;
        }
        match kind {
            Kind::Associate => self.on_associate(p, now),
            Kind::StatusExchanged => self.on_status_exchanged(p, now),
            Kind::ProbesDone => self.on_probes_done(p, now),
            Kind::Replan => self.on_replan(p, now),
            Kind::QuantumDone => self.on_quantum_done(p, now),
        }
    }

    fn on_associate(&mut self, p: usize, now: Seconds) {
        telemetry::emit(telemetry::Event::WakeupDetect {
            at: now,
            track: telemetry::Track::Device(self.sc.pairs[p].rx as u32),
        });
        self.pairs[p]
            .fsm
            .on(FsmEvent::Associated)
            .expect("Init accepts Associated");
        let mut dt = Seconds::ZERO;
        if self.sc.control_overhead {
            let pp = self
                .sc
                .ch
                .power(Mode::Active, Rate::Mbps1)
                .expect("active 1 Mbps is always characterized");
            let t = pp.rate.bps().time_for_bits(STATUS_BITS);
            let e = pp.tx * t + pp.rx * t;
            let (tx, rx) = (self.sc.pairs[p].tx, self.sc.pairs[p].rx);
            self.charge(tx, e, now);
            self.charge(rx, e, now);
            dt = pp.rate.bps().time_for_bits(2.0 * STATUS_BITS);
            if self.devices[tx].battery.is_dead() || self.devices[rx].battery.is_dead() {
                self.kill(p, now);
                return;
            }
        }
        self.schedule(now + dt, p, Kind::StatusExchanged);
    }

    fn on_status_exchanged(&mut self, p: usize, now: Seconds) {
        self.pairs[p]
            .fsm
            .on(FsmEvent::StatusExchanged)
            .expect("ExchangingStatus accepts StatusExchanged");
        if let Some(airtime) = self.charge_probe_round(p, now) {
            self.schedule(now + airtime, p, Kind::ProbesDone);
        }
    }

    fn on_probes_done(&mut self, p: usize, now: Seconds) {
        if !self.install_plan(p, now) {
            return;
        }
        self.schedule_quantum(p, now);
        if !self.pairs[p].fsm.is_dead() {
            self.schedule(now + self.sc.replan_interval, p, Kind::Replan);
        }
    }

    fn on_replan(&mut self, p: usize, now: Seconds) {
        let _span = telemetry::span("net.replan");
        self.replans += 1;
        self.pairs[p]
            .fsm
            .on(FsmEvent::RecomputeDue)
            .expect("Braiding accepts RecomputeDue");
        if self.charge_probe_round(p, now).is_none() {
            return;
        }
        if !self.install_plan(p, now) {
            self.abort_pending(p, now);
            return;
        }
        self.schedule(now + self.sc.replan_interval, p, Kind::Replan);
    }

    fn on_quantum_done(&mut self, p: usize, now: Seconds) {
        self.pairs[p]
            .fsm
            .on(FsmEvent::PacketDelivered)
            .expect("Braiding accepts PacketDelivered");
        let pending = self.pairs[p]
            .pending
            .take()
            .expect("a quantum was in flight");
        let (tx, rx) = (self.sc.pairs[p].tx, self.sc.pairs[p].rx);
        self.charge(tx, pending.e_tx, now);
        self.charge(rx, pending.e_rx, now);
        self.pairs[p].bits += pending.bits;
        for (mode, rate, bits, on_tx, on_rx, airtime) in pending.slices() {
            for (m, b) in self.pairs[p].mode_bits.iter_mut() {
                if m == mode {
                    *b += bits;
                }
            }
            if *on_tx {
                self.devices[tx].carrier_time += *airtime;
            }
            if *on_rx {
                self.devices[rx].carrier_time += *airtime;
            }
            telemetry::emit(telemetry::Event::QuantumDelivered {
                at: now,
                track: telemetry::Track::Pair(p as u32),
                mode: (*mode).into(),
                rate: (*rate).into(),
                bits: *bits,
            });
        }
        telemetry::emit(telemetry::Event::CarrierRelease {
            at: now,
            track: telemetry::Track::Pair(p as u32),
        });
        if pending.last || self.devices[tx].battery.is_dead() || self.devices[rx].battery.is_dead()
        {
            self.kill(p, now);
            return;
        }
        self.schedule_quantum(p, now);
    }

    fn charge_probe_round(&mut self, p: usize, now: Seconds) -> Option<Seconds> {
        if !self.sc.control_overhead {
            return Some(Seconds::ZERO);
        }
        let d = self.pair_distance(p, now);
        let report = LinkProber::ideal().probe(&self.sc.ch, d);
        let (tx, rx) = (self.sc.pairs[p].tx, self.sc.pairs[p].rx);
        self.charge(tx, report.energy_initiator, now);
        self.charge(rx, report.energy_responder, now);
        if self.devices[tx].battery.is_dead() || self.devices[rx].battery.is_dead() {
            self.kill(p, now);
            return None;
        }
        Some(report.airtime)
    }

    fn install_plan(&mut self, p: usize, now: Seconds) -> bool {
        let d = self.pair_distance(p, now);
        let interference = self.interference_for(p);
        let pin = self.sc.pairs[p].pinned_mode;
        let opts = self.options.get(&self.sc.ch, d, interference, pin);
        if opts.is_empty() {
            self.pairs[p]
                .fsm
                .on(FsmEvent::ProbesEmpty)
                .expect("Probing accepts ProbesEmpty");
            self.pairs[p].dead_at = Some(now);
            self.gains.mark_dead(p);
            if telemetry::enabled() {
                let track = telemetry::Track::Pair(p as u32);
                telemetry::emit(telemetry::Event::Replan {
                    at: now,
                    track,
                    planned: false,
                    exact: false,
                    primary: None,
                });
                telemetry::emit(telemetry::Event::SessionDead {
                    at: now,
                    track,
                    reason: telemetry::DeathReason::NoViableMode,
                });
            }
            return false;
        }
        let (tx, rx) = (self.sc.pairs[p].tx, self.sc.pairs[p].rx);
        let plan = solve_memo(
            &opts,
            self.devices[tx].battery.remaining(),
            self.devices[rx].battery.remaining(),
        )
        .expect("non-empty options always yield a plan");
        self.pairs[p]
            .fsm
            .on(FsmEvent::ProbesOk)
            .expect("Probing accepts ProbesOk");
        if telemetry::enabled() {
            let primary = plan
                .allocations
                .iter()
                .max_by(|a, b| a.fraction.partial_cmp(&b.fraction).expect("finite"))
                .map(|a| a.option.mode);
            let track = telemetry::Track::Pair(p as u32);
            telemetry::emit(telemetry::Event::Replan {
                at: now,
                track,
                planned: true,
                exact: plan.exact,
                primary: primary.map(Into::into),
            });
            if let Some(primary) = primary {
                if self.pairs[p].last_mode != Some(primary) {
                    telemetry::emit(telemetry::Event::ModeSwitch {
                        at: now,
                        track,
                        from: self.pairs[p].last_mode.map(Into::into),
                        to: primary.into(),
                    });
                    self.pairs[p].last_mode = Some(primary);
                }
            }
        }
        self.pairs[p].plan = Some(plan);
        true
    }

    fn schedule_quantum(&mut self, p: usize, now: Seconds) {
        let plan = self.pairs[p].plan.expect("braiding under a plan");
        let (tx, rx) = (self.sc.pairs[p].tx, self.sc.pairs[p].rx);

        let switch_bits = self.sc.packet_bits * self.sc.quantum_packets;
        let (c_tx, c_rx) = per_bit_costs(&plan, &self.sc.switching, switch_bits);

        let affordable = (self.devices[tx].battery.remaining().joules() / c_tx)
            .min(self.devices[rx].battery.remaining().joules() / c_rx);
        let quantum_bits = switch_bits;
        let bits = quantum_bits.min(affordable);
        if !bits.is_finite() || bits < 1.0 {
            self.kill(p, now);
            return;
        }
        let last = affordable <= quantum_bits;

        let mut airtime = Seconds::ZERO;
        let mut slices = [FILL_SLICE; 2];
        let mut nslices = 0u8;
        for a in &plan.allocations {
            let slice_bits = bits * a.fraction;
            let dt = a.option.rate.bps().time_for_bits(slice_bits);
            let (on_tx, on_rx) = a.option.mode.carrier_at();
            slices[nslices as usize] = (a.option.mode, a.option.rate, slice_bits, on_tx, on_rx, dt);
            nslices += 1;
            airtime += dt;
        }
        let finish = self.finish_time(p, now, airtime);
        self.pairs[p].pending = Some(PendingQuantum {
            bits,
            e_tx: Joules::new(bits * c_tx),
            e_rx: Joules::new(bits * c_rx),
            slices,
            nslices,
            last,
        });
        self.schedule(finish, p, Kind::QuantumDone);
        telemetry::emit(telemetry::Event::CarrierGrant {
            at: now,
            track: telemetry::Track::Pair(p as u32),
        });
    }

    fn finish_time(&self, p: usize, start: Seconds, airtime: Seconds) -> Seconds {
        let arb = self.sc.arbitration;
        let n = self.pairs.len();
        let mut t = arb.next_transmit_at(p, n, start);
        let mut left = airtime.seconds();
        let Some(we) = arb.window_end(p, n, t) else {
            return Seconds::new(t.seconds() + left);
        };
        let usable = we.seconds() - t.seconds();
        if left <= usable {
            return Seconds::new(t.seconds() + left);
        }
        left -= usable;
        t = arb.next_transmit_at(p, n, we);
        let Arbitration::TdmaRoundRobin { slot } = arb else {
            unreachable!("only TDMA has bounded windows");
        };
        let s = slot.seconds();
        let period = s * n as f64;
        let full = (left / s).floor();
        if full >= 1.0 {
            t = Seconds::new(t.seconds() + full * period);
            left -= full * s;
        }
        if left >= s {
            t = Seconds::new(t.seconds() + period);
            left -= s;
        }
        Seconds::new(t.seconds() + left)
    }

    fn interference_for(&mut self, p: usize) -> Watts {
        if !self.sc.arbitration.carriers_overlap() {
            return Watts::ZERO;
        }
        let sc = self.sc;
        let devices = &self.devices;
        let victim = devices[sc.pairs[p].rx].pos;
        self.gains.interference(p, |q| {
            let qp = &sc.pairs[q];
            let a = devices[qp.tx].pos;
            let b = devices[qp.rx].pos;
            let pos = if a.distance(victim) <= b.distance(victim) {
                a
            } else {
                b
            };
            carrier_contribution(
                &sc.ch,
                victim,
                &CarrierSource {
                    pos,
                    rf: sc.ch.carrier_rf,
                    relation: sc.arbitration.relation(p, q),
                },
            )
        })
    }

    fn pair_distance(&mut self, p: usize, now: Seconds) -> Meters {
        let (tx, rx) = (self.sc.pairs[p].tx, self.sc.pairs[p].rx);
        match self.sc.pairs[p].walk {
            None => self.devices[tx].pos.distance(self.devices[rx].pos),
            Some(walk) => {
                let mut w = walk;
                let d = w.distance_at(now);
                let dir = self.pairs[p].dir;
                self.devices[rx].pos = self.devices[tx].pos.offset_along(dir, d);
                self.gains.invalidate_pair(p);
                d
            }
        }
    }

    fn charge(&mut self, dev: usize, e: Joules, now: Seconds) {
        telemetry::emit(telemetry::Event::EnergyDebit {
            at: now,
            track: telemetry::Track::Device(dev as u32),
            joules: e,
        });
        let d = &mut self.devices[dev];
        d.spent += e;
        d.battery.draw(e);
        if d.battery.is_dead() && d.dead_at.is_none() {
            d.dead_at = Some(now);
        }
    }

    fn kill(&mut self, p: usize, now: Seconds) {
        self.gains.mark_dead(p);
        if !self.pairs[p].fsm.is_dead() {
            self.pairs[p]
                .fsm
                .on(FsmEvent::BatteryDead)
                .expect("live states accept BatteryDead");
            telemetry::emit(telemetry::Event::SessionDead {
                at: now,
                track: telemetry::Track::Pair(p as u32),
                reason: telemetry::DeathReason::BatteryDead,
            });
        }
        if self.pairs[p].dead_at.is_none() {
            self.pairs[p].dead_at = Some(now);
        }
        self.abort_pending(p, now);
    }

    fn abort_pending(&mut self, p: usize, at: Seconds) {
        let Some(pending) = self.pairs[p].pending.take() else {
            return;
        };
        if telemetry::enabled() {
            let track = telemetry::Track::Pair(p as u32);
            for (mode, rate, bits, ..) in pending.slices() {
                telemetry::emit(telemetry::Event::QuantumLost {
                    at,
                    track,
                    mode: (*mode).into(),
                    rate: (*rate).into(),
                    bits: *bits,
                });
            }
            telemetry::emit(telemetry::Event::CarrierRelease { at, track });
        }
    }

    fn schedule(&mut self, t: Seconds, p: usize, kind: Kind) {
        self.q
            .schedule(t, kind.rank(), p as u32, Ev { pair: p, kind });
    }

    // The baseline engine keeps `is_live` reachable so debug builds of the
    // equivalence gate can cross-check cache liveness if they want to.
    #[allow(dead_code)]
    fn cache_live(&self, q: usize) -> bool {
        self.gains.is_live(q)
    }
}
