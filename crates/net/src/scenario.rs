//! Fleet scenarios: device placement, batteries, traffic pairs, and the
//! knobs of a multi-device run.
//!
//! Two canonical topologies cover the paper's deployment stories:
//!
//! * [`FleetScenario::independent_pairs`] — M unrelated pairs sharing a
//!   room (the §7 coexistence question at fleet scale): each pair sits on
//!   its own line position, transmitter and receiver `pair_sep` apart.
//! * [`FleetScenario::star`] — a hub (reader/phone) with K harvesting tags
//!   on a ring around it: the sensor-deployment shape where one
//!   well-provisioned device carries the carrier burden for a fleet of
//!   coin-cell tags.
//!
//! [`FleetScenario::open_system`] leaves the closed world: a hub grid plus
//! a Poisson stream of tags that arrive, dwell, roam, and leave mid-run.
//! The whole roster — every arrival instant, position, battery, dwell and
//! roam decision — is materialized **here, at construction time**, from
//! one seeded [`rand`] stream. The engine never draws randomness: it
//! replays the roster through the DES kernel, which is what keeps an
//! open-system run byte-identical at any `--jobs` (DESIGN.md §13).

use crate::arbitration::Arbitration;
use crate::discovery::DiscoveryConfig;
use crate::lifecycle::LifecyclePolicy;
use braidio_mac::mobility::LinearWalk;
use braidio_radio::characterization::Characterization;
use braidio_radio::switching::SwitchingOverhead;
use braidio_radio::Mode;
use braidio_rfsim::geometry::{line, ring, Point};
use braidio_units::{Joules, Meters, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One device: a position and a battery.
#[derive(Debug, Clone, Copy)]
pub struct DeviceSpec {
    /// Placement in the room.
    pub pos: Point,
    /// Battery capacity.
    pub battery: Joules,
}

/// One traffic pair: `tx` streams to `rx` (unidirectional, the Fig. 15
/// traffic shape).
#[derive(Debug, Clone, Copy)]
pub struct PairSpec {
    /// Transmitting device (index into the scenario's device list).
    pub tx: usize,
    /// Receiving device.
    pub rx: usize,
    /// Pin the pair to a single mode instead of braiding (comparators).
    pub pinned_mode: Option<Mode>,
    /// Optional mobility: the separation follows this walk (the receiver
    /// is displaced along the pair's axis; the transmitter stays put).
    pub walk: Option<LinearWalk>,
    /// Open-system arrival instant: the session enters Init (paying
    /// detector-only power) at this time instead of associating at the
    /// closed-scenario stagger. `None` for closed scenarios.
    pub arrival: Option<Seconds>,
    /// Open-system dwell end: the session departs gracefully at this time
    /// (if still alive). `None` for closed scenarios.
    pub departure: Option<Seconds>,
}

impl PairSpec {
    /// A plain braided pair.
    pub fn braided(tx: usize, rx: usize) -> Self {
        PairSpec {
            tx,
            rx,
            pinned_mode: None,
            walk: None,
            arrival: None,
            departure: None,
        }
    }

    /// An open-system session: `tx` streams to `rx` from `arrival` until
    /// `departure`.
    pub fn session(tx: usize, rx: usize, arrival: Seconds, departure: Seconds) -> Self {
        PairSpec {
            tx,
            rx,
            pinned_mode: None,
            walk: None,
            arrival: Some(arrival),
            departure: Some(departure),
        }
    }
}

/// Open-system knobs the engine needs at run time. The arrival stream
/// itself is *not* here — it is baked into the pair list at construction
/// ([`FleetScenario::open_system`]); these are the policies that interpret
/// it, the report window, and the seed the roster was drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// The seed the roster was drawn from (reproducibility handle).
    pub seed: u64,
    /// Lifecycle thresholds and timers.
    pub lifecycle: LifecyclePolicy,
    /// Beacon schedule and detector economics for admission.
    pub discovery: DiscoveryConfig,
    /// Steady-state sliding window: goodput/fairness are reported over the
    /// last `window` seconds of the horizon, not the whole run.
    pub window: Seconds,
}

/// A complete fleet experiment description.
#[derive(Debug, Clone)]
pub struct FleetScenario {
    /// Link characterization shared by every pair (one hardware build).
    pub ch: Characterization,
    /// Table 5 mode-switch costs.
    pub switching: SwitchingOverhead,
    /// The devices.
    pub devices: Vec<DeviceSpec>,
    /// The traffic pairs.
    pub pairs: Vec<PairSpec>,
    /// Who may put a carrier up, when.
    pub arbitration: Arbitration,
    /// Link-layer packet size in bits (matches `mac::sim`'s default).
    pub packet_bits: f64,
    /// Packets per braid quantum (the switch-amortization unit).
    pub quantum_packets: f64,
    /// Re-plan cadence per pair.
    pub replan_interval: Seconds,
    /// Simulation horizon: events past this instant are not delivered.
    pub horizon: Seconds,
    /// Charge association/status/probe control traffic (§4.2 steps 1–2).
    /// Off for cross-validation against `mac::sim`, which charges neither.
    pub control_overhead: bool,
    /// Open-system churn: present iff this is an
    /// [`open_system`](Self::open_system) scenario, whose sessions run its
    /// lifecycle policy. Closed scenarios keep `None` and run
    /// [`LifecyclePolicy::closed`]: their pairs are born `Live` on the
    /// fixed association stagger, never warm up, degrade or cool down, and
    /// end on a battery death or an empty probe round. They never depart
    /// and emit no phase telemetry.
    pub churn: Option<ChurnConfig>,
}

impl FleetScenario {
    /// A scenario with the `mac::sim` defaults for everything but the
    /// topology.
    pub fn new(devices: Vec<DeviceSpec>, pairs: Vec<PairSpec>, arbitration: Arbitration) -> Self {
        let s = Self::unvalidated(devices, pairs, arbitration);
        s.validate();
        s
    }

    /// The `new` defaults without the validation pass — for constructors
    /// (like [`open_system`](Self::open_system)) that must set `churn`
    /// before the pair list is legal to validate.
    fn unvalidated(
        devices: Vec<DeviceSpec>,
        pairs: Vec<PairSpec>,
        arbitration: Arbitration,
    ) -> Self {
        FleetScenario {
            ch: Characterization::braidio(),
            switching: SwitchingOverhead::table5(),
            devices,
            pairs,
            arbitration,
            packet_bits: 2120.0,
            quantum_packets: 100.0,
            replan_interval: Seconds::new(10.0),
            horizon: Seconds::new(600.0),
            control_overhead: true,
            churn: None,
        }
    }

    /// Same scenario with a different horizon.
    pub fn with_horizon(mut self, horizon: Seconds) -> Self {
        self.horizon = horizon;
        self
    }

    /// Same scenario without control-plane energy accounting.
    pub fn without_control_overhead(mut self) -> Self {
        self.control_overhead = false;
        self
    }

    /// `m` unrelated transmitter→receiver pairs in a row: pair `i`'s
    /// transmitter at `(i·spacing, 0)`, its receiver `pair_sep` away at
    /// `(i·spacing, pair_sep)`. Every transmitter holds `tx_wh` watt-hours,
    /// every receiver `rx_wh`.
    pub fn independent_pairs(
        m: usize,
        pair_sep: Meters,
        spacing: Meters,
        tx_wh: f64,
        rx_wh: f64,
        arbitration: Arbitration,
    ) -> Self {
        let tx_pos = line(Point::ORIGIN, spacing, m);
        let mut devices = Vec::with_capacity(2 * m);
        let mut pairs = Vec::with_capacity(m);
        for (i, p) in tx_pos.into_iter().enumerate() {
            devices.push(DeviceSpec {
                pos: p,
                battery: Joules::from_watt_hours(tx_wh),
            });
            devices.push(DeviceSpec {
                pos: Point::new(p.x, p.y + pair_sep.meters()),
                battery: Joules::from_watt_hours(rx_wh),
            });
            pairs.push(PairSpec::braided(2 * i, 2 * i + 1));
        }
        FleetScenario::new(devices, pairs, arbitration)
    }

    /// `m` unrelated pairs on a √m × √m room grid — the large-fleet
    /// counterpart of [`independent_pairs`](Self::independent_pairs), which
    /// at hundreds of pairs would degenerate into an implausibly long
    /// corridor. Pair `i` sits at column `i mod side`, row `i / side` with
    /// `spacing` between grid points; its receiver is `pair_sep` away along
    /// the row axis' perpendicular.
    pub fn grid_pairs(
        m: usize,
        pair_sep: Meters,
        spacing: Meters,
        tx_wh: f64,
        rx_wh: f64,
        arbitration: Arbitration,
    ) -> Self {
        let side = (m as f64).sqrt().ceil() as usize;
        let mut devices = Vec::with_capacity(2 * m);
        let mut pairs = Vec::with_capacity(m);
        for i in 0..m {
            let col = (i % side) as f64;
            let row = (i / side) as f64;
            let p = Point::new(col * spacing.meters(), row * spacing.meters());
            devices.push(DeviceSpec {
                pos: p,
                battery: Joules::from_watt_hours(tx_wh),
            });
            devices.push(DeviceSpec {
                pos: Point::new(p.x, p.y + pair_sep.meters()),
                battery: Joules::from_watt_hours(rx_wh),
            });
            pairs.push(PairSpec::braided(2 * i, 2 * i + 1));
        }
        FleetScenario::new(devices, pairs, arbitration)
    }

    /// A city block: `m` traffic pairs tiled as alternating *mesh* and
    /// *star* blocks on a coarse street grid — the 10⁴-pair stress shape
    /// mixing both canonical topologies in one interference field.
    ///
    /// Blocks hold [`Self::CITY_BLOCK_PAIRS`] pairs each and sit on a
    /// `⌈√blocks⌉`-wide grid with 12 m pitch. Even blocks are a 2×2 mesh of
    /// independent 0.5 m pairs (3 m pitch, 1 Wh each side); odd blocks are
    /// a 4-tag star around a mains-class 99.5 Wh hub at the block centre,
    /// tags at 0.5 m holding 1 Wh (large enough that no session dies inside
    /// a short stress horizon — every death dirties the whole interference
    /// field, which is a different benchmark). Construction stops at
    /// exactly `m` pairs, so the last block may be partial.
    pub fn city_block(m: usize, arbitration: Arbitration) -> Self {
        const BLOCK_PITCH: f64 = 12.0;
        const MESH_PITCH: f64 = 3.0;
        const PAIR_SEP: f64 = 0.5;
        let nblocks = m.div_ceil(Self::CITY_BLOCK_PAIRS);
        let side = (nblocks as f64).sqrt().ceil() as usize;
        let mut devices = Vec::with_capacity(2 * m + nblocks);
        let mut pairs = Vec::with_capacity(m);
        'blocks: for b in 0..nblocks {
            let bx = (b % side) as f64 * BLOCK_PITCH;
            let by = (b / side) as f64 * BLOCK_PITCH;
            if b % 2 == 0 {
                // Mesh block: 2×2 independent pairs.
                for k in 0..Self::CITY_BLOCK_PAIRS {
                    if pairs.len() == m {
                        break 'blocks;
                    }
                    let px = bx + (k % 2) as f64 * MESH_PITCH;
                    let py = by + (k / 2) as f64 * MESH_PITCH;
                    let tx = devices.len();
                    devices.push(DeviceSpec {
                        pos: Point::new(px, py),
                        battery: Joules::from_watt_hours(1.0),
                    });
                    devices.push(DeviceSpec {
                        pos: Point::new(px, py + PAIR_SEP),
                        battery: Joules::from_watt_hours(1.0),
                    });
                    pairs.push(PairSpec::braided(tx, tx + 1));
                }
            } else {
                // Star block: hub at the block centre, tags on a ring.
                let want = Self::CITY_BLOCK_PAIRS.min(m - pairs.len());
                if want == 0 {
                    break 'blocks;
                }
                let centre = Point::new(bx + MESH_PITCH / 2.0, by + MESH_PITCH / 2.0);
                let hub = devices.len();
                devices.push(DeviceSpec {
                    pos: centre,
                    battery: Joules::from_watt_hours(99.5),
                });
                for p in ring(centre, Meters::new(PAIR_SEP), want) {
                    let tag = devices.len();
                    devices.push(DeviceSpec {
                        pos: p,
                        battery: Joules::from_watt_hours(1.0),
                    });
                    pairs.push(PairSpec::braided(tag, hub));
                }
            }
        }
        FleetScenario::new(devices, pairs, arbitration)
    }

    /// Traffic pairs per city block (see [`Self::city_block`]).
    pub const CITY_BLOCK_PAIRS: usize = 4;

    /// A star: one hub at the origin with `k` tags on a ring of radius
    /// `radius`, each tag streaming (backscatter-friendly direction) to the
    /// hub. Device 0 is the hub.
    pub fn star(
        k: usize,
        radius: Meters,
        hub_wh: f64,
        tag_wh: f64,
        arbitration: Arbitration,
    ) -> Self {
        let mut devices = vec![DeviceSpec {
            pos: Point::ORIGIN,
            battery: Joules::from_watt_hours(hub_wh),
        }];
        let mut pairs = Vec::with_capacity(k);
        for (i, p) in ring(Point::ORIGIN, radius, k).into_iter().enumerate() {
            devices.push(DeviceSpec {
                pos: p,
                battery: Joules::from_watt_hours(tag_wh),
            });
            pairs.push(PairSpec::braided(i + 1, 0));
        }
        FleetScenario::new(devices, pairs, arbitration)
    }

    /// An open system: a grid of mains-class hubs and a Poisson stream of
    /// tags that arrive, dwell, sometimes roam to a second hub, and leave.
    ///
    /// * `hubs` hubs sit on a `⌈√hubs⌉` grid with 8 m pitch, 99.5 Wh each.
    /// * Sessions arrive as a Poisson process with rate
    ///   `expected_sessions / horizon` (exponential inter-arrivals), so on
    ///   average `expected_sessions` tags show up before the horizon; the
    ///   exact count is a pure function of `seed`.
    /// * Each tag lands uniformly in the room, streams to its nearest hub
    ///   (the backscatter-friendly direction, as in [`Self::star`]), and
    ///   dwells for an exponential time with mean `horizon / 6`.
    /// * With probability 0.1 (and at least two hubs) the session *roams*:
    ///   the dwell splits at a uniform point in its middle and the second
    ///   leg streams to the second-nearest hub — two pair rows over one
    ///   tag device, with disjoint `[arrival, departure)` windows.
    /// * With probability 0.08 the tag is *frail* (a 0.2 mWh residual
    ///   coin cell that browns out mid-session under active-mode
    ///   braiding); otherwise it holds 1 Wh.
    ///
    /// Every draw happens here, from one `StdRng` stream seeded with
    /// `seed`; the returned scenario is pure data and the engine replays
    /// it deterministically (the arrival-stream determinism rule,
    /// DESIGN.md §13). The run reports steady-state metrics over the last
    /// `horizon / 3` ([`ChurnConfig::window`]).
    pub fn open_system(
        hubs: usize,
        expected_sessions: usize,
        horizon: Seconds,
        seed: u64,
        arbitration: Arbitration,
    ) -> Self {
        const HUB_PITCH: f64 = 8.0;
        const ROAM_PROB: f64 = 0.1;
        const FRAIL_PROB: f64 = 0.08;
        assert!(hubs >= 1, "an open system needs at least one hub");
        assert!(expected_sessions >= 1, "an open system needs traffic");
        assert!(horizon.seconds() > 0.0, "horizon must be positive");

        let side = (hubs as f64).sqrt().ceil() as usize;
        let mut devices: Vec<DeviceSpec> = (0..hubs)
            .map(|h| DeviceSpec {
                pos: Point::new((h % side) as f64 * HUB_PITCH, (h / side) as f64 * HUB_PITCH),
                battery: Joules::from_watt_hours(99.5),
            })
            .collect();
        // The room extends half a pitch beyond the hub grid on every side.
        let lo = -HUB_PITCH / 2.0;
        let hi = (side.max(2) - 1) as f64 * HUB_PITCH + HUB_PITCH / 2.0;

        let rate = expected_sessions as f64 / horizon.seconds();
        let mean_dwell = horizon.seconds() / 6.0;
        let mut rng = StdRng::seed_from_u64(seed);
        // Exponential draw with the given mean; `1 - U` keeps the argument
        // in (0, 1] so the log is finite.
        let exp = |rng: &mut StdRng, mean: f64| -> f64 {
            -(1.0 - rng.random_range(0.0..1.0)).ln() * mean
        };

        let mut pairs = Vec::new();
        let mut t = exp(&mut rng, 1.0 / rate);
        while t < horizon.seconds() {
            let pos = Point::new(rng.random_range(lo..hi), rng.random_range(lo..hi));
            let frail = rng.random_bool(FRAIL_PROB);
            let dwell = exp(&mut rng, mean_dwell).max(1e-3);
            let roam = rng.random_bool(ROAM_PROB);
            // Two nearest hubs (ties broken by index: stable under any
            // iteration order because the scan is index-ordered).
            let mut best = (0usize, f64::INFINITY);
            let mut second = (0usize, f64::INFINITY);
            for (h, hub) in devices.iter().enumerate().take(hubs) {
                let d = pos.distance(hub.pos).meters();
                if d < best.1 {
                    second = best;
                    best = (h, d);
                } else if d < second.1 {
                    second = (h, d);
                }
            }
            let tag = devices.len();
            devices.push(DeviceSpec {
                pos,
                battery: Joules::from_watt_hours(if frail { 2e-4 } else { 1.0 }),
            });
            let arrival = Seconds::new(t);
            let departure = Seconds::new(t + dwell);
            if roam && hubs >= 2 {
                let split = t + dwell * rng.random_range(0.3..0.7);
                pairs.push(PairSpec::session(tag, best.0, arrival, Seconds::new(split)));
                pairs.push(PairSpec::session(
                    tag,
                    second.0,
                    Seconds::new(split),
                    departure,
                ));
            } else {
                pairs.push(PairSpec::session(tag, best.0, arrival, departure));
            }
            t += exp(&mut rng, 1.0 / rate);
        }
        assert!(
            !pairs.is_empty(),
            "seed {seed} produced no arrivals before the horizon; raise expected_sessions"
        );

        let mut s = FleetScenario::unvalidated(devices, pairs, arbitration);
        s.horizon = horizon;
        s.replan_interval = Seconds::new(1.0);
        s.churn = Some(ChurnConfig {
            seed,
            lifecycle: LifecyclePolicy::default(),
            discovery: DiscoveryConfig::default(),
            window: Seconds::new(horizon.seconds() / 3.0),
        });
        s.validate();
        s
    }

    /// Panics if a pair references a missing device or loops on itself.
    pub fn validate(&self) {
        assert!(!self.devices.is_empty(), "a fleet needs devices");
        assert!(!self.pairs.is_empty(), "a fleet needs traffic");
        assert!(
            self.packet_bits > 0.0 && self.quantum_packets > 0.0,
            "packetization must be positive"
        );
        assert!(
            self.replan_interval.seconds() > 0.0 && self.horizon.seconds() > 0.0,
            "timers must be positive"
        );
        for (i, p) in self.pairs.iter().enumerate() {
            assert!(
                p.tx < self.devices.len() && p.rx < self.devices.len(),
                "pair {i} references a missing device"
            );
            assert!(p.tx != p.rx, "pair {i} loops device {} on itself", p.tx);
            match (self.churn.is_some(), p.arrival, p.departure) {
                (true, Some(a), Some(d)) => {
                    assert!(
                        a.seconds() >= 0.0 && d.seconds() > a.seconds(),
                        "pair {i}: departure must follow arrival"
                    );
                }
                (true, _, _) => panic!("pair {i}: churn scenarios need arrival and departure"),
                (false, None, None) => {}
                (false, _, _) => {
                    panic!("pair {i}: arrival/departure require an open-system scenario")
                }
            }
        }
        if let Some(c) = &self.churn {
            assert!(
                c.window.seconds() > 0.0 && c.window.seconds() <= self.horizon.seconds(),
                "steady-state window must fit the horizon"
            );
            assert!(
                c.discovery.beacon_interval.seconds() > 0.0
                    && c.lifecycle.cooldown.iter().all(|t| t.seconds() > 0.0),
                "churn timers must be positive"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_pairs_layout() {
        let s = FleetScenario::independent_pairs(
            3,
            Meters::new(0.5),
            Meters::new(10.0),
            1.0,
            1.0,
            Arbitration::Uncoordinated,
        );
        assert_eq!(s.devices.len(), 6);
        assert_eq!(s.pairs.len(), 3);
        // Pair separation is pair_sep; neighbouring pairs sit spacing apart.
        let d01 = s.devices[0].pos.distance(s.devices[1].pos);
        assert!((d01.meters() - 0.5).abs() < 1e-12);
        let d02 = s.devices[0].pos.distance(s.devices[2].pos);
        assert!((d02.meters() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn star_layout_centers_the_hub() {
        let s = FleetScenario::star(
            4,
            Meters::new(0.5),
            99.5,
            0.003,
            Arbitration::TdmaRoundRobin {
                slot: Seconds::new(0.1),
            },
        );
        assert_eq!(s.devices.len(), 5);
        for p in &s.pairs {
            assert_eq!(p.rx, 0, "tags stream to the hub");
            let d = s.devices[p.tx].pos.distance(s.devices[0].pos);
            assert!((d.meters() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn city_block_mixes_meshes_and_stars_and_stops_at_m() {
        let s = FleetScenario::city_block(10, Arbitration::Uncoordinated);
        s.validate();
        assert_eq!(s.pairs.len(), 10);
        // Block 0: full mesh (4 pairs, 8 devices). Block 1: full star (hub
        // + 4 tags). Block 2: partial mesh (2 pairs, 4 devices).
        assert_eq!(s.devices.len(), 8 + 5 + 4);
        // The star block's pairs all stream to its hub (device 8), which
        // carries the big battery.
        for p in &s.pairs[4..8] {
            assert_eq!(p.rx, 8);
        }
        assert!(s.devices[8].battery.joules() > s.devices[0].battery.joules());
        // A partial star block still places its hub before the tags.
        let s5 = FleetScenario::city_block(5, Arbitration::Uncoordinated);
        assert_eq!(s5.pairs.len(), 5);
        assert_eq!(s5.devices.len(), 8 + 2);
        assert_eq!(s5.pairs[4].rx, 8);
    }

    #[test]
    fn open_system_roster_is_a_pure_function_of_the_seed() {
        let mk = |seed| {
            FleetScenario::open_system(4, 40, Seconds::new(60.0), seed, Arbitration::Uncoordinated)
        };
        let (a, b) = (mk(7), mk(7));
        assert_eq!(a.devices.len(), b.devices.len());
        assert_eq!(a.pairs.len(), b.pairs.len());
        for (x, y) in a.pairs.iter().zip(&b.pairs) {
            assert_eq!(x.tx, y.tx);
            assert_eq!(x.rx, y.rx);
            assert_eq!(
                x.arrival.unwrap().seconds().to_bits(),
                y.arrival.unwrap().seconds().to_bits()
            );
            assert_eq!(
                x.departure.unwrap().seconds().to_bits(),
                y.departure.unwrap().seconds().to_bits()
            );
        }
        for (x, y) in a.devices.iter().zip(&b.devices) {
            assert_eq!(x.pos.x.to_bits(), y.pos.x.to_bits());
            assert_eq!(x.battery.joules().to_bits(), y.battery.joules().to_bits());
        }
        // A different seed draws a different roster.
        let c = mk(8);
        let same = a.pairs.len() == c.pairs.len()
            && a.pairs.iter().zip(&c.pairs).all(|(x, y)| {
                x.arrival.unwrap().seconds().to_bits() == y.arrival.unwrap().seconds().to_bits()
            });
        assert!(!same, "seed must matter");
    }

    #[test]
    fn open_system_shape_is_plausible() {
        let s =
            FleetScenario::open_system(4, 60, Seconds::new(60.0), 1, Arbitration::Uncoordinated);
        let c = s.churn.expect("open system carries churn config");
        assert_eq!(c.seed, 1);
        // Arrival count is Poisson(60): comfortably within ±50%.
        let tags = s.devices.len() - 4;
        assert!((30..=90).contains(&tags), "{tags} tags");
        // Pairs >= tags (roaming splits add rows), all stream to a hub.
        assert!(s.pairs.len() >= tags);
        let mut roams = 0;
        for p in &s.pairs {
            assert!(p.rx < 4, "sessions stream tag -> hub");
            assert!(p.tx >= 4);
            assert!(p.arrival.unwrap().seconds() < s.horizon.seconds());
            if s.pairs.iter().filter(|q| q.tx == p.tx).count() == 2 {
                roams += 1;
            }
        }
        assert!(roams > 0, "some sessions should roam at 60 arrivals");
        // Roam legs of one tag tile its dwell: leg 1 ends where leg 2 starts.
        for w in s.pairs.windows(2) {
            if w[0].tx == w[1].tx {
                assert_eq!(
                    w[0].departure.unwrap().seconds().to_bits(),
                    w[1].arrival.unwrap().seconds().to_bits()
                );
                assert_ne!(w[0].rx, w[1].rx, "roam must change hubs");
            }
        }
    }

    #[test]
    #[should_panic(expected = "need arrival and departure")]
    fn validate_catches_closed_pairs_in_churn() {
        let mut s =
            FleetScenario::open_system(2, 20, Seconds::new(30.0), 3, Arbitration::Uncoordinated);
        s.pairs[0].arrival = None;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "missing device")]
    fn validate_catches_dangling_pair() {
        let devices = vec![DeviceSpec {
            pos: Point::ORIGIN,
            battery: Joules::from_watt_hours(1.0),
        }];
        let _ = FleetScenario::new(
            devices,
            vec![PairSpec::braided(0, 3)],
            Arbitration::Uncoordinated,
        );
    }
}
