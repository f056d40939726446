//! The closed event vocabulary.
//!
//! Everything here is `Copy` and allocation-free: emitting an event when
//! telemetry is enabled costs one thread-local `Vec` push. The payload
//! types ([`ModeTag`], [`RateTag`]) mirror `braidio-radio`'s `Mode` and
//! `Rate` without depending on that crate — the telemetry bus sits *below*
//! `braidio-pool` in the dependency order (the pool merges telemetry
//! batches), and the radio stack sits above the pool.

use braidio_units::{Joules, Seconds};

/// What an event is about: one device, or one traffic pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// A device, by fleet index (the pairwise simulators use 0 = side 1,
    /// 1 = side 2).
    Device(u32),
    /// A traffic pair, by pair index (0 for pairwise simulators).
    Pair(u32),
}

impl Track {
    /// The compact track code used in sinks: `d3` / `p0`.
    pub fn code(&self) -> String {
        match self {
            Track::Device(d) => format!("d{d}"),
            Track::Pair(p) => format!("p{p}"),
        }
    }
}

/// Why a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeathReason {
    /// A battery was exhausted.
    BatteryDead,
    /// No mode closes the link (out of range / interference).
    NoViableMode,
    /// The device's dwell time ended: a graceful open-system departure.
    Departed,
    /// The session ran out of cooldown retries and gave up.
    GaveUp,
}

impl DeathReason {
    /// The snake_case code used in sinks.
    pub fn code(&self) -> &'static str {
        match self {
            DeathReason::BatteryDead => "battery_dead",
            DeathReason::NoViableMode => "no_viable_mode",
            DeathReason::Departed => "departed",
            DeathReason::GaveUp => "gave_up",
        }
    }
}

/// A session lifecycle phase, as carried by [`Event::PhaseChange`].
///
/// Mirrors `braidio-net`'s `lifecycle::LinkPhase` without depending on that
/// crate (telemetry sits below the radio stack in the dependency order);
/// the codes are the contract between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseTag {
    /// Undiscovered: detector-only listening.
    Init,
    /// Admitted, measuring options.
    Probe,
    /// Plan installed, ramping.
    Warm,
    /// Steady-state exchange.
    Live,
    /// Energy-degraded, pinned to the cheapest mode.
    Degrade,
    /// Quiesced, awaiting retry or drop.
    Cooldown,
    /// Terminal.
    Dead,
}

impl PhaseTag {
    /// The snake_case code used in sinks.
    pub fn code(&self) -> &'static str {
        match self {
            PhaseTag::Init => "init",
            PhaseTag::Probe => "probe",
            PhaseTag::Warm => "warm",
            PhaseTag::Live => "live",
            PhaseTag::Degrade => "degrade",
            PhaseTag::Cooldown => "cooldown",
            PhaseTag::Dead => "dead",
        }
    }
}

/// A Braidio operating mode, as carried by events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModeTag {
    /// Both endpoints generate the carrier.
    Active,
    /// Carrier at the data transmitter; passive receiver.
    Passive,
    /// Carrier at the data receiver; backscattering transmitter.
    Backscatter,
}

impl ModeTag {
    /// The snake_case code used in sinks.
    pub fn code(&self) -> &'static str {
        match self {
            ModeTag::Active => "active",
            ModeTag::Passive => "passive",
            ModeTag::Backscatter => "backscatter",
        }
    }
}

/// A link bitrate, as carried by events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RateTag {
    /// 10 kbit/s.
    Kbps10,
    /// 100 kbit/s.
    Kbps100,
    /// 1 Mbit/s.
    Mbps1,
}

impl RateTag {
    /// The display label, identical to `Rate::label()`.
    pub fn label(&self) -> &'static str {
        match self {
            RateTag::Kbps10 => "10k",
            RateTag::Kbps100 => "100k",
            RateTag::Mbps1 => "1M",
        }
    }
}

/// One simulation event. All timestamps are *simulated* seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// The braid's primary mode changed (`from` is `None` at bring-up).
    ModeSwitch {
        /// Simulated time.
        at: Seconds,
        /// The pair whose braid switched.
        track: Track,
        /// Previous primary mode, if any.
        from: Option<ModeTag>,
        /// New primary mode.
        to: ModeTag,
    },
    /// A probe round re-solved the offload plan.
    Replan {
        /// Simulated time.
        at: Seconds,
        /// The pair that re-planned.
        track: Track,
        /// Whether a viable plan was installed.
        planned: bool,
        /// Whether the installed plan hits the exact power-proportional
        /// ratio (meaningless when `planned` is false).
        exact: bool,
        /// The plan's primary (largest-fraction) mode, if planned.
        primary: Option<ModeTag>,
    },
    /// A carrier reservation began for a pair's quantum in flight.
    CarrierGrant {
        /// Simulated time.
        at: Seconds,
        /// The pair holding the grant.
        track: Track,
    },
    /// The matching end of a [`Event::CarrierGrant`].
    CarrierRelease {
        /// Simulated time.
        at: Seconds,
        /// The pair releasing the grant.
        track: Track,
    },
    /// A braid quantum slice was delivered.
    QuantumDelivered {
        /// Simulated time (completion).
        at: Seconds,
        /// The pair that moved the bits.
        track: Track,
        /// Mode used.
        mode: ModeTag,
        /// Rate used.
        rate: RateTag,
        /// Link bits delivered.
        bits: f64,
    },
    /// A braid quantum slice was lost (session death or horizon cut it).
    QuantumLost {
        /// Simulated time.
        at: Seconds,
        /// The pair that lost the bits.
        track: Track,
        /// Mode in use.
        mode: ModeTag,
        /// Rate in use.
        rate: RateTag,
        /// Link bits lost.
        bits: f64,
    },
    /// Energy drawn from a device's battery. The fleet engine routes every
    /// draw through one emission point, so folding these events
    /// ([`crate::sink::fold_energy`]) reproduces each battery's drain
    /// exactly — the energy-ledger audit.
    EnergyDebit {
        /// Simulated time.
        at: Seconds,
        /// The device paying.
        track: Track,
        /// Energy drawn.
        joules: Joules,
    },
    /// A session ended.
    SessionDead {
        /// Simulated time.
        at: Seconds,
        /// The pair that died.
        track: Track,
        /// Why.
        reason: DeathReason,
    },
    /// A passive wakeup detector fired (association bring-up).
    WakeupDetect {
        /// Simulated time.
        at: Seconds,
        /// The device that woke.
        track: Track,
    },
    /// A session moved between lifecycle phases. Emitted only by
    /// open-system (churn) scenarios; per track, `from` of each event must
    /// equal the `to` of the previous one, a chain the JSONL validator
    /// checks.
    PhaseChange {
        /// Simulated time.
        at: Seconds,
        /// The pair whose session changed phase.
        track: Track,
        /// Phase left.
        from: PhaseTag,
        /// Phase entered.
        to: PhaseTag,
    },
    /// Discovery completed: a hub beacon reached the tag's wake-up
    /// detector and admitted the session to Probe.
    Admitted {
        /// Simulated time (the admission instant).
        at: Seconds,
        /// The pair admitted.
        track: Track,
        /// Seconds the tag waited in Init, paying detector-only power.
        latency: Seconds,
    },
}

impl Event {
    /// The event's simulated timestamp.
    pub fn at(&self) -> Seconds {
        match *self {
            Event::ModeSwitch { at, .. }
            | Event::Replan { at, .. }
            | Event::CarrierGrant { at, .. }
            | Event::CarrierRelease { at, .. }
            | Event::QuantumDelivered { at, .. }
            | Event::QuantumLost { at, .. }
            | Event::EnergyDebit { at, .. }
            | Event::SessionDead { at, .. }
            | Event::WakeupDetect { at, .. }
            | Event::PhaseChange { at, .. }
            | Event::Admitted { at, .. } => at,
        }
    }

    /// The track the event belongs to.
    pub fn track(&self) -> Track {
        match *self {
            Event::ModeSwitch { track, .. }
            | Event::Replan { track, .. }
            | Event::CarrierGrant { track, .. }
            | Event::CarrierRelease { track, .. }
            | Event::QuantumDelivered { track, .. }
            | Event::QuantumLost { track, .. }
            | Event::EnergyDebit { track, .. }
            | Event::SessionDead { track, .. }
            | Event::WakeupDetect { track, .. }
            | Event::PhaseChange { track, .. }
            | Event::Admitted { track, .. } => track,
        }
    }

    /// The snake_case event name used in sinks (the closed set the JSONL
    /// validator accepts).
    pub fn name(&self) -> &'static str {
        match self {
            Event::ModeSwitch { .. } => "mode_switch",
            Event::Replan { .. } => "replan",
            Event::CarrierGrant { .. } => "carrier_grant",
            Event::CarrierRelease { .. } => "carrier_release",
            Event::QuantumDelivered { .. } => "quantum_delivered",
            Event::QuantumLost { .. } => "quantum_lost",
            Event::EnergyDebit { .. } => "energy_debit",
            Event::SessionDead { .. } => "session_dead",
            Event::WakeupDetect { .. } => "wakeup_detect",
            Event::PhaseChange { .. } => "phase_change",
            Event::Admitted { .. } => "admitted",
        }
    }
}

/// An event stamped with its run and unit ids (see the crate docs for the
/// `(run, unit, track)` identity contract).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stamped {
    /// Work-item id: run base (set per experiment) plus the local run set
    /// by [`crate::with_run`] around each parallel work item.
    pub run: u32,
    /// Simulation-session counter within the run; each unit's virtual
    /// clock starts at zero.
    pub unit: u32,
    /// The event.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(Track::Device(3).code(), "d3");
        assert_eq!(Track::Pair(0).code(), "p0");
        assert_eq!(ModeTag::Backscatter.code(), "backscatter");
        assert_eq!(RateTag::Mbps1.label(), "1M");
        assert_eq!(DeathReason::NoViableMode.code(), "no_viable_mode");
        assert_eq!(DeathReason::Departed.code(), "departed");
        assert_eq!(DeathReason::GaveUp.code(), "gave_up");
        assert_eq!(PhaseTag::Cooldown.code(), "cooldown");
    }

    #[test]
    fn accessors_cover_every_variant() {
        let t = Seconds::new(1.5);
        let events = [
            Event::ModeSwitch {
                at: t,
                track: Track::Pair(1),
                from: None,
                to: ModeTag::Active,
            },
            Event::Replan {
                at: t,
                track: Track::Pair(1),
                planned: true,
                exact: false,
                primary: Some(ModeTag::Passive),
            },
            Event::CarrierGrant {
                at: t,
                track: Track::Pair(1),
            },
            Event::CarrierRelease {
                at: t,
                track: Track::Pair(1),
            },
            Event::QuantumDelivered {
                at: t,
                track: Track::Pair(1),
                mode: ModeTag::Backscatter,
                rate: RateTag::Mbps1,
                bits: 512.0,
            },
            Event::QuantumLost {
                at: t,
                track: Track::Pair(1),
                mode: ModeTag::Active,
                rate: RateTag::Kbps10,
                bits: 8.0,
            },
            Event::EnergyDebit {
                at: t,
                track: Track::Device(0),
                joules: Joules::new(1e-6),
            },
            Event::SessionDead {
                at: t,
                track: Track::Pair(1),
                reason: DeathReason::BatteryDead,
            },
            Event::WakeupDetect {
                at: t,
                track: Track::Device(2),
            },
            Event::PhaseChange {
                at: t,
                track: Track::Pair(1),
                from: PhaseTag::Init,
                to: PhaseTag::Probe,
            },
            Event::Admitted {
                at: t,
                track: Track::Pair(1),
                latency: Seconds::new(0.25),
            },
        ];
        let mut names = std::collections::BTreeSet::new();
        for e in events {
            assert_eq!(e.at(), t);
            names.insert(e.name());
        }
        assert_eq!(names.len(), 11, "every variant has a distinct name");
    }
}
