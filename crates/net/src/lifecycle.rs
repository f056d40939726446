//! Per-link session lifecycle: the one state machine of every fleet session.
//!
//! A session's §4.2 control loop (exchange status, probe, plan, braid,
//! re-plan) and an *open* system's arrivals, brown-outs and departures
//! share one notion of "how alive is this link". This module provides it
//! as an explicit phase machine (after the `LinkPhase` exemplar in
//! `strata`, SNIPPETS.md), and the engine runs every fleet on it:
//!
//! ```text
//! Init → Probe → Warm → Live ⇄ Degrade → Cooldown → Probe | Dead
//!          └───────┴───────┴────────┴──────↑
//! ```
//!
//! * **Init** — the device exists but has not been discovered: it pays
//!   wake-up detector power only ([`crate::discovery`]).
//! * **Probe** — a hub beacon admitted the link; it is measuring channel
//!   options but has not committed a plan.
//! * **Warm** — a plan is installed; the link is ramping (the first
//!   [`LifecyclePolicy::warmup_quanta`] quanta are its warm-up).
//! * **Live** — steady state: full-rate quantum exchange.
//! * **Degrade** — an endpoint's battery fell below
//!   [`LifecyclePolicy::degrade_frac`]; the link stays up but the planner
//!   pins the cheapest tag-side mode (backscatter), per BLISP's
//!   fall-back-toward-passive rule (PAPERS.md).
//! * **Cooldown** — the link lost viability (no feasible mode, or battery
//!   below [`LifecyclePolicy::critical_frac`]): traffic stops, the tag
//!   drops back to detector-only power, and after
//!   [`LifecyclePolicy::cooldown`] seconds it either re-probes or — past
//!   [`LifecyclePolicy::max_cooldowns`] attempts — goes Dead. A policy
//!   with no cooldown never enters it: the link goes Dead at once.
//! * **Dead** — terminal: battery exhausted, departed, given up, or no
//!   viable mode under a policy with no cooldown.
//!
//! The machine itself is a pure transition table ([`step`]) so the full
//! legal/illegal surface is unit-testable without an engine; the engine
//! owns *when* events fire, and a [`LifecyclePolicy`] decides which edges
//! a run can reach. A closed scenario (grid, star, city block) is the
//! degenerate case: its pairs exist a priori and are born `Live`, and
//! [`LifecyclePolicy::closed`] (no warm-up, no energy thresholds, no
//! cooldown) leaves them only the edges into `Dead`. The engine emits no
//! phase telemetry for them, which keeps their output byte-identical to
//! the pre-lifecycle engine.

use braidio_units::Seconds;

/// Lifecycle phase of a fleet link.
///
/// Ordering of the variants is meaningful only through [`LinkPhase::index`],
/// which phase-occupancy accounting uses as an array index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkPhase {
    /// Undiscovered: the tag listens through the wake-up detector only.
    #[default]
    Init,
    /// Admitted by a hub beacon; measuring options, no plan yet.
    Probe,
    /// Plan installed; ramping through the warm-up quanta.
    Warm,
    /// Steady-state quantum exchange.
    Live,
    /// Energy-degraded: up, but pinned to the cheapest tag-side mode.
    Degrade,
    /// Quiesced: no traffic, detector-only power, awaiting retry or drop.
    Cooldown,
    /// Terminal: departed, battery-dead, or out of cooldown retries.
    Dead,
}

/// Number of distinct phases (the size of an occupancy array).
pub const PHASE_COUNT: usize = 7;

impl LinkPhase {
    /// Every phase, in [`LinkPhase::index`] order.
    pub const ALL: [LinkPhase; PHASE_COUNT] = [
        LinkPhase::Init,
        LinkPhase::Probe,
        LinkPhase::Warm,
        LinkPhase::Live,
        LinkPhase::Degrade,
        LinkPhase::Cooldown,
        LinkPhase::Dead,
    ];

    /// Stable lowercase code, used in telemetry and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            LinkPhase::Init => "init",
            LinkPhase::Probe => "probe",
            LinkPhase::Warm => "warm",
            LinkPhase::Live => "live",
            LinkPhase::Degrade => "degrade",
            LinkPhase::Cooldown => "cooldown",
            LinkPhase::Dead => "dead",
        }
    }

    /// Dense index into a phase-occupancy array (matches [`LinkPhase::ALL`]).
    pub fn index(&self) -> usize {
        match self {
            LinkPhase::Init => 0,
            LinkPhase::Probe => 1,
            LinkPhase::Warm => 2,
            LinkPhase::Live => 3,
            LinkPhase::Degrade => 4,
            LinkPhase::Cooldown => 5,
            LinkPhase::Dead => 6,
        }
    }

    /// True once no further transition is legal.
    pub fn is_terminal(&self) -> bool {
        matches!(self, LinkPhase::Dead)
    }

    /// True while the link occupies radio spectrum: it probes, plans, and
    /// contributes interference. Init/Cooldown links are radio-silent
    /// (detector-only) and Dead links are gone, so none of them belong in
    /// the [`crate::cache::PairGainCache`] live set.
    pub fn on_air(&self) -> bool {
        matches!(
            self,
            LinkPhase::Probe | LinkPhase::Warm | LinkPhase::Live | LinkPhase::Degrade
        )
    }
}

impl From<LinkPhase> for braidio_telemetry::PhaseTag {
    fn from(phase: LinkPhase) -> Self {
        use braidio_telemetry::PhaseTag as T;
        match phase {
            LinkPhase::Init => T::Init,
            LinkPhase::Probe => T::Probe,
            LinkPhase::Warm => T::Warm,
            LinkPhase::Live => T::Live,
            LinkPhase::Degrade => T::Degrade,
            LinkPhase::Cooldown => T::Cooldown,
            LinkPhase::Dead => T::Dead,
        }
    }
}

/// An observation that may move a link between phases.
///
/// The engine translates raw protocol events (plan installs, quantum
/// completions, battery samples, beacons) into these; the table in [`step`]
/// says which are legal where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseEvent {
    /// A hub beacon reached the tag's wake-up detector: discovery done.
    Admitted,
    /// A replan wave found at least one feasible mode.
    ProbesOk,
    /// A replan wave found no feasible mode at all.
    ProbesEmpty,
    /// The warm-up quantum quota has been delivered.
    WarmedUp,
    /// An endpoint battery dropped below the degrade threshold.
    EnergyLow,
    /// A degraded endpoint recovered above the degrade threshold.
    Recovered,
    /// An endpoint battery dropped below the critical threshold.
    EnergyCritical,
    /// The cooldown timer fired with retries left: go probe again.
    CooldownRetry,
    /// The cooldown timer fired with no retries left: give up.
    CooldownDrop,
    /// The device's dwell time ended: graceful teardown.
    Departed,
    /// An endpoint battery hit zero outright.
    BatteryDead,
}

/// A `(phase, event)` combination outside the legal table.
///
/// Illegal transitions are engine bugs, not simulation outcomes, so the
/// engine unwraps [`step`] — the `Err` form exists so tests can pin the
/// rejection surface exhaustively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalTransition {
    /// The phase the link was in.
    pub from: LinkPhase,
    /// The event that is not legal there.
    pub event: PhaseEvent,
}

impl std::fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "illegal lifecycle transition: {:?} in phase {}",
            self.event,
            self.from.as_str()
        )
    }
}

impl std::error::Error for IllegalTransition {}

/// The transition table: the next phase for `event` observed in `from`.
///
/// Self-loops are legal where the engine may re-observe a condition without
/// meaning a change (a replan succeeding while already Warm/Live/Degrade,
/// energy still low while already Degrade); everything else not listed is
/// an [`IllegalTransition`]. `Dead` is terminal: every event is illegal
/// there, including a second `BatteryDead`.
pub fn step(from: LinkPhase, event: PhaseEvent) -> Result<LinkPhase, IllegalTransition> {
    use LinkPhase as P;
    use PhaseEvent as E;
    let to = match (from, event) {
        // Discovery: the only way out of Init (besides dying unseen).
        (P::Init, E::Admitted) => P::Probe,

        // Probing: a plan promotes, an empty option set quiesces.
        (P::Probe, E::ProbesOk) => P::Warm,
        (P::Probe, E::ProbesEmpty) => P::Cooldown,
        (P::Probe, E::EnergyCritical) => P::Cooldown,

        // Warm-up: quota reached promotes; replans may re-succeed in place.
        (P::Warm, E::WarmedUp) => P::Live,
        (P::Warm, E::ProbesOk) => P::Warm,
        (P::Warm, E::ProbesEmpty) => P::Cooldown,
        (P::Warm, E::EnergyLow) => P::Degrade,
        (P::Warm, E::EnergyCritical) => P::Cooldown,

        // Steady state.
        (P::Live, E::ProbesOk) => P::Live,
        (P::Live, E::ProbesEmpty) => P::Cooldown,
        (P::Live, E::EnergyLow) => P::Degrade,
        (P::Live, E::EnergyCritical) => P::Cooldown,

        // Degraded: may recover, re-plan in place, or collapse further.
        (P::Degrade, E::Recovered) => P::Live,
        (P::Degrade, E::ProbesOk) => P::Degrade,
        (P::Degrade, E::EnergyLow) => P::Degrade,
        (P::Degrade, E::ProbesEmpty) => P::Cooldown,
        (P::Degrade, E::EnergyCritical) => P::Cooldown,

        // Cooldown resolves one of two ways when its timer fires.
        (P::Cooldown, E::CooldownRetry) => P::Probe,
        (P::Cooldown, E::CooldownDrop) => P::Dead,

        // Departure and battery death end any non-terminal phase.
        (p, E::Departed) if !p.is_terminal() => P::Dead,
        (p, E::BatteryDead) if !p.is_terminal() => P::Dead,

        (from, event) => return Err(IllegalTransition { from, event }),
    };
    Ok(to)
}

/// Thresholds and timers that drive lifecycle events.
///
/// The policy is scenario data (an open system carries its own in
/// [`crate::scenario::ChurnConfig`]; a closed fleet runs
/// [`LifecyclePolicy::closed`]), not engine state, so two runs of the same
/// scenario see the same machine regardless of `--jobs`. Every lifecycle
/// decision of the engine reads the policy; its values decide which edges
/// of [`step`]'s table a run can reach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecyclePolicy {
    /// Quanta that must be delivered in Warm before promotion to Live.
    pub warmup_quanta: u32,
    /// Battery fraction (of the smaller endpoint) below which the link
    /// degrades to the cheapest tag-side mode.
    pub degrade_frac: f64,
    /// Battery fraction below which the link quiesces into Cooldown.
    pub critical_frac: f64,
    /// How long a link sits in Cooldown before retrying or dropping.
    /// `None`: the policy never quiesces, so a link that loses viability
    /// (an empty probe round, or critical energy) ends on the spot with
    /// no viable mode.
    pub cooldown: Option<Seconds>,
    /// Cooldown entries after which the link goes Dead instead of
    /// re-probing.
    pub max_cooldowns: u32,
}

impl Default for LifecyclePolicy {
    fn default() -> Self {
        LifecyclePolicy {
            warmup_quanta: 2,
            degrade_frac: 0.25,
            critical_frac: 0.05,
            cooldown: Some(Seconds::new(2.0)),
            max_cooldowns: 2,
        }
    }
}

impl LifecyclePolicy {
    /// The zero-retry policy of a closed fleet: no warm-up quota, no
    /// degrade or critical threshold, and no cooldown. A closed row is
    /// born Live, so the only edges it can reach are the ones into Dead:
    /// battery death, or the end of a link whose probe round came back
    /// empty.
    pub const fn closed() -> Self {
        LifecyclePolicy {
            warmup_quanta: 0,
            degrade_frac: 0.0,
            critical_frac: 0.0,
            cooldown: None,
            max_cooldowns: 0,
        }
    }

    /// Can a battery threshold ever fire? A battery fraction is never
    /// negative, so a policy with neither threshold above zero can skip
    /// reading the batteries after each quantum.
    pub(crate) fn watches_energy(&self) -> bool {
        self.degrade_frac > 0.0 || self.critical_frac > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LinkPhase as P;
    use PhaseEvent as E;

    const EVENTS: [PhaseEvent; 11] = [
        E::Admitted,
        E::ProbesOk,
        E::ProbesEmpty,
        E::WarmedUp,
        E::EnergyLow,
        E::Recovered,
        E::EnergyCritical,
        E::CooldownRetry,
        E::CooldownDrop,
        E::Departed,
        E::BatteryDead,
    ];

    /// The full expected table: every legal `(from, event) -> to` triple.
    /// [`exhaustive_table`] checks both directions: listed combinations
    /// step to exactly this phase, unlisted combinations are rejected.
    const LEGAL: [(LinkPhase, PhaseEvent, LinkPhase); 23] = [
        (P::Init, E::Admitted, P::Probe),
        (P::Init, E::Departed, P::Dead),
        (P::Init, E::BatteryDead, P::Dead),
        (P::Probe, E::ProbesOk, P::Warm),
        (P::Probe, E::ProbesEmpty, P::Cooldown),
        (P::Probe, E::EnergyCritical, P::Cooldown),
        (P::Probe, E::Departed, P::Dead),
        (P::Probe, E::BatteryDead, P::Dead),
        (P::Warm, E::WarmedUp, P::Live),
        (P::Warm, E::ProbesOk, P::Warm),
        (P::Warm, E::ProbesEmpty, P::Cooldown),
        (P::Warm, E::EnergyLow, P::Degrade),
        (P::Warm, E::EnergyCritical, P::Cooldown),
        (P::Warm, E::Departed, P::Dead),
        (P::Warm, E::BatteryDead, P::Dead),
        (P::Live, E::ProbesOk, P::Live),
        (P::Live, E::ProbesEmpty, P::Cooldown),
        (P::Live, E::EnergyLow, P::Degrade),
        (P::Live, E::EnergyCritical, P::Cooldown),
        (P::Live, E::Departed, P::Dead),
        (P::Live, E::BatteryDead, P::Dead),
        (P::Degrade, E::Recovered, P::Live),
        (P::Degrade, E::ProbesOk, P::Degrade),
    ];

    /// The remainder of the legal table (split to keep each literal array
    /// readable; both halves are fed to the same exhaustive check).
    const LEGAL_TAIL: [(LinkPhase, PhaseEvent, LinkPhase); 7] = [
        (P::Degrade, E::EnergyLow, P::Degrade),
        (P::Degrade, E::ProbesEmpty, P::Cooldown),
        (P::Degrade, E::EnergyCritical, P::Cooldown),
        (P::Degrade, E::Departed, P::Dead),
        (P::Degrade, E::BatteryDead, P::Dead),
        (P::Cooldown, E::CooldownRetry, P::Probe),
        (P::Cooldown, E::CooldownDrop, P::Dead),
    ];

    /// Cooldown also ends on departure or outright battery death.
    const LEGAL_COOLDOWN_EXITS: [(LinkPhase, PhaseEvent, LinkPhase); 2] = [
        (P::Cooldown, E::Departed, P::Dead),
        (P::Cooldown, E::BatteryDead, P::Dead),
    ];

    #[test]
    fn exhaustive_table() {
        let legal: Vec<_> = LEGAL
            .iter()
            .chain(&LEGAL_TAIL)
            .chain(&LEGAL_COOLDOWN_EXITS)
            .copied()
            .collect();
        for from in LinkPhase::ALL {
            for event in EVENTS {
                let expect = legal
                    .iter()
                    .find(|(f, e, _)| *f == from && *e == event)
                    .map(|&(_, _, to)| to);
                match (step(from, event), expect) {
                    (Ok(got), Some(want)) => {
                        assert_eq!(got, want, "{from:?} + {event:?}")
                    }
                    (Err(ill), None) => {
                        assert_eq!(ill, IllegalTransition { from, event });
                    }
                    (Ok(got), None) => {
                        panic!("{from:?} + {event:?} should be illegal, stepped to {got:?}")
                    }
                    (Err(_), Some(want)) => {
                        panic!("{from:?} + {event:?} should step to {want:?}, was rejected")
                    }
                }
            }
        }
    }

    #[test]
    fn validator_hops_are_the_machine_without_self_loops() {
        use braidio_telemetry::PhaseTag;
        use std::collections::BTreeSet;
        // The validator reads hops by the codes the engine's trace carries.
        for phase in LinkPhase::ALL {
            assert_eq!(PhaseTag::from(phase).code(), phase.as_str());
        }
        let machine: BTreeSet<(&str, &str)> = LinkPhase::ALL
            .into_iter()
            .flat_map(|from| EVENTS.into_iter().map(move |event| (from, event)))
            .filter_map(|(from, event)| step(from, event).ok().map(|to| (from, to)))
            .filter(|(from, to)| from != to)
            .map(|(from, to)| (PhaseTag::from(from).code(), PhaseTag::from(to).code()))
            .collect();
        let hops = braidio_telemetry::sink::PHASE_HOPS;
        let validator: BTreeSet<(&str, &str)> = hops.into_iter().collect();
        assert_eq!(validator.len(), hops.len(), "PHASE_HOPS repeats a hop");
        assert_eq!(machine, validator);
    }

    #[test]
    fn only_the_open_policy_watches_energy_or_cools_down() {
        let open = LifecyclePolicy::default();
        assert!(open.watches_energy() && open.cooldown.is_some());
        let closed = LifecyclePolicy::closed();
        assert!(!closed.watches_energy() && closed.cooldown.is_none());
    }

    #[test]
    fn dead_is_terminal() {
        for event in EVENTS {
            assert!(step(P::Dead, event).is_err(), "Dead must absorb nothing");
        }
    }

    #[test]
    fn happy_path_reaches_live() {
        let mut phase = LinkPhase::default();
        for event in [E::Admitted, E::ProbesOk, E::WarmedUp] {
            phase = step(phase, event).unwrap();
        }
        assert_eq!(phase, P::Live);
        assert!(phase.on_air());
    }

    #[test]
    fn degrade_is_reversible_cooldown_is_a_fork() {
        let degraded = step(P::Live, E::EnergyLow).unwrap();
        assert_eq!(step(degraded, E::Recovered).unwrap(), P::Live);
        let cooled = step(degraded, E::EnergyCritical).unwrap();
        assert_eq!(step(cooled, E::CooldownRetry).unwrap(), P::Probe);
        assert_eq!(step(cooled, E::CooldownDrop).unwrap(), P::Dead);
    }

    #[test]
    fn phase_predicates_and_codes() {
        assert_eq!(PHASE_COUNT, LinkPhase::ALL.len());
        let mut seen = [false; PHASE_COUNT];
        for (i, p) in LinkPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "ALL order must match index()");
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
            assert!(!p.as_str().is_empty());
        }
        assert!(!P::Init.on_air() && !P::Cooldown.on_air() && !P::Dead.on_air());
        assert!(P::Dead.is_terminal() && !P::Cooldown.is_terminal());
        let err = step(P::Dead, E::Admitted).unwrap_err();
        assert!(err.to_string().contains("dead"));
    }
}
