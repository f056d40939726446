//! The carrier-offload control protocol as an explicit state machine.
//!
//! §4.2 describes a control loop: the endpoints first *exchange battery
//! status* over the active radio, then *probe* the candidate links, then
//! *plan* (Eq. 1) and *braid*; poor performance *falls back* to active and
//! re-probes, and the plan is *recomputed* periodically. The packet-level
//! engine in `braidio-core::live` implements the loop operationally; this
//! module pins the protocol itself down as a typed transition system so the
//! control flow can be tested — and reasoned about — independently of any
//! radio model.

use braidio_radio::Mode;

/// Protocol states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Just associated; nothing known about the peer.
    Init,
    /// Exchanging battery status over the active radio (§4.2 step 1).
    ExchangingStatus,
    /// Sending probe packets over the candidate links (§4.2 step 2).
    Probing,
    /// Braiding data under a plan.
    Braiding,
    /// Fallen back to pure active mode after link failures, pending a
    /// re-probe.
    Fallback,
    /// The link is dead (out of range or a battery exhausted).
    Dead,
}

/// Events driving the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Association established with the peer.
    Associated,
    /// Battery levels exchanged successfully.
    StatusExchanged,
    /// Probing finished and at least one mode is viable.
    ProbesOk,
    /// Probing finished and *no* mode closes the link.
    ProbesEmpty,
    /// A braided packet was delivered.
    PacketDelivered,
    /// Consecutive failures crossed the fallback threshold.
    LinkDegraded,
    /// The periodic re-plan timer fired (or SNR/loss changed materially).
    RecomputeDue,
    /// An endpoint's battery is exhausted.
    BatteryDead,
}

/// What the radio should do after a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Do nothing.
    None,
    /// Exchange battery status over the active link.
    SendStatus,
    /// Send probe packets over every candidate mode.
    SendProbes,
    /// Solve Eq. 1 and install the braid schedule.
    InstallPlan,
    /// Pin the radio to the given mode (the fallback safety net).
    PinMode(Mode),
    /// Tear the session down.
    Shutdown,
}

/// The protocol machine.
#[derive(Debug, Clone)]
pub struct OffloadFsm {
    state: State,
}

impl OffloadFsm {
    /// A fresh session.
    pub fn new() -> Self {
        OffloadFsm { state: State::Init }
    }

    /// Current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Feed an event; returns the action to perform, or `Err` with the
    /// rejected event if it is not meaningful in the current state (the
    /// caller treats that as a protocol violation worth logging).
    #[inline]
    pub fn on(&mut self, event: Event) -> Result<Action, Event> {
        use Action as A;
        use Event as E;
        use State as S;
        let (next, action) = match (self.state, event) {
            (S::Init, E::Associated) => (S::ExchangingStatus, A::SendStatus),
            (S::ExchangingStatus, E::StatusExchanged) => (S::Probing, A::SendProbes),
            (S::Probing, E::ProbesOk) => (S::Braiding, A::InstallPlan),
            (S::Probing, E::ProbesEmpty) => (S::Dead, A::Shutdown),
            (S::Braiding, E::PacketDelivered) => (S::Braiding, A::None),
            (S::Braiding, E::LinkDegraded) => (S::Fallback, A::PinMode(Mode::Active)),
            (S::Braiding, E::RecomputeDue) => (S::Probing, A::SendProbes),
            (S::Fallback, E::RecomputeDue) => (S::Probing, A::SendProbes),
            (S::Fallback, E::PacketDelivered) => (S::Fallback, A::None),
            // Battery death ends the session from any non-dead state —
            // including Init: an open-system tag can brown out while still
            // waiting, undiscovered, on its wake-up detector.
            (
                S::Init | S::ExchangingStatus | S::Probing | S::Braiding | S::Fallback,
                E::BatteryDead,
            ) => (S::Dead, A::Shutdown),
            (state, event) => {
                debug_assert!(state == self.state);
                return Err(event);
            }
        };
        self.state = next;
        Ok(action)
    }

    /// Is the session over?
    #[cfg(test)]
    pub fn is_dead(&self) -> bool {
        self.state == State::Dead
    }
}

impl Default for OffloadFsm {
    fn default() -> Self {
        OffloadFsm::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bring_up() -> OffloadFsm {
        let mut f = OffloadFsm::new();
        assert_eq!(f.on(Event::Associated).unwrap(), Action::SendStatus);
        assert_eq!(f.on(Event::StatusExchanged).unwrap(), Action::SendProbes);
        assert_eq!(f.on(Event::ProbesOk).unwrap(), Action::InstallPlan);
        assert_eq!(f.state(), State::Braiding);
        f
    }

    #[test]
    fn happy_path_reaches_braiding() {
        let _ = bring_up();
    }

    #[test]
    fn degradation_falls_back_to_active_then_reprobes() {
        let mut f = bring_up();
        assert_eq!(
            f.on(Event::LinkDegraded).unwrap(),
            Action::PinMode(Mode::Active)
        );
        assert_eq!(f.state(), State::Fallback);
        // Packets can still flow in fallback.
        assert_eq!(f.on(Event::PacketDelivered).unwrap(), Action::None);
        // The recompute timer resumes the full protocol.
        assert_eq!(f.on(Event::RecomputeDue).unwrap(), Action::SendProbes);
        assert_eq!(f.state(), State::Probing);
        assert_eq!(f.on(Event::ProbesOk).unwrap(), Action::InstallPlan);
    }

    #[test]
    fn empty_probes_kill_the_session() {
        let mut f = OffloadFsm::new();
        f.on(Event::Associated).unwrap();
        f.on(Event::StatusExchanged).unwrap();
        assert_eq!(f.on(Event::ProbesEmpty).unwrap(), Action::Shutdown);
        assert!(f.is_dead());
    }

    #[test]
    fn battery_death_ends_any_live_state() {
        for prep in 0..4 {
            let mut f = OffloadFsm::new();
            f.on(Event::Associated).unwrap();
            if prep >= 1 {
                f.on(Event::StatusExchanged).unwrap();
            }
            if prep >= 2 {
                f.on(Event::ProbesOk).unwrap();
            }
            if prep >= 3 {
                f.on(Event::LinkDegraded).unwrap();
            }
            assert_eq!(f.on(Event::BatteryDead).unwrap(), Action::Shutdown);
            assert!(f.is_dead());
        }
    }

    #[test]
    fn nonsense_events_are_rejected_not_absorbed() {
        let mut f = OffloadFsm::new();
        assert_eq!(f.on(Event::PacketDelivered), Err(Event::PacketDelivered));
        assert_eq!(f.state(), State::Init);
        let mut f = bring_up();
        assert_eq!(f.on(Event::Associated), Err(Event::Associated));
        assert_eq!(f.state(), State::Braiding);
    }

    #[test]
    fn battery_death_ends_init_too() {
        // An undiscovered open-system tag can brown out before it ever
        // associates; Init must accept the death rather than reject it.
        let mut f = OffloadFsm::new();
        assert_eq!(f.on(Event::BatteryDead).unwrap(), Action::Shutdown);
        assert!(f.is_dead());
    }

    #[test]
    fn dead_is_terminal() {
        let mut f = OffloadFsm::new();
        f.on(Event::Associated).unwrap();
        f.on(Event::BatteryDead).unwrap();
        for e in [
            Event::Associated,
            Event::ProbesOk,
            Event::RecomputeDue,
            Event::PacketDelivered,
        ] {
            assert!(f.on(e).is_err());
            assert!(f.is_dead());
        }
    }

    #[test]
    fn periodic_recompute_loops_through_probing() {
        let mut f = bring_up();
        for _ in 0..5 {
            assert_eq!(f.on(Event::RecomputeDue).unwrap(), Action::SendProbes);
            assert_eq!(f.on(Event::ProbesOk).unwrap(), Action::InstallPlan);
        }
        assert_eq!(f.state(), State::Braiding);
    }
}
