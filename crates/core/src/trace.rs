//! Link event tracing — the simulator's answer to smoltcp's `--pcap`.
//!
//! Every packet, probe and re-plan on a [`crate::live::LiveLink`] becomes a
//! typed event on the telemetry bus, so a capture (or `--trace-events`)
//! records braiding behaviour without print statements in the MAC.

use braidio_radio::characterization::Rate;
use braidio_radio::Mode;
use braidio_units::Seconds;

/// One traced link event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A data packet was sent.
    Packet {
        /// Link time at transmission.
        at: Seconds,
        /// Mode used.
        mode: Mode,
        /// Rate used.
        rate: Rate,
        /// Whether it was delivered.
        delivered: bool,
        /// Payload bytes carried.
        payload_bytes: usize,
    },
    /// A probe/re-plan round completed.
    Replan {
        /// Link time at the re-plan.
        at: Seconds,
        /// Whether a viable plan was found.
        planned: bool,
    },
    /// The link went down (no viable mode).
    LinkDown {
        /// Link time at the event.
        at: Seconds,
    },
    /// A battery died.
    BatteryDead {
        /// Link time at the event.
        at: Seconds,
    },
}

impl TraceEvent {
    /// This event in the unified telemetry vocabulary. `LiveLink` emits the
    /// conversion onto the process telemetry bus alongside local recording,
    /// so pairwise traces and fleet traces share one schema; the track is
    /// always the pairwise session's single pair, `Pair(0)`.
    pub fn to_telemetry(&self) -> braidio_telemetry::Event {
        use braidio_telemetry::{DeathReason, Event, Track};
        let track = Track::Pair(0);
        match *self {
            TraceEvent::Packet {
                at,
                mode,
                rate,
                delivered,
                payload_bytes,
            } => {
                let (mode, rate) = (mode.into(), rate.into());
                let bits = (payload_bytes * 8) as f64;
                if delivered {
                    Event::QuantumDelivered {
                        at,
                        track,
                        mode,
                        rate,
                        bits,
                    }
                } else {
                    Event::QuantumLost {
                        at,
                        track,
                        mode,
                        rate,
                        bits,
                    }
                }
            }
            TraceEvent::Replan { at, planned } => Event::Replan {
                at,
                track,
                planned,
                exact: false,
                primary: None,
            },
            TraceEvent::LinkDown { at } => Event::SessionDead {
                at,
                track,
                reason: DeathReason::NoViableMode,
            },
            TraceEvent::BatteryDead { at } => Event::SessionDead {
                at,
                track,
                reason: DeathReason::BatteryDead,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braidio_telemetry::{DeathReason, Event, ModeTag};

    #[test]
    fn maps_onto_the_telemetry_vocabulary() {
        let lost = TraceEvent::Packet {
            at: Seconds::new(0.000123),
            mode: Mode::Backscatter,
            rate: Rate::Mbps1,
            delivered: false,
            payload_bytes: 64,
        };
        match lost.to_telemetry() {
            Event::QuantumLost { at, mode, bits, .. } => {
                assert_eq!(at, Seconds::new(0.000123));
                assert_eq!(mode, ModeTag::Backscatter);
                assert_eq!(bits, 512.0);
            }
            other => panic!("{other:?}"),
        }
        let down = TraceEvent::LinkDown {
            at: Seconds::new(1.0),
        };
        assert!(matches!(
            down.to_telemetry(),
            Event::SessionDead {
                reason: DeathReason::NoViableMode,
                ..
            }
        ));
    }
}
