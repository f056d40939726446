//! Passive wake-up radio — the "interesting option" the architecture
//! enables (§4).
//!
//! The passive-receiver mode "is not one we sought out to design, but is an
//! interesting option that we enable through our architecture": a device
//! can leave its ~35 µW envelope-detector chain listening *continuously*
//! instead of duty-cycling a ~90 mW active receiver. This module
//! quantifies that trade against classic low-power-listening (LPL, à la
//! B-MAC, ref. \[43\]) and wake-up-radio schemes \[21, 38\] from related
//! work.

use braidio_units::{Seconds, Watts};

/// A duty-cycled active listener (low-power listening).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycledListener {
    /// Receiver power while listening.
    pub on_power: Watts,
    /// Sleep power between listen windows.
    pub sleep_power: Watts,
    /// Wake-up check period.
    pub period: Seconds,
    /// Listen-window length per period (enough for preamble detection).
    pub on_time: Seconds,
}

impl DutyCycledListener {
    /// A BLE-class radio checking every `period` with a 2 ms window.
    pub fn ble(period: Seconds) -> Self {
        DutyCycledListener {
            on_power: Watts::from_milliwatts(90.81),
            sleep_power: Watts::from_microwatts(15.0),
            period,
            on_time: Seconds::from_millis(2.0),
        }
    }

    /// Average idle-listening power.
    pub fn average_power(&self) -> Watts {
        assert!(
            self.on_time <= self.period,
            "listen window cannot exceed the period"
        );
        let duty = self.on_time / self.period;
        self.on_power * duty + self.sleep_power * (1.0 - duty)
    }

    /// Mean wake-up latency (uniform arrival within a period).
    pub fn mean_latency(&self) -> Seconds {
        self.period / 2.0
    }
}

/// The always-on passive (envelope-detector) wake-up receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassiveWakeup {
    /// Continuous draw of the detector chain (amp + comparator + switch)
    /// plus the MCU asleep waiting on a pin-change interrupt.
    pub chain_power: Watts,
    /// Detection latency: one wake-word frame at the signalling rate.
    pub detect_latency: Seconds,
}

impl PassiveWakeup {
    /// Braidio's chain (≈35 µW) plus MCU sleep, with a 64-bit wake word at
    /// 100 kbps.
    pub fn braidio() -> Self {
        PassiveWakeup {
            chain_power: Watts::from_microwatts(50.0),
            detect_latency: Seconds::from_micros(640.0),
        }
    }

    /// The duty-cycle period at which an LPL listener's average power would
    /// merely *match* this always-on receiver (it still loses on latency by
    /// `period / detect_latency`).
    pub fn equivalent_lpl_period(&self, lpl: &DutyCycledListener) -> Seconds {
        // duty = (P_eq - P_sleep) / (P_on - P_sleep); period = on_time/duty.
        let duty = (self.chain_power - lpl.sleep_power) / (lpl.on_power - lpl.sleep_power);
        assert!(duty > 0.0, "passive chain below LPL sleep floor");
        lpl.on_time / duty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpl_average_power_math() {
        let l = DutyCycledListener::ble(Seconds::new(1.0));
        // 2 ms of 90.81 mW per second ≈ 181.6 µW + sleep share.
        let avg = l.average_power();
        assert!((avg.microwatts() - (181.62 + 14.97)).abs() < 1.0, "{avg}");
    }

    #[test]
    fn passive_beats_second_scale_lpl_on_both_axes() {
        let passive = PassiveWakeup::braidio();
        let lpl = DutyCycledListener::ble(Seconds::new(1.0));
        assert!(passive.chain_power < lpl.average_power());
        assert!(passive.detect_latency < lpl.mean_latency());
    }

    #[test]
    fn lpl_only_matches_power_at_huge_periods() {
        let passive = PassiveWakeup::braidio();
        let lpl = DutyCycledListener::ble(Seconds::new(1.0));
        let eq = passive.equivalent_lpl_period(&lpl);
        // The LPL listener must slow to multi-second checks just to tie on
        // power — while the passive chain still wakes in sub-millisecond.
        assert!(eq > Seconds::new(4.0), "equivalent period {eq}");
        let slow = DutyCycledListener::ble(eq);
        let ratio = slow.average_power() / passive.chain_power;
        assert!((ratio - 1.0).abs() < 0.05, "power ratio {ratio}");
        assert!(slow.mean_latency() / passive.detect_latency > 1000.0);
    }

    #[test]
    fn faster_checking_costs_power() {
        let fast = DutyCycledListener::ble(Seconds::from_millis(100.0));
        let slow = DutyCycledListener::ble(Seconds::new(2.0));
        assert!(fast.average_power() > slow.average_power());
        assert!(fast.mean_latency() < slow.mean_latency());
    }

    #[test]
    #[should_panic(expected = "listen window")]
    fn degenerate_period_rejected() {
        let l = DutyCycledListener::ble(Seconds::from_millis(1.0));
        let _ = l.average_power();
    }
}
