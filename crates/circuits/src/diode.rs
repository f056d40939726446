//! Piecewise-linear Schottky diode model.
//!
//! The charge pump and envelope detector both hinge on diode rectification.
//! A full Shockley exponential makes explicit-Euler transient simulation
//! stiff, so we use the standard piecewise-linear (PWL) companion model:
//! an ideal switch with forward threshold `v_f` and on-resistance `r_on`,
//! plus a small reverse leakage conductance. For zero-bias Schottky
//! detector diodes (HSMS-285x class, the parts used on Moo/WISP tags) the
//! threshold is tens of millivolts, which is what lets a 1 V RF input pump
//! up to nearly 2 V DC (Fig. 3b).

/// Piecewise-linear diode.
#[derive(Debug, Clone, Copy)]
pub struct Diode {
    /// Forward voltage threshold, volts.
    pub v_f: f64,
    /// On-state series resistance, ohms.
    pub r_on: f64,
    /// Reverse (off-state) conductance, siemens.
    pub g_leak: f64,
}

impl Diode {
    /// A zero-bias RF Schottky detector diode (HSMS-285x class).
    pub fn schottky_detector() -> Self {
        Diode {
            v_f: 0.02,
            r_on: 25.0,
            g_leak: 1e-9,
        }
    }

    /// Anode→cathode current for a forward voltage `v` (volts).
    pub fn current(&self, v: f64) -> f64 {
        if v > self.v_f {
            (v - self.v_f) / self.r_on
        } else {
            self.g_leak * (v - self.v_f).min(0.0)
        }
    }
}

impl Default for Diode {
    fn default() -> Self {
        Diode::schottky_detector()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_reverse() {
        let d = Diode::schottky_detector();
        let i = d.current(-1.0);
        assert!(i <= 0.0 && i.abs() < 1e-8, "reverse current {i}");
    }

    #[test]
    fn conducts_forward() {
        let d = Diode::schottky_detector();
        let i = d.current(0.5);
        assert!((i - (0.5 - 0.02) / 25.0).abs() < 1e-12);
    }

    #[test]
    fn current_is_monotonic() {
        let d = Diode::default();
        let mut prev = f64::MIN;
        for i in 0..200 {
            let v = -1.0 + 0.015 * i as f64;
            let cur = d.current(v);
            assert!(cur >= prev, "non-monotonic at v={v}");
            prev = cur;
        }
    }

    #[test]
    fn continuous_at_threshold() {
        let d = Diode::default();
        let below = d.current(d.v_f - 1e-9);
        let above = d.current(d.v_f + 1e-9);
        assert!((above - below).abs() < 1e-9);
    }
}
