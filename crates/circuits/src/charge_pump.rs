//! Transient simulation of the Dickson RF charge pump (Fig. 3).
//!
//! The single-stage pump (Fig. 3a) is a voltage doubler: coupling capacitor
//! `C1` from the RF input to node B, clamp diode `D1` from ground to B, and
//! series diode `D2` from B to the output node C held by `C2`. On negative
//! half-cycles D1 charges C1; on positive half-cycles D2 pushes that charge
//! onto C2, so the DC output settles near twice the input amplitude — the
//! paper's TINA simulation (Fig. 3b) shows a 1 V sine producing ≈2 V DC.
//!
//! The N-stage generalization couples odd nodes to the RF input and even
//! nodes to ground; each stage adds another doubling, giving the `2N` boost
//! quoted in §3.2 — at the price of output impedance growing with `N`,
//! which is why the instrumentation amplifier downstream must have high
//! input impedance.

use crate::diode::Diode;
use braidio_units::{Hertz, Seconds};

/// An N-stage Dickson charge pump with a resistive load.
#[derive(Debug, Clone, Copy)]
pub struct DicksonChargePump {
    /// Number of stages (1 stage = 2 diodes, the Fig. 3a doubler).
    pub stages: usize,
    /// Coupling capacitance per stage, farads.
    pub c_stage: f64,
    /// Output hold capacitance, farads.
    pub c_out: f64,
    /// Diode model used for every stage.
    pub diode: Diode,
    /// DC load resistance at the output, ohms (`f64::INFINITY` = open).
    pub load: f64,
}

impl DicksonChargePump {
    /// The Fig. 3a single-stage pump: 100 pF coupling and hold capacitors,
    /// near-ideal detector diodes, open-circuit output.
    pub fn fig3_single_stage() -> Self {
        DicksonChargePump {
            stages: 1,
            c_stage: 100e-12,
            c_out: 100e-12,
            diode: Diode::schottky_detector(),
            load: f64::INFINITY,
        }
    }

    /// A multi-stage pump as used for sensitivity boosting.
    pub fn multi_stage(stages: usize) -> Self {
        assert!(stages >= 1, "need at least one stage");
        DicksonChargePump {
            stages,
            ..DicksonChargePump::fig3_single_stage()
        }
    }

    /// Ideal (no-load) steady-state DC output for a sine input of amplitude
    /// `v_amp`: `2N·(v_amp − v_f)`.
    pub fn ideal_output(&self, v_amp: f64) -> f64 {
        2.0 * self.stages as f64 * (v_amp - self.diode.v_f).max(0.0)
    }

    /// Small-signal DC output for a sine of amplitude `v_amp`, including the
    /// square-law detection region below the diode threshold.
    ///
    /// Zero-bias Schottky detectors do not switch off abruptly below `v_f`;
    /// they rectify as square-law detectors. We use the standard C¹ blend:
    /// per stage, `s(v) = v²/(4·v_f)` for `v < 2·v_f` and `s(v) = v − v_f`
    /// above, scaled by the `2N` stage boost. This is what makes microvolt
    /// sensitivities reachable once the instrumentation amplifier is added.
    pub fn small_signal_output(&self, v_amp: f64) -> f64 {
        let v = v_amp.max(0.0);
        let vf = self.diode.v_f;
        let per_stage = if v < 2.0 * vf {
            v * v / (4.0 * vf)
        } else {
            v - vf
        };
        2.0 * self.stages as f64 * per_stage
    }

    /// Transient-simulate the pump for `duration` with time step `dt`,
    /// driven by `drive(t_seconds) -> volts`.
    ///
    /// Integration is explicit Euler on the node voltages; the PWL diode
    /// keeps the system non-stiff provided `dt ≪ r_on · C` (asserted).
    pub fn transient(
        &self,
        drive: impl Fn(f64) -> f64,
        duration: Seconds,
        dt: Seconds,
    ) -> Transient {
        let dt_s = dt.seconds();
        assert!(dt_s > 0.0, "dt must be positive");
        assert!(
            dt_s < 0.5 * self.diode.r_on * self.c_stage.min(self.c_out),
            "dt too large for stability: dt={} r_on*C={}",
            dt_s,
            self.diode.r_on * self.c_stage.min(self.c_out)
        );
        let steps = (duration.seconds() / dt_s).ceil() as usize;
        let n = self.stages * 2; // internal nodes: 1..n, node n is the output
                                 // Node voltages; index 0 is ground (input coupling handled via dphi).
        let mut v = vec![0.0f64; n + 1];
        let mut out = Transient {
            dt,
            input: Vec::with_capacity(steps),
            internal: Vec::with_capacity(steps),
            output: Vec::with_capacity(steps),
        };
        let mut prev_drive = drive(0.0);
        for k in 0..steps {
            let t = k as f64 * dt_s;
            let cur_drive = drive(t);
            let ddrive = cur_drive - prev_drive;
            prev_drive = cur_drive;

            // Diode currents: diode i connects node i-1 -> node i.
            let mut idio = vec![0.0f64; n + 1];
            for i in 1..=n {
                idio[i] = self.diode.current(v[i - 1] - v[i]);
            }
            // Load current out of the final node.
            let iload = if self.load.is_finite() {
                v[n] / self.load
            } else {
                0.0
            };

            // Node updates. Odd internal nodes are capacitively coupled to
            // the drive (bottom plate moves with it); even nodes to ground.
            for i in 1..n {
                let cap_kick = if i % 2 == 1 { ddrive } else { 0.0 };
                v[i] += cap_kick + dt_s * (idio[i] - idio[i + 1]) / self.c_stage;
            }
            // Output node: hold capacitor to ground plus load.
            v[n] += dt_s * (idio[n] - iload) / self.c_out;

            out.input.push(cur_drive);
            out.internal.push(v[1]);
            out.output.push(v[n]);
        }
        out
    }

    /// Convenience: drive with a sine of amplitude `v_amp` at `f` for
    /// `cycles` full cycles, ~200 samples per cycle.
    pub fn transient_sine(&self, v_amp: f64, f: Hertz, cycles: f64) -> Transient {
        let period = f.period_seconds();
        let dt = Seconds::new((period / 200.0).min(0.4 * self.diode.r_on * self.c_stage));
        let duration = Seconds::new(period * cycles);
        self.transient(
            |t| v_amp * (2.0 * core::f64::consts::PI * f.hz() * t).sin(),
            duration,
            dt,
        )
    }
}

/// Sampled waveforms from a transient run: the Fig. 3b traces.
#[derive(Debug, Clone)]
pub struct Transient {
    /// Sample interval.
    pub dt: Seconds,
    /// Input drive (trace "A" in Fig. 3b).
    pub input: Vec<f64>,
    /// Voltage between the diodes (trace "B").
    pub internal: Vec<f64>,
    /// Output voltage (trace "C").
    pub output: Vec<f64>,
}

impl Transient {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.output.len()
    }

    /// True if the run produced no samples.
    pub fn is_empty(&self) -> bool {
        self.output.is_empty()
    }

    /// Mean of the last `fraction` of the output trace (settled DC value).
    pub fn settled_output(&self, fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&fraction) && fraction > 0.0);
        let start = ((1.0 - fraction) * self.output.len() as f64) as usize;
        let tail = &self.output[start..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_doubler_reaches_two_volts() {
        // 1 V sine in -> ~2 V DC out (paper: "Given a sine wave signal with
        // amplitude of 1V, it can generate 2V DC voltage at the output").
        let pump = DicksonChargePump::fig3_single_stage();
        let run = pump.transient_sine(1.0, Hertz::from_mhz(1.0), 50.0);
        let settled = run.settled_output(0.1);
        assert!(
            (settled - 2.0).abs() < 0.15,
            "settled output {settled} V, expected ~2 V"
        );
    }

    #[test]
    fn output_monotonically_pumps_up() {
        let pump = DicksonChargePump::fig3_single_stage();
        let run = pump.transient_sine(1.0, Hertz::from_mhz(1.0), 10.0);
        // Sample the output once per cycle; it should be non-decreasing
        // (within numerical slack) while pumping up.
        let per_cycle = run.len() / 10;
        let mut prev = -1.0;
        for c in 0..10 {
            let v = run.output[c * per_cycle + per_cycle - 1];
            assert!(v >= prev - 1e-3, "cycle {c}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn two_stages_doubles_the_boost() {
        let p1 = DicksonChargePump::multi_stage(1);
        let p2 = DicksonChargePump::multi_stage(2);
        let f = Hertz::from_mhz(1.0);
        let o1 = p1.transient_sine(1.0, f, 80.0).settled_output(0.1);
        let o2 = p2.transient_sine(1.0, f, 80.0).settled_output(0.1);
        assert!(
            (o2 / o1 - 2.0).abs() < 0.15,
            "stage scaling: {o1} -> {o2} (ratio {})",
            o2 / o1
        );
    }

    #[test]
    fn ideal_output_formula() {
        let p = DicksonChargePump::multi_stage(3);
        let expected = 2.0 * 3.0 * (1.0 - p.diode.v_f);
        assert!((p.ideal_output(1.0) - expected).abs() < 1e-12);
        assert_eq!(p.ideal_output(0.0), 0.0);
    }

    #[test]
    fn small_signal_blend_is_continuous_and_monotone() {
        let p = DicksonChargePump::multi_stage(2);
        let vf = p.diode.v_f;
        // Continuity at the 2·v_f knee.
        let below = p.small_signal_output(2.0 * vf - 1e-9);
        let above = p.small_signal_output(2.0 * vf + 1e-9);
        assert!((below - above).abs() < 1e-6);
        // Monotone over a wide range.
        let mut prev = -1.0;
        for i in 0..200 {
            let s = p.small_signal_output(0.001 * i as f64);
            assert!(s >= prev);
            prev = s;
        }
        // Matches the ideal linear law well above threshold.
        assert!((p.small_signal_output(1.0) - p.ideal_output(1.0)).abs() < 1e-12);
    }

    #[test]
    fn square_law_region_quadratic() {
        let p = DicksonChargePump::multi_stage(1);
        let a = p.small_signal_output(0.002);
        let b = p.small_signal_output(0.004);
        assert!(
            (b / a - 4.0).abs() < 1e-9,
            "square law: doubling input quadruples output"
        );
    }

    #[test]
    fn loaded_pump_sags() {
        let open = DicksonChargePump::fig3_single_stage();
        let loaded = DicksonChargePump {
            load: 100_000.0,
            ..open
        };
        let f = Hertz::from_mhz(1.0);
        let v_open = open.transient_sine(1.0, f, 60.0).settled_output(0.1);
        let v_loaded = loaded.transient_sine(1.0, f, 60.0).settled_output(0.1);
        assert!(
            v_loaded < v_open - 0.05,
            "load should sag output: {v_loaded} vs {v_open}"
        );
    }

    #[test]
    fn weak_input_below_threshold_pumps_nothing() {
        let pump = DicksonChargePump::fig3_single_stage();
        let run = pump.transient_sine(0.005, Hertz::from_mhz(1.0), 30.0);
        assert!(run.settled_output(0.2) < 0.01);
    }

    #[test]
    #[should_panic(expected = "dt too large")]
    fn unstable_dt_rejected() {
        let pump = DicksonChargePump::fig3_single_stage();
        let _ = pump.transient(
            |_| 0.0,
            Seconds::from_micros(10.0),
            Seconds::from_micros(1.0),
        );
    }
}
