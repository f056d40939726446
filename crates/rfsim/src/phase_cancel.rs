//! Phase cancellation at the noncoherent (envelope-detector) receiver, and
//! the 2-antenna diversity countermeasure — the §3.2 analysis behind
//! Figs. 4, 5 and 6.
//!
//! The envelope detector measures only the *magnitude* of the superposition
//! of the strong, static self-interference ("background") phasor `V_bg` and
//! the tag's backscattered phasor `V_tag`. When the tag toggles its RF
//! transistor between reflection coefficients `Γ0` and `Γ1`, the receiver
//! sees
//!
//! ```text
//! A = | |V_bg + V_tag(Γ1)| - |V_bg + V_tag(Γ0)| |
//! ```
//!
//! For `|V_bg| ≫ |V_tag|` this reduces to `A ≈ 2·cos(θ)·|V_tag|` where `θ`
//! is the angle between the backscatter difference vector and the background
//! vector — so when the two are orthogonal (`θ → π/2`) the envelope does not
//! change at all and the bit is undetectable, no matter how strong the tag
//! signal is. A second receive antenna a fraction of a wavelength away sees
//! a different `θ` and rescues the null.

use crate::channel::ChannelGain;
use crate::geometry::{Grid, Point};
use braidio_units::{Complex, Decibels, Hertz, Watts};

/// The two reflection states of the tag's RF transistor.
///
/// `|gamma_on - gamma_off|` is the modulation depth; Moo/WISP-class tags
/// switch between a near-matched and a near-shorted antenna, giving a
/// difference close to 1.
#[derive(Debug, Clone, Copy)]
pub struct TagStates {
    /// Reflection coefficient with the transistor off (antenna ~matched).
    pub gamma_off: Complex,
    /// Reflection coefficient with the transistor on (antenna ~shorted).
    pub gamma_on: Complex,
}

impl Default for TagStates {
    fn default() -> Self {
        TagStates {
            gamma_off: Complex::new(0.05, 0.0),
            gamma_on: Complex::new(-0.95, 0.0),
        }
    }
}

/// A monostatic backscatter scene in free space: a carrier-emitting TX
/// antenna, one or two receive antennas (diversity) and a movable tag.
#[derive(Debug, Clone)]
pub struct BackscatterScene {
    /// Carrier-emitter antenna position.
    pub carrier_tx: Point,
    /// Receive antenna positions (1 = no diversity, 2 = Braidio's diversity).
    pub rx_antennas: Vec<Point>,
    /// Tag reflection states.
    pub tag: TagStates,
    /// Carrier frequency.
    pub frequency: Hertz,
    /// Carrier transmit power.
    pub tx_power: Watts,
    /// Noise-equivalent power of the envelope-detector receive chain, used
    /// to turn envelope amplitudes into the SNR figures of Figs. 4c and 6.
    pub noise_equivalent: Watts,
}

impl BackscatterScene {
    /// The paper's Fig. 4 setup: TX antenna at (0.95 m, 0.5 m), RX antenna
    /// at (1.05 m, 0.5 m), 915 MHz, 13 dBm carrier, free space.
    pub fn paper_fig4() -> Self {
        BackscatterScene {
            carrier_tx: Point::new(0.95, 0.5),
            rx_antennas: vec![Point::new(1.05, 0.5)],
            tag: TagStates::default(),
            frequency: Hertz::UHF_915M,
            tx_power: Watts::from_dbm(13.0),
            // Detector noise-equivalent power, set so the mid-room SNR
            // levels match the paper's Fig. 6 (≈30 dB at 0.5 m from the
            // pair, single digits by 2 m, nulls rescued above ~5 dB by the
            // second antenna inside the backscatter regime).
            noise_equivalent: Watts::from_dbm(-70.0),
        }
    }

    /// The same scene with a second receive antenna λ/8 from the first
    /// (the spacing of Braidio's two ANT1204 chip antennas, Table 4).
    pub fn with_diversity(mut self) -> Self {
        assert!(!self.rx_antennas.is_empty(), "scene has no receive antenna");
        let first = self.rx_antennas[0];
        let spacing = self.frequency.wavelength() / 8.0;
        // Offset perpendicular to the TX→RX axis so the second antenna sees
        // a genuinely different backscatter path geometry.
        let dir = self
            .carrier_tx
            .direction_to(first)
            .map(|d| Point::new(-d.y, d.x))
            .unwrap_or(Point::new(0.0, 1.0));
        self.rx_antennas.push(first.offset_along(dir, spacing));
        self
    }

    /// Carrier phasor amplitude (`√P`, unit-impedance convention).
    fn carrier_amplitude(&self) -> f64 {
        self.tx_power.watts().sqrt()
    }

    /// The background (self-interference) phasor at receive antenna `rx`:
    /// the direct TX→RX coupling, *excluding* the tag.
    pub fn background(&self, rx_idx: usize) -> Complex {
        let rx = self.rx_antennas[rx_idx];
        ChannelGain::line_of_sight(self.carrier_tx, rx, self.frequency)
            .apply(Complex::new(self.carrier_amplitude(), 0.0))
    }

    /// The tag's backscattered phasor at receive antenna `rx` for a given
    /// reflection coefficient.
    pub fn tag_phasor(&self, tag_at: Point, rx_idx: usize, gamma: Complex) -> Complex {
        let rx = self.rx_antennas[rx_idx];
        let forward = ChannelGain::line_of_sight(self.carrier_tx, tag_at, self.frequency);
        let back = ChannelGain::line_of_sight(tag_at, rx, self.frequency);
        forward
            .cascade(back)
            .apply(gamma * self.carrier_amplitude())
    }

    /// The envelope difference `A` the noncoherent detector sees at antenna
    /// `rx_idx` when the tag at `tag_at` toggles states.
    pub fn envelope_delta(&self, tag_at: Point, rx_idx: usize) -> f64 {
        let bg = self.background(rx_idx);
        let v_on = self.tag_phasor(tag_at, rx_idx, self.tag.gamma_on);
        let v_off = self.tag_phasor(tag_at, rx_idx, self.tag.gamma_off);
        ((bg + v_on).abs() - (bg + v_off).abs()).abs()
    }

    /// Received backscatter signal power at antenna `rx_idx` (envelope
    /// difference squared, unit-impedance convention).
    pub fn signal_power(&self, tag_at: Point, rx_idx: usize) -> Watts {
        let a = self.envelope_delta(tag_at, rx_idx);
        Watts::new(a * a)
    }

    /// SNR at a single antenna, dB.
    pub fn snr(&self, tag_at: Point, rx_idx: usize) -> Decibels {
        self.signal_power(tag_at, rx_idx)
            .ratio_db(self.noise_equivalent)
    }

    /// SNR with antenna selection diversity: the best antenna's SNR, plus
    /// the index of the antenna selected.
    pub fn snr_diversity(&self, tag_at: Point) -> (usize, Decibels) {
        let mut best = (0usize, Decibels::new(f64::NEG_INFINITY));
        for idx in 0..self.rx_antennas.len() {
            let s = self.snr(tag_at, idx);
            if s > best.1 {
                best = (idx, s);
            }
        }
        best
    }

    /// Sweep the tag over a grid and return the received signal strength in
    /// dB (relative to 1 W) at the *first* antenna for each grid point, in
    /// row-major order — the Fig. 4b heat map.
    pub fn signal_map(&self, grid: &Grid) -> Vec<f64> {
        grid.points()
            .map(|(_, _, p)| 10.0 * self.signal_power(p, 0).watts().log10())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braidio_units::Meters;

    fn scene() -> BackscatterScene {
        BackscatterScene::paper_fig4()
    }

    /// The angle θ between the backscatter difference vector and the
    /// background vector at antenna `rx_idx` (Fig. 5's θ), radians in
    /// `[0, π/2]`.
    fn cancellation_angle(s: &BackscatterScene, tag_at: Point, rx_idx: usize) -> f64 {
        let bg = s.background(rx_idx);
        let diff = s.tag_phasor(tag_at, rx_idx, s.tag.gamma_on)
            - s.tag_phasor(tag_at, rx_idx, s.tag.gamma_off);
        let mut dphi = (diff.im.atan2(diff.re) - bg.im.atan2(bg.re)).abs() % core::f64::consts::PI;
        if dphi > core::f64::consts::FRAC_PI_2 {
            dphi = core::f64::consts::PI - dphi;
        }
        dphi
    }

    #[test]
    fn envelope_decays_with_distance() {
        let s = scene();
        let near = s.envelope_delta(Point::new(1.0, 0.8), 0);
        let far = s.envelope_delta(Point::new(1.0, 1.9), 0);
        assert!(near > far, "near {near} far {far}");
    }

    #[test]
    fn nulls_exist_along_the_line() {
        // Sweeping the tag along Y = 0.5 (the Fig. 4c cut) must show deep
        // minima: points where the SNR drops far below its neighbourhood.
        let s = scene();
        let mut snrs = Vec::new();
        for i in 0..600 {
            let x = 1.3 + 0.7 * (i as f64 / 599.0); // 1.3 .. 2.0 m
            snrs.push(s.snr(Point::new(x, 0.5), 0).db());
        }
        let max = snrs.iter().cloned().fold(f64::MIN, f64::max);
        let min = snrs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min > 20.0, "expected deep nulls, span {}", max - min);
    }

    #[test]
    fn diversity_lifts_the_nulls() {
        let single = scene();
        let diverse = scene().with_diversity();
        assert_eq!(diverse.rx_antennas.len(), 2);
        // Worst-case SNR along the sweep must improve materially with the
        // second antenna (Fig. 6's claim: nulls from ~0 dB up to > 5 dB).
        let mut worst_single = f64::MAX;
        let mut worst_diverse = f64::MAX;
        for i in 0..800 {
            let x = 1.3 + 0.7 * (i as f64 / 799.0);
            let p = Point::new(x, 0.5);
            worst_single = worst_single.min(single.snr(p, 0).db());
            worst_diverse = worst_diverse.min(diverse.snr_diversity(p).1.db());
        }
        assert!(
            worst_diverse > worst_single + 3.0,
            "single {worst_single:.1} dB, diverse {worst_diverse:.1} dB"
        );
    }

    #[test]
    fn angle_is_orthogonal_at_null() {
        // At the deepest null along the sweep, θ must approach π/2.
        let s = scene();
        let mut deepest = (f64::MAX, 0.0);
        for i in 0..2000 {
            let x = 1.3 + 0.7 * (i as f64 / 1999.0);
            let p = Point::new(x, 0.5);
            let snr = s.snr(p, 0).db();
            if snr < deepest.0 {
                deepest = (snr, cancellation_angle(&s, p, 0));
            }
        }
        assert!(
            deepest.1 > 1.45,
            "angle at null {:.3} rad should be near π/2",
            deepest.1
        );
    }

    #[test]
    fn signal_map_matches_point_queries() {
        let s = scene();
        let grid = Grid::square(Meters::new(2.0), 11);
        let map = s.signal_map(&grid);
        assert_eq!(map.len(), 121);
        let (ix, iy) = (7, 3);
        let expected = 10.0 * s.signal_power(grid.point(ix, iy), 0).watts().log10();
        assert_eq!(map[iy * grid.nx + ix], expected);
    }

    #[test]
    fn background_dominates_tag_signal() {
        // Self-interference is orders of magnitude above the backscatter
        // signal — the reason readers need cancellation at all.
        let s = scene();
        let bg = s.background(0).abs();
        let tag = s.tag_phasor(Point::new(1.0, 1.0), 0, s.tag.gamma_on).abs();
        assert!(bg > 20.0 * tag, "bg {bg}, tag {tag}");
    }
}
