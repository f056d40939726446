//! Property-based tests for the physical layer.

use braidio_phy::ber::{ber_coherent, ber_ook_noncoherent, packet_error_rate};
use braidio_phy::crc::{append_crc, crc16_ccitt};
use braidio_phy::frame::Frame;
use braidio_phy::modulation::OokModulator;
use proptest::prelude::*;

/// Does `framed` (data followed by its big-endian CRC) check out?
fn crc_checks_out(framed: &[u8]) -> bool {
    framed.len() >= 2 && append_crc(&framed[..framed.len() - 2]) == framed
}

proptest! {
    #[test]
    fn crc_detects_any_single_byte_change(data in proptest::collection::vec(any::<u8>(), 1..128),
                                          pos in 0usize..128, delta in 1u8..=255) {
        let framed = append_crc(&data);
        prop_assert!(crc_checks_out(&framed));
        let mut corrupted = framed.clone();
        let idx = pos % corrupted.len();
        corrupted[idx] = corrupted[idx].wrapping_add(delta);
        prop_assert!(!crc_checks_out(&corrupted) || corrupted == framed);
    }

    #[test]
    fn crc_is_a_function(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(crc16_ccitt(&data), crc16_ccitt(&data));
    }

    #[test]
    fn frame_round_trip(payload in proptest::collection::vec(any::<u8>(), 0..255)) {
        let f = Frame::new(payload);
        let decoded = Frame::decode(&f.encode(), 0).unwrap();
        prop_assert_eq!(decoded, f);
    }

    #[test]
    fn frame_survives_leading_noise(payload in proptest::collection::vec(any::<u8>(), 1..32),
                                    noise in proptest::collection::vec(any::<bool>(), 0..64)) {
        let f = Frame::new(payload);
        // Leading garbage may accidentally contain a sync-like pattern that
        // triggers a (failing) decode attempt; we only require that when a
        // frame *is* decoded, it is the transmitted one, and that an
        // all-noise prefix of < sync length never hides the real frame.
        let mut bits = noise.clone();
        bits.extend(f.encode());
        match Frame::decode(&bits, 0) {
            Ok(decoded) => prop_assert_eq!(decoded, f),
            Err(_) => {
                // A spurious sync in the noise ate the stream — acceptable
                // only if the noise could alias the sync word.
                prop_assert!(noise.len() >= 8);
            }
        }
    }

    #[test]
    fn ber_models_are_probabilities(snr_db in -20.0f64..30.0) {
        let gamma = 10f64.powf(snr_db / 10.0);
        for ber in [ber_ook_noncoherent(gamma), ber_coherent(gamma)] {
            prop_assert!((0.0..=0.5 + 1e-12).contains(&ber), "snr {snr_db}: {ber}");
        }
    }

    #[test]
    fn noncoherent_never_beats_coherent(snr_db in -5.0f64..20.0) {
        let gamma = 10f64.powf(snr_db / 10.0);
        prop_assert!(ber_ook_noncoherent(gamma) >= ber_coherent(gamma) - 1e-12);
    }

    #[test]
    fn per_monotone_in_bits(ber in 1e-6f64..0.1, bits in 1usize..4096) {
        let p1 = packet_error_rate(ber, bits);
        let p2 = packet_error_rate(ber, bits + 1);
        prop_assert!(p2 >= p1);
        prop_assert!((0.0..=1.0).contains(&p1));
    }

    #[test]
    fn modulator_waveform_levels(bits in proptest::collection::vec(any::<bool>(), 1..64),
                                 high in 0.01f64..1.0, ratio in 0.0f64..0.9) {
        let m = OokModulator::new(8, high, high * ratio);
        let w = m.modulate(&bits);
        prop_assert_eq!(w.len(), bits.len() * 8);
        for (i, &b) in bits.iter().enumerate() {
            let expected = if b { m.high } else { m.low };
            prop_assert_eq!(w[i * 8 + 3], expected);
        }
    }

    /// The fused Monte-Carlo chunk (interleaved modulate → corrupt →
    /// demodulate, only decisions retained) must count exactly the same
    /// errors as the materialized reference (waveform vector, noise pass,
    /// full demodulation, then decision sampling), for arbitrary SNR,
    /// chunk sizes, resolutions, rates and seeds.
    #[test]
    fn fused_chunk_matches_materialized_reference(
        snr_db in 2.0f64..16.0,
        nbits in 8usize..160,
        seed in any::<u64>(),
        spb in 10usize..60,
        rate_sel in 0usize..3,
    ) {
        use braidio_phy::montecarlo::MonteCarloBer;
        use braidio_units::BitsPerSecond;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let rate = [
            BitsPerSecond::KBPS_10,
            BitsPerSecond::KBPS_100,
            BitsPerSecond::MBPS_1,
        ][rate_sel];
        let mut mc = MonteCarloBer::at_snr_db(snr_db, rate, nbits, seed);
        // Shrink the per-bit resolution to keep the case fast; the
        // arithmetic under test is resolution-independent.
        mc.samples_per_bit = spb;
        let fused = mc.run_chunk(nbits, seed);

        // Materialized reference: the pre-fusion pipeline shape.
        let mut rng = StdRng::seed_from_u64(seed);
        let training = 16usize;
        let mut bits: Vec<bool> = Vec::with_capacity(training + nbits);
        for i in 0..training {
            bits.push(i % 2 == 0);
        }
        for _ in 0..nbits {
            bits.push(rng.random_bool(0.5));
        }
        let modulator = OokModulator::new(mc.samples_per_bit, mc.envelope_high, mc.envelope_low);
        let mut envelope = modulator.modulate(&bits);
        for s in envelope.iter_mut() {
            let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
            *s = (*s + mc.noise_rms * z).max(0.0);
        }
        let sliced = mc.chain.demodulate(&envelope, modulator.sample_interval(mc.rate));
        let mut errors = 0usize;
        for (i, &bit) in bits.iter().enumerate().skip(training) {
            if sliced[modulator.decision_index(i)] != bit {
                errors += 1;
            }
        }
        prop_assert_eq!(fused.bits, nbits);
        prop_assert_eq!(fused.errors, errors);
    }
}
