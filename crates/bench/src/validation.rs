//! Model validation: cross-checks that are not figures in the paper but
//! guard the reproduction's internal consistency.
//!
//! 1. Monte-Carlo BER through the real circuit chain vs the closed-form
//!    noncoherent model.
//! 2. Transient charge-pump simulation vs the small-signal/ideal laws.
//! 3. The analytic lifetime simulator vs the packet-stepped live link.

use crate::render::banner;
use braidio_circuits::DicksonChargePump;
use braidio_phy::ber::ber_ook_noncoherent;
use braidio_phy::montecarlo::MonteCarloBer;
use braidio_units::{BitsPerSecond, Hertz};

/// Validation A's measured BER at linear SNR `gamma`: the real circuit
/// chain, with the simulated bit count scaled from the analytic prediction
/// (≈50 expected errors) and floored at half an error. Each SNR point is
/// asked once per run, so nothing is memoized.
fn mc_ber(gamma: f64) -> f64 {
    let analytic = ber_ook_noncoherent(gamma);
    let bits = ((50.0 / analytic) as usize).clamp(2_000, 60_000);
    let mc = MonteCarloBer::at_snr(gamma, BitsPerSecond::KBPS_100, bits, 7).run();
    mc.ber().max(0.5 / bits as f64)
}

/// Run all validation passes.
pub fn run() {
    banner(
        "Validation A",
        "Monte-Carlo BER through the circuit chain vs the closed-form model",
    );
    println!(
        "{:>9} {:>14} {:>14} {:>8}",
        "SNR (dB)", "analytic", "monte-carlo", "ratio"
    );
    for snr_db in [4.0, 6.0, 8.0, 10.0, 12.0] {
        let gamma = 10f64.powf(snr_db / 10.0);
        let analytic = ber_ook_noncoherent(gamma);
        let measured = mc_ber(gamma);
        println!(
            "{:>9.1} {:>14.3e} {:>14.3e} {:>8.2}",
            snr_db,
            analytic,
            measured,
            measured / analytic
        );
    }
    println!("\nratios near 1 at low/moderate SNR confirm the chain implements near-optimal");
    println!("noncoherent detection; the growing gap at high SNR is the classic implementation");
    println!("loss of a fixed (non-adaptive) slicer plus detector ISI — an error floor the");
    println!("ideal closed form does not have.");

    banner("Validation B", "Charge-pump transient vs closed-form laws");
    for (stages, v_amp) in [(1usize, 1.0f64), (1, 0.5), (2, 1.0), (3, 0.8)] {
        let pump = DicksonChargePump::multi_stage(stages);
        let settled = pump
            .transient_sine(v_amp, Hertz::from_mhz(1.0), 80.0)
            .settled_output(0.1);
        let ideal = pump.ideal_output(v_amp);
        println!(
            "{} stage(s) @ {:.1} V: transient {:.3} V vs ideal 2N(Va-Vf) = {:.3} V ({:+.1}%)",
            stages,
            v_amp,
            settled,
            ideal,
            100.0 * (settled / ideal - 1.0)
        );
    }

    banner(
        "Validation C",
        "Analytic lifetime simulator vs packet-stepped live link (tiny batteries)",
    );
    use braidio::live::{LiveConfig, LiveLink, PacketOutcome};
    use braidio::Transfer;
    let tiny = braidio_radio::devices::Device {
        name: "tiny (0.25 mWh)",
        battery_wh: 0.00025,
    };
    let small = braidio_radio::devices::Device {
        name: "small (2.5 mWh)",
        battery_wh: 0.0025,
    };
    let mut link = LiveLink::open(
        tiny,
        small,
        LiveConfig {
            payload_bytes: 255,
            replan_every: 2000,
            ..LiveConfig::default()
        },
    );
    loop {
        match link.step() {
            PacketOutcome::BatteryDead | PacketOutcome::LinkDown => break,
            _ => {}
        }
    }
    let live_payload = link.stats().delivered as f64 * 255.0 * 8.0;
    let analytic = Transfer::between(tiny, small).run().braidio.bits;
    println!(
        "live payload bits {:.4e} vs analytic link bits {:.4e} (ratio {:.3})",
        live_payload,
        analytic,
        live_payload / analytic
    );
    println!("the gap is framing overhead (preamble/sync/CRC ≈ 4%) plus probe airtime.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs() {
        super::run();
    }

    #[test]
    fn mc_ber_is_seeded_and_stays_near_the_closed_form() {
        // A fixed seed makes the measured point a pure function of γ, and
        // at 4 dB the chain is within a factor of two of the closed form.
        let gamma = 10f64.powf(0.4);
        let first = mc_ber(gamma);
        assert_eq!(first.to_bits(), mc_ber(gamma).to_bits());
        let ratio = first / ber_ook_noncoherent(gamma);
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }
}
