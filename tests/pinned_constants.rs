//! Tier-1 witness for the characterization's committed constants.
//!
//! γ* is committed as a bit pattern. This test recomputes it from first
//! principles (a bisection over Marcum-Q), so an edited constant fails the
//! root test suite. The 1 024-knot noncoherent-OOK table has its own
//! oracle next to it in `braidio-phy`.

use braidio::phy::ber::{ber_ook_noncoherent, snr_for_ber};
use braidio::radio::characterization::{Characterization, OPERATIONAL_BER};

#[test]
fn gamma_star_matches_its_first_principles_oracle() {
    let pinned = Characterization::braidio().gamma_star();
    let oracle = snr_for_ber(ber_ook_noncoherent, OPERATIONAL_BER, 0.1, 1e4);
    assert_eq!(
        pinned.to_bits(),
        oracle.to_bits(),
        "committed γ* {pinned} differs from its oracle {oracle}"
    );
}
