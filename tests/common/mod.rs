//! Shared by the root suites that read the golden-digest manifest.

use braidio::net::{Arbitration, FleetScenario};
use braidio::units::{Meters, Seconds};

/// The committed manifest: one `<scenario> <artifact> <hex>` line per
/// pinned digest, `#` lines are comments.
pub const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/goldens/digests.txt");

/// The pinned digest of `artifact` of `scenario`.
pub fn golden(scenario: &str, artifact: &str) -> u64 {
    let text = std::fs::read_to_string(MANIFEST).expect("read the golden manifest");
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [s, a, hex] if s == scenario && a == artifact => {
                Some(u64::from_str_radix(hex, 16).expect("a hex digest"))
            }
            _ => None,
        })
        .unwrap_or_else(|| panic!("no golden line for {scenario} {artifact}"))
}

/// Four pairs in a row, 1 mWh transmitters and 4 mWh receivers, run until
/// every battery-limited session has ended on a partial last quantum.
pub fn drain_fleet(arbitration: Arbitration) -> FleetScenario {
    FleetScenario::independent_pairs(
        4,
        Meters::new(0.5),
        Meters::new(5.0),
        1e-3,
        4e-3,
        arbitration,
    )
    .with_horizon(Seconds::new(1e6))
}
