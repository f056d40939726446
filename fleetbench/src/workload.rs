//! The benchmark's workloads: which scenario set each one runs, at full
//! and at smoke size, and how the seed enters.

use crate::host;
use braidio_net::{Arbitration, FleetScenario};
use braidio_units::{Meters, Seconds};

/// TDMA slot of every production fleet rung.
const SLOT: Seconds = Seconds::new(0.25);

/// Arrival-stream seed of the production churn rung.
const CHURN_SEED: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fleet::city_scenarios(10_000)`: one bulk wave of 10⁸ edges.
    City10k,
    /// The `--churn` rung: thousands of small cache-invalidating waves.
    Churn1k,
    /// A 1 024-pair room for 20 minutes: the serial event loop, no edge work.
    RoomLong,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::City10k, Workload::Churn1k, Workload::RoomLong];

    pub fn name(self) -> &'static str {
        match self {
            Workload::City10k => "city-10k",
            Workload::Churn1k => "churn-1k",
            Workload::RoomLong => "room-long",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pool threads the workload runs with. City's one 10⁸-edge wave is
    /// where fan-out pays, so it gets every core. Churn's thousands of
    /// small waves run faster on one thread than on two (each fan-out
    /// spawns and joins workers), and on a shared host every join also
    /// waits for the slowest core, which made churn's times spread by more
    /// than their bound; room has one small wave. Both run on one thread.
    pub fn threads(self) -> usize {
        match self {
            Workload::City10k => host::nproc(),
            Workload::Churn1k | Workload::RoomLong => 1,
        }
    }

    /// The scenario set one repetition runs, in run order. Every input is
    /// fixed: the benchmark's seed is recorded but changes nothing. Churn's
    /// arrival stream could follow the seed, but its cost varies from
    /// stream to stream by more than the host-time bounds (cold-run
    /// quartile spread 55 % of the median over seeds 21–25), so it always
    /// replays the production `--churn` stream.
    pub fn scenarios(self, smoke: bool) -> Vec<FleetScenario> {
        match self {
            Workload::City10k => {
                braidio_bench::fleet::city_scenarios(if smoke { 64 } else { 10_000 })
                    .into_iter()
                    .map(|(_, sc)| sc)
                    .collect()
            }
            Workload::Churn1k => {
                // Same shape, seed and policy order as
                // `fleet::churn_scenarios(1000)`.
                let (hubs, sessions, horizon) = if smoke {
                    (4, 40, 10.0)
                } else {
                    (16, 984, 60.0)
                };
                [
                    Arbitration::TdmaRoundRobin { slot: SLOT },
                    Arbitration::Uncoordinated,
                ]
                .into_iter()
                .map(|arb| {
                    FleetScenario::open_system(
                        hubs,
                        sessions,
                        Seconds::new(horizon),
                        CHURN_SEED,
                        arb,
                    )
                })
                .collect()
            }
            Workload::RoomLong => {
                let (pairs, horizon) = if smoke { (16, 120.0) } else { (1024, 1200.0) };
                vec![FleetScenario::grid_pairs(
                    pairs,
                    Meters::new(0.5),
                    Meters::new(3.0),
                    1.0,
                    1.0,
                    Arbitration::Uncoordinated,
                )
                .with_horizon(Seconds::new(horizon))]
            }
        }
    }
}
