//! Tier-1 smoke case for the shared-receiver bulk rebuild.
//!
//! Victims that listen at the same point under the same channel-plan row
//! share each interference edge evaluation in the bring-up wave. Through
//! the real edge kernel (FSPL through a scratch per pool chunk for the
//! grouped sums, and one per edge row for the lazy ones), every grouped sum must
//! equal the lazy per-victim sum and the brute-force rescan over the
//! two-`hypot` scalar kernel, bit for bit. The property-based version of
//! this check lives in `braidio-net`'s proptests.

use braidio::mac::coexistence::ChannelRelation;
use braidio::net::cache::{PairGainCache, GROUP_CAP};
use braidio::net::interference::EdgeKernel;
use braidio::net::Arbitration;
use braidio::radio::characterization::Characterization;
use braidio::rfsim::geometry::Point;
use braidio::rfsim::pathloss::FsplScratch;
use braidio::units::Watts;

#[test]
fn shared_receiver_wave_matches_lazy_and_brute_force_bitwise() {
    let ch = Characterization::braidio();
    let kernel = EdgeKernel::new(&ch);
    let arb = Arbitration::ChannelPlan { channels: 2 };
    // One crowded hub (more tags per channel than one group holds), two
    // small hubs, and a few pairs with receivers of their own; hub
    // membership interleaves in pair-index order, across tile boundaries.
    let n = 4 * GROUP_CAP;
    let eps: Vec<(Point, Point)> = (0..n)
        .map(|i| {
            let tag = Point::new((i % 17) as f64 * 0.75, (i / 17) as f64 * 1.25 + 0.5);
            let rx = match i % 7 {
                0 => Point::new(40.0 + i as f64, -3.0),
                1 => Point::new(9.0, -6.0),
                2 => Point::new(-4.0, 2.5),
                _ => Point::new(3.0, -1.0),
            };
            (tag, rx)
        })
        .collect();
    let mut live = vec![true; n];
    live[4] = false;
    live[11] = false;
    let gather = |v: usize, qs: &[u32]| {
        let a: Vec<Point> = qs.iter().map(|&q| eps[q as usize].0).collect();
        let b: Vec<Point> = qs.iter().map(|&q| eps[q as usize].1).collect();
        let rel: Vec<ChannelRelation> = qs.iter().map(|&q| arb.relation(v, q as usize)).collect();
        (a, b, rel)
    };
    // The engine's form: FSPL through the caller's scratch.
    let tile = |s: &mut FsplScratch, v: usize, qs: &[u32], out: &mut [Watts]| {
        let (a, b, rel) = gather(v, qs);
        kernel.carrier_tile_scratch(s, eps[v].1, &a, &b, &rel, out);
    };
    let key = |v: usize| {
        (
            eps[v].1.x.to_bits(),
            eps[v].1.y.to_bits(),
            arb.relation_row(v),
        )
    };
    let mut shared = PairGainCache::new(n);
    let mut lazy = PairGainCache::new(n);
    for (q, &alive) in live.iter().enumerate() {
        shared.set_live(q, alive);
        lazy.set_live(q, alive);
    }
    let (pa, pb): (Vec<Point>, Vec<Point>) = eps.iter().copied().unzip();
    shared.rebuild_all_shared(
        |_| true,
        key,
        (&pa, &pb),
        || kernel.fspl_scratch(),
        tile,
        FsplScratch::fold,
    );
    assert_eq!(shared.ndirty(), 0);
    for v in 0..n {
        let mut brute = Watts::new(0.0);
        for q in (0..n).filter(|&q| q != v && live[q]) {
            let (a, b) = eps[q];
            brute += kernel.carrier_from_pair(eps[v].1, a, b, arb.relation(v, q));
        }
        let grouped = shared.cached_sum(v).expect("every victim was rebuilt");
        let single =
            lazy.interference(v, key(v), || kernel.fspl_scratch(), tile, FsplScratch::fold);
        assert_eq!(
            grouped.watts().to_bits(),
            brute.watts().to_bits(),
            "victim {v}"
        );
        assert_eq!(
            single.watts().to_bits(),
            brute.watts().to_bits(),
            "victim {v}"
        );
    }
}
