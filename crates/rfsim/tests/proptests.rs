//! Property-based tests for the propagation substrate.

use braidio_rfsim::channel::ChannelGain;
use braidio_rfsim::geometry::Point;
use braidio_rfsim::linkbudget::{LinkBudget, LinkKind};
use braidio_rfsim::pathloss::{backscatter_gain, free_space_gain, BackscatterLoss};
use braidio_rfsim::phase_cancel::BackscatterScene;
use braidio_units::{Hertz, Meters, Watts};
use proptest::prelude::*;

const F: Hertz = Hertz::UHF_915M;

proptest! {
    #[test]
    fn friis_monotone_decreasing(d in 0.1f64..50.0, delta in 0.01f64..10.0) {
        let g1 = free_space_gain(Meters::new(d), F);
        let g2 = free_space_gain(Meters::new(d + delta), F);
        prop_assert!(g2 <= g1);
    }

    #[test]
    fn backscatter_always_weaker_than_one_way(d in 0.1f64..20.0) {
        let one_way = free_space_gain(Meters::new(d), F);
        let two_way = backscatter_gain(Meters::new(d), Meters::new(d), F, BackscatterLoss::default());
        prop_assert!(two_way < one_way);
    }

    #[test]
    fn backscatter_splits_symmetrically(d1 in 0.2f64..10.0, d2 in 0.2f64..10.0) {
        let loss = BackscatterLoss::default();
        let a = backscatter_gain(Meters::new(d1), Meters::new(d2), F, loss);
        let b = backscatter_gain(Meters::new(d2), Meters::new(d1), F, loss);
        prop_assert!((a.db() - b.db()).abs() < 1e-9);
    }

    #[test]
    fn los_channel_power_matches_friis(x in 0.2f64..10.0, y in -5.0f64..5.0) {
        let b = Point::new(x, y);
        let g = ChannelGain::line_of_sight(Point::ORIGIN, b, F);
        let d = Point::ORIGIN.distance(b);
        prop_assert!((10.0 * g.0.norm_sqr().log10() - free_space_gain(d, F).db()).abs() < 1e-9);
    }

    #[test]
    fn link_budget_ordering_everywhere(d in 0.1f64..10.0, dbm in 0.0f64..20.0) {
        let budget = LinkBudget::default();
        let p = Watts::from_dbm(dbm);
        let dist = Meters::new(d);
        let active = budget.received_power(LinkKind::Active, p, dist);
        let passive = budget.received_power(LinkKind::PassiveRx, p, dist);
        let bs = budget.received_power(LinkKind::Backscatter, p, dist);
        prop_assert!(active >= passive);
        prop_assert!(passive > bs);
    }

    #[test]
    fn range_bisection_is_an_inverse(sens_dbm in -70.0f64..-35.0) {
        let budget = LinkBudget::default();
        let p = Watts::from_dbm(13.0);
        let sens = Watts::from_dbm(sens_dbm);
        if let Some(r) = budget.range_for_sensitivity(LinkKind::PassiveRx, p, sens) {
            if r.meters() < 99.0 {
                let rx = budget.received_power(LinkKind::PassiveRx, p, r);
                prop_assert!((rx.dbm() - sens_dbm).abs() < 0.05, "rx {} at {}", rx.dbm(), r);
            }
        }
    }

    #[test]
    fn envelope_delta_bounded_by_twice_tag_amplitude(x in 0.2f64..1.9, y in 0.2f64..1.9) {
        // |(|bg+v1| - |bg+v0|)| <= |v1 - v0| for any phasors.
        let scene = BackscatterScene::paper_fig4();
        let tag = Point::new(x, y);
        let delta = scene.envelope_delta(tag, 0);
        let v1 = scene.tag_phasor(tag, 0, scene.tag.gamma_on);
        let v0 = scene.tag_phasor(tag, 0, scene.tag.gamma_off);
        prop_assert!(delta <= (v1 - v0).abs() + 1e-15);
    }

    #[test]
    fn diversity_never_hurts(x in 0.2f64..1.9, y in 0.2f64..1.9) {
        let single = BackscatterScene::paper_fig4();
        let diverse = BackscatterScene::paper_fig4().with_diversity();
        let p = Point::new(x, y);
        let s1 = single.snr(p, 0);
        let s2 = diverse.snr_diversity(p).1;
        prop_assert!(s2 >= s1 - braidio_units::Decibels::new(1e-9));
    }
}
