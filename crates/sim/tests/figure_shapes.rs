//! Mid-scale checks that the *shapes* of the paper's figures hold — the
//! same comparisons the full-scale harness prints, asserted at a size
//! that runs in seconds even in debug builds.

use p2ps_core::admission::Protocol;
use p2ps_sim::{AmpConfig, AmpConfigBuilder, AmpEngine, ArrivalPattern, ArrivalProcess};

const HOUR: u32 = 3_600;

fn base() -> AmpConfigBuilder {
    let mut b = AmpConfig::paper();
    b.seed_suppliers(10)
        .requesting_peers(3_000)
        .arrival_window_secs(24 * HOUR)
        .horizon_secs(48 * HOUR)
        .process(ArrivalProcess::Pattern(ArrivalPattern::Ramp));
    b
}

#[test]
fn fig4_shape_dac_amplifies_faster() {
    let dac_config = base().protocol(Protocol::Dac).build().unwrap();
    let dac = AmpEngine::new(dac_config.clone(), 42).run();
    let ndac = AmpEngine::new(base().protocol(Protocol::Ndac).build().unwrap(), 42).run();
    let mid = 16.0;
    assert!(
        dac.capacity().value_at(mid).unwrap() > 1.3 * ndac.capacity().value_at(mid).unwrap(),
        "DAC {} vs NDAC {} at {mid}h",
        dac.capacity().value_at(mid).unwrap(),
        ndac.capacity().value_at(mid).unwrap()
    );
    // DAC converges much higher by the end at this reduced scale (the
    // paper-scale harness reaches ≥95 % for both; at 3,000 peers over
    // 48 h NDAC is still far behind — the gap the figure is about).
    let max = dac_config.expected_max_capacity();
    assert!(dac.final_capacity() > 0.75 * max);
    assert!(dac.final_capacity() > 1.5 * ndac.final_capacity());
}

#[test]
fn fig5_shape_admission_rates_ordered_by_class_under_dac() {
    let dac = AmpEngine::new(base().build().unwrap(), 42).run();
    let rate = dac.class_admission_rate();
    let at = |k: u8, t: f64| rate.class(k).value_at(t).unwrap_or(0.0);
    // During the growth phase the rates are strictly ordered.
    let t = 16.0;
    assert!(
        at(1, t) > at(2, t) && at(2, t) > at(3, t) && at(3, t) > at(4, t),
        "rates at {t}h: {} / {} / {} / {}",
        at(1, t),
        at(2, t),
        at(3, t),
        at(4, t)
    );
}

#[test]
fn fig8a_shape_m4_collapses_capacity_growth() {
    let m4 = AmpEngine::new(base().m(4).build().unwrap(), 42).run();
    let m8 = AmpEngine::new(base().m(8).build().unwrap(), 42).run();
    let m16 = AmpEngine::new(base().m(16).build().unwrap(), 42).run();
    let end = 48.0;
    let c4 = m4.capacity().value_at(end).unwrap();
    let c8 = m8.capacity().value_at(end).unwrap();
    let c16 = m16.capacity().value_at(end).unwrap();
    assert!(c4 < 0.8 * c8, "M=4 ({c4}) should trail M=8 ({c8}) badly");
    assert!(
        (c16 - c8).abs() / c8 < 0.25,
        "M=16 ({c16}) should add little over M=8 ({c8})"
    );
}

#[test]
fn fig9_shape_constant_backoff_wins() {
    let e1 = AmpEngine::new(base().e_bkf(1).build().unwrap(), 42).run();
    let e4 = AmpEngine::new(base().e_bkf(4).build().unwrap(), 42).run();
    assert!(
        e1.final_overall_admission_rate() >= e4.final_overall_admission_rate(),
        "E_bkf=1 ({:.1}%) must beat E_bkf=4 ({:.1}%)",
        e1.final_overall_admission_rate(),
        e4.final_overall_admission_rate()
    );
    assert!(
        e1.attempts > e4.attempts,
        "constant backoff retries more aggressively"
    );
}

#[test]
fn fig7_shape_differentiation_relaxes_once_demand_stops() {
    let mut b = base();
    b.process(ArrivalProcess::Pattern(ArrivalPattern::PeriodicBursts));
    let report = AmpEngine::new(b.build().unwrap(), 42).run();
    let lowest_favored = report.lowest_favored();
    // At the end every supplier class favors everyone (value 4).
    for k in 1..=4u8 {
        let (_, last) = lowest_favored.class(k).last().unwrap();
        assert!(
            last > 3.9,
            "supplier class {k} ended at lowest-favored {last}"
        );
    }
    // Early on, class-1 suppliers are the most selective.
    let early_mean = |k: u8| {
        let pts: Vec<f64> = lowest_favored
            .class(k)
            .iter()
            .filter(|(t, _)| *t <= 12.0)
            .map(|(_, v)| v)
            .collect();
        pts.iter().sum::<f64>() / pts.len().max(1) as f64
    };
    assert!(
        early_mean(1) < early_mean(4),
        "class-1 suppliers ({:.2}) should favor fewer classes than class-4 ({:.2})",
        early_mean(1),
        early_mean(4)
    );
}

#[test]
fn table1_shape_rejections_ordered_and_dac_dominates() {
    let dac = AmpEngine::new(base().build().unwrap(), 42).run();
    let ndac = AmpEngine::new(base().protocol(Protocol::Ndac).build().unwrap(), 42).run();
    let d1 = dac.avg_rejections(1).unwrap();
    let d4 = dac.avg_rejections(4).unwrap();
    assert!(d1 < d4, "DAC: class 1 ({d1:.2}) < class 4 ({d4:.2})");
    let n: Vec<f64> = (1..=4).map(|k| ndac.avg_rejections(k).unwrap()).collect();
    let total_d: f64 = (1..=4).map(|k| dac.avg_rejections(k).unwrap()).sum();
    let total_n: f64 = n.iter().sum();
    assert!(
        total_d < total_n,
        "DAC total {total_d:.2} vs NDAC {total_n:.2}"
    );
}
