//! The paper's §5 model at unit-test scale: `AmpConfig::paper()` holds
//! the §5.1 values, and the per-class counters and hourly series behind
//! the figures and Table 1 behave as the paper's setup requires —
//! capacity grows from the seeds, most peers are admitted, DAC beats
//! NDAC early, rejections order by class, every session has at least
//! one supplier, and the ablation switches and churn act on the run.

use p2ps_core::admission::Protocol;
use p2ps_sim::{AmpConfig, AmpConfigBuilder, AmpEngine, AmpReport, ArrivalPattern, ArrivalProcess};

#[test]
fn paper_defaults_match_section_5_1() {
    let c = AmpConfig::paper().build().unwrap();
    assert_eq!(c.seed_suppliers(), 100);
    assert_eq!(c.requesting_peers(), 50_000);
    assert_eq!(c.catalog_items(), 1);
    assert_eq!(c.num_classes(), 4);
    assert_eq!(c.class_mix(), &[0.10, 0.10, 0.40, 0.40]);
    assert_eq!(c.m(), 8);
    assert_eq!(c.t_out_secs(), 1_200);
    assert_eq!(c.t_bkf_secs(), 600);
    assert_eq!(c.e_bkf(), 2);
    assert_eq!(c.session_secs(), 3_600);
    assert_eq!(c.arrival_window_secs(), 72 * 3_600);
    assert_eq!(c.horizon_secs(), 144 * 3_600);
    assert_eq!(c.process(), &ArrivalProcess::Pattern(ArrivalPattern::Ramp));
    assert_eq!(c.protocol(), Protocol::Dac);
    assert!(c.reminders() && c.session_relax());
    assert_eq!(c.supplier_lifetime_secs(), 0);
}

#[test]
fn expected_max_capacity_matches_paper_model() {
    // Evaluation scale (shift 1): 100·0.5 + 50,000·(0.1·0.5 + 0.1·0.25
    // + 0.4·0.125 + 0.4·0.0625) = 7,550 — consistent with the paper's
    // Fig. 4 axis and its "95% of maximum" claim.
    let c = AmpConfig::paper().build().unwrap();
    assert_eq!(c.bandwidth_shift(), 1);
    assert!((c.expected_max_capacity() - 7_550.0).abs() < 1e-6);
    // Literal §2 scale (shift 0): 100 + 50,000·0.3 = 15,100.
    let literal = AmpConfig::paper().bandwidth_shift(0).build().unwrap();
    assert!((literal.expected_max_capacity() - 15_100.0).abs() < 1e-6);
}

#[test]
fn builder_overrides() {
    let c = AmpConfig::builder()
        .seed_suppliers(5)
        .requesting_peers(50)
        .m(4)
        .t_out_secs(60)
        .t_bkf_secs(120)
        .e_bkf(3)
        .session_secs(600)
        .arrival_window_secs(2 * 3_600)
        .horizon_secs(4 * 3_600)
        .epoch_secs(30)
        .protocol(Protocol::Ndac)
        .process(ArrivalProcess::Pattern(ArrivalPattern::Constant))
        .catalog_items(3)
        .zipf_exponent(0.5)
        .supplier_lifetime_secs(900)
        .reminders(false)
        .session_relax(false)
        .shards(2)
        .threads(2)
        .build()
        .unwrap();
    assert_eq!(c.seed_suppliers(), 5);
    assert_eq!(c.requesting_peers(), 50);
    assert_eq!(c.m(), 4);
    assert_eq!(c.t_out_secs(), 60);
    assert_eq!(c.t_bkf_secs(), 120);
    assert_eq!(c.e_bkf(), 3);
    assert_eq!(c.session_secs(), 600);
    assert_eq!(c.arrival_window_secs(), 7_200);
    assert_eq!(c.horizon_secs(), 14_400);
    assert_eq!(c.epochs(), 480);
    assert_eq!(c.protocol(), Protocol::Ndac);
    assert_eq!(
        c.process(),
        &ArrivalProcess::Pattern(ArrivalPattern::Constant)
    );
    assert_eq!(c.catalog_items(), 3);
    assert_eq!(c.zipf_exponent(), 0.5);
    assert_eq!(c.supplier_lifetime_secs(), 900);
    assert!(!c.reminders());
    assert!(!c.session_relax());
    assert_eq!((c.shards(), c.threads()), (2, 2));
}

/// The paper's setup at unit-test scale: 4 class-1 seeds, 200
/// requesters over 12 h, 30-minute sessions, a 30 h horizon.
fn paper_small(protocol: Protocol) -> AmpConfigBuilder {
    let mut builder = AmpConfig::paper();
    builder
        .seed_suppliers(4)
        .requesting_peers(200)
        .arrival_window_secs(12 * 3_600)
        .horizon_secs(30 * 3_600)
        .session_secs(30 * 60)
        .process(ArrivalProcess::Pattern(ArrivalPattern::Constant))
        .protocol(protocol);
    builder
}

fn admitted(report: &AmpReport) -> u64 {
    report.classes.iter().map(|c| c.admits).sum()
}

#[test]
fn capacity_grows_from_seeds() {
    let report = AmpEngine::new(paper_small(Protocol::Dac).build().unwrap(), 1).run();
    // 4 class-1 seeds offer R0/2 each: 2 sessions to start with.
    assert!(
        report.final_capacity() > 4.0,
        "capacity {} did not grow past the seeds",
        report.final_capacity()
    );
    // Without churn capacity never falls.
    let vals: Vec<f64> = report.capacity().iter().map(|(_, v)| v).collect();
    assert!(vals.windows(2).all(|w| w[1] >= w[0]));
}

#[test]
fn most_peers_eventually_admitted() {
    let report = AmpEngine::new(paper_small(Protocol::Dac).build().unwrap(), 7).run();
    let requested: u64 = report.classes.iter().map(|c| c.first_requests).sum();
    assert_eq!(requested, 200);
    assert!(
        admitted(&report) as f64 >= 0.9 * requested as f64,
        "only {}/{requested} admitted",
        admitted(&report)
    );
    // Every admitted session ends well before the horizon.
    assert_eq!(report.supplies, admitted(&report));
    assert_eq!(report.admits, admitted(&report));
}

#[test]
fn ndac_also_converges() {
    let report = AmpEngine::new(paper_small(Protocol::Ndac).build().unwrap(), 7).run();
    assert!(
        admitted(&report) > 150,
        "NDAC admitted only {}",
        admitted(&report)
    );
}

#[test]
fn dac_beats_ndac_on_early_capacity() {
    // The paper's central claim (Fig. 4): DACp2p amplifies capacity
    // faster. Compare capacity midway through the run.
    let dac = AmpEngine::new(paper_small(Protocol::Dac).build().unwrap(), 5).run();
    let ndac = AmpEngine::new(paper_small(Protocol::Ndac).build().unwrap(), 5).run();
    let mid = 10.0;
    let dac_mid = dac.capacity().value_at(mid).unwrap();
    let ndac_mid = ndac.capacity().value_at(mid).unwrap();
    assert!(
        dac_mid >= ndac_mid,
        "DAC {dac_mid} behind NDAC {ndac_mid} at {mid}h"
    );
}

#[test]
fn higher_classes_see_fewer_rejections_under_dac() {
    let cfg = paper_small(Protocol::Dac)
        .requesting_peers(600)
        .horizon_secs(36 * 3_600)
        .build()
        .unwrap();
    let report = AmpEngine::new(cfg, 3).run();
    let r1 = report.avg_rejections(1).unwrap();
    let r4 = report.avg_rejections(4).unwrap();
    assert!(
        r1 <= r4,
        "class 1 averaged {r1} rejections vs class 4's {r4}"
    );
}

#[test]
fn buffering_delay_is_at_least_one_slot() {
    let report = AmpEngine::new(paper_small(Protocol::Dac).build().unwrap(), 11).run();
    for k in 1..=4 {
        if let Some(d) = report.avg_delay_slots(k) {
            assert!(d >= 1.0, "class {k} delay {d}");
            assert!(d <= 8.0, "class {k} delay {d} exceeds 8 suppliers");
        }
    }
}

#[test]
fn snapshots_cover_the_whole_horizon() {
    let report = AmpEngine::new(paper_small(Protocol::Dac).build().unwrap(), 1).run();
    let capacity = report.capacity();
    assert_eq!(capacity.time_range(), Some((0.0, 30.0)));
    assert_eq!(capacity.len(), 31);
    // 30 h of hourly samples fill ten 3-hour Fig. 7 windows plus the
    // window the hour-30 sample opens.
    assert_eq!(report.favored.len(), 11);
}

#[test]
fn favored_series_present_for_dac() {
    let report = AmpEngine::new(paper_small(Protocol::Dac).build().unwrap(), 1).run();
    // Seeds are class 1; their favored series must have samples, and
    // the first window starts from seeds that favor only class 1.
    let favored = report.lowest_favored();
    assert!(!favored.class(1).is_empty());
    assert!(favored.class(1).iter().next().unwrap().1 < 4.0);
    assert!(favored
        .class(1)
        .iter()
        .all(|(_, v)| (1.0..=4.0).contains(&v)));
}

#[test]
fn churn_system_still_functions_with_replenishment() {
    let cfg = paper_small(Protocol::Dac)
        .seed_suppliers(8)
        .requesting_peers(400)
        .supplier_lifetime_secs(6 * 3_600)
        .build()
        .unwrap();
    let report = AmpEngine::new(cfg.clone(), 3).run();
    assert!(
        admitted(&report) > 100,
        "churned system admitted only {}",
        admitted(&report)
    );
    assert!(report.departures > 0);
    // Lifetimes are bounded, so capacity sits well below the
    // no-churn maximum.
    assert!(report.final_capacity() < cfg.expected_max_capacity() / 2.0);
}

#[test]
fn ablation_switches_change_only_their_mechanism() {
    let base = AmpEngine::new(paper_small(Protocol::Dac).build().unwrap(), 9).run();
    let no_reminders = AmpEngine::new(
        paper_small(Protocol::Dac).reminders(false).build().unwrap(),
        9,
    )
    .run();
    let no_relax = AmpEngine::new(
        paper_small(Protocol::Dac)
            .session_relax(false)
            .build()
            .unwrap(),
        9,
    )
    .run();
    assert_ne!(no_reminders.trace_hash, base.trace_hash);
    assert_ne!(no_relax.trace_hash, base.trace_hash);
    // NDAC never tightens or relaxes at session end, so both switches
    // are inert there.
    let ndac = AmpEngine::new(paper_small(Protocol::Ndac).build().unwrap(), 9).run();
    let ndac_off = AmpEngine::new(
        paper_small(Protocol::Ndac)
            .reminders(false)
            .session_relax(false)
            .build()
            .unwrap(),
        9,
    )
    .run();
    assert_eq!(ndac.trace_hash, ndac_off.trace_hash);
}

#[test]
fn per_class_totals_agree_with_the_trace_counters() {
    let report = AmpEngine::new(paper_small(Protocol::Dac).build().unwrap(), 13).run();
    assert_eq!(admitted(&report), report.admits);
    let last = report.hourly.last().unwrap();
    assert_eq!(last.t_secs, report.capacity_curve.last().unwrap().0);
    assert_eq!(last.capacity_raw, report.final_capacity_raw);
    for (k, c) in report.classes.iter().enumerate() {
        assert_eq!(last.first_requests[k], c.first_requests);
        assert_eq!(last.admits[k], c.admits);
        assert_eq!(last.delay_slots[k], c.delay_slots);
        assert_eq!(c.waiting_hist.iter().sum::<u64>(), c.admits);
        assert!(c.delay_slots >= c.admits, "every session has a supplier");
    }
}
