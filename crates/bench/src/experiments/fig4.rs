//! Figure 4 — system capacity amplification, `DACp2p` vs `NDACp2p`.
//!
//! The paper plots total system capacity over 144 hours under arrival
//! patterns 2 and 4; we also run patterns 1 and 3 for completeness.

use p2ps_core::admission::Protocol;
use p2ps_metrics::TimeSeries;
use p2ps_sim::ArrivalPattern;

use crate::Harness;

fn renamed(series: &TimeSeries, name: &str) -> TimeSeries {
    let mut out = TimeSeries::new(name);
    out.extend(series.iter());
    out
}

/// Regenerates Figure 4 (plus patterns 1 and 3).
pub fn run(harness: &mut Harness) {
    println!("=== Figure 4: capacity amplification (DACp2p vs NDACp2p) ===");
    for pattern in [
        ArrivalPattern::Ramp,
        ArrivalPattern::PeriodicBursts,
        ArrivalPattern::Constant,
        ArrivalPattern::InitialBurst,
    ] {
        let n = pattern.paper_number().expect("paper pattern");
        let dac = harness.run("fig4", pattern.clone(), Protocol::Dac, |_| {});
        let ndac = harness.run("fig4", pattern.clone(), Protocol::Ndac, |_| {});
        let dac_series = renamed(&dac.capacity(), "DAC_p2p");
        let ndac_series = renamed(&ndac.capacity(), "NDAC_p2p");
        harness.plot(
            &format!("Fig 4 — total system capacity, arrival pattern {n}"),
            &[&dac_series, &ndac_series],
        );
        harness.write_csv(
            &format!("fig4_pattern{n}"),
            "hour",
            &[&dac_series, &ndac_series],
        );
        let max = harness.config().expected_max_capacity();
        println!(
            "pattern {n}: final capacity DAC={:.0} ({:.1}% of max {max:.0}), NDAC={:.0} ({:.1}%)",
            dac.final_capacity(),
            100.0 * dac.final_capacity() / max,
            ndac.final_capacity(),
            100.0 * ndac.final_capacity() / max,
        );
        let mid = f64::from(harness.config().horizon_secs()) / 3_600.0 / 6.0;
        println!(
            "pattern {n}: capacity at {mid:.0}h  DAC={:.0}  NDAC={:.0}  (paper: DAC grows significantly faster)\n",
            dac.capacity().value_at(mid).unwrap_or(0.0),
            ndac.capacity().value_at(mid).unwrap_or(0.0),
        );
    }
}
