//! Figure 8 — impact of the protocol parameters `M` (candidates probed
//! per attempt) and `T_out` (idle relaxation timeout) on capacity
//! amplification, under arrival pattern 2.

use p2ps_core::admission::Protocol;
use p2ps_metrics::TimeSeries;
use p2ps_sim::ArrivalPattern;

use crate::Harness;

fn renamed(series: &TimeSeries, name: &str) -> TimeSeries {
    let mut out = TimeSeries::new(name);
    out.extend(series.iter());
    out
}

/// Regenerates Figure 8 (a): `M ∈ {4, 8, 16, 32}`.
pub fn run_m(harness: &mut Harness) {
    println!("=== Figure 8(a): impact of M on capacity amplification ===");
    let mut curves = Vec::new();
    for m in [4usize, 8, 16, 32] {
        let report = harness.run(
            &format!("fig8a-m{m}"),
            ArrivalPattern::Ramp,
            Protocol::Dac,
            |b| {
                b.m(m);
            },
        );
        curves.push((m, renamed(&report.capacity(), &format!("M = {m}")), report));
    }
    {
        let refs: Vec<&TimeSeries> = curves.iter().map(|(_, s, _)| s).collect();
        harness.plot("Fig 8(a) — capacity vs M (pattern 2, DACp2p)", &refs);
        harness.write_csv("fig8a", "hour", &refs);
    }
    let half = f64::from(harness.config().horizon_secs()) / 3_600.0 / 2.0;
    for (m, s, _) in &curves {
        println!(
            "M = {m:>2}: capacity at {half:.0}h = {:.0}, final = {:.0}",
            s.value_at(half).unwrap_or(0.0),
            s.last().map(|(_, v)| v).unwrap_or(0.0)
        );
    }
    println!("(paper: M = 4 grows significantly slower; beyond 8 the gains are small)\n");
}

/// Regenerates Figure 8 (b): `T_out ∈ {1, 2, 20, 60, 120} min`.
pub fn run_tout(harness: &mut Harness) {
    println!("=== Figure 8(b): impact of T_out on capacity amplification ===");
    let mut curves = Vec::new();
    for minutes in [1u32, 2, 20, 60, 120] {
        let report = harness.run(
            &format!("fig8b-tout{minutes}"),
            ArrivalPattern::Ramp,
            Protocol::Dac,
            |b| {
                b.t_out_secs(minutes * 60);
            },
        );
        curves.push((
            minutes,
            renamed(&report.capacity(), &format!("T_out = {minutes} min")),
        ));
    }
    {
        let refs: Vec<&TimeSeries> = curves.iter().map(|(_, s)| s).collect();
        harness.plot("Fig 8(b) — capacity vs T_out (pattern 2, DACp2p)", &refs);
        harness.write_csv("fig8b", "hour", &refs);
    }
    for (minutes, s) in &curves {
        println!(
            "T_out = {minutes:>3} min: capacity at 36h = {:.0}, final = {:.0}",
            s.value_at(36.0).unwrap_or(0.0),
            s.last().map(|(_, v)| v).unwrap_or(0.0)
        );
    }
    println!("(paper: T_out should not be too short — early relaxation wastes high-class slots)\n");
}

/// Regenerates both halves of Figure 8.
pub fn run(harness: &mut Harness) {
    run_m(harness);
    run_tout(harness);
}
