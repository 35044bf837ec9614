//! Figure 9 — impact of the backoff exponential factor `E_bkf` on the
//! overall request admission rate, under arrival pattern 2.
//!
//! The paper's counter-intuitive finding: in a *self-growing* system,
//! aggressive retries (constant backoff, `E_bkf = 1`) beat exponential
//! backoff, because early admissions amplify capacity for everyone.

use p2ps_core::admission::Protocol;
use p2ps_metrics::TimeSeries;
use p2ps_sim::ArrivalPattern;

use crate::Harness;

fn renamed(series: &TimeSeries, name: &str) -> TimeSeries {
    let mut out = TimeSeries::new(name);
    out.extend(series.iter());
    out
}

/// Regenerates Figure 9.
pub fn run(harness: &mut Harness) {
    println!("=== Figure 9: impact of E_bkf on overall admission rate ===");
    let mut curves = Vec::new();
    for factor in [1u32, 2, 3, 4] {
        let report = harness.run(
            &format!("fig9-e{factor}"),
            ArrivalPattern::Ramp,
            Protocol::Dac,
            |b| {
                b.e_bkf(factor);
            },
        );
        curves.push((
            factor,
            renamed(
                &report.overall_admission_rate(),
                &format!("E_bkf = {factor}"),
            ),
            report,
        ));
    }
    {
        let refs: Vec<&TimeSeries> = curves.iter().map(|(_, s, _)| s).collect();
        harness.plot(
            "Fig 9 — accumulative overall admission rate (%) vs E_bkf (pattern 2)",
            &refs,
        );
        harness.write_csv("fig9", "hour", &refs);
    }
    for (factor, _, report) in &curves {
        println!(
            "E_bkf = {factor}: final overall admission rate {:.1}% ({} attempts)",
            report.final_overall_admission_rate(),
            report.attempts
        );
    }
    println!("(paper: higher E_bkf lowers the admission rate; constant backoff wins)\n");
}
