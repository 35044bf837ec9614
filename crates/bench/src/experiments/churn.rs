//! Churn study (beyond the paper): what happens when suppliers *leave*?
//!
//! The paper's model keeps every converted supplier forever. Real peers
//! quit. This experiment gives each converted supplier an exponentially
//! distributed lifetime with a bounded mean and compares
//! capacity and admission under `DACp2p` vs `NDACp2p` — the self-growing
//! property now has to outrun attrition.

use p2ps_core::admission::Protocol;
use p2ps_metrics::{Table, TimeSeries};
use p2ps_sim::ArrivalPattern;

use crate::Harness;

fn renamed(series: &TimeSeries, name: &str) -> TimeSeries {
    let mut out = TimeSeries::new(name);
    out.extend(series.iter());
    out
}

/// Runs the churn grid: mean supplier lifetimes of 6 h, 24 h and ∞.
pub fn run(harness: &mut Harness) {
    println!("=== Churn: bounded supplier lifetimes (pattern 2) ===");
    let lifetimes: [(&str, Option<u32>); 3] =
        [("6h", Some(6)), ("24h", Some(24)), ("forever", None)];

    let mut table = Table::new([
        "mean lifetime",
        "protocol",
        "peak capacity",
        "final capacity",
        "overall admission %",
    ]);
    let mut curves = Vec::new();
    for (label, hours) in lifetimes {
        for protocol in [Protocol::Dac, Protocol::Ndac] {
            let report = harness.run(
                &format!("churn-{label}"),
                ArrivalPattern::Ramp,
                protocol,
                |b| {
                    if let Some(h) = hours {
                        b.supplier_lifetime_secs(h * 3_600);
                    }
                },
            );
            let peak = report
                .capacity()
                .iter()
                .map(|(_, v)| v)
                .fold(0.0f64, f64::max);
            table.row([
                label.to_owned(),
                protocol.to_string(),
                format!("{peak:.0}"),
                format!("{:.0}", report.final_capacity()),
                format!("{:.1}", report.final_overall_admission_rate()),
            ]);
            if protocol == Protocol::Dac {
                curves.push(renamed(
                    &report.capacity(),
                    &format!("DAC mean lifetime {label}"),
                ));
            }
        }
    }
    {
        let refs: Vec<&TimeSeries> = curves.iter().collect();
        harness.plot("Churn — DACp2p capacity under bounded lifetimes", &refs);
        harness.write_csv("churn", "hour", &refs);
    }
    println!("{table}");
    harness.write_text("churn_table", &table.to_csv());
    println!(
        "(with bounded lifetimes capacity tracks the arrival rate instead of accumulating;\n differentiation still wins while requests outnumber supply)\n"
    );
}
