//! Figure 5 — per-class accumulative request admission rate under
//! arrival pattern 2, `DACp2p` (differentiated) vs `NDACp2p` (flat).

use p2ps_core::admission::Protocol;
use p2ps_sim::ArrivalPattern;

use crate::Harness;

/// Regenerates Figure 5.
pub fn run(harness: &mut Harness) {
    println!("=== Figure 5: per-class accumulative admission rate (pattern 2) ===");
    for protocol in [Protocol::Dac, Protocol::Ndac] {
        let report = harness.run("fig4", ArrivalPattern::Ramp, protocol, |_| {});
        let rate = report.class_admission_rate();
        let series: Vec<_> = (1..=4).map(|k| rate.class(k)).collect();
        harness.plot(
            &format!("Fig 5 — accumulative admission rate (%), {protocol}"),
            &series,
        );
        harness.write_csv(&format!("fig5_{}", protocol.name()), "hour", &series);
        let finals: Vec<String> = (1..=4)
            .map(|k| {
                format!(
                    "class {k}: {:.1}%",
                    rate.class(k).last().map(|(_, v)| v).unwrap_or(0.0)
                )
            })
            .collect();
        println!("{protocol} final rates: {}\n", finals.join(", "));
    }

    // Differentiation check at an early hour: under DAC higher classes
    // must be admitted at a higher rate than lower classes.
    let dac = harness.run("fig4", ArrivalPattern::Ramp, Protocol::Dac, |_| {});
    let early = 24.0;
    let rate = dac.class_admission_rate();
    let at = |k: u8| rate.class(k).value_at(early).unwrap_or(0.0);
    println!(
        "DAC admission rate at {early}h by class: {:.1} / {:.1} / {:.1} / {:.1} (paper: monotone in class)",
        at(1), at(2), at(3), at(4)
    );
}
