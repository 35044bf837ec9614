//! The paper's headline experiment (Figure 4) at example scale: capacity
//! amplification under `DACp2p` vs the non-differentiated `NDACp2p`.
//!
//! Runs two 5,000-peer simulations (48 h of simulated time, seconds of
//! wall time) and plots both capacity curves side by side.
//!
//! Run with `cargo run --release --example capacity_growth`.

use p2ps::core::admission::Protocol;
use p2ps::metrics::{AsciiPlot, TimeSeries};
use p2ps::sim::{AmpConfig, AmpEngine, ArrivalPattern, ArrivalProcess};

fn renamed(series: &TimeSeries, name: &str) -> TimeSeries {
    let mut out = TimeSeries::new(name);
    out.extend(series.iter());
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut reports = Vec::new();
    for protocol in [Protocol::Dac, Protocol::Ndac] {
        let config = AmpConfig::paper()
            .seed_suppliers(10)
            .requesting_peers(5_000)
            .arrival_window_secs(24 * 3_600)
            .horizon_secs(48 * 3_600)
            .process(ArrivalProcess::Pattern(ArrivalPattern::Ramp))
            .protocol(protocol)
            .build()?;
        let started = std::time::Instant::now();
        let report = AmpEngine::new(config, 42).run();
        println!(
            "{protocol}: simulated 48h of 5,010 peers in {:?} — final capacity {:.0}",
            started.elapsed(),
            report.final_capacity()
        );
        reports.push((protocol, report));
    }

    let dac = renamed(&reports[0].1.capacity(), "DAC_p2p");
    let ndac = renamed(&reports[1].1.capacity(), "NDAC_p2p");
    let plot = AsciiPlot::new(
        "Total system capacity over time (arrival pattern 2)",
        72,
        20,
    )
    .series(&dac)
    .series(&ndac);
    println!("\n{}", plot.render());

    for (protocol, report) in &reports {
        println!("--- {protocol} ---");
        for k in 1..=4u8 {
            println!(
                "  class {k}: admission {:.1}%, avg rejections {:.2}, avg buffering delay {:.2}·δt",
                report
                    .class_admission_rate()
                    .class(k)
                    .last()
                    .map(|(_, v)| v)
                    .unwrap_or(0.0),
                report.avg_rejections(k).unwrap_or(0.0),
                report.avg_delay_slots(k).unwrap_or(0.0),
            );
        }
    }
    println!(
        "\nThe differentiated protocol amplifies capacity faster *and* serves every class better —\nthe paper's central result."
    );
    Ok(())
}
