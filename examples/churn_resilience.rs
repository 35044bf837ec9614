//! Beyond the paper: what happens when suppliers *leave*?
//!
//! The paper's suppliers serve forever. Here each converted peer
//! supplies for an exponentially distributed lifetime with a bounded
//! mean, and the system must outgrow its own attrition. Under heavy churn the differentiated protocol is no longer
//! just faster — it is the difference between a functioning system and a
//! collapsed one.
//!
//! Run with `cargo run --release --example churn_resilience`.

use p2ps::core::admission::Protocol;
use p2ps::metrics::{AsciiPlot, Table, TimeSeries};
use p2ps::sim::{AmpConfig, AmpEngine, ArrivalPattern, ArrivalProcess};

fn renamed(series: &TimeSeries, name: &str) -> TimeSeries {
    let mut out = TimeSeries::new(name);
    out.extend(series.iter());
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut table = Table::new([
        "mean lifetime",
        "protocol",
        "peak capacity",
        "overall admission %",
    ]);
    let mut curves = Vec::new();

    for lifetime_hours in [4u32, 12, 0] {
        for protocol in [Protocol::Dac, Protocol::Ndac] {
            let config = AmpConfig::paper()
                .seed_suppliers(20)
                .requesting_peers(8_000)
                .arrival_window_secs(36 * 3_600)
                .horizon_secs(72 * 3_600)
                .process(ArrivalProcess::Pattern(ArrivalPattern::Ramp))
                .protocol(protocol)
                .supplier_lifetime_secs(lifetime_hours * 3_600)
                .build()?;
            let report = AmpEngine::new(config, 42).run();
            let peak = report
                .capacity()
                .iter()
                .map(|(_, v)| v)
                .fold(0.0f64, f64::max);
            let label = if lifetime_hours == 0 {
                "forever".to_owned()
            } else {
                format!("{lifetime_hours}h")
            };
            table.row([
                label.clone(),
                protocol.to_string(),
                format!("{peak:.0}"),
                format!("{:.1}", report.final_overall_admission_rate()),
            ]);
            if protocol == Protocol::Dac {
                curves.push(renamed(
                    &report.capacity(),
                    &format!("DAC, lifetime {label}"),
                ));
            }
        }
    }

    let mut plot = AsciiPlot::new("DACp2p capacity under bounded supplier lifetimes", 72, 18);
    for c in &curves {
        plot = plot.series(c);
    }
    println!("{}", plot.render());
    println!("{table}");
    println!(
        "Under heavy churn NDACp2p squanders scarce high-class supply on low-class\n\
         requesters and nearly collapses, while DACp2p keeps the system alive —\n\
         differentiation as a survival property."
    );
    Ok(())
}
