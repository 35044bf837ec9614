//! Table 1 — per-class average number of rejections before admission,
//! `DACp2p` / `NDACp2p`, under arrival patterns 2 and 4.
//!
//! The paper also derives the average waiting time from the rejection
//! count; we report the directly measured waiting time alongside.

use p2ps_core::admission::Protocol;
use p2ps_metrics::Table;
use p2ps_sim::ArrivalPattern;

use crate::Harness;

/// Paper values for comparison: `(pattern 2 DAC/NDAC, pattern 4 DAC/NDAC)`
/// per class.
const PAPER: [[f64; 4]; 4] = [
    // class 1..4: [p2 dac, p2 ndac, p4 dac, p4 ndac]
    [1.77, 3.73, 1.93, 3.45],
    [1.93, 3.75, 2.19, 3.46],
    [2.40, 3.72, 2.59, 3.42],
    [3.15, 3.74, 3.16, 3.46],
];

/// Regenerates Table 1.
pub fn run(harness: &mut Harness) {
    println!("=== Table 1: average rejections before admission ===");
    let p2_dac = harness.run("fig4", ArrivalPattern::Ramp, Protocol::Dac, |_| {});
    let p2_ndac = harness.run("fig4", ArrivalPattern::Ramp, Protocol::Ndac, |_| {});
    let p4_dac = harness.run(
        "fig4",
        ArrivalPattern::PeriodicBursts,
        Protocol::Dac,
        |_| {},
    );
    let p4_ndac = harness.run(
        "fig4",
        ArrivalPattern::PeriodicBursts,
        Protocol::Ndac,
        |_| {},
    );

    let mut table = Table::new([
        "Avg. rejections",
        "Pattern 2 (ours)",
        "Pattern 2 (paper)",
        "Pattern 4 (ours)",
        "Pattern 4 (paper)",
    ]);
    for k in 1..=4u8 {
        let i = (k - 1) as usize;
        table.row([
            format!("Class {k}"),
            format!(
                "{:.2}/{:.2}",
                p2_dac.avg_rejections(k).unwrap_or(f64::NAN),
                p2_ndac.avg_rejections(k).unwrap_or(f64::NAN)
            ),
            format!("{:.2}/{:.2}", PAPER[i][0], PAPER[i][1]),
            format!(
                "{:.2}/{:.2}",
                p4_dac.avg_rejections(k).unwrap_or(f64::NAN),
                p4_ndac.avg_rejections(k).unwrap_or(f64::NAN)
            ),
            format!("{:.2}/{:.2}", PAPER[i][2], PAPER[i][3]),
        ]);
    }
    println!("{table}");
    println!("(cells are DACp2p/NDACp2p; paper columns are Table 1 of the paper)\n");

    let mut waiting = Table::new([
        "Avg. waiting (min)",
        "Pattern 2 DAC",
        "Pattern 2 NDAC",
        "Pattern 4 DAC",
        "Pattern 4 NDAC",
    ]);
    for k in 1..=4u8 {
        waiting.row([
            format!("Class {k}"),
            format!(
                "{:.1}",
                p2_dac.avg_waiting_secs(k).unwrap_or(f64::NAN) / 60.0
            ),
            format!(
                "{:.1}",
                p2_ndac.avg_waiting_secs(k).unwrap_or(f64::NAN) / 60.0
            ),
            format!(
                "{:.1}",
                p4_dac.avg_waiting_secs(k).unwrap_or(f64::NAN) / 60.0
            ),
            format!(
                "{:.1}",
                p4_ndac.avg_waiting_secs(k).unwrap_or(f64::NAN) / 60.0
            ),
        ]);
    }
    println!("{waiting}");

    // The paper derives average waiting from the average rejection count
    // via Σ T_bkf·E_bkf^(i-1); compare that formula against the directly
    // measured waiting times.
    let config = harness.config();
    let backoff =
        p2ps_core::admission::BackoffPolicy::new(u64::from(config.t_bkf_secs()), config.e_bkf());
    let mut formula = Table::new([
        "Waiting (min), pattern 2 DAC",
        "measured",
        "paper formula from avg rejections",
    ]);
    for k in 1..=4u8 {
        let rejections = p2_dac.avg_rejections(k).unwrap_or(0.0);
        let predicted = backoff.total_wait_after(rejections.round() as u32) as f64 / 60.0;
        formula.row([
            format!("Class {k}"),
            format!(
                "{:.1}",
                p2_dac.avg_waiting_secs(k).unwrap_or(f64::NAN) / 60.0
            ),
            format!("{predicted:.1}"),
        ]);
    }
    println!("{formula}");

    let mut tail = Table::new(["Waiting (min), pattern 2 DAC", "p50", "p90", "p99"]);
    for k in 1..=4u8 {
        tail.row([
            format!("Class {k}"),
            format!(
                "{:.1}",
                p2_dac.waiting_quantile_secs(k, 0.50).unwrap_or(f64::NAN) / 60.0
            ),
            format!(
                "{:.1}",
                p2_dac.waiting_quantile_secs(k, 0.90).unwrap_or(f64::NAN) / 60.0
            ),
            format!(
                "{:.1}",
                p2_dac.waiting_quantile_secs(k, 0.99).unwrap_or(f64::NAN) / 60.0
            ),
        ]);
    }
    println!("{tail}");
    println!("(tail latencies beyond the paper: exponential backoff makes the p99 blow up for low classes)\n");

    harness.write_text(
        "table1",
        &format!("{}\n{}", table.to_csv(), waiting.to_csv()),
    );
}
