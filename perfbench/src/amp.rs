//! `amp_growth`: the `AmpEngine` capacity-amplification simulator alone,
//! with no sockets — a seeded Poisson run on the paper's time axis.
//!
//! The measured passes run on one thread: at `nproc` threads on a shared
//! host, every barrier of the epoch loop waits for the slowest worker,
//! and pass times within one run varied by a fifth. The traced run adds
//! one `nproc`-thread pass for the scaling and worker-busy figures.

use std::time::{Duration, Instant};

use p2ps_sim::{AmpConfig, AmpEngine, AmpReport, ArrivalProcess};

use crate::procfs::{nproc, peak_rss_mb, process_cpu};
use crate::stats::median;
use crate::{Kind, Run};

const HOUR: u32 = 3_600;
/// `AmpEngine::new` takes 10–20 ms; `setup_s` is the median of builds
/// made this many at a time.
const SETUP_ROUND: usize = 5;

fn config(threads: usize) -> AmpConfig {
    AmpConfig::builder()
        .requesting_peers(200_000)
        .seed_suppliers(128)
        .catalog_items(32)
        .process(ArrivalProcess::Poisson)
        .arrival_window_secs(72 * HOUR)
        .horizon_secs(144 * HOUR)
        .supplier_lifetime_secs(6 * HOUR)
        .epoch_secs(60)
        .shards(16)
        .threads(threads)
        .build()
        .expect("the amp_growth configuration is valid")
}

/// One timed `execute` + `report` of a built engine.
struct Pass {
    execute: Duration,
    report_time: Duration,
    cpu: Duration,
    report: AmpReport,
}

fn pass(engine: &mut AmpEngine) -> Pass {
    let cpu0 = process_cpu();
    let t = Instant::now();
    engine.execute();
    let execute = t.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    let t = Instant::now();
    let report = engine.report();
    Pass {
        execute,
        report_time: t.elapsed(),
        cpu,
        report,
    }
}

/// Times `count` builds of the engine, keeping the last one.
fn build(count: usize, threads: usize, seed: u64, new_s: &mut Vec<f64>) -> AmpEngine {
    let mut engine = None;
    for _ in 0..count {
        drop(engine.take());
        let t = Instant::now();
        engine = Some(AmpEngine::new(config(threads), seed));
        new_s.push(t.elapsed().as_secs_f64());
    }
    engine.expect("at least one build")
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Run {
    let threads = nproc();
    let mut run = Run::default();

    // Set-up time drifts with the host over seconds, so the builds are
    // spread over the run: a round before the first pass and one after
    // every pass.
    let mut new_s = Vec::new();
    let mut engine = build(SETUP_ROUND, 1, seed, &mut new_s);

    // Repeat the same seeded run while a whole further pass fits in the
    // measured time; every pass must reproduce the first bit for bit.
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let p = pass(&mut engine);
        let r = &p.report;
        let consistent = r.admits + r.rejects == r.attempts;
        let repeat = passes.first().is_none_or(|first| {
            first.report.trace_hash == r.trace_hash && first.report.events == r.events
        });
        run.attempted += 1;
        if !(consistent && repeat) {
            run.failed += 1;
        }
        run.check(
            "amp: admits + rejects == attempts",
            consistent,
            format!("{} + {} vs {}", r.admits, r.rejects, r.attempts),
        );
        run.check(
            "amp: repeated run reproduces trace hash and event count",
            repeat,
            format!("hash {:016x}, {} events", r.trace_hash, r.events),
        );
        let last = p.execute;
        passes.push(p);
        drop(build(SETUP_ROUND, 1, seed, &mut new_s));
        if start.elapsed() + last > Duration::from_secs_f64(seconds) {
            break;
        }
        engine.reset(seed);
    }
    drop(engine);

    let execs: Vec<f64> = passes.iter().map(|p| p.execute.as_secs_f64()).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.report.events as f64 / p.execute.as_secs_f64())
        .collect();
    let cpu_us: Vec<f64> = passes
        .iter()
        .map(|p| p.cpu.as_secs_f64() * 1e6 / p.report.events as f64)
        .collect();
    run.e2e("setup_s", "s", median(&new_s));
    run.e2e("latency_ms", "ms", median(&execs) * 1e3);
    run.e2e("ops_per_s", "1/s", median(&rates));
    run.e2e("cpu_us_per_op", "us", median(&cpu_us));
    run.e2e("peak_rss_MB", "MB", peak_rss_mb());
    run.metric(Kind::Printed, "events_per_s", "1/s", median(&rates));
    println!(
        "amp_growth: {} pass(es) of {} events at 1 thread, execute {:.3?} s",
        passes.len(),
        passes[0].report.events,
        execs
    );

    if traced {
        let first = &passes[0].report;
        let mut wide = AmpEngine::new(config(threads), seed);
        let many = pass(&mut wide);
        drop(wide);
        run.check(
            "amp: trace hash at nproc threads equals the hash at 1 thread",
            many.report.trace_hash == first.trace_hash,
            format!(
                "{:016x} ({threads} threads) vs {:016x} (1 thread)",
                many.report.trace_hash, first.trace_hash
            ),
        );
        let exec = median(&execs);
        let wide_exec = many.execute.as_secs_f64();
        let busy = many.cpu.as_secs_f64() / (wide_exec * threads as f64);
        run.layer("amp.new_ms", "ms", median(&new_s) * 1e3);
        run.layer("amp.execute_s", "s", exec);
        run.layer("amp.worker_busy_share", "share", busy);
        run.layer(
            "amp.scaling_eff",
            "share",
            exec / (threads as f64 * wide_exec),
        );
        run.layer("amp.events", "count", first.events as f64);
        run.layer("amp.attempts", "count", first.attempts as f64);
        run.layer(
            "amp.admit_ratio",
            "share",
            first.admits as f64 / first.attempts as f64,
        );
        run.layer("amp.departures", "count", first.departures as f64);

        let report_ms: Vec<f64> = passes
            .iter()
            .map(|p| p.report_time.as_secs_f64() * 1e3)
            .collect();
        println!("amp_growth ledger (median per 1-thread pass):");
        println!("  AmpEngine::new      {:>10.3} ms", median(&new_s) * 1e3);
        println!("  AmpEngine::execute  {:>10.3} ms", exec * 1e3);
        println!("  AmpEngine::report   {:>10.3} ms", median(&report_ms));
        println!(
            "  {threads}-thread execute {:.3} s: workers {threads} x {:.3} s = {:.3} thread-s, \
             busy {:.3} s ({:.1} %), idle {:.3} s; scaling efficiency {:.3}",
            wide_exec,
            wide_exec,
            wide_exec * threads as f64,
            wide_exec * threads as f64 * busy,
            busy * 100.0,
            wide_exec * threads as f64 * (1.0 - busy),
            exec / (threads as f64 * wide_exec)
        );
    }
    run
}
