//! The repository benchmark: the live p2ps stack end to end (`swarm_vod`,
//! `swarm_bulk`) and the `AmpEngine` simulator (`amp_growth`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload swarm_vod --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs the
//! workload twice, each for the full time on a fresh set-up: untraced,
//! then traced. It prints the per-layer metrics, the layer ledger and the
//! tracing overhead (traced minus untraced, per end-to-end metric). The last line
//! of standard output is one JSON object with the result; a failed
//! output check makes `correct` false and the exit code 1.

mod amp;
mod bulk;
mod inputs;
mod procfs;
mod stats;
mod swarm;
mod tap;
mod vod;

use std::process::ExitCode;

use stats::Dist;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind a percentile; 0 for a single measurement.
    pub samples: usize,
}

/// One output check: what was compared, and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A gated end-to-end metric: the JSON result of `--trace 0`.
    EndToEnd,
    /// An end-to-end quantity that is printed but not gated.
    Printed,
    /// A per-layer metric: the JSON result of `--trace 1`.
    Layer,
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub end_to_end: Vec<Metric>,
    pub printed: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Run {
    fn list(&mut self, kind: Kind) -> &mut Vec<Metric> {
        match kind {
            Kind::EndToEnd => &mut self.end_to_end,
            Kind::Printed => &mut self.printed,
            Kind::Layer => &mut self.per_layer,
        }
    }

    pub fn metric(&mut self, kind: Kind, name: &'static str, unit: &'static str, value: f64) {
        self.list(kind).push(Metric {
            name,
            unit,
            value,
            samples: 0,
        });
    }

    pub fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metric(Kind::EndToEnd, name, unit, value);
    }

    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metric(Kind::Layer, name, unit, value);
    }

    /// Reports the mean of `dist` with its sample count.
    pub fn mean(&mut self, kind: Kind, name: &'static str, unit: &'static str, dist: &Dist) {
        let (value, samples) = (dist.mean(), dist.count());
        self.list(kind).push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Reports the `p`-th percentile of `dist`. Samples that are whole
    /// multiples of `quantum` are interpolated within it. A percentile
    /// the samples cannot support fails the run's sample-count check; a
    /// percentile that lands on a miss reads as infinite.
    pub fn percentile(
        &mut self,
        kind: Kind,
        name: &'static str,
        unit: &'static str,
        dist: &mut Dist,
        p: f64,
        quantum: Option<f64>,
    ) {
        let got = match quantum {
            Some(q) => dist.percentile_quantized(p, q),
            None => dist.percentile(p),
        };
        let value = match got {
            Ok(v) => v.unwrap_or(f64::INFINITY),
            Err(refused) => {
                self.check(
                    "percentiles have enough samples",
                    false,
                    format!("{name}: {refused}"),
                );
                f64::NAN
            }
        };
        let samples = dist.count();
        self.list(kind).push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Records a check. Repeated checks of one name fold into one: it
    /// passes only if every instance did, and keeps the first failure's
    /// detail.
    pub fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(c) if c.passed && !passed => {
                c.passed = false;
                c.detail = detail;
            }
            Some(_) => {}
            None => self.checks.push(Check {
                name,
                passed,
                detail,
            }),
        }
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The gated end-to-end metrics with their units, in `BENCHMARK.json`
/// order. Every workload reports every one of them; what "op" and
/// "latency" mean in each workload is in the README.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_MB", "MB"),
];

/// The per-layer metrics with their units, in `BENCHMARK.json` order. A
/// layer a workload does not exercise did no work there, and its
/// metrics read 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("gen.lag_ms.p50", "ms"),
    ("gen.lag_ms.p90", "ms"),
    ("node.spawn_ms.p50", "ms"),
    ("node.begin_stream_ms.p50", "ms"),
    ("node.begin_stream_ms.p90", "ms"),
    ("node.wait_tail_ms.p50", "ms"),
    ("admission.round_ms.p50", "ms"),
    ("admission.round_ms.p90", "ms"),
    ("admission.rejections_per_viewer", "count"),
    ("admission.grant_ratio", "share"),
    ("session.first_segment_ms.p50", "ms"),
    ("session.buffer_excess_ms.p90", "ms"),
    ("session.replans", "count"),
    ("watchdog.stalls", "count"),
    ("net.syscalls_per_session", "count"),
    ("net.reads_per_session", "count"),
    ("net.writevs_per_session", "count"),
    ("net.epoll_waits_per_session", "count"),
    ("net.bytes_per_writev", "B"),
    ("net.reactor_busy_share", "share"),
    ("directory.busy_share", "share"),
    ("amp.new_ms", "ms"),
    ("amp.execute_s", "s"),
    ("amp.worker_busy_share", "share"),
    ("amp.scaling_eff", "share"),
    ("amp.events", "count"),
    ("amp.attempts", "count"),
    ("amp.admit_ratio", "share"),
    ("amp.departures", "count"),
];

/// Puts the run's `kind` metrics in the order of `wanted`. A gated
/// metric the workload did not report, or a metric under a name or unit
/// the manifest does not list, fails the run; a per-layer metric it did
/// not report reads 0.
fn conform(run: &mut Run, kind: Kind, wanted: &[(&'static str, &'static str)]) -> Vec<Metric> {
    let reported = std::mem::take(run.list(kind));
    let mut problems: Vec<String> = reported
        .iter()
        .filter(|m| !wanted.contains(&(m.name, m.unit)))
        .map(|m| format!("{} in {} is not listed", m.name, m.unit))
        .collect();
    let metrics = wanted
        .iter()
        .map(
            |&(name, unit)| match reported.iter().find(|m| m.name == name) {
                Some(m) => m.clone(),
                None => {
                    if kind != Kind::Layer {
                        problems.push(format!("{name} was not reported"));
                    }
                    Metric {
                        name,
                        unit,
                        value: 0.0,
                        samples: 0,
                    }
                }
            },
        )
        .collect();
    let detail = if problems.is_empty() {
        format!("all {} listed", wanted.len())
    } else {
        problems.join("; ")
    };
    let name = match kind {
        Kind::Layer => "per-layer metrics match the manifest",
        _ => "end-to-end metrics match the manifest",
    };
    run.check(name, problems.is_empty(), detail);
    metrics
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Option<Run> {
    let mut run = match name {
        "swarm_vod" => vod::run(seed, seconds, traced),
        "swarm_bulk" => bulk::run(seed, seconds, traced),
        "amp_growth" => amp::run(seed, seconds, traced),
        _ => return None,
    };
    // Zero on a good run, so it is printed but not gated; the JSON
    // carries `attempted` and `failed` instead.
    let share = run.failed as f64 / run.attempted.max(1) as f64;
    run.metric(Kind::Printed, "failed_share", "share", share);
    run.end_to_end = conform(&mut run, Kind::EndToEnd, &END_TO_END);
    if traced {
        run.per_layer = conform(&mut run, Kind::Layer, &PER_LAYER);
    }
    Some(run)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        if m.samples > 0 {
            println!(
                "  {:<36} {:>16.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        } else {
            println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
}

fn print_end_to_end(label: &str, run: &Run) {
    print_metrics(&format!("end-to-end ({label}):"), &run.end_to_end);
    print_metrics(
        &format!("end-to-end, printed but not gated ({label}):"),
        &run.printed,
    );
}

fn print_checks(run: &Run) {
    for c in &run.checks {
        let verdict = if c.passed { "ok  " } else { "FAIL" };
        println!("  [{verdict}] {}: {}", c.name, c.detail);
    }
}

/// A JSON number; a percentile that landed on a failed request (a miss)
/// is reported as the largest finite value, a refused one as null.
fn json_number(v: f64) -> String {
    if v.is_nan() {
        "null".to_owned()
    } else if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload swarm_vod|swarm_bulk|amp_growth --seed N --seconds S [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // The process-wide flight-recorder clock starts here, before any
    // session can stamp an event.
    p2ps_monitor::monotonic_ms();

    let Some(plain) = run_workload(&args.workload, args.seed, args.seconds, false) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    println!(
        "{} seed {}: {} attempted, {} failed",
        args.workload, args.seed, plain.attempted, plain.failed
    );
    print_end_to_end("untraced", &plain);

    let (correct, attempted, failed, metrics) = if args.trace {
        let traced = run_workload(&args.workload, args.seed, args.seconds, true)
            .expect("workload name already checked");
        print_end_to_end("traced", &traced);
        println!("tracing overhead (traced - untraced):");
        let pairs = traced
            .end_to_end
            .iter()
            .chain(&traced.printed)
            .zip(plain.end_to_end.iter().chain(&plain.printed));
        for (t, u) in pairs {
            println!(
                "  {:<36} {:>+16.4} {} ({:+.2} %)",
                t.name,
                t.value - u.value,
                t.unit,
                (t.value / u.value - 1.0) * 100.0
            );
        }
        print_metrics("per-layer (traced):", &traced.per_layer);
        println!("output checks:");
        print_checks(&plain);
        print_checks(&traced);
        (
            plain.correct() && traced.correct(),
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            traced.per_layer,
        )
    } else {
        println!("output checks:");
        print_checks(&plain);
        (
            plain.correct(),
            plain.attempted,
            plain.failed,
            plain.end_to_end,
        )
    };
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of one metric list in `BENCHMARK.json`.
    fn manifest(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("the manifest has the section");
        let list = &text[start..];
        let list = &list[..list.find(']').expect("the list ends")];
        let field = |entry: &str, key: &str| {
            let key = format!("\"{key}\": \"");
            let at = entry.find(&key).expect("the entry has the key") + key.len();
            entry[at..]
                .split('"')
                .next()
                .expect("closing quote")
                .to_owned()
        };
        list.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        assert_eq!(manifest("end_to_end"), owned(&END_TO_END));
        assert_eq!(manifest("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn conform_orders_fills_layers_and_fails_on_gaps() {
        let mut run = Run::default();
        run.layer("amp.events", "count", 5.0);
        run.layer("gen.lag_ms.p50", "ms", 0.25);
        let layers = conform(&mut run, Kind::Layer, &PER_LAYER);
        assert_eq!(layers.len(), PER_LAYER.len());
        assert_eq!(layers[0].value, 0.25);
        assert_eq!(layers[25].value, 5.0);
        assert_eq!(layers[1].value, 0.0);
        assert!(run.correct(), "an unexercised layer reads 0");

        run.e2e("setup_s", "s", 0.5);
        run.e2e("latency_ms", "s", 1.0);
        let gated = conform(&mut run, Kind::EndToEnd, &END_TO_END);
        assert_eq!(gated.len(), END_TO_END.len());
        assert!(!run.correct(), "a wrong unit and missing metrics fail");
    }
}
