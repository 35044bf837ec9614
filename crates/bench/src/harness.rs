//! Shared experiment infrastructure: scaling, run caching, output.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::rc::Rc;

use p2ps_core::admission::Protocol;
use p2ps_metrics::{AsciiPlot, CsvWriter, TimeSeries};
use p2ps_sim::{AmpConfig, AmpConfigBuilder, AmpEngine, AmpReport, ArrivalPattern, ArrivalProcess};

/// Base RNG seed for all experiment runs (deterministic outputs).
pub const BASE_SEED: u64 = 42;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's full setup: 100 seeds, 50,000 requesters, 144 h.
    Paper,
    /// 10 seeds, 5,000 requesters, same time axes — same qualitative
    /// shapes, roughly 20× faster. Used by CI-style smoke runs.
    Quick,
}

impl Scale {
    /// Reads `P2PS_SCALE` (`paper`/`quick`), defaulting to `Paper`.
    pub fn from_env() -> Self {
        match std::env::var("P2PS_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            _ => Scale::Paper,
        }
    }
}

/// Runs simulations with caching and writes experiment artifacts.
pub struct Harness {
    scale: Scale,
    out_dir: PathBuf,
    cache: HashMap<String, Rc<AmpReport>>,
}

impl Harness {
    /// Creates a harness at the given scale, writing CSVs under
    /// `target/experiments/`.
    pub fn new(scale: Scale) -> Self {
        let out_dir = PathBuf::from("target/experiments");
        std::fs::create_dir_all(&out_dir).expect("creating target/experiments");
        Harness {
            scale,
            out_dir,
            cache: HashMap::new(),
        }
    }

    /// Creates a harness from the `P2PS_SCALE` environment variable.
    pub fn from_env() -> Self {
        Harness::new(Scale::from_env())
    }

    /// The active scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// A config builder preloaded with the paper's §5.1 setup at the
    /// harness scale.
    pub fn base_config(&self) -> AmpConfigBuilder {
        let mut builder = AmpConfig::paper();
        if self.scale == Scale::Quick {
            builder.seed_suppliers(10).requesting_peers(5_000);
        }
        builder
    }

    /// The paper's §5.1 configuration at the harness scale.
    pub fn config(&self) -> AmpConfig {
        self.base_config()
            .build()
            .expect("the paper configuration is valid")
    }

    /// Runs (or reuses) the simulation for `pattern` × `protocol` with
    /// optional extra configuration.
    pub fn run(
        &mut self,
        label: &str,
        pattern: ArrivalPattern,
        protocol: Protocol,
        tweak: impl FnOnce(&mut AmpConfigBuilder),
    ) -> Rc<AmpReport> {
        let key = format!("{label}/{pattern}/{protocol}");
        if let Some(hit) = self.cache.get(&key) {
            return Rc::clone(hit);
        }
        let mut builder = self.base_config();
        builder
            .process(ArrivalProcess::Pattern(pattern))
            .protocol(protocol);
        tweak(&mut builder);
        let config = builder.build().expect("experiment configs are valid");
        let started = std::time::Instant::now();
        let report = Rc::new(AmpEngine::new(config, BASE_SEED).run());
        eprintln!("  [{key}] simulated in {:.2?}", started.elapsed());
        self.cache.insert(key, Rc::clone(&report));
        report
    }

    /// Prints a titled ASCII plot of the series.
    pub fn plot(&self, title: &str, series: &[&TimeSeries]) {
        let mut plot = AsciiPlot::new(title, 72, 20);
        for s in series {
            plot = plot.series(s);
        }
        println!("\n{}", plot.render());
    }

    /// Writes series sharing a time axis to `<name>.csv`.
    pub fn write_csv(&self, name: &str, time_label: &str, series: &[&TimeSeries]) {
        let path = self.out_dir.join(format!("{name}.csv"));
        let file = std::fs::File::create(&path).expect("creating experiment csv");
        CsvWriter::new(file)
            .write_series(time_label, series)
            .expect("writing experiment csv");
        println!("wrote {}", path.display());
    }

    /// Writes a rendered [`p2ps_metrics::Table`] to `<name>.csv`.
    pub fn write_table_csv(&self, name: &str, table: &p2ps_metrics::Table) {
        let path = self.out_dir.join(format!("{name}.csv"));
        std::fs::write(&path, table.to_csv()).expect("writing experiment table csv");
        println!("wrote {}", path.display());
    }

    /// Writes arbitrary text (tables, notes) to `<name>.txt`.
    pub fn write_text(&self, name: &str, content: &str) {
        let path = self.out_dir.join(format!("{name}.txt"));
        let mut file = std::fs::File::create(&path).expect("creating experiment txt");
        file.write_all(content.as_bytes())
            .expect("writing experiment txt");
        println!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_to_paper() {
        // The test environment does not set P2PS_SCALE.
        if std::env::var("P2PS_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Paper);
        }
    }

    #[test]
    fn run_cache_reuses_reports() {
        let mut h = Harness::new(Scale::Quick);
        // Tiny run so the test stays fast.
        let tweak = |b: &mut AmpConfigBuilder| {
            b.requesting_peers(50)
                .seed_suppliers(5)
                .arrival_window_secs(2 * 3_600)
                .horizon_secs(4 * 3_600);
        };
        let a = h.run("t", ArrivalPattern::Constant, Protocol::Dac, tweak);
        let b = h.run("t", ArrivalPattern::Constant, Protocol::Dac, |_| {});
        assert!(Rc::ptr_eq(&a, &b), "second call must hit the cache");
    }
}
