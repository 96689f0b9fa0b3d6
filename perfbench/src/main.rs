//! The repository benchmark: the paper's query workloads, SPARQL over
//! HTTP, and the offline build, each with a separate traced pass that
//! splits the end-to-end numbers into per-layer costs.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_queries|http_serving|offline_build> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Progress and
//! answer-check details go to standard error. See `perfbench/README.md`.

mod alloc;
mod inputs;
mod layers;
mod offline;
mod paper;
mod serving;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
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
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: Duration::from_secs_f64(seconds),
        trace: trace.unwrap_or(false),
    })
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Counters that must repeat exactly for a given seed.
    exact: Vec<(String, f64)>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    /// `<name>_p50` and `<name>_p99` of per-call samples.
    pub fn timing(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.add(format!("{name}_p50"), trace::quantile(samples, 0.5), unit);
        self.add(format!("{name}_p99"), trace::quantile(samples, 0.99), unit);
    }

    /// A counter that must repeat exactly for a given seed.
    pub fn exact(&mut self, name: &str, value: f64, unit: &'static str) {
        self.add(name, value, unit);
        self.exact.push((name.to_string(), value));
    }

    /// Count one failed operation, with the reason on standard error.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("perfbench: FAILED {what}");
        }
    }

    fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Where traced passes write their spans and exact-counter records: the
/// Cargo target directory, which `.gitignore` already excludes.
pub fn output_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench-out")
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Compare this run's exact counters with the last traced run of the same
/// workload and seed; return how many differ.
fn counter_drift(args: &Args, report: &Report) -> usize {
    let path = output_dir().join(format!("exact-{}-seed{}.tsv", args.workload, args.seed));
    let mut drift = 0;
    if let Ok(previous) = std::fs::read_to_string(&path) {
        for line in previous.lines() {
            let Some((name, value)) = line.split_once('\t') else {
                continue;
            };
            let Some((_, now)) = report.exact.iter().find(|(n, _)| n == name) else {
                continue;
            };
            if value.parse::<f64>().ok() != Some(*now) {
                eprintln!("perfbench: exact counter {name} drifted: was {value}, now {now}");
                drift += 1;
            }
        }
    }
    let mut record = String::new();
    for (name, value) in &report.exact {
        let _ = writeln!(record, "{name}\t{value}");
    }
    let _ = std::fs::create_dir_all(output_dir());
    let _ = std::fs::write(&path, record);
    drift
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "paper_queries" => paper::run(&args),
        "http_serving" => serving::run(&args),
        "offline_build" => offline::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if args.trace {
        let drift = counter_drift(&args, &report);
        report.add("trace.counter_drift", drift as f64, "count");
    } else {
        report.add("peak_rss_mb", peak_rss_mb(), "MB");
    }
    eprintln!(
        "perfbench: {} seed {}: attempted {}, failed {}",
        args.workload, args.seed, report.attempted, report.failed
    );
    println!("{}", report.render());
}
