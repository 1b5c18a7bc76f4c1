//! The OWL benchmark: end-to-end workloads and a traced per-layer run.
//!
//! ```text
//! owl-perfbench --workload <corpus-campaign|detect-heavy|serve-mixed>
//!               --seed <n> --seconds <s> --trace <0|1>
//! owl-perfbench --campaign-table
//! ```
//!
//! With `--trace 0` it runs the workload for `--seconds` (longer if a
//! reported percentile still lacks samples) and prints the end-to-end
//! metrics; with `--trace 1` it replays the workload's programs stage
//! by stage through the layers' public functions, timing each call,
//! and prints the per-layer metrics. Every line but the last is for
//! people; the last line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 only when every output check passed.
//!
//! `--campaign-table` prints `campaign_table.txt` afresh: what a
//! corpus-campaign pass reports at each detection base seed.

mod campaign;
mod detect;
mod gen;
mod layers;
mod serve;
mod stats;

use stats::Tally;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// One reported metric.
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (wrong outputs included).
    pub tally: Tally,
    /// Reported metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines: sample counts, work counters, the
    /// workload-specific view of the metrics.
    pub info: Vec<String>,
    /// Failed checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds an informational line.
    pub fn info(&mut self, line: impl Into<String>) {
        self.info.push(line.into());
    }

    /// Records a failed check.
    pub fn error(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
    }

    fn correct(&self) -> bool {
        self.errors.is_empty()
            && self.tally.failed == 0
            && self.tally.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: Duration,
    /// `true` for the traced per-layer run.
    pub trace: bool,
    /// Scratch directory for journals, stores and the socket; removed
    /// at exit.
    pub work: PathBuf,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["corpus-campaign", "detect-heavy", "serve-mixed"];

/// This process's scratch directory. Relative, and short: the daemon's
/// socket lives here, and Unix socket paths are limited to about 100
/// bytes.
fn work_dir() -> PathBuf {
    Path::new(".bench_work").join(format!("{}", std::process::id()))
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        work: work_dir(),
    })
}

fn print_result(out: &Outcome) {
    for m in &out.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for line in &out.info {
        println!("  {line}");
    }
    for e in &out.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.tally.attempted.max(1),
        out.tally.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    if std::env::args().skip(1).eq(["--campaign-table"]) {
        let work = work_dir();
        let written = std::fs::create_dir_all(&work)
            .map_err(|e| e.to_string())
            .and_then(|()| campaign::print_table(&work, campaign::TABLE_SEEDS));
        let _ = std::fs::remove_dir_all(&work);
        let _ = std::fs::remove_dir(".bench_work");
        return match written {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("owl-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("owl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("owl-perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    let out = match (args.workload.as_str(), args.trace) {
        ("corpus-campaign", false) => campaign::run(&args),
        ("detect-heavy", false) => detect::run(&args),
        ("serve-mixed", false) => serve::run(&args),
        (_, true) => layers::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    let _ = std::fs::remove_dir(".bench_work");
    print_result(&out);
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
