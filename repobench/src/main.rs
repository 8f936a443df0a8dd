//! Repository benchmark for the SupermarQ reproduction.
//!
//! ```text
//! repobench --workload <fig2-cold|serve-warm|scale-wide> --seed <n> --seconds <s> --trace <0|1>
//! repobench steady --workload <name> [--runs N] [--first-seed N] [--seconds S] [--bin PATH]...
//! ```
//!
//! A run sets its workload up several times (reporting the median
//! set-up time), measures for `--seconds`, checks every output, and
//! prints one `metric <name> <value> <unit>` line per figure followed
//! by a final JSON object. A failed check prints the reason to stderr,
//! no numbers, and exits with status 1. `--trace 1` runs the same
//! workload with the program's tracing on, reads its spans and times
//! the layer calls that emit none, and reports the per-layer figures
//! instead. See README.md for the workloads, the metrics and the layer
//! map.

mod checks;
mod fig2;
mod proc;
mod scale;
mod serve;
mod stats;
mod steady;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use supermarq_store::Json;

use crate::trace::Acc;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fig2-cold", "serve-warm", "scale-wide"];

/// The end-to-end metrics every untraced run reports, in order.
pub const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "cells_per_s", "cell_p90_us"];

/// The per-layer metrics every traced run reports, in order.
pub const PER_LAYER: [&str; 7] = [
    "proc.user_cpu_s",
    "proc.sys_cpu_s",
    "obs.overhead_s",
    "supermarq.build_ms",
    "transpile.run_us",
    "sim.shot_us",
    "sim.shots",
];

/// One run's settings.
pub struct Config {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory for stores, removed when the run ends.
    pub work: PathBuf,
}

impl Config {
    /// How long one timed phase runs: the whole `--seconds` untraced, or
    /// half of it for each of the untraced and traced phases of a traced
    /// run, whose difference is the tracing overhead.
    pub fn phase_budget(&self) -> Duration {
        if self.trace {
            self.seconds / 2
        } else {
            self.seconds
        }
    }
}

/// A named figure with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run measured. `metrics` become the final JSON line;
/// `extra` figures are printed as report lines only, because they exist
/// on one workload and the JSON carries the metrics all workloads share.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub extra: Vec<Metric>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            metrics: Vec::new(),
            extra: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The shared end-to-end metrics: median set-up time, peak RSS, the
    /// rate of result cells and the per-cell latency's 90th percentile.
    /// The median latency is a report line: on serve-warm it jumps
    /// between two modes from run to run (see README.md).
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        cells_per_s: f64,
        latencies: &stats::Hist,
    ) -> Result<(), String> {
        self.metric("setup_s", setup_s, "s");
        self.metric("peak_rss_mb", proc::peak_rss_mb()?, "MB");
        self.metric("cells_per_s", cells_per_s, "1/s");
        self.metric("cell_p90_us", latencies.percentile_us(0.9), "us");
        self.extra("cell_p50_us", latencies.percentile_us(0.5), "us");
        self.extra("cell_samples", latencies.count() as f64, "count");
        Ok(())
    }

    /// CPU split over the untraced timed phase and the tracing overhead.
    pub fn proc_layers(&mut self, user_s: f64, sys_s: f64, overhead_s: f64) {
        self.metric("proc.user_cpu_s", user_s, "s");
        self.metric("proc.sys_cpu_s", sys_s, "s");
        self.metric("obs.overhead_s", overhead_s, "s");
    }

    /// Build, transpile and simulate timings: benchmark construction
    /// per instance, `Transpiler::run` per call and `Executor::run` per
    /// shot.
    pub fn layers(&mut self, build: &Acc, transpile: &Acc, shots: &Acc) {
        self.metric("supermarq.build_ms", build.mean_ns() / 1e6, "ms");
        self.metric("transpile.run_us", transpile.mean_ns() / 1e3, "us");
        self.metric("sim.shot_us", shots.mean_ns() / 1e3, "us");
    }

    fn json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".into(), Json::float(m.value)),
                    ("unit".into(), Json::str(m.unit)),
                ]);
                (m.name.clone(), value)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::uint(self.attempted)),
            ("failed".into(), Json::uint(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Runs `setup` `reps` times and returns the median duration with the
/// last result. Earlier results are dropped outside the timed region.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps {
        let start = Instant::now();
        let value = setup(i)?;
        times.push(start.elapsed().as_secs_f64());
        drop(last.replace(value));
    }
    Ok((stats::median(&times), last.expect("reps > 0")))
}

/// Runs `round` for about `budget`: at least once, and again only while
/// another round like the last would still end within the budget, so a
/// run measures whole rounds of the same operations.
pub fn rounds_within<T>(
    budget: Duration,
    mut round: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let round_start = Instant::now();
        rounds.push(round()?);
        if start.elapsed() + round_start.elapsed() > budget {
            return Ok(rounds);
        }
    }
}

/// SplitMix64: the seeded stream every workload draws its inputs from.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run_workload(args: &Args) -> Result<Report, String> {
    let work = WorkDir(PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;
    let cfg = Config {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        work: work.0.clone(),
    };
    let mut report = match args.workload.as_str() {
        "fig2-cold" => fig2::run(&cfg)?,
        "serve-warm" => serve::run(&cfg)?,
        "scale-wide" => scale::run(&cfg)?,
        other => unreachable!("workload '{other}' was validated"),
    };
    if args.trace {
        let shots = supermarq_obs::metrics::counter("sim.shots").get();
        report.metric("sim.shots", shots as f64, "count");
    }
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    if names != expected {
        return Err(format!("reported metrics {names:?}, declared {expected:?}"));
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite: {}", m.name, m.value));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        return match steady::main(&args[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("repobench steady: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            eprintln!(
                "usage: repobench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Ok(threads) = std::env::var("RAYON_NUM_THREADS") {
        eprintln!(
            "repobench: RAYON_NUM_THREADS={threads} is set; the measured configuration leaves it unset"
        );
    }
    match run_workload(&args) {
        Ok(report) => {
            for m in report.metrics.iter().chain(&report.extra) {
                println!("metric {} {} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repobench {}: check failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
