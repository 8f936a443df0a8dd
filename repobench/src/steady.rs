//! `repobench steady`: repeats a workload under successive seeds and
//! prints each metric's median and quartiles next to its bound from
//! `BENCHMARK.json`, flagging any end-to-end metric whose spread (the
//! distance between the quartiles as a share of the median) exceeds it.
//! Given two `--bin` builds, it alternates which runs first under each
//! seed and prints the ratio of their medians.
//!
//! ```text
//! repobench steady --workload fig2-cold --runs 10 --bin old/repobench --bin new/repobench
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use supermarq_store::Json;

use crate::stats;

struct Options {
    workload: String,
    runs: u64,
    first_seed: u64,
    seconds: Option<u64>,
    bins: Vec<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        runs: 10,
        first_seed: 1,
        seconds: None,
        bins: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number '{value}'"))
        };
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--runs" => o.runs = number()?,
            "--first-seed" => o.first_seed = number()?,
            "--seconds" => o.seconds = Some(number()?),
            "--bin" => o.bins.push(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if o.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if o.runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    if o.bins.is_empty() {
        o.bins
            .push(std::env::current_exe().map_err(|e| format!("current exe: {e}"))?);
    }
    if o.bins.len() > 2 {
        return Err("at most two --bin builds".into());
    }
    Ok(o)
}

/// The manifest, read from the directory the benchmark runs in.
const MANIFEST: &str = "BENCHMARK.json";

/// `run_seconds` and each end-to-end metric's bound from the manifest.
fn manifest() -> Result<(u64, BTreeMap<String, f64>), String> {
    let text = std::fs::read_to_string(MANIFEST).map_err(|e| format!("{MANIFEST}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{MANIFEST}: {e}"))?;
    let seconds = json
        .get("run_seconds")
        .and_then(Json::as_u64)
        .ok_or("manifest has no run_seconds")?;
    let mut bounds = BTreeMap::new();
    for m in json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("manifest has no end_to_end list")?
    {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without name")?;
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without bound")?;
        bounds.insert(name.to_string(), bound);
    }
    Ok((seconds, bounds))
}

/// One run's figures: the JSON metrics and the report lines before it.
struct RunResult {
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, (f64, String)>,
}

fn run_once(bin: &PathBuf, o: &Options, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let output = Command::new(bin)
        .args(["--workload", &o.workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    if !output.status.success() {
        return Err(format!("{} seed {seed}: {}", bin.display(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut values = BTreeMap::new();
    for line in stdout.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", name, value, unit] = parts[..] {
            let v = value
                .parse::<f64>()
                .map_err(|_| format!("bad metric line '{line}'"))?;
            values.insert(name.to_string(), (v, unit.to_string()));
        }
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let json = Json::parse(last).map_err(|e| format!("last line is not JSON: {e}"))?;
    let count = |key: &str| {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("no '{key}'"))
    };
    Ok(RunResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        values,
    })
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let o = parse(args)?;
    let (manifest_seconds, bounds) = manifest()?;
    let seconds = o.seconds.unwrap_or(manifest_seconds);
    let mut results: Vec<Vec<RunResult>> = o.bins.iter().map(|_| Vec::new()).collect();
    for i in 0..o.runs {
        let seed = o.first_seed + i;
        let mut order: Vec<usize> = (0..o.bins.len()).collect();
        if i % 2 == 1 {
            order.reverse();
        }
        for b in order {
            let r = run_once(&o.bins[b], &o, seed, seconds)?;
            eprintln!(
                "steady: {} seed {seed} bin {b}: attempted={} failed={}",
                o.workload, r.attempted, r.failed
            );
            results[b].push(r);
        }
    }
    let mut over = false;
    let mut medians: Vec<BTreeMap<String, f64>> = Vec::new();
    for (b, runs) in results.iter().enumerate() {
        println!(
            "== {} ({}), {} runs of {seconds} s, seeds {}..{}",
            o.workload,
            o.bins[b].display(),
            runs.len(),
            o.first_seed,
            o.first_seed + o.runs - 1
        );
        let shares: Vec<(u64, u64)> = runs.iter().map(|r| (r.failed, r.attempted)).collect();
        // failed/attempted compared exactly: a*d == c*b.
        let same_share = shares.windows(2).all(|w| {
            u128::from(w[0].0) * u128::from(w[1].1) == u128::from(w[1].0) * u128::from(w[0].1)
        });
        println!(
            "failed/attempted: {} ({})",
            shares
                .iter()
                .map(|(f, a)| format!("{f}/{a}"))
                .collect::<Vec<_>>()
                .join(" "),
            if same_share {
                "same share in every run"
            } else {
                "SHARE DIFFERS"
            }
        );
        over |= !same_share;
        println!(
            "{:<34} {:>14} {:>14} {:>14} {:>8} {:>6}  flag",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        let mut med = BTreeMap::new();
        let names: Vec<&String> = runs[0].values.keys().collect();
        for name in names {
            let vals: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.values.get(name).map(|v| v.0))
                .collect();
            let unit = &runs[0].values[name].1;
            let Some([q1, _, q3]) = stats::quartiles(&vals) else {
                continue;
            };
            let median = stats::median(&vals);
            let spread = (q3 - q1) / median.abs();
            med.insert(name.clone(), median);
            let (bound, flag) = match bounds.get(name) {
                Some(&bound) if spread > bound => {
                    over = true;
                    (format!("{bound}"), "OVER BOUND")
                }
                Some(&bound) if spread > bound / 3.0 => (format!("{bound}"), "above bound/3"),
                Some(&bound) => (format!("{bound}"), ""),
                None => ("-".into(), ""),
            };
            println!(
                "{:<34} {q1:>14.6} {median:>14.6} {q3:>14.6} {spread:>8.4} {bound:>6}  {flag} [{unit}]",
                name
            );
        }
        medians.push(med);
    }
    if let [a, b] = &medians[..] {
        println!("== median ratio, second build / first build");
        for (name, ma) in a {
            if let Some(mb) = b.get(name) {
                println!("{name:<34} {:>10.4}", mb / ma);
            }
        }
    }
    Ok(if over {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
