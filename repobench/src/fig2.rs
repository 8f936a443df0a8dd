//! `fig2-cold`: the paper's Fig. 2 grid scored through the sweep engine
//! into a fresh store, with fresh seeds on every pass so nothing is
//! served from cache.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use supermarq::run_on_device;
use supermarq::spec::{
    benchmark_from_params, device_from_spec, execute_spec, run_config_from_spec, ExecError,
};
use supermarq_bench::{figure2_points, BenchPoint};
use supermarq_device::Device;
use supermarq_sim::Executor;
use supermarq_store::{RunRecord, RunSpec, Store, SweepEngine};

use crate::stats::Hist;
use crate::trace::{Acc, Tracer};
use crate::{checks, proc::Usage, repeat_setup, rounds_within, stats, Config, Report, SplitMix};

/// Shots per circuit per repetition, the same on every device. The
/// paper's 2000/1024/35 take more than 11 minutes per pass on today's
/// code; 16 x 3 keeps a pass near 40 s and averages out enough trajectory
/// randomness that the pass rate repeats across seeds (4 x 2 did not).
pub const SHOTS: u64 = 16;
/// Repetitions per cell, as in the Fig. 2 error bars.
pub const REPS: u64 = 3;
/// Cells run again outside the sweep to cross-check stored scores.
const RECHECK_CELLS: usize = 4;

/// One grid cell: a Fig. 2 instance on one device.
#[derive(Debug, Clone)]
pub struct Cell {
    pub id: String,
    pub params: Vec<(String, String)>,
    pub device: String,
    /// Circuits the benchmark generates (VQE measures in two bases).
    pub circuits: u64,
    /// Qubits the benchmark needs.
    pub qubits: usize,
}

impl Cell {
    /// The cell's run spec at the uniform shot budget.
    pub fn spec(&self, shots: u64, reps: u64, seed: u64) -> RunSpec {
        RunSpec::new(
            self.id.clone(),
            self.params.clone(),
            self.device.clone(),
            shots,
            reps,
            seed,
        )
    }
}

/// The expanded grid: cells that fit their device, and the X cells left
/// out because the benchmark is wider than the device.
#[derive(Debug, Clone)]
pub struct Grid {
    pub included: Vec<Cell>,
    pub excluded: Vec<Cell>,
}

/// The Fig. 2 instances, in panel order.
pub fn fig2_instances() -> impl Iterator<Item = BenchPoint> {
    figure2_points()
        .into_iter()
        .flat_map(|(_, points, _)| points)
}

/// Expands instances over the eight Table II devices the way
/// `fig2_scores` does, instantiating every benchmark. `build` times
/// `benchmark_from_params` plus `circuits()` per instance.
pub fn expand_grid(
    points: impl Iterator<Item = BenchPoint>,
    build: &mut Acc,
) -> Result<Grid, String> {
    let devices = Device::all_paper_devices();
    let mut grid = Grid {
        included: Vec::new(),
        excluded: Vec::new(),
    };
    for (id, params) in points {
        let (bench, circuits) = build
            .time(1, || {
                benchmark_from_params(&id, &params).map(|b| {
                    let circuits = b.circuits().len() as u64;
                    (b, circuits)
                })
            })
            .map_err(|e| format!("{id}: {e}"))?;
        for device in &devices {
            let cell = Cell {
                id: id.clone(),
                params: params.clone(),
                device: device.name().to_string(),
                circuits,
                qubits: bench.num_qubits(),
            };
            if bench.num_qubits() > device.num_qubits() {
                grid.excluded.push(cell);
            } else {
                grid.included.push(cell);
            }
        }
    }
    Ok(grid)
}

/// What one pass over the grid produced.
struct Pass {
    elapsed: Duration,
    records: Vec<RunRecord>,
}

/// Scores every included cell once, under seeds no earlier pass used.
fn run_pass(
    store: &Store,
    grid: &Grid,
    seed: u64,
    latencies: &Mutex<Hist>,
) -> Result<Pass, String> {
    let specs: Vec<RunSpec> = grid
        .included
        .iter()
        .map(|c| c.spec(SHOTS, REPS, seed))
        .collect();
    let expected_shots: u64 = grid
        .included
        .iter()
        .map(|c| SHOTS * REPS * c.circuits)
        .sum();
    let shots_before = supermarq_obs::metrics::counter("sim.shots").get();
    let start = Instant::now();
    let report = SweepEngine::new(store).run(&specs, |spec| {
        let cell_start = Instant::now();
        let outcome = execute_spec(spec).map_err(|e| e.to_string());
        let elapsed = cell_start.elapsed();
        latencies.lock().expect("latency lock").record(elapsed);
        outcome
    });
    let elapsed = start.elapsed();
    let shots = supermarq_obs::metrics::counter("sim.shots").get() - shots_before;
    checks::shot_total("fig2-cold pass", shots, expected_shots)?;
    let stats = &report.stats;
    if stats.misses != specs.len() || stats.failures != 0 || stats.store_errors != 0 {
        return Err(format!("fig2-cold pass: {}", stats.summary()));
    }
    let mut records = Vec::with_capacity(specs.len());
    for result in report.results {
        let record = result
            .outcome
            .map_err(|e| format!("{}: {e}", result.spec.benchmark))?;
        if record.outcome.scores.len() as u64 != REPS {
            return Err(format!("{}: wrong repetition count", record.spec.benchmark));
        }
        for &s in &record.outcome.scores {
            checks::score_in_unit_interval(&record.spec.benchmark, s)?;
        }
        records.push(record);
    }
    Ok(Pass { elapsed, records })
}

/// Reads every record back through `Store::get`, checks it sits at its
/// own content address and equals what the sweep returned, and checks
/// the whole store verifies clean.
fn check_store(store: &Store, passes: &[Pass]) -> Result<(), String> {
    let mut total = 0;
    for record in passes.iter().flat_map(|p| &p.records) {
        let back = store
            .get(&record.spec)
            .ok_or_else(|| format!("{}: record missing from the store", record.spec.benchmark))?;
        let address = store.object_path(&back.spec.content_hash());
        if address != store.object_path(&record.spec.content_hash()) || !address.is_file() {
            return Err(format!(
                "{}: record not at its address",
                record.spec.benchmark
            ));
        }
        if back.to_line() != record.to_line() {
            return Err(format!("{}: stored record differs", record.spec.benchmark));
        }
        total += 1;
    }
    let report = store.verify().map_err(|e| format!("store verify: {e}"))?;
    if !report.is_clean() || report.ok != total {
        return Err(format!(
            "store verify: {} ok of {total}, {} corrupt, {} misplaced",
            report.ok,
            report.corrupt.len(),
            report.misplaced.len()
        ));
    }
    Ok(())
}

/// The X cells must be exactly the cells the program refuses with
/// `DoesNotFit`, for the benchmark's own width.
fn check_excluded(grid: &Grid) -> Result<(), String> {
    for cell in &grid.excluded {
        let spec = cell.spec(SHOTS, REPS, 0);
        match execute_spec(&spec) {
            Err(ExecError::DoesNotFit { needed, available }) if needed == cell.qubits => {
                let device = device_from_spec(&cell.device).map_err(|e| e.to_string())?;
                if available != device.num_qubits() || needed <= available {
                    return Err(format!("{} on {}: bad X cell", cell.id, cell.device));
                }
            }
            other => {
                return Err(format!(
                    "{} on {}: excluded cell did not report DoesNotFit: {other:?}",
                    cell.id, cell.device
                ))
            }
        }
    }
    Ok(())
}

/// Runs a seeded sample of stored cells again through `run_on_device`,
/// outside the sweep and store, and compares scores exactly.
fn recheck_sample(records: &[RunRecord], rng: &mut SplitMix) -> Result<(), String> {
    for _ in 0..RECHECK_CELLS {
        let record = &records[rng.below(records.len())];
        let spec = &record.spec;
        let bench =
            benchmark_from_params(&spec.benchmark, &spec.params).map_err(|e| e.to_string())?;
        let device = device_from_spec(&spec.device).map_err(|e| e.to_string())?;
        let config = run_config_from_spec(spec).map_err(|e| e.to_string())?;
        let direct = run_on_device(bench.as_ref(), &device, &config).map_err(|e| e.to_string())?;
        if direct.scores != record.outcome.scores {
            return Err(format!(
                "{} on {}: stored scores {:?} != run_on_device {:?}",
                spec.benchmark, spec.device, record.outcome.scores, direct.scores
            ));
        }
    }
    Ok(())
}

/// Times `Benchmark::score` once per instance, on counts from an ideal
/// run of the instance's own circuits: the call emits no span.
fn time_scores(grid: &Grid) -> Result<Acc, String> {
    let mut score = Acc::default();
    let executor = Executor::noiseless();
    let mut last: Option<(&str, &[(String, String)])> = None;
    for cell in &grid.included {
        if last == Some((&cell.id, &cell.params)) {
            continue;
        }
        last = Some((&cell.id, &cell.params));
        let bench = benchmark_from_params(&cell.id, &cell.params).map_err(|e| e.to_string())?;
        let counts: Vec<_> = bench
            .circuits()
            .iter()
            .map(|c| executor.run(c, SHOTS as usize, 1))
            .collect();
        let s = score
            .time(1, || bench.score(&counts))
            .map_err(|e| format!("{}: {e}", cell.id))?;
        checks::score_in_unit_interval(&cell.id, s)?;
    }
    Ok(score)
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut build = Acc::default();
    let (setup_s, (grid, store)) = repeat_setup(3, |i| {
        let grid = expand_grid(fig2_instances(), &mut build)?;
        let store = Store::open(cfg.work.join(format!("store-{i}")))
            .map_err(|e| format!("open store: {e}"))?;
        Ok((grid, store))
    })?;
    let mut rng = SplitMix::new(cfg.seed);
    let latencies = Mutex::new(Hist::new());
    let budget = cfg.phase_budget();
    let cpu_before = Usage::now();
    let mut passes = rounds_within(budget, || run_pass(&store, &grid, rng.next(), &latencies))?;
    let (user_s, sys_s) = Usage::now().since(&cpu_before);
    let untraced = passes.len();
    let mut tracer = Tracer::new(&cfg.work);
    if cfg.trace {
        let traced = tracer
            .record(|| rounds_within(budget, || run_pass(&store, &grid, rng.next(), &latencies)))?;
        passes.extend(traced);
    }
    check_store(&store, &passes)?;
    check_excluded(&grid)?;
    let last = &passes.last().expect("at least one pass").records;
    recheck_sample(last, &mut rng)?;

    let cells = grid.included.len() as u64;
    let rate = |p: &Pass| cells as f64 / p.elapsed.as_secs_f64();
    let untraced_rates: Vec<f64> = passes[..untraced].iter().map(rate).collect();
    let attempted = cells * passes.len() as u64;
    let mut report = Report::new(attempted, 0);
    if cfg.trace {
        let traced_s: f64 = passes[untraced..]
            .iter()
            .map(|p| p.elapsed.as_secs_f64())
            .sum();
        let traced_cells = (cells * (passes.len() - untraced) as u64) as f64;
        let overhead = traced_s - traced_cells / stats::median(&untraced_rates);
        let spans = &tracer.spans;
        report.proc_layers(user_s, sys_s, overhead);
        report.layers(&build, &spans.transpile, &spans.noisy_shots);
        report.extra(
            "supermarq.score_us",
            time_scores(&grid)?.mean_ns() / 1e3,
            "us",
        );
        report.extra("store.put_us", spans.store_write.mean_ns() / 1e3, "us");
    } else {
        let latencies = latencies.into_inner().expect("latency lock");
        report.end_to_end(setup_s, stats::median(&untraced_rates), &latencies)?;
        report.extra("passes", passes.len() as f64, "count");
        report.extra("proc.user_cpu_s", user_s, "s");
        report.extra("proc.sys_cpu_s", sys_s, "s");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_excludes_exactly_the_cells_wider_than_their_device() {
        let grid = expand_grid(fig2_instances(), &mut Acc::default()).unwrap();
        assert_eq!(grid.included.len() + grid.excluded.len(), 25 * 8);
        for cell in &grid.excluded {
            let device = device_from_spec(&cell.device).unwrap();
            assert!(cell.qubits > device.num_qubits());
        }
        for cell in &grid.included {
            let device = device_from_spec(&cell.device).unwrap();
            assert!(cell.qubits <= device.num_qubits());
        }
        check_excluded(&grid).unwrap();
    }
}
