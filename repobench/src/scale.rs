//! `scale-wide`: noiseless mirror scoring and wide compilation. Wide
//! Clifford mirrors go through the CHP tableau, 16–20-qubit non-Clifford
//! mirrors through the statevector, and the registry is compiled at each
//! device's width through every builtin pipeline.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use supermarq::registry::{BenchmarkEntry, BenchmarkRegistry, ParamKind};
use supermarq::spec::benchmark_from_params;
use supermarq::{Benchmark, CircuitFamily, Mirror, MirrorPath};
use supermarq_circuit::Circuit;
use supermarq_clifford::StabilizerExecutor;
use supermarq_device::Device;
use supermarq_sim::NoiseModel;
use supermarq_transpile::{PipelineId, Transpiler};

use crate::stats::Hist;
use crate::trace::{Acc, Tracer};
use crate::{checks, proc::Usage, repeat_setup, rounds_within, stats, Config, Report, SplitMix};

/// Clifford mirrors, scored on the CHP tableau: `(id, size)`. Bit code at
/// 60 data qubits is 119 qubits in total.
const CLIFFORD_MIRRORS: [(&str, usize); 3] = [("ghz", 200), ("bv", 63), ("bit-code", 60)];
/// Non-Clifford mirrors, scored on the statevector: 2^20, 2^18 and 2^16
/// amplitudes.
const STATEVECTOR_MIRRORS: [(&str, usize); 3] = [("qft", 20), ("hamsim", 18), ("qaoa-vanilla", 16)];
/// Shots per mirror circuit.
const MIRROR_SHOTS: usize = 100;
/// Widest instance compiled for two registry entries whose cost on
/// today's code grows too fast for a run to finish at device width:
/// VQE's constructor runs a classical optimisation (0.8 s at 4 qubits,
/// 13 s at 12), and Grover's exact multi-controlled Z makes 12 qubits
/// take 25 s per pipeline. Every other entry compiles at full width.
const WIDTH_CAPS: [(&str, usize); 2] = [("vqe", 4), ("grover", 4)];

/// Registry parameters for `entry` at `size`, every other parameter at
/// its declared default (instance seed 1), in canonical order.
fn params_at(entry: &BenchmarkEntry, size: usize) -> Vec<(String, String)> {
    entry
        .schema()
        .iter()
        .map(|p| {
            let value = match p.kind {
                ParamKind::Size { .. } => size.to_string(),
                _ => p.default.expect("non-size parameters declare defaults")(size, 1),
            };
            (p.key.to_string(), value)
        })
        .collect()
}

fn size_range(entry: &BenchmarkEntry) -> (usize, usize) {
    entry
        .schema()
        .iter()
        .find_map(|p| match p.kind {
            ParamKind::Size { min, max } => Some((min, max)),
            _ => None,
        })
        .expect("every entry declares a size")
}

struct MirrorCase {
    label: String,
    mirror: Mirror<Box<dyn Benchmark>>,
    path: MirrorPath,
}

/// One compile cell: a registry entry at a device's width. `circuits`
/// is `Err` when the registry cannot instantiate the entry there.
struct CompileCell {
    label: String,
    device: Device,
    circuits: Result<Vec<Circuit>, String>,
}

struct Workset {
    mirrors: Vec<MirrorCase>,
    cells: Vec<CompileCell>,
}

impl Workset {
    /// Operations one round attempts: each mirror scoring, and each
    /// cell compiled through each pipeline.
    fn ops(&self) -> u64 {
        (self.mirrors.len() + self.cells.len() * PipelineId::ALL.len()) as u64
    }

    /// Operations that fail every round: compilations of cells the
    /// registry cannot instantiate.
    fn failing_ops(&self) -> u64 {
        let failing = self.cells.iter().filter(|c| c.circuits.is_err()).count();
        (failing * PipelineId::ALL.len()) as u64
    }
}

fn build(
    id: &str,
    params: &[(String, String)],
    build: &mut Acc,
) -> Result<(Box<dyn Benchmark>, Vec<Circuit>), String> {
    build.time(1, || {
        benchmark_from_params(id, params)
            .map(|b| {
                let circuits = b.circuits();
                (b, circuits)
            })
            .map_err(|e| format!("{id} {params:?}: {e}"))
    })
}

fn set_up(build_acc: &mut Acc) -> Result<Workset, String> {
    let registry = BenchmarkRegistry::builtin();
    let entry = |id: &str| {
        registry
            .get(id)
            .ok_or_else(|| format!("no registry entry '{id}'"))
    };
    let mut mirrors = Vec::new();
    for (list, path) in [
        (&CLIFFORD_MIRRORS, MirrorPath::Clifford),
        (&STATEVECTOR_MIRRORS, MirrorPath::Statevector),
    ] {
        for &(id, size) in list {
            let params = params_at(entry(id)?, size);
            let (base, _) = build(id, &params, build_acc)?;
            let mirror = Mirror::new(base);
            mirrors.push(MirrorCase {
                label: mirror.name(),
                mirror,
                path,
            });
        }
    }
    // Instances are shared by devices of equal width.
    let mut built: BTreeMap<(&str, usize), Result<Vec<Circuit>, String>> = BTreeMap::new();
    let mut cells = Vec::new();
    for e in registry.entries() {
        let (min, max) = size_range(e);
        let cap = WIDTH_CAPS
            .iter()
            .find(|(id, _)| *id == e.id())
            .map_or(max, |&(_, cap)| cap.min(max));
        for device in Device::all_paper_devices() {
            let width = device.num_qubits();
            let mut size = width.min(cap).max(min);
            let circuits = loop {
                let slot = built.entry((e.id(), size)).or_insert_with(|| {
                    build(e.id(), &params_at(e, size), build_acc).map(|(_, c)| c)
                });
                match slot {
                    Ok(c) if c[0].num_qubits() > width => {
                        if size == min {
                            return Err(format!("{} does not fit {}", e.id(), device.name()));
                        }
                        size -= 1;
                    }
                    other => break other.clone(),
                }
            };
            cells.push(CompileCell {
                label: format!("{}-{size}@{}", e.id(), device.name()),
                device,
                circuits,
            });
        }
    }
    Ok(Workset { mirrors, cells })
}

/// What one round measured.
struct Round {
    clifford_s: f64,
    statevector_s: f64,
    compile_s: f64,
    /// Busy time of each successful operation.
    latencies: Hist,
}

impl Round {
    fn busy_s(&self) -> f64 {
        self.clifford_s + self.statevector_s + self.compile_s
    }
}

/// Scores every mirror through `Mirror::score_noiseless` and checks the
/// path it took and its score.
fn score_mirrors(ws: &Workset, seed: u64, round: &mut Round) -> Result<(), String> {
    for case in &ws.mirrors {
        let start = Instant::now();
        let (score, path) = case
            .mirror
            .score_noiseless(MIRROR_SHOTS, seed)
            .map_err(|e| format!("{}: {e}", case.label))?;
        let elapsed = start.elapsed();
        round.latencies.record(elapsed);
        let elapsed = elapsed.as_secs_f64();
        if path != case.path {
            return Err(format!(
                "{}: scored on {path}, expected {}",
                case.label, case.path
            ));
        }
        match path {
            MirrorPath::Clifford => {
                checks::exactly_one(&case.label, score)?;
                round.clifford_s += elapsed;
            }
            MirrorPath::Statevector => {
                checks::near_one(&case.label, score)?;
                round.statevector_s += elapsed;
            }
        }
    }
    Ok(())
}

/// Compiles every cell through every builtin pipeline and checks each
/// compiled circuit against its device.
fn compile_cells(ws: &Workset, round: &mut Round) -> Result<(), String> {
    for cell in &ws.cells {
        let Ok(circuits) = &cell.circuits else {
            continue;
        };
        for pipeline in PipelineId::ALL {
            let transpiler = Transpiler::for_device(&cell.device).with_pipeline(pipeline);
            let what = format!("{} via {pipeline}", cell.label);
            let mut busy = Duration::ZERO;
            for c in circuits {
                let start = Instant::now();
                if pipeline == PipelineId::ClosedStages {
                    let ctx = transpiler
                        .run_with_context(c)
                        .map_err(|e| format!("{what}: {e}"))?;
                    busy += start.elapsed();
                    checks::no_error_diagnostics(&what, ctx.diagnostics())?;
                    checks::fits_coupling_map(&what, ctx.circuit(), &cell.device)?;
                } else {
                    let compiled = transpiler.run(c).map_err(|e| format!("{what}: {e}"))?;
                    busy += start.elapsed();
                    checks::fits_coupling_map(&what, &compiled.circuit, &cell.device)?;
                }
            }
            round.compile_s += busy.as_secs_f64();
            round.latencies.record(busy);
        }
    }
    Ok(())
}

/// The program's spans of traced rounds: mirror scoring and compilation
/// are recorded apart, so `sim.run` and `transpile.run` figures each
/// come from their own part.
struct RoundTracers {
    mirrors: Tracer,
    compile: Tracer,
}

fn run_round(ws: &Workset, seed: u64, traced: Option<&mut RoundTracers>) -> Result<Round, String> {
    let mut round = Round {
        clifford_s: 0.0,
        statevector_s: 0.0,
        compile_s: 0.0,
        latencies: Hist::new(),
    };
    match traced {
        None => {
            score_mirrors(ws, seed, &mut round)?;
            compile_cells(ws, &mut round)?;
        }
        Some(t) => {
            t.mirrors.record(|| score_mirrors(ws, seed, &mut round))?;
            t.compile.record(|| compile_cells(ws, &mut round))?;
        }
    }
    Ok(round)
}

/// Times the mirror calls that emit no span: `Mirror::circuits`, and
/// `StabilizerExecutor::success_fraction` per shot on the Clifford
/// mirrors.
fn time_mirror_calls(ws: &Workset, seed: u64) -> (Acc, Acc) {
    let (mut circuits_acc, mut shot) = (Acc::default(), Acc::default());
    let exec = StabilizerExecutor::new(NoiseModel::ideal());
    for case in &ws.mirrors {
        let circuits = circuits_acc.time(1, || case.mirror.circuits());
        if case.path == MirrorPath::Clifford {
            let expected = case.mirror.expected_bits();
            for (i, c) in circuits.iter().enumerate() {
                shot.time(MIRROR_SHOTS as u64, || {
                    exec.success_fraction(c, &expected, MIRROR_SHOTS, seed + i as u64 * 7919)
                });
            }
        }
    }
    (circuits_acc, shot)
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut build = Acc::default();
    let (setup_s, ws) = repeat_setup(5, |_| set_up(&mut build))?;
    let mut rng = SplitMix::new(cfg.seed);
    let budget = cfg.phase_budget();
    let cpu_before = Usage::now();
    // `>> 16` keeps `seed + i * 7919` inside u64 when a mirror offsets
    // the seed per circuit.
    let mut rounds = rounds_within(budget, || run_round(&ws, rng.next() >> 16, None))?;
    let (user_s, sys_s) = Usage::now().since(&cpu_before);
    let untraced = rounds.len();
    let cells = (ws.ops() - ws.failing_ops()) as f64;
    let rates: Vec<f64> = rounds.iter().map(|r| cells / r.busy_s()).collect();
    let mut tracers = RoundTracers {
        mirrors: Tracer::new(&cfg.work),
        compile: Tracer::new(&cfg.work),
    };
    if cfg.trace {
        rounds.extend(rounds_within(budget, || {
            run_round(&ws, rng.next() >> 16, Some(&mut tracers))
        })?);
    }
    let n = rounds.len() as u64;
    let mut report = Report::new(n * ws.ops(), n * ws.failing_ops());
    if cfg.trace {
        let traced_s: f64 = rounds[untraced..].iter().map(Round::busy_s).sum();
        let traced_cells = (rounds.len() - untraced) as f64 * cells;
        report.proc_layers(
            user_s,
            sys_s,
            traced_s - traced_cells / stats::median(&rates),
        );
        let (mirror_spans, compile_spans) = (&tracers.mirrors.spans, &tracers.compile.spans);
        report.layers(&build, &compile_spans.transpile, &mirror_spans.ideal_shots);
        let (mirror_build, clifford_shot) = time_mirror_calls(&ws, rng.next() >> 16);
        report.extra(
            "supermarq.mirror_build_ms",
            mirror_build.mean_ns() / 1e6,
            "ms",
        );
        report.extra(
            "sim.sv_run_ms",
            mirror_spans.ideal_runs.mean_ns() / 1e6,
            "ms",
        );
        report.extra("clifford.shot_us", clifford_shot.mean_ns() / 1e3, "us");
        for pipeline in PipelineId::ALL {
            let name = pipeline.to_string();
            let acc = compile_spans
                .pipelines
                .get(&name)
                .ok_or_else(|| format!("no transpile.run span for pipeline {name}"))?;
            report.extra(&format!("transpile.{name}_ms"), acc.mean_ns() / 1e6, "ms");
        }
    } else {
        let mut latencies = Hist::new();
        for r in &rounds {
            latencies.merge(&r.latencies);
        }
        report.end_to_end(setup_s, stats::median(&rates), &latencies)?;
        let part = |f: fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
        report.extra("clifford_mirror_s", part(|r| r.clifford_s), "s");
        report.extra("sv_mirror_s", part(|r| r.statevector_s), "s");
        report.extra("compile_s", part(|r| r.compile_s), "s");
        report.extra("rounds", n as f64, "count");
        report.extra("proc.user_cpu_s", user_s, "s");
        report.extra("proc.sys_cpu_s", sys_s, "s");
    }
    let failing: Vec<&str> = ws
        .cells
        .iter()
        .filter(|c| c.circuits.is_err())
        .map(|c| c.label.as_str())
        .collect();
    if !failing.is_empty() {
        eprintln!(
            "scale-wide: {} cells fail every round (registry defaults rejected): {}",
            failing.len(),
            failing.join(" ")
        );
    }
    Ok(report)
}
