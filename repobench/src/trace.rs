//! The traced mode's view of the layers. Work runs through the
//! program's own code paths with `supermarq_obs` tracing switched on;
//! the spans the program already emits (`sim.run`, `transpile.run`,
//! `store.read`, `store.write`) go to a JSONL file in the run's work
//! directory and are summed here by name. Layer calls that emit no span
//! are timed from the benchmark's own code with an [`Acc`]. The program
//! gains no span.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use supermarq_store::Json;

/// The spans the traced mode reads; the sink drops every other one.
const SPANS: &str = "sim.run,transpile.run,store.read,store.write";

/// Busy time and work units accumulated by one timer.
#[derive(Debug, Default, Clone)]
pub struct Acc {
    ns: u64,
    units: u64,
}

impl Acc {
    /// Times `f`, crediting `units` units of work to it.
    pub fn time<T>(&mut self, units: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(start.elapsed(), units);
        out
    }

    /// Credits `elapsed` busy time and `units` units of work.
    pub fn add(&mut self, elapsed: Duration, units: u64) {
        self.add_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX), units);
    }

    fn add_ns(&mut self, ns: u64, units: u64) {
        self.ns = self.ns.saturating_add(ns);
        self.units += units;
    }

    /// Mean busy time per unit, in nanoseconds (`NaN` before any unit).
    pub fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.units as f64
    }
}

/// The program's spans, summed over every recorded segment.
#[derive(Debug, Default)]
pub struct Spans {
    /// `transpile.run`, per call.
    pub transpile: Acc,
    /// `transpile.run` per call, by its `pipeline` field.
    pub pipelines: BTreeMap<String, Acc>,
    /// `sim.run` with noise (trajectories), per shot.
    pub noisy_shots: Acc,
    /// `sim.run` without trajectories, per call and per shot.
    pub ideal_runs: Acc,
    pub ideal_shots: Acc,
    /// `store.read` and `store.write`, per call.
    pub store_read: Acc,
    pub store_write: Acc,
}

impl Spans {
    /// Adds one JSONL trace line; lines other than the spans read here
    /// are skipped.
    fn add_line(&mut self, line: &str) -> Result<(), String> {
        let json = Json::parse(line).map_err(|e| format!("trace line '{line}': {e}"))?;
        if json.get("type").and_then(Json::as_str) != Some("span") {
            return Ok(());
        }
        let field = |key: &str| json.get("fields").and_then(|f| f.get(key));
        let ns = json
            .get("elapsed_ns")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("trace span without elapsed_ns: {line}"))?;
        match json.get("name").and_then(Json::as_str) {
            Some("transpile.run") => {
                self.transpile.add_ns(ns, 1);
                let pipeline = field("pipeline")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("transpile.run without pipeline: {line}"))?;
                self.pipelines
                    .entry(pipeline.to_string())
                    .or_default()
                    .add_ns(ns, 1);
            }
            Some("sim.run") => {
                let shots = field("shots")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("sim.run without shots: {line}"))?;
                if field("trajectories").and_then(Json::as_bool) == Some(true) {
                    self.noisy_shots.add_ns(ns, shots);
                } else {
                    self.ideal_runs.add_ns(ns, 1);
                    self.ideal_shots.add_ns(ns, shots);
                }
            }
            Some("store.read") => self.store_read.add_ns(ns, 1),
            Some("store.write") => self.store_write.add_ns(ns, 1),
            _ => {}
        }
        Ok(())
    }
}

/// Records the program's spans for chosen stretches of work.
pub struct Tracer {
    dir: PathBuf,
    segments: usize,
    pub spans: Spans,
}

impl Tracer {
    /// A tracer that writes its trace files into `dir`.
    pub fn new(dir: &Path) -> Tracer {
        Tracer {
            dir: dir.to_path_buf(),
            segments: 0,
            spans: Spans::default(),
        }
    }

    /// Runs `f` with the program's tracing on, then adds the spans that
    /// closed meanwhile and removes the trace file.
    pub fn record<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let path = self.dir.join(format!("trace-{}.jsonl", self.segments));
        self.segments += 1;
        supermarq_obs::init_trace_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        supermarq_obs::set_filter(Some(SPANS));
        let out = f();
        supermarq_obs::disable();
        supermarq_obs::sink::clear_trace_writer();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        for line in text.lines() {
            self.spans.add_line(line)?;
        }
        std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_summed_by_name_and_field() {
        let mut spans = Spans::default();
        for line in [
            r#"{"type":"span","name":"transpile.run","id":1,"parent":null,"thread":1,"start_ns":0,"elapsed_ns":300,"fields":{"qubits":3,"pipeline":"closed-default"}}"#,
            r#"{"type":"span","name":"transpile.run","id":2,"parent":null,"thread":1,"start_ns":0,"elapsed_ns":100,"fields":{"qubits":3,"pipeline":"no-optimize"}}"#,
            r#"{"type":"span","name":"sim.run","id":3,"parent":null,"thread":1,"start_ns":0,"elapsed_ns":800,"fields":{"shots":4,"qubits":3,"trajectories":true}}"#,
            r#"{"type":"span","name":"sim.run","id":4,"parent":null,"thread":1,"start_ns":0,"elapsed_ns":50,"fields":{"shots":10,"qubits":3,"trajectories":false}}"#,
            r#"{"type":"span","name":"store.read","id":5,"parent":null,"thread":1,"start_ns":0,"elapsed_ns":70,"fields":{"hit":true}}"#,
            r#"{"type":"span","name":"serve.request","id":6,"parent":null,"thread":1,"start_ns":0,"elapsed_ns":9,"fields":{}}"#,
            r#"{"type":"log","message":"ignored"}"#,
        ] {
            spans.add_line(line).unwrap();
        }
        assert_eq!(spans.transpile.mean_ns(), 200.0);
        assert_eq!(spans.pipelines["closed-default"].mean_ns(), 300.0);
        assert_eq!(spans.pipelines["no-optimize"].mean_ns(), 100.0);
        assert_eq!(spans.noisy_shots.mean_ns(), 200.0);
        assert_eq!(
            (spans.ideal_runs.mean_ns(), spans.ideal_shots.mean_ns()),
            (50.0, 5.0)
        );
        assert_eq!(spans.store_read.mean_ns(), 70.0);
        assert!(spans.store_write.mean_ns().is_nan());
        assert!(spans
            .add_line(r#"{"type":"span","name":"sim.run","elapsed_ns":1,"fields":{}}"#)
            .is_err());
    }

    /// The program's own spans carry the fields the sums read. Other
    /// tests may run program code meanwhile, so counts are lower bounds.
    #[test]
    fn recorded_program_spans_carry_the_fields_read() {
        let dir = std::env::temp_dir().join(format!("repobench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut tracer = Tracer::new(&dir);
        let device = supermarq_device::Device::ionq();
        let mut c = supermarq_circuit::Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.cx(1, 2);
        c.measure_all();
        tracer
            .record(|| {
                supermarq_transpile::Transpiler::for_device(&device)
                    .run(&c)
                    .map_err(|e| e.to_string())?;
                supermarq_sim::Executor::noiseless().run(&c, 10, 1);
                supermarq_sim::Executor::new(device.noise_model()).run(&c, 5, 1);
                Ok(())
            })
            .unwrap();
        let spans = &tracer.spans;
        assert!(spans.pipelines["closed-default"].units >= 1);
        assert!(spans.ideal_runs.units >= 1 && spans.ideal_shots.units >= 10);
        assert!(spans.noisy_shots.units >= 5);
        assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
