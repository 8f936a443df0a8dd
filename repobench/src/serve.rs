//! `serve-warm`: an in-process daemon in front of a store that set-up
//! fills, answering two closed-loop clients that draw cells from a
//! seeded uniform stream. The timed phase runs no simulation.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use supermarq::spec::execute_spec;
use supermarq_obs::{TraceContext, TraceId};
use supermarq_serve::{Client, RunningServer, ServeConfig, Server};
use supermarq_store::{RunOutcome, RunRecord, RunSpec, Store, SweepEngine};

use crate::fig2::{expand_grid, fig2_instances, Cell};
use crate::stats::Hist;
use crate::trace::{Acc, Tracer};
use crate::{checks, proc::Usage, repeat_setup, stats, Config, Report, SplitMix};

/// Distinct cells set-up writes to the store.
pub const CELLS: usize = 48;
/// Shots and repetitions of each stored cell.
pub const SHOTS: u64 = 8;
pub const REPS: u64 = 1;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// `RunSpec::content_hash` calls the traced run times.
const HASH_PROBES: usize = 4096;

/// The cells serve-warm draws from: every Fig. 2 cell except VQE's,
/// whose instantiation alone costs seconds on today's code.
fn cell_pool(build: &mut Acc) -> Result<Vec<Cell>, String> {
    Ok(expand_grid(fig2_instances().filter(|(id, _)| id != "vqe"), build)?.included)
}

/// The seeded set of distinct specs: the pool, in grid order, is cut
/// into `CELLS` consecutive strata and one cell is drawn uniformly from
/// each, under its own spec seed. Every seed so fills the store with
/// nearly the same mix of instances, and the fill's cost follows the
/// program rather than the draw.
fn draw_specs(seed: u64, build: &mut Acc) -> Result<Vec<RunSpec>, String> {
    let pool = cell_pool(build)?;
    let mut rng = SplitMix::new(seed ^ 0x5e77_e000);
    Ok((0..CELLS)
        .map(|k| {
            let (lo, hi) = (k * pool.len() / CELLS, (k + 1) * pool.len() / CELLS);
            pool[lo + rng.below(hi - lo)].spec(SHOTS, REPS, rng.next())
        })
        .collect())
}

/// A filled store behind a bound daemon with connected clients.
struct Fixture {
    specs: Vec<RunSpec>,
    records: Vec<RunRecord>,
    lines: Vec<String>,
    server: RunningServer,
    clients: Vec<Client>,
}

/// The daemon's executor: every request must be a warm hit, so any
/// execution is a fault and fails loudly.
fn refuse_misses(spec: &RunSpec) -> Result<RunOutcome, String> {
    Err(format!(
        "serve-warm: unexpected miss for {} on {} (hash {})",
        spec.benchmark,
        spec.device,
        spec.content_hash()
    ))
}

/// Fills a fresh store under `name` with `specs` through the sweep
/// engine and returns it with the records written.
fn fill(cfg: &Config, name: &str, specs: &[RunSpec]) -> Result<(Store, Vec<RunRecord>), String> {
    let store = Store::open(cfg.work.join(name)).map_err(|e| format!("open store: {e}"))?;
    let report =
        SweepEngine::new(&store).run(specs, |spec| execute_spec(spec).map_err(|e| e.to_string()));
    if report.stats.misses != CELLS || report.stats.failures != 0 || report.stats.store_errors != 0
    {
        return Err(format!("fill: {}", report.stats.summary()));
    }
    let records = report
        .results
        .into_iter()
        .map(|r| r.outcome)
        .collect::<Result<_, _>>()?;
    Ok((store, records))
}

fn set_up(cfg: &Config, i: usize, build: &mut Acc) -> Result<Fixture, String> {
    let specs = draw_specs(cfg.seed, build)?;
    let (store, records) = fill(cfg, &format!("store-{i}"), &specs)?;
    let lines = records.iter().map(RunRecord::to_line).collect();
    let server = Server::bind(ServeConfig::default(), store, Arc::new(refuse_misses))
        .map_err(|e| format!("bind: {e}"))?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<_, _>>()?;
    Ok(Fixture {
        specs,
        records,
        lines,
        server,
        clients,
    })
}

/// What the clients saw in one timed phase.
struct Phase {
    elapsed: Duration,
    requests: u64,
    latencies: Hist,
    /// Round trip minus echoed server time, traced requests only.
    wire_us: Vec<f64>,
}

impl Phase {
    fn new() -> Phase {
        Phase {
            elapsed: Duration::ZERO,
            requests: 0,
            latencies: Hist::new(),
            wire_us: Vec::new(),
        }
    }
}

/// Runs the closed loop on every client until `budget` has passed.
/// Traced requests carry a trace context, so the daemon echoes its own
/// time and the client can split the round trip.
fn closed_loop(
    fx: &mut Fixture,
    rng: &mut SplitMix,
    budget: Duration,
    traced: bool,
) -> Result<Phase, String> {
    let start = Instant::now();
    let deadline = start + budget;
    let (specs, lines) = (&fx.specs, &fx.lines);
    let seeds: Vec<u64> = (0..fx.clients.len()).map(|_| rng.next()).collect();
    let results: Vec<Result<Phase, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = fx
            .clients
            .iter_mut()
            .zip(seeds)
            .map(|(client, seed)| {
                scope.spawn(move || {
                    let mut stream = SplitMix::new(seed);
                    let ctx = TraceContext::new(Some(TraceId::generate()), seed | 1);
                    let mut phase = Phase::new();
                    while Instant::now() < deadline {
                        let i = stream.below(specs.len());
                        let sent = Instant::now();
                        let (line, timing) =
                            client
                                .run_traced(&specs[i], traced.then_some(&ctx))
                                .map_err(|e| format!("request {}: {e}", phase.requests))?;
                        let rtt = sent.elapsed();
                        phase.requests += 1;
                        checks::same_line("serve-warm", &line, &lines[i])?;
                        phase.latencies.record(rtt);
                        if traced {
                            let t = timing.ok_or("traced request without a timing echo")?;
                            if t.source != "warm" {
                                return Err(format!("request answered '{}', not warm", t.source));
                            }
                            let rtt_us = rtt.as_secs_f64() * 1e6;
                            phase.wire_us.push(rtt_us - t.total_ns as f64 / 1e3);
                        }
                    }
                    Ok(phase)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Phase::new();
    for phase in results {
        let phase = phase?;
        total.requests += phase.requests;
        total.latencies.merge(&phase.latencies);
        total.wire_us.extend(phase.wire_us);
    }
    total.elapsed = start.elapsed();
    Ok(total)
}

/// The daemon must have answered every request as a warm hit and run
/// nothing.
fn check_daemon(server: &RunningServer, requests: u64) -> Result<(), String> {
    let m = server.metrics();
    let n = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    if n(&m.requests) != requests
        || n(&m.hits) != requests
        || n(&m.misses) != 0
        || n(&m.simulations) != 0
        || n(&m.errors) != 0
    {
        return Err(format!(
            "daemon stats after {requests} requests: {}",
            server.summary()
        ));
    }
    Ok(())
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut build = Acc::default();
    let (setup_s, mut fx) = repeat_setup(9, |i| set_up(cfg, i, &mut build))?;
    let mut rng = SplitMix::new(cfg.seed);
    let budget = cfg.phase_budget();
    let cpu_before = Usage::now();
    let untraced = closed_loop(&mut fx, &mut rng, budget, false)?;
    let (user_s, sys_s) = Usage::now().since(&cpu_before);
    let rps = untraced.requests as f64 / untraced.elapsed.as_secs_f64();
    let mut requests = untraced.requests;
    let report = if cfg.trace {
        let mut served = Tracer::new(&cfg.work);
        let traced = served.record(|| closed_loop(&mut fx, &mut rng, budget, true))?;
        requests += traced.requests;
        check_daemon(&fx.server, requests)?;
        let overhead = traced.elapsed.as_secs_f64() - traced.requests as f64 / rps;
        // The fill's layers, traced on a store of its own.
        let mut filled = Tracer::new(&cfg.work);
        let (_, records) = filled.record(|| fill(cfg, "store-traced", &fx.specs))?;
        if records != fx.records {
            return Err("traced fill wrote other records than set-up".into());
        }
        let mut hash = Acc::default();
        for _ in 0..HASH_PROBES {
            let spec = &fx.specs[rng.below(fx.specs.len())];
            hash.time(1, || spec.content_hash());
        }
        let m = fx.server.metrics();
        let mut report = Report::new(requests, 0);
        report.proc_layers(user_s, sys_s, overhead);
        let fill_spans = &filled.spans;
        report.layers(&build, &fill_spans.transpile, &fill_spans.noisy_shots);
        report.extra(
            "serve.server_hit_us",
            m.warm_hit_ns.quantile(0.5) as f64 / 1e3,
            "us",
        );
        report.extra("serve.wire_us", stats::median(&traced.wire_us), "us");
        report.extra(
            "serve.requests",
            m.requests.load(Ordering::Relaxed) as f64,
            "count",
        );
        report.extra(
            "serve.warm_hits",
            m.hits.load(Ordering::Relaxed) as f64,
            "count",
        );
        report.extra(
            "store.get_us",
            served.spans.store_read.mean_ns() / 1e3,
            "us",
        );
        report.extra("store.hash_us", hash.mean_ns() / 1e3, "us");
        report.extra("store.put_us", fill_spans.store_write.mean_ns() / 1e3, "us");
        report
    } else {
        check_daemon(&fx.server, requests)?;
        let mut report = Report::new(requests, 0);
        report.end_to_end(setup_s, rps, &untraced.latencies)?;
        report.extra("serve_rps", rps, "1/s");
        report.extra("hit_p50_us", untraced.latencies.percentile_us(0.5), "us");
        report.extra("hit_p90_us", untraced.latencies.percentile_us(0.9), "us");
        report.extra("proc.user_cpu_s", user_s, "s");
        report.extra("proc.sys_cpu_s", sys_s, "s");
        report
    };
    drop(fx.clients);
    fx.server.shutdown();
    Ok(report)
}
