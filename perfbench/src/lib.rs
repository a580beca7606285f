//! End-to-end and per-layer benchmark of the ORIANNA stack.
//!
//! Three seeded workloads, each a single process:
//!
//! * [`frame`] — `frame_solve`, the per-frame Gauss-Newton software path;
//! * [`accel`] — `accel_gen`, compile → decode → generate → simulate →
//!   search, the paper's compile-to-hardware flow;
//! * [`fleet`] — `fleet_serve`, an open loop against the solver server.
//!
//! An untraced run measures one workload's end-to-end metrics. A traced
//! run times the benchmark's own calls into each crate's public functions
//! and reads the counters those crates expose, producing the per-layer
//! metrics; see `perfbench/README.md` for the metric catalogue.

pub mod accel;
pub mod fleet;
pub mod frame;
pub mod report;

use report::{beyond, median, quantile, ratio, Metric, Run};
use std::time::Instant;

/// End-to-end metrics of the result line (`--trace 0`), with units, in
/// `BENCHMARK.json` order.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the result line (`--trace 1`), with units, in
/// `BENCHMARK.json` order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("apps.build_us", "us"),
    ("graph.linearize_us", "us"),
    ("graph.error_eval_us", "us"),
    ("graph.retract_us", "us"),
    ("solver.gn.iters", "count"),
    ("solver.elim_us", "us"),
    ("solver.elim.gflops", "GFLOP/s"),
    ("solver.gn.self_us", "us"),
    ("solver.plan_build_us", "us"),
    ("solver.plan_cache.hit_ratio", "ratio"),
    ("compiler.compile_us", "us"),
    ("compiler.lower_us", "us"),
    ("compiler.modfg_us", "us"),
    ("compiler.codegen_us", "us"),
    ("compiler.instrs", "count"),
    ("hw.decode_us", "us"),
    ("hw.gen_us", "us"),
    ("hw.sim_us", "us"),
    ("hw.sim.minstr_per_s", "Minstr/s"),
    ("hw.gen.sims", "count"),
    ("hw.gen.memo_hit_ratio", "ratio"),
    ("hw.gen.bound_skip_ratio", "ratio"),
    ("hw.search_us", "us"),
    ("hw.search.sims", "count"),
    ("hw.search.gated_ratio", "ratio"),
    ("hw.sim.ipc", "instr/cycle"),
    ("hw.sim.busy.matmul", "ratio"),
    ("hw.sim.stall.matmul", "ratio"),
    ("hw.sim.busy.vector", "ratio"),
    ("hw.sim.stall.vector", "ratio"),
    ("hw.sim.busy.special", "ratio"),
    ("hw.sim.stall.special", "ratio"),
    ("hw.sim.busy.memory", "ratio"),
    ("hw.sim.stall.memory", "ratio"),
    ("hw.sim.busy.qr", "ratio"),
    ("hw.sim.stall.qr", "ratio"),
    ("hw.sim.busy.backsub", "ratio"),
    ("hw.sim.stall.backsub", "ratio"),
    ("server.submit_us", "us"),
    ("server.gn_p50_ms", "ms"),
    ("server.lm_p50_ms", "ms"),
    ("server.extend_p50_ms", "ms"),
    ("server.batch_mean", "count"),
    ("server.coalesced_ratio", "ratio"),
    ("server.plan_hit_ratio", "ratio"),
    ("server.ws_builds", "count"),
    ("server.queue_depth_max", "count"),
    ("server.overhead_ratio", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop Gauss-Newton frames.
    FrameSolve,
    /// Closed-loop accelerator generation.
    AccelGen,
    /// Open-loop serving.
    FleetServe,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::FrameSolve,
        Workload::AccelGen,
        Workload::FleetServe,
    ];

    /// The command-line and `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FrameSolve => "frame_solve",
            Workload::AccelGen => "accel_gen",
            Workload::FleetServe => "fleet_serve",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The tail quantile reported as `op_tail_ms`: the highest of p99 and
    /// p90 that a run of the default length leaves ≥10 samples beyond.
    pub fn tail(self) -> (f64, &'static str) {
        match self {
            Workload::AccelGen => (0.90, "op_p90_ms"),
            Workload::FrameSolve | Workload::FleetServe => (0.99, "op_p99_ms"),
        }
    }
}

/// One measured window of operations.
#[derive(Debug, Default)]
pub struct Window {
    /// Per-operation latency in completion order, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Completion time of each operation since the window began, seconds.
    pub ends_s: Vec<f64>,
}

/// Most consecutive sub-windows a run's statistics are split over.
pub const MAX_CHUNKS: usize = 5;

impl Window {
    /// Records one completed operation.
    pub fn record(&mut self, latency_ms: f64, end_s: f64) {
        self.latencies_ms.push(latency_ms);
        self.ends_s.push(end_s);
    }

    /// Sub-window size when each sub-window needs `per` samples: at most
    /// [`MAX_CHUNKS`] sub-windows, at least one.
    fn chunk_len(&self, per: usize) -> usize {
        let n = self.latencies_ms.len();
        (n / (n / per.max(1)).clamp(1, MAX_CHUNKS)).max(1)
    }

    /// The median over consecutive sub-windows of each one's
    /// nearest-rank `q` quantile, with as many sub-windows (up to
    /// [`MAX_CHUNKS`]) as keep ≥10 samples beyond `q` in each. Returns the
    /// value and the sub-window count. A median over parts of the run is
    /// steadier than one quantile over all of it when a slow spell of the
    /// host covers part of the run.
    pub fn quantile(&self, q: f64) -> (f64, usize) {
        let per = (10.0 / (1.0 - q)).round() as usize;
        let size = self.chunk_len(per);
        let parts: Vec<f64> = self
            .latencies_ms
            .chunks_exact(size)
            .map(|c| {
                let mut c = c.to_vec();
                c.sort_by(f64::total_cmp);
                quantile(&c, q)
            })
            .collect();
        (median(&parts), parts.len())
    }

    /// Completed operations per second: the median over consecutive
    /// sub-windows of their completion rate.
    pub fn ops_per_s(&self) -> f64 {
        if self.ends_s.is_empty() {
            return 0.0;
        }
        let size = self.chunk_len(20);
        let rates: Vec<f64> = self
            .ends_s
            .chunks_exact(size)
            .enumerate()
            .map(|(k, c)| {
                let begin = if k == 0 {
                    0.0
                } else {
                    self.ends_s[k * size - 1]
                };
                ratio(c.len() as f64, c[c.len() - 1] - begin)
            })
            .collect();
        median(&rates)
    }
}

/// A sub-seed derived from the workload seed, a stream tag, and an index.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    orianna_server::splitmix64(seed ^ orianna_server::splitmix64(stream ^ (index << 20)))
}

/// A set-up workload.
enum State {
    Frame(Box<frame::FrameSolve>),
    Accel(Box<accel::AccelGen>),
    Fleet(Box<fleet::FleetServe>),
}

impl State {
    /// Generates inputs and warms up; `seconds` is the total load the run
    /// will measure (the open loop plans its traffic from it).
    fn setup(w: Workload, seed: u64, seconds: f64) -> Result<Self, String> {
        Ok(match w {
            Workload::FrameSolve => State::Frame(Box::new(frame::FrameSolve::setup(seed)?)),
            Workload::AccelGen => State::Accel(Box::new(accel::AccelGen::setup(seed)?)),
            Workload::FleetServe => {
                State::Fleet(Box::new(fleet::FleetServe::setup(seed, seconds)?))
            }
        })
    }

    fn measure(&mut self, seconds: f64, traced: bool, run: &mut Run) -> Window {
        match self {
            State::Frame(s) => s.measure(seconds, traced, run),
            State::Accel(s) => s.measure(seconds, traced, run),
            State::Fleet(s) => s.measure(seconds, traced, run),
        }
    }

    fn conclude(&mut self, traced: bool, run: &mut Run) {
        match self {
            State::Frame(s) => s.conclude(traced, run),
            State::Accel(s) => s.conclude(traced, run),
            State::Fleet(s) => s.conclude(traced, run),
        }
    }
}

/// Digests of a workload's generated inputs for `seed` (reproducibility
/// checks).
///
/// # Errors
/// Set-up failures.
pub fn input_digests(w: Workload, seed: u64) -> Result<Vec<u64>, String> {
    Ok(match State::setup(w, seed, 0.5)? {
        State::Frame(s) => s.input_digests(),
        State::Accel(s) => s.input_digests(),
        State::Fleet(s) => vec![s.input_digest()],
    })
}

/// An untraced run: [`SETUP_REPS`] set-ups, one measured window of
/// `seconds`, the output checks, and every end-to-end metric.
///
/// # Errors
/// Set-up failures (the inputs could not be generated or warmed).
pub fn run_untraced(w: Workload, seed: u64, seconds: f64) -> Result<Run, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous set-up down first so repetitions do not
        // overlap in memory or threads.
        drop(state.take());
        let t = Instant::now();
        state = Some(State::setup(w, seed, seconds)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");
    let mut run = Run::default();
    let window = state.measure(seconds, false, &mut run);
    state.conclude(false, &mut run);

    let n = window.latencies_ms.len();
    let (q, tail_name) = w.tail();
    let (p50, _) = window.quantile(0.5);
    let (tail, chunks) = window.quantile(q);
    if beyond(n / chunks, q) < 10 {
        run.notes.push(format!(
            "{tail_name} has only {} samples beyond it",
            beyond(n / chunks, q)
        ));
    }
    run.notes.push(format!(
        "{tail_name} is the median over {chunks} consecutive sub-windows of {} operations",
        n / chunks
    ));
    let extras = std::mem::take(&mut run.e2e);
    run.e2e = vec![
        Metric::host("setup_s", median(&setups), "s", setups.len()),
        Metric::host("ops_per_s", window.ops_per_s(), "1/s", n),
        Metric::host("op_p50_ms", p50, "ms", n),
        Metric::host("op_tail_ms", tail, "ms", n),
        Metric::host("peak_rss_mb", report::peak_rss_mb(), "MB", 1),
        Metric::host(tail_name, tail, "ms", n),
        Metric::host(
            "failed_ratio",
            ratio(run.failed as f64, run.attempted as f64),
            "ratio",
            run.attempted as usize,
        ),
    ];
    run.e2e.extend(extras);
    Ok(run)
}

/// A traced run. The named workload measures half its time untraced and
/// half traced (their throughput ratio is `trace.overhead_ratio`); the
/// other two run one traced window of half the time, so every layer is
/// measured on the workload that exercises it: `apps`, `graph` and
/// `solver` on `frame_solve`, `compiler` and `hw` on `accel_gen`, `server`
/// and the load generator on `fleet_serve`.
///
/// # Errors
/// Set-up failures.
pub fn run_traced(named: Workload, seed: u64, seconds: f64) -> Result<Run, String> {
    let mut run = Run::default();
    let others = (seconds / 2.0).max(1.0);
    for w in Workload::ALL {
        let planned = if w == named { seconds } else { others };
        let mut state = State::setup(w, seed, planned)?;
        if w == named {
            let plain = state.measure(seconds / 2.0, false, &mut run);
            let traced = state.measure(seconds / 2.0, true, &mut run);
            run.layers.push(Metric::host(
                "trace.overhead_ratio",
                ratio(plain.ops_per_s(), traced.ops_per_s()),
                "ratio",
                plain.latencies_ms.len() + traced.latencies_ms.len(),
            ));
        } else {
            state.measure(others, true, &mut run);
        }
        state.conclude(true, &mut run);
    }
    run.e2e.push(Metric::host(
        "failed_ratio",
        ratio(run.failed as f64, run.attempted as f64),
        "ratio",
        run.attempted as usize,
    ));
    Ok(run)
}

/// Host metadata printed with every result.
pub fn host_line(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env: Vec<String> = [
        "ORIANNA_THREADS",
        "ORIANNA_NO_SIMD",
        "ORIANNA_PAR_THRESHOLD",
    ]
    .iter()
    .filter_map(|k| std::env::var(k).ok().map(|v| format!("{k}={v}")))
    .collect();
    format!(
        "host   nproc={nproc} simd={} rustc=\"{}\" commit={} seed={seed} env=[{}]",
        orianna_math::simd::enabled(),
        env!("PERFBENCH_RUSTC"),
        git_commit().unwrap_or_else(|| "unknown".into()),
        env.join(",")
    )
}

/// The checked-out commit, read from `.git` in the working directory.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_window_medians_shrug_off_one_slow_spell() {
        let mut w = Window::default();
        for i in 0..500 {
            // Operations 200..300 (one of five sub-windows) run 10× slower.
            let ms = if (200..300).contains(&i) { 10.0 } else { 1.0 };
            w.record(ms, (i + 1) as f64 * 1e-3);
        }
        assert_eq!(w.quantile(0.5), (1.0, 5));
        assert_eq!(w.quantile(0.9), (1.0, 5));
        assert_eq!(w.quantile(0.99), (10.0, 1));
        assert!((w.ops_per_s() - 1000.0).abs() < 1e-6);
    }
}
