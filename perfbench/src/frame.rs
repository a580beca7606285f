//! `frame_solve`: the robot's per-frame software path.
//!
//! A closed loop on one thread. Each operation is one
//! `GaussNewton::optimize_with_cache` call (default settings: convergence
//! tests plus the step-halving line search) on one of the twelve
//! application algorithms, drawn round-robin from a pool of seeded
//! instances built in set-up. One `PlanCache` is shared by every solve.

use crate::report::{mean, ratio, Metric, Run};
use crate::{derive_seed, Window};
use orianna_apps::mission::run_mission_with;
use orianna_apps::{all_apps, Pipeline};
use orianna_graph::{natural_ordering, FactorGraph, LinearSystem};
use orianna_math::Parallelism;
use orianna_server::values_digest;
use orianna_solver::{GaussNewton, PlanCache, SolvePlan, Workspace};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Application seeds in the instance pool (each adds 12 instances). The
/// p99 frame is set by the pool's slowest instances, so a large pool keeps
/// it from hinging on a few instances the workload seed happened to draw.
const POOL_SEEDS: usize = 48;

/// One algorithm instance of the pool.
struct Instance {
    name: String,
    graph: FactorGraph,
    /// Digest of the estimate `GaussNewton::optimize` reaches from it.
    reference: u64,
    /// Structure fingerprint of its linear system (the plan-cache key).
    topology: u64,
}

/// Per-layer samples gathered by traced operations.
#[derive(Default)]
struct Trace {
    linearize_us: Vec<f64>,
    elim_us: Vec<f64>,
    error_eval_us: Vec<f64>,
    retract_us: Vec<f64>,
    self_us: Vec<f64>,
    iters: Vec<f64>,
    flops: f64,
    plan_build_us: Vec<f64>,
    /// Private plans and arenas, so tracing never touches the measured
    /// solver's cache counters.
    plans: HashMap<u64, (SolvePlan, Workspace)>,
    sys: Option<LinearSystem>,
}

/// The `frame_solve` workload state.
pub struct FrameSolve {
    seeds: Vec<u64>,
    pool: Vec<Instance>,
    solver: GaussNewton,
    cache: PlanCache,
    /// `optimize_with_cache` calls made against `cache` so far.
    frames: usize,
    next: usize,
    build_us: Vec<f64>,
    trace: Trace,
}

impl FrameSolve {
    /// Builds the instance pool for `seed`, solves every instance once with
    /// plain `GaussNewton::optimize` to record its reference digest, and
    /// warms the shared plan cache with one solve per instance.
    ///
    /// # Errors
    /// A description of the first instance whose reference solve or
    /// warm-up solve failed.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let seeds: Vec<u64> = (0..POOL_SEEDS as u64)
            .map(|i| derive_seed(seed, 0xF4A3, i))
            .collect();
        let mut pool = Vec::new();
        let mut build_us = Vec::new();
        for &s in &seeds {
            let t = Instant::now();
            let apps = all_apps(s);
            let per_app = t.elapsed().as_secs_f64() * 1e6 / apps.len() as f64;
            build_us.extend(std::iter::repeat_n(per_app, apps.len()));
            for app in apps {
                for algo in app.algorithms {
                    let name = format!("{}/{}#{s:x}", app.name, algo.name);
                    let mut solved = algo.graph.clone();
                    GaussNewton::default()
                        .optimize(&mut solved)
                        .map_err(|e| format!("reference solve of {name}: {e}"))?;
                    pool.push(Instance {
                        reference: values_digest(solved.values()),
                        topology: algo.graph.linearize().structure_fingerprint(),
                        graph: algo.graph,
                        name,
                    });
                }
            }
        }
        let mut me = Self {
            seeds,
            pool,
            solver: GaussNewton::default(),
            cache: PlanCache::new(),
            frames: 0,
            next: 0,
            build_us,
            trace: Trace::default(),
        };
        let mut warm = Run::default();
        for i in 0..me.pool.len() {
            me.solve(i, &mut warm);
        }
        match warm.failures.first() {
            Some(f) => Err(format!("warm-up: {f}")),
            None => Ok(me),
        }
    }

    /// Digests of every pool instance's initial estimate, in pool order.
    pub fn input_digests(&self) -> Vec<u64> {
        self.pool
            .iter()
            .map(|i| values_digest(i.graph.values()))
            .collect()
    }

    /// Runs one solve of pool instance `i`; returns its wall time (µs) and
    /// iteration count, checking the outcome.
    fn solve(&mut self, i: usize, run: &mut Run) -> (f64, usize) {
        let inst = &self.pool[i];
        let mut g = inst.graph.clone();
        let t = Instant::now();
        let res = self.solver.optimize_with_cache(&mut g, &mut self.cache);
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.frames += 1;
        match res {
            Ok(r) if r.final_error > r.initial_error => run.fail(format!(
                "{}: final error {} above initial {}",
                inst.name, r.final_error, r.initial_error
            )),
            Ok(_) if values_digest(g.values()) != inst.reference => run.fail(format!(
                "{}: estimate differs from the plain optimize path",
                inst.name
            )),
            Ok(r) => return (us, r.iterations),
            Err(e) => run.fail(format!("{}: {e}", inst.name)),
        }
        (us, 0)
    }

    /// Solves pool instances round-robin for `seconds`.
    pub fn measure(&mut self, seconds: f64, traced: bool, run: &mut Run) -> Window {
        let mut window = Window::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let i = self.next % self.pool.len();
            self.next += 1;
            let (us, iters) = self.solve(i, run);
            window.record(us / 1e3, start.elapsed().as_secs_f64());
            if traced && iters > 0 {
                self.decompose(i, us, iters);
            }
        }
        run.attempted += window.latencies_ms.len() as u64;
        window
    }

    /// Times one iteration's layer calls at instance `i`'s initial
    /// estimate: linearize, arena elimination, one line-search trial
    /// (retract and error evaluation). What `iters` of these leave
    /// unexplained of the frame time is the optimizer loop's own time.
    fn decompose(&mut self, i: usize, frame_us: f64, iters: usize) {
        let tr = &mut self.trace;
        let g = &self.pool[i].graph;
        let par = Parallelism::default();
        let sys = tr.sys.get_or_insert_with(|| LinearSystem {
            factors: Vec::new(),
            var_dims: Vec::new(),
        });
        let fp = g.structure_fingerprint();
        if !tr.plans.contains_key(&fp) {
            g.linearize_into(&par, sys);
            let t = Instant::now();
            let Ok(plan) = SolvePlan::for_system(sys, natural_ordering(g).as_slice()) else {
                return;
            };
            tr.plan_build_us.push(t.elapsed().as_secs_f64() * 1e6);
            let ws = plan.workspace();
            tr.plans.insert(fp, (plan, ws));
        }
        let (plan, ws) = tr.plans.get_mut(&fp).expect("plan inserted above");
        // Two passes; the second, with the arena and the system as warm as
        // the optimizer's own later iterations keep them, is recorded.
        let (mut lin, mut elim, mut ret, mut err) = (0.0, 0.0, 0.0, 0.0);
        for _ in 0..2 {
            let t = Instant::now();
            g.linearize_into(&par, sys);
            lin = t.elapsed().as_secs_f64() * 1e6;
            let t = Instant::now();
            let Ok(delta) = plan.solve_in_with(sys, ws, &par) else {
                return;
            };
            elim = t.elapsed().as_secs_f64() * 1e6;
            let t = Instant::now();
            let candidate = g.values().retract_all(delta);
            ret = t.elapsed().as_secs_f64() * 1e6;
            let t = Instant::now();
            std::hint::black_box(g.total_error_with(&candidate));
            err = t.elapsed().as_secs_f64() * 1e6;
        }

        tr.linearize_us.push(lin);
        tr.elim_us.push(elim);
        tr.retract_us.push(ret);
        tr.error_eval_us.push(err);
        tr.flops += plan.estimated_flops() as f64;
        tr.iters.push(iters as f64);
        tr.self_us
            .push(frame_us - iters as f64 * (lin + elim + err + ret));
    }

    /// Post-run checks and metrics: the plan-cache identities, the Tbl. 5
    /// mission success share over the pool's seeds (outside the timed
    /// loop), and the per-layer metrics when traced.
    pub fn conclude(&mut self, traced: bool, run: &mut Run) {
        let (hits, misses) = (self.cache.hits(), self.cache.misses());
        let topologies: HashSet<u64> = self.pool.iter().map(|i| i.topology).collect();
        run.identity(hits + misses == self.frames, || {
            format!(
                "plan cache hits {hits} + misses {misses} != frames {}",
                self.frames
            )
        });
        run.identity(misses == topologies.len(), || {
            format!(
                "plan cache misses {misses} != distinct topologies {}",
                topologies.len()
            )
        });

        let mut missions = 0usize;
        let mut succeeded = 0usize;
        let mut plans = PlanCache::new();
        for &s in &self.seeds {
            for app in all_apps(s) {
                missions += 1;
                if run_mission_with(&app, Pipeline::Software, &mut plans).success {
                    succeeded += 1;
                }
            }
        }
        run.e2e.push(Metric::host(
            "mission_success_ratio",
            ratio(succeeded as f64, missions as f64),
            "ratio",
            missions,
        ));

        if traced {
            let tr = &self.trace;
            let n = tr.elim_us.len();
            let elim_total: f64 = tr.elim_us.iter().sum();
            run.layers.extend([
                Metric::host(
                    "apps.build_us",
                    mean(&self.build_us),
                    "us",
                    self.build_us.len(),
                ),
                Metric::host("graph.linearize_us", mean(&tr.linearize_us), "us", n),
                Metric::host("graph.error_eval_us", mean(&tr.error_eval_us), "us", n),
                Metric::host("graph.retract_us", mean(&tr.retract_us), "us", n),
                Metric::host("solver.gn.iters", mean(&tr.iters), "count", n),
                Metric::host("solver.elim_us", mean(&tr.elim_us), "us", n),
                Metric::host(
                    "solver.elim.gflops",
                    ratio(tr.flops, elim_total * 1e3),
                    "GFLOP/s",
                    n,
                ),
                Metric::host("solver.gn.self_us", mean(&tr.self_us), "us", n),
                Metric::host(
                    "solver.plan_build_us",
                    mean(&tr.plan_build_us),
                    "us",
                    tr.plan_build_us.len(),
                ),
                Metric::host(
                    "solver.plan_cache.hit_ratio",
                    ratio(hits as f64, (hits + misses) as f64),
                    "ratio",
                    hits + misses,
                ),
            ]);
        }
    }
}
