//! `accel_gen`: the compile-to-hardware flow.
//!
//! A closed loop on one thread. Each operation generates one
//! application's accelerator the way `orianna_bench::eval::evaluate_app`
//! does, without the CPU/GPU model baselines: compile the three
//! algorithms, build the multi-frame workload, decode it, run the greedy
//! generator under the ZC706 budget, simulate the winner out-of-order and
//! in-order, and run a seeded search co-design over the three
//! single-stream contexts.

use crate::report::{mean, ratio, Metric, Run};
use crate::{derive_seed, Window};
use orianna_apps::{all_apps, RobotApp};
use orianna_bench::eval::{repeat_program, FRAMES};
use orianna_compiler::{compile, execute, lower_factor, ModFg, Program, UnitClass};
use orianna_graph::natural_ordering;
use orianna_hw::{
    generate_with, search_default, simulate_decoded_with, Combine, DecodedWorkload, DseContext,
    IssuePolicy, Objective, Resources, SearchSpace, SimScratch, Stream, Workload, WorkloadSet,
};
use orianna_math::Parallelism;
use orianna_server::values_digest;
use orianna_solver::SolvePlan;
use std::time::Instant;

/// Application seeds in the pool (each adds the four applications).
const POOL_SEEDS: usize = 2;
/// Per-class unit maximum of the co-design search space.
const SEARCH_MAX_UNITS: usize = 4;
/// Tolerance of the compiled-vs-plan Δ check, scaled by `1 + ‖Δ‖∞`.
const DELTA_TOL: f64 = 1e-9;

/// Stage timings and counters of one generated accelerator.
#[derive(Default)]
struct OpTrace {
    compile_us: f64,
    instrs: f64,
    decode_us: f64,
    gen_us: f64,
    search_us: f64,
    gen_calls: f64,
    gen_hits: f64,
    gen_misses: f64,
    gen_bound_skips: f64,
    search_sims: f64,
    search_proposed: f64,
    search_gated: f64,
    ipc: f64,
    busy: [f64; UnitClass::COUNT],
    stall: [f64; UnitClass::COUNT],
}

/// The `accel_gen` workload state.
pub struct AccelGen {
    seed: u64,
    pool: Vec<RobotApp>,
    budget: Resources,
    space: SearchSpace,
    next: usize,
    ops: Vec<OpTrace>,
    /// Traced extras: the compiler passes re-run on their own, and a fresh
    /// scoreboard walk of each winner.
    lower_us: Vec<f64>,
    modfg_us: Vec<f64>,
    sim_us: Vec<f64>,
    sim_minstr_per_s: Vec<f64>,
    scratch: SimScratch,
    /// Per-frame OoO cycles and energy (µJ) of the seed's own four apps.
    designs: Vec<(u64, f64)>,
}

impl AccelGen {
    /// Builds the application pool for `seed` and warms up by generating
    /// the accelerator of each of the seed's own four applications, which
    /// also records their simulated per-frame figures.
    ///
    /// # Errors
    /// A description of the first failed warm-up generation.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let pool: Vec<RobotApp> = (0..POOL_SEEDS as u64)
            .flat_map(|i| {
                all_apps(if i == 0 {
                    seed
                } else {
                    derive_seed(seed, 0xACC, i)
                })
            })
            .collect();
        let mut me = Self {
            seed,
            pool,
            budget: Resources::zc706(),
            space: SearchSpace::uniform(SEARCH_MAX_UNITS),
            next: 0,
            ops: Vec::new(),
            lower_us: Vec::new(),
            modfg_us: Vec::new(),
            sim_us: Vec::new(),
            sim_minstr_per_s: Vec::new(),
            scratch: SimScratch::default(),
            designs: Vec::new(),
        };
        let mut warm = Run::default();
        for i in 0..4.min(me.pool.len()) {
            let (_, cycles, energy_uj) = me.generate(i, false, &mut warm);
            me.designs.push((cycles, energy_uj));
        }
        me.ops.clear();
        match warm.failures.first() {
            Some(f) => Err(format!("warm-up: {f}")),
            None => Ok(me),
        }
    }

    /// Digests of every pool algorithm's initial estimate, in pool order.
    pub fn input_digests(&self) -> Vec<u64> {
        self.pool
            .iter()
            .flat_map(|app| app.algorithms.iter())
            .map(|a| values_digest(a.graph.values()))
            .collect()
    }

    /// Generates the accelerator of pool application `i`, checking the
    /// result; returns the operation's wall time (ms, traced extras
    /// excluded) and the winner's per-frame OoO cycles and energy (µJ).
    fn generate(&mut self, i: usize, traced: bool, run: &mut Run) -> (f64, u64, f64) {
        let app = &self.pool[i];
        let mut op = OpTrace::default();
        let t0 = Instant::now();
        let mut programs: Vec<Program> = Vec::with_capacity(app.algorithms.len());
        for a in &app.algorithms {
            match compile(&a.graph, &natural_ordering(&a.graph)) {
                Ok(p) => programs.push(p),
                Err(e) => {
                    run.fail(format!("{}/{}: compile: {e}", app.name, a.name));
                    return (t0.elapsed().as_secs_f64() * 1e3, 0, 0.0);
                }
            }
        }
        let t1 = Instant::now();
        let frame_programs: Vec<Program> = programs
            .iter()
            .zip(&app.algorithms)
            .map(|(p, a)| repeat_program(p, a.iterations))
            .collect();
        let workload = Workload {
            streams: frame_programs
                .iter()
                .zip(&app.algorithms)
                .flat_map(|(p, a)| {
                    (0..a.frames_in_flight).map(move |_| Stream {
                        name: a.name,
                        program: p,
                    })
                })
                .collect(),
        };
        let t2 = Instant::now();
        let decoded = DecodedWorkload::decode(&workload);
        let t3 = Instant::now();
        let mut ctx = DseContext::with_decoded(decoded, Parallelism::default());
        let generated = generate_with(&mut ctx, &self.budget, Objective::Latency);
        let ooo = ctx.simulate(&generated.config, IssuePolicy::OutOfOrder);
        let io = ctx.simulate(&generated.config, IssuePolicy::InOrder);
        op.gen_calls = ctx.sim_calls() as f64;
        op.gen_hits = ctx.cache_hits() as f64;
        op.gen_misses = ctx.cache_misses() as f64;
        op.gen_bound_skips = ctx.bound_skips() as f64;
        let t4 = Instant::now();
        let mut set = WorkloadSet::new(Objective::Latency, Combine::Max);
        for (p, a) in programs.iter().zip(&app.algorithms) {
            set.push(
                a.name,
                DseContext::with_parallelism(&Workload::single(a.name, p), Parallelism::default()),
            );
        }
        let searched = search_default(
            &mut set,
            &self.space,
            &self.budget,
            derive_seed(self.seed, 0x5EA, i as u64),
        );
        let t5 = Instant::now();

        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        op.compile_us = secs(t0, t1);
        op.decode_us = secs(t2, t3);
        op.gen_us = secs(t3, t4);
        op.search_us = secs(t4, t5);
        op.instrs = programs.iter().map(|p| p.instrs.len() as f64).sum();
        op.search_sims = set.simulations() as f64;
        op.search_proposed = searched.stats.proposed as f64;
        op.search_gated = searched.stats.bound_gated as f64;
        op.ipc = ratio(ooo.instructions as f64, ooo.cycles as f64);
        for c in UnitClass::ALL {
            let units = generated.config.count(c) as f64;
            let busy = *ooo.unit_busy.get(&c).unwrap_or(&0) as f64;
            let stall = *ooo.contention.get(&c).unwrap_or(&0) as f64;
            op.busy[c.index()] = ratio(busy, ooo.cycles as f64 * units);
            op.stall[c.index()] = ratio(stall, ooo.cycles as f64);
        }

        let name = app.name;
        if ooo.cycles > io.cycles {
            run.fail(format!(
                "{name}: out-of-order {} cycles above in-order {}",
                ooo.cycles, io.cycles
            ));
        }
        if !generated.config.resources().fits(&self.budget) {
            run.fail(format!("{name}: generated design exceeds the ZC706 budget"));
        }
        match &searched.best {
            Some(b) if b.config.resources().fits(&self.budget) => {}
            Some(_) => run.fail(format!("{name}: searched design exceeds the budget")),
            None => run.fail(format!("{name}: search found no design within budget")),
        }
        let contexts = std::iter::once(&ctx).chain((0..set.len()).map(|k| set.context(k)));
        for (k, c) in contexts.enumerate() {
            run.identity(c.sim_calls() == c.cache_hits() + c.cache_misses(), || {
                format!(
                    "{name} context {k}: sim_calls {} != hits {} + misses {}",
                    c.sim_calls(),
                    c.cache_hits(),
                    c.cache_misses()
                )
            });
            run.identity(c.memo_len() == c.cache_misses(), || {
                format!(
                    "{name} context {k}: memo_len {} != misses {}",
                    c.memo_len(),
                    c.cache_misses()
                )
            });
        }

        if traced {
            let (mut lower, mut modfg) = (0.0, 0.0);
            for a in &app.algorithms {
                for f in a.graph.factors() {
                    let t = Instant::now();
                    let Ok(lowered) = lower_factor(&f.kind(), f.keys()) else {
                        continue;
                    };
                    let t_mid = Instant::now();
                    let dfg = ModFg::from_exprs(&lowered.roots, lowered.space_dim);
                    let t_end = Instant::now();
                    std::hint::black_box(dfg.is_ok());
                    lower += secs(t, t_mid);
                    modfg += secs(t_mid, t_end);
                }
            }
            self.lower_us.push(lower);
            self.modfg_us.push(modfg);
            let t = Instant::now();
            let fresh = simulate_decoded_with(
                ctx.decoded(),
                &generated.config,
                IssuePolicy::OutOfOrder,
                &mut self.scratch,
            );
            let us = t.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(fresh.cycles);
            self.sim_us.push(us);
            self.sim_minstr_per_s
                .push(ratio(ctx.decoded().num_instructions() as f64, us));
        }
        self.ops.push(op);
        (
            secs(t0, t5) / 1e3,
            ooo.cycles / FRAMES as u64,
            ooo.energy_mj * 1e3 / FRAMES as f64,
        )
    }

    /// Generates accelerators round-robin over the pool for `seconds`.
    pub fn measure(&mut self, seconds: f64, traced: bool, run: &mut Run) -> Window {
        let mut window = Window::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let i = self.next % self.pool.len();
            self.next += 1;
            let (ms, _, _) = self.generate(i, traced, run);
            window.record(ms, start.elapsed().as_secs_f64());
        }
        run.attempted += window.latencies_ms.len() as u64;
        window
    }

    /// Post-run checks and metrics: the compiled-vs-`SolvePlan` Δ check on
    /// every pool instance (outside the timed loop), the simulated
    /// per-frame totals of the seed's four designs, and the per-layer
    /// metrics when traced.
    pub fn conclude(&mut self, traced: bool, run: &mut Run) {
        for app in &self.pool {
            for a in &app.algorithms {
                if let Err(e) = check_delta(a) {
                    run.fail(format!("{}/{}: {e}", app.name, a.name));
                }
            }
        }
        let cycles: u64 = self.designs.iter().map(|d| d.0).sum();
        let energy: f64 = self.designs.iter().map(|d| d.1).sum();
        run.e2e.extend([
            Metric::simulated("sim_cycles", cycles as f64, "cycles", self.designs.len()),
            Metric::simulated("sim_energy_uj", energy, "uJ", self.designs.len()),
        ]);

        if traced {
            let n = self.ops.len();
            let m = |f: fn(&OpTrace) -> f64| mean(&self.ops.iter().map(f).collect::<Vec<_>>());
            let compile = m(|o| o.compile_us);
            let lower = mean(&self.lower_us);
            let modfg = mean(&self.modfg_us);
            let sum = |f: fn(&OpTrace) -> f64| self.ops.iter().map(f).sum::<f64>();
            run.layers.extend([
                Metric::host("compiler.compile_us", compile, "us", n),
                Metric::host("compiler.lower_us", lower, "us", self.lower_us.len()),
                Metric::host("compiler.modfg_us", modfg, "us", self.modfg_us.len()),
                Metric::host("compiler.codegen_us", compile - lower - modfg, "us", n),
                Metric::host("compiler.instrs", m(|o| o.instrs), "count", n),
                Metric::host("hw.decode_us", m(|o| o.decode_us), "us", n),
                Metric::host("hw.gen_us", m(|o| o.gen_us), "us", n),
                Metric::host("hw.sim_us", mean(&self.sim_us), "us", self.sim_us.len()),
                Metric::host(
                    "hw.sim.minstr_per_s",
                    mean(&self.sim_minstr_per_s),
                    "Minstr/s",
                    self.sim_minstr_per_s.len(),
                ),
                Metric::host("hw.gen.sims", m(|o| o.gen_misses), "count", n),
                Metric::host(
                    "hw.gen.memo_hit_ratio",
                    ratio(sum(|o| o.gen_hits), sum(|o| o.gen_calls)),
                    "ratio",
                    n,
                ),
                Metric::host(
                    "hw.gen.bound_skip_ratio",
                    ratio(
                        sum(|o| o.gen_bound_skips),
                        sum(|o| o.gen_bound_skips + o.gen_calls),
                    ),
                    "ratio",
                    n,
                ),
                Metric::host("hw.search_us", m(|o| o.search_us), "us", n),
                Metric::host("hw.search.sims", m(|o| o.search_sims), "count", n),
                Metric::host(
                    "hw.search.gated_ratio",
                    ratio(sum(|o| o.search_gated), sum(|o| o.search_proposed)),
                    "ratio",
                    n,
                ),
                Metric::simulated("hw.sim.ipc", m(|o| o.ipc), "instr/cycle", n),
            ]);
            for c in UnitClass::ALL {
                let k = c.index();
                let label = class_label(c);
                let busy = mean(&self.ops.iter().map(|o| o.busy[k]).collect::<Vec<_>>());
                let stall = mean(&self.ops.iter().map(|o| o.stall[k]).collect::<Vec<_>>());
                run.layers.extend([
                    Metric::simulated(format!("hw.sim.busy.{label}"), busy, "ratio", n),
                    Metric::simulated(format!("hw.sim.stall.{label}"), stall, "ratio", n),
                ]);
            }
        }
    }
}

/// Metric-name label of a unit class.
fn class_label(c: UnitClass) -> &'static str {
    match c {
        UnitClass::MatMul => "matmul",
        UnitClass::Vector => "vector",
        UnitClass::Special => "special",
        UnitClass::Memory => "memory",
        UnitClass::Qr => "qr",
        UnitClass::BackSub => "backsub",
    }
}

/// The compiled program's functional Δ against the arena `SolvePlan`
/// solve of the same linearization.
fn check_delta(a: &orianna_apps::Algorithm) -> Result<(), String> {
    let ordering = natural_ordering(&a.graph);
    let prog = compile(&a.graph, &ordering).map_err(|e| format!("compile: {e}"))?;
    let compiled = execute(&prog, a.graph.values()).map_err(|e| format!("execute: {e}"))?;
    let sys = a.graph.linearize();
    let plan =
        SolvePlan::for_system(&sys, ordering.as_slice()).map_err(|e| format!("plan: {e}"))?;
    let mut ws = plan.workspace();
    let delta = plan
        .solve_in(&sys, &mut ws)
        .map_err(|e| format!("solve: {e}"))?;
    if compiled.delta.len() != delta.len() {
        return Err(format!(
            "Δ length {} vs plan {}",
            compiled.delta.len(),
            delta.len()
        ));
    }
    let scale = 1.0 + delta.as_slice().iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let diff = compiled
        .delta
        .as_slice()
        .iter()
        .zip(delta.as_slice())
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
    if diff > DELTA_TOL * scale {
        return Err(format!(
            "compiled Δ differs from the plan solve by {diff:e}"
        ));
    }
    Ok(())
}
