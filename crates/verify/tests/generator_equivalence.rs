//! Differential test of the lazy greedy generator against an eager
//! reference round.
//!
//! `generate_with` scores each round's surviving candidates one at a time
//! in contention order and stops at the first it accepts. The reference
//! below scores the whole round through `DseContext::simulate_many` and
//! then accepts the first improving candidate in the same order. Both
//! must choose the same configuration with the same history and report
//! bits, on the paper applications' frame workloads and on generated
//! workloads from every family, under both objectives, the ZC706 budget
//! and the five Fig. 19/20 DSP budgets. The lazy walk may only ever
//! simulate fewer designs, its memo counters must obey their accounting
//! identities, and they must not depend on the thread budget.

mod common;

use common::{app_frames, report_diff};
use orianna_compiler::{compile, UnitClass};
use orianna_graph::natural_ordering;
use orianna_hw::{
    generate_with, manual_uniform, DseContext, GeneratorResult, HwConfig, IssuePolicy, Objective,
    Resources, SimReport, Workload,
};
use orianna_math::Parallelism;
use orianna_verify::{generate, Family, GenConfig};
use proptest::prelude::*;

fn score(report: &SimReport, objective: Objective) -> f64 {
    match objective {
        Objective::Latency => report.cycles as f64,
        Objective::Energy => report.energy_mj,
    }
}

/// Eager reference walk: every round bound-checks its candidates, scores
/// all survivors at once, then accepts the first improving one in
/// contention order. Returns the result and the round's bound skips.
fn generate_eager(
    ctx: &mut DseContext,
    budget: &Resources,
    objective: Objective,
) -> (GeneratorResult, usize) {
    let mut bound_skips = 0;
    let mut config = HwConfig::minimal();
    let mut report = ctx.simulate(&config, IssuePolicy::OutOfOrder);
    let mut history = Vec::new();
    loop {
        let mut classes: Vec<(UnitClass, u64)> = UnitClass::ALL
            .iter()
            .map(|c| (*c, *report.contention.get(c).unwrap_or(&0)))
            .collect();
        classes.sort_by_key(|(_, w)| std::cmp::Reverse(*w));
        let threshold = score(&report, objective) * 0.995;
        let mut round: Vec<(UnitClass, HwConfig)> = Vec::new();
        for (class, pressure) in classes {
            if pressure == 0 {
                continue;
            }
            let candidate = config.plus_one(class);
            if !candidate.resources().fits(budget) {
                continue;
            }
            let lb = ctx.decoded().lower_bound_cycles(&candidate);
            let lb_score = match objective {
                Objective::Latency => lb as f64,
                Objective::Energy => ctx.decoded().energy_mj_at(&candidate, lb),
            };
            if lb_score >= threshold {
                bound_skips += 1;
                continue;
            }
            round.push((class, candidate));
        }
        let cands: Vec<HwConfig> = round.iter().map(|(_, c)| *c).collect();
        let cand_reports = ctx.simulate_many(&cands);
        let mut improved = false;
        for ((class, candidate), cand_report) in round.into_iter().zip(cand_reports) {
            if score(&cand_report, objective) < threshold {
                history.push((class, cand_report.cycles));
                config = candidate;
                report = cand_report;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    let uniform = manual_uniform(budget);
    if uniform.resources().fits(budget) {
        let uniform_report = ctx.simulate(&uniform, IssuePolicy::OutOfOrder);
        if score(&uniform_report, objective) < score(&report, objective) {
            config = uniform;
            report = uniform_report;
        }
    }
    (
        GeneratorResult {
            config,
            report,
            history,
        },
        bound_skips,
    )
}

/// The ZC706 budget, then the Fig. 19/20 DSP sweep (the ZC706 LUT/FF/BRAM
/// limits at 150–900 DSP; the last repeats ZC706, so it runs fully
/// memoized).
fn budgets() -> Vec<Resources> {
    let mut out = vec![Resources::zc706()];
    out.extend([150u64, 250, 400, 600, 900].map(|dsp| Resources {
        dsp,
        ..Resources::zc706()
    }));
    out
}

/// Memo counters of a context: `(sim_calls, hits, misses, memo_len,
/// bound_skips)`.
fn counters(ctx: &DseContext) -> (usize, usize, usize, usize, usize) {
    (
        ctx.sim_calls(),
        ctx.cache_hits(),
        ctx.cache_misses(),
        ctx.memo_len(),
        ctx.bound_skips(),
    )
}

fn check_identities(ctx: &DseContext, label: &str) -> Result<(), String> {
    if ctx.sim_calls() != ctx.cache_hits() + ctx.cache_misses() {
        return Err(format!(
            "{label}: sim_calls {} != hits {} + misses {}",
            ctx.sim_calls(),
            ctx.cache_hits(),
            ctx.cache_misses()
        ));
    }
    if ctx.memo_len() != ctx.cache_misses() {
        return Err(format!(
            "{label}: memo_len {} != misses {}",
            ctx.memo_len(),
            ctx.cache_misses()
        ));
    }
    Ok(())
}

/// Runs every (budget, objective) pair through one shared lazy context
/// and one shared eager context, as the Fig. 19/20 sweep shares its
/// context, and checks results and counters after each run; then replays
/// the lazy sequence at explicit thread budgets.
fn compare(workload: &Workload<'_>) -> Result<(), String> {
    // Workspace-default parallelism: a CI leg's `ORIANNA_THREADS` drives it.
    let mut lazy = DseContext::new(workload);
    let mut eager = DseContext::new(workload);
    let mut eager_skips = 0;
    let mut runs = Vec::new();
    for budget in budgets() {
        for objective in [Objective::Latency, Objective::Energy] {
            let label = format!("dsp {} {objective:?}", budget.dsp);
            let got = generate_with(&mut lazy, &budget, objective);
            let (want, skips) = generate_eager(&mut eager, &budget, objective);
            eager_skips += skips;
            if got.config != want.config {
                return Err(format!(
                    "{label}: config {:?} vs eager {:?}",
                    got.config, want.config
                ));
            }
            if got.history != want.history {
                return Err(format!(
                    "{label}: history {:?} vs eager {:?}",
                    got.history, want.history
                ));
            }
            report_diff(&got.report, &want.report).map_err(|e| format!("{label}: {e}"))?;
            if lazy.cache_misses() > eager.cache_misses() {
                return Err(format!(
                    "{label}: lazy walk simulated {} designs, eager {}",
                    lazy.cache_misses(),
                    eager.cache_misses()
                ));
            }
            if lazy.bound_skips() != eager_skips {
                return Err(format!(
                    "{label}: {} bound skips vs eager {eager_skips}",
                    lazy.bound_skips()
                ));
            }
            check_identities(&lazy, &format!("{label} lazy"))?;
            check_identities(&eager, &format!("{label} eager"))?;
            runs.push((budget, objective, got, counters(&lazy)));
        }
    }
    for threads in [1, 2, 8] {
        let mut ctx = DseContext::with_parallelism(workload, Parallelism::with_threads(threads));
        for (budget, objective, want, want_counters) in &runs {
            let label = format!("{threads} threads, dsp {} {objective:?}", budget.dsp);
            let got = generate_with(&mut ctx, budget, *objective);
            if got.config != want.config || got.history != want.history {
                return Err(format!("{label}: design or history differs"));
            }
            report_diff(&got.report, &want.report).map_err(|e| format!("{label}: {e}"))?;
            if counters(&ctx) != *want_counters {
                return Err(format!(
                    "{label}: counters {:?} vs {:?}",
                    counters(&ctx),
                    want_counters
                ));
            }
        }
        if ctx.frontier() != lazy.frontier() {
            return Err(format!("{threads} threads: frontier differs"));
        }
    }
    Ok(())
}

#[test]
fn lazy_generator_matches_eager_on_app_frame_workloads() {
    for app in app_frames(1) {
        compare(&app.workload()).unwrap_or_else(|e| panic!("{}: {e}", app.name));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        orianna_verify::cases_per_family(8) as u32
    ))]

    #[test]
    fn lazy_generator_matches_eager_on_generated_workloads(
        fam in 0usize..4,
        vars in 3usize..9,
        dstep in 0usize..4,
        seed in 0u64..1024,
    ) {
        let family = Family::ALL[fam];
        let g = generate(&GenConfig::new(family, vars, dstep as f64 * 0.25, seed));
        let prog = compile(&g, &natural_ordering(&g)).expect("generated graph compiles");
        if let Err(e) = compare(&Workload::single("gen", &prog)) {
            prop_assert!(false, "{family:?} vars {vars} seed {seed}: {e}");
        }
    }
}
