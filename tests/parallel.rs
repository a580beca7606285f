//! Parallel-vs-serial equivalence for the linearize → solve → simulate
//! hot path.
//!
//! The guarantees under test (see DESIGN.md, "Parallel execution"):
//!
//! * parallel linearization is **bitwise identical** to serial, for every
//!   benchmark algorithm and every thread count;
//! * Gauss-Newton with parallel linearization reaches the serial optimum,
//!   is bitwise deterministic in the thread count, and reports the same
//!   structural errors;
//! * batched simulation returns exactly the reports of per-workload
//!   serial simulation, in input order.

use orianna::apps::all_apps;
use orianna::compiler::compile;
use orianna::graph::natural_ordering;
use orianna::hw::{simulate, simulate_batch, HwConfig, IssuePolicy, Workload};
use orianna::math::Parallelism;
use orianna::solver::{GaussNewton, GaussNewtonSettings, SolveError};

#[test]
fn parallel_linearization_is_bitwise_identical_on_all_apps() {
    for app in all_apps(2024) {
        for algo in &app.algorithms {
            let serial = algo.graph.linearize();
            for threads in [2, 4, 8] {
                let par = algo
                    .graph
                    .linearize_with(&Parallelism::with_threads(threads));
                assert_eq!(par.var_dims, serial.var_dims);
                assert_eq!(par.factors.len(), serial.factors.len());
                for (p, s) in par.factors.iter().zip(&serial.factors) {
                    assert_eq!(p.keys, s.keys, "{}/{}", app.name, algo.name);
                    assert_eq!(
                        p.rhs.as_slice(),
                        s.rhs.as_slice(),
                        "{}/{} rhs not bitwise identical",
                        app.name,
                        algo.name
                    );
                    for (pb, sb) in p.blocks.iter().zip(&s.blocks) {
                        assert_eq!(
                            pb.as_slice(),
                            sb.as_slice(),
                            "{}/{} jacobian not bitwise identical",
                            app.name,
                            algo.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn parallel_gauss_newton_is_threadcount_deterministic() {
    for app in all_apps(77) {
        for algo in &app.algorithms {
            let solved: Vec<_> = [2, 3, 8]
                .iter()
                .map(|&t| {
                    let mut g = algo.graph.clone();
                    GaussNewton::new(GaussNewtonSettings {
                        max_iterations: 15,
                        parallelism: Parallelism::with_threads(t),
                        ..Default::default()
                    })
                    .optimize(&mut g)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, algo.name));
                    g
                })
                .collect();
            for g in &solved[1..] {
                assert_eq!(
                    g.values(),
                    solved[0].values(),
                    "{}/{}: thread count changed the result",
                    app.name,
                    algo.name
                );
            }
        }
    }
}

#[test]
fn parallel_gauss_newton_detects_unconstrained_variables() {
    use orianna::graph::{FactorGraph, PriorFactor};
    use orianna::lie::Pose2;
    let mut g = FactorGraph::new();
    let a = g.add_pose2(Pose2::new(0.1, 0.2, 0.3));
    let _b = g.add_pose2(Pose2::identity()); // no factor touches b
    g.add_factor(PriorFactor::pose2(a, Pose2::identity(), 0.1));
    let err = GaussNewton::new(GaussNewtonSettings {
        parallelism: Parallelism::with_threads(4),
        ..Default::default()
    })
    .optimize(&mut g)
    .unwrap_err();
    assert!(matches!(err, SolveError::UnconstrainedVariable(v) if v.0 == 1));
}

#[test]
fn parallel_gauss_newton_reaches_the_serial_optimum() {
    for app in all_apps(909) {
        for algo in &app.algorithms {
            let mut serial = algo.graph.clone();
            let mut parallel = algo.graph.clone();
            let rs = GaussNewton::new(GaussNewtonSettings {
                max_iterations: 15,
                parallelism: Parallelism::serial(),
                ..Default::default()
            })
            .optimize(&mut serial)
            .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, algo.name));
            let rp = GaussNewton::new(GaussNewtonSettings {
                max_iterations: 15,
                parallelism: Parallelism::with_threads(4),
                ..Default::default()
            })
            .optimize(&mut parallel)
            .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, algo.name));
            let denom = rs.final_error.max(1e-9);
            assert!(
                (rs.final_error - rp.final_error).abs() / denom < 1e-6,
                "{}/{}: serial {} vs parallel {}",
                app.name,
                algo.name,
                rs.final_error,
                rp.final_error
            );
        }
    }
}

#[test]
fn batched_simulation_equals_sequential_simulation() {
    let apps = all_apps(555);
    let programs: Vec<_> = apps
        .iter()
        .flat_map(|app| {
            app.algorithms
                .iter()
                .map(|a| compile(&a.graph, &natural_ordering(&a.graph)).unwrap())
        })
        .collect();
    let workloads: Vec<Workload<'_>> = programs
        .iter()
        .map(|p| Workload::single("stream", p))
        .collect();
    let cfg = HwConfig::minimal();
    let serial: Vec<_> = workloads
        .iter()
        .map(|w| simulate(w, &cfg, IssuePolicy::OutOfOrder))
        .collect();
    for threads in [2, 4, 8] {
        let batch = simulate_batch(
            &workloads,
            &cfg,
            IssuePolicy::OutOfOrder,
            &Parallelism::with_threads(threads),
        );
        assert_eq!(batch.len(), serial.len());
        for (b, s) in batch.iter().zip(&serial) {
            assert_eq!(b.cycles, s.cycles);
            assert_eq!(b.instructions, s.instructions);
            assert_eq!(b.unit_busy, s.unit_busy);
            assert_eq!(b.phase_work, s.phase_work);
        }
    }
}
