//! Property tests for the arena-backed numeric path (ISSUE: arena-backed
//! numeric execution): on graphs drawn from every generator family, the
//! workspace-arena elimination/back-substitution must match the
//! allocating reference path, and the blocked matmul micro-kernel must
//! match a naive triple loop, both within 1e-12 (in practice the paths
//! are engineered to be bitwise identical).

use orianna_graph::natural_ordering;
use orianna_math::{Mat, Parallelism};
use orianna_solver::{eliminate, SolvePlan};
use orianna_verify::{generate, Family, GenConfig};
use proptest::prelude::*;

fn family_of(idx: usize) -> Family {
    Family::ALL[idx % Family::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arena `solve_in` agrees with the reference eliminate +
    /// back-substitute pipeline on every generator family.
    #[test]
    fn arena_solve_matches_reference(
        fam in 0usize..4,
        vars in 3usize..10,
        dstep in 0usize..5,
        seed in 0u64..512,
    ) {
        let g = generate(&GenConfig::new(family_of(fam), vars, dstep as f64 * 0.25, seed));
        let sys = g.linearize();
        let ordering = natural_ordering(&g);
        let (bn, ref_stats) = eliminate(&sys, &ordering).expect("reference eliminates");
        let delta_ref = bn.back_substitute().expect("reference back-substitutes");

        let plan = SolvePlan::for_system(&sys, ordering.as_slice()).expect("plan builds");
        let mut ws = plan.workspace();
        let delta = plan.solve_in(&sys, &mut ws).expect("arena solves");

        prop_assert_eq!(delta.len(), delta_ref.len());
        for i in 0..delta.len() {
            prop_assert!(
                (delta[i] - delta_ref[i]).abs() <= 1e-12,
                "delta[{}]: {} vs {}", i, delta[i], delta_ref[i]
            );
        }
        prop_assert_eq!(ws.stats().len(), ref_stats.steps.len());
        for (a, b) in ws.stats().iter().zip(&ref_stats.steps) {
            prop_assert_eq!(a.var, b.var);
            prop_assert_eq!(a.rows, b.rows);
            prop_assert_eq!(a.cols, b.cols);
            prop_assert!((a.density - b.density).abs() <= 1e-12);
        }
    }

    /// Arena `execute_in` reproduces the reference Bayes net: every
    /// conditional `(R, S…, d)` agrees without sign normalization (the
    /// two paths run the same Householder schedule).
    #[test]
    fn arena_conditionals_match_reference(
        fam in 0usize..4,
        vars in 3usize..9,
        dstep in 0usize..5,
        seed in 512u64..1024,
    ) {
        let g = generate(&GenConfig::new(family_of(fam), vars, dstep as f64 * 0.25, seed));
        let sys = g.linearize();
        let ordering = natural_ordering(&g);
        let (bn_ref, _) = eliminate(&sys, &ordering).expect("reference eliminates");

        let plan = SolvePlan::for_system(&sys, ordering.as_slice()).expect("plan builds");
        let mut ws = plan.workspace();
        let (bn, _) = plan.execute_in(&sys, &mut ws).expect("arena eliminates");

        prop_assert_eq!(bn.conditionals.len(), bn_ref.conditionals.len());
        for (c, r) in bn.conditionals.iter().zip(&bn_ref.conditionals) {
            prop_assert_eq!(c.var, r.var);
            prop_assert!((&c.r - &r.r).max_abs() <= 1e-12);
            prop_assert_eq!(c.parents.len(), r.parents.len());
            for ((pv, ps), (qv, qs)) in c.parents.iter().zip(&r.parents) {
                prop_assert_eq!(pv, qv);
                prop_assert!((ps - qs).max_abs() <= 1e-12);
            }
            for d in 0..c.rhs.len() {
                prop_assert!((c.rhs[d] - r.rhs[d]).abs() <= 1e-12);
            }
        }
    }

    /// One workspace driven through every entry point in turn —
    /// `execute_in`, then `solve_in`, then `solve_in_with` — returns the
    /// same delta bit for bit as a fresh workspace: mixing entry points
    /// never contaminates results.
    #[test]
    fn workspace_reuse_across_entry_points_is_stable(
        fam in 0usize..4,
        vars in 3usize..10,
        seed in 0u64..256,
    ) {
        let g = generate(&GenConfig::new(family_of(fam), vars, 0.5, seed));
        let sys = g.linearize();
        let ordering = natural_ordering(&g);
        let plan = SolvePlan::for_system(&sys, ordering.as_slice()).expect("plan builds");
        let delta_ref = plan.solve_in(&sys, &mut plan.workspace()).expect("fresh solve").clone();
        let bits = |d: &orianna_math::Vec64| d.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut ws = plan.workspace();
        let (bn, _) = plan.execute_in(&sys, &mut ws).expect("execute_in");
        prop_assert_eq!(bits(&bn.back_substitute().expect("back-substitutes")), bits(&delta_ref));
        let delta = plan.solve_in(&sys, &mut ws).expect("solve_in").clone();
        prop_assert_eq!(bits(&delta), bits(&delta_ref));
        let delta = plan
            .solve_in_with(&sys, &mut ws, &Parallelism::with_threads(4))
            .expect("solve_in_with");
        prop_assert_eq!(bits(delta), bits(&delta_ref));
    }

    /// The blocked column-panel matmul agrees with a naive triple loop on
    /// Gram products of Jacobian blocks from generated graphs.
    #[test]
    fn blocked_matmul_matches_naive_on_jacobians(
        fam in 0usize..4,
        vars in 3usize..9,
        seed in 0u64..512,
    ) {
        let g = generate(&GenConfig::new(family_of(fam), vars, 0.5, seed));
        let sys = g.linearize();
        for f in &sys.factors {
            for blk in &f.blocks {
                let at = blk.transpose();
                let blocked = at.mul_mat(blk);
                let naive = naive_mul(&at, blk);
                prop_assert!(
                    (&blocked - &naive).max_abs() <= 1e-12,
                    "gram product diverged: {:?}", blk.shape()
                );
            }
            // Cross products between adjacent blocks exercise rectangular
            // shapes with every chunk-width remainder.
            for w in f.blocks.windows(2) {
                let at = w[0].transpose();
                let blocked = at.mul_mat(&w[1]);
                let naive = naive_mul(&at, &w[1]);
                prop_assert!((&blocked - &naive).max_abs() <= 1e-12);
            }
        }
    }
}

fn naive_mul(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.cols(), b.rows());
    let mut out = Mat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc += a[(i, k)] * b[(k, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}
