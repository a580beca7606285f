//! Heap-allocation checks for the per-candidate DSE paths.
//!
//! This file is its own integration-test binary on purpose: it installs a
//! counting `#[global_allocator]`, which must not be shared with other
//! tests. Counting is per thread (a thread-local switch), so the tests
//! below may run concurrently without seeing each other's allocations.
//!
//! The search ranks thousands of candidate configurations per run, so
//! building, keying and bounding one must not touch the heap, the
//! bound-guided proposer's allocations must not grow with the space, and
//! a warm scoreboard walk must allocate only its report maps — the same
//! count for a workload ten times larger.

use orianna_compiler::{compile, Program, UnitClass};
use orianna_graph::{natural_ordering, BetweenFactor, FactorGraph, PriorFactor};
use orianna_hw::{
    canon_key, simulate_decoded_with, BoundGuidedProposer, CanonKey, Combine, DecodedWorkload,
    DseContext, HwConfig, IssuePolicy, Objective, ParetoPoint, Proposer, ProposerCtx, Resources,
    SearchSpace, SimScratch, Stream, TrialLog, Workload, WorkloadSet,
};
use orianna_lie::Pose2;
use orianna_math::Parallelism;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::hint::black_box;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread while counting is on.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note_alloc() {
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the number of heap allocations
/// this thread made meanwhile.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).unwrap_or(0);
    (out, n)
}

fn chain_program(n: usize) -> Program {
    let mut g = FactorGraph::new();
    let ids: Vec<_> = (0..n)
        .map(|i| g.add_pose2(Pose2::new(0.0, i as f64, 0.1)))
        .collect();
    g.add_factor(PriorFactor::pose2(ids[0], Pose2::identity(), 0.1));
    for w in ids.windows(2) {
        g.add_factor(BetweenFactor::pose2(
            w[0],
            w[1],
            Pose2::new(0.0, 1.0, 0.0),
            0.2,
        ));
    }
    compile(&g, &natural_ordering(&g)).expect("chain compiles")
}

fn workload_set(programs: &[Program], objective: Objective, combine: Combine) -> WorkloadSet {
    let mut set = WorkloadSet::new(objective, combine);
    for (i, p) in programs.iter().enumerate() {
        set.push_weighted(
            format!("wl{i}"),
            DseContext::with_parallelism(&Workload::single("wl", p), Parallelism::serial()),
            1.0 + i as f64,
        );
    }
    set
}

#[test]
fn configuration_building_and_keying_allocate_nothing() {
    let pairs = [
        (UnitClass::MatMul, 3),
        (UnitClass::Qr, 2),
        (UnitClass::BackSub, 4),
    ];
    let (sum, n) = allocations(|| {
        let mut sum = 0u64;
        for k in 0..64 {
            let cfg = black_box(HwConfig::with_counts(&pairs));
            let grown = cfg.plus_one(UnitClass::ALL[k % UnitClass::COUNT]);
            let copy = grown;
            let r = grown.resources();
            let key = canon_key(&copy);
            sum += r.lut + r.dsp + key[0] + grown.total_units() as u64;
        }
        sum
    });
    black_box(sum);
    assert_eq!(
        n, 0,
        "building, keying and costing configurations allocated"
    );
}

#[test]
fn bounds_allocate_nothing() {
    let programs = [chain_program(4), chain_program(9), chain_program(14)];
    let decoded = DecodedWorkload::decode(&Workload::single("wl", &programs[1]));
    let configs = SearchSpace::uniform(3).enumerate();
    let (sum, n) = allocations(|| {
        configs
            .iter()
            .map(|c| decoded.lower_bound_cycles(c))
            .sum::<u64>()
    });
    black_box(sum);
    assert_eq!(n, 0, "lower_bound_cycles allocated");

    for objective in [Objective::Latency, Objective::Energy] {
        for combine in [Combine::Max, Combine::WeightedSum] {
            let set = workload_set(&programs, objective, combine);
            let (sum, n) = allocations(|| configs.iter().map(|c| set.bound_score(c)).sum::<f64>());
            black_box(sum);
            assert_eq!(n, 0, "bound_score allocated ({objective:?}, {combine:?})");
        }
    }
}

#[test]
fn bound_guided_allocations_do_not_grow_with_the_space() {
    let programs = [chain_program(5), chain_program(8)];
    let set = workload_set(&programs, Objective::Latency, Combine::Max);
    let bound = |c: &HwConfig| set.bound_score(c);
    let seen: HashSet<CanonKey> = HashSet::new();
    let frontiers: Vec<&[ParetoPoint]> = Vec::new();
    let log = TrialLog::default();
    let budget = Resources::zc706();
    let count = |space: &SearchSpace| {
        let ctx = ProposerCtx {
            space,
            budget: &budget,
            log: &log,
            frontiers: &frontiers,
            seen: &seen,
            bound: &bound,
            best_score: None,
        };
        let mut proposer = BoundGuidedProposer::new(3);
        let (out, n) = allocations(|| proposer.propose(6, &ctx));
        assert_eq!(out.len(), 6);
        n
    };
    let small = count(&SearchSpace::uniform(2));
    let large = count(&SearchSpace::uniform(4));
    assert_eq!(
        small, large,
        "proposer allocations grew from the 64- to the 4096-config space"
    );
    assert!(large <= 3, "{large} allocations for one proposal round");
}

#[test]
fn warm_scoreboard_allocates_only_its_report() {
    let prog = chain_program(10);
    let one = Workload::single("wl", &prog);
    let ten = Workload {
        streams: (0..10)
            .map(|_| Stream {
                name: "wl",
                program: &prog,
            })
            .collect(),
    };
    let small = DecodedWorkload::decode(&one);
    let large = DecodedWorkload::decode(&ten);
    assert_eq!(large.num_instructions(), 10 * small.num_instructions());
    let config = HwConfig::with_counts(&[(UnitClass::Qr, 3), (UnitClass::MatMul, 2)]);
    for policy in [IssuePolicy::OutOfOrder, IssuePolicy::InOrder] {
        let mut scratch = SimScratch::default();
        // Warm the scratch to the larger trace.
        simulate_decoded_with(&large, &config, policy, &mut scratch);
        let (r1, n1) = allocations(|| simulate_decoded_with(&small, &config, policy, &mut scratch));
        let (r10, n10) =
            allocations(|| simulate_decoded_with(&large, &config, policy, &mut scratch));
        assert!(r10.cycles > r1.cycles);
        assert_eq!(
            n1, n10,
            "{policy:?}: warm walk allocations scale with the trace"
        );
        // Only the two per-class report maps allocate.
        assert!(n1 <= 2, "{policy:?}: {n1} allocations in a warm walk");
    }
}
