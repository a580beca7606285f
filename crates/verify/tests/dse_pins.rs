//! Output pins for the hardware DSE bookkeeping.
//!
//! The search's trial log, its winner, the canonical configuration
//! hash and the bound-guided proposal order are all deterministic
//! functions of their inputs. The values below were recorded before the
//! configuration, key and proposer representations were flattened; any
//! change to them is a change of output, not of speed.
//!
//! * the FNV-1a digest of `search_default(...).log.to_json_lines()` and
//!   the winner, for two paper applications at two seeds, over the
//!   three single-stream contexts of each application (the shape of the
//!   benchmark's search step), at the workspace-default thread budget;
//! * `canonical_hash` of a few configurations;
//! * [`canon_key`] ordering equals the ordering of the historical
//!   `(Vec<(UnitClass, usize)>, clock bits)` key;
//! * [`BoundGuidedProposer`] returns exactly the first `n` entries of a
//!   full sort of the fresh, in-budget candidates by `(bound bits, key)`.

use orianna_apps::all_apps;
use orianna_compiler::{compile, UnitClass};
use orianna_graph::natural_ordering;
use orianna_hw::{
    canon_key, canonical_hash, search_default, BoundGuidedProposer, CanonKey, Combine, DseContext,
    HwConfig, Objective, Proposer, ProposerCtx, Resources, SearchSpace, TrialLog, Workload,
    WorkloadSet,
};
use proptest::prelude::*;
use std::collections::HashSet;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// `(seed, app index, log digest, log length, winner counts in
/// `UnitClass::ALL` order, winner score bits)`.
type SearchPin = (u64, usize, u64, usize, [usize; UnitClass::COUNT], u64);

const SEARCH_PINS: [SearchPin; 4] = [
    (
        1,
        0,
        0x8646_8389_4894_1B5E,
        13,
        [4, 4, 1, 4, 1, 1],
        0x40D9_AFC0_0000_0000,
    ),
    (
        1,
        1,
        0x604B_4C39_FF2B_1446,
        13,
        [4, 4, 1, 4, 1, 1],
        0x40C4_2E80_0000_0000,
    ),
    (
        7919,
        0,
        0x2144_A61C_6B85_53A5,
        13,
        [4, 4, 1, 4, 1, 1],
        0x40D9_AFC0_0000_0000,
    ),
    (
        7919,
        1,
        0x4D5D_1DD0_FBEE_BF46,
        13,
        [4, 4, 1, 4, 1, 1],
        0x40C4_2E80_0000_0000,
    ),
];

#[test]
fn search_logs_and_winners_are_pinned() {
    for &(seed, app_idx, digest, len, counts, score_bits) in &SEARCH_PINS {
        let app = &all_apps(seed)[app_idx];
        let programs: Vec<_> = app
            .algorithms
            .iter()
            .map(|a| compile(&a.graph, &natural_ordering(&a.graph)).expect("app compiles"))
            .collect();
        let mut set = WorkloadSet::new(Objective::Latency, Combine::Max);
        for (p, a) in programs.iter().zip(&app.algorithms) {
            // Workspace-default parallelism: the pins hold at every
            // `ORIANNA_THREADS` setting.
            set.push(a.name, DseContext::new(&Workload::single(a.name, p)));
        }
        let got = search_default(
            &mut set,
            &SearchSpace::uniform(4),
            &Resources::zc706(),
            seed,
        );
        let log: &TrialLog = &got.log;
        let best = got.best.expect("ZC706 fits the minimal corner");
        let label = format!("{} at seed {seed}", app.name);
        assert_eq!(
            (fnv1a(log.to_json_lines().as_bytes()), log.len()),
            (digest, len),
            "{label}: trial log digest"
        );
        assert_eq!(
            UnitClass::ALL.map(|c| best.config.count(c)),
            counts,
            "{label}: winner"
        );
        assert_eq!(best.score.to_bits(), score_bits, "{label}: winner score");
        assert_eq!(set.simulations(), set.memo_len(), "{label}: memo identity");
    }
}

#[test]
fn canonical_hashes_are_pinned() {
    let pins: [(HwConfig, u64); 4] = [
        (HwConfig::minimal(), 0xF08E_1AB8_ECB3_0D80),
        (
            HwConfig::minimal().plus_one(UnitClass::Qr),
            0xA602_8C87_F4EB_8043,
        ),
        (
            HwConfig::with_counts(&UnitClass::ALL.map(|c| (c, 4))),
            0xD760_701B_818F_DF80,
        ),
        (
            HwConfig::with_counts(&[
                (UnitClass::MatMul, 3),
                (UnitClass::Memory, 2),
                (UnitClass::BackSub, 7),
            ]),
            0x8044_54BC_4669_CE87,
        ),
    ];
    for (config, want) in &pins {
        assert_eq!(canonical_hash(config), *want, "{config:?}");
    }
}

fn config_of(counts: &[usize]) -> HwConfig {
    let pairs: Vec<(UnitClass, usize)> = UnitClass::ALL
        .iter()
        .zip(counts)
        .map(|(c, n)| (*c, *n))
        .collect();
    HwConfig::with_counts(&pairs)
}

/// The historical key: the unit mix as a vector of pairs in class order,
/// plus the clock bits.
type VecKey = (Vec<(UnitClass, usize)>, u64);

fn vec_key(config: &HwConfig) -> VecKey {
    (config.iter().collect(), config.clock_mhz.to_bits())
}

/// Every configuration of the space, built by index.
fn all_configs(space: &SearchSpace) -> Vec<HwConfig> {
    (0..space.size()).map(|i| space.config_at(i)).collect()
}

/// Reference ranking: every fresh, in-budget configuration of the
/// space, fully sorted by `(bound bits, key)`.
fn full_sort_reference(
    space: &SearchSpace,
    budget: &Resources,
    seen: &HashSet<CanonKey>,
    bound: &dyn Fn(&HwConfig) -> f64,
    n: usize,
) -> Vec<HwConfig> {
    let mut all: Vec<(u64, VecKey, HwConfig)> = all_configs(space)
        .into_iter()
        .filter(|c| !seen.contains(&canon_key(c)) && c.resources().fits(budget))
        .map(|c| (bound(&c).to_bits(), vec_key(&c), c))
        .collect();
    all.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    all.into_iter().take(n).map(|(_, _, c)| c).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `canon_key` orders and identifies configurations exactly like the
    /// historical vector-of-pairs key.
    #[test]
    fn canon_key_order_matches_vector_of_pairs(
        a in proptest::collection::vec(1usize..9, UnitClass::COUNT),
        b in proptest::collection::vec(1usize..9, UnitClass::COUNT),
    ) {
        let (ca, cb) = (config_of(&a), config_of(&b));
        prop_assert_eq!(canon_key(&ca).cmp(&canon_key(&cb)), vec_key(&ca).cmp(&vec_key(&cb)));
        prop_assert_eq!(canon_key(&ca) == canon_key(&cb), vec_key(&ca) == vec_key(&cb));
        prop_assert_eq!(canon_key(&ca), canon_key(&config_of(&a)));
    }

    /// Bound-guided proposals equal the first `n` of a full sort, under a
    /// bound with many ties (so the key decides) and under a random
    /// `seen` set and a budget that excludes part of the space.
    #[test]
    fn bound_guided_top_n_matches_full_sort(
        seen_mask in proptest::collection::vec(0u8..4, 729),
        n in 1usize..40,
        modulus in 1usize..9,
        dsp in 150u64..2000,
    ) {
        let space = SearchSpace::with_max(&[
            (UnitClass::MatMul, 3),
            (UnitClass::Vector, 3),
            (UnitClass::Special, 3),
            (UnitClass::Memory, 3),
            (UnitClass::Qr, 3),
            (UnitClass::BackSub, 3),
        ]);
        let all = all_configs(&space);
        prop_assert_eq!(all.len(), seen_mask.len());
        let seen: HashSet<CanonKey> = all
            .iter()
            .zip(&seen_mask)
            .filter(|(_, m)| **m == 0)
            .map(|(c, _)| canon_key(c))
            .collect();
        let budget = Resources { lut: u64::MAX / 4, ff: u64::MAX / 4, bram: u64::MAX / 4, dsp };
        let bound = move |c: &HwConfig| (c.total_units() % modulus) as f64 * 0.5;
        let frontiers: Vec<&[orianna_hw::ParetoPoint]> = Vec::new();
        let log = TrialLog::default();
        let ctx = ProposerCtx {
            space: &space,
            budget: &budget,
            log: &log,
            frontiers: &frontiers,
            seen: &seen,
            bound: &bound,
            best_score: None,
        };
        let got = BoundGuidedProposer::new(7).propose(n, &ctx);
        let want = full_sort_reference(&space, &budget, &seen, &bound, n);
        prop_assert_eq!(got, want);
    }
}
