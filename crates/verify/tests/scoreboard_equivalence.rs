//! Differential test of the decoded scoreboard against a reference list
//! scheduler.
//!
//! `DecodedWorkload` stores its instructions renumbered into issue order
//! as flat CSR arrays. The reference below is the straightforward
//! per-node layout — one heap `Vec` of global program-order dependences
//! per instruction and a separate issue-order permutation — kept here
//! only as an oracle. Every `SimReport` field, the critical path, the
//! per-class work and the admissible lower bound must agree bit for bit
//! on the paper applications' frame workloads, on sampled
//! configurations, under both issue policies; so must randomly generated
//! multi-stream workloads from every generator family.

mod common;

use common::{app_frames, report_diff};
use orianna_compiler::{compile, Phase, UnitClass};
use orianna_graph::natural_ordering;
use orianna_hw::templates::{energy_nj, latency, BOARD_STATIC_W, STATIC_W_PER_UNIT};
use orianna_hw::{
    simulate_decoded_with, DecodedWorkload, HwConfig, IssuePolicy, SimReport, SimScratch, Stream,
    Workload,
};
use orianna_verify::{generate, sample_configs, Family, GenConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn phase_name(p: Phase) -> &'static str {
    match p {
        Phase::Construct => "construct",
        Phase::Eliminate => "eliminate",
        Phase::BackSub => "backsub",
    }
}

/// One flattened instruction of the reference decode.
#[derive(Debug, Clone)]
struct Node {
    lat: u64,
    class: UnitClass,
    deps: Vec<usize>, // global ids
}

/// Reference decode: per-node dependence lists in program order plus the
/// ASAP issue permutation.
struct RefDecoded {
    nodes: Vec<Node>,
    issue_order: Vec<usize>,
    phase_work: Arc<BTreeMap<&'static str, u64>>,
    qrd_shapes: Arc<Vec<(usize, usize)>>,
    mm_shapes: Arc<Vec<(usize, usize)>>,
    dyn_energy_nj: f64,
    critical_path: u64,
    class_work: [u64; UnitClass::COUNT],
    class_ready_min: [u64; UnitClass::COUNT],
    class_tail_min: [u64; UnitClass::COUNT],
}

impl RefDecoded {
    fn decode(workload: &Workload<'_>) -> Self {
        let mut nodes: Vec<Node> = Vec::with_capacity(workload.num_instructions());
        let mut phase_work: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut qrd_shapes = Vec::new();
        let mut mm_shapes = Vec::new();
        let mut dyn_energy_nj = 0.0;
        let mut global_of: Vec<Vec<usize>> = Vec::new();
        for (si, s) in workload.streams.iter().enumerate() {
            let producers = s.program.producers();
            for instr in &s.program.instrs {
                let deps: Vec<usize> = instr
                    .srcs
                    .iter()
                    .filter_map(|r| producers[r.0])
                    .map(|local| global_of[si][local])
                    .collect();
                let gid = nodes.len();
                let lat = latency(&instr.op, instr.dims).max(1);
                let class = instr.op.unit_class();
                *phase_work.entry(phase_name(instr.phase)).or_insert(0) += lat;
                dyn_energy_nj += energy_nj(&instr.op, instr.dims);
                if matches!(instr.op, orianna_compiler::Op::Qrd { .. }) {
                    qrd_shapes.push(instr.dims);
                } else if class == UnitClass::MatMul && instr.phase == Phase::Construct {
                    mm_shapes.push(instr.dims);
                }
                nodes.push(Node { lat, class, deps });
                if global_of.len() == si {
                    global_of.push(Vec::new());
                }
                global_of[si].push(gid);
            }
            if global_of.len() == si {
                global_of.push(Vec::new());
            }
        }
        let mut asap = vec![0u64; nodes.len()];
        for gid in 0..nodes.len() {
            asap[gid] = nodes[gid]
                .deps
                .iter()
                .map(|&d| asap[d] + nodes[d].lat)
                .max()
                .unwrap_or(0);
        }
        let mut issue_order: Vec<usize> = (0..nodes.len()).collect();
        issue_order.sort_by_key(|&gid| (asap[gid], gid));
        let mut tail = vec![0u64; nodes.len()];
        for gid in (0..nodes.len()).rev() {
            let down = tail[gid] + nodes[gid].lat;
            for &d in &nodes[gid].deps {
                tail[d] = tail[d].max(down);
            }
        }
        let critical_path = nodes
            .iter()
            .enumerate()
            .map(|(gid, n)| asap[gid] + n.lat)
            .max()
            .unwrap_or(0);
        let mut class_work = [0u64; UnitClass::COUNT];
        let mut class_ready_min = [u64::MAX; UnitClass::COUNT];
        let mut class_tail_min = [u64::MAX; UnitClass::COUNT];
        for (gid, n) in nodes.iter().enumerate() {
            let c = n.class.index();
            class_work[c] += n.lat;
            class_ready_min[c] = class_ready_min[c].min(asap[gid]);
            class_tail_min[c] = class_tail_min[c].min(tail[gid]);
        }
        for c in 0..UnitClass::COUNT {
            if class_work[c] == 0 {
                class_ready_min[c] = 0;
                class_tail_min[c] = 0;
            }
        }
        Self {
            nodes,
            issue_order,
            phase_work: Arc::new(phase_work),
            qrd_shapes: Arc::new(qrd_shapes),
            mm_shapes: Arc::new(mm_shapes),
            dyn_energy_nj,
            critical_path,
            class_work,
            class_ready_min,
            class_tail_min,
        }
    }

    fn lower_bound_cycles(&self, config: &HwConfig) -> u64 {
        let mut lb = self.critical_path;
        for c in UnitClass::ALL {
            let i = c.index();
            if self.class_work[i] == 0 {
                continue;
            }
            let units = config.count(c).max(1) as u64;
            let busy = self.class_work[i].div_ceil(units);
            lb = lb.max(self.class_ready_min[i] + busy + self.class_tail_min[i]);
        }
        lb
    }

    fn simulate(&self, config: &HwConfig, policy: IssuePolicy) -> SimReport {
        let nodes = &self.nodes;
        let mut finish = vec![0u64; nodes.len()];
        let mut busy = [0u64; UnitClass::COUNT];
        let mut waited = [0u64; UnitClass::COUNT];
        let mut seen = [false; UnitClass::COUNT];
        let mut makespan = 0u64;
        match policy {
            IssuePolicy::InOrder => {
                let mut t = 0u64;
                for (gid, n) in nodes.iter().enumerate() {
                    let ready = n.deps.iter().map(|&d| finish[d]).max().unwrap_or(0);
                    let start = t.max(ready);
                    let end = start + n.lat;
                    finish[gid] = end;
                    t = end;
                    let c = n.class.index();
                    busy[c] += n.lat;
                    waited[c] += start - ready;
                    seen[c] = true;
                }
                makespan = t;
            }
            IssuePolicy::OutOfOrder => {
                let mut pools: Vec<Vec<u64>> = UnitClass::ALL
                    .iter()
                    .map(|&c| vec![0; config.count(c)])
                    .collect();
                for &gid in &self.issue_order {
                    let n = &nodes[gid];
                    let ready = n.deps.iter().map(|&d| finish[d]).max().unwrap_or(0);
                    let c = n.class.index();
                    let pool = &mut pools[c];
                    let start = if pool.is_empty() {
                        pool.push(ready + n.lat);
                        ready
                    } else {
                        let mut mi = 0;
                        for (i, &f) in pool.iter().enumerate().skip(1) {
                            if f < pool[mi] {
                                mi = i;
                            }
                        }
                        let start = ready.max(pool[mi]);
                        pool[mi] = start + n.lat;
                        start
                    };
                    let end = start + n.lat;
                    finish[gid] = end;
                    makespan = makespan.max(end);
                    busy[c] += n.lat;
                    waited[c] += start - ready;
                    seen[c] = true;
                }
            }
        }
        let mut unit_busy: BTreeMap<UnitClass, u64> = BTreeMap::new();
        let mut contention: BTreeMap<UnitClass, u64> = BTreeMap::new();
        for c in UnitClass::ALL {
            if seen[c.index()] {
                unit_busy.insert(c, busy[c.index()]);
                contention.insert(c, waited[c.index()]);
            }
        }
        let time_ms = makespan as f64 / (config.clock_mhz * 1e3);
        let static_mj = (BOARD_STATIC_W + STATIC_W_PER_UNIT * config.total_units() as f64)
            * (time_ms / 1e3)
            * 1e3;
        SimReport {
            cycles: makespan,
            time_ms,
            energy_mj: self.dyn_energy_nj * 1e-6 + static_mj,
            unit_busy,
            contention,
            phase_work: Arc::clone(&self.phase_work),
            instructions: nodes.len(),
            qrd_shapes: Arc::clone(&self.qrd_shapes),
            mm_shapes: Arc::clone(&self.mm_shapes),
        }
    }
}

/// Compares the decoded scoreboard with the reference on every
/// configuration and both policies; returns the first mismatch.
fn compare(workload: &Workload<'_>, configs: &[HwConfig]) -> Result<(), String> {
    let reference = RefDecoded::decode(workload);
    let decoded = DecodedWorkload::decode(workload);
    if decoded.num_instructions() != reference.nodes.len() {
        return Err(format!(
            "instructions {} vs reference {}",
            decoded.num_instructions(),
            reference.nodes.len()
        ));
    }
    if decoded.critical_path() != reference.critical_path {
        return Err(format!(
            "critical path {} vs reference {}",
            decoded.critical_path(),
            reference.critical_path
        ));
    }
    for c in UnitClass::ALL {
        if decoded.class_work(c) != reference.class_work[c.index()] {
            return Err(format!(
                "{c:?} work {} vs reference {}",
                decoded.class_work(c),
                reference.class_work[c.index()]
            ));
        }
    }
    // One scratch across every evaluation, as a DSE sweep reuses it.
    let mut scratch = SimScratch::default();
    for config in configs {
        let units: Vec<usize> = UnitClass::ALL.iter().map(|&c| config.count(c)).collect();
        let lb = decoded.lower_bound_cycles(config);
        let want_lb = reference.lower_bound_cycles(config);
        if lb != want_lb {
            return Err(format!(
                "{units:?}: lower bound {lb} vs reference {want_lb}"
            ));
        }
        for policy in [IssuePolicy::OutOfOrder, IssuePolicy::InOrder] {
            let got = simulate_decoded_with(&decoded, config, policy, &mut scratch);
            let want = reference.simulate(config, policy);
            report_diff(&got, &want).map_err(|field| format!("{units:?} {policy:?}: {field}"))?;
        }
    }
    Ok(())
}

/// All four applications' frame workloads, two seeds, the minimal
/// configuration plus sampled unit mixes, both policies.
#[test]
fn flat_scoreboard_matches_reference_on_app_frame_workloads() {
    for seed in [1u64, 2024] {
        let mut configs = vec![HwConfig::minimal()];
        configs.extend(sample_configs(12, 4, seed));
        for app in app_frames(seed) {
            let workload = app.workload();
            compare(&workload, &configs)
                .unwrap_or_else(|e| panic!("seed {seed} {}: {e}", app.name));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        orianna_verify::cases_per_family(24) as u32
    ))]

    /// Two generated programs of one family as a two-stream workload
    /// (interleaved issue across streams), on sampled configurations.
    #[test]
    fn flat_scoreboard_matches_reference_on_generated_workloads(
        fam in 0usize..4,
        vars in 3usize..9,
        dstep in 0usize..4,
        seed in 0u64..1024,
    ) {
        let family = Family::ALL[fam];
        let density = dstep as f64 * 0.25;
        let programs: Vec<_> = [seed, seed + 1]
            .iter()
            .map(|&s| {
                let g = generate(&GenConfig::new(family, vars, density, s));
                compile(&g, &natural_ordering(&g)).expect("generated graph compiles")
            })
            .collect();
        let workload = Workload {
            streams: programs
                .iter()
                .map(|program| Stream { name: "gen", program })
                .collect(),
        };
        let configs = sample_configs(6, 3, seed);
        if let Err(e) = compare(&workload, &configs) {
            prop_assert!(false, "{family:?} vars {vars} seed {seed}: {e}");
        }
    }
}
