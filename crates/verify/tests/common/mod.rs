//! Helpers shared by the scoreboard and generator differential tests:
//! the paper applications' frame workloads — each algorithm compiled,
//! chained into an `iterations`-long frame program, and replicated
//! `frames_in_flight` times, the workload
//! `orianna_bench::eval::evaluate_app` generates an accelerator for —
//! and a bitwise `SimReport` comparison.

use orianna_apps::all_apps;
use orianna_bench::repeat_program;
use orianna_compiler::{compile, Program};
use orianna_graph::natural_ordering;
use orianna_hw::{SimReport, Stream, Workload};

/// One application's frame programs.
pub struct AppFrames {
    /// Application name.
    pub name: &'static str,
    /// `(algorithm, frame program, frames in flight)` in Tbl. 4 order.
    pub algos: Vec<(&'static str, Program, usize)>,
}

impl AppFrames {
    /// The multi-stream frame workload: every algorithm's frame program,
    /// once per frame in flight.
    pub fn workload(&self) -> Workload<'_> {
        Workload {
            streams: self
                .algos
                .iter()
                .flat_map(|(name, program, frames)| {
                    (0..*frames).map(move |_| Stream { name, program })
                })
                .collect(),
        }
    }
}

/// The frame workloads of all four applications at `seed`.
pub fn app_frames(seed: u64) -> Vec<AppFrames> {
    all_apps(seed)
        .into_iter()
        .map(|app| AppFrames {
            name: app.name,
            algos: app
                .algorithms
                .iter()
                .map(|a| {
                    let prog = compile(&a.graph, &natural_ordering(&a.graph))
                        .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, a.name));
                    (
                        a.name,
                        repeat_program(&prog, a.iterations),
                        a.frames_in_flight,
                    )
                })
                .collect(),
        })
        .collect()
}

/// Field-by-field bitwise comparison; names the first differing field.
pub fn report_diff(got: &SimReport, want: &SimReport) -> Result<(), String> {
    let fields = [
        ("cycles", got.cycles == want.cycles),
        ("time_ms", got.time_ms.to_bits() == want.time_ms.to_bits()),
        (
            "energy_mj",
            got.energy_mj.to_bits() == want.energy_mj.to_bits(),
        ),
        ("unit_busy", got.unit_busy == want.unit_busy),
        ("contention", got.contention == want.contention),
        ("phase_work", got.phase_work == want.phase_work),
        ("instructions", got.instructions == want.instructions),
        ("qrd_shapes", got.qrd_shapes == want.qrd_shapes),
        ("mm_shapes", got.mm_shapes == want.mm_shapes),
    ];
    match fields.iter().find(|(_, same)| !same) {
        Some((name, _)) => Err(format!(
            "{name} differs ({} vs reference {} cycles)",
            got.cycles, want.cycles
        )),
        None => Ok(()),
    }
}
