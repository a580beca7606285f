//! CLI that regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p orianna-bench --bin figures -- all
//! cargo run --release -p orianna-bench --bin figures -- t1 f13 f16
//! ```
//!
//! Experiment ids: `f1 t1 macs t4 t5 f13 f14 f15 breakdown f16 f17 f18 f19`
//! (`f19` covers both Fig. 19 and Fig. 20; `f20` is accepted as an alias).

use orianna_bench::figures;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "t1",
            "macs",
            "t4",
            "t5",
            "f13",
            "f14",
            "f15",
            "breakdown",
            "f16",
            "f17",
            "f18",
            "f19",
            "f1",
            "passes",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };

    // Experiments that need the full per-app evaluation share it.
    let needs_eval = ["f13", "f14", "f15", "f16", "f17", "f18", "breakdown", "f1"];
    let evals = if ids.iter().any(|id| needs_eval.contains(id)) {
        eprintln!("[figures] evaluating all four applications (compile + generate + simulate)…");
        Some(figures::evaluate_all())
    } else {
        None
    };

    for id in ids {
        let block = match id {
            "t1" => figures::tbl1(),
            "macs" => figures::macs_saving(),
            "t4" => figures::tbl4(),
            "t5" => figures::tbl5(figures::TBL5_MISSIONS),
            "f13" => figures::fig13(evals.as_ref().unwrap()),
            "f14" => figures::fig14(evals.as_ref().unwrap()),
            "f15" => figures::fig15(evals.as_ref().unwrap()),
            "breakdown" => figures::breakdown(evals.as_ref().unwrap()),
            "f16" => figures::fig16(evals.as_ref().unwrap()),
            "f17" => figures::fig17(evals.as_ref().unwrap()),
            "f18" => figures::fig18(evals.as_ref().unwrap()),
            "f19" | "f20" => figures::fig19_20(),
            "f1" => figures::fig1(evals.as_ref().unwrap()),
            "passes" => figures::passes_report(),
            other => {
                eprintln!("unknown experiment id: {other}");
                continue;
            }
        };
        println!("{block}");
        println!("{}", "-".repeat(78));
    }
}
