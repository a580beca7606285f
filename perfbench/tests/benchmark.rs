//! The benchmark's own checks: reproducible inputs, metric names that
//! match `BENCHMARK.json`, and short runs that pass every output check.

use orianna_perfbench::report::result_line;
use orianna_perfbench::{
    input_digests, run_traced, run_untraced, Workload, E2E_METRICS, LAYER_METRICS,
};

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`, or the
/// `why` texts' names for `workloads`.
fn listed(key: &str) -> Vec<(String, Option<String>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |entry: &str, f: &str| {
        let at = entry.find(&format!("\"{f}\""))?;
        let rest = &entry[at + f.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|entry| {
            (
                field(entry, "name").expect("every entry has a name"),
                field(entry, "unit"),
            )
        })
        .collect()
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), Some(u.to_string())))
        .collect()
}

#[test]
fn metric_and_workload_names_match_benchmark_json() {
    assert_eq!(listed("end_to_end"), pairs(E2E_METRICS));
    assert_eq!(listed("per_layer"), pairs(LAYER_METRICS));
    let workloads = listed("workloads");
    assert!(workloads.len() >= 2);
    for (name, _) in workloads {
        assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for w in Workload::ALL {
        let a = input_digests(w, 7).expect("set-up");
        let b = input_digests(w, 7).expect("set-up");
        let c = input_digests(w, 8).expect("set-up");
        assert!(!a.is_empty(), "{}", w.name());
        assert_eq!(a, b, "{}: same seed, different inputs", w.name());
        assert_ne!(a, c, "{}: different seeds, same inputs", w.name());
    }
}

#[test]
fn short_untraced_runs_pass_their_checks() {
    for w in Workload::ALL {
        let run = run_untraced(w, 3, 0.4).expect("set-up");
        assert_eq!(run.failed, 0, "{}: {:?}", w.name(), run.failures);
        assert!(run.attempted > 0, "{}", w.name());
        let line = result_line(&run, E2E_METRICS).expect("every end-to-end metric measured");
        assert!(line.starts_with("{\"correct\": true"), "{line}");
    }
}

#[test]
fn short_traced_run_measures_every_layer_and_keeps_identities() {
    let run = run_traced(Workload::FrameSolve, 5, 1.0).expect("set-up");
    assert_eq!(run.failed, 0, "{:?}", run.failures);
    result_line(&run, LAYER_METRICS).expect("every per-layer metric measured");
}
