//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report (host metadata, every metric with unit, sample count
//! and clock, failures) and, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and the contract metrics. Exits 0 only
//! when every output check passed.

use orianna_perfbench::report::{metric_line, result_line};
use orianna_perfbench::{
    host_line, run_traced, run_untraced, Workload, E2E_METRICS, LAYER_METRICS,
};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds {value}: want a number in (0, 600]"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (frame_solve, accel_gen, fleet_serve)")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host_line(args.seed));
    let result = if args.trace {
        run_traced(args.workload, args.seed, args.seconds)
    } else {
        run_untraced(args.workload, args.seed, args.seconds)
    };
    let run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &run.e2e {
        println!("{}", metric_line("e2e", m));
    }
    for m in &run.layers {
        println!("{}", metric_line("layer", m));
    }
    for n in &run.notes {
        println!("note   {n}");
    }
    for f in &run.failures {
        println!("FAIL   {f}");
    }
    let names = if args.trace {
        LAYER_METRICS
    } else {
        E2E_METRICS
    };
    match result_line(&run, names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
