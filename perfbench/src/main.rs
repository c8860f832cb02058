//! `mts-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress notes on standard error and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--print-outputs` prints one op's simulated outputs
//! instead (how the files under `reference/` were captured).

use mts_perfbench::run::{run_traced, run_untraced};
use mts_perfbench::workloads::Workload;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_outputs: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut print_outputs = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-outputs" {
            print_outputs = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required: one of {names:?}"))?,
        seed,
        seconds,
        trace,
        print_outputs,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mts-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_outputs {
        args.workload.precheck(args.seed);
        return match args.workload.op(args.seed) {
            Ok(out) => {
                for c in out {
                    println!("{}", c.line);
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mts-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = if args.trace {
        run_traced(args.workload, args.seed)
    } else {
        run_untraced(args.workload, args.seed, args.seconds)
    };
    for note in &report.notes {
        eprintln!("{}: {note}", args.workload.name());
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
