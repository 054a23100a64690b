//! `nebula_benchmark`: paper-scale adaptation-round benchmark with an
//! outside-in round ledger. See README.md beside this package for the
//! commands, workloads and metric glossary.

mod check;
mod deploy;
mod host;
mod ledger;
mod metrics;
mod probes;
mod repeat;
mod run;
mod stats;
mod timed;
mod trace;
mod traced;
mod workloads;

use serde_json::{Number, Value};

use crate::deploy::Scratch;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::Report;
use crate::workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  nebula_benchmark [run] --workload <name> --seed <n> --seconds <s> --trace <0|1>
  nebula_benchmark run --all [--seed <n>] [--seconds <s>]
  nebula_benchmark check [--seed <n>]
  nebula_benchmark repeat [--sets 2] [--runs 3] [--seed <n>] [--seconds <s>]
workloads: c10_sim, har_serve, c10_int8_faulty, har_fedavg";

/// Parsed command line. Unknown flags are an error: a mistyped flag must
/// not silently measure something else.
struct Args {
    command: String,
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    sets: usize,
    runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        workload: None,
        all: false,
        seed: 1,
        seconds: 12,
        trace: false,
        sets: 2,
        runs: 3,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number =
            |s: &String| s.parse::<u64>().map_err(|_| format!("{flag}: {s:?} is not a whole number"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--all" => args.all = true,
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => args.trace = number(value()?)? != 0,
            "--sets" => args.sets = number(value()?)?.max(1) as usize,
            "--runs" => args.runs = number(value()?)?.max(1) as usize,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process and prints its result line. The
/// verdict on its outputs is the line's `correct` field, not the exit
/// code: a run that measured and printed has done its job.
fn run_one(w: &'static Workload, args: &Args) {
    host::warn_if_oversubscribed(w.served);
    println!("{}: {}", w.name, w.why);
    let scratch = Scratch::create().expect("create the benchmark's scratch directory");
    println!("{}", serde_json::to_string(&host::descriptor(&scratch.dir)).expect("host record serializes"));
    let report = if args.trace {
        traced::run(w, args.seed, &scratch)
    } else {
        run::run(w, args.seed, args.seconds, &scratch)
    };
    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for &(name, unit) in &names {
        println!("{:<18} {:<34} {:>14.4} {unit}", w.name, name, report.metrics.get(name).unwrap_or(0.0));
    }
    println!("{}", result_line(&report, &names));
}

fn result_line(report: &Report, names: &[(&str, &str)]) -> String {
    assert!(names.iter().all(|(name, _)| stats::valid_name(name)), "a metric name breaks the naming rule");
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(report.correct)),
        ("attempted".to_string(), Value::Number(Number::U64(report.attempted))),
        ("failed".to_string(), Value::Number(Number::U64(report.failed))),
        ("metrics".to_string(), report.metrics.to_json(names.iter().copied())),
    ]);
    serde_json::to_string(&line).expect("result line serializes")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nebula_benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ok = match args.command.as_str() {
        "run" => match (&args.workload, args.all) {
            (Some(name), false) => match workloads::find(name) {
                Some(w) => {
                    run_one(w, &args);
                    true
                }
                None => {
                    eprintln!("nebula_benchmark: unknown workload {name:?}\n{USAGE}");
                    std::process::exit(2);
                }
            },
            (None, true) => {
                WORKLOADS.iter().all(|w| match repeat::child_run(w.name, args.seed, args.seconds) {
                    Ok((printed, _)) => {
                        print!("{printed}");
                        true
                    }
                    Err(why) => {
                        eprintln!("nebula_benchmark: {why}");
                        false
                    }
                })
            }
            _ => {
                eprintln!("nebula_benchmark: run needs --workload <name> or --all\n{USAGE}");
                std::process::exit(2);
            }
        },
        "check" => {
            let scratch = Scratch::create().expect("create the benchmark's scratch directory");
            check::check(args.seed, &scratch)
        }
        "repeat" => repeat::repeat(args.sets, args.runs, args.seed, args.seconds),
        other => {
            eprintln!("nebula_benchmark: unknown command {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !ok {
        std::process::exit(1);
    }
}
