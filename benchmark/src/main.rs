//! The repository's benchmark: four workloads, end-to-end metrics and a
//! per-layer trace, all measured from outside through the crates' public
//! functions. See `README.md` beside this crate.
//!
//! ```text
//! benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace [0|1]]
//! benchmark --workload <name> --aa [--seed <n>] [--seconds <s>]
//! benchmark --list
//! benchmark diff <a.json> <b.json>
//! ```
//!
//! Nothing is read from the environment.

mod calib;
mod compare;
mod json;
mod meter;
mod metrics;
mod probes;
mod programs;
mod report;
mod run;
mod stepped;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;

use workloads::Kind;

/// Seconds of timed passes when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--aa]\n       benchmark --list\n       benchmark diff <a.json> <b.json>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        aa: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                out.workload = Some(Kind::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 170.0) {
                    return Err("--seconds must be above 0 and at most 170".into());
                }
            }
            "--trace" => {
                // `--trace` alone switches tracing on; the driver passes 0 or 1.
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--aa" => out.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn list() {
    for (title, table) in [
        ("end to end", metrics::END_TO_END),
        ("per layer", metrics::PER_LAYER),
    ] {
        println!("{title}:");
        for m in table {
            let bound = m.bound.map_or("-".to_string(), |b| b.to_string());
            println!(
                "  {:<40} {:<6} {:<6} bound {:<5} {}",
                m.name,
                m.unit,
                m.better.name(),
                bound,
                m.what
            );
        }
    }
}

fn run_workload(args: &Args) -> Result<ExitCode, String> {
    let kind = args.workload.ok_or_else(usage)?;
    if args.aa {
        return compare::aa(kind, args.seed, args.seconds);
    }
    let outcome = if args.trace {
        traced::traced(kind, args.seed, args.seconds)?
    } else {
        run::end_to_end(kind, args.seed, args.seconds)?
    };
    report::print_table(&outcome);
    report::write_result(&outcome);
    // The driver reads the last line of standard output.
    println!("{}", report::driver_line(&outcome));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--list") => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        Some("diff") => match &args[1..] {
            [a, b] => compare::diff(a, b),
            _ => Err(usage()),
        },
        _ => parse(&args).and_then(|parsed| run_workload(&parsed)),
    };
    result.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}
