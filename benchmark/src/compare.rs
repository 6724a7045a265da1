//! Comparing two results: `diff a.json b.json` between two result files, and
//! `--aa`, which runs the same workload twice in fresh processes and shows how
//! far two runs of the same code are apart, next to each metric's bound.
//!
//! Bounds and directions come from the metric tables, which a test keeps equal
//! to `BENCHMARK.json`.

use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::metrics::{self, Better, COUNT};
use crate::workloads::Kind;

/// What a comparison needs of one result.
struct Side {
    metrics: Vec<(String, f64)>,
    attempted: f64,
    failed: f64,
}

impl Side {
    fn from_json(value: &Json) -> Result<Side, String> {
        let number = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("no number {key}"))
        };
        let metrics = value
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("no metrics object")?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(Side {
            metrics,
            attempted: number("attempted")?,
            failed: number("failed")?,
        })
    }

    fn failed_share(&self) -> f64 {
        self.failed / self.attempted.max(1.0)
    }
}

/// Print one row per metric of `a` and return how many end-to-end metrics
/// got worse by more than their bound (`either_way`: moved by more than
/// their bound, for two runs of the same code), and how many counts differ.
fn compare(a: &Side, b: &Side, either_way: bool) -> (usize, usize) {
    let (mut regressions, mut counts_differ) = (0, 0);
    println!(
        "{:<40} {:>16} {:>16} {:>9}  verdict",
        "metric", "a", "b", "change"
    );
    for (name, va) in &a.metrics {
        let Some((_, vb)) = b.metrics.iter().find(|(n, _)| n == name) else {
            println!("{name:<40} {va:>16.4} {:>16}", "absent");
            continue;
        };
        let Some(def) = metrics::find(name) else {
            continue;
        };
        // Positive = worse, whatever the direction.
        let worse = match def.better {
            Better::Lower => (vb - va) / va.abs().max(f64::MIN_POSITIVE),
            Better::Higher => (va - vb) / va.abs().max(f64::MIN_POSITIVE),
        };
        let worse = if either_way { worse.abs() } else { worse };
        let verdict = match def.bound {
            Some(bound) if worse > bound => {
                regressions += 1;
                format!("REGRESSION (bound {bound})")
            }
            Some(bound) => format!("within bound {bound}"),
            None if def.unit == COUNT && va != vb => {
                counts_differ += 1;
                "count differs".to_string()
            }
            None if def.unit == COUNT => "count equal".to_string(),
            None => String::new(),
        };
        println!(
            "{name:<40} {va:>16.4} {vb:>16.4} {:>+8.2}%  {verdict}",
            (vb - va) / va.abs().max(f64::MIN_POSITIVE) * 100.0
        );
    }
    println!(
        "failed {}/{} -> {}/{}",
        a.failed, a.attempted, b.failed, b.attempted
    );
    (regressions, counts_differ)
}

fn read(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Side::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

/// `diff a.json b.json`: exit code 1 if an end-to-end metric of `b` is worse
/// than `a`'s by more than its bound, or if a higher share of `b`'s
/// operations failed.
pub fn diff(a: &str, b: &str) -> Result<ExitCode, String> {
    let (a, b) = (read(a)?, read(b)?);
    let (regressions, _) = compare(&a, &b, false);
    let more_failures = b.failed_share() > a.failed_share();
    if more_failures {
        println!("REGRESSION: a higher share of operations failed");
    }
    Ok(if regressions > 0 || more_failures {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Run this program again as a fresh process and parse the line it prints
/// for the driver.
fn child(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<Side, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", kind.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("child run failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    Side::from_json(&Json::parse(last)?)
}

/// `--aa`: two end-to-end runs and two traced runs of the same workload and
/// seed, each in a fresh process. Exit code 1 if two runs of the same code
/// are further apart than a bound, or if a count does not repeat exactly.
pub fn aa(kind: Kind, seed: u64, seconds: f64) -> Result<ExitCode, String> {
    let mut bad = 0;
    for trace in [false, true] {
        println!(
            "== {} A/A, {}",
            kind.name(),
            if trace { "traced" } else { "end to end" }
        );
        let a = child(kind, seed, seconds, trace)?;
        let b = child(kind, seed, seconds, trace)?;
        let (apart, counts_differ) = compare(&a, &b, true);
        bad += apart + counts_differ + usize::from(a.failed + b.failed > 0.0);
    }
    Ok(if bad > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
