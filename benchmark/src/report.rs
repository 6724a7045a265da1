//! What a run reports: the stamp that says where and when it ran, the result
//! printed for people and for the driver, and the result file `diff` reads.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::metrics;

/// The result of one run of one workload.
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub attempted: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// Every metric of the run's table, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Timed (or traced) passes and set-ups behind the medians.
    pub passes: usize,
    pub setups: usize,
    pub kernel_ms: f64,
    /// Per-operation and other detail for the result file.
    pub detail: Vec<(String, Json)>,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Days since 1970-01-01 to a civil date (Howard Hinnant's algorithm).
fn civil_date(days: i64) -> String {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Where and when the run happened. A checkout that is not a git repository
/// has no commit to name.
pub fn stamp(outcome: &Outcome) -> Json {
    let seconds = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() as i64);
    Json::obj([
        (
            "commit",
            Json::str(
                command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("date", Json::str(civil_date(seconds.div_euclid(86_400)))),
        ("seed", Json::Num(outcome.seed as f64)),
        ("passes", Json::Num(outcome.passes as f64)),
        ("setups", Json::Num(outcome.setups as f64)),
        ("cal.kernel_ms", Json::Num(outcome.kernel_ms)),
        ("k0_ms", Json::Num(crate::calib::K0_MS)),
    ])
}

/// The directory result files and traces go to: under the benchmark's own
/// directory when run from the repository root, else under the current one.
pub fn out_dir() -> PathBuf {
    let base = if Path::new("benchmark").is_dir() {
        "benchmark/out"
    } else {
        "out"
    };
    PathBuf::from(base)
}

fn metrics_json(outcome: &Outcome) -> Json {
    Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = metrics::find(name).map_or("", |m| m.unit);
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

/// The one line the driver reads: exactly these four keys.
pub fn driver_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.failures.is_empty())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failures.len() as f64)),
        ("metrics", metrics_json(outcome)),
    ])
    .render()
}

/// The result file: the driver's keys plus the stamp and the detail.
pub fn result_file(outcome: &Outcome) -> Json {
    let mut pairs = vec![
        ("workload".to_string(), Json::str(outcome.workload)),
        (
            "mode".to_string(),
            Json::str(if outcome.traced {
                "trace"
            } else {
                "end_to_end"
            }),
        ),
        ("stamp".to_string(), stamp(outcome)),
        (
            "correct".to_string(),
            Json::Bool(outcome.failures.is_empty()),
        ),
        ("attempted".to_string(), Json::Num(outcome.attempted as f64)),
        (
            "failed".to_string(),
            Json::Num(outcome.failures.len() as f64),
        ),
        (
            "failures".to_string(),
            Json::Arr(outcome.failures.iter().take(50).map(Json::str).collect()),
        ),
        ("metrics".to_string(), metrics_json(outcome)),
    ];
    pairs.extend(outcome.detail.iter().cloned());
    Json::Obj(pairs)
}

/// Print every metric by name with its unit, then the failures, for people.
pub fn print_table(outcome: &Outcome) {
    println!(
        "workload {}  seed {}  {}  passes {}  set-ups {}  cal.kernel_ms {:.2}",
        outcome.workload,
        outcome.seed,
        if outcome.traced {
            "traced"
        } else {
            "end to end"
        },
        outcome.passes,
        outcome.setups,
        outcome.kernel_ms
    );
    let mut layer = "";
    for (name, value) in &outcome.metrics {
        let def = metrics::find(name).expect("reported metrics are in the tables");
        if metrics::layer(name) != layer {
            layer = metrics::layer(name);
            println!("  [{layer}]");
        }
        let bound = def.bound.map_or(String::new(), |b| format!("  bound {b}"));
        println!(
            "    {name:<40} {value:>16.4} {:<6} ({} is better){bound}",
            def.unit,
            def.better.name()
        );
    }
    println!(
        "operations attempted {}  failed {}",
        outcome.attempted,
        outcome.failures.len()
    );
    for failure in outcome.failures.iter().take(20) {
        println!("  FAILED {failure}");
    }
}

/// Write the result file; a checkout that cannot be written to only loses the
/// file, not the run.
pub fn write_result(outcome: &Outcome) {
    let dir = out_dir();
    let name = format!(
        "result-{}-{}.json",
        outcome.workload,
        if outcome.traced { "trace" } else { "e2e" }
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(&name), result_file(outcome).render() + "\n"));
    match written {
        Ok(()) => println!("result file {}", dir.join(name).display()),
        Err(e) => eprintln!(
            "benchmark: could not write {}: {e}",
            dir.join(name).display()
        ),
    }
}

/// Resident-set high-water mark of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(19_782), "2024-02-29");
        assert_eq!(civil_date(20_730), "2026-10-04");
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            workload: "translate_search",
            traced: false,
            seed: 1,
            attempted: 70,
            failures: vec![],
            metrics: vec![("setup_s", 1.25)],
            passes: 10,
            setups: 3,
            kernel_ms: 19.7,
            detail: vec![],
        };
        let line = Json::parse(&driver_line(&outcome)).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
