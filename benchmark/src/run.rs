//! The end-to-end run: set up (five times, for a steady `setup_s`), run timed
//! passes for the requested seconds, check every output, report the
//! end-to-end metrics. Nothing is traced here.

use std::time::Instant;

use crate::calib;
use crate::json::Json;
use crate::meter::{
    geomean, median, op_latencies_cal_ms, quantile, Meter, PassRecord, LATENCY_QUANTILE,
};
use crate::report::{peak_rss_mb, Outcome};
use crate::workloads::{self, Kind, Shared, Workload};

/// Set-ups per run. `setup_s` is their lower quartile, like every latency
/// (see `LATENCY_QUANTILE`), so slow set-ups (the first one also pays the
/// process's cold start) do not decide it.
const SETUPS: usize = 5;
/// Fewest timed passes, however slow the machine.
const MIN_PASSES: usize = 5;

/// One set-up: inputs and translation (inside `workloads::set_up`) and one
/// warm-up pass. Returns the workload, the warm-up's record, and the set-up's
/// wall seconds and speed stamp. The time the oracle spends on reference
/// outputs is the benchmark's own and is left out.
fn set_up_once(
    kind: Kind,
    seed: u64,
    previous: Vec<f64>,
    shared: &mut Shared,
) -> Result<(Box<dyn Workload>, PassRecord, f64, f64), String> {
    let mut kernel = vec![calib::kernel_ms()];
    let oracle_before_s = shared.oracle.spent_s;
    let started = Instant::now();
    let mut workload = workloads::set_up(kind, seed, shared)?;
    let build_s = started.elapsed().as_secs_f64() - (shared.oracle.spent_s - oracle_before_s);
    kernel.push(calib::kernel_ms());
    let mut meter = Meter::new(previous);
    workload.pass(&mut meter);
    let warm_up = meter.record;
    kernel.extend(&warm_up.kernel_ms);
    let wall_s = build_s + warm_up.wall_s();
    Ok((workload, warm_up, wall_s, median(&kernel)))
}

/// Timed passes until `seconds` have gone by; a pass is started only if at
/// least half of it is expected to fit.
pub fn timed_passes(
    workload: &mut dyn Workload,
    mut previous: Vec<f64>,
    seconds: f64,
    min: usize,
) -> Vec<PassRecord> {
    let started = Instant::now();
    let mut passes: Vec<PassRecord> = Vec::new();
    let mut last_s = 0.0;
    while passes.len() < min || started.elapsed().as_secs_f64() + last_s / 2.0 < seconds {
        let pass_started = Instant::now();
        let mut meter = Meter::new(std::mem::take(&mut previous));
        workload.pass(&mut meter);
        last_s = pass_started.elapsed().as_secs_f64();
        previous = meter.record.op_ms.clone();
        passes.push(meter.record);
    }
    passes
}

pub fn end_to_end(kind: Kind, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut failures = Vec::new();
    let (mut setup_cal_s, mut setup_raw_s, mut kernel) = (Vec::new(), Vec::new(), Vec::new());
    let mut current: Option<(Box<dyn Workload>, Vec<f64>)> = None;
    let mut shared = Shared::default();
    for _ in 0..SETUPS {
        // Free the previous set-up first: peak memory is that of one.
        let previous = current.take().map_or(Vec::new(), |(_, op_ms)| op_ms);
        let (workload, warm_up, wall_s, stamp_ms) = set_up_once(kind, seed, previous, &mut shared)?;
        setup_raw_s.push(wall_s);
        setup_cal_s.push(calib::calibrated(wall_s, stamp_ms));
        kernel.push(stamp_ms);
        failures.extend(warm_up.failures.iter().map(|f| format!("warm-up: {f}")));
        current = Some((workload, warm_up.op_ms));
    }
    let (mut workload, previous) = current.expect("at least one set-up");

    let passes = timed_passes(workload.as_mut(), previous, seconds, MIN_PASSES);
    let attempted = passes.iter().map(PassRecord::attempted).sum();
    failures.extend(passes.iter().flat_map(|p| p.failures.iter().cloned()));
    kernel.extend(passes.iter().map(PassRecord::stamp_ms));

    let op_cal_ms = op_latencies_cal_ms(&passes);
    let names = workload.op_names();
    // On serve_corpus the operations are the cold requests; the CONFIG write
    // is in the pass time only.
    let latencies: Vec<f64> = names
        .iter()
        .zip(&op_cal_ms)
        .filter(|(name, _)| name.as_str() != "CONFIG")
        .map(|(_, ms)| *ms)
        .collect();

    let mut detail = vec![
        (
            "operations".to_string(),
            Json::Arr(
                names
                    .iter()
                    .zip(&op_cal_ms)
                    .map(|(name, ms)| {
                        Json::obj([("name", Json::str(name)), ("cal_ms", Json::Num(*ms))])
                    })
                    .collect(),
            ),
        ),
        (
            "passes".to_string(),
            Json::Arr(
                passes
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("raw_s", Json::Num(p.wall_s())),
                            ("cal_s", Json::Num(p.cal_s())),
                            ("kernel_ms", Json::Num(p.stamp_ms())),
                            (
                                "op_ms",
                                Json::Arr(p.op_ms.iter().map(|v| Json::Num(*v)).collect()),
                            ),
                            (
                                "kernel_samples_ms",
                                Json::Arr(p.kernel_ms.iter().map(|v| Json::Num(*v)).collect()),
                            ),
                            (
                                "hot_ms",
                                Json::Num(
                                    p.hot_us.iter().map(|&u| f64::from(u)).sum::<f64>() / 1e3,
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "setup_raw_s".to_string(),
            Json::Arr(setup_raw_s.iter().map(|s| Json::Num(*s)).collect()),
        ),
        (
            "setup_cal_s".to_string(),
            Json::Arr(setup_cal_s.iter().map(|s| Json::Num(*s)).collect()),
        ),
    ];
    let hot: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            let stamp = p.stamp_ms();
            p.hot_us
                .iter()
                .map(move |&us| calib::calibrated(f64::from(us), stamp))
        })
        .collect();
    if !hot.is_empty() {
        detail.push((
            "hot".to_string(),
            Json::obj([
                ("samples", Json::Num(hot.len() as f64)),
                ("p50_cal_us", Json::Num(quantile(&hot, 0.5))),
                ("p99_cal_us", Json::Num(quantile(&hot, 0.99))),
            ]),
        ));
    }

    Ok(Outcome {
        workload: kind.name(),
        traced: false,
        seed,
        attempted,
        failures,
        metrics: vec![
            ("pass_cal_s", op_cal_ms.iter().sum::<f64>() / 1e3),
            ("op_geomean_cal_ms", geomean(&latencies)),
            ("peak_rss_mb", peak_rss_mb()),
            ("setup_s", quantile(&setup_cal_s, LATENCY_QUANTILE)),
        ],
        passes: passes.len(),
        setups: SETUPS,
        kernel_ms: median(&kernel),
        detail,
    })
}
