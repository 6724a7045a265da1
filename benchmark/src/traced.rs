//! The traced run: replay a workload with a span around every call into a
//! layer, and report the per-layer metrics.
//!
//! Every workload reports every per-layer metric, so a traced run reaches
//! every layer: its own passes reach some; the *trip* (run what was
//! translated, or use the translation done in set-up) reaches the layers on
//! the other side of the compiler; a pass at two workers reaches `runtime`;
//! and the probes in `probes.rs` time single primitives. End-to-end metrics
//! never come from here.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use casper::TranslationReport;
use suites::Benchmark;

use crate::json::Json;
use crate::meter::{geomean, median, op_latencies_cal_ms, Meter, PassRecord};
use crate::probes;
use crate::report::{out_dir, Outcome};
use crate::run::timed_passes;
use crate::stepped::{self, StepCounts};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{
    config, verdict, Execute, Kind, Oracle, ServeCorpus, TranslateSearch, Translated, Workload,
};

/// Fewest traced passes.
const MIN_TRACED_PASSES: usize = 3;
/// Span pass index of the set-up; traced passes count from 1.
const SETUP_PASS: usize = 0;

/// The workload under trace: the untraced passes go through `Workload`, the
/// traced ones need the concrete type.
enum Subject {
    Translate(TranslateSearch),
    Serve(ServeCorpus),
    Execute(Execute),
}

impl Subject {
    fn workload(&mut self) -> &mut dyn Workload {
        match self {
            Subject::Translate(w) => w,
            Subject::Serve(w) => w,
            Subject::Execute(w) => w,
        }
    }

    /// The payload the untraced passes saw for program `i`.
    fn payload(&self, i: usize) -> Option<&[u8]> {
        match self {
            Subject::Translate(w) => w.payload(i),
            Subject::Serve(w) => w.payload(i),
            Subject::Execute(_) => None,
        }
    }
}

/// Translate every program step by step under the tracer, checking verdict
/// and payload like the untraced pass does.
fn stepped_pass(
    programs: &[Benchmark],
    subject: Option<&Subject>,
    tracer: &Tracer,
    pass: usize,
    meter: &mut Meter,
    counts: &mut StepCounts,
) -> Vec<Option<Arc<TranslationReport>>> {
    let cfg = config(1);
    let mut reports = Vec::with_capacity(programs.len());
    for (i, b) in programs.iter().enumerate() {
        tracer.set_op(pass, i);
        match meter.op(|| stepped::translate(&cfg, b.source, tracer, counts)) {
            Err(e) => {
                meter.fail(format!("{}: stepped translation: {e}", b.name));
                reports.push(None);
            }
            Ok(report) => {
                if verdict(&report, b.func) != b.expect_translate {
                    meter.fail(format!(
                        "{}: stepped verdict differs from expect_translate",
                        b.name
                    ));
                }
                if let Some(expected) = subject.and_then(|s| s.payload(i)) {
                    if casperd::render_report(&report).as_bytes() != expected {
                        meter.fail(format!(
                            "{}: stepped payload differs from translate_source's",
                            b.name
                        ));
                    }
                }
                reports.push(Some(Arc::new(report)));
            }
        }
    }
    reports
}

/// Per span name: the median over the passes it appears in of the pass's
/// summed time. `self_time` subtracts child spans.
fn span_ms(spans: &[Span], self_time: bool) -> BTreeMap<&'static str, f64> {
    let by_name = if self_time {
        trace::self_ms_by_name(spans)
    } else {
        let mut total: BTreeMap<&'static str, BTreeMap<usize, f64>> = BTreeMap::new();
        for s in spans {
            *total.entry(s.name).or_default().entry(s.op.0).or_default() += s.ns() as f64 / 1e6;
        }
        total
    };
    by_name
        .into_iter()
        .map(|(name, per_pass)| (name, median(&per_pass.into_values().collect::<Vec<f64>>())))
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn traced(kind: Kind, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let mut oracle = Oracle::default();
    let mut counts = StepCounts::default();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut kernel: Vec<f64> = Vec::new();
    let mut note = |record: &PassRecord, failures: &mut Vec<String>, what: &str| {
        attempted += record.attempted();
        kernel.push(record.stamp_ms());
        failures.extend(record.failures.iter().map(|f| format!("{what}: {f}")));
    };

    // Set-up. The execute workloads translate here, step by step, so their
    // trace has the compiler's layers too.
    let programs = kind.programs(seed);
    let setup_started = Instant::now();
    let mut setup_translate: Option<PassRecord> = None;
    let mut subject = match kind {
        Kind::TranslateSearch => Subject::Translate(TranslateSearch::set_up(kind.programs(seed))),
        Kind::ServeCorpus => Subject::Serve(ServeCorpus::set_up(kind.programs(seed), &mut None)?),
        Kind::ExecuteScale | Kind::ExecuteSmall => {
            let mut meter = Meter::new(Vec::new());
            let reports = stepped_pass(
                &programs,
                None,
                &tracer,
                SETUP_PASS,
                &mut meter,
                &mut counts,
            );
            note(&meter.record, &mut failures, "set-up");
            setup_translate = Some(meter.record);
            let translated = kind
                .programs(seed)
                .into_iter()
                .zip(reports)
                .map(|(bench, report)| {
                    let report =
                        report.ok_or_else(|| format!("{}: did not compile", bench.name))?;
                    Ok(Translated { bench, report })
                })
                .collect::<Result<Vec<Translated>, String>>()?;
            Subject::Execute(Execute::set_up(kind, seed, translated, &mut oracle)?)
        }
    };

    // Untraced: a warm-up pass, then two measured ones.
    let mut warm_up = Meter::new(Vec::new());
    subject.workload().pass(&mut warm_up);
    note(&warm_up.record, &mut failures, "warm-up");
    let raw_setup_s = setup_started.elapsed().as_secs_f64() - oracle.spent_s;
    let untraced = timed_passes(subject.workload(), warm_up.record.op_ms.clone(), 0.0, 2);
    for p in &untraced {
        note(p, &mut failures, "untraced pass");
    }
    let untraced_names: Vec<String> = subject.workload().op_names().to_vec();
    let untraced_op_ms = op_latencies_cal_ms(&untraced);

    // Traced passes, for a third of the requested seconds.
    let mut traced_passes: Vec<PassRecord> = Vec::new();
    let mut reports: Vec<Option<Arc<TranslationReport>>> = Vec::new();
    let traced_started = Instant::now();
    let mut previous: Vec<f64> = Vec::new();
    while traced_passes.len() < MIN_TRACED_PASSES
        || traced_started.elapsed().as_secs_f64() < seconds / 3.0
    {
        let pass = traced_passes.len() + 1;
        let mut meter = Meter::new(std::mem::take(&mut previous));
        match &mut subject {
            Subject::Execute(exec) => exec.run_pass(&mut meter, Some((&tracer, pass))),
            translate => {
                counts = StepCounts::default();
                reports = stepped_pass(
                    &programs,
                    Some(&*translate),
                    &tracer,
                    pass,
                    &mut meter,
                    &mut counts,
                );
            }
        }
        note(&meter.record, &mut failures, "traced pass");
        previous = meter.record.op_ms.clone();
        traced_passes.push(meter.record);
    }
    let traced_op_ms = op_latencies_cal_ms(&traced_passes);
    let traced_cal_ms: f64 = traced_op_ms.iter().sum();

    // One pass at two workers: the only thing that reaches `runtime`.
    let rt_before = casper_runtime::global().stats();
    subject.workload().set_workers(2);
    let mut meter = Meter::new(untraced.last().map_or(Vec::new(), |p| p.op_ms.clone()));
    subject.workload().pass(&mut meter);
    subject.workload().set_workers(1);
    let rt = casper_runtime::global().stats().since(&rt_before);
    note(&meter.record, &mut failures, "2-worker pass");
    let par2_cal_s = meter.record.cal_s();
    let untraced_cal_s = untraced_op_ms.iter().sum::<f64>() / 1e3;

    // The trip: source to plan to records. The translate workloads run what
    // they translated, at the small size; the execute workloads translated in
    // set-up, and their traced passes are the other half.
    let trip_pass = traced_passes.len() + 1;
    let (translate_cal_ms, execute_cal_ms, totals, exec_records, speedups, translated_reports);
    match subject {
        Subject::Execute(mut exec) => {
            let setup = setup_translate.expect("execute workloads translate in set-up");
            translate_cal_ms = setup.cal_s() * 1e3;
            execute_cal_ms = traced_cal_ms;
            // Counts of one pass; the latest traced pass is as good as any.
            totals = exec.totals;
            exec_records = exec.records();
            speedups = speedups_vs_interp(&exec, &traced_passes, &oracle);
            translated_reports = exec
                .translated
                .drain(..)
                .map(|t| (t.bench, t.report))
                .collect::<Vec<(Benchmark, Arc<TranslationReport>)>>();
        }
        _ => {
            translate_cal_ms = traced_cal_ms;
            let runnable = kind
                .programs(seed)
                .into_iter()
                .zip(&reports)
                .filter(|(b, _)| b.expect_translate)
                .filter_map(|(bench, r)| {
                    Some(Translated {
                        bench,
                        report: Arc::clone(r.as_ref()?),
                    })
                })
                .collect();
            let all: Vec<(Benchmark, Arc<TranslationReport>)> = kind
                .programs(seed)
                .into_iter()
                .zip(reports)
                .filter_map(|(b, r)| Some((b, r?)))
                .collect();
            let mut exec = Execute::set_up(kind, seed, runnable, &mut oracle)?;
            let mut meter = Meter::new(Vec::new());
            exec.run_pass(&mut meter, Some((&tracer, trip_pass)));
            note(&meter.record, &mut failures, "trip");
            execute_cal_ms = meter.record.cal_s() * 1e3;
            totals = exec.totals;
            exec_records = exec.records();
            speedups = speedups_vs_interp(&exec, std::slice::from_ref(&meter.record), &oracle);
            translated_reports = all;
        }
    }

    let probe = probes::run(&translated_reports, seed, &mut failures)?;

    // Everything measured; now the arithmetic.
    let spans = tracer.spans();
    let self_ms = span_ms(&spans, true);
    let total_ms = span_ms(&spans, false);
    let own = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let whole = |name: &str| total_ms.get(name).copied().unwrap_or(0.0);
    let search = sum_search(&translated_reports);
    let misses = search.verifier_calls - search.verifier_cache_hits;
    let (choose_ms, execute_ms) = (own("codegen.choose"), own("codegen.execute"));

    // Traced over untraced, on the operations both ran.
    let traced_names: Vec<String> = if kind.executes() {
        untraced_names.clone()
    } else {
        programs.iter().map(|b| b.name.to_string()).collect()
    };
    let untraced_same: f64 = untraced_names
        .iter()
        .zip(&untraced_op_ms)
        .filter(|(name, _)| traced_names.contains(name))
        .map(|(_, ms)| *ms)
        .sum();
    let traced_same: f64 = traced_op_ms.iter().sum();

    let values: Vec<(&'static str, f64)> = vec![
        ("seqlang.compile_ms", own("seqlang.compile")),
        (
            "seqlang.source_bytes",
            programs.iter().map(|b| b.source.len()).sum::<usize>() as f64,
        ),
        (
            "seqlang.interp_ns_per_record",
            ratio(oracle.interp_s * 1e9, oracle.interp_records as f64),
        ),
        ("analyzer.identify_ms", own("analyzer.identify")),
        ("analyzer.fragments", search.fragments as f64),
        ("synthesis.grammar_ms", own("synthesis.grammar")),
        ("synthesis.search_ms", own("synthesis.search")),
        ("synthesis.enumerate_ms", probe.enumerate_ms),
        ("synthesis.candidates_generated", search.generated as f64),
        ("synthesis.candidates_deduped", search.deduped as f64),
        ("synthesis.candidates_checked", search.checked as f64),
        ("synthesis.sent_to_verifier", search.sent as f64),
        ("synthesis.counter_examples", search.counter_examples as f64),
        ("synthesis.classes_explored", search.classes as f64),
        (
            "synthesis.candidates_per_s",
            ratio(search.generated as f64, own("synthesis.search") / 1e3),
        ),
        (
            "synthesis.screen_yield",
            ratio(search.sent as f64, search.checked as f64),
        ),
        ("verifier.new_ms", own("verifier.new")),
        ("verifier.verify_ms", own("verifier.verify")),
        ("verifier.calls", search.verifier_calls as f64),
        ("verifier.rejections", search.rejections as f64),
        ("verifier.cache_hits", search.verifier_cache_hits as f64),
        (
            "verifier.ms_per_miss",
            ratio(own("verifier.verify"), misses as f64),
        ),
        (
            "verifier.accept_ratio",
            ratio((search.sent - search.rejections) as f64, search.sent as f64),
        ),
        ("ir.compile_us_per_summary", probe.ir_compile_us),
        ("ir.eval_us_per_state", probe.ir_eval_us),
        ("cost.static_ms", own("cost.static")),
        ("cost.variants_kept", counts.variants_kept as f64),
        (
            "cost.variants_pruned",
            (counts.variants_found - counts.variants_kept) as f64,
        ),
        ("codegen.lower_ms", own("codegen.lower")),
        ("codegen.emit_ms", own("codegen.emit")),
        ("codegen.generated_loc", search.generated_loc as f64),
        ("codegen.choose_ms", choose_ms),
        (
            "codegen.choose_share",
            ratio(choose_ms, choose_ms + execute_ms),
        ),
        ("codegen.execute_ms", execute_ms),
        (
            "codegen.ns_per_record",
            ratio(execute_ms * 1e6, exec_records as f64),
        ),
        ("codegen.cached_iter_ms", probe.cached_iter_ms),
        ("codegen.uncached_iter_ms", probe.uncached_iter_ms),
        ("codegen.plan_cache_hits", probe.plan_cache_hits as f64),
        ("codegen.retunes", probe.retunes as f64),
        ("codegen.speedup_vs_interp", geomean(&speedups)),
        ("mapreduce.records_in", totals.records_in as f64),
        ("mapreduce.bytes_shuffled", totals.bytes_shuffled as f64),
        ("mapreduce.bytes_moved", totals.bytes_moved as f64),
        ("mapreduce.value_allocs", totals.value_allocs as f64),
        ("mapreduce.stages", totals.stages as f64),
        ("mapreduce.shuffles", totals.shuffles as f64),
        (
            "mapreduce.arena_hwm_mb",
            totals.arena_hwm_bytes as f64 / (1u64 << 20) as f64,
        ),
        ("mapreduce.parallelize_ns_per_record", probe.parallelize_ns),
        (
            "mapreduce.reduce_by_key_ns_per_record",
            probe.reduce_by_key_ns,
        ),
        ("mapreduce.join_ns_per_record", probe.join_ns),
        ("runtime.tasks_submitted", rt.submitted as f64),
        ("runtime.steals", rt.steals as f64),
        ("runtime.parks", rt.parks as f64),
        ("runtime.max_queue_depth", rt.max_queue_depth as f64),
        ("runtime.worker_busy_ms", rt.worker_busy_ns as f64 / 1e6),
        ("runtime.parallel_for_us", probe.parallel_for_us),
        ("runtime.par2_speedup", ratio(untraced_cal_s, par2_cal_s)),
        ("casperd.hit_us_inproc", probe.hit_us_inproc),
        ("casperd.proto_us", probe.proto_us),
        ("casperd.render_ms", probe.render_ms),
        ("casperd.invalidate_ms", probe.invalidate_ms),
        ("casperd.hot_p50_cal_us", probe.hot_p50_cal_us),
        ("casperd.hot_p99_cal_us", probe.hot_p99_cal_us),
        ("casperd.hits", probe.hits as f64),
        ("casperd.misses", probe.misses as f64),
        ("casperd.evictions", probe.evictions as f64),
        ("casperd.cache_bytes", probe.cache_bytes as f64),
        ("casperd.payload_bytes", probe.payload_bytes as f64),
        ("casper.translate_ms", whole("casper.translate")),
        ("casper.residual_ms", own("casper.translate")),
        ("trip.total_cal_ms", translate_cal_ms + execute_cal_ms),
        ("cal.kernel_ms", median(&kernel)),
        (
            "raw.pass_s",
            median(
                &untraced
                    .iter()
                    .map(PassRecord::wall_s)
                    .collect::<Vec<f64>>(),
            ),
        ),
        ("raw.setup_s", raw_setup_s),
        ("trace.coverage", trace::coverage(&spans)),
        ("trace.overhead", ratio(traced_same, untraced_same)),
    ];

    let dir = out_dir();
    let trace_path = dir.join(format!("trace-{}.jsonl", kind.name()));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| trace::write_jsonl(&trace_path, &spans))
    {
        eprintln!("benchmark: could not write {}: {e}", trace_path.display());
    }

    let self_table = Json::Obj(
        self_ms
            .iter()
            .map(|(name, ms)| (name.to_string(), Json::Num(*ms)))
            .collect(),
    );
    Ok(Outcome {
        workload: kind.name(),
        traced: true,
        seed,
        attempted,
        failures,
        metrics: values,
        passes: traced_passes.len(),
        setups: 1,
        kernel_ms: median(&kernel),
        detail: vec![
            ("span_self_ms".to_string(), self_table),
            ("spans".to_string(), Json::Num(spans.len() as f64)),
            (
                "trace_file".to_string(),
                Json::str(trace_path.display().to_string()),
            ),
        ],
    })
}

/// Per executed operation: interpreter seconds over the median `run` seconds.
fn speedups_vs_interp(exec: &Execute, passes: &[PassRecord], oracle: &Oracle) -> Vec<f64> {
    let run_ms: Vec<f64> = (0..exec.ops.len())
        .map(|i| median(&passes.iter().map(|p| p.op_ms[i]).collect::<Vec<f64>>()))
        .collect();
    exec.ops
        .iter()
        .zip(run_ms)
        .filter_map(|(op, ms)| {
            let interp_s = *oracle.op_s.get(&op.name)?;
            (ms > 0.0 && interp_s > 0.0).then(|| interp_s * 1e3 / ms)
        })
        .collect()
}

/// The search's and the verifier's own counts, summed over the reports.
#[derive(Default)]
struct SearchSums {
    fragments: u64,
    generated: u64,
    deduped: u64,
    checked: u64,
    sent: u64,
    rejections: u64,
    counter_examples: u64,
    classes: u64,
    verifier_calls: u64,
    verifier_cache_hits: u64,
    generated_loc: u64,
}

fn sum_search(reports: &[(Benchmark, Arc<TranslationReport>)]) -> SearchSums {
    let mut sums = SearchSums::default();
    for f in reports.iter().flat_map(|(_, r)| &r.fragments) {
        sums.fragments += 1;
        sums.generated += f.search.candidates_generated;
        sums.deduped += f.search.candidates_deduped;
        sums.checked += f.search.candidates_checked;
        sums.sent += f.search.sent_to_verifier;
        sums.rejections += f.search.verifier_rejections;
        sums.counter_examples += f.search.counter_examples;
        sums.classes += f.search.classes_explored as u64;
        sums.verifier_calls += f.verdict_cache_hits + f.verdict_cache_misses;
        sums.verifier_cache_hits += f.verdict_cache_hits;
        sums.generated_loc += f.generated_loc() as u64;
    }
    sums
}
