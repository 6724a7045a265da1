//! The probes of the traced run: single primitives of single layers, timed
//! directly through their public functions. They are the same in every
//! workload's traced run except that they work on that workload's programs,
//! so every workload reports every per-layer metric as a measured value.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use casper::{Casper, FragmentOutcome, TranslationReport};
use casper_ir::compile::{CompiledReduceLambda, CompiledSummary};
use casper_ir::lambda::ReduceLambda;
use casper_runtime::Priority;
use casperd::{Client, TranslationService};
use mapreduce::{BufRdd, Context};
use seqlang::ast::BinOp;
use seqlang::env::Env;
use seqlang::value::Value;
use suites::Benchmark;
use synthesis::{generate_classes, CandidateStream, Chunk, Grammar};

use crate::calib;
use crate::meter::{median, quantile, Meter};
use crate::programs;
use crate::workloads::{
    config, primary_fragment, ExecKind, Execute, Kind, Oracle, Translated, Workload, PARTITIONS,
};

/// Pairs and distinct keys of the `mapreduce` primitive probes.
const PAIRS: usize = 200_000;
const KEYS: usize = 512;
/// Hot requests of the `casperd` probe: in process, and in batches over TCP.
const HOT_INPROC: usize = 20_000;
const HOT_BATCHES: usize = 10;
const HOT_BATCH: usize = 1_000;

#[derive(Debug, Default)]
pub struct Probe {
    pub enumerate_ms: f64,
    pub ir_compile_us: f64,
    pub ir_eval_us: f64,
    pub cached_iter_ms: f64,
    pub uncached_iter_ms: f64,
    pub plan_cache_hits: u64,
    pub retunes: u64,
    pub parallelize_ns: f64,
    pub reduce_by_key_ns: f64,
    pub join_ns: f64,
    pub parallel_for_us: f64,
    pub hit_us_inproc: f64,
    pub proto_us: f64,
    pub render_ms: f64,
    pub invalidate_ms: f64,
    pub hot_p50_cal_us: f64,
    pub hot_p99_cal_us: f64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub cache_bytes: u64,
    pub payload_bytes: u64,
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// `synthesis`: the candidate stream alone, over the classes and the number
/// of candidates each program's search went through.
fn enumerate(reports: &[(Benchmark, Arc<TranslationReport>)]) -> Result<f64, String> {
    let classes = generate_classes();
    let nothing_blocked = HashSet::new();
    let mut total_ms = 0.0;
    for (b, report) in reports {
        let Some(search) = report.for_function(b.func).map(|f| &f.search) else {
            continue;
        };
        if search.candidates_generated == 0 {
            continue;
        }
        let fragment = primary_fragment(b)?;
        let started = Instant::now();
        let grammar = Grammar::for_fragment(&fragment);
        let mut remaining = search.candidates_generated as usize;
        for class in classes.iter().take(search.classes_explored) {
            let mut stream = CandidateStream::new(&grammar, class);
            let mut cursor = 0;
            while remaining > 0 {
                match stream.next_chunk(&mut cursor, remaining.min(64), &nothing_blocked) {
                    Chunk::Batch(batch) => remaining -= black_box(batch).len().min(remaining),
                    Chunk::AllBlocked => {}
                    Chunk::Exhausted => break,
                }
            }
        }
        total_ms += ms_since(started);
    }
    Ok(total_ms)
}

/// `ir`: lower each program's first verified summary, and evaluate it on a
/// small seeded pre-loop state.
fn ir(reports: &[(Benchmark, Arc<TranslationReport>)], seed: u64) -> Result<(f64, f64), String> {
    const REPEATS: usize = 10;
    let (mut compile_us, mut eval_us) = (Vec::new(), Vec::new());
    for (b, report) in reports {
        let Some(FragmentOutcome::Translated { summaries, .. }) =
            report.for_function(b.func).map(|f| &f.outcome)
        else {
            continue;
        };
        let Some(summary) = summaries.first() else {
            continue;
        };
        let started = Instant::now();
        for _ in 0..REPEATS {
            black_box(CompiledSummary::compile(black_box(summary)));
        }
        compile_us.push(ms_since(started) * 1e3 / REPEATS as f64);

        let compiled = CompiledSummary::compile(summary);
        let state = primary_fragment(b)?
            .pre_loop_state(&programs::input_state(b, seed, 16, None))
            .map_err(|e| format!("{}: pre-loop state: {e}", b.name))?;
        let started = Instant::now();
        for _ in 0..REPEATS {
            compiled
                .eval(black_box(&state))
                .map_err(|e| format!("{}: CompiledSummary::eval: {e}", b.name))?;
        }
        eval_us.push(ms_since(started) * 1e3 / REPEATS as f64);
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    Ok((mean(&compile_us), mean(&eval_us)))
}

/// `codegen`: an iterative driver with and without the plan cache, and the
/// tuner. Uses the workload's translations where it has them.
fn iteration(
    reports: &[(Benchmark, Arc<TranslationReport>)],
    seed: u64,
    probe: &mut Probe,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let casper = Casper::new(config(1));
    let mut translated = Vec::new();
    for bench in programs::named(&[programs::CACHED_LOOP, programs::TUNED_LOOP]) {
        let report = match reports.iter().find(|(b, _)| b.name == bench.name) {
            Some((_, report)) => Arc::clone(report),
            None => Arc::new(
                casper
                    .translate_source(bench.source)
                    .map_err(|e| format!("{}: {e}", bench.name))?,
            ),
        };
        translated.push(Translated { bench, report });
    }
    let mut exec = Execute::set_up(Kind::ExecuteSmall, seed, translated, &mut Oracle::default())?;

    // Plan-cache hits and re-tunes, with every output checked.
    let mut meter = Meter::new(Vec::new());
    exec.pass(&mut meter);
    failures.extend(
        meter
            .record
            .failures
            .iter()
            .map(|f| format!("iteration probe: {f}")),
    );
    probe.plan_cache_hits = exec.plan_cache_hits;
    probe.retunes = exec.retunes;

    let cached = exec
        .ops
        .iter()
        .find(|op| op.kind == ExecKind::CachedLoop)
        .ok_or("iteration probe: no cached loop")?;
    let program = exec.translated[cached.program].program()?;
    let ctx = Context::with_parallelism(1, PARTITIONS);
    let (mut with_cache, mut without) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        ctx.reset_stats();
        let mut cache = codegen::ProgramCache::new();
        let started = Instant::now();
        for state in &cached.states {
            black_box(
                program
                    .run_cached(&ctx, state, &mut cache)
                    .map_err(|e| e.to_string())?,
            );
        }
        with_cache.push(ms_since(started) / cached.states.len() as f64);
        ctx.reset_stats();
        let started = Instant::now();
        for state in &cached.states {
            black_box(program.run(&ctx, state).map_err(|e| e.to_string())?);
        }
        without.push(ms_since(started) / cached.states.len() as f64);
    }
    probe.cached_iter_ms = median(&with_cache);
    probe.uncached_iter_ms = median(&without);
    Ok(())
}

/// `mapreduce`: the three data-plane primitives on seeded pairs.
fn primitives(seed: u64, probe: &mut Probe) -> Result<(), String> {
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let pairs: Vec<(Value, Value)> = (0..PAIRS)
        .map(|_| {
            let r = next();
            (
                Value::str(format!("key{}", r as usize % KEYS)),
                Value::Int((r >> 40) as i64),
            )
        })
        .collect();
    let one_per_key: Vec<(Value, Value)> = (0..KEYS)
        .map(|k| (Value::str(format!("key{k}")), Value::Int(k as i64)))
        .collect();
    let add = CompiledReduceLambda::compile(&ReduceLambda::binop(BinOp::Add));
    let no_state = Env::new();

    let ctx = Context::with_parallelism(1, PARTITIONS);
    let (mut parallelize, mut reduce, mut join) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        ctx.reset_stats();
        let started = Instant::now();
        let rdd = BufRdd::parallelize_pairs(&ctx, &pairs);
        parallelize.push(ms_since(started));

        let started = Instant::now();
        let reduced = rdd
            .try_reduce_by_key(add.fast_combine(), |a, b| add.combine(a, b, &no_state))
            .map_err(|e| format!("reduce_by_key probe: {e}"))?;
        reduce.push(ms_since(started));
        if reduced.count() != KEYS as u64 {
            return Err(format!(
                "reduce_by_key probe: {} keys, expected {KEYS}",
                reduced.count()
            ));
        }

        let right = BufRdd::parallelize_pairs(&ctx, &one_per_key);
        let started = Instant::now();
        let joined = rdd.join_pairs(&right);
        join.push(ms_since(started));
        if joined.count() != PAIRS as u64 {
            return Err(format!(
                "join probe: {} rows, expected {PAIRS}",
                joined.count()
            ));
        }
    }
    let per_record_ns = |ms: &[f64]| median(ms) * 1e6 / PAIRS as f64;
    probe.parallelize_ns = per_record_ns(&parallelize);
    probe.reduce_by_key_ns = per_record_ns(&reduce);
    probe.join_ns = per_record_ns(&join);
    Ok(())
}

/// `runtime`: what handing an empty job to the pool and waiting for it costs.
fn parallel_for() -> f64 {
    const CALLS: usize = 10_000;
    let pool = casper_runtime::global();
    let started = Instant::now();
    for _ in 0..CALLS {
        pool.parallel_for(2, 2, Priority::Normal, &|i| {
            black_box(i);
        });
    }
    ms_since(started) * 1e3 / CALLS as f64
}

/// `casperd`: the service's own layers (cache, protocol, rendering,
/// invalidation), with translation taken out: the probe service's translator
/// hands back the reports the workload already produced.
fn service(
    reports: &[(Benchmark, Arc<TranslationReport>)],
    probe: &mut Probe,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let by_source: HashMap<String, Arc<TranslationReport>> = reports
        .iter()
        .map(|(b, r)| (b.source.to_string(), Arc::clone(r)))
        .collect();
    let sources: Vec<&str> = reports.iter().map(|(b, _)| b.source).collect();

    let started = Instant::now();
    let payloads: Vec<String> = reports
        .iter()
        .map(|(_, r)| casperd::render_report(r))
        .collect();
    probe.render_ms = ms_since(started);
    probe.payload_bytes = payloads.iter().map(|p| p.len() as u64).sum();

    let service = Arc::new(TranslationService::with_translator(
        config(1),
        1024,
        64 << 20,
        Box::new(move |src, _| Arc::clone(&by_source[src])),
    ));
    let addr =
        casperd::spawn_server(Arc::clone(&service)).map_err(|e| format!("spawn_server: {e}"))?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let fill = |client: &mut Client, failures: &mut Vec<String>| {
        for (src, payload) in sources.iter().zip(&payloads) {
            match client.translate(src) {
                Ok(reply) if reply.served == "cold" && reply.payload == payload.as_bytes() => {}
                _ => failures.push(
                    "service probe: cold request not served cold with the rendered payload".into(),
                ),
            }
        }
    };

    // Invalidation with the cache full, five times.
    let mut invalidate = Vec::new();
    for _ in 0..5 {
        fill(&mut client, failures);
        probe.cache_bytes = service.cache.bytes();
        let started = Instant::now();
        client.set_workers(1).map_err(|e| format!("CONFIG: {e}"))?;
        invalidate.push(ms_since(started));
    }
    probe.invalidate_ms = median(&invalidate);
    fill(&mut client, failures);

    let started = Instant::now();
    for i in 0..HOT_INPROC {
        black_box(service.translate(sources[i % sources.len()]));
    }
    probe.hit_us_inproc = ms_since(started) * 1e3 / HOT_INPROC as f64;

    let (mut raw_us, mut cal_us) = (Vec::new(), Vec::new());
    for batch in 0..HOT_BATCHES {
        let kernel_ms = calib::kernel_ms();
        for j in 0..HOT_BATCH {
            let i = (batch * HOT_BATCH + j) % sources.len();
            let started = Instant::now();
            let reply = client.translate(sources[i]);
            let us = started.elapsed().as_secs_f64() * 1e6;
            raw_us.push(us);
            cal_us.push(calib::calibrated(us, kernel_ms));
            if !reply.is_ok_and(|r| r.served == "hit" && r.payload == payloads[i].as_bytes()) {
                failures.push("service probe: hot request not a hit with the cold payload".into());
            }
        }
    }
    probe.hot_p50_cal_us = quantile(&cal_us, 0.5);
    probe.hot_p99_cal_us = quantile(&cal_us, 0.99);
    probe.proto_us = median(&raw_us) - probe.hit_us_inproc;
    probe.hits = service.cache.hits();
    probe.misses = service.cache.misses();
    probe.evictions = service.cache.evictions();
    Ok(())
}

pub fn run(
    reports: &[(Benchmark, Arc<TranslationReport>)],
    seed: u64,
    failures: &mut Vec<String>,
) -> Result<Probe, String> {
    let mut probe = Probe {
        enumerate_ms: enumerate(reports)?,
        parallel_for_us: parallel_for(),
        ..Probe::default()
    };
    (probe.ir_compile_us, probe.ir_eval_us) = ir(reports, seed)?;
    iteration(reports, seed, &mut probe, failures)?;
    primitives(seed, &mut probe)?;
    service(reports, &mut probe, failures)?;
    Ok(probe)
}
