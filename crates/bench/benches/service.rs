//! Service benchmark: drive concurrent clients through the `casperd`
//! line protocol over a mixed hot/cold request stream and write
//! `BENCH_service.json` — throughput (req/s), p50/p90/p99 latency,
//! cache hit ratio, persistent-executor counters, and a hot-vs-cold
//! latency split.
//!
//! Set `SERVICE_BENCH_REQUESTS` (default 48) to shrink the request
//! volume for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};

use casper::CasperConfig;
use casperd::{spawn_server, Client, TranslationService};
use suites::{suite_benchmarks, Suite};

/// Concurrent protocol clients in the load phase.
const CLIENTS: usize = 4;

/// Distinct source programs in the request mix — the Ariths suite head:
/// small fragments that translate fast and all succeed, so the bench
/// exercises the serving layer, not synthesis tail latency.
const SOURCES: usize = 4;

fn requests_knob() -> usize {
    std::env::var("SERVICE_BENCH_REQUESTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
        .max(SOURCES * 2) // at least one cold + one hot pass per source
}

fn sources() -> Vec<(&'static str, &'static str)> {
    suite_benchmarks(Suite::Ariths)
        .into_iter()
        .take(SOURCES)
        .map(|b| (b.name, b.source))
        .collect()
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

// ---------------------------------------------------------------------
// Load phase: concurrent protocol clients over a mixed hot/cold stream.

struct LoadResult {
    requests: usize,
    elapsed: Duration,
    latencies: Vec<Duration>,
    /// (source index, served-path, payload) per request, for the
    /// determinism check.
    outcomes: Vec<(usize, String, Vec<u8>)>,
}

fn drive_load(service: &Arc<TranslationService>, requests: usize) -> LoadResult {
    let addr = spawn_server(Arc::clone(service)).expect("bind loopback");
    let srcs: Arc<Vec<(&'static str, &'static str)>> = Arc::new(sources());
    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client_id| {
            let srcs = Arc::clone(&srcs);
            let share = requests / CLIENTS + usize::from(client_id < requests % CLIENTS);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut latencies = Vec::with_capacity(share);
                let mut outcomes = Vec::with_capacity(share);
                for i in 0..share {
                    // Round-robin over the sources, offset per client:
                    // the first request per source is cold (or coalesced
                    // with another client's), everything after hits the
                    // cache.
                    let src_idx = (client_id + i) % srcs.len();
                    let (_, src) = srcs[src_idx];
                    let t = Instant::now();
                    let reply = client.translate(src).expect("translate");
                    latencies.push(t.elapsed());
                    outcomes.push((src_idx, reply.served, reply.payload));
                }
                (latencies, outcomes)
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(requests);
    let mut outcomes = Vec::with_capacity(requests);
    for h in handles {
        let (l, o) = h.join().expect("client thread");
        latencies.extend(l);
        outcomes.extend(o);
    }
    LoadResult {
        requests,
        elapsed: started.elapsed(),
        latencies,
        outcomes,
    }
}

// ---------------------------------------------------------------------

/// Cache counters frozen at the end of the load phase, before the
/// hot-vs-cold probes and the criterion micro-bench touch the cache.
struct CacheSnapshot {
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
    hit_ratio: f64,
}

impl CacheSnapshot {
    fn of(service: &TranslationService) -> CacheSnapshot {
        CacheSnapshot {
            hits: service.cache.hits(),
            misses: service.cache.misses(),
            coalesced: service.cache.coalesced(),
            evictions: service.cache.evictions(),
            hit_ratio: service.cache.hit_ratio(),
        }
    }
}

fn write_artifact(
    load: &LoadResult,
    cache: &CacheSnapshot,
    exec: &casper_runtime::ExecutorStats,
    hot_cold: &[(f64, f64)],
) {
    let mut sorted = load.latencies.clone();
    sorted.sort();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let req_per_s = load.requests as f64 / load.elapsed.as_secs_f64().max(1e-9);

    let cold_ms_mean = hot_cold.iter().map(|(c, _)| c).sum::<f64>() / hot_cold.len() as f64;
    let hot_us_mean = hot_cold.iter().map(|(_, h)| h).sum::<f64>() * 1e3 / hot_cold.len() as f64;
    let hot_speedup = cold_ms_mean / (hot_us_mean / 1e3).max(1e-9);

    let json = format!(
        "{{\n  \"requests\": {},\n  \"clients\": {CLIENTS},\n  \"sources\": {},\n  \
         \"throughput_req_per_s\": {:.1},\n  \
         \"latency_ms\": {{\"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}}},\n  \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"coalesced\": {}, \"evictions\": {}, \
         \"hit_ratio\": {:.3}}},\n  \
         \"executor\": {{\"submitted\": {}, \"executed\": {}, \"steals\": {}, \"parks\": {}, \
         \"max_queue_depth\": {}, \"worker_busy_ms\": {:.1}}},\n  \
         \"hot_vs_cold\": {{\"cold_ms_mean\": {:.2}, \"hot_us_mean\": {:.1}, \
         \"hot_speedup\": {:.0}, \"meets_100x\": {}}}\n}}\n",
        load.requests,
        SOURCES,
        req_per_s,
        ms(percentile(&sorted, 0.50)),
        ms(percentile(&sorted, 0.90)),
        ms(percentile(&sorted, 0.99)),
        cache.hits,
        cache.misses,
        cache.coalesced,
        cache.evictions,
        cache.hit_ratio,
        exec.submitted,
        exec.executed,
        exec.steals,
        exec.parks,
        exec.max_queue_depth,
        exec.worker_busy_ns as f64 / 1e6,
        cold_ms_mean,
        hot_us_mean,
        hot_speedup,
        hot_speedup >= 100.0,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("service: wrote {path}"),
        Err(e) => println!("service: could not write {path}: {e}"),
    }
}

fn bench_service(c: &mut Criterion) {
    let requests = requests_knob();

    // -- Load phase over a fresh service; executor deltas bracket it.
    let service = Arc::new(TranslationService::new(
        CasperConfig::default().with_parallelism(2),
        64,
        64 << 20,
    ));
    let exec_before = casper_runtime::global().stats();
    let load = drive_load(&service, requests);
    let exec = casper_runtime::global().stats().since(&exec_before);
    let cache = CacheSnapshot::of(&service);

    // Determinism across the stream: every request for one source —
    // cold, coalesced, or cache hit — must serve identical bytes.
    let mut first_payload: std::collections::HashMap<usize, &Vec<u8>> =
        std::collections::HashMap::new();
    for (src_idx, served, payload) in &load.outcomes {
        let first = first_payload.entry(*src_idx).or_insert(payload);
        assert_eq!(
            *first, payload,
            "source {src_idx}: a {served} response diverged from the first response"
        );
    }
    let cold_count = load
        .outcomes
        .iter()
        .filter(|(_, served, _)| served == "cold")
        .count();
    let hit_count = load
        .outcomes
        .iter()
        .filter(|(_, served, _)| served == "hit")
        .count();
    assert!(
        cold_count <= SOURCES,
        "at most one cold translation per source (got {cold_count})"
    );
    assert!(hit_count > 0, "the stream must exercise the cache");

    println!(
        "service/load: {} requests, {} clients, {:.1} req/s, cache hit ratio {:.2}, \
         {} cold / {} hit / {} coalesced",
        load.requests,
        CLIENTS,
        load.requests as f64 / load.elapsed.as_secs_f64().max(1e-9),
        service.cache.hit_ratio(),
        cold_count,
        hit_count,
        service.cache.coalesced(),
    );

    // -- Hot vs cold: in-process service latency, per source. Cold wall
    // was recorded by the cache entry; hot is a fresh lookup now.
    let mut hot_cold = Vec::new();
    for (name, src) in &sources() {
        let t = Instant::now();
        let response = service.translate(src);
        let hot = t.elapsed();
        assert_eq!(
            response.served.name(),
            "hit",
            "{name}: expected a cache hit"
        );
        let cold = response.value.cold_wall;
        assert!(
            hot.as_secs_f64() * 100.0 <= cold.as_secs_f64(),
            "{name}: hot-cache path must be >= 100x faster than cold translation \
             (cold {:.2} ms, hot {:.1} us)",
            cold.as_secs_f64() * 1e3,
            hot.as_secs_f64() * 1e6,
        );
        hot_cold.push((cold.as_secs_f64() * 1e3, hot.as_secs_f64() * 1e3));
        println!(
            "service/hot_vs_cold {name}: cold {:.2} ms, hot {:.1} us ({:.0}x)",
            cold.as_secs_f64() * 1e3,
            hot.as_secs_f64() * 1e6,
            cold.as_secs_f64() / hot.as_secs_f64().max(1e-12),
        );
    }

    // Human-readable criterion entry: the hot serving path end to end.
    let (_, hot_src) = sources()[0];
    c.bench_function("service/hot_cache_translate", |b| {
        b.iter(|| service.translate(hot_src))
    });

    write_artifact(&load, &cache, &exec, &hot_cold);
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
