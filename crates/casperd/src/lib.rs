//! `casperd` — the translation service.
//!
//! The ROADMAP's north star is a production-scale system serving heavy
//! translation traffic. This crate is the serving front over the
//! [`casper`] pipeline:
//!
//! - [`TranslationService`]: accepts source programs, returns verified
//!   plans rendered as a deterministic text payload, backed by a
//!   whole-pipeline [`TranslationCache`] keyed on
//!   `(source text, config generation)` — the proven `PlanCache` /
//!   verdict-cache pattern lifted to request level. LRU eviction with
//!   entry- and byte-bounds, hit/miss/coalesced counters, and
//!   invalidation by generation bump on config change.
//! - **In-flight dedup**: concurrent identical requests coalesce onto
//!   one translation; followers block on the leader's latch and are
//!   served the same payload, counted separately from cache hits.
//! - [`serve`] / [`spawn_server`]: a thread-per-connection line-protocol
//!   daemon (see the module docs of [`proto`]) — `cargo run -p casperd`
//!   binds it to a TCP port.
//!
//! Payloads are deterministic renderings (generated code + verified
//! summaries, no wall-clock noise), so a cache hit is byte-identical to
//! the cold path — asserted by the cache tests and the concurrency test
//! in `tests/parallel_consistency.rs`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

use casper::report::FragmentOutcome;
use casper::{Casper, CasperConfig, TranslationReport};

pub mod proto;

pub use proto::{serve, spawn_server, Client, TranslateReply};

/// Cache key: the source text plus the config generation the
/// translation ran under. Keys compare the whole text, so two programs
/// can never share an entry. A config change bumps the generation, making
/// every older entry unreachable (and purged eagerly).
pub type CacheKey = (Arc<str>, u64);

/// One cached translation: the rendered payload served to clients and
/// the full report behind it.
pub struct CachedTranslation {
    /// Deterministic rendering of the translation result (see
    /// [`render_report`]) — the bytes the protocol serves.
    pub payload: Arc<String>,
    /// The pipeline report the payload was rendered from.
    pub report: Arc<TranslationReport>,
    /// Wall-clock of the cold translation that produced this entry.
    pub cold_wall: std::time::Duration,
}

struct CacheEntry {
    value: Arc<CachedTranslation>,
    last_used: u64,
}

/// Monotone LRU clock + the bounded (source, generation) → translation
/// map. All mutation happens under one lock; eviction scans for the
/// stalest entry (caches are small — hundreds of programs, not
/// millions — so an O(n) scan beats maintaining an intrusive list).
struct CacheInner {
    map: HashMap<CacheKey, CacheEntry>,
    bytes: u64,
    tick: u64,
}

/// Whole-pipeline translation cache with LRU + size bounds and
/// hit/miss/coalesced counters. Shared by the service and its tests;
/// the daemon exposes the counters through `STATS`.
pub struct TranslationCache {
    inner: Mutex<CacheInner>,
    /// Maximum cached translations (LRU-evicted beyond this).
    pub max_entries: usize,
    /// Maximum summed payload bytes (LRU-evicted beyond this).
    pub max_bytes: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Requests that coalesced onto another request's in-flight
    /// translation instead of starting their own.
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

impl TranslationCache {
    pub fn new(max_entries: usize, max_bytes: u64) -> TranslationCache {
        TranslationCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            max_entries: max_entries.max(1),
            max_bytes: max_bytes.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up a translation, refreshing its LRU position. Counts a hit
    /// or a miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedTranslation>> {
        let mut inner = self.inner.lock().expect("translation cache");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a translation, LRU-evicting until both bounds hold.
    pub fn insert(&self, key: CacheKey, value: Arc<CachedTranslation>) {
        let mut inner = self.inner.lock().expect("translation cache");
        inner.tick += 1;
        let tick = inner.tick;
        let added = value.payload.len() as u64;
        if let Some(old) = inner.map.insert(
            key.clone(),
            CacheEntry {
                value,
                last_used: tick,
            },
        ) {
            inner.bytes -= old.value.payload.len() as u64;
        }
        inner.bytes += added;
        while inner.map.len() > self.max_entries
            || (inner.bytes > self.max_bytes && inner.map.len() > 1)
        {
            let stalest = inner
                .map
                .iter()
                .filter(|(k, _)| **k != key) // never evict the entry just written
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(stale_key) = stalest else { break };
            if let Some(entry) = inner.map.remove(&stale_key) {
                inner.bytes -= entry.value.payload.len() as u64;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drop every entry whose generation is not `current` — the
    /// invalidation sweep a config change triggers.
    pub fn invalidate_older_than(&self, current: u64) {
        let mut inner = self.inner.lock().expect("translation cache");
        let stale: Vec<CacheKey> = inner
            .map
            .keys()
            .filter(|(_, generation)| *generation != current)
            .cloned()
            .collect();
        for key in stale {
            if let Some(entry) = inner.map.remove(&key) {
                inner.bytes -= entry.value.payload.len() as u64;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().expect("translation cache").map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summed payload bytes currently cached.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().expect("translation cache").bytes
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Requests served by waiting on another request's in-flight
    /// translation.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)` — coalesced requests count toward
    /// neither (they were misses that someone else paid for).
    pub fn hit_ratio(&self) -> f64 {
        casper::report::hit_ratio(self.hits(), self.misses())
    }
}

/// The latch concurrent identical requests rendezvous on: the leader
/// translates and publishes, followers wait.
struct Inflight {
    result: Mutex<Option<Arc<CachedTranslation>>>,
    ready: Condvar,
}

/// How a request was served — the protocol reports this so clients and
/// the benchmark can split latencies by path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Translated by this request (cache miss).
    Cold,
    /// Served from the translation cache.
    CacheHit,
    /// Coalesced onto a concurrent identical request's translation.
    Coalesced,
}

impl Served {
    pub fn name(self) -> &'static str {
        match self {
            Served::Cold => "cold",
            Served::CacheHit => "hit",
            Served::Coalesced => "coalesced",
        }
    }
}

/// One service response.
pub struct Response {
    pub value: Arc<CachedTranslation>,
    pub served: Served,
    /// Config generation the payload was translated under.
    pub generation: u64,
}

type Translator = dyn Fn(&str, &CasperConfig) -> Arc<TranslationReport> + Send + Sync;

/// The translation service: config + generation, cache, in-flight
/// dedup, and the pipeline itself.
pub struct TranslationService {
    config: RwLock<CasperConfig>,
    generation: AtomicU64,
    pub cache: TranslationCache,
    inflight: Mutex<HashMap<CacheKey, Arc<Inflight>>>,
    translator: Box<Translator>,
}

impl TranslationService {
    /// A service over the real pipeline with the given bounds.
    pub fn new(config: CasperConfig, max_entries: usize, max_bytes: u64) -> TranslationService {
        TranslationService::with_translator(
            config,
            max_entries,
            max_bytes,
            Box::new(|src, config| {
                let report = Casper::new(config.clone())
                    .translate_source(src)
                    .unwrap_or_else(|_err| TranslationReport {
                        fragments: Vec::new(),
                        wall_time: std::time::Duration::ZERO,
                        runtime_mode: config.runtime.name(),
                        runtime_stats: Default::default(),
                    });
                Arc::new(report)
            }),
        )
    }

    /// A service with an injected translation function — the hook the
    /// dedup tests use to make the in-flight window deterministic.
    pub fn with_translator(
        config: CasperConfig,
        max_entries: usize,
        max_bytes: u64,
        translator: Box<Translator>,
    ) -> TranslationService {
        TranslationService {
            config: RwLock::new(config),
            generation: AtomicU64::new(0),
            cache: TranslationCache::new(max_entries, max_bytes),
            inflight: Mutex::new(HashMap::new()),
            translator,
        }
    }

    /// Current config generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Swap the pipeline config. Bumps the generation, making every
    /// cached translation unreachable, and purges them.
    pub fn set_config(&self, config: CasperConfig) {
        let mut guard = self.config.write().expect("service config");
        *guard = config;
        let current = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        drop(guard);
        self.cache.invalidate_older_than(current);
    }

    /// Translate a source program, serving from the cache or an
    /// in-flight identical request when possible.
    pub fn translate(&self, src: &str) -> Response {
        let generation = self.generation();
        let key: CacheKey = (Arc::from(src), generation);
        if let Some(value) = self.cache.get(&key) {
            return Response {
                value,
                served: Served::CacheHit,
                generation,
            };
        }

        // Miss: either lead a fresh translation or coalesce onto one.
        let (latch, leader) = {
            let mut inflight = self.inflight.lock().expect("inflight map");
            match inflight.get(&key) {
                Some(latch) => (Arc::clone(latch), false),
                None => {
                    let latch = Arc::new(Inflight {
                        result: Mutex::new(None),
                        ready: Condvar::new(),
                    });
                    inflight.insert(key.clone(), Arc::clone(&latch));
                    (latch, true)
                }
            }
        };

        if !leader {
            self.cache.coalesced.fetch_add(1, Ordering::Relaxed);
            let mut result = latch.result.lock().expect("inflight latch");
            while result.is_none() {
                result = latch.ready.wait(result).expect("inflight latch");
            }
            return Response {
                value: Arc::clone(result.as_ref().expect("published result")),
                served: Served::Coalesced,
                generation,
            };
        }

        let config = self.config.read().expect("service config").clone();
        let started = Instant::now();
        let report = (self.translator)(src, &config);
        let value = Arc::new(CachedTranslation {
            payload: Arc::new(render_report(&report)),
            report,
            cold_wall: started.elapsed(),
        });
        // Publish to the cache before waking followers, then retire the
        // latch so later requests go through the cache.
        self.cache.insert(key.clone(), Arc::clone(&value));
        *latch.result.lock().expect("inflight latch") = Some(Arc::clone(&value));
        latch.ready.notify_all();
        self.inflight.lock().expect("inflight map").remove(&key);
        Response {
            value,
            served: Served::Cold,
            generation,
        }
    }
}

/// Render a translation report as the deterministic text payload the
/// protocol serves: per-fragment outcome, verified summaries, variant
/// count, and generated code — everything that pins the
/// `GeneratedProgram`, nothing that varies run to run (no wall clocks,
/// no counters).
pub fn render_report(report: &TranslationReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fragments {} translated {}\n",
        report.identified_count(),
        report.translated_count()
    ));
    for fragment in &report.fragments {
        match &fragment.outcome {
            FragmentOutcome::Translated {
                summaries,
                program,
                code,
                dialect,
            } => {
                out.push_str(&format!(
                    "fragment {} func={} outcome=translated dialect={dialect:?} variants={}\n",
                    fragment.id,
                    fragment.func,
                    program.variants.len()
                ));
                for (i, summary) in summaries.iter().enumerate() {
                    out.push_str(&format!("summary {i}:\n"));
                    out.push_str(&casper_ir::pretty::pretty_summary(summary));
                    out.push('\n');
                }
                out.push_str("code:\n");
                out.push_str(code);
                out.push('\n');
            }
            FragmentOutcome::Failed(reason) => {
                out.push_str(&format!(
                    "fragment {} func={} outcome=failed reason={}\n",
                    fragment.id,
                    fragment.func,
                    reason.describe()
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    /// A fake translator that counts invocations and produces a payload
    /// derived from the source, so cache identity is checkable without
    /// running the pipeline.
    fn counting_service(
        max_entries: usize,
        max_bytes: u64,
        delay: std::time::Duration,
    ) -> (Arc<TranslationService>, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = Arc::clone(&calls);
        let service = TranslationService::with_translator(
            CasperConfig::default().with_parallelism(1),
            max_entries,
            max_bytes,
            Box::new(move |src, config| {
                calls2.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(delay);
                Arc::new(TranslationReport {
                    fragments: Vec::new(),
                    wall_time: std::time::Duration::from_micros(src.len() as u64),
                    runtime_mode: config.runtime.name(),
                    runtime_stats: Default::default(),
                })
            }),
        );
        (Arc::new(service), calls)
    }

    #[test]
    fn hit_returns_same_payload_and_counts() {
        let (service, calls) = counting_service(8, 1 << 20, std::time::Duration::ZERO);
        let cold = service.translate("fn a() -> int { return 1; }");
        assert_eq!(cold.served, Served::Cold);
        let hot = service.translate("fn a() -> int { return 1; }");
        assert_eq!(hot.served, Served::CacheHit);
        assert!(Arc::ptr_eq(&cold.value.payload, &hot.value.payload));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(service.cache.hits(), 1);
        assert_eq!(service.cache.misses(), 1);
    }

    #[test]
    fn lru_evicts_by_entries_and_bytes() {
        let (service, _) = counting_service(2, 1 << 20, std::time::Duration::ZERO);
        service.translate("a");
        service.translate("b");
        service.translate("a"); // refresh a
        service.translate("c"); // evicts b
        assert_eq!(service.cache.len(), 2);
        assert_eq!(service.cache.evictions(), 1);
        assert_eq!(service.translate("a").served, Served::CacheHit);
        assert_eq!(service.translate("b").served, Served::Cold);

        // Byte bound: every payload here is 25 bytes ("fragments 0
        // translated 0\n"); a 30-byte cap keeps exactly one entry.
        let (small, _) = counting_service(100, 30, std::time::Duration::ZERO);
        small.translate("x");
        small.translate("y");
        assert_eq!(small.cache.len(), 1);
        assert!(small.cache.bytes() <= 30);
    }

    #[test]
    fn config_change_invalidates() {
        let (service, calls) = counting_service(8, 1 << 20, std::time::Duration::ZERO);
        service.translate("src");
        assert_eq!(service.generation(), 0);
        service.set_config(CasperConfig::default().with_parallelism(2));
        assert_eq!(service.generation(), 1);
        assert_eq!(service.cache.len(), 0, "old-generation entries purged");
        let again = service.translate("src");
        assert_eq!(again.served, Served::Cold);
        assert_eq!(again.generation, 1);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn concurrent_identical_requests_coalesce_to_one_translation() {
        let n = 8;
        let (service, calls) = counting_service(8, 1 << 20, std::time::Duration::from_millis(50));
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let service = Arc::clone(&service);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let response = service.translate("identical source");
                    (response.served, Arc::clone(&response.value.payload))
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "exactly one translation for {n} concurrent identical requests"
        );
        let cold = results.iter().filter(|(s, _)| *s == Served::Cold).count();
        // The leader translates; every other request either coalesced
        // onto the in-flight latch or (arriving after publication) hit
        // the cache.
        assert_eq!(cold, 1);
        let first = &results[0].1;
        for (_, payload) in &results {
            assert!(Arc::ptr_eq(first, payload), "all served the same bytes");
        }
        assert_eq!(
            service.cache.coalesced() + service.cache.hits(),
            (n - 1) as u64
        );
    }
}
