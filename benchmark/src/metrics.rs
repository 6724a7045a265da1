//! Every metric the benchmark reports: name, unit, direction, bound, what it
//! measures and which end-to-end metric it is expected to move. `--list`
//! prints these tables, `BENCHMARK.json` repeats name, unit, direction and
//! bound (a test keeps the two equal), and the README explains them.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    /// End-to-end metrics only.
    pub bound: Option<f64>,
    pub what: &'static str,
}

/// A count the program makes itself: it must repeat exactly between two runs
/// of the same code, seed and workload.
pub const COUNT: &str = "count";

const fn e2e(name: &'static str, unit: &'static str, bound: f64, what: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        what,
    }
}

const fn lower(name: &'static str, unit: &'static str, what: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        what,
    }
}

const fn higher(name: &'static str, unit: &'static str, what: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        what,
    }
}

/// What a user of the system feels. Every workload reports every one, with
/// `--trace 0`. Times are calibrated (see `calib.rs`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("pass_cal_s", "s", 0.20, "one pass with every operation at its latency (the lower quartile over the timed passes of its calibrated time): the sum over the pass's operations"),
    e2e("op_geomean_cal_ms", "ms", 0.15, "geometric mean over operations of their latencies (cold requests only on serve_corpus; a loop is one operation)"),
    e2e("peak_rss_mb", "MB", 0.15, "VmHWM of the benchmark process at exit"),
    e2e("setup_s", "s", 0.25, "lower quartile of five set-ups, calibrated: inputs from the seed, translation (execute workloads), one warm-up pass; the oracle's reference outputs are not in it"),
];

/// One layer each (layer = crate name). Every workload reports every one,
/// with `--trace 1`; a layer the workload's own passes do not reach is reached
/// by the trip or a probe of the traced run. Times are raw wall time unless
/// the name says `cal`; `cal.kernel_ms` is the machine-speed stamp.
pub const PER_LAYER: &[MetricDef] = &[
    // seqlang
    lower("seqlang.compile_ms", "ms", "seqlang::compile (lex, parse, type-check) over the workload's sources"),
    lower("seqlang.source_bytes", COUNT, "bytes of source translated"),
    lower("seqlang.interp_ns_per_record", "ns", "the sequential interpreter computing the reference outputs: the baseline generated code is compared with"),
    // analyzer
    lower("analyzer.identify_ms", "ms", "analyzer::identify_fragments"),
    lower("analyzer.fragments", COUNT, "fragments identified"),
    // synthesis
    lower("synthesis.grammar_ms", "ms", "Grammar::for_fragment, as built once more for static costing"),
    lower("synthesis.search_ms", "ms", "find_summary minus the time inside the verify closure: grammar, enumeration, screening, dedup"),
    lower("synthesis.enumerate_ms", "ms", "CandidateStream driven alone over the classes and candidate count the search used"),
    lower("synthesis.candidates_generated", COUNT, "candidates streamed into screening"),
    lower("synthesis.candidates_deduped", COUNT, "candidates retired by observational-equivalence dedup"),
    lower("synthesis.candidates_checked", COUNT, "candidates screened against the bounded checker"),
    lower("synthesis.sent_to_verifier", COUNT, "candidates that passed screening"),
    lower("synthesis.counter_examples", COUNT, "counter-examples CEGIS accumulated"),
    lower("synthesis.classes_explored", COUNT, "grammar classes explored"),
    higher("synthesis.candidates_per_s", "1/s", "candidates_generated / search_ms: the rate that transfers to the searches left out for run length"),
    higher("synthesis.screen_yield", "ratio", "sent_to_verifier / candidates_checked: useful outcomes per screening attempt"),
    // verifier
    lower("verifier.new_ms", "ms", "building the verification basis (Verifier::basis), once per fragment that reaches verification"),
    lower("verifier.verify_ms", "ms", "Verifier::verify: inside the closure handed to find_summary plus the property-harvest re-verifications"),
    lower("verifier.calls", COUNT, "verifications, cache hits included"),
    lower("verifier.rejections", COUNT, "candidates the full verifier rejected"),
    higher("verifier.cache_hits", COUNT, "verifications served from the verdict cache"),
    lower("verifier.ms_per_miss", "ms", "verify_ms / verdict-cache misses"),
    higher("verifier.accept_ratio", "ratio", "share of candidates sent to the verifier that it accepted"),
    // ir
    lower("ir.compile_us_per_summary", "us", "CompiledSummary::compile on each program's first verified summary"),
    lower("ir.eval_us_per_state", "us", "CompiledSummary::eval on a seeded 16-record pre-loop state"),
    // cost
    lower("cost.static_ms", "ms", "static_cost + prune_dominated"),
    lower("cost.variants_kept", COUNT, "verified summaries kept by static pruning"),
    lower("cost.variants_pruned", COUNT, "verified summaries pruned as dominated"),
    // codegen
    lower("codegen.lower_ms", "ms", "CompiledPlan::new over the kept variants"),
    lower("codegen.emit_ms", "ms", "generated_code for the first variant"),
    lower("codegen.generated_loc", COUNT, "non-comment lines of generated code"),
    lower("codegen.choose_ms", "ms", "GeneratedProgram::choose: sample, estimate, price"),
    lower("codegen.choose_share", "ratio", "choose_ms / (choose_ms + execute_ms)"),
    lower("codegen.execute_ms", "ms", "CompiledPlan::execute on the chosen variant"),
    lower("codegen.ns_per_record", "ns", "execute_ms per primary input record"),
    lower("codegen.cached_iter_ms", "ms", "one run_cached iteration of iterative/pagerank_contribs at n = 500 (fresh ranks, same edges)"),
    lower("codegen.uncached_iter_ms", "ms", "the same iteration through run"),
    higher("codegen.plan_cache_hits", COUNT, "plan-cache hits over the ten cached iterations"),
    lower("codegen.retunes", COUNT, "mid-run re-tunes over ten run_tuned iterations of phoenix/string_match"),
    higher("codegen.speedup_vs_interp", "ratio", "geometric mean over executed programs of interpreter time / run time"),
    // mapreduce
    lower("mapreduce.records_in", COUNT, "records entering stages, one executed pass"),
    lower("mapreduce.bytes_shuffled", COUNT, "semantic shuffle bytes, one executed pass"),
    lower("mapreduce.bytes_moved", COUNT, "physical bytes copied between partition buffers, one executed pass"),
    lower("mapreduce.value_allocs", COUNT, "boxed Value materialisations, one executed pass"),
    lower("mapreduce.stages", COUNT, "stages recorded, one executed pass"),
    lower("mapreduce.shuffles", COUNT, "shuffle stages, one executed pass"),
    lower("mapreduce.arena_hwm_mb", "MB", "largest partition-arena high-water mark"),
    lower("mapreduce.parallelize_ns_per_record", "ns", "BufRdd::parallelize_pairs on 200 000 seeded pairs, 512 string keys"),
    lower("mapreduce.reduce_by_key_ns_per_record", "ns", "try_reduce_by_key (fast integer add) on those pairs"),
    lower("mapreduce.join_ns_per_record", "ns", "join_pairs of those pairs with one row per key"),
    // runtime
    lower("runtime.tasks_submitted", "tasks", "helper tasks submitted during one pass at 2 workers"),
    lower("runtime.steals", "tasks", "tasks stolen during that pass"),
    lower("runtime.parks", "parks", "times a pool worker went to sleep during that pass"),
    lower("runtime.max_queue_depth", "tasks", "high-water mark of queued tasks"),
    higher("runtime.worker_busy_ms", "ms", "pool-worker busy time during that pass"),
    lower("runtime.parallel_for_us", "us", "empty-body Executor::parallel_for, width 2, mean of 10 000"),
    higher("runtime.par2_speedup", "ratio", "the workload's pass at 1 worker / at 2 workers (informational on a 2-vCPU VM)"),
    // casperd
    lower("casperd.hit_us_inproc", "us", "TranslationService::translate on a cache hit, in process"),
    lower("casperd.proto_us", "us", "median TCP hot round trip minus the in-process hit: protocol and loopback"),
    lower("casperd.render_ms", "ms", "render_report over the workload's reports"),
    lower("casperd.invalidate_ms", "ms", "CONFIG round trip with the cache full (median of 5)"),
    lower("casperd.hot_p50_cal_us", "us", "median calibrated hot TRANSLATE round trip over loopback"),
    lower("casperd.hot_p99_cal_us", "us", "99th percentile of the same samples"),
    higher("casperd.hits", COUNT, "cache hits the probe service counted"),
    lower("casperd.misses", COUNT, "cache misses the probe service counted"),
    lower("casperd.evictions", COUNT, "evictions the probe service counted"),
    lower("casperd.cache_bytes", COUNT, "bytes the full cache accounts for"),
    lower("casperd.payload_bytes", COUNT, "bytes of all rendered payloads"),
    // casper
    lower("casper.translate_ms", "ms", "the whole stepped translation of the workload's sources"),
    lower("casper.residual_ms", "ms", "self time of the stepped translation: what no layer span under it covers"),
    lower("trip.total_cal_ms", "ms", "source to plan to records, calibrated: translate every source once, run every translated program once (n = 2 000, or the workload's scale)"),
    // harness
    lower("cal.kernel_ms", "ms", "median calibration-kernel time: the machine-speed stamp of the run"),
    lower("raw.pass_s", "s", "one untraced pass, raw wall seconds"),
    lower("raw.setup_s", "s", "the traced run's one set-up, raw wall seconds"),
    higher("trace.coverage", "ratio", "share of the traced operations' time their child spans cover"),
    lower("trace.overhead", "ratio", "traced pass / untraced pass over the same operations, calibrated"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The part of the name before the first dot names the layer.
pub fn layer(name: &str) -> &str {
    name.split_once('.')
        .map_or("end-to-end", |(layer, _)| layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// `BENCHMARK.json` is what the driver and `diff` read; the tables are
    /// what the program reports. They must say the same thing.
    #[test]
    fn benchmark_json_repeats_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = spec.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better.name()),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let kinds: Vec<&str> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(workloads, kinds);
    }
}
