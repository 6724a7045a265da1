//! `bench` — the paper-facing evaluation harness.
//!
//! One binary per table/figure (see DESIGN.md §4); this library holds the
//! shared machinery: translate a benchmark, execute the generated program
//! and the sequential baseline on the same data, extrapolate the measured
//! stage volumes to paper-scale datasets, and price both on the simulated
//! cluster (§7's 10× m3.2xlarge).

use std::sync::Arc;
use std::time::Duration;

use analyzer::fragment::Fragment;
use analyzer::identify_fragments;
use casper::report::FailureReason;
use casper::{Casper, CasperConfig, FragmentOutcome};
use mapreduce::sim::{simulate_job, simulate_sequential, speedup};
use mapreduce::{ClusterSpec, Context, Framework};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqlang::env::Env;
use seqlang::value::{approx_eq, Value};
use suites::Benchmark;
use synthesis::FindConfig;

/// Sample size used for measurement runs (records in the primary input).
pub const MEASURE_N: usize = 1500;

/// Compiler configuration for harness sweeps: short timeout so the
/// exhausted-search failure class terminates quickly.
pub fn sweep_config() -> CasperConfig {
    CasperConfig {
        find: FindConfig {
            timeout: Duration::from_secs(12),
            max_solutions: 6,
            top_k: 6,
            ..FindConfig::default()
        },
        ..CasperConfig::default()
    }
}

/// Result of translating + measuring one benchmark.
pub struct BenchRun {
    pub name: &'static str,
    pub suite: suites::Suite,
    pub identified: usize,
    pub translated: usize,
    /// Theorem-prover rejections across the benchmark's fragments.
    pub tp_failures: u64,
    pub compile_time: Duration,
    /// Full-verification wall clock across the benchmark's fragments.
    pub verify_wall: Duration,
    /// Full-verification CPU time (serial wall + verifier worker busy).
    pub verify_cpu: Duration,
    /// Verdict-cache hits across the benchmark's fragments.
    pub verdict_cache_hits: u64,
    /// Verdict-cache misses (full verifications) across the fragments.
    pub verdict_cache_misses: u64,
    /// LOC of the primary fragment and its generated code, MR op count.
    pub fragment_loc: usize,
    pub generated_loc: usize,
    pub ops: usize,
    /// Simulated speedup over sequential per framework (primary fragment).
    pub speedup: Option<FrameworkSpeedups>,
    /// Engine output matched the sequential semantics.
    pub output_correct: bool,
    /// Every fragment of this benchmark that failed to translate, with
    /// its classified failure reason (the table-1 failure ledger).
    pub failures: Vec<FragmentFailure>,
    /// Pool label the translation's parallel phases ran on.
    pub runtime_mode: &'static str,
    /// Persistent-executor counter deltas for the whole translation —
    /// the raw material of table 1's per-suite runtime ledger.
    pub runtime_stats: casper_runtime::ExecutorStats,
    /// Optimizer decisions for the primary fragment — the raw material
    /// of table 1's per-suite tuning ledger. `None` when the primary
    /// fragment did not translate or could not be measured.
    pub tuning: Option<TuningRun>,
}

/// What the cost-based optimizer did for one benchmark's primary
/// fragment: how many verified candidates it had to choose from, which
/// one it ran, and how its prediction compared with the cost observed
/// from the recorded stage statistics.
pub struct TuningRun {
    /// Verified summaries that survived pruning and were lowered into
    /// runnable plan variants.
    pub candidates_verified: usize,
    /// `FindConfig::top_k` the sweep ran with (the candidate budget).
    pub top_k: usize,
    /// Variant index the cost model picked before execution (0 = the
    /// first-verified plan, i.e. what a k=1 search would have run).
    pub picked: usize,
    /// The optimizer departed from the first-verified plan — either at
    /// choice time (`picked != 0`) or via a mid-run re-tune.
    pub switched: bool,
    /// Predicted variant-controlled cost for the running plan, seconds
    /// on the simulated paper cluster.
    pub predicted_s: f64,
    /// The same cost priced from the stage statistics the run actually
    /// recorded.
    pub observed_s: f64,
}

/// One untranslated fragment and why it was left behind.
pub struct FragmentFailure {
    pub func: String,
    pub loc: usize,
    pub reason: FailureReason,
    /// Candidates the search escalated to the full verifier before the
    /// fragment was abandoned — distinguishes "nothing plausible in the
    /// grammar" from "plausible candidates kept failing verification".
    pub sent_to_verifier: u64,
}

impl FragmentFailure {
    /// The ledger's failure-class bucket. `SearchExhausted` splits on
    /// whether the search ever escalated a candidate: if the verifier saw
    /// candidates and rejected them all, the gap is on the verification
    /// side (too-weak invariant grammar / bounded model); if nothing was
    /// ever plausible enough to escalate, the summary grammar itself has
    /// the hole.
    pub fn class(&self) -> &'static str {
        match self.reason {
            FailureReason::InnerDataLoop => "grammar hole",
            FailureReason::UnmodeledMethod => "domain hole",
            FailureReason::Timeout => "timeout",
            FailureReason::SearchExhausted => {
                if self.sent_to_verifier > 0 {
                    "verifier gap"
                } else {
                    "grammar hole"
                }
            }
        }
    }
}

impl BenchRun {
    /// Fraction of the benchmark's verifications the verdict cache
    /// absorbed.
    pub fn verdict_cache_hit_ratio(&self) -> f64 {
        casper::report::hit_ratio(self.verdict_cache_hits, self.verdict_cache_misses)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct FrameworkSpeedups {
    pub spark: f64,
    pub hadoop: f64,
    pub flink: f64,
    /// Simulated sequential and Spark runtimes, seconds.
    pub sequential_s: f64,
    pub spark_s: f64,
}

/// Translate one benchmark and measure its primary fragment.
pub fn run_benchmark(b: &Benchmark, config: &CasperConfig) -> BenchRun {
    let report = Casper::new(config.clone())
        .translate_source(b.source)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let identified = report.identified_count();
    let translated = report.translated_count();
    let tp_failures = report.total_tp_failures();
    let compile_time = report.total_compile_time();
    let verify_wall = report.total_verify_wall();
    let verify_cpu = report.total_verify_cpu();
    let verdict_cache_hits = report.total_verdict_cache_hits();
    let verdict_cache_misses = report.total_verdict_cache_misses();
    let failures = report
        .fragments
        .iter()
        .filter_map(|f| match &f.outcome {
            FragmentOutcome::Failed(reason) => Some(FragmentFailure {
                func: f.func.clone(),
                loc: f.loc,
                reason: reason.clone(),
                sent_to_verifier: f.search.sent_to_verifier,
            }),
            FragmentOutcome::Translated { .. } => None,
        })
        .collect();

    let mut fragment_loc = 0;
    let mut generated_loc = 0;
    let mut ops = 0;
    let mut speedups = None;
    let mut output_correct = true;
    let mut tuning = None;

    if let Some(frag_report) = report.for_function(b.func) {
        fragment_loc = frag_report.loc;
        generated_loc = frag_report.generated_loc();
        ops = frag_report.op_count();
        if let FragmentOutcome::Translated { program, .. } = &frag_report.outcome {
            if let Some((frag, state, entry)) = measurement_inputs(b) {
                let (sp, ok) = measure(b, &frag, &state, &entry, program);
                speedups = sp;
                output_correct = ok;
                tuning = measure_tuning(program, &entry, config.find.top_k);
            }
        }
    }

    BenchRun {
        name: b.name,
        suite: b.suite,
        identified,
        translated,
        tp_failures,
        compile_time,
        verify_wall,
        verify_cpu,
        verdict_cache_hits,
        verdict_cache_misses,
        fragment_loc,
        generated_loc,
        ops,
        speedup: speedups,
        output_correct,
        failures,
        runtime_mode: report.runtime_mode,
        runtime_stats: report.runtime_stats,
        tuning,
    }
}

/// The primary fragment and the two states a measurement needs: the raw
/// generator state, which the sequential ground truth runs from
/// ([`Fragment::run_with_work`] executes the init statements itself), and
/// the state at the loop's entry, which a generated program runs from —
/// its free variables and output pre-values are bound by those init
/// statements.
fn measurement_inputs(b: &Benchmark) -> Option<(Fragment, Env, Env)> {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let state = (b.gen)(&mut rng, MEASURE_N);
    let source_program = Arc::new(seqlang::compile(b.source).expect("compiles"));
    let frag = identify_fragments(&source_program)
        .into_iter()
        .find(|f| f.func == b.func)?;
    let entry = frag.pre_loop_state(&state).ok()?;
    Some((frag, state, entry))
}

/// Run the primary fragment once through the tuned driver to record the
/// optimizer's decision trail: the variant it picked, and predicted vs
/// observed variant-controlled cost on the paper cluster.
fn measure_tuning(
    program: &codegen::GeneratedProgram,
    entry: &Env,
    top_k: usize,
) -> Option<TuningRun> {
    let ctx = Context::with_parallelism(4, 8);
    ctx.reset_stats();
    let mut cache = codegen::ProgramCache::new();
    let mut tuning = codegen::TuningState::new();
    program
        .run_tuned(&ctx, entry, &mut cache, &mut tuning)
        .ok()?;
    let d = tuning.trace.first()?;
    Some(TuningRun {
        candidates_verified: program.variants.len(),
        top_k,
        picked: d.running,
        switched: d.running != 0 || d.switched_to.is_some(),
        predicted_s: d.predicted_seconds,
        observed_s: d.observed_seconds,
    })
}

/// Execute the generated program and the sequential fragment on the same
/// data; extrapolate to paper scale and simulate.
fn measure(
    b: &Benchmark,
    frag: &Fragment,
    state: &Env,
    entry: &Env,
    program: &codegen::GeneratedProgram,
) -> (Option<FrameworkSpeedups>, bool) {
    // Sequential ground truth + abstract work.
    let Ok((post, iterations)) = frag.run_with_work(state) else {
        return (None, true);
    };
    let expected = frag.project_outputs(&post);

    // Engine execution, from the loop's entry.
    let ctx = Context::with_parallelism(4, 8);
    ctx.reset_stats();
    let Ok((got, _choice)) = program.run(&ctx, entry) else {
        return (None, false);
    };
    let mut correct = true;
    for (name, want) in expected.iter() {
        let ok = got
            .get(name)
            .map(|have| outputs_equal(want, have))
            .unwrap_or(false);
        if !ok {
            correct = false;
        }
    }

    // Scale measured volumes to the paper-sized dataset and price.
    let stats = ctx.stats();
    let n_measured = frag.data_len(state).max(1) as f64;
    let factor = b.paper_scale as f64 / n_measured;
    let scaled = stats.scaled(factor);
    let spec = ClusterSpec::paper();

    let per_record_iters = iterations as f64 / n_measured;
    let seq_work = (per_record_iters * b.paper_scale as f64) as u64;
    let input_bytes: u64 = frag
        .data_vars
        .iter()
        .filter_map(|dv| state.get(&dv.name).map(Value::size_bytes))
        .sum();
    let seq_input = (input_bytes as f64 * factor) as u64;
    let seq = simulate_sequential(seq_work, seq_input, &spec);

    let spark = simulate_job(&scaled, &spec, Framework::Spark);
    let hadoop = simulate_job(&scaled, &spec, Framework::Hadoop);
    let flink = simulate_job(&scaled, &spec, Framework::Flink);

    (
        Some(FrameworkSpeedups {
            spark: speedup(seq, spark),
            hadoop: speedup(seq, hadoop),
            flink: speedup(seq, flink),
            sequential_s: seq.seconds,
            spark_s: spark.seconds,
        }),
        correct,
    )
}

/// Output comparison: multiset semantics for lists, tolerance for floats.
pub fn outputs_equal(want: &Value, have: &Value) -> bool {
    match (want, have) {
        (Value::List(a), Value::List(b)) => {
            if a.len() != b.len() {
                return false;
            }
            let mut sa = a.clone();
            let mut sb = b.clone();
            sa.sort();
            sb.sort();
            sa.iter().zip(&sb).all(|(x, y)| approx_eq(x, y, 1e-6))
        }
        _ => approx_eq(want, have, 1e-6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suites::all_benchmarks;

    #[test]
    fn sum_benchmark_translates_and_speeds_up() {
        let b = all_benchmarks()
            .into_iter()
            .find(|b| b.name == "ariths/sum")
            .unwrap();
        let run = run_benchmark(&b, &sweep_config());
        assert_eq!(run.identified, 1);
        assert_eq!(run.translated, 1);
        assert!(run.output_correct);
        let sp = run.speedup.expect("measured");
        assert!(
            sp.spark > 2.0,
            "cluster should win at 2B records: {}",
            sp.spark
        );
        assert!(sp.spark > sp.hadoop, "Spark beats Hadoop");
    }

    /// These three read a free variable or an output pre-value that only
    /// the fragment's init statements bind, so they execute correctly
    /// only from the loop's entry state.
    #[test]
    fn programs_needing_init_statements_measure_correctly() {
        for name in [
            "biglambda/allpairs_maxdiff",
            "sessionize/peak_bytes",
            "iterative/pagerank_update",
        ] {
            let b = all_benchmarks()
                .into_iter()
                .find(|b| b.name == name)
                .unwrap_or_else(|| panic!("{name} is in the registry"));
            let run = run_benchmark(&b, &sweep_config());
            assert!(run.translated >= 1, "{name} translates");
            assert!(run.output_correct, "{name}: output_correct");
            assert!(run.speedup.is_some(), "{name}: speedup measured");
        }
    }

    #[test]
    fn inexpressible_benchmark_reports_zero_translations() {
        let b = all_benchmarks()
            .into_iter()
            .find(|b| b.name == "stats/convolve")
            .unwrap();
        let run = run_benchmark(&b, &sweep_config());
        assert_eq!(run.translated, 0);
    }
}
