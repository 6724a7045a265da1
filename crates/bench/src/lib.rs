//! `bench` — the paper-facing evaluation harness.
//!
//! The `reproduce` binary runs §7's evaluation and prints it as one
//! checked [`Report`]; this library holds the shared machinery: translate
//! a benchmark, execute the generated program and the sequential baseline
//! on the same data, extrapolate the measured stage volumes to
//! paper-scale datasets, and price both on the simulated cluster (§7's
//! 10× m3.2xlarge). The plans §7.2 compares Casper's against live in
//! [`baselines`].

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use analyzer::fragment::FragmentFeatures;
use analyzer::identify_fragments;
use casper::report::FailureReason;
use casper::{Casper, CasperConfig, FragmentOutcome};
use codegen::GeneratedProgram;
use mapreduce::sim::{simulate_job, simulate_sequential, speedup};
use mapreduce::{ClusterSpec, Context, Framework};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqlang::value::{approx_eq, Value};
use suites::Benchmark;
use synthesis::FindConfig;

pub mod baselines;

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
    /// LOC of the primary fragment's generated code, and its MR op count.
    pub generated_loc: usize,
    pub ops: usize,
    /// Simulated speedup over sequential per framework (primary fragment).
    pub speedup: Option<FrameworkSpeedups>,
    /// Engine output matched the sequential semantics.
    pub output_correct: bool,
    /// Every fragment of this benchmark that failed to translate, with
    /// its classified failure reason (the table-1 failure ledger).
    pub failures: Vec<FragmentFailure>,
    /// Syntactic features of the fragments in the benchmark's function
    /// (Appendix E.1).
    pub features: Vec<FragmentFeatures>,
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
    let primary = report.for_function(b.func);
    let (speedup, output_correct) = match primary.map(|f| &f.outcome) {
        Some(FragmentOutcome::Translated { program, .. }) => measure(b, program),
        _ => (None, true),
    };
    let failures = report.fragments.iter().filter_map(|f| match &f.outcome {
        FragmentOutcome::Failed(reason) => Some(FragmentFailure {
            func: f.func.clone(),
            loc: f.loc,
            reason: reason.clone(),
            sent_to_verifier: f.search.sent_to_verifier,
        }),
        FragmentOutcome::Translated { .. } => None,
    });
    let in_func = report.fragments.iter().filter(|f| f.func == b.func);
    BenchRun {
        name: b.name,
        suite: b.suite,
        identified: report.identified_count(),
        translated: report.translated_count(),
        tp_failures: report.total_tp_failures(),
        compile_time: report.total_compile_time(),
        generated_loc: primary.map_or(0, |f| f.generated_loc()),
        ops: primary.map_or(0, |f| f.op_count()),
        speedup,
        output_correct,
        failures: failures.collect(),
        features: in_func.map(|f| f.features).collect(),
    }
}

/// Execute the generated program and the sequential fragment on the same
/// data, then extrapolate both to paper scale and price them. The
/// sequential ground truth runs from the generator's state
/// ([`analyzer::fragment::Fragment::run_with_work`] executes the init statements itself); the
/// generated program runs from the loop's entry, where those statements
/// have bound its free variables and output pre-values.
fn measure(b: &Benchmark, program: &GeneratedProgram) -> (Option<FrameworkSpeedups>, bool) {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let state = (b.gen)(&mut rng, MEASURE_N);
    let source = Arc::new(seqlang::compile(b.source).expect("compiles"));
    let mut fragments = identify_fragments(&source).into_iter();
    let Some(frag) = fragments.find(|f| f.func == b.func) else {
        return (None, true);
    };
    let (Ok(entry), Ok((post, iterations))) =
        (frag.pre_loop_state(&state), frag.run_with_work(&state))
    else {
        return (None, true);
    };
    // The monitor's choice, run on the engine: `run` would answer an input
    // this small from the monitor's sample and record no stage to price.
    let ctx = Context::with_parallelism(4, 8);
    let plan = &program.variants[program.choose(&entry).chosen].plan;
    let Ok(got) = plan.execute(&ctx, &entry) else {
        return (None, false);
    };
    let expected = frag.project_outputs(&post);
    let correct = expected
        .iter()
        .all(|(name, want)| got.get(name).is_some_and(|have| outputs_equal(want, have)));

    // Scale measured volumes to the paper-sized dataset and price. A job
    // that recorded no stage has nothing to price.
    if ctx.stats().stages.is_empty() {
        return (None, correct);
    }
    let n_measured = frag.data_len(&state).max(1) as f64;
    let factor = b.paper_scale as f64 / n_measured;
    let spec = ClusterSpec::paper();
    let seq_work = (iterations as f64 / n_measured * b.paper_scale as f64) as u64;
    let data = frag.data_vars.iter().filter_map(|dv| state.get(&dv.name));
    let input_bytes: u64 = data.map(Value::size_bytes).sum();
    let seq = simulate_sequential(seq_work, (input_bytes as f64 * factor) as u64, &spec);
    let scaled = ctx.stats().scaled(factor);
    let on = |framework| simulate_job(&scaled, &spec, framework);
    let (spark, hadoop, flink) = (
        on(Framework::Spark),
        on(Framework::Hadoop),
        on(Framework::Flink),
    );
    let speedups = FrameworkSpeedups {
        spark: speedup(seq, spark),
        hadoop: speedup(seq, hadoop),
        flink: speedup(seq, flink),
        sequential_s: seq.seconds,
        spark_s: spark.seconds,
    };
    (Some(speedups), correct)
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

/// How a reported value was obtained.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Priced by `mapreduce::sim` from stage volumes the engine recorded
    /// on a small input, scaled to the paper's dataset.
    Modelled,
    /// Wall clock on this machine.
    Measured,
    /// An exact count that does not depend on the machine.
    Counted,
}

/// The evaluation as one checked report. Each row gives the paper's value
/// as the evaluation quotes it ("—" where it quotes none), ours, how ours
/// was obtained, and the claim it checks where the paper gives the claim a
/// threshold. The report holds when every checked claim held.
#[derive(Default)]
pub struct Report {
    text: String,
    checked: usize,
    failed: Vec<String>,
}

impl Report {
    pub fn heading(&mut self, title: &str) {
        self.text.push_str(&format!("\n{title}\n"));
    }

    pub fn note(&mut self, note: &str) {
        self.text.push_str(&format!("    {note}\n"));
    }

    pub fn row(
        &mut self,
        item: &str,
        paper: &str,
        ours: &str,
        kind: Kind,
        claim: Option<(&str, bool)>,
    ) {
        let check = match claim {
            None => "—".to_string(),
            Some((claim, held)) => {
                self.checked += 1;
                if !held {
                    self.failed.push(item.to_string());
                }
                format!("{} {claim}", if held { "ok  " } else { "FAIL" })
            }
        };
        let kind = format!("{kind:?}").to_lowercase();
        let line = format!("  {item:<32} {paper:<20} {ours:<44} {kind:<9} {check}\n");
        self.text.push_str(&line);
    }

    /// Every checked claim held.
    pub fn holds(&self) -> bool {
        self.failed.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let failed = self.failed.len();
        write!(
            f,
            "{}\n{} claims checked, {failed} failed\n",
            self.text, self.checked
        )?;
        if failed > 0 {
            writeln!(f, "failed: {}", self.failed.join(", "))?;
        }
        Ok(())
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

    #[test]
    fn one_failed_claim_fails_the_report() {
        let mut report = Report::default();
        report.heading("Table");
        report.row("a", "1", "1", Kind::Counted, Some(("equal", true)));
        report.row("b", "—", "0.5 s", Kind::Measured, None);
        assert!(report.holds());
        report.row("c", "—", "2x", Kind::Modelled, Some(("faster", false)));
        assert!(!report.holds());
        let text = report.to_string();
        assert!(text.contains("FAIL faster"), "{text}");
        assert!(text.contains("2 claims checked, 1 failed"), "{text}");
    }
}
