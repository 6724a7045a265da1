//! The compilation pipeline: analyze → synthesize → verify → prune →
//! generate.
//!
//! Fragments translate one after another, in source order, and each
//! fragment's CEGIS search is one serial loop. Candidate screening runs on
//! the compiled evaluator with observational-equivalence dedup; the
//! per-fragment generated/deduped/screened counters surface through
//! [`FragmentReport::search`] and the [`TranslationReport`] aggregates.

use std::sync::Arc;
use std::time::Instant;

use analyzer::fragment::Fragment;
use analyzer::identify_fragments;
use casper_ir::mr::ProgramSummary;
use casper_runtime::RuntimeMode;
use codegen::{generated_code, CompiledPlan, Dialect, GeneratedProgram, Variant};
use cost::model::{prune_dominated, static_cost};
use cost::CostWeights;
use seqlang::error::Result;
use synthesis::{find_summary, FindConfig, FindOutcome, VerifierVerdict};
use verifier::{reducer_properties, Verifier, VerifyConfig};

use crate::report::{FailureReason, FragmentOutcome, FragmentReport, TranslationReport};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct CasperConfig {
    pub find: FindConfig,
    pub verify: VerifyConfig,
    /// Target dialect for generated code (plans run on the same engine;
    /// the dialect changes code text and simulator pricing).
    pub dialect: Dialect,
    /// Apply compile-time dominance pruning (§5.2).
    pub static_pruning: bool,
    pub weights: CostWeights,
    /// Label of the persistent work-stealing executor; read only to fill
    /// [`TranslationReport::runtime_mode`]. Translation submits no task
    /// to it.
    pub runtime: RuntimeMode,
}

impl Default for CasperConfig {
    fn default() -> Self {
        CasperConfig {
            find: FindConfig::default(),
            verify: VerifyConfig::default(),
            dialect: Dialect::Spark,
            static_pruning: true,
            weights: CostWeights::default(),
            runtime: RuntimeMode::default(),
        }
    }
}

/// Adapt one [`verifier::Verification`] into the verdict struct
/// `find_summary` consumes — the single mapping between the verifier's
/// answer and the search's, shared by the pipeline and the bench
/// harnesses.
pub fn search_verdict(v: &verifier::Verification) -> VerifierVerdict {
    VerifierVerdict {
        verified: v.result.verified,
        counter_example: v.result.counter_example.clone(),
    }
}

impl CasperConfig {
    /// Returns `self` unchanged: translation is serial, so there is no
    /// worker count to set. The benchmark still calls it, and it goes
    /// at the benchmark re-baseline (ROADMAP item 17).
    pub fn with_parallelism(self, _workers: usize) -> CasperConfig {
        self
    }
}

/// Report for a fragment rejected before any search ran.
fn failed(fragment: &Fragment, reason: FailureReason, started: Instant) -> FragmentReport {
    FragmentReport::new(
        fragment,
        FragmentOutcome::Failed(reason),
        Default::default(),
        started.elapsed(),
    )
}

/// The Casper compiler.
pub struct Casper {
    pub config: CasperConfig,
}

impl Casper {
    pub fn new(config: CasperConfig) -> Casper {
        Casper { config }
    }

    /// Translate every candidate fragment in a source program, in
    /// source order.
    ///
    /// ```
    /// use casper::{Casper, CasperConfig};
    ///
    /// let src = r#"
    ///     fn total(xs: list<int>) -> int {
    ///         let t: int = 0;
    ///         for (x in xs) { t = t + x; }
    ///         return t;
    ///     }
    /// "#;
    /// let casper = Casper::new(CasperConfig::default());
    /// let report = casper.translate_source(src).unwrap();
    /// assert_eq!(report.translated_count(), 1);
    /// ```
    pub fn translate_source(&self, src: &str) -> Result<TranslationReport> {
        let started = Instant::now();
        let program = Arc::new(seqlang::compile(src)?);
        let fragments = identify_fragments(&program)
            .iter()
            .map(|f| self.translate_fragment(f))
            .collect();
        Ok(TranslationReport {
            fragments,
            wall_time: started.elapsed(),
            runtime_mode: self.config.runtime.name(),
            runtime_stats: casper_runtime::ExecutorStats::default(),
        })
    }

    /// Translate a single fragment.
    pub fn translate_fragment(&self, fragment: &Fragment) -> FragmentReport {
        let started = Instant::now();

        // Fast structural failures (§7.1's taxonomy).
        if fragment.features.inner_data_loop {
            return failed(fragment, FailureReason::InnerDataLoop, started);
        }
        if fragment.features.unmodeled_method {
            return failed(fragment, FailureReason::UnmodeledMethod, started);
        }

        // One verification engine per fragment: the full-domain basis is
        // built once and shared by reference across every candidate the
        // search sends over. The search receives the engine itself — not
        // a domain config to rebuild per candidate.
        let verifier = Verifier::new(fragment, self.config.verify.clone());
        let full = |summary: &ProgramSummary| -> VerifierVerdict {
            search_verdict(&verifier.verify(summary))
        };
        let (outcome, search) = find_summary(fragment, &full, &self.config.find);
        let seal_verify = |report: &mut FragmentReport| {
            report.verify_wall = verifier.wall_time();
            report.verify_cpu = verifier.cpu_time();
            report.verdict_cache_hits = verifier.cache_hits();
            report.verdict_cache_misses = verifier.cache_misses();
        };
        let summaries = match outcome {
            FindOutcome::Found(s) => s,
            FindOutcome::TimedOut => {
                let mut report = FragmentReport::new(
                    fragment,
                    FragmentOutcome::Failed(FailureReason::Timeout),
                    search,
                    started.elapsed(),
                );
                seal_verify(&mut report);
                return report;
            }
            FindOutcome::Exhausted => {
                let mut report = FragmentReport::new(
                    fragment,
                    FragmentOutcome::Failed(FailureReason::SearchExhausted),
                    search,
                    started.elapsed(),
                );
                seal_verify(&mut report);
                return report;
            }
        };

        // Static cost pruning (§5.2): drop summaries dominated for every
        // probability assignment.
        let grammar = synthesis::Grammar::for_fragment(fragment);
        let type_of = |name: &str| grammar.type_of(name);
        let kept: Vec<ProgramSummary> = if self.config.static_pruning {
            let costed: Vec<(ProgramSummary, cost::SymCost)> = summaries
                .into_iter()
                .map(|s| {
                    let c = static_cost(&s, &type_of, &[], &self.config.weights);
                    (s, c)
                })
                .collect();
            prune_dominated(costed)
                .into_iter()
                .map(|(s, _)| s)
                .collect()
        } else {
            summaries
        };

        // Compile surviving variants: read each summary's CA properties
        // for primitive selection from its reducers' shape (every kept
        // summary was verified on its way into ∆), then lower it into a
        // fused, slot-resolved plan and build the monitor program. Plan
        // lowering is timed separately: it is the pay-once cost that buys
        // slot-resolved per-record execution.
        let mut variants = Vec::with_capacity(kept.len());
        let mut code = String::new();
        let mut plan_compile_time = std::time::Duration::ZERO;
        for (i, summary) in kept.iter().enumerate() {
            let reduce_properties = reducer_properties(summary);
            let lowering = Instant::now();
            let plan = CompiledPlan::new(summary.clone(), reduce_properties);
            plan_compile_time += lowering.elapsed();
            if i == 0 {
                code = generated_code(summary, &plan.reduce_props, self.config.dialect);
            }
            variants.push(Variant {
                name: format!("v{}", i + 1),
                plan,
            });
        }
        let program = GeneratedProgram::new(variants);

        let mut report = FragmentReport::new(
            fragment,
            FragmentOutcome::Translated {
                summaries: kept,
                program,
                code,
                dialect: self.config.dialect,
            },
            search,
            started.elapsed(),
        );
        report.plan_compile_time = plan_compile_time;
        seal_verify(&mut report);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_ir::mr::{MrExpr, OutputKind};
    use mapreduce::Context;
    use seqlang::env::Env;
    use seqlang::value::Value;

    fn casper() -> Casper {
        Casper::new(CasperConfig::default())
    }

    #[test]
    fn end_to_end_sum() {
        let src = r#"
            fn sum(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }
        "#;
        let report = casper().translate_source(src).unwrap();
        assert_eq!(report.identified_count(), 1);
        assert_eq!(report.translated_count(), 1);
        let frag = &report.fragments[0];
        let FragmentOutcome::Translated { program, code, .. } = &frag.outcome else {
            panic!("not translated");
        };
        assert!(code.contains("reduceByKey"), "{code}");

        // Execute the generated program and compare with the sequential
        // semantics.
        let ctx = Context::with_parallelism(4, 8);
        let mut state = Env::new();
        state.set("xs", Value::List((1..=100).map(Value::Int).collect()));
        state.set("s", Value::Int(0));
        let (out, _) = program.run(&ctx, &state).unwrap();
        assert_eq!(out.get("s"), Some(&Value::Int(5050)));
    }

    #[test]
    fn variant_reduce_props_are_the_verified_properties() {
        // The pipeline reads each kept summary's reducer properties from
        // their shape instead of verifying the summary again; they must
        // be the properties full verification reports for it.
        let registry = suites::all_benchmarks();
        for name in [
            "ariths/max",
            "phoenix/word_count",
            "phoenix/histogram3d",
            "tpch/q15_revenue_by_supplier",
            "clickstream/rank_above_history",
        ] {
            let bench = registry.iter().find(|b| b.name == name).expect(name);
            let report = casper().translate_source(bench.source).unwrap();
            let program = Arc::new(seqlang::compile(bench.source).unwrap());
            let fragments = identify_fragments(&program);
            for (fragment, fr) in fragments.iter().zip(&report.fragments) {
                let FragmentOutcome::Translated {
                    summaries, program, ..
                } = &fr.outcome
                else {
                    continue;
                };
                let verifier = Verifier::new(fragment, CasperConfig::default().verify);
                for (summary, variant) in summaries.iter().zip(&program.variants) {
                    let verified = verifier.verify(summary).result;
                    assert!(verified.verified, "{name}: kept summaries verify");
                    assert_eq!(
                        variant.plan.reduce_props, verified.reduce_properties,
                        "{name}: {}",
                        fr.id
                    );
                }
            }
        }
    }

    #[test]
    fn end_to_end_row_wise_mean() {
        // The paper's running example (Figure 1).
        let src = r#"
            fn rwm(mat: array<array<int>>, rows: int, cols: int) -> array<int> {
                let m: array<int> = new array<int>(rows);
                for (let i: int = 0; i < rows; i = i + 1) {
                    let sum: int = 0;
                    for (let j: int = 0; j < cols; j = j + 1) {
                        sum = sum + mat[i][j];
                    }
                    m[i] = sum / cols;
                }
                return m;
            }
        "#;
        let report = casper().translate_source(src).unwrap();
        assert_eq!(report.translated_count(), 1, "rwm must translate");
        let frag = &report.fragments[0];
        let FragmentOutcome::Translated {
            program, summaries, ..
        } = &frag.outcome
        else {
            panic!()
        };
        // The Figure 1 summary is a 3-operator pipeline.
        assert!(
            summaries.iter().any(|s| s.op_count() == 3),
            "{}",
            summaries.len()
        );

        let ctx = Context::with_parallelism(4, 8);
        let mut state = Env::new();
        state.set(
            "mat",
            Value::Array(vec![
                Value::Array(vec![Value::Int(2), Value::Int(4)]),
                Value::Array(vec![Value::Int(6), Value::Int(8)]),
                Value::Array(vec![Value::Int(1), Value::Int(1)]),
            ]),
        );
        state.set("rows", Value::Int(3));
        state.set("cols", Value::Int(2));
        state.set(
            "m",
            Value::Array(vec![Value::Int(0), Value::Int(0), Value::Int(0)]),
        );
        let (out, _) = program.run(&ctx, &state).unwrap();
        assert_eq!(
            out.get("m"),
            Some(&Value::Array(vec![
                Value::Int(3),
                Value::Int(7),
                Value::Int(1)
            ]))
        );
    }

    #[test]
    fn untranslatable_fragment_reports_reason() {
        let src = r#"
            fn wc(lines: list<string>) -> int {
                let n: int = 0;
                for (line in lines) {
                    for (w in line.split()) { n = n + 1; }
                }
                return n;
            }
        "#;
        let report = casper().translate_source(src).unwrap();
        assert_eq!(report.translated_count(), 0);
        let FragmentOutcome::Failed(reason) = &report.fragments[0].outcome else {
            panic!()
        };
        assert_eq!(*reason, FailureReason::InnerDataLoop);
    }

    #[test]
    fn word_count_translates_and_runs() {
        let src = r#"
            fn wc(words: list<string>) -> map<string,int> {
                let counts: map<string,int> = new map<string,int>();
                for (w in words) {
                    counts.put(w, counts.get_or(w, 0) + 1);
                }
                return counts;
            }
        "#;
        let report = casper().translate_source(src).unwrap();
        assert_eq!(report.translated_count(), 1, "WordCount must translate");
        let FragmentOutcome::Translated { program, .. } = &report.fragments[0].outcome else {
            panic!()
        };
        let ctx = Context::with_parallelism(4, 8);
        let mut state = Env::new();
        state.set(
            "words",
            Value::List(["a", "b", "a"].iter().map(Value::str).collect()),
        );
        state.set("counts", Value::Map(vec![]));
        let (out, _) = program.run(&ctx, &state).unwrap();
        let Value::Map(m) = out.get("counts").unwrap() else {
            panic!()
        };
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn multiple_variants_survive_for_stringmatch() {
        let src = r#"
            fn sm(text: list<string>, key1: string, key2: string) -> bool {
                let f1: bool = false;
                let f2: bool = false;
                for (w in text) {
                    if (w == key1) { f1 = true; }
                    if (w == key2) { f2 = true; }
                }
                return f1;
            }
        "#;
        let report = casper().translate_source(src).unwrap();
        assert_eq!(report.translated_count(), 1, "StringMatch must translate");
        let FragmentOutcome::Translated {
            summaries, program, ..
        } = &report.fragments[0].outcome
        else {
            panic!()
        };
        // §7.4: multiple semantically equivalent implementations exist and
        // survive static pruning (the skew-dependent family). At the
        // default `top_k` they are distinct plans, not copies of the first:
        // Fig. 8's solution (b), one tuple-valued pair per record, then
        // keyed (c)-family plans that emit one guarded pair per key.
        assert!(
            program.variants.len() >= 2,
            "need ≥ 2 variants for dynamic tuning, got {}",
            program.variants.len()
        );
        let text: Vec<String> = summaries
            .iter()
            .map(casper_ir::pretty::pretty_summary)
            .collect();
        assert_eq!(
            summaries[0].bindings[0].kind,
            OutputKind::ScalarTuple,
            "{text:#?}"
        );
        for s in &summaries[1..] {
            let binding = &s.bindings[0];
            assert!(
                matches!(binding.kind, OutputKind::KeyedScalars { .. }),
                "{text:#?}"
            );
            let MrExpr::Reduce(map, _) = &binding.expr else {
                panic!("{text:#?}")
            };
            let MrExpr::Map(_, lambda) = &**map else {
                panic!("{text:#?}")
            };
            assert!(
                lambda.emits.len() == 2 && lambda.emits.iter().all(|e| e.cond.is_some()),
                "{text:#?}"
            );
        }
    }
}
