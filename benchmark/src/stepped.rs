//! The translation pipeline driven step by step from the benchmark, with a
//! span around each call into a layer.
//!
//! This is the sequence `Casper::translate_source` / `translate_fragment`
//! run, written out with the crates' public functions so that each layer
//! boundary can be timed from outside. The traced run asserts that the report
//! assembled here renders the same payload as the one `translate_source`
//! returns, so the two cannot drift apart unnoticed.

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use analyzer::fragment::Fragment;
use casper::report::FailureReason;
use casper::{search_verdict, CasperConfig, FragmentOutcome, FragmentReport, TranslationReport};
use casper_ir::mr::ProgramSummary;
use codegen::{generated_code, CompiledPlan, GeneratedProgram, Variant};
use cost::model::{prune_dominated, static_cost};
use seqlang::ty::Type;
use synthesis::{find_summary, FindOutcome, Grammar};
use verifier::Verifier;

use crate::trace::Tracer;

/// Counts the search and the verifier do not put in their reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepCounts {
    /// Verified summaries handed to static pruning, and how many it kept.
    pub variants_found: u64,
    pub variants_kept: u64,
}

/// Translate a source program like `Casper::translate_source`, recording a
/// span per layer boundary under one `casper.translate` root span.
pub fn translate(
    config: &CasperConfig,
    src: &str,
    tracer: &Tracer,
    counts: &mut StepCounts,
) -> seqlang::error::Result<TranslationReport> {
    tracer.span("casper.translate", || {
        let started = Instant::now();
        let rt_before = casper_runtime::global().stats();
        let program = Arc::new(tracer.span("seqlang.compile", || seqlang::compile(src))?);
        let fragments = tracer.span("analyzer.identify", || {
            analyzer::identify_fragments(&program)
        });
        let reports = fragments
            .iter()
            .map(|f| translate_fragment(config, f, tracer, counts))
            .collect();
        Ok(TranslationReport {
            fragments: reports,
            wall_time: started.elapsed(),
            runtime_mode: config.runtime.name(),
            runtime_stats: casper_runtime::global().stats().since(&rt_before),
        })
    })
}

fn failed(fragment: &Fragment, reason: FailureReason, started: Instant) -> FragmentReport {
    FragmentReport::new(
        fragment,
        FragmentOutcome::Failed(reason),
        Default::default(),
        started.elapsed(),
    )
}

fn translate_fragment(
    config: &CasperConfig,
    fragment: &Fragment,
    tracer: &Tracer,
    counts: &mut StepCounts,
) -> FragmentReport {
    let started = Instant::now();
    if fragment.features.inner_data_loop {
        return failed(fragment, FailureReason::InnerDataLoop, started);
    }
    if fragment.features.unmodeled_method {
        return failed(fragment, FailureReason::UnmodeledMethod, started);
    }

    // `Verifier::new` is lazy: the basis is built by the first candidate that
    // reaches full verification, and never for a search that sends none. The
    // span below times that first build apart from the verifications.
    let verifier = Verifier::new(fragment, config.verify.clone());
    let basis_built = Cell::new(false);
    let full = |summary: &ProgramSummary| {
        if !basis_built.replace(true) {
            tracer.span("verifier.new", || {
                verifier.basis();
            });
        }
        tracer.span("verifier.verify", || {
            search_verdict(&verifier.verify(summary))
        })
    };
    let (outcome, search) = tracer.span("synthesis.search", || {
        find_summary(fragment, &full, &config.find)
    });
    let seal = |report: &mut FragmentReport| {
        report.verify_wall = verifier.wall_time();
        report.verify_cpu = verifier.cpu_time();
        report.verdict_cache_hits = verifier.cache_hits();
        report.verdict_cache_misses = verifier.cache_misses();
    };
    let summaries = match outcome {
        FindOutcome::Found(s) => s,
        FindOutcome::TimedOut | FindOutcome::Exhausted => {
            let reason = if matches!(outcome, FindOutcome::TimedOut) {
                FailureReason::Timeout
            } else {
                FailureReason::SearchExhausted
            };
            let mut report = FragmentReport::new(
                fragment,
                FragmentOutcome::Failed(reason),
                search,
                started.elapsed(),
            );
            seal(&mut report);
            return report;
        }
    };

    counts.variants_found += summaries.len() as u64;
    let type_of = tracer.span("synthesis.grammar", || type_env(fragment));
    let kept: Vec<ProgramSummary> = tracer.span("cost.static", || {
        if !config.static_pruning {
            return summaries;
        }
        let costed = summaries
            .into_iter()
            .map(|s| {
                let c = static_cost(&s, &type_of, &[], &config.weights);
                (s, c)
            })
            .collect();
        prune_dominated(costed)
            .into_iter()
            .map(|(s, _)| s)
            .collect()
    });
    counts.variants_kept += kept.len() as u64;

    let mut variants = Vec::with_capacity(kept.len());
    let mut code = String::new();
    let mut plan_compile_time = Duration::ZERO;
    for (i, summary) in kept.iter().enumerate() {
        let vr = tracer.span("verifier.verify", || verifier.verify(summary).result);
        let lowering = Instant::now();
        let plan = tracer.span("codegen.lower", || {
            CompiledPlan::new(summary.clone(), vr.reduce_properties.clone())
        });
        plan_compile_time += lowering.elapsed();
        if i == 0 {
            code = tracer.span("codegen.emit", || {
                generated_code(summary, &plan.reduce_props, config.dialect)
            });
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
            dialect: config.dialect,
        },
        search,
        started.elapsed(),
    );
    report.plan_compile_time = plan_compile_time;
    seal(&mut report);
    report
}

/// The type environment static costing reads: λ parameters of each source,
/// free scalars and struct-field paths, all taken from the fragment's grammar
/// (the pipeline's private `fragment_type_env`).
fn type_env(fragment: &Fragment) -> impl Fn(&str) -> Option<Type> {
    let grammar = Grammar::for_fragment(fragment);
    let mut pairs: Vec<(String, Type)> = grammar.scalars.clone();
    for spec in &grammar.sources {
        for (p, t) in spec.params.iter().zip(&spec.param_tys) {
            pairs.push((p.clone(), t.clone()));
        }
    }
    for (e, t) in &grammar.field_atoms {
        pairs.push((format!("{e}"), t.clone()));
    }
    move |name: &str| {
        pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.clone())
    }
}
