//! The runtime monitor's covered path. When every source collection of a
//! generated program is no longer than its first-k sample, the sample is
//! the input: `GeneratedProgram::run` returns the chosen variant's
//! profiled result and records no engine stage. Past the sample, and
//! wherever the chosen variant fails, the engine runs as before.

use std::sync::Arc;

use casper::{Casper, CasperConfig, FragmentOutcome};
use casper_ir::compile::CompiledSummary;
use casper_ir::expr::IrExpr;
use casper_ir::lambda::{Emit, MapLambda, ReduceLambda};
use casper_ir::mr::{DataSource, MrExpr, OutputKind, ProgramSummary};
use codegen::{CompiledPlan, GeneratedProgram, PlanChoice, Variant};
use mapreduce::Context;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqlang::ast::BinOp;
use seqlang::env::Env;
use seqlang::ty::Type;
use seqlang::value::Value;
use verifier::CaProperties;

/// Sort map and list entries: the engine collects maps key-sorted, the
/// IR evaluator keeps first-appearance order.
fn canon(env: &Env) -> Env {
    env.iter()
        .map(|(k, v)| {
            let v = match v {
                Value::Map(entries) => {
                    let mut e = entries.clone();
                    e.sort();
                    Value::Map(e)
                }
                Value::List(items) => {
                    let mut xs = items.clone();
                    xs.sort();
                    Value::List(xs)
                }
                other => other.clone(),
            };
            (k.clone(), v)
        })
        .collect()
}

/// A decision as exact bits.
fn bits(choice: &PlanChoice) -> (usize, Vec<u64>, Vec<u64>) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
    (
        choice.chosen,
        bits(&choice.costs),
        bits(&choice.predicted_seconds),
    )
}

/// Every source of `program` is a collection of at most `sample_k` values.
fn covered(program: &GeneratedProgram, state: &Env) -> bool {
    let sources = program
        .variants
        .iter()
        .flat_map(|v| &v.plan.summary.bindings);
    sources.flat_map(|b| b.expr.sources()).all(|s| {
        state
            .get(&s.var)
            .and_then(Value::elements)
            .is_some_and(|xs| xs.len() <= program.sample_k)
    })
}

/// `run` on a covered input: the same decision as `choose`, the chosen
/// variant's evaluator result exactly, the engine's result up to map and
/// list order, and no engine stage. The engine runs on one partition,
/// where a combining reduce folds in input order, as the covered path
/// does; across partitions a floating-point sum may associate otherwise.
fn assert_covered_run(who: &str, program: &GeneratedProgram, state: &Env) {
    let ctx = Context::with_parallelism(2, 4);
    let (out, choice) = program
        .run(&ctx, state)
        .unwrap_or_else(|e| panic!("{who}: {e}"));
    assert_eq!(bits(&choice), bits(&program.choose(state)), "{who}: choice");
    assert!(ctx.stats().stages.is_empty(), "{who}: ran on the engine");
    let plan = &program.variants[choice.chosen].plan;
    let evaluated = CompiledSummary::compile(&plan.summary)
        .eval(state)
        .unwrap_or_else(|e| panic!("{who}: evaluator: {e}"));
    assert_eq!(out, evaluated, "{who}: run vs the evaluator");
    let executed = plan
        .execute(&Context::with_parallelism(1, 1), state)
        .unwrap_or_else(|e| panic!("{who}: engine: {e}"));
    assert_eq!(canon(&out), canon(&executed), "{who}: run vs the engine");
}

#[test]
fn covered_run_returns_the_profile_for_every_registry_variant() {
    let casper = Casper::new(CasperConfig::default());
    let mut programs = 0;
    for b in suites::all_benchmarks() {
        let report = casper
            .translate_source(b.source)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let Some(FragmentOutcome::Translated { program, .. }) =
            report.for_function(b.func).map(|f| &f.outcome)
        else {
            continue;
        };
        let source = Arc::new(seqlang::compile(b.source).expect("compiles"));
        let frag = analyzer::identify_fragments(&source)
            .into_iter()
            .find(|f| f.func == b.func)
            .expect("primary fragment");
        let state = (b.gen)(&mut StdRng::seed_from_u64(1), 2000);
        let entry = frag.pre_loop_state(&state).expect("loop entry");
        if !covered(program, &entry) {
            continue;
        }
        programs += 1;
        assert_covered_run(b.name, program, &entry);
        for v in &program.variants {
            let single = GeneratedProgram::new(vec![v.clone()]);
            assert_covered_run(&format!("{} {}", b.name, v.name), &single, &entry);
        }
    }
    assert!(programs >= 80, "only {programs} covered programs");
}

fn ca() -> CaProperties {
    CaProperties {
        commutative: true,
        associative: true,
    }
}

/// `s = Σ 100 / x` over `xs`: a map that divides by each element.
fn inverse_sum() -> GeneratedProgram {
    let m = MapLambda::new(
        vec!["x"],
        vec![Emit::unconditional(
            IrExpr::int(0),
            IrExpr::bin(BinOp::Div, IrExpr::int(100), IrExpr::var("x")),
        )],
    );
    let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
        .map(m)
        .reduce(ReduceLambda::binop(BinOp::Add));
    let summary = ProgramSummary::single("s", expr, OutputKind::Scalar);
    GeneratedProgram::new(vec![Variant {
        name: "inverse".into(),
        plan: CompiledPlan::new(summary, vec![ca()]),
    }])
}

fn inverse_state(xs: impl Iterator<Item = i64>) -> Env {
    let mut state = Env::new();
    state.set("xs", Value::List(xs.map(Value::Int).collect()));
    state.set("s", Value::Int(0));
    state
}

#[test]
fn input_past_the_sample_runs_on_the_engine() {
    let mut program = inverse_sum();
    let state = inverse_state(1..=2000);
    let expect = Some(Value::Int((1..=2000).map(|x| 100 / x).sum()));
    for (sample_k, engine) in [(1999, true), (2000, false), (5000, false)] {
        program.sample_k = sample_k;
        let ctx = Context::with_parallelism(2, 4);
        let (out, _) = program.run(&ctx, &state).expect("runs");
        assert_eq!(out.get("s"), expect.as_ref(), "sample_k {sample_k}");
        assert_eq!(
            !ctx.stats().stages.is_empty(),
            engine,
            "sample_k {sample_k}: engine stages"
        );
    }
}

#[test]
fn a_failing_variant_returns_the_engine_error() {
    let program = inverse_sum();
    let plan = &program.variants[0].plan;
    // A zero divisor fails the map: the engine starts, and fails.
    let ctx = Context::with_parallelism(2, 4);
    let state = inverse_state(-3..=3);
    let err = program.run(&ctx, &state).expect_err("divides by zero");
    assert!(!ctx.stats().stages.is_empty(), "{err}: ran on the engine");
    let engine = plan.execute(&ctx, &state).expect_err("divides by zero");
    assert_eq!(err.to_string(), engine.to_string());
    // A missing source fails before the engine records a stage.
    let mut missing = inverse_state(1..=3);
    missing.remove("xs");
    let err = program.run(&ctx, &missing).expect_err("no input");
    let engine = plan.execute(&ctx, &missing).expect_err("no input");
    assert_eq!(err.to_string(), engine.to_string());
}
