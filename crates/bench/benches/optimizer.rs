//! Optimizer benchmark: the fig8/table4 tuning scenarios, end to end.
//!
//! Two scenario families exercise the cost-based plan choice:
//!
//! * **stringmatch** (Figure 8) — solutions (a) (naive per-word emits,
//!   the first-verified baseline), (b) (tuple-encoded, always one pair
//!   per record) and (c) (guarded per-key emits) at varying match
//!   selectivity; (c) wins when matches are rare, (b) when nearly
//!   everything matches, (a) never wins;
//! * **joinorder** (§7.4 / Table 4) — a 3-way join with both orderings
//!   lowered as verified variants plus a normalizing map, at the two
//!   cardinality configurations of §7.4; the cheaper ordering flips
//!   between them.
//!
//! For every scenario each variant runs on the engine and its recorded
//! stage statistics are scaled to the paper's dataset size and priced on
//! the cluster model — the *observed* wall clock. The artifact
//! (`BENCH_optimizer.json`) records optimizer-picked vs first-verified
//! (variant 0, what the pre-optimizer search returned) vs oracle-best
//! seconds, the monitor's prediction error, and the re-tune trace of an
//! iterative driver over a skewed-prefix dataset whose first-k sample is
//! deliberately unrepresentative.
//!
//! The bench *asserts* the acceptance bar: every variant's output is
//! bit-identical to first-verified, the picked plan is never slower than
//! first-verified, both families contain a scenario where it is ≥ 1.3x
//! faster, and the iterative driver re-tunes at least once. Set
//! `OPTIMIZER_BENCH_SCALE=400` (CI smoke) for a fast run.

use std::sync::Arc;
use std::time::Instant;

use casper_ir::expr::IrExpr;
use casper_ir::lambda::{Emit, MapLambda, ReduceLambda};
use casper_ir::mr::{DataSource, MrExpr, OutputBinding, OutputKind, ProgramSummary};
use codegen::{CompiledPlan, GeneratedProgram, ProgramCache, TuningState, Variant};
use mapreduce::sim::simulate_job;
use mapreduce::{ClusterSpec, Context, Framework};
use seqlang::ast::BinOp;
use seqlang::env::Env;
use seqlang::value::Value;
use verifier::CaProperties;

fn ca() -> CaProperties {
    CaProperties {
        commutative: true,
        associative: true,
    }
}

fn base_records() -> usize {
    std::env::var("OPTIMIZER_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4000)
}

// ---------------------------------------------------------------------
// StringMatch variants (Figure 8 solutions (b) and (c)).
// ---------------------------------------------------------------------

/// Solution (a), Figure 8(a): the naive translation — every record
/// emits `(w, true)` keyed by the *word*, and the outputs bind from the
/// result map at `key1`/`key2`. Statically dominated (its shuffle
/// carries every distinct word and map-side combining cannot collapse
/// it), but it is the syntactically smallest candidate: the first
/// summary the pre-optimizer k=1 search verified and returned. It is
/// this bench's first-verified baseline.
fn stringmatch_a() -> Variant {
    let m = MapLambda::new(
        vec!["w"],
        vec![Emit::unconditional(
            IrExpr::var("w"),
            IrExpr::ConstBool(true),
        )],
    );
    let expr = MrExpr::Data(DataSource::flat("text", Type::Str))
        .map(m)
        .reduce(ReduceLambda::binop(BinOp::Or));
    let summary = ProgramSummary {
        bindings: vec![OutputBinding {
            vars: vec!["f1".into(), "f2".into()],
            expr,
            kind: OutputKind::KeyedScalars {
                keys: vec![IrExpr::var("key1"), IrExpr::var("key2")],
            },
        }],
    };
    Variant {
        name: "a".into(),
        plan: CompiledPlan::new(summary, vec![ca()]),
    }
}

/// Solution (b): every record emits one `(0, (w==key1, w==key2))` pair.
fn stringmatch_b() -> Variant {
    let m = MapLambda::new(
        vec!["w"],
        vec![Emit::unconditional(
            IrExpr::int(0),
            IrExpr::Tuple(vec![
                IrExpr::bin(BinOp::Eq, IrExpr::var("w"), IrExpr::var("key1")),
                IrExpr::bin(BinOp::Eq, IrExpr::var("w"), IrExpr::var("key2")),
            ]),
        )],
    );
    let r = ReduceLambda::new(IrExpr::Tuple(vec![
        IrExpr::bin(
            BinOp::Or,
            IrExpr::tget(IrExpr::var("v1"), 0),
            IrExpr::tget(IrExpr::var("v2"), 0),
        ),
        IrExpr::bin(
            BinOp::Or,
            IrExpr::tget(IrExpr::var("v1"), 1),
            IrExpr::tget(IrExpr::var("v2"), 1),
        ),
    ]));
    let expr = MrExpr::Data(DataSource::flat("text", Type::Str))
        .map(m)
        .reduce(r);
    let summary = ProgramSummary {
        bindings: vec![OutputBinding {
            vars: vec!["f1".into(), "f2".into()],
            expr,
            kind: OutputKind::ScalarTuple,
        }],
    };
    Variant {
        name: "b".into(),
        plan: CompiledPlan::new(summary, vec![ca()]),
    }
}

/// Solution (c): guarded emits — pairs exist only for matching records.
fn stringmatch_c() -> Variant {
    let m = MapLambda::new(
        vec!["w"],
        vec![
            Emit::guarded(
                IrExpr::bin(BinOp::Eq, IrExpr::var("w"), IrExpr::var("key1")),
                IrExpr::var("key1"),
                IrExpr::ConstBool(true),
            ),
            Emit::guarded(
                IrExpr::bin(BinOp::Eq, IrExpr::var("w"), IrExpr::var("key2")),
                IrExpr::var("key2"),
                IrExpr::ConstBool(true),
            ),
        ],
    );
    let expr = MrExpr::Data(DataSource::flat("text", Type::Str))
        .map(m)
        .reduce(ReduceLambda::binop(BinOp::Or));
    let summary = ProgramSummary {
        bindings: vec![OutputBinding {
            vars: vec!["f1".into(), "f2".into()],
            expr,
            kind: OutputKind::KeyedScalars {
                keys: vec![IrExpr::var("key1"), IrExpr::var("key2")],
            },
        }],
    };
    Variant {
        name: "c".into(),
        plan: CompiledPlan::new(summary, vec![ca()]),
    }
}

use seqlang::ty::Type;

/// `match_fraction` of the words equal `key1`, the rest are distinct
/// fillers.
fn stringmatch_state(match_fraction: f64, n: usize) -> Env {
    let words: Vec<Value> = (0..n)
        .map(|i| {
            if (i as f64) < match_fraction * n as f64 {
                Value::str("cat")
            } else {
                Value::str(format!("w{i}"))
            }
        })
        .collect();
    let mut st = Env::new();
    st.set("text", Value::List(words));
    st.set("key1", Value::str("cat"));
    st.set("key2", Value::str("dog"));
    st.set("f1", Value::Bool(false));
    st.set("f2", Value::Bool(false));
    st
}

/// First `prefix` records miss, everything after matches: the first-k
/// sample sees only misses.
fn skewed_prefix_state(prefix: usize, n: usize) -> Env {
    let words: Vec<Value> = (0..n)
        .map(|i| {
            if i < prefix {
                Value::str(format!("w{i}"))
            } else {
                Value::str("cat")
            }
        })
        .collect();
    let mut st = Env::new();
    st.set("text", Value::List(words));
    st.set("key1", Value::str("cat"));
    st.set("key2", Value::str("dog"));
    st.set("f1", Value::Bool(false));
    st.set("f2", Value::Bool(false));
    st
}

// ---------------------------------------------------------------------
// Join-order variants (§7.4's 3-way join, both orderings).
// ---------------------------------------------------------------------

/// `sum = Σ a+b+c` over the 3-way index join, with `second` joined
/// before `third`. The flattening map normalizes the nesting so both
/// orderings produce identical outputs ((a+b)+c = (a+c)+b over ints).
fn join_order_variant(name: &str, second: &str, third: &str) -> Variant {
    let flatten = MapLambda::new(
        vec!["k", "v"],
        vec![Emit::unconditional(
            IrExpr::int(0),
            IrExpr::bin(
                BinOp::Add,
                IrExpr::bin(
                    BinOp::Add,
                    IrExpr::tget(IrExpr::tget(IrExpr::var("v"), 0), 0),
                    IrExpr::tget(IrExpr::tget(IrExpr::var("v"), 0), 1),
                ),
                IrExpr::tget(IrExpr::var("v"), 1),
            ),
        )],
    );
    let expr = MrExpr::Data(DataSource::indexed("sales", Type::Int))
        .join(MrExpr::Data(DataSource::indexed(second, Type::Int)))
        .join(MrExpr::Data(DataSource::indexed(third, Type::Int)))
        .map(flatten)
        .reduce(ReduceLambda::binop(BinOp::Add));
    Variant {
        name: name.into(),
        plan: CompiledPlan::new(
            ProgramSummary::single("total", expr, OutputKind::Scalar),
            vec![ca()],
        ),
    }
}

/// `sales` has `n` rows; the dimension tables cover the index prefixes
/// `n*sup_sel` and `n*cust_sel` — §7.4's two cardinality configurations
/// swap which build side is large.
fn join_order_state(n: usize, sup_sel: f64, cust_sel: f64) -> Env {
    let ints = |len: usize| Value::Array((0..len).map(|i| Value::Int(i as i64 % 97)).collect());
    let mut st = Env::new();
    st.set("sales", ints(n));
    st.set("supplier", ints((n as f64 * sup_sel) as usize));
    st.set("customer", ints((n as f64 * cust_sel) as usize));
    st.set("total", Value::Int(0));
    st
}

// ---------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------

struct ScenarioResult {
    name: String,
    picked: String,
    first: String,
    oracle: String,
    sim_picked_s: f64,
    sim_first_s: f64,
    sim_oracle_s: f64,
    first_vs_picked: f64,
    predicted_s: f64,
    observed_s: f64,
    prediction_error_pct: f64,
    wall_picked_ms: f64,
    outputs_identical: bool,
}

/// Run every variant of `prog` on `state`, check output identity against
/// the first-verified variant, price each recorded run at paper scale,
/// and compare the optimizer's pick with first-verified and the oracle.
fn measure_scenario(
    name: &str,
    prog: &GeneratedProgram,
    state: &Env,
    records: usize,
    paper_records: f64,
) -> ScenarioResult {
    let spec = ClusterSpec::paper();
    let factor = paper_records / records as f64;
    let choice = prog.choose(state);

    let mut sim_s = Vec::with_capacity(prog.variants.len());
    let mut sim_unscaled_s = Vec::with_capacity(prog.variants.len());
    let mut wall_ms = Vec::with_capacity(prog.variants.len());
    let mut outputs: Vec<Env> = Vec::with_capacity(prog.variants.len());
    for v in &prog.variants {
        let ctx: Arc<Context> = Context::with_parallelism(4, 8);
        let started = Instant::now();
        let out = v.plan.execute(&ctx, state).expect("variant run");
        wall_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let stats = ctx.stats();
        if std::env::var("OPTIMIZER_BENCH_DEBUG").is_ok() {
            for s in &stats.stages {
                println!(
                    "  [{}/{}] {:?} '{}' in={} out={} bytes_out={} shuffled={}",
                    name,
                    v.name,
                    s.kind,
                    s.label,
                    s.records_in,
                    s.records_out,
                    s.bytes_out,
                    s.bytes_shuffled
                );
            }
        }
        sim_unscaled_s.push(simulate_job(&stats, &spec, Framework::Spark).seconds);
        sim_s.push(simulate_job(&stats.scaled(factor), &spec, Framework::Spark).seconds);
        outputs.push(out);
    }
    let outputs_identical = outputs.iter().all(|o| *o == outputs[0]);
    let mut oracle = 0usize;
    for (i, s) in sim_s.iter().enumerate() {
        if *s < sim_s[oracle] {
            oracle = i;
        }
    }
    let predicted = choice.predicted_seconds[choice.chosen];
    let observed = sim_unscaled_s[choice.chosen];
    ScenarioResult {
        name: name.into(),
        picked: prog.variants[choice.chosen].name.clone(),
        first: prog.variants[0].name.clone(),
        oracle: prog.variants[oracle].name.clone(),
        sim_picked_s: sim_s[choice.chosen],
        sim_first_s: sim_s[0],
        sim_oracle_s: sim_s[oracle],
        first_vs_picked: sim_s[0] / sim_s[choice.chosen],
        predicted_s: predicted,
        observed_s: observed,
        prediction_error_pct: if observed > 0.0 {
            (predicted - observed).abs() / observed * 100.0
        } else {
            0.0
        },
        wall_picked_ms: wall_ms[choice.chosen],
        outputs_identical,
    }
}

struct RetuneResult {
    iterations: usize,
    retunes: usize,
    trace_json: String,
    outputs_identical: bool,
}

/// Iterative driver over the skewed-prefix dataset: the first-k sample
/// sees only misses, so the monitor starts on (c), observes the 97%-match
/// shuffle, and must re-tune to (b) mid-run.
fn measure_retune(records: usize) -> RetuneResult {
    let mut prog = GeneratedProgram::new(vec![stringmatch_b(), stringmatch_c()]);
    prog.sample_k = (records / 40).max(25);
    let ctx: Arc<Context> = Context::with_parallelism(4, 8);
    let state = skewed_prefix_state(prog.sample_k, records);
    let mut cache = ProgramCache::new();
    let mut tuning = TuningState::new();
    let iterations = 3usize;
    let mut outputs_identical = true;
    let mut first: Option<Env> = None;
    for _ in 0..iterations {
        let (out, _) = prog
            .run_tuned(&ctx, &state, &mut cache, &mut tuning)
            .expect("tuned iteration");
        match &first {
            None => first = Some(out),
            Some(f) => outputs_identical &= out == *f,
        }
    }
    let mut trace_json = String::new();
    for (i, d) in tuning.trace.iter().enumerate() {
        trace_json.push_str(&format!(
            "      {{\"iteration\": {}, \"running\": \"{}\", \"predicted_s\": {:.6e}, \
             \"observed_s\": {:.6e}, \"ratio\": {:.3}, \"switched_to\": {}}}{}\n",
            d.iteration,
            prog.variants[d.running].name,
            d.predicted_seconds,
            d.observed_seconds,
            d.ratio,
            d.switched_to
                .map(|v| format!("\"{}\"", prog.variants[v].name))
                .unwrap_or_else(|| "null".into()),
            if i + 1 < tuning.trace.len() { "," } else { "" },
        ));
    }
    RetuneResult {
        iterations,
        retunes: tuning.retune_count(),
        trace_json,
        outputs_identical,
    }
}

fn scenario_json(s: &ScenarioResult, last: bool) -> String {
    format!(
        "        {{\"name\": \"{}\", \"picked\": \"{}\", \"first_verified\": \"{}\", \
         \"oracle\": \"{}\", \"sim_picked_s\": {:.3}, \"sim_first_s\": {:.3}, \
         \"sim_oracle_s\": {:.3}, \"first_vs_picked\": {:.3}, \"predicted_s\": {:.6}, \
         \"observed_s\": {:.6}, \"prediction_error_pct\": {:.1}, \
         \"wall_picked_ms\": {:.2}, \"outputs_identical\": {}}}{}\n",
        s.name,
        s.picked,
        s.first,
        s.oracle,
        s.sim_picked_s,
        s.sim_first_s,
        s.sim_oracle_s,
        s.first_vs_picked,
        s.predicted_s,
        s.observed_s,
        s.prediction_error_pct,
        s.wall_picked_ms,
        s.outputs_identical,
        if last { "" } else { "," },
    )
}

fn write_artifact(records: usize, families: &[(&str, Vec<ScenarioResult>)], retune: &RetuneResult) {
    let mut fams = String::new();
    let mut min_first_vs_picked = f64::INFINITY;
    let mut families_ge = 0usize;
    for (fi, (name, scenarios)) in families.iter().enumerate() {
        let mut rows = String::new();
        let mut max_ratio: f64 = 0.0;
        for (si, s) in scenarios.iter().enumerate() {
            rows.push_str(&scenario_json(s, si + 1 == scenarios.len()));
            max_ratio = max_ratio.max(s.first_vs_picked);
            min_first_vs_picked = min_first_vs_picked.min(s.first_vs_picked);
        }
        if max_ratio >= 1.3 {
            families_ge += 1;
        }
        fams.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"max_first_vs_picked\": {:.3},\n      \
             \"scenarios\": [\n{}      ]\n    }}{}\n",
            name,
            max_ratio,
            rows,
            if fi + 1 < families.len() { "," } else { "" },
        ));
    }
    let json = format!(
        "{{\n  \"base_records\": {records},\n  \"families\": [\n{fams}  ],\n  \
         \"retune\": {{\n    \"scenario\": \"stringmatch_skewed_prefix\",\n    \
         \"iterations\": {},\n    \"retunes\": {},\n    \"outputs_identical\": {},\n    \
         \"trace\": [\n{}    ]\n  }},\n  \"headline\": {{\n    \
         \"min_first_vs_picked\": {:.3},\n    \
         \"families_with_speedup_ge_1_3\": {},\n    \"retunes\": {}\n  }}\n}}\n",
        retune.iterations,
        retune.retunes,
        retune.outputs_identical,
        retune.trace_json,
        min_first_vs_picked,
        families_ge,
        retune.retunes,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_optimizer.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("optimizer: wrote {path}"),
        Err(e) => println!("optimizer: could not write {path}: {e}"),
    }
}

fn main() {
    let records = base_records();

    // StringMatch family (Figure 8): 2.6 G words at paper scale.
    let sm_prog = GeneratedProgram::new(vec![stringmatch_a(), stringmatch_b(), stringmatch_c()]);
    let stringmatch: Vec<ScenarioResult> = [0.0, 0.5, 0.95]
        .iter()
        .map(|frac| {
            measure_scenario(
                &format!("match_{:.0}pct", frac * 100.0),
                &sm_prog,
                &stringmatch_state(*frac, records),
                records,
                2_600_000_000.0,
            )
        })
        .collect();

    // Join-order family (§7.4): 600 M sales rows at paper scale. The
    // first-verified ordering joins supplier first in both configs.
    let jo_prog = GeneratedProgram::new(vec![
        join_order_variant("supplier_first", "supplier", "customer"),
        join_order_variant("customer_first", "customer", "supplier"),
    ]);
    let joinorder: Vec<ScenarioResult> =
        [("supplier_large", 0.9, 0.01), ("customer_large", 0.01, 0.9)]
            .iter()
            .map(|(label, sup, cust)| {
                measure_scenario(
                    label,
                    &jo_prog,
                    &join_order_state(records, *sup, *cust),
                    records,
                    600_000_000.0,
                )
            })
            .collect();

    let retune = measure_retune(records);

    for (family, scenarios) in [("stringmatch", &stringmatch), ("joinorder", &joinorder)] {
        for s in scenarios.iter() {
            println!(
                "optimizer/{family}/{}: picked {} ({:.0} s), first-verified {} ({:.0} s, \
                 {:.2}x), oracle {} ({:.0} s); prediction error {:.1}%",
                s.name,
                s.picked,
                s.sim_picked_s,
                s.first,
                s.sim_first_s,
                s.first_vs_picked,
                s.oracle,
                s.sim_oracle_s,
                s.prediction_error_pct,
            );
            assert!(s.outputs_identical, "{family}/{}: outputs differ", s.name);
            assert!(
                s.sim_picked_s <= s.sim_first_s * (1.0 + 1e-9),
                "{family}/{}: picked {} slower than first-verified {}",
                s.name,
                s.sim_picked_s,
                s.sim_first_s,
            );
        }
        let max_ratio = scenarios
            .iter()
            .map(|s| s.first_vs_picked)
            .fold(0.0f64, f64::max);
        assert!(
            max_ratio >= 1.3,
            "{family}: best first-verified/picked ratio {max_ratio:.2} < 1.3",
        );
    }
    println!(
        "optimizer/retune: {} iterations, {} re-tunes, outputs identical: {}",
        retune.iterations, retune.retunes, retune.outputs_identical,
    );
    assert!(retune.retunes >= 1, "iterative driver never re-tuned");
    assert!(
        retune.outputs_identical,
        "re-tuned iterations changed outputs"
    );

    write_artifact(
        records,
        &[("stringmatch", stringmatch), ("joinorder", joinorder)],
        &retune,
    );
}
