//! MOLD-style rule-based translations (§7.1–7.2, Figure 7(a)).
//!
//! MOLD \[38\] is the syntax-directed source-to-source baseline the paper
//! compares against. Its generated code is described precisely in §7.2:
//!
//! * **StringMatch**: emits a key/value pair for *every* word and runs a
//!   *separate* MapReduce job per keyword;
//! * **Linear Regression**: zips the input with its index as a
//!   pre-processing step, "almost doubling the size of input data";
//! * **WordCount**: essentially the same plan as Casper's.
//!
//! These plans reproduce those shapes, so Figure 7(a) prices the same
//! inefficiencies.

use std::sync::Arc;

use casper_ir::expr::IrExpr;
use casper_ir::lambda::ReduceLambda;
use casper_ir::mr::{DataSource, MrExpr, OutputBinding, OutputKind, ProgramSummary};
use codegen::CompiledPlan;
use mapreduce::Context;
use seqlang::ast::BinOp;
use seqlang::env::Env;
use seqlang::error::Result;
use seqlang::ty::Type;

use super::manual::{regression_sums, tuple_plan};
use super::{bin, componentwise, emits, flat, output, single, var, NON_CA};

/// MOLD's WordCount is the hand-written plan.
pub use super::manual::word_count;

/// MOLD StringMatch: one job per keyword, each emitting a pair for every
/// word and folding them without a combiner.
pub fn string_match(ctx: &Arc<Context>, state: &Env) -> Result<Env> {
    let job = |found: &str, key: &str| OutputBinding {
        vars: vec![found.to_string()],
        expr: flat("text", Type::Str)
            .map(emits(
                &["w"],
                vec![(var(key), bin(BinOp::Eq, var("w"), var(key)))],
            ))
            .reduce(ReduceLambda::binop(BinOp::Or)),
        kind: OutputKind::Scalar,
    };
    let summary = ProgramSummary {
        bindings: vec![job("found1", "key1"), job("found2", "key2")],
    };
    CompiledPlan::new(summary, vec![NON_CA, NON_CA]).execute(ctx, state)
}

/// MOLD Linear Regression: a zipWithIndex pre-processing job writes out
/// `(index, point)` pairs, then a second job sums over them.
pub fn linear_regression(ctx: &Arc<Context>, state: &Env) -> Result<Env> {
    let pair = IrExpr::Tuple(vec![var("i"), var("p")]);
    let zip = MrExpr::Data(DataSource::indexed("points", Type::Struct("Point".into())))
        .map(emits(&["i", "p"], vec![(var("i"), pair)]));
    let zipped = single("indexed", zip, OutputKind::CollectedList, &[]).execute(ctx, state)?;
    let mut staged = state.clone();
    staged.set("indexed", output(&zipped, "indexed")?);
    let point = IrExpr::tget(var("t"), 1);
    let expr = flat(
        "indexed",
        Type::Tuple(vec![Type::Int, Type::Struct("Point".into())]),
    )
    .map(emits(
        &["t"],
        vec![(IrExpr::int(0), regression_sums(point))],
    ))
    .reduce(componentwise(BinOp::Add, 5));
    tuple_plan(&["sx", "sy", "sxx", "sxy", "syy"], expr).execute(ctx, &staged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seqlang::value::Value;
    use suites::data;

    fn ctx() -> Arc<Context> {
        Context::with_parallelism(4, 8)
    }

    fn points(n: usize) -> Env {
        let mut state = Env::new();
        state.set("points", data::points(&mut StdRng::seed_from_u64(11), n));
        state
    }

    #[test]
    fn mold_stringmatch_is_correct_but_heavier() {
        let c = ctx();
        let mut state = Env::new();
        let text = data::skewed_text(&mut StdRng::seed_from_u64(11), 3000, "needle", 0.01);
        state.set("text", text);
        state.set("key1", Value::str("needle"));
        state.set("key2", Value::str("absent"));
        state.set("found1", Value::Bool(false));
        state.set("found2", Value::Bool(false));

        c.reset_stats();
        let mold = string_match(&c, &state).unwrap();
        let mold_shuffled = c.stats().total_shuffled_bytes();
        assert_eq!(mold.get("found1"), Some(&Value::Bool(true)));
        assert_eq!(mold.get("found2"), Some(&Value::Bool(false)));

        c.reset_stats();
        let manual = crate::baselines::manual::string_match(&c, &state).unwrap();
        let manual_shuffled = c.stats().total_shuffled_bytes();
        assert_eq!(mold, manual);
        assert!(
            mold_shuffled > manual_shuffled * 3,
            "MOLD must shuffle far more: {mold_shuffled} vs {manual_shuffled}"
        );
    }

    #[test]
    fn mold_linreg_matches_reference_result() {
        let c = ctx();
        let state = points(800);
        let a = linear_regression(&c, &state).unwrap();
        let b = crate::baselines::manual::linear_regression(&c, &state).unwrap();
        for sum in ["sx", "sxy"] {
            let sum_of = |out: &Env| out.get(sum).and_then(Value::as_double).unwrap();
            assert!((sum_of(&a) - sum_of(&b)).abs() < 1e-6, "{sum}");
        }
    }

    #[test]
    fn mold_linreg_emits_more_bytes() {
        let c = ctx();
        let state = points(2000);
        c.reset_stats();
        linear_regression(&c, &state).unwrap();
        let mold_bytes = c.stats().total_emitted_bytes();
        c.reset_stats();
        crate::baselines::manual::linear_regression(&c, &state).unwrap();
        let manual_bytes = c.stats().total_emitted_bytes();
        assert!(
            mold_bytes as f64 > manual_bytes as f64 * 1.5,
            "zipWithIndex must inflate volume: {mold_bytes} vs {manual_bytes}"
        );
    }
}
