//! The §7.2 baselines as plans on the engine Casper's own plans run on:
//! the hand-written Spark programs ([`manual`]), MOLD's rule-based
//! translations ([`mold`]) and SparkSQL's TPC-H plans ([`sqlbase`]).
//!
//! Each baseline is a hand-written `ProgramSummary` executed by
//! [`CompiledPlan`], so its stage volumes are priced exactly like a
//! translated plan's. Every reducer carries the commutativity and
//! associativity its author relied on: a plan without a combiner is
//! written as non-CA, which runs it as `groupByKey` and an ordered fold.
//! Where the tutorial code calls `cache()` on a derived dataset
//! (PageRank's links), the baseline computes it once and passes it to
//! each iteration's plan as a materialized source. The two plans the IR
//! cannot express, the 768-counter histogram aggregate and SparkSQL Q6's
//! whole-row shuffle, are written on [`mapreduce::BufRdd`]'s operators
//! instead.

use std::sync::Arc;

use casper_ir::expr::IrExpr;
use casper_ir::lambda::{Emit, MapLambda, ReduceLambda};
use casper_ir::mr::{DataSource, MrExpr, OutputKind, ProgramSummary};
use codegen::CompiledPlan;
use mapreduce::bufrdd::rows_per_partition;
use mapreduce::{BufRdd, Context};
use seqlang::ast::BinOp;
use seqlang::buf::ValueBuf;
use seqlang::env::Env;
use seqlang::error::{Error, Result};
use seqlang::ty::Type;
use seqlang::value::Value;
use verifier::CaProperties;

pub mod manual;
pub mod mold;
pub mod sqlbase;

/// A baseline over a registry program: run on the program's loop-entry
/// state, it returns the program's output variables.
pub type Baseline = fn(&Arc<Context>, &Env) -> Result<Env>;

/// One program of Figure 7(a) with its baselines.
pub struct Fig7a {
    /// Registry name.
    pub name: &'static str,
    /// The figure's label.
    pub label: &'static str,
    /// Sequential input bytes per record.
    pub record_bytes: u64,
    pub manual: Baseline,
    /// MOLD's plan, for the programs the paper ran MOLD on.
    pub mold: Option<Baseline>,
}

/// Figure 7(a)'s programs, in the figure's order.
pub const FIG7A: [Fig7a; 6] = [
    Fig7a {
        name: "phoenix/string_match",
        label: "String Match",
        record_bytes: 40,
        manual: manual::string_match,
        mold: Some(mold::string_match),
    },
    Fig7a {
        name: "phoenix/word_count",
        label: "Word Count",
        record_bytes: 40,
        manual: manual::word_count,
        mold: Some(mold::word_count),
    },
    Fig7a {
        name: "phoenix/linear_regression",
        label: "Linear Regression",
        record_bytes: 24,
        manual: manual::linear_regression,
        mold: Some(mold::linear_regression),
    },
    Fig7a {
        name: "phoenix/histogram3d",
        label: "3D Histogram",
        record_bytes: 12,
        manual: manual::histogram_aggregate,
        mold: None,
    },
    Fig7a {
        name: "biglambda/wiki_pagecount",
        label: "Wikipedia PageCount",
        record_bytes: 90,
        manual: manual::wiki_pagecount,
        mold: None,
    },
    Fig7a {
        name: "stats/anscombe",
        label: "Anscombe Transform",
        record_bytes: 8,
        manual: manual::anscombe,
        mold: None,
    },
];

/// A reducer with a combiner.
pub const CA: CaProperties = CaProperties {
    commutative: true,
    associative: true,
};

/// A reducer without one.
pub const NON_CA: CaProperties = CaProperties {
    commutative: false,
    associative: false,
};

fn var(name: &str) -> IrExpr {
    IrExpr::var(name)
}

/// `base.name`.
fn dot(base: &str, name: &str) -> IrExpr {
    IrExpr::field(IrExpr::var(base), name)
}

fn bin(op: BinOp, l: IrExpr, r: IrExpr) -> IrExpr {
    IrExpr::bin(op, l, r)
}

/// `v1.i op v2.i` for each component `i` of a `width`-tuple.
fn componentwise(op: BinOp, width: usize) -> ReduceLambda {
    let part = |i| bin(op, IrExpr::tget(var("v1"), i), IrExpr::tget(var("v2"), i));
    ReduceLambda::new(IrExpr::Tuple((0..width).map(part).collect()))
}

/// A map λ binding `params` and emitting each `(key, value)`.
fn emits(params: &[&str], pairs: Vec<(IrExpr, IrExpr)>) -> MapLambda {
    let emits = pairs
        .into_iter()
        .map(|(k, v)| Emit::unconditional(k, v))
        .collect();
    MapLambda::new(params.to_vec(), emits)
}

/// A map λ emitting `(key, value)` when `cond` holds.
fn emit_if(params: &[&str], cond: IrExpr, key: IrExpr, val: IrExpr) -> MapLambda {
    MapLambda::new(params.to_vec(), vec![Emit::guarded(cond, key, val)])
}

fn flat(var: &str, elem: Type) -> MrExpr {
    MrExpr::Data(DataSource::flat(var, elem))
}

/// A one-binding plan.
fn single(out: &str, expr: MrExpr, kind: OutputKind, props: &[CaProperties]) -> CompiledPlan {
    CompiledPlan::new(ProgramSummary::single(out, expr, kind), props.to_vec())
}

/// The elements of the collection `name` in `state`, ingested one per
/// width-1 row and chunked like every plan source.
fn ingest(ctx: &Arc<Context>, state: &Env, name: &str) -> Result<BufRdd> {
    let rows = state
        .get(name)
        .and_then(Value::elements)
        .ok_or_else(|| Error::runtime(format!("input `{name}` is not a collection")))?;
    let per = rows_per_partition(ctx, rows.len());
    let parts = rows.chunks(per).map(|chunk| {
        let mut buf = ValueBuf::with_capacity(1, chunk.len());
        chunk.iter().for_each(|row| buf.push_value(row));
        buf
    });
    Ok(BufRdd::from_built_partitions(ctx, 1, parts.collect()))
}

/// Take the output `name` out of a plan's results.
fn output(out: &Env, name: &str) -> Result<Value> {
    out.get(name)
        .cloned()
        .ok_or_else(|| Error::runtime(format!("output `{name}` missing")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Each Figure 7(a) baseline computes its registry program's outputs
    /// on the data `Benchmark::gen` makes for it.
    #[test]
    fn fig7a_baselines_match_their_programs() {
        let all = suites::all_benchmarks();
        for entry in &FIG7A {
            let b = all
                .iter()
                .find(|b| b.name == entry.name)
                .expect("registered");
            let program = Arc::new(seqlang::compile(b.source).expect("compiles"));
            let mut fragments = analyzer::identify_fragments(&program).into_iter();
            let frag = fragments.find(|f| f.func == b.func).expect("fragment");
            let state = (b.gen)(&mut StdRng::seed_from_u64(1), 2000);
            let expected = frag.project_outputs(&frag.run(&state).expect("source runs"));
            let entry_state = frag.pre_loop_state(&state).expect("loop entry");
            let baselines = [("manual", Some(entry.manual)), ("MOLD", entry.mold)];
            for (who, baseline) in baselines {
                let Some(baseline) = baseline else { continue };
                let ctx = Context::with_parallelism(2, 8);
                let got = baseline(&ctx, &entry_state).expect("baseline runs");
                for (name, want) in expected.iter() {
                    let have = got.get(name);
                    assert!(
                        have.is_some_and(|have| crate::outputs_equal(want, have)),
                        "{} {who}: `{name}` is {have:?}, the program says {want}",
                        entry.name
                    );
                }
            }
        }
    }
}
