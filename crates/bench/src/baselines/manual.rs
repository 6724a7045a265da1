//! Hand-written plans (§7.2): the UpWork developers' Spark programs and
//! the Spark tutorial's reference algorithms. The Figure 7(a) plans run
//! on their registry program's loop-entry state and return its outputs.

use std::sync::Arc;

use casper_ir::expr::IrExpr;
use casper_ir::lambda::ReduceLambda;
use casper_ir::mr::{DataSource, MrExpr, OutputBinding, OutputKind, ProgramSummary};
use codegen::{CompiledPlan, PlanCache};
use mapreduce::{Context, PassStats};
use seqlang::ast::{BinOp, UnOp};
use seqlang::buf::ValueBuf;
use seqlang::env::Env;
use seqlang::error::{Error, Result};
use seqlang::ty::Type;
use seqlang::value::Value;

use super::{bin, componentwise, dot, emits, flat, ingest, output, single, var, CA};

/// WordCount: the canonical reduceByKey program.
pub fn word_count(ctx: &Arc<Context>, state: &Env) -> Result<Env> {
    let count = emits(&["w"], vec![(var("w"), IrExpr::int(1))]);
    let expr = flat("words", Type::Str)
        .map(count)
        .reduce(ReduceLambda::binop(BinOp::Add));
    single("counts", expr, OutputKind::AssocMap, &[CA]).execute(ctx, state)
}

/// StringMatch with the compact encoding: one pair per word carrying
/// both match flags, or-ed together by a combiner.
pub fn string_match(ctx: &Arc<Context>, state: &Env) -> Result<Env> {
    let flags = IrExpr::Tuple(vec![
        bin(BinOp::Eq, var("w"), var("key1")),
        bin(BinOp::Eq, var("w"), var("key2")),
    ]);
    let expr = flat("text", Type::Str)
        .map(emits(&["w"], vec![(IrExpr::int(0), flags)]))
        .reduce(componentwise(BinOp::Or, 2));
    tuple_plan(&["found1", "found2"], expr).execute(ctx, state)
}

/// Linear regression: one pass accumulating the five sums.
pub fn linear_regression(ctx: &Arc<Context>, state: &Env) -> Result<Env> {
    let expr = flat("points", Type::Struct("Point".into()))
        .map(emits(
            &["p"],
            vec![(IrExpr::int(0), regression_sums(var("p")))],
        ))
        .reduce(componentwise(BinOp::Add, 5));
    tuple_plan(&["sx", "sy", "sxx", "sxy", "syy"], expr).execute(ctx, state)
}

/// The five regression terms of `point`.
pub(super) fn regression_sums(point: IrExpr) -> IrExpr {
    let x = IrExpr::field(point.clone(), "x");
    let y = IrExpr::field(point, "y");
    IrExpr::Tuple(vec![
        x.clone(),
        y.clone(),
        bin(BinOp::Mul, x.clone(), x.clone()),
        bin(BinOp::Mul, x, y.clone()),
        bin(BinOp::Mul, y.clone(), y),
    ])
}

/// One pipeline whose single tuple-valued result fills `vars` in order.
pub(super) fn tuple_plan(vars: &[&str], expr: MrExpr) -> CompiledPlan {
    let binding = OutputBinding {
        vars: vars.iter().map(|v| v.to_string()).collect(),
        expr,
        kind: OutputKind::ScalarTuple,
    };
    let summary = ProgramSummary {
        bindings: vec![binding],
    };
    CompiledPlan::new(summary, vec![CA])
}

const CHANNELS: [(&str, &str); 3] = [("hr", "r"), ("hg", "g"), ("hb", "b")];

/// 3-D histogram with the developer's bounded-domain `aggregate` trick
/// (§7.2): RGB values fit in 768 counters, so each partition folds its
/// pixels into one counter array and a single tiny shuffle adds them. A
/// fixed-size accumulator is outside the IR, so this plan is written on
/// `BufRdd` directly.
pub fn histogram_aggregate(ctx: &Arc<Context>, state: &Env) -> Result<Env> {
    let partials =
        ingest(ctx, state, "pixels")?.map_partitions("aggregate", |part: &ValueBuf| {
            let mut counters = vec![0i64; 768];
            for row in 0..part.len() {
                let pixel = part.value_at(row, 0);
                for (channel, (_, field)) in CHANNELS.iter().enumerate() {
                    let v = pixel.field(field).and_then(Value::as_int);
                    match v {
                        Some(v @ 0..=255) => counters[channel * 256 + v as usize] += 1,
                        _ => return Err(Error::runtime(format!("pixel {pixel} out of range"))),
                    }
                }
            }
            let mut out = ValueBuf::with_capacity(2, 1);
            out.push_value(&Value::Int(0));
            out.push_value(&Value::Array(
                counters.into_iter().map(Value::Int).collect(),
            ));
            Ok((out, PassStats::default()))
        })?;
    let add = |a: Value, b: Value| -> Result<Value> {
        let (Value::Array(a), Value::Array(b)) = (a, b) else {
            return Err(Error::runtime("histogram partials must be arrays"));
        };
        let sums = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x.as_int().unwrap_or(0) + y.as_int().unwrap_or(0));
        Ok(Value::Array(sums.map(Value::Int).collect()))
    };
    let totals = partials.try_reduce_by_key(None, add)?.collect_sorted();
    let counters = match totals.first() {
        Some((_, Value::Array(counters))) => counters.clone(),
        _ => vec![Value::Int(0); 768],
    };
    let mut out = Env::new();
    for (channel, (hist, _)) in CHANNELS.iter().enumerate() {
        let bins = counters[channel * 256..(channel + 1) * 256]
            .iter()
            .enumerate();
        let entries = bins
            .filter(|(_, n)| n.as_int() != Some(0))
            .map(|(v, n)| (Value::Int(v as i64), n.clone()));
        out.set(*hist, Value::Map(entries.collect()));
    }
    Ok(out)
}

/// 3-D histogram the way Casper writes it: a keyed shuffle per channel,
/// since it cannot assume bounded pixel values (§7.2).
pub fn histogram_shuffle(ctx: &Arc<Context>, state: &Env) -> Result<Env> {
    let channel = |(hist, field): (&str, &str)| OutputBinding {
        vars: vec![hist.to_string()],
        expr: flat("pixels", Type::Struct("Pixel".into()))
            .map(emits(&["p"], vec![(dot("p", field), IrExpr::int(1))]))
            .reduce(ReduceLambda::binop(BinOp::Add)),
        kind: OutputKind::AssocMap,
    };
    let summary = ProgramSummary {
        bindings: CHANNELS.into_iter().map(channel).collect(),
    };
    CompiledPlan::new(summary, vec![CA; 3]).execute(ctx, state)
}

/// Wikipedia page-count reference.
pub fn wiki_pagecount(ctx: &Arc<Context>, state: &Env) -> Result<Env> {
    let views = emits(&["v"], vec![(dot("v", "project"), dot("v", "views"))]);
    let expr = flat("log", Type::Struct("View".into()))
        .map(views)
        .reduce(ReduceLambda::binop(BinOp::Add));
    single("totals", expr, OutputKind::AssocMap, &[CA]).execute(ctx, state)
}

/// Anscombe transform reference: a pure map.
pub fn anscombe(ctx: &Arc<Context>, state: &Env) -> Result<Env> {
    let shifted = bin(BinOp::Add, var("x"), IrExpr::double(0.375));
    let transformed = bin(
        BinOp::Mul,
        IrExpr::double(2.0),
        IrExpr::Call("sqrt".into(), vec![shifted]),
    );
    let expr = flat("xs", Type::Double).map(emits(&["x"], vec![(IrExpr::int(0), transformed)]));
    single("out", expr, OutputKind::CollectedList, &[]).execute(ctx, state)
}

/// PageRank, tutorial style (§7.2's reference): the links — each edge
/// joined with its source's out-degree — are computed once and cached,
/// and only the join with the current ranks reruns each iteration.
/// `edges` holds `Edge { src, dst }` structs over `nodes` nodes.
pub fn pagerank_cached(
    ctx: &Arc<Context>,
    edges: &Value,
    nodes: usize,
    iterations: usize,
) -> Result<Vec<f64>> {
    pagerank(ctx, edges, nodes, iterations, Some(&mut PlanCache::new()))
}

/// PageRank the way Casper generates it: no `cache()`, so the edges are
/// re-ingested, re-counted and re-joined **every iteration** (§7.2's
/// 1.3× gap).
pub fn pagerank_uncached(
    ctx: &Arc<Context>,
    edges: &Value,
    nodes: usize,
    iterations: usize,
) -> Result<Vec<f64>> {
    pagerank(ctx, edges, nodes, iterations, None)
}

fn pagerank(
    ctx: &Arc<Context>,
    edges: &Value,
    nodes: usize,
    iterations: usize,
    mut cache: Option<&mut PlanCache>,
) -> Result<Vec<f64>> {
    let edge_list = || flat("edges", Type::Struct("Edge".into()));
    let out_degree = edge_list()
        .map(emits(&["e"], vec![(dot("e", "src"), IrExpr::int(1))]))
        .reduce(ReduceLambda::binop(BinOp::Add));
    // (src, (dst, out-degree))
    let links = edge_list()
        .map(emits(&["e"], vec![(dot("e", "src"), dot("e", "dst"))]))
        .join(out_degree);
    // (src, ((dst, out-degree), rank)) → (dst, rank / out-degree)
    let ranks = MrExpr::Data(DataSource::indexed("ranks", Type::Double));
    let link = IrExpr::tget(var("v"), 0);
    let share = bin(
        BinOp::Div,
        IrExpr::tget(var("v"), 1),
        IrExpr::tget(link.clone(), 1),
    );
    let damped = bin(
        BinOp::Add,
        IrExpr::double(0.15),
        bin(BinOp::Mul, IrExpr::double(0.85), var("v")),
    );
    let expr = links
        .join(ranks)
        .map(emits(&["k", "v"], vec![(IrExpr::tget(link, 0), share)]))
        .reduce(ReduceLambda::binop(BinOp::Add))
        .map(emits(&["k", "v"], vec![(var("k"), damped)]));
    let kind = OutputKind::AssocArray {
        len_var: "nodes".into(),
    };
    let plan = single("next", expr, kind, &[CA, CA]);

    let mut state = Env::new();
    state.set("edges", edges.clone());
    state.set("nodes", Value::Int(nodes as i64));
    state.set("next", Value::Array(vec![Value::Double(0.15); nodes]));
    let mut ranks = vec![Value::Double(1.0); nodes];
    for _ in 0..iterations {
        state.set("ranks", Value::Array(ranks));
        let out = match cache.as_deref_mut() {
            Some(cache) => plan.execute_cached(ctx, &state, cache)?,
            None => plan.execute(ctx, &state)?,
        };
        let Value::Array(next) = output(&out, "next")? else {
            return Err(Error::runtime("ranks must be an array"));
        };
        ranks = next;
    }
    Ok(ranks.iter().filter_map(Value::as_double).collect())
}

/// Logistic regression reference: the gradient is one aggregate per
/// iteration over the cached samples (`Sample { x1, x2, label }`).
pub fn logreg(ctx: &Arc<Context>, samples: &Value, iterations: usize) -> Result<(f64, f64)> {
    let margin = bin(
        BinOp::Add,
        bin(BinOp::Mul, var("w1"), dot("s", "x1")),
        bin(BinOp::Mul, var("w2"), dot("s", "x2")),
    );
    let exp = IrExpr::Call("exp".into(), vec![IrExpr::Un(UnOp::Neg, Box::new(margin))]);
    let p = bin(
        BinOp::Div,
        IrExpr::double(1.0),
        bin(BinOp::Add, IrExpr::double(1.0), exp),
    );
    let err = bin(BinOp::Sub, p, dot("s", "label"));
    let grad = IrExpr::Tuple(vec![
        bin(BinOp::Mul, err.clone(), dot("s", "x1")),
        bin(BinOp::Mul, err, dot("s", "x2")),
    ]);
    let expr = flat("samples", Type::Struct("Sample".into()))
        .map(emits(&["s"], vec![(IrExpr::int(0), grad)]))
        .reduce(componentwise(BinOp::Add, 2));
    let plan = tuple_plan(&["g1", "g2"], expr);

    let n = samples.elements().map_or(0, <[Value]>::len);
    let mut state = Env::new();
    state.set("samples", samples.clone());
    state.set("g1", Value::Double(0.0));
    state.set("g2", Value::Double(0.0));
    let mut cache = PlanCache::new();
    let (mut w1, mut w2) = (0.1f64, -0.1f64);
    for _ in 0..iterations {
        state.set("w1", Value::Double(w1));
        state.set("w2", Value::Double(w2));
        let out = plan.execute_cached(ctx, &state, &mut cache)?;
        let gradient = |g: &str| output(&out, g).map(|v| v.as_double().unwrap_or(0.0));
        let lr = 0.1 / n.max(1) as f64;
        w1 -= lr * gradient("g1")?;
        w2 -= lr * gradient("g2")?;
    }
    Ok((w1, w2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use suites::data;

    fn ctx() -> Arc<Context> {
        Context::with_parallelism(4, 8)
    }

    fn pixels(n: usize) -> Env {
        let mut state = Env::new();
        state.set("pixels", data::pixels(&mut StdRng::seed_from_u64(3), n));
        state
    }

    #[test]
    fn word_count_reference_counts() {
        let mut state = Env::new();
        let words = ["a", "b", "a"].map(Value::str);
        state.set("words", Value::List(words.to_vec()));
        state.set("counts", Value::Map(vec![]));
        let out = word_count(&ctx(), &state).unwrap();
        let counts = vec![
            (Value::str("a"), Value::Int(2)),
            (Value::str("b"), Value::Int(1)),
        ];
        assert_eq!(out.get("counts"), Some(&Value::Map(counts)));
    }

    #[test]
    fn histogram_variants_agree() {
        let state = pixels(500);
        let mut shuffle_state = state.clone();
        for (hist, _) in CHANNELS {
            shuffle_state.set(hist, Value::Map(vec![]));
        }
        let agg = histogram_aggregate(&ctx(), &state).unwrap();
        let shuf = histogram_shuffle(&ctx(), &shuffle_state).unwrap();
        for (hist, _) in CHANNELS {
            assert_eq!(agg.get(hist), shuf.get(hist), "{hist}");
        }
    }

    #[test]
    fn histogram_aggregate_shuffles_less() {
        let c1 = ctx();
        let state = pixels(4000);
        c1.reset_stats();
        histogram_aggregate(&c1, &state).unwrap();
        let agg_bytes = c1.stats().total_shuffled_bytes();
        c1.reset_stats();
        histogram_shuffle(&c1, &state).unwrap();
        let shuf_bytes = c1.stats().total_shuffled_bytes();
        assert!(
            agg_bytes < shuf_bytes,
            "developer trick must shuffle less: {agg_bytes} vs {shuf_bytes}"
        );
    }

    #[test]
    fn pagerank_variants_converge_identically() {
        let c = ctx();
        let edges = data::edges(&mut StdRng::seed_from_u64(9), 400, 50);
        let cached = pagerank_cached(&c, &edges, 50, 5).unwrap();
        let uncached = pagerank_uncached(&c, &edges, 50, 5).unwrap();
        assert_eq!(cached.len(), 50);
        for (a, b) in cached.iter().zip(&uncached) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn uncached_pagerank_moves_more_data() {
        let c1 = ctx();
        let edges = data::edges(&mut StdRng::seed_from_u64(9), 2000, 100);
        c1.reset_stats();
        pagerank_cached(&c1, &edges, 100, 5).unwrap();
        let cached_bytes = c1.stats().total_shuffled_bytes();
        c1.reset_stats();
        pagerank_uncached(&c1, &edges, 100, 5).unwrap();
        let uncached_bytes = c1.stats().total_shuffled_bytes();
        assert!(
            uncached_bytes > cached_bytes,
            "{uncached_bytes} vs {cached_bytes}"
        );
    }

    #[test]
    fn logreg_learns_the_separator() {
        let samples = data::labeled_points(&mut StdRng::seed_from_u64(5), 500);
        let (w1, w2) = logreg(&ctx(), &samples, 20).unwrap();
        // The separator is x1 + x2 > 0, so both weights trend positive.
        assert!(w1 > 0.0 && w2 > 0.0, "w = ({w1}, {w2})");
    }
}
