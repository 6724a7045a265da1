//! SparkSQL's TPC-H plans beside Casper-style ones (§7.2, Figure 7(b)).
//!
//! The paper attributes the runtime differences to concrete plan
//! properties: extra shuffling of whole rows for Q1 and Q6, a double scan
//! of `lineitem` for Q15, and *better* operator scheduling for Q17 (where
//! SparkSQL wins 1.7×, realised here as a broadcast join instead of the
//! shuffle join Casper's plan uses). These are exactly those plans. Each
//! runs on a [`state`] and returns its query's result.

use std::sync::Arc;

use casper_ir::expr::IrExpr;
use casper_ir::lambda::ReduceLambda;
use casper_ir::mr::{MrExpr, OutputKind};
use mapreduce::{Context, PassStats};
use seqlang::ast::BinOp;
use seqlang::buf::{FastCombine, ValueBuf};
use seqlang::env::Env;
use seqlang::error::{Error, Result};
use seqlang::ty::Type;
use seqlang::value::Value;

use super::{bin, componentwise, dot, emit_if, emits, flat, ingest, output, single, var};
use super::{CA, NON_CA};

/// The state every plan here reads: the `lineitem` rows (structs from
/// `suites::tpch::lineitems`), the ship-date window `dt1 < d < dt2`, and
/// Q17's selected part keys.
pub fn state(lineitem: Value, dt1: i64, dt2: i64, selected: &[i64]) -> Env {
    let mut state = Env::new();
    state.set("lineitem", lineitem);
    state.set("dt1", Value::Int(dt1));
    state.set("dt2", Value::Int(dt2));
    state.set(
        "sel",
        Value::List(selected.iter().copied().map(Value::Int).collect()),
    );
    // Results an empty input leaves at these values.
    state.set("revenue", Value::Double(0.0));
    state.set("max_rev", Value::Double(0.0));
    state.set(
        "best",
        Value::Tuple(vec![Value::Int(0), Value::Double(0.0)]),
    );
    state.set("total", Value::Double(0.0));
    state
}

fn lineitem() -> MrExpr {
    flat("lineitem", Type::Struct("Lineitem".into()))
}

fn li(field: &str) -> IrExpr {
    dot("l", field)
}

fn and(l: IrExpr, r: IrExpr) -> IrExpr {
    bin(BinOp::And, l, r)
}

/// `dt1 < l_shipdate < dt2`.
fn in_window() -> IrExpr {
    and(
        bin(BinOp::Gt, li("l_shipdate"), var("dt1")),
        bin(BinOp::Lt, li("l_shipdate"), var("dt2")),
    )
}

/// Q6's whole predicate.
fn q6_predicate() -> IrExpr {
    let discount = and(
        bin(BinOp::Ge, li("l_discount"), IrExpr::double(0.05)),
        bin(BinOp::Le, li("l_discount"), IrExpr::double(0.07)),
    );
    let quantity = bin(BinOp::Lt, li("l_quantity"), IrExpr::double(24.0));
    and(in_window(), and(discount, quantity))
}

/// Q1 grouped by return flag: `(Σ quantity, Σ price, count)` per flag,
/// reduced with or without a combiner.
fn q1_plan(ctx: &Arc<Context>, state: &Env, combiner: bool) -> Result<Value> {
    let row = IrExpr::Tuple(vec![
        li("l_quantity"),
        li("l_extendedprice"),
        IrExpr::int(1),
    ]);
    let expr = lineitem()
        .map(emits(&["l"], vec![(li("l_returnflag"), row)]))
        .reduce(componentwise(BinOp::Add, 3));
    let props = if combiner { CA } else { NON_CA };
    let out = single("q1", expr, OutputKind::AssocMap, &[props]).execute(ctx, state)?;
    output(&out, "q1")
}

/// SparkSQL-style Q1: shuffles whole rows to the grouping stage (no
/// map-side aggregation), then aggregates.
pub fn q1(ctx: &Arc<Context>, state: &Env) -> Result<Value> {
    q1_plan(ctx, state, false)
}

/// Casper-style Q1: project in the map, aggregate with a combiner.
pub fn q1_casper(ctx: &Arc<Context>, state: &Env) -> Result<Value> {
    q1_plan(ctx, state, true)
}

/// SparkSQL-style Q6: every row is shuffled whole to a group keyed by
/// `l_shipdate % 64`, and the predicate is evaluated after the shuffle.
/// A group of whole rows is outside the IR, so this plan is written on
/// `BufRdd` directly.
pub fn q6(ctx: &Arc<Context>, state: &Env) -> Result<Value> {
    let window = |name: &str| state.get(name).and_then(Value::as_int);
    let (Some(dt1), Some(dt2)) = (window("dt1"), window("dt2")) else {
        return Err(Error::runtime("Q6 needs the `dt1` and `dt2` bounds"));
    };
    let num = |row: &Value, field: &str| -> Result<f64> {
        row.field(field)
            .and_then(Value::as_double)
            .ok_or_else(|| Error::runtime(format!("lineitem `{field}` missing")))
    };
    // A row's revenue term: price × discount where the predicate holds.
    let term = |row: &Value| -> Result<f64> {
        let date = row.field("l_shipdate").and_then(Value::as_int).unwrap_or(0);
        let discount = num(row, "l_discount")?;
        let kept = date > dt1
            && date < dt2
            && (0.05..=0.07).contains(&discount)
            && num(row, "l_quantity")? < 24.0;
        Ok(if kept {
            num(row, "l_extendedprice")? * discount
        } else {
            0.0
        })
    };
    // A group's running sum; its first element is still a row.
    let partial = |v: &Value| -> Result<f64> {
        match v {
            Value::Double(sum) => Ok(*sum),
            row => term(row),
        }
    };

    let keyed =
        ingest(ctx, state, "lineitem")?.map_partitions("mapToPair", |part: &ValueBuf| {
            let mut out = ValueBuf::with_capacity(2, part.len());
            for r in 0..part.len() {
                let row = part.value_at(r, 0);
                let date = row.field("l_shipdate").and_then(Value::as_int).unwrap_or(0);
                out.push_value(&Value::Int(date % 64));
                out.push_value(&row);
            }
            Ok::<_, Error>((out, PassStats::default()))
        })?;
    let grouped =
        keyed.try_group_fold(|acc, row| Ok(Value::Double(partial(&acc)? + term(&row)?)))?;
    let sums = grouped.map_partitions("map", |part: &ValueBuf| {
        let mut out = ValueBuf::with_capacity(2, part.len());
        for r in 0..part.len() {
            out.push_value(&Value::Int(0));
            out.push_value(&Value::Double(partial(&part.value_at(r, 1))?));
        }
        Ok((out, PassStats::default()))
    })?;
    let add = |a: Value, b: Value| seqlang::interp::eval_binop(BinOp::Add, a, b);
    let total = sums.try_reduce_by_key(Some(FastCombine::Add), add)?;
    let revenue = total.collect_sorted().into_iter().next();
    Ok(revenue.map_or(Value::Double(0.0), |(_, v)| v))
}

/// Casper-style Q6: the predicate guards the map, a combiner sums — one
/// tiny shuffle.
pub fn q6_casper(ctx: &Arc<Context>, state: &Env) -> Result<Value> {
    let term = bin(BinOp::Mul, li("l_extendedprice"), li("l_discount"));
    let expr = lineitem()
        .map(emit_if(&["l"], q6_predicate(), IrExpr::int(0), term))
        .reduce(ReduceLambda::binop(BinOp::Add));
    let out = single("revenue", expr, OutputKind::Scalar, &[CA]).execute(ctx, state)?;
    output(&out, "revenue")
}

/// Per-supplier revenue inside the date window.
fn supplier_revenue() -> MrExpr {
    let discounted = bin(BinOp::Sub, IrExpr::double(1.0), li("l_discount"));
    let revenue = bin(BinOp::Mul, li("l_extendedprice"), discounted);
    lineitem()
        .map(emit_if(&["l"], in_window(), li("l_suppkey"), revenue))
        .reduce(ReduceLambda::binop(BinOp::Add))
}

/// SparkSQL-style Q15: scans lineitem twice — once for the maximum
/// revenue, once for the supplier attaining it (the paper's observed
/// plan). Returns `(supplier, revenue)`.
pub fn q15(ctx: &Arc<Context>, state: &Env) -> Result<Value> {
    let revenues = emits(&["k", "v"], vec![(IrExpr::int(0), var("v"))]);
    let max = ReduceLambda::new(IrExpr::Call("max".into(), vec![var("v1"), var("v2")]));
    let scan1 = supplier_revenue().map(revenues).reduce(max);
    let max_rev = single("max_rev", scan1, OutputKind::Scalar, &[CA, CA]).execute(ctx, state)?;
    let mut scan2_state = state.clone();
    scan2_state.set("max_rev", output(&max_rev, "max_rev")?);
    let gap = bin(BinOp::Sub, var("v"), var("max_rev"));
    let attains = bin(
        BinOp::Lt,
        IrExpr::Call("abs".into(), vec![gap]),
        IrExpr::double(1e-9),
    );
    let pair = IrExpr::Tuple(vec![var("k"), var("v")]);
    let scan2 = supplier_revenue().map(emit_if(&["k", "v"], attains, var("k"), pair));
    let best = single("best", scan2, OutputKind::CollectedList, &[CA]);
    let out = best.execute(ctx, &scan2_state)?;
    let first = output(&out, "best")?
        .elements()
        .and_then(|b| b.first().cloned());
    Ok(first.unwrap_or_else(|| Value::Tuple(vec![Value::Int(0), Value::Double(0.0)])))
}

/// Casper-style Q15: one scan, the maximum taken over the aggregated
/// revenues. Returns `(supplier, revenue)`.
pub fn q15_casper(ctx: &Arc<Context>, state: &Env) -> Result<Value> {
    let pairs = emits(
        &["k", "v"],
        vec![(IrExpr::int(0), IrExpr::Tuple(vec![var("k"), var("v")]))],
    );
    let higher = bin(
        BinOp::Ge,
        IrExpr::tget(var("v1"), 1),
        IrExpr::tget(var("v2"), 1),
    );
    let argmax = ReduceLambda::new(IrExpr::ite(higher, var("v1"), var("v2")));
    let expr = supplier_revenue().map(pairs).reduce(argmax);
    let out = single("best", expr, OutputKind::Scalar, &[CA, CA]).execute(ctx, state)?;
    output(&out, "best")
}

/// SparkSQL-style Q17: a broadcast join — the selected part keys travel
/// to every mapper, which filters in place (the better-scheduled plan
/// that beats Casper's shuffle join by ~1.7×).
pub fn q17(ctx: &Arc<Context>, state: &Env) -> Result<Value> {
    let selected = IrExpr::Method(
        Box::new(var("sel")),
        "contains".into(),
        vec![li("l_partkey")],
    );
    let expr = lineitem()
        .map(emit_if(
            &["l"],
            selected,
            IrExpr::int(0),
            li("l_extendedprice"),
        ))
        .reduce(ReduceLambda::binop(BinOp::Add));
    let out = single("total", expr, OutputKind::Scalar, &[CA]).execute(ctx, state)?;
    output(&out, "total")
}

/// Casper-style Q17: a shuffle join between lineitem and the selected
/// parts.
pub fn q17_casper(ctx: &Arc<Context>, state: &Env) -> Result<Value> {
    let prices = lineitem().map(emits(
        &["l"],
        vec![(li("l_partkey"), li("l_extendedprice"))],
    ));
    let parts = flat("sel", Type::Int).map(emits(&["k"], vec![(var("k"), IrExpr::int(0))]));
    let expr = prices
        .join(parts)
        .map(emits(
            &["k", "v"],
            vec![(IrExpr::int(0), IrExpr::tget(var("v"), 0))],
        ))
        .reduce(ReduceLambda::binop(BinOp::Add));
    let out = single("total", expr, OutputKind::Scalar, &[CA]).execute(ctx, state)?;
    output(&out, "total")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::StageKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (Arc<Context>, Env) {
        let ctx = Context::with_parallelism(4, 8);
        let rows = suites::tpch::lineitems(&mut StdRng::seed_from_u64(21), n);
        let selected: Vec<i64> = (0..200).map(|i| i * 7).collect();
        (ctx, state(rows, 8100, 9000, &selected))
    }

    fn double(v: &Value) -> f64 {
        v.as_double().unwrap()
    }

    #[test]
    fn q1_plans_agree() {
        let (ctx, state) = setup(2000);
        let Value::Map(a) = q1(&ctx, &state).unwrap() else {
            panic!("Q1 is a map")
        };
        let Value::Map(b) = q1_casper(&ctx, &state).unwrap() else {
            panic!("Q1 is a map")
        };
        assert_eq!(a.len(), b.len());
        for ((k1, v1), (k2, v2)) in a.iter().zip(&b) {
            assert_eq!(k1, k2);
            let (Value::Tuple(v1), Value::Tuple(v2)) = (v1, v2) else {
                panic!("Q1 rows are tuples")
            };
            assert!((double(&v1[0]) - double(&v2[0])).abs() < 1e-6);
            assert_eq!(v1[2], v2[2]);
        }
    }

    #[test]
    fn q6_plans_agree_and_sql_shuffles_more() {
        let (ctx, state) = setup(4000);
        ctx.reset_stats();
        let a = double(&q6(&ctx, &state).unwrap());
        let sql_shuffle = ctx.stats().total_shuffled_bytes();
        ctx.reset_stats();
        let b = double(&q6_casper(&ctx, &state).unwrap());
        let casper_shuffle = ctx.stats().total_shuffled_bytes();
        assert!((a - b).abs() < 1e-6);
        assert!(
            sql_shuffle > casper_shuffle * 5,
            "SparkSQL Q6 must shuffle rows: {sql_shuffle} vs {casper_shuffle}"
        );
    }

    #[test]
    fn q15_plans_agree_and_sql_scans_twice() {
        let (ctx, state) = setup(3000);
        let inputs = |ctx: &Context| {
            let stats = ctx.stats();
            let stages = stats.stages.iter();
            stages.filter(|s| s.kind == StageKind::Input).count()
        };
        ctx.reset_stats();
        let a = q15(&ctx, &state).unwrap();
        let sql_inputs = inputs(&ctx);
        ctx.reset_stats();
        let b = q15_casper(&ctx, &state).unwrap();
        let casper_inputs = inputs(&ctx);
        let supplier = |v: &Value| match v {
            Value::Tuple(t) => t[0].clone(),
            other => panic!("Q15 returns a pair, not {other}"),
        };
        assert_eq!(supplier(&a), supplier(&b), "same best supplier");
        assert_eq!(sql_inputs, 2 * casper_inputs, "double scan of lineitem");
    }

    #[test]
    fn q17_plans_agree_and_broadcast_beats_shuffle() {
        let (ctx, state) = setup(3000);
        ctx.reset_stats();
        let a = double(&q17(&ctx, &state).unwrap());
        let sql_shuffle = ctx.stats().total_shuffled_bytes();
        ctx.reset_stats();
        let b = double(&q17_casper(&ctx, &state).unwrap());
        let casper_shuffle = ctx.stats().total_shuffled_bytes();
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        assert!(
            sql_shuffle < casper_shuffle,
            "{sql_shuffle} vs {casper_shuffle}"
        );
    }
}
