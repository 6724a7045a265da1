//! Deterministic executable semantics for the summary IR.
//!
//! This evaluator is the reference semantics used by bounded model
//! checking (§3.4) and full verification (§4.1): a summary is evaluated
//! against a concrete program state and its reconstructed outputs are
//! compared with the outputs the sequential fragment computes.

use std::collections::{HashMap, HashSet};

use seqlang::error::{Error, Result};
use seqlang::value::Value;
use seqlang::Env;

use crate::lambda::{MapLambda, ReduceLambda};
use crate::mr::{DataShape, MrExpr, OutputBinding, OutputKind, ProgramSummary};

/// Evaluation context: the concrete program state (inputs and pre-loop
/// output values) a summary is evaluated against.
#[derive(Debug, Clone)]
pub struct EvalCtx<'a> {
    /// Full pre-state of the fragment: input variables and the pre-loop
    /// values of output variables.
    pub state: &'a Env,
}

/// A record flowing between stages: data sources produce records of their
/// shape's arity; map/reduce/join stages produce `[key, value]` records.
pub type Row = Vec<Value>;

impl<'a> EvalCtx<'a> {
    pub fn new(state: &'a Env) -> Self {
        EvalCtx { state }
    }

    /// Evaluate a whole summary: returns the post-values of every bound
    /// output variable.
    pub fn eval_summary(&self, summary: &ProgramSummary) -> Result<Env> {
        let mut out = Env::new();
        for binding in &summary.bindings {
            self.eval_binding(binding, &mut out)?;
        }
        Ok(out)
    }

    fn eval_binding(&self, binding: &OutputBinding, out: &mut Env) -> Result<()> {
        let rows = self.eval_mr(&binding.expr)?;
        reconstruct_output(self.state, &binding.vars, &binding.kind, &rows, out)
    }

    /// Evaluate an MR pipeline to its key/value multiset.
    pub fn eval_mr(&self, expr: &MrExpr) -> Result<Vec<Row>> {
        match expr {
            MrExpr::Data(src) => eval_data(self.state, src),
            MrExpr::Map(inner, lambda) => {
                let input = self.eval_mr(inner)?;
                self.eval_map(lambda, &input)
            }
            MrExpr::Reduce(inner, lambda) => {
                let input = self.eval_mr(inner)?;
                self.eval_reduce(lambda, &input)
            }
            MrExpr::Join(l, r) => {
                let left = self.eval_mr(l)?;
                let right = self.eval_mr(r)?;
                eval_join(&left, &right)
            }
        }
    }

    fn eval_map(&self, lambda: &MapLambda, input: &[Row]) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(input.len() * lambda.emits.len().max(1));
        let mut env = self.state.clone();
        for row in input {
            if row.len() != lambda.params.len() {
                return Err(Error::runtime(format!(
                    "map λ expects {} params, record has {} fields",
                    lambda.params.len(),
                    row.len()
                )));
            }
            for (p, v) in lambda.params.iter().zip(row) {
                env.set(p.clone(), v.clone());
            }
            for emit in &lambda.emits {
                let fire = match &emit.cond {
                    Some(c) => c
                        .eval(&env)?
                        .as_bool()
                        .ok_or_else(|| Error::runtime("emit guard not a bool"))?,
                    None => true,
                };
                if fire {
                    let k = emit.key.eval(&env)?;
                    let v = emit.val.eval(&env)?;
                    out.push(vec![k, v]);
                }
            }
        }
        Ok(out)
    }

    fn eval_reduce(&self, lambda: &ReduceLambda, input: &[Row]) -> Result<Vec<Row>> {
        // Group by key, preserving first-appearance order of keys and the
        // within-group order of values (the deterministic semantics both
        // verification phases rely on; commutativity is checked separately
        // before codegen may parallelise the reduction).
        let groups = group_by_key(input)?;
        let mut out = Vec::with_capacity(groups.len());
        let mut env = self.state.clone();
        for (k, vals) in groups {
            let mut acc = vals[0].clone();
            for v in &vals[1..] {
                env.set(lambda.params[0].clone(), acc);
                env.set(lambda.params[1].clone(), v.clone());
                acc = lambda.body.eval(&env)?;
            }
            out.push(vec![k, acc]);
        }
        Ok(out)
    }
}

/// Produce a data source's record multiset from the program state — shared
/// by the tree-walking evaluator and [`crate::compile::CompiledSummary`].
pub(crate) fn eval_data(state: &Env, src: &crate::mr::DataSource) -> Result<Vec<Row>> {
    let coll = state
        .get(&src.var)
        .ok_or_else(|| Error::runtime(format!("no input `{}`", src.var)))?;
    let elems = coll
        .elements()
        .ok_or_else(|| Error::runtime(format!("`{}` is not a collection", src.var)))?;
    match src.shape {
        DataShape::Flat => Ok(elems.iter().map(|e| vec![e.clone()]).collect()),
        DataShape::Indexed => Ok(elems
            .iter()
            .enumerate()
            .map(|(i, e)| vec![Value::Int(i as i64), e.clone()])
            .collect()),
        DataShape::Indexed2D => {
            let mut rows = Vec::new();
            for (i, row) in elems.iter().enumerate() {
                let inner = row
                    .elements()
                    .ok_or_else(|| Error::runtime(format!("`{}` is not 2-D", src.var)))?;
                for (j, e) in inner.iter().enumerate() {
                    rows.push(vec![Value::Int(i as i64), Value::Int(j as i64), e.clone()]);
                }
            }
            Ok(rows)
        }
    }
}

/// Group a key/value multiset by key, preserving first-appearance order of
/// keys and the within-group order of values.
pub(crate) fn group_by_key(input: &[Row]) -> Result<Vec<(Value, Vec<Value>)>> {
    let mut order: Vec<Value> = Vec::new();
    let mut groups: HashMap<Value, Vec<Value>> = HashMap::new();
    for row in input {
        let [k, v] = row.as_slice() else {
            return Err(Error::runtime("reduce input is not key/value"));
        };
        groups.entry(k.clone()).or_insert_with(|| {
            order.push(k.clone());
            Vec::new()
        });
        groups.get_mut(k).expect("just inserted").push(v.clone());
    }
    Ok(order
        .into_iter()
        .map(|k| {
            let vals = groups.remove(&k).expect("grouped");
            (k, vals)
        })
        .collect())
}

fn pre_value(state: &Env, var: &str) -> Result<Value> {
    state
        .get(var)
        .cloned()
        .ok_or_else(|| Error::runtime(format!("output `{var}` missing from pre-state")))
}

fn extract_single(rows: &[Row]) -> Result<Option<Value>> {
    match rows {
        [] => Ok(None),
        [row] => Ok(Some(row[row.len() - 1].clone())),
        _ => Err(Error::runtime(format!(
            "scalar output produced {} pairs (expected ≤ 1)",
            rows.len()
        ))),
    }
}

fn extract_scalar(state: &Env, rows: &[Row], var: &str) -> Result<Value> {
    match extract_single(rows)? {
        Some(v) => Ok(v),
        None => pre_value(state, var),
    }
}

/// Reconstruct the values of `vars` from a pipeline's key/value multiset
/// according to the binding's [`OutputKind`] — the single semantics shared
/// by the tree-walking evaluator, the compiled evaluator and the engine's
/// plans, so none of them can diverge on output reconstruction. The engine
/// hands its rows over in key order; an `AssocMap` keeps the order it is
/// given.
pub fn reconstruct_output(
    state: &Env,
    vars: &[String],
    kind: &OutputKind,
    rows: &[Row],
    out: &mut Env,
) -> Result<()> {
    match kind {
        OutputKind::Scalar => {
            let var = &vars[0];
            let value = extract_scalar(state, rows, var)?;
            out.set(var.clone(), value);
        }
        OutputKind::ScalarTuple => {
            let value = extract_single(rows)?;
            match value {
                Some(Value::Tuple(parts)) => {
                    if parts.len() != vars.len() {
                        return Err(Error::runtime(format!(
                            "summary tuple has {} parts for {} variables",
                            parts.len(),
                            vars.len()
                        )));
                    }
                    for (var, v) in vars.iter().zip(parts) {
                        out.set(var.clone(), v);
                    }
                }
                Some(other) => {
                    return Err(Error::runtime(format!(
                        "ScalarTuple output expected tuple, got {other}"
                    )))
                }
                None => {
                    // Empty dataset: all variables keep pre-loop values.
                    for var in vars {
                        let v = pre_value(state, var)?;
                        out.set(var.clone(), v);
                    }
                }
            }
        }
        OutputKind::KeyedScalars { keys } => {
            if keys.len() != vars.len() {
                return Err(Error::runtime("KeyedScalars arity mismatch"));
            }
            for (var, key_expr) in vars.iter().zip(keys) {
                let key = key_expr.eval(state)?;
                let mut hits = rows.iter().filter(|r| r.len() == 2 && r[0] == key);
                match (hits.next(), hits.next()) {
                    (None, _) => {
                        let v = pre_value(state, var)?;
                        out.set(var.clone(), v);
                    }
                    (Some(row), None) => out.set(var.clone(), row[1].clone()),
                    (Some(_), Some(_)) => {
                        return Err(Error::runtime(format!(
                            "KeyedScalars: duplicate key {key} (missing reduce?)"
                        )))
                    }
                }
            }
        }
        OutputKind::AssocArray { len_var } => {
            let var = &vars[0];
            let len = state
                .get(len_var)
                .and_then(Value::as_int)
                .ok_or_else(|| Error::runtime(format!("length variable `{len_var}` not an int")))?;
            let pre = pre_value(state, var)?;
            let Value::Array(mut arr) = pre else {
                return Err(Error::runtime(format!("`{var}` is not an array")));
            };
            arr.resize(len as usize, Value::Int(0));
            for row in rows {
                let [k, v] = row.as_slice() else {
                    return Err(Error::runtime("non-KV row at output"));
                };
                let i = k.as_int().ok_or_else(|| {
                    Error::runtime(format!("array output needs int keys, got {k}"))
                })?;
                if i < 0 || i as usize >= arr.len() {
                    return Err(Error::runtime(format!(
                        "array output key {i} out of bounds (len {})",
                        arr.len()
                    )));
                }
                arr[i as usize] = v.clone();
            }
            out.set(var.clone(), Value::Array(arr));
        }
        OutputKind::AssocMap => {
            let var = &vars[0];
            let mut entries: Vec<(Value, Value)> = Vec::with_capacity(rows.len());
            let mut seen: HashSet<&Value> = HashSet::with_capacity(rows.len());
            for row in rows {
                let [k, v] = row.as_slice() else {
                    return Err(Error::runtime("non-KV row at output"));
                };
                if !seen.insert(k) {
                    return Err(Error::runtime(format!(
                        "map output has duplicate key {k} (missing reduce?)"
                    )));
                }
                entries.push((k.clone(), v.clone()));
            }
            out.set(var.clone(), Value::Map(entries));
        }
        OutputKind::CollectedList => {
            let var = &vars[0];
            let mut vals: Vec<Value> = rows.iter().map(|r| r[r.len() - 1].clone()).collect();
            // MapReduce output is a multiset: canonicalise by sorting.
            vals.sort();
            out.set(var.clone(), Value::List(vals));
        }
    }
    Ok(())
}

/// Join two key/value multisets on key equality: `(k,v) ⋈ (k,w) → (k,(v,w))`.
pub fn eval_join(left: &[Row], right: &[Row]) -> Result<Vec<Row>> {
    let mut index: HashMap<&Value, Vec<&Value>> = HashMap::new();
    for row in right {
        let [k, v] = row.as_slice() else {
            return Err(Error::runtime("join input is not key/value"));
        };
        index.entry(k).or_default().push(v);
    }
    let mut out = Vec::new();
    for row in left {
        let [k, v] = row.as_slice() else {
            return Err(Error::runtime("join input is not key/value"));
        };
        if let Some(matches) = index.get(k) {
            for w in matches {
                out.push(vec![k.clone(), Value::Tuple(vec![v.clone(), (*w).clone()])]);
            }
        }
    }
    Ok(out)
}

/// Convenience wrapper: evaluate `summary` against `state`, returning the
/// outputs it computes.
pub fn eval_summary(summary: &ProgramSummary, state: &Env) -> Result<Env> {
    EvalCtx::new(state).eval_summary(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::IrExpr;
    use crate::lambda::Emit;
    use crate::mr::DataSource;
    use seqlang::ast::BinOp;
    use seqlang::ty::Type;

    fn state(pairs: &[(&str, Value)]) -> Env {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn rwm_summary() -> ProgramSummary {
        let m1 = MapLambda::new(
            vec!["i", "j", "v"],
            vec![Emit::unconditional(IrExpr::var("i"), IrExpr::var("v"))],
        );
        let r = ReduceLambda::binop(BinOp::Add);
        let m2 = MapLambda::new(
            vec!["k", "v"],
            vec![Emit::unconditional(
                IrExpr::var("k"),
                IrExpr::bin(BinOp::Div, IrExpr::var("v"), IrExpr::var("cols")),
            )],
        );
        let expr = MrExpr::Data(DataSource::indexed_2d("mat", Type::Int))
            .map(m1)
            .reduce(r)
            .map(m2);
        ProgramSummary::single(
            "m",
            expr,
            OutputKind::AssocArray {
                len_var: "rows".into(),
            },
        )
    }

    #[test]
    fn rwm_summary_computes_row_means() {
        let mat = Value::Array(vec![
            Value::Array(vec![Value::Int(1), Value::Int(3)]),
            Value::Array(vec![Value::Int(10), Value::Int(20)]),
        ]);
        let st = state(&[
            ("mat", mat),
            ("rows", Value::Int(2)),
            ("cols", Value::Int(2)),
            ("m", Value::Array(vec![Value::Int(0), Value::Int(0)])),
        ]);
        let out = eval_summary(&rwm_summary(), &st).unwrap();
        assert_eq!(
            out.get("m"),
            Some(&Value::Array(vec![Value::Int(2), Value::Int(15)]))
        );
    }

    #[test]
    fn rwm_on_empty_matrix_keeps_prestate() {
        let st = state(&[
            ("mat", Value::Array(vec![])),
            ("rows", Value::Int(0)),
            ("cols", Value::Int(2)),
            ("m", Value::Array(vec![])),
        ]);
        let out = eval_summary(&rwm_summary(), &st).unwrap();
        assert_eq!(out.get("m"), Some(&Value::Array(vec![])));
    }

    fn sum_summary() -> ProgramSummary {
        // s = reduce(map(xs, v -> (0, v)), +)
        let m = MapLambda::new(
            vec!["v"],
            vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("v"))],
        );
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(m)
            .reduce(ReduceLambda::binop(BinOp::Add));
        ProgramSummary::single("s", expr, OutputKind::Scalar)
    }

    #[test]
    fn scalar_sum() {
        let st = state(&[
            (
                "xs",
                Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            ),
            ("s", Value::Int(0)),
        ]);
        let out = eval_summary(&sum_summary(), &st).unwrap();
        assert_eq!(out.get("s"), Some(&Value::Int(6)));
    }

    #[test]
    fn scalar_on_empty_input_falls_back_to_prestate() {
        let st = state(&[("xs", Value::List(vec![])), ("s", Value::Int(17))]);
        let out = eval_summary(&sum_summary(), &st).unwrap();
        assert_eq!(out.get("s"), Some(&Value::Int(17)));
    }

    #[test]
    fn word_count_as_assoc_map() {
        // counts = reduce(map(words, w -> (w, 1)), +)
        let m = MapLambda::new(
            vec!["w"],
            vec![Emit::unconditional(IrExpr::var("w"), IrExpr::int(1))],
        );
        let expr = MrExpr::Data(DataSource::flat("words", Type::Str))
            .map(m)
            .reduce(ReduceLambda::binop(BinOp::Add));
        let summary = ProgramSummary::single("counts", expr, OutputKind::AssocMap);
        let st = state(&[
            (
                "words",
                Value::List(vec![Value::str("a"), Value::str("b"), Value::str("a")]),
            ),
            ("counts", Value::Map(vec![])),
        ]);
        let out = eval_summary(&summary, &st).unwrap();
        assert_eq!(
            out.get("counts"),
            Some(&Value::Map(vec![
                (Value::str("a"), Value::Int(2)),
                (Value::str("b"), Value::Int(1)),
            ]))
        );
    }

    #[test]
    fn guarded_emits_filter() {
        // evens = map with guard (v % 2 == 0), collected as a list.
        let m = MapLambda::new(
            vec!["v"],
            vec![Emit::guarded(
                IrExpr::bin(
                    BinOp::Eq,
                    IrExpr::bin(BinOp::Mod, IrExpr::var("v"), IrExpr::int(2)),
                    IrExpr::int(0),
                ),
                IrExpr::int(0),
                IrExpr::var("v"),
            )],
        );
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int)).map(m);
        let summary = ProgramSummary::single("evens", expr, OutputKind::CollectedList);
        let st = state(&[
            ("xs", Value::List((1..=6).map(Value::Int).collect())),
            ("evens", Value::List(vec![])),
        ]);
        let out = eval_summary(&summary, &st).unwrap();
        assert_eq!(
            out.get("evens"),
            Some(&Value::List(vec![
                Value::Int(2),
                Value::Int(4),
                Value::Int(6)
            ]))
        );
    }

    #[test]
    fn join_matches_keys() {
        let left = vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::str("b")],
        ];
        let right = vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(3), Value::Int(30)],
        ];
        let out = eval_join(&left, &right).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::Int(1));
        assert_eq!(
            out[0][1],
            Value::Tuple(vec![Value::str("a"), Value::Int(10)])
        );
    }

    #[test]
    fn join_pipeline_dot_product() {
        // dot = reduce(map(join(xs_indexed, ys_indexed), (k,v) -> (0, v.0*v.1)), +)
        let m = MapLambda::new(
            vec!["k", "v"],
            vec![Emit::unconditional(
                IrExpr::int(0),
                IrExpr::bin(
                    BinOp::Mul,
                    IrExpr::tget(IrExpr::var("v"), 0),
                    IrExpr::tget(IrExpr::var("v"), 1),
                ),
            )],
        );
        let expr = MrExpr::Data(DataSource::indexed("xs", Type::Int))
            .join(MrExpr::Data(DataSource::indexed("ys", Type::Int)))
            .map(m)
            .reduce(ReduceLambda::binop(BinOp::Add));
        let summary = ProgramSummary::single("dot", expr, OutputKind::Scalar);
        let st = state(&[
            ("xs", Value::Array(vec![Value::Int(1), Value::Int(2)])),
            ("ys", Value::Array(vec![Value::Int(3), Value::Int(4)])),
            ("dot", Value::Int(0)),
        ]);
        let out = eval_summary(&summary, &st).unwrap();
        assert_eq!(out.get("dot"), Some(&Value::Int(11)));
    }

    #[test]
    fn scalar_with_multiple_keys_is_an_error() {
        let m = MapLambda::new(
            vec!["v"],
            vec![Emit::unconditional(IrExpr::var("v"), IrExpr::var("v"))],
        );
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int)).map(m);
        let summary = ProgramSummary::single("s", expr, OutputKind::Scalar);
        let st = state(&[
            ("xs", Value::List(vec![Value::Int(1), Value::Int(2)])),
            ("s", Value::Int(0)),
        ]);
        assert!(eval_summary(&summary, &st).is_err());
    }

    #[test]
    fn scalar_tuple_binds_multiple_vars() {
        // StringMatch solution (b): one reduce producing a pair of bools.
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
                vars: vec!["found1".into(), "found2".into()],
                expr,
                kind: OutputKind::ScalarTuple,
            }],
        };
        let st = state(&[
            (
                "text",
                Value::List(vec![Value::str("x"), Value::str("cat"), Value::str("y")]),
            ),
            ("key1", Value::str("cat")),
            ("key2", Value::str("dog")),
            ("found1", Value::Bool(false)),
            ("found2", Value::Bool(false)),
        ]);
        let out = eval_summary(&summary, &st).unwrap();
        assert_eq!(out.get("found1"), Some(&Value::Bool(true)));
        assert_eq!(out.get("found2"), Some(&Value::Bool(false)));
    }
}
