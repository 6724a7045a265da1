//! Executable plans: verified summaries compiled onto the engine.
//!
//! A [`CompiledPlan`] lowers each output binding's `MrExpr` pipeline
//! **once at construction** into a tree of fused stages: λ lookups are
//! resolved to frame slots by [`casper_ir::compile`]'s shared lowering
//! (the same one `CompiledSummary` screens candidates with, so the two
//! cannot diverge), and chains of narrow map operators collapse into a
//! single per-partition pass over the engine's `mapPartitions` primitive.
//! Per-record work is then a bytecode run over a small register frame —
//! no `Env::clone`, no name hashing, no tree walk, no materialized
//! dataset per operator.
//!
//! [`CompiledPlan::execute`] runs over buffer-backed partitions
//! ([`mapreduce::BufRdd`]): records live in contiguous [`ValueBuf`]s,
//! narrow passes copy cells between buffers instead of materializing
//! boxed `Value`s, and the shuffle moves raw byte ranges. Its reference
//! is the IR evaluator, `casper_ir::eval::eval_summary`: a plan's outputs
//! equal the summary's meaning up to map order, error outcomes included.
//!
//! Every execution recomputes every stage: like the paper's generated
//! programs, a plan calls no `cache()`.

use std::sync::Arc;

use casper_ir::compile::{CompiledMapLambda, CompiledReduceLambda};
use casper_ir::eval::{reconstruct_output, Row};
use casper_ir::mr::{DataShape, DataSource, MrExpr, ProgramSummary};
use mapreduce::bufrdd::{rows_per_partition, BufRdd, PassStats};
use mapreduce::Context;
use seqlang::buf::{RecordArena, ValueBuf};
use seqlang::env::Env;
use seqlang::error::{Error, Result};
use seqlang::value::Value;
use verifier::CaProperties;

/// One stage of a fused pipeline. Narrow chains are pre-collapsed.
#[derive(Clone)]
enum FusedStage {
    /// A bare data source feeding a shuffle or join (already key/value
    /// shaped for `Indexed` data — the zipWithIndex ingestion of
    /// Appendix C).
    Source(DataSource),
    /// A single fused per-partition pass: records from `input` flow
    /// through the whole chain of compiled map λs with no intermediate
    /// materialization.
    Narrow {
        input: NarrowInput,
        maps: Vec<Arc<CompiledMapLambda>>,
    },
    /// Shuffle boundary: `reduceByKey` when the λr is CA (§6.3),
    /// `groupByKey` + ordered fold otherwise.
    Wide {
        input: Box<FusedStage>,
        combiner: Arc<CompiledReduceLambda>,
        props: CaProperties,
    },
    Join {
        left: Box<FusedStage>,
        right: Box<FusedStage>,
    },
}

/// What feeds a fused narrow chain: raw source records or the key/value
/// output of an upstream wide stage.
#[derive(Clone)]
enum NarrowInput {
    Source(DataSource),
    Stage(Box<FusedStage>),
}

/// Kept only because `benchmark/` still names it: plans hold no
/// cross-execution cache, so this holds nothing and never hits. It goes
/// at the benchmark re-baseline (ROADMAP item 17).
#[derive(Default)]
pub struct PlanCache;

impl PlanCache {
    pub fn new() -> PlanCache {
        PlanCache
    }

    /// Always 0: nothing is cached.
    pub fn hits(&self) -> u64 {
        0
    }
}

/// A summary compiled against the engine, with the verifier's algebraic
/// facts steering primitive selection (§6.3: `reduceByKey` only for
/// commutative-associative transformers, otherwise `groupByKey`).
#[derive(Clone)]
pub struct CompiledPlan {
    pub summary: ProgramSummary,
    /// Per-reduce CA properties, in pipeline order.
    pub reduce_props: Vec<CaProperties>,
    /// One fused pipeline per output binding, lowered at construction.
    pipelines: Vec<FusedStage>,
}

impl CompiledPlan {
    /// Lower `summary` into fused, slot-resolved pipelines. This is the
    /// plan-compile step: all per-record name resolution happens here,
    /// exactly once.
    pub fn new(summary: ProgramSummary, reduce_props: Vec<CaProperties>) -> CompiledPlan {
        let pipelines = summary
            .bindings
            .iter()
            .map(|b| compile(&b.expr, &reduce_props, &mut 0))
            .collect();
        CompiledPlan {
            summary,
            reduce_props,
            pipelines,
        }
    }

    /// Execute the plan on the engine against a program state, returning
    /// the computed output variables. Statistics accumulate in `ctx`.
    /// Runs the fused, compiled data plane.
    pub fn execute(&self, ctx: &Arc<Context>, state: &Env) -> Result<Env> {
        let mut out = Env::new();
        for (binding, stage) in self.summary.bindings.iter().zip(&self.pipelines) {
            let pairs = run_fused(ctx, state, stage)?.collect_sorted();
            let rows: Vec<Row> = pairs.into_iter().map(|(k, v)| vec![k, v]).collect();
            reconstruct_output(state, &binding.vars, &binding.kind, &rows, &mut out)?;
        }
        Ok(out)
    }

    /// [`execute`](CompiledPlan::execute); `benchmark/` still calls it
    /// by this name. It goes at the benchmark re-baseline (ROADMAP item
    /// 17).
    pub fn execute_cached(
        &self,
        ctx: &Arc<Context>,
        state: &Env,
        _cache: &mut PlanCache,
    ) -> Result<Env> {
        self.execute(ctx, state)
    }

    /// The outputs of an execution whose every binding's root rows are
    /// already known, one `Vec` per binding: each is put in key order, as
    /// [`execute`](CompiledPlan::execute) collects the engine's rows, and
    /// reconstructed the same way. The runtime monitor returns its profile
    /// through this when its sample was the whole input.
    pub(crate) fn outputs_from_rows(&self, state: &Env, roots: Vec<Vec<Row>>) -> Result<Env> {
        let mut out = Env::new();
        for (binding, mut rows) in self.summary.bindings.iter().zip(roots) {
            rows.sort_by(|a, b| a[0].cmp(&b[0]));
            reconstruct_output(state, &binding.vars, &binding.kind, &rows, &mut out)?;
        }
        Ok(out)
    }
}

/// Execute one fused stage on the buffered data plane. Records never
/// leave their partition buffer except to cross a shuffle; λs read rows
/// through borrowed [`seqlang::buf::ValueRef`] views and write emissions
/// straight into the output buffer.
fn run_fused(ctx: &Arc<Context>, state: &Env, stage: &FusedStage) -> Result<BufRdd> {
    match stage {
        FusedStage::Source(src) => ingest_pairs(ctx, state, src),
        FusedStage::Narrow { input, maps } => {
            let label = format!("fused[mapx{}]", maps.len());
            // An upstream wide/join stage produces width-2 pair
            // buffers, which ARE the `[k, v]` frames the next λ
            // binds — no repacking at the seam.
            let frames = match input {
                NarrowInput::Source(src) => BufRdd::from_built_partitions(
                    ctx,
                    src.shape.arity(),
                    source_frame_bufs(ctx, state, src)?,
                ),
                NarrowInput::Stage(inner) => run_fused(ctx, state, inner)?,
            };
            frames.map_partitions(&label, |part: &ValueBuf| {
                let mut out = ValueBuf::with_capacity(2, part.len());
                let mut arena = RecordArena::new();
                if let [only] = &maps[..] {
                    for row in 0..part.len() {
                        only.apply_into_buf(part, row, state, &mut out, &mut arena)?;
                    }
                    Ok((
                        out,
                        PassStats {
                            allocs: arena.allocs,
                            arena_hwm_bytes: 0,
                        },
                    ))
                } else {
                    // Chain per record through two scratch buffers,
                    // cleared between records so their footprint stays
                    // bounded by the widest single record.
                    let mut cur = ValueBuf::new(2);
                    let mut next = ValueBuf::new(2);
                    for row in 0..part.len() {
                        cur.clear();
                        maps[0].apply_into_buf(part, row, state, &mut cur, &mut arena)?;
                        for m in &maps[1..] {
                            next.clear();
                            for r in 0..cur.len() {
                                m.apply_into_buf(&cur, r, state, &mut next, &mut arena)?;
                            }
                            std::mem::swap(&mut cur, &mut next);
                        }
                        for r in 0..cur.len() {
                            out.copy_row_from(&cur, r);
                        }
                    }
                    Ok((
                        out,
                        PassStats {
                            allocs: arena.allocs,
                            arena_hwm_bytes: cur.hwm_bytes().max(next.hwm_bytes()),
                        },
                    ))
                }
            })
        }
        FusedStage::Wide {
            input,
            combiner,
            props,
        } => {
            let pairs = run_fused(ctx, state, input)?;
            if props.both() {
                pairs.try_reduce_by_key(combiner.fast_combine(), |a, b| {
                    combiner.combine(a, b, state)
                })
            } else {
                pairs.try_group_fold(|a, b| combiner.combine(a, b, state))
            }
        }
        FusedStage::Join { left, right } => {
            let l = run_fused(ctx, state, left)?;
            let r = run_fused(ctx, state, right)?;
            Ok(l.join_pairs(&r))
        }
    }
}

/// Lower one `MrExpr` pipeline to fused stages; `reduce_idx` counts the
/// reduces lowered so far, indexing `props`.
fn compile(expr: &MrExpr, props: &[CaProperties], reduce_idx: &mut usize) -> FusedStage {
    match expr {
        MrExpr::Data(src) => FusedStage::Source(src.clone()),
        MrExpr::Map(inner, lambda) => {
            let compiled = Arc::new(CompiledMapLambda::compile(lambda));
            match compile(inner, props, reduce_idx) {
                // Collapse consecutive narrow operators into one pass.
                FusedStage::Narrow { input, mut maps } => {
                    maps.push(compiled);
                    FusedStage::Narrow { input, maps }
                }
                FusedStage::Source(src) => FusedStage::Narrow {
                    input: NarrowInput::Source(src),
                    maps: vec![compiled],
                },
                wide => FusedStage::Narrow {
                    input: NarrowInput::Stage(Box::new(wide)),
                    maps: vec![compiled],
                },
            }
        }
        MrExpr::Reduce(inner, lambda) => {
            let input = compile(inner, props, reduce_idx);
            let props = props.get(*reduce_idx).copied().unwrap_or(CaProperties {
                commutative: false,
                associative: false,
            });
            *reduce_idx += 1;
            FusedStage::Wide {
                input: Box::new(input),
                combiner: Arc::new(CompiledReduceLambda::compile(lambda)),
                props,
            }
        }
        MrExpr::Join(l, r) => {
            let left = compile(l, props, reduce_idx);
            let right = compile(r, props, reduce_idx);
            FusedStage::Join {
                left: Box::new(left),
                right: Box::new(right),
            }
        }
    }
}

/// Ingest a bare data source as key/value pairs (join/reduce input): an
/// indexed source becomes width-2 `[i, e]` partition buffers directly,
/// with no boxed pair materialization.
fn ingest_pairs(ctx: &Arc<Context>, state: &Env, src: &DataSource) -> Result<BufRdd> {
    if src.shape != DataShape::Indexed {
        return Err(Error::runtime(
            "bare non-indexed data source reached codegen without a map",
        ));
    }
    let parts = source_frame_bufs(ctx, state, src)?;
    Ok(BufRdd::from_built_partitions(ctx, 2, parts))
}

/// Build per-record λ frames for a data source as width-`arity`
/// partition buffers: `Flat` rows are `[e]`, `Indexed` rows `[i, e]`,
/// `Indexed2D` rows `[i, j, e]`, chunked by [`rows_per_partition`]. 2-D
/// shape errors surface before any buffer is built, so they precede every
/// stage.
fn source_frame_bufs(ctx: &Arc<Context>, state: &Env, src: &DataSource) -> Result<Vec<ValueBuf>> {
    let var = &src.var;
    let coll = state
        .get(var)
        .ok_or_else(|| Error::runtime(format!("input `{var}` missing")))?;
    let elems = coll
        .elements()
        .ok_or_else(|| Error::runtime(format!("input `{var}` is not a collection")))?;
    let width = src.shape.arity();
    match src.shape {
        DataShape::Flat => {
            let per = rows_per_partition(ctx, elems.len());
            Ok(elems
                .chunks(per)
                .map(|chunk| {
                    let mut buf = ValueBuf::with_capacity(width, chunk.len());
                    for e in chunk {
                        buf.push_value(e);
                    }
                    buf
                })
                .collect())
        }
        DataShape::Indexed => {
            let per = rows_per_partition(ctx, elems.len());
            Ok(elems
                .chunks(per)
                .enumerate()
                .map(|(ci, chunk)| {
                    let mut buf = ValueBuf::with_capacity(width, chunk.len());
                    for (j, e) in chunk.iter().enumerate() {
                        buf.push_value(&Value::Int((ci * per + j) as i64));
                        buf.push_value(e);
                    }
                    buf
                })
                .collect())
        }
        DataShape::Indexed2D => {
            let mut inners: Vec<&[Value]> = Vec::with_capacity(elems.len());
            for row in elems {
                inners.push(
                    row.elements()
                        .ok_or_else(|| Error::runtime(format!("`{var}` is not 2-D")))?,
                );
            }
            let n: usize = inners.iter().map(|r| r.len()).sum();
            let per = rows_per_partition(ctx, n);
            let mut parts = Vec::new();
            let mut buf = ValueBuf::with_capacity(width, per.min(n));
            for (i, inner) in inners.iter().enumerate() {
                for (j, e) in inner.iter().enumerate() {
                    if buf.len() == per {
                        parts.push(std::mem::replace(
                            &mut buf,
                            ValueBuf::with_capacity(width, per),
                        ));
                    }
                    buf.push_value(&Value::Int(i as i64));
                    buf.push_value(&Value::Int(j as i64));
                    buf.push_value(e);
                }
            }
            if !buf.is_empty() {
                parts.push(buf);
            }
            Ok(parts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_ir::expr::IrExpr;
    use casper_ir::lambda::{Emit, MapLambda, ReduceLambda};
    use casper_ir::mr::{DataSource, OutputKind};
    use mapreduce::StageKind;
    use seqlang::ast::BinOp;
    use seqlang::ty::Type;

    fn ctx() -> Arc<Context> {
        Context::with_parallelism(4, 8)
    }

    fn ca() -> CaProperties {
        CaProperties {
            commutative: true,
            associative: true,
        }
    }

    fn word_count_summary() -> ProgramSummary {
        let m = MapLambda::new(
            vec!["w"],
            vec![Emit::unconditional(IrExpr::var("w"), IrExpr::int(1))],
        );
        let expr = MrExpr::Data(DataSource::flat("words", Type::Str))
            .map(m)
            .reduce(ReduceLambda::binop(BinOp::Add));
        ProgramSummary::single("counts", expr, OutputKind::AssocMap)
    }

    /// Sort map entries: the engine collects maps key-sorted, the IR
    /// evaluator keeps first-appearance order.
    fn canon(env: &Env) -> Env {
        env.iter()
            .map(|(k, v)| match v {
                Value::Map(entries) => {
                    let mut e = entries.clone();
                    e.sort();
                    (k.clone(), Value::Map(e))
                }
                other => (k.clone(), other.clone()),
            })
            .collect()
    }

    /// The plan must agree with the IR evaluator up to map order, and
    /// fail exactly when it fails.
    fn assert_matches_ir(plan: &CompiledPlan, state: &Env) {
        let fused = plan.execute(&ctx(), state);
        let reference = casper_ir::eval::eval_summary(&plan.summary, state);
        match (&fused, &reference) {
            (Ok(a), Ok(b)) => assert_eq!(canon(a), canon(b), "plan vs IR evaluator diverge"),
            (Err(_), Err(_)) => {}
            _ => panic!("plan {fused:?} vs IR evaluator {reference:?}"),
        }
    }

    #[test]
    fn word_count_plan_executes() {
        let plan = CompiledPlan::new(word_count_summary(), vec![ca()]);
        let mut state = Env::new();
        state.set(
            "words",
            Value::List(vec![
                Value::str("a"),
                Value::str("b"),
                Value::str("a"),
                Value::str("a"),
            ]),
        );
        state.set("counts", Value::Map(vec![]));
        let out = plan.execute(&ctx(), &state).unwrap();
        let Value::Map(entries) = out.get("counts").unwrap() else {
            panic!()
        };
        let get = |k: &str| {
            entries
                .iter()
                .find(|(key, _)| key == &Value::str(k))
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get("a"), Some(Value::Int(3)));
        assert_eq!(get("b"), Some(Value::Int(1)));
        assert_matches_ir(&plan, &state);
    }

    #[test]
    fn plan_matches_ir_evaluator() {
        // The engine execution must agree with the IR reference semantics.
        let plan = CompiledPlan::new(word_count_summary(), vec![ca()]);
        let mut state = Env::new();
        state.set(
            "words",
            Value::List(
                ["x", "y", "x", "z", "z", "z"]
                    .iter()
                    .map(Value::str)
                    .collect(),
            ),
        );
        state.set("counts", Value::Map(vec![]));
        assert_matches_ir(&plan, &state);
    }

    #[test]
    fn non_ca_reduce_uses_group_by_key() {
        // keep-first reducer (non-commutative): plan must still compute
        // the in-order fold result.
        let m = MapLambda::new(
            vec!["x"],
            vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("x"))],
        );
        let r = ReduceLambda::new(IrExpr::var("v1"));
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(m)
            .reduce(r);
        let summary = ProgramSummary::single("first", expr, OutputKind::Scalar);
        let plan = CompiledPlan::new(
            summary,
            vec![CaProperties {
                commutative: false,
                associative: true,
            }],
        );
        let c = ctx();
        let mut state = Env::new();
        state.set(
            "xs",
            Value::List(vec![Value::Int(7), Value::Int(8), Value::Int(9)]),
        );
        state.set("first", Value::Int(0));
        c.reset_stats();
        let out = plan.execute(&c, &state).unwrap();
        assert_eq!(out.get("first"), Some(&Value::Int(7)));
        let labels: Vec<String> = c.stats().stages.iter().map(|s| s.label.clone()).collect();
        assert!(
            labels.iter().any(|l| l == "groupByKey"),
            "non-CA must compile to groupByKey: {labels:?}"
        );
        assert_matches_ir(&plan, &state);
    }

    #[test]
    fn ca_reduce_uses_reduce_by_key() {
        let plan = CompiledPlan::new(word_count_summary(), vec![ca()]);
        let c = ctx();
        let mut state = Env::new();
        state.set("words", Value::List(vec![Value::str("a")]));
        state.set("counts", Value::Map(vec![]));
        c.reset_stats();
        plan.execute(&c, &state).unwrap();
        let labels: Vec<String> = c.stats().stages.iter().map(|s| s.label.clone()).collect();
        assert!(labels.iter().any(|l| l == "reduceByKey"), "{labels:?}");
    }

    #[test]
    fn scalar_fallback_on_empty_input() {
        let m = MapLambda::new(
            vec!["x"],
            vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("x"))],
        );
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(m)
            .reduce(ReduceLambda::binop(BinOp::Add));
        let summary = ProgramSummary::single("s", expr, OutputKind::Scalar);
        let plan = CompiledPlan::new(summary, vec![ca()]);
        let mut state = Env::new();
        state.set("xs", Value::List(vec![]));
        state.set("s", Value::Int(99));
        let out = plan.execute(&ctx(), &state).unwrap();
        assert_eq!(out.get("s"), Some(&Value::Int(99)));
        assert_matches_ir(&plan, &state);
    }

    #[test]
    fn indexed_2d_plan_rwm() {
        // Full row-wise mean plan from the paper's Figure 1(b).
        let m1 = MapLambda::new(
            vec!["i", "j", "v"],
            vec![Emit::unconditional(IrExpr::var("i"), IrExpr::var("v"))],
        );
        let m2 = MapLambda::new(
            vec!["_k", "_v"],
            vec![Emit::unconditional(
                IrExpr::var("_k"),
                IrExpr::bin(BinOp::Div, IrExpr::var("_v"), IrExpr::var("cols")),
            )],
        );
        let expr = MrExpr::Data(DataSource::indexed_2d("mat", Type::Int))
            .map(m1)
            .reduce(ReduceLambda::binop(BinOp::Add))
            .map(m2);
        let summary = ProgramSummary::single(
            "m",
            expr,
            OutputKind::AssocArray {
                len_var: "rows".into(),
            },
        );
        let plan = CompiledPlan::new(summary, vec![ca()]);
        let mut state = Env::new();
        state.set(
            "mat",
            Value::Array(vec![
                Value::Array(vec![Value::Int(1), Value::Int(3)]),
                Value::Array(vec![Value::Int(10), Value::Int(20)]),
            ]),
        );
        state.set("rows", Value::Int(2));
        state.set("cols", Value::Int(2));
        state.set("m", Value::Array(vec![Value::Int(0), Value::Int(0)]));
        let out = plan.execute(&ctx(), &state).unwrap();
        assert_eq!(
            out.get("m"),
            Some(&Value::Array(vec![Value::Int(2), Value::Int(15)]))
        );
        assert_matches_ir(&plan, &state);
    }

    #[test]
    fn fused_pipeline_collapses_narrow_chain() {
        // map ∘ map over a source must execute as ONE fused stage, and
        // fusion must leave one shuffle per reduce.
        let m1 = MapLambda::new(
            vec!["x"],
            vec![Emit::unconditional(
                IrExpr::var("x"),
                IrExpr::bin(BinOp::Mul, IrExpr::var("x"), IrExpr::int(2)),
            )],
        );
        let m2 = MapLambda::new(
            vec!["k", "v"],
            vec![Emit::unconditional(
                IrExpr::int(0),
                IrExpr::bin(BinOp::Add, IrExpr::var("v"), IrExpr::int(1)),
            )],
        );
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(m1)
            .map(m2)
            .reduce(ReduceLambda::binop(BinOp::Add));
        let summary = ProgramSummary::single("s", expr, OutputKind::Scalar);
        let plan = CompiledPlan::new(summary, vec![ca()]);
        let mut state = Env::new();
        state.set("xs", Value::List((1..=50).map(Value::Int).collect()));
        state.set("s", Value::Int(0));

        let c = ctx();
        c.reset_stats();
        let fused_out = plan.execute(&c, &state).unwrap();
        let fused_stats = c.stats();
        let fused_maps = fused_stats
            .stages
            .iter()
            .filter(|s| s.kind == StageKind::Map)
            .count();
        assert_eq!(fused_maps, 1, "narrow chain must fuse: {fused_stats}");
        assert!(fused_stats.stages.iter().any(|s| s.label == "fused[mapx2]"));

        let reference = casper_ir::eval::eval_summary(&plan.summary, &state).unwrap();
        assert_eq!(fused_out, reference);
        assert_eq!(fused_stats.shuffle_count(), 1, "one reduce, one shuffle");
    }

    #[test]
    fn evaluation_errors_propagate_from_all_modes() {
        // Guard faults (division by a zero free variable) must abort
        // execution, not silently drop records.
        let m = MapLambda::new(
            vec!["v"],
            vec![Emit::guarded(
                IrExpr::bin(
                    BinOp::Gt,
                    IrExpr::bin(BinOp::Div, IrExpr::var("v"), IrExpr::var("z")),
                    IrExpr::int(0),
                ),
                IrExpr::int(0),
                IrExpr::var("v"),
            )],
        );
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(m)
            .reduce(ReduceLambda::binop(BinOp::Add));
        let summary = ProgramSummary::single("s", expr, OutputKind::Scalar);
        let plan = CompiledPlan::new(summary, vec![ca()]);
        let mut state = Env::new();
        state.set("xs", Value::List(vec![Value::Int(4)]));
        state.set("z", Value::Int(0));
        state.set("s", Value::Int(0));
        let c = ctx();
        assert!(plan.execute(&c, &state).is_err());
        assert!(casper_ir::eval::eval_summary(&plan.summary, &state).is_err());
        // Reduce-side faults propagate too.
        let bad_reduce =
            ReduceLambda::new(IrExpr::bin(BinOp::Div, IrExpr::var("v1"), IrExpr::var("z")));
        let m2 = MapLambda::new(
            vec!["v"],
            vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("v"))],
        );
        let expr2 = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(m2)
            .reduce(bad_reduce);
        let plan2 = CompiledPlan::new(
            ProgramSummary::single("s", expr2, OutputKind::Scalar),
            vec![ca()],
        );
        let mut st2 = Env::new();
        st2.set("xs", Value::List(vec![Value::Int(1), Value::Int(2)]));
        st2.set("z", Value::Int(0));
        st2.set("s", Value::Int(0));
        assert!(plan2.execute(&c, &st2).is_err());
        assert!(casper_ir::eval::eval_summary(&plan2.summary, &st2).is_err());
    }
}
