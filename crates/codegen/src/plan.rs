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
//! Iterative drivers pass a [`PlanCache`] to
//! [`CompiledPlan::execute_cached`]: stage cut-points whose input
//! variables are unchanged since the previous execution are served from
//! the cache, recording a zero-cost `cache[...]` stage the cluster
//! simulator does not charge.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use casper_ir::compile::{CompiledMapLambda, CompiledReduceLambda};
use casper_ir::eval::{reconstruct_output, Row};
use casper_ir::mr::{DataShape, DataSource, MrExpr, ProgramSummary};
use mapreduce::bufrdd::{rows_per_partition, BufRdd, PassStats};
use mapreduce::{Context, StageKind, StageStats};
use seqlang::buf::{RecordArena, ValueBuf};
use seqlang::env::Env;
use seqlang::error::{Error, Result};
use seqlang::value::Value;
use verifier::CaProperties;

/// One stage of a fused pipeline. Narrow chains are pre-collapsed; the
/// `id` indexes the plan's dependency table and keys the [`PlanCache`].
#[derive(Clone)]
enum FusedStage {
    /// A bare data source feeding a shuffle or join (already key/value
    /// shaped for `Indexed` data — the zipWithIndex ingestion of
    /// Appendix C).
    Source { id: usize, src: DataSource },
    /// A single fused per-partition pass: records from `input` flow
    /// through the whole chain of compiled map λs with no intermediate
    /// materialization.
    Narrow {
        id: usize,
        input: NarrowInput,
        maps: Vec<Arc<CompiledMapLambda>>,
    },
    /// Shuffle boundary: `reduceByKey` when the λr is CA (§6.3),
    /// `groupByKey` + ordered fold otherwise.
    Wide {
        id: usize,
        input: Box<FusedStage>,
        combiner: Arc<CompiledReduceLambda>,
        props: CaProperties,
    },
    Join {
        id: usize,
        left: Box<FusedStage>,
        right: Box<FusedStage>,
    },
}

/// What feeds a fused narrow chain: raw source records or the key/value
/// output of an upstream wide stage. A source input keeps its own stage
/// id so the ingested frames are a cacheable cut-point even when the
/// chain's λ free variables change between executions (the iterative
/// case: ranks change, the edge list does not).
#[derive(Clone)]
enum NarrowInput {
    Source { id: usize, src: DataSource },
    Stage(Box<FusedStage>),
}

impl FusedStage {
    fn id(&self) -> usize {
        match self {
            FusedStage::Source { id, .. }
            | FusedStage::Narrow { id, .. }
            | FusedStage::Wide { id, .. }
            | FusedStage::Join { id, .. } => *id,
        }
    }

    /// Stage kind + label used for cache-hit markers.
    fn cache_label(&self) -> (StageKind, String) {
        match self {
            FusedStage::Source { .. } => (StageKind::Input, "parallelize".into()),
            FusedStage::Narrow { maps, .. } => {
                (StageKind::Map, format!("fused[mapx{}]", maps.len()))
            }
            FusedStage::Wide { props, .. } => (
                StageKind::Shuffle,
                if props.both() {
                    "reduceByKey".into()
                } else {
                    "groupByKey".into()
                },
            ),
            FusedStage::Join { .. } => (StageKind::Join, "join".into()),
        }
    }
}

/// Cross-execution memoization of fused-stage results. Entries are keyed
/// by stage id and validated by a content hash of every state variable
/// the stage's subtree reads (source collections and λ free variables);
/// iterative drivers that mutate only scalars between executions re-use
/// the heavy ingest/shuffle cut-points for free.
#[derive(Default)]
pub struct PlanCache {
    /// The plan this cache's entries belong to — stage ids are only
    /// meaningful within one lowering, so a cache handed to a different
    /// plan is cleared instead of serving the wrong plan's results.
    owner: Option<u64>,
    entries: HashMap<usize, (u64, BufRdd)>,
    /// Ingested source frames feeding fused narrow chains (width-arity
    /// buffers).
    frames: HashMap<usize, (u64, BufRdd)>,
    /// Cross-execution memo of per-variable content hashes, validated by
    /// the env's `(identity, write stamp)` pair: iterative drivers mutate
    /// a handful of variables per iteration, and only those are
    /// re-hashed — the heavy unchanged collections (an edge list, say)
    /// are proven unchanged in O(1) instead of re-hashed in O(n).
    var_memo: HashMap<String, (u64, u64, u64)>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Stage lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Stage lookups that had to recompute (cold or invalidated).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn lookup(&mut self, id: usize, fp: u64) -> Option<BufRdd> {
        match self.entries.get(&id) {
            Some((stored, rdd)) if *stored == fp => {
                self.hits += 1;
                Some(rdd.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    fn store(&mut self, id: usize, fp: u64, rdd: BufRdd) {
        self.entries.insert(id, (fp, rdd));
    }

    fn lookup_frames(&mut self, id: usize, fp: u64) -> Option<BufRdd> {
        match self.frames.get(&id) {
            Some((stored, rdd)) if *stored == fp => {
                self.hits += 1;
                Some(rdd.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    fn store_frames(&mut self, id: usize, fp: u64, rdd: BufRdd) {
        self.frames.insert(id, (fp, rdd));
    }

    /// Bind the cache to `plan_id`, dropping every entry if it currently
    /// belongs to a different plan.
    fn rebind(&mut self, plan_id: u64) {
        if self.owner != Some(plan_id) {
            self.entries.clear();
            self.frames.clear();
            self.owner = Some(plan_id);
        }
    }
}

/// Per-execution cache context: the bound [`PlanCache`] plus a memo of
/// per-variable content hashes, so each state variable is hashed at most
/// once per execution no matter how many stage footprints it appears in —
/// and, via the cache's cross-execution [`PlanCache::var_memo`], at most
/// once per *mutation*: a variable whose env write stamp is unchanged
/// since a previous execution re-uses its stored hash without touching
/// its contents.
struct CacheCtx<'a> {
    cache: &'a mut PlanCache,
    var_hashes: HashMap<String, u64>,
}

impl CacheCtx<'_> {
    /// Fingerprint of every state variable in `deps`.
    fn fingerprint(&mut self, state: &Env, deps: &[String]) -> u64 {
        let mut h = DefaultHasher::new();
        for name in deps {
            name.hash(&mut h);
            let vh = match self.var_hashes.get(name) {
                Some(vh) => *vh,
                None => {
                    let vh = Self::var_hash(&mut self.cache.var_memo, state, name);
                    self.var_hashes.insert(name.clone(), vh);
                    vh
                }
            };
            vh.hash(&mut h);
        }
        h.finish()
    }

    /// Content hash of one variable, served from the cross-execution memo
    /// when the env's `(identity, write stamp)` pair proves it unchanged.
    fn var_hash(memo: &mut HashMap<String, (u64, u64, u64)>, state: &Env, name: &str) -> u64 {
        let id = state.identity();
        let stamp = state.write_stamp(name);
        if let Some((mid, mstamp, mhash)) = memo.get(name) {
            if *mid == id && *mstamp == stamp {
                return *mhash;
            }
        }
        let mut vh = DefaultHasher::new();
        match state.get(name) {
            Some(v) => {
                1u8.hash(&mut vh);
                v.hash(&mut vh);
            }
            None => 0u8.hash(&mut vh),
        }
        let vh = vh.finish();
        memo.insert(name.to_string(), (id, stamp, vh));
        vh
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
    /// Per-stage-id state variables the stage's subtree reads (sources +
    /// λ free variables) — the cache-validation footprint.
    stage_deps: Vec<Vec<String>>,
    /// Identity of this lowering: [`PlanCache`]s are bound to it, so a
    /// cache cannot serve one plan's results to another. Clones share
    /// the id (they share the lowering).
    plan_id: u64,
}

static NEXT_PLAN_ID: AtomicU64 = AtomicU64::new(1);

impl CompiledPlan {
    /// Lower `summary` into fused, slot-resolved pipelines. This is the
    /// plan-compile step: all per-record name resolution happens here,
    /// exactly once.
    pub fn new(summary: ProgramSummary, reduce_props: Vec<CaProperties>) -> CompiledPlan {
        let mut builder = PlanBuilder {
            props: &reduce_props,
            next_id: 0,
            deps: Vec::new(),
        };
        let pipelines = summary
            .bindings
            .iter()
            .map(|b| {
                let mut reduce_idx = 0usize;
                builder.compile(&b.expr, &mut reduce_idx)
            })
            .collect();
        let stage_deps = builder.deps;
        CompiledPlan {
            summary,
            reduce_props,
            stage_deps,
            pipelines,
            plan_id: NEXT_PLAN_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Execute the plan on the engine against a program state, returning
    /// the computed output variables. Statistics accumulate in `ctx`.
    /// Runs the fused, compiled data plane.
    pub fn execute(&self, ctx: &Arc<Context>, state: &Env) -> Result<Env> {
        self.execute_inner(ctx, state, &mut None)
    }

    /// Like [`execute`](CompiledPlan::execute), but serving unchanged
    /// stage cut-points from `cache` and refreshing it with this
    /// execution's results — the iterative-driver entry point.
    pub fn execute_cached(
        &self,
        ctx: &Arc<Context>,
        state: &Env,
        cache: &mut PlanCache,
    ) -> Result<Env> {
        cache.rebind(self.plan_id);
        let mut opt = Some(CacheCtx {
            cache,
            var_hashes: HashMap::new(),
        });
        self.execute_inner(ctx, state, &mut opt)
    }

    fn execute_inner(
        &self,
        ctx: &Arc<Context>,
        state: &Env,
        cache: &mut Option<CacheCtx<'_>>,
    ) -> Result<Env> {
        let mut out = Env::new();
        for (binding, stage) in self.summary.bindings.iter().zip(&self.pipelines) {
            let pairs = self.run_fused(ctx, state, stage, cache)?.collect_sorted();
            let rows: Vec<Row> = pairs.into_iter().map(|(k, v)| vec![k, v]).collect();
            reconstruct_output(state, &binding.vars, &binding.kind, &rows, &mut out)?;
        }
        Ok(out)
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

    /// Ingest a source's λ frames into width-`arity` partition buffers,
    /// serving them from the cache when the source collection is
    /// unchanged — the cut-point that makes iterative plans stop
    /// re-running their input pipeline.
    fn ingest_frames(
        &self,
        ctx: &Arc<Context>,
        state: &Env,
        src_id: usize,
        src: &DataSource,
        cache: &mut Option<CacheCtx<'_>>,
    ) -> Result<BufRdd> {
        let fp = cache
            .as_mut()
            .map(|cc| cc.fingerprint(state, &self.stage_deps[src_id]));
        if let (Some(cc), Some(fp)) = (cache.as_mut(), fp) {
            if let Some(stored) = cc.cache.lookup_frames(src_id, fp) {
                let rdd = stored.bind_context(ctx);
                ctx.record_stage(StageStats::cache_hit(
                    StageKind::Input,
                    "cache[parallelize]",
                    rdd.count(),
                ));
                return Ok(rdd);
            }
        }
        let width = src.shape.arity();
        let frames = BufRdd::from_built_partitions(ctx, width, source_frame_bufs(ctx, state, src)?);
        if let (Some(cc), Some(fp)) = (cache.as_mut(), fp) {
            cc.cache.store_frames(src_id, fp, frames.clone());
        }
        Ok(frames)
    }

    /// Execute one fused stage on the buffered data plane, consulting and
    /// refreshing the cache. Records never leave their partition buffer
    /// except to cross a shuffle; λs read rows through borrowed
    /// [`seqlang::buf::ValueRef`] views and write emissions straight into
    /// the output buffer.
    fn run_fused(
        &self,
        ctx: &Arc<Context>,
        state: &Env,
        stage: &FusedStage,
        cache: &mut Option<CacheCtx<'_>>,
    ) -> Result<BufRdd> {
        let fp = cache
            .as_mut()
            .map(|cc| cc.fingerprint(state, &self.stage_deps[stage.id()]));
        if let (Some(cc), Some(fp)) = (cache.as_mut(), fp) {
            if let Some(stored) = cc.cache.lookup(stage.id(), fp) {
                let rdd = stored.bind_context(ctx);
                let (kind, label) = stage.cache_label();
                ctx.record_stage(StageStats::cache_hit(
                    kind,
                    format!("cache[{label}]"),
                    rdd.count(),
                ));
                return Ok(rdd);
            }
        }
        let result = match stage {
            FusedStage::Source { src, .. } => ingest_pairs(ctx, state, src)?,
            FusedStage::Narrow { input, maps, .. } => {
                let label = format!("fused[mapx{}]", maps.len());
                // An upstream wide/join stage produces width-2 pair
                // buffers, which ARE the `[k, v]` frames the next λ
                // binds — no repacking at the seam.
                let frames = match input {
                    NarrowInput::Source { id: src_id, src } => {
                        self.ingest_frames(ctx, state, *src_id, src, cache)?
                    }
                    NarrowInput::Stage(inner) => self.run_fused(ctx, state, inner, cache)?,
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
                })?
            }
            FusedStage::Wide {
                input,
                combiner,
                props,
                ..
            } => {
                let pairs = self.run_fused(ctx, state, input, cache)?;
                if props.both() {
                    pairs.try_reduce_by_key(combiner.fast_combine(), |a, b| {
                        combiner.combine(a, b, state)
                    })?
                } else {
                    pairs.try_group_fold(|a, b| combiner.combine(a, b, state))?
                }
            }
            FusedStage::Join { left, right, .. } => {
                let l = self.run_fused(ctx, state, left, cache)?;
                let r = self.run_fused(ctx, state, right, cache)?;
                l.join_pairs(&r)
            }
        };
        if let (Some(cc), Some(fp)) = (cache.as_mut(), fp) {
            cc.cache.store(stage.id(), fp, result.clone());
        }
        Ok(result)
    }
}

/// Lowers `MrExpr` pipelines to fused stages, assigning stage ids and
/// accumulating the per-stage dependency footprints.
struct PlanBuilder<'a> {
    props: &'a [CaProperties],
    next_id: usize,
    deps: Vec<Vec<String>>,
}

impl PlanBuilder<'_> {
    fn fresh_id(&mut self, deps: Vec<String>) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        let mut deps = deps;
        deps.sort();
        deps.dedup();
        self.deps.push(deps);
        id
    }

    fn compile(&mut self, expr: &MrExpr, reduce_idx: &mut usize) -> FusedStage {
        match expr {
            MrExpr::Data(src) => {
                let id = self.fresh_id(vec![src.var.clone()]);
                FusedStage::Source {
                    id,
                    src: src.clone(),
                }
            }
            MrExpr::Map(inner, lambda) => {
                let compiled = Arc::new(CompiledMapLambda::compile(lambda));
                let lambda_deps: Vec<String> = compiled.free_vars().to_vec();
                match self.compile(inner, reduce_idx) {
                    // Collapse consecutive narrow operators into one pass.
                    FusedStage::Narrow {
                        id,
                        input,
                        mut maps,
                    } => {
                        let mut deps = self.deps[id].clone();
                        deps.extend(lambda_deps);
                        let id = self.fresh_id(deps);
                        maps.push(compiled);
                        FusedStage::Narrow { id, input, maps }
                    }
                    FusedStage::Source { id: src_id, src } => {
                        let mut deps = self.deps[src_id].clone();
                        deps.extend(lambda_deps);
                        let id = self.fresh_id(deps);
                        FusedStage::Narrow {
                            id,
                            input: NarrowInput::Source { id: src_id, src },
                            maps: vec![compiled],
                        }
                    }
                    wide => {
                        let mut deps = self.deps[wide.id()].clone();
                        deps.extend(lambda_deps);
                        let id = self.fresh_id(deps);
                        FusedStage::Narrow {
                            id,
                            input: NarrowInput::Stage(Box::new(wide)),
                            maps: vec![compiled],
                        }
                    }
                }
            }
            MrExpr::Reduce(inner, lambda) => {
                let input = self.compile(inner, reduce_idx);
                let props = self
                    .props
                    .get(*reduce_idx)
                    .copied()
                    .unwrap_or(CaProperties {
                        commutative: false,
                        associative: false,
                    });
                *reduce_idx += 1;
                let combiner = Arc::new(CompiledReduceLambda::compile(lambda));
                let mut deps = self.deps[input.id()].clone();
                deps.extend(combiner.free_vars().to_vec());
                let id = self.fresh_id(deps);
                FusedStage::Wide {
                    id,
                    input: Box::new(input),
                    combiner,
                    props,
                }
            }
            MrExpr::Join(l, r) => {
                let left = self.compile(l, reduce_idx);
                let right = self.compile(r, reduce_idx);
                let mut deps = self.deps[left.id()].clone();
                deps.extend(self.deps[right.id()].clone());
                let id = self.fresh_id(deps);
                FusedStage::Join {
                    id,
                    left: Box::new(left),
                    right: Box::new(right),
                }
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

    #[test]
    fn plan_cache_serves_unchanged_cut_points() {
        let plan = CompiledPlan::new(word_count_summary(), vec![ca()]);
        let mut state = Env::new();
        state.set(
            "words",
            Value::List(["a", "b", "a", "c"].iter().map(Value::str).collect()),
        );
        state.set("counts", Value::Map(vec![]));
        let c = ctx();
        let mut cache = PlanCache::new();

        c.reset_stats();
        let first = plan.execute_cached(&c, &state, &mut cache).unwrap();
        let cold_stats = c.stats();
        assert_eq!(cache.hits(), 0);
        assert!(cold_stats.stages.iter().all(|s| !s.cached));

        c.reset_stats();
        let second = plan.execute_cached(&c, &state, &mut cache).unwrap();
        let warm_stats = c.stats();
        assert_eq!(first, second);
        assert!(cache.hits() > 0, "unchanged inputs must hit the cache");
        assert!(warm_stats.stages.iter().any(|s| s.cached), "{warm_stats}");
        // The simulator must not charge the cached recomputation.
        use mapreduce::sim::simulate_job;
        use mapreduce::{ClusterSpec, Framework};
        let spec = ClusterSpec::paper();
        let cold = simulate_job(&cold_stats, &spec, Framework::Spark).seconds;
        let warm = simulate_job(&warm_stats, &spec, Framework::Spark).seconds;
        assert!(warm < cold, "cached run must be cheaper: {warm} vs {cold}");

        // Changing the source invalidates the cut-point.
        state.set("words", Value::List(vec![Value::str("zzz")]));
        let third = plan.execute_cached(&c, &state, &mut cache).unwrap();
        let Value::Map(entries) = third.get("counts").unwrap() else {
            panic!()
        };
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn plan_cache_is_bound_to_its_plan() {
        // Two plans with identical stage ids and dependency footprints
        // but different λ bodies: a cache reused across them must not
        // serve the first plan's results as the second's.
        let mk = |op: BinOp| {
            let m = MapLambda::new(
                vec!["x"],
                vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("x"))],
            );
            let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
                .map(m)
                .reduce(ReduceLambda::binop(op));
            CompiledPlan::new(
                ProgramSummary::single("s", expr, OutputKind::Scalar),
                vec![ca()],
            )
        };
        let sum = mk(BinOp::Add);
        let product = mk(BinOp::Mul);
        let mut state = Env::new();
        state.set(
            "xs",
            Value::List(vec![Value::Int(2), Value::Int(3), Value::Int(4)]),
        );
        state.set("s", Value::Int(0));
        let c = ctx();
        let mut cache = PlanCache::new();
        let a = sum.execute_cached(&c, &state, &mut cache).unwrap();
        assert_eq!(a.get("s"), Some(&Value::Int(9)));
        let b = product.execute_cached(&c, &state, &mut cache).unwrap();
        assert_eq!(
            b.get("s"),
            Some(&Value::Int(24)),
            "cache leaked across plans"
        );
        // Back to the first plan: rebinding clears again, result correct.
        let a2 = sum.execute_cached(&c, &state, &mut cache).unwrap();
        assert_eq!(a2.get("s"), Some(&Value::Int(9)));
    }
}
