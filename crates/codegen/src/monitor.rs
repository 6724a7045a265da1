//! The runtime monitor and dynamic switcher (§5.2, §7.4).
//!
//! When several verified, statically-incomparable implementations exist,
//! Casper emits all of them plus a monitor module. At run time the
//! monitor samples the first k values of the input (5000 in the paper),
//! estimates the unknowns of the cost formulas on the sample, computes
//! each variant's cost, and executes the cheapest.
//!
//! The sample profile is one bottom-up pass per output binding on the
//! compiled evaluator ([`CompiledMrExpr::eval_nodes`]): every plan node
//! is evaluated once, on its children's sampled rows. The walk over those
//! rows extrapolates each node to the full input as the engine's own
//! [`StageStats`] (records in and out, bytes out, bytes shuffled) plus a
//! per-stage key skew, and evaluates Eqns 2–4 on the same rows. One
//! pricing function turns both this prediction and the stages an
//! execution actually recorded into seconds on the cluster model.
//!
//! When every source collection is no longer than the sample size, the
//! sample is the input itself: the monitor profiles the input in place,
//! without copying it, and [`GeneratedProgram::run`] returns the chosen
//! variant's profiled root rows as its outputs instead of executing the
//! variant a second time. Such a run records no stage in the engine's
//! `Context`, so `ctx.stats()` holds only what earlier executions left
//! there. Its outputs are the engine's, reconstructed by the same
//! `casper_ir::eval::reconstruct_output` from rows in the same key order,
//! except that a combining reduce folds in input order, as the serial
//! reference does, where the engine combines per partition: a
//! floating-point sum may round differently. `run_tuned` always executes
//! on the engine, whose stage statistics it needs.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use casper_ir::compile::CompiledMrExpr;
use casper_ir::mr::{MrExpr, ProgramSummary};
use cost::CostWeights;
use mapreduce::sim::simulate_job_with_skew;
use mapreduce::{ClusterSpec, Context, Framework, JobStats, StageKind, StageStats};
use seqlang::env::Env;
use seqlang::error::Result;
use seqlang::value::Value;

use crate::plan::CompiledPlan;

/// One generated implementation variant.
#[derive(Clone)]
pub struct Variant {
    pub name: String,
    pub plan: CompiledPlan,
}

impl Variant {
    fn non_ca_flags(&self) -> Vec<bool> {
        self.plan.reduce_props.iter().map(|p| !p.both()).collect()
    }
}

/// The monitor's decision for one execution.
///
/// [`GeneratedProgram::run_tuned`] prices every variant only on its first
/// iteration; on a later one it prices only the variant it runs, and the
/// other variants' entries of `costs` and `predicted_seconds` are NaN.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanChoice {
    /// Index of the selected variant.
    pub chosen: usize,
    /// Abstract byte-volume cost of every variant (Eqns 2–4 evaluated on
    /// the sample), by index.
    pub costs: Vec<f64>,
    /// Estimated wall-clock seconds of every variant, by index: the
    /// parameterized cost priced on the monitor's cluster model. This is
    /// the quantity the monitor minimizes.
    pub predicted_seconds: Vec<f64>,
}

/// Kept only because `benchmark/` still names it: generated programs
/// hold no cross-execution cache, so this holds nothing and never hits.
/// It goes at the benchmark re-baseline (ROADMAP item 17), with
/// [`GeneratedProgram::run_tuned`]'s argument of this type.
#[derive(Default)]
pub struct ProgramCache;

impl ProgramCache {
    pub fn new() -> ProgramCache {
        ProgramCache
    }

    /// Always 0: nothing is cached.
    pub fn hits(&self) -> u64 {
        0
    }
}

/// One re-tuning decision of an iterative run — the deterministic audit
/// trail of the monitor's observe/compare/switch loop.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningDecision {
    /// Which call to [`GeneratedProgram::run_tuned`] this was (0-based).
    pub iteration: usize,
    /// The variant that executed this iteration.
    pub running: usize,
    /// The monitor's predicted cost for `running`: variant-controlled
    /// seconds on the cluster model. Constant framework overheads and the
    /// input scan are identical for every variant and on both sides of
    /// the comparison, so they are excluded — at small scale they would
    /// drown the signal.
    pub predicted_seconds: f64,
    /// The observed cost: this iteration's recorded stage statistics,
    /// normalized to the model's semantic volumes, priced on the same
    /// cluster model with the same exclusions, seconds.
    pub observed_seconds: f64,
    /// `observed / predicted` (1.0 when the prediction was zero).
    pub ratio: f64,
    /// `Some(v)` when the divergence exceeded the threshold and the
    /// monitor re-tuned: the *next* iteration runs variant `v`.
    pub switched_to: Option<usize>,
}

/// The monitor re-tunes when `observed/predicted` leaves
/// `[1/DIVERGENCE_RATIO, DIVERGENCE_RATIO]`.
const DIVERGENCE_RATIO: f64 = 2.0;

/// The framework whose overheads the monitor's pricing assumes; the
/// cluster model it prices on is `ClusterSpec::paper()`.
const FRAMEWORK: Framework = Framework::Spark;

/// Mutable monitor state threaded through an iterative driver: the
/// sticky variant choice plus the decision trace. Deterministic — every
/// field derives from recorded stage statistics and the cost model, so
/// two runs over the same data produce identical traces at any worker
/// count.
#[derive(Debug, Clone, Default)]
pub struct TuningState {
    /// The variant the next iteration will run; `None` until the first
    /// call picks one.
    pub current: Option<usize>,
    /// Iterations executed so far.
    pub iteration: usize,
    /// One entry per iteration.
    pub trace: Vec<TuningDecision>,
}

impl TuningState {
    pub fn new() -> TuningState {
        TuningState::default()
    }

    /// How many times the monitor switched variants mid-run.
    pub fn retune_count(&self) -> usize {
        self.trace
            .iter()
            .filter(|d| d.switched_to.is_some())
            .count()
    }
}

/// A generated program: verified variants + the sampling monitor.
pub struct GeneratedProgram {
    pub variants: Vec<Variant>,
    /// First-k sample size (the paper samples the first 5000 values).
    pub sample_k: usize,
}

impl GeneratedProgram {
    pub fn new(variants: Vec<Variant>) -> GeneratedProgram {
        GeneratedProgram {
            variants,
            sample_k: 5000,
        }
    }

    /// Run the monitor only: sample, estimate, price, choose (no
    /// execution). Every variant is profiled on the first-k sample and
    /// its profile priced into estimated wall clock on the cluster
    /// model; the cheapest predicted variant wins, ties break to the
    /// lowest index (the cheapest-by-static-cost candidate, since the
    /// enumerator streams cheapest-first).
    pub fn choose(&self, state: &Env) -> PlanChoice {
        self.appraise(state).choice
    }

    /// The full appraisal behind [`choose`](GeneratedProgram::choose).
    fn appraise(&self, state: &Env) -> Appraisal {
        self.appraise_with_k(state, self.sample_k, &|_| true)
    }

    /// [`appraise`](GeneratedProgram::appraise) with an explicit sample
    /// size (`usize::MAX` estimates on the full input, to re-calibrate),
    /// profiling and pricing only the variants `priced` admits: the
    /// others' entries are NaN, and the cheapest priced variant is chosen.
    fn appraise_with_k(&self, state: &Env, k: usize, priced: &dyn Fn(usize) -> bool) -> Appraisal {
        let covered = self.covers(state, k);
        let sample_state = if covered {
            Cow::Borrowed(state)
        } else {
            Cow::Owned(self.sample_state(state, k))
        };
        let true_counts = |var: &str| -> f64 {
            state
                .get(var)
                .and_then(|v| v.elements().map(|e| e.len() as f64))
                .unwrap_or(0.0)
        };
        let mut costs = Vec::with_capacity(self.variants.len());
        let mut predicted_seconds = Vec::with_capacity(self.variants.len());
        let mut predicted_data = Vec::with_capacity(self.variants.len());
        let mut chosen: Option<usize> = None;
        let mut chosen_roots = None;
        for (i, v) in self.variants.iter().enumerate() {
            if !priced(i) {
                costs.push(f64::NAN);
                predicted_seconds.push(f64::NAN);
                predicted_data.push(f64::NAN);
                continue;
            }
            let profile = Profile::of(
                &v.plan.summary,
                &sample_state,
                &true_counts,
                &v.non_ca_flags(),
            );
            costs.push(profile.cost);
            let (total, data) = price(&profile.job, &profile.skews);
            predicted_seconds.push(total);
            predicted_data.push(data);
            if chosen.is_none_or(|c| total < predicted_seconds[c]) {
                chosen = Some(i);
                chosen_roots = profile.roots;
            }
        }
        Appraisal {
            choice: PlanChoice {
                chosen: chosen.unwrap_or(0),
                costs,
                predicted_seconds,
            },
            predicted_data,
            chosen_roots: chosen_roots.filter(|_| covered),
        }
    }

    /// Execute: the monitor picks the cheapest variant, which then runs
    /// on the engine. Returns the outputs and the decision.
    ///
    /// When every source collection of the program is no longer than
    /// `sample_k`, the sample is the input and the chosen variant's
    /// profile already holds its result, so `run` reconstructs the outputs
    /// from the profile's root rows and records no stage in `ctx`. The
    /// outputs are those the engine would give, except that a combining
    /// reduce folds in input order, as the serial reference does, so a
    /// floating-point sum may associate differently. Where the chosen
    /// variant failed anywhere in its profile, a source is missing or is
    /// not a collection, or the outputs cannot be reconstructed from the
    /// rows, the engine runs as it does past the sample and reports its
    /// own error.
    pub fn run(&self, ctx: &Arc<Context>, state: &Env) -> Result<(Env, PlanChoice)> {
        let Appraisal {
            choice,
            chosen_roots,
            ..
        } = self.appraise(state);
        let plan = &self.variants[choice.chosen].plan;
        let covered = chosen_roots.and_then(|roots| plan.outputs_from_rows(state, roots).ok());
        let outputs = match covered {
            Some(outputs) => outputs,
            None => plan.execute(ctx, state)?,
        };
        Ok((outputs, choice))
    }

    /// [`run`](GeneratedProgram::run); `benchmark/` still calls it by
    /// this name. It goes at the benchmark re-baseline (ROADMAP item 17).
    pub fn run_cached(
        &self,
        ctx: &Arc<Context>,
        state: &Env,
        _cache: &mut ProgramCache,
    ) -> Result<(Env, PlanChoice)> {
        self.run(ctx, state)
    }

    /// Iterative execution with mid-run re-tuning (§7.4's dynamic
    /// tuning): run the sticky current variant, price this iteration's
    /// *recorded* stage statistics on the same cluster model the
    /// prediction used, and when observation diverges from prediction by
    /// more than `DIVERGENCE_RATIO` (2×) the first-k sample was
    /// unrepresentative — re-estimate every variant's cost parameters on
    /// the full input (already paid for by this iteration) and switch
    /// the next iteration to the recalibrated winner. Every decision
    /// lands in `tuning.trace`. `_cache` is ignored (see [`ProgramCache`]).
    ///
    /// The first iteration prices every variant on the sample to pick
    /// one. Once `tuning.current` holds a variant, only that variant's
    /// prediction is read, so only it is profiled and priced: the returned
    /// [`PlanChoice`] then holds NaN for every other variant.
    pub fn run_tuned(
        &self,
        ctx: &Arc<Context>,
        state: &Env,
        _cache: &mut ProgramCache,
        tuning: &mut TuningState,
    ) -> Result<(Env, PlanChoice)> {
        let sticky = tuning.current.filter(|&v| v < self.variants.len());
        let Appraisal {
            choice,
            predicted_data,
            ..
        } = match sticky {
            Some(v) => self.appraise_with_k(state, self.sample_k, &|i| i == v),
            None => self.appraise(state),
        };
        let running = choice.chosen;
        tuning.current = Some(running);
        let stages_before = ctx.stats().stages.len();
        let outputs = self.variants[running].plan.execute(ctx, state)?;
        let observed_stats = normalized(&JobStats {
            stages: ctx.stats().stages.split_off(stages_before),
        });
        let predicted = predicted_data.get(running).copied().unwrap_or(0.0);
        // Recorded stages carry no skew estimate: priced unskewed.
        let (_, observed) = price(&observed_stats, &[]);
        let ratio = if predicted > 0.0 {
            observed / predicted
        } else if observed > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        let mut switched_to = None;
        if !(1.0 / DIVERGENCE_RATIO..=DIVERGENCE_RATIO).contains(&ratio) {
            // The sample mispredicted; re-estimate on the full input and
            // re-rank every variant under the recalibrated model.
            let recalibrated = self
                .appraise_with_k(state, usize::MAX, &|_| true)
                .predicted_data;
            let mut best = 0usize;
            for (j, p) in recalibrated.iter().enumerate() {
                if *p < recalibrated[best] {
                    best = j;
                }
            }
            if best != running {
                switched_to = Some(best);
                tuning.current = Some(best);
            }
        }
        tuning.trace.push(TuningDecision {
            iteration: tuning.iteration,
            running,
            predicted_seconds: predicted,
            observed_seconds: observed,
            ratio,
            switched_to,
        });
        tuning.iteration += 1;
        Ok((outputs, choice))
    }

    /// The data variables every variant reads.
    fn source_vars(&self) -> Vec<&str> {
        self.variants
            .iter()
            .flat_map(|v| &v.plan.summary.bindings)
            .flat_map(|b| b.expr.sources())
            .map(|s| s.var.as_str())
            .collect()
    }

    /// The first-`k` sample of `state` is `state` itself: every source is
    /// a collection of at most `k` values.
    fn covers(&self, state: &Env, k: usize) -> bool {
        self.source_vars().iter().all(|var| {
            state
                .get(var)
                .and_then(Value::elements)
                .is_some_and(|xs| xs.len() <= k)
        })
    }

    /// Build the sampled state: the first `k` values of every source
    /// collection, every other variable as it is.
    fn sample_state(&self, state: &Env, k: usize) -> Env {
        let sources = self.source_vars();
        let first_k = |xs: &[Value]| xs[..k.min(xs.len())].to_vec();
        state
            .iter()
            .map(|(name, value)| {
                let sampled = match value {
                    Value::List(xs) if sources.contains(&name.as_str()) => Value::List(first_k(xs)),
                    Value::Array(xs) if sources.contains(&name.as_str()) => {
                        Value::Array(first_k(xs))
                    }
                    other => other.clone(),
                };
                (name.clone(), sampled)
            })
            .collect()
    }
}

/// What the monitor works out before it executes anything.
struct Appraisal {
    choice: PlanChoice,
    /// Each variant's *variant-controlled* cost in seconds: total
    /// predicted wall clock minus the cost of the same stage structure
    /// with every variant-dependent counter zeroed (framework overheads
    /// and the input scan remain in the baseline). The tuner compares
    /// those: terms identical for every variant would otherwise drown the
    /// predicted-vs-observed signal at small scale.
    predicted_data: Vec<f64>,
    /// When the sample was the whole input and the chosen variant's
    /// profile evaluated without error: its root rows, one `Vec` per
    /// output binding.
    chosen_roots: Option<Vec<Rows>>,
}

/// One variant's sample profile: the unknowns of its cost formulas
/// estimated on the first-k sample and extrapolated to the full input.
struct Profile {
    /// Eqns 2–4 evaluated with the estimated unknowns: the abstract
    /// byte-volume cost [`PlanChoice::costs`] reports.
    cost: f64,
    /// Every plan node as one engine stage, in post-order, with counters
    /// extrapolated to the full input.
    job: JobStats,
    /// Per stage of `job`, the largest single key's share of the stage's
    /// sampled input (`0` where the stage is not straggler-bound): the
    /// busiest reducer processes at least this share of the shuffle.
    skews: Vec<f64>,
    /// Each output binding's root rows on the sample, in binding order;
    /// `None` when a node failed or a binding is a bare data source,
    /// which the engine rejects unless it is indexed.
    roots: Option<Vec<Rows>>,
}

impl Profile {
    /// Profile `summary` on `sample`. `true_counts` gives each source's
    /// full record count; `non_ca` flags, in pipeline order, the reduces
    /// whose transformer failed the CA analysis (Eqn 3's `Wcsg`).
    fn of(
        summary: &ProgramSummary,
        sample: &Env,
        true_counts: &dyn Fn(&str) -> f64,
        non_ca: &[bool],
    ) -> Profile {
        let mut walk = ProfileWalk {
            true_counts,
            non_ca,
            weights: CostWeights::default(),
            reduce_counter: 0,
            profile: Profile {
                cost: 0.0,
                job: JobStats::default(),
                skews: Vec::new(),
                roots: None,
            },
        };
        let mut roots = Vec::with_capacity(summary.bindings.len());
        let mut whole = true;
        for binding in &summary.bindings {
            let nodes = CompiledMrExpr::compile(&binding.expr).eval_nodes(sample);
            whole &= !nodes.failed && !matches!(binding.expr, MrExpr::Data(_));
            roots.push(walk.node(&binding.expr, &mut nodes.rows.into_iter()).0);
        }
        walk.profile.roots = whole.then_some(roots);
        walk.profile
    }
}

type Rows = Vec<Vec<Value>>;

/// The state of [`Profile::of`]'s walk over one summary.
struct ProfileWalk<'a> {
    true_counts: &'a dyn Fn(&str) -> f64,
    non_ca: &'a [bool],
    weights: CostWeights,
    reduce_counter: usize,
    profile: Profile,
}

impl ProfileWalk<'_> {
    /// Profile `expr`, whose nodes' sampled rows `nodes` yields in
    /// post-order. Returns the node's sampled rows and its estimated
    /// record count on the full input.
    fn node(&mut self, expr: &MrExpr, nodes: &mut std::vec::IntoIter<Rows>) -> (Rows, f64) {
        match expr {
            MrExpr::Data(src) => {
                let rows = nodes.next().expect("one entry per node");
                let n = (self.true_counts)(&src.var);
                self.push(StageKind::Input, n, n, avg_row_bytes(&rows) * n, 0.0, 0.0);
                (rows, n)
            }
            MrExpr::Map(inner, _) => {
                let (rows_in, n_in) = self.node(inner, nodes);
                let rows_out = nodes.next().expect("one entry per node");
                let (bytes_out, selectivity) = sample_ratios(&rows_in, &rows_out);
                self.profile.cost += self.weights.wm * n_in * bytes_out;
                self.push(
                    StageKind::Map,
                    n_in,
                    n_in * selectivity,
                    n_in * bytes_out,
                    0.0,
                    0.0,
                );
                (rows_out, n_in * selectivity)
            }
            MrExpr::Reduce(inner, _) => {
                let (rows_in, n_in) = self.node(inner, nodes);
                let rows_out = nodes.next().expect("one entry per node");
                let in_size = avg_row_bytes(&rows_in);
                let non_ca = self
                    .non_ca
                    .get(self.reduce_counter)
                    .copied()
                    .unwrap_or(false);
                let eps = if non_ca { self.weights.wcsg } else { 1.0 };
                self.reduce_counter += 1;
                self.profile.cost += self.weights.wr * n_in * in_size * eps;
                // Unique keys: distinct in sample; if every sampled record
                // had a distinct key, cardinality tracks the data.
                let distinct = rows_out.len() as f64;
                let keys = if !rows_in.is_empty() && distinct >= rows_in.len() as f64 {
                    n_in
                } else {
                    distinct
                };
                // A CA reduce is combined map-side: each partition
                // forwards one residue per key, so a hot key never
                // concentrates load on the busiest reducer. Only non-CA
                // reduces shuffle their raw records and inherit the key
                // skew as a straggler.
                let skew = if eps > 1.0 {
                    max_key_share(&[&rows_in])
                } else {
                    0.0
                };
                self.push(
                    StageKind::Shuffle,
                    n_in,
                    keys,
                    keys * in_size,
                    n_in * in_size,
                    skew,
                );
                (rows_out, keys)
            }
            MrExpr::Join(l, r) => {
                let (rows_l, n_l) = self.node(l, nodes);
                let (rows_r, n_r) = self.node(r, nodes);
                let rows_out = nodes.next().expect("one entry per node");
                let pairs = (rows_l.len() as f64) * (rows_r.len() as f64);
                let selectivity = if pairs > 0.0 {
                    rows_out.len() as f64 / pairs
                } else {
                    0.0
                };
                let size = avg_row_bytes(&rows_out);
                self.profile.cost += self.weights.wj * n_l * n_r * selectivity * size;
                let est = n_l * n_r * selectivity;
                // Both join inputs cross the wire, and the busiest join
                // reducer receives every record (from both sides) that
                // hashes to its hottest key.
                self.push(
                    StageKind::Join,
                    n_l + n_r,
                    est,
                    est * size,
                    n_l * avg_row_bytes(&rows_l) + n_r * avg_row_bytes(&rows_r),
                    max_key_share(&[&rows_l, &rows_r]),
                );
                (rows_out, est)
            }
        }
    }

    /// Record one stage, its extrapolated counters rounded to the
    /// engine's integer units.
    fn push(
        &mut self,
        kind: StageKind,
        records_in: f64,
        records_out: f64,
        bytes_out: f64,
        bytes_shuffled: f64,
        skew: f64,
    ) {
        let mut s = StageStats::new(kind, "predicted");
        s.records_in = records_in.round() as u64;
        s.records_out = records_out.round() as u64;
        s.bytes_out = bytes_out.round() as u64;
        s.bytes_shuffled = bytes_shuffled.round() as u64;
        self.profile.job.stages.push(s);
        self.profile.skews.push(skew);
    }
}

/// (average output bytes per input record, output/input record ratio).
fn sample_ratios(rows_in: &[Vec<Value>], rows_out: &[Vec<Value>]) -> (f64, f64) {
    if rows_in.is_empty() {
        return (0.0, 0.0);
    }
    (
        rows_bytes(rows_out) as f64 / rows_in.len() as f64,
        rows_out.len() as f64 / rows_in.len() as f64,
    )
}

fn avg_row_bytes(rows: &[Vec<Value>]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows_bytes(rows) as f64 / rows.len() as f64
}

/// Serialized bytes of sampled rows: 8 bytes of framing per row plus its
/// fields' [`Value::size_bytes`].
fn rows_bytes(rows: &[Vec<Value>]) -> u64 {
    rows.iter()
        .map(|r| 8 + r.iter().map(Value::size_bytes).sum::<u64>())
        .sum()
}

/// The largest single key's share of the sampled rows of `sides` taken
/// together. The key of a row is its first field for pair-shaped rows,
/// the whole row otherwise.
fn max_key_share(sides: &[&Rows]) -> f64 {
    let total: usize = sides.iter().map(|rows| rows.len()).sum();
    if total == 0 {
        return 0.0;
    }
    let mut counts: HashMap<&[Value], usize> = HashMap::new();
    for row in sides.iter().copied().flatten() {
        let key = if row.len() == 2 { &row[..1] } else { &row[..] };
        *counts.entry(key).or_insert(0) += 1;
    }
    let max = counts.values().copied().max().unwrap_or(0);
    max as f64 / total as f64
}

/// Price stage statistics on the monitor's cluster model, stage `i`'s
/// wide work stretched by the key skew `skews[i]` (none when `skews` is
/// empty). Returns `(total seconds, variant-controlled seconds)` — the
/// latter with the structure's constant framework overheads and the
/// variant-independent input scan subtracted (see [`masked`]).
fn price(job: &JobStats, skews: &[f64]) -> (f64, f64) {
    let spec = ClusterSpec::paper();
    let total = simulate_job_with_skew(job, skews, &spec, FRAMEWORK).seconds;
    let base = simulate_job_with_skew(&masked(job), skews, &spec, FRAMEWORK).seconds;
    (total, total - base)
}

/// The same stage structure with every *variant-dependent* counter
/// zeroed: input scans keep their counters (every variant reads the same
/// input), all other stages lose theirs. Pricing it yields the constant
/// framework overheads plus the scan, so `priced(stats) -
/// priced(masked(stats))` isolates the cost the choice of variant
/// actually controls.
fn masked(stats: &JobStats) -> JobStats {
    JobStats {
        stages: stats
            .stages
            .iter()
            .map(|s| {
                if s.kind == StageKind::Input {
                    s.clone()
                } else {
                    StageStats::new(s.kind, s.label.clone())
                }
            })
            .collect(),
    }
}

/// A worker-invariant view of an observed stage delta, commensurate with
/// the predicted profile. The engine records a `reduceByKey` shuffle's
/// bytes *after* map-side combining — a residue that shrinks with
/// combining and varies with the partition count — while the model
/// prices the semantic pre-combine volume. Replace each shuffle's byte
/// counter with the upstream stage's emitted bytes (its deterministic
/// pre-combine volume); every other counter the simulator prices is
/// already partition-independent.
fn normalized(stats: &JobStats) -> JobStats {
    let mut out = stats.clone();
    for i in 1..out.stages.len() {
        if out.stages[i].kind != StageKind::Shuffle {
            continue;
        }
        let prev = &out.stages[i - 1];
        if prev.records_out == out.stages[i].records_in && prev.bytes_out > 0 {
            out.stages[i].bytes_shuffled = prev.bytes_out;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_ir::expr::IrExpr;
    use casper_ir::lambda::{Emit, MapLambda, ReduceLambda};
    use casper_ir::mr::{DataSource, MrExpr, OutputBinding, OutputKind, ProgramSummary};
    use seqlang::ast::BinOp;
    use seqlang::ty::Type;
    use verifier::CaProperties;

    fn ca() -> CaProperties {
        CaProperties {
            commutative: true,
            associative: true,
        }
    }

    /// StringMatch solution (b): tuple of bools, always one pair.
    fn solution_b() -> Variant {
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

    /// Solution (c): guarded per-key emits.
    fn solution_c() -> Variant {
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

    #[test]
    fn monitor_picks_c_with_no_matches_and_b_with_high_skew() {
        let prog = GeneratedProgram::new(vec![solution_b(), solution_c()]);
        // Figure 8(c): no matches → (c); 95% matches → (b).
        let low = prog.choose(&stringmatch_state(0.0, 2000));
        assert_eq!(prog.variants[low.chosen].name, "c", "{low:?}");
        let high = prog.choose(&stringmatch_state(0.95, 2000));
        assert_eq!(prog.variants[high.chosen].name, "b", "{high:?}");
    }

    #[test]
    fn sample_cost_crossover_with_skew() {
        // Figure 8(b)/(c): with no matches (c) is free; with ~95% matches
        // (b) wins.
        let n_true = |_: &str| 1.0e9;
        let cost = |v: Variant, st: &Env| Profile::of(&v.plan.summary, st, &n_true, &[]).cost;

        let low = stringmatch_state(0.0, 100);
        let (b_low, c_low) = (cost(solution_b(), &low), cost(solution_c(), &low));
        assert!(
            c_low < b_low,
            "no matches: (c) emits nothing ({c_low} vs {b_low})"
        );

        let high = stringmatch_state(0.95, 100);
        let (b_high, c_high) = (cost(solution_b(), &high), cost(solution_c(), &high));
        assert!(
            b_high < c_high,
            "95% matches: (b) wins ({b_high} vs {c_high})"
        );
    }

    #[test]
    fn chosen_variant_computes_correct_answer() {
        let prog = GeneratedProgram::new(vec![solution_b(), solution_c()]);
        let ctx = Context::with_parallelism(4, 8);
        for frac in [0.0, 0.5, 0.95] {
            let state = stringmatch_state(frac, 500);
            let (out, _) = prog.run(&ctx, &state).unwrap();
            let expect_f1 = frac > 0.0;
            assert_eq!(out.get("f1"), Some(&Value::Bool(expect_f1)), "frac={frac}");
            assert_eq!(out.get("f2"), Some(&Value::Bool(false)));
        }
    }

    #[test]
    fn choice_reports_predicted_wall_clock() {
        let prog = GeneratedProgram::new(vec![solution_b(), solution_c()]);
        let choice = prog.choose(&stringmatch_state(0.95, 2000));
        assert_eq!(choice.predicted_seconds.len(), 2);
        assert!(choice
            .predicted_seconds
            .iter()
            .all(|s| s.is_finite() && *s > 0.0));
        // The chosen variant is the predicted-seconds argmin.
        let min = choice
            .predicted_seconds
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(choice.predicted_seconds[choice.chosen], min);
    }

    /// A state whose first `prefix` records are all non-matching and the
    /// rest all matching: the first-k sample is unrepresentative, so the
    /// monitor's initial pick diverges from the observed cost and the
    /// tuner must switch variants mid-run.
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

    #[test]
    fn tuner_switches_variants_when_observation_diverges() {
        let mut prog = GeneratedProgram::new(vec![solution_b(), solution_c()]);
        prog.sample_k = 100;
        let ctx = Context::with_parallelism(4, 8);
        let state = skewed_prefix_state(100, 4000);
        let mut cache = ProgramCache::new();
        let mut tuning = TuningState::new();

        // Iteration 0: the all-miss sample makes (c) look free; the data
        // beyond the prefix is 97% matches, so the observed shuffle is
        // orders of magnitude over the prediction → switch to (b).
        let (out0, c0) = prog
            .run_tuned(&ctx, &state, &mut cache, &mut tuning)
            .unwrap();
        assert_eq!(prog.variants[c0.chosen].name, "c", "{c0:?}");
        assert_eq!(out0.get("f1"), Some(&Value::Bool(true)));
        let d0 = &tuning.trace[0];
        assert!(d0.ratio > DIVERGENCE_RATIO, "{d0:?}");
        assert_eq!(d0.switched_to, Some(0), "{d0:?}");

        // Iteration 1: the sticky choice is now (b); same (correct)
        // output.
        let (out1, c1) = prog
            .run_tuned(&ctx, &state, &mut cache, &mut tuning)
            .unwrap();
        assert_eq!(prog.variants[c1.chosen].name, "b", "{c1:?}");
        assert_eq!(out1.get("f1"), Some(&Value::Bool(true)));
        assert_eq!(out1.get("f2"), Some(&Value::Bool(false)));
        assert_eq!(tuning.retune_count(), 1);
        assert_eq!(tuning.trace.len(), 2);
    }

    #[test]
    fn tuner_is_deterministic_across_worker_counts() {
        let run = |workers: usize| {
            let mut prog = GeneratedProgram::new(vec![solution_b(), solution_c()]);
            prog.sample_k = 100;
            let ctx = Context::with_parallelism(workers, workers * 2);
            let state = skewed_prefix_state(100, 4000);
            let mut cache = ProgramCache::new();
            let mut tuning = TuningState::new();
            for _ in 0..3 {
                prog.run_tuned(&ctx, &state, &mut cache, &mut tuning)
                    .unwrap();
            }
            tuning.trace
        };
        let base = run(1);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers), base, "trace diverged at {workers} workers");
        }
    }

    #[test]
    fn sampling_truncates_large_inputs() {
        let mut prog = GeneratedProgram::new(vec![solution_c()]);
        prog.sample_k = 10;
        let state = stringmatch_state(1.0, 100_000);
        let sampled = prog.sample_state(&state, prog.sample_k);
        assert_eq!(sampled.get("text").unwrap().elements().unwrap().len(), 10);
    }
}
