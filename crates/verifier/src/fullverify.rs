//! Full (large-domain) verification — the Dafny-stage substitute.
//!
//! ## The compiled verification stack
//!
//! Verification answers one question per candidate: does the summary
//! agree with the fragment on every obligation of the full-domain
//! [`VerificationBasis`]? The fragment side of every obligation is
//! precomputed when the basis is built (once per fragment), so verifying
//! a candidate is pure candidate evaluation — through
//! [`CompiledSummary`], the same slot-resolved lowering the synthesizer's
//! screening layer and the execution data plane run, which is what keeps
//! verification semantics from ever diverging from theirs.
//!
//! [`Verifier`] is the per-fragment engine:
//!
//! * **compiled checking** — obligations are evaluated through the
//!   compiled summary; the tree-walking reference
//!   ([`Verifier::verify_interpreted`]) remains as the golden
//!   differential oracle over the *same* basis;
//! * **parallel chunks** — with `parallelism > 1` obligations are dealt
//!   to the persistent executor; adjudication is deterministic (the
//!   lowest-indexed failing obligation decides the verdict, the
//!   counter-example, and `states_checked`), so verdicts and every
//!   counter are bit-identical at any worker count;
//! * **verdict cache** — results are memoized per candidate fingerprint
//!   and basis generation, so re-verifying an equivalent candidate
//!   (across grammar classes, `findSummary` rounds, or the pipeline's
//!   property-harvesting pass) is a table lookup.
//!
//! A candidate whose evaluation *errors* on an in-domain state fails
//! that obligation, and the state is recorded as its counter-example;
//! errors are never silently skipped. A verified candidate's reducers
//! get their algebraic properties from their shape alone
//! ([`crate::algebra`]).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use analyzer::basis::{VcEntry, VerificationBasis};
use analyzer::fragment::Fragment;
use analyzer::stategen::StateGenConfig;
use analyzer::vc::{outputs_match, REL_TOL};
use casper_ir::compile::CompiledSummary;
use casper_ir::mr::{MrExpr, ProgramSummary};
use casper_runtime::{run_indexed, Priority};
use seqlang::env::Env;
use seqlang::error::Result;

use crate::algebra::{ca_properties, CaProperties};
use crate::proof::ProofScript;

/// One verdict-cache bucket: candidates sharing a fingerprint, resolved
/// by exact equality.
type VerdictBucket = Vec<(ProgramSummary, Arc<VerifyResult>)>;

/// The verdict store: fingerprint-keyed buckets plus an entry count for
/// the refuted-retention bound (see [`VERDICT_CACHE_REFUTED_CAP`]).
#[derive(Default)]
struct VerdictCache {
    map: HashMap<(u64, u64), VerdictBucket>,
    entries: usize,
}

impl VerdictCache {
    fn get(&self, key: &(u64, u64), summary: &ProgramSummary) -> Option<Arc<VerifyResult>> {
        self.map.get(key).and_then(|bucket| {
            bucket
                .iter()
                .find(|(cand, _)| cand == summary)
                .map(|(_, result)| Arc::clone(result))
        })
    }

    fn insert(&mut self, key: (u64, u64), summary: &ProgramSummary, result: &Arc<VerifyResult>) {
        if !result.verified && self.entries >= VERDICT_CACHE_REFUTED_CAP {
            return;
        }
        self.map
            .entry(key)
            .or_default()
            .push((summary.clone(), Arc::clone(result)));
        self.entries += 1;
    }
}

/// Default [`VerifyConfig::parallel_min_obligations`]: below this many
/// obligations, per-call thread spawning costs more than the
/// parallelism buys, so small bases (smoke domains, trivial fragments)
/// stay serial even at `parallelism > 1`. Verdicts are identical either
/// way.
pub const PARALLEL_MIN_OBLIGATIONS: usize = 256;

/// Refuted verdicts are cached only while the cache holds fewer than
/// this many entries. Verified verdicts are always cached — they are
/// the systematically re-queried ones (the pipeline's property-harvest
/// lookups); a refuted candidate re-entering the same search is blocked
/// upstream (Ω), so retaining unbounded refutation transcripts would be
/// pure memory growth. The cap decision depends only on the call
/// sequence, so cache counters stay bit-identical at any worker count.
const VERDICT_CACHE_REFUTED_CAP: usize = 1024;

/// Default worker count for the state-checking pool: every core the host
/// exposes.
pub fn default_verify_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Verification configuration.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// States drawn from the full domain.
    pub states: usize,
    /// Additional permutation trials per state.
    pub permutations: usize,
    pub domain: StateGenConfig,
    /// Worker threads checking obligations concurrently. `1` runs the
    /// exact sequential walk; larger values produce **identical**
    /// verdicts, counter-examples, and counters (see the module docs).
    /// Defaults to the host's core count.
    pub parallelism: usize,
    /// Bases smaller than this many obligations are checked serially
    /// even at `parallelism > 1` (the fan-out would cost more than it
    /// buys). Set to `0` to force the parallel path regardless of size —
    /// the differential tests do, so the parallel checker is exercised at
    /// every domain size.
    pub parallel_min_obligations: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            states: 32,
            permutations: 2,
            domain: StateGenConfig::full(),
            parallelism: default_verify_parallelism(),
            parallel_min_obligations: PARALLEL_MIN_OBLIGATIONS,
        }
    }
}

/// Verification result: verdict, algebraic facts for codegen, and the
/// proof transcript.
#[derive(Debug, Clone)]
pub struct VerifyResult {
    pub verified: bool,
    /// Properties of each reduce stage, in pipeline order.
    pub reduce_properties: Vec<CaProperties>,
    pub proof: ProofScript,
    /// States checked before a verdict (domain states, counting the
    /// refuting state).
    pub states_checked: usize,
    /// The admitted counter-example state, when refuted on one.
    pub counter_example: Option<Env>,
    /// Why the candidate was rejected, when it was.
    pub reason: Option<String>,
}

/// One verification, with its cache/cost accounting.
#[derive(Debug, Clone)]
pub struct Verification {
    pub result: Arc<VerifyResult>,
    /// Served from the verdict cache?
    pub cache_hit: bool,
    /// Wall-clock time of this call.
    pub wall: Duration,
    /// CPU time of this call: serial wall plus summed worker busy time.
    pub cpu: Duration,
}

/// The per-fragment verification engine: memoized basis, compiled
/// evaluation, parallel checking, verdict cache. See the
/// [module docs](self).
pub struct Verifier<'f> {
    fragment: &'f Fragment,
    config: VerifyConfig,
    basis: OnceLock<Arc<VerificationBasis>>,
    /// Verdict cache keyed by (candidate fingerprint, basis generation).
    /// Fingerprint collisions are resolved by exact summary equality
    /// within the bucket — a 64-bit collision must never serve another
    /// candidate's verdict.
    cache: Mutex<VerdictCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    wall_ns: AtomicU64,
    cpu_ns: AtomicU64,
}

impl<'f> Verifier<'f> {
    pub fn new(fragment: &'f Fragment, config: VerifyConfig) -> Verifier<'f> {
        Verifier {
            fragment,
            config,
            basis: OnceLock::new(),
            cache: Mutex::new(VerdictCache::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            cpu_ns: AtomicU64::new(0),
        }
    }

    /// The memoized verification basis: built on first use, shared by
    /// reference by every verification this engine performs.
    pub fn basis(&self) -> &Arc<VerificationBasis> {
        self.basis.get_or_init(|| {
            Arc::new(VerificationBasis::build(
                self.fragment,
                &self.config.domain,
                self.config.states,
                self.config.permutations,
                REL_TOL,
            ))
        })
    }

    /// Fully verify a candidate: verdict-cache lookup first, compiled
    /// parallel checking on a miss.
    pub fn verify(&self, summary: &ProgramSummary) -> Verification {
        let started = Instant::now();
        let basis = Arc::clone(self.basis());
        let key = (fingerprint_summary(summary), basis.generation);
        let cached = self.cache.lock().expect("verdict cache").get(&key, summary);
        if let Some(result) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let wall = started.elapsed();
            self.wall_ns
                .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
            self.cpu_ns
                .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
            return Verification {
                result,
                cache_hit: true,
                wall,
                cpu: wall,
            };
        }
        let (result, busy, parallel_wall) = self.verify_compiled(summary, &basis);
        let result = Arc::new(result);
        self.cache
            .lock()
            .expect("verdict cache")
            .insert(key, summary, &result);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let wall = started.elapsed();
        let cpu = wall.saturating_sub(parallel_wall) + busy;
        self.wall_ns
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        self.cpu_ns
            .fetch_add(cpu.as_nanos() as u64, Ordering::Relaxed);
        Verification {
            result,
            cache_hit: false,
            wall,
            cpu,
        }
    }

    /// Compiled verification, bypassing the verdict cache (the
    /// differential tests compare it with the reference directly).
    pub fn verify_uncached(&self, summary: &ProgramSummary) -> VerifyResult {
        let basis = Arc::clone(self.basis());
        let (result, ..) = self.verify_compiled(summary, &basis);
        result
    }

    /// The tree-walking golden reference: serial evaluation through
    /// `casper_ir::eval` over the *same* basis — the differential oracle
    /// the compiled verifier is tested against.
    pub fn verify_interpreted(&self, summary: &ProgramSummary) -> VerifyResult {
        let basis = Arc::clone(self.basis());
        let eval = |pre: &Env| casper_ir::eval::eval_summary(summary, pre);
        let first_fail = basis
            .entries
            .iter()
            .position(|entry| entry_fails(entry, &eval, basis.rel_tol));
        adjudicate(self.fragment, summary, &basis, first_fail)
    }

    fn verify_compiled(
        &self,
        summary: &ProgramSummary,
        basis: &VerificationBasis,
    ) -> (VerifyResult, Duration, Duration) {
        let compiled = CompiledSummary::compile(summary);
        let eval = |pre: &Env| compiled.eval(pre);
        let workers = self.config.parallelism.max(1);
        let mut busy = Duration::ZERO;
        let mut parallel_wall = Duration::ZERO;
        let first_fail = if workers <= 1
            || basis.entries.is_empty()
            || basis.entries.len() < self.config.parallel_min_obligations
        {
            basis
                .entries
                .iter()
                .position(|entry| entry_fails(entry, &eval, basis.rel_tol))
        } else {
            let round = Instant::now();
            let busy_ns = AtomicU64::new(0);
            let fail =
                first_failure_parallel(&basis.entries, &eval, basis.rel_tol, workers, &busy_ns);
            parallel_wall = round.elapsed();
            busy = Duration::from_nanos(busy_ns.load(Ordering::Relaxed));
            fail
        };
        let result = adjudicate(self.fragment, summary, basis, first_fail);
        (result, busy, parallel_wall)
    }

    /// Verdict-cache hits served so far.
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Verdict-cache misses (full verifications performed) so far.
    pub fn cache_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total wall-clock time spent in [`Verifier::verify`].
    pub fn wall_time(&self) -> Duration {
        Duration::from_nanos(self.wall_ns.load(Ordering::Relaxed))
    }

    /// Total CPU time (serial wall + summed worker busy time).
    pub fn cpu_time(&self) -> Duration {
        Duration::from_nanos(self.cpu_ns.load(Ordering::Relaxed))
    }
}

/// Deterministic fingerprint of a candidate summary (the verdict-cache
/// key component). `DefaultHasher::new()` uses fixed keys, so the
/// fingerprint is stable across threads and runs.
fn fingerprint_summary(summary: &ProgramSummary) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    summary.hash(&mut h);
    h.finish()
}

/// Does the candidate fail this obligation? An evaluation error on an
/// in-domain state is a failure (the candidate is wrong on it), exactly
/// like a mismatching output.
fn entry_fails(entry: &VcEntry, eval: &dyn Fn(&Env) -> Result<Env>, rel_tol: f64) -> bool {
    match eval(&entry.pre) {
        Err(_) => true,
        Ok(got) => !outputs_match(&entry.expected, &got, rel_tol),
    }
}

/// Find the lowest-indexed failing obligation on the persistent
/// executor. Work is dealt by an atomic cursor (owned by the runtime); a
/// shared minimum lets participants skip obligations beyond the best
/// failure found so far. The returned index is the same one the serial
/// walk finds, at any worker count. Obligations run at
/// [`Priority::High`] so a verify never starves behind queued shuffle
/// or screening work.
fn first_failure_parallel(
    entries: &[VcEntry],
    eval: &(dyn Fn(&Env) -> Result<Env> + Sync),
    rel_tol: f64,
    workers: usize,
    busy_ns: &AtomicU64,
) -> Option<usize> {
    let n = entries.len();
    let best = AtomicUsize::new(usize::MAX);
    run_indexed(workers, Priority::High, n, &|i| {
        if i >= best.load(Ordering::Relaxed) {
            return; // a lower failure already decides
        }
        let started = Instant::now();
        if entry_fails(&entries[i], eval, rel_tol) {
            best.fetch_min(i, Ordering::Relaxed);
        }
        busy_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    });
    match best.load(Ordering::Relaxed) {
        usize::MAX => None,
        i => Some(i),
    }
}

/// Turn the first-failure scan into a [`VerifyResult`] — the single
/// adjudication procedure the compiled and interpreted verifiers share,
/// so their verdicts, counter-examples, and counters cannot diverge.
fn adjudicate(
    fragment: &Fragment,
    summary: &ProgramSummary,
    basis: &VerificationBasis,
    first_fail: Option<usize>,
) -> VerifyResult {
    let mut proof = ProofScript::new(fragment, summary);
    if let Some(idx) = first_fail {
        let entry = &basis.entries[idx];
        proof.record_refutation(&entry.state);
        let reason = format!(
            "counter-example on domain state #{} (obligation {idx})",
            entry.state_index
        );
        return VerifyResult {
            verified: false,
            reduce_properties: Vec::new(),
            proof,
            states_checked: entry.state_index + 1,
            counter_example: Some(entry.state.clone()),
            reason: Some(reason),
        };
    }

    // All obligations hold: the reducers' properties decide between
    // `reduceByKey` and the ordered `groupByKey` fold.
    let reduce_properties = reducer_properties(summary);
    proof.record_success(basis.domain_states, &reduce_properties);
    VerifyResult {
        verified: true,
        reduce_properties,
        proof,
        states_checked: basis.domain_states,
        counter_example: None,
        reason: None,
    }
}

/// Each reduce stage's [`CaProperties`], in pipeline (walk) order.
fn reducer_properties(summary: &ProgramSummary) -> Vec<CaProperties> {
    let mut out = Vec::new();
    for binding in &summary.bindings {
        binding.expr.walk(&mut |e| {
            if let MrExpr::Reduce(_, lambda) = e {
                out.push(ca_properties(lambda));
            }
        });
    }
    out
}

/// Fully verify a candidate summary against its fragment — a
/// convenience wrapper building a one-shot [`Verifier`]. Long-lived
/// callers (the pipeline, the bench harness) hold a `Verifier` instead,
/// amortising the basis across candidates and keeping the verdict cache
/// warm.
pub fn full_verify(
    fragment: &Fragment,
    summary: &ProgramSummary,
    config: &VerifyConfig,
) -> VerifyResult {
    Verifier::new(fragment, config.clone())
        .verify(summary)
        .result
        .as_ref()
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use analyzer::identify_fragments;
    use casper_ir::expr::IrExpr;
    use casper_ir::lambda::{Emit, MapLambda, ReduceLambda};
    use casper_ir::mr::{DataSource, OutputKind};
    use seqlang::ast::BinOp;
    use seqlang::compile;
    use seqlang::ty::Type;
    use std::sync::Arc;

    fn sum_fragment() -> Fragment {
        let p = Arc::new(
            compile(
                "fn sum(xs: list<int>) -> int {
                    let s: int = 0;
                    for (x in xs) { s = s + x; }
                    return s;
                }",
            )
            .unwrap(),
        );
        identify_fragments(&p).remove(0)
    }

    fn sum_summary() -> ProgramSummary {
        let m = MapLambda::new(
            vec!["x"],
            vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("x"))],
        );
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(m)
            .reduce(ReduceLambda::binop(BinOp::Add));
        ProgramSummary::single("s", expr, OutputKind::Scalar)
    }

    /// keep-last reduce over a plain identity map.
    fn keep_last_summary(out: &str) -> ProgramSummary {
        let m = MapLambda::new(
            vec!["x"],
            vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("x"))],
        );
        let r = ReduceLambda::new(IrExpr::var("v2"));
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(m)
            .reduce(r);
        ProgramSummary::single(out, expr, OutputKind::Scalar)
    }

    #[test]
    fn verifies_correct_sum() {
        let frag = sum_fragment();
        let result = full_verify(&frag, &sum_summary(), &VerifyConfig::default());
        assert!(result.verified);
        assert_eq!(result.reduce_properties.len(), 1);
        assert!(result.reduce_properties[0].both());
        assert!(result.proof.text().contains("VERIFIED"));
        assert!(result.counter_example.is_none());
        assert!(result.reason.is_none());
    }

    #[test]
    fn rejects_min4_bounded_artefact() {
        // `s = last(xs)` vs candidate emitting min(4, v): passes the
        // bounded domain, must fail full verification (§4.1).
        let p = Arc::new(
            compile(
                "fn last(xs: list<int>) -> int {
                    let s: int = 0;
                    for (x in xs) { s = x; }
                    return s;
                }",
            )
            .unwrap(),
        );
        let frag = identify_fragments(&p).remove(0);
        let m = MapLambda::new(
            vec!["x"],
            vec![Emit::unconditional(
                IrExpr::int(0),
                IrExpr::Call("min".into(), vec![IrExpr::int(4), IrExpr::var("x")]),
            )],
        );
        let r = ReduceLambda::new(IrExpr::var("v2"));
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(m)
            .reduce(r);
        let summary = ProgramSummary::single("s", expr, OutputKind::Scalar);
        let result = full_verify(&frag, &summary, &VerifyConfig::default());
        assert!(!result.verified);
        assert!(result.proof.text().contains("REFUTED"));
        assert!(result.counter_example.is_some());
    }

    #[test]
    fn permutation_trials_reject_order_dependent_summaries_for_commutative_fragments() {
        // Fragment computes max; candidate reduces with v2 (keep last) —
        // random data plus precomputed shuffles must refute it.
        let p = Arc::new(
            compile(
                "fn mx(xs: list<int>) -> int {
                    let m: int = -1000000;
                    for (x in xs) { if (x > m) { m = x; } }
                    return m;
                }",
            )
            .unwrap(),
        );
        let frag = identify_fragments(&p).remove(0);
        let result = full_verify(&frag, &keep_last_summary("m"), &VerifyConfig::default());
        assert!(!result.verified);
    }

    #[test]
    fn reports_non_ca_reducers() {
        // keep-first reducer: if it survived checking its properties
        // would mark it non-commutative. Exercise the analysis directly.
        let frag = sum_fragment();
        let m = MapLambda::new(
            vec!["x"],
            vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("x"))],
        );
        let r = ReduceLambda::new(IrExpr::var("v1"));
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(m)
            .reduce(r);
        let summary = ProgramSummary::single("s", expr, OutputKind::Scalar);
        let verifier = Verifier::new(&frag, VerifyConfig::default());
        let result = verifier.verify(&summary);
        assert!(!result.result.verified);
        let props = reducer_properties(&summary);
        assert_eq!(props.len(), 1);
        assert!(!props[0].commutative);
    }

    #[test]
    fn verdict_cache_serves_repeat_verifications() {
        let frag = sum_fragment();
        let verifier = Verifier::new(&frag, VerifyConfig::default());
        let first = verifier.verify(&sum_summary());
        assert!(!first.cache_hit);
        let second = verifier.verify(&sum_summary());
        assert!(second.cache_hit);
        assert_eq!(verifier.cache_hits(), 1);
        assert_eq!(verifier.cache_misses(), 1);
        assert_eq!(first.result.verified, second.result.verified);
        assert_eq!(first.result.states_checked, second.result.states_checked);
        // A different candidate is a fresh miss.
        verifier.verify(&keep_last_summary("s"));
        assert_eq!(verifier.cache_misses(), 2);
    }

    #[test]
    fn parallel_verification_is_bit_identical_to_serial() {
        let frag = sum_fragment();
        let candidates = vec![sum_summary(), keep_last_summary("s")];
        let serial = Verifier::new(
            &frag,
            VerifyConfig {
                parallelism: 1,
                ..VerifyConfig::default()
            },
        );
        for workers in [2, 4, 7] {
            let parallel = Verifier::new(
                &frag,
                VerifyConfig {
                    parallelism: workers,
                    // Force the parallel path regardless of basis size.
                    parallel_min_obligations: 0,
                    ..VerifyConfig::default()
                },
            );
            for cand in &candidates {
                let a = serial.verify_uncached(cand);
                let b = parallel.verify_uncached(cand);
                assert_eq!(a.verified, b.verified, "verdict diverged at {workers}");
                assert_eq!(a.states_checked, b.states_checked);
                assert_eq!(a.counter_example, b.counter_example);
                assert_eq!(a.reason, b.reason);
                assert_eq!(a.reduce_properties, b.reduce_properties);
                assert_eq!(a.proof.text(), b.proof.text());
            }
        }
    }

    #[test]
    fn compiled_verifier_matches_interpreted_reference() {
        let frag = sum_fragment();
        let verifier = Verifier::new(&frag, VerifyConfig::default());
        for cand in [sum_summary(), keep_last_summary("s")] {
            let compiled = verifier.verify_uncached(&cand);
            let interpreted = verifier.verify_interpreted(&cand);
            assert_eq!(compiled.verified, interpreted.verified);
            assert_eq!(compiled.states_checked, interpreted.states_checked);
            assert_eq!(compiled.counter_example, interpreted.counter_example);
            assert_eq!(compiled.reduce_properties, interpreted.reduce_properties);
            assert_eq!(compiled.reason, interpreted.reason);
        }
    }

    #[test]
    fn faulting_candidate_is_rejected_with_reason_not_skipped() {
        // The candidate divides by an element-dependent expression that
        // the full domain drives to zero: its evaluation errors on
        // in-domain states and must be rejected with a reported reason.
        let frag = sum_fragment();
        let m = MapLambda::new(
            vec!["x"],
            vec![Emit::unconditional(
                IrExpr::int(0),
                IrExpr::bin(BinOp::Div, IrExpr::var("x"), IrExpr::var("x")),
            )],
        );
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(m)
            .reduce(ReduceLambda::binop(BinOp::Add));
        let summary = ProgramSummary::single("s", expr, OutputKind::Scalar);
        let result = full_verify(&frag, &summary, &VerifyConfig::default());
        assert!(!result.verified, "x/x faults on x = 0 and differs anyway");
        assert!(result.reason.is_some(), "rejection must carry a reason");
    }

    #[test]
    fn empty_domain_verifies_trivially_with_zero_states() {
        let frag = sum_fragment();
        let config = VerifyConfig {
            states: 0,
            ..VerifyConfig::default()
        };
        let result = full_verify(&frag, &sum_summary(), &config);
        assert!(result.verified);
        assert_eq!(result.states_checked, 0);
    }
}
