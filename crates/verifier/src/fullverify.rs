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
//!   counter are bit-identical at any worker count.
//!
//! Each call verifies: there is no verdict memo. The search sends a
//! candidate to the verifier at most once, and the pipeline reads a kept
//! summary's reducer properties from [`reducer_properties`] instead of
//! verifying it again.
//!
//! A candidate whose evaluation *errors* on an in-domain state fails
//! that obligation, and the state is recorded as its counter-example;
//! errors are never silently skipped. A verified candidate's reducers
//! get their algebraic properties from their shape alone
//! ([`crate::algebra`]).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use analyzer::basis::{VcEntry, VerificationBasis};
use analyzer::fragment::Fragment;
use analyzer::stategen::StateGenConfig;
use analyzer::vc::REL_TOL;
use casper_ir::compile::CompiledSummary;
use casper_ir::mr::{MrExpr, ProgramSummary};
use casper_runtime::{run_indexed, Priority};
use seqlang::env::Env;
use seqlang::error::Result;

use crate::algebra::{ca_properties, CaProperties};
use crate::proof::ProofScript;

/// Default [`VerifyConfig::parallel_min_obligations`]: bases with fewer
/// obligations (smoke domains, trivial fragments) stay serial even at
/// `parallelism > 1`. Handing a verification to the persistent executor
/// costs a wake-up and an atomic hand-off per call; no measurement backs
/// this value as the point where that cost pays off. Verdicts are
/// identical either way.
pub const PARALLEL_MIN_OBLIGATIONS: usize = 256;

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

/// One verification. Its cost is summed into the engine's counters
/// ([`Verifier::wall_time`], [`Verifier::cpu_time`]).
#[derive(Debug, Clone)]
pub struct Verification {
    pub result: Arc<VerifyResult>,
}

/// The per-fragment verification engine: memoized basis, compiled
/// evaluation, parallel checking. See the [module docs](self).
pub struct Verifier<'f> {
    fragment: &'f Fragment,
    config: VerifyConfig,
    basis: OnceLock<Arc<VerificationBasis>>,
    verifications: AtomicU64,
    wall_ns: AtomicU64,
    cpu_ns: AtomicU64,
}

impl<'f> Verifier<'f> {
    pub fn new(fragment: &'f Fragment, config: VerifyConfig) -> Verifier<'f> {
        Verifier {
            fragment,
            config,
            basis: OnceLock::new(),
            verifications: AtomicU64::new(0),
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

    /// Fully verify a candidate: compiled checking over the basis, in
    /// parallel chunks when configured.
    pub fn verify(&self, summary: &ProgramSummary) -> Verification {
        let started = Instant::now();
        let (result, busy, parallel_wall) = self.verify_compiled(summary, self.basis());
        self.verifications.fetch_add(1, Ordering::Relaxed);
        let wall = started.elapsed();
        let cpu = wall.saturating_sub(parallel_wall) + busy;
        self.wall_ns
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        self.cpu_ns
            .fetch_add(cpu.as_nanos() as u64, Ordering::Relaxed);
        Verification {
            result: Arc::new(result),
        }
    }

    /// The tree-walking golden reference: serial evaluation through
    /// `casper_ir::eval` over the *same* basis — the differential oracle
    /// the compiled verifier is tested against.
    pub fn verify_interpreted(&self, summary: &ProgramSummary) -> VerifyResult {
        let basis = self.basis();
        let first_fail =
            basis.first_failure(&|pre: &Env| casper_ir::eval::eval_summary(summary, pre));
        adjudicate(self.fragment, summary, basis, first_fail)
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
            basis.first_failure(&eval)
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

    /// Always 0: the verifier keeps no verdict cache. Kept only until
    /// ROADMAP item 17's re-baseline removes its reader in
    /// `benchmark/src/stepped.rs`.
    pub fn cache_hits(&self) -> u64 {
        0
    }

    /// Verifications performed so far. Kept under this name only until
    /// ROADMAP item 17's re-baseline removes its reader in
    /// `benchmark/src/stepped.rs`.
    pub fn cache_misses(&self) -> u64 {
        self.verifications.load(Ordering::Relaxed)
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
        if entries[i].fails(eval, rel_tol) {
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

/// Each reduce stage's [`CaProperties`], in pipeline (walk) order. They
/// depend on the reducers' shape alone, so a verified summary's
/// properties can be read here without verifying it again.
pub fn reducer_properties(summary: &ProgramSummary) -> Vec<CaProperties> {
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
/// amortising the basis across candidates.
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
    fn repeat_verifications_are_identical_and_each_counted() {
        let frag = sum_fragment();
        let verifier = Verifier::new(&frag, VerifyConfig::default());
        let first = verifier.verify(&sum_summary()).result;
        let second = verifier.verify(&sum_summary()).result;
        assert_eq!(first.verified, second.verified);
        assert_eq!(first.states_checked, second.states_checked);
        assert_eq!(first.counter_example, second.counter_example);
        assert_eq!(first.reason, second.reason);
        assert_eq!(first.reduce_properties, second.reduce_properties);
        assert_eq!(first.proof.text(), second.proof.text());
        assert_eq!(verifier.cache_hits(), 0);
        assert_eq!(verifier.cache_misses(), 2, "each call verifies");
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
                let a = serial.verify(cand).result;
                let b = parallel.verify(cand).result;
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
            let compiled = verifier.verify(&cand).result;
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
