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
//! [`Verifier`] is the per-fragment engine. It walks the basis serially
//! with [`VerificationBasis::first_failure`], the walk the synthesizer's
//! bounded screen uses: the lowest-indexed failing obligation decides the
//! verdict, the counter-example, and `states_checked`. The tree-walking
//! reference ([`Verifier::verify_interpreted`]) remains as the golden
//! differential oracle over the *same* basis.
//!
//! Each call verifies: there is no verdict memo. The search sends a
//! candidate to the verifier at most once, and the pipeline reads a kept
//! summary's reducer properties from [`reducer_properties`] instead of
//! verifying it again.
//!
//! A candidate whose evaluation *errors* on an in-domain state fails
//! that obligation, and the obligation is returned as its
//! counter-example; errors are never silently skipped. A verified
//! candidate's reducers get their algebraic properties from their shape
//! alone ([`crate::algebra`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use analyzer::basis::{VcEntry, VerificationBasis};
use analyzer::fragment::Fragment;
use analyzer::stategen::StateGenConfig;
use casper_ir::compile::CompiledSummary;
use casper_ir::mr::{MrExpr, ProgramSummary};
use seqlang::env::Env;

use crate::algebra::{ca_properties, CaProperties};
use crate::proof::ProofScript;

/// Verification configuration.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// States drawn from the full domain.
    pub states: usize,
    /// Additional permutation trials per state.
    pub permutations: usize,
    pub domain: StateGenConfig,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            states: 32,
            permutations: 2,
            domain: StateGenConfig::full(),
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
    /// The obligation that refuted the candidate, when refuted on one.
    pub counter_example: Option<VcEntry>,
    /// Why the candidate was rejected, when it was.
    pub reason: Option<String>,
}

/// One verification. Its wall time is summed into
/// [`Verifier::wall_time`].
#[derive(Debug, Clone)]
pub struct Verification {
    pub result: Arc<VerifyResult>,
}

/// The per-fragment verification engine: memoized basis, compiled
/// evaluation, serial first-failure walk. See the [module docs](self).
pub struct Verifier<'f> {
    fragment: &'f Fragment,
    config: VerifyConfig,
    basis: OnceLock<Arc<VerificationBasis>>,
    verifications: AtomicU64,
    wall_ns: AtomicU64,
}

impl<'f> Verifier<'f> {
    pub fn new(fragment: &'f Fragment, config: VerifyConfig) -> Verifier<'f> {
        Verifier {
            fragment,
            config,
            basis: OnceLock::new(),
            verifications: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
        }
    }

    /// The memoized verification basis: built on first use, shared by
    /// reference by every verification this engine performs. It walks
    /// every drawn state; none is observed whole.
    pub fn basis(&self) -> &Arc<VerificationBasis> {
        self.basis.get_or_init(|| {
            Arc::new(VerificationBasis::build(
                self.fragment,
                &self.config.domain,
                0,
                self.config.states,
                self.config.permutations,
            ))
        })
    }

    /// Fully verify a candidate: compiled checking over the basis.
    pub fn verify(&self, summary: &ProgramSummary) -> Verification {
        let started = Instant::now();
        let compiled = CompiledSummary::compile(summary);
        let result = self.adjudicate(summary, &|pre: &Env| compiled.eval(pre));
        self.verifications.fetch_add(1, Ordering::Relaxed);
        self.wall_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Verification {
            result: Arc::new(result),
        }
    }

    /// The tree-walking golden reference: evaluation through
    /// `casper_ir::eval` over the *same* basis — the differential oracle
    /// the compiled verifier is tested against.
    pub fn verify_interpreted(&self, summary: &ProgramSummary) -> VerifyResult {
        self.adjudicate(summary, &|pre: &Env| {
            casper_ir::eval::eval_summary(summary, pre)
        })
    }

    /// Walk the basis for `candidate`'s first failure and turn it into a
    /// [`VerifyResult`] — the single procedure the compiled and
    /// interpreted verifiers share, so their verdicts, counter-examples,
    /// and counters cannot diverge.
    fn adjudicate(
        &self,
        summary: &ProgramSummary,
        candidate: &dyn Fn(&Env) -> seqlang::error::Result<Env>,
    ) -> VerifyResult {
        let basis = self.basis();
        let first_fail = basis.first_failure(0..basis.entries.len(), candidate);
        let mut proof = ProofScript::new(self.fragment, summary);
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
                counter_example: Some(entry.clone()),
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

    /// The same as [`Verifier::wall_time`]: verification runs serially on
    /// the calling thread. Kept only until ROADMAP item 17's re-baseline
    /// removes its reader in `benchmark/src/stepped.rs`.
    pub fn cpu_time(&self) -> Duration {
        self.wall_time()
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

    /// One verification by a fresh engine.
    fn verify(frag: &Fragment, summary: &ProgramSummary, config: VerifyConfig) -> VerifyResult {
        (*Verifier::new(frag, config).verify(summary).result).clone()
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
        let result = verify(&frag, &sum_summary(), VerifyConfig::default());
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
        let result = verify(&frag, &summary, VerifyConfig::default());
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
        let result = verify(&frag, &keep_last_summary("m"), VerifyConfig::default());
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
        let result = verify(&frag, &summary, VerifyConfig::default());
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
        let result = verify(&frag, &sum_summary(), config);
        assert!(result.verified);
        assert_eq!(result.states_checked, 0);
    }
}
