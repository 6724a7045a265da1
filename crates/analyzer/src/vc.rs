//! Executable verification conditions (§3.3, Figure 4).
//!
//! Casper proves a summary correct with Hoare-logic VCs: an invariant
//! `Inv(out, i) ≡ out = MR(data[0..i])` must hold at initiation (`i = 0`),
//! be preserved by each iteration (continuation), and imply the summary at
//! termination. In this reproduction the VCs are *checked by execution*:
//! for a concrete state σ and every prefix length `p` of the iterated
//! data, running the fragment on `σ|p` must produce exactly what the
//! candidate summary computes on `σ|p`. Checking all prefixes of σ checks
//! initiation (p = 0), every continuation step (p → p+1), and termination
//! (p = n) — the same proof obligations, instantiated on σ instead of
//! discharged symbolically. The prefix walk itself is
//! [`crate::basis::walk_prefixes`]; the synthesizer runs it over the
//! bounded domain, the full verifier over a much larger one, both through
//! [`crate::basis::VerificationBasis`]. This module holds the one
//! output-comparison rule both apply.

use seqlang::env::Env;
use seqlang::value::{approx_eq, Value};

/// Relative tolerance for floating-point output comparison (reductions
/// may reassociate). The one tolerance of both verification phases: the
/// synthesizer's screening and the full verifier compare with it, so a
/// state that refutes a candidate in one phase refutes it in the other.
pub const REL_TOL: f64 = 1e-6;

/// Do the computed outputs agree with the expected ones, for every
/// expected variable? This is the single output-comparison rule of both
/// verification phases; the synthesizer's compiled screening layer reuses
/// it so compiled and tree-walking verdicts can never diverge.
pub fn outputs_match(expected: &Env, got: &Env, rel_tol: f64) -> bool {
    for (name, want) in expected.iter() {
        let Some(have) = got.get(name) else {
            return false;
        };
        if !values_match(want, have, rel_tol) {
            return false;
        }
    }
    true
}

fn values_match(want: &Value, have: &Value, rel_tol: f64) -> bool {
    // Lists computed by MapReduce are multisets: compare order-insensitively.
    match (want, have) {
        (Value::List(a), Value::List(b)) => {
            if a.len() != b.len() {
                return false;
            }
            let mut sa = a.clone();
            let mut sb = b.clone();
            sa.sort();
            sb.sort();
            sa.iter().zip(&sb).all(|(x, y)| approx_eq(x, y, rel_tol))
        }
        _ => approx_eq(want, have, rel_tol),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{walk_prefixes, VcEntry, VerificationBasis};
    use crate::fragment::Fragment;
    use crate::identify_fragments;
    use crate::stategen::StateGenConfig;
    use casper_ir::eval::eval_summary;
    use casper_ir::expr::IrExpr;
    use casper_ir::lambda::{Emit, MapLambda, ReduceLambda};
    use casper_ir::mr::{DataSource, MrExpr, OutputKind, ProgramSummary};
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

    /// `s = reduce(map(xs, v -> (0, emit)), reduce)`.
    fn summary(emit: IrExpr, reduce: ReduceLambda) -> ProgramSummary {
        let m = MapLambda::new(vec!["v"], vec![Emit::unconditional(IrExpr::int(0), emit)]);
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(m)
            .reduce(reduce);
        ProgramSummary::single("s", expr, OutputKind::Scalar)
    }

    /// Is `summary` refuted by some obligation of `states` drawn from
    /// `domain` (prefix walks only, no permutation trials)?
    fn refuted(frag: &Fragment, domain: StateGenConfig, states: usize, s: &ProgramSummary) -> bool {
        let basis = VerificationBasis::build(frag, &domain, 0, states, 0);
        assert!(!basis.entries.is_empty());
        basis
            .first_failure(0..basis.entries.len(), &|pre: &Env| eval_summary(s, pre))
            .is_some()
    }

    #[test]
    fn correct_summary_holds_on_all_states() {
        let sum = summary(IrExpr::var("v"), ReduceLambda::binop(BinOp::Add));
        assert!(!refuted(
            &sum_fragment(),
            StateGenConfig::bounded(),
            30,
            &sum
        ));
    }

    #[test]
    fn wrong_summary_produces_counterexample() {
        // Uses max instead of +: correct only on some states.
        let max = ReduceLambda::new(IrExpr::Call(
            "max".into(),
            vec![IrExpr::var("v1"), IrExpr::var("v2")],
        ));
        let wrong = summary(IrExpr::var("v"), max);
        assert!(
            refuted(&sum_fragment(), StateGenConfig::bounded(), 50, &wrong),
            "max-reduce must be rejected for sum"
        );
    }

    #[test]
    fn prefix_check_rejects_last_element_only_candidates() {
        // Candidate computes s = last element (reduce with v2): this
        // matches the fragment only for single-element data on the full
        // input, but the termination check on longer data kills it.
        let last = summary(IrExpr::var("v"), ReduceLambda::new(IrExpr::var("v2")));
        assert!(refuted(
            &sum_fragment(),
            StateGenConfig::bounded(),
            50,
            &last
        ));
    }

    #[test]
    fn faulting_candidate_is_a_counterexample() {
        let frag = sum_fragment();
        // Candidate divides by zero.
        let div = IrExpr::bin(BinOp::Div, IrExpr::var("v"), IrExpr::int(0));
        let cand = summary(div, ReduceLambda::binop(BinOp::Add));
        let mut st = Env::new();
        st.set("xs", Value::List(vec![Value::Int(1)]));
        let mut entries = Vec::new();
        assert!(walk_prefixes(&frag, &st, |state, pre, expected| {
            entries.push(VcEntry {
                state_index: 0,
                state,
                pre,
                expected,
            })
        }));
        let eval = |pre: &Env| eval_summary(&cand, pre);
        assert!(entries.iter().any(|e| e.fails(&eval)));
    }

    #[test]
    fn bounded_domain_misses_min4_spurious_candidate() {
        // The paper's §4.1 example: under ints ≤ 4, `min(4, sum)` is
        // indistinguishable from `sum`... on sum it isn't (sums exceed 4),
        // so use `min(4, v)` per element vs `v` with max-bound data of a
        // single element and value ≤ 4: build the exact scenario with a
        // "last value" fragment.
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
        // Candidate: s = reduce(map(xs, v -> (0, min(4, v))), λ v1 v2 -> v2).
        let min4 = IrExpr::Call("min".into(), vec![IrExpr::int(4), IrExpr::var("v")]);
        let cand = summary(min4, ReduceLambda::new(IrExpr::var("v2")));

        // Bounded domain (|v| ≤ 4): the spurious candidate passes…
        assert!(!refuted(&frag, StateGenConfig::bounded(), 40, &cand));
        // …but the full verifier's domain rejects it.
        assert!(
            refuted(&frag, StateGenConfig::full(), 40, &cand),
            "full domain must expose min(4, v) ≠ v"
        );
    }
}
