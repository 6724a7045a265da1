//! Static evaluation of the cost model over summaries, and the
//! compile-time dominance pruning it enables.

use casper_ir::mr::{MrExpr, ProgramSummary};
use casper_ir::size::emit_size_bytes;
use seqlang::ty::Type;

use crate::sym::SymCost;
use crate::CostWeights;

/// Static (symbolic) cost of a summary, per input record (§5.1).
///
/// Conditional emits introduce unknowns `p1, p2, …` in pipeline order.
/// Approximations (ARCHITECTURE.md, "`crates/cost`"): stages downstream
/// of the first reduce process only the per-key residue and are not
/// charged; join selectivity is the unknown `pj`. `non_ca` flags the
/// reduce stages (in pipeline order) whose transformer failed the CA
/// analysis — those pay the `Wcsg` penalty of Eqn 3.
pub fn static_cost(
    summary: &ProgramSummary,
    type_of: &dyn Fn(&str) -> Option<Type>,
    non_ca: &[bool],
    weights: &CostWeights,
) -> SymCost {
    let mut total = SymCost::constant(0.0);
    let mut prob_counter = 0usize;
    let mut reduce_counter = 0usize;
    for binding in &summary.bindings {
        let (cost, _mult, _pair) = stage_cost(
            &binding.expr,
            type_of,
            non_ca,
            weights,
            &mut prob_counter,
            &mut reduce_counter,
        );
        total.add(&cost);
    }
    total
}

/// Record-count multiplier flowing between stages: `base + Σ coef·p`.
#[derive(Clone)]
struct Mult {
    inner: SymCost,
}

impl Mult {
    fn one() -> Mult {
        Mult {
            inner: SymCost::constant(1.0),
        }
    }
    fn zero() -> Mult {
        Mult {
            inner: SymCost::constant(0.0),
        }
    }
}

fn stage_cost(
    expr: &MrExpr,
    type_of: &dyn Fn(&str) -> Option<Type>,
    non_ca: &[bool],
    weights: &CostWeights,
    prob_counter: &mut usize,
    reduce_counter: &mut usize,
) -> (SymCost, Mult, f64) {
    match expr {
        MrExpr::Data(_) => (SymCost::constant(0.0), Mult::one(), 48.0),
        MrExpr::Map(inner, lambda) => {
            let (mut cost, mult, _pair) = stage_cost(
                inner,
                type_of,
                non_ca,
                weights,
                prob_counter,
                reduce_counter,
            );
            // Parameter types: bind λ params through `type_of` fallback.
            let lookup = |name: &str| type_of(name);
            let mut out_mult = SymCost::constant(0.0);
            let mut pair_size = 0.0f64;
            for emit in &lambda.emits {
                let size = emit_size_bytes(emit, &lookup) as f64;
                pair_size = pair_size.max(size);
                match &emit.cond {
                    None => {
                        // size · mult records per input.
                        cost.add(&mult.inner.scale(weights.wm * size));
                        out_mult.add(&mult.inner);
                    }
                    Some(_) => {
                        *prob_counter += 1;
                        let p = format!("p{}", prob_counter);
                        if mult.inner.terms.is_empty() {
                            let coef = mult.inner.base;
                            cost.add_term(p.clone(), weights.wm * size * coef);
                            out_mult.add_term(p, coef);
                        } else {
                            // Probability products would be non-linear;
                            // approximate the guarded term with the new
                            // unknown alone (upper-bounded by it).
                            cost.add_term(p.clone(), weights.wm * size);
                            out_mult.add_term(p, 1.0);
                        }
                    }
                }
            }
            (cost, Mult { inner: out_mult }, pair_size)
        }
        MrExpr::Reduce(inner, lambda) => {
            let (mut cost, mult, pair_size) = stage_cost(
                inner,
                type_of,
                non_ca,
                weights,
                prob_counter,
                reduce_counter,
            );
            // Eqn 3 prices the reducer on the records it shuffles and
            // combines: the key/value pair size of its input (Figure 8(d)
            // charges λr of solution (a) at the full 50-byte pair).
            let _ = &lambda.body;
            let size = pair_size;
            let eps = if non_ca.get(*reduce_counter).copied().unwrap_or(false) {
                weights.wcsg
            } else {
                1.0
            };
            *reduce_counter += 1;
            cost.add(&mult.inner.scale(weights.wr * size * eps));
            // Downstream of a reduce only per-key residues flow;
            // statically negligible.
            (cost, Mult::zero(), size)
        }
        MrExpr::Join(l, r) => {
            let (cl, _, _) = stage_cost(l, type_of, non_ca, weights, prob_counter, reduce_counter);
            let (cr, _, _) = stage_cost(r, type_of, non_ca, weights, prob_counter, reduce_counter);
            let mut cost = SymCost::constant(0.0);
            cost.add(&cl);
            cost.add(&cr);
            // Join output priced with the unknown selectivity `pj`.
            *prob_counter += 1;
            let pj = format!("pj{}", prob_counter);
            cost.add_term(pj.clone(), weights.wj * 48.0);
            let mut out = SymCost::constant(0.0);
            out.add_term(pj, 1.0);
            (cost, Mult { inner: out }, 48.0)
        }
    }
}

/// Drop statically dominated candidates: keep a summary only if no other
/// kept summary is cheaper for every probability assignment (§5.2's
/// compile-time pruning; kills Figure 8's solution (a)).
pub fn prune_dominated(
    summaries: Vec<(ProgramSummary, SymCost)>,
) -> Vec<(ProgramSummary, SymCost)> {
    let mut kept: Vec<(ProgramSummary, SymCost)> = Vec::new();
    'outer: for (cand, cost) in summaries {
        for (_, other_cost) in &kept {
            if cost.dominates(other_cost) && cost != *other_cost {
                continue 'outer; // strictly worse than something we keep
            }
        }
        // Remove previously kept summaries the new one strictly beats.
        kept.retain(|(_, oc)| !(oc.dominates(&cost) && *oc != cost));
        kept.push((cand, cost));
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_ir::expr::IrExpr;
    use casper_ir::lambda::{Emit, MapLambda, ReduceLambda};
    use casper_ir::mr::{DataSource, OutputKind};
    use seqlang::ast::BinOp;

    /// Figure 8(d) solution (a): two unconditional (String, Bool) emits,
    /// reduce OR.
    fn stringmatch_a() -> ProgramSummary {
        let m = MapLambda::new(
            vec!["w"],
            vec![
                Emit::unconditional(
                    IrExpr::var("key1"),
                    IrExpr::bin(BinOp::Eq, IrExpr::var("w"), IrExpr::var("key1")),
                ),
                Emit::unconditional(
                    IrExpr::var("key2"),
                    IrExpr::bin(BinOp::Eq, IrExpr::var("w"), IrExpr::var("key2")),
                ),
            ],
        );
        let expr = MrExpr::Data(DataSource::flat("text", Type::Str))
            .map(m)
            .reduce(ReduceLambda::binop(BinOp::Or));
        ProgramSummary {
            bindings: vec![casper_ir::mr::OutputBinding {
                vars: vec!["f1".into(), "f2".into()],
                expr,
                kind: OutputKind::KeyedScalars {
                    keys: vec![IrExpr::var("key1"), IrExpr::var("key2")],
                },
            }],
        }
    }

    /// Solution (b): single (Bool, Bool)-tuple pair.
    fn stringmatch_b() -> ProgramSummary {
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
        ProgramSummary {
            bindings: vec![casper_ir::mr::OutputBinding {
                vars: vec!["f1".into(), "f2".into()],
                expr,
                kind: OutputKind::ScalarTuple,
            }],
        }
    }

    /// Solution (c): guarded emits, only matches emitted.
    fn stringmatch_c() -> ProgramSummary {
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
        ProgramSummary {
            bindings: vec![casper_ir::mr::OutputBinding {
                vars: vec!["f1".into(), "f2".into()],
                expr,
                kind: OutputKind::KeyedScalars {
                    keys: vec![IrExpr::var("key1"), IrExpr::var("key2")],
                },
            }],
        }
    }

    fn sm_types() -> impl Fn(&str) -> Option<Type> {
        |name: &str| match name {
            "w" | "key1" | "key2" => Some(Type::Str),
            _ => None,
        }
    }

    #[test]
    fn figure8d_static_costs() {
        let w = CostWeights::default();
        let ty = sm_types();
        // Solution (a): λm 2·(40+10)·N = 100N; λr 2·2·50·N = 200N (two
        // records per input, Wr = 2, 50-byte pair) → 300N, exactly the
        // paper's Figure 8(d) total.
        let a = static_cost(&stringmatch_a(), &ty, &[], &w);
        assert!(a.terms.is_empty());
        assert!((a.base - 300.0).abs() < 1e-9, "a = {}", a.display());

        // Solution (b): λm (4+28)·N = 32N (int key + (Bool,Bool) tuple);
        // λr 2·32·N = 64N → 96N (paper: 84N with a keyless pair).
        let b = static_cost(&stringmatch_b(), &ty, &[], &w);
        assert!((b.base - 96.0).abs() < 1e-9, "b = {}", b.display());

        // Solution (c): (p1+p2)·50·N for λm plus (p1+p2)·2·50·N for λr
        // → 150(p1 + p2)·N, exactly the paper's total.
        let c = static_cost(&stringmatch_c(), &ty, &[], &w);
        assert!(c.base.abs() < 1e-9);
        assert!((c.terms["p1"] - 150.0).abs() < 1e-9, "c = {}", c.display());
        assert!((c.terms["p2"] - 150.0).abs() < 1e-9);
    }

    #[test]
    fn solution_a_statically_dominated_by_b() {
        let w = CostWeights::default();
        let ty = sm_types();
        let a = static_cost(&stringmatch_a(), &ty, &[], &w);
        let b = static_cost(&stringmatch_b(), &ty, &[], &w);
        let c = static_cost(&stringmatch_c(), &ty, &[], &w);
        assert!(a.dominates(&b), "a must be droppable at compile time");
        assert!(
            !b.dominates(&c) && !c.dominates(&b),
            "b vs c needs runtime data"
        );

        let pruned = prune_dominated(vec![
            (stringmatch_a(), a),
            (stringmatch_b(), b),
            (stringmatch_c(), c),
        ]);
        assert_eq!(pruned.len(), 2, "exactly (b) and (c) survive");
    }

    #[test]
    fn non_ca_reduce_pays_wcsg() {
        let w = CostWeights::default();
        let ty = sm_types();
        let base = static_cost(&stringmatch_b(), &ty, &[false], &w).base;
        let penalised = static_cost(&stringmatch_b(), &ty, &[true], &w).base;
        assert!((penalised - base) > 1.0);
        assert!((penalised / base) > 5.0, "{penalised} vs {base}");
    }
}
