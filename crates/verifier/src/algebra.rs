//! Commutativity/associativity analysis of reduce transformers.
//!
//! `reduce` may only be compiled to combiner-parallel primitives
//! (`reduceByKey`) when λr is commutative and associative; otherwise the
//! generated code must fall back to `groupByKey` with an ordered fold
//! (§6.3), and the cost model charges the Wcsg penalty (§5.1). Properties
//! are established structurally for the combinator shapes the enumerator
//! produces. A reducer of any other shape is treated as neither: the
//! ordered fold is correct for every reducer, so an unproved shape costs
//! a shuffle, never a wrong answer.

use casper_ir::expr::IrExpr;
use casper_ir::lambda::ReduceLambda;
use seqlang::ast::BinOp;

/// Algebraic properties of a reduce transformer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaProperties {
    pub commutative: bool,
    pub associative: bool,
}

impl CaProperties {
    pub fn both(&self) -> bool {
        self.commutative && self.associative
    }
}

/// Determine λr's properties from its shape; a shape with no structural
/// proof is non-CA (see the [module docs](self)).
pub fn ca_properties(lambda: &ReduceLambda) -> CaProperties {
    structural_properties(&lambda.body, &lambda.params).unwrap_or(CaProperties {
        commutative: false,
        associative: false,
    })
}

/// Structural proof: `v1 ⊕ v2` for a known CA operator, `min`/`max`
/// calls, and componentwise tuples thereof.
fn structural_properties(body: &IrExpr, params: &[String; 2]) -> Option<CaProperties> {
    let is_v1 = |e: &IrExpr| matches!(e, IrExpr::Var(v) if *v == params[0]);
    let is_v2 = |e: &IrExpr| matches!(e, IrExpr::Var(v) if *v == params[1]);
    match body {
        IrExpr::Bin(op, l, r) if is_v1(l) && is_v2(r) || is_v1(r) && is_v2(l) => match op {
            BinOp::Add
            | BinOp::Mul
            | BinOp::And
            | BinOp::Or
            | BinOp::BitAnd
            | BinOp::BitOr
            | BinOp::BitXor => Some(CaProperties {
                commutative: true,
                associative: true,
            }),
            BinOp::Sub | BinOp::Div | BinOp::Mod => Some(CaProperties {
                commutative: false,
                associative: false,
            }),
            _ => None,
        },
        IrExpr::Call(name, args) if args.len() == 2 => {
            let arg_ok =
                (is_v1(&args[0]) && is_v2(&args[1])) || (is_v1(&args[1]) && is_v2(&args[0]));
            if arg_ok && matches!(name.as_str(), "min" | "max") {
                Some(CaProperties {
                    commutative: true,
                    associative: true,
                })
            } else {
                None
            }
        }
        // Projections: keep-first is associative but not commutative;
        // keep-last likewise.
        IrExpr::Var(v) if *v == params[0] || *v == params[1] => Some(CaProperties {
            commutative: false,
            associative: true,
        }),
        IrExpr::Tuple(comps) => {
            let mut all = CaProperties {
                commutative: true,
                associative: true,
            };
            for (i, c) in comps.iter().enumerate() {
                let p = tuple_component_properties(c, params, i)?;
                all.commutative &= p.commutative;
                all.associative &= p.associative;
            }
            Some(all)
        }
        _ => None,
    }
}

/// Componentwise tuple reducers: `op(v1.i, v2.i)` / `min(v1.i, v2.i)`.
fn tuple_component_properties(
    c: &IrExpr,
    params: &[String; 2],
    comp: usize,
) -> Option<CaProperties> {
    let is_p = |e: &IrExpr, which: usize| {
        matches!(e, IrExpr::TupleGet(b, i) if *i == comp
            && matches!(&**b, IrExpr::Var(v) if *v == params[which]))
    };
    match c {
        IrExpr::Bin(op, l, r) if (is_p(l, 0) && is_p(r, 1)) || (is_p(l, 1) && is_p(r, 0)) => {
            match op {
                BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or => Some(CaProperties {
                    commutative: true,
                    associative: true,
                }),
                BinOp::Sub | BinOp::Div => Some(CaProperties {
                    commutative: false,
                    associative: false,
                }),
                _ => None,
            }
        }
        IrExpr::Call(name, args)
            if args.len() == 2
                && matches!(name.as_str(), "min" | "max")
                && ((is_p(&args[0], 0) && is_p(&args[1], 1))
                    || (is_p(&args[0], 1) && is_p(&args[1], 0))) =>
        {
            Some(CaProperties {
                commutative: true,
                associative: true,
            })
        }
        _ if is_p(c, 0) || is_p(c, 1) => Some(CaProperties {
            commutative: false,
            associative: true,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_ir::expr::IrExpr;

    #[test]
    fn addition_is_ca() {
        let l = ReduceLambda::binop(BinOp::Add);
        let p = ca_properties(&l);
        assert!(p.both());
    }

    #[test]
    fn subtraction_is_not_ca() {
        let l = ReduceLambda::binop(BinOp::Sub);
        let p = ca_properties(&l);
        assert!(!p.commutative);
        assert!(!p.associative);
    }

    #[test]
    fn min_max_are_ca() {
        for name in ["min", "max"] {
            let l = ReduceLambda::new(IrExpr::Call(
                name.into(),
                vec![IrExpr::var("v1"), IrExpr::var("v2")],
            ));
            assert!(ca_properties(&l).both());
        }
    }

    #[test]
    fn keep_first_is_associative_not_commutative() {
        let l = ReduceLambda::new(IrExpr::var("v1"));
        let p = ca_properties(&l);
        assert!(!p.commutative);
        assert!(p.associative);
    }

    #[test]
    fn componentwise_tuple_of_ca_is_ca() {
        let body = IrExpr::Tuple(vec![
            IrExpr::Call(
                "max".into(),
                vec![
                    IrExpr::tget(IrExpr::var("v1"), 0),
                    IrExpr::tget(IrExpr::var("v2"), 0),
                ],
            ),
            IrExpr::Call(
                "min".into(),
                vec![
                    IrExpr::tget(IrExpr::var("v1"), 1),
                    IrExpr::tget(IrExpr::var("v2"), 1),
                ],
            ),
        ]);
        let l = ReduceLambda::new(body);
        assert!(ca_properties(&l).both());
    }

    #[test]
    fn unrecognised_reducer_is_non_ca() {
        // 2*v1 + v2: neither commutative nor associative, and not a
        // structural shape — so it folds in order.
        let body = IrExpr::bin(
            BinOp::Add,
            IrExpr::bin(BinOp::Mul, IrExpr::int(2), IrExpr::var("v1")),
            IrExpr::var("v2"),
        );
        let p = ca_properties(&ReduceLambda::new(body));
        assert!(!p.commutative);
        assert!(!p.associative);
    }

    #[test]
    fn unrecognised_ca_reducer_is_still_non_ca() {
        // (v1 || v2) || false is commutative and associative, but its
        // shape carries no structural proof: the safe ordered fold it
        // gets is correct, only costlier.
        let body = IrExpr::bin(
            BinOp::Or,
            IrExpr::bin(BinOp::Or, IrExpr::var("v1"), IrExpr::var("v2")),
            IrExpr::ConstBool(false),
        );
        let p = ca_properties(&ReduceLambda::new(body));
        assert!(!p.commutative);
        assert!(!p.associative);
    }
}
