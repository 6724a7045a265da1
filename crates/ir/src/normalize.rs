//! One normal form for summaries (Smith and Albarghouthi's equivalence
//! reduction, VMCAI 2019).
//!
//! The enumerator builds every candidate in this form, so two candidates
//! that differ only by the rewrites below are one candidate: its
//! exact-equality pool stores the form once, and the search never costs,
//! compiles or screens the copy. `top_k` then counts distinct plans.
//!
//! Every rule is exact under the system's own semantics, where `Int`
//! arithmetic wraps and `Double` equality is the total order (`-0.0 !=
//! 0.0`, a NaN equals only a NaN with its bits). The rules are:
//!
//! - `x + 0`, `0 + x`, `x - 0`, `x * 1` and `1 * x` become `x` when `x`
//!   and the constant are `Int`.
//! - `Int` constants fold under `+`, `-` and `*`, any two constants fold
//!   under `==` and `!=`, and `abs` folds on an `Int` constant. A fold
//!   calls the interpreter's operator ([`eval_binop`], which applies
//!   [`seqlang::ops`] to scalars), and an operator that errors is left
//!   alone.
//! - The operands of `==` and `!=` are always put in one order: those
//!   that mention a λ-bound name (the record's side) first, then other
//!   non-constants, then constants (`x == t`, `w == key1`, `x + 0.5`),
//!   and by printed text within each rank. Those of `+` and `*` are when
//!   both are `Int`, or when one is a non-NaN numeric constant and the
//!   other is `Int` or `Double`: with at most one NaN operand the
//!   result's bits cannot depend on the order.
//! - An emit guarded by constant `false` is dropped, and one guarded by
//!   `true` loses its guard.
//!
//! Refused, because each changes a value somewhere: `Double` `x + 0`
//! (`-0.0 + 0` is `+0.0`), `Double` `x * 1` (a signalling NaN comes back
//! quiet), merging `x == 0` with `x == 0.0` (they differ at `-0.0`),
//! reordering string `+` (concatenation) and reordering `&&`/`||` (they
//! short-circuit). `tests/operator_table.rs` runs every rule and every
//! refused rule through each engine on boundary values.
//!
//! Types come from [`infer_type`] over a [`Scope`]: the λ parameters a
//! stage binds, then the caller's lookup for free names. A name whose type
//! is unknown takes no type-gated rule.

use std::cmp::Ordering;

use seqlang::ast::BinOp;
use seqlang::interp::{eval_binop, eval_free_function};
use seqlang::ty::Type;
use seqlang::Value;

use crate::expr::IrExpr;
use crate::lambda::{Emit, MapLambda, ReduceLambda};
use crate::mr::{DataShape, DataSource, MrExpr, OutputBinding, ProgramSummary};
use crate::size::infer_type;

/// The names an expression can mention: the λ parameters bound around
/// it, innermost last, and a lookup for every free name.
#[derive(Clone)]
pub struct Scope<'a> {
    free: &'a dyn Fn(&str) -> Option<Type>,
    bound: Vec<(String, Option<Type>)>,
}

impl<'a> Scope<'a> {
    /// A scope with nothing bound.
    pub fn new(free: &'a dyn Fn(&str) -> Option<Type>) -> Scope<'a> {
        Scope {
            free,
            bound: Vec::new(),
        }
    }

    /// This scope with `names` bound inside it.
    pub fn bind(&self, names: impl IntoIterator<Item = (String, Option<Type>)>) -> Scope<'a> {
        let mut inner = self.clone();
        inner.bound.extend(names);
        inner
    }

    /// The type of `name`: the innermost binding's, else the lookup's.
    fn type_of(&self, name: &str) -> Option<Type> {
        match self.bound.iter().rev().find(|(n, _)| n == name) {
            Some((_, ty)) => ty.clone(),
            None => (self.free)(name),
        }
    }

    /// The static type of `e` in this scope.
    pub fn infer(&self, e: &IrExpr) -> Option<Type> {
        infer_type(e, &|name: &str| self.type_of(name))
    }

    fn mentions_bound(&self, e: &IrExpr) -> bool {
        let mut vars = Vec::new();
        e.free_vars(&mut vars);
        vars.iter().any(|v| self.bound.iter().any(|(n, _)| n == v))
    }
}

/// The normal form of `e`, bottom-up.
pub fn expr(e: &IrExpr, scope: &Scope) -> IrExpr {
    let all = |es: &[IrExpr]| es.iter().map(|x| expr(x, scope)).collect::<Vec<_>>();
    match e {
        IrExpr::Bin(op, l, r) => bin(*op, expr(l, scope), expr(r, scope), scope),
        IrExpr::Un(op, x) => IrExpr::Un(*op, Box::new(expr(x, scope))),
        IrExpr::Field(b, f) => IrExpr::field(expr(b, scope), f.clone()),
        IrExpr::TupleGet(b, i) => IrExpr::tget(expr(b, scope), *i),
        IrExpr::Tuple(es) => IrExpr::Tuple(all(es)),
        IrExpr::Call(name, args) => {
            let args = all(args);
            let folded = match (name.as_str(), &args[..]) {
                ("abs", [n @ IrExpr::ConstInt(_)]) => {
                    fold(eval_free_function(name, &[constant(n)]))
                }
                _ => None,
            };
            folded.unwrap_or_else(|| IrExpr::Call(name.clone(), args))
        }
        IrExpr::Method(b, m, args) => {
            IrExpr::Method(Box::new(expr(b, scope)), m.clone(), all(args))
        }
        IrExpr::If(c, t, f) => IrExpr::ite(expr(c, scope), expr(t, scope), expr(f, scope)),
        IrExpr::Agg {
            op,
            init,
            over,
            param,
            body,
        } => {
            let elem = scope.type_of(over).and_then(|t| t.element().cloned());
            IrExpr::Agg {
                op: *op,
                init: Box::new(expr(init, scope)),
                over: over.clone(),
                param: param.clone(),
                body: Box::new(expr(body, &scope.bind([(param.clone(), elem)]))),
            }
        }
        IrExpr::ConstInt(_)
        | IrExpr::ConstDouble(_)
        | IrExpr::ConstBool(_)
        | IrExpr::ConstStr(_)
        | IrExpr::Var(_) => e.clone(),
    }
}

/// `l op r` over operands already in normal form.
fn bin(op: BinOp, l: IrExpr, r: IrExpr, scope: &Scope) -> IrExpr {
    use BinOp::*;
    let folds = match op {
        Add | Sub | Mul => matches!((&l, &r), (IrExpr::ConstInt(_), IrExpr::ConstInt(_))),
        Eq | Ne => is_constant(&l) && is_constant(&r),
        _ => false,
    };
    if folds {
        if let Some(folded) = fold(eval_binop(op, constant(&l), constant(&r))) {
            return folded;
        }
    }
    let is_int = |e: &IrExpr| scope.infer(e) == Some(Type::Int);
    match (op, &l, &r) {
        (Add | Sub, x, IrExpr::ConstInt(0))
        | (Add, IrExpr::ConstInt(0), x)
        | (Mul, x, IrExpr::ConstInt(1))
        | (Mul, IrExpr::ConstInt(1), x)
            if is_int(x) =>
        {
            return x.clone()
        }
        _ => {}
    }
    let numeric = |e: &IrExpr| scope.infer(e).is_some_and(|t| t.is_numeric());
    let commutes = match op {
        Eq | Ne => true,
        Add | Mul => {
            (is_int(&l) && is_int(&r))
                || (non_nan_number(&l) && numeric(&r))
                || (non_nan_number(&r) && numeric(&l))
        }
        _ => false,
    };
    if commutes && operand_order(&r, &l, scope) == Ordering::Less {
        IrExpr::bin(op, r, l)
    } else {
        IrExpr::bin(op, l, r)
    }
}

/// The order of a commutative operator's operands (see the module docs);
/// within a rank, by printed text, then by debug text.
fn operand_order(a: &IrExpr, b: &IrExpr, scope: &Scope) -> Ordering {
    let rank = |e: &IrExpr| match (is_constant(e), scope.mentions_bound(e)) {
        (true, _) => 2,
        (false, true) => 0,
        (false, false) => 1,
    };
    rank(a)
        .cmp(&rank(b))
        .then_with(|| a.to_string().cmp(&b.to_string()))
        .then_with(|| format!("{a:?}").cmp(&format!("{b:?}")))
}

fn is_constant(e: &IrExpr) -> bool {
    matches!(
        e,
        IrExpr::ConstInt(_) | IrExpr::ConstDouble(_) | IrExpr::ConstBool(_) | IrExpr::ConstStr(_)
    )
}

fn non_nan_number(e: &IrExpr) -> bool {
    match e {
        IrExpr::ConstInt(_) => true,
        IrExpr::ConstDouble(x) => !x.0.is_nan(),
        _ => false,
    }
}

/// The value of a constant expression.
fn constant(e: &IrExpr) -> Value {
    e.eval(&seqlang::Env::new()).expect("a constant evaluates")
}

/// The constant a fold produced, when it is one the IR can write.
fn fold(v: seqlang::Result<Value>) -> Option<IrExpr> {
    match v.ok()? {
        Value::Int(n) => Some(IrExpr::ConstInt(n)),
        Value::Bool(b) => Some(IrExpr::ConstBool(b)),
        _ => None,
    }
}

/// Emit assembly over parts already in normal form: `None` for a guard
/// that is constant `false`, no guard for one that is constant `true`.
pub fn emit(cond: Option<IrExpr>, key: IrExpr, val: IrExpr) -> Option<Emit> {
    match cond {
        Some(IrExpr::ConstBool(false)) => None,
        Some(IrExpr::ConstBool(true)) | None => Some(Emit::unconditional(key, val)),
        Some(c) => Some(Emit::guarded(c, key, val)),
    }
}

/// The normal form of a summary. `free` types the names its λ bodies
/// mention without binding (free scalars, struct-field paths); the
/// parameters each stage binds are typed from the stage's input.
pub fn summary(s: &ProgramSummary, free: &dyn Fn(&str) -> Option<Type>) -> ProgramSummary {
    let scope = Scope::new(free);
    ProgramSummary {
        bindings: s
            .bindings
            .iter()
            .map(|b| OutputBinding {
                vars: b.vars.clone(),
                expr: mr(&b.expr, &scope).0,
                kind: b.kind.clone(),
            })
            .collect(),
    }
}

/// Key and value types of the records a stage produces.
type Record = (Option<Type>, Option<Type>);

/// The λ parameter types a data source binds, by shape.
fn source_param_types(source: &DataSource) -> Vec<Type> {
    match source.shape {
        DataShape::Flat => vec![source.elem_ty.clone()],
        DataShape::Indexed => vec![Type::Int, source.elem_ty.clone()],
        DataShape::Indexed2D => vec![Type::Int, Type::Int, source.elem_ty.clone()],
    }
}

/// `e` in normal form, with the types of the records it produces.
fn mr(e: &MrExpr, scope: &Scope) -> (MrExpr, Record) {
    match e {
        MrExpr::Data(src) => {
            let record = match src.shape {
                DataShape::Indexed => (Some(Type::Int), Some(src.elem_ty.clone())),
                DataShape::Flat | DataShape::Indexed2D => (None, Some(src.elem_ty.clone())),
            };
            (e.clone(), record)
        }
        MrExpr::Map(inner, lambda) => {
            let (inner, (k, v)) = mr(inner, scope);
            let tys: Vec<Option<Type>> = match &inner {
                MrExpr::Data(src) => source_param_types(src).into_iter().map(Some).collect(),
                _ => vec![k, v],
            };
            let scope = scope.bind(lambda.params.iter().cloned().zip(tys));
            let emits: Vec<Emit> = lambda
                .emits
                .iter()
                .filter_map(|em| {
                    let cond = em.cond.as_ref().map(|c| expr(c, &scope));
                    emit(cond, expr(&em.key, &scope), expr(&em.val, &scope))
                })
                .collect();
            let record = emits.first().map_or((None, None), |em| {
                (scope.infer(&em.key), scope.infer(&em.val))
            });
            let lambda = MapLambda {
                params: lambda.params.clone(),
                emits,
            };
            (inner.map(lambda), record)
        }
        MrExpr::Reduce(inner, lambda) => {
            let (inner, record) = mr(inner, scope);
            let scope = scope.bind(lambda.params.iter().map(|p| (p.clone(), record.1.clone())));
            let lambda = ReduceLambda {
                params: lambda.params.clone(),
                body: expr(&lambda.body, &scope),
            };
            (inner.reduce(lambda), record)
        }
        MrExpr::Join(l, r) => {
            let (l, (lk, lv)) = mr(l, scope);
            let (r, (_, rv)) = mr(r, scope);
            let v = lv.zip(rv).map(|(a, b)| Type::Tuple(vec![a, b]));
            (l.join(r), (lk, v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(name: &str) -> Option<Type> {
        match name {
            "x" | "y" | "t" => Some(Type::Int),
            "d" => Some(Type::Double),
            "s" | "key1" => Some(Type::Str),
            _ => None,
        }
    }

    fn norm(e: &IrExpr) -> IrExpr {
        let scope = Scope::new(&ints);
        let scope = scope.bind([("x".to_string(), Some(Type::Int))]);
        expr(e, &scope)
    }

    fn add(l: IrExpr, r: IrExpr) -> IrExpr {
        IrExpr::bin(BinOp::Add, l, r)
    }

    #[test]
    fn identities_fold_only_on_int() {
        let x = IrExpr::var("x");
        let d = IrExpr::var("d");
        assert_eq!(norm(&add(x.clone(), IrExpr::int(0))), x);
        assert_eq!(norm(&add(IrExpr::int(0), x.clone())), x);
        let double_pad = add(d.clone(), IrExpr::int(0));
        assert_eq!(norm(&double_pad), double_pad);
        // Nested padding folds bottom-up.
        let nested = IrExpr::bin(BinOp::Mul, add(IrExpr::int(0), x.clone()), IrExpr::int(1));
        assert_eq!(norm(&nested), x);
    }

    #[test]
    fn record_side_operands_come_first() {
        let x = IrExpr::var("x");
        let t = IrExpr::var("t");
        let eq = |l: &IrExpr, r: &IrExpr| IrExpr::bin(BinOp::Eq, l.clone(), r.clone());
        assert_eq!(norm(&eq(&t, &x)), eq(&x, &t));
        assert_eq!(norm(&eq(&IrExpr::int(0), &x)), eq(&x, &IrExpr::int(0)));
        assert_eq!(norm(&add(t.clone(), x.clone())), add(x.clone(), t.clone()));
        // A constant moves right of a Double, but two Doubles stay put.
        let d = IrExpr::var("d");
        let c = IrExpr::double(2.5);
        assert_eq!(norm(&add(c.clone(), d.clone())), add(d.clone(), c));
        let mixed = add(d.clone(), IrExpr::var("x"));
        assert_eq!(norm(&mixed), mixed);
        let strings = add(IrExpr::var("key1"), IrExpr::var("s"));
        assert_eq!(norm(&strings), strings);
    }

    #[test]
    fn constants_fold_through_the_interpreter() {
        let n = |e| norm(&e);
        assert_eq!(
            n(add(IrExpr::int(i64::MAX), IrExpr::int(1))),
            IrExpr::int(i64::MIN)
        );
        let eq = IrExpr::bin(BinOp::Eq, IrExpr::int(0), IrExpr::double(0.0));
        assert_eq!(n(eq), IrExpr::ConstBool(true));
        let div = IrExpr::bin(BinOp::Div, IrExpr::int(1), IrExpr::int(0));
        assert_eq!(n(div.clone()), div);
        let abs = IrExpr::Call("abs".into(), vec![IrExpr::int(-3)]);
        assert_eq!(n(abs), IrExpr::int(3));
    }

    #[test]
    fn guards_fold_into_the_emit() {
        let (k, v) = (IrExpr::int(0), IrExpr::var("x"));
        assert_eq!(
            emit(Some(IrExpr::ConstBool(false)), k.clone(), v.clone()),
            None
        );
        assert_eq!(
            emit(Some(IrExpr::ConstBool(true)), k.clone(), v.clone()),
            Some(Emit::unconditional(k, v))
        );
    }

    #[test]
    fn summary_types_each_stage_from_its_input() {
        // reduce(map(xs, x -> emit(0, 0 + x)), v2 + v1) over list<int>.
        let src = DataSource::flat("xs", Type::Int);
        let raw = MrExpr::Data(src.clone())
            .map(MapLambda::new(
                vec!["x"],
                vec![Emit::unconditional(
                    IrExpr::int(0),
                    add(IrExpr::int(0), IrExpr::var("x")),
                )],
            ))
            .reduce(ReduceLambda::new(add(IrExpr::var("v2"), IrExpr::var("v1"))));
        let want = MrExpr::Data(src)
            .map(MapLambda::new(
                vec!["x"],
                vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("x"))],
            ))
            .reduce(ReduceLambda::binop(BinOp::Add));
        let none = |_: &str| None;
        let s = ProgramSummary::single("s", raw, crate::mr::OutputKind::Scalar);
        let n = summary(&s, &none);
        assert_eq!(n.bindings[0].expr, want);
        assert_eq!(summary(&n, &none), n, "a normal form is a fixed point");
    }
}
