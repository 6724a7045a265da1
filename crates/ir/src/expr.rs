//! IR expressions — the bodies of synthesized transformer functions.

use std::fmt;

use seqlang::ast::{BinOp, UnOp};
use seqlang::error::{Error, Result};
use seqlang::interp::{eval_binop, eval_free_function, eval_pure_method, eval_unop};
use seqlang::value::Value;
use seqlang::Env;

/// An expression in the summary IR (the `Expr` production of Figure 3).
///
/// Variables refer either to transformer-function parameters (bound per
/// record during evaluation) or to *free* input variables of the code
/// fragment (bound from the program state, e.g. `cols` in the row-wise
/// mean benchmark).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IrExpr {
    ConstInt(i64),
    ConstDouble(OrderedF64),
    ConstBool(bool),
    ConstStr(String),
    Var(String),
    /// Struct field projection, e.g. `l.l_discount`.
    Field(Box<IrExpr>, String),
    /// Tuple component access, `t.0` / `t.1`.
    TupleGet(Box<IrExpr>, usize),
    /// Tuple construction `(e1, e2, ...)`.
    Tuple(Vec<IrExpr>),
    Bin(BinOp, Box<IrExpr>, Box<IrExpr>),
    Un(UnOp, Box<IrExpr>),
    /// Modelled library call (`abs`, `min`, `max`, `sqrt`, ...).
    Call(String, Vec<IrExpr>),
    /// Modelled method call on the receiver (`split`, `contains`, ...).
    Method(Box<IrExpr>, String, Vec<IrExpr>),
    /// Conditional expression.
    If(Box<IrExpr>, Box<IrExpr>, Box<IrExpr>),
    /// Inline aggregate: fold `body` over the elements of the collection
    /// named `over`, starting from `init` and combining with `op`;
    /// `param` binds the current element inside `body`. This is the
    /// nested-aggregate production (per-record inner reductions such as
    /// k-means' closest-centroid scan or a histogram CDF rank).
    Agg {
        op: AggOp,
        init: Box<IrExpr>,
        over: String,
        param: String,
        body: Box<IrExpr>,
    },
}

/// Combining operation of an inline [`IrExpr::Agg`] aggregate. All three
/// evaluation engines fold through [`AggOp::combine`], so their values
/// and error strings agree by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    Add,
    Mul,
    Min,
    Max,
    Or,
    And,
}

impl AggOp {
    /// Fold one element contribution into the accumulator.
    pub fn combine(&self, a: Value, b: Value) -> Result<Value> {
        match self {
            AggOp::Add => eval_binop(BinOp::Add, a, b),
            AggOp::Mul => eval_binop(BinOp::Mul, a, b),
            AggOp::Min => eval_free_function("min", &[a, b]),
            AggOp::Max => eval_free_function("max", &[a, b]),
            // Mirrors the short-circuit `Bin` semantics: a non-true lhs
            // decides `and`, a true lhs decides `or`, else the rhs wins.
            AggOp::Or => Ok(if a.as_bool() == Some(true) {
                Value::Bool(true)
            } else {
                b
            }),
            AggOp::And => Ok(if a.as_bool() != Some(true) {
                Value::Bool(false)
            } else {
                b
            }),
        }
    }

    /// Lower-case token used by `Display` and the pretty-printer.
    pub fn token(&self) -> &'static str {
        match self {
            AggOp::Add => "add",
            AggOp::Mul => "mul",
            AggOp::Min => "min",
            AggOp::Max => "max",
            AggOp::Or => "or",
            AggOp::And => "and",
        }
    }
}

/// `f64` wrapper with total equality/hash so IR terms can be deduplicated
/// and blocked by hashing (§4.1's candidate blocking).
#[derive(Debug, Clone, Copy)]
pub struct OrderedF64(pub f64);

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for OrderedF64 {}
impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl IrExpr {
    pub fn int(n: i64) -> IrExpr {
        IrExpr::ConstInt(n)
    }
    pub fn double(x: f64) -> IrExpr {
        IrExpr::ConstDouble(OrderedF64(x))
    }
    pub fn var(name: impl Into<String>) -> IrExpr {
        IrExpr::Var(name.into())
    }
    pub fn bin(op: BinOp, l: IrExpr, r: IrExpr) -> IrExpr {
        IrExpr::Bin(op, Box::new(l), Box::new(r))
    }
    pub fn field(base: IrExpr, name: impl Into<String>) -> IrExpr {
        IrExpr::Field(Box::new(base), name.into())
    }
    pub fn tget(base: IrExpr, i: usize) -> IrExpr {
        IrExpr::TupleGet(Box::new(base), i)
    }
    pub fn ite(c: IrExpr, t: IrExpr, e: IrExpr) -> IrExpr {
        IrExpr::If(Box::new(c), Box::new(t), Box::new(e))
    }

    /// Expression length as the paper defines it for grammar classes
    /// (§4.2: `x + y` has length 2, `x + y + z` length 3): the number of
    /// leaf operands.
    pub fn length(&self) -> usize {
        match self {
            IrExpr::ConstInt(_)
            | IrExpr::ConstDouble(_)
            | IrExpr::ConstBool(_)
            | IrExpr::ConstStr(_)
            | IrExpr::Var(_) => 1,
            IrExpr::Field(b, _) | IrExpr::TupleGet(b, _) | IrExpr::Un(_, b) => b.length(),
            IrExpr::Tuple(es) => es.iter().map(IrExpr::length).sum(),
            IrExpr::Bin(_, l, r) => l.length() + r.length(),
            IrExpr::Call(_, args) | IrExpr::Method(_, _, args) => {
                1 + args.iter().map(IrExpr::length).sum::<usize>()
            }
            IrExpr::If(c, t, e) => c.length() + t.length() + e.length(),
            // The collection counts as one operand, like a call receiver.
            IrExpr::Agg { init, body, .. } => init.length() + body.length() + 1,
        }
    }

    /// Free variables referenced by this expression.
    pub fn free_vars(&self, out: &mut Vec<String>) {
        match self {
            IrExpr::Var(v) if !out.contains(v) => {
                out.push(v.clone());
            }
            IrExpr::Field(b, _) | IrExpr::TupleGet(b, _) | IrExpr::Un(_, b) => b.free_vars(out),
            IrExpr::Tuple(es) => {
                for e in es {
                    e.free_vars(out);
                }
            }
            IrExpr::Bin(_, l, r) => {
                l.free_vars(out);
                r.free_vars(out);
            }
            IrExpr::Call(_, args) => {
                for a in args {
                    a.free_vars(out);
                }
            }
            IrExpr::Method(b, _, args) => {
                b.free_vars(out);
                for a in args {
                    a.free_vars(out);
                }
            }
            IrExpr::If(c, t, e) => {
                c.free_vars(out);
                t.free_vars(out);
                e.free_vars(out);
            }
            IrExpr::Agg {
                init,
                over,
                param,
                body,
                ..
            } => {
                init.free_vars(out);
                if !out.contains(over) {
                    out.push(over.clone());
                }
                let mut inner = Vec::new();
                body.free_vars(&mut inner);
                for v in inner {
                    if v != *param && !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            _ => {}
        }
    }

    /// Evaluate against an environment binding both transformer parameters
    /// and free fragment inputs.
    pub fn eval(&self, env: &Env) -> Result<Value> {
        match self {
            IrExpr::ConstInt(n) => Ok(Value::Int(*n)),
            IrExpr::ConstDouble(x) => Ok(Value::Double(x.0)),
            IrExpr::ConstBool(b) => Ok(Value::Bool(*b)),
            IrExpr::ConstStr(s) => Ok(Value::str(s)),
            IrExpr::Var(name) => env
                .get(name)
                .cloned()
                .ok_or_else(|| Error::runtime(format!("IR: unbound variable `{name}`"))),
            IrExpr::Field(base, field) => {
                let b = base.eval(env)?;
                b.field(field)
                    .cloned()
                    .ok_or_else(|| Error::runtime(format!("IR: no field `{field}` on {b}")))
            }
            IrExpr::TupleGet(base, i) => {
                let b = base.eval(env)?;
                b.tuple_get(*i)
                    .cloned()
                    .ok_or_else(|| Error::runtime(format!("IR: tuple index {i} on {b}")))
            }
            IrExpr::Tuple(es) => {
                let mut vals = Vec::with_capacity(es.len());
                for e in es {
                    vals.push(e.eval(env)?);
                }
                Ok(Value::Tuple(vals))
            }
            IrExpr::Bin(op, l, r) => {
                // Short-circuit like the source language.
                match op {
                    BinOp::And => {
                        if l.eval(env)?.as_bool() != Some(true) {
                            return Ok(Value::Bool(false));
                        }
                        return r.eval(env);
                    }
                    BinOp::Or => {
                        if l.eval(env)?.as_bool() == Some(true) {
                            return Ok(Value::Bool(true));
                        }
                        return r.eval(env);
                    }
                    _ => {}
                }
                eval_binop(*op, l.eval(env)?, r.eval(env)?)
            }
            IrExpr::Un(op, e) => eval_unop(*op, e.eval(env)?),
            IrExpr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(env)?);
                }
                eval_free_function(name, &vals)
            }
            IrExpr::Method(base, name, args) => {
                let b = base.eval(env)?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(env)?);
                }
                eval_pure_method(&b, name, &vals)
            }
            IrExpr::If(c, t, e) => {
                let cond = c
                    .eval(env)?
                    .as_bool()
                    .ok_or_else(|| Error::runtime("IR: non-bool condition"))?;
                if cond {
                    t.eval(env)
                } else {
                    e.eval(env)
                }
            }
            IrExpr::Agg {
                op,
                init,
                over,
                param,
                body,
            } => {
                let mut acc = init.eval(env)?;
                let coll = env
                    .get(over)
                    .cloned()
                    .ok_or_else(|| Error::runtime(format!("IR: unbound variable `{over}`")))?;
                let elems = coll
                    .elements()
                    .ok_or_else(|| Error::runtime(format!("`{over}` is not a collection")))?;
                let mut env2 = env.clone();
                for e in elems {
                    env2.set(param.clone(), e.clone());
                    let v = body.eval(&env2)?;
                    acc = op.combine(acc, v)?;
                }
                Ok(acc)
            }
        }
    }
}

impl fmt::Display for IrExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrExpr::ConstInt(n) => write!(f, "{n}"),
            IrExpr::ConstDouble(x) => write!(f, "{:?}", x.0),
            IrExpr::ConstBool(b) => write!(f, "{b}"),
            IrExpr::ConstStr(s) => write!(f, "{s:?}"),
            IrExpr::Var(v) => write!(f, "{v}"),
            IrExpr::Field(b, name) => write!(f, "{b}.{name}"),
            IrExpr::TupleGet(b, i) => write!(f, "{b}.{i}"),
            IrExpr::Tuple(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            IrExpr::Bin(op, l, r) => write!(f, "({l} {op} {r})"),
            IrExpr::Un(op, e) => {
                let s = match op {
                    UnOp::Neg => "-",
                    UnOp::Not => "!",
                    UnOp::BitNot => "~",
                };
                write!(f, "{s}{e}")
            }
            IrExpr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            IrExpr::Method(b, name, args) => {
                write!(f, "{b}.{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            IrExpr::If(c, t, e) => write!(f, "if {c} then {t} else {e}"),
            IrExpr::Agg {
                op,
                init,
                over,
                param,
                body,
            } => write!(f, "agg_{}({init}, {param} in {over}, {body})", op.token()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqlang::ast::BinOp;

    fn env(pairs: &[(&str, Value)]) -> Env {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn evaluates_arithmetic() {
        let e = IrExpr::bin(BinOp::Add, IrExpr::var("x"), IrExpr::int(1));
        let v = e.eval(&env(&[("x", Value::Int(41))])).unwrap();
        assert_eq!(v, Value::Int(42));
    }

    #[test]
    fn evaluates_conditional() {
        let e = IrExpr::ite(
            IrExpr::bin(BinOp::Gt, IrExpr::var("x"), IrExpr::int(0)),
            IrExpr::int(1),
            IrExpr::int(-1),
        );
        assert_eq!(
            e.eval(&env(&[("x", Value::Int(5))])).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            e.eval(&env(&[("x", Value::Int(-5))])).unwrap(),
            Value::Int(-1)
        );
    }

    #[test]
    fn evaluates_tuples() {
        let e = IrExpr::tget(IrExpr::Tuple(vec![IrExpr::int(7), IrExpr::int(8)]), 1);
        assert_eq!(e.eval(&Env::new()).unwrap(), Value::Int(8));
    }

    #[test]
    fn double_constants_print_as_doubles() {
        let eq = |c: IrExpr| format!("{}", IrExpr::bin(BinOp::Eq, IrExpr::var("x"), c));
        assert_eq!(eq(IrExpr::double(0.0)), "(x == 0.0)");
        assert_eq!(eq(IrExpr::int(0)), "(x == 0)");
        assert_eq!(format!("{}", IrExpr::double(-2.5)), "-2.5");
    }

    #[test]
    fn unbound_variable_is_an_error() {
        assert!(IrExpr::var("nope").eval(&Env::new()).is_err());
    }

    #[test]
    fn length_matches_paper_definition() {
        // x + y has length 2; x + y + z has length 3.
        let xy = IrExpr::bin(BinOp::Add, IrExpr::var("x"), IrExpr::var("y"));
        assert_eq!(xy.length(), 2);
        let xyz = IrExpr::bin(BinOp::Add, xy.clone(), IrExpr::var("z"));
        assert_eq!(xyz.length(), 3);
    }

    #[test]
    fn library_calls_evaluate() {
        let e = IrExpr::Call("min".into(), vec![IrExpr::int(4), IrExpr::var("v")]);
        assert_eq!(
            e.eval(&env(&[("v", Value::Int(2))])).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            e.eval(&env(&[("v", Value::Int(9))])).unwrap(),
            Value::Int(4)
        );
    }

    #[test]
    fn short_circuit_and() {
        // (false && (1/0 > 0)) must not evaluate the rhs.
        let e = IrExpr::bin(
            BinOp::And,
            IrExpr::ConstBool(false),
            IrExpr::bin(
                BinOp::Gt,
                IrExpr::bin(BinOp::Div, IrExpr::int(1), IrExpr::int(0)),
                IrExpr::int(0),
            ),
        );
        assert_eq!(e.eval(&Env::new()).unwrap(), Value::Bool(false));
    }

    #[test]
    fn agg_folds_over_collection() {
        // agg_add(0, a in gs, a * x) over gs=[1,2,3], x=2 → 12.
        let e = IrExpr::Agg {
            op: AggOp::Add,
            init: Box::new(IrExpr::int(0)),
            over: "gs".into(),
            param: "a".into(),
            body: Box::new(IrExpr::bin(BinOp::Mul, IrExpr::var("a"), IrExpr::var("x"))),
        };
        let st = env(&[
            (
                "gs",
                Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            ),
            ("x", Value::Int(2)),
        ]);
        assert_eq!(e.eval(&st).unwrap(), Value::Int(12));
        // Empty collection yields the init value.
        let empty = env(&[("gs", Value::List(vec![])), ("x", Value::Int(2))]);
        assert_eq!(e.eval(&empty).unwrap(), Value::Int(0));
        // Free vars: the init's, the collection, the body's minus `a`.
        let mut vs = vec![];
        e.free_vars(&mut vs);
        assert_eq!(vs, vec!["gs".to_string(), "x".to_string()]);
        // Length: init + body leaves + the collection.
        assert_eq!(e.length(), 4);
    }

    #[test]
    fn agg_error_paths() {
        let e = IrExpr::Agg {
            op: AggOp::Max,
            init: Box::new(IrExpr::int(0)),
            over: "gs".into(),
            param: "a".into(),
            body: Box::new(IrExpr::var("a")),
        };
        let unbound = e.eval(&Env::new()).unwrap_err().to_string();
        assert!(unbound.contains("unbound variable `gs`"), "{unbound}");
        let not_coll = e
            .eval(&env(&[("gs", Value::Int(3))]))
            .unwrap_err()
            .to_string();
        assert!(not_coll.contains("is not a collection"), "{not_coll}");
    }

    #[test]
    fn free_vars_deduplicated() {
        let e = IrExpr::bin(
            BinOp::Add,
            IrExpr::var("x"),
            IrExpr::bin(BinOp::Mul, IrExpr::var("x"), IrExpr::var("y")),
        );
        let mut vs = vec![];
        e.free_vars(&mut vs);
        assert_eq!(vs, vec!["x".to_string(), "y".to_string()]);
    }
}
