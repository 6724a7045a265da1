//! Every scalar operator on a table of boundary values, through every
//! engine that applies one: the interpreter (`eval_binop`, `eval_unop`
//! and the modelled `min`/`max`/`abs`), the IR tree-walk, the bytecode
//! VM, a raw-cell emit through `apply_into_buf`, and the buffered
//! reducer's `FastCombine` with its fallback. Wherever a path does not
//! punt, it must return the interpreter's value, or its error text.
//!
//! The same table pins `casper_ir::normalize`: each rewrite's two sides
//! give one value or one error on every engine at every boundary row of
//! its types, and each refused rewrite has a row where its two sides
//! differ, so adding it to the normal form fails here.

use std::sync::Arc;

use casper_ir::bytecode::Chunk;
use casper_ir::compile::{CompiledMapLambda, CompiledMrExpr, CompiledReduceLambda};
use casper_ir::eval::EvalCtx;
use casper_ir::expr::IrExpr;
use casper_ir::lambda::{Emit, MapLambda, ReduceLambda};
use casper_ir::mr::{DataSource, MrExpr};
use casper_ir::normalize::{self, Scope};
use mapreduce::{BufRdd, Context};
use seqlang::ast::{BinOp, UnOp};
use seqlang::buf::{RecordArena, ValueBuf};
use seqlang::interp::{eval_binop, eval_free_function, eval_unop};
use seqlang::ops::Scalar;
use seqlang::ty::Type;
use seqlang::{Env, Error, Value};

type Outcome = Result<Value, String>;

fn outcome(r: seqlang::Result<Value>) -> Outcome {
    r.map_err(|e| e.to_string())
}

const BINOPS: [BinOp; 18] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::Lt,
    BinOp::Gt,
    BinOp::Le,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::And,
    BinOp::Or,
    BinOp::BitAnd,
    BinOp::BitOr,
    BinOp::BitXor,
    BinOp::Shl,
    BinOp::Shr,
];

/// `i64::MIN`/`MAX`, ±2^53±1 (and 2^53, which `f64` cannot tell from
/// 2^53 + 1), zero, ±0.0, ±inf, NaN, one `Bool`, `Unit`, and a string,
/// which no inline path takes.
fn boundary_values() -> Vec<Value> {
    let p53 = 1i64 << 53;
    let ints = [
        i64::MIN,
        i64::MAX,
        p53 - 1,
        p53,
        p53 + 1,
        -p53 + 1,
        -p53 - 1,
        0,
        -1,
    ];
    let doubles = [
        0.0,
        -0.0,
        p53 as f64,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let mut vals: Vec<Value> = ints.into_iter().map(Value::Int).collect();
    vals.extend(doubles.into_iter().map(Value::Double));
    vals.extend([Value::Bool(true), Value::Unit, Value::str("s")]);
    vals
}

fn inline(v: &Value) -> bool {
    Scalar::of(v).is_some()
}

/// `expr` over `a = l`, `b = r` on the tree-walk, and on the VM with the
/// operands as λ slots and as state variables.
fn ir_paths(expr: &IrExpr, l: &Value, r: &Value) -> [(&'static str, Outcome); 3] {
    let mut env = Env::new();
    env.set("a", l.clone());
    env.set("b", r.clone());
    let slots = Chunk::compile(expr, &["a", "b"]).run(&[l.clone(), r.clone()], &Env::new());
    let globals = Chunk::compile(expr, &[] as &[&str]).run(&[], &env);
    [
        ("tree-walk", outcome(expr.eval(&env))),
        ("vm slots", outcome(slots)),
        ("vm state", outcome(globals)),
    ]
}

/// `expr` as the value, and then as the guard, of a map λ's emit applied
/// to the buffered record `(l, r)`. Returns the emitted value, whether
/// the value stayed on raw cells, and whether the guard fired.
fn cell_emit(expr: &IrExpr, l: &Value, r: &Value) -> (Outcome, bool, Result<bool, String>) {
    let mut src = ValueBuf::new(2);
    src.push_row(&[l.clone(), r.clone()]);
    let apply = |emit: Emit| {
        let lambda = CompiledMapLambda::compile(&MapLambda::new(vec!["a", "b"], vec![emit]));
        let (mut out, mut arena) = (ValueBuf::new(2), RecordArena::new());
        let res = lambda.apply_into_buf(&src, 0, &Env::new(), &mut out, &mut arena);
        let emitted = res
            .map(|()| (!out.is_empty()).then(|| out.value_at(0, 1)))
            .map_err(|e| e.to_string());
        (emitted, arena.allocs == 0)
    };
    let (value, raw) = apply(Emit::unconditional(IrExpr::int(0), expr.clone()));
    let value = value.map(|v| v.expect("an unconditional emit fires"));
    let (guard, _) = apply(Emit::guarded(expr.clone(), IrExpr::int(0), IrExpr::int(1)));
    (value, raw, guard.map(|v| v.is_some()))
}

/// The guard outcome a value outcome implies.
fn as_guard(o: &Outcome) -> Result<bool, String> {
    match o {
        Ok(Value::Bool(b)) => Ok(*b),
        Ok(_) => Err(Error::runtime("emit guard not a bool").to_string()),
        Err(e) => Err(e.clone()),
    }
}

/// Reduce the pairs `(0, l)`, `(0, r)` with the λ `body` over `v1`, `v2`
/// on the buffered reducer: its `FastCombine` where that applies, its
/// fallback otherwise. Returns the outcome and whether the fast path
/// took the pair.
fn reduce(ctx: &Arc<Context>, body: IrExpr, l: &Value, r: &Value) -> (Outcome, bool) {
    let lambda = CompiledReduceLambda::compile(&ReduceLambda::new(body));
    let fast = lambda.fast_combine().expect("a fast-combine body");
    let state = Env::new();
    let pairs = [(Value::Int(0), l.clone()), (Value::Int(0), r.clone())];
    let got = BufRdd::parallelize_pairs(ctx, &pairs)
        .try_reduce_by_key(Some(fast), |a, b| lambda.combine(a, b, &state))
        .map(|rdd| rdd.collect_sorted()[0].1.clone());
    let got = outcome(got);
    let mut cells = ValueBuf::new(2);
    cells.push_row(&[l.clone(), r.clone()]);
    let took = fast
        .apply(cells.cell_raw(0, 0), cells.cell_raw(0, 1))
        .map(|c| {
            let v = Value::from(Scalar::from_cell(c).expect("an inline result"));
            assert_eq!(Ok(v), got, "{fast:?}({l}, {r}) raw cell");
        });
    (got, took.is_some())
}

fn assert_agrees(row: &str, want: &Outcome, paths: &[(&str, Outcome)]) {
    for (path, got) in paths {
        assert_eq!(got, want, "{row}: {path}");
    }
}

#[test]
fn binops_agree_on_boundary_values() {
    let ctx = Context::with_parallelism(1, 1);
    let vals = boundary_values();
    for op in BINOPS {
        let expr = IrExpr::bin(op, IrExpr::var("a"), IrExpr::var("b"));
        let short_circuit = matches!(op, BinOp::And | BinOp::Or);
        for l in &vals {
            for r in &vals {
                let row = format!("{l} {op} {r}");
                let interp = outcome(eval_binop(op, l.clone(), r.clone()));
                let [tree, vm_slots, vm_state] = ir_paths(&expr, l, r);
                // `&&` and `||` short-circuit on the IR engines, so they
                // take non-bool operands `eval_binop` rejects.
                let want = if short_circuit { &tree.1 } else { &interp };
                assert_agrees(&row, want, &[tree.clone(), vm_slots, vm_state]);

                let (value, raw, guard) = cell_emit(&expr, l, r);
                assert_agrees(&row, want, &[("cell emit", value)]);
                assert_eq!(guard, as_guard(want), "{row}: cell guard");
                let defined = inline(l) && inline(r) && interp.is_ok();
                assert_eq!(raw, !short_circuit && defined, "{row}: raw cells taken");

                if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) {
                    let (got, took) = reduce(&ctx, ReduceLambda::binop(op).body, l, r);
                    assert_agrees(&row, &interp, &[("reduce", got)]);
                    assert_eq!(took, defined, "{row}: fast combine taken");
                }
            }
        }
    }
}

#[test]
fn min_max_abs_agree_on_boundary_values() {
    let ctx = Context::with_parallelism(1, 1);
    let vals = boundary_values();
    for f in ["min", "max"] {
        let call = IrExpr::Call(f.into(), vec![IrExpr::var("a"), IrExpr::var("b")]);
        let body = IrExpr::Call(f.into(), vec![IrExpr::var("v1"), IrExpr::var("v2")]);
        for l in &vals {
            for r in &vals {
                let row = format!("{f}({l}, {r})");
                let want = outcome(eval_free_function(f, &[l.clone(), r.clone()]));
                assert_agrees(&row, &want, &ir_paths(&call, l, r));
                assert_agrees(&row, &want, &[("cell emit", cell_emit(&call, l, r).0)]);
                let (got, took) = reduce(&ctx, body.clone(), l, r);
                assert_agrees(&row, &want, &[("reduce", got)]);
                assert_eq!(took, inline(l) && inline(r) && want.is_ok(), "{row}: fast");
            }
        }
    }
    let call = IrExpr::Call("abs".into(), vec![IrExpr::var("a")]);
    for v in &vals {
        let row = format!("abs({v})");
        let want = outcome(eval_free_function("abs", std::slice::from_ref(v)));
        assert_agrees(&row, &want, &ir_paths(&call, v, &Value::Unit));
        assert_agrees(&row, &want, &[("cell emit", cell_emit(&call, v, v).0)]);
    }
}

#[test]
fn unops_agree_on_boundary_values() {
    for op in [UnOp::Neg, UnOp::Not, UnOp::BitNot] {
        let expr = IrExpr::Un(op, Box::new(IrExpr::var("a")));
        for v in &boundary_values() {
            let row = format!("{op:?} {v}");
            let want = outcome(eval_unop(op, v.clone()));
            assert_agrees(&row, &want, &ir_paths(&expr, v, &Value::Unit));
            assert_agrees(&row, &want, &[("cell emit", cell_emit(&expr, v, v).0)]);
        }
    }
}

/// The reference itself at the boundaries the table exists for.
#[test]
fn interpreter_rows_at_the_boundaries() {
    let p53 = 1i64 << 53;
    let bin = |op, l, r| outcome(eval_binop(op, l, r));
    let int = Value::Int;
    let dbl = Value::Double;
    let yes = Ok(Value::Bool(true));
    let no = Ok(Value::Bool(false));
    // Int/Int orderings are exact above 2^53; a Double operand promotes.
    assert_eq!(bin(BinOp::Lt, int(p53), int(p53 + 1)), yes);
    assert_eq!(bin(BinOp::Gt, int(i64::MAX), int(i64::MAX - 1)), yes);
    assert_eq!(bin(BinOp::Gt, int(p53 + 1), dbl(p53 as f64)), no);
    // Int arithmetic wraps; a Double operand promotes.
    assert_eq!(bin(BinOp::Add, int(i64::MAX), int(1)), Ok(int(i64::MIN)));
    assert_eq!(bin(BinOp::Div, int(i64::MIN), int(-1)), Ok(int(i64::MIN)));
    assert_eq!(bin(BinOp::Add, int(1), dbl(0.5)), Ok(dbl(1.5)));
    let zero_div = Err("runtime error: division by zero".to_string());
    assert_eq!(bin(BinOp::Div, int(1), int(0)), zero_div);
    // Double/Double equality is Value's total order; Int/Double is f64's.
    assert_eq!(bin(BinOp::Eq, dbl(-0.0), dbl(0.0)), no);
    assert_eq!(bin(BinOp::Eq, dbl(f64::NAN), dbl(f64::NAN)), yes);
    assert_eq!(bin(BinOp::Eq, int(0), dbl(-0.0)), yes);
    // `min` keeps Int on Int pairs; `abs` wraps.
    let min = eval_free_function("min", &[int(3), int(-2)]).unwrap();
    assert_eq!(min, int(-2));
    assert_eq!(
        eval_free_function("abs", &[int(i64::MIN)]).unwrap(),
        int(i64::MIN)
    );
}

/// A rewrite's sides over `a` and `b`, built over any two operands so the
/// reducer can take them as `v1` and `v2`.
type Side = fn(IrExpr, IrExpr) -> IrExpr;

/// One rewrite: `lhs` over `a` and `b` of the given types (`None`: any
/// type), and `rhs`, its normal form, or for a refused rewrite the right
/// side the normal form must not reach.
struct Rewrite {
    name: &'static str,
    types: [Option<Type>; 2],
    lhs: Side,
    rhs: Side,
}

fn int(n: i64) -> IrExpr {
    IrExpr::int(n)
}

fn bin(op: BinOp) -> impl Fn(IrExpr, IrExpr) -> IrExpr {
    move |l, r| IrExpr::bin(op, l, r)
}

/// The normal form of `side` over `a` and `b`, both λ-bound at `types`.
fn normal(side: Side, types: &[Option<Type>; 2]) -> IrExpr {
    let free = |_: &str| None;
    let bound = [("a", &types[0]), ("b", &types[1])];
    let scope = Scope::new(&free).bind(bound.map(|(n, t)| (n.to_string(), t.clone())));
    normalize::expr(&side(IrExpr::var("a"), IrExpr::var("b")), &scope)
}

/// The boundary values of `ty`; `Void` is the one row of a side with no
/// variable.
fn rows_of(ty: &Option<Type>) -> Vec<Value> {
    let of = |v: &Value| match v {
        Value::Int(_) => Type::Int,
        Value::Double(_) => Type::Double,
        Value::Bool(_) => Type::Bool,
        Value::Str(_) => Type::Str,
        _ => Type::Void,
    };
    let vals = boundary_values().into_iter();
    vals.filter(|v| ty.as_ref().is_none_or(|t| of(v) == *t))
        .collect()
}

/// `side` over `a = l`, `b = r` on every engine: the tree-walk, the VM
/// with slots and with state, a raw-cell emit as value and as guard, and
/// the buffered reducer with `v1 = l`, `v2 = r`, on its `FastCombine`
/// where it has one.
fn engines(ctx: &Arc<Context>, side: Side, l: &Value, r: &Value) -> Vec<(&'static str, Outcome)> {
    let expr = side(IrExpr::var("a"), IrExpr::var("b"));
    let mut paths = ir_paths(&expr, l, r).to_vec();
    let (value, _, guard) = cell_emit(&expr, l, r);
    paths.push(("cell emit", value));
    paths.push(("cell guard", guard.map(Value::Bool)));
    let body = side(IrExpr::var("v1"), IrExpr::var("v2"));
    let lambda = CompiledReduceLambda::compile(&ReduceLambda::new(body));
    let pairs = [(Value::Int(0), l.clone()), (Value::Int(0), r.clone())];
    let reduced = BufRdd::parallelize_pairs(ctx, &pairs)
        .try_reduce_by_key(lambda.fast_combine(), |x, y| {
            lambda.combine(x, y, &Env::new())
        })
        .map(|rdd| rdd.collect_sorted()[0].1.clone());
    paths.push(("reduce", outcome(reduced)));
    paths
}

#[test]
fn normalization_rules_hold_on_every_engine() {
    use BinOp::*;
    let (int_ty, dbl_ty) = (Some(Type::Int), Some(Type::Double));
    let none = [Some(Type::Void), Some(Type::Void)];
    let rules = [
        Rewrite {
            name: "x + 0",
            types: [int_ty.clone(), None],
            lhs: |a, _| bin(Add)(a, int(0)),
            rhs: |a, _| a,
        },
        Rewrite {
            name: "0 + x",
            types: [int_ty.clone(), None],
            lhs: |a, _| bin(Add)(int(0), a),
            rhs: |a, _| a,
        },
        Rewrite {
            name: "x - 0",
            types: [int_ty.clone(), None],
            lhs: |a, _| bin(Sub)(a, int(0)),
            rhs: |a, _| a,
        },
        Rewrite {
            name: "x * 1",
            types: [int_ty.clone(), None],
            lhs: |a, _| bin(Mul)(a, int(1)),
            rhs: |a, _| a,
        },
        Rewrite {
            name: "1 * x",
            types: [int_ty.clone(), None],
            lhs: |a, _| bin(Mul)(int(1), a),
            rhs: |a, _| a,
        },
        Rewrite {
            name: "Int constant +, wrapping",
            types: none.clone(),
            lhs: |_, _| bin(Add)(int(i64::MAX), int(1)),
            rhs: |_, _| int(i64::MIN),
        },
        Rewrite {
            name: "Int constant -",
            types: none.clone(),
            lhs: |_, _| bin(Sub)(int(2), int(5)),
            rhs: |_, _| int(-3),
        },
        Rewrite {
            name: "Int constant *, wrapping",
            types: none.clone(),
            lhs: |_, _| bin(Mul)(int(i64::MIN), int(-1)),
            rhs: |_, _| int(i64::MIN),
        },
        Rewrite {
            name: "== of constants",
            types: none.clone(),
            lhs: |_, _| bin(Eq)(int(0), int(1)),
            rhs: |_, _| IrExpr::ConstBool(false),
        },
        Rewrite {
            name: "== of an Int and a Double constant",
            types: none.clone(),
            lhs: |_, _| bin(Eq)(int(0), IrExpr::double(-0.0)),
            rhs: |_, _| IrExpr::ConstBool(true),
        },
        Rewrite {
            name: "!= of constants",
            types: none.clone(),
            lhs: |_, _| bin(Ne)(IrExpr::ConstStr("s".into()), IrExpr::ConstStr("t".into())),
            rhs: |_, _| IrExpr::ConstBool(true),
        },
        Rewrite {
            name: "abs of an Int constant, wrapping",
            types: none.clone(),
            lhs: |_, _| IrExpr::Call("abs".into(), vec![int(i64::MIN)]),
            rhs: |_, _| int(i64::MIN),
        },
        Rewrite {
            name: "== commutes",
            types: [None, None],
            lhs: |a, b| bin(Eq)(b, a),
            rhs: |a, b| bin(Eq)(a, b),
        },
        Rewrite {
            name: "!= commutes",
            types: [None, None],
            lhs: |a, b| bin(Ne)(b, a),
            rhs: |a, b| bin(Ne)(a, b),
        },
        Rewrite {
            name: "constants go right of ==",
            types: [None, None],
            lhs: |a, _| bin(Eq)(int(0), a),
            rhs: |a, _| bin(Eq)(a, int(0)),
        },
        Rewrite {
            name: "Int + commutes",
            types: [int_ty.clone(), int_ty.clone()],
            lhs: |a, b| bin(Add)(b, a),
            rhs: |a, b| bin(Add)(a, b),
        },
        Rewrite {
            name: "Int * commutes",
            types: [int_ty.clone(), int_ty.clone()],
            lhs: |a, b| bin(Mul)(b, a),
            rhs: |a, b| bin(Mul)(a, b),
        },
        Rewrite {
            name: "Double + a non-NaN constant commutes",
            types: [dbl_ty.clone(), None],
            lhs: |a, _| bin(Add)(IrExpr::double(2.5), a),
            rhs: |a, _| bin(Add)(a, IrExpr::double(2.5)),
        },
        Rewrite {
            name: "Double * an Int constant commutes",
            types: [dbl_ty.clone(), None],
            lhs: |a, _| bin(Mul)(int(3), a),
            rhs: |a, _| bin(Mul)(a, int(3)),
        },
        Rewrite {
            name: "Int + a Double constant commutes",
            types: [int_ty.clone(), None],
            lhs: |a, _| bin(Add)(IrExpr::double(-0.0), a),
            rhs: |a, _| bin(Add)(a, IrExpr::double(-0.0)),
        },
    ];
    let ctx = Context::with_parallelism(1, 1);
    for rule in &rules {
        let want = (rule.rhs)(IrExpr::var("a"), IrExpr::var("b"));
        assert_eq!(
            normal(rule.lhs, &rule.types),
            want,
            "{}: normal form",
            rule.name
        );
        assert_eq!(
            normal(rule.rhs, &rule.types),
            want,
            "{}: fixed point",
            rule.name
        );
        for l in rows_of(&rule.types[0]) {
            for r in rows_of(&rule.types[1]) {
                let lhs = engines(&ctx, rule.lhs, &l, &r);
                let rhs = engines(&ctx, rule.rhs, &l, &r);
                for ((path, got), (_, want)) in lhs.iter().zip(&rhs) {
                    assert_eq!(got, want, "{} at a = {l}, b = {r}: {path}", rule.name);
                }
            }
        }
    }
}

#[test]
fn refused_rewrites_change_a_value() {
    use BinOp::*;
    let dbl_ty = Some(Type::Double);
    let signalling_nan = f64::from_bits(0x7ff0_0000_0000_0001);
    let refused = [
        (
            Rewrite {
                name: "Double x + 0",
                types: [dbl_ty.clone(), None],
                lhs: |a, _| bin(Add)(a, int(0)),
                rhs: |a, _| a,
            },
            [Value::Double(-0.0), Value::Unit],
        ),
        (
            Rewrite {
                name: "Double x * 1",
                types: [dbl_ty.clone(), None],
                lhs: |a, _| bin(Mul)(a, int(1)),
                rhs: |a, _| a,
            },
            [Value::Double(signalling_nan), Value::Unit],
        ),
        (
            Rewrite {
                name: "x == 0 as x == 0.0",
                types: [dbl_ty.clone(), None],
                lhs: |a, _| bin(Eq)(a, int(0)),
                rhs: |a, _| bin(Eq)(a, IrExpr::double(0.0)),
            },
            [Value::Double(-0.0), Value::Unit],
        ),
        (
            Rewrite {
                name: "string + commutes",
                types: [Some(Type::Str), Some(Type::Str)],
                lhs: |a, b| bin(Add)(b, a),
                rhs: |a, b| bin(Add)(a, b),
            },
            [Value::str("s"), Value::str("t")],
        ),
        (
            Rewrite {
                name: "&& commutes",
                types: [Some(Type::Bool), Some(Type::Bool)],
                lhs: |a, b| bin(And)(b, a),
                rhs: |a, b| bin(And)(a, b),
            },
            [Value::Int(1), Value::Bool(true)],
        ),
    ];
    let ctx = Context::with_parallelism(1, 1);
    for (rule, [l, r]) in &refused {
        assert_ne!(
            normal(rule.lhs, &rule.types),
            normal(rule.rhs, &rule.types),
            "{}: the normal form must keep the two sides apart",
            rule.name
        );
        let lhs = engines(&ctx, rule.lhs, l, r);
        let rhs = engines(&ctx, rule.rhs, l, r);
        for ((path, got), (_, other)) in lhs.iter().zip(&rhs) {
            if *path == "cell guard" {
                continue; // Neither side is a guard here.
            }
            assert_ne!(got, other, "{} at a = {l}, b = {r}: {path}", rule.name);
        }
    }
}

/// A constant guard folds into its emit: `false` drops the emit and
/// `true` drops the guard. Both sides map every boundary value alike on
/// the tree-walk, the VM and raw cells.
#[test]
fn constant_guards_fold_into_the_emit() {
    let source = DataSource::flat("xs", Type::Int);
    let mut state = Env::new();
    state.set("xs", Value::List(boundary_values()));
    let guards = [
        IrExpr::bin(BinOp::Eq, int(0), int(1)),
        IrExpr::bin(BinOp::Ne, int(0), int(1)),
        IrExpr::ConstBool(false),
        IrExpr::ConstBool(true),
    ];
    let free = |_: &str| None;
    let scope = Scope::new(&free).bind([("x".to_string(), None)]);
    for guard in guards {
        let raw = Emit::guarded(guard.clone(), int(0), IrExpr::var("x"));
        let folded = normalize::emit(
            Some(normalize::expr(&guard, &scope)),
            int(0),
            IrExpr::var("x"),
        );
        let lambdas = [
            MapLambda::new(vec!["x"], vec![raw]),
            MapLambda::new(vec!["x"], folded.into_iter().collect()),
        ];
        let rows: Vec<_> = lambdas
            .iter()
            .map(|lambda| {
                let plan = MrExpr::Data(source.clone()).map(lambda.clone());
                let tree = EvalCtx::new(&state)
                    .eval_mr(&plan)
                    .map_err(|e| e.to_string());
                let vm = CompiledMrExpr::compile(&plan)
                    .eval(&state)
                    .map_err(|e| e.to_string());
                let compiled = CompiledMapLambda::compile(lambda);
                let mut cells = Vec::new();
                for v in boundary_values() {
                    let mut src = ValueBuf::new(1);
                    src.push_row(&[v]);
                    let (mut out, mut arena) = (ValueBuf::new(2), RecordArena::new());
                    compiled
                        .apply_into_buf(&src, 0, &Env::new(), &mut out, &mut arena)
                        .expect("a constant guard cannot fault");
                    cells.extend((0..out.len()).map(|i| [out.value_at(i, 0), out.value_at(i, 1)]));
                }
                (tree, vm, cells)
            })
            .collect();
        assert_eq!(rows[0], rows[1], "guard {guard}");
    }
}
