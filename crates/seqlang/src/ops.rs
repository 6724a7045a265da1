//! Scalar operator semantics, written once.
//!
//! Every engine that applies an operator to inline scalars calls these
//! functions: the interpreter's [`eval_binop`], [`eval_unop`] and the
//! modelled `min`/`max`/`abs` (which the IR evaluator and the bytecode VM
//! call in turn), the raw-cell emit programs of `casper_ir::compile`, and
//! the buffered reducer's [`FastCombine`](crate::buf::FastCombine). So
//! their values cannot drift apart.
//!
//! A function returns `None` exactly where the interpreter raises an
//! error; the interpreter owns the error texts, and the other engines
//! fall back to it to raise them.
//!
//! [`eval_binop`]: crate::interp::eval_binop
//! [`eval_unop`]: crate::interp::eval_unop

use crate::ast::{BinOp, UnOp};
use crate::value::Value;

/// A value that fits inline in one `ValueBuf` cell.
#[derive(Debug, Clone, Copy)]
pub enum Scalar {
    Unit,
    Int(i64),
    Double(f64),
    Bool(bool),
}

impl Scalar {
    /// The scalar `v` holds, or `None` for strings and structured values.
    #[inline]
    pub fn of(v: &Value) -> Option<Scalar> {
        match v {
            Value::Unit => Some(Scalar::Unit),
            Value::Int(n) => Some(Scalar::Int(*n)),
            Value::Double(x) => Some(Scalar::Double(*x)),
            Value::Bool(b) => Some(Scalar::Bool(*b)),
            _ => None,
        }
    }

    /// Numeric promotion: `Int` widens to `f64`, as Java's does.
    #[inline]
    fn num(self) -> Option<f64> {
        match self {
            Scalar::Int(n) => Some(n as f64),
            Scalar::Double(x) => Some(x),
            _ => None,
        }
    }
}

impl From<Scalar> for Value {
    #[inline]
    fn from(s: Scalar) -> Value {
        match s {
            Scalar::Unit => Value::Unit,
            Scalar::Int(n) => Value::Int(n),
            Scalar::Double(x) => Value::Double(x),
            Scalar::Bool(b) => Value::Bool(b),
        }
    }
}

/// `l op r`. `Int` arithmetic wraps; a `Double` operand promotes both to
/// `f64`; `Int`/`Int` orderings are exact. `None` on integer division or
/// modulo by zero and on operand types the operator does not take.
///
/// Always inlined, like [`eval_binop`](crate::interp::eval_binop): the
/// bytecode VM calls it once per operator, and a call there costs more
/// than the operator.
#[inline(always)]
pub fn binop(op: BinOp, l: Scalar, r: Scalar) -> Option<Scalar> {
    use BinOp::*;
    use Scalar::*;
    Some(match (op, l, r) {
        (Add, Int(a), Int(b)) => Int(a.wrapping_add(b)),
        (Sub, Int(a), Int(b)) => Int(a.wrapping_sub(b)),
        (Mul, Int(a), Int(b)) => Int(a.wrapping_mul(b)),
        (Div, Int(a), Int(b)) if b != 0 => Int(a.wrapping_div(b)),
        (Mod, Int(a), Int(b)) if b != 0 => Int(a.wrapping_rem(b)),
        (Div | Mod, Int(_), Int(_)) => return None,
        // The same arithmetic as the next arm, without promotion: double
        // chains run measurably faster on the VM with this arm.
        (Add | Sub | Mul | Div | Mod, Double(a), Double(b)) => Double(arith(op, a, b)),
        (Add | Sub | Mul | Div | Mod, _, _) => Double(arith(op, l.num()?, r.num()?)),
        (Lt | Gt | Le | Ge, Int(a), Int(b)) => Bool(holds(op, a, b)),
        (Lt | Gt | Le | Ge, _, _) => Bool(holds(op, l.num()?, r.num()?)),
        (Eq, _, _) => Bool(eq(l, r)),
        (Ne, _, _) => Bool(!eq(l, r)),
        (And, Bool(a), Bool(b)) => Bool(a && b),
        (Or, Bool(a), Bool(b)) => Bool(a || b),
        (BitAnd, Int(a), Int(b)) => Int(a & b),
        (BitOr, Int(a), Int(b)) => Int(a | b),
        (BitXor, Int(a), Int(b)) => Int(a ^ b),
        (Shl, Int(a), Int(b)) => Int(a.wrapping_shl(b as u32)),
        (Shr, Int(a), Int(b)) => Int(a.wrapping_shr(b as u32)),
        _ => return None,
    })
}

/// The arithmetic `op` (one of `+`, `-`, `*`, `/`, `%`) on `f64`s.
#[inline(always)]
fn arith(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        _ => a % b,
    }
}

/// The ordering `op` (one of `<`, `>`, `<=`, `>=`) on `a` and `b`.
#[inline]
fn holds<T: PartialOrd>(op: BinOp, a: T, b: T) -> bool {
    match op {
        BinOp::Lt => a < b,
        BinOp::Gt => a > b,
        BinOp::Le => a <= b,
        _ => a >= b,
    }
}

/// Scalar equality. An `Int`/`Double` pair compares as `f64`; every other
/// pair compares as `Value` does: `Double`s by their total order (so
/// `-0.0 != 0.0`, and a NaN equals a NaN with the same bits), and values
/// of different types are unequal.
#[inline]
fn eq(l: Scalar, r: Scalar) -> bool {
    use Scalar::*;
    match (l, r) {
        (Int(a), Int(b)) => a == b,
        (Int(a), Double(b)) | (Double(b), Int(a)) => a as f64 == b,
        (Double(a), Double(b)) => a.total_cmp(&b).is_eq(),
        (Bool(a), Bool(b)) => a == b,
        (Unit, Unit) => true,
        _ => false,
    }
}

/// `op v`. `None` on operand types the operator does not take.
#[inline]
pub fn unop(op: UnOp, v: Scalar) -> Option<Scalar> {
    use Scalar::*;
    Some(match (op, v) {
        (UnOp::Neg, Int(n)) => Int(n.wrapping_neg()),
        (UnOp::Neg, Double(x)) => Double(-x),
        (UnOp::Not, Bool(b)) => Bool(!b),
        (UnOp::BitNot, Int(n)) => Int(!n),
        _ => return None,
    })
}

/// The modelled `min`: `Int` on two `Int`s, else `f64::min` on the
/// promoted operands. `None` unless both are numeric.
#[inline]
pub fn min(l: Scalar, r: Scalar) -> Option<Scalar> {
    match (l, r) {
        (Scalar::Int(a), Scalar::Int(b)) => Some(Scalar::Int(a.min(b))),
        _ => Some(Scalar::Double(l.num()?.min(r.num()?))),
    }
}

/// The modelled `max`; see [`min`].
#[inline]
pub fn max(l: Scalar, r: Scalar) -> Option<Scalar> {
    match (l, r) {
        (Scalar::Int(a), Scalar::Int(b)) => Some(Scalar::Int(a.max(b))),
        _ => Some(Scalar::Double(l.num()?.max(r.num()?))),
    }
}

/// The modelled `abs`: wrapping on `Int`. `None` unless `v` is numeric.
#[inline]
pub fn abs(v: Scalar) -> Option<Scalar> {
    match v {
        Scalar::Int(n) => Some(Scalar::Int(n.wrapping_abs())),
        Scalar::Double(x) => Some(Scalar::Double(x.abs())),
        _ => None,
    }
}
