//! Tree-walking interpreter for `seqlang`.
//!
//! This is the "sequential Java" execution substrate: benchmarks run here
//! to produce ground-truth outputs and the sequential work counts the
//! cluster simulator converts into baseline runtimes. It is also the
//! executable semantics the CEGIS loop uses to check candidate summaries
//! against concrete program states.

use std::collections::HashMap;

use crate::ast::*;
use crate::env::Env;
use crate::error::{Error, Result};
use crate::ty::Type;
use crate::value::{map_get, map_put, StructLayout, Value};

/// Execution statistics for the sequential baseline model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Abstract work units: one per statement/expression evaluated.
    pub steps: u64,
    /// Loop-body iterations executed (records processed, roughly).
    pub iterations: u64,
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// Interpreter over a type-checked [`Program`].
pub struct Interp<'p> {
    program: &'p Program,
    structs: HashMap<&'p str, &'p [(String, Type)]>,
    /// Fuel limit: aborts runaway loops (synthesis runs untrusted states).
    pub max_steps: u64,
    pub stats: ExecStats,
    layout_cache: HashMap<String, std::sync::Arc<StructLayout>>,
}

impl<'p> Interp<'p> {
    pub fn new(program: &'p Program) -> Self {
        let structs = program
            .structs
            .iter()
            .map(|s| (s.name.as_str(), s.fields.as_slice()))
            .collect();
        Interp {
            program,
            structs,
            max_steps: u64::MAX,
            stats: ExecStats::default(),
            layout_cache: HashMap::new(),
        }
    }

    pub fn with_fuel(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Shared layout for a struct type (cached per interpreter).
    fn layout(&mut self, name: &str) -> std::sync::Arc<StructLayout> {
        if let Some(l) = self.layout_cache.get(name) {
            return l.clone();
        }
        let fields = self
            .structs
            .get(name)
            .map(|fs| fs.iter().map(|(n, _)| n.clone()).collect())
            .unwrap_or_default();
        let layout = StructLayout::new(name, fields);
        self.layout_cache.insert(name.to_string(), layout.clone());
        layout
    }

    fn tick(&mut self) -> Result<()> {
        self.stats.steps += 1;
        if self.stats.steps > self.max_steps {
            Err(Error::runtime("execution fuel exhausted"))
        } else {
            Ok(())
        }
    }

    /// Call a named function with argument values.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Value> {
        let f = self
            .program
            .function(name)
            .ok_or_else(|| Error::runtime(format!("no function `{name}`")))?;
        if f.params.len() != args.len() {
            return Err(Error::runtime(format!(
                "`{name}` expects {} arguments, got {}",
                f.params.len(),
                args.len()
            )));
        }
        let mut env = Env::new();
        for ((pname, pty), arg) in f.params.iter().zip(args) {
            env.set(pname.clone(), widen(arg, pty));
        }
        match self.exec_block(&f.body, &mut env)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Unit),
        }
    }

    /// Execute a single statement against an environment.
    pub fn run_stmt(&mut self, stmt: &Stmt, env: &mut Env) -> Result<()> {
        match self.exec_stmt(stmt, env)? {
            Flow::Return(_) => Err(Error::runtime("fragment returned mid-block")),
            _ => Ok(()),
        }
    }

    fn exec_block(&mut self, block: &Block, env: &mut Env) -> Result<Flow> {
        for stmt in &block.stmts {
            match self.exec_stmt(stmt, env)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &mut Env) -> Result<Flow> {
        self.tick()?;
        match stmt {
            Stmt::Let { name, ty, init, .. } => {
                let v = self.eval(init, env)?;
                env.set(name.clone(), widen(v, ty));
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, value, .. } => {
                let v = self.eval(value, env)?;
                self.assign(target, v, env)?;
                Ok(Flow::Normal)
            }
            Stmt::ExprStmt { expr, .. } => {
                self.eval(expr, env)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let c = self.eval_bool(cond, env)?;
                if c {
                    self.exec_block(then_blk, env)
                } else if let Some(b) = else_blk {
                    self.exec_block(b, env)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body, .. } => {
                while self.eval_bool(cond, env)? {
                    self.stats.iterations += 1;
                    match self.exec_block(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
                ..
            } => {
                match self.exec_stmt(init, env)? {
                    Flow::Normal => {}
                    other => return Ok(other),
                }
                while self.eval_bool(cond, env)? {
                    self.stats.iterations += 1;
                    match self.exec_block(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    match self.exec_stmt(update, env)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::ForEach {
                var,
                iterable,
                body,
                ..
            } => {
                let coll = self.eval(iterable, env)?;
                let elems = coll
                    .elements()
                    .ok_or_else(|| Error::runtime("for-each over non-collection"))?
                    .to_vec();
                for elem in elems {
                    self.stats.iterations += 1;
                    env.set(var.clone(), elem);
                    match self.exec_block(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(e) => self.eval(e, env)?,
                    None => Value::Unit,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break { .. } => Ok(Flow::Break),
            Stmt::Continue { .. } => Ok(Flow::Continue),
        }
    }

    fn assign(&mut self, target: &Expr, value: Value, env: &mut Env) -> Result<()> {
        match target {
            Expr::Var { name, ty, .. } => {
                let v = match ty {
                    Some(t) => widen(value, t),
                    None => value,
                };
                env.set(name.clone(), v);
                Ok(())
            }
            Expr::Index { base, index, .. } => {
                let idx = self.eval(index, env)?;
                let slot = self.resolve_mut(base, env)?;
                match slot {
                    Value::Array(v) | Value::List(v) => {
                        let i = idx
                            .as_int()
                            .ok_or_else(|| Error::runtime("non-int index"))?;
                        let i = usize::try_from(i).map_err(|_| Error::runtime("negative index"))?;
                        let cell = v
                            .get_mut(i)
                            .ok_or_else(|| Error::runtime(format!("index {i} out of bounds")))?;
                        *cell = value;
                        Ok(())
                    }
                    Value::Map(m) => {
                        map_put(m, idx, value);
                        Ok(())
                    }
                    other => Err(Error::runtime(format!("cannot index-assign into {other}"))),
                }
            }
            Expr::Field { base, field, .. } => {
                let (layout, slot) = match self.resolve_mut(base, env)? {
                    Value::Struct(layout, fields) => (layout.clone(), fields),
                    other => {
                        return Err(Error::runtime(format!("cannot field-assign into {other}")))
                    }
                };
                let pos = layout
                    .field_index(field)
                    .ok_or_else(|| Error::runtime(format!("no field `{field}`")))?;
                slot[pos] = value;
                Ok(())
            }
            _ => Err(Error::runtime("assignment target is not an lvalue")),
        }
    }

    /// Resolve an lvalue path to a mutable reference into the environment.
    fn resolve_mut<'e>(&mut self, expr: &Expr, env: &'e mut Env) -> Result<&'e mut Value> {
        // Pre-evaluate indices (they need `&mut self` + `&Env`).
        match expr {
            Expr::Var { name, .. } => env
                .get_mut(name)
                .ok_or_else(|| Error::runtime(format!("unknown variable `{name}`"))),
            Expr::Index { base, index, .. } => {
                let idx = self.eval(index, env)?;
                let parent = self.resolve_mut(base, env)?;
                match parent {
                    Value::Array(v) | Value::List(v) => {
                        let i = idx
                            .as_int()
                            .ok_or_else(|| Error::runtime("non-int index"))?;
                        let i = usize::try_from(i).map_err(|_| Error::runtime("negative index"))?;
                        v.get_mut(i)
                            .ok_or_else(|| Error::runtime(format!("index {i} out of bounds")))
                    }
                    Value::Map(m) => {
                        if !m.iter().any(|(k, _)| *k == idx) {
                            return Err(Error::runtime("map key missing in lvalue path"));
                        }
                        Ok(m.iter_mut()
                            .find(|(k, _)| *k == idx)
                            .map(|(_, v)| v)
                            .unwrap())
                    }
                    other => Err(Error::runtime(format!("cannot index into {other}"))),
                }
            }
            Expr::Field { base, field, .. } => {
                let parent = self.resolve_mut(base, env)?;
                let Value::Struct(layout, fields) = parent else {
                    return Err(Error::runtime("field access on non-struct"));
                };
                let pos = layout
                    .field_index(field)
                    .ok_or_else(|| Error::runtime(format!("no field `{field}`")))?;
                Ok(&mut fields[pos])
            }
            _ => Err(Error::runtime("not an lvalue path")),
        }
    }

    fn eval_bool(&mut self, e: &Expr, env: &mut Env) -> Result<bool> {
        self.eval(e, env)?
            .as_bool()
            .ok_or_else(|| Error::runtime("expected bool"))
    }

    /// Evaluate an expression.
    pub fn eval(&mut self, expr: &Expr, env: &mut Env) -> Result<Value> {
        self.tick()?;
        match expr {
            Expr::IntLit(n, _) => Ok(Value::Int(*n)),
            Expr::DoubleLit(x, _) => Ok(Value::Double(*x)),
            Expr::BoolLit(b, _) => Ok(Value::Bool(*b)),
            Expr::StrLit(s, _) => Ok(Value::str(s)),
            Expr::Var { name, .. } => env
                .get(name)
                .cloned()
                .ok_or_else(|| Error::runtime(format!("unknown variable `{name}`"))),
            Expr::Unary { op, operand, .. } => {
                let v = self.eval(operand, env)?;
                eval_unop(*op, v)
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                // Short-circuit booleans, like Java.
                match op {
                    BinOp::And => {
                        if !self.eval_bool(lhs, env)? {
                            return Ok(Value::Bool(false));
                        }
                        return Ok(Value::Bool(self.eval_bool(rhs, env)?));
                    }
                    BinOp::Or => {
                        if self.eval_bool(lhs, env)? {
                            return Ok(Value::Bool(true));
                        }
                        return Ok(Value::Bool(self.eval_bool(rhs, env)?));
                    }
                    _ => {}
                }
                let l = self.eval(lhs, env)?;
                let r = self.eval(rhs, env)?;
                eval_binop(*op, l, r)
            }
            Expr::Index { base, index, .. } => {
                let b = self.eval(base, env)?;
                let i = self.eval(index, env)?;
                match &b {
                    Value::Array(v) | Value::List(v) => {
                        let ix = i.as_int().ok_or_else(|| Error::runtime("non-int index"))?;
                        let ix =
                            usize::try_from(ix).map_err(|_| Error::runtime("negative index"))?;
                        v.get(ix)
                            .cloned()
                            .ok_or_else(|| Error::runtime(format!("index {ix} out of bounds")))
                    }
                    Value::Map(m) => map_get(m, &i)
                        .cloned()
                        .ok_or_else(|| Error::runtime(format!("missing map key {i}"))),
                    other => Err(Error::runtime(format!("cannot index {other}"))),
                }
            }
            Expr::Field { base, field, .. } => {
                let b = self.eval(base, env)?;
                b.field(field)
                    .cloned()
                    .ok_or_else(|| Error::runtime(format!("no field `{field}` on {b}")))
            }
            Expr::Call { func, args, .. } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                if self.program.function(func).is_some() {
                    return self.call(func, vals);
                }
                eval_free_function(func, &vals)
            }
            Expr::MethodCall {
                recv, method, args, ..
            } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                // Mutating methods need the receiver as an lvalue.
                if is_mutating_method(method) {
                    let slot = self.resolve_mut(recv, env)?;
                    return eval_mutating_method(slot, method, vals);
                }
                let r = self.eval(recv, env)?;
                eval_pure_method(&r, method, &vals)
            }
            Expr::NewArray { elem_ty, len, .. } => {
                let n = self
                    .eval(len, env)?
                    .as_int()
                    .ok_or_else(|| Error::runtime("non-int array length"))?;
                let n = usize::try_from(n).map_err(|_| Error::runtime("negative length"))?;
                Ok(Value::Array(vec![default_value(elem_ty, &self.structs); n]))
            }
            Expr::NewList { .. } => Ok(Value::List(Vec::new())),
            Expr::NewMap { .. } => Ok(Value::Map(Vec::new())),
            Expr::NewStruct { name, args, .. } => {
                let mut vals = Vec::with_capacity(args.len());
                let defs = self
                    .structs
                    .get(name.as_str())
                    .ok_or_else(|| Error::runtime(format!("unknown struct `{name}`")))?
                    .to_vec();
                for (a, (_, ft)) in args.iter().zip(defs.iter()) {
                    let v = self.eval(a, env)?;
                    vals.push(widen(v, ft));
                }
                let layout = self.layout(name);
                Ok(Value::Struct(layout, vals))
            }
        }
    }
}

/// Widen Int into Double slots to match Java's implicit conversion.
pub fn widen(v: Value, ty: &Type) -> Value {
    match (ty, &v) {
        (Type::Double, Value::Int(n)) => Value::Double(*n as f64),
        _ => v,
    }
}

/// Default ("zero") value for a type — what `new array<T>(n)` fills with.
pub fn default_value(ty: &Type, structs: &HashMap<&str, &[(String, Type)]>) -> Value {
    match ty {
        Type::Int => Value::Int(0),
        Type::Double => Value::Double(0.0),
        Type::Bool => Value::Bool(false),
        Type::Str => Value::str(""),
        Type::Void => Value::Unit,
        Type::Array(_) => Value::Array(Vec::new()),
        Type::List(_) => Value::List(Vec::new()),
        Type::Map(..) => Value::Map(Vec::new()),
        Type::Struct(name) => {
            let defs = structs.get(name.as_str());
            let fields = defs
                .map(|fs| fs.iter().map(|(_, t)| default_value(t, structs)).collect())
                .unwrap_or_default();
            let names = defs
                .map(|fs| fs.iter().map(|(n, _)| n.clone()).collect())
                .unwrap_or_default();
            Value::Struct(StructLayout::new(name.clone(), names), fields)
        }
        Type::Tuple(ts) => Value::Tuple(ts.iter().map(|t| default_value(t, structs)).collect()),
    }
}

fn eval_unop(op: UnOp, v: Value) -> Result<Value> {
    match (op, v) {
        (UnOp::Neg, Value::Int(n)) => Ok(Value::Int(n.wrapping_neg())),
        (UnOp::Neg, Value::Double(x)) => Ok(Value::Double(-x)),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (UnOp::BitNot, Value::Int(n)) => Ok(Value::Int(!n)),
        (op, v) => Err(Error::runtime(format!("bad unary {op:?} on {v}"))),
    }
}

/// Evaluate a binary operator over values — shared with the IR evaluator.
pub fn eval_binop(op: BinOp, l: Value, r: Value) -> Result<Value> {
    use BinOp::*;
    use Value::*;
    let err = |l: &Value, r: &Value| Error::runtime(format!("bad operands {l} {op} {r}"));
    Ok(match (op, &l, &r) {
        (Add, Int(a), Int(b)) => Int(a.wrapping_add(*b)),
        (Sub, Int(a), Int(b)) => Int(a.wrapping_sub(*b)),
        (Mul, Int(a), Int(b)) => Int(a.wrapping_mul(*b)),
        (Div, Int(a), Int(b)) => {
            if *b == 0 {
                return Err(Error::runtime("division by zero"));
            }
            Int(a.wrapping_div(*b))
        }
        (Mod, Int(a), Int(b)) => {
            if *b == 0 {
                return Err(Error::runtime("modulo by zero"));
            }
            Int(a.wrapping_rem(*b))
        }
        (Add, Str(a), Str(b)) => Value::str(format!("{a}{b}")),
        (Add | Sub | Mul | Div | Mod, _, _)
            if l.as_double().is_some() && r.as_double().is_some() =>
        {
            let (a, b) = (l.as_double().unwrap(), r.as_double().unwrap());
            match op {
                Add => Double(a + b),
                Sub => Double(a - b),
                Mul => Double(a * b),
                Div => Double(a / b),
                Mod => Double(a % b),
                _ => unreachable!(),
            }
        }
        (Lt | Gt | Le | Ge, _, _) => {
            let (a, b) = match (&l, &r) {
                (Int(a), Int(b)) => ((*a as f64), (*b as f64)),
                _ => (
                    l.as_double().ok_or_else(|| err(&l, &r))?,
                    r.as_double().ok_or_else(|| err(&l, &r))?,
                ),
            };
            Bool(match op {
                Lt => a < b,
                Gt => a > b,
                Le => a <= b,
                Ge => a >= b,
                _ => unreachable!(),
            })
        }
        (Eq, _, _) => Bool(num_eq(&l, &r)),
        (Ne, _, _) => Bool(!num_eq(&l, &r)),
        (And, Bool(a), Bool(b)) => Bool(*a && *b),
        (Or, Bool(a), Bool(b)) => Bool(*a || *b),
        (BitAnd, Int(a), Int(b)) => Int(a & b),
        (BitOr, Int(a), Int(b)) => Int(a | b),
        (BitXor, Int(a), Int(b)) => Int(a ^ b),
        (Shl, Int(a), Int(b)) => Int(a.wrapping_shl(*b as u32)),
        (Shr, Int(a), Int(b)) => Int(a.wrapping_shr(*b as u32)),
        _ => return Err(err(&l, &r)),
    })
}

fn num_eq(l: &Value, r: &Value) -> bool {
    match (l, r) {
        (Value::Int(a), Value::Double(b)) | (Value::Double(b), Value::Int(a)) => *a as f64 == *b,
        _ => l == r,
    }
}

/// Evaluate a modelled free function (the `java.lang.Math` / date models).
pub fn eval_free_function(name: &str, args: &[Value]) -> Result<Value> {
    use Value::*;
    let one_num = || {
        args[0]
            .as_double()
            .ok_or_else(|| Error::runtime("expected number"))
    };
    Ok(match (name, args) {
        ("abs", [Int(n)]) => Int(n.wrapping_abs()),
        ("abs", [Double(x)]) => Double(x.abs()),
        ("min", [Int(a), Int(b)]) => Int(*a.min(b)),
        ("max", [Int(a), Int(b)]) => Int(*a.max(b)),
        ("min", [a, b]) => {
            let (x, y) = (
                a.as_double()
                    .ok_or_else(|| Error::runtime("min: not numeric"))?,
                b.as_double()
                    .ok_or_else(|| Error::runtime("min: not numeric"))?,
            );
            Double(x.min(y))
        }
        ("max", [a, b]) => {
            let (x, y) = (
                a.as_double()
                    .ok_or_else(|| Error::runtime("max: not numeric"))?,
                b.as_double()
                    .ok_or_else(|| Error::runtime("max: not numeric"))?,
            );
            Double(x.max(y))
        }
        ("pow", [a, b]) => {
            let (x, y) = (
                a.as_double()
                    .ok_or_else(|| Error::runtime("pow: not numeric"))?,
                b.as_double()
                    .ok_or_else(|| Error::runtime("pow: not numeric"))?,
            );
            Double(x.powf(y))
        }
        ("sqrt", [_]) => Double(one_num()?.sqrt()),
        ("exp", [_]) => Double(one_num()?.exp()),
        ("log", [_]) => Double(one_num()?.ln()),
        ("floor", [_]) => Double(one_num()?.floor()),
        ("ceil", [_]) => Double(one_num()?.ceil()),
        ("int_to_double", [Int(n)]) => Double(*n as f64),
        ("double_to_int", [Double(x)]) => Int(*x as i64),
        ("date_before", [Int(a), Int(b)]) => Bool(a < b),
        ("date_after", [Int(a), Int(b)]) => Bool(a > b),
        _ => {
            return Err(Error::runtime(format!(
                "unknown function `{name}` with {} args",
                args.len()
            )))
        }
    })
}

fn is_mutating_method(name: &str) -> bool {
    matches!(name, "add" | "append" | "put")
}

fn eval_mutating_method(recv: &mut Value, method: &str, mut args: Vec<Value>) -> Result<Value> {
    match (recv, method) {
        (Value::List(v), "add") | (Value::List(v), "append") => {
            v.push(args.remove(0));
            Ok(Value::Unit)
        }
        (Value::Map(m), "put") => {
            let val = args.remove(1);
            let key = args.remove(0);
            map_put(m, key, val);
            Ok(Value::Unit)
        }
        (recv, m) => Err(Error::runtime(format!(
            "no mutating method `{m}` on {recv}"
        ))),
    }
}

/// Evaluate a non-mutating modelled method — shared with the IR evaluator.
pub fn eval_pure_method(recv: &Value, method: &str, args: &[Value]) -> Result<Value> {
    use Value::*;
    Ok(match (recv, method) {
        (Array(v), "len") | (Array(v), "size") | (List(v), "size") | (List(v), "len") => {
            Int(v.len() as i64)
        }
        (Map(m), "size") => Int(m.len() as i64),
        (Array(v), "get") => {
            let i = args[0]
                .as_int()
                .ok_or_else(|| Error::runtime("non-int index"))?;
            v.get(i as usize)
                .cloned()
                .ok_or_else(|| Error::runtime(format!("array index {i} out of bounds")))?
        }
        (List(v), "get") => {
            let i = args[0]
                .as_int()
                .ok_or_else(|| Error::runtime("non-int index"))?;
            v.get(i as usize)
                .cloned()
                .ok_or_else(|| Error::runtime(format!("list index {i} out of bounds")))?
        }
        (List(v), "contains") => Bool(v.contains(&args[0])),
        (Map(m), "get") => map_get(m, &args[0])
            .cloned()
            .ok_or_else(|| Error::runtime(format!("missing map key {}", args[0])))?,
        (Map(m), "get_or") => map_get(m, &args[0])
            .cloned()
            .unwrap_or_else(|| args[1].clone()),
        (Map(m), "contains_key") => Bool(m.iter().any(|(k, _)| *k == args[0])),
        (Str(s), "len") => Int(s.chars().count() as i64),
        (Str(s), "contains") => {
            let needle = args[0]
                .as_str()
                .ok_or_else(|| Error::runtime("non-string arg"))?;
            Bool(s.contains(needle))
        }
        (Str(s), "split") => List(s.split_whitespace().map(Value::str).collect()),
        (Str(s), "char_at") => {
            let i = args[0]
                .as_int()
                .ok_or_else(|| Error::runtime("non-int index"))?;
            let c = s
                .chars()
                .nth(i as usize)
                .ok_or_else(|| Error::runtime("char index out of bounds"))?;
            Int(c as i64)
        }
        (Str(s), "to_lower") => Value::str(s.to_lowercase()),
        (Str(s), "starts_with") => {
            let p = args[0]
                .as_str()
                .ok_or_else(|| Error::runtime("non-string arg"))?;
            Bool(s.starts_with(p))
        }
        (recv, m) => return Err(Error::runtime(format!("no method `{m}` on {recv}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn run(src: &str, func: &str, args: Vec<Value>) -> Value {
        let p = compile(src).unwrap();
        Interp::new(&p).call(func, args).unwrap()
    }

    #[test]
    fn sums_a_list() {
        let src = r#"
            fn sum(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }
        "#;
        let xs = Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(run(src, "sum", vec![xs]), Value::Int(6));
    }

    #[test]
    fn row_wise_mean_matches_paper_example() {
        let src = r#"
            fn rwm(mat: array<array<int>>, rows: int, cols: int) -> array<int> {
                let m: array<int> = new array<int>(rows);
                for (let i: int = 0; i < rows; i = i + 1) {
                    let sum: int = 0;
                    for (let j: int = 0; j < cols; j = j + 1) {
                        sum = sum + mat[i][j];
                    }
                    m[i] = sum / cols;
                }
                return m;
            }
        "#;
        let mat = Value::Array(vec![
            Value::Array(vec![Value::Int(1), Value::Int(3)]),
            Value::Array(vec![Value::Int(10), Value::Int(20)]),
        ]);
        let out = run(src, "rwm", vec![mat, Value::Int(2), Value::Int(2)]);
        assert_eq!(out, Value::Array(vec![Value::Int(2), Value::Int(15)]));
    }

    #[test]
    fn word_count_with_map() {
        let src = r#"
            fn wc(words: list<string>) -> map<string,int> {
                let counts: map<string,int> = new map<string,int>();
                for (w in words) {
                    counts.put(w, counts.get_or(w, 0) + 1);
                }
                return counts;
            }
        "#;
        let words = Value::List(vec![Value::str("a"), Value::str("b"), Value::str("a")]);
        let out = run(src, "wc", vec![words]);
        assert_eq!(
            out,
            Value::Map(vec![
                (Value::str("a"), Value::Int(2)),
                (Value::str("b"), Value::Int(1)),
            ])
        );
    }

    #[test]
    fn while_and_break() {
        let src = r#"
            fn f(n: int) -> int {
                let i: int = 0;
                while (true) {
                    if (i >= n) { break; }
                    i = i + 1;
                }
                return i;
            }
        "#;
        assert_eq!(run(src, "f", vec![Value::Int(7)]), Value::Int(7));
    }

    #[test]
    fn struct_fields_read_write() {
        let src = r#"
            struct Acc { sum: double, n: int }
            fn f(xs: list<double>) -> double {
                let a: Acc = new Acc(0.0, 0);
                for (x in xs) {
                    a.sum = a.sum + x;
                    a.n = a.n + 1;
                }
                return a.sum / int_to_double(a.n);
            }
        "#;
        let xs = Value::List(vec![Value::Double(2.0), Value::Double(4.0)]);
        assert_eq!(run(src, "f", vec![xs]), Value::Double(3.0));
    }

    #[test]
    fn user_function_calls() {
        let src = r#"
            fn square(x: int) -> int { return x * x; }
            fn f(n: int) -> int { return square(n) + square(n + 1); }
        "#;
        assert_eq!(run(src, "f", vec![Value::Int(2)]), Value::Int(13));
    }

    #[test]
    fn library_math_functions() {
        let src = "fn f(x: double) -> double { return sqrt(x) + abs(0.0 - 1.5); }";
        assert_eq!(run(src, "f", vec![Value::Double(4.0)]), Value::Double(3.5));
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let src = "fn f() -> int { let i: int = 0; while (true) { i = i + 1; } return i; }";
        let p = compile(src).unwrap();
        let mut interp = Interp::new(&p).with_fuel(10_000);
        assert!(interp.call("f", vec![]).is_err());
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let src = "fn f(a: int, b: int) -> int { return a / b; }";
        let p = compile(src).unwrap();
        assert!(Interp::new(&p)
            .call("f", vec![Value::Int(1), Value::Int(0)])
            .is_err());
    }

    #[test]
    fn int_widens_into_double_slots() {
        let src = "fn f() -> double { let x: double = 3; return x / 2; }";
        assert_eq!(run(src, "f", vec![]), Value::Double(1.5));
    }

    #[test]
    fn stats_count_iterations() {
        let src = r#"
            fn f(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }
        "#;
        let p = compile(src).unwrap();
        let mut interp = Interp::new(&p);
        let xs = Value::List((0..10).map(Value::Int).collect());
        interp.call("f", vec![xs]).unwrap();
        assert_eq!(interp.stats.iterations, 10);
        assert!(interp.stats.steps > 10);
    }

    #[test]
    fn string_methods() {
        let src = r#"
            fn f(line: string) -> int {
                let n: int = 0;
                for (w in line.split()) {
                    if (w.contains("a")) { n = n + 1; }
                }
                return n;
            }
        "#;
        assert_eq!(
            run(src, "f", vec![Value::str("cat dog bat")]),
            Value::Int(2)
        );
    }

    #[test]
    fn nested_index_assignment() {
        let src = r#"
            fn f() -> array<array<int>> {
                let m: array<array<int>> = new array<array<int>>(2);
                m[0] = new array<int>(2);
                m[1] = new array<int>(2);
                m[1][0] = 42;
                return m;
            }
        "#;
        let out = run(src, "f", vec![]);
        let Value::Array(rows) = out else { panic!() };
        assert_eq!(rows[1], Value::Array(vec![Value::Int(42), Value::Int(0)]));
    }
}
