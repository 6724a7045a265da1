//! Types and the type checker for `seqlang`.

use std::collections::HashMap;
use std::fmt;

use crate::ast::{BinOp, Block, Expr, Function, Program, Stmt, UnOp};
use crate::error::{Error, Result};

/// The static types of `seqlang` (mirrors the Java subset Casper handles).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    Int,
    Double,
    Bool,
    Str,
    Void,
    /// Fixed-layout array, e.g. `array<int>`; multi-dimensional arrays are
    /// nested arrays.
    Array(Box<Type>),
    /// Growable list (`java.util.List`).
    List(Box<Type>),
    /// Key/value map (`java.util.Map`).
    Map(Box<Type>, Box<Type>),
    /// User-defined struct type, by name.
    Struct(String),
    /// Tuple type — not writable in source; produced by library models and
    /// shared with the summary IR.
    Tuple(Vec<Type>),
}

impl Type {
    pub fn is_numeric(&self) -> bool {
        matches!(self, Type::Int | Type::Double)
    }

    /// Element type when this is an iterable collection.
    pub fn element(&self) -> Option<&Type> {
        match self {
            Type::Array(t) | Type::List(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Double => write!(f, "double"),
            Type::Bool => write!(f, "bool"),
            Type::Str => write!(f, "string"),
            Type::Void => write!(f, "void"),
            Type::Array(t) => write!(f, "array<{t}>"),
            Type::List(t) => write!(f, "list<{t}>"),
            Type::Map(k, v) => write!(f, "map<{k},{v}>"),
            Type::Struct(name) => write!(f, "{name}"),
            Type::Tuple(ts) => {
                write!(f, "(")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Signature of a modelled library method (free function or method form).
#[derive(Debug, Clone)]
pub struct LibSig {
    pub params: Vec<Type>,
    pub ret: Type,
}

/// Signatures of the free functions modelled from `java.lang.Math` and the
/// date utilities Casper's benchmarks use (Appendix B / D).
pub fn free_function_sig(name: &str, args: &[Type]) -> Option<LibSig> {
    use Type::*;
    let num2 = |ret: fn(Type) -> Type| -> Option<LibSig> {
        if args.len() == 2 && args[0].is_numeric() && args[1].is_numeric() {
            let t = if args[0] == Double || args[1] == Double {
                Double
            } else {
                Int
            };
            Some(LibSig {
                params: vec![args[0].clone(), args[1].clone()],
                ret: ret(t),
            })
        } else {
            None
        }
    };
    match name {
        "abs" => {
            if args.len() == 1 && args[0].is_numeric() {
                Some(LibSig {
                    params: vec![args[0].clone()],
                    ret: args[0].clone(),
                })
            } else {
                None
            }
        }
        "min" | "max" => num2(|t| t),
        "pow" => Some(LibSig {
            params: vec![Double, Double],
            ret: Double,
        }),
        "sqrt" | "exp" | "log" | "floor" | "ceil" => Some(LibSig {
            params: vec![Double],
            ret: Double,
        }),
        "int_to_double" => Some(LibSig {
            params: vec![Int],
            ret: Double,
        }),
        "double_to_int" => Some(LibSig {
            params: vec![Double],
            ret: Int,
        }),
        // Dates are modelled as epoch-day ints, as in our TPC-H port.
        "date_before" | "date_after" => Some(LibSig {
            params: vec![Int, Int],
            ret: Bool,
        }),
        _ => None,
    }
}

/// Resolve the signature of a method call `recv.name(args)` against the
/// modelled collection/string library.
pub fn method_sig(recv: &Type, name: &str, args: &[Type]) -> Option<LibSig> {
    use Type::*;
    match (recv, name) {
        (Array(t), "len") | (Array(t), "size") if args.is_empty() => {
            let _ = t;
            Some(LibSig {
                params: vec![],
                ret: Int,
            })
        }
        (List(t), "size") | (List(t), "len") if args.is_empty() => {
            let _ = t;
            Some(LibSig {
                params: vec![],
                ret: Int,
            })
        }
        (List(t), "get") | (Array(t), "get") if args.len() == 1 => Some(LibSig {
            params: vec![Int],
            ret: (**t).clone(),
        }),
        (List(t), "add") | (List(t), "append") if args.len() == 1 => Some(LibSig {
            params: vec![(**t).clone()],
            ret: Void,
        }),
        (List(t), "contains") if args.len() == 1 => Some(LibSig {
            params: vec![(**t).clone()],
            ret: Bool,
        }),
        (Map(k, v), "put") if args.len() == 2 => Some(LibSig {
            params: vec![(**k).clone(), (**v).clone()],
            ret: Void,
        }),
        (Map(k, v), "get") if args.len() == 1 => Some(LibSig {
            params: vec![(**k).clone()],
            ret: (**v).clone(),
        }),
        (Map(k, v), "get_or") if args.len() == 2 => Some(LibSig {
            params: vec![(**k).clone(), (**v).clone()],
            ret: (**v).clone(),
        }),
        (Map(k, _), "contains_key") if args.len() == 1 => Some(LibSig {
            params: vec![(**k).clone()],
            ret: Bool,
        }),
        (Map(_, _), "size") if args.is_empty() => Some(LibSig {
            params: vec![],
            ret: Int,
        }),
        (Str, "len") if args.is_empty() => Some(LibSig {
            params: vec![],
            ret: Int,
        }),
        (Str, "contains") if args.len() == 1 => Some(LibSig {
            params: vec![Str],
            ret: Bool,
        }),
        (Str, "split") if args.is_empty() => Some(LibSig {
            params: vec![],
            ret: List(Box::new(Str)),
        }),
        (Str, "char_at") if args.len() == 1 => Some(LibSig {
            params: vec![Int],
            ret: Int,
        }),
        (Str, "to_lower") if args.is_empty() => Some(LibSig {
            params: vec![],
            ret: Str,
        }),
        (Str, "starts_with") if args.len() == 1 => Some(LibSig {
            params: vec![Str],
            ret: Bool,
        }),
        _ => None,
    }
}

/// The `seqlang` type checker. Annotates the AST with inferred types
/// (filling `Expr::ty` slots) and reports the first error found.
pub struct TypeChecker {
    structs: HashMap<String, Vec<(String, Type)>>,
    functions: HashMap<String, (Vec<Type>, Type)>,
}

impl TypeChecker {
    pub fn new(program: &Program) -> Self {
        let structs = program
            .structs
            .iter()
            .map(|s| (s.name.clone(), s.fields.clone()))
            .collect();
        let functions = program
            .functions
            .iter()
            .map(|f| {
                (
                    f.name.clone(),
                    (
                        f.params.iter().map(|(_, t)| t.clone()).collect(),
                        f.ret.clone(),
                    ),
                )
            })
            .collect();
        TypeChecker { structs, functions }
    }

    pub fn check(&self, program: &mut Program) -> Result<()> {
        let mut functions = std::mem::take(&mut program.functions);
        for f in &mut functions {
            self.check_function(f)?;
        }
        program.functions = functions;
        Ok(())
    }

    fn check_function(&self, f: &mut Function) -> Result<()> {
        let mut scope = Scope::new();
        for (name, ty) in &f.params {
            scope.declare(name.clone(), ty.clone());
        }
        let ret = f.ret.clone();
        self.check_block(&mut f.body, &mut scope, &ret)?;
        Ok(())
    }

    fn check_block(&self, block: &mut Block, scope: &mut Scope, ret: &Type) -> Result<()> {
        scope.push();
        for stmt in &mut block.stmts {
            self.check_stmt(stmt, scope, ret)?;
        }
        scope.pop();
        Ok(())
    }

    fn check_stmt(&self, stmt: &mut Stmt, scope: &mut Scope, ret: &Type) -> Result<()> {
        match stmt {
            Stmt::Let {
                name,
                ty,
                init,
                line,
            } => {
                let it = self.check_expr(init, scope)?;
                if !compatible(ty, &it) {
                    return Err(Error::ty(
                        format!("let `{name}`: declared {ty} but initialiser has type {it}"),
                        *line,
                    ));
                }
                scope.declare(name.clone(), ty.clone());
                Ok(())
            }
            Stmt::Assign {
                target,
                value,
                line,
            } => {
                let tt = self.check_expr(target, scope)?;
                if !is_lvalue(target) {
                    return Err(Error::ty("assignment target is not an lvalue", *line));
                }
                let vt = self.check_expr(value, scope)?;
                if !compatible(&tt, &vt) {
                    return Err(Error::ty(
                        format!("cannot assign {vt} to target of type {tt}"),
                        *line,
                    ));
                }
                Ok(())
            }
            Stmt::ExprStmt { expr, .. } => {
                self.check_expr(expr, scope)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                line,
            } => {
                let ct = self.check_expr(cond, scope)?;
                if ct != Type::Bool {
                    return Err(Error::ty(format!("if condition has type {ct}"), *line));
                }
                self.check_block(then_blk, scope, ret)?;
                if let Some(b) = else_blk {
                    self.check_block(b, scope, ret)?;
                }
                Ok(())
            }
            Stmt::While { cond, body, line } => {
                let ct = self.check_expr(cond, scope)?;
                if ct != Type::Bool {
                    return Err(Error::ty(format!("while condition has type {ct}"), *line));
                }
                self.check_block(body, scope, ret)
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
                line,
            } => {
                scope.push();
                self.check_stmt(init, scope, ret)?;
                let ct = self.check_expr(cond, scope)?;
                if ct != Type::Bool {
                    return Err(Error::ty(format!("for condition has type {ct}"), *line));
                }
                self.check_stmt(update, scope, ret)?;
                self.check_block(body, scope, ret)?;
                scope.pop();
                Ok(())
            }
            Stmt::ForEach {
                var,
                var_ty,
                iterable,
                body,
                line,
            } => {
                let it = self.check_expr(iterable, scope)?;
                let elem = it.element().cloned().ok_or_else(|| {
                    Error::ty(format!("cannot iterate a value of type {it}"), *line)
                })?;
                *var_ty = elem.clone();
                scope.push();
                scope.declare(var.clone(), elem);
                self.check_block(body, scope, ret)?;
                scope.pop();
                Ok(())
            }
            Stmt::Return { value, line } => {
                let vt = match value {
                    Some(e) => self.check_expr(e, scope)?,
                    None => Type::Void,
                };
                if !compatible(ret, &vt) {
                    return Err(Error::ty(
                        format!("return type mismatch: expected {ret}, found {vt}"),
                        *line,
                    ));
                }
                Ok(())
            }
            Stmt::Break { .. } | Stmt::Continue { .. } => Ok(()),
        }
    }

    /// Type-check an expression, storing the resolved type back into the
    /// node where the AST carries a slot for it.
    pub fn check_expr(&self, expr: &mut Expr, scope: &mut Scope) -> Result<Type> {
        let line = expr.line();
        match expr {
            Expr::IntLit(..) => Ok(Type::Int),
            Expr::DoubleLit(..) => Ok(Type::Double),
            Expr::BoolLit(..) => Ok(Type::Bool),
            Expr::StrLit(..) => Ok(Type::Str),
            Expr::Var { name, ty, .. } => {
                let t = scope
                    .lookup(name)
                    .ok_or_else(|| Error::ty(format!("unknown variable `{name}`"), line))?;
                *ty = Some(t.clone());
                Ok(t)
            }
            Expr::Unary { op, operand, .. } => {
                let t = self.check_expr(operand, scope)?;
                match op {
                    UnOp::Neg if t.is_numeric() => Ok(t),
                    UnOp::Not if t == Type::Bool => Ok(Type::Bool),
                    UnOp::BitNot if t == Type::Int => Ok(Type::Int),
                    _ => Err(Error::ty(
                        format!("bad operand type {t} for unary {op:?}"),
                        line,
                    )),
                }
            }
            Expr::Binary {
                op, lhs, rhs, ty, ..
            } => {
                let lt = self.check_expr(lhs, scope)?;
                let rt = self.check_expr(rhs, scope)?;
                let result = binop_type(*op, &lt, &rt)
                    .ok_or_else(|| Error::ty(format!("bad operand types {lt} {op} {rt}"), line))?;
                *ty = Some(result.clone());
                Ok(result)
            }
            Expr::Index {
                base, index, ty, ..
            } => {
                let bt = self.check_expr(base, scope)?;
                let it = self.check_expr(index, scope)?;
                match &bt {
                    Type::Array(elem) | Type::List(elem) if it == Type::Int => {
                        *ty = Some((**elem).clone());
                        Ok((**elem).clone())
                    }
                    Type::Map(k, v) if it == **k => {
                        *ty = Some((**v).clone());
                        Ok((**v).clone())
                    }
                    _ => Err(Error::ty(format!("cannot index {bt} with {it}"), line)),
                }
            }
            Expr::Field {
                base, field, ty, ..
            } => {
                let bt = self.check_expr(base, scope)?;
                let Type::Struct(sname) = &bt else {
                    return Err(Error::ty(format!("cannot access field of {bt}"), line));
                };
                let fields = self
                    .structs
                    .get(sname)
                    .ok_or_else(|| Error::ty(format!("unknown struct `{sname}`"), line))?;
                let ft = fields
                    .iter()
                    .find(|(f, _)| f == field)
                    .map(|(_, t)| t.clone())
                    .ok_or_else(|| {
                        Error::ty(format!("struct `{sname}` has no field `{field}`"), line)
                    })?;
                *ty = Some(ft.clone());
                Ok(ft)
            }
            Expr::Call { func, args, ty, .. } => {
                let mut arg_tys = Vec::with_capacity(args.len());
                for a in args.iter_mut() {
                    arg_tys.push(self.check_expr(a, scope)?);
                }
                // User-defined functions take precedence over library models.
                if let Some((params, ret)) = self.functions.get(func) {
                    if params.len() != arg_tys.len()
                        || params.iter().zip(&arg_tys).any(|(p, a)| !compatible(p, a))
                    {
                        return Err(Error::ty(
                            format!(
                                "bad arguments to `{func}`: expected {params:?}, found {arg_tys:?}"
                            ),
                            line,
                        ));
                    }
                    *ty = Some(ret.clone());
                    return Ok(ret.clone());
                }
                let sig = free_function_sig(func, &arg_tys).ok_or_else(|| {
                    Error::ty(
                        format!("unknown function `{func}` for arguments {arg_tys:?}"),
                        line,
                    )
                })?;
                *ty = Some(sig.ret.clone());
                Ok(sig.ret)
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                ty,
                ..
            } => {
                let rt = self.check_expr(recv, scope)?;
                let mut arg_tys = Vec::with_capacity(args.len());
                for a in args.iter_mut() {
                    arg_tys.push(self.check_expr(a, scope)?);
                }
                let sig = method_sig(&rt, method, &arg_tys).ok_or_else(|| {
                    Error::ty(
                        format!("no method `{method}({arg_tys:?})` on type {rt}"),
                        line,
                    )
                })?;
                for (p, a) in sig.params.iter().zip(&arg_tys) {
                    if !compatible(p, a) {
                        return Err(Error::ty(
                            format!("bad argument to `{method}`: expected {p}, found {a}"),
                            line,
                        ));
                    }
                }
                *ty = Some(sig.ret.clone());
                Ok(sig.ret)
            }
            Expr::NewArray { elem_ty, len, .. } => {
                let lt = self.check_expr(len, scope)?;
                if lt != Type::Int {
                    return Err(Error::ty(format!("array length has type {lt}"), line));
                }
                Ok(Type::Array(Box::new(elem_ty.clone())))
            }
            Expr::NewList { elem_ty, .. } => Ok(Type::List(Box::new(elem_ty.clone()))),
            Expr::NewMap { key_ty, val_ty, .. } => Ok(Type::Map(
                Box::new(key_ty.clone()),
                Box::new(val_ty.clone()),
            )),
            Expr::NewStruct { name, args, .. } => {
                let fields = self
                    .structs
                    .get(name)
                    .ok_or_else(|| Error::ty(format!("unknown struct `{name}`"), line))?
                    .clone();
                if fields.len() != args.len() {
                    return Err(Error::ty(
                        format!(
                            "struct `{name}` has {} fields but {} initialisers given",
                            fields.len(),
                            args.len()
                        ),
                        line,
                    ));
                }
                for ((fname, ftype), arg) in fields.iter().zip(args.iter_mut()) {
                    let at = self.check_expr(arg, scope)?;
                    if !compatible(ftype, &at) {
                        return Err(Error::ty(
                            format!("field `{fname}` of `{name}` expects {ftype}, found {at}"),
                            line,
                        ));
                    }
                }
                Ok(Type::Struct(name.clone()))
            }
        }
    }
}

/// Result type of a binary operation, or `None` if ill-typed.
pub fn binop_type(op: BinOp, lt: &Type, rt: &Type) -> Option<Type> {
    use BinOp::*;
    use Type::*;
    match op {
        Add | Sub | Mul | Div | Mod => {
            if op == Add && *lt == Str && *rt == Str {
                Some(Str)
            } else if lt.is_numeric() && rt.is_numeric() {
                Some(if *lt == Double || *rt == Double {
                    Double
                } else {
                    Int
                })
            } else {
                None
            }
        }
        Lt | Gt | Le | Ge => {
            if lt.is_numeric() && rt.is_numeric() {
                Some(Bool)
            } else {
                None
            }
        }
        Eq | Ne => {
            if lt == rt || (lt.is_numeric() && rt.is_numeric()) {
                Some(Bool)
            } else {
                None
            }
        }
        And | Or => {
            if *lt == Bool && *rt == Bool {
                Some(Bool)
            } else {
                None
            }
        }
        BitAnd | BitOr | BitXor | Shl | Shr => {
            if *lt == Int && *rt == Int {
                Some(Int)
            } else {
                None
            }
        }
    }
}

/// Widening-compatible: `Int` may flow into `Double` slots, like Java.
pub fn compatible(expected: &Type, found: &Type) -> bool {
    expected == found || (*expected == Type::Double && *found == Type::Int)
}

fn is_lvalue(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Var { .. } | Expr::Index { .. } | Expr::Field { .. }
    )
}

/// A lexical scope stack used by the type checker (and reused by the
/// analyzer for live-variable queries).
#[derive(Debug, Default)]
pub struct Scope {
    frames: Vec<HashMap<String, Type>>,
}

impl Scope {
    pub fn new() -> Self {
        Scope {
            frames: vec![HashMap::new()],
        }
    }
    pub fn push(&mut self) {
        self.frames.push(HashMap::new());
    }
    pub fn pop(&mut self) {
        self.frames.pop();
    }
    pub fn declare(&mut self, name: String, ty: Type) {
        self.frames
            .last_mut()
            .expect("scope stack never empty")
            .insert(name, ty);
    }
    pub fn lookup(&self, name: &str) -> Option<Type> {
        self.frames.iter().rev().find_map(|f| f.get(name).cloned())
    }
}

#[cfg(test)]
mod tests {
    use crate::compile;

    #[test]
    fn accepts_well_typed_program() {
        let src = r#"
            fn sum(xs: array<int>) -> int {
                let total: int = 0;
                for (x in xs) { total = total + x; }
                return total;
            }
        "#;
        assert!(compile(src).is_ok());
    }

    #[test]
    fn rejects_type_mismatch_in_let() {
        let src = "fn f() -> void { let x: int = true; }";
        let err = compile(src).unwrap_err();
        assert!(err.msg.contains("declared int"));
    }

    #[test]
    fn rejects_non_bool_condition() {
        let src = "fn f() -> void { if (1) { } }";
        assert!(compile(src).is_err());
    }

    #[test]
    fn int_widens_to_double() {
        let src = "fn f() -> double { let x: double = 3; return x + 1; }";
        assert!(compile(src).is_ok());
    }

    #[test]
    fn rejects_unknown_variable() {
        let src = "fn f() -> int { return y; }";
        assert!(compile(src).is_err());
    }

    #[test]
    fn checks_struct_fields() {
        let src = r#"
            struct Point { x: double, y: double }
            fn f(p: Point) -> double { return p.x + p.y; }
        "#;
        assert!(compile(src).is_ok());
        let bad = r#"
            struct Point { x: double, y: double }
            fn f(p: Point) -> double { return p.z; }
        "#;
        assert!(compile(bad).is_err());
    }

    #[test]
    fn checks_library_methods() {
        let src = r#"
            fn f(words: list<string>, key: string) -> bool {
                let found: bool = false;
                for (w in words) { if (w == key) { found = true; } }
                return found;
            }
        "#;
        assert!(compile(src).is_ok());
    }

    #[test]
    fn rejects_bad_method() {
        let src = "fn f(x: int) -> int { return x.frobnicate(); }";
        assert!(compile(src).is_err());
    }

    #[test]
    fn map_operations_type_check() {
        let src = r#"
            fn wc(words: list<string>) -> map<string,int> {
                let counts: map<string,int> = new map<string,int>();
                for (w in words) {
                    counts.put(w, counts.get_or(w, 0) + 1);
                }
                return counts;
            }
        "#;
        assert!(compile(src).is_ok());
    }

    #[test]
    fn string_concat_allowed() {
        let src = r#"fn f(a: string, b: string) -> string { return a + b; }"#;
        assert!(compile(src).is_ok());
    }

    #[test]
    fn bitwise_requires_ints() {
        assert!(compile("fn f(a: int, b: int) -> int { return a & b; }").is_ok());
        assert!(compile("fn f(a: double, b: int) -> int { return a & b; }").is_err());
    }
}
