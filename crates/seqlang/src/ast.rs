//! Abstract syntax tree for `seqlang`.

use std::fmt;

use crate::ty::Type;

/// A complete program: struct declarations plus functions.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub structs: Vec<StructDef>,
    pub functions: Vec<Function>,
}

impl Program {
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }
}

/// A user-defined struct type (Casper's "user-defined types", §6.1).
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<(String, Type)>,
    pub line: u32,
}

/// A top-level function.
#[derive(Debug, Clone)]
pub struct Function {
    pub name: String,
    pub params: Vec<(String, Type)>,
    pub ret: Type,
    pub body: Block,
    pub line: u32,
}

/// A `{ ... }` statement block.
#[derive(Debug, Clone, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// Statements.
#[derive(Debug, Clone)]
pub enum Stmt {
    Let {
        name: String,
        ty: Type,
        init: Expr,
        line: u32,
    },
    Assign {
        target: Expr,
        value: Expr,
        line: u32,
    },
    ExprStmt {
        expr: Expr,
        line: u32,
    },
    If {
        cond: Expr,
        then_blk: Block,
        else_blk: Option<Block>,
        line: u32,
    },
    While {
        cond: Expr,
        body: Block,
        line: u32,
    },
    For {
        init: Box<Stmt>,
        cond: Expr,
        update: Box<Stmt>,
        body: Block,
        line: u32,
    },
    /// `for (x in xs) { ... }` — the canonical data-iteration loop Casper
    /// targets for translation.
    ForEach {
        var: String,
        var_ty: Type,
        iterable: Expr,
        body: Block,
        line: u32,
    },
    Return {
        value: Option<Expr>,
        line: u32,
    },
    Break {
        line: u32,
    },
    Continue {
        line: u32,
    },
}

impl Stmt {
    pub fn line(&self) -> u32 {
        match self {
            Stmt::Let { line, .. }
            | Stmt::Assign { line, .. }
            | Stmt::ExprStmt { line, .. }
            | Stmt::If { line, .. }
            | Stmt::While { line, .. }
            | Stmt::For { line, .. }
            | Stmt::ForEach { line, .. }
            | Stmt::Return { line, .. }
            | Stmt::Break { line }
            | Stmt::Continue { line } => *line,
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
    BitNot,
}

/// Expressions. Nodes that need a resolved type for later phases carry a
/// `ty: Option<Type>` slot filled in by the type checker.
#[derive(Debug, Clone)]
pub enum Expr {
    IntLit(i64, u32),
    DoubleLit(f64, u32),
    BoolLit(bool, u32),
    StrLit(String, u32),
    Var {
        name: String,
        ty: Option<Type>,
        line: u32,
    },
    Unary {
        op: UnOp,
        operand: Box<Expr>,
        line: u32,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        ty: Option<Type>,
        line: u32,
    },
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
        ty: Option<Type>,
        line: u32,
    },
    Field {
        base: Box<Expr>,
        field: String,
        ty: Option<Type>,
        line: u32,
    },
    Call {
        func: String,
        args: Vec<Expr>,
        ty: Option<Type>,
        line: u32,
    },
    MethodCall {
        recv: Box<Expr>,
        method: String,
        args: Vec<Expr>,
        ty: Option<Type>,
        line: u32,
    },
    NewArray {
        elem_ty: Type,
        len: Box<Expr>,
        line: u32,
    },
    NewList {
        elem_ty: Type,
        line: u32,
    },
    NewMap {
        key_ty: Type,
        val_ty: Type,
        line: u32,
    },
    NewStruct {
        name: String,
        args: Vec<Expr>,
        line: u32,
    },
}

impl Expr {
    pub fn line(&self) -> u32 {
        match self {
            Expr::IntLit(_, l)
            | Expr::DoubleLit(_, l)
            | Expr::BoolLit(_, l)
            | Expr::StrLit(_, l) => *l,
            Expr::Var { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Index { line, .. }
            | Expr::Field { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::NewArray { line, .. }
            | Expr::NewList { line, .. }
            | Expr::NewMap { line, .. }
            | Expr::NewStruct { line, .. } => *line,
        }
    }

    /// The type recorded by the type checker, when this node carries one.
    /// Literal nodes return their intrinsic type.
    pub fn ty(&self) -> Option<Type> {
        match self {
            Expr::IntLit(..) => Some(Type::Int),
            Expr::DoubleLit(..) => Some(Type::Double),
            Expr::BoolLit(..) => Some(Type::Bool),
            Expr::StrLit(..) => Some(Type::Str),
            Expr::Var { ty, .. }
            | Expr::Binary { ty, .. }
            | Expr::Index { ty, .. }
            | Expr::Field { ty, .. }
            | Expr::Call { ty, .. }
            | Expr::MethodCall { ty, .. } => ty.clone(),
            Expr::Unary { operand, .. } => operand.ty(),
            Expr::NewArray { elem_ty, .. } => Some(Type::Array(Box::new(elem_ty.clone()))),
            Expr::NewList { elem_ty, .. } => Some(Type::List(Box::new(elem_ty.clone()))),
            Expr::NewMap { key_ty, val_ty, .. } => Some(Type::Map(
                Box::new(key_ty.clone()),
                Box::new(val_ty.clone()),
            )),
            Expr::NewStruct { name, .. } => Some(Type::Struct(name.clone())),
        }
    }

    /// Visit every sub-expression (including `self`), pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Unary { operand, .. } => operand.walk(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Index { base, index, .. } => {
                base.walk(f);
                index.walk(f);
            }
            Expr::Field { base, .. } => base.walk(f),
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::NewArray { len, .. } => len.walk(f),
            Expr::NewStruct { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            _ => {}
        }
    }
}

/// Visit every statement in a block, recursively (pre-order).
pub fn walk_stmts<'a>(block: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for stmt in &block.stmts {
        f(stmt);
        match stmt {
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                walk_stmts(then_blk, f);
                if let Some(b) = else_blk {
                    walk_stmts(b, f);
                }
            }
            Stmt::While { body, .. } | Stmt::ForEach { body, .. } => walk_stmts(body, f),
            Stmt::For {
                init, update, body, ..
            } => {
                f(init);
                f(update);
                walk_stmts(body, f);
            }
            _ => {}
        }
    }
}

/// Count the source lines spanned by a block — used to report fragment LOC
/// in the Table 2 reproduction.
pub fn block_loc(block: &Block) -> usize {
    let mut min = u32::MAX;
    let mut max = 0u32;
    walk_stmts(block, &mut |s| {
        let l = s.line();
        if l > 0 {
            min = min.min(l);
            max = max.max(l);
        }
    });
    if min == u32::MAX {
        0
    } else {
        (max - min + 1) as usize
    }
}
