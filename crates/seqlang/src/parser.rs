//! Recursive-descent parser for `seqlang`.

use crate::ast::*;
use crate::error::{Error, Result};
use crate::token::{Token, TokenKind};
use crate::ty::Type;

/// Deepest syntax tree the parser accepts. Depth counts one level per
/// enclosing block, statement, type argument, parenthesis, unary
/// operator, binary operator, postfix link (index, field, method call)
/// and call argument. The parser and every later pass (type checker,
/// normalizer, interpreter, analyzer) recurse over the tree; this bound
/// keeps a deeply nested source from overflowing the stack and aborting
/// the process. The deepest of the 93 registry programs
/// (`iterative/logreg_gradient`) reaches 18 levels.
pub const MAX_NESTING: usize = 256;

/// Parser over a token stream produced by [`crate::lexer::lex`].
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Tree depth of the node being parsed (0 = a top-level item).
    depth: usize,
    /// Deepest tree level reached by the current left-deep chain (see
    /// [`Parser::deepen_chain`]), or by the whole parse outside chains.
    deepest: usize,
}

impl Parser {
    pub fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            deepest: 0,
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<()> {
        if self.peek() == &kind {
            self.bump();
            Ok(())
        } else {
            Err(Error::parse(
                format!("expected `{}`, found `{}`", kind, self.peek()),
                self.line(),
            ))
        }
    }

    /// Consume a closing `>` in a type, splitting a `>>` token when nested
    /// generics close together (`array<array<int>>`).
    fn expect_gt(&mut self) -> Result<()> {
        match self.peek() {
            TokenKind::Gt => {
                self.bump();
                Ok(())
            }
            TokenKind::Shr => {
                self.tokens[self.pos].kind = TokenKind::Gt;
                Ok(())
            }
            other => Err(Error::parse(
                format!("expected `>`, found `{other}`"),
                self.line(),
            )),
        }
    }

    fn too_deep(&self) -> Error {
        Error::parse(
            format!("syntax nested deeper than {MAX_NESTING} levels"),
            self.line(),
        )
    }

    /// Parse one level further down the syntax tree.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        self.deepest = self.deepest.max(self.depth);
        let out = parse(self);
        self.depth -= 1;
        out
    }

    /// Binary and postfix chains are built in a loop, not by recursion:
    /// each new link becomes the parent of the chain so far, pushing
    /// every node of it one level down. A chain resets `deepest` to its
    /// root's depth when it starts, so `deepest` is then the chain's own
    /// deepest level, and folds the enclosing value back in when it ends.
    fn deepen_chain(&mut self) -> Result<()> {
        if self.deepest == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.deepest += 1;
        Ok(())
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(Error::parse(
                format!("expected identifier, found `{other}`"),
                self.line(),
            )),
        }
    }

    /// Parse a full program: a sequence of `struct` and `fn` items.
    pub fn parse_program(&mut self) -> Result<Program> {
        let mut program = Program::default();
        loop {
            match self.peek() {
                TokenKind::Eof => return Ok(program),
                TokenKind::KwStruct => program.structs.push(self.parse_struct()?),
                TokenKind::KwFn => program.functions.push(self.parse_function()?),
                other => {
                    return Err(Error::parse(
                        format!("expected `struct` or `fn` at top level, found `{other}`"),
                        self.line(),
                    ))
                }
            }
        }
    }

    fn parse_struct(&mut self) -> Result<StructDef> {
        let line = self.line();
        self.expect(TokenKind::KwStruct)?;
        let name = self.expect_ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            let fname = self.expect_ident()?;
            self.expect(TokenKind::Colon)?;
            let fty = self.parse_type()?;
            fields.push((fname, fty));
            if !self.eat(&TokenKind::Comma) {
                self.expect(TokenKind::RBrace)?;
                break;
            }
        }
        Ok(StructDef { name, fields, line })
    }

    fn parse_function(&mut self) -> Result<Function> {
        let line = self.line();
        self.expect(TokenKind::KwFn)?;
        let name = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        while !self.eat(&TokenKind::RParen) {
            let pname = self.expect_ident()?;
            self.expect(TokenKind::Colon)?;
            let pty = self.parse_type()?;
            params.push((pname, pty));
            if !self.eat(&TokenKind::Comma) {
                self.expect(TokenKind::RParen)?;
                break;
            }
        }
        self.expect(TokenKind::Arrow)?;
        let ret = self.parse_type()?;
        let body = self.parse_block()?;
        Ok(Function {
            name,
            params,
            ret,
            body,
            line,
        })
    }

    fn parse_type(&mut self) -> Result<Type> {
        self.nested(Self::parse_type_here)
    }

    fn parse_type_here(&mut self) -> Result<Type> {
        let line = self.line();
        match self.bump() {
            TokenKind::KwIntTy => Ok(Type::Int),
            TokenKind::KwDoubleTy => Ok(Type::Double),
            TokenKind::KwBoolTy => Ok(Type::Bool),
            TokenKind::KwStringTy => Ok(Type::Str),
            TokenKind::KwVoidTy => Ok(Type::Void),
            TokenKind::KwArrayTy => {
                self.expect(TokenKind::Lt)?;
                let elem = self.parse_type()?;
                self.expect_gt()?;
                Ok(Type::Array(Box::new(elem)))
            }
            TokenKind::KwListTy => {
                self.expect(TokenKind::Lt)?;
                let elem = self.parse_type()?;
                self.expect_gt()?;
                Ok(Type::List(Box::new(elem)))
            }
            TokenKind::KwMapTy => {
                self.expect(TokenKind::Lt)?;
                let k = self.parse_type()?;
                self.expect(TokenKind::Comma)?;
                let v = self.parse_type()?;
                self.expect_gt()?;
                Ok(Type::Map(Box::new(k), Box::new(v)))
            }
            TokenKind::Ident(name) => Ok(Type::Struct(name)),
            other => Err(Error::parse(
                format!("expected type, found `{other}`"),
                line,
            )),
        }
    }

    fn parse_block(&mut self) -> Result<Block> {
        self.nested(|p| {
            p.expect(TokenKind::LBrace)?;
            let mut stmts = Vec::new();
            while !p.eat(&TokenKind::RBrace) {
                stmts.push(p.parse_stmt()?);
            }
            Ok(Block { stmts })
        })
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        self.nested(Self::parse_stmt_here)
    }

    fn parse_stmt_here(&mut self) -> Result<Stmt> {
        let line = self.line();
        match self.peek() {
            TokenKind::KwLet => {
                self.bump();
                let name = self.expect_ident()?;
                self.expect(TokenKind::Colon)?;
                let ty = self.parse_type()?;
                self.expect(TokenKind::Assign)?;
                let init = self.parse_expr()?;
                self.expect(TokenKind::Semicolon)?;
                Ok(Stmt::Let {
                    name,
                    ty,
                    init,
                    line,
                })
            }
            TokenKind::KwIf => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                let then_blk = self.parse_block()?;
                let else_blk = if self.eat(&TokenKind::KwElse) {
                    if self.peek() == &TokenKind::KwIf {
                        // `else if` sugar: wrap the nested if in a block.
                        let nested = self.nested(Self::parse_stmt)?;
                        Some(Block {
                            stmts: vec![nested],
                        })
                    } else {
                        Some(self.parse_block()?)
                    }
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                    line,
                })
            }
            TokenKind::KwWhile => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                let body = self.parse_block()?;
                Ok(Stmt::While { cond, body, line })
            }
            TokenKind::KwFor => self.parse_for(line),
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semicolon {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(TokenKind::Semicolon)?;
                Ok(Stmt::Return { value, line })
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semicolon)?;
                Ok(Stmt::Break { line })
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semicolon)?;
                Ok(Stmt::Continue { line })
            }
            _ => self.parse_assign_or_expr_stmt(true),
        }
    }

    fn parse_for(&mut self, line: u32) -> Result<Stmt> {
        self.bump(); // `for`
        self.expect(TokenKind::LParen)?;
        // Distinguish `for (x in xs)` from `for (init; cond; update)`:
        // a lone identifier followed by `in` is the for-each form.
        if let TokenKind::Ident(name) = self.peek().clone() {
            if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::KwIn) {
                self.bump(); // ident
                self.bump(); // `in`
                let iterable = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                let body = self.parse_block()?;
                return Ok(Stmt::ForEach {
                    var: name,
                    var_ty: Type::Void, // filled by the type checker
                    iterable,
                    body,
                    line,
                });
            }
        }
        let init = Box::new(if self.peek() == &TokenKind::KwLet {
            self.parse_stmt()? // consumes the `;`
        } else {
            self.nested(|p| p.parse_assign_or_expr_stmt(true))?
        });
        let cond = self.parse_expr()?;
        self.expect(TokenKind::Semicolon)?;
        let update = Box::new(self.nested(|p| p.parse_assign_or_expr_stmt(false))?);
        self.expect(TokenKind::RParen)?;
        let body = self.parse_block()?;
        Ok(Stmt::For {
            init,
            cond,
            update,
            body,
            line,
        })
    }

    /// Parse `target = value;` or a bare expression statement.
    /// `want_semi` controls whether a trailing `;` is required (the update
    /// clause of a classic `for` has none).
    fn parse_assign_or_expr_stmt(&mut self, want_semi: bool) -> Result<Stmt> {
        let line = self.line();
        let first = self.parse_expr()?;
        let stmt = if self.eat(&TokenKind::Assign) {
            let value = self.parse_expr()?;
            Stmt::Assign {
                target: first,
                value,
                line,
            }
        } else {
            Stmt::ExprStmt { expr: first, line }
        };
        if want_semi {
            self.expect(TokenKind::Semicolon)?;
        }
        Ok(stmt)
    }

    /// Expression parsing with precedence climbing.
    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.nested(|p| p.parse_bin(0))
    }

    fn parse_bin(&mut self, min_prec: u8) -> Result<Expr> {
        let outer = std::mem::replace(&mut self.deepest, self.depth);
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = bin_op(self.peek()) {
            if prec < min_prec {
                break;
            }
            let line = self.line();
            self.bump();
            self.deepen_chain()?;
            let rhs = self.nested(|p| p.parse_bin(prec + 1))?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                ty: None,
                line,
            };
        }
        self.deepest = self.deepest.max(outer);
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        let line = self.line();
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                let operand = self.nested(Self::parse_unary)?;
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    operand: Box::new(operand),
                    line,
                })
            }
            TokenKind::Not => {
                self.bump();
                let operand = self.nested(Self::parse_unary)?;
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    operand: Box::new(operand),
                    line,
                })
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        let outer = std::mem::replace(&mut self.deepest, self.depth);
        let mut expr = self.parse_primary()?;
        loop {
            let line = self.line();
            if self.eat(&TokenKind::LBracket) {
                self.deepen_chain()?;
                let index = self.parse_expr()?;
                self.expect(TokenKind::RBracket)?;
                expr = Expr::Index {
                    base: Box::new(expr),
                    index: Box::new(index),
                    ty: None,
                    line,
                };
            } else if self.eat(&TokenKind::Dot) {
                self.deepen_chain()?;
                let name = self.expect_ident()?;
                if self.eat(&TokenKind::LParen) {
                    let args = self.parse_args()?;
                    expr = Expr::MethodCall {
                        recv: Box::new(expr),
                        method: name,
                        args,
                        ty: None,
                        line,
                    };
                } else {
                    expr = Expr::Field {
                        base: Box::new(expr),
                        field: name,
                        ty: None,
                        line,
                    };
                }
            } else {
                self.deepest = self.deepest.max(outer);
                return Ok(expr);
            }
        }
    }

    fn parse_args(&mut self) -> Result<Vec<Expr>> {
        let mut args = Vec::new();
        while !self.eat(&TokenKind::RParen) {
            args.push(self.parse_expr()?);
            if !self.eat(&TokenKind::Comma) {
                self.expect(TokenKind::RParen)?;
                break;
            }
        }
        Ok(args)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let line = self.line();
        match self.bump() {
            TokenKind::Int(n) => Ok(Expr::IntLit(n, line)),
            TokenKind::Double(x) => Ok(Expr::DoubleLit(x, line)),
            TokenKind::Str(s) => Ok(Expr::StrLit(s, line)),
            TokenKind::KwTrue => Ok(Expr::BoolLit(true, line)),
            TokenKind::KwFalse => Ok(Expr::BoolLit(false, line)),
            TokenKind::LParen => {
                let e = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::KwNew => self.parse_new(line),
            TokenKind::Ident(name) => {
                if self.eat(&TokenKind::LParen) {
                    let args = self.parse_args()?;
                    Ok(Expr::Call {
                        func: name,
                        args,
                        ty: None,
                        line,
                    })
                } else {
                    Ok(Expr::Var {
                        name,
                        ty: None,
                        line,
                    })
                }
            }
            other => Err(Error::parse(
                format!("expected expression, found `{other}`"),
                line,
            )),
        }
    }

    fn parse_new(&mut self, line: u32) -> Result<Expr> {
        match self.bump() {
            TokenKind::KwArrayTy => {
                self.expect(TokenKind::Lt)?;
                let elem_ty = self.parse_type()?;
                self.expect_gt()?;
                self.expect(TokenKind::LParen)?;
                let len = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::NewArray {
                    elem_ty,
                    len: Box::new(len),
                    line,
                })
            }
            TokenKind::KwListTy => {
                self.expect(TokenKind::Lt)?;
                let elem_ty = self.parse_type()?;
                self.expect_gt()?;
                self.expect(TokenKind::LParen)?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::NewList { elem_ty, line })
            }
            TokenKind::KwMapTy => {
                self.expect(TokenKind::Lt)?;
                let key_ty = self.parse_type()?;
                self.expect(TokenKind::Comma)?;
                let val_ty = self.parse_type()?;
                self.expect_gt()?;
                self.expect(TokenKind::LParen)?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::NewMap {
                    key_ty,
                    val_ty,
                    line,
                })
            }
            TokenKind::Ident(name) => {
                self.expect(TokenKind::LParen)?;
                let args = self.parse_args()?;
                Ok(Expr::NewStruct { name, args, line })
            }
            other => Err(Error::parse(
                format!("expected type after `new`, found `{other}`"),
                line,
            )),
        }
    }
}

/// Operator to (BinOp, precedence). Higher binds tighter.
fn bin_op(kind: &TokenKind) -> Option<(BinOp, u8)> {
    use TokenKind::*;
    Some(match kind {
        OrOr => (BinOp::Or, 1),
        AndAnd => (BinOp::And, 2),
        Pipe => (BinOp::BitOr, 3),
        Caret => (BinOp::BitXor, 4),
        Amp => (BinOp::BitAnd, 5),
        EqEq => (BinOp::Eq, 6),
        NotEq => (BinOp::Ne, 6),
        Lt => (BinOp::Lt, 7),
        Gt => (BinOp::Gt, 7),
        Le => (BinOp::Le, 7),
        Ge => (BinOp::Ge, 7),
        Shl => (BinOp::Shl, 8),
        Shr => (BinOp::Shr, 8),
        Plus => (BinOp::Add, 9),
        Minus => (BinOp::Sub, 9),
        Star => (BinOp::Mul, 10),
        Slash => (BinOp::Div, 10),
        Percent => (BinOp::Mod, 10),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Program {
        Parser::new(lex(src).unwrap()).parse_program().unwrap()
    }

    #[test]
    fn parses_row_wise_mean() {
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
        let p = parse(src);
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].name, "rwm");
        assert_eq!(p.functions[0].params.len(), 3);
    }

    #[test]
    fn parses_foreach() {
        let src =
            "fn f(xs: list<int>) -> int { let s: int = 0; for (x in xs) { s = s + x; } return s; }";
        let p = parse(src);
        let body = &p.functions[0].body;
        assert!(matches!(body.stmts[1], Stmt::ForEach { .. }));
    }

    #[test]
    fn parses_struct_and_new() {
        let src = r#"
            struct Point { x: double, y: double }
            fn mk() -> Point { return new Point(1.0, 2.0); }
        "#;
        let p = parse(src);
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].fields.len(), 2);
    }

    #[test]
    fn precedence_mul_over_add() {
        let src = "fn f(a: int, b: int, c: int) -> int { return a + b * c; }";
        let p = parse(src);
        let Stmt::Return {
            value: Some(Expr::Binary { op, rhs, .. }),
            ..
        } = &p.functions[0].body.stmts[0]
        else {
            panic!("expected return of binary expr");
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn precedence_comparison_over_and() {
        let src = "fn f(a: int, b: int) -> bool { return a < b && b < a; }";
        let p = parse(src);
        let Stmt::Return {
            value: Some(Expr::Binary { op, .. }),
            ..
        } = &p.functions[0].body.stmts[0]
        else {
            panic!()
        };
        assert_eq!(*op, BinOp::And);
    }

    #[test]
    fn parses_else_if_chain() {
        let src = r#"
            fn f(x: int) -> int {
                if (x < 0) { return 0; } else if (x < 10) { return 1; } else { return 2; }
            }
        "#;
        let p = parse(src);
        assert!(matches!(p.functions[0].body.stmts[0], Stmt::If { .. }));
    }

    #[test]
    fn parses_method_chains_and_indexing() {
        let src = r#"fn f(lines: list<string>) -> int { return lines.get(0).split().size(); }"#;
        parse(src);
        let src2 = "fn g(m: array<array<int>>) -> int { return m[0][1]; }";
        parse(src2);
    }

    #[test]
    fn rejects_missing_semicolon() {
        let src = "fn f() -> int { let x: int = 1 return x; }";
        assert!(Parser::new(lex(src).unwrap()).parse_program().is_err());
    }

    /// Nesting depth of the rejection tests: far past [`MAX_NESTING`],
    /// and deep enough to overflow the stack of an unbounded parser.
    const DEEP: usize = 100_000;

    fn assert_too_deep(src: &str) {
        let err = crate::compile(src).expect_err("over-deep source must be rejected");
        assert_eq!(err.kind, crate::error::ErrorKind::Parse, "{err}");
        assert!(err.msg.contains("nested deeper"), "{err}");
        assert_eq!(err.line, 1, "{err}");
    }

    #[test]
    fn rejects_deep_parentheses() {
        let (open, close) = ("(".repeat(DEEP), ")".repeat(DEEP));
        assert_too_deep(&format!("fn f() -> int {{ return {open}1{close}; }}"));
    }

    #[test]
    fn rejects_deep_unary_chains() {
        let negs = "- ".repeat(DEEP);
        assert_too_deep(&format!("fn f() -> int {{ return {negs}1; }}"));
        let nots = "!".repeat(DEEP);
        assert_too_deep(&format!("fn f() -> bool {{ return {nots}true; }}"));
    }

    #[test]
    fn rejects_deep_blocks() {
        let (open, close) = ("if (true) { ".repeat(DEEP), "}".repeat(DEEP));
        assert_too_deep(&format!("fn f() -> int {{ {open}{close} return 0; }}"));
    }

    #[test]
    fn rejects_deep_generic_types() {
        let (open, close) = ("array<".repeat(DEEP), ">".repeat(DEEP));
        assert_too_deep(&format!("fn f(x: {open}int{close}) -> int {{ return 0; }}"));
    }

    #[test]
    fn rejects_long_binary_chains() {
        let chain = " + 1".repeat(DEEP);
        assert_too_deep(&format!("fn f() -> int {{ return 1{chain}; }}"));
    }

    #[test]
    fn rejects_long_postfix_chains() {
        let index = "[0]".repeat(DEEP);
        assert_too_deep(&format!(
            "fn f(x: array<int>) -> int {{ return x{index}; }}"
        ));
        let fields = ".a".repeat(DEEP);
        assert_too_deep(&format!(
            "fn f(x: array<int>) -> int {{ return x{fields}; }}"
        ));
    }

    /// A chain of `n` links under `fn` body (level 1), `return` (2) and
    /// its expression (3) puts the leftmost operand at level `3 + n`:
    /// the deepest accepted tree parses and type-checks, one more level
    /// is rejected.
    #[test]
    fn nesting_limit_is_exact() {
        let src = |links: usize| format!("fn f() -> int {{ return 1{}; }}", " + 1".repeat(links));
        crate::compile(&src(MAX_NESTING - 3)).expect("tree at the limit compiles");
        assert_too_deep(&src(MAX_NESTING - 2));
    }

    #[test]
    fn rejects_top_level_garbage() {
        assert!(Parser::new(lex("let x = 1;").unwrap())
            .parse_program()
            .is_err());
    }
}
