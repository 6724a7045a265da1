//! `seqlang` — the sequential input language for the Casper reproduction.
//!
//! The original Casper consumes Java through the Polyglot frontend. This
//! crate provides the equivalent substrate: a small, statically typed,
//! Java-like imperative language covering exactly the feature set Casper
//! supports (§6.1 of the paper): primitive arithmetic/logical/bit-wise
//! operators, arrays, lists, maps, user-defined struct types, conditionals,
//! `for`/`for-each`/`while` loops, and calls to a modelled standard library.
//!
//! The crate provides:
//! * [`lexer`] / [`parser`] — source text to AST,
//! * [`ast`] — the abstract syntax tree,
//! * [`ty`] — types and the type checker,
//! * [`value`] / [`mod@env`] — runtime values and variable environments,
//! * [`interp`] — a tree-walking interpreter (the "sequential Java"
//!   execution baseline; it also counts abstract work for the cluster
//!   simulator),
//! * [`ops`] — the scalar operators' semantics, which every engine calls,
//! * [`normalize`] — the classical loop normalisation Casper applies
//!   before generating verification conditions.

pub mod ast;
pub mod buf;
pub mod env;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod normalize;
pub mod ops;
pub mod parser;
pub mod token;
pub mod ty;
pub mod value;

pub use ast::{BinOp, Block, Expr, Function, Program, Stmt, StructDef, UnOp};
pub use buf::{FastCombine, RecordArena, ValueBuf, ValueRef};
pub use env::Env;
pub use error::{Error, Result};
pub use interp::{ExecStats, Interp};
pub use ty::{Type, TypeChecker};
pub use value::Value;

/// Parse and type-check a complete program in one call.
pub fn compile(src: &str) -> Result<Program> {
    let tokens = lexer::lex(src)?;
    let mut program = parser::Parser::new(tokens).parse_program()?;
    TypeChecker::new(&program).check(&mut program)?;
    Ok(program)
}
