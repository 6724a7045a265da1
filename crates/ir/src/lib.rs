//! `casper-ir` — the high-level intermediate representation for program
//! summaries (paper §3.1, Figure 3, Appendix B).
//!
//! A *program summary* is a postcondition describing how each output
//! variable of a sequential code fragment is computed as a pipeline of
//! `map`, `reduce` and `join` operators over the fragment's input data.
//! The IR is:
//!
//! * **succinct** — a handful of operators, so the synthesizer's search
//!   space stays tractable, and
//! * **executable** — [`eval`] gives the IR a deterministic semantics over
//!   [`seqlang::Value`]s, which is what the CEGIS loop's bounded model
//!   checking and the full verifier both run.
//!
//! The [`fold`] module implements the Fold-IR of prior work, re-hosted on
//! this infrastructure exactly as §7.5 describes.

pub mod bytecode;
pub mod compile;
pub mod eval;
pub mod expr;
pub mod fold;
pub mod lambda;
pub mod mr;
pub mod pretty;
pub mod size;

pub use bytecode::Chunk;
pub use compile::{CompiledMrExpr, CompiledSummary};
pub use eval::{eval_summary, EvalCtx};
pub use expr::IrExpr;
pub use lambda::{Emit, MapLambda, ReduceLambda};
pub use mr::{DataShape, DataSource, MrExpr, OutputBinding, OutputKind, ProgramSummary};
