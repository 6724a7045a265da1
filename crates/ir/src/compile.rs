//! Compiled candidate evaluation: lower a summary once, run it many times.
//!
//! The CEGIS screening loop evaluates every candidate summary against the
//! whole counter-example set Φ and the bounded domain — the same small
//! expression trees are re-walked thousands of times. [`CompiledSummary`]
//! lowers a [`ProgramSummary`] exactly once: every λ-parameter reference
//! is resolved to a slot index at compile time, constants are
//! materialised, and each expression body becomes one flat bytecode
//! [`Chunk`] run by the VM of [`crate::bytecode`]. The compiled form is
//! semantically identical to the tree-walking reference
//! [`crate::eval::eval_summary`] (both share the output-reconstruction
//! code in [`crate::eval`]), which is what keeps the synthesizer's
//! screening counters bit-identical to the reference evaluator's.
//!
//! ```
//! use casper_ir::compile::CompiledSummary;
//! use casper_ir::expr::IrExpr;
//! use casper_ir::lambda::{Emit, MapLambda, ReduceLambda};
//! use casper_ir::mr::{DataSource, MrExpr, OutputKind, ProgramSummary};
//! use seqlang::ast::BinOp;
//! use seqlang::ty::Type;
//! use seqlang::value::Value;
//! use seqlang::Env;
//!
//! // s = reduce(map(xs, x -> (0, x)), +)
//! let m = MapLambda::new(
//!     vec!["x"],
//!     vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("x"))],
//! );
//! let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
//!     .map(m)
//!     .reduce(ReduceLambda::binop(BinOp::Add));
//! let summary = ProgramSummary::single("s", expr, OutputKind::Scalar);
//!
//! let compiled = CompiledSummary::compile(&summary);
//! let mut state = Env::new();
//! state.set("xs", Value::List((1..=4).map(Value::Int).collect()));
//! state.set("s", Value::Int(0));
//!
//! let out = compiled.eval(&state).unwrap();
//! assert_eq!(out.get("s"), Some(&Value::Int(10)));
//! // Bit-identical to the tree-walking reference evaluator.
//! assert_eq!(out, casper_ir::eval::eval_summary(&summary, &state).unwrap());
//! ```

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use seqlang::ast::BinOp;
use seqlang::buf::{FastCombine, RecordArena, StateCellEntry, ValueBuf};
use seqlang::error::{Error, Result};
use seqlang::ops::{self, Scalar};
use seqlang::value::Value;
use seqlang::Env;

use crate::bytecode::Chunk;
use crate::eval::{eval_data, eval_join, reconstruct_output, Row};
use crate::expr::IrExpr;
use crate::lambda::{MapLambda, ReduceLambda};
use crate::mr::{DataSource, MrExpr, OutputKind, ProgramSummary};

/// Where a compiled emit expression gets its value from, decided at
/// compile time. `Slot` and `Const` let the buffer-backed data plane copy
/// cells between partition buffers without ever materializing a `Value`;
/// `Cell` evaluates a small arithmetic/comparison tree directly over
/// inline scalar cells (punting to the expression's [`Chunk`] per record
/// when an operand is not an inline scalar or an error path is hit); only
/// `Dynamic` expressions always run their chunk.
enum EmitSrc {
    /// The bare λ parameter at this frame slot.
    Slot(usize),
    /// A literal, materialized once at compile time.
    Const(Value),
    /// A raw-cell program over slots, inline constants, and resolved
    /// state scalars.
    Cell(CellExpr),
    /// Anything else: run the compiled expression program.
    Dynamic,
}

impl EmitSrc {
    fn classify<P: AsRef<str>>(e: &IrExpr, params: &[P]) -> EmitSrc {
        match e {
            IrExpr::Var(name) => match params.iter().rposition(|p| p.as_ref() == name) {
                Some(slot) => EmitSrc::Slot(slot),
                None => EmitSrc::Dynamic,
            },
            IrExpr::ConstInt(n) => EmitSrc::Const(Value::Int(*n)),
            IrExpr::ConstDouble(x) => EmitSrc::Const(Value::Double(x.0)),
            IrExpr::ConstBool(b) => EmitSrc::Const(Value::Bool(*b)),
            IrExpr::ConstStr(s) => EmitSrc::Const(Value::str(s.as_str())),
            _ => EmitSrc::Dynamic,
        }
    }

    /// [`classify`](Self::classify), then try to lower a `Dynamic`
    /// binary-operator tree to a raw-cell program. State variables the
    /// program reads are registered in `state_vars` (deduplicated); the λ
    /// resolves them to cells once per partition pass.
    fn classify_cell<P: AsRef<str>>(
        e: &IrExpr,
        params: &[P],
        state_vars: &mut Vec<String>,
    ) -> EmitSrc {
        match EmitSrc::classify(e, params) {
            EmitSrc::Dynamic => match e {
                IrExpr::Bin(op, _, _) if cell_op_supported(*op) => {
                    match CellExpr::classify(e, params, state_vars) {
                        Some(prog) => EmitSrc::Cell(prog),
                        None => EmitSrc::Dynamic,
                    }
                }
                _ => EmitSrc::Dynamic,
            },
            other => other,
        }
    }
}

/// A small expression lowered to run directly over inline scalar cells
/// through [`ops::binop`] — no `Value` materialization, no frame, no
/// boxing. Evaluation returns `None` ("punt") on a non-inline operand or
/// wherever `ops::binop` is undefined (the error paths of
/// [`eval_binop`](seqlang::interp::eval_binop), such as integer division
/// by zero), and the caller falls back to the expression's [`Chunk`] for
/// that record, which raises the exact error.
enum CellExpr {
    /// λ-parameter cell at this slot (punts on non-inline tags).
    Slot(usize),
    /// Resolved state scalar at this index of the λ's state-cell frame.
    State(usize),
    /// An inline literal.
    Const(Scalar),
    Bin(BinOp, Box<CellExpr>, Box<CellExpr>),
}

/// Operators a cell program evaluates. `And`/`Or` are excluded
/// (short-circuit evaluation order).
fn cell_op_supported(op: BinOp) -> bool {
    !matches!(op, BinOp::And | BinOp::Or)
}

impl CellExpr {
    fn classify<P: AsRef<str>>(
        e: &IrExpr,
        params: &[P],
        state_vars: &mut Vec<String>,
    ) -> Option<CellExpr> {
        match e {
            IrExpr::Var(name) => match params.iter().rposition(|p| p.as_ref() == name) {
                Some(slot) => Some(CellExpr::Slot(slot)),
                None => {
                    let idx = match state_vars.iter().position(|v| v == name) {
                        Some(i) => i,
                        None => {
                            state_vars.push(name.clone());
                            state_vars.len() - 1
                        }
                    };
                    Some(CellExpr::State(idx))
                }
            },
            IrExpr::ConstInt(n) => Some(CellExpr::Const(Scalar::Int(*n))),
            IrExpr::ConstDouble(x) => Some(CellExpr::Const(Scalar::Double(x.0))),
            IrExpr::ConstBool(b) => Some(CellExpr::Const(Scalar::Bool(*b))),
            IrExpr::Bin(op, l, r) if cell_op_supported(*op) => {
                let lc = CellExpr::classify(l, params, state_vars)?;
                let rc = CellExpr::classify(r, params, state_vars)?;
                Some(CellExpr::Bin(*op, Box::new(lc), Box::new(rc)))
            }
            _ => None,
        }
    }

    /// Evaluate over row `row` of `src` and the λ's resolved state cells.
    /// `None` = punt to the expression engine for this record.
    fn eval(&self, src: &ValueBuf, row: usize, state_cells: &[Option<Scalar>]) -> Option<Scalar> {
        match self {
            CellExpr::Slot(slot) => Scalar::from_cell(src.cell_raw(row, *slot)),
            CellExpr::State(idx) => state_cells[*idx],
            CellExpr::Const(s) => Some(*s),
            CellExpr::Bin(op, l, r) => ops::binop(
                *op,
                l.eval(src, row, state_cells)?,
                r.eval(src, row, state_cells)?,
            ),
        }
    }
}

/// One compiled emit statement of a map transformer.
struct CompiledEmit {
    cond: Option<Chunk>,
    cond_src: Option<EmitSrc>,
    key: Chunk,
    key_src: EmitSrc,
    val: Chunk,
    val_src: EmitSrc,
}

/// A pending output cell of the buffered λ application: computed in
/// source order (key before value, so error identity matches the boxed
/// path) but committed to the output buffer only once both exist.
enum PendingCell<'a> {
    Copy(usize),
    Borrowed(&'a Value),
    Scalar(Scalar),
    Owned(Value),
}

impl PendingCell<'_> {
    fn commit(self, src: &ValueBuf, row: usize, out: &mut ValueBuf) {
        match self {
            PendingCell::Copy(slot) => out.copy_cell_from(src, row, slot),
            PendingCell::Borrowed(v) => out.push_value(v),
            PendingCell::Scalar(s) => {
                let (tag, word) = s.cell();
                out.push_raw_cell(tag, word)
            }
            PendingCell::Owned(v) => out.push_value(&v),
        }
    }
}

/// A map transformer λm lowered once to slot-resolved bytecode: parameter
/// references become frame-slot reads, so applying the λ to a record is a
/// handful of chunk runs — no `Env` clone, no name hashing, no tree
/// walk. Shared by [`CompiledSummary`] and the execution data plane
/// (`codegen::plan`'s fused stages), so the two lowerings cannot diverge.
pub struct CompiledMapLambda {
    arity: usize,
    emits: Vec<CompiledEmit>,
    /// State variables the λ's cell programs read, in registration order;
    /// resolved to raw cells once per (arena, state) pass.
    cell_state_vars: Vec<String>,
    /// Whether any emit lowered to a [`EmitSrc::Cell`] program.
    has_cell_emits: bool,
    /// Process-unique compile id keying the arena's state-cell cache.
    id: u64,
}

/// Compile ids for [`CompiledMapLambda`]; only used as cache keys, never
/// ordered or persisted, so a relaxed global counter is fine.
static NEXT_LAMBDA_ID: AtomicU64 = AtomicU64::new(1);

impl CompiledMapLambda {
    /// Lower `lambda`, resolving its parameters to frame slots.
    pub fn compile(lambda: &MapLambda) -> CompiledMapLambda {
        let (emits, cell_state_vars) = compile_map(lambda);
        let has_cell_emits = emits.iter().any(|e| {
            matches!(e.cond_src, Some(EmitSrc::Cell(_)))
                || matches!(e.key_src, EmitSrc::Cell(_))
                || matches!(e.val_src, EmitSrc::Cell(_))
        });
        CompiledMapLambda {
            arity: lambda.params.len(),
            emits,
            cell_state_vars,
            has_cell_emits,
            id: NEXT_LAMBDA_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Number of record fields the λ binds.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Apply the λ to one record frame, appending the emitted key/value
    /// pairs to `out`. Guard and shape errors propagate exactly like the
    /// tree-walking evaluator's.
    pub fn apply_into(
        &self,
        row: &[Value],
        state: &Env,
        out: &mut Vec<(Value, Value)>,
    ) -> Result<()> {
        if row.len() != self.arity {
            return Err(Error::runtime(format!(
                "map λ expects {} params, record has {} fields",
                self.arity,
                row.len()
            )));
        }
        for emit in &self.emits {
            let fire = match &emit.cond {
                Some(c) => c
                    .run(row, state)?
                    .as_bool()
                    .ok_or_else(|| Error::runtime("emit guard not a bool"))?,
                None => true,
            };
            if fire {
                let k = emit.key.run(row, state)?;
                let v = emit.val.run(row, state)?;
                out.push((k, v));
            }
        }
        Ok(())
    }

    /// Apply the λ to row `row` of a partition buffer, appending the
    /// emitted key/value cells to `out` — the buffered counterpart of
    /// [`apply_into`](Self::apply_into), with identical value, error, and
    /// evaluation-order semantics. Slot and constant emits copy cells
    /// directly between buffers; only dynamic expressions materialize the
    /// record into `arena` (once per record, lazily) and box their result.
    pub fn apply_into_buf(
        &self,
        src: &ValueBuf,
        row: usize,
        state: &Env,
        out: &mut ValueBuf,
        arena: &mut RecordArena,
    ) -> Result<()> {
        if src.width() != self.arity {
            return Err(Error::runtime(format!(
                "map λ expects {} params, record has {} fields",
                self.arity,
                src.width()
            )));
        }
        let mut have_locals = false;
        // Resolve the cell programs' state scalars once per (arena, state)
        // pass; `usize::MAX` = no resolved frame needed.
        let cell_idx = if self.has_cell_emits && !self.cell_state_vars.is_empty() {
            self.state_cell_index(arena, state)
        } else {
            usize::MAX
        };
        for emit in &self.emits {
            let fire = match (&emit.cond_src, &emit.cond) {
                (None, _) => true,
                (Some(EmitSrc::Slot(slot)), _) => src
                    .get(row, *slot)
                    .as_bool()
                    .ok_or_else(|| Error::runtime("emit guard not a bool"))?,
                (Some(EmitSrc::Const(v)), _) => v
                    .as_bool()
                    .ok_or_else(|| Error::runtime("emit guard not a bool"))?,
                (Some(EmitSrc::Cell(prog)), Some(c)) => {
                    let res = prog.eval(src, row, resolved_cells(arena, cell_idx));
                    match res {
                        Some(Scalar::Bool(b)) => b,
                        // Punt (or a non-bool guard value): the engine
                        // reproduces the exact value or error.
                        _ => {
                            materialize_locals(src, row, arena, &mut have_locals);
                            c.run(&arena.locals, state)?
                                .as_bool()
                                .ok_or_else(|| Error::runtime("emit guard not a bool"))?
                        }
                    }
                }
                (Some(EmitSrc::Dynamic), Some(c)) => {
                    materialize_locals(src, row, arena, &mut have_locals);
                    c.run(&arena.locals, state)?
                        .as_bool()
                        .ok_or_else(|| Error::runtime("emit guard not a bool"))?
                }
                (Some(EmitSrc::Cell(_) | EmitSrc::Dynamic), None) => {
                    unreachable!("computed cond without program")
                }
            };
            if !fire {
                continue;
            }
            let key = self.pending_cell(
                &emit.key_src,
                &emit.key,
                src,
                row,
                state,
                arena,
                cell_idx,
                &mut have_locals,
            )?;
            let val = self.pending_cell(
                &emit.val_src,
                &emit.val,
                src,
                row,
                state,
                arena,
                cell_idx,
                &mut have_locals,
            )?;
            key.commit(src, row, out);
            val.commit(src, row, out);
        }
        Ok(())
    }

    /// Index of this λ's resolved state-cell frame in `arena`, resolving
    /// it on first use. Values with no inline cell form (strings,
    /// collections, unbound names) resolve to a punt sentinel, so the
    /// per-record fallback reproduces their exact semantics.
    fn state_cell_index(&self, arena: &mut RecordArena, state: &Env) -> usize {
        let env_ptr = state as *const Env as usize;
        if let Some(i) = arena
            .state_cells
            .iter()
            .position(|e| e.owner == self.id && e.env_ptr == env_ptr)
        {
            return i;
        }
        let cells = self
            .cell_state_vars
            .iter()
            .map(|name| state.get(name).and_then(Scalar::of))
            .collect();
        arena.state_cells.push(StateCellEntry {
            owner: self.id,
            env_ptr,
            cells,
        });
        arena.state_cells.len() - 1
    }

    #[allow(clippy::too_many_arguments)]
    fn pending_cell<'e>(
        &self,
        src_kind: &'e EmitSrc,
        program: &Chunk,
        src: &ValueBuf,
        row: usize,
        state: &Env,
        arena: &mut RecordArena,
        cell_idx: usize,
        have_locals: &mut bool,
    ) -> Result<PendingCell<'e>> {
        Ok(match src_kind {
            EmitSrc::Slot(slot) => PendingCell::Copy(*slot),
            EmitSrc::Const(v) => PendingCell::Borrowed(v),
            EmitSrc::Cell(prog) => {
                let res = prog.eval(src, row, resolved_cells(arena, cell_idx));
                match res {
                    Some(s) => PendingCell::Scalar(s),
                    None => {
                        materialize_locals(src, row, arena, have_locals);
                        let v = program.run(&arena.locals, state)?;
                        arena.allocs += 1;
                        PendingCell::Owned(v)
                    }
                }
            }
            EmitSrc::Dynamic => {
                materialize_locals(src, row, arena, have_locals);
                let v = program.run(&arena.locals, state)?;
                arena.allocs += 1;
                PendingCell::Owned(v)
            }
        })
    }
}

/// The λ's resolved state-cell frame, or the empty frame when the λ's
/// cell programs read no state.
fn resolved_cells(arena: &RecordArena, cell_idx: usize) -> &[Option<Scalar>] {
    if cell_idx == usize::MAX {
        &[]
    } else {
        &arena.state_cells[cell_idx].cells
    }
}

/// Materialize the record's cells into the arena frame, once per record
/// (`have_locals` latches). Counts one `Value` materialization per field.
fn materialize_locals(src: &ValueBuf, row: usize, arena: &mut RecordArena, have_locals: &mut bool) {
    if *have_locals {
        return;
    }
    arena.begin_record();
    for col in 0..src.width() {
        arena.locals.push(src.get(row, col).to_value());
    }
    arena.allocs += src.width() as u64;
    *have_locals = true;
}

/// A reduce transformer λr lowered once to a slot-resolved chunk;
/// combining two values is a single chunk run over a two-slot frame.
pub struct CompiledReduceLambda {
    body: Chunk,
    fast: Option<FastCombine>,
}

impl CompiledReduceLambda {
    /// Lower `lambda`, resolving `v1`/`v2` to frame slots.
    pub fn compile(lambda: &ReduceLambda) -> CompiledReduceLambda {
        CompiledReduceLambda {
            body: Chunk::compile(&lambda.body, &lambda.params),
            fast: classify_fast_combine(lambda),
        }
    }

    /// The raw-cell combine operator this λ lowers to, when its body is a
    /// commutative-associative numeric primitive over exactly the two
    /// parameters. The buffered reducer applies it in place on inline
    /// cells; any cell pairing the fast path declines (and any λ this
    /// returns `None` for) goes through [`combine`](Self::combine), so
    /// value and error semantics are unchanged.
    pub fn fast_combine(&self) -> Option<FastCombine> {
        self.fast
    }

    /// Combine two values.
    pub fn combine(&self, v1: Value, v2: Value, state: &Env) -> Result<Value> {
        self.body.run(&[v1, v2], state)
    }
}

/// A compiled MR pipeline stage.
enum Stage {
    Data(DataSource),
    Map {
        inner: Box<Stage>,
        lambda: CompiledMapLambda,
    },
    Reduce {
        inner: Box<Stage>,
        lambda: CompiledReduceLambda,
    },
    Join {
        left: Box<Stage>,
        right: Box<Stage>,
    },
}

/// A single MR pipeline expression lowered to slot-resolved bytecode,
/// evaluatable to its key/value multiset against any program state —
/// the compiled counterpart of [`crate::eval::EvalCtx::eval_mr`]. The
/// verifier uses this to harvest the concrete values entering each
/// reduce stage without tree-walking the sub-pipeline per state, and the
/// runtime monitor to profile a plan's nodes on its input sample
/// ([`eval_nodes`](CompiledMrExpr::eval_nodes)).
pub struct CompiledMrExpr {
    stage: Stage,
}

impl CompiledMrExpr {
    /// Lower `expr` once.
    pub fn compile(expr: &MrExpr) -> CompiledMrExpr {
        CompiledMrExpr {
            stage: compile_stage(expr),
        }
    }

    /// Evaluate to the pipeline's record multiset — behaviourally
    /// identical to the tree-walking `eval_mr` on the source expression.
    pub fn eval(&self, state: &Env) -> Result<Vec<Vec<Value>>> {
        run_stage(&self.stage, state)
    }

    /// Evaluate every node of the pipeline once, bottom-up, and return
    /// each node's rows in post-order (the order of [`MrExpr::walk`]; the
    /// root's rows come last). A node that fails yields no rows, and no
    /// stage makes rows out of none, so every entry equals
    /// `eval_mr(sub).unwrap_or_default()` of its sub-expression — without
    /// re-running the sub-pipeline below it. [`NodeRows::failed`] tells an
    /// empty root from a failed one.
    pub fn eval_nodes(&self, state: &Env) -> NodeRows {
        let mut nodes = NodeRows {
            rows: Vec::new(),
            failed: false,
        };
        push_nodes(&self.stage, state, &mut nodes);
        nodes
    }
}

/// Every node's rows from [`CompiledMrExpr::eval_nodes`].
#[derive(Debug)]
pub struct NodeRows {
    /// Each node's rows, in post-order; the root's come last.
    pub rows: Vec<Vec<Vec<Value>>>,
    /// Some node failed. Its entry and those of the nodes above it are
    /// empty, so the root's rows are not the pipeline's output.
    pub failed: bool,
}

/// A program summary lowered to slot-resolved bytecode, evaluatable
/// against any program state. See the [module docs](self) for an example.
pub struct CompiledSummary {
    bindings: Vec<CompiledBinding>,
}

struct CompiledBinding {
    vars: Vec<String>,
    kind: OutputKind,
    stage: Stage,
}

impl CompiledSummary {
    /// Lower every binding of `summary`.
    pub fn compile(summary: &ProgramSummary) -> CompiledSummary {
        CompiledSummary {
            bindings: summary
                .bindings
                .iter()
                .map(|b| CompiledBinding {
                    vars: b.vars.clone(),
                    kind: b.kind.clone(),
                    stage: compile_stage(&b.expr),
                })
                .collect(),
        }
    }

    /// Evaluate against a concrete pre-loop state, returning the computed
    /// outputs — behaviourally identical to [`crate::eval::eval_summary`]
    /// on the summary this was compiled from.
    pub fn eval(&self, state: &Env) -> Result<Env> {
        let mut out = Env::new();
        for binding in &self.bindings {
            let rows = run_stage(&binding.stage, state)?;
            reconstruct_output(state, &binding.vars, &binding.kind, &rows, &mut out)?;
        }
        Ok(out)
    }
}

fn compile_stage(expr: &MrExpr) -> Stage {
    match expr {
        MrExpr::Data(src) => Stage::Data(src.clone()),
        MrExpr::Map(inner, lambda) => Stage::Map {
            inner: Box::new(compile_stage(inner)),
            lambda: CompiledMapLambda::compile(lambda),
        },
        MrExpr::Reduce(inner, lambda) => Stage::Reduce {
            inner: Box::new(compile_stage(inner)),
            lambda: CompiledReduceLambda::compile(lambda),
        },
        MrExpr::Join(l, r) => Stage::Join {
            left: Box::new(compile_stage(l)),
            right: Box::new(compile_stage(r)),
        },
    }
}

fn compile_map(lambda: &MapLambda) -> (Vec<CompiledEmit>, Vec<String>) {
    let mut state_vars = Vec::new();
    let emits = lambda
        .emits
        .iter()
        .map(|emit| CompiledEmit {
            cond: emit
                .cond
                .as_ref()
                .map(|c| Chunk::compile(c, &lambda.params)),
            cond_src: emit
                .cond
                .as_ref()
                .map(|c| EmitSrc::classify_cell(c, &lambda.params, &mut state_vars)),
            key: Chunk::compile(&emit.key, &lambda.params),
            key_src: EmitSrc::classify_cell(&emit.key, &lambda.params, &mut state_vars),
            val: Chunk::compile(&emit.val, &lambda.params),
            val_src: EmitSrc::classify_cell(&emit.val, &lambda.params, &mut state_vars),
        })
        .collect();
    (emits, state_vars)
}

/// Recognise reduce bodies of the shape `v1 ⊕ v2` (`+`, `-`, `*`) or
/// `min(v1, v2)` / `max(v1, v2)` — the exact parameter order matters for
/// `-`. These are the only bodies whose semantics [`FastCombine`]
/// reproduces bit-for-bit on inline numeric cells (wrapping `Int`
/// arithmetic, `Double` promotion, Rust `min`/`max`); `/` and `%` are
/// excluded because they carry error paths.
fn classify_fast_combine(lambda: &ReduceLambda) -> Option<FastCombine> {
    let slot = |e: &IrExpr| match e {
        IrExpr::Var(name) => lambda.params.iter().rposition(|p| p == name),
        _ => None,
    };
    match &lambda.body {
        IrExpr::Bin(op, l, r) if slot(l) == Some(0) && slot(r) == Some(1) => match op {
            BinOp::Add => Some(FastCombine::Add),
            BinOp::Sub => Some(FastCombine::Sub),
            BinOp::Mul => Some(FastCombine::Mul),
            _ => None,
        },
        IrExpr::Call(name, args)
            if args.len() == 2 && slot(&args[0]) == Some(0) && slot(&args[1]) == Some(1) =>
        {
            match name.as_str() {
                "min" => Some(FastCombine::Min),
                "max" => Some(FastCombine::Max),
                _ => None,
            }
        }
        _ => None,
    }
}

fn run_stage(stage: &Stage, state: &Env) -> Result<Vec<Row>> {
    match stage {
        Stage::Data(src) => eval_data(state, src),
        Stage::Map { inner, lambda } => map_rows(lambda, &run_stage(inner, state)?, state),
        Stage::Reduce { inner, lambda } => reduce_rows(lambda, &run_stage(inner, state)?, state),
        Stage::Join { left, right } => {
            let l = run_stage(left, state)?;
            let r = run_stage(right, state)?;
            eval_join(&l, &r)
        }
    }
}

/// [`CompiledMrExpr::eval_nodes`]: push `stage`'s subtree in post-order,
/// each node computed from its children's entries.
fn push_nodes(stage: &Stage, state: &Env, nodes: &mut NodeRows) {
    let rows = match stage {
        Stage::Data(src) => eval_data(state, src),
        Stage::Map { inner, lambda } => {
            push_nodes(inner, state, nodes);
            map_rows(lambda, nodes.rows.last().expect("inner node"), state)
        }
        Stage::Reduce { inner, lambda } => {
            push_nodes(inner, state, nodes);
            reduce_rows(lambda, nodes.rows.last().expect("inner node"), state)
        }
        Stage::Join { left, right } => {
            push_nodes(left, state, nodes);
            let l = nodes.rows.len() - 1;
            push_nodes(right, state, nodes);
            eval_join(&nodes.rows[l], nodes.rows.last().expect("right node"))
        }
    };
    nodes.failed |= rows.is_err();
    nodes.rows.push(rows.unwrap_or_default());
}

fn map_rows(lambda: &CompiledMapLambda, input: &[Row], state: &Env) -> Result<Vec<Row>> {
    let mut out = Vec::with_capacity(input.len());
    let mut pairs = Vec::new();
    for row in input {
        pairs.clear();
        lambda.apply_into(row, state, &mut pairs)?;
        for (k, v) in pairs.drain(..) {
            out.push(vec![k, v]);
        }
    }
    Ok(out)
}

/// Fold each key's values in input order, keys in first-appearance order:
/// the semantics of [`crate::eval::group_by_key`] followed by a serial fold,
/// but grouping row indices by borrowed key, so only each key and the
/// values the combiner consumes are cloned. Every row is checked to be a
/// key/value pair before any combine runs, as `group_by_key` does.
fn reduce_rows(lambda: &CompiledReduceLambda, input: &[Row], state: &Env) -> Result<Vec<Row>> {
    const END: usize = usize::MAX;
    // Per key, its first and last row; per row, the next row of its key.
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut next = vec![END; input.len()];
    let mut index: HashMap<&Value, usize> = HashMap::new();
    for (i, row) in input.iter().enumerate() {
        let [k, _] = row.as_slice() else {
            return Err(Error::runtime("reduce input is not key/value"));
        };
        match index.entry(k) {
            Entry::Occupied(g) => {
                let (_, last) = &mut groups[*g.get()];
                next[*last] = i;
                *last = i;
            }
            Entry::Vacant(g) => {
                g.insert(groups.len());
                groups.push((i, i));
            }
        }
    }
    let mut out = Vec::with_capacity(groups.len());
    for (first, _) in groups {
        let mut acc = input[first][1].clone();
        let mut i = next[first];
        while i != END {
            acc = lambda.combine(acc, input[i][1].clone(), state)?;
            i = next[i];
        }
        out.push(vec![input[first][0].clone(), acc]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_summary;
    use crate::lambda::Emit;
    use crate::mr::OutputBinding;
    use seqlang::ty::Type;

    fn state(pairs: &[(&str, Value)]) -> Env {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// Compiled evaluation must agree exactly with the tree walk,
    /// including on error outcomes and error identity.
    fn assert_agrees(summary: &ProgramSummary, st: &Env) {
        let compiled = CompiledSummary::compile(summary);
        match (eval_summary(summary, st), compiled.eval(st)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "outputs diverge"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "error identity diverges"),
            (a, b) => panic!("agreement broken: tree-walk {a:?} vs compiled {b:?}"),
        }
    }

    fn sum_summary() -> ProgramSummary {
        let m = MapLambda::new(
            vec!["v"],
            vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("v"))],
        );
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(m)
            .reduce(ReduceLambda::binop(BinOp::Add));
        ProgramSummary::single("s", expr, OutputKind::Scalar)
    }

    #[test]
    fn compiled_sum_matches_tree_walk() {
        let st = state(&[
            (
                "xs",
                Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            ),
            ("s", Value::Int(0)),
        ]);
        assert_agrees(&sum_summary(), &st);
        let empty = state(&[("xs", Value::List(vec![])), ("s", Value::Int(17))]);
        assert_agrees(&sum_summary(), &empty);
    }

    #[test]
    fn compiled_three_stage_pipeline_with_free_vars() {
        // Row-wise mean: the final map divides by the free variable `cols`.
        let m1 = MapLambda::new(
            vec!["i", "j", "v"],
            vec![Emit::unconditional(IrExpr::var("i"), IrExpr::var("v"))],
        );
        let m2 = MapLambda::new(
            vec!["k", "v"],
            vec![Emit::unconditional(
                IrExpr::var("k"),
                IrExpr::bin(BinOp::Div, IrExpr::var("v"), IrExpr::var("cols")),
            )],
        );
        let expr = MrExpr::Data(DataSource::indexed_2d("mat", Type::Int))
            .map(m1)
            .reduce(ReduceLambda::binop(BinOp::Add))
            .map(m2);
        let summary = ProgramSummary::single(
            "m",
            expr,
            OutputKind::AssocArray {
                len_var: "rows".into(),
            },
        );
        let st = state(&[
            (
                "mat",
                Value::Array(vec![
                    Value::Array(vec![Value::Int(1), Value::Int(3)]),
                    Value::Array(vec![Value::Int(10), Value::Int(20)]),
                ]),
            ),
            ("rows", Value::Int(2)),
            ("cols", Value::Int(2)),
            ("m", Value::Array(vec![Value::Int(0), Value::Int(0)])),
        ]);
        assert_agrees(&summary, &st);
        let out = CompiledSummary::compile(&summary).eval(&st).unwrap();
        assert_eq!(
            out.get("m"),
            Some(&Value::Array(vec![Value::Int(2), Value::Int(15)]))
        );
    }

    #[test]
    fn compiled_guarded_emits_and_join() {
        // dot product over joined indexed sources with a guard.
        let m = MapLambda::new(
            vec!["k", "v"],
            vec![Emit::guarded(
                IrExpr::bin(BinOp::Gt, IrExpr::tget(IrExpr::var("v"), 0), IrExpr::int(0)),
                IrExpr::int(0),
                IrExpr::bin(
                    BinOp::Mul,
                    IrExpr::tget(IrExpr::var("v"), 0),
                    IrExpr::tget(IrExpr::var("v"), 1),
                ),
            )],
        );
        let expr = MrExpr::Data(DataSource::indexed("xs", Type::Int))
            .join(MrExpr::Data(DataSource::indexed("ys", Type::Int)))
            .map(m)
            .reduce(ReduceLambda::binop(BinOp::Add));
        let summary = ProgramSummary::single("dot", expr, OutputKind::Scalar);
        let st = state(&[
            (
                "xs",
                Value::Array(vec![Value::Int(-1), Value::Int(2), Value::Int(3)]),
            ),
            (
                "ys",
                Value::Array(vec![Value::Int(5), Value::Int(6), Value::Int(7)]),
            ),
            ("dot", Value::Int(0)),
        ]);
        assert_agrees(&summary, &st);
    }

    #[test]
    fn compiled_scalar_tuple_and_shadowing() {
        // A λ parameter named like a state variable must shadow it.
        let m = MapLambda::new(
            vec!["key1"],
            vec![Emit::unconditional(
                IrExpr::int(0),
                IrExpr::Tuple(vec![
                    IrExpr::bin(BinOp::Eq, IrExpr::var("key1"), IrExpr::var("needle")),
                    IrExpr::ConstBool(false),
                ]),
            )],
        );
        let r = ReduceLambda::new(IrExpr::Tuple(vec![
            IrExpr::bin(
                BinOp::Or,
                IrExpr::tget(IrExpr::var("v1"), 0),
                IrExpr::tget(IrExpr::var("v2"), 0),
            ),
            IrExpr::bin(
                BinOp::Or,
                IrExpr::tget(IrExpr::var("v1"), 1),
                IrExpr::tget(IrExpr::var("v2"), 1),
            ),
        ]));
        let expr = MrExpr::Data(DataSource::flat("text", Type::Str))
            .map(m)
            .reduce(r);
        let summary = ProgramSummary {
            bindings: vec![OutputBinding {
                vars: vec!["f1".into(), "f2".into()],
                expr,
                kind: OutputKind::ScalarTuple,
            }],
        };
        let st = state(&[
            (
                "text",
                Value::List(vec![Value::str("a"), Value::str("cat")]),
            ),
            ("key1", Value::str("decoy")),
            ("needle", Value::str("cat")),
            ("f1", Value::Bool(false)),
            ("f2", Value::Bool(false)),
        ]);
        assert_agrees(&summary, &st);
        let out = CompiledSummary::compile(&summary).eval(&st).unwrap();
        assert_eq!(out.get("f1"), Some(&Value::Bool(true)));
    }

    #[test]
    fn compiled_errors_match_tree_walk_errors() {
        // Division by a zero-valued free variable faults both evaluators.
        let m = MapLambda::new(
            vec!["v"],
            vec![Emit::unconditional(
                IrExpr::int(0),
                IrExpr::bin(BinOp::Div, IrExpr::var("v"), IrExpr::var("z")),
            )],
        );
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(m)
            .reduce(ReduceLambda::binop(BinOp::Add));
        let summary = ProgramSummary::single("s", expr, OutputKind::Scalar);
        let st = state(&[
            ("xs", Value::List(vec![Value::Int(1)])),
            ("z", Value::Int(0)),
            ("s", Value::Int(0)),
        ]);
        assert_agrees(&summary, &st);
        assert!(CompiledSummary::compile(&summary).eval(&st).is_err());
        // Unbound variables error in both too.
        let st2 = state(&[
            ("xs", Value::List(vec![Value::Int(1)])),
            ("s", Value::Int(0)),
        ]);
        assert_agrees(&summary, &st2);
    }

    #[test]
    fn compiled_mr_expr_matches_tree_walk_rows() {
        // The sub-pipeline feeding the reduce, evaluated standalone.
        let summary = sum_summary();
        let MrExpr::Reduce(inner, _) = &summary.bindings[0].expr else {
            panic!("sum summary ends in a reduce");
        };
        let st = state(&[
            (
                "xs",
                Value::List(vec![Value::Int(4), Value::Int(7), Value::Int(-2)]),
            ),
            ("s", Value::Int(0)),
        ]);
        let compiled = CompiledMrExpr::compile(inner);
        let rows = compiled.eval(&st).unwrap();
        let reference = crate::eval::EvalCtx::new(&st).eval_mr(inner).unwrap();
        assert_eq!(rows, reference);
        // Errors propagate identically too.
        let missing = state(&[("s", Value::Int(0))]);
        assert!(compiled.eval(&missing).is_err());
        assert!(crate::eval::EvalCtx::new(&missing).eval_mr(inner).is_err());

        // Per node, post-order: source, map, reduce; a failing source
        // leaves every node above it empty.
        let whole = &summary.bindings[0].expr;
        let nodes = CompiledMrExpr::compile(whole).eval_nodes(&st);
        assert!(!nodes.failed);
        assert_eq!(nodes.rows.len(), 3);
        assert_eq!(nodes.rows[1], reference);
        assert_eq!(nodes.rows[2], vec![vec![Value::Int(0), Value::Int(9)]]);
        let failed = CompiledMrExpr::compile(whole).eval_nodes(&missing);
        assert!(failed.failed);
        assert!(failed.rows.iter().all(Vec::is_empty));
    }

    #[test]
    fn buffered_apply_matches_boxed_apply() {
        // One guarded dynamic emit, one slot/const emit: exercises the
        // Dynamic EmitSrc kind plus guard evaluation from a cell. The
        // `abs` call keeps guard and value off the raw-cell path.
        let lambda = MapLambda::new(
            vec!["k", "v"],
            vec![
                Emit::guarded(
                    IrExpr::bin(
                        BinOp::Gt,
                        IrExpr::Call("abs".into(), vec![IrExpr::var("v")]),
                        IrExpr::var("cut"),
                    ),
                    IrExpr::var("k"),
                    IrExpr::Call("abs".into(), vec![IrExpr::var("v")]),
                ),
                Emit::unconditional(IrExpr::ConstStr("tag".into()), IrExpr::var("v")),
            ],
        );
        let compiled = CompiledMapLambda::compile(&lambda);
        let st = state(&[("cut", Value::Int(1))]);

        let rows = vec![
            vec![Value::str("a"), Value::Int(3)],
            vec![Value::str("b"), Value::Int(0)],
            vec![Value::str("c"), Value::Int(9)],
        ];
        let mut src = ValueBuf::new(2);
        for r in &rows {
            src.push_row(r);
        }

        let mut boxed = Vec::new();
        for r in &rows {
            compiled.apply_into(r, &st, &mut boxed).unwrap();
        }
        let mut out = ValueBuf::new(2);
        let mut arena = RecordArena::new();
        for row in 0..src.len() {
            compiled
                .apply_into_buf(&src, row, &st, &mut out, &mut arena)
                .unwrap();
        }
        let buffered: Vec<(Value, Value)> = (0..out.len())
            .map(|i| (out.value_at(i, 0), out.value_at(i, 1)))
            .collect();
        assert_eq!(boxed, buffered);
        // Dynamic guard + dynamic val force locals materialization and one
        // boxed temporary per fired dynamic emit.
        assert!(arena.allocs > 0);

        // Arity mismatch errors identically.
        let narrow = {
            let mut b = ValueBuf::new(1);
            b.push_row(&[Value::Int(1)]);
            b
        };
        let buf_err = compiled
            .apply_into_buf(&narrow, 0, &st, &mut out, &mut arena)
            .unwrap_err();
        let boxed_err = compiled
            .apply_into(&[Value::Int(1)], &st, &mut boxed)
            .unwrap_err();
        assert_eq!(buf_err.to_string(), boxed_err.to_string());

        // Non-bool guards error identically too.
        let bad = MapLambda::new(
            vec!["v"],
            vec![Emit::guarded(
                IrExpr::var("v"),
                IrExpr::int(0),
                IrExpr::var("v"),
            )],
        );
        let bad_c = CompiledMapLambda::compile(&bad);
        let mut one = ValueBuf::new(1);
        one.push_row(&[Value::Int(7)]);
        let e1 = bad_c
            .apply_into(&[Value::Int(7)], &st, &mut boxed)
            .unwrap_err();
        let e2 = bad_c
            .apply_into_buf(&one, 0, &st, &mut out, &mut arena)
            .unwrap_err();
        assert_eq!(e1.to_string(), e2.to_string());
    }

    #[test]
    fn cell_program_emits_match_boxed_and_stay_raw() {
        // Guard, key, and value all lower to raw-cell programs: the guard
        // compares a Double slot against a Double state scalar, the key
        // is an Int modulo, the value promotes Int·Double — the
        // tpch_q6/map_chain shapes.
        let lambda = MapLambda::new(
            vec!["k", "v"],
            vec![Emit::guarded(
                IrExpr::bin(BinOp::Gt, IrExpr::var("v"), IrExpr::var("cut")),
                IrExpr::bin(BinOp::Mod, IrExpr::var("k"), IrExpr::int(4)),
                IrExpr::bin(BinOp::Mul, IrExpr::var("v"), IrExpr::var("rate")),
            )],
        );
        let compiled = CompiledMapLambda::compile(&lambda);
        let st = state(&[("cut", Value::Double(1.5)), ("rate", Value::Double(0.25))]);
        let rows: Vec<Vec<Value>> = (0..8)
            .map(|i| vec![Value::Int(i), Value::Double(i as f64 * 0.7)])
            .collect();
        let mut src = ValueBuf::new(2);
        for r in &rows {
            src.push_row(r);
        }
        let mut boxed = Vec::new();
        for r in &rows {
            compiled.apply_into(r, &st, &mut boxed).unwrap();
        }
        let mut out = ValueBuf::new(2);
        let mut arena = RecordArena::new();
        for row in 0..src.len() {
            compiled
                .apply_into_buf(&src, row, &st, &mut out, &mut arena)
                .unwrap();
        }
        let buffered: Vec<(Value, Value)> = (0..out.len())
            .map(|i| (out.value_at(i, 0), out.value_at(i, 1)))
            .collect();
        assert_eq!(boxed, buffered);
        assert!(!boxed.is_empty());
        // The whole pass stayed in the raw (tag, word) regime.
        assert_eq!(arena.allocs, 0);
    }

    #[test]
    fn cell_program_punts_on_errors_and_non_inline_operands() {
        // v / z: the raw-cell path must punt on z = 0 so the engine
        // raises the exact division error the boxed path raises.
        let div = MapLambda::new(
            vec!["v"],
            vec![Emit::unconditional(
                IrExpr::int(0),
                IrExpr::bin(BinOp::Div, IrExpr::var("v"), IrExpr::var("z")),
            )],
        );
        let c = CompiledMapLambda::compile(&div);
        let mut one = ValueBuf::new(1);
        one.push_row(&[Value::Int(7)]);
        let mut out = ValueBuf::new(2);
        let mut boxed = Vec::new();

        let zero = state(&[("z", Value::Int(0))]);
        let mut arena = RecordArena::new();
        let e1 = c
            .apply_into(&[Value::Int(7)], &zero, &mut boxed)
            .unwrap_err();
        let e2 = c
            .apply_into_buf(&one, 0, &zero, &mut out, &mut arena)
            .unwrap_err();
        assert_eq!(e1.to_string(), e2.to_string());

        // A string-valued state operand punts per record; the type error
        // is identical either way.
        let strst = state(&[("z", Value::str("nope"))]);
        let mut arena2 = RecordArena::new();
        let e3 = c
            .apply_into(&[Value::Int(7)], &strst, &mut boxed)
            .unwrap_err();
        let e4 = c
            .apply_into_buf(&one, 0, &strst, &mut out, &mut arena2)
            .unwrap_err();
        assert_eq!(e3.to_string(), e4.to_string());

        // Nonzero divisor: the raw path engages with an identical
        // quotient and zero materializations.
        let two = state(&[("z", Value::Int(2))]);
        let mut arena3 = RecordArena::new();
        boxed.clear();
        c.apply_into(&[Value::Int(7)], &two, &mut boxed).unwrap();
        let mut out2 = ValueBuf::new(2);
        c.apply_into_buf(&one, 0, &two, &mut out2, &mut arena3)
            .unwrap();
        assert_eq!(boxed[0].1, out2.value_at(0, 1));
        assert_eq!(arena3.allocs, 0);
    }

    #[test]
    fn fast_combine_classification() {
        let fast = |r: &ReduceLambda| CompiledReduceLambda::compile(r).fast_combine();
        assert_eq!(
            fast(&ReduceLambda::binop(BinOp::Add)),
            Some(FastCombine::Add)
        );
        assert_eq!(
            fast(&ReduceLambda::binop(BinOp::Sub)),
            Some(FastCombine::Sub)
        );
        assert_eq!(
            fast(&ReduceLambda::binop(BinOp::Mul)),
            Some(FastCombine::Mul)
        );
        // Division has an error path; never fast.
        assert_eq!(fast(&ReduceLambda::binop(BinOp::Div)), None);
        let minl = ReduceLambda::new(IrExpr::Call(
            "min".into(),
            vec![IrExpr::var("v1"), IrExpr::var("v2")],
        ));
        assert_eq!(fast(&minl), Some(FastCombine::Min));
        // Swapped parameter order must not classify (Sub is not commutative).
        let swapped = ReduceLambda::new(IrExpr::bin(
            BinOp::Sub,
            IrExpr::var("v2"),
            IrExpr::var("v1"),
        ));
        assert_eq!(fast(&swapped), None);
        // A body with free state variables is not a raw-cell combine.
        let with_free = ReduceLambda::new(IrExpr::bin(
            BinOp::Add,
            IrExpr::var("v1"),
            IrExpr::var("bias"),
        ));
        assert_eq!(fast(&with_free), None);
    }

    #[test]
    fn short_circuit_skips_faulting_operand() {
        let m = MapLambda::new(
            vec!["v"],
            vec![Emit::guarded(
                IrExpr::bin(
                    BinOp::And,
                    IrExpr::ConstBool(false),
                    IrExpr::bin(
                        BinOp::Gt,
                        IrExpr::bin(BinOp::Div, IrExpr::int(1), IrExpr::int(0)),
                        IrExpr::int(0),
                    ),
                ),
                IrExpr::int(0),
                IrExpr::var("v"),
            )],
        );
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int)).map(m);
        let summary = ProgramSummary::single("out", expr, OutputKind::CollectedList);
        let st = state(&[
            ("xs", Value::List(vec![Value::Int(1), Value::Int(2)])),
            ("out", Value::List(vec![])),
        ]);
        assert_agrees(&summary, &st);
        let out = CompiledSummary::compile(&summary).eval(&st).unwrap();
        assert_eq!(out.get("out"), Some(&Value::List(vec![])));
    }

    /// The reference `reduce_rows` replaced: `group_by_key`, then a serial
    /// fold of each group.
    fn grouped_fold(lambda: &CompiledReduceLambda, input: &[Row], st: &Env) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        for (k, vals) in crate::eval::group_by_key(input)? {
            let mut acc = vals[0].clone();
            for v in &vals[1..] {
                acc = lambda.combine(acc, v.clone(), st)?;
            }
            out.push(vec![k, acc]);
        }
        Ok(out)
    }

    #[test]
    fn index_grouped_reduce_matches_group_by_key() {
        let kv = |k: Value, v: i64| vec![k, Value::Int(v)];
        let (a, b) = (Value::str("a"), Value::str("b"));
        let (zero, neg_zero) = (Value::Double(0.0), Value::Double(-0.0));
        let inputs: Vec<Vec<Row>> = vec![
            vec![],
            vec![kv(a.clone(), 7)],
            // Interleaved keys: first-appearance order, in-order folds.
            vec![
                kv(b.clone(), 100),
                kv(a.clone(), 3),
                kv(b.clone(), 4),
                kv(a.clone(), 0),
                kv(b.clone(), 2),
                kv(Value::Int(1), 5),
            ],
            // `0.0` and `-0.0` are distinct keys.
            vec![kv(zero.clone(), 8), kv(neg_zero, 2), kv(zero, 2)],
            // A zero divisor fails the combine: under `/`, group `a` fails
            // before group `b` is reached.
            vec![
                kv(a.clone(), 9),
                kv(b.clone(), 0),
                kv(a.clone(), 0),
                kv(b, 1),
            ],
            // A row that is not a pair fails before any combine runs.
            vec![kv(a.clone(), 1), kv(a.clone(), 0), vec![a.clone()]],
            vec![vec![a, Value::Int(1), Value::Int(2)]],
        ];
        let st = Env::new();
        for op in [BinOp::Sub, BinOp::Div, BinOp::Add] {
            let lambda = CompiledReduceLambda::compile(&ReduceLambda::binop(op));
            for input in &inputs {
                match (
                    reduce_rows(&lambda, input, &st),
                    grouped_fold(&lambda, input, &st),
                ) {
                    (Ok(ours), Ok(reference)) => assert_eq!(ours, reference, "{op:?} {input:?}"),
                    (Err(ours), Err(reference)) => {
                        assert_eq!(ours.to_string(), reference.to_string(), "{op:?} {input:?}")
                    }
                    (ours, reference) => panic!("{op:?} {input:?}: {ours:?} vs {reference:?}"),
                }
            }
        }
        // The fold really is in input order: 100 - 4 - 2 under `-`.
        let sub = CompiledReduceLambda::compile(&ReduceLambda::binop(BinOp::Sub));
        let out = reduce_rows(&sub, &inputs[2], &st).unwrap();
        assert_eq!(out[0], vec![Value::str("b"), Value::Int(94)]);
    }
}
