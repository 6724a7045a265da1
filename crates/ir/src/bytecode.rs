//! The flat bytecode VM for IR expressions — the one compiled expression
//! evaluator, lowering `Expr → slots → bytecode`.
//!
//! [`Chunk`] flattens an expression tree into a compact `Vec<Op>` executed
//! by a value-stack machine: λ-parameter reads are slot-indexed loads
//! (names are resolved once, at compile time), constants live in a
//! deduplicated pool, `If` and the short-circuit boolean operators become
//! relative forward jumps, and the hottest shapes (binary operators whose
//! operands are slot reads or constants, field/tuple projections of a
//! slot) are fused into single super-instructions at compile time.
//! Dispatch is one match per instruction over a dense enum — no pointer
//! chasing, no per-node allocation. Chunks whose stack depth never
//! exceeds one run in a register with no scratch stack at all.
//!
//! The VM is semantically bit-identical to the tree-walking reference
//! [`IrExpr::eval`] (same error strings, same evaluation order, same
//! short-circuit tolerance for non-boolean operands), and is
//! differentially tested against it; operator semantics are not restated
//! here but called ([`eval_unop`], [`AggOp::combine`],
//! [`seqlang::interp::eval_binop`]).
//!
//! ```
//! use casper_ir::bytecode::Chunk;
//! use casper_ir::expr::IrExpr;
//! use seqlang::ast::BinOp;
//! use seqlang::value::Value;
//! use seqlang::Env;
//!
//! // (v1 + v2) * scale, with v1/v2 as λ slots and `scale` free.
//! let e = IrExpr::bin(
//!     BinOp::Mul,
//!     IrExpr::bin(BinOp::Add, IrExpr::var("v1"), IrExpr::var("v2")),
//!     IrExpr::var("scale"),
//! );
//! let chunk = Chunk::compile(&e, &["v1", "v2"]);
//! let mut state = Env::new();
//! state.set("scale", Value::Int(10));
//! let out = chunk.run(&[Value::Int(3), Value::Int(4)], &state).unwrap();
//! assert_eq!(out, Value::Int(70));
//! ```

use std::cell::Cell;

use seqlang::ast::{BinOp, UnOp};
use seqlang::error::{Error, Result};
use seqlang::interp::{eval_binop, eval_free_function, eval_pure_method};
use seqlang::value::Value;
use seqlang::Env;

use crate::expr::{eval_unop, AggOp, IrExpr};

/// One VM instruction. Operands index the chunk's pools (`u32` keeps the
/// enum at 8 bytes); jump offsets are relative forward distances from the
/// instruction *after* the jump.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Push `consts[i]`.
    Const(u32),
    /// Push λ-slot `locals[i]`.
    Load(u32),
    /// Push the state variable `names[i]`.
    Global(u32),
    /// Pop a base, push its field `names[i]`.
    Field(u32),
    /// Pop a base, push its tuple element `i`.
    TupleGet(u32),
    /// Pop `n` values, push them as one tuple.
    MakeTuple(u32),
    /// Pop rhs then lhs, push `lhs op rhs`.
    Bin(BinOp),
    /// Fused `locals[a] op locals[b]` — no stack traffic.
    BinLL(u32, u32, BinOp),
    /// Fused `locals[a] op consts[c]`.
    BinLC(u32, u32, BinOp),
    /// Pop lhs, push `lhs op locals[b]`.
    BinRL(u32, BinOp),
    /// Pop lhs, push `lhs op consts[c]`.
    BinRC(u32, BinOp),
    /// Fused field projection of λ-slot `a` by `names[n]`.
    LoadField(u32, u32),
    /// Fused tuple projection of λ-slot `a` by index `i`.
    LoadTupleGet(u32, u32),
    /// Pop a value, apply the unary operator.
    Un(UnOp),
    /// Pop `argc` arguments, call free function `names[n]`.
    Call(u32, u32),
    /// Pop `argc` arguments then the receiver, call method `names[n]`.
    Method(u32, u32),
    /// Fail with the unbound-variable error unless state variable
    /// `names[g]` is bound; no stack effect. Emitted before the argument
    /// ops of a [`MethodG`] so the receiver's only observable effect (its
    /// error) still fires in receiver-then-arguments order.
    ///
    /// [`MethodG`]: Op::MethodG
    EnsureGlobal(u32),
    /// Pop `argc` arguments, call method `names[n]` on state variable
    /// `names[g]` *by reference* — the fused form of `Global` + `Method`
    /// that spares the per-record clone of a (possibly huge) free-variable
    /// collection receiver. Always preceded by [`EnsureGlobal`].
    ///
    /// [`EnsureGlobal`]: Op::EnsureGlobal
    MethodG(u32, u32, u32),
    /// Pop `argc` arguments, call method `names[n]` on λ-slot `a` by
    /// reference — the fused `Load` + `Method` (a slot load cannot fault,
    /// so evaluation order is trivially preserved).
    MethodL(u32, u32, u32),
    /// Unconditional relative forward jump.
    Jump(u32),
    /// Pop a condition (must be a bool), jump if false.
    JumpIfFalse(u32),
    /// Short-circuit `&&`: pop lhs; unless it is `true`, push `false` and
    /// jump over the rhs (tolerating non-boolean lhs exactly like the
    /// tree-walking evaluator). Otherwise fall through — the rhs value is
    /// the operator's result.
    AndJump(u32),
    /// Short-circuit `||`: pop lhs; if it is `true`, push `true` and jump
    /// over the rhs. Otherwise fall through.
    OrJump(u32),
    /// Pop the initial accumulator, fold `aggs[i]`'s body chunk over the
    /// elements of its `over` collection, push the folded result.
    Agg(u32),
}

/// One inline aggregate: the fold operator, where its collection lives
/// (λ-slot or state variable — `over_name` is always interned for error
/// messages), and the body chunk compiled over the enclosing λ-parameters
/// plus the element binder as the last slot.
#[derive(Debug, Clone)]
struct AggSub {
    op: AggOp,
    over_slot: Option<u32>,
    over_name: u32,
    body: Chunk,
}

/// A compiled bytecode chunk: flat instruction stream plus deduplicated
/// constant and name pools. `Send + Sync` by construction (no interior
/// state), so chunks are shared freely inside the `Arc`-held compiled λs.
#[derive(Debug, Clone)]
pub struct Chunk {
    ops: Vec<Op>,
    consts: Vec<Value>,
    names: Vec<String>,
    aggs: Vec<AggSub>,
    /// The chunk never needs more than one live value: a single producer
    /// followed by ops that each replace the top of stack. Such chunks —
    /// the common case after fusion — run in a register ([`run_linear`])
    /// with no scratch stack at all.
    ///
    /// [`run_linear`]: Chunk::run_linear
    linear: bool,
}

/// A chunk is linear when its first op pushes exactly one value and every
/// subsequent op pops one and pushes one — the stack depth is pinned at 1,
/// so an accumulator register suffices. Jumps, calls, and two-pop ops
/// disqualify.
fn is_linear(ops: &[Op]) -> bool {
    let Some((first, rest)) = ops.split_first() else {
        return false;
    };
    let head_produces = matches!(
        first,
        Op::Const(_)
            | Op::Load(_)
            | Op::Global(_)
            | Op::BinLL(..)
            | Op::BinLC(..)
            | Op::LoadField(..)
            | Op::LoadTupleGet(..)
    );
    head_produces
        && rest.iter().all(|op| {
            matches!(
                op,
                Op::BinRL(..) | Op::BinRC(..) | Op::Un(_) | Op::Field(_) | Op::TupleGet(_)
            )
        })
}

impl Chunk {
    /// Lower one expression over the λ-parameter namespace `params`:
    /// parameter references become slot loads, everything else a state
    /// lookup — the same shadowing discipline as the tree-walking
    /// evaluator.
    pub fn compile<P: AsRef<str>>(e: &IrExpr, params: &[P]) -> Chunk {
        let mut em = Emitter::default();
        em.emit(e, params);
        let linear = is_linear(&em.ops);
        Chunk {
            ops: em.ops,
            consts: em.consts,
            names: em.names,
            aggs: em.aggs,
            linear,
        }
    }

    /// Number of instructions in the chunk.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Execute against a λ-frame: `locals` are the parameter slots,
    /// `state` the free-variable environment. Uses a thread-local scratch
    /// stack (taken out for the duration of the run, so re-entrant calls
    /// simply allocate a fresh one).
    pub fn run(&self, locals: &[Value], state: &Env) -> Result<Value> {
        if self.linear {
            return self.run_linear(locals, state);
        }
        let mut stack = STACK_POOL.with(|p| p.take()).unwrap_or_default();
        let out = self.exec(&mut stack, locals, state);
        stack.clear();
        STACK_POOL.with(|p| p.set(Some(stack)));
        out
    }

    /// Register-mode execution for [`linear`] chunks: the single live
    /// value stays in `acc`, so there is no scratch-stack traffic and no
    /// pool round-trip. Semantics (including every error message) are
    /// identical to [`exec`]'s.
    ///
    /// [`linear`]: Chunk::linear
    /// [`exec`]: Chunk::exec
    fn run_linear(&self, locals: &[Value], state: &Env) -> Result<Value> {
        let mut acc = match self.ops[0] {
            Op::Const(i) => self.consts[i as usize].clone(),
            Op::Load(i) => locals[i as usize].clone(),
            Op::Global(i) => {
                let name = &self.names[i as usize];
                state
                    .get(name)
                    .cloned()
                    .ok_or_else(|| Error::runtime(format!("IR: unbound variable `{name}`")))?
            }
            Op::BinLL(a, b, op) => {
                vm_binop(op, locals[a as usize].clone(), locals[b as usize].clone())?
            }
            Op::BinLC(a, c, op) => vm_binop(
                op,
                locals[a as usize].clone(),
                self.consts[c as usize].clone(),
            )?,
            Op::LoadField(a, n) => {
                let field = &self.names[n as usize];
                let b = &locals[a as usize];
                b.field(field)
                    .cloned()
                    .ok_or_else(|| Error::runtime(format!("IR: no field `{field}` on {b}")))?
            }
            Op::LoadTupleGet(a, i) => {
                let i = i as usize;
                let b = &locals[a as usize];
                b.tuple_get(i)
                    .cloned()
                    .ok_or_else(|| Error::runtime(format!("IR: tuple index {i} on {b}")))?
            }
            _ => unreachable!("bytecode: non-producer head in linear chunk"),
        };
        for op in &self.ops[1..] {
            acc = match *op {
                Op::BinRL(b, op) => vm_binop(op, acc, locals[b as usize].clone())?,
                Op::BinRC(c, op) => vm_binop(op, acc, self.consts[c as usize].clone())?,
                Op::Un(op) => eval_unop(op, acc)?,
                Op::Field(i) => {
                    let field = &self.names[i as usize];
                    acc.field(field)
                        .cloned()
                        .ok_or_else(|| Error::runtime(format!("IR: no field `{field}` on {acc}")))?
                }
                Op::TupleGet(i) => {
                    let i = i as usize;
                    acc.tuple_get(i)
                        .cloned()
                        .ok_or_else(|| Error::runtime(format!("IR: tuple index {i} on {acc}")))?
                }
                _ => unreachable!("bytecode: non-replacer op in linear chunk"),
            };
        }
        Ok(acc)
    }

    fn exec(&self, stack: &mut Vec<Value>, locals: &[Value], state: &Env) -> Result<Value> {
        let ops = &self.ops[..];
        let mut pc = 0usize;
        while pc < ops.len() {
            match ops[pc] {
                Op::Const(i) => stack.push(self.consts[i as usize].clone()),
                Op::Load(i) => stack.push(locals[i as usize].clone()),
                Op::Global(i) => {
                    let name = &self.names[i as usize];
                    let v = state
                        .get(name)
                        .cloned()
                        .ok_or_else(|| Error::runtime(format!("IR: unbound variable `{name}`")))?;
                    stack.push(v);
                }
                Op::Field(i) => {
                    let field = &self.names[i as usize];
                    let b = stack.pop().expect("bytecode: Field on empty stack");
                    let v = b
                        .field(field)
                        .cloned()
                        .ok_or_else(|| Error::runtime(format!("IR: no field `{field}` on {b}")))?;
                    stack.push(v);
                }
                Op::TupleGet(i) => {
                    let i = i as usize;
                    let b = stack.pop().expect("bytecode: TupleGet on empty stack");
                    let v = b
                        .tuple_get(i)
                        .cloned()
                        .ok_or_else(|| Error::runtime(format!("IR: tuple index {i} on {b}")))?;
                    stack.push(v);
                }
                Op::MakeTuple(n) => {
                    let vals = stack.split_off(stack.len() - n as usize);
                    stack.push(Value::Tuple(vals));
                }
                Op::Bin(op) => {
                    let r = stack.pop().expect("bytecode: Bin rhs");
                    let l = stack.pop().expect("bytecode: Bin lhs");
                    stack.push(vm_binop(op, l, r)?);
                }
                Op::BinLL(a, b, op) => {
                    let l = locals[a as usize].clone();
                    let r = locals[b as usize].clone();
                    stack.push(vm_binop(op, l, r)?);
                }
                Op::BinLC(a, c, op) => {
                    let l = locals[a as usize].clone();
                    let r = self.consts[c as usize].clone();
                    stack.push(vm_binop(op, l, r)?);
                }
                Op::BinRL(b, op) => {
                    let l = stack.pop().expect("bytecode: BinRL lhs");
                    let r = locals[b as usize].clone();
                    stack.push(vm_binop(op, l, r)?);
                }
                Op::BinRC(c, op) => {
                    let l = stack.pop().expect("bytecode: BinRC lhs");
                    let r = self.consts[c as usize].clone();
                    stack.push(vm_binop(op, l, r)?);
                }
                Op::LoadField(a, n) => {
                    let field = &self.names[n as usize];
                    let b = &locals[a as usize];
                    let v = b
                        .field(field)
                        .cloned()
                        .ok_or_else(|| Error::runtime(format!("IR: no field `{field}` on {b}")))?;
                    stack.push(v);
                }
                Op::LoadTupleGet(a, i) => {
                    let i = i as usize;
                    let b = &locals[a as usize];
                    let v = b
                        .tuple_get(i)
                        .cloned()
                        .ok_or_else(|| Error::runtime(format!("IR: tuple index {i} on {b}")))?;
                    stack.push(v);
                }
                Op::Un(op) => {
                    let v = stack.pop().expect("bytecode: Un operand");
                    stack.push(eval_unop(op, v)?);
                }
                Op::Call(n, argc) => {
                    let vals = stack.split_off(stack.len() - argc as usize);
                    stack.push(eval_free_function(&self.names[n as usize], &vals)?);
                }
                Op::Method(n, argc) => {
                    let vals = stack.split_off(stack.len() - argc as usize);
                    let b = stack.pop().expect("bytecode: Method receiver");
                    stack.push(eval_pure_method(&b, &self.names[n as usize], &vals)?);
                }
                Op::EnsureGlobal(g) => {
                    let name = &self.names[g as usize];
                    if state.get(name).is_none() {
                        return Err(Error::runtime(format!("IR: unbound variable `{name}`")));
                    }
                }
                Op::MethodG(g, n, argc) => {
                    let vals = stack.split_off(stack.len() - argc as usize);
                    let name = &self.names[g as usize];
                    let b = state
                        .get(name)
                        .ok_or_else(|| Error::runtime(format!("IR: unbound variable `{name}`")))?;
                    stack.push(eval_pure_method(b, &self.names[n as usize], &vals)?);
                }
                Op::MethodL(a, n, argc) => {
                    let vals = stack.split_off(stack.len() - argc as usize);
                    let b = &locals[a as usize];
                    stack.push(eval_pure_method(b, &self.names[n as usize], &vals)?);
                }
                Op::Jump(d) => {
                    pc += 1 + d as usize;
                    continue;
                }
                Op::JumpIfFalse(d) => {
                    let cond = stack
                        .pop()
                        .expect("bytecode: JumpIfFalse condition")
                        .as_bool()
                        .ok_or_else(|| Error::runtime("IR: non-bool condition"))?;
                    if !cond {
                        pc += 1 + d as usize;
                        continue;
                    }
                }
                Op::AndJump(d) => {
                    let l = stack.pop().expect("bytecode: AndJump lhs");
                    if l.as_bool() != Some(true) {
                        stack.push(Value::Bool(false));
                        pc += 1 + d as usize;
                        continue;
                    }
                }
                Op::OrJump(d) => {
                    let l = stack.pop().expect("bytecode: OrJump lhs");
                    if l.as_bool() == Some(true) {
                        stack.push(Value::Bool(true));
                        pc += 1 + d as usize;
                        continue;
                    }
                }
                Op::Agg(i) => {
                    let sub = &self.aggs[i as usize];
                    let mut acc = stack.pop().expect("bytecode: Agg init");
                    let name = &self.names[sub.over_name as usize];
                    let coll = match sub.over_slot {
                        Some(s) => locals[s as usize].clone(),
                        None => state.get(name).cloned().ok_or_else(|| {
                            Error::runtime(format!("IR: unbound variable `{name}`"))
                        })?,
                    };
                    let elems = coll
                        .elements()
                        .ok_or_else(|| Error::runtime(format!("`{name}` is not a collection")))?;
                    let mut locals2 = locals.to_vec();
                    locals2.push(Value::Int(0));
                    for e in elems {
                        *locals2.last_mut().expect("element slot") = e.clone();
                        let v = sub.body.run(&locals2, state)?;
                        acc = sub.op.combine(acc, v)?;
                    }
                    stack.push(acc);
                }
            }
            pc += 1;
        }
        Ok(stack.pop().expect("bytecode: chunk left no result"))
    }
}

/// Bytecode emitter: walks the expression tree once, interning constants
/// and names, patching forward jumps, and fusing push+consume pairs into
/// super-instructions where no jump target intervenes.
#[derive(Default)]
struct Emitter {
    ops: Vec<Op>,
    consts: Vec<Value>,
    names: Vec<String>,
    aggs: Vec<AggSub>,
    /// No fusion may reach at or before this instruction index: it marks
    /// the most recent jump target, and merging a jump target into an
    /// earlier instruction would desynchronize the patched offsets.
    fuse_barrier: usize,
}

impl Emitter {
    fn const_idx(&mut self, v: Value) -> u32 {
        if let Some(i) = self.consts.iter().position(|c| c == &v) {
            return i as u32;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn name_idx(&mut self, n: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|x| x == n) {
            return i as u32;
        }
        self.names.push(n.to_string());
        (self.names.len() - 1) as u32
    }

    /// Emit a jump with a placeholder offset; returns its index for
    /// [`Emitter::patch`].
    fn emit_jump(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Point the jump at `at` to the *next* instruction to be emitted.
    fn patch(&mut self, at: usize) {
        let off = (self.ops.len() - at - 1) as u32;
        match &mut self.ops[at] {
            Op::Jump(d) | Op::JumpIfFalse(d) | Op::AndJump(d) | Op::OrJump(d) => *d = off,
            other => unreachable!("patching non-jump {other:?}"),
        }
        // The instruction emitted next is a jump target: nothing may fuse
        // across it.
        self.fuse_barrier = self.ops.len();
    }

    /// The last instruction, if it is fusable (past the jump barrier).
    fn fusable_tail(&self) -> Option<Op> {
        if self.ops.len() > self.fuse_barrier {
            self.ops.last().copied()
        } else {
            None
        }
    }

    /// The instruction before the last, if both are past the barrier.
    fn fusable_prev(&self) -> Option<Op> {
        if self.ops.len() >= 2 && self.ops.len() - 1 > self.fuse_barrier {
            Some(self.ops[self.ops.len() - 2])
        } else {
            None
        }
    }

    /// Emit a non-short-circuit binary operator, fusing slot/const
    /// operand pushes into a single super-instruction when possible.
    /// Operand evaluation order (lhs first) and fault behaviour are
    /// unchanged because the fused pushes (`Load`/`Const`) cannot fault.
    fn emit_bin(&mut self, op: BinOp) {
        match (self.fusable_prev(), self.fusable_tail()) {
            (Some(Op::Load(a)), Some(Op::Load(b))) => {
                self.ops.truncate(self.ops.len() - 2);
                self.ops.push(Op::BinLL(a, b, op));
            }
            (Some(Op::Load(a)), Some(Op::Const(c))) => {
                self.ops.truncate(self.ops.len() - 2);
                self.ops.push(Op::BinLC(a, c, op));
            }
            (_, Some(Op::Load(b))) => {
                self.ops.pop();
                self.ops.push(Op::BinRL(b, op));
            }
            (_, Some(Op::Const(c))) => {
                self.ops.pop();
                self.ops.push(Op::BinRC(c, op));
            }
            _ => self.ops.push(Op::Bin(op)),
        }
    }

    fn emit<P: AsRef<str>>(&mut self, e: &IrExpr, params: &[P]) {
        match e {
            IrExpr::ConstInt(n) => {
                let i = self.const_idx(Value::Int(*n));
                self.ops.push(Op::Const(i));
            }
            IrExpr::ConstDouble(x) => {
                let i = self.const_idx(Value::Double(x.0));
                self.ops.push(Op::Const(i));
            }
            IrExpr::ConstBool(b) => {
                let i = self.const_idx(Value::Bool(*b));
                self.ops.push(Op::Const(i));
            }
            IrExpr::ConstStr(s) => {
                let i = self.const_idx(Value::str(s.as_str()));
                self.ops.push(Op::Const(i));
            }
            IrExpr::Var(name) => {
                // `rposition`: the LAST binding of a name wins, matching
                // the tree-walking evaluator's env-overwrite shadowing.
                if let Some(slot) = params.iter().rposition(|p| p.as_ref() == name) {
                    self.ops.push(Op::Load(slot as u32));
                } else {
                    let i = self.name_idx(name);
                    self.ops.push(Op::Global(i));
                }
            }
            IrExpr::Field(base, field) => {
                self.emit(base, params);
                let i = self.name_idx(field);
                if let Some(Op::Load(a)) = self.fusable_tail() {
                    self.ops.pop();
                    self.ops.push(Op::LoadField(a, i));
                } else {
                    self.ops.push(Op::Field(i));
                }
            }
            IrExpr::TupleGet(base, idx) => {
                self.emit(base, params);
                if let Some(Op::Load(a)) = self.fusable_tail() {
                    self.ops.pop();
                    self.ops.push(Op::LoadTupleGet(a, *idx as u32));
                } else {
                    self.ops.push(Op::TupleGet(*idx as u32));
                }
            }
            IrExpr::Tuple(es) => {
                for x in es {
                    self.emit(x, params);
                }
                self.ops.push(Op::MakeTuple(es.len() as u32));
            }
            IrExpr::Bin(op, l, r) => match op {
                BinOp::And => {
                    self.emit(l, params);
                    let j = self.emit_jump(Op::AndJump(0));
                    self.emit(r, params);
                    self.patch(j);
                }
                BinOp::Or => {
                    self.emit(l, params);
                    let j = self.emit_jump(Op::OrJump(0));
                    self.emit(r, params);
                    self.patch(j);
                }
                op => {
                    self.emit(l, params);
                    self.emit(r, params);
                    self.emit_bin(*op);
                }
            },
            IrExpr::Un(op, inner) => {
                self.emit(inner, params);
                self.ops.push(Op::Un(*op));
            }
            IrExpr::Call(name, args) => {
                for a in args {
                    self.emit(a, params);
                }
                let n = self.name_idx(name);
                self.ops.push(Op::Call(n, args.len() as u32));
            }
            IrExpr::Method(base, name, args) => {
                // Variable receivers are called by reference: a λ-slot
                // load cannot fault, and a state lookup's only observable
                // effect — the unbound error — is re-ordered ahead of the
                // arguments by an explicit `EnsureGlobal`, exactly where
                // the tree-walking evaluator would raise it.
                if let IrExpr::Var(v) = base.as_ref() {
                    if let Some(slot) = params.iter().rposition(|p| p.as_ref() == v) {
                        for a in args {
                            self.emit(a, params);
                        }
                        let n = self.name_idx(name);
                        self.ops
                            .push(Op::MethodL(slot as u32, n, args.len() as u32));
                    } else {
                        let g = self.name_idx(v);
                        self.ops.push(Op::EnsureGlobal(g));
                        for a in args {
                            self.emit(a, params);
                        }
                        let n = self.name_idx(name);
                        self.ops.push(Op::MethodG(g, n, args.len() as u32));
                    }
                    return;
                }
                self.emit(base, params);
                for a in args {
                    self.emit(a, params);
                }
                let n = self.name_idx(name);
                self.ops.push(Op::Method(n, args.len() as u32));
            }
            IrExpr::If(c, t, e2) => {
                self.emit(c, params);
                let jf = self.emit_jump(Op::JumpIfFalse(0));
                self.emit(t, params);
                let j = self.emit_jump(Op::Jump(0));
                self.patch(jf);
                self.emit(e2, params);
                self.patch(j);
            }
            IrExpr::Agg {
                op,
                init,
                over,
                param,
                body,
            } => {
                // Init first (the tree walk evaluates it before resolving
                // the collection), then one Agg super-instruction holding
                // the body as a nested chunk over params ++ [param].
                self.emit(init, params);
                let mut body_params: Vec<String> =
                    params.iter().map(|p| p.as_ref().to_string()).collect();
                body_params.push(param.clone());
                let body = Chunk::compile(body, &body_params);
                let over_slot = params
                    .iter()
                    .rposition(|p| p.as_ref() == over.as_str())
                    .map(|s| s as u32);
                let over_name = self.name_idx(over);
                self.aggs.push(AggSub {
                    op: *op,
                    over_slot,
                    over_name,
                    body,
                });
                self.ops.push(Op::Agg((self.aggs.len() - 1) as u32));
            }
        }
    }
}

thread_local! {
    /// Scratch value stack reused across VM runs on this thread.
    static STACK_POOL: Cell<Option<Vec<Value>>> = const { Cell::new(None) };
}

/// Binary dispatch with inline fast paths for the Int/Double shapes that
/// dominate synthesized expressions; every path reproduces
/// [`eval_binop`]'s results bit-for-bit (including `wrapping_*` integer
/// semantics and the `f64`-widening comparisons) and everything else
/// falls through to the shared interpreter helper.
#[inline]
fn vm_binop(op: BinOp, l: Value, r: Value) -> Result<Value> {
    match (op, &l, &r) {
        (BinOp::Add, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
        (BinOp::Sub, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
        (BinOp::Mul, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
        (BinOp::Add, Value::Double(a), Value::Double(b)) => Ok(Value::Double(a + b)),
        (BinOp::Sub, Value::Double(a), Value::Double(b)) => Ok(Value::Double(a - b)),
        (BinOp::Mul, Value::Double(a), Value::Double(b)) => Ok(Value::Double(a * b)),
        (BinOp::Lt, Value::Int(a), Value::Int(b)) => Ok(Value::Bool((*a as f64) < (*b as f64))),
        (BinOp::Gt, Value::Int(a), Value::Int(b)) => Ok(Value::Bool((*a as f64) > (*b as f64))),
        (BinOp::Le, Value::Int(a), Value::Int(b)) => Ok(Value::Bool((*a as f64) <= (*b as f64))),
        (BinOp::Ge, Value::Int(a), Value::Int(b)) => Ok(Value::Bool((*a as f64) >= (*b as f64))),
        _ => eval_binop(op, l, r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tree-walk (via a state env binding the "params") vs VM, exact
    /// agreement including error outcomes.
    fn assert_vm_agrees(e: &IrExpr, params: &[&str], locals: &[Value], state: &Env) {
        let mut env = state.clone();
        for (p, v) in params.iter().zip(locals) {
            env.set(*p, v.clone());
        }
        let chunk = Chunk::compile(e, params);
        match (e.eval(&env), chunk.run(locals, state)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "VM diverges on {e}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "error identity on {e}"),
            (a, b) => panic!("agreement broken on {e}: tree-walk {a:?} vs VM {b:?}"),
        }
    }

    #[test]
    fn arithmetic_and_comparisons_match_tree_walk() {
        let e = IrExpr::bin(
            BinOp::Mul,
            IrExpr::bin(BinOp::Add, IrExpr::var("v1"), IrExpr::var("v2")),
            IrExpr::bin(BinOp::Sub, IrExpr::var("v1"), IrExpr::int(3)),
        );
        assert_vm_agrees(
            &e,
            &["v1", "v2"],
            &[Value::Int(7), Value::Int(-2)],
            &Env::new(),
        );
        let cmp = IrExpr::bin(BinOp::Lt, IrExpr::var("v1"), IrExpr::var("v2"));
        assert_vm_agrees(
            &cmp,
            &["v1", "v2"],
            &[Value::Int(i64::MAX), Value::Int(i64::MAX - 1)],
            &Env::new(),
        );
    }

    #[test]
    fn globals_fields_tuples_and_methods_match() {
        let mut st = Env::new();
        st.set("scale", Value::Int(4));
        st.set(
            "arr",
            Value::Array(vec![Value::Int(10), Value::Int(20), Value::Int(30)]),
        );
        let e = IrExpr::bin(
            BinOp::Add,
            IrExpr::Method(
                Box::new(IrExpr::var("arr")),
                "get".into(),
                vec![IrExpr::var("i")],
            ),
            IrExpr::bin(
                BinOp::Mul,
                IrExpr::tget(IrExpr::var("pair"), 1),
                IrExpr::var("scale"),
            ),
        );
        assert_vm_agrees(
            &e,
            &["i", "pair"],
            &[
                Value::Int(2),
                Value::Tuple(vec![Value::Int(0), Value::Int(5)]),
            ],
            &st,
        );
        // Missing global, bad field, bad tuple index: identical errors.
        let unbound = IrExpr::var("nope");
        assert_vm_agrees(&unbound, &[], &[], &st);
        let bad_field = IrExpr::Field(Box::new(IrExpr::var("scale")), "x".into());
        assert_vm_agrees(&bad_field, &[], &[], &st);
        let bad_idx = IrExpr::tget(IrExpr::var("scale"), 3);
        assert_vm_agrees(&bad_idx, &[], &[], &st);
    }

    #[test]
    fn short_circuit_and_conditionals_match() {
        let faulting = IrExpr::bin(
            BinOp::Gt,
            IrExpr::bin(BinOp::Div, IrExpr::int(1), IrExpr::int(0)),
            IrExpr::int(0),
        );
        let and = IrExpr::bin(BinOp::And, IrExpr::ConstBool(false), faulting.clone());
        assert_vm_agrees(&and, &[], &[], &Env::new());
        let or = IrExpr::bin(BinOp::Or, IrExpr::ConstBool(true), faulting.clone());
        assert_vm_agrees(&or, &[], &[], &Env::new());
        // Non-bool lhs tolerated as "not true", exactly like the tree walk.
        let odd_and = IrExpr::bin(BinOp::And, IrExpr::int(1), IrExpr::ConstBool(true));
        assert_vm_agrees(&odd_and, &[], &[], &Env::new());
        // If takes only the selected branch.
        let ite = IrExpr::ite(
            IrExpr::bin(BinOp::Gt, IrExpr::var("v1"), IrExpr::int(0)),
            IrExpr::var("v1"),
            faulting,
        );
        assert_vm_agrees(&ite, &["v1"], &[Value::Int(9)], &Env::new());
        let non_bool_cond = IrExpr::ite(IrExpr::int(1), IrExpr::int(2), IrExpr::int(3));
        assert_vm_agrees(&non_bool_cond, &[], &[], &Env::new());
    }

    /// A fusable pair straddling a jump target must NOT fuse: the `else`
    /// branch here starts with a `Load` that is a jump target while the
    /// instruction before it belongs to the `then` branch.
    #[test]
    fn fusion_never_crosses_jump_targets() {
        let ite = IrExpr::ite(
            IrExpr::var("c"),
            IrExpr::var("v1"),
            IrExpr::bin(BinOp::Add, IrExpr::var("v1"), IrExpr::var("v2")),
        );
        for (c, want) in [
            (Value::Bool(true), Value::Int(10)),
            (Value::Bool(false), Value::Int(13)),
        ] {
            assert_vm_agrees(
                &ite,
                &["c", "v1", "v2"],
                &[c.clone(), Value::Int(10), Value::Int(3)],
                &Env::new(),
            );
            let chunk = Chunk::compile(&ite, &["c", "v1", "v2"]);
            let got = chunk
                .run(&[c, Value::Int(10), Value::Int(3)], &Env::new())
                .unwrap();
            assert_eq!(got, want);
        }
        // Same shape as an operand of an outer fusable binop.
        let outer = IrExpr::bin(BinOp::Mul, ite, IrExpr::var("v2"));
        assert_vm_agrees(
            &outer,
            &["c", "v1", "v2"],
            &[Value::Bool(false), Value::Int(10), Value::Int(3)],
            &Env::new(),
        );
    }

    #[test]
    fn fusion_shrinks_deep_chains() {
        // v1*v1 + v2*v2 — every binop should fuse into a super-instruction.
        let e = IrExpr::bin(
            BinOp::Add,
            IrExpr::bin(BinOp::Mul, IrExpr::var("v1"), IrExpr::var("v1")),
            IrExpr::bin(BinOp::Mul, IrExpr::var("v2"), IrExpr::var("v2")),
        );
        let chunk = Chunk::compile(&e, &["v1", "v2"]);
        // BinLL, BinLL, Bin — three instructions for seven tree nodes.
        assert_eq!(chunk.op_count(), 3);
        assert_eq!(
            chunk
                .run(&[Value::Int(3), Value::Int(4)], &Env::new())
                .unwrap(),
            Value::Int(25)
        );
    }

    #[test]
    fn fused_method_receivers_keep_error_order() {
        // `missing.get(1 / 0)` — the unbound-receiver error must win over
        // the argument fault, exactly as the tree-walking evaluator
        // raises it (receiver first). The fused MethodG path re-orders
        // argument evaluation, so EnsureGlobal carries the check.
        let e = IrExpr::Method(
            Box::new(IrExpr::var("missing")),
            "get".into(),
            vec![IrExpr::bin(BinOp::Div, IrExpr::int(1), IrExpr::int(0))],
        );
        assert_vm_agrees(&e, &[] as &[&str], &[], &Env::new());

        // Bound receiver, faulting argument: the argument error surfaces.
        let mut env = Env::new();
        env.set("xs", Value::Array(vec![Value::Int(9)]));
        let e2 = IrExpr::Method(
            Box::new(IrExpr::var("xs")),
            "get".into(),
            vec![IrExpr::bin(BinOp::Div, IrExpr::int(1), IrExpr::int(0))],
        );
        assert_vm_agrees(&e2, &[] as &[&str], &[], &env);

        // Slot receiver: same result as the tree walk, by reference.
        let e3 = IrExpr::Method(
            Box::new(IrExpr::var("v1")),
            "get".into(),
            vec![IrExpr::int(1)],
        );
        let chunk = Chunk::compile(&e3, &["v1"]);
        assert_eq!(
            chunk
                .run(
                    &[Value::Array(vec![Value::Int(4), Value::Int(7)])],
                    &Env::new()
                )
                .unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn linear_chunks_take_the_register_path() {
        // A left-leaning fused chain keeps stack depth at 1: register mode.
        let mut e = IrExpr::var("v1");
        for i in 0..16 {
            let term = if i % 2 == 0 {
                IrExpr::var("v2")
            } else {
                IrExpr::int(3)
            };
            let op = if i % 2 == 0 { BinOp::Add } else { BinOp::Mul };
            e = IrExpr::bin(op, e, term);
        }
        let chunk = Chunk::compile(&e, &["v1", "v2"]);
        assert!(chunk.linear);
        assert_vm_agrees(
            &e,
            &["v1", "v2"],
            &[Value::Int(5), Value::Int(7)],
            &Env::new(),
        );

        // Anything with a jump (or a two-pop combine) needs the stack.
        let branchy = IrExpr::If(
            Box::new(IrExpr::bin(BinOp::Lt, IrExpr::var("v1"), IrExpr::var("v2"))),
            Box::new(IrExpr::var("v1")),
            Box::new(IrExpr::var("v2")),
        );
        assert!(!Chunk::compile(&branchy, &["v1", "v2"]).linear);
        let two_pop = IrExpr::bin(
            BinOp::Add,
            IrExpr::bin(BinOp::Mul, IrExpr::var("v1"), IrExpr::var("v1")),
            IrExpr::bin(BinOp::Mul, IrExpr::var("v2"), IrExpr::var("v2")),
        );
        assert!(!Chunk::compile(&two_pop, &["v1", "v2"]).linear);
    }

    #[test]
    fn constants_and_names_are_deduplicated() {
        let e = IrExpr::bin(
            BinOp::Add,
            IrExpr::bin(BinOp::Add, IrExpr::var("x"), IrExpr::int(7)),
            IrExpr::bin(BinOp::Add, IrExpr::var("x"), IrExpr::int(7)),
        );
        let chunk = Chunk::compile(&e, &[] as &[&str]);
        assert_eq!(chunk.consts.len(), 1);
        assert_eq!(chunk.names.len(), 1);
    }

    #[test]
    fn inline_aggregates_match_tree_walk() {
        let gs = Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        // Global collection: agg_add(0, a in gs, a * x).
        let e = IrExpr::Agg {
            op: AggOp::Add,
            init: Box::new(IrExpr::int(0)),
            over: "gs".into(),
            param: "a".into(),
            body: Box::new(IrExpr::bin(BinOp::Mul, IrExpr::var("a"), IrExpr::var("x"))),
        };
        let mut st = Env::new();
        st.set("gs", gs.clone());
        assert_vm_agrees(&e, &["x"], &[Value::Int(2)], &st);
        // Slot collection, and the binder shadowing a same-named outer
        // parameter — the last binding must win in the VM as in the walk.
        let shadow = IrExpr::Agg {
            op: AggOp::Max,
            init: Box::new(IrExpr::var("v1")),
            over: "v2".into(),
            param: "v1".into(),
            body: Box::new(IrExpr::var("v1")),
        };
        assert_vm_agrees(&shadow, &["v1", "v2"], &[Value::Int(-9), gs], &Env::new());
        // Error identity: unbound collection, non-collection, faulting body.
        assert_vm_agrees(&e, &["x"], &[Value::Int(2)], &Env::new());
        let mut bad = Env::new();
        bad.set("gs", Value::Int(3));
        assert_vm_agrees(&e, &["x"], &[Value::Int(2)], &bad);
        let faulting = IrExpr::Agg {
            op: AggOp::Add,
            init: Box::new(IrExpr::int(0)),
            over: "gs".into(),
            param: "a".into(),
            body: Box::new(IrExpr::bin(BinOp::Div, IrExpr::var("a"), IrExpr::int(0))),
        };
        assert_vm_agrees(&faulting, &[], &[], &st);
    }

    #[test]
    fn calls_and_string_constants_match() {
        let mut st = Env::new();
        st.set("x", Value::Double(-2.5));
        let e = IrExpr::Call("abs".into(), vec![IrExpr::var("x")]);
        assert_vm_agrees(&e, &[], &[], &st);
        let cat = IrExpr::bin(
            BinOp::Add,
            IrExpr::ConstStr("a".into()),
            IrExpr::ConstStr("b".into()),
        );
        assert_vm_agrees(&cat, &[], &[], &Env::new());
    }
}
