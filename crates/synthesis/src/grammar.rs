//! Search-space grammars, specialised per fragment (§3.2) and organised
//! into the incremental hierarchy of §4.2 / Figure 6.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use analyzer::fragment::Fragment;
use casper_ir::expr::{AggOp, IrExpr};
use casper_ir::mr::{DataShape, DataSource};
use seqlang::ast::{walk_stmts, BinOp, Expr, Function, Program, Stmt};
use seqlang::ty::Type;
use seqlang::value::Value;

/// One grammar class of the incremental hierarchy. All summaries
/// expressible in class `i` are expressible in class `j > i` (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrammarClass {
    /// Maximum number of map/reduce/join operators.
    pub max_ops: usize,
    /// Maximum emit statements per map transformer.
    pub max_emits: usize,
    /// Key/value type complexity: 1 = scalars only, 2 = tuples allowed.
    pub kv_complexity: usize,
    /// Maximum expression length (leaf operand count, §4.2). The
    /// enumerator tells 2 (atoms and binary composites) from 3
    /// (harvested atoms, scalar-adjusted join values); nothing is longer.
    pub max_expr_len: usize,
    /// Whether conditional (guarded) emits are allowed.
    pub allow_cond_emits: bool,
}

impl GrammarClass {
    pub fn name(&self, index: usize) -> String {
        format!("G{}", index + 1)
    }
}

/// Generate the grammar-class hierarchy for a fragment — the
/// `generateClasses` call of Figure 5 (line 12).
pub fn generate_classes() -> Vec<GrammarClass> {
    vec![
        // G1: one operator, single scalar emit (Figure 6's G1).
        GrammarClass {
            max_ops: 1,
            max_emits: 1,
            kv_complexity: 1,
            max_expr_len: 2,
            allow_cond_emits: false,
        },
        // G2: map→reduce pipelines.
        GrammarClass {
            max_ops: 2,
            max_emits: 1,
            kv_complexity: 1,
            max_expr_len: 2,
            allow_cond_emits: false,
        },
        // G3: conditional emits, two emits, tuple keys/values, longer
        // expressions (Figure 6's G3 admits Tuple<int,int> kv types).
        GrammarClass {
            max_ops: 2,
            max_emits: 2,
            kv_complexity: 2,
            max_expr_len: 3,
            allow_cond_emits: true,
        },
        // G4: everything — three-stage pipelines and joins, tuple
        // keys/values, guarded and double emits, harvested atoms
        // (Figure 6's G3 and beyond). The enumerator tests no
        // `max_expr_len` above 3, so a class with longer expressions
        // would repeat this one.
        GrammarClass {
            max_ops: 3,
            max_emits: 2,
            kv_complexity: 2,
            max_expr_len: 3,
            allow_cond_emits: true,
        },
    ]
}

/// The search-space grammar for one fragment: everything the candidate
/// enumerator needs.
#[derive(Debug, Clone)]
pub struct Grammar {
    /// Data sources with the λ-parameter names the enumerator binds.
    pub sources: Vec<SourceSpec>,
    /// Free scalar inputs available inside transformer bodies.
    pub scalars: Vec<(String, Type)>,
    /// Output variables and their types.
    pub outputs: Vec<(String, Type)>,
    /// Binary operators from the fragment (plus defaults).
    pub operators: Vec<BinOp>,
    /// Constant atoms (from the fragment, plus 0 and 1).
    pub constants: Vec<IrExpr>,
    /// Modelled library functions usable in expressions.
    pub methods: Vec<String>,
    /// Expression atoms harvested from the loop body, by type: guard
    /// conditions (`Bool`) and assigned value expressions. This is how the
    /// grammar is "specialised to the code fragment being translated"
    /// (§3.2, Appendix D).
    pub harvested_conds: Vec<IrExpr>,
    pub harvested_vals: Vec<(IrExpr, Type)>,
    /// Accumulator updates harvested from the loop body: for each output
    /// variable written as `out = out ⊕ e` (or via the `if (e > out)`
    /// min/max idiom), the combining operation and the per-record delta
    /// expression in λ-parameter space. This is the fragment-specialised
    /// production the paper's Appendix D grammar shows for TPC-H Q6.
    pub accum_updates: Vec<AccumUpdate>,
    /// Keyed-map accumulator updates: `m.put(k, m.get_or(k, init) ⊕ e)` —
    /// the WordCount / grouped-aggregation idiom.
    pub map_accums: Vec<MapAccum>,
    /// Statement-level appends to list outputs: `out.add(e)`, with the
    /// enclosing-guard conjunction. These are the projection expressions a
    /// collected-list summary must reproduce verbatim, so the enumerator
    /// seeds its map stage with them directly.
    pub list_appends: Vec<ListAppend>,
    /// Length variable for array outputs (e.g. `rows`).
    pub array_len_var: Option<String>,
    /// Struct field atoms: `param.field` projections with their types.
    pub field_atoms: Vec<(IrExpr, Type)>,
}

/// How an accumulator output combines per-record contributions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccumOp {
    Add,
    Mul,
    Min,
    Max,
    Or,
    And,
}

impl AccumOp {
    /// The reduce transformer realising this accumulation.
    pub fn reducer(&self) -> casper_ir::lambda::ReduceLambda {
        use casper_ir::lambda::ReduceLambda;
        use seqlang::ast::BinOp;
        match self {
            AccumOp::Add => ReduceLambda::binop(BinOp::Add),
            AccumOp::Mul => ReduceLambda::binop(BinOp::Mul),
            AccumOp::Or => ReduceLambda::binop(BinOp::Or),
            AccumOp::And => ReduceLambda::binop(BinOp::And),
            AccumOp::Min => ReduceLambda::new(IrExpr::Call(
                "min".into(),
                vec![IrExpr::var("v1"), IrExpr::var("v2")],
            )),
            AccumOp::Max => ReduceLambda::new(IrExpr::Call(
                "max".into(),
                vec![IrExpr::var("v1"), IrExpr::var("v2")],
            )),
        }
    }

    /// Componentwise combiner over tuple component `i`.
    pub fn component(&self, i: usize) -> IrExpr {
        use seqlang::ast::BinOp;
        let a = IrExpr::tget(IrExpr::var("v1"), i);
        let b = IrExpr::tget(IrExpr::var("v2"), i);
        match self {
            AccumOp::Add => IrExpr::bin(BinOp::Add, a, b),
            AccumOp::Mul => IrExpr::bin(BinOp::Mul, a, b),
            AccumOp::Or => IrExpr::bin(BinOp::Or, a, b),
            AccumOp::And => IrExpr::bin(BinOp::And, a, b),
            AccumOp::Min => IrExpr::Call("min".into(), vec![a, b]),
            AccumOp::Max => IrExpr::Call("max".into(), vec![a, b]),
        }
    }
}

/// One harvested accumulator update.
#[derive(Debug, Clone, PartialEq)]
pub struct AccumUpdate {
    /// Output variable being accumulated.
    pub var: String,
    pub op: AccumOp,
    /// Per-record contribution, in λ-parameter space.
    pub delta: IrExpr,
    /// Guard in λ-parameter space, when the update is conditional.
    pub cond: Option<IrExpr>,
    /// Type of the accumulated value.
    pub ty: Type,
}

/// One harvested `list.add(e)` statement from the loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct ListAppend {
    /// The list-typed output variable appended to.
    pub var: String,
    /// Appended expression, in λ-parameter space.
    pub value: IrExpr,
    /// Guard in λ-parameter space, when the append is conditional.
    pub cond: Option<IrExpr>,
}

/// A keyed accumulation into a map output.
#[derive(Debug, Clone, PartialEq)]
pub struct MapAccum {
    /// The map-typed output variable.
    pub var: String,
    /// Grouping key, in λ-parameter space.
    pub key: IrExpr,
    pub op: AccumOp,
    /// Per-record contribution, in λ-parameter space.
    pub delta: IrExpr,
    /// Guard, when the update is conditional.
    pub cond: Option<IrExpr>,
}

/// A data source plus the parameter names its map lambda binds.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    pub source: DataSource,
    /// λ parameter names, arity matching the shape.
    pub params: Vec<String>,
    /// Types of those parameters.
    pub param_tys: Vec<Type>,
}

impl Grammar {
    /// Build the grammar for a fragment — `generateGrammar(A)` in
    /// Figure 5 (line 11).
    pub fn for_fragment(fragment: &Fragment) -> Grammar {
        let mut sources = Vec::new();
        for dv in &fragment.data_vars {
            let (params, param_tys) = match dv.shape {
                DataShape::Flat => {
                    let elem_name = foreach_elem_name(fragment, &dv.name)
                        .unwrap_or_else(|| format!("_{}_e", dv.name));
                    (vec![elem_name], vec![dv.elem_ty.clone()])
                }
                DataShape::Indexed => {
                    let i = dv
                        .index_vars
                        .first()
                        .cloned()
                        .unwrap_or_else(|| format!("_{}_i", dv.name));
                    (
                        vec![i, format!("_{}_v", dv.name)],
                        vec![Type::Int, dv.elem_ty.clone()],
                    )
                }
                DataShape::Indexed2D => {
                    let i = dv
                        .index_vars
                        .first()
                        .cloned()
                        .unwrap_or_else(|| format!("_{}_i", dv.name));
                    let j = dv
                        .index_vars
                        .get(1)
                        .cloned()
                        .unwrap_or_else(|| format!("_{}_j", dv.name));
                    (
                        vec![i, j, format!("_{}_v", dv.name)],
                        vec![Type::Int, Type::Int, dv.elem_ty.clone()],
                    )
                }
            };
            sources.push(SourceSpec {
                source: DataSource {
                    var: dv.name.clone(),
                    shape: dv.shape,
                    elem_ty: dv.elem_ty.clone(),
                },
                params,
                param_tys,
            });
        }

        let mut operators = fragment.seed.operators.clone();
        for op in [BinOp::Add, BinOp::Eq] {
            if !operators.contains(&op) {
                operators.push(op);
            }
        }

        let mut constants: Vec<IrExpr> = vec![IrExpr::int(0), IrExpr::int(1)];
        for c in &fragment.seed.constants {
            let e = match c {
                Value::Int(n) => IrExpr::int(*n),
                Value::Double(x) => IrExpr::double(*x),
                Value::Str(s) => IrExpr::ConstStr(s.to_string()),
                Value::Bool(b) => IrExpr::ConstBool(*b),
                _ => continue,
            };
            if !constants.contains(&e) {
                constants.push(e);
            }
        }

        let methods: Vec<String> = fragment
            .seed
            .methods
            .iter()
            .filter(|m| {
                matches!(
                    m.as_str(),
                    "abs"
                        | "min"
                        | "max"
                        | "sqrt"
                        | "pow"
                        | "exp"
                        | "log"
                        | "int_to_double"
                        | "double_to_int"
                )
            })
            .cloned()
            .collect();

        // Rename map: source-language variables → λ parameters.
        let mut renames: HashMap<String, IrExpr> = HashMap::new();
        let mut index_renames: Vec<(String, String, Option<String>, IrExpr)> = Vec::new();
        for (dv, spec) in fragment.data_vars.iter().zip(&sources) {
            match dv.shape {
                DataShape::Flat => {
                    // For-each element variable → first λ param.
                    if let Some(elem) = foreach_elem_name(fragment, &dv.name) {
                        renames.insert(elem, IrExpr::var(spec.params[0].clone()));
                    }
                }
                DataShape::Indexed => {
                    index_renames.push((
                        dv.name.clone(),
                        spec.params[0].clone(),
                        None,
                        IrExpr::var(spec.params[1].clone()),
                    ));
                }
                DataShape::Indexed2D => {
                    index_renames.push((
                        dv.name.clone(),
                        spec.params[0].clone(),
                        Some(spec.params[1].clone()),
                        IrExpr::var(spec.params[2].clone()),
                    ));
                }
            }
        }
        let mut conv = Converter {
            renames,
            index_renames,
            program: fragment.program.clone(),
            depth: Cell::new(0),
        };

        // Pre-pass: straight-line locals and local fold loops
        // (`let acc = e0; for (w in coll) { acc = acc ⊕ f(w) }`) become
        // rename entries — the fold turns into an inline aggregate
        // `agg_⊕(e0, w in coll, f(w))` — so every later harvest that
        // mentions the local sees an in-scope expression.
        if let Some(body) = loop_body(&fragment.loop_stmt) {
            for (name, e) in harvest_local_aggs(body, fragment, &conv) {
                conv.renames.insert(name, e);
            }
        }

        // Harvest atoms from the loop body.
        let mut harvested_conds = Vec::new();
        let mut harvested_vals = Vec::new();
        let body = loop_body(&fragment.loop_stmt);
        if let Some(body) = body {
            walk_stmts(body, &mut |s| match s {
                Stmt::If { cond, .. } => {
                    if let Some(e) = conv.convert(cond) {
                        if !harvested_conds.contains(&e) {
                            harvested_conds.push(e);
                        }
                    }
                }
                Stmt::Assign { value, .. } | Stmt::Let { init: value, .. } => {
                    if let (Some(e), Some(t)) = (conv.convert(value), value.ty()) {
                        if t.is_numeric() || t == Type::Bool || t == Type::Str {
                            let pair = (e, t);
                            if !harvested_vals.contains(&pair) {
                                harvested_vals.push(pair);
                            }
                        }
                    }
                }
                _ => {}
            });
        }

        // Harvest accumulator updates: `out = out ⊕ e`, `out = e ⊕ out`,
        // and the `if (e > out) { out = e }` min/max idiom, possibly under
        // a guard.
        let mut accum_updates: Vec<AccumUpdate> = Vec::new();
        let mut map_accums: Vec<MapAccum> = Vec::new();
        let mut list_appends: Vec<ListAppend> = Vec::new();
        if let Some(body) = loop_body(&fragment.loop_stmt) {
            harvest_accums(body, fragment, &conv, None, &mut accum_updates);
            harvest_map_accums(body, fragment, &conv, None, &mut map_accums);
            harvest_list_appends(body, fragment, &conv, None, &mut list_appends);
        }

        // Struct field atoms for struct-typed elements.
        let mut field_atoms = Vec::new();
        for spec in &sources {
            for (p, t) in spec.params.iter().zip(&spec.param_tys) {
                if let Type::Struct(sname) = t {
                    if let Some(sd) = fragment.program.struct_def(sname) {
                        for (fname, fty) in &sd.fields {
                            field_atoms.push((
                                IrExpr::field(IrExpr::var(p.clone()), fname.clone()),
                                fty.clone(),
                            ));
                        }
                    }
                }
            }
        }

        let array_len_var = fragment
            .data_vars
            .iter()
            .find_map(|dv| dv.len_vars.first().cloned());

        Grammar {
            sources,
            scalars: fragment.free_scalars(),
            outputs: fragment.outputs.clone(),
            operators,
            constants,
            methods,
            harvested_conds,
            harvested_vals,
            accum_updates,
            map_accums,
            list_appends,
            array_len_var,
            field_atoms,
        }
    }
}

/// The inline-aggregate operator matching an accumulator operation.
fn agg_op(op: &AccumOp) -> AggOp {
    match op {
        AccumOp::Add => AggOp::Add,
        AccumOp::Mul => AggOp::Mul,
        AccumOp::Min => AggOp::Min,
        AccumOp::Max => AggOp::Max,
        AccumOp::Or => AggOp::Or,
        AccumOp::And => AggOp::And,
    }
}

/// Identity element for an accumulator operation, when one exists.
fn agg_identity(op: &AccumOp, ty: &Type) -> Option<IrExpr> {
    Some(match (op, ty) {
        (AccumOp::Add, Type::Int) => IrExpr::int(0),
        (AccumOp::Add, Type::Double) => IrExpr::double(0.0),
        (AccumOp::Mul, Type::Int) => IrExpr::int(1),
        (AccumOp::Mul, Type::Double) => IrExpr::double(1.0),
        (AccumOp::Or, Type::Bool) => IrExpr::ConstBool(false),
        (AccumOp::And, Type::Bool) => IrExpr::ConstBool(true),
        _ => return None,
    })
}

/// Substitute plain variables in an IR expression; the binder of an
/// inline aggregate shadows the substitution inside its body.
fn subst_ir(e: &IrExpr, env: &HashMap<String, IrExpr>) -> IrExpr {
    match e {
        IrExpr::Var(v) => env.get(v).cloned().unwrap_or_else(|| e.clone()),
        IrExpr::Un(op, x) => IrExpr::Un(*op, Box::new(subst_ir(x, env))),
        IrExpr::Bin(op, l, r) => IrExpr::bin(*op, subst_ir(l, env), subst_ir(r, env)),
        IrExpr::Field(b, f) => IrExpr::field(subst_ir(b, env), f.clone()),
        IrExpr::TupleGet(b, i) => IrExpr::TupleGet(Box::new(subst_ir(b, env)), *i),
        IrExpr::Tuple(es) => IrExpr::Tuple(es.iter().map(|x| subst_ir(x, env)).collect()),
        IrExpr::Call(f, args) => {
            IrExpr::Call(f.clone(), args.iter().map(|x| subst_ir(x, env)).collect())
        }
        IrExpr::Method(b, m, args) => IrExpr::Method(
            Box::new(subst_ir(b, env)),
            m.clone(),
            args.iter().map(|x| subst_ir(x, env)).collect(),
        ),
        IrExpr::If(c, t, f) => IrExpr::ite(subst_ir(c, env), subst_ir(t, env), subst_ir(f, env)),
        IrExpr::Agg {
            op,
            init,
            over,
            param,
            body,
        } => {
            let mut masked = env.clone();
            masked.remove(param);
            let over = match env.get(over) {
                Some(IrExpr::Var(nv)) => nv.clone(),
                _ => over.clone(),
            };
            IrExpr::Agg {
                op: *op,
                init: Box::new(subst_ir(init, env)),
                over,
                param: param.clone(),
                body: Box::new(subst_ir(body, &masked)),
            }
        }
        IrExpr::ConstInt(_)
        | IrExpr::ConstDouble(_)
        | IrExpr::ConstBool(_)
        | IrExpr::ConstStr(_) => e.clone(),
    }
}

fn mentions_ir(e: &IrExpr, name: &str) -> bool {
    let mut vars = Vec::new();
    e.free_vars(&mut vars);
    vars.iter().any(|v| v == name)
}

/// Pre-pass over the outer loop body (Mechanism behind the paper's nested
/// aggregates, §3.2): track straight-line local `let`s in λ space, and
/// collapse a local fold loop over a named collection into one inline
/// aggregate. Locals written anywhere the pass cannot model are dropped,
/// so stale substitutions never escape.
fn harvest_local_aggs(
    body: &seqlang::ast::Block,
    fragment: &Fragment,
    conv: &Converter,
) -> HashMap<String, IrExpr> {
    let is_output = |n: &str| fragment.outputs.iter().any(|(o, _)| o == n);
    let mut pending: HashMap<String, IrExpr> = HashMap::new();
    let mut tys: HashMap<String, Type> = HashMap::new();
    for stmt in &body.stmts {
        match stmt {
            Stmt::Let { name, ty, init, .. } if !is_output(name) => match conv.convert(init) {
                Some(e) => {
                    pending.insert(name.clone(), subst_ir(&e, &pending));
                    tys.insert(name.clone(), ty.clone());
                }
                None => {
                    pending.remove(name);
                }
            },
            Stmt::Assign {
                target: Expr::Var { name, .. },
                ..
            } => {
                // A top-level reassignment outside the recognised fold
                // shape invalidates the local.
                pending.remove(name);
            }
            Stmt::ForEach {
                var: param,
                iterable: Expr::Var { name: coll, .. },
                body: inner,
                ..
            } => {
                fold_local_aggs(param, coll, inner, conv, &mut pending, &tys);
            }
            other => {
                // Any write to a tracked local inside an unmodelled
                // construct (counted loop, conditional, ...) kills it.
                walk_stmts(
                    &seqlang::ast::Block {
                        stmts: vec![other.clone()],
                    },
                    &mut |s| {
                        if let Stmt::Assign {
                            target: Expr::Var { name, .. },
                            ..
                        } = s
                        {
                            pending.remove(name);
                        }
                    },
                );
            }
        }
    }
    pending
}

/// Recognise the single accumulation of each tracked local inside one
/// inner for-each, replacing its pending value with the inline aggregate.
fn fold_local_aggs(
    param: &str,
    coll: &str,
    inner: &seqlang::ast::Block,
    conv: &Converter,
    pending: &mut HashMap<String, IrExpr>,
    tys: &HashMap<String, Type>,
) {
    // Count every write inside the loop: a fold is only sound when its
    // target is written exactly once, by the recognised statement.
    let mut writes: HashMap<String, usize> = HashMap::new();
    walk_stmts(inner, &mut |s| {
        if let Stmt::Assign {
            target: Expr::Var { name, .. },
            ..
        } = s
        {
            *writes.entry(name.clone()).or_default() += 1;
        }
    });

    let mut inner_env: HashMap<String, IrExpr> = HashMap::new();
    let mut folds: Vec<(String, AccumOp, IrExpr)> = Vec::new();
    for stmt in &inner.stmts {
        match stmt {
            Stmt::Let { name, init, .. } => {
                let resolved = conv.convert(init).map(|e| {
                    let mut env = pending.clone();
                    env.extend(inner_env.clone());
                    subst_ir(&e, &env)
                });
                match resolved {
                    Some(e) => {
                        inner_env.insert(name.clone(), e);
                    }
                    None => {
                        inner_env.remove(name);
                    }
                }
            }
            Stmt::Assign {
                target: Expr::Var { name, .. },
                value,
                ..
            } if pending.contains_key(name) => {
                if let Some((op, body)) =
                    local_fold_shape(name, None, value, conv, pending, &inner_env, tys)
                {
                    folds.push((name.clone(), op, body));
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk: None,
                ..
            } if then_blk.stmts.len() == 1 => {
                if let Stmt::Assign {
                    target: Expr::Var { name, .. },
                    value,
                    ..
                } = &then_blk.stmts[0]
                {
                    if pending.contains_key(name) {
                        if let Some((op, body)) = local_fold_shape(
                            name,
                            Some(cond),
                            value,
                            conv,
                            pending,
                            &inner_env,
                            tys,
                        ) {
                            folds.push((name.clone(), op, body));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    let mut folded: Vec<String> = Vec::new();
    for (name, op, body) in folds {
        if writes.get(&name) != Some(&1) || folded.iter().any(|f| f == &name) {
            pending.remove(&name);
            continue;
        }
        let init = pending
            .remove(&name)
            .expect("fold target tracked in pending");
        pending.insert(
            name.clone(),
            IrExpr::Agg {
                op: agg_op(&op),
                init: Box::new(init),
                over: coll.to_string(),
                param: param.to_string(),
                body: Box::new(body),
            },
        );
        folded.push(name);
    }
    // Locals written in the loop without a recognised fold are stale.
    for name in writes.keys() {
        if !folded.iter().any(|f| f == name) {
            pending.remove(name);
        }
    }
}

/// Classify one write to a tracked local as a fold step, returning the
/// combining operation and the per-element body (guards folded in via
/// `If(g, δ, identity)`, the min/max idiom via its comparison guard).
fn local_fold_shape(
    name: &str,
    cond: Option<&Expr>,
    value: &Expr,
    conv: &Converter,
    pending: &HashMap<String, IrExpr>,
    inner_env: &HashMap<String, IrExpr>,
    tys: &HashMap<String, Type>,
) -> Option<(AccumOp, IrExpr)> {
    use seqlang::ast::BinOp as B;
    let resolve = |e: &Expr| -> Option<IrExpr> {
        let c = conv.convert(e)?;
        let mut env = pending.clone();
        env.extend(inner_env.clone());
        // The fold target must stay a bare variable for shape checks.
        env.remove(name);
        Some(subst_ir(&c, &env))
    };
    let guard = match cond {
        Some(c) => Some(resolve(c)?),
        None => None,
    };
    // `acc = acc ⊕ e` (either side), possibly guarded.
    if let Expr::Binary { op, lhs, rhs, .. } = value {
        let aop = match op {
            B::Add => Some(AccumOp::Add),
            B::Mul => Some(AccumOp::Mul),
            B::Or => Some(AccumOp::Or),
            B::And => Some(AccumOp::And),
            _ => None,
        };
        if let Some(aop) = aop {
            let other = if matches!(&**lhs, Expr::Var { name: n, .. } if n == name) {
                Some(rhs)
            } else if matches!(&**rhs, Expr::Var { name: n, .. } if n == name) {
                Some(lhs)
            } else {
                None
            };
            if let Some(other) = other {
                let delta = resolve(other)?;
                if mentions_ir(&delta, name) {
                    return None;
                }
                let body = match &guard {
                    Some(g) => {
                        if mentions_ir(g, name) {
                            return None;
                        }
                        let identity = agg_identity(&aop, tys.get(name)?)?;
                        IrExpr::ite(g.clone(), delta, identity)
                    }
                    None => delta,
                };
                return Some((aop, body));
            }
        }
    }
    // `if (e < acc) { acc = e }` — the running-min/max idiom.
    if let Some(g) = &guard {
        let delta = resolve(value)?;
        if mentions_ir(&delta, name) {
            return None;
        }
        if let Some(aop) = minmax_guard(g, &delta, name, conv) {
            return Some((aop, delta));
        }
    }
    None
}

/// Walk the loop body collecting statement-level appends to list outputs,
/// tracking the enclosing-guard conjunction. Appends inside nested loops
/// are skipped: they emit more than one element per outer record.
fn harvest_list_appends(
    block: &seqlang::ast::Block,
    fragment: &Fragment,
    conv: &Converter,
    guard: Option<&IrExpr>,
    out: &mut Vec<ListAppend>,
) {
    use seqlang::ast::BinOp as B;
    let is_list_output = |name: &str| {
        fragment
            .outputs
            .iter()
            .any(|(n, t)| n == name && matches!(t, Type::List(_)))
    };
    for stmt in &block.stmts {
        match stmt {
            Stmt::ExprStmt {
                expr:
                    Expr::MethodCall {
                        recv, method, args, ..
                    },
                ..
            } if matches!(method.as_str(), "add" | "append") && args.len() == 1 => {
                let Expr::Var { name, .. } = &**recv else {
                    continue;
                };
                if !is_list_output(name) {
                    continue;
                }
                if let Some(value) = conv.convert(&args[0]) {
                    let ap = ListAppend {
                        var: name.clone(),
                        value,
                        cond: guard.cloned(),
                    };
                    if !out.contains(&ap) {
                        out.push(ap);
                    }
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                if let Some(g) = conv.convert(cond) {
                    let combined = match guard {
                        Some(outer) => IrExpr::bin(B::And, outer.clone(), g.clone()),
                        None => g.clone(),
                    };
                    harvest_list_appends(then_blk, fragment, conv, Some(&combined), out);
                    if let Some(b) = else_blk {
                        let negated = IrExpr::Un(seqlang::ast::UnOp::Not, Box::new(g));
                        let neg = match guard {
                            Some(outer) => IrExpr::bin(B::And, outer.clone(), negated),
                            None => negated,
                        };
                        harvest_list_appends(b, fragment, conv, Some(&neg), out);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Walk a loop body collecting accumulator updates; `guard` carries the
/// conjunction of enclosing `if` conditions (converted to λ space).
fn harvest_accums(
    block: &seqlang::ast::Block,
    fragment: &Fragment,
    conv: &Converter,
    guard: Option<&IrExpr>,
    out: &mut Vec<AccumUpdate>,
) {
    use seqlang::ast::BinOp as B;
    let output_ty = |name: &str| -> Option<Type> {
        fragment
            .outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.clone())
    };
    for stmt in &block.stmts {
        match stmt {
            Stmt::Assign {
                target: Expr::Var { name, .. },
                value,
                ..
            } => {
                let Some(ty) = output_ty(name) else { continue };
                // out = out ⊕ e  |  out = e ⊕ out
                if let Expr::Binary { op, lhs, rhs, .. } = value {
                    let accum_op = match op {
                        B::Add => Some(AccumOp::Add),
                        B::Mul => Some(AccumOp::Mul),
                        B::Or => Some(AccumOp::Or),
                        B::And => Some(AccumOp::And),
                        _ => None,
                    };
                    if let Some(aop) = accum_op {
                        let delta = if matches!(&**lhs, Expr::Var { name: n, .. } if n == name) {
                            conv.convert(rhs)
                        } else if matches!(&**rhs, Expr::Var { name: n, .. } if n == name) {
                            conv.convert(lhs)
                        } else {
                            None
                        };
                        if let Some(delta) = delta {
                            out.push(AccumUpdate {
                                var: name.clone(),
                                op: aop,
                                delta,
                                cond: guard.cloned(),
                                ty,
                            });
                            continue;
                        }
                    }
                }
                // `if (e > out) { out = e }` handled at the If arm below;
                // a bare `out = e` under a `>`/`<` guard is that idiom.
                if let Some(g) = guard {
                    if let Some(delta) = conv.convert(value) {
                        let minmax = minmax_guard(g, &delta, name, conv);
                        if let Some(aop) = minmax {
                            out.push(AccumUpdate {
                                var: name.clone(),
                                op: aop,
                                delta,
                                cond: None,
                                ty,
                            });
                            continue;
                        }
                        // Guarded boolean flags: `if (cond) { f = true }`.
                        if matches!(value, Expr::BoolLit(true, _)) {
                            out.push(AccumUpdate {
                                var: name.clone(),
                                op: AccumOp::Or,
                                delta: g.clone(),
                                cond: None,
                                ty,
                            });
                            continue;
                        }
                    }
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                if let Some(g) = conv.convert(cond) {
                    let combined = match guard {
                        Some(outer) => IrExpr::bin(B::And, outer.clone(), g),
                        None => g,
                    };
                    harvest_accums(then_blk, fragment, conv, Some(&combined), out);
                    if let Some(b) = else_blk {
                        let negated =
                            IrExpr::Un(seqlang::ast::UnOp::Not, Box::new(combined.clone()));
                        let outer_neg = match guard {
                            Some(outer) => IrExpr::bin(B::And, outer.clone(), negated),
                            None => negated,
                        };
                        harvest_accums(b, fragment, conv, Some(&outer_neg), out);
                    }
                }
            }
            Stmt::ForEach {
                var: param,
                iterable: Expr::Var { name: coll, .. },
                body: inner,
                ..
            } => {
                // A nested for-each over a named collection: each inner
                // accumulation `out = out ⊕ f(w)` lifts to an outer-level
                // update whose delta is the inline aggregate
                // `agg_⊕(init, w in coll, f(w))` — the whole inner loop's
                // contribution per outer record. Min/max folds seed from
                // the output's pre-state value; ⊕-folds from the identity,
                // with inner guards folded into the body.
                let mut inner_updates = Vec::new();
                harvest_accums(inner, fragment, conv, None, &mut inner_updates);
                let mut lifted = false;
                for u in &inner_updates {
                    let (init, body) = match (&u.op, &u.cond) {
                        (AccumOp::Min | AccumOp::Max, None) => {
                            (IrExpr::var(u.var.clone()), u.delta.clone())
                        }
                        (AccumOp::Min | AccumOp::Max, Some(_)) => continue,
                        (op, cond) => {
                            let Some(identity) = agg_identity(op, &u.ty) else {
                                continue;
                            };
                            let body = match cond {
                                Some(c) => {
                                    IrExpr::ite(c.clone(), u.delta.clone(), identity.clone())
                                }
                                None => u.delta.clone(),
                            };
                            (identity, body)
                        }
                    };
                    out.push(AccumUpdate {
                        var: u.var.clone(),
                        op: u.op.clone(),
                        delta: IrExpr::Agg {
                            op: agg_op(&u.op),
                            init: Box::new(init),
                            over: coll.clone(),
                            param: param.clone(),
                            body: Box::new(body),
                        },
                        cond: guard.cloned(),
                        ty: u.ty.clone(),
                    });
                    lifted = true;
                }
                if !lifted {
                    harvest_accums(inner, fragment, conv, guard, out);
                }
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } | Stmt::ForEach { body, .. } => {
                harvest_accums(body, fragment, conv, guard, out);
            }
            _ => {}
        }
    }
}

/// Walk a loop body collecting keyed map accumulations:
/// `m.put(k, m.get_or(k, init) ⊕ e)`.
fn harvest_map_accums(
    block: &seqlang::ast::Block,
    fragment: &Fragment,
    conv: &Converter,
    guard: Option<&IrExpr>,
    out: &mut Vec<MapAccum>,
) {
    use seqlang::ast::BinOp as B;
    let is_map_output = |name: &str| {
        fragment
            .outputs
            .iter()
            .any(|(n, t)| n == name && matches!(t, Type::Map(..)))
    };
    for stmt in &block.stmts {
        match stmt {
            Stmt::ExprStmt {
                expr:
                    Expr::MethodCall {
                        recv, method, args, ..
                    },
                ..
            } if method == "put" && args.len() == 2 => {
                let Expr::Var { name: map_var, .. } = &**recv else {
                    continue;
                };
                if !is_map_output(map_var) {
                    continue;
                }
                let Some(key) = conv.convert(&args[0]) else {
                    continue;
                };
                // Value must be `m.get_or(key, init) ⊕ delta` (either side).
                let Expr::Binary { op, lhs, rhs, .. } = &args[1] else {
                    continue;
                };
                let aop = match op {
                    B::Add => AccumOp::Add,
                    B::Mul => AccumOp::Mul,
                    B::Or => AccumOp::Or,
                    B::And => AccumOp::And,
                    _ => continue,
                };
                let is_get_or = |e: &Expr| -> bool {
                    matches!(e, Expr::MethodCall { recv: r2, method: m2, .. }
                        if m2 == "get_or"
                            && matches!(&**r2, Expr::Var { name: n2, .. } if n2 == map_var))
                };
                let delta = if is_get_or(lhs) {
                    conv.convert(rhs)
                } else if is_get_or(rhs) {
                    conv.convert(lhs)
                } else {
                    None
                };
                if let Some(delta) = delta {
                    out.push(MapAccum {
                        var: map_var.clone(),
                        key,
                        op: aop,
                        delta,
                        cond: guard.cloned(),
                    });
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                if let Some(g) = conv.convert(cond) {
                    let combined = match guard {
                        Some(outer) => IrExpr::bin(B::And, outer.clone(), g),
                        None => g,
                    };
                    harvest_map_accums(then_blk, fragment, conv, Some(&combined), out);
                    if let Some(b) = else_blk {
                        harvest_map_accums(b, fragment, conv, guard, out);
                    }
                }
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } | Stmt::ForEach { body, .. } => {
                harvest_map_accums(body, fragment, conv, guard, out);
            }
            _ => {}
        }
    }
}

/// Recognise `e > out` / `out < e` guards around `out = e` as max, and the
/// mirrored forms as min.
fn minmax_guard(
    guard: &IrExpr,
    delta: &IrExpr,
    out_var: &str,
    _conv: &Converter,
) -> Option<AccumOp> {
    use seqlang::ast::BinOp as B;
    let is_out = |e: &IrExpr| matches!(e, IrExpr::Var(v) if v == out_var);
    if let IrExpr::Bin(op, l, r) = guard {
        let (d_side_l, d_side_r) = (**l == *delta, **r == *delta);
        match op {
            B::Gt | B::Ge if d_side_l && is_out(r) => return Some(AccumOp::Max),
            B::Lt | B::Le if d_side_l && is_out(r) => return Some(AccumOp::Min),
            B::Gt | B::Ge if d_side_r && is_out(l) => return Some(AccumOp::Min),
            B::Lt | B::Le if d_side_r && is_out(l) => return Some(AccumOp::Max),
            _ => {}
        }
    }
    None
}

fn loop_body(stmt: &Stmt) -> Option<&seqlang::ast::Block> {
    match stmt {
        Stmt::ForEach { body, .. } | Stmt::For { body, .. } | Stmt::While { body, .. } => {
            Some(body)
        }
        _ => None,
    }
}

/// Element-variable name of the for-each loop over `data` (outer or
/// nested), if any.
fn foreach_elem_name(fragment: &Fragment, data: &str) -> Option<String> {
    let mut found = None;
    let check = |s: &Stmt, found: &mut Option<String>| {
        if let Stmt::ForEach {
            var,
            iterable: Expr::Var { name, .. },
            ..
        } = s
        {
            if name == data && found.is_none() {
                *found = Some(var.clone());
            }
        }
    };
    check(&fragment.loop_stmt, &mut found);
    if found.is_none() {
        if let Some(body) = loop_body(&fragment.loop_stmt) {
            walk_stmts(body, &mut |s| check(s, &mut found));
        }
    }
    found
}

/// Converts source-language expressions into IR expressions, renaming
/// loop/data accesses to λ parameters. Returns `None` for constructs the
/// IR cannot express (mutating calls, collection literals, ...).
struct Converter {
    renames: HashMap<String, IrExpr>,
    /// `(array, i, Some(j), replacement)`: `array[i][j]` → replacement;
    /// `(array, i, None, replacement)`: `array[i]` → replacement.
    index_renames: Vec<(String, String, Option<String>, IrExpr)>,
    /// The enclosing program, for inlining straight-line helper calls.
    program: Arc<Program>,
    /// Current helper-inlining depth, bounded against recursive helpers.
    depth: Cell<usize>,
}

impl Converter {
    fn convert(&self, e: &Expr) -> Option<IrExpr> {
        match e {
            Expr::IntLit(n, _) => Some(IrExpr::int(*n)),
            Expr::DoubleLit(x, _) => Some(IrExpr::double(*x)),
            Expr::BoolLit(b, _) => Some(IrExpr::ConstBool(*b)),
            Expr::StrLit(s, _) => Some(IrExpr::ConstStr(s.clone())),
            Expr::Var { name, .. } => Some(
                self.renames
                    .get(name)
                    .cloned()
                    .unwrap_or_else(|| IrExpr::var(name.clone())),
            ),
            Expr::Unary { op, operand, .. } => {
                Some(IrExpr::Un(*op, Box::new(self.convert(operand)?)))
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                Some(IrExpr::bin(*op, self.convert(lhs)?, self.convert(rhs)?))
            }
            Expr::Index { base, index, .. } => {
                // a[i] / a[i][j] patterns → λ parameters.
                for (arr, i, j, replacement) in &self.index_renames {
                    match j {
                        None => {
                            if let (Expr::Var { name: a, .. }, Expr::Var { name: iv, .. }) =
                                (&**base, &**index)
                            {
                                if a == arr && iv == i {
                                    return Some(replacement.clone());
                                }
                            }
                        }
                        Some(jv) => {
                            if let (
                                Expr::Index {
                                    base: b2,
                                    index: i2,
                                    ..
                                },
                                Expr::Var { name: jn, .. },
                            ) = (&**base, &**index)
                            {
                                if jn == jv {
                                    if let (Expr::Var { name: a, .. }, Expr::Var { name: iv, .. }) =
                                        (&**b2, &**i2)
                                    {
                                        if a == arr && iv == i {
                                            return Some(replacement.clone());
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                // General indexed read of a non-iterated input (a
                // broadcast variable in Spark terms): `rank[e.src]` →
                // `rank.get(e.src)`.
                let b = self.convert(base)?;
                let i = self.convert(index)?;
                Some(IrExpr::Method(Box::new(b), "get".into(), vec![i]))
            }
            Expr::Field { base, field, .. } => {
                Some(IrExpr::field(self.convert(base)?, field.clone()))
            }
            Expr::Call { func, args, .. } => {
                let mut out = Vec::with_capacity(args.len());
                for a in args {
                    out.push(self.convert(a)?);
                }
                // User-defined helpers are inlined (§6.1): straight-line
                // `let` bindings followed by a single return, substituted
                // through. Library functions pass straight to the IR.
                if let Some(f) = self.program.function(func) {
                    return self.inline_helper(f, &out);
                }
                Some(IrExpr::Call(func.clone(), out))
            }
            Expr::MethodCall {
                recv, method, args, ..
            } => {
                if matches!(method.as_str(), "add" | "append" | "put") {
                    return None;
                }
                let mut out = Vec::with_capacity(args.len());
                for a in args {
                    out.push(self.convert(a)?);
                }
                Some(IrExpr::Method(
                    Box::new(self.convert(recv)?),
                    method.clone(),
                    out,
                ))
            }
            _ => None,
        }
    }

    /// Inline a straight-line helper (`let` bindings then `return e`) by
    /// sequential substitution of its parameters and locals. Helpers with
    /// any other statement shape are not expressible.
    fn inline_helper(&self, f: &Function, args: &[IrExpr]) -> Option<IrExpr> {
        if self.depth.get() >= 4 || f.params.len() != args.len() {
            return None;
        }
        // Helper bodies convert in their own scope: no loop renames.
        let clean = Converter {
            renames: HashMap::new(),
            index_renames: Vec::new(),
            program: self.program.clone(),
            depth: Cell::new(self.depth.get() + 1),
        };
        let mut env: HashMap<String, IrExpr> = f
            .params
            .iter()
            .map(|(n, _)| n.clone())
            .zip(args.iter().cloned())
            .collect();
        for stmt in &f.body.stmts {
            match stmt {
                Stmt::Let { name, init, .. } => {
                    let e = subst_ir(&clean.convert(init)?, &env);
                    env.insert(name.clone(), e);
                }
                Stmt::Return { value: Some(v), .. } => {
                    return Some(subst_ir(&clean.convert(v)?, &env));
                }
                _ => return None,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analyzer::identify_fragments;
    use seqlang::compile;
    use std::sync::Arc;

    fn grammar_for(src: &str) -> Grammar {
        let p = Arc::new(compile(src).unwrap());
        let frag = identify_fragments(&p).remove(0);
        Grammar::for_fragment(&frag)
    }

    #[test]
    fn hierarchy_is_monotone() {
        let classes = generate_classes();
        for w in classes.windows(2) {
            assert!(w[1].max_ops >= w[0].max_ops);
            assert!(w[1].max_emits >= w[0].max_emits);
            assert!(w[1].kv_complexity >= w[0].kv_complexity);
            assert!(w[1].max_expr_len >= w[0].max_expr_len);
        }
    }

    #[test]
    fn foreach_param_uses_source_variable_name() {
        let g = grammar_for(
            "fn sum(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }",
        );
        assert_eq!(g.sources.len(), 1);
        assert_eq!(g.sources[0].params, vec!["x".to_string()]);
        assert!(g.operators.contains(&BinOp::Add));
    }

    #[test]
    fn harvests_conditions_and_values() {
        let g = grammar_for(
            "fn csum(xs: list<int>, t: int) -> int {
                let s: int = 0;
                for (x in xs) { if (x > t) { s = s + x; } }
                return s;
            }",
        );
        assert!(
            !g.harvested_conds.is_empty(),
            "the guard `x > t` must be harvested"
        );
        let printed = format!("{}", g.harvested_conds[0]);
        assert_eq!(printed, "(x > t)");
    }

    #[test]
    fn two_d_access_renamed_to_params() {
        let g = grammar_for(
            "fn rwm(mat: array<array<int>>, rows: int, cols: int) -> array<int> {
                let m: array<int> = new array<int>(rows);
                for (let i: int = 0; i < rows; i = i + 1) {
                    let sum: int = 0;
                    for (let j: int = 0; j < cols; j = j + 1) {
                        sum = sum + mat[i][j];
                    }
                    m[i] = sum / cols;
                }
                return m;
            }",
        );
        assert_eq!(g.sources[0].params.len(), 3);
        assert_eq!(g.array_len_var.as_deref(), Some("rows"));
        // Harvested `sum + mat[i][j]` should reference the renamed value
        // parameter, not the raw index expression.
        let has_param = g
            .harvested_vals
            .iter()
            .any(|(e, _)| format!("{e}").contains("_mat_v"));
        assert!(has_param, "harvested: {:?}", g.harvested_vals);
    }

    #[test]
    fn struct_fields_become_atoms() {
        let g = grammar_for(
            "struct P { x: double, y: double }
            fn f(ps: list<P>) -> double {
                let s: double = 0.0;
                for (p in ps) { s = s + p.x; }
                return s;
            }",
        );
        assert!(g
            .field_atoms
            .iter()
            .any(|(e, t)| { format!("{e}") == "p.x" && *t == Type::Double }));
    }

    #[test]
    fn defaults_include_zero_and_one() {
        let g = grammar_for(
            "fn count(xs: list<int>) -> int {
                let n: int = 0;
                for (x in xs) { n = n + 1; }
                return n;
            }",
        );
        assert!(g.constants.contains(&IrExpr::int(0)));
        assert!(g.constants.contains(&IrExpr::int(1)));
    }
}
