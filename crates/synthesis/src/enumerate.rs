//! Type-directed candidate enumeration from a grammar class.
//!
//! This fills the role Sketch's constraint solver plays in the original
//! system: producing candidate program summaries drawn from the search
//! space grammar, cheapest first. Enumeration is structured around the
//! *skeleton families* the IR admits (Figure 3's `PS` production):
//!
//! ```text
//! map(d, λm)                              — selection/projection
//! reduce(map(d, λm), λr)                  — aggregation
//! map(reduce(map(d, λm1), λr), λm2)       — aggregate-then-transform
//! reduce(map(join(d1, d2), λm), λr)       — index joins (zip patterns)
//! reduce(map(join(map(d1,λk1), map(d2,λk2)), λm), λr) — key joins
//! ```
//!
//! with transformer bodies drawn from typed expression pools built over
//! the fragment's parameters, free scalars, constants, harvested atoms,
//! and modelled library methods.
//!
//! ## Born in normal form
//!
//! Every expression a pool holds is in [`casper_ir::normalize`]'s normal
//! form, typed by the λ parameters of its stage and [`Grammar::type_of`];
//! a composite built from pool members is normalized once, when the pool
//! is built, and so are the harvested atoms and guards. Emits are
//! assembled by [`normalize::emit`], which drops a constant-`false` guard's
//! emit and unguards a constant-`true` one, so every candidate is its own
//! normal form ([`normalize::summary`]). An algebraic copy (`x + 0`,
//! `0 + x`, `key2 == w`) is therefore the same summary as its original, and
//! the exact-equality candidate pool drops it before it is costed,
//! compiled or screened.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;

use casper_ir::expr::IrExpr;
use casper_ir::lambda::{Emit, MapLambda, ReduceLambda};
use casper_ir::mr::{DataShape, MrExpr, OutputBinding, OutputKind, ProgramSummary};
use casper_ir::normalize::{self, Scope};
use cost::CostWeights;
use seqlang::ast::BinOp;
use seqlang::ty::Type;

use crate::grammar::{AccumOp, AccumUpdate, Grammar, GrammarClass, MapAccum};

/// Caps that keep the per-stage expression pools tractable (the paper
/// relies on Sketch's solver; we rely on cost-ordered pools). There is no
/// cap on the number of candidates: the stream produces them in cost
/// order and the search simply stops pulling when it is done.
const POOL_CAP: usize = 48;
const EMIT_CAP: usize = 600;

/// Ordering key for one candidate: the cost crate's static model (§5.1,
/// the same `static_cost` the pipeline ranks verified summaries with),
/// collapsed at the all-ones probability assignment so enumeration has a
/// deterministic scalar to sort by. Sharing the model keeps "cheapest
/// first" meaning the same thing during search and during final ranking.
pub fn enumeration_cost(grammar: &Grammar, summary: &ProgramSummary) -> f64 {
    let type_of = |name: &str| grammar.type_of(name);
    cost::model::static_cost(summary, &type_of, &[], &CostWeights::default()).upper_bound()
}

/// Run every grammar family of `class`, handing each raw candidate —
/// duplicates included — to `push` in generation order.
fn generate(grammar: &Grammar, class: &GrammarClass, push: &mut impl FnMut(ProgramSummary)) {
    if grammar.sources.is_empty() || grammar.outputs.is_empty() {
        return;
    }
    // Single-source families (also used when multiple sources exist,
    // per source).
    for spec_idx in 0..grammar.sources.len() {
        single_source_candidates(grammar, class, spec_idx, push);
    }
    // Join families.
    if grammar.sources.len() >= 2 && class.max_ops >= 3 {
        join_candidates(grammar, class, push);
    }
}

/// Enumerate all candidate summaries of a grammar class, in cost order —
/// the eager reference [`CandidateStream`] is golden-tested against: the
/// first occurrence of each distinct candidate, stable-sorted by
/// [`enumeration_cost`] over generation order.
pub fn candidates(grammar: &Grammar, class: &GrammarClass) -> Vec<ProgramSummary> {
    let mut seen: HashSet<ProgramSummary> = HashSet::new();
    let mut ranked: Vec<(f64, ProgramSummary)> = Vec::new();
    generate(grammar, class, &mut |s| {
        if seen.insert(s.clone()) {
            ranked.push((enumeration_cost(grammar, &s), s));
        }
    });
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    ranked.into_iter().map(|(_, s)| s).collect()
}

/// Sentinel for "no entry" in [`Pool`]'s hash chains.
const NONE: u32 = u32::MAX;

/// Every distinct candidate of a search's classes so far, each stored
/// once, with an exact index over them: a candidate is hashed once and
/// compared for equality only with the stored candidates of equal hash,
/// so a duplicate is dropped without ever being cloned or stored.
#[derive(Default)]
struct Pool {
    summaries: Vec<ProgramSummary>,
    /// Last stored summary of each hash. Its seeded hasher also hashes
    /// the summaries; the stream's order never depends on a hash.
    heads: HashMap<u64, u32>,
    /// Per stored summary: the summary of the same hash stored before it.
    next: Vec<u32>,
}

impl Pool {
    /// Store `s` unless an equal summary is already stored; `true` if it
    /// was new. Only equality decides.
    fn insert(&mut self, s: ProgramSummary) -> bool {
        let h = self.heads.hasher().hash_one(&s);
        let mut i = self.heads.get(&h).copied().unwrap_or(NONE);
        while i != NONE {
            if self.summaries[i as usize] == s {
                return false;
            }
            i = self.next[i as usize];
        }
        let idx = u32::try_from(self.summaries.len()).expect("fewer than 2^32 candidates");
        self.next.push(self.heads.insert(h, idx).unwrap_or(NONE));
        self.summaries.push(s);
        true
    }

    /// Permute the summaries from `from` on into `order` (offsets from
    /// `from`, in their new order), renumbering the index to match.
    fn reorder(&mut self, from: usize, order: &[usize]) {
        let mut new_index = vec![NONE; order.len()];
        for (new, &old) in order.iter().enumerate() {
            new_index[old] = (from + new) as u32;
        }
        let renumber = |i: u32| match (i as usize).checked_sub(from) {
            Some(offset) if i != NONE => new_index[offset],
            _ => i,
        };
        let mut moved: Vec<Option<ProgramSummary>> =
            self.summaries.drain(from..).map(Some).collect();
        let next: Vec<u32> = self.next.drain(from..).collect();
        for &old in order {
            self.summaries
                .push(moved[old].take().expect("order is a permutation"));
            self.next.push(renumber(next[old]));
        }
        for head in self.heads.values_mut() {
            *head = renumber(*head);
        }
    }
}

/// One `next_chunk` outcome — the three states a caller must tell apart.
#[derive(Debug)]
pub enum Chunk<'s> {
    /// At least one unblocked candidate was found (up to the requested
    /// chunk size), in global cheapest-first order, each with its
    /// position in that order — one past a position is where a caller
    /// resumes after acting on that candidate.
    Batch(Vec<(usize, &'s ProgramSummary)>),
    /// A full inspection window was scanned and every candidate in it was
    /// blocked. More candidates may remain: call `next_chunk` again. The
    /// bounded window keeps the caller's deadline checks regular even
    /// when the blocked set swallows long runs of the stream.
    AllBlocked,
    /// The cursor is past the last candidate of the class: nothing was —
    /// or will ever be — returned for this cursor again.
    Exhausted,
}

/// How many candidates one `next_chunk` call may inspect per requested
/// slot before giving up with [`Chunk::AllBlocked`].
const INSPECT_FACTOR: usize = 4;

/// A cost-ordered candidate stream for one grammar class, generated on
/// first pull.
///
/// Nothing is generated at construction: classes the search never reaches
/// — because an earlier class already produced verified summaries, or the
/// budget ran out — pay nothing. On first pull the grammar families are
/// expanded once, each distinct candidate is costed and stored once
/// (without cloning a duplicate), and the new candidates are sorted by
/// ([`enumeration_cost`], generation sequence) — the order of
/// [`candidates`], which any number of cursors can replay.
///
/// A stream built with [`CandidateStream::after`] is a *delta stream*: it
/// drops, at generation time, every candidate the earlier classes of the
/// same search produced, before costing it. The survivors keep their
/// relative order, so the delta stream is [`candidates`] of its class
/// with the earlier classes' candidates removed.
///
/// ### Cursor semantics
///
/// `next_chunk` cursors are caller-owned indices into the global
/// cheapest-first sequence. A cursor only moves forward, past every
/// candidate *inspected* (blocked candidates are skipped, not returned,
/// but still advance the cursor). Distinct cursors are independent. The
/// CEGIS driver in [`crate::cegis`] keeps one cursor per class for the
/// whole search, and rewinds it to one past the candidate it returns
/// (a [`Chunk::Batch`] position) when it stops mid-chunk.
pub struct CandidateStream<'g> {
    grammar: &'g Grammar,
    class: GrammarClass,
    /// The earlier classes' candidates, then — once generated — this
    /// class's new ones, cheapest first.
    pool: Pool,
    /// Pool index of this class's first candidate (stream position 0).
    base: usize,
    generated: bool,
}

impl<'g> CandidateStream<'g> {
    /// Create the stream without enumerating anything yet.
    pub fn new(grammar: &'g Grammar, class: &GrammarClass) -> CandidateStream<'g> {
        CandidateStream {
            grammar,
            class: *class,
            pool: Pool::default(),
            base: 0,
            generated: false,
        }
    }

    /// The delta stream of `class` after `previous`: the candidates of
    /// `class` that neither `previous`'s class nor any class `previous`
    /// itself excluded produces, in the order [`candidates`] gives them.
    /// Generates `previous`'s class if it was never pulled.
    pub fn after(mut previous: CandidateStream<'g>, class: &GrammarClass) -> CandidateStream<'g> {
        previous.all();
        let base = previous.pool.summaries.len();
        CandidateStream {
            grammar: previous.grammar,
            class: *class,
            pool: previous.pool,
            base,
            generated: false,
        }
    }

    /// The full cost-sorted candidate list, generated on first use.
    pub fn all(&mut self) -> &[ProgramSummary] {
        if !self.generated {
            self.generated = true;
            let grammar = self.grammar;
            let pool = &mut self.pool;
            let mut costs: Vec<f64> = Vec::new();
            generate(self.grammar, &self.class, &mut |s| {
                if pool.insert(s) {
                    let stored = pool.summaries.last().expect("just stored");
                    costs.push(enumeration_cost(grammar, stored));
                }
            });
            let mut order: Vec<usize> = (0..costs.len()).collect();
            order.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]).then(a.cmp(&b)));
            self.pool.reorder(self.base, &order);
        }
        &self.pool.summaries[self.base..]
    }

    /// Gather up to `size` not-yet-blocked candidates starting at
    /// `*cursor`, advancing the cursor past everything inspected. The
    /// call inspects at most `size * INSPECT_FACTOR` candidates; see
    /// [`Chunk`] for how exhaustion and an all-blocked window are told
    /// apart.
    pub fn next_chunk(
        &mut self,
        cursor: &mut usize,
        size: usize,
        blocked: &HashSet<ProgramSummary>,
    ) -> Chunk<'_> {
        let stream = self.all();
        let window = size.max(1) * INSPECT_FACTOR;
        let mut picked: Vec<(usize, &ProgramSummary)> = Vec::with_capacity(size.min(16));
        let mut inspected = 0usize;
        let mut exhausted = false;
        while picked.len() < size && inspected < window {
            let Some(cand) = stream.get(*cursor) else {
                exhausted = true;
                break;
            };
            if !blocked.contains(cand) {
                picked.push((*cursor, cand));
            }
            *cursor += 1;
            inspected += 1;
        }
        match (picked.is_empty(), exhausted) {
            (false, _) => Chunk::Batch(picked),
            (true, true) => Chunk::Exhausted,
            (true, false) => Chunk::AllBlocked,
        }
    }
}

/// Typed expression pools for one map stage.
struct Pools {
    /// Value expressions by result type.
    numeric: Vec<(IrExpr, Type)>,
    boolean: Vec<IrExpr>,
    string: Vec<IrExpr>,
    /// Guard conditions.
    conds: Vec<IrExpr>,
    /// Key expressions (ints / strings, short).
    keys: Vec<(IrExpr, Type)>,
}

/// Build expression pools over the given λ parameters, every member in
/// normal form under `scope` (the parameters' types as the stage binds
/// them; `params` only says which pool an atom joins).
fn build_pools(
    grammar: &Grammar,
    class: &GrammarClass,
    params: &[(String, Type)],
    scope: &Scope,
) -> Pools {
    let norm = |e: IrExpr| normalize::expr(&e, scope);
    // Atoms. Variables, fields and constants are leaves, so they and the
    // key pool are in normal form as they stand.
    let mut numeric: Vec<(IrExpr, Type)> = Vec::new();
    let mut boolean: Vec<IrExpr> = Vec::new();
    let mut string: Vec<IrExpr> = Vec::new();
    let mut keys: Vec<(IrExpr, Type)> = Vec::new();

    let mut add_atom = |e: IrExpr, t: &Type| match t {
        Type::Int | Type::Double => numeric.push((e, t.clone())),
        Type::Bool => boolean.push(e),
        Type::Str => string.push(e),
        _ => {}
    };

    for (name, ty) in params {
        add_atom(IrExpr::var(name.clone()), ty);
    }
    for (name, ty) in &grammar.scalars {
        add_atom(IrExpr::var(name.clone()), ty);
    }
    for (e, t) in &grammar.field_atoms {
        add_atom(e.clone(), t);
    }
    for c in &grammar.constants {
        match c {
            IrExpr::ConstInt(_) => numeric.push((c.clone(), Type::Int)),
            IrExpr::ConstDouble(_) => numeric.push((c.clone(), Type::Double)),
            IrExpr::ConstBool(_) => boolean.push(c.clone()),
            IrExpr::ConstStr(_) => string.push(c.clone()),
            _ => {}
        }
    }

    // Key atoms: int/str parameters, scalars and fields, plus constant 0.
    keys.push((IrExpr::int(0), Type::Int));
    for (name, ty) in params.iter().chain(grammar.scalars.iter()) {
        if matches!(ty, Type::Int | Type::Str) {
            keys.push((IrExpr::var(name.clone()), ty.clone()));
        }
    }
    for (e, t) in &grammar.field_atoms {
        if matches!(t, Type::Int | Type::Str) {
            keys.push((e.clone(), t.clone()));
        }
    }

    // Harvested atoms: admitted once expressions may be non-trivial.
    if class.max_expr_len >= 3 {
        for (e, t) in &grammar.harvested_vals {
            // Only atoms whose free variables are in scope here.
            if in_scope(e, params, grammar) {
                match t {
                    Type::Int | Type::Double => numeric.push((norm(e.clone()), t.clone())),
                    Type::Bool => boolean.push(norm(e.clone())),
                    Type::Str => string.push(norm(e.clone())),
                    _ => {}
                }
            }
        }
    }

    // Composite numeric expressions of length 2 (a op b).
    let atoms: Vec<(IrExpr, Type)> = numeric.clone();
    if class.max_expr_len >= 2 {
        let arith: Vec<BinOp> = grammar
            .operators
            .iter()
            .copied()
            .filter(|op| {
                matches!(
                    op,
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
                )
            })
            .collect();
        let mut composites = Vec::new();
        for (a, ta) in &atoms {
            for (b, tb) in &atoms {
                for op in &arith {
                    if composites.len() + numeric.len() >= POOL_CAP * 3 {
                        break;
                    }
                    let t = if *ta == Type::Double || *tb == Type::Double {
                        Type::Double
                    } else {
                        Type::Int
                    };
                    composites.push((norm(IrExpr::bin(*op, a.clone(), b.clone())), t));
                }
            }
        }
        numeric.extend(composites);
        // Unary library calls.
        for m in &grammar.methods {
            if matches!(m.as_str(), "abs" | "sqrt" | "exp" | "log") {
                let calls: Vec<(IrExpr, Type)> = atoms
                    .iter()
                    .map(|(a, t)| {
                        let rt = if m == "abs" { t.clone() } else { Type::Double };
                        (norm(IrExpr::Call(m.clone(), vec![a.clone()])), rt)
                    })
                    .collect();
                numeric.extend(calls);
            }
        }
    }
    numeric.truncate(POOL_CAP * 4);

    // Boolean conditions: comparisons between numeric atoms, string
    // equality, plus harvested guards.
    let mut conds: Vec<IrExpr> = Vec::new();
    if class.allow_cond_emits {
        for c in &grammar.harvested_conds {
            if in_scope(c, params, grammar) {
                conds.push(norm(c.clone()));
            }
        }
        let cmp_ops: Vec<BinOp> = grammar
            .operators
            .iter()
            .copied()
            .filter(|op| {
                matches!(
                    op,
                    BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
                )
            })
            .collect();
        for (a, _) in atoms.iter().take(8) {
            for (b, _) in atoms.iter().take(8) {
                if a == b {
                    continue;
                }
                for op in &cmp_ops {
                    if conds.len() >= POOL_CAP {
                        break;
                    }
                    conds.push(norm(IrExpr::bin(*op, a.clone(), b.clone())));
                }
            }
        }
        // String equality tests: param == scalar.
        if grammar.operators.contains(&BinOp::Eq) {
            let strs: Vec<IrExpr> = string.clone();
            for a in strs.iter().take(6) {
                for b in strs.iter().take(6) {
                    if a != b && conds.len() < POOL_CAP * 2 {
                        conds.push(norm(IrExpr::bin(BinOp::Eq, a.clone(), b.clone())));
                    }
                }
            }
        }
        // String method predicates (contains / starts_with).
        if grammar.methods.iter().any(|m| m == "contains") {
            for a in string.iter().take(4) {
                for b in string.iter().take(4) {
                    if a != b {
                        conds.push(norm(IrExpr::Method(
                            Box::new(a.clone()),
                            "contains".into(),
                            vec![b.clone()],
                        )));
                    }
                }
            }
        }
    }

    // Boolean value expressions include comparisons too (StringMatch
    // emits `word == key` as a *value*).
    let mut bool_vals = boolean.clone();
    if class.max_expr_len >= 2 && grammar.operators.contains(&BinOp::Eq) {
        for a in string.iter().take(6) {
            for b in string.iter().take(6) {
                if a != b && bool_vals.len() < POOL_CAP {
                    bool_vals.push(norm(IrExpr::bin(BinOp::Eq, a.clone(), b.clone())));
                }
            }
        }
    }

    Pools {
        numeric,
        boolean: bool_vals,
        string,
        conds,
        keys,
    }
}

fn in_scope(e: &IrExpr, params: &[(String, Type)], grammar: &Grammar) -> bool {
    let mut vars = Vec::new();
    e.free_vars(&mut vars);
    vars.iter()
        .all(|v| params.iter().any(|(n, _)| n == v) || grammar.scalars.iter().any(|(n, _)| n == v))
}

/// Like [`in_scope`], but also admits names the data plane resolves from
/// the pre-loop state: collection names (the `over` of an inline
/// aggregate) and output pre-values (the seed of a lifted min/max fold).
fn in_scope_with_state(e: &IrExpr, params: &[(String, Type)], grammar: &Grammar) -> bool {
    let mut vars = Vec::new();
    e.free_vars(&mut vars);
    vars.iter().all(|v| {
        params.iter().any(|(n, _)| n == v)
            || grammar.scalars.iter().any(|(n, _)| n == v)
            || grammar.sources.iter().any(|s| &s.source.var == v)
            || grammar.outputs.iter().any(|(n, _)| n == v)
    })
}

/// Value-typed expression pool for the output type `t`.
fn value_pool(pools: &Pools, t: &Type) -> Vec<IrExpr> {
    match t {
        Type::Int => pools
            .numeric
            .iter()
            .filter(|(_, pt)| *pt == Type::Int)
            .map(|(e, _)| e.clone())
            .collect(),
        Type::Double => pools.numeric.iter().map(|(e, _)| e.clone()).collect(),
        Type::Bool => pools.boolean.clone(),
        Type::Str => pools.string.clone(),
        _ => Vec::new(),
    }
}

/// The value pool of a final `(_k, _v) → emit(_k, f(_v))` stage over a
/// reduced output of type `out_ty`: its members that mention `_v`, at most
/// `cap` of them. Pool membership follows `out_ty`, like any stage's; the
/// normal form follows the type of the values that reach `_v` (a `double`
/// output's pool also emits `int` values), which is the type
/// [`normalize::summary`] gives `_v`. One pool per such type, built on
/// first use.
struct FinalValues<'g> {
    grammar: &'g Grammar,
    class: GrammarClass,
    out_ty: &'g Type,
    cap: usize,
    by_type: HashMap<Option<Type>, Vec<IrExpr>>,
}

impl<'g> FinalValues<'g> {
    fn new(grammar: &'g Grammar, class: &GrammarClass, out_ty: &'g Type, cap: usize) -> Self {
        FinalValues {
            grammar,
            class: *class,
            out_ty,
            cap,
            by_type: HashMap::new(),
        }
    }

    /// The pool for `_v` carrying values of type `carried`.
    fn after(&mut self, carried: Option<Type>) -> &[IrExpr] {
        let FinalValues {
            grammar,
            class,
            out_ty,
            cap,
            ..
        } = *self;
        self.by_type.entry(carried.clone()).or_insert_with(|| {
            let params = [
                ("_k".to_string(), Type::Int),
                ("_v".to_string(), out_ty.clone()),
            ];
            let free = |name: &str| grammar.type_of(name);
            let scope = Scope::new(&free).bind([
                ("_k".to_string(), Some(Type::Int)),
                ("_v".to_string(), carried),
            ]);
            value_pool(&build_pools(grammar, &class, &params, &scope), out_ty)
                .into_iter()
                .filter(|e| mentions_var(e, "_v"))
                .take(cap)
                .collect()
        })
    }
}

/// Reduce-lambda pool for value type `t`.
fn reducers_for(grammar: &Grammar, t: &Type) -> Vec<ReduceLambda> {
    let v1 = || IrExpr::var("v1");
    let v2 = || IrExpr::var("v2");
    let mut out = Vec::new();
    match t {
        Type::Int | Type::Double => {
            out.push(ReduceLambda::binop(BinOp::Add));
            if grammar.operators.contains(&BinOp::Mul) {
                out.push(ReduceLambda::binop(BinOp::Mul));
            }
            if grammar.methods.iter().any(|m| m == "min")
                || grammar
                    .harvested_conds
                    .iter()
                    .any(|c| format!("{c}").contains('<'))
                || grammar.operators.contains(&BinOp::Lt)
            {
                out.push(ReduceLambda::new(IrExpr::Call(
                    "min".into(),
                    vec![v1(), v2()],
                )));
            }
            if grammar.methods.iter().any(|m| m == "max")
                || grammar.operators.contains(&BinOp::Gt)
                || grammar.operators.contains(&BinOp::Lt)
            {
                out.push(ReduceLambda::new(IrExpr::Call(
                    "max".into(),
                    vec![v1(), v2()],
                )));
            }
        }
        Type::Bool => {
            out.push(ReduceLambda::binop(BinOp::Or));
            out.push(ReduceLambda::binop(BinOp::And));
        }
        Type::Tuple(ts) => {
            // Componentwise reducers: the cartesian product of per-
            // component combiner choices, capped.
            let per_comp: Vec<Vec<IrExpr>> = ts
                .iter()
                .enumerate()
                .map(|(i, ct)| {
                    let a = IrExpr::tget(v1(), i);
                    let b = IrExpr::tget(v2(), i);
                    let mut opts = Vec::new();
                    match ct {
                        Type::Int | Type::Double => {
                            opts.push(IrExpr::bin(BinOp::Add, a.clone(), b.clone()));
                            opts.push(IrExpr::Call("min".into(), vec![a.clone(), b.clone()]));
                            opts.push(IrExpr::Call("max".into(), vec![a.clone(), b.clone()]));
                            if grammar.operators.contains(&BinOp::Mul) {
                                opts.push(IrExpr::bin(BinOp::Mul, a.clone(), b.clone()));
                            }
                        }
                        Type::Bool => {
                            opts.push(IrExpr::bin(BinOp::Or, a.clone(), b.clone()));
                            opts.push(IrExpr::bin(BinOp::And, a.clone(), b.clone()));
                        }
                        _ => opts.push(b.clone()),
                    }
                    opts
                })
                .collect();
            let mut combos: Vec<Vec<IrExpr>> = vec![Vec::new()];
            for opts in &per_comp {
                let mut next = Vec::new();
                for prefix in &combos {
                    for o in opts {
                        if next.len() >= 64 {
                            break;
                        }
                        let mut p = prefix.clone();
                        p.push(o.clone());
                        next.push(p);
                    }
                }
                combos = next;
            }
            for c in combos {
                out.push(ReduceLambda::new(IrExpr::Tuple(c)));
            }
        }
        _ => {}
    }
    // "Keep first" / "keep last" reducers are always expressible.
    out.push(ReduceLambda::new(v1()));
    out.push(ReduceLambda::new(v2()));
    out
}

/// Emit pool for a map stage: (emit, value type).
fn emits_for(
    pools: &Pools,
    class: &GrammarClass,
    key_filter: impl Fn(&IrExpr, &Type) -> bool,
    val_ty: &Type,
) -> Vec<(Emit, Type)> {
    let vals = value_pool(pools, val_ty);
    let mut out = Vec::new();
    for (k, kt) in &pools.keys {
        if !key_filter(k, kt) {
            continue;
        }
        for v in &vals {
            if out.len() >= EMIT_CAP {
                return out;
            }
            out.push((Emit::unconditional(k.clone(), v.clone()), val_ty.clone()));
            if class.allow_cond_emits {
                for c in pools.conds.iter().take(12) {
                    if out.len() >= EMIT_CAP {
                        return out;
                    }
                    if let Some(emit) = normalize::emit(Some(c.clone()), k.clone(), v.clone()) {
                        out.push((emit, val_ty.clone()));
                    }
                }
            }
        }
    }
    out
}

fn single_source_candidates(
    grammar: &Grammar,
    class: &GrammarClass,
    spec_idx: usize,
    push: &mut impl FnMut(ProgramSummary),
) {
    let spec = &grammar.sources[spec_idx];
    let params: Vec<(String, Type)> = spec
        .params
        .iter()
        .cloned()
        .zip(spec.param_tys.iter().cloned())
        .collect();
    let free = |name: &str| grammar.type_of(name);
    let typed = params.iter().map(|(n, t)| (n.clone(), Some(t.clone())));
    let scope = Scope::new(&free).bind(typed);
    let pools = build_pools(grammar, class, &params, &scope);
    let data = MrExpr::Data(spec.source.clone());
    let fp: Vec<String> = spec.params.clone();

    // Accumulator-pattern candidates first: they are the cheapest and the
    // most likely to verify (the fragment-specialised productions of
    // Appendix D).
    if class.max_ops >= 2 {
        accum_candidates(grammar, class, &data, &fp, &params, &scope, push);
        map_accum_candidates(grammar, class, &data, &fp, &params, &scope, push);
    }

    match &grammar.outputs[..] {
        [(var, out_ty)] => match out_ty {
            Type::Int | Type::Double | Type::Bool | Type::Str => {
                scalar_candidates(
                    grammar, class, &pools, &scope, &data, &fp, var, out_ty, push,
                );
            }
            Type::Array(elem) if class.max_ops >= 1 => {
                if let Some(len_var) = &grammar.array_len_var {
                    array_candidates(
                        grammar, class, &pools, &scope, &data, &fp, var, elem, len_var, spec, push,
                    );
                }
            }
            Type::Map(_, vt) if class.max_ops >= 2 => {
                map_output_candidates(grammar, class, &pools, &data, &fp, var, vt, push);
            }
            Type::List(elem) => {
                collected_list_candidates(
                    grammar, class, &pools, &scope, &data, &fp, &params, var, elem, push,
                );
            }
            _ => {}
        },
        outputs if outputs.len() >= 2 => {
            multi_scalar_candidates(grammar, class, &pools, &scope, &data, &fp, outputs, push);
        }
        _ => {}
    }
}

/// Scalar aggregation: `reduce(map(d, λm), λr)` and the three-stage form.
#[allow(clippy::too_many_arguments)]
fn scalar_candidates(
    grammar: &Grammar,
    class: &GrammarClass,
    pools: &Pools,
    scope: &Scope,
    data: &MrExpr,
    fp: &[String],
    var: &str,
    out_ty: &Type,
    push: &mut impl FnMut(ProgramSummary),
) {
    if class.max_ops < 2 {
        return;
    }
    // Two-stage: constant key, value of the output type.
    let const_key = |k: &IrExpr, _t: &Type| matches!(k, IrExpr::ConstInt(0));
    for (emit, vt) in emits_for(pools, class, const_key, out_ty) {
        for r in reducers_for(grammar, &vt) {
            let expr = data
                .clone()
                .map(MapLambda {
                    params: fp.to_vec(),
                    emits: vec![emit.clone()],
                })
                .reduce(r);
            push(ProgramSummary::single(var, expr, OutputKind::Scalar));
        }
    }
    // Three-stage with tuple intermediate (Delta-style: max − min) and
    // scalar intermediate with a final transform (mean-style: sum / n).
    if class.max_ops >= 3 {
        // Scalar intermediate + final map.
        let mut finals = FinalValues::new(grammar, class, out_ty, 24);
        for (emit, vt) in emits_for(pools, class, const_key, out_ty)
            .into_iter()
            .take(80)
        {
            let final_vals = finals.after(scope.infer(&emit.val));
            for r in reducers_for(grammar, &vt).into_iter().take(4) {
                for fv in final_vals {
                    let expr = data
                        .clone()
                        .map(MapLambda {
                            params: fp.to_vec(),
                            emits: vec![emit.clone()],
                        })
                        .reduce(r.clone())
                        .map(MapLambda {
                            params: vec!["_k".into(), "_v".into()],
                            emits: vec![Emit::unconditional(IrExpr::var("_k"), fv.clone())],
                        });
                    push(ProgramSummary::single(var, expr, OutputKind::Scalar));
                }
            }
        }
        // Tuple intermediate.
        if class.kv_complexity >= 2 && matches!(out_ty, Type::Int | Type::Double) {
            tuple_intermediate_candidates(grammar, pools, scope, data, fp, var, out_ty, push);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn tuple_intermediate_candidates(
    grammar: &Grammar,
    pools: &Pools,
    scope: &Scope,
    data: &MrExpr,
    fp: &[String],
    var: &str,
    out_ty: &Type,
    push: &mut impl FnMut(ProgramSummary),
) {
    // Emit (0, (e, e')) pairs built from the numeric pool; reduce
    // componentwise; final map combines components.
    let vals: Vec<IrExpr> = value_pool(pools, out_ty).into_iter().take(8).collect();
    let tuple_ty = Type::Tuple(vec![out_ty.clone(), out_ty.clone()]);
    let ops: Vec<BinOp> = grammar
        .operators
        .iter()
        .copied()
        .filter(|op| matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div))
        .collect();
    let a = IrExpr::tget(IrExpr::var("_v"), 0);
    let b = IrExpr::tget(IrExpr::var("_v"), 1);
    let free = |name: &str| grammar.type_of(name);
    for e1 in &vals {
        for e2 in &vals {
            // `_v` carries the emitted pair; its types decide whether the
            // final `+` and `*` commute.
            let carried = scope.infer(&IrExpr::Tuple(vec![e1.clone(), e2.clone()]));
            let final_scope = Scope::new(&free).bind([
                ("_k".to_string(), Some(Type::Int)),
                ("_v".to_string(), carried),
            ]);
            let mut finals: Vec<IrExpr> = Vec::new();
            for op in &ops {
                for (l, r) in [(&a, &b), (&b, &a)] {
                    let e = IrExpr::bin(*op, l.clone(), r.clone());
                    finals.push(normalize::expr(&e, &final_scope));
                }
            }
            for r in reducers_for(grammar, &tuple_ty).into_iter().take(24) {
                for fin in &finals {
                    let expr = data
                        .clone()
                        .map(MapLambda {
                            params: fp.to_vec(),
                            emits: vec![Emit::unconditional(
                                IrExpr::int(0),
                                IrExpr::Tuple(vec![e1.clone(), e2.clone()]),
                            )],
                        })
                        .reduce(r.clone())
                        .map(MapLambda {
                            params: vec!["_k".into(), "_v".into()],
                            emits: vec![Emit::unconditional(IrExpr::var("_k"), fin.clone())],
                        });
                    push(ProgramSummary::single(var, expr, OutputKind::Scalar));
                }
            }
        }
    }
}

/// Array output: keys are the outer index parameter.
#[allow(clippy::too_many_arguments)]
fn array_candidates(
    grammar: &Grammar,
    class: &GrammarClass,
    pools: &Pools,
    scope: &Scope,
    data: &MrExpr,
    fp: &[String],
    var: &str,
    elem_ty: &Type,
    len_var: &str,
    spec: &crate::grammar::SourceSpec,
    push: &mut impl FnMut(ProgramSummary),
) {
    // Keys must be the row-index parameter.
    let index_param = spec.params.first().cloned().unwrap_or_default();
    let index_key = |k: &IrExpr, _t: &Type| matches!(k, IrExpr::Var(v) if *v == index_param);
    let kind = OutputKind::AssocArray {
        len_var: len_var.to_string(),
    };
    // Map-only family: one pair per index, no aggregation (per-element
    // transforms like `out[i] = f(in[i])`).
    for (emit, _vt) in emits_for(pools, class, index_key, elem_ty)
        .into_iter()
        .take(120)
    {
        let expr = data.clone().map(MapLambda {
            params: fp.to_vec(),
            emits: vec![emit],
        });
        push(ProgramSummary::single(var, expr, kind.clone()));
    }
    let mut finals = FinalValues::new(grammar, class, elem_ty, 16);
    for (emit, vt) in emits_for(pools, class, index_key, elem_ty) {
        for r in reducers_for(grammar, &vt).into_iter().take(4) {
            let expr = data
                .clone()
                .map(MapLambda {
                    params: fp.to_vec(),
                    emits: vec![emit.clone()],
                })
                .reduce(r.clone());
            push(ProgramSummary::single(var, expr, kind.clone()));
            // Three-stage: final per-key transform (row-wise mean).
            if class.max_ops >= 3 {
                for fv in finals.after(scope.infer(&emit.val)) {
                    let expr = data
                        .clone()
                        .map(MapLambda {
                            params: fp.to_vec(),
                            emits: vec![emit.clone()],
                        })
                        .reduce(r.clone())
                        .map(MapLambda {
                            params: vec!["_k".into(), "_v".into()],
                            emits: vec![Emit::unconditional(IrExpr::var("_k"), fv.clone())],
                        });
                    push(ProgramSummary::single(var, expr, kind.clone()));
                }
            }
        }
    }
}

/// Map output (WordCount): keys from element/str atoms, reduce required.
#[allow(clippy::too_many_arguments)]
fn map_output_candidates(
    grammar: &Grammar,
    class: &GrammarClass,
    pools: &Pools,
    data: &MrExpr,
    fp: &[String],
    var: &str,
    val_ty: &Type,
    push: &mut impl FnMut(ProgramSummary),
) {
    let non_const_key = |k: &IrExpr, _t: &Type| !matches!(k, IrExpr::ConstInt(_));
    for (emit, vt) in emits_for(pools, class, non_const_key, val_ty) {
        for r in reducers_for(grammar, &vt).into_iter().take(4) {
            let expr = data
                .clone()
                .map(MapLambda {
                    params: fp.to_vec(),
                    emits: vec![emit.clone()],
                })
                .reduce(r);
            push(ProgramSummary::single(var, expr, OutputKind::AssocMap));
        }
    }
}

/// List output (selection/projection): a single map stage.
#[allow(clippy::too_many_arguments)]
fn collected_list_candidates(
    grammar: &Grammar,
    class: &GrammarClass,
    pools: &Pools,
    scope: &Scope,
    data: &MrExpr,
    fp: &[String],
    params: &[(String, Type)],
    var: &str,
    elem_ty: &Type,
    push: &mut impl FnMut(ProgramSummary),
) {
    // Harvested appends first: the loop's own `out.add(e)` statements are
    // the projections a correct summary must reproduce, so they are the
    // cheapest-to-verify candidates (guards carried over when admitted).
    for ap in &grammar.list_appends {
        if ap.var != var || !in_scope_with_state(&ap.value, params, grammar) {
            continue;
        }
        let cond = match &ap.cond {
            Some(c) if class.allow_cond_emits && in_scope_with_state(c, params, grammar) => {
                Some(normalize::expr(c, scope))
            }
            Some(_) => continue,
            None => None,
        };
        let value = normalize::expr(&ap.value, scope);
        let Some(emit) = normalize::emit(cond, IrExpr::int(0), value) else {
            continue;
        };
        let expr = data.clone().map(MapLambda {
            params: fp.to_vec(),
            emits: vec![emit],
        });
        push(ProgramSummary::single(var, expr, OutputKind::CollectedList));
    }

    let mut vals = value_pool(pools, elem_ty);
    // Whole-element projection for struct lists.
    if matches!(elem_ty, Type::Struct(_)) {
        vals.extend(fp.iter().cloned().map(IrExpr::Var));
    }
    for v in vals.into_iter().take(40) {
        let base = Emit::unconditional(IrExpr::int(0), v.clone());
        let expr = data.clone().map(MapLambda {
            params: fp.to_vec(),
            emits: vec![base],
        });
        push(ProgramSummary::single(var, expr, OutputKind::CollectedList));
        if class.allow_cond_emits {
            for c in pools.conds.iter().take(16) {
                let Some(emit) = normalize::emit(Some(c.clone()), IrExpr::int(0), v.clone()) else {
                    continue;
                };
                let expr = data.clone().map(MapLambda {
                    params: fp.to_vec(),
                    emits: vec![emit],
                });
                push(ProgramSummary::single(var, expr, OutputKind::CollectedList));
            }
        }
    }
}

/// Multiple scalar outputs: tuple-valued single pair (solution (b)) and
/// keyed-scalars (solutions (a)/(c)).
#[allow(clippy::too_many_arguments)]
fn multi_scalar_candidates(
    grammar: &Grammar,
    class: &GrammarClass,
    pools: &Pools,
    scope: &Scope,
    data: &MrExpr,
    fp: &[String],
    outputs: &[(String, Type)],
    push: &mut impl FnMut(ProgramSummary),
) {
    if class.max_ops < 2 || outputs.len() > 3 {
        return;
    }
    let vars: Vec<String> = outputs.iter().map(|(n, _)| n.clone()).collect();
    let tys: Vec<Type> = outputs.iter().map(|(_, t)| t.clone()).collect();
    if !tys
        .iter()
        .all(|t| matches!(t, Type::Int | Type::Double | Type::Bool))
    {
        return;
    }

    // (b)-style: single tuple-valued pair.
    if class.kv_complexity >= 2 {
        let per_out: Vec<Vec<IrExpr>> = tys
            .iter()
            .map(|t| value_pool(pools, t).into_iter().take(6).collect())
            .collect();
        let mut combos: Vec<Vec<IrExpr>> = vec![Vec::new()];
        for opts in &per_out {
            let mut next = Vec::new();
            for prefix in &combos {
                for o in opts {
                    if next.len() >= 128 {
                        break;
                    }
                    let mut p = prefix.clone();
                    p.push(o.clone());
                    next.push(p);
                }
            }
            combos = next;
        }
        let tuple_ty = Type::Tuple(tys.clone());
        for combo in combos {
            for r in reducers_for(grammar, &tuple_ty).into_iter().take(16) {
                let expr = data
                    .clone()
                    .map(MapLambda {
                        params: fp.to_vec(),
                        emits: vec![Emit::unconditional(
                            IrExpr::int(0),
                            IrExpr::Tuple(combo.clone()),
                        )],
                    })
                    .reduce(r);
                push(ProgramSummary {
                    bindings: vec![OutputBinding {
                        vars: vars.clone(),
                        expr,
                        kind: OutputKind::ScalarTuple,
                    }],
                });
            }
        }
    }

    // (a)/(c)-style: one emit per output, keyed by a distinct scalar.
    let str_scalars: Vec<IrExpr> = grammar
        .scalars
        .iter()
        .filter(|(_, t)| *t == Type::Str)
        .map(|(n, _)| IrExpr::var(n.clone()))
        .collect();
    if str_scalars.len() >= outputs.len() && tys.iter().all(|t| *t == tys[0]) {
        let vals: Vec<IrExpr> = value_pool(pools, &tys[0]).into_iter().take(8).collect();
        let key_orders: Vec<Vec<IrExpr>> = if outputs.len() == 2 {
            vec![
                vec![str_scalars[0].clone(), str_scalars[1].clone()],
                vec![str_scalars[1].clone(), str_scalars[0].clone()],
            ]
        } else {
            vec![str_scalars.iter().take(outputs.len()).cloned().collect()]
        };
        for keys in key_orders {
            for v in &vals {
                for r in reducers_for(grammar, &tys[0]).into_iter().take(4) {
                    // Unconditional variant (solution (a)).
                    let emits_unc: Vec<Emit> = keys
                        .iter()
                        .map(|k| Emit::unconditional(k.clone(), v.clone()))
                        .collect();
                    if emits_unc.len() <= class.max_emits {
                        let expr = data
                            .clone()
                            .map(MapLambda {
                                params: fp.to_vec(),
                                emits: emits_unc,
                            })
                            .reduce(r.clone());
                        push(ProgramSummary {
                            bindings: vec![OutputBinding {
                                vars: vars.clone(),
                                expr,
                                kind: OutputKind::KeyedScalars { keys: keys.clone() },
                            }],
                        });
                    }
                    // Guarded variant (solution (c)).
                    if class.allow_cond_emits {
                        for c_template in pools.conds.iter().take(12) {
                            // Specialise the guard per key when it
                            // mentions the key scalar.
                            let emits_g: Vec<Emit> = keys
                                .iter()
                                .filter_map(|k| {
                                    let guard = substitute_key(c_template, &keys, k);
                                    let guard = normalize::expr(&guard, scope);
                                    normalize::emit(Some(guard), k.clone(), v.clone())
                                })
                                .collect();
                            if !emits_g.is_empty() && emits_g.len() <= class.max_emits {
                                let expr = data
                                    .clone()
                                    .map(MapLambda {
                                        params: fp.to_vec(),
                                        emits: emits_g,
                                    })
                                    .reduce(r.clone());
                                push(ProgramSummary {
                                    bindings: vec![OutputBinding {
                                        vars: vars.clone(),
                                        expr,
                                        kind: OutputKind::KeyedScalars { keys: keys.clone() },
                                    }],
                                });
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Rewrite any of the `keys` appearing in `guard` to `target` — turns the
/// harvested `w == key1` into `w == key2` for the second emit.
fn substitute_key(guard: &IrExpr, keys: &[IrExpr], target: &IrExpr) -> IrExpr {
    fn subst(e: &IrExpr, keys: &[IrExpr], target: &IrExpr) -> IrExpr {
        if keys.contains(e) {
            return target.clone();
        }
        match e {
            IrExpr::Bin(op, l, r) => {
                IrExpr::bin(*op, subst(l, keys, target), subst(r, keys, target))
            }
            IrExpr::Un(op, x) => IrExpr::Un(*op, Box::new(subst(x, keys, target))),
            IrExpr::Call(f, args) => IrExpr::Call(
                f.clone(),
                args.iter().map(|a| subst(a, keys, target)).collect(),
            ),
            IrExpr::Method(b, m, args) => IrExpr::Method(
                Box::new(subst(b, keys, target)),
                m.clone(),
                args.iter().map(|a| subst(a, keys, target)).collect(),
            ),
            other => other.clone(),
        }
    }
    subst(guard, keys, target)
}

/// Join skeletons over the first two *input* sources — an indexed write
/// target (`out[i] = ...`) is recorded as a data var too and must not be
/// a join leg.
fn join_candidates(grammar: &Grammar, class: &GrammarClass, push: &mut impl FnMut(ProgramSummary)) {
    let inputs: Vec<&crate::grammar::SourceSpec> = grammar
        .sources
        .iter()
        .filter(|s| !grammar.outputs.iter().any(|(n, _)| n == &s.source.var))
        .collect();
    if inputs.len() < 2 {
        return;
    }
    let (s1, s2) = (inputs[0], inputs[1]);
    let [(var, out_ty)] = &grammar.outputs[..] else {
        return;
    };
    // The joined record's `_v` pairs the two sides' values.
    let free = |name: &str| grammar.type_of(name);
    let joined_scope = |left: &Type, right: &Type, key: Option<Type>| {
        let pair = Type::Tuple(vec![left.clone(), right.clone()]);
        Scope::new(&free).bind([("_k".to_string(), key), ("_v".to_string(), Some(pair))])
    };
    let index_scope = joined_scope(&s1.source.elem_ty, &s2.source.elem_ty, Some(Type::Int));

    // Elementwise array output over two aligned Indexed sources
    // (Hadamard product): map(join(d1, d2), (_k,_v) -> (_k, f(_v.0,_v.1))).
    if let Type::Array(elem) = out_ty {
        if s1.source.shape == DataShape::Indexed && s2.source.shape == DataShape::Indexed {
            if let Some(len_var) = &grammar.array_len_var {
                let joined = MrExpr::Data(s1.source.clone()).join(MrExpr::Data(s2.source.clone()));
                let a = IrExpr::tget(IrExpr::var("_v"), 0);
                let b = IrExpr::tget(IrExpr::var("_v"), 1);
                let mut vals = Vec::new();
                for op in [BinOp::Mul, BinOp::Add, BinOp::Sub, BinOp::Div] {
                    if grammar.operators.contains(&op) {
                        vals.push(IrExpr::bin(op, a.clone(), b.clone()));
                        vals.push(IrExpr::bin(op, b.clone(), a.clone()));
                    }
                }
                let v1p = s1.params.last().cloned().unwrap_or_default();
                let v2p = s2.params.last().cloned().unwrap_or_default();
                for (hv, ht) in &grammar.harvested_vals {
                    if ht == &**elem {
                        let rebound = subst_vars(hv, &|name: &str| {
                            if name == v1p {
                                Some(a.clone())
                            } else if name == v2p {
                                Some(b.clone())
                            } else {
                                None
                            }
                        });
                        if !vals.contains(&rebound) {
                            vals.push(rebound);
                        }
                    }
                }
                for v in vals.into_iter().take(24) {
                    let v = normalize::expr(&v, &index_scope);
                    let expr = joined.clone().map(MapLambda {
                        params: vec!["_k".into(), "_v".into()],
                        emits: vec![Emit::unconditional(IrExpr::var("_k"), v)],
                    });
                    push(ProgramSummary::single(
                        var,
                        expr,
                        OutputKind::AssocArray {
                            len_var: len_var.clone(),
                        },
                    ));
                }
            }
        }
        return;
    }
    if !matches!(out_ty, Type::Int | Type::Double) {
        return;
    }

    // Index join for aligned Indexed sources: join(d1, d2) directly.
    if s1.source.shape == DataShape::Indexed && s2.source.shape == DataShape::Indexed {
        let joined = MrExpr::Data(s1.source.clone()).join(MrExpr::Data(s2.source.clone()));
        // λm over (_k, _v) where _v = (x_i, y_i).
        let a = IrExpr::tget(IrExpr::var("_v"), 0);
        let b = IrExpr::tget(IrExpr::var("_v"), 1);
        let ops: Vec<BinOp> = grammar
            .operators
            .iter()
            .copied()
            .filter(|op| matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div))
            .collect();
        let mut vals = vec![a.clone(), b.clone()];
        for op in &ops {
            vals.push(IrExpr::bin(*op, a.clone(), b.clone()));
            vals.push(IrExpr::bin(*op, b.clone(), a.clone()));
        }
        // Harvested accumulator deltas spanning both sources, rebound to
        // the joined tuple's components (dot-product / covariance form).
        let v1p = s1.params.last().cloned().unwrap_or_default();
        let v2p = s2.params.last().cloned().unwrap_or_default();
        for u in &grammar.accum_updates {
            let rebound = subst_vars(&u.delta, &|name: &str| {
                if name == v1p {
                    Some(a.clone())
                } else if name == v2p {
                    Some(b.clone())
                } else {
                    None
                }
            });
            if !vals.contains(&rebound) {
                vals.push(rebound);
            }
        }
        // Length-3 values like (x − mx) * (y − my) for covariance come
        // from scalar-adjusted components.
        if class.max_expr_len >= 3 {
            let num_scalars: Vec<IrExpr> = grammar
                .scalars
                .iter()
                .filter(|(_, t)| t.is_numeric())
                .map(|(n, _)| IrExpr::var(n.clone()))
                .take(4)
                .collect();
            for sc1 in &num_scalars {
                for sc2 in &num_scalars {
                    vals.push(IrExpr::bin(
                        BinOp::Mul,
                        IrExpr::bin(BinOp::Sub, a.clone(), sc1.clone()),
                        IrExpr::bin(BinOp::Sub, b.clone(), sc2.clone()),
                    ));
                }
            }
        }
        for v in vals.into_iter().take(40) {
            let v = normalize::expr(&v, &index_scope);
            for r in reducers_for(grammar, out_ty).into_iter().take(4) {
                let expr = joined
                    .clone()
                    .map(MapLambda {
                        params: vec!["_k".into(), "_v".into()],
                        emits: vec![Emit::unconditional(IrExpr::int(0), v.clone())],
                    })
                    .reduce(r);
                push(ProgramSummary::single(var, expr, OutputKind::Scalar));
            }
        }
    }

    // Key join for flat struct sources (TPC-H style): key-extraction maps
    // then a join, then aggregate.
    if s1.source.shape == DataShape::Flat
        && s2.source.shape == DataShape::Flat
        && matches!(s1.source.elem_ty, Type::Struct(_))
        && matches!(s2.source.elem_ty, Type::Struct(_))
    {
        let key_fields = |spec: &crate::grammar::SourceSpec| -> Vec<IrExpr> {
            grammar
                .field_atoms
                .iter()
                .filter(|(e, t)| {
                    matches!(t, Type::Int | Type::Str)
                        && format!("{e}").starts_with(&format!("{}.", spec.params[0]))
                })
                .map(|(e, _)| e.clone())
                .take(6)
                .collect()
        };
        let k1s = key_fields(s1);
        let k2s = key_fields(s2);
        // Value-side expression pool over joined elements: fields of
        // either side via _v.0 / _v.1.
        let p1 = &s1.params[0];
        let p2 = &s2.params[0];
        let left = IrExpr::tget(IrExpr::var("_v"), 0);
        let right = IrExpr::tget(IrExpr::var("_v"), 1);
        let mut joined_vals: Vec<IrExpr> = Vec::new();
        for (e, t) in &grammar.field_atoms {
            if !t.is_numeric() {
                continue;
            }
            let s = format!("{e}");
            if let Some(fname) = s.strip_prefix(&format!("{p1}.")) {
                joined_vals.push(IrExpr::field(left.clone(), fname));
            }
            if let Some(fname) = s.strip_prefix(&format!("{p2}.")) {
                joined_vals.push(IrExpr::field(right.clone(), fname));
            }
        }
        if class.max_expr_len >= 2 {
            let base = joined_vals.clone();
            for x in base.iter().take(6) {
                for y in base.iter().take(6) {
                    for op in [BinOp::Mul, BinOp::Sub, BinOp::Add] {
                        if grammar.operators.contains(&op) && joined_vals.len() < 60 {
                            joined_vals.push(IrExpr::bin(op, x.clone(), y.clone()));
                        }
                    }
                }
            }
        }
        let key_scope = joined_scope(&s1.source.elem_ty, &s2.source.elem_ty, None);
        let joined_vals: Vec<IrExpr> = joined_vals
            .iter()
            .take(24)
            .map(|v| normalize::expr(v, &key_scope))
            .collect();
        for k1 in &k1s {
            for k2 in &k2s {
                let lhs = MrExpr::Data(s1.source.clone()).map(MapLambda {
                    params: vec![p1.clone()],
                    emits: vec![Emit::unconditional(k1.clone(), IrExpr::var(p1.clone()))],
                });
                let rhs = MrExpr::Data(s2.source.clone()).map(MapLambda {
                    params: vec![p2.clone()],
                    emits: vec![Emit::unconditional(k2.clone(), IrExpr::var(p2.clone()))],
                });
                let joined = lhs.join(rhs);
                for v in &joined_vals {
                    for r in reducers_for(grammar, out_ty).into_iter().take(3) {
                        let expr = joined
                            .clone()
                            .map(MapLambda {
                                params: vec!["_k".into(), "_v".into()],
                                emits: vec![Emit::unconditional(IrExpr::int(0), v.clone())],
                            })
                            .reduce(r);
                        push(ProgramSummary::single(var, expr, OutputKind::Scalar));
                    }
                }
            }
        }
    }
}

/// Candidates built directly from harvested accumulator updates:
/// `out = out ⊕ δ(record)` becomes `reduce(map(d, emit(0, δ)), ⊕)`, and a
/// family of accumulators becomes one tuple-valued pipeline.
fn accum_candidates(
    grammar: &Grammar,
    class: &GrammarClass,
    data: &MrExpr,
    fp: &[String],
    params: &[(String, Type)],
    scope: &Scope,
    push: &mut impl FnMut(ProgramSummary),
) {
    let norm = |e: &IrExpr| normalize::expr(e, scope);
    let updates: Vec<&AccumUpdate> = grammar
        .accum_updates
        .iter()
        .filter(|u| {
            in_scope_with_state(&u.delta, params, grammar)
                && u.cond
                    .as_ref()
                    .map(|c| in_scope_with_state(c, params, grammar))
                    .unwrap_or(true)
        })
        .collect();
    if updates.is_empty() {
        return;
    }

    // Scalar outputs covered by exactly one update each.
    let scalar_outputs: Vec<(String, Type)> = grammar
        .outputs
        .iter()
        .filter(|(_, t)| matches!(t, Type::Int | Type::Double | Type::Bool))
        .cloned()
        .collect();
    if scalar_outputs.is_empty() {
        return;
    }

    if scalar_outputs.len() == 1 {
        let var = &scalar_outputs[0].0;
        for u in updates.iter().filter(|u| u.var == *var) {
            let cond = match &u.cond {
                Some(c) if class.allow_cond_emits => Some(norm(c)),
                Some(_) => continue,
                None => None,
            };
            let Some(emit) = normalize::emit(cond, IrExpr::int(0), norm(&u.delta)) else {
                continue;
            };
            let expr = data
                .clone()
                .map(MapLambda {
                    params: fp.to_vec(),
                    emits: vec![emit.clone()],
                })
                .reduce(u.op.reducer());
            push(ProgramSummary::single(
                var.clone(),
                expr,
                OutputKind::Scalar,
            ));
            // Min/max folds clamp at the accumulator's pre-loop value
            // (`m = max(m₀, max(δ…))`), so the plain delta fold is wrong
            // whenever the init can dominate the data. Emit the pre-value
            // as a seed row alongside the deltas — the data plane resolves
            // the output name from the pre-loop state.
            if matches!(u.op, AccumOp::Min | AccumOp::Max) && class.max_emits >= 2 {
                let seed = Emit::unconditional(IrExpr::int(0), IrExpr::var(var.clone()));
                let expr = data
                    .clone()
                    .map(MapLambda {
                        params: fp.to_vec(),
                        emits: vec![seed, emit],
                    })
                    .reduce(u.op.reducer());
                push(ProgramSummary::single(
                    var.clone(),
                    expr,
                    OutputKind::Scalar,
                ));
            }
        }
        return;
    }

    // Multiple accumulators: one tuple-valued pipeline (the shape the
    // paper synthesizes for Linear Regression's five sums). Guarded
    // updates become conditional components with the operation's
    // identity; min/max lack a usable identity and bail out.
    if class.kv_complexity < 2 || scalar_outputs.len() > 6 {
        return;
    }
    let mut components: Vec<IrExpr> = Vec::new();
    let mut combiner: Vec<IrExpr> = Vec::new();
    let vars: Vec<String> = scalar_outputs.iter().map(|(n, _)| n.clone()).collect();
    for (i, (var, ty)) in scalar_outputs.iter().enumerate() {
        let Some(u) = updates.iter().find(|u| &u.var == var) else {
            return;
        };
        let comp = match &u.cond {
            None => u.delta.clone(),
            Some(c) => {
                let Some(identity) = accum_identity(&u.op, ty) else {
                    return;
                };
                IrExpr::ite(c.clone(), u.delta.clone(), identity)
            }
        };
        components.push(comp);
        combiner.push(u.op.component(i));
    }
    let expr = data
        .clone()
        .map(MapLambda {
            params: fp.to_vec(),
            emits: vec![Emit::unconditional(
                IrExpr::int(0),
                norm(&IrExpr::Tuple(components)),
            )],
        })
        .reduce(ReduceLambda::new(IrExpr::Tuple(combiner)));
    push(ProgramSummary {
        bindings: vec![OutputBinding {
            vars,
            expr,
            kind: OutputKind::ScalarTuple,
        }],
    });
}

/// Keyed-map accumulator candidates: every map-typed output gets one
/// binding built from its harvested `put(k, get_or(k, ·) ⊕ δ)` update;
/// the candidate covers all map outputs of the fragment at once (TPC-H
/// Q1's four grouped aggregates, 3-D histogram's channel counters).
fn map_accum_candidates(
    grammar: &Grammar,
    class: &GrammarClass,
    data: &MrExpr,
    fp: &[String],
    params: &[(String, Type)],
    scope: &Scope,
    push: &mut impl FnMut(ProgramSummary),
) {
    let norm = |e: &IrExpr| normalize::expr(e, scope);
    let map_outputs: Vec<&String> = grammar
        .outputs
        .iter()
        .filter(|(_, t)| matches!(t, Type::Map(..)))
        .map(|(n, _)| n)
        .collect();
    if map_outputs.is_empty() {
        return;
    }
    let usable: Vec<&MapAccum> = grammar
        .map_accums
        .iter()
        .filter(|u| {
            in_scope_with_state(&u.delta, params, grammar)
                && in_scope_with_state(&u.key, params, grammar)
                && u.cond
                    .as_ref()
                    .map(|c| in_scope_with_state(c, params, grammar))
                    .unwrap_or(true)
        })
        .collect();
    let mut bindings = Vec::new();
    for var in &map_outputs {
        let Some(u) = usable.iter().find(|u| &&u.var == var) else {
            return;
        };
        let cond = match &u.cond {
            Some(c) if class.allow_cond_emits => Some(norm(c)),
            Some(_) => return,
            None => None,
        };
        let Some(emit) = normalize::emit(cond, norm(&u.key), norm(&u.delta)) else {
            return;
        };
        let expr = data
            .clone()
            .map(MapLambda {
                params: fp.to_vec(),
                emits: vec![emit],
            })
            .reduce(u.op.reducer());
        bindings.push(OutputBinding {
            vars: vec![(*var).clone()],
            expr,
            kind: OutputKind::AssocMap,
        });
    }
    // All scalar/other outputs must be absent for this to bind everything.
    if bindings.len() == grammar.outputs.len() {
        push(ProgramSummary { bindings });
    }
}

/// Identity element for an accumulator operation, when one exists.
pub(crate) fn accum_identity(op: &AccumOp, ty: &Type) -> Option<IrExpr> {
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

/// Substitute variables in an expression: λ-param re-binding for joins,
/// and the grammar's renames of locals into λ-parameter space.
pub fn subst_vars(e: &IrExpr, map: &dyn Fn(&str) -> Option<IrExpr>) -> IrExpr {
    match e {
        IrExpr::Var(v) => map(v).unwrap_or_else(|| e.clone()),
        IrExpr::Field(b, f) => IrExpr::field(subst_vars(b, map), f.clone()),
        IrExpr::TupleGet(b, i) => IrExpr::tget(subst_vars(b, map), *i),
        IrExpr::Tuple(es) => IrExpr::Tuple(es.iter().map(|x| subst_vars(x, map)).collect()),
        IrExpr::Bin(op, l, r) => IrExpr::bin(*op, subst_vars(l, map), subst_vars(r, map)),
        IrExpr::Un(op, x) => IrExpr::Un(*op, Box::new(subst_vars(x, map))),
        IrExpr::Call(f, args) => {
            IrExpr::Call(f.clone(), args.iter().map(|x| subst_vars(x, map)).collect())
        }
        IrExpr::Method(b, m, args) => IrExpr::Method(
            Box::new(subst_vars(b, map)),
            m.clone(),
            args.iter().map(|x| subst_vars(x, map)).collect(),
        ),
        IrExpr::If(c, t, e2) => {
            IrExpr::ite(subst_vars(c, map), subst_vars(t, map), subst_vars(e2, map))
        }
        IrExpr::Agg {
            op,
            init,
            over,
            param,
            body,
        } => {
            // The element binder shadows the substitution inside the body;
            // `over` is renamed only when the map sends it to another
            // plain variable (it must stay a collection name).
            let masked = |v: &str| if v == param.as_str() { None } else { map(v) };
            let over = match map(over) {
                Some(IrExpr::Var(nv)) => nv,
                _ => over.clone(),
            };
            IrExpr::Agg {
                op: *op,
                init: Box::new(subst_vars(init, map)),
                over,
                param: param.clone(),
                body: Box::new(subst_vars(body, &masked)),
            }
        }
        other => other.clone(),
    }
}

pub(crate) fn mentions_var(e: &IrExpr, name: &str) -> bool {
    let mut vars = Vec::new();
    e.free_vars(&mut vars);
    vars.iter().any(|v| v == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::generate_classes;
    use analyzer::identify_fragments;
    use seqlang::compile;
    use std::sync::Arc;

    fn grammar_for(src: &str) -> Grammar {
        let p = Arc::new(compile(src).unwrap());
        let frag = identify_fragments(&p).remove(0);
        Grammar::for_fragment(&frag)
    }

    #[test]
    fn sum_candidates_exist_in_g2() {
        let g = grammar_for(
            "fn sum(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }",
        );
        let classes = generate_classes();
        let cands = candidates(&g, &classes[1]);
        assert!(!cands.is_empty());
        // The textbook sum summary must be among them.
        let target = "reduce(map(xs";
        let found = cands.iter().any(|c| {
            casper_ir::pretty::pretty_summary(c).contains(target)
                && format!("{:?}", c).contains("Add")
        });
        assert!(found, "sum summary missing from G2 candidates");
    }

    #[test]
    fn cost_order_is_ascending() {
        let g = grammar_for(
            "fn sum(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }",
        );
        let top = generate_classes().last().copied().unwrap();
        let cands = candidates(&g, &top);
        let costs: Vec<f64> = cands.iter().map(|c| enumeration_cost(&g, c)).collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The benchmark's search-bound `translate_search` programs.
    const TRANSLATE_SEARCH: [&str; 7] = [
        "clickstream/session_ema",
        "iterative/pagerank_contribs",
        "fiji/brightness_sum",
        "tpch/q15_revenue_by_supplier",
        "iterative/pagerank_update",
        "fiji/temporal_median_window",
        "phoenix/kmeans_assign",
    ];

    /// The grammar of every fragment of the named registry programs.
    fn registry_grammars(names: &[&str]) -> Vec<(String, Grammar)> {
        let registry = suites::all_benchmarks();
        names
            .iter()
            .flat_map(|name| {
                let bench = registry
                    .iter()
                    .find(|b| b.name == *name)
                    .expect("registered");
                let p = Arc::new(compile(bench.source).unwrap());
                identify_fragments(&p)
                    .into_iter()
                    .map(|f| (format!("{name} {}", f.id), Grammar::for_fragment(&f)))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Pull a whole stream through `next_chunk` with nothing blocked,
    /// checking that each position indexes the sequence.
    fn drain(stream: &mut CandidateStream<'_>) -> Vec<ProgramSummary> {
        let mut cursor = 0usize;
        let blocked = HashSet::new();
        let mut pulled: Vec<ProgramSummary> = Vec::new();
        loop {
            match stream.next_chunk(&mut cursor, 7, &blocked) {
                Chunk::Batch(batch) => {
                    for (pos, cand) in batch {
                        assert_eq!(pos, pulled.len(), "positions index the sequence");
                        pulled.push(cand.clone());
                    }
                }
                Chunk::AllBlocked => continue,
                Chunk::Exhausted => return pulled,
            }
        }
    }

    #[test]
    fn every_class_adds_candidates() {
        // A class that no fixture fragment gets a new candidate from only
        // repeats the classes below it: the search would stream nothing
        // from it and count it as explored.
        let mut names = vec!["ariths/sum"];
        names.extend(TRANSLATE_SEARCH);
        let fixtures = registry_grammars(&names);
        let classes = generate_classes();
        let mut adds = vec![false; classes.len()];
        for (_, g) in &fixtures {
            let mut earlier: HashSet<ProgramSummary> = HashSet::new();
            for (k, class) in classes.iter().enumerate() {
                for cand in candidates(g, class) {
                    adds[k] |= earlier.insert(cand);
                }
            }
        }
        for (k, class) in classes.iter().enumerate().skip(1) {
            assert!(
                adds[k],
                "{} adds no candidate to any fixture",
                class.name(k)
            );
        }
    }

    #[test]
    fn delta_streams_drop_earlier_classes_and_keep_order() {
        // Class k's delta stream is candidates(class k) without the
        // candidates of classes < k, in the same order, and its positions
        // index that filtered sequence.
        let mut names: Vec<&str> = TRANSLATE_SEARCH.to_vec();
        names.push("tpch/q6_revenue");
        let classes = generate_classes();
        for (fixture, g) in registry_grammars(&names) {
            let mut earlier: HashSet<ProgramSummary> = HashSet::new();
            let mut stream = CandidateStream::new(&g, &classes[0]);
            for (k, class) in classes.iter().enumerate() {
                if k > 0 {
                    stream = CandidateStream::after(stream, class);
                }
                let expected: Vec<ProgramSummary> = candidates(&g, class)
                    .into_iter()
                    .filter(|c| !earlier.contains(c))
                    .collect();
                let pulled = drain(&mut stream);
                assert_eq!(
                    pulled,
                    expected,
                    "{fixture}: delta stream of {} diverged",
                    class.name(k)
                );
                earlier.extend(expected);
            }
        }
    }

    #[test]
    fn lazy_stream_matches_eager_order() {
        // Golden ordering: chunked lazy pulls must reproduce the eager
        // reference sequence exactly (heap tie-breaking == stable sort).
        let g = grammar_for(
            "fn sm(text: list<string>, key1: string, key2: string) -> bool {
                let f1: bool = false;
                for (w in text) { if (w == key1) { f1 = true; } }
                return f1;
            }",
        );
        let classes = generate_classes();
        for class in &classes {
            let eager = candidates(&g, class);
            let lazy = drain(&mut CandidateStream::new(&g, class));
            assert_eq!(eager, lazy, "order diverged in class {class:?}");
        }
    }

    #[test]
    fn next_chunk_distinguishes_exhaustion_from_all_blocked() {
        let g = grammar_for(
            "fn sum(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }",
        );
        let classes = generate_classes();
        let mut stream = CandidateStream::new(&g, &classes[1]);
        let total = stream.all().len();
        assert!(total > 0);

        // Block the entire cheapest-first prefix: a fresh cursor must see
        // AllBlocked windows (not Exhausted) until it scans past them.
        let blocked: HashSet<ProgramSummary> = stream.all().iter().cloned().collect();
        let mut cursor = 0usize;
        let mut all_blocked_seen = 0usize;
        loop {
            match stream.next_chunk(&mut cursor, 4, &blocked) {
                Chunk::Batch(b) => panic!("nothing should be free, got {}", b.len()),
                Chunk::AllBlocked => all_blocked_seen += 1,
                Chunk::Exhausted => break,
            }
        }
        assert!(all_blocked_seen > 0, "blocked windows must be reported");
        assert_eq!(cursor, total, "cursor advances past blocked candidates");

        // Once the cursor sits at the end, Exhausted is stable.
        assert!(matches!(
            stream.next_chunk(&mut cursor, 4, &HashSet::new()),
            Chunk::Exhausted
        ));
    }

    #[test]
    fn no_duplicates() {
        let g = grammar_for(
            "fn sum(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }",
        );
        let classes = generate_classes();
        let cands = candidates(&g, &classes[2]);
        let set: HashSet<&ProgramSummary> = cands.iter().collect();
        assert_eq!(set.len(), cands.len());
    }

    #[test]
    fn higher_classes_contain_more_candidates() {
        let g = grammar_for(
            "fn sm(text: list<string>, key1: string, key2: string) -> bool {
                let f1: bool = false;
                for (w in text) { if (w == key1) { f1 = true; } }
                return f1;
            }",
        );
        let classes = generate_classes();
        let c1 = candidates(&g, &classes[0]).len();
        let top = candidates(&g, classes.last().unwrap()).len();
        assert!(
            top >= c1,
            "the top class ({top}) must not be smaller than G1 ({c1})"
        );
    }

    #[test]
    fn index_join_generates_dot_product_shape() {
        let g = grammar_for(
            "fn dot(xs: array<int>, ys: array<int>, n: int) -> int {
                let d: int = 0;
                for (let i: int = 0; i < n; i = i + 1) {
                    d = d + xs[i] * ys[i];
                }
                return d;
            }",
        );
        let classes = generate_classes();
        let cands = candidates(&g, &classes[3]);
        let found = cands.iter().any(|c| {
            let text = casper_ir::pretty::pretty_summary(c);
            text.contains("join(xs[indexed], ys[indexed])")
        });
        assert!(found, "index-join skeleton missing");
    }

    #[test]
    fn array_output_uses_index_keys() {
        let g = grammar_for(
            "fn rs(mat: array<array<int>>, rows: int, cols: int) -> array<int> {
                let m: array<int> = new array<int>(rows);
                for (let i: int = 0; i < rows; i = i + 1) {
                    let sum: int = 0;
                    for (let j: int = 0; j < cols; j = j + 1) {
                        sum = sum + mat[i][j];
                    }
                    m[i] = sum;
                }
                return m;
            }",
        );
        let classes = generate_classes();
        let cands = candidates(&g, &classes[1]);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(matches!(c.bindings[0].kind, OutputKind::AssocArray { .. }));
        }
    }
}
