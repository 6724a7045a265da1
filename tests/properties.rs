//! Property-based tests over the core invariants, spanning crates:
//! the IR evaluator vs the engine, the verification conditions, and the
//! engine's shuffle determinism.

use casper_ir::eval::eval_summary;
use casper_ir::expr::IrExpr;
use casper_ir::lambda::{Emit, MapLambda, ReduceLambda};
use casper_ir::mr::{DataSource, MrExpr, OutputKind, ProgramSummary};
use codegen::CompiledPlan;
use mapreduce::{BufRdd, Context};
use proptest::prelude::*;
use seqlang::ast::BinOp;
use seqlang::env::Env;
use seqlang::ty::Type;
use seqlang::value::Value;
use verifier::CaProperties;

fn sum_summary() -> ProgramSummary {
    let m = MapLambda::new(
        vec!["x"],
        vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("x"))],
    );
    let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
        .map(m)
        .reduce(ReduceLambda::binop(BinOp::Add));
    ProgramSummary::single("s", expr, OutputKind::Scalar)
}

fn ca() -> CaProperties {
    CaProperties {
        commutative: true,
        associative: true,
    }
}

/// Canonicalize multiset-semantics outputs (maps and lists) by sorting,
/// so engine results (key-sorted collect) compare against the IR
/// evaluator's first-appearance order.
fn canon(env: &Env) -> Env {
    env.iter()
        .map(|(k, v)| {
            let v = match v {
                Value::Map(entries) => {
                    let mut e = entries.clone();
                    e.sort();
                    Value::Map(e)
                }
                Value::List(items) => {
                    let mut xs = items.clone();
                    xs.sort();
                    Value::List(xs)
                }
                other => other.clone(),
            };
            (k.clone(), v)
        })
        .collect()
}

/// The core differential contract of the execution data plane: the
/// fused buffered plan gives the serial run's outputs, and its error, at
/// every worker count, and agrees with the IR reference evaluator and
/// `CompiledSummary::eval` up to multiset canonicalization, failing
/// exactly when they fail.
fn assert_data_plane_agrees(summary: &ProgramSummary, props: Vec<CaProperties>, state: &Env) {
    use casper_ir::compile::CompiledSummary;

    let plan = CompiledPlan::new(summary.clone(), props);
    let ctx = Context::with_parallelism(4, 8);
    let fused = plan.execute(&ctx, state);
    let reference = eval_summary(summary, state);
    let compiled_ref = CompiledSummary::compile(summary).eval(state);

    // The serial fused run is the reference for error identity; the IR
    // evaluator may report a different first error on multi-map chains,
    // so it is held to outputs and error presence only.
    let serial = plan.execute(&Context::with_parallelism(1, 8), state);
    for workers in [1, 2, 4, 8] {
        let wctx = Context::with_parallelism(workers, 8);
        let at_width = plan.execute(&wctx, state);
        match (&serial, &at_width) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "fused diverges at {workers} workers"),
            (Err(a), Err(b)) => assert_eq!(
                a.to_string(),
                b.to_string(),
                "fused errors diverge at {workers} workers"
            ),
            _ => panic!("fused serial vs {workers} workers: {serial:?} / {at_width:?}"),
        }
    }
    match (&reference, &compiled_ref) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "tree-walk vs CompiledSummary diverge"),
        (Err(_), Err(_)) => {}
        _ => panic!("IR evaluators disagree: {reference:?} / {compiled_ref:?}"),
    }
    match (&fused, &reference) {
        (Ok(a), Ok(b)) => assert_eq!(canon(a), canon(b), "engine vs IR evaluator diverge"),
        (Err(_), Err(_)) => {}
        _ => panic!("engine vs IR evaluator disagree on failure: {fused:?} / {reference:?}"),
    }
}

/// Strategy producing arbitrary well-typed expressions over the λ
/// parameters `v1`/`v2`, a state global `g`, and (rarely) an unbound
/// variable — so generated trees exercise values, faults
/// (division/modulo by zero), unbound-variable errors, short-circuit
/// evaluation, and conditionals.
struct ArbExpr {
    bool_out: bool,
}

fn arb_int_expr() -> ArbExpr {
    ArbExpr { bool_out: false }
}

fn arb_bool_expr() -> ArbExpr {
    ArbExpr { bool_out: true }
}

impl Strategy for ArbExpr {
    type Value = IrExpr;
    fn sample(&self, gen: &mut Gen) -> IrExpr {
        if self.bool_out {
            gen_bool_expr(gen, 3)
        } else {
            gen_int_expr(gen, 4)
        }
    }
}

fn gen_int_expr(gen: &mut Gen, depth: usize) -> IrExpr {
    use seqlang::ast::UnOp;
    let roll = gen.next_u64() % 100;
    if depth == 0 || roll < 40 {
        return match gen.next_u64() % 13 {
            0..=3 => IrExpr::int((gen.next_u64() % 40) as i64 - 20),
            4..=6 => IrExpr::var("v1"),
            7..=9 => IrExpr::var("v2"),
            10..=11 => IrExpr::var("g"),
            _ => IrExpr::var("missing"),
        };
    }
    if roll < 70 {
        let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod]
            [(gen.next_u64() % 5) as usize];
        IrExpr::bin(
            op,
            gen_int_expr(gen, depth - 1),
            gen_int_expr(gen, depth - 1),
        )
    } else if roll < 84 {
        IrExpr::If(
            Box::new(gen_bool_expr(gen, depth - 1)),
            Box::new(gen_int_expr(gen, depth - 1)),
            Box::new(gen_int_expr(gen, depth - 1)),
        )
    } else if roll < 92 {
        IrExpr::Un(UnOp::Neg, Box::new(gen_int_expr(gen, depth - 1)))
    } else {
        gen_agg_expr(gen, depth)
    }
}

/// Inline-aggregate expressions: fold over the state collection `ys`
/// (the common case), over `g` (bound but not a collection — a typed
/// error), or over an unbound name (an unbound-variable error). The body
/// references the element parameter `a` half the time, so shadowing and
/// the param/state resolution order are both exercised.
fn gen_agg_expr(gen: &mut Gen, depth: usize) -> IrExpr {
    use casper_ir::expr::AggOp;
    let op = [AggOp::Add, AggOp::Min, AggOp::Max][(gen.next_u64() % 3) as usize];
    let over = match gen.next_u64() % 8 {
        0 => "g",
        1 => "missing",
        _ => "ys",
    };
    let body = if gen.next_u64().is_multiple_of(2) {
        IrExpr::bin(BinOp::Add, IrExpr::var("a"), gen_int_expr(gen, depth - 1))
    } else {
        gen_int_expr(gen, depth - 1)
    };
    IrExpr::Agg {
        op,
        init: Box::new(gen_int_expr(gen, depth - 1)),
        over: over.into(),
        param: "a".into(),
        body: Box::new(body),
    }
}

fn gen_bool_expr(gen: &mut Gen, depth: usize) -> IrExpr {
    if depth == 0 || gen.next_u64() % 100 < 60 {
        let op = [
            BinOp::Lt,
            BinOp::Gt,
            BinOp::Le,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
        ][(gen.next_u64() % 6) as usize];
        let d = depth.saturating_sub(1);
        IrExpr::bin(op, gen_int_expr(gen, d), gen_int_expr(gen, d))
    } else {
        let op = if gen.next_u64().is_multiple_of(2) {
            BinOp::And
        } else {
            BinOp::Or
        };
        IrExpr::bin(
            op,
            gen_bool_expr(gen, depth - 1),
            gen_bool_expr(gen, depth - 1),
        )
    }
}

/// Strategy producing arbitrary `Value` rows — every tag class the
/// buffer distinguishes: inline scalars (including NaN, ±0.0, and raw
/// double bit patterns), empty/unicode/repeated strings, and nested
/// structured values that spill to the boxed arena.
struct ArbRows;

fn arb_rows() -> ArbRows {
    ArbRows
}

fn gen_value(gen: &mut Gen, depth: usize) -> Value {
    let variants = if depth == 0 { 7 } else { 10 };
    match gen.next_u64() % variants {
        0 => Value::Unit,
        1 => Value::Int(gen.next_u64() as i64),
        2 => match gen.next_u64() % 4 {
            0 => Value::Double(f64::NAN),
            1 => Value::Double(-0.0),
            2 => Value::Double((gen.next_u64() % 1000) as f64 / 8.0 - 50.0),
            _ => Value::Double(f64::from_bits(gen.next_u64())),
        },
        3 => Value::Bool(gen.next_u64().is_multiple_of(2)),
        4 => Value::str(""),
        5 | 6 => {
            let words = ["word", "héllo — ünïcode", "a", "bb", "\u{1F600}\u{0301}"];
            Value::str(words[(gen.next_u64() % words.len() as u64) as usize])
        }
        7 => Value::List(
            (0..gen.next_u64() % 4)
                .map(|_| gen_value(gen, depth - 1))
                .collect(),
        ),
        8 => Value::pair(gen_value(gen, depth - 1), gen_value(gen, depth - 1)),
        _ => Value::Map(vec![(gen_value(gen, depth - 1), gen_value(gen, depth - 1))]),
    }
}

impl Strategy for ArbRows {
    type Value = Vec<(Value, Value)>;
    fn sample(&self, gen: &mut Gen) -> Vec<(Value, Value)> {
        (0..gen.next_u64() % 24)
            .map(|_| (gen_value(gen, 2), gen_value(gen, 2)))
            .collect()
    }
}

fn wc_summary() -> ProgramSummary {
    let m = MapLambda::new(
        vec!["w"],
        vec![Emit::unconditional(IrExpr::var("w"), IrExpr::int(1))],
    );
    let expr = MrExpr::Data(DataSource::flat("ws", Type::Str))
        .map(m)
        .reduce(ReduceLambda::binop(BinOp::Add));
    ProgramSummary::single("counts", expr, OutputKind::AssocMap)
}

proptest! {
    /// Arbitrary `Value`s round-trip through `ValueBuf` storage and back
    /// as identity — through every write path the data plane uses:
    /// pushes, cross-buffer row copies (the shuffle's scatter) and the
    /// shuffle's arena-splicing gather. Semantic byte accounting must
    /// match the boxed model on every path.
    #[test]
    fn value_buf_roundtrip_is_identity(rows in arb_rows()) {
        use seqlang::buf::ValueBuf;

        let mut buf = ValueBuf::new(2);
        let mut sem = 0u64;
        for (k, v) in &rows {
            buf.push_value(k);
            buf.push_value(v);
            sem += 8 + k.size_bytes() + v.size_bytes();
        }
        prop_assert_eq!(buf.len(), rows.len());
        prop_assert_eq!(buf.sem_bytes(), sem, "semantic bytes diverge from the boxed model");

        // Cross-buffer row copy (the fused map's path and the shuffle's
        // scatter) and the shuffle's gather.
        let mut copied = ValueBuf::new(2);
        for row in 0..buf.len() {
            copied.copy_row_from(&buf, row);
        }
        let mut gathered = ValueBuf::new(2);
        gathered.append_raw(&copied);
        prop_assert_eq!(gathered.sem_bytes(), sem);

        for (row, (k, v)) in rows.iter().enumerate() {
            for (col, expect) in [(0, k), (1, v)] {
                prop_assert_eq!(&buf.value_at(row, col), expect, "push_value roundtrip");
                prop_assert_eq!(&copied.value_at(row, col), expect, "row copy roundtrip");
                prop_assert_eq!(&gathered.value_at(row, col), expect, "shuffle gather roundtrip");
                // Hash/order fidelity: bucketing and sorting through the
                // buffer match boxed `Value`s bit-for-bit.
                let mut h = std::collections::hash_map::DefaultHasher::new();
                std::hash::Hash::hash(expect, &mut h);
                prop_assert_eq!(
                    buf.cell_hash(row, col),
                    std::hash::Hasher::finish(&h),
                    "cell hash diverges from Value::hash"
                );
                prop_assert!(buf.cells_eq(row, col, &gathered, row, col));
                prop_assert_eq!(buf.cell_hash_fast(row, col), gathered.cell_hash_fast(row, col));
            }
        }
    }

    /// The engine execution of a compiled plan agrees with the IR
    /// reference evaluator on arbitrary integer data.
    #[test]
    fn engine_matches_ir_evaluator_sum(xs in prop::collection::vec(-1000i64..1000, 0..200)) {
        let mut state = Env::new();
        state.set("xs", Value::List(xs.iter().copied().map(Value::Int).collect()));
        state.set("s", Value::Int(0));

        let summary = sum_summary();
        let ir_out = eval_summary(&summary, &state).unwrap();

        let plan = CompiledPlan::new(
            summary,
            vec![CaProperties { commutative: true, associative: true }],
        );
        let ctx = Context::with_parallelism(4, 8);
        let engine_out = plan.execute(&ctx, &state).unwrap();
        prop_assert_eq!(ir_out.get("s"), engine_out.get("s"));
        prop_assert_eq!(
            engine_out.get("s"),
            Some(&Value::Int(xs.iter().sum::<i64>()))
        );
    }

    /// WordCount is permutation-invariant end to end (multiset semantics).
    #[test]
    fn word_count_is_order_insensitive(
        mut words in prop::collection::vec("[a-d]{1,2}", 0..100)
    ) {
        let mk_state = |ws: &[String]| {
            let mut st = Env::new();
            st.set("ws", Value::List(ws.iter().map(Value::str).collect()));
            st.set("counts", Value::Map(vec![]));
            st
        };
        let original = eval_summary(&wc_summary(), &mk_state(&words)).unwrap();
        words.reverse();
        let reversed = eval_summary(&wc_summary(), &mk_state(&words)).unwrap();
        prop_assert_eq!(original.get("counts"), reversed.get("counts"));
    }

    /// reduceByKey results are independent of partitioning.
    #[test]
    fn reduce_by_key_partition_invariant(
        pairs in prop::collection::vec((0i64..10, -50i64..50), 1..300),
        parts in 1usize..20
    ) {
        let pairs: Vec<(Value, Value)> =
            pairs.into_iter().map(|(k, v)| (Value::Int(k), Value::Int(v))).collect();
        let sums = |parts: usize| {
            let c = Context::with_parallelism(4, parts);
            let add = |x, y| seqlang::interp::eval_binop(BinOp::Add, x, y);
            BufRdd::parallelize_pairs(&c, &pairs)
                .try_reduce_by_key(Some(seqlang::buf::FastCombine::Add), add)
                .unwrap()
                .collect_sorted()
        };
        prop_assert_eq!(sums(parts), sums(1));
    }

    /// The cost model's dominance relation is a partial order on random
    /// symbolic costs (reflexive, antisymmetric up to equality).
    #[test]
    fn cost_dominance_is_consistent(base in 0.0f64..500.0, c1 in 0.0f64..300.0) {
        use cost::SymCost;
        let mut a = SymCost::constant(base);
        a.add_term("p1", c1);
        prop_assert!(a.dominates(&a));
        let cheaper = SymCost::constant(base / 2.0);
        let mut expensive = SymCost::constant(base + 1.0);
        expensive.add_term("p1", c1);
        prop_assert!(expensive.dominates(&cheaper));
    }

    /// The compiled evaluator agrees with the tree-walking reference on
    /// arbitrary data — the contract that lets the CEGIS screening layer
    /// run compiled without changing a single verdict.
    #[test]
    fn compiled_evaluator_matches_tree_walk(
        xs in prop::collection::vec(-1000i64..1000, 0..200),
        words in prop::collection::vec("[a-d]{1,2}", 0..100)
    ) {
        use casper_ir::compile::CompiledSummary;

        let mut st = Env::new();
        st.set("xs", Value::List(xs.iter().copied().map(Value::Int).collect()));
        st.set("s", Value::Int(0));
        let summary = sum_summary();
        let compiled = CompiledSummary::compile(&summary);
        prop_assert_eq!(
            eval_summary(&summary, &st).unwrap(),
            compiled.eval(&st).unwrap()
        );

        let mut st2 = Env::new();
        st2.set("ws", Value::List(words.iter().map(Value::str).collect()));
        st2.set("counts", Value::Map(vec![]));
        let wc = wc_summary();
        let compiled_wc = CompiledSummary::compile(&wc);
        prop_assert_eq!(
            eval_summary(&wc, &st2).unwrap(),
            compiled_wc.eval(&st2).unwrap()
        );
    }

    /// Observational-equivalence dedup never skips the summary the
    /// un-deduped serial search finds: across varying bounded-domain
    /// sizes and Φ seeds, the deduped search returns the identical
    /// verified set, accumulates the same counter-examples, and absorbs
    /// screening work one-for-one.
    #[test]
    fn dedup_never_skips_the_undeduped_solution(
        bounded_states in 6usize..24,
        initial_states in 1usize..6,
        which in 0usize..3
    ) {
        use analyzer::identify_fragments;
        use std::sync::Arc;
        use synthesis::{find_summary, FindConfig, FindOutcome};

        let sources = [
            "fn sum(xs: list<int>) -> int {
                let s: int = 0;
                for (x in xs) { s = s + x; }
                return s;
            }",
            "fn cc(xs: list<int>, t: int) -> int {
                let n: int = 0;
                for (x in xs) { if (x > t) { n = n + 1; } }
                return n;
            }",
            "fn mx(xs: list<int>) -> int {
                let m: int = 0;
                for (x in xs) { if (x > m) { m = x; } }
                return m;
            }",
        ];
        let p = Arc::new(seqlang::compile(sources[which]).unwrap());
        let frag = identify_fragments(&p).remove(0);
        let mut base = FindConfig {
            top_k: 2,
            ..FindConfig::default()
        };
        base.synth.bounded_states = bounded_states;
        base.synth.initial_states = initial_states;

        let with = FindConfig { dedup: true, ..base.clone() };
        let without = FindConfig { dedup: false, ..base };
        let accept =
            |_: &casper_ir::mr::ProgramSummary| synthesis::VerifierVerdict::simple(true);
        let (on, r_on) = find_summary(&frag, &accept, &with);
        let (off, r_off) = find_summary(&frag, &accept, &without);
        let (FindOutcome::Found(a), FindOutcome::Found(b)) = (on, off) else {
            panic!("both searches must find summaries");
        };
        prop_assert_eq!(a, b);
        prop_assert_eq!(r_on.counter_examples, r_off.counter_examples);
        prop_assert_eq!(r_on.sent_to_verifier, r_off.sent_to_verifier);
        prop_assert_eq!(r_off.candidates_deduped, 0);
        prop_assert_eq!(
            r_on.candidates_checked + r_on.candidates_deduped,
            r_off.candidates_checked
        );
    }

    /// Fused+compiled plan execution agrees with both IR evaluators on
    /// arbitrary data — including the empty input.
    #[test]
    fn fused_plan_differential_sum_and_wordcount(
        xs in prop::collection::vec(-1000i64..1000, 0..200),
        words in prop::collection::vec("[a-d]{1,2}", 0..100)
    ) {
        let mut st = Env::new();
        st.set("xs", Value::List(xs.iter().copied().map(Value::Int).collect()));
        st.set("s", Value::Int(0));
        assert_data_plane_agrees(&sum_summary(), vec![ca()], &st);

        let mut st2 = Env::new();
        st2.set("ws", Value::List(words.iter().map(Value::str).collect()));
        st2.set("counts", Value::Map(vec![]));
        assert_data_plane_agrees(&wc_summary(), vec![ca()], &st2);
    }

    /// Differential test over a fused multi-map pipeline (row-wise mean)
    /// whose final λ divides by a free variable: `cols = 0` drives the
    /// error path through every executor at once.
    #[test]
    fn fused_plan_differential_rwm_including_errors(
        rows_data in prop::collection::vec(prop::collection::vec(-50i64..50, 3..4), 0..20),
        cols in 0i64..4
    ) {
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
            OutputKind::AssocArray { len_var: "rows".into() },
        );
        let mut st = Env::new();
        let n = rows_data.len();
        st.set(
            "mat",
            Value::Array(
                rows_data
                    .iter()
                    .map(|r| Value::Array(r.iter().copied().map(Value::Int).collect()))
                    .collect(),
            ),
        );
        st.set("rows", Value::Int(n as i64));
        st.set("cols", Value::Int(cols));
        st.set("m", Value::Array(vec![Value::Int(0); n]));
        assert_data_plane_agrees(&summary, vec![ca()], &st);
    }

    /// Differential test across a join pipeline and a non-CA
    /// (groupByKey + ordered fold) reduce.
    #[test]
    fn fused_plan_differential_join_and_non_ca(
        xs in prop::collection::vec(-100i64..100, 0..40),
        ys in prop::collection::vec(-100i64..100, 0..40)
    ) {
        // Dot product over joined indexed sources.
        let m = MapLambda::new(
            vec!["k", "v"],
            vec![Emit::unconditional(
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
        let mut st = Env::new();
        st.set("xs", Value::Array(xs.iter().copied().map(Value::Int).collect()));
        st.set("ys", Value::Array(ys.iter().copied().map(Value::Int).collect()));
        st.set("dot", Value::Int(0));
        assert_data_plane_agrees(&summary, vec![ca()], &st);

        // Keep-first reducer: non-commutative, must fold in arrival order.
        let m2 = MapLambda::new(
            vec!["x"],
            vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("x"))],
        );
        let expr2 = MrExpr::Data(DataSource::flat("zs", Type::Int))
            .map(m2)
            .reduce(ReduceLambda::new(IrExpr::var("v1")));
        let summary2 = ProgramSummary::single("first", expr2, OutputKind::Scalar);
        let mut st2 = Env::new();
        st2.set("zs", Value::List(xs.iter().copied().map(Value::Int).collect()));
        st2.set("first", Value::Int(-7));
        assert_data_plane_agrees(
            &summary2,
            vec![CaProperties { commutative: false, associative: true }],
            &st2,
        );
    }

    /// The verification stack's differential contract: the compiled
    /// verifier and the tree-walking golden reference produce identical
    /// verdicts, counter-examples, state counts, and reduce properties
    /// over the same basis — across domain sizes (including the empty
    /// domain), permutation counts, and candidate shapes (correct,
    /// refuted, and error-faulting).
    #[test]
    fn compiled_verifier_matches_tree_walk_verdicts(
        states in 0usize..16,
        permutations in 0usize..3,
        which in 0usize..4
    ) {
        use analyzer::identify_fragments;
        use std::sync::Arc;
        use verifier::{Verifier, VerifyConfig};

        let program = Arc::new(
            seqlang::compile(
                "fn sum(xs: list<int>) -> int {
                    let s: int = 0;
                    for (x in xs) { s = s + x; }
                    return s;
                }",
            )
            .unwrap(),
        );
        let fragment = identify_fragments(&program).remove(0);
        let m = || MapLambda::new(
            vec!["x"],
            vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("x"))],
        );
        let mk = |r: ReduceLambda| {
            let expr = MrExpr::Data(DataSource::flat("xs", Type::Int)).map(m()).reduce(r);
            ProgramSummary::single("s", expr, OutputKind::Scalar)
        };
        let candidate = match which {
            // Correct.
            0 => mk(ReduceLambda::binop(BinOp::Add)),
            // Refuted (keep-last).
            1 => mk(ReduceLambda::new(IrExpr::var("v2"))),
            // Faults on in-domain states (division by reduce input).
            2 => mk(ReduceLambda::new(IrExpr::bin(
                BinOp::Div,
                IrExpr::var("v1"),
                IrExpr::var("v2"),
            ))),
            // Faults in the map (division by the element).
            _ => {
                let lam = MapLambda::new(
                    vec!["x"],
                    vec![Emit::unconditional(
                        IrExpr::int(0),
                        IrExpr::bin(BinOp::Div, IrExpr::int(1), IrExpr::var("x")),
                    )],
                );
                let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
                    .map(lam)
                    .reduce(ReduceLambda::binop(BinOp::Add));
                ProgramSummary::single("s", expr, OutputKind::Scalar)
            }
        };
        let config = VerifyConfig {
            states,
            permutations,
            ..VerifyConfig::default()
        };
        let verifier = Verifier::new(&fragment, config);
        let compiled = verifier.verify(&candidate).result;
        let interpreted = verifier.verify_interpreted(&candidate);
        prop_assert_eq!(compiled.verified, interpreted.verified);
        prop_assert_eq!(compiled.states_checked, interpreted.states_checked);
        prop_assert_eq!(compiled.counter_example, interpreted.counter_example);
        prop_assert_eq!(compiled.reduce_properties, interpreted.reduce_properties);
        prop_assert_eq!(compiled.reason, interpreted.reason);
        if states == 0 {
            // Empty domain: trivially verified with zero states checked.
            prop_assert!(compiled.verified);
            prop_assert_eq!(compiled.states_checked, 0);
        }
    }

    /// Engine byte accounting is additive under scaling.
    #[test]
    fn stats_scaling_is_monotone(records in 1u64..100_000, f in 1.0f64..100.0) {
        use mapreduce::{JobStats, StageKind, StageStats};
        let mut j = JobStats::default();
        let mut s = StageStats::new(StageKind::Map, "m");
        s.records_in = records;
        s.bytes_out = records * 12;
        j.stages.push(s);
        let scaled = j.scaled(f);
        prop_assert!(scaled.stages[0].records_in >= j.stages[0].records_in);
        prop_assert!(
            (scaled.stages[0].bytes_out as f64 - j.stages[0].bytes_out as f64 * f).abs()
                <= f
        );
    }

    /// The bytecode VM's differential contract at the expression level:
    /// on arbitrary well-typed expressions, the raw chunk, the compiled
    /// reducer built on it, and the tree-walking `IrExpr::eval` all agree
    /// on values, on whether evaluation faults, and on the exact error
    /// message (error identity, not just error presence).
    #[test]
    fn bytecode_vm_matches_tree_walk(
        e in arb_int_expr(),
        v1 in -9i64..9,
        v2 in -9i64..9,
        g in -9i64..9,
        ys in prop::collection::vec(-9i64..9, 0..5),
    ) {
        use casper_ir::bytecode::Chunk;
        use casper_ir::compile::CompiledReduceLambda;

        let ys_val = Value::List(ys.iter().copied().map(Value::Int).collect());
        let mut state = Env::new();
        state.set("g", Value::Int(g));
        state.set("ys", ys_val.clone());

        let chunk = Chunk::compile(&e, &["v1", "v2"]);
        let vm = chunk
            .run(&[Value::Int(v1), Value::Int(v2)], &state)
            .map_err(|err| err.to_string());

        let lambda = ReduceLambda::new(e.clone());
        let compiled = CompiledReduceLambda::compile(&lambda)
            .combine(Value::Int(v1), Value::Int(v2), &state)
            .map_err(|err| err.to_string());

        let mut env = Env::new();
        env.set("g", Value::Int(g));
        env.set("ys", ys_val);
        env.set("v1", Value::Int(v1));
        env.set("v2", Value::Int(v2));
        let walk = e.eval(&env).map_err(|err| err.to_string());

        prop_assert_eq!(&vm, &compiled, "raw chunk vs compiled reducer");
        prop_assert_eq!(&vm, &walk, "bytecode vs tree-walk");
    }

    /// The same contract one level up: arbitrary map/reduce summaries
    /// (generated guard, value, and reduce-body expressions) evaluate
    /// identically under `CompiledSummary` (the bytecode VM) and under
    /// the tree-walking reference evaluator — outputs and error strings
    /// both.
    #[test]
    fn summary_engines_agree_on_arbitrary_pipelines(
        guard in arb_bool_expr(),
        val in arb_int_expr(),
        body in arb_int_expr(),
        xs in prop::collection::vec(-9i64..9, 0..8),
        ys in prop::collection::vec(-9i64..9, 0..5),
        g in -9i64..9,
    ) {
        use casper_ir::compile::CompiledSummary;

        // The map λ over an indexed source binds (index, element) to
        // (v1, v2), so the generated expressions are closed over the
        // same names as the reduce body. Keys group by index mod 3 to
        // exercise multi-group reduction without introducing faults in
        // the key position.
        let key = IrExpr::bin(BinOp::Mod, IrExpr::var("v1"), IrExpr::int(3));
        let m = MapLambda::new(
            vec!["v1", "v2"],
            vec![Emit::guarded(guard, key, val)],
        );
        let expr = MrExpr::Data(DataSource::indexed("xs", Type::Int))
            .map(m)
            .reduce(ReduceLambda::new(body));
        let summary = ProgramSummary::single("out", expr, OutputKind::AssocMap);

        let mut state = Env::new();
        state.set("xs", Value::Array(xs.into_iter().map(Value::Int).collect()));
        state.set("ys", Value::List(ys.into_iter().map(Value::Int).collect()));
        state.set("g", Value::Int(g));
        state.set("out", Value::Map(vec![]));

        let vm = CompiledSummary::compile(&summary)
            .eval(&state)
            .map_err(|err| err.to_string());
        let walk = eval_summary(&summary, &state).map_err(|err| err.to_string());

        prop_assert_eq!(&vm, &walk, "bytecode vs tree-walk summary");

        // The monitor's per-node pass: every node's rows, in post-order,
        // equal the tree walk of that sub-expression alone, an error
        // mapped to no rows and reported.
        let pipeline = &summary.bindings[0].expr;
        let ctx = casper_ir::eval::EvalCtx::new(&state);
        let mut walked = Vec::new();
        let mut failed = false;
        pipeline.walk(&mut |node| {
            let rows = ctx.eval_mr(node);
            failed |= rows.is_err();
            walked.push(rows.unwrap_or_default());
        });
        let nodes = casper_ir::compile::CompiledMrExpr::compile(pipeline).eval_nodes(&state);
        prop_assert_eq!(nodes.failed, failed, "a failing node is reported");
        prop_assert_eq!(nodes.rows, walked, "per-node rows vs tree-walk sub-expressions");
    }
}
