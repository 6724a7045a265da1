//! Regression guard for the parallel synthesis driver: translating the
//! same multi-fragment program at `parallelism = 1` and `parallelism = N`
//! must produce identical per-fragment outcomes — same summaries, same
//! generated code, same search-counter trace. This is the determinism
//! contract `synthesis::cegis`'s chunk-replay scheme promises.

use std::time::Duration;

use casper::{Casper, CasperConfig, FragmentOutcome, TranslationReport};
use casper_ir::compile::CompiledMrExpr;
use casper_ir::eval::eval_summary;
use casper_ir::mr::MrExpr;
use casper_ir::pretty::pretty_summary;
use codegen::CompiledPlan;
use mapreduce::{Context, JobStats};
use seqlang::env::Env;
use seqlang::value::Value;
use suites::MULTI_FRAGMENT_SRC as SUITE_SRC;
use synthesis::FindConfig;

fn translate(workers: usize) -> TranslationReport {
    translate_src(SUITE_SRC, workers)
}

fn translate_src(src: &str, workers: usize) -> TranslationReport {
    // A generous timeout keeps the only legitimate source of
    // serial/parallel divergence — deadline truncation — out of play.
    let config = CasperConfig {
        find: FindConfig {
            timeout: Duration::from_secs(300),
            ..FindConfig::default()
        },
        ..CasperConfig::default()
    }
    .with_parallelism(workers);
    Casper::new(config)
        .translate_source(src)
        .expect("suite source compiles")
}

/// A comparable fingerprint of everything outcome-relevant in a
/// fragment report.
fn fingerprint(report: &TranslationReport) -> Vec<String> {
    report
        .fragments
        .iter()
        .map(|f| match &f.outcome {
            FragmentOutcome::Translated {
                summaries,
                code,
                dialect,
                ..
            } => {
                let pretty: Vec<String> = summaries.iter().map(pretty_summary).collect();
                format!(
                    "{} translated [{:?}] summaries={} code={}",
                    f.id,
                    dialect,
                    pretty.join(" | "),
                    code,
                )
            }
            FragmentOutcome::Failed(reason) => {
                format!("{} failed: {}", f.id, reason.describe())
            }
        })
        .collect()
}

#[test]
fn parallel_and_serial_translations_are_identical() {
    let serial = translate(1);
    let parallel = translate(4);

    assert_eq!(serial.fragments.len(), 6, "six fragments identified");
    assert_eq!(serial.translated_count(), 6, "all six fragments translate");
    assert_eq!(fingerprint(&serial), fingerprint(&parallel));

    // The search traces must match counter-for-counter, not just the
    // final artifacts: the parallel screener replays the sequential φ
    // evolution — including every observational-dedup decision — exactly.
    for (s, p) in serial.fragments.iter().zip(&parallel.fragments) {
        assert_eq!(
            s.search.candidates_generated, p.search.candidates_generated,
            "{}: candidates_generated diverged",
            s.id
        );
        assert_eq!(
            s.search.candidates_deduped, p.search.candidates_deduped,
            "{}: candidates_deduped diverged",
            s.id
        );
        assert_eq!(
            s.search.candidates_checked, p.search.candidates_checked,
            "{}: candidates_checked diverged",
            s.id
        );
        assert_eq!(
            s.search.counter_examples, p.search.counter_examples,
            "{}: counter_examples diverged",
            s.id
        );
        assert_eq!(
            s.search.sent_to_verifier, p.search.sent_to_verifier,
            "{}: sent_to_verifier diverged",
            s.id
        );
        assert_eq!(
            s.search.classes_explored, p.search.classes_explored,
            "{}: classes_explored diverged",
            s.id
        );
        assert_eq!(
            s.search.candidates_generated,
            s.search.candidates_checked + s.search.candidates_deduped,
            "{}: generated must equal checked + deduped",
            s.id
        );
    }

    // The dedup layer must actually absorb work somewhere in the suite
    // (the acceptance bar: ratio > 0 on at least one suite grammar).
    assert!(
        serial.total_deduped() > 0,
        "no fragment produced observational duplicates"
    );
    assert!(serial.dedup_ratio() > 0.0);
    assert_eq!(
        serial.total_generated(),
        serial.total_screened() + serial.total_deduped()
    );
}

/// The rebuilt verification stack's determinism contract: verdicts, the
/// admitted counter-example, `states_checked`, reduce properties, the
/// proof transcript, and the verification count are bit-identical at
/// any worker count — and the compiled verifier agrees exactly with the
/// tree-walking golden reference over the same basis.
#[test]
fn verifier_verdicts_and_counters_identical_across_worker_counts() {
    use analyzer::identify_fragments;
    use casper_ir::expr::IrExpr;
    use casper_ir::lambda::{Emit, MapLambda, ReduceLambda};
    use casper_ir::mr::{DataSource, MrExpr, OutputKind, ProgramSummary};
    use seqlang::ast::BinOp;
    use seqlang::ty::Type;
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

    let map_identity = || {
        MapLambda::new(
            vec!["x"],
            vec![Emit::unconditional(IrExpr::int(0), IrExpr::var("x"))],
        )
    };
    let mk = |reduce: ReduceLambda| {
        let expr = MrExpr::Data(DataSource::flat("xs", Type::Int))
            .map(map_identity())
            .reduce(reduce);
        ProgramSummary::single("s", expr, OutputKind::Scalar)
    };
    // A verified candidate, a refuted one, and a faulting one.
    let candidates = vec![
        mk(ReduceLambda::binop(BinOp::Add)),
        mk(ReduceLambda::new(IrExpr::var("v2"))),
        mk(ReduceLambda::new(IrExpr::bin(
            BinOp::Div,
            IrExpr::var("v1"),
            IrExpr::var("v2"),
        ))),
    ];

    let reference = Verifier::new(
        &fragment,
        VerifyConfig {
            parallelism: 1,
            ..VerifyConfig::default()
        },
    );
    // Same call sequence against the reference: each candidate twice.
    let mut expected = Vec::new();
    for cand in &candidates {
        expected.push(reference.verify(cand));
        expected.push(reference.verify(cand));
    }

    for workers in [2, 4, 8] {
        let verifier = Verifier::new(
            &fragment,
            VerifyConfig {
                parallelism: workers,
                // Force the parallel checker regardless of basis size.
                parallel_min_obligations: 0,
                ..VerifyConfig::default()
            },
        );
        let mut got = Vec::new();
        for cand in &candidates {
            got.push(verifier.verify(cand));
            got.push(verifier.verify(cand));
        }
        for (e, g) in expected.iter().zip(&got) {
            assert_eq!(e.result.verified, g.result.verified, "verdict diverged");
            assert_eq!(e.result.states_checked, g.result.states_checked);
            assert_eq!(e.result.counter_example, g.result.counter_example);
            assert_eq!(e.result.reduce_properties, g.result.reduce_properties);
            assert_eq!(e.result.reason, g.result.reason);
            assert_eq!(e.result.proof.text(), g.result.proof.text());
        }
        assert_eq!(reference.cache_misses(), verifier.cache_misses());

        // Compiled vs tree-walking reference over the same basis.
        for cand in &candidates {
            let compiled = verifier.verify(cand).result;
            let interpreted = verifier.verify_interpreted(cand);
            assert_eq!(compiled.verified, interpreted.verified);
            assert_eq!(compiled.states_checked, interpreted.states_checked);
            assert_eq!(compiled.counter_example, interpreted.counter_example);
            assert_eq!(compiled.reduce_properties, interpreted.reduce_properties);
        }
    }

    // The same contract on real enumerator output for three fragments:
    // the first twelve bounded-domain survivors of the top grammar class,
    // the population the search sends to full verification.
    use analyzer::basis::VerificationBasis;
    use analyzer::stategen::StateGenConfig;
    use analyzer::vc::REL_TOL;
    use casper_ir::compile::CompiledSummary;
    use synthesis::{generate_classes, CandidateStream, Grammar};
    for src in [
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
    ] {
        let program = Arc::new(seqlang::compile(src).unwrap());
        let fragment = identify_fragments(&program).remove(0);
        let grammar = Grammar::for_fragment(&fragment);
        let top = *generate_classes().last().unwrap();
        let screen =
            VerificationBasis::build(&fragment, &StateGenConfig::bounded(), 10, 0, REL_TOL);
        let candidates: Vec<ProgramSummary> = CandidateStream::new(&grammar, &top)
            .all()
            .iter()
            .filter(|cand| {
                let compiled = CompiledSummary::compile(cand);
                let eval = |pre: &seqlang::env::Env| compiled.eval(pre);
                screen.first_failure(&eval).is_none()
            })
            .take(12)
            .cloned()
            .collect();
        assert!(!candidates.is_empty(), "no bounded-domain survivors");
        let serial = Verifier::new(
            &fragment,
            VerifyConfig {
                parallelism: 1,
                ..VerifyConfig::default()
            },
        );
        let parallel = Verifier::new(
            &fragment,
            VerifyConfig {
                parallelism: 4,
                parallel_min_obligations: 0,
                ..VerifyConfig::default()
            },
        );
        for cand in &candidates {
            let compiled = serial.verify(cand).result;
            for other in [
                (*parallel.verify(cand).result).clone(),
                serial.verify_interpreted(cand),
            ] {
                assert_eq!(compiled.verified, other.verified, "{src}");
                assert_eq!(compiled.states_checked, other.states_checked, "{src}");
                assert_eq!(compiled.counter_example, other.counter_example, "{src}");
                assert_eq!(compiled.reduce_properties, other.reduce_properties, "{src}");
            }
        }
    }
}

/// Sort map and list entries: the engine collects maps key-sorted, the
/// IR evaluator keeps first-appearance order.
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

/// Shuffle bytes of rows crossing a shuffle whole: 8 bytes of framing
/// plus each field's size.
fn whole_rows(rows: &[Vec<Value>]) -> u64 {
    let row = |r: &Vec<Value>| 8 + r.iter().map(Value::size_bytes).sum::<u64>();
    rows.iter().map(row).sum()
}

/// The shuffle volumes of `expr`'s `groupByKey` and join stages, in
/// execution order, from the evaluator's per-node rows (`nodes`, in
/// post-order) and the reduces' properties. Returns the node's rows.
fn whole_row_shuffles(
    expr: &MrExpr,
    nodes: &mut impl Iterator<Item = Vec<Vec<Value>>>,
    props: &mut impl Iterator<Item = verifier::CaProperties>,
    out: &mut Vec<u64>,
) -> Vec<Vec<Value>> {
    match expr {
        MrExpr::Data(_) => {}
        MrExpr::Map(inner, _) => {
            whole_row_shuffles(inner, nodes, props, out);
        }
        MrExpr::Reduce(inner, _) => {
            let rows = whole_row_shuffles(inner, nodes, props, out);
            if !props.next().expect("one property per reduce").both() {
                out.push(whole_rows(&rows));
            }
        }
        MrExpr::Join(l, r) => {
            let left = whole_row_shuffles(l, nodes, props, out);
            let right = whole_row_shuffles(r, nodes, props, out);
            out.push(whole_rows(&left) + whole_rows(&right));
        }
    }
    nodes.next().expect("one entry per node")
}

/// A plan run against references that run no engine: its outputs (`out`)
/// equal the IR evaluator's up to map order; its `stats` show one
/// shuffle per reduce and join; and every `groupByKey` and join stage
/// moves its input rows whole, as the evaluator produces them. (A
/// combining `reduceByKey` moves a volume that depends on partitioning,
/// so it has no such reference.)
fn assert_matches_reference(
    who: &str,
    plan: &CompiledPlan,
    state: &Env,
    out: &Env,
    stats: &JobStats,
) {
    let summary = &plan.summary;
    let reference = eval_summary(summary, state).expect("IR eval");
    assert_eq!(canon(out), canon(&reference), "{who}: plan vs IR evaluator");
    let mut wide = 0;
    let mut expected = Vec::new();
    let mut props = plan.reduce_props.iter().copied();
    for binding in &summary.bindings {
        binding.expr.walk(&mut |e| {
            wide += usize::from(matches!(e, MrExpr::Reduce(..) | MrExpr::Join(..)));
        });
        let nodes = CompiledMrExpr::compile(&binding.expr).eval_nodes(state);
        let mut nodes = nodes.rows.into_iter();
        whole_row_shuffles(&binding.expr, &mut nodes, &mut props, &mut expected);
    }
    assert_eq!(
        stats.shuffle_count(),
        wide,
        "{who}: one shuffle per reduce and join"
    );
    let whole = stats
        .stages
        .iter()
        .filter(|s| matches!(s.label.as_str(), "groupByKey" | "join"));
    let moved: Vec<u64> = whole.map(|s| s.bytes_shuffled).collect();
    assert_eq!(
        moved, expected,
        "{who}: groupByKey and join shuffle volumes"
    );
}

/// The fused execution data plane must be deterministic in everything
/// the stats layer counts: executing every translated suite fragment at
/// different engine worker counts yields identical outputs AND identical
/// per-stage counters (records in/out, bytes emitted, bytes shuffled),
/// and fusion must leave the shuffles a per-operator execution has.
#[test]
fn fused_stage_stats_deterministic_and_shuffle_preserving() {
    let report = translate(2);
    let state = cover_state();

    let mut fragments_executed = 0usize;
    for frag in &report.fragments {
        let FragmentOutcome::Translated { program, .. } = &frag.outcome else {
            continue;
        };
        for variant in &program.variants {
            let plan = &variant.plan;
            let who = format!("{}/{}", frag.id, variant.name);
            // Same partition count, different worker counts: outputs and
            // every stats counter must be bit-identical.
            let serial_ctx = Context::with_parallelism(1, 8);
            let parallel_ctx = Context::with_parallelism(4, 8);
            let serial_out = plan.execute(&serial_ctx, &state).expect("serial exec");
            let parallel_out = plan.execute(&parallel_ctx, &state).expect("parallel exec");
            assert_eq!(
                serial_out, parallel_out,
                "{who}: fused outputs diverge across worker counts"
            );
            assert_eq!(
                serial_ctx.stats(),
                parallel_ctx.stats(),
                "{who}: fused stage stats diverge across worker counts"
            );
            assert_matches_reference(&who, plan, &state, &serial_out, &serial_ctx.stats());
        }
        fragments_executed += 1;
    }
    assert_eq!(fragments_executed, 6, "all six suite fragments must run");
}

/// The buffered data plane against the IR evaluator: every translated
/// suite variant must produce the evaluator's outputs (up to map order)
/// from the columnar executor, bit-identically at worker counts 1/2/4/8
/// — the contract that lets the byte-moving data plane stand in for the
/// summary's meaning.
#[test]
fn buffered_plane_matches_ir_reference_across_workers() {
    let report = translate(2);
    let state = cover_state();

    let mut variants_checked = 0usize;
    for frag in &report.fragments {
        let FragmentOutcome::Translated { program, .. } = &frag.outcome else {
            continue;
        };
        for variant in &program.variants {
            let plan = &variant.plan;
            let reference = eval_summary(&plan.summary, &state).expect("IR eval");
            let serial = plan.execute(&Context::with_parallelism(1, 8), &state);
            let serial = serial.expect("buffered exec");
            assert_eq!(
                canon(&serial),
                canon(&reference),
                "{}/{}: buffered diverges from the IR evaluator",
                frag.id,
                variant.name
            );
            for workers in [2, 4, 8] {
                let ctx = Context::with_parallelism(workers, 8);
                let buffered = plan.execute(&ctx, &state).expect("buffered exec");
                assert_eq!(
                    buffered, serial,
                    "{}/{}: buffered diverges at {workers} workers",
                    frag.id, variant.name
                );
            }
            variants_checked += 1;
        }
    }
    assert!(variants_checked >= 6, "all suite variants must be swept");
}

/// The determinism contract extended to the post-paper suites: the
/// nested-aggregate and windowed fragments of `sessionize` and
/// `clickstream` must translate to bit-identical artifacts across
/// worker counts 1/2/4/8, and the fused data plane must agree with the
/// IR evaluator and the shuffle references on benchmark-generated data.
#[test]
fn extension_suite_fragments_consistent_across_workers() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use suites::all_benchmarks;

    let names = [
        "sessionize/vip_bytes",
        "sessionize/hits_by_hour",
        "clickstream/windowed_weighted_sum",
        "clickstream/rank_above_history",
    ];
    let all = all_benchmarks();
    for name in names {
        let b = all.iter().find(|b| b.name == name).unwrap();
        let reference = translate_src(b.source, 1);
        let ref_fp = fingerprint(&reference);
        assert!(reference.translated_count() >= 1, "{name} must translate");
        for workers in [2, 4, 8] {
            let parallel = translate_src(b.source, workers);
            assert_eq!(
                ref_fp,
                fingerprint(&parallel),
                "{name}: artifacts diverged at {workers} workers"
            );
        }

        // Fused execution on the benchmark's own data, evaluated from the
        // fragment's pre-loop state (which seeds the output accumulators
        // the reduce stage may fall back to).
        let fr = reference.for_function(b.func).expect("fragment report");
        let FragmentOutcome::Translated { program, .. } = &fr.outcome else {
            panic!("{name} did not translate");
        };
        let source = std::sync::Arc::new(seqlang::compile(b.source).unwrap());
        let frag = analyzer::identify_fragments(&source)
            .into_iter()
            .find(|f| f.func == b.func)
            .expect("fragment");
        let mut rng = StdRng::seed_from_u64(7);
        let state = frag
            .pre_loop_state(&(b.gen)(&mut rng, 200))
            .expect("pre-loop state");
        let plan = &program.variants[0].plan;
        let serial_ctx = Context::with_parallelism(1, 8);
        let fused = plan.execute(&serial_ctx, &state).expect("fused exec");
        for workers in [2, 4, 8] {
            let ctx = Context::with_parallelism(workers, 8);
            let out = plan.execute(&ctx, &state).expect("fused exec");
            assert_eq!(
                fused, out,
                "{name}: fused outputs diverge at {workers} workers"
            );
            assert_eq!(
                serial_ctx.stats(),
                ctx.stats(),
                "{name}: stage stats diverge at {workers} workers"
            );
        }
        assert_matches_reference(name, plan, &state, &fused, &serial_ctx.stats());
    }
}

/// A compact trace of every search counter the determinism contract
/// covers, for whole-report comparison across worker counts.
fn search_trace(report: &TranslationReport) -> Vec<(String, Vec<u64>)> {
    report
        .fragments
        .iter()
        .map(|f| {
            (
                f.id.clone(),
                vec![
                    f.search.candidates_generated,
                    f.search.candidates_deduped,
                    f.search.candidates_checked,
                    f.search.counter_examples,
                    f.search.sent_to_verifier,
                    f.search.classes_explored as u64,
                ],
            )
        })
        .collect()
}

/// The persistent work-stealing executor's adjudication contract: it
/// must replay the serial reference bit-for-bit — artifacts AND search
/// traces — at every swept worker count. The serial path (parallelism 1,
/// which never touches the pool) is the golden reference.
#[test]
fn runtime_modes_replay_serial_reference_across_worker_counts() {
    let serial = translate(1);
    let ref_fp = fingerprint(&serial);
    let ref_trace = search_trace(&serial);

    for workers in [1, 2, 4, 8] {
        let report = translate(workers);
        assert_eq!(
            report.runtime_mode, "persistent",
            "report must record the pool it ran on"
        );
        assert_eq!(
            ref_fp,
            fingerprint(&report),
            "artifacts diverged from the serial reference at {workers} workers"
        );
        assert_eq!(
            ref_trace,
            search_trace(&report),
            "search trace diverged from the serial reference at {workers} workers"
        );
    }
}

/// The serving layer's determinism contract: concurrent clients asking
/// casperd for the same source must all receive byte-identical payloads,
/// with exactly one cold translation — every other request is a cache
/// hit or coalesces onto the in-flight leader.
#[test]
fn casperd_serves_byte_identical_payloads_under_concurrency() {
    use casperd::{spawn_server, Client, TranslationService};
    use std::sync::Arc;
    use suites::{suite_benchmarks, Suite};

    let src = suite_benchmarks(Suite::Ariths)[0].source;
    let service = Arc::new(TranslationService::new(
        CasperConfig::default().with_parallelism(2),
        64,
        16 << 20,
    ));
    let addr = spawn_server(Arc::clone(&service)).expect("bind casperd");

    const CLIENTS: usize = 4;
    const REQUESTS: usize = 3;
    let outcomes: Vec<Vec<(String, Vec<u8>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    (0..REQUESTS)
                        .map(|_| {
                            let r = client.translate(src).expect("translate");
                            (r.served, r.payload)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let reference = &outcomes[0][0].1;
    assert!(!reference.is_empty(), "payload must not be empty");
    let mut cold = 0usize;
    for per_client in &outcomes {
        for (served, payload) in per_client {
            assert_eq!(
                payload, reference,
                "served={served}: payload diverged across concurrent clients"
            );
            if served == "cold" {
                cold += 1;
            }
        }
    }
    assert_eq!(cold, 1, "exactly one cold translation must lead");
    // Every coalesced request first missed the cache before latching
    // onto the leader, so misses = 1 (leader) + coalesced.
    assert_eq!(service.cache.misses(), 1 + service.cache.coalesced());
    assert_eq!(
        service.cache.hits() + service.cache.coalesced(),
        (CLIENTS * REQUESTS - 1) as u64,
        "every non-leader request must be served from cache or coalesce"
    );
}

#[test]
fn plan_compile_time_is_accounted() {
    let report = translate(2);
    for f in &report.fragments {
        if f.outcome.is_translated() {
            assert!(
                f.plan_compile_time > Duration::ZERO,
                "{}: plan lowering must be timed",
                f.id
            );
            assert!(
                f.plan_compile_time <= f.compile_time,
                "{}: plan lowering exceeds total compile time",
                f.id
            );
        }
    }
    assert!(report.total_plan_compile_time() > Duration::ZERO);
}

#[test]
fn wall_clock_accounting_is_populated() {
    let report = translate(2);
    for f in &report.fragments {
        assert!(f.compile_time > Duration::ZERO, "{}: zero wall clock", f.id);
    }
    // Lower bound: the whole-translation wall clock includes every
    // fragment's translation, so it is at least the longest single
    // fragment's wall clock at any worker count.
    assert!(
        report.wall_time
            >= report
                .fragments
                .iter()
                .map(|f| f.compile_time)
                .max()
                .unwrap()
    );
}

/// One comparable line per translated fragment capturing everything the
/// optimizer decides: the top-k candidate order, every variant's
/// sampled byte cost and predicted wall clock (as exact bit patterns),
/// the plan choice, and the re-tune decision trace of a two-iteration
/// tuned driver. Any nondeterminism in enumeration order, costing, or
/// the observe/compare/switch loop changes this trace.
fn optimizer_trace(report: &TranslationReport, state: &Env) -> Vec<String> {
    use codegen::{ProgramCache, TuningState};

    report
        .fragments
        .iter()
        .filter_map(|f| {
            let FragmentOutcome::Translated { program, .. } = &f.outcome else {
                return None;
            };
            let choice = program.choose(state);
            let mut line = format!(
                "{} variants=[{}] chosen={} costs={:?} predicted={:?}",
                f.id,
                program
                    .variants
                    .iter()
                    .map(|v| v.name.as_str())
                    .collect::<Vec<_>>()
                    .join(","),
                choice.chosen,
                choice.costs.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                choice
                    .predicted_seconds
                    .iter()
                    .map(|c| c.to_bits())
                    .collect::<Vec<_>>(),
            );
            let ctx = Context::with_parallelism(4, 8);
            let mut cache = ProgramCache::new();
            let mut tuning = TuningState::new();
            for _ in 0..2 {
                program
                    .run_tuned(&ctx, state, &mut cache, &mut tuning)
                    .expect("tuned iteration");
            }
            for d in &tuning.trace {
                line.push_str(&format!(
                    " | it{} run={} pred={:x} obs={:x} ratio={:x} switch={:?}",
                    d.iteration,
                    d.running,
                    d.predicted_seconds.to_bits(),
                    d.observed_seconds.to_bits(),
                    d.ratio.to_bits(),
                    d.switched_to,
                ));
            }
            Some(line)
        })
        .collect()
}

/// A state covering every suite fragment's inputs and pre-loop outputs.
fn cover_state() -> Env {
    let mut state = Env::new();
    state.set(
        "xs",
        Value::List((0..200).map(|i| Value::Int((i * 7 % 83) - 41)).collect()),
    );
    state.set(
        "words",
        Value::List(
            (0..150)
                .map(|i| Value::str(format!("w{}", i % 13)))
                .collect(),
        ),
    );
    state.set("t", Value::Int(3));
    state.set("s", Value::Int(0));
    state.set("m", Value::Int(0));
    state.set("n", Value::Int(0));
    state.set("f", Value::Bool(false));
    state.set("q", Value::Int(0));
    state.set("counts", Value::Map(vec![]));
    state
}

/// The optimizer's determinism contract: top-k enumeration order, cost
/// estimates, plan choice, and re-tune decisions are bit-identical
/// across {serial, persistent} × 1/2/4/8 synthesis workers — and the
/// tuned driver's observed costs and switch decisions do not depend on
/// the *engine's* worker count either.
#[test]
fn optimizer_decisions_deterministic_across_runtimes_and_workers() {
    use codegen::{ProgramCache, TuningState};

    let state = cover_state();
    let serial = translate(1);
    let ref_trace = optimizer_trace(&serial, &state);
    assert!(!ref_trace.is_empty(), "suite must translate fragments");
    // The contract is only meaningful if some fragment retained several
    // verified variants for the monitor to choose between.
    assert!(
        serial.fragments.iter().any(|f| matches!(
            &f.outcome,
            FragmentOutcome::Translated { program, .. } if program.variants.len() >= 2
        )),
        "top-k search must hand the monitor a real choice somewhere"
    );

    for workers in [1, 2, 4, 8] {
        assert_eq!(
            ref_trace,
            optimizer_trace(&translate(workers), &state),
            "optimizer decisions diverged at {workers} workers"
        );
    }

    // Engine-worker-count invariance of the tuned driver itself: the
    // normalized observed costs (and therefore every ratio and switch
    // decision) must not depend on how many workers executed the plan.
    let tuned = |engine_workers: usize| -> Vec<String> {
        serial
            .fragments
            .iter()
            .filter_map(|f| {
                let FragmentOutcome::Translated { program, .. } = &f.outcome else {
                    return None;
                };
                let ctx = Context::with_parallelism(engine_workers, 8);
                let mut cache = ProgramCache::new();
                let mut tuning = TuningState::new();
                for _ in 0..2 {
                    program
                        .run_tuned(&ctx, &state, &mut cache, &mut tuning)
                        .expect("tuned iteration");
                }
                Some(format!("{} {:?}", f.id, tuning.trace))
            })
            .collect()
    };
    let base = tuned(1);
    for engine_workers in [2, 4, 8] {
        assert_eq!(
            base,
            tuned(engine_workers),
            "tuned decisions diverged at {engine_workers} engine workers"
        );
    }
}
