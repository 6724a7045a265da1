//! The paper's §7 evaluation as one checked report: Tables 1–4 and E.1,
//! Figures 7–9, the runtime monitor's mid-run re-tuning (§5.2), §7.4's join
//! ordering and §7.5's Fold-IR. Every row prints
//! the paper's value, ours, whether ours is modelled, measured or counted,
//! and the claim it checks; the process exits non-zero when a claim fails.
//! It takes no arguments:
//!
//! ```sh
//! cargo run --release -p bench --bin reproduce
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use analyzer::basis::VerificationBasis;
use analyzer::fragment::{Fragment, FragmentFeatures};
use analyzer::stategen::StateGenConfig;
use analyzer::vc::REL_TOL;
use bench::baselines::{manual, sqlbase, Baseline, CA, FIG7A, NON_CA};
use bench::{run_benchmark, sweep_config, BenchRun, Kind, Report};
use casper::{Casper, CasperConfig, FragmentOutcome};
use casper_ir::expr::IrExpr;
use casper_ir::fold::FoldSummary;
use casper_ir::lambda::{Emit, MapLambda, ReduceLambda};
use casper_ir::mr::{DataSource, MrExpr, OutputKind, ProgramSummary};
use codegen::{CompiledPlan, GeneratedProgram, ProgramCache, TuningState, Variant};
use mapreduce::sim::{simulate_job, simulate_sequential};
use mapreduce::{ClusterSpec, Context, Framework};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqlang::ast::BinOp;
use seqlang::env::Env;
use seqlang::ty::Type;
use seqlang::value::Value;
use suites::{all_benchmarks, data, tpch, Benchmark, Suite};
use synthesis::{find_summary, FindConfig};
use verifier::{CaProperties, Verifier, VerifyConfig};
use Kind::{Counted, Measured, Modelled};

/// The paper suites identify exactly this many fragments.
const PAPER_IDENTIFIED: usize = 79;

/// Translation floor over the paper suites: only PCA's covariance, Matrix
/// Multiply and `stats/convolve` stay inexpressible, so 76 of 79 translate.
const MIN_PAPER_TRANSLATED: usize = 75;

/// Failure-ledger ceiling: the 3 paper-suite holes (loops inside
/// transformer bodies) plus the 2 deliberately untranslatable extension
/// fragments (distinct count, order-dependent EMA).
const MAX_LEDGER: usize = 5;

/// An order-dependent fold: a translation here means screening accepted
/// an unsound summary.
const NEGATIVE: &str = "clickstream/session_ema";

fn main() -> ExitCode {
    // The registry sweep runs once; every row that reads translation
    // outcomes or the primary fragments' speedups reads it.
    let config = sweep_config();
    let sweep: Vec<BenchRun> = all_benchmarks()
        .iter()
        .map(|b| run_benchmark(b, &config))
        .collect();
    let mut report = Report::default();
    table1(&mut report, &sweep);
    table2(&mut report, &sweep);
    table3(&mut report);
    table4(&mut report);
    table_e1(&mut report, &sweep);
    fig7a(&mut report, &sweep);
    fig7b(&mut report);
    fig7c(&mut report);
    let string_match = fig8(&mut report);
    retune(&mut report, string_match);
    fig9(&mut report, &sweep);
    join_order(&mut report);
    fold_ir(&mut report);
    print!("{report}");
    if report.holds() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn benchmark(name: &str) -> Benchmark {
    let mut all = all_benchmarks().into_iter();
    all.find(|b| b.name == name).expect("in the registry")
}

fn run<'a>(sweep: &'a [BenchRun], name: &str) -> &'a BenchRun {
    sweep.iter().find(|r| r.name == name).expect("in the sweep")
}

fn primary_fragment(b: &Benchmark) -> Fragment {
    let program = Arc::new(seqlang::compile(b.source).expect("compiles"));
    let mut fragments = analyzer::identify_fragments(&program).into_iter();
    fragments
        .find(|f| f.func == b.func)
        .expect("primary fragment")
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (n, sum) = xs.into_iter().fold((0, 0.0), |(n, s), x| (n + 1, s + x));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Price the stage volumes `job` records on `ctx`, scaled by `factor`, as
/// a Spark job on the paper's cluster.
fn price<T>(ctx: &Context, factor: f64, job: impl FnOnce() -> T) -> f64 {
    ctx.reset_stats();
    job();
    let stats = ctx.stats().scaled(factor);
    simulate_job(&stats, &ClusterSpec::paper(), Framework::Spark).seconds
}

fn table1<'a>(report: &mut Report, sweep: &'a [BenchRun]) {
    report.heading("Table 1 — fragments translated per suite, Spark speedup on paper-scale data");
    for suite in Suite::all() {
        let runs = || sweep.iter().filter(move |r| r.suite == suite);
        let translated: usize = runs().map(|r| r.translated).sum();
        let identified: usize = runs().map(|r| r.identified).sum();
        let (name, ours) = (suite.name(), format!("{translated} / {identified}"));
        report.row(&format!("{name} translated"), "—", &ours, Counted, None);
        let correct = runs().filter(|r| r.output_correct);
        let speedups: Vec<f64> = correct.filter_map(|r| r.speedup.map(|s| s.spark)).collect();
        let max = speedups.iter().cloned().fold(0.0, f64::max);
        let ours = format!("{:.1}x / {max:.1}x", mean(speedups));
        let item = format!("{name} speedup mean / max");
        report.row(&item, "—", &ours, Modelled, None);
    }
    let count = |paper_only: bool| {
        let runs = sweep.iter().filter(|r| !paper_only || r.suite.is_paper());
        runs.fold((0, 0), |(t, i), r| (t + r.translated, i + r.identified))
    };
    let (paper_translated, paper_identified) = count(true);
    let (translated, identified) = count(false);
    let claim = format!("= {PAPER_IDENTIFIED}");
    let ours = paper_identified.to_string();
    let check = Some((claim.as_str(), paper_identified == PAPER_IDENTIFIED));
    report.row("paper suites identified", "101", &ours, Counted, check);
    let claim = format!("≥ {MIN_PAPER_TRANSLATED}");
    let ours = paper_translated.to_string();
    let check = Some((claim.as_str(), paper_translated >= MIN_PAPER_TRANSLATED));
    report.row("paper suites translated", "82", &ours, Counted, check);
    let claim = format!("identified > {PAPER_IDENTIFIED}");
    let ours = format!("{translated} / {identified}");
    let check = Some((claim.as_str(), identified > PAPER_IDENTIFIED));
    report.row("all suites translated", "—", &ours, Counted, check);
    let failures = |r: &'a BenchRun| r.failures.iter().map(move |f| (r.name, f));
    let ledger: Vec<_> = sweep.iter().flat_map(failures).collect();
    let claim = format!("≤ {MAX_LEDGER} entries");
    let ours = format!("{} fragments", ledger.len());
    let check = Some((claim.as_str(), ledger.len() <= MAX_LEDGER));
    report.row("failure ledger", "—", &ours, Counted, check);
    for (name, f) in ledger {
        let (func, loc, sent) = (&f.func, f.loc, f.sent_to_verifier);
        let entry = format!("{name}::{func} ({loc} LOC, {sent} sent to verifier)");
        report.note(&format!("{entry}: {} — {}", f.class(), f.reason.describe()));
    }
    let negative = run(sweep, NEGATIVE);
    let ours = format!("{} / {}", negative.translated, negative.identified);
    let check = Some(("stays untranslated", negative.translated == 0));
    report.row(NEGATIVE, "—", &ours, Counted, check);
}

fn table2(report: &mut Report, sweep: &[BenchRun]) {
    report.heading("Table 2 — mean compile time, and LOC, operators and TP failures per fragment");
    for suite in Suite::all() {
        let runs: Vec<&BenchRun> = sweep.iter().filter(|r| r.suite == suite).collect();
        let seconds = mean(runs.iter().map(|r| r.compile_time.as_secs_f64()));
        let (name, ours) = (suite.name(), format!("{seconds:.2} s"));
        report.row(&format!("{name} compile time"), "—", &ours, Measured, None);
        let translated = || runs.iter().filter(|r| r.translated > 0);
        let loc = mean(translated().map(|r| r.generated_loc as f64));
        let ops = mean(translated().map(|r| r.ops as f64));
        let tp = mean(runs.iter().map(|r| r.tp_failures as f64));
        let ours = format!("{loc:.1} LOC, {ops:.2} ops, {tp:.2} TP failures");
        report.row(&format!("{name} LOC / ops / TP"), "—", &ours, Counted, None);
    }
}

/// Table 3's per-search candidate budget. It sits well above the largest
/// of its searches (`stats/hadamard`'s: 122 995 candidates with the
/// hierarchy, 122 764 without), so each row counts a whole search, and it
/// ends a runaway search after the same candidate on every machine.
const TABLE3_BUDGET: u64 = 1_000_000;

fn table3(report: &mut Report) {
    report.heading("Table 3 — candidates checked with vs without incremental grammar generation");
    let (mut with_total, mut without_total) = (0, 0);
    for name in [
        "phoenix/word_count",
        "phoenix/string_match",
        "phoenix/linear_regression",
        "phoenix/histogram3d",
        "biglambda/yelp_kids",
        "biglambda/wiki_pagecount",
        "stats/covariance_sums",
        "stats/hadamard",
        "biglambda/db_select",
        "stats/anscombe",
    ] {
        let frag = primary_fragment(&benchmark(name));
        let verifier = Verifier::new(&frag, VerifyConfig::default());
        let verify = |s: &ProgramSummary| casper::search_verdict(&verifier.verify(s));
        let search = |incremental: bool| {
            // The budget, not the clock, bounds the search; the timeout
            // only catches a hang.
            let config = FindConfig {
                timeout: Duration::from_secs(120),
                max_candidates: Some(TABLE3_BUDGET),
                top_k: 4,
                incremental,
                ..FindConfig::default()
            };
            let (_, search) = find_summary(&frag, &verify, &config);
            let ended = match search.timed_out {
                false => "",
                true if search.candidates_generated >= TABLE3_BUDGET => " (budget)",
                true => " (timed out)",
            };
            (search.candidates_checked, ended)
        };
        let ((with, with_ended), (without, without_ended)) = (search(true), search(false));
        with_total += with;
        without_total += without;
        let exception = if with > without { " — exception" } else { "" };
        let ours = format!("{with}{with_ended} vs {without}{without_ended}{exception}");
        report.row(name, "—", &ours, Counted, None);
    }
    let ours = format!("{with_total} vs {without_total}");
    let check = Some(("fewer with incremental", with_total < without_total));
    report.row("total", "fewer with", &ours, Counted, check);
}

/// A one-binding plan whose map λ over `var`'s elements `x` emits `emits`.
fn plan(var: &str, emits: Vec<Emit>, reduce: ReduceLambda, props: CaProperties) -> CompiledPlan {
    let expr = MrExpr::Data(DataSource::flat(var, Type::Str))
        .map(MapLambda::new(vec!["x"], emits))
        .reduce(reduce);
    CompiledPlan::new(
        ProgramSummary::single("out", expr, OutputKind::AssocMap),
        vec![props],
    )
}

fn table4(report: &mut Report) {
    report.heading("Table 4 — WordCount with (WC 1) and without (WC 2) combiners; StringMatch");
    report.note("emitting on a match (SM 1) or always (SM 2)");
    let ctx = Context::with_parallelism(4, 8);
    let mut rng = StdRng::seed_from_u64(4);
    let n = 40_000usize;
    // 75 GB of words.
    let factor = 2_600_000_000f64 / n as f64;
    // A priced run's seconds with its scaled emitted and shuffled MB.
    let volumes = |seconds: f64| {
        let stats = ctx.stats().scaled(factor);
        let mb = |bytes: u64| bytes as f64 / 1e6;
        let (emitted, shuffled) = (stats.total_emitted_bytes(), stats.total_shuffled_bytes());
        (seconds, mb(emitted), mb(shuffled))
    };
    let mut state = Env::new();
    state.set("words", data::words(&mut rng, n, 200));
    state.set("text", data::skewed_text(&mut rng, n, "needle", 0.001));
    state.set("out", Value::Map(Vec::new()));
    let (c, f, st) = (&ctx, factor, &state);
    let add = ReduceLambda::binop(BinOp::Add);
    let count = || vec![Emit::unconditional(IrExpr::var("x"), IrExpr::int(1))];
    let wc1 = plan("words", count(), add.clone(), CA);
    let wc1 = volumes(price(c, f, || wc1.execute(c, st)));
    let wc2 = plan("words", count(), add, NON_CA);
    let wc2 = volumes(price(c, f, || wc2.execute(c, st)));
    // One (key, flag) pair per key: on a match only, or for every word.
    let flags = |on_match: bool| {
        let keys = ["needle", "haystack"].map(|k| IrExpr::ConstStr(k.into()));
        let emits = keys.into_iter().map(|k| {
            let hit = IrExpr::bin(BinOp::Eq, IrExpr::var("x"), k.clone());
            match on_match {
                true => Emit::guarded(hit, k, IrExpr::ConstBool(true)),
                false => Emit::unconditional(k, hit),
            }
        });
        plan("text", emits.collect(), ReduceLambda::binop(BinOp::Or), CA)
    };
    let (sm1, sm2) = (flags(true), flags(false));
    let sm1 = volumes(price(c, f, || sm1.execute(c, st)));
    let sm2 = volumes(price(c, f, || sm2.execute(c, st)));
    for (first, second, paper, a, b) in [
        ("WC 1", "WC 2", "254 s vs 2627 s", wc1, wc2),
        ("SM 1", "SM 2", "189 s vs 362 s", sm1, sm2),
    ] {
        let (item, claim) = (format!("{first} vs {second}"), format!("{first} faster"));
        let ours = format!("{:.0} s vs {:.0} s", a.0, b.0);
        report.row(&item, paper, &ours, Modelled, Some((&claim, a.0 < b.0)));
        let ours = format!("emitted {:.0} / {:.0} MB, ", a.1, b.1)
            + &format!("shuffled {:.1} / {:.1} MB", a.2, b.2);
        report.row("  data", "—", &ours, Modelled, None);
    }
}

fn table_e1(report: &mut Report, sweep: &[BenchRun]) {
    report.heading("Appendix E.1 — syntactic properties of the extracted fragments");
    type Has = fn(&FragmentFeatures) -> bool;
    let properties: [(&str, Has); 5] = [
        ("Conditionals", |f| f.conditionals),
        ("User Defined Types", |f| f.user_defined_types),
        ("Nested Loops", |f| f.nested_loops),
        ("Multiple Datasets", |f| f.multiple_datasets),
        ("Multidim. Dataset", |f| f.multidimensional_data),
    ];
    for (name, has) in properties {
        let (mut extracted, mut translated) = (0, 0);
        for r in sweep {
            let n = r.features.iter().filter(|f| has(f)).count();
            extracted += n;
            translated += if r.translated > 0 { n } else { 0 };
        }
        let ours = format!("{extracted} extracted, {translated} translated");
        report.row(name, "—", &ours, Counted, None);
    }
}

fn fig7a(report: &mut Report, sweep: &[BenchRun]) {
    report.heading("Figure 7(a) — speedup over sequential of MOLD, manual and Casper plans");
    let ctx = Context::with_parallelism(4, 8);
    let mut rng = StdRng::seed_from_u64(12);
    let n = 4000usize;
    for entry in &FIG7A {
        let b = benchmark(entry.name);
        let state = (b.gen)(&mut rng, n);
        let state = primary_fragment(&b)
            .pre_loop_state(&state)
            .expect("loop entry");
        let s = b.paper_scale as f64 / n as f64;
        // The manual and MOLD plans' Spark seconds on the same data.
        let seconds =
            |baseline: Baseline| price(&ctx, s, || baseline(&ctx, &state).expect("baseline runs"));
        let (manual_s, mold_s) = (seconds(entry.manual), entry.mold.map(seconds));
        let spec = ClusterSpec::paper();
        let bytes = b.paper_scale * entry.record_bytes;
        let sequential = simulate_sequential(b.paper_scale, bytes, &spec).seconds;
        let (manual, mold) = (sequential / manual_s, mold_s.map(|s| sequential / s));
        let casper = run(sweep, entry.name).speedup;
        let x = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.1}x"));
        let spark = x(casper.map(|s| s.spark));
        let (flink, hadoop) = (x(casper.map(|s| s.flink)), x(casper.map(|s| s.hadoop)));
        let ours = format!("MOLD {}, manual {manual:.1}x, ", x(mold))
            + &format!("Spark {spark}, Flink {flink}, Hadoop {hadoop}");
        let hadoop_last = casper.is_some_and(|s| s.hadoop < s.spark && s.hadoop < s.flink);
        let check = if matches!(
            entry.name,
            "phoenix/string_match" | "phoenix/linear_regression"
        ) {
            let mold_behind = mold.is_some_and(|mold| mold < manual);
            (
                "Hadoop < Spark, Flink; MOLD < manual",
                hadoop_last && mold_behind,
            )
        } else {
            ("Hadoop < Spark, Flink", hadoop_last)
        };
        report.row(entry.label, "—", &ours, Modelled, Some(check));
    }
}

fn fig7b(report: &mut Report) {
    report.heading("Figure 7(b) — TPC-H at scale factor 100: Casper's plans vs SparkSQL's");
    let ctx = Context::with_parallelism(4, 8);
    let mut rng = StdRng::seed_from_u64(31);
    let n = 8000usize;
    let selected: Vec<i64> = (0..200).map(|i| i * 7).collect();
    let state = sqlbase::state(tpch::lineitems(&mut rng, n), 8100, 9000, &selected);
    type Query = fn(&Arc<Context>, &Env) -> seqlang::error::Result<Value>;
    let seconds = |query: Query| {
        let f = 600_000_000f64 / n as f64;
        price(&ctx, f, || query(&ctx, &state).expect("query runs"))
    };
    let queries: [(&str, &str, Query, Query); 4] = [
        ("Q1", "Casper 2x faster", sqlbase::q1_casper, sqlbase::q1),
        ("Q6", "Casper 1.8x faster", sqlbase::q6_casper, sqlbase::q6),
        (
            "Q15",
            "Casper 2.8x faster",
            sqlbase::q15_casper,
            sqlbase::q15,
        ),
        (
            "Q17",
            "SparkSQL 1.7x faster",
            sqlbase::q17_casper,
            sqlbase::q17,
        ),
    ];
    for (query, paper, casper, sql) in queries {
        let (casper, sql) = (seconds(casper), seconds(sql));
        let ours = format!("Casper {casper:.0} s vs SparkSQL {sql:.0} s");
        let check = if query == "Q17" {
            ("SparkSQL faster", sql < casper)
        } else {
            ("Casper faster", casper < sql)
        };
        report.row(query, paper, &ours, Modelled, Some(check));
    }
}

fn fig7c(report: &mut Report) {
    report.heading("Figure 7(c) — iterative workloads: Casper's plans vs the Spark tutorial's");
    let ctx = Context::with_parallelism(4, 8);
    let mut rng = StdRng::seed_from_u64(77);
    // PageRank: 2.25B edges in the paper; measured at 4 000 and scaled.
    let n_edges = 4000usize;
    let factor = 2_250_000_000f64 / n_edges as f64;
    let edges = data::edges(&mut rng, n_edges, 500);
    // Casper emits no cache(); the tutorial caches the links.
    let (c, f) = (&ctx, factor);
    let casper = price(c, f, || manual::pagerank_uncached(c, &edges, 500, 10));
    let tutorial = price(c, f, || manual::pagerank_cached(c, &edges, 500, 10));
    let ours = format!("Casper {casper:.0} s vs tutorial {tutorial:.0} s");
    let check = Some(("tutorial faster", tutorial < casper));
    report.row("PageRank", "tutorial 1.3x faster", &ours, Modelled, check);
    // Logistic regression: both cache the samples, so both run one plan.
    let samples = data::labeled_points(&mut rng, 4000);
    let logreg = || manual::logreg(c, &samples, 10);
    let seconds = price(c, 1_000_000_000f64 / 4000.0, logreg);
    let ours = format!("{seconds:.0} s, one plan for both");
    report.row("LogisticR", "indistinguishable", &ours, Modelled, None);
}

/// Figure 8's solution labels: (b) encodes both flags in one tuple, the
/// (a)/(c) family emits one keyed flag per match.
fn solution(summary: &ProgramSummary) -> &'static str {
    match &summary.bindings[0].kind {
        OutputKind::ScalarTuple => "(b)",
        OutputKind::KeyedScalars { .. } => "(c)",
        _ => "?",
    }
}

/// A StringMatch input state over `words`, looking for "needle" and
/// "haystack".
fn string_match_state(words: Vec<Value>) -> Env {
    let mut state = Env::new();
    state.set("text", Value::List(words));
    state.set("key1", Value::str("needle"));
    state.set("key2", Value::str("haystack"));
    state.set("found1", Value::Bool(false));
    state.set("found2", Value::Bool(false));
    state
}

/// Figure 8's rows; returns the translated StringMatch program for the
/// re-tuning rows.
fn fig8(report: &mut Report) -> GeneratedProgram {
    report.heading("Figure 8 — StringMatch: the monitor's pick as the match fraction grows");
    let b = benchmark("phoenix/string_match");
    let find = FindConfig {
        timeout: Duration::from_secs(45),
        top_k: 16,
        ..FindConfig::default()
    };
    let config = CasperConfig {
        find,
        ..CasperConfig::default()
    };
    let translation = Casper::new(config).translate_source(b.source).unwrap();
    let fragment = translation.fragments.into_iter().find(|f| f.func == b.func);
    let FragmentOutcome::Translated {
        program, summaries, ..
    } = fragment.expect("fragment").outcome
    else {
        panic!("StringMatch must translate");
    };
    let all = summaries.len();
    let tuple = summaries.iter().filter(|s| solution(s) == "(b)").count();
    let ours = format!("{all}: {tuple} (b), {} (a)/(c)", all - tuple);
    report.row("8(d) verified variants", "—", &ours, Counted, None);

    let ctx = Context::with_parallelism(4, 8);
    let n = 8000usize;
    let factor = 2_600_000_000f64 / n as f64;
    // Per fraction: the pick's seconds and v1's, the first-verified plan.
    let mut picked_vs_first = Vec::new();
    let mut agreeing = 0;
    for (fraction, paper) in [(0.0, "(c)"), (0.5, "(c)"), (0.95, "(b)")] {
        // Exactly `fraction` of the words match, split across both keys.
        let mut rng = StdRng::seed_from_u64(99);
        let mut coin = |p: f64| rng.gen_bool(p.clamp(0.0, 1.0));
        let half = fraction / 2.0;
        let word = |i| {
            if coin(half) {
                Value::str("needle")
            } else if coin(half / (1.0 - half).max(1e-9)) {
                Value::str("haystack")
            } else {
                Value::str(format!("filler{i}"))
            }
        };
        let state = string_match_state((0..n).map(word).collect());

        // Every variant's seconds and outputs on this input.
        let runs: Vec<(f64, Env)> = program
            .variants
            .iter()
            .map(|v| {
                let mut out = Env::new();
                let run = || out = v.plan.execute(&ctx, &state).expect("variant runs");
                (price(&ctx, factor, run), out)
            })
            .collect();
        agreeing += runs.iter().filter(|(_, out)| *out == runs[0].1).count();
        let picked = program.choose(&state).chosen;
        picked_vs_first.push((runs[picked].0, runs[0].0));

        let chosen = solution(&program.variants[picked].plan.summary);
        let seconds = |label| {
            let mut labels = program.variants.iter().map(|v| solution(&v.plan.summary));
            let s = labels.position(|l| l == label).map(|i| runs[i].0);
            s.map_or("-".to_string(), |s| format!("{s:.0} s"))
        };
        let ours = format!("{chosen}; (b) {}, (c) {}", seconds("(b)"), seconds("(c)"));
        let item = format!("8(b)/(c) at {:.0} % matches", fraction * 100.0);
        let claim = format!("picks {paper}");
        let check = Some((claim.as_str(), chosen == paper));
        report.row(&item, paper, &ours, Modelled, check);
    }
    let runs = 3 * all;
    let ours = format!("{agreeing} / {runs} runs at 0, 50, 95 %");
    let check = Some(("every output = v1's", agreeing == runs));
    report.row("8(d) variants vs v1", "—", &ours, Counted, check);
    let pairs: Vec<String> = picked_vs_first
        .iter()
        .map(|(picked, first)| format!("{picked:.0}/{first:.0}"))
        .collect();
    let ours = format!("{} s at 0, 50, 95 %", pairs.join(", "));
    let never_slower = picked_vs_first.iter().all(|(p, f)| p <= f);
    let check = Some(("never slower than v1", never_slower));
    report.row("pick / v1 (first verified)", "—", &ours, Modelled, check);
    program
}

/// §5.2's mid-run re-tuning: Figure 8's program samples only the first
/// 100 words, which all miss, while every later word matches `key1`. The
/// first iteration's recorded stages diverge from the sampled prediction,
/// and the monitor switches plans for the next iteration.
fn retune(report: &mut Report, mut program: GeneratedProgram) {
    report.heading("§5.2 — re-tuning StringMatch mid-run when the first-k sample misleads");
    program.sample_k = 100;
    let word = |i: usize| match i < program.sample_k {
        true => Value::str(format!("filler{i}")),
        false => Value::str("needle"),
    };
    let state = string_match_state((0..4000).map(word).collect());
    let ctx = Context::with_parallelism(4, 8);
    let (mut cache, mut tuning) = (ProgramCache::new(), TuningState::new());
    let outputs: Vec<Env> = (0..3)
        .map(|_| {
            let run = program.run_tuned(&ctx, &state, &mut cache, &mut tuning);
            run.expect("tuned iteration").0
        })
        .collect();
    let name = |v: usize| program.variants[v].name.as_str();
    let steps: Vec<String> = tuning
        .trace
        .iter()
        .map(|d| match d.switched_to {
            Some(next) => format!("{} ×{:.1} → {}", name(d.running), d.ratio, name(next)),
            None => format!("{} ×{:.1}", name(d.running), d.ratio),
        })
        .collect();
    let ours = steps.join(", ");
    report.row("observed / predicted", "—", &ours, Modelled, None);
    let switches = tuning.retune_count();
    let equal = outputs.iter().all(|out| *out == outputs[0]);
    let ours = format!("{switches} in 3 iterations, outputs equal: {equal}");
    let check = Some(("≥ 1, outputs equal", switches >= 1 && equal));
    report.row("switches", "—", &ours, Modelled, check);
}

fn fig9(report: &mut Report, sweep: &[BenchRun]) {
    report.heading("Figure 9 — Spark speedup at 10, 30, 50, 70 and 100 % of the paper's dataset");
    for name in [
        "biglambda/wiki_pagecount",
        "biglambda/db_select",
        "phoenix/histogram3d",
        "fiji/red_to_magenta",
    ] {
        // Smaller datasets amortise fixed overheads less: the job and
        // stage overheads stay, the data terms scale with the fraction.
        let fixed = 2.0 + 3.0 * 0.5;
        let speedups: Vec<f64> = run(sweep, name).speedup.map_or(Vec::new(), |sp| {
            let data_s = (sp.spark_s - fixed).max(0.01);
            let at = |f: f64| sp.sequential_s * f / (fixed + data_s * f);
            [0.1, 0.3, 0.5, 0.7, 1.0].into_iter().map(at).collect()
        });
        let ours: Vec<String> = speedups.iter().map(|s| format!("{s:.1}x")).collect();
        let rises = !speedups.is_empty() && speedups.windows(2).all(|w| w[0] <= w[1]);
        let check = Some(("does not fall with size", rises));
        report.row(name, "—", &ours.join(" "), Modelled, check);
    }
}

fn join_order(report: &mut Report) {
    report.heading("§7.4 — ordering sales ⋈ supplier ⋈ customer, priced per input configuration");
    let ctx = Context::with_parallelism(4, 8);
    let n = 8000usize;
    let factor = 600_000_000f64 / n as f64;
    let var = |name: &str| IrExpr::var(name);
    let get = |e: IrExpr, i: usize| IrExpr::tget(e, i);
    let pair = |a: IrExpr, b: IrExpr| IrExpr::Tuple(vec![a, b]);
    let emit = |params: Vec<&str>, k: IrExpr, v: IrExpr| {
        MapLambda::new(params, vec![Emit::unconditional(k, v)])
    };
    let source = |name: &str| MrExpr::Data(DataSource::flat(name, Type::Int));
    // A key table keyed by its own entries.
    let keys = |name: &str| source(name).map(emit(vec!["k"], var("k"), var("k")));
    // Sales are (supplier, customer, amount) tuples. Join on `first`'s
    // key, re-key the result on the other, join with `second`.
    let order = |first: &str, second: &str, by: usize, then: usize| {
        let sale = var("s");
        let keyed = source("sales").map(emit(
            vec!["s"],
            get(sale.clone(), by),
            pair(get(sale.clone(), then), get(sale, 2)),
        ));
        let rekey = emit(
            vec!["k", "v"],
            get(get(var("v"), 0), 0),
            get(get(var("v"), 0), 1),
        );
        let expr = keyed.join(keys(first)).map(rekey).join(keys(second));
        let summary = ProgramSummary::single("out", expr, OutputKind::CollectedList);
        CompiledPlan::new(summary, Vec::new())
    };
    // Both orders as one program's variants, supplier-first first.
    let program = GeneratedProgram::new(vec![
        Variant {
            name: "supplier-first".into(),
            plan: order("suppliers", "customers", 0, 1),
        },
        Variant {
            name: "customer-first".into(),
            plan: order("customers", "suppliers", 1, 0),
        },
    ]);
    let (mut picks, mut chosen) = (Vec::new(), Vec::new());
    for (label, sup_sel, cust_sel) in [
        ("config A (⋈ supplier large)", 0.9, 0.01),
        ("config B (⋈ customer large)", 0.01, 0.9),
    ] {
        let sale = |i: i64| {
            let amount = Value::Double(1.0 + (i % 7) as f64);
            Value::Tuple(vec![Value::Int(i % 1000), Value::Int(i % 500), amount])
        };
        // Key spaces sized so the two joins' selectivities differ.
        let table = |len: f64| Value::List((0..len as i64).map(Value::Int).collect());
        let mut state = Env::new();
        state.set("sales", Value::List((0..n as i64).map(sale).collect()));
        state.set("suppliers", table(1000.0 * sup_sel));
        state.set("customers", table(500.0 * cust_sel));
        let seconds = |plan: &CompiledPlan| {
            price(&ctx, factor, || {
                plan.execute(&ctx, &state).expect("join runs")
            })
        };
        let [supplier_first, customer_first] = [0, 1].map(|i| seconds(&program.variants[i].plan));
        let pick = if supplier_first <= customer_first {
            "supplier-first"
        } else {
            "customer-first"
        };
        let ours = format!("supplier-first {supplier_first:.0} s, ")
            + &format!("customer-first {customer_first:.0} s → {pick}");
        report.row(label, "—", &ours, Modelled, None);
        picks.push(pick);
        let picked = program.choose(&state).chosen;
        chosen.push(program.variants[picked].name.as_str());
    }
    let (ours, check) = (picks.join(" → "), Some(("flips", picks[0] != picks[1])));
    report.row("cheaper order", "flips", &ours, Modelled, check);
    let ours = chosen.join(" → ");
    let check = Some(("the cheaper order", chosen == picks));
    report.row("monitor's pick", "—", &ours, Modelled, check);
}

/// §7.5: search a small Fold-IR space — init ∈ {0, 0.0, ±10⁹}, body from
/// the usual combiner atoms over (acc, x) — for each Ariths benchmark.
fn fold_ir(report: &mut Report) {
    report.heading("§7.5 — Fold-IR summaries found for the Ariths suite");
    let (acc, x) = (IrExpr::var("acc"), IrExpr::var("x"));
    let add = |e: IrExpr| IrExpr::bin(BinOp::Add, acc.clone(), e);
    let call = |f: &str| IrExpr::Call(f.into(), vec![acc.clone(), x.clone()]);
    let bodies = [
        add(x.clone()),
        add(IrExpr::int(1)),
        call("min"),
        call("max"),
        add(IrExpr::Call("abs".into(), vec![x.clone()])),
        add(IrExpr::bin(BinOp::Mul, x.clone(), x.clone())),
    ];
    let inits = [
        IrExpr::int(0),
        IrExpr::double(0.0),
        IrExpr::int(1_000_000_000),
        IrExpr::int(-1_000_000_000),
    ];
    let expressible = |b: &Benchmark| {
        let frag = primary_fragment(b);
        let (Some(dv), Some((out, _))) = (frag.data_vars.first(), frag.outputs.first()) else {
            return false;
        };
        let basis = VerificationBasis::build(&frag, &StateGenConfig::bounded(), 20, 0, REL_TOL);
        let source = DataSource {
            var: dv.name.clone(),
            shape: dv.shape,
            elem_ty: dv.elem_ty.clone(),
        };
        let holds = |init: &IrExpr, body: &IrExpr| {
            let fold = FoldSummary::new(out.clone(), source.clone(), init.clone(), body.clone());
            let eval = |pre: &Env| -> seqlang::error::Result<Env> {
                let mut post = Env::new();
                post.set(out.clone(), fold.eval(pre)?);
                Ok(post)
            };
            basis.first_failure(&eval).is_none()
        };
        inits
            .iter()
            .any(|init| bodies.iter().any(|body| holds(init, body)))
    };
    let ariths = suites::suite_benchmarks(Suite::Ariths);
    let found = ariths.iter().filter(|b| expressible(b)).count();
    let ours = format!("{found} / {}", ariths.len());
    report.row("Ariths with a Fold-IR summary", "all", &ours, Counted, None);
}
