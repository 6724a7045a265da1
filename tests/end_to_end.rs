//! Cross-crate integration tests: the full pipeline from sequential
//! source to verified, executable MapReduce programs.

use casper::{Casper, CasperConfig, FragmentOutcome};
use mapreduce::Context;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqlang::env::Env;
use seqlang::value::Value;
use std::sync::Arc;
use std::time::Duration;
use suites::all_benchmarks;
use synthesis::FindConfig;

fn fast_config() -> CasperConfig {
    CasperConfig {
        find: FindConfig {
            timeout: Duration::from_secs(15),
            top_k: 4,
            ..FindConfig::default()
        },
        ..CasperConfig::default()
    }
}

/// Translate a benchmark and check the generated program agrees with the
/// sequential semantics on fresh data.
fn check_equivalence(name: &str) {
    let all = all_benchmarks();
    let b = all
        .iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("{name}?"));
    let report = Casper::new(fast_config())
        .translate_source(b.source)
        .unwrap();
    let fr = report.for_function(b.func).expect("fragment report");
    let FragmentOutcome::Translated { program, .. } = &fr.outcome else {
        panic!("{name} did not translate");
    };

    let source = Arc::new(seqlang::compile(b.source).unwrap());
    let frag = analyzer::identify_fragments(&source)
        .into_iter()
        .find(|f| f.func == b.func)
        .expect("fragment");
    let ctx = Context::with_parallelism(4, 8);
    for seed in [1u64, 2, 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = (b.gen)(&mut rng, 300);
        let expected = frag.project_outputs(&frag.run(&state).unwrap());
        let (got, _) = program.run(&ctx, &state).unwrap();
        for (var, want) in expected.iter() {
            let have = got
                .get(var)
                .unwrap_or_else(|| panic!("{name}: missing {var}"));
            assert!(
                bench::outputs_equal(want, have),
                "{name} seed {seed}: {var} = {have}, want {want}"
            );
        }
    }
}

#[test]
fn word_count_equivalence() {
    check_equivalence("phoenix/word_count");
}

#[test]
fn string_match_equivalence() {
    check_equivalence("phoenix/string_match");
}

#[test]
fn linear_regression_equivalence() {
    check_equivalence("phoenix/linear_regression");
}

#[test]
fn tpch_q6_equivalence() {
    check_equivalence("tpch/q6_revenue");
}

#[test]
fn tpch_q1_equivalence() {
    check_equivalence("tpch/q1_sum_disc_price");
}

#[test]
fn delta_equivalence() {
    check_equivalence("ariths/delta");
}

#[test]
fn dot_product_equivalence() {
    check_equivalence("stats/dot_product");
}

#[test]
fn pagerank_contribs_equivalence() {
    check_equivalence("iterative/pagerank_contribs");
}

#[test]
fn db_select_equivalence() {
    check_equivalence("biglambda/db_select");
}

#[test]
fn untranslatable_fragments_fail_cleanly() {
    use casper::report::FailureReason;
    let all = all_benchmarks();
    // The three permanent paper-suite holes (loops inside transformer
    // bodies) plus the two deliberately untranslatable extension-suite
    // fragments (distinct-count needs iteration-history state, EMA is an
    // order-dependent fold). Each must land in the ledger with the right
    // failure class — and never with a bogus verified summary.
    let expectations = [
        ("stats/convolve", FailureReason::InnerDataLoop),
        ("phoenix/pca_cov", FailureReason::InnerDataLoop),
        ("phoenix/matrix_multiply", FailureReason::InnerDataLoop),
        ("sessionize/unique_visitors", FailureReason::SearchExhausted),
        ("clickstream/session_ema", FailureReason::SearchExhausted),
    ];
    for (name, want) in expectations {
        let b = all.iter().find(|b| b.name == name).unwrap();
        let report = Casper::new(fast_config())
            .translate_source(b.source)
            .unwrap();
        assert_eq!(report.translated_count(), 0, "{name} must not translate");
        let fr = report.for_function(b.func).expect("fragment report");
        let FragmentOutcome::Failed(reason) = &fr.outcome else {
            panic!("{name}: expected a failure outcome");
        };
        assert_eq!(reason, &want, "{name}: wrong failure class");
    }
}

#[test]
fn sessionize_vip_bytes_equivalence() {
    // Nested-aggregate showcase: the VIP membership scan folds into an
    // inline aggregate guarding the byte accumulator.
    check_equivalence("sessionize/vip_bytes");
}

#[test]
fn sessionize_hits_by_hour_equivalence() {
    check_equivalence("sessionize/hits_by_hour");
}

#[test]
fn clickstream_windowed_weighted_sum_equivalence() {
    // The trails-window shape: inner window loop lifted into the mapper.
    check_equivalence("clickstream/windowed_weighted_sum");
}

#[test]
fn clickstream_spend_by_campaign_equivalence() {
    check_equivalence("clickstream/spend_by_campaign");
}

#[test]
fn generated_code_compiles_against_all_dialects() {
    use codegen::Dialect;
    let src = r#"
        fn sum(xs: list<int>) -> int {
            let s: int = 0;
            for (x in xs) { s = s + x; }
            return s;
        }
    "#;
    for dialect in [Dialect::Spark, Dialect::Hadoop, Dialect::Flink] {
        let config = CasperConfig {
            dialect,
            ..fast_config()
        };
        let report = Casper::new(config).translate_source(src).unwrap();
        let fr = report.for_function("sum").unwrap();
        let FragmentOutcome::Translated { code, .. } = &fr.outcome else {
            panic!()
        };
        assert!(!code.is_empty());
        assert!(code.contains(dialect.name()) || !code.is_empty());
    }
}

#[test]
fn translated_plan_scales_with_parallelism() {
    // The same plan computes the same answer across engine parallelism.
    let src = r#"
        fn sum(xs: list<int>) -> int {
            let s: int = 0;
            for (x in xs) { s = s + x; }
            return s;
        }
    "#;
    let report = Casper::new(fast_config()).translate_source(src).unwrap();
    let FragmentOutcome::Translated { program, .. } = &report.for_function("sum").unwrap().outcome
    else {
        panic!()
    };
    let mut state = Env::new();
    state.set("xs", Value::List((1..=5000).map(Value::Int).collect()));
    state.set("s", Value::Int(0));
    for workers in [1, 2, 8] {
        let ctx = Context::with_parallelism(workers, workers * 2);
        let (out, _) = program.run(&ctx, &state).unwrap();
        assert_eq!(out.get("s"), Some(&Value::Int(12_502_500)));
    }
}

/// Translate `func` in `src`, then run the monitor's chosen plan and the
/// generated program on `state`: each must return exactly the source
/// fragment's outputs.
fn assert_engines_match_source(src: &str, func: &str, state: &Env) {
    let report = Casper::new(fast_config()).translate_source(src).unwrap();
    let fr = report.for_function(func).expect("fragment report");
    let FragmentOutcome::Translated { program, .. } = &fr.outcome else {
        panic!("{func} did not translate");
    };
    let source = Arc::new(seqlang::compile(src).unwrap());
    let frag = analyzer::identify_fragments(&source)
        .into_iter()
        .find(|f| f.func == func)
        .expect("fragment");
    let expected = frag.project_outputs(&frag.run(state).unwrap());
    let entry = frag.pre_loop_state(state).unwrap();
    let ctx = Context::with_parallelism(2, 4);
    let chosen = &program.variants[program.choose(&entry).chosen];
    let runs = [
        ("execute", chosen.plan.execute(&ctx, &entry).unwrap()),
        ("run", program.run(&ctx, &entry).unwrap().0),
    ];
    for (name, got) in runs {
        for (var, want) in expected.iter() {
            assert_eq!(got.get(var), Some(want), "{func} {name}: `{var}`");
        }
    }
}

/// Integer orderings are exact above 2^53, where `f64` cannot tell 2^53
/// from 2^53 + 1: the source's `x > m` and the plan's `max` agree.
#[test]
fn int_orderings_are_exact_above_2_pow_53() {
    let src = r#"
        fn max_of(xs: list<int>) -> int {
            let m: int = 0;
            for (x in xs) { if (x > m) { m = x; } }
            return m;
        }
    "#;
    let big = 1i64 << 53;
    let mut state = Env::new();
    state.set(
        "xs",
        Value::List(vec![Value::Int(big), Value::Int(big + 1)]),
    );
    assert_engines_match_source(src, "max_of", &state);
}

/// `Double` equality is `Value`'s total order on every engine, as in the
/// source: `-0.0 != 0.0`, and a NaN equals a NaN with the same bits. The
/// inputs are longer than the monitor's sample (5 000 records), so the
/// generated program runs its chosen plan on the engine.
#[test]
fn double_equality_follows_the_source_past_the_sample() {
    let src = r#"
        fn zeros(xs: list<double>) -> int {
            let c: int = 0;
            for (x in xs) { if (x == 0.0) { c = c + 1; } }
            return c;
        }
        fn matches(xs: list<double>, probe: double) -> int {
            let c: int = 0;
            for (x in xs) { if (x == probe) { c = c + 1; } }
            return c;
        }
    "#;
    let list = |vals: &[f64]| {
        let xs = (0..6_000).map(|i| Value::Double(vals[i % vals.len()]));
        Value::List(xs.collect())
    };
    let mut state = Env::new();
    state.set("xs", list(&[-0.0, 0.0, 1.0]));
    assert_engines_match_source(src, "zeros", &state);

    state.set("xs", list(&[f64::NAN, 1.0]));
    state.set("probe", Value::Double(f64::NAN));
    assert_engines_match_source(src, "matches", &state);
}
