//! Quickstart: translate the paper's running example — the row-wise mean
//! benchmark of Figure 1 — end to end, print the discovered program
//! summary and the generated Spark code, and execute the result on the
//! MapReduce engine.
//!
//! Run with: `cargo run --example quickstart`

use casper::{Casper, CasperConfig, FragmentOutcome};
use casper_ir::pretty::pretty_summary;
use mapreduce::Context;
use seqlang::env::Env;
use seqlang::value::Value;

const SOURCE: &str = r#"
    fn rwm(mat: array<array<int>>, rows: int, cols: int) -> array<int> {
        let m: array<int> = new array<int>(rows);
        for (let i: int = 0; i < rows; i = i + 1) {
            let sum: int = 0;
            for (let j: int = 0; j < cols; j = j + 1) {
                sum = sum + mat[i][j];
            }
            m[i] = sum / cols;
        }
        return m;
    }
"#;

fn main() {
    println!("== Input: sequential row-wise mean (Figure 1a) ==\n{SOURCE}");

    let casper = Casper::new(CasperConfig::default());
    let report = casper.translate_source(SOURCE).expect("source compiles");
    println!(
        "Fragments identified: {}, translated: {}\n",
        report.identified_count(),
        report.translated_count()
    );

    let frag = report.for_function("rwm").expect("fragment found");
    let FragmentOutcome::Translated {
        summaries,
        program,
        code,
        ..
    } = &frag.outcome
    else {
        panic!("row-wise mean should translate");
    };

    println!(
        "== Synthesized program summary ==\n{}\n",
        pretty_summary(&summaries[0])
    );
    println!("== Generated Spark code (Figure 1b) ==\n{code}");

    // Execute on the engine.
    let ctx = Context::new();
    let mut state = Env::new();
    state.set(
        "mat",
        Value::Array(vec![
            Value::Array(vec![Value::Int(1), Value::Int(3)]),
            Value::Array(vec![Value::Int(10), Value::Int(20)]),
            Value::Array(vec![Value::Int(7), Value::Int(7)]),
        ]),
    );
    state.set("rows", Value::Int(3));
    state.set("cols", Value::Int(2));
    state.set(
        "m",
        Value::Array(vec![Value::Int(0), Value::Int(0), Value::Int(0)]),
    );
    // `run` would answer this three-row input from the monitor's sample
    // alone and record no stage; run the chosen plan to show the engine.
    let choice = program.choose(&state);
    let plan = &program.variants[choice.chosen].plan;
    let out = plan.execute(&ctx, &state).expect("plan executes");
    println!("== Executed on the MapReduce engine ==");
    println!("m = {}", out.get("m").unwrap());
    println!("\nEngine stages:\n{}", ctx.stats());
}
