//! Dynamic tuning demo (§5.2, §7.4, Figure 8): Casper generates multiple
//! verified StringMatch implementations; the runtime monitor samples the
//! input and switches between them as the keyword skew changes.
//!
//! Run with: `cargo run --example stringmatch_tuning`

use casper::{Casper, CasperConfig, FragmentOutcome};
use casper_ir::mr::OutputKind;
use mapreduce::Context;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqlang::env::Env;
use seqlang::value::Value;
use suites::data;

const SOURCE: &str = r#"
    fn string_match(text: list<string>, key1: string, key2: string) -> bool {
        let found1: bool = false;
        let found2: bool = false;
        for (w in text) {
            if (w == key1) { found1 = true; }
            if (w == key2) { found2 = true; }
        }
        return found1 && found2;
    }
"#;

fn main() {
    // The default `top_k` keeps three distinct plans: Figure 8's solution
    // (b) and two of the keyed (c) family, so the monitor has encodings to
    // switch between.
    let report = Casper::new(CasperConfig::default())
        .translate_source(SOURCE)
        .expect("compiles");
    let frag = report.for_function("string_match").expect("fragment");
    let FragmentOutcome::Translated { program, .. } = &frag.outcome else {
        panic!("StringMatch should translate")
    };
    println!(
        "Casper generated {} statically-incomparable variants:\n",
        program.variants.len()
    );
    for v in &program.variants {
        let kind = match &v.plan.summary.bindings[0].kind {
            OutputKind::ScalarTuple => "tuple encoding — Figure 8's solution (b)",
            OutputKind::KeyedScalars { .. } => "keyed emits — solution (a)/(c) family",
            _ => "other",
        };
        println!("  {}: {kind}", v.name);
    }

    let ctx = Context::new();
    println!("\nRunning over datasets with different keyword skew:\n");
    for frac in [0.0, 0.5, 0.95] {
        let mut rng = StdRng::seed_from_u64(42);
        let mut state = Env::new();
        state.set("text", data::skewed_text(&mut rng, 20_000, "needle", frac));
        state.set("key1", Value::str("needle"));
        state.set("key2", Value::str("rare"));
        state.set("found1", Value::Bool(false));
        state.set("found2", Value::Bool(false));

        let (out, choice) = program.run(&ctx, &state).expect("runs");
        println!(
            "match fraction {:>3.0}% → monitor chose variant {} \
             (costs: {:?}), found1={} found2={}",
            frac * 100.0,
            program.variants[choice.chosen].name,
            choice
                .costs
                .iter()
                .map(|c| format!("{:.2e}", c))
                .collect::<Vec<_>>(),
            out.get("found1").unwrap(),
            out.get("found2").unwrap(),
        );
    }
    println!("\nThe chosen implementation switches with the data distribution,");
    println!("exactly as Figure 8(c) reports.");
}
