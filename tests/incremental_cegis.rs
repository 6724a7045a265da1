//! The verifier's counter-examples change how much the search does, not
//! what it finds. `find_summary` adds each counter-example the full
//! verifier returns to Φ; a later candidate failing it would have failed
//! the verifier's identical obligation, so the verified summaries ∆ and
//! their order must be the same as in a search that never sees a
//! counter-example, while fewer candidates reach the verifier. The search
//! takes each counter-example as the verifier's basis entry, so every
//! entry must equal the fragment's own observation of its state.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use analyzer::basis::observe_fragment;
use analyzer::fragment::Fragment;
use casper::search_verdict;
use casper_ir::mr::ProgramSummary;
use synthesis::{find_summary, FindConfig, FindOutcome, SearchReport};
use verifier::{Verifier, VerifyConfig};

/// The benchmark's search-bound `translate_search` programs, plus
/// `tpch/q6_revenue` (451 verifier calls without counter-examples) and a
/// Table 3 program.
const PROGRAMS: &[&str] = &[
    "clickstream/session_ema",
    "iterative/pagerank_contribs",
    "fiji/brightness_sum",
    "tpch/q15_revenue_by_supplier",
    "iterative/pagerank_update",
    "fiji/temporal_median_window",
    "phoenix/kmeans_assign",
    "tpch/q6_revenue",
    "biglambda/yelp_kids",
];

fn fragments(name: &str) -> Vec<Fragment> {
    let bench = suites::all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .expect("in the registry");
    let program = Arc::new(seqlang::compile(bench.source).expect("compiles"));
    analyzer::identify_fragments(&program)
}

/// One search against a fresh verifier (a shared verdict cache would
/// carry state between the runs being compared). `keep_counter_examples`
/// false drops every refuting entry before the search sees it. Every
/// refuting entry the verifier returns must be the fragment's own
/// observation of its state, because the search appends it to Φ without
/// running the fragment again; `refutations` counts the entries checked.
fn search(
    fragment: &Fragment,
    keep_counter_examples: bool,
    refutations: &Cell<usize>,
) -> (FindOutcome, SearchReport) {
    let verifier = Verifier::new(fragment, VerifyConfig::default());
    let verify = |summary: &ProgramSummary| {
        let mut verdict = search_verdict(&verifier.verify(summary));
        if let Some(entry) = &verdict.counter_example {
            let (pre, expected) =
                observe_fragment(fragment, &entry.state).expect("entries are fragment-valid");
            assert_eq!(entry.pre, pre, "{}: pre-loop state", fragment.id);
            assert_eq!(
                entry.expected, expected,
                "{}: expected outputs",
                fragment.id
            );
            refutations.set(refutations.get() + 1);
        }
        if !keep_counter_examples {
            verdict.counter_example = None;
        }
        verdict
    };
    // A generous timeout keeps deadline truncation, the one
    // timing-dependent way a search can end, out of play.
    let config = FindConfig {
        timeout: Duration::from_secs(300),
        ..FindConfig::default()
    };
    find_summary(fragment, &verify, &config)
}

#[test]
fn counter_examples_keep_delta_and_cut_verifier_calls() {
    let refutations = Cell::new(0);
    for name in PROGRAMS {
        for fragment in fragments(name) {
            let (with, with_report) = search(&fragment, true, &refutations);
            let (without, without_report) = search(&fragment, false, &refutations);
            let id = format!("{name} {}", fragment.id);
            assert_eq!(with, without, "{id}: counter-examples changed ∆");
            assert!(!with_report.timed_out, "{id}: {with_report:?}");
            assert!(
                with_report.sent_to_verifier <= without_report.sent_to_verifier,
                "{id}: {} sent with counter-examples, {} without",
                with_report.sent_to_verifier,
                without_report.sent_to_verifier
            );
            if *name == "iterative/pagerank_contribs" {
                assert!(
                    with_report.sent_to_verifier <= 10,
                    "{id}: {} candidates sent to the verifier",
                    with_report.sent_to_verifier
                );
            }
        }
    }
    assert!(
        refutations.get() > 0,
        "no verifier counter-example was checked"
    );
}
