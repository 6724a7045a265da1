//! The translator's whole output for the registry, pinned: every one of
//! the 93 registry programs is translated once with
//! `CasperConfig::default()`, and two listings are compared with committed
//! files:
//!
//! - `golden_reports.txt` holds one `<name> <hash>` line per program: the
//!   hash of its `casperd::render_report` payload (summaries, generated
//!   code, failure reasons).
//! - `golden_search_counts.txt` holds one line per fragment: the
//!   program, the fragment id, and its search's `candidates_generated`,
//!   `candidates_checked`, `sent_to_verifier`, `counter_examples` and
//!   `classes_explored`. The search is deterministic at any worker count,
//!   so these counts are exact.
//!
//! A change that moves any payload byte or any count fails here and names
//! the lines it moved. A third test runs every variant of every
//! translated fragment on the benchmark's own data and compares it with
//! the source fragment. Two more pin the normal form
//! (`casper_ir::normalize`): every candidate of every class a search
//! explored is its own normal form, and no fragment keeps two variants
//! with one normal form. The sweep takes about 20 s on two cores, so all
//! five tests are ignored by default:
//!
//! ```sh
//! cargo test --release --test golden_reports -- --ignored
//! ```

use std::sync::{Arc, OnceLock};

use casper::{Casper, CasperConfig, FragmentOutcome, TranslationReport};
use casper_ir::mr::ProgramSummary;
use casper_ir::normalize;
use mapreduce::Context;
use rand::rngs::StdRng;
use rand::SeedableRng;

const GOLDEN: &str = include_str!("golden_reports.txt");
const GOLDEN_COUNTS: &str = include_str!("golden_search_counts.txt");

/// Every registry program's name and translation report, translated once
/// for both tests.
fn reports() -> &'static [(&'static str, TranslationReport)] {
    static REPORTS: OnceLock<Vec<(&'static str, TranslationReport)>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let casper = Casper::new(CasperConfig::default());
        let reports: Vec<(&'static str, TranslationReport)> = suites::all_benchmarks()
            .iter()
            .map(|b| {
                let report = casper
                    .translate_source(b.source)
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name));
                (b.name, report)
            })
            .collect();
        assert_eq!(reports.len(), 93, "the registry holds 93 programs");
        reports
    })
}

/// Compare a listing with its golden file line by line; on a mismatch,
/// name the moved lines and print the whole listing.
fn assert_matches_golden(lines: &[String], golden: &str, file: &str) {
    let golden: Vec<&str> = golden.lines().collect();
    let moved: Vec<&str> = lines
        .iter()
        .zip(&golden)
        .filter(|(ours, theirs)| ours.as_str() != **theirs)
        .map(|(ours, _)| ours.as_str())
        .collect();
    assert!(
        moved.is_empty() && golden.len() == lines.len(),
        "{} of {} lines of {file} moved ({} golden lines): {moved:#?}\nwhole listing:\n{}",
        moved.len(),
        lines.len(),
        golden.len(),
        lines.join("\n")
    );
}

/// 64-bit FNV-1a: stable across platforms and toolchains, unlike
/// `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
#[ignore = "translates all 93 registry programs (about 20 s); run with --ignored"]
fn render_report_payloads_match_golden_hashes() {
    let lines: Vec<String> = reports()
        .iter()
        .map(|(name, report)| {
            let payload = casperd::render_report(report);
            format!("{name} {:016x}", fnv1a(payload.as_bytes()))
        })
        .collect();
    assert_matches_golden(&lines, GOLDEN, "golden_reports.txt");
}

#[test]
#[ignore = "translates all 93 registry programs (about 20 s); run with --ignored"]
fn search_counts_match_golden_counts() {
    let lines: Vec<String> = reports()
        .iter()
        .flat_map(|(name, report)| {
            report.fragments.iter().map(move |f| {
                let s = &f.search;
                format!(
                    "{name} {} generated={} checked={} sent={} cex={} classes={}",
                    f.id,
                    s.candidates_generated,
                    s.candidates_checked,
                    s.sent_to_verifier,
                    s.counter_examples,
                    s.classes_explored
                )
            })
        })
        .collect();
    assert_matches_golden(&lines, GOLDEN_COUNTS, "golden_search_counts.txt");
}

/// Every registry fragment with its program's name, its grammar and its
/// translation report.
fn registry_fragments() -> Vec<(
    &'static str,
    synthesis::Grammar,
    &'static casper::FragmentReport,
)> {
    let registry = suites::all_benchmarks();
    reports()
        .iter()
        .flat_map(|(name, report)| {
            let bench = registry.iter().find(|b| b.name == *name).expect(name);
            let program = Arc::new(seqlang::compile(bench.source).expect("compiles"));
            let fragments = analyzer::identify_fragments(&program);
            assert_eq!(fragments.len(), report.fragments.len(), "{name}");
            fragments
                .iter()
                .zip(&report.fragments)
                .map(|(fragment, f)| (*name, synthesis::Grammar::for_fragment(fragment), f))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn normal_form(grammar: &synthesis::Grammar, s: &ProgramSummary) -> ProgramSummary {
    normalize::summary(s, &|name: &str| grammar.type_of(name))
}

#[test]
#[ignore = "translates all 93 registry programs (about 20 s); run with --ignored"]
fn explored_classes_stream_only_normal_forms() {
    let classes = synthesis::generate_classes();
    let mut streamed = 0usize;
    for (name, grammar, f) in registry_fragments() {
        for class in &classes[..f.search.classes_explored] {
            for cand in synthesis::enumerate::candidates(&grammar, class) {
                streamed += 1;
                let normal = normal_form(&grammar, &cand);
                assert!(
                    normal == cand,
                    "{name} {}: a candidate is not its normal form:\n{}\nnormal:\n{}",
                    f.id,
                    casper_ir::pretty::pretty_summary(&cand),
                    casper_ir::pretty::pretty_summary(&normal)
                );
            }
        }
    }
    assert!(streamed > 0, "no candidate streamed");
}

#[test]
#[ignore = "translates all 93 registry programs (about 20 s); run with --ignored"]
fn kept_variants_have_distinct_normal_forms() {
    let mut kept = 0;
    for (name, grammar, f) in registry_fragments() {
        let FragmentOutcome::Translated { summaries, .. } = &f.outcome else {
            continue;
        };
        kept += summaries.len();
        let normals: Vec<ProgramSummary> =
            summaries.iter().map(|s| normal_form(&grammar, s)).collect();
        for (i, n) in normals.iter().enumerate() {
            assert!(
                !normals[..i].contains(n),
                "{name} {}: v{} has the normal form of an earlier variant",
                f.id,
                i + 1
            );
        }
    }
    assert!(kept > 0, "no variant kept");
}

#[test]
#[ignore = "translates all 93 registry programs (about 20 s); run with --ignored"]
fn every_translated_variant_matches_the_source() {
    let registry = suites::all_benchmarks();
    let ctx = Context::with_parallelism(2, 4);
    let mut checked = 0;
    let mut wrong = Vec::new();
    for (name, report) in reports() {
        let bench = registry.iter().find(|b| b.name == *name).expect(name);
        let state = (bench.gen)(&mut StdRng::seed_from_u64(1), 2_000);
        let program = Arc::new(seqlang::compile(bench.source).expect("compiles"));
        let fragments = analyzer::identify_fragments(&program);
        for (fragment, f) in fragments.iter().zip(&report.fragments) {
            let FragmentOutcome::Translated { program, .. } = &f.outcome else {
                continue;
            };
            let source_fault = |e| panic!("{name} {}: the source faults: {e}", f.id);
            let post = fragment.run(&state).unwrap_or_else(source_fault);
            let entry = fragment.pre_loop_state(&state).unwrap_or_else(source_fault);
            let expected = fragment.project_outputs(&post);
            for variant in &program.variants {
                checked += 1;
                let got = variant.plan.execute(&ctx, &entry);
                let matches = got.as_ref().is_ok_and(|got| {
                    expected.iter().all(|(var, want)| {
                        got.get(var)
                            .is_some_and(|have| bench::outputs_equal(want, have))
                    })
                });
                if !matches {
                    wrong.push(format!("{name} {} {}", f.id, variant.name));
                }
            }
        }
    }
    assert!(checked > 0, "no variant ran");
    assert!(
        wrong.is_empty(),
        "{} of {checked} variants differ from the source: {wrong:#?}",
        wrong.len()
    );
}
