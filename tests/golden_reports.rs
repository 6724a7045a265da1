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
//! the lines it moved. The sweep takes about 20 s on two cores, so both
//! tests are ignored by default:
//!
//! ```sh
//! cargo test --release --test golden_reports -- --ignored
//! ```

use std::sync::OnceLock;

use casper::{Casper, CasperConfig, TranslationReport};

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
