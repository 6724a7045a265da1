//! The translator's whole output for the registry, pinned: every one of
//! the 93 registry programs is translated with `CasperConfig::default()`
//! and its `casperd::render_report` payload (summaries, generated code,
//! failure reasons) is hashed. `golden_reports.txt` holds one
//! `<name> <hash>` line per program. A change that moves any payload byte
//! fails here and names the programs it moved.
//!
//! The sweep takes about 20 s on two cores, so it is ignored by default:
//!
//! ```sh
//! cargo test --release --test golden_reports -- --ignored
//! ```

use casper::{Casper, CasperConfig};

const GOLDEN: &str = include_str!("golden_reports.txt");

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
    let casper = Casper::new(CasperConfig::default());
    let lines: Vec<String> = suites::all_benchmarks()
        .iter()
        .map(|b| {
            let report = casper
                .translate_source(b.source)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let payload = casperd::render_report(&report);
            format!("{} {:016x}", b.name, fnv1a(payload.as_bytes()))
        })
        .collect();
    assert_eq!(lines.len(), 93, "the registry holds 93 programs");
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let moved: Vec<&str> = lines
        .iter()
        .zip(&golden)
        .filter(|(ours, theirs)| ours.as_str() != **theirs)
        .map(|(ours, _)| ours.as_str())
        .collect();
    assert!(
        moved.is_empty() && golden.len() == lines.len(),
        "{} of {} payloads moved: {moved:#?}\nwhole listing:\n{}",
        moved.len(),
        lines.len(),
        lines.join("\n")
    );
}
