//! The benchmark registry: every suite of §7.1 in one place.

use rand::rngs::StdRng;
use seqlang::env::Env;

/// The seven suites of Table 1, plus the post-paper extension suites
/// (log sessionization and clickstream windowed aggregates) added when
/// the grammar grew past the paper's productions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    Phoenix,
    Ariths,
    Stats,
    BigLambda,
    TpcH,
    Iterative,
    Fiji,
    Sessionize,
    Clickstream,
}

impl Suite {
    pub fn name(&self) -> &'static str {
        match self {
            Suite::Phoenix => "Phoenix",
            Suite::Ariths => "Ariths",
            Suite::Stats => "Stats",
            Suite::BigLambda => "Bigλ",
            Suite::TpcH => "TPC-H",
            Suite::Iterative => "Iterative",
            Suite::Fiji => "Fiji",
            Suite::Sessionize => "Session",
            Suite::Clickstream => "Clickstr",
        }
    }

    /// Is this one of the seven suites the paper's Table 1 reports?
    /// Translation-floor assertions apply to these only; the extension
    /// suites are tracked separately.
    pub fn is_paper(&self) -> bool {
        !matches!(self, Suite::Sessionize | Suite::Clickstream)
    }

    pub fn all() -> [Suite; 9] {
        [
            Suite::Phoenix,
            Suite::Ariths,
            Suite::Stats,
            Suite::BigLambda,
            Suite::TpcH,
            Suite::Iterative,
            Suite::Fiji,
            Suite::Sessionize,
            Suite::Clickstream,
        ]
    }
}

/// One benchmark: a sequential program with (usually) one candidate
/// fragment, plus its dataset generator.
pub struct Benchmark {
    pub name: &'static str,
    pub suite: Suite,
    /// Sequential `seqlang` source, the input to Casper.
    pub source: &'static str,
    /// Function holding the fragment of interest.
    pub func: &'static str,
    /// Is this fragment expected to translate under the current
    /// grammar? Starts from the paper's Table 1 outcomes; grammar
    /// growth since (inline aggregates, helper inlining) has flipped
    /// fragments the paper could not express. The Table 1 floor in
    /// `bench`'s `reproduce` binary and the ledger tests keep this honest.
    pub expect_translate: bool,
    /// Build a program state with roughly `n` primary records.
    pub gen: fn(&mut StdRng, usize) -> Env,
    /// Record count of the paper-scale dataset (the 75 GB runs) — the
    /// cluster simulator extrapolates measured stage volumes to this.
    pub paper_scale: u64,
}

/// All benchmarks across all suites.
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut out = Vec::new();
    out.extend(crate::ariths::benchmarks());
    out.extend(crate::stats::benchmarks());
    out.extend(crate::biglambda::benchmarks());
    out.extend(crate::phoenix::benchmarks());
    out.extend(crate::tpch::benchmarks());
    out.extend(crate::iterative::benchmarks());
    out.extend(crate::fiji::benchmarks());
    out.extend(crate::sessionize::benchmarks());
    out.extend(crate::clickstream::benchmarks());
    out
}

/// Benchmarks of one suite.
pub fn suite_benchmarks(suite: Suite) -> Vec<Benchmark> {
    all_benchmarks()
        .into_iter()
        .filter(|b| b.suite == suite)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_is_populated_and_names_unique() {
        let all = all_benchmarks();
        assert!(
            all.len() >= 45,
            "expected a full registry, got {}",
            all.len()
        );
        let names: HashSet<&str> = all.iter().map(|b| b.name).collect();
        assert_eq!(names.len(), all.len(), "duplicate benchmark names");
    }

    #[test]
    fn every_suite_has_benchmarks() {
        for suite in Suite::all() {
            assert!(
                !suite_benchmarks(suite).is_empty(),
                "suite {} is empty",
                suite.name()
            );
        }
    }

    #[test]
    fn all_sources_compile() {
        for b in all_benchmarks() {
            seqlang::compile(b.source)
                .unwrap_or_else(|e| panic!("{} does not compile: {e}", b.name));
        }
    }

    #[test]
    fn all_generators_produce_runnable_states() {
        use rand::SeedableRng;
        use std::sync::Arc;
        for b in all_benchmarks() {
            let program = Arc::new(seqlang::compile(b.source).unwrap());
            let frags = analyzer::identify_fragments(&program);
            assert!(!frags.is_empty(), "{}: no fragments identified", b.name);
            let mut rng = StdRng::seed_from_u64(1);
            let state = (b.gen)(&mut rng, 40);
            // Fragments in the primary function must run on the state.
            for f in frags.iter().filter(|f| f.func == b.func) {
                f.run(&state).unwrap_or_else(|e| {
                    panic!(
                        "{}: fragment {} fails on generated state: {e}",
                        b.name, f.id
                    )
                });
            }
        }
    }
}
