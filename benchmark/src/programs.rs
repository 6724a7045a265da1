//! The program table: which registry programs each workload runs, at which
//! size, and why the others are left out. The tables are fixed lists of
//! names, so the work in a workload never depends on a measurement.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqlang::env::Env;
use suites::Benchmark;

/// `translate_search`: the programs whose translation is bound by candidate
/// enumeration and screening.
pub const TRANSLATE_SEARCH: &[&str] = &[
    "clickstream/session_ema",
    "iterative/pagerank_contribs",
    "fiji/brightness_sum",
    "tpch/q15_revenue_by_supplier",
    "iterative/pagerank_update",
    "fiji/temporal_median_window",
    "phoenix/kmeans_assign",
];

/// Programs `serve_corpus` leaves out, each with the reason. Everything else
/// in the registry is in the corpus, untranslatable programs included.
pub const SERVE_EXCLUDED: &[(&str, &str)] = &[
    ("stats/covariance_sums", "search-bound (81 796 candidates, 1.4 s): left out of both translate workloads for run length only"),
    ("stats/hadamard", "search-bound (377 494 candidates, 8.7 s): run length only"),
    ("stats/dot_product", "search-bound (93 651 candidates, 1.3 s): run length only"),
    ("phoenix/pca_mean", "search-bound (72 715 candidates, 2.9 s): run length only"),
    ("tpch/q6_revenue", "search-bound (552 631 candidates, 6.0 s): run length only"),
    ("clickstream/session_ema", "in translate_search"),
    ("iterative/pagerank_contribs", "in translate_search"),
    ("fiji/brightness_sum", "in translate_search"),
    ("tpch/q15_revenue_by_supplier", "in translate_search"),
    ("iterative/pagerank_update", "in translate_search"),
    ("fiji/temporal_median_window", "in translate_search"),
    ("clickstream/rank_above_history", "search-bound (4 321 candidates, 61 ms), same search as fiji/temporal_median_window"),
];

/// `execute_scale`: programs run at [`SCALE_N`] primary records. String-keyed
/// (word_count), scalar (string_match, variance_sums, linear_regression) and
/// struct-keyed or multi-shuffle (histogram3d, q1, q15) reduces are present.
/// No join: `choose` on a join grows faster than linearly with the input.
pub const EXECUTE_SCALE: &[&str] = &[
    "phoenix/word_count",
    "phoenix/string_match",
    "stats/variance_sums",
    "phoenix/histogram3d",
    "tpch/q1_sum_disc_price",
    "tpch/q15_revenue_by_supplier",
    "phoenix/linear_regression",
];

pub const SCALE_N: usize = 200_000;
/// The interpreter's maps are association lists, so its word_count reference
/// costs a scan of the vocabulary per word: over a minute at this scale with
/// the registry's vocabulary of 10 000, under a second with this one.
pub const SCALE_WORD_VOCAB: usize = 128;

pub const SMALL_N: usize = 2_000;
/// Programs whose run time grows faster than their input (two sources, or all
/// pairs of one) run at this size in `execute_small`: `choose` on
/// tpch/q17_join_revenue takes 2.2 s at n = 2 000 and 17 s at n = 8 000, and
/// biglambda/allpairs_maxdiff at n = 2 000 was a quarter of the pass.
pub const SMALL_N_SUPER_LINEAR: usize = 400;
pub const SUPER_LINEAR: &[&str] = &[
    "tpch/q17_join_revenue",
    "sessionize/vip_bytes",
    "biglambda/cross_count",
    "biglambda/allpairs_maxdiff",
    "phoenix/kmeans_assign",
];

/// The iterative drivers `execute_small` adds, each one operation of
/// [`LOOP_ITERATIONS`] iterations.
pub const CACHED_LOOP: &str = "iterative/pagerank_contribs";
pub const TUNED_LOOP: &str = "phoenix/string_match";
pub const LOOP_ITERATIONS: usize = 10;
/// Records per loop iteration. At n = 2 000 the cached loop alone was a
/// seventh of the pass and took 230 ms for nine seeds out of ten and 390 ms for
/// the tenth: what the loops cost is reported, but must not decide the pass.
pub const LOOP_N: usize = 500;

fn lookup(all: &[Benchmark], name: &str) -> usize {
    all.iter()
        .position(|b| b.name == name)
        .unwrap_or_else(|| panic!("program table names {name}, which the registry does not have"))
}

/// The registry programs with the given names, in the given order.
pub fn named(names: &[&str]) -> Vec<Benchmark> {
    let mut all = suites::all_benchmarks();
    names
        .iter()
        .map(|name| {
            let at = lookup(&all, name);
            all.swap_remove(at)
        })
        .collect()
}

/// The `serve_corpus` programs in registry order.
pub fn serve_corpus() -> Vec<Benchmark> {
    suites::all_benchmarks()
        .into_iter()
        .filter(|b| !SERVE_EXCLUDED.iter().any(|(name, _)| *name == b.name))
        .collect()
}

/// The `execute_small` programs: the corpus programs that translate and run.
pub fn execute_small() -> Vec<Benchmark> {
    serve_corpus()
        .into_iter()
        .filter(|b| b.expect_translate)
        .collect()
}

/// Size at which `execute_small` (and the trip of the translate workloads)
/// runs a program.
pub fn small_n(name: &str, in_loop: bool) -> usize {
    if in_loop {
        LOOP_N
    } else if SUPER_LINEAR.contains(&name) {
        SMALL_N_SUPER_LINEAR
    } else {
        SMALL_N
    }
}

/// A program's input state with about `n` primary records. The generator's
/// stream depends on the seed and the program's name, so a program gets the
/// same input whichever workload runs it.
pub fn input_state(b: &Benchmark, seed: u64, n: usize, word_vocab: Option<usize>) -> Env {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for byte in b.name.bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut rng = StdRng::seed_from_u64(h);
    match word_vocab {
        Some(vocab) if b.name == "phoenix/word_count" => {
            let mut state = Env::new();
            state.set("words", suites::data::words(&mut rng, n, vocab));
            state
        }
        _ => (b.gen)(&mut rng, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_is_in_the_registry() {
        let all = suites::all_benchmarks();
        let listed = TRANSLATE_SEARCH
            .iter()
            .chain(EXECUTE_SCALE)
            .chain(SUPER_LINEAR)
            .chain([CACHED_LOOP, TUNED_LOOP].iter())
            .chain(SERVE_EXCLUDED.iter().map(|(n, _)| n));
        for name in listed {
            lookup(&all, name);
        }
    }

    #[test]
    fn workload_sets_have_the_documented_sizes() {
        assert_eq!(suites::all_benchmarks().len(), 93);
        assert_eq!(serve_corpus().len(), 81);
        assert_eq!(execute_small().len(), 77);
        assert_eq!(named(EXECUTE_SCALE).len(), 7);
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let b = &named(&["ariths/sum"])[0];
        assert_eq!(input_state(b, 7, 50, None), input_state(b, 7, 50, None));
        assert_ne!(input_state(b, 7, 50, None), input_state(b, 8, 50, None));
    }
}
