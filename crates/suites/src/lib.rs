//! `suites` — the paper's seven benchmark suites (§7.1) and two
//! post-paper extension suites ([`sessionize`], [`clickstream`])
//! exercising the expanded grammar.
//!
//! Each benchmark carries its sequential `seqlang` source (the input to
//! Casper), a deterministic dataset generator, and the paper's expected
//! translation outcome. The baselines §7.2 compares against are plans,
//! and live beside the harness that prices them (`bench::baselines`).

pub mod ariths;
pub mod biglambda;
pub mod clickstream;
pub mod data;
pub mod fiji;
pub mod iterative;
pub mod phoenix;
pub mod registry;
pub mod sessionize;
pub mod stats;
pub mod tpch;

pub use registry::{all_benchmarks, suite_benchmarks, Benchmark, Suite};

/// A suite program with six independent fragments of assorted output
/// shapes (scalars, a flag, a map) — the fixture of the parallel
/// pipeline driver's determinism test (`tests/parallel_consistency.rs`).
/// All six fragments translate; keep the fragment count in sync with
/// that test's assertions.
pub const MULTI_FRAGMENT_SRC: &str = "
fn sum(xs: list<int>) -> int {
    let s: int = 0;
    for (x in xs) { s = s + x; }
    return s;
}
fn mx(xs: list<int>) -> int {
    let m: int = 0;
    for (x in xs) { if (x > m) { m = x; } }
    return m;
}
fn count_above(xs: list<int>, t: int) -> int {
    let n: int = 0;
    for (x in xs) { if (x > t) { n = n + 1; } }
    return n;
}
fn exists(xs: list<int>, t: int) -> bool {
    let f: bool = false;
    for (x in xs) { if (x == t) { f = true; } }
    return f;
}
fn sumsq(xs: list<int>) -> int {
    let q: int = 0;
    for (x in xs) { q = q + x * x; }
    return q;
}
fn wc(words: list<string>) -> map<string,int> {
    let counts: map<string,int> = new map<string,int>();
    for (w in words) {
        counts.put(w, counts.get_or(w, 0) + 1);
    }
    return counts;
}
";
