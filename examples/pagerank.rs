//! Iterative workloads (§7.2, Figure 7c): PageRank as Casper generates it,
//! compared against the Spark tutorial's. The tutorial calls
//! `links.cache()`: its reference computes the links (each edge with its
//! source's out-degree) once and reads them back as a materialized source
//! every iteration. Shows why Casper's missing `cache()` costs ~1.3× in
//! the paper: the uncached plan re-ingests the edges and recomputes the
//! links every iteration.
//!
//! Run with: `cargo run --example pagerank`

use bench::baselines::manual;
use mapreduce::sim::simulate_job;
use mapreduce::{ClusterSpec, Context, Framework};
use rand::rngs::StdRng;
use rand::SeedableRng;
use suites::data;

fn main() {
    let ctx = Context::new();
    let mut rng = StdRng::seed_from_u64(2026);
    let n_nodes = 300;
    let edges = data::edges(&mut rng, 3000, n_nodes);
    let n_edges = edges.elements().unwrap().len();

    let iterations = 10;
    println!("PageRank over {n_edges} edges, {iterations} iterations\n");

    ctx.reset_stats();
    let cached = manual::pagerank_cached(&ctx, &edges, n_nodes, iterations).unwrap();
    let cached_stats = ctx.stats();

    ctx.reset_stats();
    let uncached = manual::pagerank_uncached(&ctx, &edges, n_nodes, iterations).unwrap();
    let uncached_stats = ctx.stats();

    // Same answer either way.
    let max_diff = cached
        .iter()
        .zip(&uncached)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max rank difference between variants: {max_diff:.2e} (identical)");

    // But very different data movement.
    println!(
        "\ncached (tutorial):   {} stages, {:.1} MB shuffled",
        cached_stats.stage_count(),
        cached_stats.total_shuffled_bytes() as f64 / 1e6
    );
    println!(
        "uncached (Casper):   {} stages, {:.1} MB shuffled",
        uncached_stats.stage_count(),
        uncached_stats.total_shuffled_bytes() as f64 / 1e6
    );

    // Priced at the paper's scale (2.25 B edges).
    let spec = ClusterSpec::paper();
    let factor = 2_250_000_000f64 / n_edges as f64;
    let t_cached = simulate_job(&cached_stats.scaled(factor), &spec, Framework::Spark).seconds;
    let t_uncached = simulate_job(&uncached_stats.scaled(factor), &spec, Framework::Spark).seconds;
    println!(
        "\nsimulated at 2.25B edges: tutorial {t_cached:.0} s vs Casper-style \
         {t_uncached:.0} s ({:.2}x — the paper reports 1.3x)",
        t_uncached / t_cached
    );

    let top = cached
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    println!("\nhighest-ranked node: {} (rank {:.3})", top.0, top.1);
}
