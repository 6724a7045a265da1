//! Deterministic cluster-time model.
//!
//! The paper's experiments ran on 10 m3.2xlarge instances (1 master + 9
//! workers, 8 vCPUs each) over 25–75 GB HDFS datasets. We cannot run that
//! hardware, so runtimes are *simulated* from the exact stage statistics
//! the engine records: per-record CPU work, shuffle bytes over a shared
//! network, and per-stage/per-job framework overheads. The sequential
//! baseline is priced with the same per-record CPU cost on a single core,
//! which makes speedups a function of parallelism, shuffle volume and
//! overhead — the same three quantities the paper's evaluation varies.

use crate::framework::Framework;
use crate::stats::{JobStats, StageKind};

/// Cluster hardware description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Worker nodes (the paper: 9 core nodes).
    pub nodes: u32,
    /// Cores per node (m3.2xlarge: 8 vCPUs).
    pub cores_per_node: u32,
    /// Effective shuffle throughput per node, bytes/second. Much lower
    /// than raw NIC bandwidth (~125 MB/s on m3.2xlarge) because a shuffle
    /// pays serialization, spill-to-disk, and fetch on both sides; 40 MB/s
    /// effective reproduces Table 4's combiner-vs-no-combiner gap.
    pub net_bytes_per_s: f64,
    /// CPU time to process one record through one stage, seconds. The
    /// absolute value calibrates sequential runtimes; only ratios matter
    /// for speedups.
    pub cpu_s_per_record: f64,
    /// HDFS aggregate scan bandwidth per node, bytes/second.
    pub disk_bytes_per_s: f64,
}

impl ClusterSpec {
    /// The paper's evaluation cluster (§7).
    pub fn paper() -> ClusterSpec {
        ClusterSpec {
            nodes: 9,
            cores_per_node: 8,
            net_bytes_per_s: 40.0e6,
            cpu_s_per_record: 250.0e-9,
            disk_bytes_per_s: 200.0e6,
        }
    }

    /// A single sequential core of the same machine class.
    pub fn total_cores(&self) -> f64 {
        (self.nodes * self.cores_per_node) as f64
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec::paper()
    }
}

/// Simulated wall-clock results for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimClock {
    pub seconds: f64,
}

/// Price a job's stage statistics on a cluster running `framework`.
pub fn simulate_job(stats: &JobStats, spec: &ClusterSpec, framework: Framework) -> SimClock {
    simulate_job_with_skew(stats, &[], spec, framework)
}

/// Like [`simulate_job`], but stage `i`'s wide work is stretched by the
/// key skew `skews[i]`: the largest single key's fraction of the stage's
/// input records (`0` = unknown/uniform, priced exactly like
/// `simulate_job`). A shuffle's parallel speedup is bounded by its key
/// distribution — the busiest reducer processes at least `share` of the
/// records on one core and receives `share` of the bytes over one node's
/// link, so the stage runs at `max(1, share·cores)` /
/// `max(1, share·nodes)` times its perfectly-balanced time. This is the
/// straggler model behind the paper's skewed StringMatch crossover
/// (Figure 8(b)): solution (c) funnels every match to one key and stops
/// scaling, which the runtime monitor's parameterized cost predicts.
pub fn simulate_job_with_skew(
    stats: &JobStats,
    skews: &[f64],
    spec: &ClusterSpec,
    framework: Framework,
) -> SimClock {
    let cores = spec.total_cores();
    let mut seconds = framework.job_overhead_s();
    for (i, stage) in stats.stages.iter().enumerate() {
        let share = skews.get(i).copied().unwrap_or(0.0);
        match stage.kind {
            StageKind::Input => {
                // HDFS scan, parallel across nodes.
                seconds += stage.bytes_out as f64 / (spec.disk_bytes_per_s * spec.nodes as f64);
                seconds += framework.stage_overhead_s();
            }
            StageKind::Map => {
                let cpu = stage.records_in as f64
                    * spec.cpu_s_per_record
                    * framework.record_cost_factor();
                seconds += cpu / cores;
                // Pipelined narrow stages: Flink/Spark fuse these, charge
                // a fraction of a stage overhead.
                seconds += framework.stage_overhead_s() * 0.2;
            }
            StageKind::Shuffle | StageKind::Join => {
                let cpu = stage.records_in as f64
                    * spec.cpu_s_per_record
                    * framework.record_cost_factor();
                seconds += cpu / cores * (share * cores).max(1.0);
                let wire = stage.bytes_shuffled as f64 * framework.shuffle_cost_factor();
                seconds += wire / (spec.net_bytes_per_s * spec.nodes as f64)
                    * (share * spec.nodes as f64).max(1.0);
                seconds += framework.stage_overhead_s();
            }
            StageKind::Collect => {
                seconds += stage.records_in as f64 * spec.cpu_s_per_record / cores;
            }
        }
    }
    SimClock { seconds }
}

/// Price the sequential baseline: one core processes every loop iteration;
/// input is scanned from local disk once.
///
/// `record_work` is the number of loop-body iterations the sequential
/// implementation executes (from [`seqlang::ExecStats`]), and
/// `input_bytes` the dataset size.
pub fn simulate_sequential(record_work: u64, input_bytes: u64, spec: &ClusterSpec) -> SimClock {
    // Sequential Java pays interpreter-free, JIT-compiled per-record cost;
    // we charge the same per-record cost as a cluster core plus the
    // single-disk scan.
    let cpu = record_work as f64 * spec.cpu_s_per_record;
    let scan = input_bytes as f64 / spec.disk_bytes_per_s;
    SimClock {
        seconds: cpu + scan,
    }
}

/// Convenience: speedup of a simulated distributed run over the
/// sequential baseline.
pub fn speedup(sequential: SimClock, distributed: SimClock) -> f64 {
    sequential.seconds / distributed.seconds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StageStats;

    fn job(records: u64, shuffled: u64) -> JobStats {
        let mut j = JobStats::default();
        let mut input = StageStats::new(StageKind::Input, "in");
        input.records_out = records;
        input.bytes_out = records * 40;
        j.stages.push(input);
        let mut m = StageStats::new(StageKind::Map, "map");
        m.records_in = records;
        m.records_out = records;
        m.bytes_out = records * 48;
        j.stages.push(m);
        let mut r = StageStats::new(StageKind::Shuffle, "reduce");
        r.records_in = records;
        r.records_out = 100;
        r.bytes_shuffled = shuffled;
        j.stages.push(r);
        j
    }

    #[test]
    fn parallelism_wins_at_scale() {
        // 2 billion records (75 GB of words): the cluster should beat one
        // core by an order of magnitude.
        let records = 2_000_000_000u64;
        let stats = job(records, 100 * 48);
        let spec = ClusterSpec::paper();
        let seq = simulate_sequential(records, records * 40, &spec);
        let dist = simulate_job(&stats, &spec, Framework::Spark);
        let s = speedup(seq, dist);
        assert!(s > 10.0 && s < 80.0, "speedup {s}");
    }

    #[test]
    fn overheads_dominate_at_tiny_scale() {
        let stats = job(1000, 100);
        let spec = ClusterSpec::paper();
        let seq = simulate_sequential(1000, 1000 * 40, &spec);
        let dist = simulate_job(&stats, &spec, Framework::Spark);
        assert!(dist.seconds > seq.seconds, "tiny jobs shouldn't benefit");
    }

    #[test]
    fn framework_ordering_matches_figure_7a() {
        let records = 1_000_000_000u64;
        let stats = job(records, records / 100 * 48);
        let spec = ClusterSpec::paper();
        let spark = simulate_job(&stats, &spec, Framework::Spark).seconds;
        let hadoop = simulate_job(&stats, &spec, Framework::Hadoop).seconds;
        let flink = simulate_job(&stats, &spec, Framework::Flink).seconds;
        assert!(hadoop > spark, "hadoop {hadoop} vs spark {spark}");
        assert!(hadoop > flink);
        // Spark and Flink are close; both beat Hadoop by a wide margin.
        assert!(hadoop / spark > 1.3);
    }

    #[test]
    fn skew_stretches_shuffles() {
        let stats = job(1_000_000_000, 5_000_000_000);
        let spec = ClusterSpec::paper();
        let flat = simulate_job(&stats, &spec, Framework::Spark).seconds;
        // Stage order in `job`: input, map, shuffle. A single hot key
        // (share = 1.0) serializes the whole shuffle.
        let hot = simulate_job_with_skew(&stats, &[0.0, 0.0, 1.0], &spec, Framework::Spark).seconds;
        assert!(hot > flat * 5.0, "hot {hot} vs flat {flat}");
        // A perfectly uniform spread (share = 1/cores) prices like the
        // unskewed job.
        let uniform = simulate_job_with_skew(
            &stats,
            &[0.0, 0.0, 1.0 / spec.total_cores()],
            &spec,
            Framework::Spark,
        )
        .seconds;
        assert!(
            (uniform - flat).abs() / flat < 0.05,
            "uniform {uniform} vs flat {flat}"
        );
        // Empty skew slice = the plain simulator, bit-identical.
        let empty = simulate_job_with_skew(&stats, &[], &spec, Framework::Spark).seconds;
        assert_eq!(empty, flat);
    }

    #[test]
    fn more_shuffle_is_slower() {
        let spec = ClusterSpec::paper();
        let small = simulate_job(&job(1_000_000_000, 30_000_000), &spec, Framework::Spark);
        let large = simulate_job(&job(1_000_000_000, 58_000_000_000), &spec, Framework::Spark);
        // Table 4: WC1 (30 MB shuffle) = 254 s vs WC2 (58 GB) = 2627 s —
        // an order of magnitude.
        assert!(large.seconds / small.seconds > 5.0);
    }
}
