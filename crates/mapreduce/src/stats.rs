//! Per-stage execution statistics.
//!
//! Appendix E.3 of the paper establishes that the amount of data *emitted*
//! in the map phase and *shuffled* across the network are the dominant
//! runtime drivers for MapReduce jobs (Table 4). The engine therefore
//! accounts both quantities exactly, per stage, and the cluster simulator
//! prices them.

use std::fmt;

/// What kind of work a stage performs — determines how the simulator
/// prices it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Narrow transformation (map/filter/flatMap): no shuffle.
    Map,
    /// Shuffling aggregation (reduceByKey/groupByKey/distinct).
    Shuffle,
    /// Join of two datasets (shuffles both sides).
    Join,
    /// Data ingestion (parallelize / HDFS read).
    Input,
    /// Result collection back to the driver.
    Collect,
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StageKind::Map => "map",
            StageKind::Shuffle => "shuffle",
            StageKind::Join => "join",
            StageKind::Input => "input",
            StageKind::Collect => "collect",
        };
        write!(f, "{s}")
    }
}

/// Statistics for one executed stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    pub kind: StageKind,
    pub label: String,
    pub records_in: u64,
    pub records_out: u64,
    /// Bytes produced by the stage (the map-phase "emitted" volume).
    pub bytes_out: u64,
    /// Bytes that crossed the (simulated) network in a shuffle.
    pub bytes_shuffled: u64,
    /// Boxed `Value` materializations the stage performed (λ temporaries,
    /// fallback combines). The buffer-backed data plane drives this toward
    /// zero on numeric workloads; the boxed plane reports zero (it does
    /// not instrument itself) — compare `bytes_moved` instead.
    pub value_allocs: u64,
    /// Physical bytes the stage copied between partition buffers (the
    /// shuffle byte-move volume, as opposed to the *semantic*
    /// `bytes_shuffled` the cost model prices).
    pub bytes_moved: u64,
    /// High-water mark of any partition arena used by the stage
    /// (max over partitions — deterministic across worker counts).
    pub arena_hwm_bytes: u64,
    /// Stage was served from a cache cut-point instead of recomputed; the
    /// cluster simulator charges nothing for it.
    pub cached: bool,
}

impl StageStats {
    pub fn new(kind: StageKind, label: impl Into<String>) -> StageStats {
        StageStats {
            kind,
            label: label.into(),
            records_in: 0,
            records_out: 0,
            bytes_out: 0,
            bytes_shuffled: 0,
            value_allocs: 0,
            bytes_moved: 0,
            arena_hwm_bytes: 0,
            cached: false,
        }
    }

    /// A zero-cost marker for a stage whose result came from a cache.
    pub fn cache_hit(kind: StageKind, label: impl Into<String>, records_out: u64) -> StageStats {
        let mut s = StageStats::new(kind, label);
        s.records_out = records_out;
        s.cached = true;
        s
    }
}

/// Statistics for a whole job: an ordered list of stages.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobStats {
    pub stages: Vec<StageStats>,
}

impl JobStats {
    pub fn total_emitted_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.bytes_out).sum()
    }

    pub fn total_shuffled_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.bytes_shuffled).sum()
    }

    pub fn total_records_in(&self) -> u64 {
        self.stages.iter().map(|s| s.records_in).sum()
    }

    /// Physical bytes copied between partition buffers across all stages.
    pub fn total_bytes_moved(&self) -> u64 {
        self.stages.iter().map(|s| s.bytes_moved).sum()
    }

    /// Boxed `Value` materializations across all stages.
    pub fn total_value_allocs(&self) -> u64 {
        self.stages.iter().map(|s| s.value_allocs).sum()
    }

    /// Peak partition-arena footprint over the whole job.
    pub fn max_arena_hwm_bytes(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.arena_hwm_bytes)
            .max()
            .unwrap_or(0)
    }

    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    pub fn shuffle_count(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| matches!(s.kind, StageKind::Shuffle | StageKind::Join))
            .count()
    }

    /// Linearly scale all counters — used to extrapolate a laptop-sized
    /// measurement run to the paper's dataset sizes before simulation.
    pub fn scaled(&self, factor: f64) -> JobStats {
        let scale = |x: u64| ((x as f64) * factor).round() as u64;
        JobStats {
            stages: self
                .stages
                .iter()
                .map(|s| StageStats {
                    kind: s.kind,
                    label: s.label.clone(),
                    records_in: scale(s.records_in),
                    records_out: scale(s.records_out),
                    bytes_out: scale(s.bytes_out),
                    bytes_shuffled: scale(s.bytes_shuffled),
                    value_allocs: scale(s.value_allocs),
                    bytes_moved: scale(s.bytes_moved),
                    // Peak arena usage scales with partition size.
                    arena_hwm_bytes: scale(s.arena_hwm_bytes),
                    cached: s.cached,
                })
                .collect(),
        }
    }
}

impl fmt::Display for JobStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<24} {:>12} {:>12} {:>14} {:>14} {:>12} {:>12} {:>10}",
            "stage",
            "records_in",
            "records_out",
            "bytes_out",
            "bytes_shuffled",
            "bytes_moved",
            "allocs",
            "arena_hwm"
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "{:<24} {:>12} {:>12} {:>14} {:>14} {:>12} {:>12} {:>10}",
                format!("{} [{}]", s.label, s.kind),
                s.records_in,
                s.records_out,
                s.bytes_out,
                s.bytes_shuffled,
                s.bytes_moved,
                s.value_allocs,
                s.arena_hwm_bytes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_stages() {
        let mut job = JobStats::default();
        let mut s1 = StageStats::new(StageKind::Map, "m");
        s1.bytes_out = 100;
        let mut s2 = StageStats::new(StageKind::Shuffle, "r");
        s2.bytes_out = 40;
        s2.bytes_shuffled = 30;
        job.stages.push(s1);
        job.stages.push(s2);
        assert_eq!(job.total_emitted_bytes(), 140);
        assert_eq!(job.total_shuffled_bytes(), 30);
        assert_eq!(job.shuffle_count(), 1);
    }

    #[test]
    fn scaling_is_linear() {
        let mut job = JobStats::default();
        let mut s = StageStats::new(StageKind::Map, "m");
        s.records_in = 10;
        s.bytes_out = 100;
        job.stages.push(s);
        let big = job.scaled(2.5);
        assert_eq!(big.stages[0].records_in, 25);
        assert_eq!(big.stages[0].bytes_out, 250);
    }
}
