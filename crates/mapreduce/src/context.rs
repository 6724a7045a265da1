//! Engine context: worker pool configuration and stage accounting.

use parking_lot::Mutex;
use std::sync::Arc;

use crate::stats::{JobStats, StageStats};

/// Shared execution context for a job — the analogue of a `SparkContext`.
///
/// The context fixes local parallelism (worker threads and partition
/// count) and accumulates [`JobStats`] as stages execute. Cluster-scale
/// timing is derived later by [`crate::sim`] from those stats; the local
/// thread count only affects real wall-clock, not the simulated numbers.
#[derive(Debug)]
pub struct Context {
    /// Worker threads used for real execution.
    pub workers: usize,
    /// Default number of partitions for new datasets.
    pub default_partitions: usize,
    stats: Mutex<JobStats>,
}

impl Context {
    pub fn new() -> Arc<Context> {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Context::with_parallelism(cores.min(8), cores.min(8) * 2)
    }

    pub fn with_parallelism(workers: usize, default_partitions: usize) -> Arc<Context> {
        Arc::new(Context {
            workers: workers.max(1),
            default_partitions: default_partitions.max(1),
            stats: Mutex::new(JobStats::default()),
        })
    }

    /// Record a completed stage.
    pub fn record_stage(&self, stage: StageStats) {
        self.stats.lock().stages.push(stage);
    }

    /// Snapshot the statistics recorded so far.
    pub fn stats(&self) -> JobStats {
        self.stats.lock().clone()
    }

    /// Clear recorded statistics (between benchmark runs).
    pub fn reset_stats(&self) {
        self.stats.lock().stages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StageKind;

    #[test]
    fn records_and_resets_stages() {
        let ctx = Context::with_parallelism(2, 4);
        ctx.record_stage(StageStats::new(StageKind::Map, "m1"));
        ctx.record_stage(StageStats::new(StageKind::Shuffle, "r1"));
        assert_eq!(ctx.stats().stage_count(), 2);
        ctx.reset_stats();
        assert_eq!(ctx.stats().stage_count(), 0);
    }

    #[test]
    fn parallelism_is_at_least_one() {
        let ctx = Context::with_parallelism(0, 0);
        assert_eq!(ctx.workers, 1);
        assert_eq!(ctx.default_partitions, 1);
    }
}
