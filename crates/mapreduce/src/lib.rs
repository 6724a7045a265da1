//! `mapreduce` — the MapReduce execution substrate.
//!
//! The paper evaluates Casper on Spark, Hadoop and Flink running on a
//! 10-node AWS cluster. Neither those frameworks nor the cluster exist in
//! this environment, so this crate builds the equivalent substrate from
//! scratch:
//!
//! * [`bufrdd`] — the data plane every plan runs on: key/value records in
//!   buffer-backed partitions (`parallelize`, `mapPartitions`,
//!   `reduceByKey`, `groupByKey` + ordered fold, `join`, `collect`),
//!   executed **for real** with a worker pool and a byte-move shuffle, so
//!   results are actual computations that tests can check.
//! * [`stats`] — per-stage accounting of records and bytes emitted and
//!   shuffled. These are the quantities Appendix E.3 shows determine
//!   MapReduce runtime, and the inputs to the cluster-time simulator. The
//!   runtime monitor (`codegen::monitor`) writes its first-k sample
//!   profile in the same [`StageStats`], so a prediction and the stages
//!   an execution recorded are priced alike.
//! * [`framework`] — Spark / Hadoop / Flink execution profiles (per-stage
//!   overheads, pipelining, materialisation costs).
//! * [`sim`] — a deterministic cluster-time model that converts stage
//!   statistics into simulated wall-clock seconds on a configurable
//!   cluster (default: the paper's 10× m3.2xlarge, 8 vCPUs, 72 worker
//!   cores). Both the distributed runtimes and the sequential baseline
//!   come from this model, so speedup *shapes* are reproducible and
//!   machine-independent, while correctness is established by the real
//!   execution.

pub mod bufrdd;
pub mod context;
pub mod framework;
pub mod sim;
pub mod stats;

pub use bufrdd::{BufRdd, PassStats};
pub use context::Context;
pub use framework::Framework;
pub use sim::{ClusterSpec, SimClock};
pub use stats::{JobStats, StageKind, StageStats};
