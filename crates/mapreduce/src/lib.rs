//! `mapreduce` — the MapReduce execution substrate.
//!
//! The paper evaluates Casper on Spark, Hadoop and Flink running on a
//! 10-node AWS cluster. Neither those frameworks nor the cluster exist in
//! this environment, so this crate builds the equivalent substrate from
//! scratch:
//!
//! * [`rdd`] — an RDD-style dataset API (`map`, `flatMap`, `filter`,
//!   `mapToPair`, `reduceByKey`, `groupByKey`, `join`, `aggregate`, ...)
//!   executed **for real** over partitioned in-memory data with a worker
//!   pool, so results are actual computations that tests can check.
//! * [`bufrdd`] — the buffer-backed data plane the generated plans run
//!   on: arena/columnar partitions with a byte-move shuffle.
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
pub mod rdd;
pub mod sim;
pub mod stats;

pub use bufrdd::{BufRdd, PassStats};
pub use context::Context;
pub use framework::Framework;
pub use rdd::{PairRdd, Rdd};
pub use sim::{ClusterSpec, SimClock};
pub use stats::{JobStats, StageKind, StageStats};

/// Serialized-size model for records flowing through the engine.
///
/// Sizes follow the paper's constants (Figure 8(d)): strings 40 bytes,
/// booleans 10, ints 4, doubles 8, pairs/tuples 8 bytes of overhead.
pub trait Payload: Clone + Send + Sync + 'static {
    fn payload_bytes(&self) -> u64 {
        8
    }
}

impl Payload for i64 {
    fn payload_bytes(&self) -> u64 {
        4
    }
}
impl Payload for i32 {
    fn payload_bytes(&self) -> u64 {
        4
    }
}
impl Payload for u64 {
    fn payload_bytes(&self) -> u64 {
        4
    }
}
impl Payload for usize {
    fn payload_bytes(&self) -> u64 {
        4
    }
}
impl Payload for f64 {
    fn payload_bytes(&self) -> u64 {
        8
    }
}
impl Payload for bool {
    fn payload_bytes(&self) -> u64 {
        10
    }
}
impl Payload for String {
    fn payload_bytes(&self) -> u64 {
        40
    }
}
impl Payload for std::sync::Arc<str> {
    fn payload_bytes(&self) -> u64 {
        40
    }
}
impl Payload for () {
    fn payload_bytes(&self) -> u64 {
        1
    }
}

impl Payload for seqlang::Value {
    fn payload_bytes(&self) -> u64 {
        self.size_bytes()
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn payload_bytes(&self) -> u64 {
        8 + self.0.payload_bytes() + self.1.payload_bytes()
    }
}

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    fn payload_bytes(&self) -> u64 {
        8 + self.0.payload_bytes() + self.1.payload_bytes() + self.2.payload_bytes()
    }
}

macro_rules! tuple_payload {
    ($(($($name:ident . $idx:tt),+))+) => {$(
        impl<$($name: Payload),+> Payload for ($($name,)+) {
            fn payload_bytes(&self) -> u64 {
                8 $(+ self.$idx.payload_bytes())+
            }
        }
    )+};
}

tuple_payload! {
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

impl<T: Payload> Payload for Vec<T> {
    fn payload_bytes(&self) -> u64 {
        8 + self.iter().map(Payload::payload_bytes).sum::<u64>()
    }
}

impl<T: Payload> Payload for Option<T> {
    fn payload_bytes(&self) -> u64 {
        1 + self.as_ref().map(Payload::payload_bytes).unwrap_or(0)
    }
}
