//! RDD-style distributed datasets, executed for real over partitioned
//! in-memory data with a worker pool.
//!
//! The API mirrors the subset of Spark's RDD API that Casper's code
//! generator targets (Appendix C): `map`, `flatMap`, `filter`,
//! `mapToPair`, `mapValues`, `reduceByKey`, `groupByKey`, `reduce`,
//! `join`, `aggregate`, `count`, `collect`, `cache`. The same API serves
//! as the "Hadoop" and "Flink" backends — per the paper those differ in
//! their execution profiles, which [`crate::sim`] prices separately.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use casper_runtime::Priority;

use crate::context::Context;
use crate::stats::{StageKind, StageStats};
use crate::Payload;

/// A partitioned, immutable dataset.
#[derive(Clone)]
pub struct Rdd<T> {
    pub(crate) ctx: Arc<Context>,
    pub(crate) partitions: Arc<Vec<Vec<T>>>,
}

/// A dataset of key/value pairs, unlocked for shuffle operations.
pub type PairRdd<K, V> = Rdd<(K, V)>;

/// Run `f` over every partition (any `Sync` per-partition container) in
/// parallel on the context's worker pool, collecting one result per
/// partition in partition order. Shared by the boxed `Rdd` and the
/// buffer-backed [`crate::bufrdd::BufRdd`] data planes.
pub(crate) fn par_parts<P, U, F>(ctx: &Context, parts: &[P], f: F) -> Vec<U>
where
    P: Sync,
    U: Send,
    F: Fn(&P) -> U + Send + Sync,
{
    let n = parts.len();
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    if n == 0 {
        return Vec::new();
    }
    let workers = ctx.workers.min(n);
    if workers <= 1 {
        return parts.iter().map(f).collect();
    }
    let slots: Vec<parking_lot::Mutex<&mut Option<U>>> =
        out.iter_mut().map(parking_lot::Mutex::new).collect();
    casper_runtime::run_indexed(workers, Priority::Low, n, &|i| {
        let result = f(&parts[i]);
        **slots[i].lock() = Some(result);
    });
    out.into_iter()
        .map(|o| o.expect("partition processed"))
        .collect()
}

/// Run `f` over every partition in parallel on the context's worker pool,
/// collecting one result per partition in partition order.
fn par_map_partitions<T, U, F>(ctx: &Context, parts: &[Vec<T>], f: F) -> Vec<U>
where
    T: Send + Sync,
    U: Send,
    F: Fn(&[T]) -> U + Send + Sync,
{
    par_parts(ctx, parts, |p| f(p))
}

/// Like [`par_map_partitions`], but each partition is *moved* into `f` —
/// used where the serial code would consume its input (the shuffle's
/// bucketing pass) so parallelism doesn't force per-record clones.
pub(crate) fn par_consume_partitions<T, U, F>(ctx: &Context, parts: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Send + Sync,
{
    let n = parts.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = ctx.workers.min(n);
    if workers <= 1 {
        return parts.into_iter().map(f).collect();
    }
    let inputs: Vec<parking_lot::Mutex<Option<T>>> = parts
        .into_iter()
        .map(|p| parking_lot::Mutex::new(Some(p)))
        .collect();
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let slots: Vec<parking_lot::Mutex<&mut Option<U>>> =
        out.iter_mut().map(parking_lot::Mutex::new).collect();
    casper_runtime::run_indexed(workers, Priority::Low, n, &|i| {
        let input = inputs[i].lock().take().expect("partition taken once");
        let result = f(input);
        **slots[i].lock() = Some(result);
    });
    out.into_iter()
        .map(|o| o.expect("partition processed"))
        .collect()
}

fn hash_key<K: Hash>(k: &K, buckets: usize) -> usize {
    let mut h = DefaultHasher::new();
    k.hash(&mut h);
    (h.finish() as usize) % buckets
}

/// Unwrap a `Result` whose error type is uninhabited (the infallible
/// instantiations of the `try_*` operator cores).
fn infallible<T>(r: std::result::Result<T, std::convert::Infallible>) -> T {
    match r {
        Ok(t) => t,
        Err(e) => match e {},
    }
}

/// Hash-partition key/value records into `buckets` groups, bucketing each
/// input partition on the worker pool and concatenating per bucket in
/// partition order — byte-identical to a serial single-threaded pass.
/// Returns the buckets and the shuffled-byte volume.
fn parallel_shuffle<K, V>(
    ctx: &Context,
    records: Vec<Vec<(K, V)>>,
    buckets: usize,
) -> (Vec<Vec<(K, V)>>, u64)
where
    K: Payload + Hash,
    V: Payload,
{
    type Bucketed<K, V> = (Vec<Vec<(K, V)>>, u64);
    let bucketed: Vec<Bucketed<K, V>> = par_consume_partitions(ctx, records, |part| {
        let mut local: Vec<Vec<(K, V)>> = (0..buckets).map(|_| Vec::new()).collect();
        let mut moved = 0u64;
        for (k, v) in part {
            moved += 8 + k.payload_bytes() + v.payload_bytes();
            local[hash_key(&k, buckets)].push((k, v));
        }
        (local, moved)
    });
    let mut out: Vec<Vec<(K, V)>> = (0..buckets).map(|_| Vec::new()).collect();
    let mut moved_total = 0u64;
    for (local, moved) in bucketed {
        moved_total += moved;
        for (bucket, mut part) in out.iter_mut().zip(local) {
            bucket.append(&mut part);
        }
    }
    (out, moved_total)
}

impl<T: Payload> Rdd<T> {
    /// Create a dataset from a vector, split into the context's default
    /// partition count (the analogue of `sc.parallelize`).
    pub fn parallelize(ctx: &Arc<Context>, data: Vec<T>) -> Rdd<T> {
        let nparts = ctx.default_partitions;
        let mut stage = StageStats::new(StageKind::Input, "parallelize");
        stage.records_out = data.len() as u64;
        stage.bytes_out = data.iter().map(Payload::payload_bytes).sum();
        ctx.record_stage(stage);

        let per = data.len().div_ceil(nparts).max(1);
        let mut partitions = Vec::with_capacity(nparts);
        let mut it = data.into_iter();
        loop {
            let chunk: Vec<T> = it.by_ref().take(per).collect();
            if chunk.is_empty() {
                break;
            }
            partitions.push(chunk);
        }
        if partitions.is_empty() {
            partitions.push(Vec::new());
        }
        Rdd {
            ctx: ctx.clone(),
            partitions: Arc::new(partitions),
        }
    }

    pub fn context(&self) -> &Arc<Context> {
        &self.ctx
    }

    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    pub fn count(&self) -> u64 {
        self.partitions.iter().map(|p| p.len() as u64).sum()
    }

    fn with_partitions(&self, partitions: Vec<Vec<T>>) -> Rdd<T> {
        Rdd {
            ctx: self.ctx.clone(),
            partitions: Arc::new(partitions),
        }
    }

    fn record_narrow<U: Payload>(&self, label: &str, out: &[Vec<U>]) {
        let mut stage = StageStats::new(StageKind::Map, label);
        stage.records_in = self.count();
        stage.records_out = out.iter().map(|p| p.len() as u64).sum();
        stage.bytes_out = out
            .iter()
            .flat_map(|p| p.iter())
            .map(Payload::payload_bytes)
            .sum();
        self.ctx.record_stage(stage);
    }

    /// Re-bind a dataset to another context without copying its data —
    /// used when a cached cut-point is served to a later execution whose
    /// stats should accumulate in the caller's context.
    pub fn bind_context(&self, ctx: &Arc<Context>) -> Rdd<T> {
        Rdd {
            ctx: ctx.clone(),
            partitions: self.partitions.clone(),
        }
    }

    /// `mapPartitions`: one fused pass over each partition, in parallel on
    /// the worker pool. This is the primitive the plan compiler targets —
    /// a whole chain of narrow operators runs as a single per-partition
    /// traversal instead of one materialized dataset per operator.
    ///
    /// Errors propagate deterministically: the lowest-indexed failing
    /// partition's error is returned regardless of worker count, and no
    /// stage is recorded for a failed pass.
    pub fn map_partitions<U, E, F>(&self, label: &str, f: F) -> std::result::Result<Rdd<U>, E>
    where
        U: Payload,
        E: Send,
        F: Fn(&[T]) -> std::result::Result<Vec<U>, E> + Send + Sync,
    {
        let results = par_map_partitions(&self.ctx, &self.partitions, |p| f(p));
        let mut parts = Vec::with_capacity(results.len());
        for r in results {
            parts.push(r?);
        }
        self.record_narrow(label, &parts);
        Ok(Rdd {
            ctx: self.ctx.clone(),
            partitions: Arc::new(parts),
        })
    }

    /// Fallible [`map`](Rdd::map): the first failing record's error (in
    /// partition order) aborts the stage.
    pub fn try_map<U, E>(
        &self,
        f: impl Fn(&T) -> std::result::Result<U, E> + Send + Sync,
    ) -> std::result::Result<Rdd<U>, E>
    where
        U: Payload,
        E: Send,
    {
        self.map_partitions("map", move |p| p.iter().map(&f).collect())
    }

    /// Fallible [`flat_map_to_pair`](Rdd::flat_map_to_pair).
    pub fn try_flat_map_to_pair<K, V, E>(
        &self,
        f: impl Fn(&T) -> std::result::Result<Vec<(K, V)>, E> + Send + Sync,
    ) -> std::result::Result<PairRdd<K, V>, E>
    where
        K: Payload,
        V: Payload,
        E: Send,
    {
        self.map_partitions("flatMapToPair", move |p| {
            let mut out = Vec::with_capacity(p.len());
            for t in p {
                out.extend(f(t)?);
            }
            Ok(out)
        })
    }

    /// One-to-one transformation.
    pub fn map<U: Payload>(&self, f: impl Fn(&T) -> U + Send + Sync) -> Rdd<U> {
        let parts = par_map_partitions(&self.ctx, &self.partitions, |p| p.iter().map(&f).collect());
        self.record_narrow("map", &parts);
        Rdd {
            ctx: self.ctx.clone(),
            partitions: Arc::new(parts),
        }
    }

    /// One-to-many transformation.
    pub fn flat_map<U: Payload>(&self, f: impl Fn(&T) -> Vec<U> + Send + Sync) -> Rdd<U> {
        let parts = par_map_partitions(&self.ctx, &self.partitions, |p| {
            p.iter().flat_map(&f).collect()
        });
        self.record_narrow("flatMap", &parts);
        Rdd {
            ctx: self.ctx.clone(),
            partitions: Arc::new(parts),
        }
    }

    /// Keep records satisfying the predicate.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync) -> Rdd<T> {
        let parts = par_map_partitions(&self.ctx, &self.partitions, |p| {
            p.iter().filter(|t| f(t)).cloned().collect()
        });
        self.record_narrow("filter", &parts);
        self.with_partitions(parts)
    }

    /// Map each record to a key/value pair (`mapToPair`).
    pub fn map_to_pair<K: Payload, V: Payload>(
        &self,
        f: impl Fn(&T) -> (K, V) + Send + Sync,
    ) -> PairRdd<K, V> {
        let parts = par_map_partitions(&self.ctx, &self.partitions, |p| p.iter().map(&f).collect());
        self.record_narrow("mapToPair", &parts);
        Rdd {
            ctx: self.ctx.clone(),
            partitions: Arc::new(parts),
        }
    }

    /// Map each record to any number of key/value pairs (`flatMapToPair`).
    pub fn flat_map_to_pair<K: Payload, V: Payload>(
        &self,
        f: impl Fn(&T) -> Vec<(K, V)> + Send + Sync,
    ) -> PairRdd<K, V> {
        let parts = par_map_partitions(&self.ctx, &self.partitions, |p| {
            p.iter().flat_map(&f).collect()
        });
        self.record_narrow("flatMapToPair", &parts);
        Rdd {
            ctx: self.ctx.clone(),
            partitions: Arc::new(parts),
        }
    }

    /// Collect all records to the driver, preserving partition order.
    pub fn collect(&self) -> Vec<T> {
        let mut stage = StageStats::new(StageKind::Collect, "collect");
        stage.records_in = self.count();
        stage.records_out = stage.records_in;
        self.ctx.record_stage(stage);
        self.partitions
            .iter()
            .flat_map(|p| p.iter().cloned())
            .collect()
    }

    /// Reduce all records to one with a commutative/associative function
    /// (tree-reduce: per-partition then across partitions).
    pub fn reduce(&self, f: impl Fn(&T, &T) -> T + Send + Sync) -> Option<T> {
        let partials: Vec<T> = par_map_partitions(&self.ctx, &self.partitions, |p| {
            let mut it = p.iter();
            match it.next() {
                Some(first) => vec![it.fold(first.clone(), |acc, x| f(&acc, x))],
                None => Vec::new(),
            }
        })
        .into_iter()
        .flatten()
        .collect();
        let mut stage = StageStats::new(StageKind::Shuffle, "reduce");
        stage.records_in = self.count();
        stage.records_out = 1.min(partials.len()) as u64;
        stage.bytes_shuffled = partials.iter().map(Payload::payload_bytes).sum();
        stage.bytes_out = stage.bytes_shuffled;
        self.ctx.record_stage(stage);
        let mut it = partials.into_iter();
        let first = it.next()?;
        Some(it.fold(first, |acc, x| f(&acc, &x)))
    }

    /// Spark-style `aggregate`: per-partition fold with `seq`, then a
    /// cross-partition combine with `comb`.
    pub fn aggregate<A: Payload>(
        &self,
        zero: A,
        seq: impl Fn(A, &T) -> A + Send + Sync,
        comb: impl Fn(A, A) -> A + Send + Sync,
    ) -> A {
        let z = zero.clone();
        let partials: Vec<A> = par_map_partitions(&self.ctx, &self.partitions, move |p| {
            vec![p.iter().fold(z.clone(), &seq)]
        })
        .into_iter()
        .flatten()
        .collect();
        let mut stage = StageStats::new(StageKind::Shuffle, "aggregate");
        stage.records_in = self.count();
        stage.records_out = 1;
        stage.bytes_shuffled = partials.iter().map(Payload::payload_bytes).sum();
        stage.bytes_out = stage.bytes_shuffled;
        self.ctx.record_stage(stage);
        partials.into_iter().fold(zero, comb)
    }

    /// Marks the dataset as cached. Execution here is eager, so the
    /// partitions are already materialized and shared by `Arc` — holding
    /// the returned handle and reusing it *is* Spark's `cache()`.
    /// Re-running a producing pipeline against unchanged inputs is what
    /// recomputes; plans avoid that via `codegen`'s `PlanCache`, which
    /// memoizes stage cut-points across executions and records zero-cost
    /// [`StageStats::cache_hit`] markers the simulator skips.
    pub fn cache(&self) -> Rdd<T> {
        self.clone()
    }
}

impl<K, V> PairRdd<K, V>
where
    K: Payload + Eq + Hash + Ord,
    V: Payload,
{
    /// Shuffle: hash-partition records by key into `buckets` groups in
    /// parallel on the worker pool, charging shuffle bytes for everything
    /// that moves.
    fn shuffle_by_key(&self, records: Vec<Vec<(K, V)>>, buckets: usize) -> (Vec<Vec<(K, V)>>, u64) {
        parallel_shuffle(&self.ctx, records, buckets)
    }

    /// `reduceByKey` with map-side combining (the default, as in Spark —
    /// Table 4's WC 1).
    pub fn reduce_by_key(&self, f: impl Fn(&V, &V) -> V + Send + Sync) -> PairRdd<K, V> {
        infallible(self.reduce_by_key_core(&|a, b| Ok(f(a, b)), true))
    }

    /// `reduceByKey` with combiners switched off (Table 4's WC 2): every
    /// record crosses the shuffle.
    pub fn reduce_by_key_no_combine(&self, f: impl Fn(&V, &V) -> V + Send + Sync) -> PairRdd<K, V> {
        infallible(self.reduce_by_key_core(&|a, b| Ok(f(a, b)), false))
    }

    /// Fallible `reduceByKey` (map-side combining on): the combiner may
    /// fail, and the lowest-indexed failing partition's error aborts the
    /// stage deterministically at any worker count.
    pub fn try_reduce_by_key<E: Send>(
        &self,
        f: impl Fn(&V, &V) -> std::result::Result<V, E> + Send + Sync,
    ) -> std::result::Result<PairRdd<K, V>, E> {
        self.reduce_by_key_core(&f, true)
    }

    fn reduce_by_key_core<E: Send>(
        &self,
        f: &(impl Fn(&V, &V) -> std::result::Result<V, E> + Send + Sync),
        combine: bool,
    ) -> std::result::Result<PairRdd<K, V>, E> {
        // Fold one partition's records into per-key accumulators,
        // preserving first-appearance key order.
        let fold = |p: &[(K, V)]| -> std::result::Result<Vec<(K, V)>, E> {
            let mut acc: HashMap<&K, V> = HashMap::new();
            let mut order: Vec<&K> = Vec::new();
            for (k, v) in p {
                match acc.get_mut(k) {
                    Some(slot) => *slot = f(slot, v)?,
                    None => {
                        order.push(k);
                        acc.insert(k, v.clone());
                    }
                }
            }
            Ok(order
                .into_iter()
                .map(|k| (k.clone(), acc.remove(k).expect("present")))
                .collect())
        };

        let records_in = self.count();
        // Map-side combine.
        let pre: Vec<Vec<(K, V)>> = if combine {
            let folded = par_map_partitions(&self.ctx, &self.partitions, fold);
            let mut parts = Vec::with_capacity(folded.len());
            for r in folded {
                parts.push(r?);
            }
            parts
        } else {
            self.partitions.iter().cloned().collect()
        };
        let buckets = self.partitions.len().max(1);
        let (shuffled, moved) = self.shuffle_by_key(pre, buckets);
        // Reduce side.
        let reduced = par_map_partitions(&self.ctx, &shuffled, |p| {
            let mut out = fold(p)?;
            out.sort_by(|a, b| a.0.cmp(&b.0));
            Ok(out)
        });
        let mut parts: Vec<Vec<(K, V)>> = Vec::with_capacity(reduced.len());
        for r in reduced {
            parts.push(r?);
        }
        let mut stage = StageStats::new(
            StageKind::Shuffle,
            if combine {
                "reduceByKey"
            } else {
                "reduceByKey(no-combine)"
            },
        );
        stage.records_in = records_in;
        stage.records_out = parts.iter().map(|p| p.len() as u64).sum();
        stage.bytes_shuffled = moved;
        stage.bytes_out = parts
            .iter()
            .flat_map(|p| p.iter())
            .map(|(k, v)| 8 + k.payload_bytes() + v.payload_bytes())
            .sum();
        self.ctx.record_stage(stage);
        Ok(Rdd {
            ctx: self.ctx.clone(),
            partitions: Arc::new(parts),
        })
    }

    /// `groupByKey`: shuffle everything, produce per-key value vectors in
    /// arrival order (the safe fallback for non-commutative reducers that
    /// Casper's code generator selects, §6.3).
    pub fn group_by_key(&self) -> PairRdd<K, Vec<V>> {
        let records_in = self.count();
        let buckets = self.partitions.len().max(1);
        let pre: Vec<Vec<(K, V)>> = self.partitions.iter().cloned().collect();
        let (shuffled, moved) = self.shuffle_by_key(pre, buckets);
        let parts: Vec<Vec<(K, Vec<V>)>> = par_map_partitions(&self.ctx, &shuffled, |p| {
            let mut order: Vec<&K> = Vec::new();
            let mut acc: HashMap<&K, Vec<V>> = HashMap::new();
            for (k, v) in p {
                acc.entry(k)
                    .or_insert_with(|| {
                        order.push(k);
                        Vec::new()
                    })
                    .push(v.clone());
            }
            let mut out: Vec<(K, Vec<V>)> = order
                .into_iter()
                .map(|k| (k.clone(), acc.remove(k).expect("present")))
                .collect();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        });
        let mut stage = StageStats::new(StageKind::Shuffle, "groupByKey");
        stage.records_in = records_in;
        stage.records_out = parts.iter().map(|p| p.len() as u64).sum();
        stage.bytes_shuffled = moved;
        stage.bytes_out = moved;
        self.ctx.record_stage(stage);
        Rdd {
            ctx: self.ctx.clone(),
            partitions: Arc::new(parts),
        }
    }

    /// `mapValues`: transform values, keys and partitioning unchanged.
    pub fn map_values<W: Payload>(&self, f: impl Fn(&V) -> W + Send + Sync) -> PairRdd<K, W> {
        let parts = par_map_partitions(&self.ctx, &self.partitions, |p| {
            p.iter().map(|(k, v)| (k.clone(), f(v))).collect()
        });
        self.record_narrow("mapValues", &parts);
        Rdd {
            ctx: self.ctx.clone(),
            partitions: Arc::new(parts),
        }
    }

    /// Inner equi-join: `(k,v) ⋈ (k,w) → (k,(v,w))`. Shuffles both sides.
    pub fn join<W: Payload>(&self, other: &PairRdd<K, W>) -> PairRdd<K, (V, W)> {
        let buckets = self.partitions.len().max(other.partitions.len()).max(1);
        let left: Vec<Vec<(K, V)>> = self.partitions.iter().cloned().collect();
        let right: Vec<Vec<(K, W)>> = other.partitions.iter().cloned().collect();
        let (lsh, lmoved) = self.shuffle_by_key(left, buckets);
        // Shuffle the right side with the same hash function.
        let (rsh, rmoved) = parallel_shuffle(&self.ctx, right, buckets);
        #[allow(clippy::type_complexity)]
        let zipped: Vec<Vec<(Vec<(K, V)>, Vec<(K, W)>)>> =
            lsh.into_iter().zip(rsh).map(|pair| vec![pair]).collect();
        let parts: Vec<Vec<(K, (V, W))>> = par_map_partitions(&self.ctx, &zipped, |pair_slice| {
            let mut out: Vec<(K, (V, W))> = Vec::new();
            for (lp, rp) in pair_slice {
                let mut index: HashMap<&K, Vec<&W>> = HashMap::new();
                for (k, w) in rp {
                    index.entry(k).or_default().push(w);
                }
                for (k, v) in lp {
                    if let Some(ws) = index.get(k) {
                        for w in ws {
                            out.push((k.clone(), (v.clone(), (*w).clone())));
                        }
                    }
                }
            }
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        });
        let records_in = self.count() + other.count();
        let mut stage = StageStats::new(StageKind::Join, "join");
        stage.records_in = records_in;
        stage.records_out = parts.iter().map(|p| p.len() as u64).sum();
        stage.bytes_shuffled = lmoved + rmoved;
        stage.bytes_out = parts
            .iter()
            .flat_map(|p| p.iter())
            .map(|(k, vw)| 8 + k.payload_bytes() + vw.payload_bytes())
            .sum();
        self.ctx.record_stage(stage);
        Rdd {
            ctx: self.ctx.clone(),
            partitions: Arc::new(parts),
        }
    }

    /// Collect into a key-sorted vector (deterministic driver-side view).
    pub fn collect_sorted(&self) -> Vec<(K, V)> {
        let mut all = self.collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Arc<Context> {
        Context::with_parallelism(4, 8)
    }

    #[test]
    fn parallelize_and_collect_roundtrip() {
        let c = ctx();
        let data: Vec<i64> = (0..100).collect();
        let rdd = Rdd::parallelize(&c, data.clone());
        assert_eq!(rdd.collect(), data);
        assert!(rdd.num_partitions() > 1);
    }

    #[test]
    fn map_filter_pipeline() {
        let c = ctx();
        let rdd = Rdd::parallelize(&c, (1i64..=10).collect());
        let out = rdd.map(|x| x * 2).filter(|x| *x > 10).collect();
        assert_eq!(out, vec![12, 14, 16, 18, 20]);
    }

    #[test]
    fn word_count_reduce_by_key() {
        let c = ctx();
        let words: Vec<String> = ["a", "b", "a", "c", "b", "a"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rdd = Rdd::parallelize(&c, words);
        let counts = rdd
            .map_to_pair(|w| (w.clone(), 1i64))
            .reduce_by_key(|a, b| a + b);
        let out = counts.collect_sorted();
        assert_eq!(out, vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 1)]);
    }

    #[test]
    fn reduce_by_key_with_and_without_combiners_agree() {
        let c = ctx();
        let pairs: Vec<(i64, i64)> = (0..1000).map(|i| (i % 7, 1)).collect();
        let rdd = Rdd::parallelize(&c, pairs);
        let with = rdd.reduce_by_key(|a, b| a + b).collect_sorted();
        let without = rdd.reduce_by_key_no_combine(|a, b| a + b).collect_sorted();
        assert_eq!(with, without);
    }

    #[test]
    fn combiners_shuffle_fewer_bytes() {
        let c1 = ctx();
        let pairs: Vec<(i64, i64)> = (0..10_000).map(|i| (i % 3, 1)).collect();
        let rdd = Rdd::parallelize(&c1, pairs.clone());
        c1.reset_stats();
        rdd.reduce_by_key(|a, b| a + b);
        let with = c1.stats().total_shuffled_bytes();

        c1.reset_stats();
        rdd.reduce_by_key_no_combine(|a, b| a + b);
        let without = c1.stats().total_shuffled_bytes();
        assert!(
            with * 10 < without,
            "combiners should cut shuffle by ~records/keys: {with} vs {without}"
        );
    }

    #[test]
    fn group_by_key_collects_all_values() {
        let c = ctx();
        let rdd = Rdd::parallelize(&c, vec![(1i64, 10i64), (2, 20), (1, 30)]);
        let grouped = rdd.group_by_key().collect_sorted();
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].0, 1);
        let mut vals = grouped[0].1.clone();
        vals.sort();
        assert_eq!(vals, vec![10, 30]);
    }

    #[test]
    fn join_produces_matching_pairs() {
        let c = ctx();
        let left = Rdd::parallelize(&c, vec![(1i64, "a".to_string()), (2, "b".to_string())]);
        let right = Rdd::parallelize(&c, vec![(1i64, 10i64), (1, 11), (3, 30)]);
        let joined = left.join(&right).collect_sorted();
        assert_eq!(joined.len(), 2);
        assert!(joined.iter().all(|(k, _)| *k == 1));
    }

    #[test]
    fn reduce_action() {
        let c = ctx();
        let rdd = Rdd::parallelize(&c, (1i64..=100).collect());
        assert_eq!(rdd.reduce(|a, b| a + b), Some(5050));
        let empty = Rdd::parallelize(&c, Vec::<i64>::new());
        assert_eq!(empty.reduce(|a, b| a + b), None);
    }

    #[test]
    fn aggregate_action() {
        let c = ctx();
        let rdd = Rdd::parallelize(&c, (1i64..=10).collect());
        // Count and sum in one pass.
        let (count, sum) = rdd.aggregate(
            (0i64, 0i64),
            |(c, s), x| (c + 1, s + x),
            |(c1, s1), (c2, s2)| (c1 + c2, s1 + s2),
        );
        assert_eq!((count, sum), (10, 55));
    }

    #[test]
    fn stats_track_stage_kinds() {
        let c = ctx();
        let rdd = Rdd::parallelize(&c, (0i64..50).collect());
        c.reset_stats();
        rdd.map_to_pair(|x| (x % 5, *x))
            .reduce_by_key(|a, b| a + b)
            .collect();
        let stats = c.stats();
        let kinds: Vec<StageKind> = stats.stages.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![StageKind::Map, StageKind::Shuffle, StageKind::Collect]
        );
        assert!(stats.total_shuffled_bytes() > 0);
    }

    #[test]
    fn flat_map_expands_records() {
        let c = ctx();
        let lines = vec!["a b".to_string(), "c d e".to_string()];
        let rdd = Rdd::parallelize(&c, lines);
        let words = rdd.flat_map(|l| l.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert_eq!(words.count(), 5);
    }

    #[test]
    fn map_values_preserves_keys() {
        let c = ctx();
        let rdd = Rdd::parallelize(&c, vec![(1i64, 2i64), (3, 4)]);
        let out = rdd.map_values(|v| v * 10).collect_sorted();
        assert_eq!(out, vec![(1, 20), (3, 40)]);
    }

    #[test]
    fn deterministic_across_partition_counts() {
        // The same reduceByKey result regardless of parallelism.
        let data: Vec<(i64, i64)> = (0..500).map(|i| (i % 13, i)).collect();
        let mut results = Vec::new();
        for parts in [1, 3, 16] {
            let c = Context::with_parallelism(4, parts);
            let rdd = Rdd::parallelize(&c, data.clone());
            results.push(rdd.reduce_by_key(|a, b| a + b).collect_sorted());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }
}
