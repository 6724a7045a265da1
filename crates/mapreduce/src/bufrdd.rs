//! Buffer-backed partitions: the data plane moves bytes, not boxed
//! `Value`s.
//!
//! [`BufRdd`] is a partitioned dataset of key/value records: each
//! partition owns a contiguous [`ValueBuf`] (tagged fixed-width cells with
//! string/boxed side arenas) instead of a `Vec<(Value, Value)>`. Narrow
//! passes read records through borrowed [`seqlang::buf::ValueRef`] views,
//! the shuffle scatters raw byte ranges between buffers, and
//! `reduceByKey` combines inline numeric cells in place — no per-record
//! heap traffic on the hot paths.
//!
//! Every operator gives the same result at any worker count: records are
//! bucketed by `DefaultHasher` over `Value::hash`, folded in
//! first-appearance order, emitted key-sorted, and errors are adjudicated
//! in partition order. Each stage records the semantic [`StageStats`]
//! bytes the cost model prices (8 bytes of framing plus every cell's
//! `Value::size_bytes`, per record) and, beside them, the physical
//! `bytes_moved`, boxed-`Value` materializations (`value_allocs`) and
//! partition-arena high-water marks.

use std::sync::Arc;

use seqlang::buf::{CellIndexMap, FastCombine, HashIndexMap, ValueBuf, TAG_BOOL};
use seqlang::value::Value;

use casper_runtime::Priority;

use crate::context::Context;
use crate::stats::{StageKind, StageStats};

/// Run `f` over every partition (any `Sync` per-partition container) in
/// parallel on the context's worker pool, collecting one result per
/// partition in partition order.
fn par_parts<P, U, F>(ctx: &Context, parts: &[P], f: F) -> Vec<U>
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

/// Instrumentation one fused map pass reports back to the stage record:
/// boxed-`Value` materializations it performed and the high-water mark of
/// any scratch arena it used.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassStats {
    pub allocs: u64,
    pub arena_hwm_bytes: u64,
}

/// A partitioned dataset of key/value records stored in contiguous
/// buffers. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct BufRdd {
    ctx: Arc<Context>,
    partitions: Arc<Vec<ValueBuf>>,
}

/// `parallelize`'s chunk size: how many rows of an `n`-row dataset go to
/// each of the context's default partitions.
pub fn rows_per_partition(ctx: &Context, n: usize) -> usize {
    n.div_ceil(ctx.default_partitions).max(1)
}

/// Hash-partition buffers into `buckets` groups by the key cell,
/// scattering on the worker pool and concatenating per bucket in
/// partition order, so a bucket holds its records in arrival order at
/// any worker count. Returns the buckets, the *semantic* shuffled bytes
/// (`8 + key + value` per record, what the cost model prices), and the
/// *physical* bytes copied between buffers (scatter plus gather).
fn shuffle_buffers(ctx: &Context, parts: &[ValueBuf], buckets: usize) -> (Vec<ValueBuf>, u64, u64) {
    let width = parts.first().map(|p| p.width()).unwrap_or(2);
    let scattered: Vec<(Vec<ValueBuf>, u64, u64)> = par_parts(ctx, parts, |p| {
        let mut local: Vec<ValueBuf> = (0..buckets).map(|_| ValueBuf::new(p.width())).collect();
        let (mut sem, mut phys) = (0u64, 0u64);
        for row in 0..p.len() {
            let b = (p.cell_hash(row, 0) as usize) % buckets;
            sem += p.row_sem_bytes(row);
            phys += local[b].copy_row_from(p, row);
        }
        (local, sem, phys)
    });
    let mut out: Vec<ValueBuf> = (0..buckets).map(|_| ValueBuf::new(width)).collect();
    let (mut sem_total, mut phys_total) = (0u64, 0u64);
    for (local, sem, phys) in scattered {
        sem_total += sem;
        phys_total += phys;
        for (bucket, part) in out.iter_mut().zip(&local) {
            phys_total += bucket.append_raw(part);
        }
    }
    (out, sem_total, phys_total)
}

impl BufRdd {
    /// Wrap already-chunked partitions, recording a `parallelize` input
    /// stage. Callers chunk with [`rows_per_partition`] so every source
    /// is split alike.
    pub fn from_built_partitions(
        ctx: &Arc<Context>,
        width: usize,
        mut parts: Vec<ValueBuf>,
    ) -> BufRdd {
        if parts.is_empty() {
            parts.push(ValueBuf::new(width));
        }
        let mut stage = StageStats::new(StageKind::Input, "parallelize");
        stage.records_out = parts.iter().map(|p| p.len() as u64).sum();
        stage.bytes_out = parts.iter().map(ValueBuf::sem_bytes).sum();
        ctx.record_stage(stage);
        BufRdd {
            ctx: ctx.clone(),
            partitions: Arc::new(parts),
        }
    }

    /// `sc.parallelize` over key/value pairs, chunked by
    /// [`rows_per_partition`].
    pub fn parallelize_pairs(ctx: &Arc<Context>, pairs: &[(Value, Value)]) -> BufRdd {
        let per = rows_per_partition(ctx, pairs.len());
        let mut parts = Vec::new();
        for chunk in pairs.chunks(per) {
            let mut buf = ValueBuf::with_capacity(2, chunk.len());
            for (k, v) in chunk {
                buf.push_value(k);
                buf.push_value(v);
            }
            parts.push(buf);
        }
        BufRdd::from_built_partitions(ctx, 2, parts)
    }

    pub fn context(&self) -> &Arc<Context> {
        &self.ctx
    }

    pub fn partitions(&self) -> &[ValueBuf] {
        &self.partitions
    }

    pub fn count(&self) -> u64 {
        self.partitions.iter().map(|p| p.len() as u64).sum()
    }

    /// One fused pass over each partition in parallel: `f` reads a
    /// partition buffer and writes a fresh one, reporting its scratch
    /// instrumentation. Errors propagate deterministically: the
    /// lowest-indexed failing partition wins and no stage is recorded.
    pub fn map_partitions<E, F>(&self, label: &str, f: F) -> std::result::Result<BufRdd, E>
    where
        E: Send,
        F: Fn(&ValueBuf) -> std::result::Result<(ValueBuf, PassStats), E> + Send + Sync,
    {
        let results = par_parts(&self.ctx, &self.partitions, |p| f(p));
        let mut parts = Vec::with_capacity(results.len());
        let (mut allocs, mut hwm) = (0u64, 0u64);
        for r in results {
            let (buf, pass) = r?;
            allocs += pass.allocs;
            hwm = hwm.max(pass.arena_hwm_bytes).max(buf.hwm_bytes());
            parts.push(buf);
        }
        let mut stage = StageStats::new(StageKind::Map, label);
        stage.records_in = self.count();
        stage.records_out = parts.iter().map(|p| p.len() as u64).sum();
        stage.bytes_out = parts.iter().map(ValueBuf::sem_bytes).sum();
        stage.value_allocs = allocs;
        stage.arena_hwm_bytes = hwm;
        self.ctx.record_stage(stage);
        Ok(BufRdd {
            ctx: self.ctx.clone(),
            partitions: Arc::new(parts),
        })
    }

    /// `reduceByKey` with map-side combining: per-partition fold in
    /// first-appearance key order (first value kept uncombined), shuffle,
    /// reduce-side fold, key-sorted output partitions. `fast` is the
    /// raw-cell combine the λ classified to; pairings it declines fall
    /// back to `combine`, which must be the λ itself — so the shortcut
    /// cannot change a value or an error.
    pub fn try_reduce_by_key<E: Send>(
        &self,
        fast: Option<FastCombine>,
        combine: impl Fn(Value, Value) -> std::result::Result<Value, E> + Send + Sync,
    ) -> std::result::Result<BufRdd, E> {
        let records_in = self.count();
        let fold = |p: &ValueBuf| -> std::result::Result<(ValueBuf, u64), E> {
            let mut out = ValueBuf::with_capacity(2, p.len());
            // Two key indexes. An inline key's raw `(tag, word)` *is* its
            // identity — one exact map probe, no content hashing or
            // comparisons. String and boxed keys (equal values may sit in
            // different spans or slots) go through the content-hash index
            // with exact cell comparison. A key never appears in both:
            // strings and structured values are never `Value`-equal to an
            // inline cell — so first-appearance order is preserved across
            // the split.
            let mut exact: CellIndexMap<u32> = CellIndexMap::default();
            let mut index: HashIndexMap<Vec<u32>> = HashIndexMap::default();
            let mut allocs = 0u64;
            for row in 0..p.len() {
                let (ktag, kword) = p.cell_raw(row, 0);
                let dst = if ktag <= TAG_BOOL {
                    match exact.entry((ktag, kword)) {
                        std::collections::hash_map::Entry::Occupied(e) => Some(*e.get()),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(out.len() as u32);
                            None
                        }
                    }
                } else {
                    let dsts = index.entry(p.cell_hash_fast(row, 0)).or_default();
                    match dsts
                        .iter()
                        .copied()
                        .find(|&d| out.cells_eq(d as usize, 0, p, row, 0))
                    {
                        hit @ Some(_) => hit,
                        None => {
                            dsts.push(out.len() as u32);
                            None
                        }
                    }
                };
                let Some(dst) = dst else {
                    out.copy_row_from(p, row);
                    continue;
                };
                let dst = dst as usize;
                if let Some(fc) = fast {
                    if let Some((tag, word)) = fc.apply(out.cell_raw(dst, 1), p.cell_raw(row, 1)) {
                        out.write_cell_raw(dst, 1, tag, word);
                        continue;
                    }
                }
                let acc = out.value_at(dst, 1);
                let v = p.value_at(row, 1);
                allocs += 2;
                let merged = combine(acc, v)?;
                out.write_cell(dst, 1, &merged);
            }
            Ok((out, allocs))
        };

        // Map-side combine (partition-order error adjudication).
        let folded = par_parts(&self.ctx, &self.partitions, |p| fold(p));
        let mut pre = Vec::with_capacity(folded.len());
        let (mut allocs, mut hwm) = (0u64, 0u64);
        for r in folded {
            let (buf, a) = r?;
            allocs += a;
            hwm = hwm.max(buf.hwm_bytes());
            pre.push(buf);
        }
        let buckets = self.partitions.len().max(1);
        let (shuffled, sem_moved, phys_moved) = shuffle_buffers(&self.ctx, &pre, buckets);
        // Reduce side: fold each bucket, then emit key-sorted. Keys are
        // unique after the fold, so the sort order is total.
        let reduced = par_parts(&self.ctx, &shuffled, |p| {
            let (buf, a) = fold(p)?;
            let mut order: Vec<u32> = (0..buf.len() as u32).collect();
            order.sort_by(|&x, &y| buf.cell_cmp(x as usize, 0, &buf, y as usize, 0));
            let mut sorted = ValueBuf::with_capacity(2, buf.len());
            for r in order {
                sorted.copy_row_from(&buf, r as usize);
            }
            Ok((sorted, a, buf.hwm_bytes()))
        });
        let mut parts = Vec::with_capacity(reduced.len());
        for r in reduced {
            let (buf, a, h) = r?;
            allocs += a;
            hwm = hwm.max(h).max(buf.hwm_bytes());
            parts.push(buf);
        }
        let mut stage = StageStats::new(StageKind::Shuffle, "reduceByKey");
        stage.records_in = records_in;
        stage.records_out = parts.iter().map(|p| p.len() as u64).sum();
        stage.bytes_shuffled = sem_moved;
        stage.bytes_out = parts.iter().map(ValueBuf::sem_bytes).sum();
        stage.bytes_moved = phys_moved;
        stage.value_allocs = allocs;
        stage.arena_hwm_bytes = hwm;
        self.ctx.record_stage(stage);
        Ok(BufRdd {
            ctx: self.ctx.clone(),
            partitions: Arc::new(parts),
        })
    }

    /// The non-commutative-aggregation path: `groupByKey` (shuffle
    /// everything, group in arrival order, sort groups by key) followed by
    /// a per-group left fold, recorded as a `groupByKey` stage and a `map`
    /// stage. Errors surface in key order within a bucket, buckets in
    /// partition order.
    pub fn try_group_fold<E: Send>(
        &self,
        combine: impl Fn(Value, Value) -> std::result::Result<Value, E> + Send + Sync,
    ) -> std::result::Result<BufRdd, E> {
        let records_in = self.count();
        let buckets = self.partitions.len().max(1);
        let (shuffled, sem_moved, phys_moved) =
            shuffle_buffers(&self.ctx, &self.partitions, buckets);
        // Group pass (infallible).
        let grouped: Vec<Vec<Vec<u32>>> = par_parts(&self.ctx, &shuffled, |p| {
            let mut index: HashIndexMap<Vec<u32>> = HashIndexMap::default();
            let mut groups: Vec<Vec<u32>> = Vec::new();
            for row in 0..p.len() {
                let gids = index.entry(p.cell_hash_fast(row, 0)).or_default();
                match gids
                    .iter()
                    .copied()
                    .find(|&g| p.cells_eq(groups[g as usize][0] as usize, 0, p, row, 0))
                {
                    Some(g) => groups[g as usize].push(row as u32),
                    None => {
                        gids.push(groups.len() as u32);
                        groups.push(vec![row as u32]);
                    }
                }
            }
            groups.sort_by(|a, b| p.cell_cmp(a[0] as usize, 0, p, b[0] as usize, 0));
            groups
        });
        let n_groups: u64 = grouped.iter().map(|g| g.len() as u64).sum();
        let mut stage = StageStats::new(StageKind::Shuffle, "groupByKey");
        stage.records_in = records_in;
        stage.records_out = n_groups;
        stage.bytes_shuffled = sem_moved;
        stage.bytes_out = sem_moved;
        stage.bytes_moved = phys_moved;
        self.ctx.record_stage(stage);

        // Fold pass, recorded as a "map" stage.
        let work: Vec<(ValueBuf, Vec<Vec<u32>>)> = shuffled.into_iter().zip(grouped).collect();
        let folded = par_parts(&self.ctx, &work, |(p, groups)| {
            let mut out = ValueBuf::with_capacity(2, groups.len());
            let mut allocs = 0u64;
            for rows in groups {
                let mut acc = p.value_at(rows[0] as usize, 1);
                allocs += 1;
                for &r in &rows[1..] {
                    let v = p.value_at(r as usize, 1);
                    allocs += 1;
                    acc = combine(acc, v)?;
                }
                out.copy_cell_from(p, rows[0] as usize, 0);
                out.push_value(&acc);
            }
            Ok((out, allocs))
        });
        let mut parts = Vec::with_capacity(folded.len());
        let (mut allocs, mut hwm) = (0u64, 0u64);
        for r in folded {
            let (buf, a) = r?;
            allocs += a;
            hwm = hwm.max(buf.hwm_bytes());
            parts.push(buf);
        }
        let mut map_stage = StageStats::new(StageKind::Map, "map");
        map_stage.records_in = n_groups;
        map_stage.records_out = n_groups;
        map_stage.bytes_out = parts.iter().map(ValueBuf::sem_bytes).sum();
        map_stage.value_allocs = allocs;
        map_stage.arena_hwm_bytes = hwm;
        self.ctx.record_stage(map_stage);
        Ok(BufRdd {
            ctx: self.ctx.clone(),
            partitions: Arc::new(parts),
        })
    }

    /// Inner equi-join plus the plan compiler's tuple-ization:
    /// `(k,v) ⋈ (k,w) → (k, Tuple[v,w])`, recorded as a `join` stage and
    /// the tuple-izing `map` stage.
    pub fn join_pairs(&self, other: &BufRdd) -> BufRdd {
        let records_in = self.count() + other.count();
        let buckets = self.partitions.len().max(other.partitions.len()).max(1);
        let (lsh, lsem, lphys) = shuffle_buffers(&self.ctx, &self.partitions, buckets);
        let (rsh, rsem, rphys) = shuffle_buffers(&self.ctx, &other.partitions, buckets);
        let work: Vec<(ValueBuf, ValueBuf)> = lsh.into_iter().zip(rsh).collect();
        let joined: Vec<(ValueBuf, u64)> = par_parts(&self.ctx, &work, |(lp, rp)| {
            // Right-side index in arrival order; hash collisions resolved
            // by exact key comparison, so each left row meets its matches
            // in arrival order.
            let mut index: HashIndexMap<Vec<u32>> = HashIndexMap::default();
            for row in 0..rp.len() {
                index
                    .entry(rp.cell_hash_fast(row, 0))
                    .or_default()
                    .push(row as u32);
            }
            let mut raw = ValueBuf::new(2);
            let mut allocs = 0u64;
            for lrow in 0..lp.len() {
                if let Some(rows) = index.get(&lp.cell_hash_fast(lrow, 0)) {
                    for &rrow in rows {
                        if lp.cells_eq(lrow, 0, rp, rrow as usize, 0) {
                            let v = lp.value_at(lrow, 1);
                            let w = rp.value_at(rrow as usize, 1);
                            allocs += 3;
                            raw.copy_cell_from(lp, lrow, 0);
                            raw.push_value(&Value::Tuple(vec![v, w]));
                        }
                    }
                }
            }
            // Stable key sort preserves build order on duplicates.
            let mut order: Vec<u32> = (0..raw.len() as u32).collect();
            order.sort_by(|&a, &b| raw.cell_cmp(a as usize, 0, &raw, b as usize, 0));
            let mut out = ValueBuf::with_capacity(2, raw.len());
            for r in order {
                out.copy_row_from(&raw, r as usize);
            }
            (out, allocs)
        });
        let mut parts = Vec::with_capacity(joined.len());
        let (mut allocs, mut hwm) = (0u64, 0u64);
        for (buf, a) in joined {
            allocs += a;
            hwm = hwm.max(buf.hwm_bytes());
            parts.push(buf);
        }
        let records_out: u64 = parts.iter().map(|p| p.len() as u64).sum();
        let bytes_out: u64 = parts.iter().map(ValueBuf::sem_bytes).sum();
        let mut stage = StageStats::new(StageKind::Join, "join");
        stage.records_in = records_in;
        stage.records_out = records_out;
        stage.bytes_shuffled = lsem + rsem;
        stage.bytes_out = bytes_out;
        stage.bytes_moved = lphys + rphys;
        self.ctx.record_stage(stage);
        // The tuple-ization is fused into the join pass; its "map" stage
        // record carries the materialization count.
        let mut map_stage = StageStats::new(StageKind::Map, "map");
        map_stage.records_in = records_out;
        map_stage.records_out = records_out;
        map_stage.bytes_out = bytes_out;
        map_stage.value_allocs = allocs;
        map_stage.arena_hwm_bytes = hwm;
        self.ctx.record_stage(map_stage);
        BufRdd {
            ctx: self.ctx.clone(),
            partitions: Arc::new(parts),
        }
    }

    /// Collect into a key-sorted driver-side vector, recording a
    /// `collect` stage.
    pub fn collect_sorted(&self) -> Vec<(Value, Value)> {
        let mut stage = StageStats::new(StageKind::Collect, "collect");
        stage.records_in = self.count();
        stage.records_out = stage.records_in;
        self.ctx.record_stage(stage);
        let mut all: Vec<(Value, Value)> = Vec::with_capacity(self.count() as usize);
        for p in self.partitions.iter() {
            for row in 0..p.len() {
                all.push((p.value_at(row, 0), p.value_at(row, 1)));
            }
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(workers: usize) -> Arc<Context> {
        Context::with_parallelism(workers, 8)
    }

    /// 2 × 10 000 string-keyed pairs over 9 000 distinct keys. On two
    /// partitions every ingest, map-side-fold and shuffle buffer holds
    /// thousands of string rows, so equal keys sit in many spans.
    fn large_string_pairs() -> Vec<(Value, Value)> {
        (0..20_000)
            .map(|i| (Value::str(format!("key{}", i % 9_000)), Value::Int(i)))
            .collect()
    }

    /// The differential inputs with their partition counts: the mixed
    /// sample on eight partitions and the large string-keyed input on two.
    fn differential_inputs() -> [(Vec<(Value, Value)>, usize); 2] {
        [(sample_pairs(), 8), (large_string_pairs(), 2)]
    }

    fn sample_pairs() -> Vec<(Value, Value)> {
        let words = ["apple", "pear", "apple", "fig", "pear", "apple", "kiwi"];
        let mut pairs: Vec<(Value, Value)> = words
            .iter()
            .map(|w| (Value::str(*w), Value::Int(1)))
            .collect();
        pairs.push((Value::Int(3), Value::Double(0.5)));
        pairs.push((Value::Int(3), Value::Int(2)));
        pairs.push((Value::Int(-1), Value::Int(10)));
        pairs
    }

    /// Serial reference for the shuffling operators: the records of each
    /// key in arrival order, keys in first-appearance order.
    fn groups(pairs: &[(Value, Value)]) -> Vec<(Value, Vec<Value>)> {
        let mut out: Vec<(Value, Vec<Value>)> = Vec::new();
        for (k, v) in pairs {
            match out.iter_mut().find(|(key, _)| key == k) {
                Some((_, vs)) => vs.push(v.clone()),
                None => out.push((k.clone(), vec![v.clone()])),
            }
        }
        out
    }

    /// A serial left fold per key, sorted by key.
    fn fold_reference(pairs: &[(Value, Value)], op: seqlang::ast::BinOp) -> Vec<(Value, Value)> {
        let mut out: Vec<(Value, Value)> = groups(pairs)
            .into_iter()
            .map(|(k, vs)| {
                let mut it = vs.into_iter();
                let first = it.next().expect("a group is never empty");
                let acc = it.fold(first, |acc, v| {
                    seqlang::interp::eval_binop(op, acc, v).expect("in-range fold")
                });
                (k, acc)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Shuffled bytes of `pairs` crossing a shuffle whole.
    fn pair_bytes(pairs: &[(Value, Value)]) -> u64 {
        pairs
            .iter()
            .map(|(k, v)| 8 + k.size_bytes() + v.size_bytes())
            .sum()
    }

    fn labels(c: &Context) -> Vec<(String, u64, u64)> {
        let stats = c.stats();
        let stages = stats.stages.iter();
        stages
            .map(|s| (s.label.clone(), s.records_in, s.records_out))
            .collect()
    }

    /// reduceByKey equals a serial fold, at any worker count and on
    /// mixed and string-heavy keys, and records its stages' record
    /// counts exactly.
    #[test]
    fn reduce_by_key_matches_serial_fold() {
        for (pairs, partitions) in differential_inputs() {
            let expected = fold_reference(&pairs, seqlang::ast::BinOp::Add);
            let (n, keys) = (pairs.len() as u64, expected.len() as u64);
            for workers in [1, 4] {
                let c = Context::with_parallelism(workers, partitions);
                let buffered = BufRdd::parallelize_pairs(&c, &pairs)
                    .try_reduce_by_key(Some(FastCombine::Add), |a, b| {
                        seqlang::interp::eval_binop(seqlang::ast::BinOp::Add, a, b)
                    })
                    .unwrap()
                    .collect_sorted();
                assert_eq!(
                    expected, buffered,
                    "workers={workers} partitions={partitions}"
                );
                assert_eq!(
                    labels(&c),
                    vec![
                        ("parallelize".to_string(), 0, n),
                        ("reduceByKey".to_string(), n, keys),
                        ("collect".to_string(), keys, keys),
                    ]
                );
                assert!(
                    c.stats().total_bytes_moved() > 0,
                    "physical movement accounted"
                );
            }
        }
    }

    /// Without a fast combine (and with a non-CA reducer), the grouped
    /// fold equals a serial in-order fold, and its shuffle moves every
    /// record whole.
    #[test]
    fn group_fold_matches_serial_fold() {
        for (pairs, partitions) in differential_inputs() {
            let expected = fold_reference(&pairs, seqlang::ast::BinOp::Sub);
            let (n, keys) = (pairs.len() as u64, expected.len() as u64);
            for workers in [1, 4] {
                let c = Context::with_parallelism(workers, partitions);
                let buffered = BufRdd::parallelize_pairs(&c, &pairs)
                    .try_group_fold(|a, b| {
                        seqlang::interp::eval_binop(seqlang::ast::BinOp::Sub, a, b)
                    })
                    .unwrap()
                    .collect_sorted();
                assert_eq!(
                    expected, buffered,
                    "workers={workers} partitions={partitions}"
                );
                assert_eq!(c.stats().total_shuffled_bytes(), pair_bytes(&pairs));
                assert_eq!(
                    labels(&c),
                    vec![
                        ("parallelize".to_string(), 0, n),
                        ("groupByKey".to_string(), n, keys),
                        ("map".to_string(), keys, keys),
                        ("collect".to_string(), keys, keys),
                    ]
                );
            }
        }
    }

    /// The join equals a serial nested-loop join (left arrival order,
    /// then right arrival order, stably sorted by key), and shuffles
    /// both sides whole.
    #[test]
    fn join_matches_serial_join() {
        let left: Vec<(Value, Value)> = vec![
            (Value::Int(0), Value::Int(10)),
            (Value::Int(1), Value::Int(11)),
            (Value::Int(1), Value::Int(12)),
            (Value::Int(2), Value::Int(13)),
        ];
        let right: Vec<(Value, Value)> = vec![
            (Value::Int(1), Value::str("a")),
            (Value::Int(1), Value::str("b")),
            (Value::Int(2), Value::str("c")),
            (Value::Int(9), Value::str("d")),
        ];
        let mut expected = Vec::new();
        for (k, v) in &left {
            for (_, w) in right.iter().filter(|(rk, _)| rk == k) {
                expected.push((k.clone(), Value::Tuple(vec![v.clone(), w.clone()])));
            }
        }
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        let matched = expected.len() as u64;
        for workers in [1, 4] {
            let c = ctx(workers);
            let fl = BufRdd::parallelize_pairs(&c, &left);
            let fr = BufRdd::parallelize_pairs(&c, &right);
            let buffered = fl.join_pairs(&fr).collect_sorted();
            assert_eq!(expected, buffered, "workers={workers}");
            let shuffled = pair_bytes(&left) + pair_bytes(&right);
            assert_eq!(c.stats().total_shuffled_bytes(), shuffled);
            assert_eq!(
                labels(&c),
                vec![
                    ("parallelize".to_string(), 0, 4),
                    ("parallelize".to_string(), 0, 4),
                    ("join".to_string(), 8, matched),
                    ("map".to_string(), matched, matched),
                    ("collect".to_string(), matched, matched),
                ]
            );
        }
    }

    /// The full buffered stats snapshot is identical at every worker
    /// count — the new physical counters must stay deterministic.
    #[test]
    fn buffered_stats_deterministic_across_workers() {
        let pairs = sample_pairs();
        let run = |workers: usize| {
            let c = ctx(workers);
            BufRdd::parallelize_pairs(&c, &pairs)
                .try_reduce_by_key(Some(FastCombine::Add), |a, b| {
                    seqlang::interp::eval_binop(seqlang::ast::BinOp::Add, a, b)
                })
                .unwrap()
                .collect_sorted();
            c.stats()
        };
        let base = run(1);
        for workers in [2, 4, 8] {
            assert_eq!(base, run(workers), "workers={workers}");
        }
    }

    /// Map-side error adjudication: lowest-indexed partition wins, no
    /// stage recorded.
    #[test]
    fn reduce_error_is_deterministic() {
        let pairs: Vec<(Value, Value)> = (0..32)
            .map(|i| (Value::Int(i % 4), Value::Int(i)))
            .collect();
        let run = |workers: usize| {
            let c = ctx(workers);
            let err = BufRdd::parallelize_pairs(&c, &pairs)
                .try_reduce_by_key(None, |a, _b| Err::<Value, String>(format!("boom at {a}")))
                .unwrap_err();
            (err, c.stats().stage_count())
        };
        let (e1, stages1) = run(1);
        let (e4, stages4) = run(4);
        assert_eq!(e1, e4);
        assert_eq!(stages1, stages4);
        assert_eq!(stages1, 1, "only the parallelize stage remains");
    }
}
