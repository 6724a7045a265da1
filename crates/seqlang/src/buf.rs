//! Contiguous partition storage: tagged rows with inline payloads and
//! offset-indexed side arenas, replacing `Vec<Value>` in the hot data
//! plane.
//!
//! A [`ValueBuf`] holds fixed-width rows of cells. Each cell is one tag
//! byte plus one 64-bit word: `Int`/`Double`/`Bool`/`Unit` live inline in
//! the word, strings are spans appended to a byte arena (the word indexes
//! a span table), and structured values (arrays, lists, maps, structs,
//! tuples) spill to a boxed side arena. Shuffles move these arenas as byte
//! ranges — rebasing span/slot indices — instead of cloning `Value`s, and
//! reducers combine numeric cells in place without materializing.
//!
//! Cell-level hash, ordering, and byte accounting mirror `Value`'s
//! bit-for-bit, so a buffer-backed executor buckets, sorts, and charges
//! shuffles identically to the boxed golden reference.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

use crate::value::Value;

/// Cell tags. `Unit..Str` match `Value`'s ordering tags; `Boxed` cells
/// carry their semantic tag in the boxed `Value` itself.
pub const TAG_UNIT: u8 = 0;
pub const TAG_INT: u8 = 1;
pub const TAG_DOUBLE: u8 = 2;
pub const TAG_BOOL: u8 = 3;
pub const TAG_STR: u8 = 4;
pub const TAG_BOXED: u8 = 5;

/// A borrowed view of one cell. Inline payloads are decoded; strings
/// borrow from the byte arena; structured values borrow the boxed slot.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    Unit,
    Int(i64),
    Double(f64),
    Bool(bool),
    Str(&'a str),
    Boxed(&'a Value),
}

impl<'a> ValueRef<'a> {
    /// Materialize into an owned `Value` (allocates for strings and
    /// clones boxed payloads).
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Unit => Value::Unit,
            ValueRef::Int(n) => Value::Int(n),
            ValueRef::Double(x) => Value::Double(x),
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Str(s) => Value::Str(Arc::from(s)),
            ValueRef::Boxed(v) => v.clone(),
        }
    }

    pub fn as_bool(self) -> Option<bool> {
        match self {
            ValueRef::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The same ordering tag `Value::tag` assigns to the materialized
    /// value.
    fn sem_tag(self) -> u8 {
        match self {
            ValueRef::Unit => 0,
            ValueRef::Int(_) => 1,
            ValueRef::Double(_) => 2,
            ValueRef::Bool(_) => 3,
            ValueRef::Str(_) => 4,
            ValueRef::Boxed(v) => v.tag(),
        }
    }

    /// Total order identical to `Value::cmp` on the materialized values.
    pub fn total_cmp(self, other: ValueRef<'_>) -> Ordering {
        use ValueRef::*;
        match (self, other) {
            (Unit, Unit) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(&b),
            (Double(a), Double(b)) => a.total_cmp(&b),
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Str(a), Str(b)) => a.cmp(b),
            (Boxed(a), Boxed(b)) => a.cmp(b),
            (a, b) => a.sem_tag().cmp(&b.sem_tag()),
        }
    }

    /// Feed the hasher exactly as `Value::hash` would for the
    /// materialized value, so `DefaultHasher` bucketing matches the boxed
    /// data plane bit-for-bit.
    pub fn hash_value<H: Hasher>(self, state: &mut H) {
        match self {
            ValueRef::Boxed(v) => v.hash(state),
            inline => {
                inline.sem_tag().hash(state);
                match inline {
                    ValueRef::Unit => {}
                    ValueRef::Int(n) => n.hash(state),
                    ValueRef::Double(x) => x.to_bits().hash(state),
                    ValueRef::Bool(b) => b.hash(state),
                    ValueRef::Str(s) => s.hash(state),
                    ValueRef::Boxed(_) => unreachable!(),
                }
            }
        }
    }

    /// Serialized size under the paper's cost model — identical to
    /// `Value::size_bytes` on the materialized value.
    pub fn size_bytes(self) -> u64 {
        match self {
            ValueRef::Unit => 1,
            ValueRef::Int(_) => 4,
            ValueRef::Double(_) => 8,
            ValueRef::Bool(_) => 10,
            ValueRef::Str(_) => 40,
            ValueRef::Boxed(v) => v.size_bytes(),
        }
    }
}

/// In-place combine operators the reducer can run on raw cells without
/// materializing `Value`s. Semantics mirror the interpreter's `eval_binop`
/// (`Int⊕Int` wraps, mixed numerics promote to `Double`) and the modelled
/// `min`/`max` free functions; any pairing outside those falls back to the
/// caller's materializing combine (`None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastCombine {
    Add,
    Sub,
    Mul,
    Min,
    Max,
}

impl FastCombine {
    /// Apply to two cells, returning the raw `(tag, word)` of the result,
    /// or `None` when the cells are outside the inline numeric fast path.
    pub fn apply(self, a: ValueRef<'_>, b: ValueRef<'_>) -> Option<(u8, u64)> {
        use FastCombine::*;
        match (a, b) {
            (ValueRef::Int(x), ValueRef::Int(y)) => Some(match self {
                Add => (TAG_INT, x.wrapping_add(y) as u64),
                Sub => (TAG_INT, x.wrapping_sub(y) as u64),
                Mul => (TAG_INT, x.wrapping_mul(y) as u64),
                Min => (TAG_INT, x.min(y) as u64),
                Max => (TAG_INT, x.max(y) as u64),
            }),
            (ValueRef::Int(_) | ValueRef::Double(_), ValueRef::Int(_) | ValueRef::Double(_)) => {
                let x = match a {
                    ValueRef::Int(n) => n as f64,
                    ValueRef::Double(d) => d,
                    _ => unreachable!(),
                };
                let y = match b {
                    ValueRef::Int(n) => n as f64,
                    ValueRef::Double(d) => d,
                    _ => unreachable!(),
                };
                let r = match self {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Min => x.min(y),
                    Max => x.max(y),
                };
                Some((TAG_DOUBLE, r.to_bits()))
            }
            _ => None,
        }
    }
}

/// Free state variables of one compiled λ resolved to raw inline cells,
/// cached on the arena so the resolution (a name-hash lookup per
/// variable) happens once per partition pass instead of once per record.
/// `env_ptr` keys the entry to the state env it was resolved against;
/// an arena must not outlive the env it cached (arenas are per-pass
/// scratch, so in practice the env always outlives them).
#[derive(Debug)]
pub struct StateCellEntry {
    /// Compile-time id of the λ that owns this resolution.
    pub owner: u64,
    /// Address of the state env the cells were resolved against.
    pub env_ptr: usize,
    /// One `(tag, word)` cell per registered state variable;
    /// `(TAG_BOXED, 0)` marks a variable that has no inline cell form.
    pub cells: Vec<(u8, u64)>,
}

/// Reusable per-partition scratch for lambda temporaries: a materialized
/// locals frame that resets between records (capacity retained — the
/// "bump arena" for the boxed boundary into the bytecode VM) plus an
/// allocation counter feeding `StageStats`.
#[derive(Debug, Default)]
pub struct RecordArena {
    /// Materialized λ frame for the current record.
    pub locals: Vec<Value>,
    /// `Value` materializations performed through this arena.
    pub allocs: u64,
    /// Per-λ resolved state cells (see [`StateCellEntry`]). A handful of
    /// λs share one arena at most, so lookups are a linear scan.
    pub state_cells: Vec<StateCellEntry>,
}

impl RecordArena {
    pub fn new() -> RecordArena {
        RecordArena::default()
    }

    /// Reset between records; keeps capacity.
    pub fn begin_record(&mut self) {
        self.locals.clear();
    }
}

/// Cheap multiply-mix hasher for the data plane's index maps, whose keys
/// are either 64-bit content hashes (already uniform — SipHashing them
/// again is pure overhead) or raw `(tag, word)` cells. Exactness never
/// depends on this hash: the maps compare full keys on collision.
#[derive(Debug, Default, Clone, Copy)]
pub struct CellHasher(u64);

impl Hasher for CellHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Eight bytes per multiply: string keys hash at word speed.
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        self.write_u64(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.0 = (self.0 ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 32;
    }
}

/// `BuildHasher` for [`CellHasher`].
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildCellHasher;

impl BuildHasher for BuildCellHasher {
    type Hasher = CellHasher;

    #[inline]
    fn build_hasher(&self) -> CellHasher {
        CellHasher(0)
    }
}

/// Index map keyed by a precomputed 64-bit content hash.
pub type HashIndexMap<V> = HashMap<u64, V, BuildCellHasher>;

/// Index map keyed by a raw `(tag, word)` cell — the reducer's exact
/// path for inline keys, whose word *is* their identity.
pub type CellIndexMap<V> = HashMap<(u8, u64), V, BuildCellHasher>;

/// Semantic size (the `Value::size_bytes` model) of an inline cell tag.
fn inline_sem_bytes(tag: u8) -> u64 {
    match tag {
        TAG_UNIT => 1,
        TAG_INT => 4,
        TAG_DOUBLE => 8,
        _ => 10,
    }
}

/// Contiguous fixed-width rows of tagged cells with string and boxed side
/// arenas. See the module docs for the layout.
#[derive(Debug, Default, Clone)]
pub struct ValueBuf {
    width: usize,
    tags: Vec<u8>,
    words: Vec<u64>,
    /// UTF-8 arena; `TAG_STR` words index `str_spans`. Every string
    /// write appends a fresh span, so equal strings may occupy several.
    str_bytes: Vec<u8>,
    str_spans: Vec<(u32, u32)>,
    /// Side arena for structured values; `TAG_BOXED` words index it.
    boxed: Vec<Value>,
    /// Semantic payload bytes of all cells (the `Value::size_bytes`
    /// model), maintained incrementally so stage accounting is O(1).
    sem_cell_bytes: u64,
    /// High-water mark of the physical arena footprint.
    hwm_bytes: u64,
}

impl ValueBuf {
    pub fn new(width: usize) -> ValueBuf {
        assert!(width > 0, "ValueBuf width must be positive");
        ValueBuf {
            width,
            ..ValueBuf::default()
        }
    }

    pub fn with_capacity(width: usize, rows: usize) -> ValueBuf {
        let mut b = ValueBuf::new(width);
        b.tags.reserve(rows * width);
        b.words.reserve(rows * width);
        b
    }

    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of complete rows.
    pub fn len(&self) -> usize {
        debug_assert!(
            self.tags.len().is_multiple_of(self.width),
            "ValueBuf holds a partial row"
        );
        self.tags.len() / self.width
    }

    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Drop all rows and arena contents, retaining capacity — the
    /// between-records / between-batches bump-arena reset.
    pub fn clear(&mut self) {
        self.tags.clear();
        self.words.clear();
        self.str_bytes.clear();
        self.str_spans.clear();
        self.boxed.clear();
        self.sem_cell_bytes = 0;
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.len(), "row {row} out of bounds ({})", self.len());
        debug_assert!(col < self.width, "col {col} out of bounds ({})", self.width);
        row * self.width + col
    }

    /// The UTF-8 bytes of string span `span`.
    #[inline]
    fn str_bytes_at(&self, span: u32) -> &[u8] {
        debug_assert!(
            (span as usize) < self.str_spans.len(),
            "string span {span} out of bounds ({})",
            self.str_spans.len()
        );
        let (off, len) = self.str_spans[span as usize];
        debug_assert!(
            off as usize + len as usize <= self.str_bytes.len(),
            "string span ({off},{len}) exceeds arena ({})",
            self.str_bytes.len()
        );
        &self.str_bytes[off as usize..(off + len) as usize]
    }

    #[inline]
    fn str_at(&self, span: u32) -> &str {
        // Arena bytes are only ever written from &str, so this is UTF-8.
        std::str::from_utf8(self.str_bytes_at(span)).expect("string arena corrupted")
    }

    /// Append `s` to the byte arena as a fresh span, returning its id.
    fn push_str(&mut self, s: &str) -> u32 {
        assert!(
            self.str_bytes.len() + s.len() <= u32::MAX as usize,
            "string arena exceeds u32 offsets"
        );
        let off = self.str_bytes.len() as u32;
        self.str_bytes.extend_from_slice(s.as_bytes());
        let id = self.str_spans.len() as u32;
        self.str_spans.push((off, s.len() as u32));
        id
    }

    #[inline]
    fn push_cell(&mut self, tag: u8, word: u64, sem: u64) {
        self.tags.push(tag);
        self.words.push(word);
        self.sem_cell_bytes += sem;
    }

    fn note_hwm(&mut self) {
        let fp = self.footprint_bytes();
        if fp > self.hwm_bytes {
            self.hwm_bytes = fp;
        }
    }

    /// Append one raw inline cell (numeric/bool/unit tags only) — the
    /// cell-program emit path, which never materializes a `Value`.
    #[inline]
    pub fn push_raw_cell(&mut self, tag: u8, word: u64) {
        debug_assert!(tag <= TAG_BOOL, "raw pushes are inline-only");
        self.push_cell(tag, word, inline_sem_bytes(tag));
        self.note_hwm();
    }

    /// Append one cell. Callers must keep pushes aligned to `width`
    /// (checked by `len`'s debug assertion on the next row access).
    pub fn push_value(&mut self, v: &Value) {
        match v {
            Value::Unit => self.push_cell(TAG_UNIT, 0, 1),
            Value::Int(n) => self.push_cell(TAG_INT, *n as u64, 4),
            Value::Double(x) => self.push_cell(TAG_DOUBLE, x.to_bits(), 8),
            Value::Bool(b) => self.push_cell(TAG_BOOL, *b as u64, 10),
            Value::Str(s) => {
                let id = self.push_str(s);
                self.push_cell(TAG_STR, id as u64, 40);
            }
            other => {
                let slot = self.boxed.len() as u64;
                let sem = other.size_bytes();
                self.boxed.push(other.clone());
                self.push_cell(TAG_BOXED, slot, sem);
            }
        }
        self.note_hwm();
    }

    /// Append one full row of owned values.
    pub fn push_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.width, "row width mismatch");
        for v in row {
            self.push_value(v);
        }
    }

    /// Borrowed view of one cell.
    pub fn get(&self, row: usize, col: usize) -> ValueRef<'_> {
        let i = self.idx(row, col);
        match self.tags[i] {
            TAG_UNIT => ValueRef::Unit,
            TAG_INT => ValueRef::Int(self.words[i] as i64),
            TAG_DOUBLE => ValueRef::Double(f64::from_bits(self.words[i])),
            TAG_BOOL => ValueRef::Bool(self.words[i] != 0),
            TAG_STR => ValueRef::Str(self.str_at(self.words[i] as u32)),
            TAG_BOXED => {
                let slot = self.words[i] as usize;
                debug_assert!(
                    slot < self.boxed.len(),
                    "boxed slot {slot} out of bounds ({})",
                    self.boxed.len()
                );
                ValueRef::Boxed(&self.boxed[slot])
            }
            t => unreachable!("invalid cell tag {t}"),
        }
    }

    /// Materialize one cell into an owned `Value`.
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.get(row, col).to_value()
    }

    /// Append cell `(row, col)` of `src`: string bytes are copied into a
    /// fresh span of this buffer's arena, boxed values get a fresh slot.
    /// Returns the physical bytes moved.
    fn push_cell_from(&mut self, src: &ValueBuf, row: usize, col: usize) -> u64 {
        let i = src.idx(row, col);
        let word = src.words[i];
        match src.tags[i] {
            TAG_STR => {
                let s = src.str_at(word as u32);
                let id = self.push_str(s);
                self.push_cell(TAG_STR, id as u64, 40);
                9 + s.len() as u64 + 8
            }
            TAG_BOXED => {
                let v = &src.boxed[word as usize];
                let slot = self.boxed.len() as u64;
                self.boxed.push(v.clone());
                self.push_cell(TAG_BOXED, slot, v.size_bytes());
                // Tag byte + payload word + slot handle; the payload
                // moves by reference.
                9 + 8
            }
            tag => {
                self.push_cell(tag, word, inline_sem_bytes(tag));
                9
            }
        }
    }

    /// Copy one cell from another buffer.
    pub fn copy_cell_from(&mut self, src: &ValueBuf, row: usize, col: usize) {
        self.push_cell_from(src, row, col);
        self.note_hwm();
    }

    /// Copy one full row from another buffer, returning the physical
    /// bytes moved. This is also the shuffle scatter path.
    pub fn copy_row_from(&mut self, src: &ValueBuf, row: usize) -> u64 {
        debug_assert_eq!(src.width, self.width, "row copy across widths");
        let moved = (0..self.width)
            .map(|col| self.push_cell_from(src, row, col))
            .sum();
        self.note_hwm();
        moved
    }

    /// Append another buffer wholesale by splicing its arenas and
    /// rebasing span/slot indices — the shuffle gather path: no per-value
    /// clones. Returns the physical bytes moved.
    pub fn append_raw(&mut self, other: &ValueBuf) -> u64 {
        debug_assert_eq!(other.width, self.width, "append across widths");
        assert!(
            self.str_bytes.len() + other.str_bytes.len() <= u32::MAX as usize,
            "string arena exceeds u32 offsets"
        );
        let span_base = self.str_spans.len() as u64;
        let slot_base = self.boxed.len() as u64;
        let byte_base = self.str_bytes.len() as u32;
        self.str_bytes.extend_from_slice(&other.str_bytes);
        self.str_spans
            .extend(other.str_spans.iter().map(|&(o, l)| (o + byte_base, l)));
        self.boxed.extend(other.boxed.iter().cloned());
        self.tags.extend_from_slice(&other.tags);
        for (i, &w) in other.words.iter().enumerate() {
            self.words.push(match other.tags[i] {
                TAG_STR => w + span_base,
                TAG_BOXED => w + slot_base,
                _ => w,
            });
        }
        self.sem_cell_bytes += other.sem_cell_bytes;
        self.note_hwm();
        other.tags.len() as u64 * 9
            + other.str_bytes.len() as u64
            + other.str_spans.len() as u64 * 8
            + other.boxed.len() as u64 * 8
    }

    /// Raw `(tag, word)` of a cell — the reducer's in-place fast path.
    pub fn cell_raw(&self, row: usize, col: usize) -> (u8, u64) {
        let i = self.idx(row, col);
        (self.tags[i], self.words[i])
    }

    /// Overwrite a cell with a raw inline payload (numeric/bool/unit tags
    /// only) — the in-place combine commit.
    pub fn write_cell_raw(&mut self, row: usize, col: usize, tag: u8, word: u64) {
        debug_assert!(tag <= TAG_BOOL, "raw writes are inline-only");
        let i = self.idx(row, col);
        let old = self.get(row, col).size_bytes();
        self.tags[i] = tag;
        self.words[i] = word;
        self.sem_cell_bytes = self.sem_cell_bytes - old + inline_sem_bytes(tag);
    }

    /// Overwrite a cell with an owned value (the materializing combine's
    /// write-back; replaced arena payloads leak until `clear`, which the
    /// high-water mark makes observable).
    pub fn write_cell(&mut self, row: usize, col: usize, v: &Value) {
        let i = self.idx(row, col);
        let old = self.get(row, col).size_bytes();
        self.sem_cell_bytes -= old;
        match v {
            Value::Unit => {
                self.tags[i] = TAG_UNIT;
                self.words[i] = 0;
                self.sem_cell_bytes += 1;
            }
            Value::Int(n) => {
                self.tags[i] = TAG_INT;
                self.words[i] = *n as u64;
                self.sem_cell_bytes += 4;
            }
            Value::Double(x) => {
                self.tags[i] = TAG_DOUBLE;
                self.words[i] = x.to_bits();
                self.sem_cell_bytes += 8;
            }
            Value::Bool(b) => {
                self.tags[i] = TAG_BOOL;
                self.words[i] = *b as u64;
                self.sem_cell_bytes += 10;
            }
            Value::Str(s) => {
                let id = self.push_str(s);
                self.tags[i] = TAG_STR;
                self.words[i] = id as u64;
                self.sem_cell_bytes += 40;
            }
            other => {
                let slot = self.boxed.len() as u64;
                self.sem_cell_bytes += other.size_bytes();
                self.boxed.push(other.clone());
                self.tags[i] = TAG_BOXED;
                self.words[i] = slot;
            }
        }
        self.note_hwm();
    }

    /// 64-bit content hash of one cell, identical to hashing the
    /// materialized `Value` with `DefaultHasher`. Shuffle bucketing uses
    /// this so buffer partitioning is bit-identical to the boxed plane's.
    pub fn cell_hash(&self, row: usize, col: usize) -> u64 {
        let mut h = DefaultHasher::new();
        self.get(row, col).hash_value(&mut h);
        h.finish()
    }

    /// Cheap multiply-mix content hash of one cell, for the data plane's
    /// *internal* dedup indexes (reduce fold, group, join probes), whose
    /// exactness comes from full cell comparison on collision — nothing
    /// observable depends on this hash, so it skips SipHash. It only has
    /// to agree with [`Self::cells_eq`], so a string hashes its raw bytes.
    pub fn cell_hash_fast(&self, row: usize, col: usize) -> u64 {
        let i = self.idx(row, col);
        let mut h = CellHasher::default();
        match self.tags[i] {
            TAG_STR => h.write(self.str_bytes_at(self.words[i] as u32)),
            _ => self.get(row, col).hash_value(&mut h),
        }
        h.finish()
    }

    /// Compare two cells (possibly across buffers) under `Value`'s total
    /// order.
    pub fn cell_cmp(
        &self,
        row: usize,
        col: usize,
        other: &ValueBuf,
        orow: usize,
        ocol: usize,
    ) -> Ordering {
        self.get(row, col).total_cmp(other.get(orow, ocol))
    }

    /// `Value` equality of two cells (possibly across buffers). Strings
    /// compare bytes; inline cells are equal exactly when tag and word
    /// are (`f64::total_cmp` equality is bit equality), and never equal a
    /// string.
    pub fn cells_eq(
        &self,
        row: usize,
        col: usize,
        other: &ValueBuf,
        orow: usize,
        ocol: usize,
    ) -> bool {
        let (i, j) = (self.idx(row, col), other.idx(orow, ocol));
        match (self.tags[i], other.tags[j]) {
            (TAG_BOXED, _) | (_, TAG_BOXED) => {
                self.cell_cmp(row, col, other, orow, ocol) == Ordering::Equal
            }
            (TAG_STR, TAG_STR) => {
                self.str_bytes_at(self.words[i] as u32) == other.str_bytes_at(other.words[j] as u32)
            }
            (a, b) => a == b && self.words[i] == other.words[j],
        }
    }

    /// Serialized size of one cell under the paper's cost model.
    pub fn cell_size_bytes(&self, row: usize, col: usize) -> u64 {
        self.get(row, col).size_bytes()
    }

    /// Semantic payload bytes of one row: container overhead 8 plus the
    /// cells — what `Vec<Value>::size_bytes`-style accounting charges for
    /// the equivalent boxed row.
    pub fn row_sem_bytes(&self, row: usize) -> u64 {
        8 + (0..self.width)
            .map(|c| self.cell_size_bytes(row, c))
            .sum::<u64>()
    }

    /// Semantic payload bytes of all rows (O(1); maintained
    /// incrementally).
    pub fn sem_bytes(&self) -> u64 {
        self.sem_cell_bytes + 8 * self.len() as u64
    }

    /// Current physical arena footprint in bytes (tags, words, string
    /// bytes and spans; boxed values charged one slot word each).
    pub fn footprint_bytes(&self) -> u64 {
        self.tags.len() as u64 * 9
            + self.str_bytes.len() as u64
            + self.str_spans.len() as u64 * 8
            + self.boxed.len() as u64 * 8
    }

    /// High-water mark of the physical footprint since construction
    /// (survives `clear`, so per-record scratch buffers report their
    /// worst record).
    pub fn hwm_bytes(&self) -> u64 {
        self.hwm_bytes
    }

    /// Materialize every row as an owned `Vec<Value>` (test/collect
    /// convenience).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len())
            .map(|r| (0..self.width).map(|c| self.value_at(r, c)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Unit,
            Value::Int(-42),
            Value::Double(2.5),
            Value::Double(f64::NAN),
            Value::Bool(true),
            Value::str("héllo — ünïcode"),
            Value::str(""),
            Value::List(vec![Value::Int(1), Value::str("x")]),
            Value::Map(vec![(Value::str("k"), Value::Int(7))]),
            Value::pair(Value::str("w"), Value::Int(1)),
        ]
    }

    #[test]
    fn roundtrip_is_identity() {
        let vals = sample_values();
        let mut buf = ValueBuf::new(1);
        for v in &vals {
            buf.push_value(v);
        }
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&buf.value_at(i, 0), v, "cell {i} diverged");
        }
    }

    #[test]
    fn cell_hash_matches_value_hash() {
        let vals = sample_values();
        let mut buf = ValueBuf::new(1);
        for v in &vals {
            buf.push_value(v);
        }
        for (i, v) in vals.iter().enumerate() {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            assert_eq!(buf.cell_hash(i, 0), h.finish(), "hash of cell {i} diverged");
        }
    }

    #[test]
    fn cell_cmp_matches_value_cmp() {
        let vals = sample_values();
        let mut buf = ValueBuf::new(1);
        for v in &vals {
            buf.push_value(v);
        }
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(
                    buf.cell_cmp(i, 0, &buf, j, 0),
                    a.cmp(b),
                    "cmp({i},{j}) diverged"
                );
            }
        }
    }

    #[test]
    fn cell_size_matches_value_size() {
        let vals = sample_values();
        let mut buf = ValueBuf::new(1);
        for v in &vals {
            buf.push_value(v);
        }
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(buf.cell_size_bytes(i, 0), v.size_bytes());
        }
        let expected: u64 = vals.iter().map(|v| 8 + v.size_bytes()).sum();
        assert_eq!(buf.sem_bytes(), expected);
    }

    #[test]
    fn append_raw_rebases_spans_and_slots() {
        let mut a = ValueBuf::new(2);
        a.push_row(&[Value::str("left"), Value::Int(1)]);
        let mut b = ValueBuf::new(2);
        b.push_row(&[Value::str("right"), Value::List(vec![Value::Int(9)])]);
        b.push_row(&[Value::str("left"), Value::Double(0.5)]);
        let moved = a.append_raw(&b);
        assert!(moved > 0);
        assert_eq!(a.len(), 3);
        assert_eq!(a.value_at(1, 0), Value::str("right"));
        assert_eq!(a.value_at(1, 1), Value::List(vec![Value::Int(9)]));
        assert_eq!(a.value_at(2, 0), Value::str("left"));
        assert_eq!(a.value_at(2, 1), Value::Double(0.5));
        // A push after the append gets a span past the rebased ones.
        a.push_value(&Value::str("right"));
        a.push_value(&Value::Int(3));
        assert_eq!(a.value_at(3, 0), Value::str("right"));
    }

    #[test]
    fn fast_combine_mirrors_interpreter_semantics() {
        let add = FastCombine::Add;
        // Int ⊕ Int wraps.
        let (t, w) = add
            .apply(ValueRef::Int(i64::MAX), ValueRef::Int(1))
            .unwrap();
        assert_eq!((t, w as i64), (TAG_INT, i64::MIN));
        // Mixed numerics promote to Double.
        let (t, w) = add.apply(ValueRef::Int(1), ValueRef::Double(0.5)).unwrap();
        assert_eq!(t, TAG_DOUBLE);
        assert_eq!(f64::from_bits(w), 1.5);
        // min keeps Int on Int pairs, promotes otherwise.
        let (t, w) = FastCombine::Min
            .apply(ValueRef::Int(3), ValueRef::Int(-2))
            .unwrap();
        assert_eq!((t, w as i64), (TAG_INT, -2));
        // Non-numeric pairs decline.
        assert!(add.apply(ValueRef::Str("a"), ValueRef::Str("b")).is_none());
    }

    #[test]
    fn in_place_write_updates_accounting() {
        let mut buf = ValueBuf::new(2);
        buf.push_row(&[Value::str("k"), Value::Int(1)]);
        let before = buf.sem_bytes();
        buf.write_cell_raw(0, 1, TAG_DOUBLE, 2.0f64.to_bits());
        assert_eq!(buf.value_at(0, 1), Value::Double(2.0));
        assert_eq!(buf.sem_bytes(), before + 4); // Int(4) → Double(8)
        buf.write_cell(0, 1, &Value::str("v"));
        assert_eq!(buf.sem_bytes(), before + 36); // → Str(40)
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn debug_bounds_check_on_rows() {
        let mut buf = ValueBuf::new(1);
        buf.push_value(&Value::Int(1));
        let _ = buf.get(1, 0);
    }

    #[test]
    fn hwm_survives_clear() {
        let mut buf = ValueBuf::new(1);
        buf.push_value(&Value::str("some string payload"));
        let hwm = buf.hwm_bytes();
        assert!(hwm > 0);
        buf.clear();
        assert_eq!(buf.len(), 0);
        assert_eq!(buf.hwm_bytes(), hwm);
        assert_eq!(buf.sem_bytes(), 0);
    }
}
