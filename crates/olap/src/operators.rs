//! The shared data path of the relational operator subsystem.
//!
//! Both execution sites answer an [`OlapPlan`] with the same logical
//! pipeline — filter the probe table, probe a hash table built from the
//! filtered build table, accumulate per-group aggregates — and the plan IR
//! requires their results to be **byte-identical**. Floating-point addition
//! is not associative, so this module pins the evaluation order once for
//! everyone: rows are processed in storage order within fixed chunks of
//! [`PLAN_CHUNK_ROWS`] rows ([`process_chunk`]), and per-chunk partials are
//! merged in ascending chunk order ([`merge_partials`]). The CPU site runs
//! the chunks on a thread pool and the GPU site maps them onto simulated
//! thread blocks, but because every site uses these functions over the same
//! materialised columns, the numbers that come out are bit-equal.
//!
//! # Vectorized batch execution and explicit SIMD kernels
//!
//! Within a chunk, [`process_chunk`] executes **vectorized**: rows are
//! processed in fixed [`VECTOR_BATCH_ROWS`]-row batches, predicate evaluation
//! fills a *selection vector*, hash probes compact it, and aggregate
//! accumulation runs one specialised loop per [`AggExpr`] variant instead of
//! a per-row `match`; a predicate-free, join-free, ungrouped plan skips the
//! selection vector and streams its columns densely. The inner loops are
//! **explicit SIMD kernels** ([`crate::simd`]): hand-unrolled 4/8-lane
//! structs (the toolchain is stable Rust, so no `std::simd`) monomorphised
//! per column type through [`with_decoder!`] — predicate masks, probe-key
//! decodes and per-row aggregate staging are lane-parallel, while every f64
//! *accumulation* stays sequential in ascending row order. None of this
//! changes a single bit of the results: a selection vector only *skips* rows
//! a predicate rejected (exactly the rows the row-at-a-time loop `continue`d
//! past), staged per-row values are computed by the very expressions the
//! reference evaluates, and each accumulator receives the same additions in
//! the same order. Two oracles are retained and property-tested
//! bit-identical: the row-at-a-time reference ([`process_chunk_reference`])
//! and the pre-SIMD scalar batch path ([`process_chunk_scalar`]), which the
//! `hostperf` benchmark also times as the prior-PR baseline.
//!
//! # Zonemap statistics and parallel materialisation
//!
//! [`MaterializedColumns::new`] copies each accessed column and computes
//! its per-chunk min/max *zonemap statistics* in one fused pass per chunk —
//! the zonemap reads the chunk while it is still cache-resident from the
//! copy — and runs those per-(column, chunk) tasks on the shared scoped
//! pool ([`crate::pool`]), preserving chunk order in the output.
//! [`chunk_can_qualify`] then answers in O(#predicates) per chunk
//! instead of re-scanning the chunk's values per predicate per query (the
//! old behaviour is retained as [`chunk_can_qualify_reference`], and
//! the prior single-threaded two-pass build as
//! [`MaterializedColumns::new_serial`]). Because the stats live on the
//! materialised columns, the snapshot-keyed plan-data cache
//! ([`crate::cache::PlanDataCache`]) shares them across queries and across
//! execution sites for free.
//!
//! What the sites do *not* share is the cost model: the CPU charges cache-
//! line-granular random access against host memory bandwidth, the GPU
//! charges build/probe/aggregate kernels (with [`h2tap_gpu_sim::AccessPattern::Random`]
//! probes) through the gpu-sim memory model.

use crate::pool;
use crate::simd::{min_max_lanes, stage_key_bits, F64x4, F64x8, SimdF64};
use h2tap_common::{
    AggExpr, AttrType, GroupRow, H2Error, JoinSpec, OlapPlan, PlanColumn, Predicate, Result, PLAN_CHUNK_ROWS,
};
use h2tap_storage::{decode_cell_f64, SnapshotTable};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// Rows per vectorized execution batch. Unlike [`PLAN_CHUNK_ROWS`] this is
/// **not** part of the IR contract: batches only bound how many rows a
/// selection vector covers at a time, and since rows are visited in
/// ascending order within and across batches, any batch size produces
/// bit-identical results. 1024 keeps a batch's selection vector and the
/// touched column slices comfortably inside the L1/L2 caches.
pub const VECTOR_BATCH_ROWS: usize = 1024;

#[inline(always)]
fn dec_f64(cell: u64) -> f64 {
    f64::from_bits(cell)
}

#[inline(always)]
fn dec_i64(cell: u64) -> f64 {
    cell as i64 as f64
}

#[inline(always)]
fn dec_i32(cell: u64) -> f64 {
    f64::from(cell as u32 as i32)
}

/// Calls `$f(decoder, args...)` with the cell decoder matching `$ty`, so the
/// generic `$f` monomorphises into one tight loop per column type instead of
/// re-dispatching [`decode_cell_f64`]'s type `match` on every row. The
/// decoder arms mirror `decode_cell_f64` exactly — the numeric
/// interpretation is identical, only the dispatch point moves out of the
/// loop.
macro_rules! with_decoder {
    ($ty:expr, $f:ident ( $($args:expr),* $(,)? )) => {
        match $ty {
            AttrType::Float64 => $f(dec_f64, $($args),*),
            AttrType::Int64 | AttrType::Str => $f(dec_i64, $($args),*),
            AttrType::Int32 | AttrType::Date => $f(dec_i32, $($args),*),
        }
    };
}

/// Per-chunk min/max of one materialised column — the zonemap ("secondary
/// index") statistics, computed once at materialisation time.
#[derive(Debug, Clone, Default)]
struct ColumnZonemap {
    /// Minimum value per chunk (`+inf` for an empty chunk).
    mins: Vec<f64>,
    /// Maximum value per chunk (`-inf` for an empty chunk).
    maxs: Vec<f64>,
}

#[inline(always)]
fn zonemap_min_max<D: Fn(u64) -> f64>(decode: D, cells: &[u64]) -> (f64, f64) {
    // Plain comparisons, not `f64::min`/`max`: NaN fails both (so NaN cells
    // are ignored, exactly like the `min`/`max` fold the O(chunk) reference
    // check uses), the rarely-taken branches predict perfectly, and the
    // loop auto-vectorises. `-0.0` vs `0.0` ties may resolve differently
    // than `f64::min`, but the bounds are only ever *compared* numerically,
    // where the two zeros are equal.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &cell in cells {
        let v = decode(cell);
        if v < lo {
            lo = v;
        }
        if v > hi {
            hi = v;
        }
    }
    (lo, hi)
}

/// Accessed columns of a table, materialised as raw 64-bit cells in storage
/// order, with per-chunk zonemap statistics built in the same pass. Chunked
/// operators index rows directly, which an iterator over pages cannot do.
#[derive(Debug, Clone)]
pub struct MaterializedColumns {
    cols: Vec<usize>,
    types: Vec<AttrType>,
    data: Vec<Vec<u64>>,
    zonemaps: Vec<ColumnZonemap>,
    rows: usize,
}

impl MaterializedColumns {
    /// Validates `cols` against the table and resolves their types.
    /// Selection vectors index rows as u32; tables beyond that bound are
    /// rejected here, where it is an error, rather than wrapping silently in
    /// a release-build hot loop.
    fn check_dims(table: &SnapshotTable, cols: &[usize]) -> Result<Vec<AttrType>> {
        if table.row_count() > u64::from(u32::MAX) {
            return Err(H2Error::InvalidKernel(format!(
                "table has {} rows — the vectorized data path indexes rows as u32",
                table.row_count()
            )));
        }
        cols.iter().map(|&c| table.schema.attr(c).map(|a| a.ty)).collect()
    }

    /// Materialises `cols` (attribute indexes) of `table` and builds their
    /// per-chunk zonemap statistics — the cold-path critical path of plan
    /// preparation. Column copy and zonemap min/max run **fused** (the
    /// lane-parallel min/max reads each chunk while it is still
    /// cache-resident from the copy, instead of re-streaming the whole
    /// column from memory) and the per-(column, chunk) tasks run on the
    /// shared scoped pool, preserving chunk order in the output.
    pub fn new(table: &SnapshotTable, cols: Vec<usize>) -> Result<Self> {
        let types = Self::check_dims(table, &cols)?;
        let rows = table.row_count() as usize;
        let chunks = rows.div_ceil(PLAN_CHUNK_ROWS).max(1);
        let mut data: Vec<Vec<u64>> = cols.iter().map(|_| vec![0u64; rows]).collect();
        // One task per (column, chunk): an exclusive slice of that column's
        // output buffer plus the indexes to scatter the bounds back with.
        let mut tasks: Vec<(usize, usize, &mut [u64])> = Vec::with_capacity(cols.len() * chunks);
        for (pos, col) in data.iter_mut().enumerate() {
            for (chunk, out) in col.chunks_mut(PLAN_CHUNK_ROWS).enumerate() {
                tasks.push((pos, chunk, out));
            }
        }
        let threads = pool::host_threads(tasks.len());
        let bounds = pool::run_tasks(tasks, threads, |(pos, chunk, out)| {
            let lo = chunk * PLAN_CHUNK_ROWS;
            table.column_into(cols[pos], lo..lo + out.len(), out);
            let (min, max) = with_decoder!(types[pos], min_max_lanes(out));
            (pos, chunk, min, max)
        });
        // `(+inf, -inf)` is both the empty-chunk zonemap and the identity
        // the bounds fold from, so a zero-row table (which produces no
        // tasks but still has `chunk_count() == 1`) needs no special case.
        let mut zonemaps: Vec<ColumnZonemap> = cols
            .iter()
            .map(|_| ColumnZonemap { mins: vec![f64::INFINITY; chunks], maxs: vec![f64::NEG_INFINITY; chunks] })
            .collect();
        for (pos, chunk, min, max) in bounds {
            zonemaps[pos].mins[chunk] = min;
            zonemaps[pos].maxs[chunk] = max;
        }
        Ok(Self { cols, types, data, zonemaps, rows })
    }

    /// The prior single-threaded two-pass build — copy every column, then
    /// re-scan each column per chunk for the zonemap — retained as the
    /// equivalence oracle for [`MaterializedColumns::new`] and as the
    /// prior-PR cold path the `hostperf` benchmark prices the fused
    /// parallel build against.
    pub fn new_serial(table: &SnapshotTable, cols: Vec<usize>) -> Result<Self> {
        let mut mat = Self::new_without_zonemaps(table, cols)?;
        let rows = mat.rows;
        let chunks = mat.chunk_count();
        mat.zonemaps = mat
            .types
            .iter()
            .zip(&mat.data)
            .map(|(&ty, col)| {
                let mut zm = ColumnZonemap { mins: Vec::with_capacity(chunks), maxs: Vec::with_capacity(chunks) };
                for chunk in 0..chunks {
                    let lo = chunk * PLAN_CHUNK_ROWS;
                    let hi = ((chunk + 1) * PLAN_CHUNK_ROWS).min(rows);
                    let (min, max) = with_decoder!(ty, zonemap_min_max(&col[lo.min(rows)..hi]));
                    zm.mins.push(min);
                    zm.maxs.push(max);
                }
                zm
            })
            .collect();
        Ok(mat)
    }

    /// Materialises without building zonemap statistics, single-threaded —
    /// used where the statistics would be pure waste (the build side of a
    /// hash join is consumed exactly once, at build time) and as the
    /// `hostperf` reference baseline, which pays exactly what the
    /// row-at-a-time path used to pay. [`chunk_can_qualify`]
    /// transparently falls back to the O(chunk) recomputation on such an
    /// instance.
    pub fn new_without_zonemaps(table: &SnapshotTable, cols: Vec<usize>) -> Result<Self> {
        let types = Self::check_dims(table, &cols)?;
        let data: Vec<Vec<u64>> = cols.iter().map(|&c| table.column(c)).collect();
        let rows = table.row_count() as usize;
        Ok(Self { cols, types, data, zonemaps: Vec::new(), rows })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes of raw cells this materialisation holds (the figure the
    /// plan-data cache reports for sizing).
    pub fn cell_bytes(&self) -> u64 {
        self.data.iter().map(|col| (col.len() * 8) as u64).sum()
    }

    /// Number of [`PLAN_CHUNK_ROWS`]-sized chunks covering the rows.
    pub fn chunk_count(&self) -> usize {
        self.rows.div_ceil(PLAN_CHUNK_ROWS).max(1)
    }

    /// Row range of chunk `idx`.
    pub fn chunk_range(&self, idx: usize) -> Range<usize> {
        let lo = idx * PLAN_CHUNK_ROWS;
        lo..((idx + 1) * PLAN_CHUNK_ROWS).min(self.rows)
    }

    fn pos(&self, col: usize) -> usize {
        // h2tap: allow(panic) — every accessed column is validated by check_plan_tables / MaterializedColumns::new before chunk work starts; a miss here is a caller bug on the per-cell hot path, not a runtime condition.
        self.cols.iter().position(|&c| c == col).expect("column was materialised")
    }

    /// Raw cell of attribute `col` at `row`.
    fn raw(&self, col_pos: usize, row: usize) -> u64 {
        self.data[col_pos][row]
    }

    /// Numeric interpretation of attribute `col` at `row`.
    fn value(&self, col_pos: usize, row: usize) -> f64 {
        decode_cell_f64(self.types[col_pos], self.data[col_pos][row])
    }
}

/// A deterministic multiply-shift (splitmix-style) finaliser for 64-bit hash
/// keys. [`JoinHashTable`] keys are f64 bit patterns, already uniformly
/// spread by the multiply/xor-shift mix, so the std `HashMap`'s SipHash —
/// designed to resist adversarial keys that cannot occur here — only slows
/// probes down. The hasher is deterministic across processes and
/// independent of insertion order, so results stay build-order independent.
#[derive(Debug, Clone, Copy, Default)]
pub struct MulShiftHasher(u64);

impl Hasher for MulShiftHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        // splitmix64 finaliser: two multiply-shifts with full avalanche, so
        // both the low bits (bucket index) and the high bits (control byte)
        // of the output are well mixed.
        let mut x = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are hashed in practice; fold arbitrary bytes into
        // 8-byte words for completeness.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(self.0 ^ u64::from_le_bytes(word));
        }
    }
}

type JoinKeyMap = HashMap<u64, u64, BuildHasherDefault<MulShiftHasher>>;

/// The hash table of a primary-key equi-join: filtered build rows keyed by
/// the bit pattern of the numeric join key, carrying the raw group-key cell
/// as payload. Probes hash with the deterministic [`MulShiftHasher`].
#[derive(Debug, Clone)]
pub struct JoinHashTable {
    map: JoinKeyMap,
    /// Build rows considered (before build predicates).
    pub build_rows_in: u64,
}

impl JoinHashTable {
    /// Entries surviving the build predicates.
    pub fn entries(&self) -> u64 {
        self.map.len() as u64
    }

    /// Simulated footprint of the table.
    pub fn footprint_bytes(&self) -> u64 {
        self.entries().max(1) * h2tap_common::HASH_ENTRY_BYTES
    }

    /// Payload for `key` (the bit pattern of the numeric join key value).
    pub fn get(&self, key: u64) -> Option<u64> {
        self.map.get(&key).copied()
    }
}

/// Builds the join hash table: one pass over the build table that filters by
/// `join.build_predicates` and inserts `join.build_key` with the raw cell of
/// `group_col` (when the plan groups by a build attribute) as payload.
/// Duplicate keys among surviving rows violate the PK-join contract and are
/// rejected.
pub fn build_hash_table(build: &SnapshotTable, join: &JoinSpec, group_col: Option<usize>) -> Result<JoinHashTable> {
    let mut cols: Vec<usize> = std::iter::once(join.build_key)
        .chain(join.build_predicates.iter().map(|p| p.column))
        .chain(group_col)
        .collect();
    cols.sort_unstable();
    cols.dedup();
    // No zonemaps: the build side is consumed exactly once, right here —
    // per-chunk statistics would be computed and never read.
    let mat = MaterializedColumns::new_without_zonemaps(build, cols)?;
    let key_pos = mat.pos(join.build_key);
    let pred_pos: Vec<usize> = join.build_predicates.iter().map(|p| mat.pos(p.column)).collect();
    let group_pos = group_col.map(|c| mat.pos(c));
    let mut map = JoinKeyMap::default();
    for row in 0..mat.rows() {
        if join.build_predicates.iter().zip(&pred_pos).any(|(p, &pos)| !p.matches(mat.value(pos, row))) {
            continue;
        }
        let key = mat.value(key_pos, row).to_bits();
        let payload = group_pos.map_or(0, |pos| mat.raw(pos, row));
        if map.insert(key, payload).is_some() {
            return Err(H2Error::InvalidKernel(format!(
                "duplicate build key {} — hash joins require a unique build key",
                f64::from_bits(key)
            )));
        }
    }
    Ok(JoinHashTable { map, build_rows_in: mat.rows() as u64 })
}

/// Per-group accumulator: one f64 per aggregate plus the contributing row
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupAcc {
    /// Aggregate values in plan order.
    pub values: Vec<f64>,
    /// Rows accumulated into the group.
    pub rows: u64,
}

/// The result of evaluating one chunk of the probe table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkPartial {
    /// Per-group partial aggregates, keyed by the raw group-key cell.
    pub groups: BTreeMap<u64, GroupAcc>,
    /// Rows that satisfied the probe predicates.
    pub selected: u64,
    /// Rows that additionally found a join partner (equals `selected` for
    /// plans without a join).
    pub joined: u64,
}

/// Plan-wide row counters, summed over all chunks.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanTotals {
    /// Rows that satisfied the probe predicates.
    pub selected: u64,
    /// Rows that reached the aggregation (post join).
    pub joined: u64,
}

#[inline(always)]
fn fill_selection<D: Fn(u64) -> f64>(decode: D, col: &[u64], pred: &Predicate, base: usize, sel: &mut Vec<u32>) {
    // Branchless compaction: write the candidate index unconditionally and
    // advance the cursor by the predicate's boolean — no data-dependent
    // branch for the predictor to miss on selective data.
    sel.resize(col.len(), 0);
    let mut k = 0usize;
    for (i, &cell) in col.iter().enumerate() {
        sel[k] = (base + i) as u32;
        k += usize::from(pred.matches(decode(cell)));
    }
    sel.truncate(k);
}

#[inline(always)]
fn refine_selection<D: Fn(u64) -> f64>(decode: D, col: &[u64], pred: &Predicate, sel: &mut Vec<u32>) {
    let mut kept = 0usize;
    for k in 0..sel.len() {
        let row = sel[k];
        sel[kept] = row;
        kept += usize::from(pred.matches(decode(col[row as usize])));
    }
    sel.truncate(kept);
}

/// Fills `sel` with the chunk-relative indexes of the rows of
/// `batch` (a subrange of the chunk, both relative to the start of the
/// materialised columns) that satisfy every predicate, in ascending order.
/// One tight monomorphised loop per predicate: the first fills, the rest
/// compact in place.
#[inline]
fn select_batch(
    mat: &MaterializedColumns,
    predicates: &[Predicate],
    pred_pos: &[usize],
    batch: Range<usize>,
    sel: &mut Vec<u32>,
) {
    sel.clear();
    let mut first = true;
    for (pred, &pos) in predicates.iter().zip(pred_pos) {
        let ty = mat.types[pos];
        let col = &mat.data[pos];
        if first {
            with_decoder!(ty, fill_selection(&col[batch.clone()], pred, batch.start, sel));
            first = false;
        } else {
            with_decoder!(ty, refine_selection(col, pred, sel));
        }
        if sel.is_empty() {
            return;
        }
    }
}

/// Which inner-loop kernels a chunk evaluation uses. The public entry
/// points pin the flavour: [`process_chunk`] runs `Simd`,
/// [`process_chunk_scalar`] the retained pre-SIMD scalar batch loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernels {
    /// Explicit lane kernels ([`crate::simd`]).
    Simd,
    /// The retained scalar batch loops (the prior-PR vectorized path).
    Scalar,
}

#[inline(always)]
fn group_between_mask<D: Fn(u64) -> f64>(decode: D, cells: &[u64], pred: &Predicate) -> u32 {
    F64x8::decode(&decode, cells).between_mask(pred.lo, pred.hi)
}

/// SIMD flavour of [`select_batch`]: per 8-lane group, AND together every
/// predicate's lane mask (with an early out once a group's mask is empty),
/// then compact the surviving lanes branchlessly. The result is exactly the
/// fill+refine cascade's — the ascending set of rows every predicate
/// accepts — the per-predicate intermediate selections simply never
/// materialise, which also spares re-gathering rows per refine pass.
#[inline]
fn select_batch_simd(
    mat: &MaterializedColumns,
    predicates: &[Predicate],
    pred_pos: &[usize],
    batch: Range<usize>,
    sel: &mut Vec<u32>,
) {
    sel.clear();
    sel.resize(batch.len(), 0);
    let mut k = 0usize;
    let mut i = batch.start;
    while i + F64x8::LANES <= batch.end {
        let mut mask = (1u32 << F64x8::LANES) - 1;
        for (pred, &pos) in predicates.iter().zip(pred_pos) {
            let cells = &mat.data[pos][i..i + F64x8::LANES];
            mask &= with_decoder!(mat.types[pos], group_between_mask(cells, pred));
            if mask == 0 {
                break;
            }
        }
        for lane in 0..F64x8::LANES {
            sel[k] = (i + lane) as u32;
            k += ((mask >> lane) & 1) as usize;
        }
        i += F64x8::LANES;
    }
    for row in i..batch.end {
        sel[k] = row as u32;
        let keep = predicates.iter().zip(pred_pos).all(|(p, &pos)| p.matches(mat.value(pos, row)));
        k += usize::from(keep);
    }
    sel.truncate(k);
}

#[inline(always)]
fn stage_product_outer<D0: Fn(u64) -> f64>(
    d0: D0,
    ty1: AttrType,
    c0: &[u64],
    c1: &[u64],
    sel: &[u32],
    out: &mut [f64],
) {
    with_decoder!(ty1, stage_product_inner(d0, c0, c1, sel, out));
}

#[inline(always)]
fn stage_product_inner<D1: Fn(u64) -> f64, D0: Fn(u64) -> f64>(
    d1: D1,
    d0: D0,
    c0: &[u64],
    c1: &[u64],
    sel: &[u32],
    out: &mut [f64],
) {
    let mut i = 0usize;
    while i + F64x4::LANES <= sel.len() {
        let idx = &sel[i..i + F64x4::LANES];
        let prod = F64x4::gather(&d0, c0, idx).mul(F64x4::gather(&d1, c1, idx));
        for lane in 0..F64x4::LANES {
            out[i + lane] = prod.lane(lane);
        }
        i += F64x4::LANES;
    }
    for k in i..sel.len() {
        out[k] = d0(c0[sel[k] as usize]) * d1(c1[sel[k] as usize]);
    }
}

#[inline(always)]
fn stage_add_column<D: Fn(u64) -> f64>(decode: D, col: &[u64], sel: &[u32], out: &mut [f64]) {
    let mut i = 0usize;
    while i + F64x4::LANES <= sel.len() {
        let v = F64x4::gather(&decode, col, &sel[i..i + F64x4::LANES]);
        for lane in 0..F64x4::LANES {
            out[i + lane] += v.lane(lane);
        }
        i += F64x4::LANES;
    }
    for k in i..sel.len() {
        out[k] += decode(col[sel[k] as usize]);
    }
}

/// Stages each selected row's per-row aggregate input into `out[i]` (one
/// slot per selected row, in selection order) with lane kernels. The staged
/// value is computed by the very expression the scalar loops evaluate —
/// `SumProduct` is the two-column product, `SumColumns` folds from `0.0`
/// through the columns in column order exactly like the per-row
/// `sum::<f64>()` (so `0.0 + -0.0` stays `+0.0`) — which is what lets the
/// caller's sequential fold over `out` reproduce the reference bit for bit.
#[inline]
fn stage_rows_simd(mat: &MaterializedColumns, agg: &AggExpr, pos: &[usize], sel: &[u32], out: &mut Vec<f64>) {
    out.clear();
    out.resize(sel.len(), 0.0);
    match agg {
        AggExpr::SumProduct(..) => {
            let (c0, c1) = (&mat.data[pos[0]], &mat.data[pos[1]]);
            with_decoder!(mat.types[pos[0]], stage_product_outer(mat.types[pos[1]], c0, c1, sel, out));
        }
        AggExpr::SumColumns(_) => {
            for &p in pos {
                with_decoder!(mat.types[p], stage_add_column(&mat.data[p], sel, out));
            }
        }
        AggExpr::Count => unreachable!("Count accumulates without staging"),
    }
}

/// SIMD flavour of [`accumulate_selected`]: lane kernels stage the per-row
/// inputs, then one sequential fold adds them in ascending row order — the
/// same additions in the same order as the scalar loop, bit for bit.
#[inline]
fn accumulate_selected_simd(
    mat: &MaterializedColumns,
    agg: &AggExpr,
    pos: &[usize],
    sel: &[u32],
    scratch: &mut Vec<f64>,
    acc: &mut f64,
) {
    if matches!(agg, AggExpr::Count) {
        *acc += sel.len() as f64;
        return;
    }
    stage_rows_simd(mat, agg, pos, sel, scratch);
    for &v in scratch.iter() {
        *acc += v;
    }
}

#[inline(always)]
fn stage_product_dense_outer<D0: Fn(u64) -> f64>(d0: D0, ty1: AttrType, c0: &[u64], c1: &[u64], out: &mut [f64]) {
    with_decoder!(ty1, stage_product_dense_inner(d0, c0, c1, out));
}

#[inline(always)]
fn stage_product_dense_inner<D1: Fn(u64) -> f64, D0: Fn(u64) -> f64>(
    d1: D1,
    d0: D0,
    c0: &[u64],
    c1: &[u64],
    out: &mut [f64],
) {
    let mut i = 0usize;
    while i + F64x8::LANES <= out.len() {
        let prod = F64x8::decode(&d0, &c0[i..i + F64x8::LANES]).mul(F64x8::decode(&d1, &c1[i..i + F64x8::LANES]));
        for lane in 0..F64x8::LANES {
            out[i + lane] = prod.lane(lane);
        }
        i += F64x8::LANES;
    }
    for k in i..out.len() {
        out[k] = d0(c0[k]) * d1(c1[k]);
    }
}

#[inline(always)]
fn stage_add_column_dense<D: Fn(u64) -> f64>(decode: D, col: &[u64], out: &mut [f64]) {
    let mut i = 0usize;
    while i + F64x8::LANES <= out.len() {
        let v = F64x8::decode(&decode, &col[i..i + F64x8::LANES]);
        for lane in 0..F64x8::LANES {
            out[i + lane] += v.lane(lane);
        }
        i += F64x8::LANES;
    }
    for k in i..out.len() {
        out[k] += decode(col[k]);
    }
}

/// SIMD flavour of [`accumulate_dense`] (no predicates): streams the
/// columns 8 lanes at a time in [`VECTOR_BATCH_ROWS`] batches (bounding the
/// staging scratch), folding each batch sequentially in ascending row
/// order.
#[inline]
fn accumulate_dense_simd(
    mat: &MaterializedColumns,
    agg: &AggExpr,
    pos: &[usize],
    rows: Range<usize>,
    scratch: &mut Vec<f64>,
    acc: &mut f64,
) {
    if matches!(agg, AggExpr::Count) {
        *acc += rows.len() as f64;
        return;
    }
    let mut lo = rows.start;
    while lo < rows.end {
        let hi = (lo + VECTOR_BATCH_ROWS).min(rows.end);
        scratch.clear();
        scratch.resize(hi - lo, 0.0);
        match agg {
            AggExpr::SumProduct(..) => {
                let c0 = &mat.data[pos[0]][lo..hi];
                let c1 = &mat.data[pos[1]][lo..hi];
                with_decoder!(mat.types[pos[0]], stage_product_dense_outer(mat.types[pos[1]], c0, c1, scratch));
            }
            AggExpr::SumColumns(_) => {
                for &p in pos {
                    with_decoder!(mat.types[p], stage_add_column_dense(&mat.data[p][lo..hi], scratch));
                }
            }
            AggExpr::Count => unreachable!(),
        }
        for &v in scratch.iter() {
            *acc += v;
        }
        lo = hi;
    }
}

/// Accumulates one aggregate over the selected rows into `acc`, visiting
/// rows in ascending order. The per-row expressions are verbatim those of
/// the row-at-a-time reference, so each accumulator receives bit-identical
/// additions in the same order — only the per-row `match` on the aggregate
/// variant is hoisted out of the loop.
#[inline]
fn accumulate_selected(mat: &MaterializedColumns, agg: &AggExpr, pos: &[usize], sel: &[u32], acc: &mut f64) {
    match agg {
        AggExpr::SumProduct(..) => {
            for &row in sel {
                *acc += mat.value(pos[0], row as usize) * mat.value(pos[1], row as usize);
            }
        }
        AggExpr::SumColumns(_) => {
            for &row in sel {
                *acc += pos.iter().map(|&p| mat.value(p, row as usize)).sum::<f64>();
            }
        }
        AggExpr::Count => {
            // Counting sums exact small integers: adding 1.0 per row and
            // adding the (exactly representable) batch total are the same
            // f64, bit for bit.
            *acc += sel.len() as f64;
        }
    }
}

/// Like [`accumulate_selected`] for a dense row range (no predicates).
#[inline]
fn accumulate_dense(mat: &MaterializedColumns, agg: &AggExpr, pos: &[usize], rows: Range<usize>, acc: &mut f64) {
    match agg {
        AggExpr::SumProduct(..) => {
            for row in rows {
                *acc += mat.value(pos[0], row) * mat.value(pos[1], row);
            }
        }
        AggExpr::SumColumns(_) => {
            for row in rows {
                *acc += pos.iter().map(|&p| mat.value(p, row)).sum::<f64>();
            }
        }
        AggExpr::Count => {
            *acc += rows.len() as f64;
        }
    }
}

/// How the rows of a batch map onto group accumulators.
enum GroupMode {
    /// No `group_by`: one global accumulator (key 0).
    Global,
    /// `group_by` on a probe column: key is the raw cell at that position.
    Probe(usize),
    /// `group_by` on a build column: key is the join payload.
    Build,
}

/// Grouped accumulation state for one chunk: an insertion-ordered arena of
/// accumulators plus a fast key → slot index. Per-group, per-aggregate
/// addition order is the ascending row order of the rows that landed in the
/// group — exactly the order the row-at-a-time reference uses — so arena
/// bookkeeping cannot perturb a bit.
struct GroupArena {
    slot_of: HashMap<u64, u32, BuildHasherDefault<MulShiftHasher>>,
    keys: Vec<u64>,
    accs: Vec<GroupAcc>,
    aggregates: usize,
}

impl GroupArena {
    fn new(aggregates: usize) -> Self {
        Self { slot_of: HashMap::default(), keys: Vec::new(), accs: Vec::new(), aggregates }
    }

    #[inline]
    fn slot(&mut self, key: u64) -> u32 {
        *self.slot_of.entry(key).or_insert_with(|| {
            self.keys.push(key);
            self.accs.push(GroupAcc { values: vec![0.0; self.aggregates], rows: 0 });
            (self.keys.len() - 1) as u32
        })
    }

    fn into_groups(self) -> BTreeMap<u64, GroupAcc> {
        self.keys.into_iter().zip(self.accs).collect()
    }
}

/// Evaluates `plan` over `rows` of the materialised probe columns —
/// vectorized with explicit SIMD kernels: per [`VECTOR_BATCH_ROWS`] batch,
/// lane-parallel predicate masks fill a selection vector, the optional hash
/// probe stages its key decodes lanewise and compacts, and per-aggregate
/// staging kernels feed sequential accumulation into the group arena. Rows
/// are processed in ascending storage order; this function is
/// deterministic, side-effect free and bit-identical to
/// [`process_chunk_reference`] and [`process_chunk_scalar`], so chunks can
/// be evaluated on any thread in any order.
pub fn process_chunk(
    probe: &MaterializedColumns,
    plan: &OlapPlan,
    hash: Option<&JoinHashTable>,
    rows: Range<usize>,
) -> ChunkPartial {
    process_chunk_with(probe, plan, hash, rows, Kernels::Simd)
}

/// The retained pre-SIMD scalar batch path of [`process_chunk`] — the
/// prior-PR vectorized implementation, kept as a second oracle and as the
/// baseline the `hostperf` benchmark prices the SIMD kernels against.
pub fn process_chunk_scalar(
    probe: &MaterializedColumns,
    plan: &OlapPlan,
    hash: Option<&JoinHashTable>,
    rows: Range<usize>,
) -> ChunkPartial {
    process_chunk_with(probe, plan, hash, rows, Kernels::Scalar)
}

fn process_chunk_with(
    probe: &MaterializedColumns,
    plan: &OlapPlan,
    hash: Option<&JoinHashTable>,
    rows: Range<usize>,
    kernels: Kernels,
) -> ChunkPartial {
    let pred_pos: Vec<usize> = plan.predicates.iter().map(|p| probe.pos(p.column)).collect();
    let probe_key_pos = plan.join.as_ref().map(|j| probe.pos(j.probe_column));
    let mode = match plan.group_by {
        None => GroupMode::Global,
        Some(PlanColumn::Probe(c)) => GroupMode::Probe(probe.pos(c)),
        Some(PlanColumn::Build(_)) => GroupMode::Build,
    };
    // Aggregate inputs resolved to materialised positions once per chunk.
    let agg_pos: Vec<Vec<usize>> =
        plan.aggregates.iter().map(|a| a.columns().iter().map(|&c| probe.pos(c)).collect()).collect();

    let mut partial = ChunkPartial::default();
    let mut arena = GroupArena::new(plan.aggregates.len());
    // The global group's accumulators live outside the arena: no per-row
    // key lookup, and the accumulation order is unchanged (same additions,
    // same order, one accumulator).
    let mut global = GroupAcc { values: vec![0.0; plan.aggregates.len()], rows: 0 };

    let mut sel: Vec<u32> = Vec::with_capacity(VECTOR_BATCH_ROWS);
    let mut payloads: Vec<u64> = Vec::new();
    let mut slots: Vec<u32> = Vec::new();
    let mut key_bits: Vec<u64> = Vec::new();
    let mut scratch: Vec<f64> = Vec::new();

    // Every row of a predicate-free, join-free, ungrouped plan reaches the
    // global group: stream the columns densely instead of gathering through
    // an identity selection vector — same additions, same order.
    if plan.predicates.is_empty() && probe_key_pos.is_none() && matches!(mode, GroupMode::Global) {
        let n = rows.len() as u64;
        (partial.selected, partial.joined, global.rows) = (n, n, n);
        for (slot, (agg, pos)) in plan.aggregates.iter().zip(&agg_pos).enumerate() {
            let acc = &mut global.values[slot];
            match kernels {
                Kernels::Simd => accumulate_dense_simd(probe, agg, pos, rows.clone(), &mut scratch, acc),
                Kernels::Scalar => accumulate_dense(probe, agg, pos, rows.clone(), acc),
            }
        }
        if n > 0 {
            partial.groups.insert(0, global);
        }
        return partial;
    }

    let mut lo = rows.start;
    while lo < rows.end {
        let hi = (lo + VECTOR_BATCH_ROWS).min(rows.end);

        // 1. Predicate selection.
        if plan.predicates.is_empty() {
            sel.clear();
            sel.extend((lo..hi).map(|r| r as u32));
        } else {
            match kernels {
                Kernels::Simd => select_batch_simd(probe, &plan.predicates, &pred_pos, lo..hi, &mut sel),
                Kernels::Scalar => select_batch(probe, &plan.predicates, &pred_pos, lo..hi, &mut sel),
            }
        }
        partial.selected += sel.len() as u64;
        lo = hi;
        if sel.is_empty() {
            continue;
        }

        // 2. Hash probe: compact the selection vector to the rows that
        //    found a partner, collecting payloads for build-side grouping.
        //    The SIMD flavour stages the key decodes lanewise first; the
        //    map lookups themselves are scalar either way, over the same
        //    key bit patterns in the same order.
        if let Some(key_pos) = probe_key_pos {
            // h2tap: allow(panic) — prepare_plan populates `hash` exactly when the plan has a join, and probe_key_pos is derived from that same join; the two cannot disagree.
            let table = hash.expect("join plans carry a hash table");
            payloads.clear();
            let mut kept = 0usize;
            match kernels {
                Kernels::Simd => {
                    let col = &probe.data[key_pos];
                    with_decoder!(probe.types[key_pos], stage_key_bits(col, &sel, &mut key_bits));
                    for k in 0..sel.len() {
                        let Some(payload) = table.get(key_bits[k]) else { continue };
                        sel[kept] = sel[k];
                        kept += 1;
                        payloads.push(payload);
                    }
                }
                Kernels::Scalar => {
                    for k in 0..sel.len() {
                        let row = sel[k];
                        let Some(payload) = table.get(probe.value(key_pos, row as usize).to_bits()) else {
                            continue;
                        };
                        sel[kept] = row;
                        kept += 1;
                        payloads.push(payload);
                    }
                }
            }
            sel.truncate(kept);
        }
        partial.joined += sel.len() as u64;
        if sel.is_empty() {
            continue;
        }

        // 3. Group accumulation: resolve each surviving row's accumulator,
        //    bump row counts, then run one specialised loop per aggregate.
        match mode {
            GroupMode::Global => {
                global.rows += sel.len() as u64;
                for (slot, (agg, pos)) in plan.aggregates.iter().zip(&agg_pos).enumerate() {
                    match kernels {
                        Kernels::Simd => {
                            accumulate_selected_simd(probe, agg, pos, &sel, &mut scratch, &mut global.values[slot])
                        }
                        Kernels::Scalar => accumulate_selected(probe, agg, pos, &sel, &mut global.values[slot]),
                    }
                }
            }
            GroupMode::Probe(group_pos) => {
                slots.clear();
                for &row in &sel {
                    let slot = arena.slot(probe.raw(group_pos, row as usize));
                    arena.accs[slot as usize].rows += 1;
                    slots.push(slot);
                }
                match kernels {
                    Kernels::Simd => {
                        accumulate_grouped_simd(probe, plan, &agg_pos, &sel, &slots, &mut scratch, &mut arena)
                    }
                    Kernels::Scalar => accumulate_grouped(probe, plan, &agg_pos, &sel, &slots, &mut arena),
                }
            }
            GroupMode::Build => {
                slots.clear();
                for &payload in &payloads {
                    let slot = arena.slot(payload);
                    arena.accs[slot as usize].rows += 1;
                    slots.push(slot);
                }
                match kernels {
                    Kernels::Simd => {
                        accumulate_grouped_simd(probe, plan, &agg_pos, &sel, &slots, &mut scratch, &mut arena)
                    }
                    Kernels::Scalar => accumulate_grouped(probe, plan, &agg_pos, &sel, &slots, &mut arena),
                }
            }
        }
    }

    partial.groups = arena.into_groups();
    if matches!(mode, GroupMode::Global) && global.rows > 0 {
        partial.groups.insert(0, global);
    }
    partial
}

/// Runs one specialised accumulation loop per aggregate over the selected
/// rows, each adding into its row's arena slot. Rows are visited in
/// ascending order per loop, so every `(group, aggregate)` accumulator sees
/// the same addition sequence as the row-at-a-time reference.
#[inline]
fn accumulate_grouped(
    probe: &MaterializedColumns,
    plan: &OlapPlan,
    agg_pos: &[Vec<usize>],
    sel: &[u32],
    slots: &[u32],
    arena: &mut GroupArena,
) {
    for (agg_slot, (agg, pos)) in plan.aggregates.iter().zip(agg_pos).enumerate() {
        match agg {
            AggExpr::SumProduct(..) => {
                for (&row, &slot) in sel.iter().zip(slots) {
                    arena.accs[slot as usize].values[agg_slot] +=
                        probe.value(pos[0], row as usize) * probe.value(pos[1], row as usize);
                }
            }
            AggExpr::SumColumns(_) => {
                for (&row, &slot) in sel.iter().zip(slots) {
                    arena.accs[slot as usize].values[agg_slot] +=
                        pos.iter().map(|&p| probe.value(p, row as usize)).sum::<f64>();
                }
            }
            AggExpr::Count => {
                for &slot in slots {
                    arena.accs[slot as usize].values[agg_slot] += 1.0;
                }
            }
        }
    }
}

/// SIMD flavour of [`accumulate_grouped`]: per aggregate, lane kernels
/// stage the per-row inputs, then a sequential scatter adds each staged
/// value into its row's arena slot. Every `(group, aggregate)` accumulator
/// sees the same addition sequence as the scalar loop — staging changes
/// where the per-row value is computed, not what is added or in what order.
#[inline]
fn accumulate_grouped_simd(
    probe: &MaterializedColumns,
    plan: &OlapPlan,
    agg_pos: &[Vec<usize>],
    sel: &[u32],
    slots: &[u32],
    scratch: &mut Vec<f64>,
    arena: &mut GroupArena,
) {
    for (agg_slot, (agg, pos)) in plan.aggregates.iter().zip(agg_pos).enumerate() {
        if matches!(agg, AggExpr::Count) {
            for &slot in slots {
                arena.accs[slot as usize].values[agg_slot] += 1.0;
            }
            continue;
        }
        stage_rows_simd(probe, agg, pos, sel, scratch);
        for (&slot, &v) in slots.iter().zip(scratch.iter()) {
            arena.accs[slot as usize].values[agg_slot] += v;
        }
    }
}

/// The retained row-at-a-time implementation of [`process_chunk`] — the
/// reference oracle the vectorized path is property-tested bit-identical
/// against, and the "pre-vectorization" code path of the `hostperf`
/// benchmark.
pub fn process_chunk_reference(
    probe: &MaterializedColumns,
    plan: &OlapPlan,
    hash: Option<&JoinHashTable>,
    rows: Range<usize>,
) -> ChunkPartial {
    let pred_pos: Vec<usize> = plan.predicates.iter().map(|p| probe.pos(p.column)).collect();
    let probe_key_pos = plan.join.as_ref().map(|j| probe.pos(j.probe_column));
    let group_probe_pos = match plan.group_by {
        Some(PlanColumn::Probe(c)) => Some(probe.pos(c)),
        _ => None,
    };
    let agg_pos: Vec<Vec<usize>> =
        plan.aggregates.iter().map(|a| a.columns().iter().map(|&c| probe.pos(c)).collect()).collect();

    let mut partial = ChunkPartial::default();
    for row in rows {
        if plan.predicates.iter().zip(&pred_pos).any(|(p, &pos)| !p.matches(probe.value(pos, row))) {
            continue;
        }
        partial.selected += 1;
        let mut group_key = group_probe_pos.map_or(0, |pos| probe.raw(pos, row));
        if let Some(key_pos) = probe_key_pos {
            // h2tap: allow(panic) — prepare_plan populates `hash` exactly when the plan has a join (same invariant as the batch path above).
            let table = hash.expect("join plans carry a hash table");
            let Some(payload) = table.get(probe.value(key_pos, row).to_bits()) else { continue };
            if matches!(plan.group_by, Some(PlanColumn::Build(_))) {
                group_key = payload;
            }
        }
        partial.joined += 1;
        let acc = partial
            .groups
            .entry(group_key)
            .or_insert_with(|| GroupAcc { values: vec![0.0; plan.aggregates.len()], rows: 0 });
        acc.rows += 1;
        for (slot, (agg, pos)) in plan.aggregates.iter().zip(&agg_pos).enumerate() {
            acc.values[slot] += match agg {
                AggExpr::SumProduct(..) => probe.value(pos[0], row) * probe.value(pos[1], row),
                AggExpr::SumColumns(_) => pos.iter().map(|&p| probe.value(p, row)).sum(),
                AggExpr::Count => 1.0,
            };
        }
    }
    partial
}

/// Merges per-chunk partials **in the order given** (callers pass ascending
/// chunk order — this is what keeps f64 aggregates byte-identical across
/// sites) and emits groups in ascending raw-key order. A plan without
/// `group_by` always yields exactly one global group (key 0, zeroed when no
/// row qualified), so scan-style plans have a scalar answer even on empty
/// selections; grouped plans yield one group per key that actually occurred.
pub fn merge_partials(plan: &OlapPlan, partials: Vec<ChunkPartial>) -> (Vec<GroupRow>, PlanTotals) {
    let mut totals = PlanTotals::default();
    let mut merged: BTreeMap<u64, GroupAcc> = BTreeMap::new();
    for partial in partials {
        totals.selected += partial.selected;
        totals.joined += partial.joined;
        for (key, acc) in partial.groups {
            match merged.entry(key) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(acc);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let g = slot.get_mut();
                    g.rows += acc.rows;
                    for (v, add) in g.values.iter_mut().zip(&acc.values) {
                        *v += add;
                    }
                }
            }
        }
    }
    if plan.group_by.is_none() && merged.is_empty() {
        merged.insert(0, GroupAcc { values: vec![0.0; plan.aggregates.len()], rows: 0 });
    }
    let groups = merged.into_iter().map(|(key, acc)| GroupRow { key, values: acc.values, rows: acc.rows }).collect();
    (groups, totals)
}

/// Whether any row of chunk `chunk` *could* satisfy the predicates, judged
/// from the zonemap statistics [`MaterializedColumns::new`] built at
/// materialisation time — O(#predicates), no data scan. `true` is always
/// safe; `false` guarantees the chunk holds no qualifying row, so skipping
/// it cannot change the answer (the chunk's [`ChunkPartial`] would be
/// empty, and [`merge_partials`] ignores empty partials).
pub fn chunk_can_qualify(mat: &MaterializedColumns, predicates: &[Predicate], chunk: usize) -> bool {
    if mat.zonemaps.len() != mat.cols.len() {
        // Materialised without statistics (the retained pre-PR baseline):
        // fall back to recomputing from the data.
        return chunk_can_qualify_reference(mat, predicates, mat.chunk_range(chunk));
    }
    for pred in predicates {
        let pos = mat.pos(pred.column);
        let zm = &mat.zonemaps[pos];
        if zm.maxs[chunk] < pred.lo || zm.mins[chunk] > pred.hi {
            return false;
        }
    }
    true
}

/// The retained pre-zonemap-statistics implementation: recomputes each
/// predicate column's min/max with a full O(chunk) scan on every call. Kept
/// as the oracle for [`chunk_can_qualify`] and as the
/// "pre-optimisation" code path of the `hostperf` benchmark.
pub fn chunk_can_qualify_reference(mat: &MaterializedColumns, predicates: &[Predicate], rows: Range<usize>) -> bool {
    for pred in predicates {
        let pos = mat.pos(pred.column);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for row in rows.clone() {
            let v = mat.value(pos, row);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if hi < pred.lo || lo > pred.hi {
            return false;
        }
    }
    true
}

/// Everything both sites need before they can evaluate a plan's chunks: the
/// materialised probe columns and the (optional) join hash table. Both are
/// shared (`Arc`) so the snapshot-keyed plan-data cache can hand the same
/// instances to every site and every query of a snapshot.
#[derive(Debug, Clone)]
pub struct PlanData {
    /// Accessed probe columns, materialised in storage order.
    pub mat: Arc<MaterializedColumns>,
    /// The join hash table (present exactly when the plan joins).
    pub hash: Option<Arc<JoinHashTable>>,
}

/// The shared preamble of plan execution: validates the plan against the
/// presence of a build table, rejects empty tables, builds the join hash
/// table from the filtered build side and materialises the accessed probe
/// columns. Both sites call this so their data paths — and their error
/// behaviour on malformed or empty inputs — cannot drift apart; what remains
/// site-specific is how the chunks are scheduled and what the pipeline is
/// charged. (Sites that hold a [`crate::cache::PlanDataCache`] go through
/// [`crate::cache::PlanDataCache::prepare_plan`] instead, which produces the
/// same `PlanData` but shares it across queries and sites.)
pub fn prepare_plan(
    probe_table: &SnapshotTable,
    build_table: Option<&SnapshotTable>,
    plan: &OlapPlan,
) -> Result<PlanData> {
    let build_group_col = check_plan_tables(probe_table, build_table, plan)?;
    let hash = match (&plan.join, build_table) {
        (Some(join), Some(build)) => Some(Arc::new(build_hash_table(build, join, build_group_col)?)),
        _ => None,
    };
    let mat = Arc::new(MaterializedColumns::new(probe_table, plan.probe_columns_accessed())?);
    Ok(PlanData { mat, hash })
}

/// The validation half of [`prepare_plan`]: checks the plan/table pairing
/// and rejects empty tables, returning the build-side group column (if
/// any). Shared with the cached preparation path so cached and uncached
/// execution reject malformed inputs identically.
pub fn check_plan_tables(
    probe_table: &SnapshotTable,
    build_table: Option<&SnapshotTable>,
    plan: &OlapPlan,
) -> Result<Option<usize>> {
    let build_group_col = check_plan(plan, build_table.is_some())?;
    if probe_table.row_count() == 0 {
        return Err(H2Error::InvalidKernel("cannot execute a plan over an empty probe table".into()));
    }
    if let Some(build) = build_table {
        if build.row_count() == 0 {
            return Err(H2Error::InvalidKernel("cannot execute a join plan over an empty build table".into()));
        }
    }
    Ok(build_group_col)
}

/// Validates `plan` against the presence of a build table and returns the
/// group column on the build side (if any). Shared by both sites so they
/// reject malformed plans identically.
pub fn check_plan(plan: &OlapPlan, has_build: bool) -> Result<Option<usize>> {
    plan.validate().map_err(H2Error::Config)?;
    match (&plan.join, has_build) {
        (Some(_), false) => return Err(H2Error::Config("join plan executed without a build table".into())),
        (None, true) => return Err(H2Error::Config("build table supplied but the plan has no join".into())),
        _ => {}
    }
    Ok(match plan.group_by {
        Some(PlanColumn::Build(c)) => Some(c),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::{PartitionId, Predicate, ScanAggQuery, Schema, Value};
    use h2tap_storage::{Database, Layout};

    /// probe: key = i, fk = i % 100, val = i as f64; build: key = 0..50,
    /// size = key % 10, brand = key % 5.
    fn tables(probe_rows: i64) -> (SnapshotTable, SnapshotTable) {
        let db = Database::new(1);
        let probe_schema = Schema::new(vec![
            h2tap_common::Attribute::new("k", AttrType::Int64),
            h2tap_common::Attribute::new("fk", AttrType::Int64),
            h2tap_common::Attribute::new("val", AttrType::Float64),
        ])
        .unwrap();
        let p = db.create_table("probe", probe_schema, Layout::Dsm).unwrap();
        for i in 0..probe_rows {
            db.insert(PartitionId(0), p, &[Value::Int64(i), Value::Int64(i % 100), Value::Float64(i as f64)]).unwrap();
        }
        let build_schema = Schema::new(vec![
            h2tap_common::Attribute::new("key", AttrType::Int64),
            h2tap_common::Attribute::new("size", AttrType::Int32),
            h2tap_common::Attribute::new("brand", AttrType::Int32),
        ])
        .unwrap();
        let b = db.create_table("build", build_schema, Layout::Dsm).unwrap();
        for i in 0..50i64 {
            db.insert(
                PartitionId(0),
                b,
                &[Value::Int64(i), Value::Int32((i % 10) as i32), Value::Int32((i % 5) as i32)],
            )
            .unwrap();
        }
        let snap = db.snapshot();
        (snap.table(p).unwrap().clone(), snap.table(b).unwrap().clone())
    }

    fn join_plan() -> OlapPlan {
        OlapPlan {
            predicates: vec![],
            join: Some(JoinSpec {
                probe_column: 1,
                build_key: 0,
                build_predicates: vec![Predicate::between(1, 0.0, 4.0)],
            }),
            group_by: Some(PlanColumn::Build(2)),
            aggregates: vec![AggExpr::SumColumns(vec![2]), AggExpr::Count],
        }
    }

    #[test]
    fn hash_build_filters_and_carries_group_payload() {
        let (_, build) = tables(10);
        let plan = join_plan();
        let table = build_hash_table(&build, plan.join.as_ref().unwrap(), Some(2)).unwrap();
        // size <= 4 keeps keys with key % 10 in 0..=4: 25 of 50.
        assert_eq!(table.entries(), 25);
        assert_eq!(table.build_rows_in, 50);
        // Key 3 survives, payload is brand 3 % 5 = 3 (raw Int32 cell).
        assert_eq!(table.get(3.0f64.to_bits()), Some(3));
        assert_eq!(table.get(5.0f64.to_bits()), None);
    }

    #[test]
    fn duplicate_build_keys_are_rejected() {
        // A build table keyed on a column with repeats (i % 2) violates the
        // PK-join contract.
        let join = JoinSpec { probe_column: 0, build_key: 1, build_predicates: vec![] };
        let db = Database::new(1);
        let t = db.create_table("b", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        for i in 0..4i64 {
            db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int64(i % 2)]).unwrap();
        }
        let snap = db.snapshot();
        let dup = snap.table(t).unwrap().clone();
        assert!(build_hash_table(&dup, &join, None).is_err());
    }

    #[test]
    fn mulshift_hasher_is_deterministic_and_spreads_bits() {
        let hash = |key: u64| {
            let mut h = MulShiftHasher::default();
            h.write_u64(key);
            h.finish()
        };
        assert_eq!(hash(42), hash(42), "same key, same hash, every time");
        // f64 bit patterns of consecutive integers differ only in a few
        // high mantissa bits; the finaliser must spread them across the low
        // bits the hash map buckets on.
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..64u64 {
            low_bits.insert(hash((i as f64).to_bits()) & 0x3f);
        }
        assert!(low_bits.len() > 32, "low 6 bits should be well spread, got {} distinct", low_bits.len());
    }

    #[test]
    fn chunked_evaluation_matches_a_scalar_reference() {
        let (probe, build) = tables(1_000);
        let plan = join_plan();
        let hash = build_hash_table(&build, plan.join.as_ref().unwrap(), Some(2)).unwrap();
        let mat = MaterializedColumns::new(&probe, plan.probe_columns_accessed()).unwrap();
        let partials: Vec<ChunkPartial> =
            (0..mat.chunk_count()).map(|i| process_chunk(&mat, &plan, Some(&hash), mat.chunk_range(i))).collect();
        let (groups, totals) = merge_partials(&plan, partials);
        // fk = i % 100 joins when it hits one of the 25 surviving build keys
        // (fk < 50 and fk % 10 <= 4), each fk value occurring 10 times.
        assert_eq!(totals.selected, 1_000);
        assert_eq!(totals.joined, 250);
        // Groups are brands 0..5 of surviving keys.
        assert_eq!(groups.len(), 5);
        let total_rows: u64 = groups.iter().map(|g| g.rows).sum();
        assert_eq!(total_rows, 250);
        // SumColumns([2]) over probe col2 = i as f64; reference per brand.
        let mut expect: BTreeMap<u64, f64> = BTreeMap::new();
        for i in 0..1_000u64 {
            let fk = i % 100;
            if fk % 10 <= 4 && fk < 50 {
                let brand = (fk % 5) as u32 as u64;
                *expect.entry(brand).or_default() += i as f64;
            }
        }
        for g in &groups {
            let want = expect[&g.key];
            assert!((g.values[0] - want).abs() < 1e-9, "brand {} got {} want {want}", g.key, g.values[0]);
            assert_eq!(g.values[1], g.rows as f64, "count aggregate tracks rows");
        }
    }

    #[test]
    fn vectorized_plan_chunks_are_bit_identical_to_the_reference() {
        // Several chunks, every group mode, predicates + join.
        let (probe, build) = tables(200_000);
        let base = join_plan();
        let plans = [
            base.clone(),
            OlapPlan { predicates: vec![Predicate::between(0, 100.0, 150_000.0)], ..base.clone() },
            OlapPlan { group_by: Some(PlanColumn::Probe(1)), ..base.clone() },
            OlapPlan { group_by: None, ..base.clone() },
            OlapPlan {
                predicates: vec![Predicate::between(1, 10.0, 59.0)],
                join: None,
                group_by: Some(PlanColumn::Probe(1)),
                aggregates: vec![AggExpr::SumProduct(1, 2), AggExpr::Count, AggExpr::SumColumns(vec![0, 2])],
            },
            // Predicate-free and ungrouped: the dense lane loop.
            OlapPlan {
                predicates: vec![],
                join: None,
                group_by: None,
                aggregates: vec![AggExpr::SumProduct(1, 2), AggExpr::Count, AggExpr::SumColumns(vec![0, 2])],
            },
        ];
        for plan in plans {
            assert_chunks_match_the_reference(&probe, &build, &plan);
        }
    }

    #[test]
    fn vectorized_scan_chunks_are_bit_identical_to_the_reference() {
        // Scan-shaped plans (`OlapPlan::scan`), several chunks each.
        let (probe, build) = tables(200_000);
        let queries = [
            ScanAggQuery { predicates: vec![Predicate::between(1, 10.0, 59.0)], aggregate: AggExpr::SumProduct(1, 2) },
            ScanAggQuery {
                predicates: vec![Predicate::between(1, 10.0, 59.0), Predicate::between(0, 1_000.0, 180_000.0)],
                aggregate: AggExpr::SumColumns(vec![0, 2]),
            },
            ScanAggQuery { predicates: vec![], aggregate: AggExpr::SumColumns(vec![2]) },
            ScanAggQuery { predicates: vec![Predicate::between(2, 0.0, 5_000.5)], aggregate: AggExpr::Count },
            ScanAggQuery { predicates: vec![Predicate::between(0, 1e9, 2e9)], aggregate: AggExpr::SumProduct(0, 2) },
        ];
        for query in &queries {
            let plan = OlapPlan::scan(query);
            assert!(plan.is_scan());
            assert_chunks_match_the_reference(&probe, &build, &plan);
        }
    }

    /// Every chunk of `plan` over `probe` gives bit-identical partials from
    /// the SIMD, scalar-batch and reference kernels.
    fn assert_chunks_match_the_reference(probe: &SnapshotTable, build: &SnapshotTable, plan: &OlapPlan) {
        let hash = match &plan.join {
            Some(join) => {
                let group_col = check_plan(plan, true).unwrap();
                Some(build_hash_table(build, join, group_col).unwrap())
            }
            None => None,
        };
        let mat = MaterializedColumns::new(probe, plan.probe_columns_accessed()).unwrap();
        for i in 0..mat.chunk_count() {
            let simd = process_chunk(&mat, plan, hash.as_ref(), mat.chunk_range(i));
            let scalar = process_chunk_scalar(&mat, plan, hash.as_ref(), mat.chunk_range(i));
            let slow = process_chunk_reference(&mat, plan, hash.as_ref(), mat.chunk_range(i));
            for fast in [&simd, &scalar] {
                assert_eq!(fast.selected, slow.selected);
                assert_eq!(fast.joined, slow.joined);
                assert_eq!(fast.groups.len(), slow.groups.len());
                for ((fk, fa), (sk, sa)) in fast.groups.iter().zip(&slow.groups) {
                    assert_eq!(fk, sk);
                    assert_eq!(fa.rows, sa.rows);
                    for (x, y) in fa.values.iter().zip(&sa.values) {
                        assert_eq!(x.to_bits(), y.to_bits(), "chunk {i} group {fk}: {x} vs {y}");
                    }
                }
            }
        }
    }

    #[test]
    fn merge_order_is_chunk_order() {
        let (probe, _) = tables(200_000);
        let plan =
            OlapPlan { predicates: vec![], join: None, group_by: None, aggregates: vec![AggExpr::SumColumns(vec![2])] };
        let mat = MaterializedColumns::new(&probe, plan.probe_columns_accessed()).unwrap();
        assert!(mat.chunk_count() > 1, "test needs several chunks");
        let partials: Vec<ChunkPartial> =
            (0..mat.chunk_count()).map(|i| process_chunk(&mat, &plan, None, mat.chunk_range(i))).collect();
        let (a, _) = merge_partials(&plan, partials.clone());
        let (b, _) = merge_partials(&plan, partials);
        // Bit-equal on repeat evaluation: the contract the sites rely on.
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].key, 0);
    }

    #[test]
    fn ungrouped_plans_always_emit_the_global_group() {
        let (probe, _) = tables(100);
        // A predicate nothing satisfies: the selection is empty.
        let plan = OlapPlan {
            predicates: vec![Predicate::between(0, 1e9, 2e9)],
            join: None,
            group_by: None,
            aggregates: vec![AggExpr::SumColumns(vec![2]), AggExpr::Count],
        };
        let mat = MaterializedColumns::new(&probe, plan.probe_columns_accessed()).unwrap();
        let partials = vec![process_chunk(&mat, &plan, None, mat.chunk_range(0))];
        let (groups, totals) = merge_partials(&plan, partials);
        assert_eq!(totals.joined, 0);
        assert_eq!(groups, vec![GroupRow { key: 0, values: vec![0.0, 0.0], rows: 0 }]);
        // A grouped plan with an empty selection stays empty: no phantom
        // groups.
        let grouped = OlapPlan { group_by: Some(PlanColumn::Probe(0)), ..plan.clone() };
        let mat = MaterializedColumns::new(&probe, grouped.probe_columns_accessed()).unwrap();
        let partials = vec![process_chunk(&mat, &grouped, None, mat.chunk_range(0))];
        let (groups, _) = merge_partials(&grouped, partials);
        assert!(groups.is_empty());
    }

    #[test]
    fn scan_chunks_match_a_scalar_reference_and_merge_bit_equal() {
        let (probe, _) = tables(200_000);
        let plan = OlapPlan::scan(&ScanAggQuery {
            predicates: vec![Predicate::between(1, 10.0, 59.0)],
            aggregate: AggExpr::SumProduct(1, 2),
        });
        let mat = MaterializedColumns::new(&probe, plan.probe_columns_accessed()).unwrap();
        assert!(mat.chunk_count() > 1, "test needs several chunks");
        let partials: Vec<ChunkPartial> =
            (0..mat.chunk_count()).map(|i| process_chunk(&mat, &plan, None, mat.chunk_range(i))).collect();
        let (groups, totals) = merge_partials(&plan, partials.clone());
        let (again, _) = merge_partials(&plan, partials);
        assert_eq!(groups, again, "same partials in the same order are bit-equal");
        // Scalar reference: fk = i % 100 in 10..=59, aggregate fk * i.
        let mut expect = 0.0f64;
        let mut rows = 0u64;
        for i in 0..200_000u64 {
            let fk = i % 100;
            if (10..=59).contains(&fk) {
                expect += fk as f64 * i as f64;
                rows += 1;
            }
        }
        assert_eq!(totals.joined, rows);
        let value = groups[0].values[0];
        assert!((value - expect).abs() < expect.abs() * 1e-12, "{value} vs {expect}");
    }

    #[test]
    fn parallel_materialisation_matches_the_serial_two_pass_build() {
        // Cell data must be byte-identical (it is a pure copy); zonemap
        // bounds must be numerically equal (the lane-split min/max may pick
        // a different -0.0/+0.0 tie representative, which numeric equality
        // deliberately admits). Row counts cross chunk and lane boundaries.
        for rows in [1i64, 7, 1024, PLAN_CHUNK_ROWS as i64, PLAN_CHUNK_ROWS as i64 + 9, 200_000] {
            let (probe, _) = tables(rows);
            let cols = vec![0usize, 1, 2];
            let par = MaterializedColumns::new(&probe, cols.clone()).unwrap();
            let ser = MaterializedColumns::new_serial(&probe, cols).unwrap();
            assert_eq!(par.rows, ser.rows);
            assert_eq!(par.data, ser.data, "{rows} rows: copied cells must be byte-identical");
            assert_eq!(par.zonemaps.len(), ser.zonemaps.len());
            for (pz, sz) in par.zonemaps.iter().zip(&ser.zonemaps) {
                assert_eq!(pz.mins, sz.mins, "{rows} rows");
                assert_eq!(pz.maxs, sz.maxs, "{rows} rows");
            }
        }
    }

    #[test]
    fn zonemap_check_is_safe_and_skipping_preserves_the_answer() {
        // col0 = i is inserted sorted, so chunk min/max bound it tightly.
        let (probe, _) = tables(200_000);
        let plan = OlapPlan::scan(&ScanAggQuery {
            predicates: vec![Predicate::between(0, 0.0, 999.0)],
            aggregate: AggExpr::Count,
        });
        let mat = MaterializedColumns::new(&probe, plan.probe_columns_accessed()).unwrap();
        let mut skipped = 0usize;
        let mut kept = Vec::new();
        for i in 0..mat.chunk_count() {
            let range = mat.chunk_range(i);
            let can = chunk_can_qualify(&mat, &plan.predicates, i);
            // The O(#preds) stats answer must agree with the O(chunk)
            // recomputation it replaced.
            assert_eq!(can, chunk_can_qualify_reference(&mat, &plan.predicates, range.clone()));
            if can {
                kept.push(process_chunk(&mat, &plan, None, range));
            } else {
                // Safety: a skipped chunk must truly have an empty partial.
                assert_eq!(process_chunk(&mat, &plan, None, range), ChunkPartial::default());
                skipped += 1;
            }
        }
        assert!(skipped > 0, "sorted data must allow skipping");
        let (groups, totals) = merge_partials(&plan, kept);
        assert_eq!(groups[0].values[0], 1_000.0);
        assert_eq!(totals.joined, 1_000);
    }

    #[test]
    fn check_plan_enforces_join_build_pairing() {
        let plan = join_plan();
        assert_eq!(check_plan(&plan, true).unwrap(), Some(2));
        assert!(check_plan(&plan, false).is_err());
        let scan = OlapPlan { predicates: vec![], join: None, group_by: None, aggregates: vec![AggExpr::Count] };
        assert_eq!(check_plan(&scan, false).unwrap(), None);
        assert!(check_plan(&scan, true).is_err());
    }
}
