//! The snapshot-keyed plan-data cache: one shared store of derived
//! analytical state — materialised columns (with their zonemap statistics)
//! and join hash tables — keyed by the identity of the frozen table image
//! they were derived from.
//!
//! Every execution site funnels through the same host data path
//! ([`crate::operators`]), and before this cache existed every dispatch
//! re-materialised the accessed columns, re-derived the per-chunk zonemap
//! min/max and re-built the join hash table — even when the next query hit
//! the *same snapshot* of the *same table*. Analytical engines amortise that
//! work over consistent snapshots (columnar scan caching is table stakes in
//! the HTAP literature), and because our sites compute bit-identical answers
//! from the shared data path, they can also share the derived state itself:
//! a hash table built for the GPU site's dispatch is byte-for-byte the one
//! the CPU site would build for the same snapshot.
//!
//! # Keying and invalidation
//!
//! Entries are keyed by [`h2tap_storage::SnapshotTableId`] — database
//! instance + table + **snapshot epoch** — plus the derivation parameters
//! (accessed column set, or join spec + group column). The epoch is bumped
//! on every snapshot and copy-on-write keeps a frozen epoch's pages
//! immutable, so two requests with equal keys are provably over identical
//! data and a *stale* snapshot can never be served: a fresh snapshot has a
//! fresh epoch and therefore a fresh key. Superseded epochs are evicted
//! lazily (a request at epoch `e` drops entries of the same table at
//! epochs `< e`) and eagerly on [`PlanDataCache::invalidate`], which the
//! engine calls on every snapshot refresh.
//!
//! # Byte budget and LRU eviction
//!
//! An unbounded cache OOMs under many-table workloads, so the cache takes an
//! optional **byte budget** ([`PlanDataCache::with_budget`], wired to
//! `CalderaConfig::olap_plan_cache_budget_bytes`). On every miss the derived
//! entry is *admitted* only if it fits: least-recently-used entries are
//! evicted (across both maps, by a shared access tick) until it does, an
//! entry larger than the whole budget is simply not cached (derive, return,
//! forget — never flush the cache for an entry that cannot fit), and a
//! budget of zero disables caching outright. Entries **pinned by in-flight
//! queries** — anything whose `Arc` a caller still holds — are never
//! evicted; if only pinned entries remain, admission fails and the new
//! entry goes uncached. Occupancy therefore never exceeds the budget.
//! Budget evictions count separately from epoch/refresh `invalidations`
//! (policy vs correctness) and both, plus the occupancy gauge, surface
//! through [`PlanCacheStats`].
//!
//! # Shared scans: attaching to an in-flight derivation
//!
//! Under concurrent serving, two queries hitting the same key used to race:
//! both would miss and both would pay the materialisation. The cache now
//! keeps an **in-flight marker** per key while a builder derives (the
//! derivation itself runs *outside* the cache lock), and a concurrent
//! request for the same key *attaches* — it waits on the builder's result
//! slot instead of duplicating the work, counted in
//! `PlanCacheStats::shared_scan_attaches`. The builder hands its `Arc`
//! directly to the waiters through the slot, so sharing works even when the
//! byte budget declines to cache the entry. A builder that fails (error or
//! panic) publishes a `None` slot and removes its marker, and one of the
//! waiters becomes the next builder — waiters can never hang on a dead
//! build.

use crate::operators::{self, JoinHashTable, MaterializedColumns, PlanData};
use h2tap_common::{JoinSpec, OlapPlan, PlanCacheStats, Result};
use h2tap_obs::{SpanEvent, SpanKind, Tracer};
use h2tap_storage::{SnapshotTable, SnapshotTableId};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, MutexGuard, OnceLock, PoisonError};

/// Cache key of one materialised column set: the frozen image it came from
/// plus the (sorted, deduplicated) accessed columns.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ColumnsKey {
    id: SnapshotTableId,
    cols: Vec<usize>,
}

/// Cache key of one join hash table: the frozen build image plus every
/// parameter of the build — the join key, the carried group column and the
/// build predicates (bounds keyed by bit pattern: f64 is not `Eq`, but two
/// predicates with bit-equal bounds filter identically).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct HashKey {
    id: SnapshotTableId,
    build_key: usize,
    group_col: Option<usize>,
    predicates: Vec<(usize, u64, u64)>,
}

impl HashKey {
    fn new(id: SnapshotTableId, join: &JoinSpec, group_col: Option<usize>) -> Self {
        Self {
            id,
            build_key: join.build_key,
            group_col,
            predicates: join.build_predicates.iter().map(|p| (p.column, p.lo.to_bits(), p.hi.to_bits())).collect(),
        }
    }
}

/// One cached derivation: the shared value, its byte footprint (fixed at
/// admission) and the access tick of its most recent use.
#[derive(Debug)]
struct Entry<T> {
    value: Arc<T>,
    bytes: u64,
    last_used: u64,
}

/// The published result of one in-flight derivation: `Some` on success,
/// `None` when the builder failed (its waiters retry, and the first to
/// re-probe becomes the next builder). Set exactly once, always before the
/// in-flight marker is removed, so a woken waiter observes the outcome.
type BuildSlot<T> = OnceLock<Option<Arc<T>>>;

#[derive(Debug, Default)]
struct CacheInner {
    columns: BTreeMap<ColumnsKey, Entry<MaterializedColumns>>,
    hashes: BTreeMap<HashKey, Entry<JoinHashTable>>,
    /// In-flight column materialisations: a marker lives here from the
    /// moment a builder claims the key until its result slot is published,
    /// and concurrent requests for the key attach to it (shared scan).
    building_columns: BTreeMap<ColumnsKey, Arc<BuildSlot<MaterializedColumns>>>,
    /// In-flight hash-table builds, same protocol as `building_columns`.
    building_hashes: BTreeMap<HashKey, Arc<BuildSlot<JoinHashTable>>>,
    /// Highest epoch observed per (database instance, table) — lazy
    /// eviction only runs when this *advances*, so a pure hit stream costs
    /// O(1) per access and a request at an older (still-live) epoch is
    /// served, never punished.
    latest_epoch: BTreeMap<(u64, h2tap_common::TableId), h2tap_common::Epoch>,
    stats: PlanCacheStats,
    /// Byte budget (`None` = unbounded, `Some(0)` = caching disabled).
    budget: Option<u64>,
    /// Monotonic access counter ordering uses across both maps for LRU.
    tick: u64,
    /// Shared trace handle: probes emit `cache_lookup` spans, misses emit
    /// the `materialise` / `hash_build` span of the derivation they paid.
    /// Disabled (one relaxed load per probe) until the engine installs one.
    tracer: Tracer,
}

impl CacheInner {
    /// Bumps and returns the access tick.
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Bytes currently held across both maps.
    fn occupancy(&self) -> u64 {
        self.columns.values().map(|e| e.bytes).sum::<u64>() + self.hashes.values().map(|e| e.bytes).sum::<u64>()
    }

    /// Decides whether an entry of `bytes` may be cached, evicting
    /// least-recently-used **unpinned** entries until it fits. An entry is
    /// pinned exactly while some caller still holds its `Arc`
    /// (`strong_count > 1` — the cache holds the other reference), which is
    /// what protects the currently-executing query's data: a prepared
    /// plan's hash table stays resident while its columns are admitted, and
    /// no eviction can free memory a query is still reading. Returns
    /// `false` — derive but don't cache — when the entry can never fit or
    /// only pinned entries remain.
    fn admit(&mut self, bytes: u64) -> bool {
        let Some(budget) = self.budget else { return true };
        if bytes > budget {
            // Evicting everything still wouldn't make room: don't flush a
            // working set for an entry that cannot be cached anyway.
            return false;
        }
        while self.occupancy() + bytes > budget {
            let col_victim = self
                .columns
                .iter()
                .filter(|(_, e)| Arc::strong_count(&e.value) == 1)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, e)| (k.clone(), e.last_used));
            let hash_victim = self
                .hashes
                .iter()
                .filter(|(_, e)| Arc::strong_count(&e.value) == 1)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, e)| (k.clone(), e.last_used));
            match (col_victim, hash_victim) {
                (Some((ck, ct)), Some((_, ht))) if ct <= ht => drop(self.columns.remove(&ck)),
                (_, Some((hk, _))) => drop(self.hashes.remove(&hk)),
                (Some((ck, _)), None) => drop(self.columns.remove(&ck)),
                (None, None) => return false,
            }
            self.stats.evictions += 1;
        }
        true
    }
    /// Notes an access at `id`'s epoch. The first time a *newer* epoch of a
    /// table is seen, entries of that table's older epochs are evicted —
    /// they are usually superseded snapshots. Entries of *other* tables
    /// (and other databases) are untouched, and an older-epoch request
    /// after the advance simply re-derives and is cached again (a caller
    /// legitimately alternating between two live snapshots converges to
    /// both being cached, since eviction fires only on the advance itself).
    fn note_epoch(&mut self, id: SnapshotTableId) {
        let latest = self.latest_epoch.entry((id.source, id.table)).or_insert(id.epoch);
        if *latest >= id.epoch {
            return;
        }
        *latest = id.epoch;
        let stale =
            |entry: &SnapshotTableId| entry.source == id.source && entry.table == id.table && entry.epoch < id.epoch;
        let before = self.columns.len() + self.hashes.len();
        self.columns.retain(|key, _| !stale(&key.id));
        self.hashes.retain(|key, _| !stale(&key.id));
        self.stats.invalidations += (before - self.columns.len() - self.hashes.len()) as u64;
    }
}

/// The state behind the cache handle: the entry maps under one mutex plus
/// the condvar shared-scan waiters park on until a builder publishes.
#[derive(Debug, Default)]
struct Shared {
    inner: Mutex<CacheInner>,
    /// Notified (all) whenever an in-flight derivation completes — with a
    /// value or with a failure — so attached waiters re-check their slot.
    ready: Condvar,
}

/// `Condvar::wait` with the workspace poison-recovery convention (the
/// vendored `parking_lot` guards are std guards underneath).
fn wait_ready<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Which in-flight marker a [`FinishBuild`] guard owns.
enum BuildKey {
    Columns(ColumnsKey),
    Hashes(HashKey),
}

/// Builder-side completion guard: when the builder finishes — by returning
/// a value, returning an error, or panicking — this publishes the slot
/// (`None` if the builder never set it), removes the in-flight marker and
/// wakes every attached waiter. Drop-driven so waiters can never hang on a
/// build that died.
struct FinishBuild<'a, T> {
    shared: &'a Shared,
    slot: &'a BuildSlot<T>,
    key: BuildKey,
}

impl<T> Drop for FinishBuild<'_, T> {
    fn drop(&mut self) {
        self.slot.get_or_init(|| None);
        let mut inner = self.shared.inner.lock();
        match &self.key {
            BuildKey::Columns(k) => drop(inner.building_columns.remove(k)),
            BuildKey::Hashes(k) => drop(inner.building_hashes.remove(k)),
        }
        drop(inner);
        self.shared.ready.notify_all();
    }
}

/// The shared plan-data cache. Cheap to clone (`Arc` inside); the engine
/// builder hands one instance to all execution sites so queries share
/// derived state across sites as well as across time.
#[derive(Debug, Clone, Default)]
pub struct PlanDataCache {
    shared: Arc<Shared>,
}

impl PlanDataCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with a byte budget: `None` is unbounded, `Some(0)`
    /// disables caching (every request re-derives), any other value bounds
    /// occupancy by LRU eviction (see the module doc).
    pub fn with_budget(budget: Option<u64>) -> Self {
        let cache = Self::default();
        cache.shared.inner.lock().budget = budget;
        cache
    }

    /// The configured byte budget (`None` = unbounded).
    pub fn budget(&self) -> Option<u64> {
        self.shared.inner.lock().budget
    }

    /// Installs the engine's shared trace handle (all clones of this cache
    /// share it — the tracer lives behind the same `Arc` as the entries).
    pub fn set_tracer(&self, tracer: Tracer) {
        self.shared.inner.lock().tracer = tracer;
    }

    /// A span event stamped with a frozen table's identity.
    fn span(kind: SpanKind, id: SnapshotTableId) -> SpanEvent {
        SpanEvent::new(kind).table(u64::from(id.table.0)).epoch(id.epoch.0)
    }

    /// The materialised columns (with zonemap statistics) of `cols` of the
    /// frozen `table`, shared if a query — on any site — already derived
    /// them for this snapshot epoch; materialised, and cached if the budget
    /// admits it, otherwise.
    pub fn materialized(&self, table: &SnapshotTable, mut cols: Vec<usize>) -> Result<Arc<MaterializedColumns>> {
        cols.sort_unstable();
        cols.dedup();
        let key = ColumnsKey { id: table.identity, cols };
        let mut attached = false;
        loop {
            let mut inner = self.shared.inner.lock();
            let state = &mut *inner; // split the guard borrow across fields
            let tracer = state.tracer.clone();
            let lookup = tracer.start();
            state.note_epoch(table.identity);
            let now = state.touch();
            if let Some(hit) = state.columns.get_mut(&key) {
                hit.last_used = now;
                state.stats.column_hits += 1;
                tracer.record_wall(Self::span(SpanKind::CacheLookup, table.identity).hit(true), lookup);
                return Ok(Arc::clone(&hit.value));
            }
            if let Some(slot) = state.building_columns.get(&key).map(Arc::clone) {
                // Shared scan: the same derivation is already in flight on
                // another thread — attach and wait for its result instead
                // of racing to build a duplicate.
                if !attached {
                    attached = true;
                    state.stats.shared_scan_attaches += 1;
                }
                while slot.get().is_none() {
                    inner = wait_ready(&self.shared.ready, inner);
                }
                drop(inner);
                if let Some(mat) = slot.get().and_then(Clone::clone) {
                    return Ok(mat);
                }
                continue; // the builder failed; re-probe (maybe as builder)
            }
            // Become the builder: claim the key, then derive OUTSIDE the
            // lock so concurrent requests on other keys keep flowing.
            state.stats.column_misses += 1;
            tracer.record_wall(Self::span(SpanKind::CacheLookup, table.identity).hit(false), lookup);
            let slot: Arc<BuildSlot<MaterializedColumns>> = Arc::new(OnceLock::new());
            state.building_columns.insert(key.clone(), Arc::clone(&slot));
            drop(inner);
            let finish = FinishBuild { shared: &self.shared, slot: &slot, key: BuildKey::Columns(key.clone()) };
            let derive = tracer.start();
            let mat = Arc::new(MaterializedColumns::new(table, key.cols.clone())?);
            let bytes = mat.cell_bytes();
            tracer.record_wall(Self::span(SpanKind::Materialise, table.identity).bytes(bytes), derive);
            // h2tap: allow(error_swallow) — single-flight slot: set only fails if a racing builder already published the identical build, which is the value we want.
            let _ = slot.set(Some(Arc::clone(&mat)));
            let mut inner = self.shared.inner.lock();
            if inner.admit(bytes) {
                inner.columns.insert(key, Entry { value: Arc::clone(&mat), bytes, last_used: now });
            }
            drop(inner);
            drop(finish);
            return Ok(mat);
        }
    }

    /// The join hash table of `join` (carrying `group_col` payloads) over
    /// the frozen `build` table, shared across queries and sites for this
    /// snapshot epoch; built, and cached if the budget admits it,
    /// otherwise. Build errors (duplicate PK-join keys) are never cached.
    pub fn hash_table(
        &self,
        build: &SnapshotTable,
        join: &JoinSpec,
        group_col: Option<usize>,
    ) -> Result<Arc<JoinHashTable>> {
        let key = HashKey::new(build.identity, join, group_col);
        let mut attached = false;
        loop {
            let mut inner = self.shared.inner.lock();
            let state = &mut *inner; // split the guard borrow across fields
            let tracer = state.tracer.clone();
            let lookup = tracer.start();
            state.note_epoch(build.identity);
            let now = state.touch();
            if let Some(hit) = state.hashes.get_mut(&key) {
                hit.last_used = now;
                state.stats.hash_hits += 1;
                tracer.record_wall(Self::span(SpanKind::CacheLookup, build.identity).hit(true), lookup);
                return Ok(Arc::clone(&hit.value));
            }
            if let Some(slot) = state.building_hashes.get(&key).map(Arc::clone) {
                // Shared scan: attach to the in-flight build (see
                // `materialized` — same protocol).
                if !attached {
                    attached = true;
                    state.stats.shared_scan_attaches += 1;
                }
                while slot.get().is_none() {
                    inner = wait_ready(&self.shared.ready, inner);
                }
                drop(inner);
                if let Some(hash) = slot.get().and_then(Clone::clone) {
                    return Ok(hash);
                }
                continue; // the builder failed; re-probe (maybe as builder)
            }
            state.stats.hash_misses += 1;
            tracer.record_wall(Self::span(SpanKind::CacheLookup, build.identity).hit(false), lookup);
            let slot: Arc<BuildSlot<JoinHashTable>> = Arc::new(OnceLock::new());
            state.building_hashes.insert(key.clone(), Arc::clone(&slot));
            drop(inner);
            let finish = FinishBuild { shared: &self.shared, slot: &slot, key: BuildKey::Hashes(key.clone()) };
            let derive = tracer.start();
            let hash = Arc::new(operators::build_hash_table(build, join, group_col)?);
            let bytes = hash.footprint_bytes();
            tracer.record_wall(Self::span(SpanKind::HashBuild, build.identity).bytes(bytes), derive);
            // h2tap: allow(error_swallow) — single-flight slot: set only fails if a racing builder already published the identical build, which is the value we want.
            let _ = slot.set(Some(Arc::clone(&hash)));
            let mut inner = self.shared.inner.lock();
            if inner.admit(bytes) {
                inner.hashes.insert(key, Entry { value: Arc::clone(&hash), bytes, last_used: now });
            }
            drop(inner);
            drop(finish);
            return Ok(hash);
        }
    }

    /// The cached counterpart of [`operators::prepare_plan`]: identical
    /// validation and identical `PlanData`, but the materialised probe
    /// columns and the join hash table are shared through the cache.
    pub fn prepare_plan(
        &self,
        probe_table: &SnapshotTable,
        build_table: Option<&SnapshotTable>,
        plan: &OlapPlan,
    ) -> Result<PlanData> {
        let build_group_col = operators::check_plan_tables(probe_table, build_table, plan)?;
        let hash = match (&plan.join, build_table) {
            (Some(join), Some(build)) => Some(self.hash_table(build, join, build_group_col)?),
            _ => None,
        };
        let mat = self.materialized(probe_table, plan.probe_columns_accessed())?;
        Ok(PlanData { mat, hash })
    }

    /// Drops every entry (called on snapshot refresh, and usable as a
    /// manual reset). Counts the dropped entries as invalidations.
    pub fn invalidate(&self) {
        let mut inner = self.shared.inner.lock();
        let dropped = (inner.columns.len() + inner.hashes.len()) as u64;
        inner.stats.invalidations += dropped;
        inner.columns.clear();
        inner.hashes.clear();
        inner.latest_epoch.clear();
        // In-flight markers stay: their builders own them and will remove
        // them (the derived entry lands keyed by its — possibly now
        // superseded — epoch, and lazy epoch eviction reclaims it).
    }

    /// Current hit/miss/invalidation/eviction counters, with the occupancy
    /// gauge and the configured budget sampled at call time.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.shared.inner.lock();
        let mut stats = inner.stats;
        stats.occupancy_bytes = inner.occupancy();
        stats.budget_bytes = inner.budget;
        stats
    }

    /// Live entries (materialised column sets + hash tables).
    pub fn entries(&self) -> usize {
        let inner = self.shared.inner.lock();
        inner.columns.len() + inner.hashes.len()
    }

    /// Bytes held by the cached entries — how much host memory the cache
    /// trades for the re-derivation work. Never exceeds the budget.
    pub fn cached_bytes(&self) -> u64 {
        self.shared.inner.lock().occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::{AggExpr, AttrType, PartitionId, Predicate, Schema, Value};
    use h2tap_storage::{Database, Layout};
    use std::sync::Arc as StdArc;

    fn db_with_rows(rows: i64) -> (StdArc<Database>, h2tap_common::TableId) {
        let db = Database::new(1);
        let t = db.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        for i in 0..rows {
            db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int64(2 * i)]).unwrap();
        }
        (db, t)
    }

    #[test]
    fn repeated_materialisations_hit() {
        let (db, t) = db_with_rows(1_000);
        let snap = db.snapshot();
        let frozen = snap.table(t).unwrap();
        let cache = PlanDataCache::new();
        let a = cache.materialized(frozen, vec![0, 1]).unwrap();
        let b = cache.materialized(frozen, vec![1, 0, 1]).unwrap();
        assert!(StdArc::ptr_eq(&a, &b), "same snapshot, same (normalised) columns: same instance");
        let stats = cache.stats();
        assert_eq!((stats.column_hits, stats.column_misses), (1, 1));
        assert_eq!(stats.hit_rate(), Some(0.5));
        // A different column set is a different derivation.
        let c = cache.materialized(frozen, vec![0]).unwrap();
        assert!(!StdArc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().column_misses, 2);
        assert!(cache.cached_bytes() > 0);
    }

    #[test]
    fn a_new_epoch_is_never_served_stale_data() {
        let (db, t) = db_with_rows(100);
        let s1 = db.snapshot();
        let cache = PlanDataCache::new();
        let old = cache.materialized(s1.table(t).unwrap(), vec![1]).unwrap();
        // Update a row, take a new snapshot: same table id, new epoch.
        let rid = h2tap_common::RecordId::new(PartitionId(0), t, 0);
        db.update(rid, &[Value::Int64(0), Value::Int64(999)]).unwrap();
        let s2 = db.snapshot();
        let fresh = cache.materialized(s2.table(t).unwrap(), vec![1]).unwrap();
        assert!(!StdArc::ptr_eq(&old, &fresh), "the stale materialisation must not be served");
        let sum = |mat: &MaterializedColumns, plan: &OlapPlan| {
            let partials =
                (0..mat.chunk_count()).map(|i| operators::process_chunk(mat, plan, None, mat.chunk_range(i)));
            operators::merge_partials(plan, partials.collect()).0[0].values[0]
        };
        let q = OlapPlan::scan(&h2tap_common::ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1])));
        assert_eq!(sum(&old, &q), (0..100).map(|i| 2.0 * i as f64).sum::<f64>());
        assert_eq!(sum(&fresh, &q), sum(&old, &q) - 0.0 + 999.0, "fresh epoch sees the update");
        // The superseded epoch was evicted, not retained alongside.
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn hash_tables_are_shared_and_keyed_by_spec() {
        let (db, t) = db_with_rows(50);
        let snap = db.snapshot();
        let frozen = snap.table(t).unwrap();
        let cache = PlanDataCache::new();
        let join = JoinSpec { probe_column: 1, build_key: 0, build_predicates: vec![Predicate::between(1, 0.0, 40.0)] };
        let a = cache.hash_table(frozen, &join, None).unwrap();
        let b = cache.hash_table(frozen, &join, None).unwrap();
        assert!(StdArc::ptr_eq(&a, &b));
        // A different predicate bound (or group column) is a different build.
        let narrower = JoinSpec { build_predicates: vec![Predicate::between(1, 0.0, 10.0)], ..join.clone() };
        let c = cache.hash_table(frozen, &narrower, None).unwrap();
        assert!(!StdArc::ptr_eq(&a, &c));
        let d = cache.hash_table(frozen, &join, Some(1)).unwrap();
        assert!(!StdArc::ptr_eq(&a, &d));
        let stats = cache.stats();
        assert_eq!((stats.hash_hits, stats.hash_misses), (1, 3));
    }

    #[test]
    fn alternating_live_snapshots_converge_to_both_cached() {
        // Two snapshots of the same table can be live at once; a caller
        // alternating between them must not thrash the cache. The first
        // access at the newer epoch evicts the older generation once;
        // after the older snapshot re-derives, both stay cached (epoch
        // observation only fires eviction on an *advance*).
        let (db, t) = db_with_rows(200);
        let s1 = db.snapshot();
        let s2 = db.snapshot();
        let cache = PlanDataCache::new();
        cache.materialized(s1.table(t).unwrap(), vec![0]).unwrap(); // miss (e1)
        cache.materialized(s2.table(t).unwrap(), vec![0]).unwrap(); // miss (e2), evicts e1
        let again_old = cache.materialized(s1.table(t).unwrap(), vec![0]).unwrap(); // miss, re-derives e1
        let stats = cache.stats();
        assert_eq!(stats.column_misses, 3);
        assert_eq!(stats.invalidations, 1, "the epoch advance evicted e1 exactly once");
        // From here on both generations hit.
        let old_hit = cache.materialized(s1.table(t).unwrap(), vec![0]).unwrap();
        let new_hit = cache.materialized(s2.table(t).unwrap(), vec![0]).unwrap();
        assert!(StdArc::ptr_eq(&again_old, &old_hit));
        assert!(!StdArc::ptr_eq(&old_hit, &new_hit));
        let stats = cache.stats();
        assert_eq!(stats.column_hits, 2);
        assert_eq!(stats.invalidations, 1, "no further eviction without an epoch advance");
        assert_eq!(cache.entries(), 2, "both live generations stay cached");
    }

    /// `n` single-column Int64 tables of `rows` rows each in one database:
    /// every `materialized(_, vec![0])` entry is exactly `rows * 8` bytes.
    fn tables_in_one_db(n: usize, rows: i64) -> (StdArc<Database>, Vec<h2tap_common::TableId>) {
        let db = Database::new(1);
        let ids: Vec<_> = (0..n)
            .map(|i| {
                db.create_table(format!("t{i}"), Schema::homogeneous("c", 1, AttrType::Int64), Layout::Dsm).unwrap()
            })
            .collect();
        for &t in &ids {
            for i in 0..rows {
                db.insert(PartitionId(0), t, &[Value::Int64(i)]).unwrap();
            }
        }
        (db, ids)
    }

    #[test]
    fn permuted_column_sets_share_one_entry() {
        let (db, t) = db_with_rows(64);
        let snap = db.snapshot();
        let frozen = snap.table(t).unwrap();
        let cache = PlanDataCache::new();
        let a = cache.materialized(frozen, vec![0, 1]).unwrap();
        let b = cache.materialized(frozen, vec![1, 0]).unwrap();
        let c = cache.materialized(frozen, vec![1, 0, 0, 1]).unwrap();
        assert!(StdArc::ptr_eq(&a, &b) && StdArc::ptr_eq(&a, &c), "permutations and repeats normalise to one key");
        let stats = cache.stats();
        assert_eq!((stats.column_misses, stats.column_hits), (1, 2));
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let (db, t) = db_with_rows(100);
        let snap = db.snapshot();
        let frozen = snap.table(t).unwrap();
        let cache = PlanDataCache::with_budget(Some(0));
        let a = cache.materialized(frozen, vec![0]).unwrap();
        let b = cache.materialized(frozen, vec![0]).unwrap();
        assert!(!StdArc::ptr_eq(&a, &b), "every request re-derives");
        let stats = cache.stats();
        assert_eq!((stats.column_misses, stats.column_hits), (2, 0));
        assert_eq!(stats.evictions, 0, "nothing was cached, so nothing was evicted");
        assert_eq!(stats.budget_bytes, Some(0));
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.cached_bytes(), 0);
    }

    #[test]
    fn an_entry_larger_than_the_budget_never_flushes_the_cache() {
        let (db, ids) = tables_in_one_db(1, 10); // 80-byte entry
        let wide = db.create_table("wide", Schema::homogeneous("w", 2, AttrType::Int64), Layout::Dsm).unwrap();
        for i in 0..1_000i64 {
            db.insert(PartitionId(0), wide, &[Value::Int64(i), Value::Int64(i)]).unwrap();
        }
        let snap = db.snapshot();
        let cache = PlanDataCache::with_budget(Some(1_000));
        let small = cache.materialized(snap.table(ids[0]).unwrap(), vec![0]).unwrap();
        // 16_000 bytes can never fit in 1_000: derive, return, don't cache —
        // and don't evict the working set trying.
        let big = cache.materialized(snap.table(wide).unwrap(), vec![0, 1]).unwrap();
        assert_eq!(big.rows(), 1_000);
        assert_eq!(cache.stats().evictions, 0, "an unfittable entry must not flush the cache");
        assert_eq!(cache.cached_bytes(), 80, "only the small entry is resident");
        let again = cache.materialized(snap.table(ids[0]).unwrap(), vec![0]).unwrap();
        assert!(StdArc::ptr_eq(&small, &again), "the small entry survived");
    }

    #[test]
    fn eviction_follows_least_recent_use() {
        let (db, ids) = tables_in_one_db(3, 100); // 800 bytes per entry
        let snap = db.snapshot();
        let cache = PlanDataCache::with_budget(Some(1_600)); // room for two
        let _ = cache.materialized(snap.table(ids[0]).unwrap(), vec![0]).unwrap();
        let _ = cache.materialized(snap.table(ids[1]).unwrap(), vec![0]).unwrap();
        let _ = cache.materialized(snap.table(ids[0]).unwrap(), vec![0]).unwrap(); // t0 now most recent
        let _ = cache.materialized(snap.table(ids[2]).unwrap(), vec![0]).unwrap(); // evicts t1 (LRU), not t0
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.column_hits, 1);
        let _ = cache.materialized(snap.table(ids[0]).unwrap(), vec![0]).unwrap(); // hit: t0 survived
        assert_eq!(cache.stats().column_hits, 2);
        let _ = cache.materialized(snap.table(ids[1]).unwrap(), vec![0]).unwrap(); // miss: t1 was the victim
        let s = cache.stats();
        assert_eq!(s.column_misses, 4);
        assert_eq!(s.evictions, 2);
        assert!(cache.cached_bytes() <= 1_600);
    }

    #[test]
    fn pinned_entries_are_never_evicted() {
        let (db, ids) = tables_in_one_db(5, 100); // 800 bytes per entry
        let snap = db.snapshot();
        let cache = PlanDataCache::with_budget(Some(1_600)); // room for two
                                                             // Pin t0 the way an in-flight query does: hold the Arc.
        let pinned = cache.materialized(snap.table(ids[0]).unwrap(), vec![0]).unwrap();
        for &t in &ids[1..4] {
            let _ = cache.materialized(snap.table(t).unwrap(), vec![0]).unwrap();
            assert!(cache.cached_bytes() <= 1_600, "occupancy must never exceed the budget");
        }
        // Despite being the least recently used entry throughout, t0 was
        // never the victim — the stream evicted around it.
        let again = cache.materialized(snap.table(ids[0]).unwrap(), vec![0]).unwrap();
        assert!(StdArc::ptr_eq(&pinned, &again), "the pinned entry still hits");
        assert_eq!(cache.stats().evictions, 2, "t1 and t2 were evicted instead");
        // Once the query lets go, the entry is ordinary LRU prey again:
        // stream two fresh tables without touching t0.
        drop(again);
        drop(pinned);
        let _ = cache.materialized(snap.table(ids[4]).unwrap(), vec![0]).unwrap();
        let _ = cache.materialized(snap.table(ids[1]).unwrap(), vec![0]).unwrap();
        assert!(cache.stats().evictions >= 4, "unpinned t0 became evictable");
        assert!(cache.cached_bytes() <= 1_600);
    }

    #[test]
    fn occupancy_never_exceeds_the_budget_under_a_many_table_stream() {
        let (db, ids) = tables_in_one_db(8, 100); // 800 bytes per entry
        let snap = db.snapshot();
        let cache = PlanDataCache::with_budget(Some(2_000)); // room for two
        for _ in 0..2 {
            for &t in &ids {
                let _ = cache.materialized(snap.table(t).unwrap(), vec![0]).unwrap();
                assert!(cache.cached_bytes() <= 2_000);
                let s = cache.stats();
                assert!(s.occupancy_bytes <= 2_000);
                assert_eq!(s.budget_bytes, Some(2_000));
            }
        }
        assert!(cache.stats().evictions > 0, "the stream must have exercised eviction");
        assert!(cache.entries() <= 2);
    }

    #[test]
    fn invalidate_clears_everything() {
        let (db, t) = db_with_rows(10);
        let snap = db.snapshot();
        let cache = PlanDataCache::new();
        cache.materialized(snap.table(t).unwrap(), vec![0]).unwrap();
        assert_eq!(cache.entries(), 1);
        cache.invalidate();
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.stats().invalidations, 1);
        // The next request is a miss again.
        cache.materialized(snap.table(t).unwrap(), vec![0]).unwrap();
        assert_eq!(cache.stats().column_misses, 2);
    }

    #[test]
    fn prepare_plan_matches_the_uncached_preamble() {
        let (db, fact) = db_with_rows(500);
        let dim = db.create_table("dim", Schema::homogeneous("d", 2, AttrType::Int64), Layout::Dsm).unwrap();
        for i in 0..20i64 {
            db.insert(PartitionId(0), dim, &[Value::Int64(2 * i), Value::Int64(i % 3)]).unwrap();
        }
        let snap = db.snapshot();
        let probe = snap.table(fact).unwrap();
        let build = snap.table(dim).unwrap();
        let plan = OlapPlan {
            predicates: vec![],
            join: Some(JoinSpec { probe_column: 1, build_key: 0, build_predicates: vec![] }),
            group_by: Some(h2tap_common::PlanColumn::Build(1)),
            aggregates: vec![AggExpr::SumColumns(vec![0]), AggExpr::Count],
        };
        let cache = PlanDataCache::new();
        let cached = cache.prepare_plan(probe, Some(build), &plan).unwrap();
        let uncached = operators::prepare_plan(probe, Some(build), &plan).unwrap();
        let run = |data: &PlanData| {
            let partials: Vec<_> = (0..data.mat.chunk_count())
                .map(|i| operators::process_chunk(&data.mat, &plan, data.hash.as_deref(), data.mat.chunk_range(i)))
                .collect();
            operators::merge_partials(&plan, partials)
        };
        let (a, ta) = run(&cached);
        let (b, tb) = run(&uncached);
        assert_eq!(a, b);
        assert_eq!(ta.joined, tb.joined);
        // Error behaviour is shared too: a join plan without a build table
        // is rejected identically.
        assert!(cache.prepare_plan(probe, None, &plan).is_err());
        assert!(operators::prepare_plan(probe, None, &plan).is_err());
    }

    /// Polls `cond` for up to ~2s of 1ms naps.
    fn eventually(mut cond: impl FnMut() -> bool) -> bool {
        for _ in 0..2_000 {
            if cond() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        cond()
    }

    #[test]
    fn waiters_attach_to_an_in_flight_build_and_share_its_result() {
        let (db, t) = db_with_rows(256);
        let snap = db.snapshot();
        let frozen = snap.table(t).unwrap();
        let cache = PlanDataCache::new();
        // Claim the key by hand, playing a builder mid-derivation.
        let key = ColumnsKey { id: frozen.identity, cols: vec![0] };
        let slot: StdArc<BuildSlot<MaterializedColumns>> = StdArc::new(OnceLock::new());
        cache.shared.inner.lock().building_columns.insert(key.clone(), StdArc::clone(&slot));
        let got = std::thread::scope(|s| {
            let waiter = s.spawn(|| cache.materialized(frozen, vec![0]).unwrap());
            assert!(eventually(|| cache.stats().shared_scan_attaches == 1), "the request must attach, not build");
            // Publish the builder's result and retire the marker.
            let mat = StdArc::new(MaterializedColumns::new(frozen, vec![0]).unwrap());
            slot.set(Some(StdArc::clone(&mat))).unwrap();
            cache.shared.inner.lock().building_columns.remove(&key);
            cache.shared.ready.notify_all();
            let got = waiter.join().unwrap();
            assert!(StdArc::ptr_eq(&got, &mat), "the waiter got the builder's instance");
            got
        });
        let stats = cache.stats();
        assert_eq!(stats.shared_scan_attaches, 1);
        assert_eq!((stats.column_hits, stats.column_misses), (0, 0), "an attach is neither a hit nor a miss");
        assert_eq!(got.rows(), 256);
    }

    #[test]
    fn a_failed_build_hands_off_to_a_waiter() {
        let (db, t) = db_with_rows(64);
        let snap = db.snapshot();
        let frozen = snap.table(t).unwrap();
        let cache = PlanDataCache::new();
        let key = ColumnsKey { id: frozen.identity, cols: vec![0] };
        let slot: StdArc<BuildSlot<MaterializedColumns>> = StdArc::new(OnceLock::new());
        cache.shared.inner.lock().building_columns.insert(key.clone(), StdArc::clone(&slot));
        let got = std::thread::scope(|s| {
            let waiter = s.spawn(|| cache.materialized(frozen, vec![0]).unwrap());
            assert!(eventually(|| cache.stats().shared_scan_attaches == 1));
            // The builder dies: publish a failure slot, retire the marker.
            slot.set(None).unwrap();
            cache.shared.inner.lock().building_columns.remove(&key);
            cache.shared.ready.notify_all();
            waiter.join().unwrap()
        });
        // The waiter re-probed, became the builder itself and derived.
        let stats = cache.stats();
        assert_eq!(stats.shared_scan_attaches, 1, "the retry does not re-count the attach");
        assert_eq!((stats.column_hits, stats.column_misses), (0, 1));
        assert_eq!(got.rows(), 64);
    }

    #[test]
    fn concurrent_requests_never_duplicate_a_derivation() {
        let (db, t) = db_with_rows(50_000);
        let snap = db.snapshot();
        let frozen = snap.table(t).unwrap();
        let cache = PlanDataCache::new();
        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.materialized(frozen, vec![0, 1]).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for other in &results[1..] {
            assert!(StdArc::ptr_eq(&results[0], other), "every concurrent request shares one instance");
        }
        let stats = cache.stats();
        assert_eq!(stats.column_misses, 1, "exactly one thread built; nobody raced a duplicate");
        assert_eq!(
            stats.column_hits + stats.shared_scan_attaches,
            threads as u64 - 1,
            "everyone else either attached to the in-flight build or hit the finished entry"
        );
    }
}
