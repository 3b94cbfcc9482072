//! The GPU OLAP executor: kernel-at-a-time query execution over snapshots.
//!
//! "Each database operator is implemented as a collection of data-parallel
//! primitives, where each primitive is an individual CUDA kernel. OLAP
//! queries are executed by a dedicated CPU thread that executes each database
//! operator by executing the corresponding CUDA kernels one at a time while
//! using UVA to store all input, intermediate, and output data."
//!
//! [`GpuOlapEngine`] follows that model. A scan-shaped [`OlapPlan`] (see
//! [`OlapPlan::is_scan`], the image of a `ScanAggQuery`) becomes one
//! selection kernel per predicate (each producing/consuming a selection
//! bitmap) followed by one aggregation kernel; any other plan adds hash
//! build/probe, partial-aggregation and merge kernels. The real answer is
//! computed on the host while each kernel's cost is charged to the
//! [`GpuDevice`] model according to the table's layout (coalesced for
//! DSM/PAX, strided for NSM) and the configured access mode (memcpy / UVA /
//! UM / device-resident).

use crate::cache::PlanDataCache;
use crate::operators::{self, ChunkPartial};
use crate::site::{emit_execution_spans, ExecutionSite};
use h2tap_common::{ExecBreakdown, GroupRow, H2Error, OlapPlan, PlanColumn, Result, SimDuration, HASH_ENTRY_BYTES};
use h2tap_gpu_sim::{
    AccessMode, AccessPattern, BufferId, GpuDevice, KernelDesc, KernelMetrics, MemoryManager, Residency,
    TransferDirection,
};
use h2tap_obs::Tracer;
use h2tap_scheduler::{GpuDeviceCapability, OlapTarget, SiteCapability};
use h2tap_storage::{Layout, SnapshotTable};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Where the engine keeps table data relative to the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPlacement {
    /// Data stays in host shared memory and is accessed with the given mode
    /// (the H2TAP design point; UVA is what the Caldera prototype uses).
    Host(AccessMode),
    /// Data is copied into device memory ahead of time (the Figure 11
    /// configuration).
    DeviceResident,
}

/// Result of one scan-and-aggregate query (`Caldera::run_olap*`): the
/// scalar projection of a scan-shaped plan's [`PlanOutcome`].
#[derive(Debug, Clone)]
pub struct OlapOutcome {
    /// The aggregate value (exact, computed over the real data).
    pub value: f64,
    /// Number of records satisfying all predicates.
    pub qualifying_rows: u64,
    /// Simulated execution time (kernels plus any explicit transfers).
    pub time: SimDuration,
    /// Per-kernel metrics, in launch order (empty for sites that do not
    /// launch kernels, such as the CPU site).
    pub kernels: Vec<KernelMetrics>,
    /// Bytes moved over the host-device interconnect.
    pub interconnect_bytes: u64,
    /// How the simulated time splits into the cost model's terms (streaming,
    /// compute, fixed overhead) — the signal the placement calibrator fits
    /// its per-term constants against.
    pub breakdown: ExecBreakdown,
    /// The execution site that answered the query.
    pub site: OlapTarget,
}

impl From<PlanOutcome> for OlapOutcome {
    /// Projects the outcome of a scan-shaped plan onto its single value: the
    /// first aggregate of the global group (0.0 if the plan grouped, which a
    /// scan-shaped plan never does).
    fn from(out: PlanOutcome) -> Self {
        Self {
            value: out.single_value().unwrap_or(0.0),
            qualifying_rows: out.qualifying_rows,
            time: out.time,
            kernels: out.kernels,
            interconnect_bytes: out.interconnect_bytes,
            breakdown: out.breakdown,
            site: out.site,
        }
    }
}

/// Result of one relational-plan execution: per-group aggregates plus the
/// site's simulated cost.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// Result groups in ascending raw-key order (one global group with key 0
    /// for plans without `group_by`). Byte-identical across sites.
    pub groups: Vec<GroupRow>,
    /// Rows that reached the aggregation (post filter and join).
    pub qualifying_rows: u64,
    /// Whether the plan had a `group_by` (a grouped result with one group
    /// whose key happens to be 0 is otherwise indistinguishable from the
    /// global group of a scan-style plan).
    pub grouped: bool,
    /// Simulated execution time (kernels plus any explicit transfers).
    pub time: SimDuration,
    /// Per-kernel metrics in launch order (empty for the CPU site).
    pub kernels: Vec<KernelMetrics>,
    /// Bytes moved over the host-device interconnect.
    pub interconnect_bytes: u64,
    /// How the simulated time splits into the cost model's terms.
    pub breakdown: ExecBreakdown,
    /// The execution site that answered the plan.
    pub site: OlapTarget,
}

impl PlanOutcome {
    /// The group with the given raw key cell, if present.
    pub fn group(&self, key: u64) -> Option<&GroupRow> {
        self.groups.iter().find(|g| g.key == key)
    }

    /// First aggregate of the single global group — the scan-plan
    /// equivalent of [`OlapOutcome::value`]. Plans without `group_by` always
    /// produce exactly one global group (zeroed when nothing qualified), so
    /// this is `Some` for them; `None` when the plan grouped (including a
    /// grouped result that happens to be empty).
    pub fn single_value(&self) -> Option<f64> {
        if self.grouped {
            return None;
        }
        match self.groups.as_slice() {
            [g] if g.key == 0 => g.values.first().copied(),
            _ => None,
        }
    }
}

/// Accumulates one registered buffer's `(total, device-resident)` bytes —
/// the residency arithmetic every GPU-family site shares for its
/// UnifiedMemory accounting, factored out so the sites' residency hints
/// cannot silently diverge.
pub(crate) fn accumulate_residency(mem: &MemoryManager, id: BufferId, total: &mut u64, resident: &mut u64) {
    let Ok(info) = mem.info(id) else { return };
    *total += info.bytes;
    *resident += match info.residency {
        Residency::Device => info.bytes,
        Residency::HostUm { resident_pages, .. } => (resident_pages * mem.page_bytes()).min(info.bytes),
        Residency::HostUva => 0,
    };
}

/// Host-to-device bytes an explicit-copy placement transfers for the probe
/// side of `plan` over `rows` rows: the accessed columns. A scan-shaped plan
/// over an NSM table copies an equal share of the record width per accessed
/// column instead (the filtered-scan model behind Figure 1).
pub(crate) fn probe_copy_bytes(plan: &OlapPlan, table: &SnapshotTable, rows: u64) -> u64 {
    if !(plan.is_scan() && table.layout == Layout::Nsm) {
        return plan.probe_scan_bytes(&table.schema, rows);
    }
    let cols = plan.probe_columns_accessed().len() as u64;
    (rows * table.schema.record_width() as u64).checked_div(cols).map_or(0, |share| share * cols)
}

/// The aggregation kernel of a scan-shaped plan over `rows` rows (reads of
/// the aggregate's columns are added by the caller). With predicates it
/// also streams the selection bitmap, one flop more per element.
pub(crate) fn scan_aggregate_kernel(name: String, rows: u64, plan: &OlapPlan) -> KernelDesc {
    let agg_cols = plan.aggregates[0].columns().len() as f64;
    let flops = if plan.predicates.is_empty() { 1.0 } else { 2.0 } + agg_cols;
    KernelDesc::new(name, rows).flops_per_element(flops).write(8)
}

/// The per-chunk partials of `plan`, computed on the host through the data
/// path every site shares — fixed chunking, ascending chunk order — so the
/// merged groups are byte-identical across sites. The materialised columns
/// and hash table come from the shared plan-data cache.
pub(crate) fn host_partials(
    cache: &PlanDataCache,
    probe_table: &SnapshotTable,
    build_table: Option<&SnapshotTable>,
    plan: &OlapPlan,
) -> Result<Vec<ChunkPartial>> {
    let operators::PlanData { mat, hash } = cache.prepare_plan(probe_table, build_table, plan)?;
    Ok((0..mat.chunk_count())
        .map(|i| operators::process_chunk(&mat, plan, hash.as_deref(), mat.chunk_range(i)))
        .collect())
}

/// The device model plus the registration maps it owns — everything one
/// kernel charge or buffer (de)allocation mutates, behind one short-lived
/// lock. Execution holds this lock only while *charging* simulated kernels
/// (microseconds of bookkeeping); the host-side data path — the real
/// wall-clock work — runs between lock sessions so concurrent queries
/// overlap.
struct GpuSiteState {
    device: GpuDevice,
    /// Registered column buffers: (table tag, attr) -> buffer.
    buffers: BTreeMap<(usize, usize), BufferId>,
    /// Registered whole-table buffers for NSM tables: table tag -> buffer.
    nsm_buffers: BTreeMap<usize, BufferId>,
}

impl GpuSiteState {
    fn register_bytes(&mut self, placement: DataPlacement, label: &str, bytes: u64) -> Result<BufferId> {
        match placement {
            DataPlacement::Host(mode) => self.device.register_buffer(label, bytes, mode),
            DataPlacement::DeviceResident => self.device.register_device_buffer(label, bytes),
        }
    }

    /// The buffer and access pattern a kernel uses to read `attr` of `table`.
    fn read_plan(
        &self,
        handle: RegisteredTable,
        table: &SnapshotTable,
        attr: usize,
    ) -> Result<(BufferId, u64, AccessPattern)> {
        let rows = table.row_count();
        let width = table.schema.attr(attr)?.ty.width() as u64;
        match table.layout {
            Layout::Nsm => {
                let buffer = *self
                    .nsm_buffers
                    .get(&handle.tag)
                    .ok_or_else(|| H2Error::InvalidKernel("table not registered".into()))?;
                let pattern = AccessPattern::Strided {
                    stride_bytes: table.schema.record_width() as u32,
                    elem_bytes: width as u32,
                };
                Ok((buffer, rows * width, pattern))
            }
            Layout::Dsm => {
                let buffer = *self
                    .buffers
                    .get(&(handle.tag, attr))
                    .ok_or_else(|| H2Error::InvalidKernel("column not registered".into()))?;
                Ok((buffer, rows * width, AccessPattern::Sequential))
            }
            Layout::Pax { .. } => {
                let buffer = *self
                    .buffers
                    .get(&(handle.tag, attr))
                    .ok_or_else(|| H2Error::InvalidKernel("column not registered".into()))?;
                // Minipages coalesce like DSM but pay a small page-interleave
                // overhead, modelled as 3% extra traffic.
                Ok((buffer, rows * width * 103 / 100, AccessPattern::Sequential))
            }
        }
    }
}

/// Kernel-at-a-time OLAP executor bound to one simulated GPU.
///
/// Concurrent: the device model and registration maps live behind one
/// mutex ([`GpuSiteState`]), held only across kernel-charge bookkeeping;
/// the host-side data path runs between lock sessions (see
/// [`GpuOlapEngine::execute_plan`]).
pub struct GpuOlapEngine {
    placement: DataPlacement,
    dev: Mutex<GpuSiteState>,
    /// Monotonic tag generator for registered tables.
    next_tag: AtomicUsize,
    /// Snapshot-keyed plan-data cache for the host-side data path (shared
    /// across all sites when built into an engine, private otherwise).
    cache: PlanDataCache,
    /// Shared trace handle (disabled no-op until the engine installs one).
    tracer: Tracer,
}

/// Handle to a table registered with an execution site. Opaque to callers;
/// handles are only meaningful to the site that vended them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisteredTable {
    tag: usize,
    /// Whether the data had to be copied to the device explicitly (memcpy
    /// placement); the copy cost is charged per query batch by `execute`.
    explicit_copy: bool,
}

impl RegisteredTable {
    /// Handle vended by the CPU site (which never copies explicitly).
    pub(crate) fn cpu(tag: usize) -> Self {
        Self { tag, explicit_copy: false }
    }

    /// Handle vended by a GPU-family site with the given copy policy.
    pub(crate) fn site(tag: usize, explicit_copy: bool) -> Self {
        Self { tag, explicit_copy }
    }

    /// The site-local registration tag.
    pub(crate) fn tag(&self) -> usize {
        self.tag
    }

    /// Whether the vending site pays an explicit host-to-device copy per
    /// query batch (memcpy placement).
    pub(crate) fn explicit_copy(&self) -> bool {
        self.explicit_copy
    }
}

impl GpuOlapEngine {
    /// Creates an executor on `device` with the given data placement.
    pub fn new(device: GpuDevice, placement: DataPlacement) -> Self {
        Self {
            placement,
            dev: Mutex::new(GpuSiteState { device, buffers: BTreeMap::new(), nsm_buffers: BTreeMap::new() }),
            next_tag: AtomicUsize::new(0),
            cache: PlanDataCache::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// The configured placement.
    pub fn placement(&self) -> DataPlacement {
        self.placement
    }

    /// Bytes currently allocated on the simulated device (registered tables
    /// plus any live scratch).
    pub fn device_used_bytes(&self) -> u64 {
        self.dev.lock().device.memory().used_bytes()
    }

    /// Registers the columns of `table` with the device according to the
    /// placement policy. Must be called once per snapshot table before
    /// queries run against it. Registration is all-or-nothing: if any column
    /// fails (device out of memory), the columns registered so far are freed
    /// again — callers retry on every OOM fallback, so a partial
    /// registration must not keep eating capacity until the next snapshot
    /// refresh.
    pub fn register_table(&self, table: &SnapshotTable, label: &str) -> Result<RegisteredTable> {
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let rows = table.row_count();
        let arity = table.schema.arity();
        let explicit_copy = matches!(self.placement, DataPlacement::Host(AccessMode::Memcpy));
        let mut state = self.dev.lock();
        match table.layout {
            Layout::Nsm => {
                // Row-major storage is one big buffer; kernels stride over it.
                let bytes = rows * table.schema.record_width() as u64;
                let id = state.register_bytes(self.placement, &format!("{label}.rows"), bytes)?;
                state.nsm_buffers.insert(tag, id);
            }
            Layout::Dsm | Layout::Pax { .. } => {
                for attr in 0..arity {
                    let registered = table.schema.attr(attr).map(|a| a.ty.width() as u64).and_then(|width| {
                        state.register_bytes(self.placement, &format!("{label}.col{attr}"), rows * width)
                    });
                    match registered {
                        Ok(id) => {
                            state.buffers.insert((tag, attr), id);
                        }
                        Err(err) => {
                            for a in 0..attr {
                                if let Some(id) = state.buffers.remove(&(tag, a)) {
                                    // h2tap: allow(error_swallow) — rollback of a failed registration: the original allocation error is the one to surface, not a secondary free failure.
                                    let _ = state.device.memory_mut().free(id);
                                }
                            }
                            return Err(err);
                        }
                    }
                }
            }
        }
        Ok(RegisteredTable { tag, explicit_copy })
    }

    /// Frees every registered buffer (device memory and UM residency) so a
    /// new snapshot's tables can be registered without leaking the old ones.
    pub fn reset_tables(&self) {
        let mut state = self.dev.lock();
        for (_, id) in std::mem::take(&mut state.buffers) {
            // h2tap: allow(error_swallow) — teardown: every id comes from the live registration map and a failed free is unactionable mid-reset.
            let _ = state.device.memory_mut().free(id);
        }
        for (_, id) in std::mem::take(&mut state.nsm_buffers) {
            // h2tap: allow(error_swallow) — teardown: every id comes from the live registration map and a failed free is unactionable mid-reset.
            let _ = state.device.memory_mut().free(id);
        }
    }

    /// Frees the buffers of one registered table (see
    /// [`ExecutionSite::unregister_table`]).
    pub fn unregister_table(&self, handle: RegisteredTable) {
        let mut state = self.dev.lock();
        if let Some(id) = state.nsm_buffers.remove(&handle.tag) {
            // h2tap: allow(error_swallow) — unregister is best-effort: the id was minted by register_table and a failed free has no caller-visible remedy.
            let _ = state.device.memory_mut().free(id);
        }
        let cols: Vec<(usize, usize)> = state.buffers.keys().filter(|(tag, _)| *tag == handle.tag).copied().collect();
        for key in cols {
            if let Some(id) = state.buffers.remove(&key) {
                // h2tap: allow(error_swallow) — unregister is best-effort: the id was minted by register_table and a failed free has no caller-visible remedy.
                let _ = state.device.memory_mut().free(id);
            }
        }
    }

    /// Executes a relational plan kernel-at-a-time: selection kernels over
    /// the probe predicates, a hash-build kernel over the (filtered) build
    /// table, a hash-probe kernel whose table lookups are data-dependent
    /// [`AccessPattern::Random`] reads — the pattern whose coalescing penalty
    /// separates plan placement from scan placement — and per-chunk partial
    /// aggregation plus a merge kernel. The hash table and the partial-group
    /// arena are registered as scratch buffers under the engine's data
    /// placement (the Caldera prototype keeps "all input, intermediate, and
    /// output data" in UVA), so under host placement every probe crosses the
    /// interconnect while device-resident placement pays only the capped
    /// device-transaction waste. A scan-shaped plan ([`OlapPlan::is_scan`])
    /// is charged the filtered-scan schedule instead: selection kernels and
    /// one aggregation kernel, no arena and no merge launch.
    ///
    /// The real answer is computed on the host through the shared
    /// [`operators`] data path (fixed chunking, chunk-ordered merge), so the
    /// groups are byte-identical to the CPU site's.
    pub fn execute_plan(
        &self,
        probe: RegisteredTable,
        probe_table: &SnapshotTable,
        build: Option<(RegisteredTable, &SnapshotTable)>,
        plan: &OlapPlan,
    ) -> Result<PlanOutcome> {
        let mut scratch: Vec<BufferId> = Vec::new();
        let result = self.execute_plan_inner(probe, probe_table, build, plan, &mut scratch);
        // Scratch (hash table, partial-group arena) lives only for the query;
        // free it even on error so an OOM mid-plan does not leak capacity.
        let mut state = self.dev.lock();
        for id in scratch {
            // h2tap: allow(error_swallow) — scratch cleanup must not mask the query result (including a mid-plan OOM) with a secondary free failure.
            let _ = state.device.memory_mut().free(id);
        }
        drop(state);
        result
    }

    fn execute_plan_inner(
        &self,
        probe: RegisteredTable,
        probe_table: &SnapshotTable,
        build: Option<(RegisteredTable, &SnapshotTable)>,
        plan: &OlapPlan,
        scratch: &mut Vec<BufferId>,
    ) -> Result<PlanOutcome> {
        operators::check_plan_tables(probe_table, build.map(|(_, t)| t), plan)?;
        let rows = probe_table.row_count();
        let scan = plan.is_scan();

        let mut kernels = Vec::new();
        let mut total = SimDuration::ZERO;
        let mut interconnect_bytes = 0u64;
        let mut breakdown = ExecBreakdown::default();

        // ---- Device-lock session 1: everything row-count-dependent. ----
        let mut state = self.dev.lock();

        // Reserve the join's hash scratch up front at its worst-case size
        // (one entry per build row — the same bound the placement heuristic
        // uses): an out-of-memory device fails here, *before* the host-side
        // join is computed, so the dispatch-level CPU fallback does not pay
        // for the work twice.
        let hash_buf = match build {
            Some((_, build_table)) if plan.join.is_some() => {
                let bytes = plan.hash_table_bytes(build_table.row_count()).max(HASH_ENTRY_BYTES);
                let id = state.register_bytes(self.placement, "plan.hash", bytes)?;
                scratch.push(id);
                Some((id, bytes))
            }
            _ => None,
        };

        // Explicit-copy placement pays the host-to-device transfer of every
        // accessed column of both tables before the first kernel.
        if probe.explicit_copy {
            let bytes = probe_copy_bytes(plan, probe_table, rows);
            let copy = state.device.memcpy(bytes, TransferDirection::HostToDevice);
            total += copy;
            breakdown.stream_secs += copy.as_secs_f64();
            interconnect_bytes += bytes;
        }
        if let Some((build_handle, build_table)) = build {
            if build_handle.explicit_copy {
                let bytes = plan.build_scan_bytes(&build_table.schema, build_table.row_count());
                let copy = state.device.memcpy(bytes, TransferDirection::HostToDevice);
                total += copy;
                breakdown.stream_secs += copy.as_secs_f64();
                interconnect_bytes += bytes;
            }
        }

        let mut charge = |device: &mut GpuDevice, desc: &KernelDesc| -> Result<()> {
            let metrics = device.account(desc)?;
            total += metrics.time;
            interconnect_bytes += metrics.interconnect_bytes;
            breakdown.overhead_secs += metrics.launch_overhead.as_secs_f64();
            breakdown.stream_secs += metrics.time.saturating_sub(metrics.launch_overhead).as_secs_f64();
            breakdown.compute_secs += metrics.compute_time.as_secs_f64();
            kernels.push(metrics);
            Ok(())
        };

        // Selection kernels: one per probe predicate, producing a bitmap.
        for (i, pred) in plan.predicates.iter().enumerate() {
            let (buffer, useful, pattern) = state.read_plan(probe, probe_table, pred.column)?;
            let desc = KernelDesc::new(format!("select_{i}"), rows)
                .flops_per_element(2.0)
                .read(buffer, useful, pattern)
                .write(rows.div_ceil(8));
            charge(&mut state.device, &desc)?;
        }

        // Hash build: its cost depends only on the build side's row count,
        // so it charges before the host compute too.
        if let (Some(_), Some((build_handle, build_table)), Some((_, hash_bytes))) = (&plan.join, build, hash_buf) {
            let build_rows = build_table.row_count();
            let mut desc = KernelDesc::new("hash_build", build_rows).flops_per_element(4.0).write(hash_bytes);
            for &attr in &plan.build_columns_accessed() {
                let (buffer, useful, pattern) = state.read_plan(build_handle, build_table, attr)?;
                desc = desc.read(buffer, useful, pattern);
            }
            charge(&mut state.device, &desc)?;
        }

        // A scan-shaped plan's one aggregation kernel depends only on the
        // row count too: its global accumulator stays in registers, so it
        // needs no partial-group arena and no merge launch.
        if scan {
            let mut desc = scan_aggregate_kernel("aggregate".into(), rows, plan);
            for &attr in &plan.aggregates[0].columns() {
                let (buffer, useful, pattern) = state.read_plan(probe, probe_table, attr)?;
                desc = desc.read(buffer, useful, pattern);
            }
            charge(&mut state.device, &desc)?;
        }
        drop(state);

        // Host-side data path, shared with the CPU site so results are
        // byte-identical: materialise, build the hash table, evaluate the
        // fixed-size chunks in ascending order, merge in chunk order. The
        // kernels around it charge the simulated cost of this same pipeline.
        // Runs with the device lock *released*: this is the real wall-clock
        // work, and concurrent queries must overlap here.
        let partials = host_partials(&self.cache, probe_table, build.map(|(_, t)| t), plan)?;
        let n_chunks = partials.len() as u64;
        let (groups, totals) = operators::merge_partials(plan, partials);
        let n_groups = groups.len().max(1) as u64;
        // One group slot holds the key, one f64 per aggregate, and the count.
        let group_entry_bytes = (2 + plan.aggregates.len() as u64) * 8;

        // ---- Device-lock session 2: everything selectivity-dependent. ----
        let mut state = self.dev.lock();

        // Hash probe: one data-dependent gather per *selected* row.
        if let (Some(join), Some(_), Some((hash_buf, _))) = (&plan.join, build, hash_buf) {
            let (key_buf, key_useful, key_pattern) = state.read_plan(probe, probe_table, join.probe_column)?;
            let probe_desc = KernelDesc::new("hash_probe", rows)
                .flops_per_element(6.0)
                .read(key_buf, key_useful, key_pattern)
                .read(
                    hash_buf,
                    totals.selected * HASH_ENTRY_BYTES,
                    AccessPattern::Random { elem_bytes: HASH_ENTRY_BYTES as u32 },
                )
                .write(rows.div_ceil(8));
            charge(&mut state.device, &probe_desc)?;
        }

        // Partial aggregation (every plan but a scan-shaped one): every
        // surviving row updates its group's accumulators. With a real
        // group-by the accumulator slot is data-dependent (random). Partials
        // land in a per-chunk arena that the merge kernel folds in chunk
        // order.
        if !scan {
            let arena_buf =
                state.register_bytes(self.placement, "plan.groups", n_chunks * n_groups * group_entry_bytes)?;
            scratch.push(arena_buf);
            let mut agg_desc = KernelDesc::new("partial_aggregate", rows)
                .flops_per_element(2.0 + plan.aggregates.len() as f64)
                .write(n_chunks * n_groups * group_entry_bytes);
            let mut agg_cols: Vec<usize> = plan.aggregates.iter().flat_map(|a| a.columns()).collect();
            if let Some(PlanColumn::Probe(c)) = plan.group_by {
                agg_cols.push(c);
            }
            agg_cols.sort_unstable();
            agg_cols.dedup();
            for &attr in &agg_cols {
                let (buffer, useful, pattern) = state.read_plan(probe, probe_table, attr)?;
                agg_desc = agg_desc.read(buffer, useful, pattern);
            }
            if plan.group_by.is_some() {
                agg_desc = agg_desc.read(
                    arena_buf,
                    totals.joined * group_entry_bytes,
                    AccessPattern::Random { elem_bytes: group_entry_bytes as u32 },
                );
            }
            charge(&mut state.device, &agg_desc)?;

            let merge_desc = KernelDesc::new("merge_groups", (n_chunks * n_groups).max(1))
                .flops_per_element(1.0 + plan.aggregates.len() as f64)
                .read(arena_buf, n_chunks * n_groups * group_entry_bytes, AccessPattern::Sequential)
                .write(n_groups * group_entry_bytes);
            charge(&mut state.device, &merge_desc)?;
        }

        // Explicit-copy placement copies the result back: a scan's 8-byte
        // value or the (small) group table.
        if probe.explicit_copy {
            let bytes = if scan { 8 } else { n_groups * group_entry_bytes };
            let copy = state.device.memcpy(bytes, TransferDirection::DeviceToHost);
            total += copy;
            breakdown.stream_secs += copy.as_secs_f64();
        }
        drop(state);

        Ok(PlanOutcome {
            groups,
            qualifying_rows: totals.joined,
            grouped: plan.group_by.is_some(),
            time: total,
            kernels,
            interconnect_bytes,
            breakdown,
            site: OlapTarget::Gpu,
        })
    }

    /// Fraction of this engine's registered bytes already resident in device
    /// memory — the data-locality term of the placement heuristic. Explicit
    /// copies re-pay the transfer every query batch, so memcpy placement
    /// counts as non-resident.
    pub fn resident_fraction(&self) -> f64 {
        match self.placement {
            DataPlacement::DeviceResident => 1.0,
            DataPlacement::Host(AccessMode::Memcpy) | DataPlacement::Host(AccessMode::Uva) => 0.0,
            DataPlacement::Host(AccessMode::UnifiedMemory) => {
                let state = self.dev.lock();
                let mem = state.device.memory();
                let mut total = 0u64;
                let mut resident = 0u64;
                for id in state.buffers.values().chain(state.nsm_buffers.values()) {
                    accumulate_residency(mem, *id, &mut total, &mut resident);
                }
                if total == 0 {
                    0.0
                } else {
                    resident as f64 / total as f64
                }
            }
        }
    }
}

impl ExecutionSite for GpuOlapEngine {
    fn target(&self) -> OlapTarget {
        OlapTarget::Gpu
    }

    fn label(&self) -> &'static str {
        "gpu"
    }

    fn register_table(&self, table: &SnapshotTable, label: &str) -> Result<RegisteredTable> {
        GpuOlapEngine::register_table(self, table, label)
    }

    fn reset_tables(&self) {
        GpuOlapEngine::reset_tables(self);
    }

    fn unregister_table(&self, handle: RegisteredTable) {
        GpuOlapEngine::unregister_table(self, handle);
    }

    fn execute_plan(
        &self,
        probe: RegisteredTable,
        probe_table: &SnapshotTable,
        build: Option<(RegisteredTable, &SnapshotTable)>,
        plan: &OlapPlan,
    ) -> Result<PlanOutcome> {
        let out = GpuOlapEngine::execute_plan(self, probe, probe_table, build, plan)?;
        emit_execution_spans(&self.tracer, out.site, &out.kernels, &out.breakdown, out.time, out.interconnect_bytes);
        Ok(out)
    }

    fn free_device_bytes(&self) -> Option<u64> {
        Some(self.dev.lock().device.memory().free_bytes())
    }

    fn resident_fraction(&self) -> f64 {
        GpuOlapEngine::resident_fraction(self)
    }

    fn capability(&self) -> SiteCapability {
        let state = self.dev.lock();
        let spec = state.device.spec().clone();
        let free_bytes = state.device.memory().free_bytes();
        drop(state);
        SiteCapability::Gpu {
            target: OlapTarget::Gpu,
            devices: vec![GpuDeviceCapability {
                spec,
                shard_fraction: 1.0,
                resident_fraction: GpuOlapEngine::resident_fraction(self),
                free_bytes: Some(free_bytes),
            }],
        }
    }

    fn set_plan_cache(&mut self, cache: PlanDataCache) {
        self.cache = cache;
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.cache.set_tracer(tracer.clone());
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::{AggExpr, AttrType, PartitionId, Predicate, ScanAggQuery, Schema, Value};
    use h2tap_gpu_sim::GpuSpec;
    use h2tap_storage::{Database, Layout};

    /// A small table: col0 = i, col1 = i % 10, col2 = 2.5 (float), 16 cols total
    /// only for the first three used.
    fn snapshot_table(layout: Layout, rows: i64) -> SnapshotTable {
        let db = Database::new(1);
        let schema = h2tap_common::Schema::new(vec![
            h2tap_common::Attribute::new("k", AttrType::Int64),
            h2tap_common::Attribute::new("bucket", AttrType::Int32),
            h2tap_common::Attribute::new("price", AttrType::Float64),
        ])
        .unwrap();
        let t = db.create_table("t", schema, layout).unwrap();
        for i in 0..rows {
            db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int32((i % 10) as i32), Value::Float64(2.5)])
                .unwrap();
        }
        let snap = db.snapshot();
        snap.table(t).unwrap().clone()
    }

    fn engine(placement: DataPlacement) -> GpuOlapEngine {
        GpuOlapEngine::new(GpuDevice::new(GpuSpec::gtx_980()), placement)
    }

    fn scan(eng: &GpuOlapEngine, h: RegisteredTable, t: &SnapshotTable, q: &ScanAggQuery) -> Result<OlapOutcome> {
        eng.execute_plan(h, t, None, &OlapPlan::scan(q)).map(OlapOutcome::from)
    }

    fn bucket_query() -> ScanAggQuery {
        ScanAggQuery { predicates: vec![Predicate::between(1, 0.0, 4.0)], aggregate: AggExpr::SumProduct(1, 2) }
    }

    #[test]
    fn exact_answer_matches_a_scalar_computation() {
        let table = snapshot_table(Layout::Dsm, 1000);
        let eng = engine(DataPlacement::Host(AccessMode::Uva));
        let handle = eng.register_table(&table, "t").unwrap();
        let out = scan(&eng, handle, &table, &bucket_query()).unwrap();
        let expected: f64 = (0..1000).map(|i| i % 10).filter(|b| *b <= 4).map(|b| b as f64 * 2.5).sum();
        assert_eq!(out.value, expected);
        assert_eq!(out.qualifying_rows, 500);
        assert_eq!(out.kernels.len(), 2, "one selection kernel + one aggregation kernel");
        assert!(out.time > SimDuration::ZERO);
    }

    #[test]
    fn all_layouts_agree_on_the_answer() {
        let query = bucket_query();
        let mut answers = Vec::new();
        for layout in [Layout::Nsm, Layout::Dsm, Layout::PAPER_PAX] {
            let table = snapshot_table(layout, 500);
            let eng = engine(DataPlacement::Host(AccessMode::Uva));
            let handle = eng.register_table(&table, "t").unwrap();
            answers.push(scan(&eng, handle, &table, &query).unwrap().value);
        }
        assert!(answers.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9), "{answers:?}");
    }

    #[test]
    fn nsm_is_slower_than_dsm_over_uva() {
        let query = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0]));
        let mut times = Vec::new();
        for layout in [Layout::Dsm, Layout::Nsm] {
            let table = snapshot_table(layout, 200_000);
            let eng = engine(DataPlacement::Host(AccessMode::Uva));
            let handle = eng.register_table(&table, "t").unwrap();
            times.push(scan(&eng, handle, &table, &query).unwrap().time.as_secs_f64());
        }
        assert!(times[1] > 1.5 * times[0], "NSM {} DSM {}", times[1], times[0]);
    }

    #[test]
    fn pax_is_close_to_dsm() {
        let query = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 1]));
        let mut times = Vec::new();
        for layout in [Layout::Dsm, Layout::PAPER_PAX] {
            let table = snapshot_table(layout, 200_000);
            let eng = engine(DataPlacement::Host(AccessMode::Uva));
            let handle = eng.register_table(&table, "t").unwrap();
            times.push(scan(&eng, handle, &table, &query).unwrap().time.as_secs_f64());
        }
        let ratio = times[1] / times[0];
        assert!((0.95..1.2).contains(&ratio), "PAX/DSM ratio {ratio}");
    }

    #[test]
    fn unified_memory_queries_get_faster_after_first_touch() {
        let table = snapshot_table(Layout::Dsm, 500_000);
        let eng = engine(DataPlacement::Host(AccessMode::UnifiedMemory));
        let handle = eng.register_table(&table, "t").unwrap();
        let q = bucket_query();
        let first = scan(&eng, handle, &table, &q).unwrap();
        let second = scan(&eng, handle, &table, &q).unwrap();
        assert_eq!(first.value, second.value);
        assert!(first.time > second.time, "first {} second {}", first.time, second.time);
        assert_eq!(second.interconnect_bytes, 0);
    }

    #[test]
    fn device_resident_execution_is_fastest() {
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 1]));
        let table = snapshot_table(Layout::Dsm, 500_000);
        let uva = engine(DataPlacement::Host(AccessMode::Uva));
        let h1 = uva.register_table(&table, "t").unwrap();
        let t_uva = scan(&uva, h1, &table, &q).unwrap().time;
        let dev = engine(DataPlacement::DeviceResident);
        let h2 = dev.register_table(&table, "t").unwrap();
        let t_dev = scan(&dev, h2, &table, &q).unwrap().time;
        assert!(t_dev < t_uva, "device {} uva {}", t_dev, t_uva);
    }

    #[test]
    fn memcpy_placement_charges_transfers() {
        let table = snapshot_table(Layout::Dsm, 100_000);
        let eng = engine(DataPlacement::Host(AccessMode::Memcpy));
        let handle = eng.register_table(&table, "t").unwrap();
        let out = scan(&eng, handle, &table, &bucket_query()).unwrap();
        assert!(out.interconnect_bytes > 0);
    }

    #[test]
    fn empty_table_is_rejected() {
        let db = Database::new(1);
        let t = db.create_table("t", Schema::homogeneous("c", 2, AttrType::Int32), Layout::Dsm).unwrap();
        let snap = db.snapshot();
        let table = snap.table(t).unwrap().clone();
        let eng = engine(DataPlacement::Host(AccessMode::Uva));
        let handle = eng.register_table(&table, "t").unwrap();
        assert!(scan(&eng, handle, &table, &bucket_query()).is_err());
    }

    /// Build table keyed 0..10: key = i, size = i, brand = i % 3.
    fn build_table(keys: i64) -> SnapshotTable {
        let db = Database::new(1);
        let schema = h2tap_common::Schema::new(vec![
            h2tap_common::Attribute::new("key", AttrType::Int64),
            h2tap_common::Attribute::new("size", AttrType::Int32),
            h2tap_common::Attribute::new("brand", AttrType::Int32),
        ])
        .unwrap();
        let t = db.create_table("dim", schema, Layout::Dsm).unwrap();
        for i in 0..keys {
            db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int32(i as i32), Value::Int32((i % 3) as i32)])
                .unwrap();
        }
        let snap = db.snapshot();
        snap.table(t).unwrap().clone()
    }

    /// Join the fact table's bucket column (i % 10) against the dimension
    /// keys with size <= 4, group by brand, SUM(bucket * price) + COUNT.
    fn join_plan() -> OlapPlan {
        OlapPlan {
            predicates: vec![],
            join: Some(h2tap_common::JoinSpec {
                probe_column: 1,
                build_key: 0,
                build_predicates: vec![Predicate::between(1, 0.0, 4.0)],
            }),
            group_by: Some(PlanColumn::Build(2)),
            aggregates: vec![AggExpr::SumProduct(1, 2), AggExpr::Count],
        }
    }

    #[test]
    fn failed_registration_frees_its_partial_allocations() {
        // A device that fits the first columns but not the whole table: the
        // failed registration must not consume capacity (OOM fallback
        // retries registration on every query).
        let table = snapshot_table(Layout::Dsm, 100_000); // 8 + 4 + 8 bytes/row
        let mut spec = GpuSpec::gtx_980();
        spec.mem_capacity_mib = 1;
        let eng = GpuOlapEngine::new(GpuDevice::new(spec), DataPlacement::DeviceResident);
        assert!(eng.register_table(&table, "t").is_err());
        assert_eq!(eng.device_used_bytes(), 0, "partial column buffers must be freed");
    }

    #[test]
    fn unregister_table_frees_only_that_tables_buffers() {
        let t1 = snapshot_table(Layout::Dsm, 10_000);
        let t2 = snapshot_table(Layout::Dsm, 20_000);
        let eng = engine(DataPlacement::DeviceResident);
        let h1 = eng.register_table(&t1, "a").unwrap();
        let after_first = eng.device_used_bytes();
        let h2 = eng.register_table(&t2, "b").unwrap();
        assert!(eng.device_used_bytes() > after_first);
        eng.unregister_table(h2);
        assert_eq!(eng.device_used_bytes(), after_first, "only t2's buffers are freed");
        // t1 stays fully queryable.
        let out = scan(&eng, h1, &t1, &bucket_query()).unwrap();
        assert_eq!(out.qualifying_rows, 5_000);
    }

    #[test]
    fn join_group_by_plan_computes_exact_groups() {
        let probe = snapshot_table(Layout::Dsm, 1_000);
        let build = build_table(10);
        let eng = engine(DataPlacement::Host(AccessMode::Uva));
        let ph = eng.register_table(&probe, "fact").unwrap();
        let bh = eng.register_table(&build, "dim").unwrap();
        let out = eng.execute_plan(ph, &probe, Some((bh, &build)), &join_plan()).unwrap();
        // Buckets 0..=4 join (size <= 4); brands of keys 0..=4 are
        // 0 -> {0,3}, 1 -> {1,4}, 2 -> {2}; 100 rows per bucket.
        assert_eq!(out.qualifying_rows, 500);
        assert_eq!(out.groups.len(), 3);
        let sums: Vec<(u64, f64, u64)> = out.groups.iter().map(|g| (g.key, g.values[0], g.rows)).collect();
        assert_eq!(sums, vec![(0, 750.0, 200), (1, 1250.0, 200), (2, 500.0, 100)]);
        for g in &out.groups {
            assert_eq!(g.values[1], g.rows as f64, "COUNT aggregate tracks rows");
        }
        let names: Vec<&str> = out.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, vec!["hash_build", "hash_probe", "partial_aggregate", "merge_groups"]);
        assert!(out.time > SimDuration::ZERO);
    }

    #[test]
    fn random_probes_dominate_join_cost_over_uva() {
        let probe = snapshot_table(Layout::Dsm, 200_000);
        let build = build_table(10);
        let plan = join_plan();
        let scan_equivalent = OlapPlan { join: None, group_by: None, ..plan.clone() };
        let eng = engine(DataPlacement::Host(AccessMode::Uva));
        let ph = eng.register_table(&probe, "fact").unwrap();
        let bh = eng.register_table(&build, "dim").unwrap();
        let join_time = eng.execute_plan(ph, &probe, Some((bh, &build)), &plan).unwrap().time.as_secs_f64();
        let scan_time = eng.execute_plan(ph, &probe, None, &scan_equivalent).unwrap().time.as_secs_f64();
        // Every probe gathers a full interconnect transaction: the join costs
        // far more than streaming the same probe columns.
        assert!(join_time > 3.0 * scan_time, "join {join_time} scan {scan_time}");

        // Device-resident hash state caps the waste at the 128-byte device
        // transaction, collapsing the penalty.
        let dev = engine(DataPlacement::DeviceResident);
        let ph = dev.register_table(&probe, "fact").unwrap();
        let bh = dev.register_table(&build, "dim").unwrap();
        let dev_join = dev.execute_plan(ph, &probe, Some((bh, &build)), &plan).unwrap().time.as_secs_f64();
        assert!(dev_join < join_time / 3.0, "device {dev_join} uva {join_time}");
    }

    #[test]
    fn plan_scratch_buffers_do_not_leak_device_memory() {
        let probe = snapshot_table(Layout::Dsm, 10_000);
        let build = build_table(10);
        let eng = engine(DataPlacement::DeviceResident);
        let ph = eng.register_table(&probe, "fact").unwrap();
        let bh = eng.register_table(&build, "dim").unwrap();
        let before = eng.device_used_bytes();
        eng.execute_plan(ph, &probe, Some((bh, &build)), &join_plan()).unwrap();
        assert_eq!(eng.device_used_bytes(), before, "hash/group scratch must be freed");
    }

    #[test]
    fn plan_rejects_mismatched_join_and_build() {
        let probe = snapshot_table(Layout::Dsm, 100);
        let build = build_table(10);
        let eng = engine(DataPlacement::Host(AccessMode::Uva));
        let ph = eng.register_table(&probe, "fact").unwrap();
        let bh = eng.register_table(&build, "dim").unwrap();
        // Join without a build table.
        assert!(eng.execute_plan(ph, &probe, None, &join_plan()).is_err());
        // Build table without a join.
        let scan = OlapPlan { predicates: vec![], join: None, group_by: None, aggregates: vec![AggExpr::Count] };
        assert!(eng.execute_plan(ph, &probe, Some((bh, &build)), &scan).is_err());
    }

    #[test]
    fn scan_plan_matches_the_scan_query_answer() {
        // A scan-shaped plan is charged the filtered-scan schedule: select
        // and aggregate kernels only. Any other plan over the same scan
        // keeps the plan schedule's partial aggregation and merge.
        let probe = snapshot_table(Layout::Dsm, 5_000);
        let eng = engine(DataPlacement::Host(AccessMode::Uva));
        let handle = eng.register_table(&probe, "t").unwrap();
        let scan_plan = OlapPlan::scan(&bucket_query());
        let planned = eng.execute_plan(handle, &probe, None, &scan_plan).unwrap();
        let expected: f64 = (0..5_000).map(|i| i % 10).filter(|b| *b <= 4).map(|b| b as f64 * 2.5).sum();
        assert_eq!(planned.single_value(), Some(expected));
        assert_eq!(planned.qualifying_rows, 2_500);
        let names: Vec<&str> = planned.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, vec!["select_0", "aggregate"]);
        let two_aggregates = OlapPlan { aggregates: vec![AggExpr::SumProduct(1, 2), AggExpr::Count], ..scan_plan };
        let out = eng.execute_plan(handle, &probe, None, &two_aggregates).unwrap();
        assert_eq!(out.groups[0].values[0], expected);
        let names: Vec<&str> = out.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, vec!["select_0", "partial_aggregate", "merge_groups"]);
    }
}
