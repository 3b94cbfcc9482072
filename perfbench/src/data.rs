//! The seeded data generator every workload shares, and the engine set-up.
//!
//! All inputs derive from the `--seed` argument: the lineitem, part and
//! small-lineitem contents, the OLTP workers' generator seeds and every
//! client's transaction stream. The engine only ever receives the generated
//! rows and transactions.

use caldera::{Caldera, CalderaConfig, OlapMultiGpuConfig, OlapTarget, SnapshotPolicy};
use h2tap_common::{PartitionId, Result, TableId, PLAN_CHUNK_ROWS};
use h2tap_storage::Layout;
use h2tap_workloads::tpcc::{self, TpccConfig, TpccTables};
use h2tap_workloads::tpch;

/// OLTP workers (= partitions) and benchmark client threads: the benchmark
/// is sized for a 2-core machine.
pub const WORKERS: usize = 2;

/// Devices in the multi-GPU site (the first two of the Table 1 mix).
const MULTI_GPU_DEVICES: usize = 2;

/// Input sizes. `full` is what `BENCHMARK.json` runs; `tiny` is the smoke
/// test's scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows of the large lineitem table on the OLAP-heavy workloads.
    pub lineitem_rows: u64,
    /// Rows of the large lineitem table on `oltp-neworder`, whose analytic
    /// side only serves the tail probe.
    pub neworder_lineitem_rows: u64,
    /// Rows of the small lineitem table (the scan forced onto the CPU).
    pub small_rows: u64,
    /// Rows of the part table (the join's build side).
    pub parts: u64,
    /// YCSB working set, percent of each partition's lineitem rows.
    pub ycsb_working_set_pct: u32,
    /// Segments per run, each measured on a freshly set-up engine
    /// (`setup_s` is the median set-up).
    pub segments: usize,
    /// Repetitions of each per-layer probe (their median is reported).
    pub probe_reps: usize,
    /// Transactions of the serial OLTP tail probe (over all segments).
    pub txn_probe_txns: usize,
    /// Refresh rounds of the freshness tail probe (over all segments), and
    /// queries per round.
    pub fresh_probe_rounds: usize,
    pub fresh_probe_queries: usize,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            lineitem_rows: 16 * PLAN_CHUNK_ROWS as u64,
            neworder_lineitem_rows: PLAN_CHUNK_ROWS as u64,
            small_rows: 4_096,
            parts: 20_000,
            ycsb_working_set_pct: 2,
            segments: 6,
            probe_reps: 30,
            txn_probe_txns: 2_000,
            fresh_probe_rounds: 80,
            fresh_probe_queries: 20,
        }
    }

    pub fn tiny() -> Self {
        Self {
            lineitem_rows: 2 * PLAN_CHUNK_ROWS as u64,
            neworder_lineitem_rows: 20_000,
            small_rows: 2_048,
            parts: 2_000,
            ycsb_working_set_pct: 2,
            segments: 2,
            probe_reps: 3,
            txn_probe_txns: 200,
            fresh_probe_rounds: 4,
            fresh_probe_queries: 50,
        }
    }
}

/// Derives an independent 64-bit stream seed from the run seed (SplitMix64
/// finaliser over `seed` and a per-purpose salt).
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed salts, one per generated stream.
pub mod salt {
    pub const LINEITEM: u64 = 1;
    pub const PART: u64 = 2;
    pub const SMALL: u64 = 3;
    pub const OLTP_WORKERS: u64 = 4;
    /// Client `i` draws its stream from `CLIENT + i`.
    pub const CLIENT: u64 = 100;
}

/// The analytic tables every workload's engine holds.
#[derive(Debug, Clone, Copy)]
pub struct OlapTables {
    pub lineitem: TableId,
    pub small: TableId,
    pub part: TableId,
}

/// The three query shapes of the analytic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// TPC-H Q6 over the large lineitem table.
    Scan,
    /// `tpch::brand_revenue_plan` (lineitem ⋈ part, grouped by brand).
    Join,
    /// TPC-H Q6 over the small lineitem table.
    SmallScan,
}

impl Shape {
    pub const ALL: [Shape; 3] = [Shape::Scan, Shape::Join, Shape::SmallScan];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Scan => "scan",
            Shape::Join => "join",
            Shape::SmallScan => "small_scan",
        }
    }
}

/// Size filter of the join's build side (`p_size <= 30`).
pub const JOIN_MAX_SIZE: i32 = 30;

/// One analytic call of the mix: a shape, and the site it is forced onto
/// (`None` lets placement decide).
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub shape: Shape,
    pub forced: Option<OlapTarget>,
}

/// The analytic mix (`olap-serve` clients draw from it at random, the other
/// analytic clients cycle through it). Placement routes the large scan and
/// the join to the multi-GPU site; the forced calls keep the CPU and the
/// single GPU serving a fixed share each.
pub const MIX: [Call; 4] = [
    Call { shape: Shape::Scan, forced: None },
    Call { shape: Shape::Join, forced: None },
    Call { shape: Shape::SmallScan, forced: Some(OlapTarget::Cpu) },
    Call { shape: Shape::Scan, forced: Some(OlapTarget::Gpu) },
];

/// Every configured site, in reporting order.
pub const SITES: [OlapTarget; 3] = [OlapTarget::Cpu, OlapTarget::Gpu, OlapTarget::MultiGpu];

pub fn site_name(target: OlapTarget) -> &'static str {
    match target {
        OlapTarget::Cpu => "cpu",
        OlapTarget::Gpu => "gpu",
        OlapTarget::MultiGpu => "multi_gpu",
    }
}

/// Cores of the CPU execution site. A CPU-site query runs one host thread
/// per core, so this matches the 2-core machine the benchmark is sized for.
const OLAP_CPU_CORES: usize = WORKERS;

/// The engine configuration shared by every workload: two OLTP workers,
/// a 2-core CPU site, the paper's single GPU plus a multi-GPU site, manual
/// snapshot refresh, and one in-flight query per site (the excess queues in
/// admission).
fn config(seed: u64) -> CalderaConfig {
    let mut config = CalderaConfig::with_workers(WORKERS);
    config.oltp.seed = derive(seed, salt::OLTP_WORKERS);
    config.olap_cpu_cores = OLAP_CPU_CORES;
    config.olap_multi_gpu = Some(OlapMultiGpuConfig::new(h2tap_gpu_sim::table1_mix(MULTI_GPU_DEVICES)));
    config.snapshot_policy = SnapshotPolicy::Manual;
    config.olap_admission_in_flight = Some(1);
    config
}

/// Loads the analytic tables into a builder.
fn load_olap(
    builder: &mut caldera::CalderaBuilder,
    lineitem_rows: u64,
    scale: &Scale,
    seed: u64,
) -> Result<OlapTables> {
    let lineitem =
        tpch::load_lineitem_named(builder, "lineitem", Layout::PAPER_PAX, lineitem_rows, derive(seed, salt::LINEITEM))?;
    let small = tpch::load_lineitem_named(
        builder,
        "lineitem_small",
        Layout::PAPER_PAX,
        scale.small_rows,
        derive(seed, salt::SMALL),
    )?;
    let part = tpch::load_part(builder, Layout::Dsm, scale.parts, derive(seed, salt::PART))?;
    Ok(OlapTables { lineitem, small, part })
}

/// An engine holding only the analytic tables (`olap-serve`, `htap-fresh`).
pub fn olap_engine(scale: &Scale, seed: u64) -> Result<(Caldera, OlapTables)> {
    let mut builder = Caldera::builder(config(seed));
    let tables = load_olap(&mut builder, scale.lineitem_rows, scale, seed)?;
    Ok((builder.start()?, tables))
}

/// An engine holding two TPC-C warehouses (one per worker) plus the
/// analytic tables (`oltp-neworder`).
pub fn tpcc_engine(scale: &Scale, seed: u64) -> Result<(Caldera, OlapTables, TpccTables)> {
    let mut builder = Caldera::builder(config(seed));
    builder.set_partitioner(std::sync::Arc::new(tpcc::tpcc_partitioner(WORKERS)))?;
    let tpcc_tables = tpcc::load_tpcc(&mut builder, WORKERS, TpccConfig::default())?;
    let tables = load_olap(&mut builder, scale.neworder_lineitem_rows, scale, seed)?;
    Ok((builder.start()?, tables, tpcc_tables))
}

/// The home partition of client `client`'s transactions.
pub fn home_of(client: usize) -> PartitionId {
    PartitionId((client % WORKERS) as u32)
}
