//! Running the analytic mix through the engine, and the serial oracle its
//! answers are checked against.

use crate::data::{Call, OlapTables, Shape, JOIN_MAX_SIZE};
use caldera::{Caldera, OlapPlan, OlapTarget};
use h2tap_common::{GroupRow, Result};
use h2tap_olap::operators::{merge_partials, process_chunk, ChunkPartial, PlanData};
use h2tap_olap::PlanDataCache;
use h2tap_storage::{Snapshot, SnapshotTable};
use h2tap_workloads::tpch;

/// An answer as raw bits: `(group key, rows, aggregate bit patterns)` per
/// group, so equality is bit-identity.
pub type Answer = Vec<(u64, u64, Vec<u64>)>;

/// What the simulated hardware charged for one call (simulated clock only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimCost {
    pub sim_ms: f64,
    pub kernel_launches: u64,
    pub interconnect_bytes: u64,
}

/// One completed engine call.
pub struct Outcome {
    pub answer: Answer,
    pub site: OlapTarget,
    pub sim: SimCost,
}

pub fn groups_answer(groups: &[GroupRow]) -> Answer {
    groups.iter().map(|g| (g.key, g.rows, g.values.iter().map(|v| v.to_bits()).collect())).collect()
}

/// The relational plan of a shape (the scans as `OlapPlan::scan(&q6)`).
pub fn plan_of(shape: Shape) -> OlapPlan {
    match shape {
        Shape::Scan | Shape::SmallScan => OlapPlan::scan(&tpch::q6()),
        Shape::Join => tpch::brand_revenue_plan(JOIN_MAX_SIZE),
    }
}

/// Runs one call of the mix through the engine's public API: the scans via
/// `run_olap`/`run_olap_on` (the paper-facing Q6 entry point), the join via
/// `run_olap_plan`/`run_olap_plan_on`.
pub fn run(caldera: &Caldera, tables: &OlapTables, call: Call) -> Result<Outcome> {
    match call.shape {
        Shape::Scan | Shape::SmallScan => {
            let table = if call.shape == Shape::Scan { tables.lineitem } else { tables.small };
            let q6 = tpch::q6();
            let out = match call.forced {
                Some(target) => caldera.run_olap_on(table, &q6, target)?,
                None => caldera.run_olap(table, &q6)?,
            };
            Ok(Outcome {
                answer: vec![(0, out.qualifying_rows, vec![out.value.to_bits()])],
                site: out.site,
                sim: SimCost {
                    sim_ms: out.time.as_millis_f64(),
                    kernel_launches: out.kernels.len() as u64,
                    interconnect_bytes: out.interconnect_bytes,
                },
            })
        }
        Shape::Join => {
            let plan = plan_of(Shape::Join);
            let out = match call.forced {
                Some(target) => caldera.run_olap_plan_on(tables.lineitem, Some(tables.part), &plan, target)?,
                None => caldera.run_olap_plan(tables.lineitem, Some(tables.part), &plan)?,
            };
            Ok(Outcome {
                answer: groups_answer(&out.groups),
                site: out.site,
                sim: SimCost {
                    sim_ms: out.time.as_millis_f64(),
                    kernel_launches: out.kernels.len() as u64,
                    interconnect_bytes: out.interconnect_bytes,
                },
            })
        }
    }
}

/// The frozen probe and build tables a shape reads in `snapshot`.
fn shape_tables<'a>(
    snapshot: &'a Snapshot,
    tables: &OlapTables,
    shape: Shape,
) -> Result<(&'a SnapshotTable, Option<&'a SnapshotTable>)> {
    Ok(match shape {
        Shape::Scan => (snapshot.table(tables.lineitem)?, None),
        Shape::SmallScan => (snapshot.table(tables.small)?, None),
        Shape::Join => (snapshot.table(tables.lineitem)?, Some(snapshot.table(tables.part)?)),
    })
}

/// Evaluates every chunk of `data` in ascending order on this thread.
pub fn process_all(data: &PlanData, plan: &OlapPlan) -> Vec<ChunkPartial> {
    (0..data.mat.chunk_count())
        .map(|i| process_chunk(&data.mat, plan, data.hash.as_deref(), data.mat.chunk_range(i)))
        .collect()
}

/// The serial oracle: a private plan-data cache, every chunk evaluated in
/// ascending order on one thread, partials merged in that order.
fn oracle(snapshot: &Snapshot, tables: &OlapTables, shape: Shape) -> Result<Answer> {
    let (probe, build) = shape_tables(snapshot, tables, shape)?;
    let plan = plan_of(shape);
    let data = PlanDataCache::new().prepare_plan(probe, build, &plan)?;
    let (groups, _) = merge_partials(&plan, process_all(&data, &plan));
    Ok(groups_answer(&groups))
}

/// The oracle answer of every shape on `snapshot`, in `Shape::ALL` order.
pub fn oracles(snapshot: &Snapshot, tables: &OlapTables) -> Result<Vec<Answer>> {
    Shape::ALL.iter().map(|&shape| oracle(snapshot, tables, shape)).collect()
}

/// Index of a shape in `Shape::ALL`.
pub fn shape_index(shape: Shape) -> usize {
    Shape::ALL.iter().position(|&s| s == shape).expect("every shape is listed in Shape::ALL")
}
