//! CPU columnar OLAP baselines: a MonetDB-like and a "DBMS-C"-like engine.
//!
//! Figure 4 of the paper compares GPU-powered Caldera against two CPU column
//! stores running TPC-H Q6 parallelised across all 24 cores: MonetDB (open
//! source, 1.27x faster than the commercial engine thanks to secondary
//! indexes) and an anonymised commercial column store "DBMS-C". Neither is
//! available here, so this module exposes two scan-engine configurations with
//! the same architectural distinction:
//!
//! * [`CpuEngineKind::MonetLike`] builds per-chunk zonemaps (min/max
//!   "secondary indexes") on predicate columns and skips chunks that cannot
//!   qualify; it also has a slightly lower per-tuple cost (column-at-a-time
//!   vectorised execution).
//! * [`CpuEngineKind::DbmsCLike`] always scans every chunk.
//!
//! The engine itself is Caldera's CPU execution site,
//! [`h2tap_olap::CpuOlapEngine`]: a baseline is that engine built with its
//! kind's [`CpuEngineKind::profile`], so the Figure-4 bars and Caldera's own
//! CPU dispatch run exactly the same code path. This module keeps the
//! paper's engine names.

use h2tap_olap::cpu::CpuScanProfile;

/// The two CPU baseline engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuEngineKind {
    /// MonetDB-like: zonemap skipping plus vectorised execution.
    MonetLike,
    /// Commercial column store "DBMS-C": plain parallel scan.
    DbmsCLike,
}

impl CpuEngineKind {
    /// Display label matching the paper's figure.
    pub fn label(self) -> &'static str {
        match self {
            CpuEngineKind::MonetLike => "MonetDB",
            CpuEngineKind::DbmsCLike => "DBMS-C",
        }
    }

    /// The shared-engine profile this baseline runs with.
    pub fn profile(self) -> CpuScanProfile {
        match self {
            CpuEngineKind::MonetLike => CpuScanProfile::vectorized(),
            CpuEngineKind::DbmsCLike => CpuScanProfile::materializing(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::{AggExpr, AttrType, OlapPlan, PartitionId, Predicate, ScanAggQuery, Schema, Value};
    use h2tap_olap::{CpuOlapEngine, CpuPlanResult, ExecutionSite};
    use h2tap_storage::{Database, Layout};

    /// Builds a 2-column table: col0 = 0..n (sorted), col1 = col0 * 2.
    fn table(n: i64) -> h2tap_storage::SnapshotTable {
        let db = Database::new(1);
        let schema = Schema::homogeneous("c", 2, AttrType::Int64);
        let t = db.create_table("t", schema, Layout::Dsm).unwrap();
        for i in 0..n {
            db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int64(i * 2)]).unwrap();
        }
        let snap = db.snapshot();
        snap.table(t).unwrap().clone()
    }

    fn run(kind: CpuEngineKind, t: &h2tap_storage::SnapshotTable, query: &ScanAggQuery) -> CpuPlanResult {
        CpuOlapEngine::new(kind.profile()).execute_plan_pipeline(t, None, &OlapPlan::scan(query)).unwrap()
    }

    #[test]
    fn both_engines_compute_the_same_exact_answer() {
        let t = table(10_000);
        let query =
            ScanAggQuery { predicates: vec![Predicate::between(0, 0.0, 999.0)], aggregate: AggExpr::SumProduct(0, 1) };
        let monet = run(CpuEngineKind::MonetLike, &t, &query);
        let dbmsc = run(CpuEngineKind::DbmsCLike, &t, &query);
        let expected: f64 = (0..1000).map(|i| (i * i * 2) as f64).sum();
        assert_eq!(monet.groups[0].values[0], expected);
        assert_eq!(dbmsc.groups[0].values[0], expected);
        assert_eq!(monet.qualifying_rows, 1000);
    }

    #[test]
    fn monet_like_skips_chunks_on_clustered_predicates() {
        // col0 is inserted in sorted order, so zonemaps can skip chunks.
        let t = table(300_000);
        let query = ScanAggQuery { predicates: vec![Predicate::between(0, 0.0, 9_999.0)], aggregate: AggExpr::Count };
        let monet = run(CpuEngineKind::MonetLike, &t, &query);
        let dbmsc = run(CpuEngineKind::DbmsCLike, &t, &query);
        assert_eq!(monet.groups[0].values[0], 10_000.0);
        assert!(monet.chunks_skipped > 0, "zonemaps should skip chunks on sorted data");
        assert_eq!(dbmsc.chunks_skipped, 0);
        assert!(monet.rows_scanned < dbmsc.rows_scanned);
        assert!(monet.sim_time < dbmsc.sim_time);
    }

    #[test]
    fn count_aggregate_counts_qualifying_rows() {
        let t = table(1000);
        let query = ScanAggQuery { predicates: vec![Predicate::between(1, 0.0, 10.0)], aggregate: AggExpr::Count };
        let r = run(CpuEngineKind::DbmsCLike, &t, &query);
        assert_eq!(r.groups[0].values[0], 6.0); // col1 in {0,2,4,6,8,10}
    }

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(CpuEngineKind::MonetLike.label(), "MonetDB");
        assert_eq!(CpuEngineKind::DbmsCLike.label(), "DBMS-C");
    }

    #[test]
    fn baseline_and_caldera_cpu_site_share_the_engine() {
        // The MonetDB-like baseline and the archipelago CPU site run the same
        // engine, so with the same spec they must report identical answers
        // and identical modelled times.
        let t = table(50_000);
        let query = ScanAggQuery {
            predicates: vec![Predicate::between(0, 100.0, 40_000.0)],
            aggregate: AggExpr::SumColumns(vec![1]),
        };
        let baseline = run(CpuEngineKind::MonetLike, &t, &query);
        let site = CpuOlapEngine::new(CpuScanProfile::vectorized());
        let handle = site.register_table(&t, "t").unwrap();
        let out = site.execute_plan(handle, &t, None, &OlapPlan::scan(&query)).unwrap();
        assert_eq!(baseline.groups, out.groups);
        assert_eq!(baseline.qualifying_rows, out.qualifying_rows);
        assert_eq!(baseline.sim_time, out.time);
    }
}
