//! The relational logical plan: scan → filter → hash join → group-by.
//!
//! [`crate::ScanAggQuery`] covers the paper's evaluation (one filtered
//! scan-and-aggregate), but the scheduler argument of the paper only bites
//! when queries have *non-streaming* access patterns: "the scheduler can
//! combine dynamic run-time information … to decide if a given analytical
//! query should be executed on CPU or GPU cores". [`OlapPlan`] is the
//! smallest IR that exercises that: a filtered scan of a probe (fact) table,
//! an optional hash join against a second build (dimension) table, and an
//! optional group-by with per-group aggregates. Hash-table probes are
//! data-dependent random accesses — exactly the pattern where CPU caches and
//! GPU coalescing behave differently, so placement stops degenerating to a
//! bandwidth ratio.
//!
//! Execution sites must produce **byte-identical** results for the same plan
//! over the same snapshot. Floating-point addition is not associative, so the
//! evaluation order is part of the IR contract: rows are processed in storage
//! order within fixed chunks of [`PLAN_CHUNK_ROWS`] rows, per-chunk partial
//! aggregates are merged in ascending chunk order, and groups are emitted in
//! ascending order of their raw 64-bit key cell.

use crate::query::{AggExpr, Predicate};
use crate::schema::Schema;
use serde::{Deserialize, Serialize};

/// Rows per execution chunk. Part of the IR contract: every execution site
/// accumulates per-chunk partial aggregates over chunks of exactly this many
/// rows (in storage order) and merges them in ascending chunk order, which is
/// what makes f64 aggregates byte-identical across sites regardless of how
/// the chunks were scheduled (CPU thread pool, GPU thread blocks).
pub const PLAN_CHUNK_ROWS: usize = 64 * 1024;

/// Bytes of one hash-table entry (64-bit key plus 64-bit payload). Shared by
/// the execution sites (which size their simulated hash tables with it) and
/// the placement heuristic (which uses it to estimate probe-side random
/// traffic and build-side footprint).
pub const HASH_ENTRY_BYTES: u64 = 16;

/// The shard a chunk belongs to when a table's [`PLAN_CHUNK_ROWS`] chunks are
/// spread across `shards` execution units (the devices of a multi-GPU site):
/// round-robin in ascending chunk order. Part of the IR contract alongside
/// the chunk size — the assignment is a *partition* (every chunk lands on
/// exactly one shard, shards are disjoint, their union covers the table) and
/// it never changes the merge order: partials always merge in ascending chunk
/// index regardless of which shard (or device, or thread) produced them, so
/// sharding cannot perturb a single bit of the f64 aggregates.
pub const fn chunk_shard(chunk: usize, shards: usize) -> usize {
    if shards == 0 {
        0
    } else {
        chunk % shards
    }
}

/// The side of a plan a column reference points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanColumn {
    /// Attribute of the probe (fact) table.
    Probe(usize),
    /// Attribute of the build (dimension) table; requires a join.
    Build(usize),
}

/// An equi-join of the probe table against a hash table built from a second
/// registered table. Join semantics are primary-key (FK → PK): build keys
/// must be unique among rows surviving `build_predicates`; a probe row joins
/// with at most one build row and is dropped when no build row matches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinSpec {
    /// Attribute of the probe table matched against the build key.
    pub probe_column: usize,
    /// Attribute of the build table serving as the (unique) join key.
    pub build_key: usize,
    /// Conjunctive range predicates applied to build rows before they are
    /// inserted into the hash table (dimension filtering — this is what makes
    /// the join selective).
    pub build_predicates: Vec<Predicate>,
}

/// A filtered scan with an optional hash join and an optional group-by.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OlapPlan {
    /// Conjunctive range predicates over the probe table.
    pub predicates: Vec<Predicate>,
    /// Optional hash join against the build table.
    pub join: Option<JoinSpec>,
    /// Optional group-by key. `None` produces a single global group (key 0).
    /// A `Build` key requires `join` to be present.
    pub group_by: Option<PlanColumn>,
    /// Aggregates computed per group over probe-table columns, in output
    /// order.
    pub aggregates: Vec<AggExpr>,
}

impl OlapPlan {
    /// A plan equivalent to a [`crate::ScanAggQuery`]: filtered scan, no
    /// join, one global aggregate.
    pub fn scan(query: &crate::ScanAggQuery) -> Self {
        Self {
            predicates: query.predicates.clone(),
            join: None,
            group_by: None,
            aggregates: vec![query.aggregate.clone()],
        }
    }

    /// Whether the plan is scan-shaped — no join, no `group_by`, exactly one
    /// aggregate — i.e. in the image of [`OlapPlan::scan`]. Sites charge
    /// such plans the filtered-scan kernel schedule and answer them with a
    /// single value.
    pub fn is_scan(&self) -> bool {
        self.join.is_none() && self.group_by.is_none() && self.aggregates.len() == 1
    }

    /// Whether the plan is structurally valid: a `Build` group key or any
    /// build predicate requires a join, and at least one aggregate must be
    /// present.
    pub fn validate(&self) -> Result<(), String> {
        if self.aggregates.is_empty() {
            return Err("plan has no aggregates".into());
        }
        if matches!(self.group_by, Some(PlanColumn::Build(_))) && self.join.is_none() {
            return Err("group-by on the build side requires a join".into());
        }
        Ok(())
    }

    /// Probe-table attribute indexes the plan touches (predicates, join probe
    /// column, probe-side group key, aggregates), deduplicated and sorted.
    pub fn probe_columns_accessed(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self
            .predicates
            .iter()
            .map(|p| p.column)
            .chain(self.join.iter().map(|j| j.probe_column))
            .chain(self.group_by.iter().filter_map(|g| match g {
                PlanColumn::Probe(c) => Some(*c),
                PlanColumn::Build(_) => None,
            }))
            .chain(self.aggregates.iter().flat_map(|a| a.columns()))
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Build-table attribute indexes the plan touches (join key, build
    /// predicates, build-side group key), deduplicated and sorted. Empty when
    /// the plan has no join.
    pub fn build_columns_accessed(&self) -> Vec<usize> {
        let Some(join) = &self.join else { return Vec::new() };
        let mut cols: Vec<usize> = std::iter::once(join.build_key)
            .chain(join.build_predicates.iter().map(|p| p.column))
            .chain(self.group_by.iter().filter_map(|g| match g {
                PlanColumn::Build(c) => Some(*c),
                PlanColumn::Probe(_) => None,
            }))
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Bytes a columnar engine must stream from the probe table.
    pub fn probe_scan_bytes(&self, schema: &Schema, rows: u64) -> u64 {
        column_bytes(&self.probe_columns_accessed(), schema, rows)
    }

    /// Bytes a columnar engine must stream from the build table.
    pub fn build_scan_bytes(&self, schema: &Schema, rows: u64) -> u64 {
        column_bytes(&self.build_columns_accessed(), schema, rows)
    }

    /// Estimated bytes of data-dependent random access the plan performs:
    /// one hash-table entry per probe row (the probe side of the join). Zero
    /// for plans without a join — those stream sequentially. This is the
    /// access-pattern feature that separates plan placement from scan
    /// placement.
    pub fn random_access_bytes(&self, probe_rows: u64) -> u64 {
        if self.join.is_some() {
            probe_rows * HASH_ENTRY_BYTES
        } else {
            0
        }
    }

    /// Estimated hash-table footprint: one entry per build row (the
    /// scheduler cannot see build-predicate selectivity ahead of execution,
    /// so it sizes for the worst case).
    pub fn hash_table_bytes(&self, build_rows: u64) -> u64 {
        if self.join.is_some() {
            build_rows * HASH_ENTRY_BYTES
        } else {
            0
        }
    }
}

fn column_bytes(cols: &[usize], schema: &Schema, rows: u64) -> u64 {
    cols.iter().filter_map(|&c| schema.attr(c).ok()).map(|attr| rows * attr.ty.width() as u64).sum()
}

/// One group of a plan result: the raw 64-bit cell of the group key (0 for
/// the global group of a plan without `group_by`), the aggregate values in
/// plan order, and the number of contributing rows. `PartialEq` compares f64
/// aggregates exactly — cross-site equivalence is byte-identical by the
/// chunked-evaluation contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupRow {
    /// Raw 64-bit storage cell of the group key.
    pub key: u64,
    /// Aggregate values, in `OlapPlan::aggregates` order.
    pub values: Vec<f64>,
    /// Rows that contributed to this group.
    pub rows: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Predicate, ScanAggQuery};
    use crate::schema::{AttrType, Attribute};

    fn join() -> JoinSpec {
        JoinSpec { probe_column: 1, build_key: 0, build_predicates: vec![Predicate::between(2, 0.0, 10.0)] }
    }

    #[test]
    fn scan_plan_mirrors_the_query() {
        let q =
            ScanAggQuery { predicates: vec![Predicate::between(0, 0.0, 1.0)], aggregate: AggExpr::SumProduct(1, 2) };
        let plan = OlapPlan::scan(&q);
        assert!(plan.validate().is_ok());
        assert!(plan.is_scan());
        assert!(!OlapPlan { aggregates: vec![AggExpr::Count, AggExpr::Count], ..plan.clone() }.is_scan());
        assert!(!OlapPlan { group_by: Some(PlanColumn::Probe(0)), ..plan.clone() }.is_scan());
        assert!(!OlapPlan { join: Some(join()), ..plan.clone() }.is_scan());
        assert_eq!(plan.probe_columns_accessed(), q.columns_accessed());
        assert!(plan.build_columns_accessed().is_empty());
        assert_eq!(plan.random_access_bytes(1000), 0);
        assert_eq!(plan.hash_table_bytes(1000), 0);
    }

    #[test]
    fn column_sets_cover_every_plan_piece() {
        let plan = OlapPlan {
            predicates: vec![Predicate::between(4, 0.0, 1.0)],
            join: Some(join()),
            group_by: Some(PlanColumn::Build(3)),
            aggregates: vec![AggExpr::SumProduct(5, 6), AggExpr::Count],
        };
        assert_eq!(plan.probe_columns_accessed(), vec![1, 4, 5, 6]);
        assert_eq!(plan.build_columns_accessed(), vec![0, 2, 3]);
        let probe_group = OlapPlan { group_by: Some(PlanColumn::Probe(9)), ..plan };
        assert_eq!(probe_group.probe_columns_accessed(), vec![1, 4, 5, 6, 9]);
        assert_eq!(probe_group.build_columns_accessed(), vec![0, 2]);
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        let no_aggs = OlapPlan { predicates: vec![], join: None, group_by: None, aggregates: vec![] };
        assert!(no_aggs.validate().is_err());
        let build_group_without_join = OlapPlan {
            predicates: vec![],
            join: None,
            group_by: Some(PlanColumn::Build(0)),
            aggregates: vec![AggExpr::Count],
        };
        assert!(build_group_without_join.validate().is_err());
    }

    #[test]
    fn join_plans_report_random_access_and_footprint() {
        let plan =
            OlapPlan { predicates: vec![], join: Some(join()), group_by: None, aggregates: vec![AggExpr::Count] };
        assert_eq!(plan.random_access_bytes(1_000), 1_000 * HASH_ENTRY_BYTES);
        assert_eq!(plan.hash_table_bytes(500), 500 * HASH_ENTRY_BYTES);
    }

    #[test]
    fn chunk_shard_is_a_round_robin_partition() {
        for shards in 1..=6usize {
            let mut counts = vec![0usize; shards];
            for chunk in 0..97 {
                let s = chunk_shard(chunk, shards);
                assert!(s < shards);
                counts[s] += 1;
            }
            // Round-robin balance: shard sizes differ by at most one chunk.
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(max - min <= 1, "{counts:?}");
        }
        // Degenerate shard counts stay total.
        assert_eq!(chunk_shard(5, 0), 0);
        assert_eq!(chunk_shard(5, 1), 0);
    }

    #[test]
    fn scan_bytes_use_accessed_columns_only() {
        let schema = Schema::new(vec![
            Attribute::new("k", AttrType::Int64),
            Attribute::new("v", AttrType::Int32),
            Attribute::new("w", AttrType::Float64),
        ])
        .unwrap();
        let plan = OlapPlan {
            predicates: vec![Predicate::between(1, 0.0, 5.0)],
            join: None,
            group_by: Some(PlanColumn::Probe(0)),
            aggregates: vec![AggExpr::SumColumns(vec![2])],
        };
        // col0 (8) + col1 (4) + col2 (8) = 20 bytes per row.
        assert_eq!(plan.probe_scan_bytes(&schema, 10), 200);
        assert_eq!(plan.build_scan_bytes(&schema, 10), 0);
    }
}
