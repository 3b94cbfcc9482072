//! The vectorized host data path and the snapshot-keyed plan-data cache:
//! property tests pinning the explicit-SIMD batch execution bit-identical
//! to both the retained scalar batch path and the row-at-a-time reference
//! across layouts, chunk- and lane-boundary row counts and adversarial
//! values (NaN-bit group keys, negative zero), plus cache semantics through
//! the production engine (epoch invalidation, hit/miss accounting,
//! cross-site sharing).

use caldera::{Caldera, CalderaConfig, OlapMultiGpuConfig, OlapTarget, SnapshotPolicy};
use h2tap_common::rng::SplitMixRng;
use h2tap_common::{
    AggExpr, AttrType, Attribute, JoinSpec, OlapPlan, PartitionId, PlanColumn, Predicate, ScanAggQuery, Schema, Value,
    PLAN_CHUNK_ROWS,
};
use h2tap_olap::operators as ops;
use h2tap_olap::PlanDataCache;
use h2tap_storage::{Database, Layout, SnapshotTable};
use std::sync::Arc;

/// A 4-column table (Int64 key, Int64 fk, Float64 val, Int32 bucket) with
/// `rows` rows of seeded pseudo-random data. A slice of the Float64 column
/// is salted with a quiet NaN and negative zeros: their raw bit patterns
/// must flow through predicates, aggregates and group keys without
/// perturbing cross-path bit-equality.
///
/// Deliberately a *single* NaN payload: summing one quiet NaN payload is
/// bit-deterministic, but when *two different* NaN payloads meet in one
/// `+`, IEEE 754 leaves the result payload unspecified and compilers may
/// commute the operands — so multi-payload NaN *aggregation* is outside
/// every bit-identity contract. Multi-payload NaNs as *group keys* (raw
/// bits, no arithmetic) are covered by
/// [`nan_bit_patterns_are_distinct_group_keys`].
fn random_table(layout: Layout, rows: u64, seed: u64) -> SnapshotTable {
    let db = Database::new(2);
    let schema = Schema::new(vec![
        Attribute::new("k", AttrType::Int64),
        Attribute::new("fk", AttrType::Int64),
        Attribute::new("val", AttrType::Float64),
        Attribute::new("bucket", AttrType::Int32),
    ])
    .unwrap();
    let t = db.create_table("t", schema, layout).unwrap();
    let mut rng = SplitMixRng::new(seed);
    for i in 0..rows {
        let val = match rng.next_below(16) {
            0 | 1 => f64::from_bits(0x7ff8_0000_0000_0001), // quiet NaN, one payload
            2 => -0.0,
            _ => (rng.next_f64() - 0.5) * 2e6,
        };
        db.insert(
            PartitionId((i % 2) as u32),
            t,
            &[
                Value::Int64(i as i64),
                Value::Int64(rng.next_below(97) as i64),
                Value::Float64(val),
                Value::Int32(rng.next_below(13) as i32),
            ],
        )
        .unwrap();
    }
    db.snapshot().table(t).unwrap().clone()
}

/// Row counts covering the chunk- and lane-boundary cases: empty, one row,
/// SIMD-lane edges (below/at/above the 4- and 8-lane widths), batch-edge
/// sizes, one chunk exactly, an exact multiple of chunks, and a multiple
/// plus a partial tail.
fn boundary_row_counts() -> Vec<u64> {
    vec![
        0,
        1,
        5,
        8,
        9,
        17,
        1023,
        1024,
        1025,
        1031,
        PLAN_CHUNK_ROWS as u64,
        2 * PLAN_CHUNK_ROWS as u64,
        2 * PLAN_CHUNK_ROWS as u64 + 17,
    ]
}

/// The zonemap-stats answer must agree with the O(chunk) recompute, and a
/// skipped chunk must truly have an empty partial.
fn assert_zonemap_skips_are_safe(mat: &ops::MaterializedColumns, plan: &OlapPlan, label: &str) {
    for i in 0..mat.chunk_count() {
        let range = mat.chunk_range(i);
        let can = ops::chunk_can_qualify(mat, &plan.predicates, i);
        assert_eq!(can, ops::chunk_can_qualify_reference(mat, &plan.predicates, range.clone()), "{label} chunk {i}");
        if !can {
            let partial = ops::process_chunk(mat, plan, None, range);
            assert_eq!(partial, ops::ChunkPartial::default(), "{label} chunk {i}: skipped chunk must be empty");
        }
    }
}

fn assert_plan_bit_identical(
    mat: &ops::MaterializedColumns,
    plan: &OlapPlan,
    hash: Option<&ops::JoinHashTable>,
    label: &str,
) {
    let fast: Vec<_> =
        (0..mat.chunk_count()).map(|i| ops::process_chunk(mat, plan, hash, mat.chunk_range(i))).collect();
    let scalar: Vec<_> =
        (0..mat.chunk_count()).map(|i| ops::process_chunk_scalar(mat, plan, hash, mat.chunk_range(i))).collect();
    let slow: Vec<_> =
        (0..mat.chunk_count()).map(|i| ops::process_chunk_reference(mat, plan, hash, mat.chunk_range(i))).collect();
    for (pair, other) in [("simd vs reference", &slow), ("simd vs scalar batch", &scalar)] {
        for (i, (f, s)) in fast.iter().zip(other).enumerate() {
            assert_eq!(f.selected, s.selected, "{label} chunk {i} ({pair})");
            assert_eq!(f.joined, s.joined, "{label} chunk {i} ({pair})");
            assert_eq!(f.groups.len(), s.groups.len(), "{label} chunk {i} ({pair})");
            for ((fk, fa), (sk, sa)) in f.groups.iter().zip(&s.groups) {
                assert_eq!(fk, sk, "{label} chunk {i} ({pair}): group keys");
                assert_eq!(fa.rows, sa.rows, "{label} chunk {i} ({pair}) group {fk:#x}");
                for (x, y) in fa.values.iter().zip(&sa.values) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{label} chunk {i} ({pair}) group {fk:#x}: {x} vs {y}");
                }
            }
        }
    }
    // The merged plan answers are then trivially bit-identical too. (Bit
    // comparison, not `==`: a bit-identical NaN aggregate still fails f64
    // `PartialEq`.)
    let (fg, ft) = ops::merge_partials(plan, fast);
    let (sg, st) = ops::merge_partials(plan, slow);
    assert_eq!(fg.len(), sg.len(), "{label}: merged groups");
    for (f, s) in fg.iter().zip(&sg) {
        assert_eq!((f.key, f.rows), (s.key, s.rows), "{label}");
        for (x, y) in f.values.iter().zip(&s.values) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label} group {:#x}: {x} vs {y}", f.key);
        }
    }
    assert_eq!(ft.joined, st.joined, "{label}");
}

/// Vectorized scan-shaped plans are bit-identical to the row-at-a-time
/// reference for random queries over random tables in every layout, at
/// every chunk-boundary row count.
#[test]
fn property_vectorized_scans_match_the_reference_bitwise() {
    let mut rng = SplitMixRng::new(0x5CA1);
    for (case, &rows) in boundary_row_counts().iter().enumerate() {
        let layout = [Layout::Dsm, Layout::Nsm, Layout::PAPER_PAX][case % 3];
        let table = random_table(layout, rows, 0xBA5E + case as u64);
        for q in 0..6 {
            let mut predicates = Vec::new();
            for col in [0usize, 1, 2, 3] {
                if rng.next_below(2) == 0 {
                    let lo = (rng.next_f64() - 0.5) * 1e6;
                    predicates.push(Predicate::between(col, lo, lo + rng.next_f64() * 1e6));
                }
            }
            let aggregate = match rng.next_below(3) {
                0 => AggExpr::SumProduct(2, 1),
                1 => AggExpr::SumColumns(vec![0, 2, 3]),
                _ => AggExpr::Count,
            };
            let plan = OlapPlan::scan(&ScanAggQuery { predicates, aggregate });
            let mat = ops::MaterializedColumns::new(&table, plan.probe_columns_accessed()).unwrap();
            let label = format!("{layout:?}/{rows} rows/query {q}");
            assert_plan_bit_identical(&mat, &plan, None, &label);
            assert_zonemap_skips_are_safe(&mat, &plan, &label);
        }
    }
}

/// Vectorized plan execution (filter → PK join → group-by) is bit-identical
/// to the reference, including NaN-bit group keys: grouping by the salted
/// Float64 column groups by *raw bit pattern*, so the two NaN payloads and
/// the negative zero land in distinct groups — identically on both paths.
#[test]
fn property_vectorized_plans_match_the_reference_bitwise() {
    // Build table: key = 0..97 (covers every fk), size = key % 8,
    // class = key % 5.
    let db = Database::new(1);
    let schema = Schema::new(vec![
        Attribute::new("key", AttrType::Int64),
        Attribute::new("size", AttrType::Int32),
        Attribute::new("class", AttrType::Int32),
    ])
    .unwrap();
    let b = db.create_table("dim", schema, Layout::Dsm).unwrap();
    for i in 0..97i64 {
        db.insert(PartitionId(0), b, &[Value::Int64(i), Value::Int32((i % 8) as i32), Value::Int32((i % 5) as i32)])
            .unwrap();
    }
    let build = db.snapshot().table(b).unwrap().clone();
    let join = JoinSpec { probe_column: 1, build_key: 0, build_predicates: vec![Predicate::between(1, 0.0, 5.0)] };
    for (case, &rows) in boundary_row_counts().iter().enumerate() {
        if rows == 0 {
            continue; // plans reject empty probe tables on every path
        }
        let layout = [Layout::PAPER_PAX, Layout::Dsm, Layout::Nsm][case % 3];
        let probe = random_table(layout, rows, 0xF00D + case as u64);
        let plans = [
            // Grouped by the NaN-salted Float64 probe column.
            OlapPlan {
                predicates: vec![Predicate::between(0, 0.0, 1e9)],
                join: None,
                group_by: Some(PlanColumn::Probe(2)),
                aggregates: vec![AggExpr::SumColumns(vec![0]), AggExpr::Count],
            },
            // Join + build-side grouping.
            OlapPlan {
                predicates: vec![],
                join: Some(join.clone()),
                group_by: Some(PlanColumn::Build(2)),
                aggregates: vec![AggExpr::SumProduct(2, 0), AggExpr::Count],
            },
            // Join, globally aggregated (NaN values flow through the sum).
            OlapPlan {
                predicates: vec![Predicate::between(3, 0.0, 6.0)],
                join: Some(join.clone()),
                group_by: None,
                aggregates: vec![AggExpr::SumColumns(vec![2])],
            },
        ];
        for (p, plan) in plans.iter().enumerate() {
            let has_build = plan.join.is_some();
            let hash = has_build.then(|| {
                let group_col = ops::check_plan(plan, true).unwrap();
                ops::build_hash_table(&build, plan.join.as_ref().unwrap(), group_col).unwrap()
            });
            let mat = ops::MaterializedColumns::new(&probe, plan.probe_columns_accessed()).unwrap();
            assert_plan_bit_identical(&mat, plan, hash.as_ref(), &format!("{layout:?}/{rows} rows/plan {p}"));
        }
    }
}

/// NaN-bit group keys occupy distinct groups by payload, and both NaN
/// payloads plus -0.0 and +0.0 are distinguishable raw-bit groups.
#[test]
fn nan_bit_patterns_are_distinct_group_keys() {
    let db = Database::new(1);
    let schema =
        Schema::new(vec![Attribute::new("g", AttrType::Float64), Attribute::new("v", AttrType::Int64)]).unwrap();
    let t = db.create_table("t", schema, Layout::Dsm).unwrap();
    let keys = [f64::from_bits(0x7ff8_0000_0000_0001), f64::from_bits(0xfff8_0000_0000_0002), 0.0, -0.0, 1.5];
    for (i, &g) in keys.iter().cycle().take(50).enumerate() {
        db.insert(PartitionId(0), t, &[Value::Float64(g), Value::Int64(i as i64)]).unwrap();
    }
    let table = db.snapshot().table(t).unwrap().clone();
    let plan = OlapPlan {
        predicates: vec![],
        join: None,
        group_by: Some(PlanColumn::Probe(0)),
        aggregates: vec![AggExpr::SumColumns(vec![1]), AggExpr::Count],
    };
    let mat = ops::MaterializedColumns::new(&table, plan.probe_columns_accessed()).unwrap();
    let fast = ops::process_chunk(&mat, &plan, None, mat.chunk_range(0));
    let slow = ops::process_chunk_reference(&mat, &plan, None, mat.chunk_range(0));
    assert_eq!(fast, slow);
    assert_eq!(fast.groups.len(), 5, "two NaN payloads, +0.0, -0.0 and 1.5 are five raw-bit groups");
    assert_eq!(fast.groups.values().map(|g| g.rows).sum::<u64>(), 50);
}

/// All three execution sites stay byte-identical through the production
/// dispatch path with vectorization *and* the shared plan-data cache
/// enabled — including on NaN-salted data. The repeated queries are served
/// from the cache (hits recorded in `HtapStats`), and the answers do not
/// drift from the first, uncached dispatch.
#[test]
fn three_sites_stay_byte_identical_with_caching_enabled() {
    let mut config = CalderaConfig::with_workers(2);
    config.olap_cpu_cores = 4;
    config.olap_multi_gpu = Some(OlapMultiGpuConfig::new(h2tap_gpu_sim::table1_mix(3)));
    config.snapshot_policy = SnapshotPolicy::Manual;
    let mut builder = Caldera::builder(config);
    let schema = Schema::new(vec![
        Attribute::new("k", AttrType::Int64),
        Attribute::new("fk", AttrType::Int64),
        Attribute::new("val", AttrType::Float64),
    ])
    .unwrap();
    let t = builder.create_table("fact", schema, Layout::Dsm).unwrap();
    let mut rng = SplitMixRng::new(42);
    for i in 0..150_000i64 {
        let val = if rng.next_below(20) == 0 { -0.0 } else { rng.next_f64() * 1e3 };
        builder.load(t, i, &[Value::Int64(i), Value::Int64(i % 40), Value::Float64(val)]).unwrap();
    }
    let dim = builder.create_table("dim", Schema::homogeneous("d", 2, AttrType::Int64), Layout::Dsm).unwrap();
    for i in 0..40i64 {
        builder.load(dim, i, &[Value::Int64(i), Value::Int64(i % 4)]).unwrap();
    }
    let caldera = builder.start().unwrap();
    // The scan touches {0, 1, 2}, the plan {1, 2}: two distinct
    // derivations, so the hit/miss accounting below is exact.
    let query =
        ScanAggQuery { predicates: vec![Predicate::between(0, 0.0, 120_000.0)], aggregate: AggExpr::SumProduct(1, 2) };
    let plan = OlapPlan {
        predicates: vec![],
        join: Some(JoinSpec { probe_column: 1, build_key: 0, build_predicates: vec![] }),
        group_by: Some(PlanColumn::Build(1)),
        aggregates: vec![AggExpr::SumColumns(vec![2]), AggExpr::Count],
    };
    let sites = [OlapTarget::Gpu, OlapTarget::Cpu, OlapTarget::MultiGpu];
    let scan_answers: Vec<u64> =
        sites.iter().map(|&s| caldera.run_olap_on(t, &query, s).unwrap().value.to_bits()).collect();
    assert!(scan_answers.windows(2).all(|w| w[0] == w[1]), "{scan_answers:?}");
    let plan_answers: Vec<_> =
        sites.iter().map(|&s| caldera.run_olap_plan_on(t, Some(dim), &plan, s).unwrap().groups).collect();
    assert!(plan_answers.windows(2).all(|w| w[0] == w[1]));
    let stats = caldera.shutdown();
    // 6 dispatches, 2 distinct derivations (scan columns; probe columns +
    // hash table): everything after the first dispatch of each shape hit.
    assert_eq!(stats.plan_cache.column_misses, 2);
    assert_eq!(stats.plan_cache.hash_misses, 1);
    assert!(stats.plan_cache.hits() >= 6, "repeat dispatches must hit: {:?}", stats.plan_cache);
}

/// A cached derivation from one snapshot epoch is never served to a later
/// one: an OLTP update plus a per-query snapshot policy must be visible to
/// every following query, with the cache invalidated on each refresh.
#[test]
fn per_query_snapshots_never_see_stale_cached_data() {
    let mut config = CalderaConfig::with_workers(2);
    config.snapshot_policy = SnapshotPolicy::PerQuery;
    let mut builder = Caldera::builder(config);
    let t = builder.create_table("acct", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
    for i in 0..5_000i64 {
        builder.load(t, i, &[Value::Int64(i), Value::Int64(1)]).unwrap();
    }
    let caldera = builder.start().unwrap();
    let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
    let mut expected = 5_000.0;
    for step in 0..5 {
        let out = caldera.run_olap(t, &q).unwrap();
        assert_eq!(out.value, expected, "step {step}: a stale cached column must never be served");
        caldera
            .execute_txn(Arc::new(move |ctx| {
                let mut rec = ctx.read_for_update(t, step)?;
                rec[1] = Value::Int64(rec[1].as_i64().unwrap() + 10);
                ctx.update(t, step, rec)
            }))
            .unwrap();
        expected += 10.0;
    }
    let stats = caldera.shutdown();
    // Per-query snapshots: every query re-derives (no hits), and each
    // refresh invalidated the previous derivation.
    assert_eq!(stats.plan_cache.column_hits, 0);
    assert_eq!(stats.plan_cache.column_misses, 5);
    assert!(stats.plan_cache.invalidations >= 4);
}

/// Standalone-cache semantics: shared prepared plan data is the same
/// instance across sites' requests, and epoch keys keep generations apart.
#[test]
fn plan_data_cache_shares_instances_until_the_epoch_moves() {
    let db = Database::new(1);
    let t = db.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
    for i in 0..2_000i64 {
        db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int64(i)]).unwrap();
    }
    let s1 = db.snapshot();
    let cache = PlanDataCache::new();
    let a = cache.materialized(s1.table(t).unwrap(), vec![0, 1]).unwrap();
    let b = cache.materialized(s1.table(t).unwrap(), vec![0, 1]).unwrap();
    assert!(Arc::ptr_eq(&a, &b));
    let s2 = db.snapshot();
    let c = cache.materialized(s2.table(t).unwrap(), vec![0, 1]).unwrap();
    assert!(!Arc::ptr_eq(&a, &c), "a new epoch is a new derivation");
    let stats = cache.stats();
    assert_eq!((stats.column_hits, stats.column_misses), (1, 2));
    assert_eq!(stats.invalidations, 1, "the superseded epoch was evicted");
}
