//! Property-style tests over the core data structures and invariants.
//!
//! The registry `proptest` crate is unavailable in the offline build
//! environment, so these properties are exercised with the workspace's own
//! deterministic PRNG ([`h2tap_common::rng::SplitMixRng`]): each test draws
//! many random cases from fixed seeds, which keeps failures reproducible
//! while still sweeping a wide input space.

use h2tap_common::rng::SplitMixRng;
use h2tap_common::{
    chunk_shard, AggExpr, AttrType, Epoch, OlapPlan, PartitionId, ScanAggQuery, Schema, TableId, Value,
};
use h2tap_gpu_sim::{coalescing_efficiency, AccessPattern};
use h2tap_olap::operators::{merge_partials, ChunkPartial, GroupAcc};
use h2tap_olap::{shard_chunk_indexes, shard_rows};
use h2tap_oltp::{LockMode, LockTable, TxnToken};
use h2tap_storage::{decode_record, encode_record, Database, Layout};

const CASES: usize = 64;

fn rand_i64(rng: &mut SplitMixRng) -> i64 {
    rng.next_u64() as i64
}

fn rand_i32(rng: &mut SplitMixRng) -> i32 {
    rng.next_u64() as i32
}

fn rand_f64(rng: &mut SplitMixRng) -> f64 {
    (rng.next_f64() - 0.5) * 2e12
}

/// Encoding a record to cells and back is lossless for every fixed-width
/// type (strings are hashed by design, so they are excluded here).
#[test]
fn record_codec_roundtrips() {
    let mut rng = SplitMixRng::new(0xC0DEC);
    for _ in 0..CASES {
        let ints = 1 + rng.next_below(5) as usize;
        let floats = 1 + rng.next_below(5) as usize;
        let mut attrs = Vec::new();
        let mut values = Vec::new();
        for i in 0..ints {
            attrs.push(h2tap_common::Attribute::new(format!("i{i}"), AttrType::Int64));
            values.push(Value::Int64(rand_i64(&mut rng)));
        }
        for i in 0..floats {
            attrs.push(h2tap_common::Attribute::new(format!("f{i}"), AttrType::Float64));
            values.push(Value::Float64(rand_f64(&mut rng)));
        }
        let schema = Schema::new(attrs).unwrap();
        let cells = encode_record(&schema, &values).unwrap();
        let back = decode_record(&schema, &cells).unwrap();
        assert_eq!(back, values);
    }
}

/// Coalescing efficiency is always in (0, 1] and never improves when the
/// stride grows.
#[test]
fn coalescing_efficiency_is_bounded_and_monotone() {
    let mut rng = SplitMixRng::new(0xC0A1);
    for _ in 0..CASES * 4 {
        let elem = 1 + rng.next_below(63) as u32;
        let stride_a = 1 + rng.next_below(4095) as u32;
        let stride_b = 1 + rng.next_below(4095) as u32;
        let txn = [32u64, 128, 512][rng.next_below(3) as usize];
        let (small, large) = if stride_a <= stride_b { (stride_a, stride_b) } else { (stride_b, stride_a) };
        let e_small =
            coalescing_efficiency(AccessPattern::Strided { stride_bytes: small.max(elem), elem_bytes: elem }, txn);
        let e_large =
            coalescing_efficiency(AccessPattern::Strided { stride_bytes: large.max(elem), elem_bytes: elem }, txn);
        assert!(e_small > 0.0 && e_small <= 1.0);
        assert!(e_large > 0.0 && e_large <= 1.0);
        assert!(e_large <= e_small + 1e-9, "stride {small}->{large}: {e_small} -> {e_large}");
    }
}

/// Snapshot isolation: whatever sequence of updates runs after a snapshot
/// is taken, the snapshot always reads the values that were current when
/// it was taken, and the live database reads the latest committed values.
#[test]
fn snapshots_are_immutable_under_arbitrary_updates() {
    let mut rng = SplitMixRng::new(0x5AF5);
    for case in 0..CASES {
        let layout = [Layout::Nsm, Layout::Dsm, Layout::PAPER_PAX][case % 3];
        let initial: Vec<i32> = (0..1 + rng.next_below(39)).map(|_| rand_i32(&mut rng)).collect();
        let db = Database::new(1);
        let table = db.create_table("t", Schema::homogeneous("c", 1, AttrType::Int32), layout).unwrap();
        let mut rids = Vec::new();
        for v in &initial {
            rids.push(db.insert(PartitionId(0), table, &[Value::Int32(*v)]).unwrap());
        }
        let snapshot = db.snapshot();
        let mut expected_live: Vec<i32> = initial.clone();
        for _ in 0..rng.next_below(60) {
            let idx = rng.next_below(rids.len() as u64) as usize;
            let v = rand_i32(&mut rng);
            db.update(rids[idx], &[Value::Int32(v)]).unwrap();
            expected_live[idx] = v;
        }
        // Snapshot still sees the initial values.
        let frozen: Vec<i32> = snapshot.table(table).unwrap().column(0).iter().map(|c| *c as u32 as i32).collect();
        assert_eq!(frozen, initial);
        // Live database sees the updated values.
        for (rid, expected) in rids.iter().zip(expected_live.iter()) {
            assert_eq!(db.read(*rid).unwrap()[0], Value::Int32(*expected));
        }
        // Releasing the snapshot reports at most one superseded page per live page.
        let report = db.release_snapshot(&snapshot).unwrap();
        assert!(report.pages_reclaimed as usize <= rids.len());
    }
}

/// The lock table never grants incompatible locks and always frees
/// records after release_all, whatever the interleaving.
#[test]
fn lock_table_compatibility_invariants() {
    let mut rng = SplitMixRng::new(0x10CC);
    for _ in 0..CASES {
        let mut table = LockTable::new();
        // holders[record] = (exclusive_owner, shared_holders)
        let mut model: std::collections::HashMap<u64, (Option<u32>, std::collections::HashSet<u32>)> =
            std::collections::HashMap::new();
        for _ in 0..1 + rng.next_below(199) {
            let txn_id = rng.next_below(4) as u32;
            let record = rng.next_below(8);
            let exclusive = rng.next_below(2) == 1;
            let token = TxnToken::new(txn_id, 0);
            let rid = h2tap_common::RecordId::new(PartitionId(0), TableId(0), record);
            let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
            let granted = table.acquire(rid, mode, token);
            let entry = model.entry(record).or_default();
            let compatible = match (entry.0, exclusive) {
                (Some(owner), _) => owner == txn_id,
                (None, true) => entry.1.is_empty() || (entry.1.len() == 1 && entry.1.contains(&txn_id)),
                (None, false) => true,
            };
            assert_eq!(granted, compatible, "record {record} txn {txn_id} exclusive {exclusive}");
            if granted {
                if exclusive {
                    entry.0 = Some(txn_id);
                    entry.1.clear();
                } else if entry.0.is_none() {
                    entry.1.insert(txn_id);
                }
            }
        }
        // Releasing everything from every transaction empties the table.
        for txn_id in 0..4 {
            table.release_all(TxnToken::new(txn_id, 0));
        }
        assert!(table.is_empty());
    }
}

/// Values survive a write/read round trip through a multi-partition
/// database regardless of which partition they land on.
#[test]
fn database_read_back_matches_inserted_values() {
    let mut rng = SplitMixRng::new(0xDBDB);
    for _ in 0..CASES {
        let partitions = 1 + rng.next_below(4) as usize;
        let rows: Vec<(i64, f64)> =
            (0..1 + rng.next_below(49)).map(|_| (rand_i64(&mut rng), rng.next_f64() * 2e9 - 1e9)).collect();
        let db = Database::new(partitions);
        let schema = Schema::new(vec![
            h2tap_common::Attribute::new("k", AttrType::Int64),
            h2tap_common::Attribute::new("v", AttrType::Float64),
        ])
        .unwrap();
        let table = db.create_table("t", schema, Layout::Dsm).unwrap();
        let mut rids = Vec::new();
        for (i, (k, v)) in rows.iter().enumerate() {
            let p = PartitionId((i % partitions) as u32);
            rids.push((db.insert(p, table, &[Value::Int64(*k), Value::Float64(*v)]).unwrap(), *k, *v));
        }
        for (rid, k, v) in rids {
            let rec = db.read(rid).unwrap();
            assert_eq!(rec[0], Value::Int64(k));
            assert_eq!(rec[1], Value::Float64(v));
        }
        assert_eq!(db.row_count(table).unwrap(), rows.len() as u64);
        assert_eq!(db.live_epoch(), Epoch(0));
    }
}

/// The multi-GPU chunk shard is a partition for every chunk count and shard
/// count: each chunk is assigned exactly once, shards are pairwise disjoint,
/// their union covers the table, and the assignment agrees with the
/// canonical [`chunk_shard`] contract. Row totals are conserved too.
#[test]
fn shard_assignment_is_a_partition() {
    let mut rng = SplitMixRng::new(0x5AD5);
    for _ in 0..CASES * 2 {
        let chunk_count = rng.next_below(500) as usize;
        let devices = 1 + rng.next_below(5) as usize;
        let shards = shard_chunk_indexes(chunk_count, devices);
        assert_eq!(shards.len(), devices);
        let mut seen = vec![false; chunk_count];
        for (d, shard) in shards.iter().enumerate() {
            for &chunk in shard {
                assert!(chunk < chunk_count, "assigned chunk out of range");
                assert!(!seen[chunk], "chunk {chunk} assigned to more than one shard");
                seen[chunk] = true;
                assert_eq!(chunk_shard(chunk, devices), d, "assignment must follow the canonical contract");
            }
        }
        assert!(seen.iter().all(|&s| s), "every chunk must be assigned: union covers the table");
        // Round-robin balance: shard sizes differ by at most one chunk.
        let sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "{sizes:?}");
        // Sharded row counts conserve the table's rows.
        let rows = rng.next_below(2_000_000);
        let per = shard_rows(rows, devices);
        assert_eq!(per.iter().sum::<u64>(), rows, "sharding must conserve rows");
    }
}

/// The merged scan answer is invariant under device completion order:
/// however the shards finish, partials are reassembled into ascending chunk
/// order before merging, so the f64 result is bit-equal to a sequential
/// evaluation. This is the property that makes the multi-GPU site's answers
/// byte-identical to the single-threaded ones.
#[test]
fn merge_order_is_invariant_under_device_completion_order() {
    let mut rng = SplitMixRng::new(0x33E6);
    for _ in 0..CASES {
        let chunk_count = 1 + rng.next_below(64) as usize;
        let devices = 1 + rng.next_below(5) as usize;
        let plan = OlapPlan::scan(&ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0])));
        let partials: Vec<ChunkPartial> = (0..chunk_count)
            .map(|_| {
                let rows = 1 + rng.next_below(1 << 16);
                let acc = GroupAcc { values: vec![rand_f64(&mut rng)], rows };
                ChunkPartial { groups: [(0, acc)].into(), selected: rows, joined: rows }
            })
            .collect();
        let merged_bits = |partials: Vec<ChunkPartial>| {
            let (groups, totals) = merge_partials(&plan, partials);
            (groups[0].values[0].to_bits(), totals.joined)
        };
        let sequential = merged_bits(partials.clone());

        // Simulate devices completing in a random order: each shard finishes
        // as a unit, its chunk partials land in a slot table, and the merge
        // walks the slots in ascending chunk order.
        let shards = shard_chunk_indexes(chunk_count, devices);
        let mut completion: Vec<usize> = (0..devices).collect();
        // Fisher-Yates with the deterministic rng.
        for i in (1..completion.len()).rev() {
            let j = rng.next_below((i + 1) as u64) as usize;
            completion.swap(i, j);
        }
        let mut slots: Vec<Option<ChunkPartial>> = vec![None; chunk_count];
        for &device in &completion {
            for &chunk in &shards[device] {
                slots[chunk] = Some(partials[chunk].clone());
            }
        }
        let reassembled = slots.into_iter().map(|p| p.expect("partition covers every chunk")).collect();
        assert_eq!(merged_bits(reassembled), sequential, "completion order {completion:?} changed bits");
    }
}

/// Arbitrary values encode to cells without panicking and numeric types
/// round-trip their numeric interpretation.
#[test]
fn value_cells_preserve_numeric_interpretation() {
    let mut rng = SplitMixRng::new(0xCE11);
    for _ in 0..CASES * 4 {
        let ty = [AttrType::Int32, AttrType::Int64, AttrType::Float64, AttrType::Date][rng.next_below(4) as usize];
        let seed = rand_i64(&mut rng);
        let value = match ty {
            AttrType::Int32 => Value::Int32(seed as i32),
            AttrType::Int64 => Value::Int64(seed),
            AttrType::Date => Value::Date(seed as i32),
            _ => Value::Float64(seed as f64 / 1e3),
        };
        let cell = h2tap_storage::encode_value(&value);
        let decoded = h2tap_storage::decode_cell(ty, cell);
        assert_eq!(decoded.as_f64(), value.as_f64());
    }
}
