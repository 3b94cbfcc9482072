//! Pins every `ScanAggQuery` entry point bit for bit: the answer, the
//! qualifying rows, the simulated time, the launched kernels, the
//! interconnect bytes and the cost breakdown of each call are compared with
//! literal values. A refactor of the execution path below the API must leave
//! every line unchanged.
//!
//! Covered: `run_olap_on` on the CPU, single-GPU and multi-GPU sites, over
//! DSM, NSM and PAX layouts, under UVA, memcpy, unified-memory (first touch
//! and warm) and device-resident GPU placements, for five query shapes (Q6,
//! a predicate-free sum, a predicate-free count, a predicate nothing
//! satisfies and a clustered predicate the CPU zonemaps skip chunks on);
//! placed `run_olap` calls; a CPU site without zonemaps; and the Figure 4
//! CPU baselines.

use caldera::{
    Caldera, CalderaConfig, CpuScanProfile, DataPlacement, OlapMultiGpuConfig, OlapOutcome, OlapTarget, SnapshotPolicy,
};
use h2tap_common::{AggExpr, Predicate, ScanAggQuery, TableId, PLAN_CHUNK_ROWS};
use h2tap_gpu_sim::{AccessMode, GpuSpec};
use h2tap_storage::Layout;
use h2tap_workloads::tpch::{self, columns};

/// Two full chunks and a partial tail: the multi-GPU mix gets an uneven
/// shard and the clustered predicate leaves whole chunks to skip.
const ROWS: u64 = 2 * PLAN_CHUNK_ROWS as u64 + 4_321;

fn queries() -> Vec<(&'static str, ScanAggQuery)> {
    vec![
        ("q6", tpch::q6()),
        ("sum", ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![columns::EXTENDEDPRICE, columns::TAX]))),
        ("count", ScanAggQuery::aggregate_only(AggExpr::Count)),
        (
            "none",
            ScanAggQuery {
                predicates: vec![Predicate::between(columns::QUANTITY, 100.0, 200.0)],
                aggregate: AggExpr::SumProduct(columns::EXTENDEDPRICE, columns::DISCOUNT),
            },
        ),
        (
            // l_orderkey is row / 4, so only the first chunk can qualify.
            "clustered",
            ScanAggQuery {
                predicates: vec![Predicate::between(columns::ORDERKEY, 0.0, 9_999.0)],
                aggregate: AggExpr::SumColumns(vec![columns::QUANTITY]),
            },
        ),
    ]
}

fn engine(layout: Layout, placement: DataPlacement, profile: CpuScanProfile) -> (Caldera, TableId) {
    let mut config = CalderaConfig::with_workers(1);
    config.snapshot_policy = SnapshotPolicy::Manual;
    config.olap_device.placement = placement;
    config.olap_multi_gpu =
        Some(OlapMultiGpuConfig::new(vec![GpuSpec::gtx_980_ti(), GpuSpec::gtx_980()]).with_placement(placement));
    config.olap_cpu.profile = profile;
    let mut builder = Caldera::builder(config);
    let table = tpch::load_lineitem(&mut builder, layout, ROWS, 7).unwrap();
    (builder.start().unwrap(), table)
}

fn line(case: &str, out: &OlapOutcome) -> String {
    let kernels: Vec<&str> = out.kernels.iter().map(|k| k.name.as_str()).collect();
    format!(
        "{case} site={:?} value={:016x} rows={} sim_ns={} kernels=[{}] icb={} bd={:016x}/{:016x}/{:016x}",
        out.site,
        out.value.to_bits(),
        out.qualifying_rows,
        out.time.as_nanos(),
        kernels.join(","),
        out.interconnect_bytes,
        out.breakdown.stream_secs.to_bits(),
        out.breakdown.compute_secs.to_bits(),
        out.breakdown.overhead_secs.to_bits(),
    )
}

fn layout_label(layout: Layout) -> &'static str {
    match layout {
        Layout::Dsm => "dsm",
        Layout::Nsm => "nsm",
        Layout::Pax { .. } => "pax",
    }
}

fn actual_lines() -> Vec<String> {
    let mut lines = Vec::new();
    let placements = [
        ("uva", DataPlacement::Host(AccessMode::Uva)),
        ("memcpy", DataPlacement::Host(AccessMode::Memcpy)),
        ("um", DataPlacement::Host(AccessMode::UnifiedMemory)),
        ("device", DataPlacement::DeviceResident),
    ];
    for layout in [Layout::Dsm, Layout::Nsm, Layout::PAPER_PAX] {
        let l = layout_label(layout);
        for (i, &(p, placement)) in placements.iter().enumerate() {
            let (caldera, table) = engine(layout, placement, CpuScanProfile::vectorized());
            for (q, query) in queries() {
                // The CPU site ignores the GPU placement: pin it once.
                if i == 0 {
                    let out = caldera.run_olap_on(table, &query, OlapTarget::Cpu).unwrap();
                    lines.push(line(&format!("{l}/cpu/{q}"), &out));
                }
                for (s, target) in [("gpu", OlapTarget::Gpu), ("multi", OlapTarget::MultiGpu)] {
                    let out = caldera.run_olap_on(table, &query, target).unwrap();
                    if placement == DataPlacement::Host(AccessMode::UnifiedMemory) {
                        lines.push(line(&format!("{l}/{s}/{p}-first/{q}"), &out));
                        let warm = caldera.run_olap_on(table, &query, target).unwrap();
                        lines.push(line(&format!("{l}/{s}/{p}-warm/{q}"), &warm));
                    } else {
                        lines.push(line(&format!("{l}/{s}/{p}/{q}"), &out));
                    }
                }
            }
            caldera.shutdown();
        }
    }

    // A CPU site without zonemaps scans every chunk of the clustered query.
    let (caldera, table) = engine(Layout::Dsm, DataPlacement::Host(AccessMode::Uva), CpuScanProfile::materializing());
    for (q, query) in queries() {
        let out = caldera.run_olap_on(table, &query, OlapTarget::Cpu).unwrap();
        lines.push(line(&format!("dsm/cpu-nozonemap/{q}"), &out));
    }
    caldera.shutdown();

    // Placed calls: the scheduler picks the site from live hints.
    for (p, placement) in [("uva", placements[0].1), ("device", placements[3].1)] {
        let (caldera, table) = engine(Layout::PAPER_PAX, placement, CpuScanProfile::vectorized());
        for (q, query) in queries() {
            let out = caldera.run_olap(table, &query).unwrap();
            lines.push(line(&format!("pax/placed/{p}/{q}"), &out));
        }
        caldera.shutdown();
    }

    for row in h2tap_bench::experiments::fig4(ROWS) {
        lines.push(format!(
            "fig4/{} seconds={:016x} revenue={:016x}",
            row.engine,
            row.seconds.to_bits(),
            row.revenue.to_bits()
        ));
    }
    lines
}

/// Captured from the execution path before the query IRs were unified.
const PINNED: &[&str] = &[
    "dsm/cpu/q6 site=Cpu value=415e2d8b2ad97ccf rows=2499 sim_ns=12926049 kernels=[] icb=0 bd=3f55ebfc138dd2e8/3f89c9991949b0ac/0000000000000000",
    "dsm/gpu/uva/q6 site=Gpu value=415e2d8b2ad97ccf rows=2499 sim_ns=456640 kernels=[select_0,select_1,select_2,aggregate] icb=4874148 bd=3f3bd446e99e69b8/3e93875788e425eb/3f00c6f7a0b5ed8d",
    "dsm/multi/uva/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=251056 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=4874148 bd=3f2cb64cb644a8b0/3e803d874174b6d8/3f00c6f7a0b5ed8d",
    "dsm/cpu/sum site=Cpu value=41fab5536590a361 rows=135393 sim_ns=12782692 kernels=[] icb=0 bd=3f490db25f7d8352/3f89c9991949b0ac/0000000000000000",
    "dsm/gpu/uva/sum site=Gpu value=41fab5536590a361 rows=135393 sim_ns=196628 kernels=[aggregate] icb=2166288 bd=3f28b94e2ea5f48b/3e779f505f35670c/3ee0c6f7a0b5ed8d",
    "dsm/multi/uva/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=105324 kernels=[aggregate.d0,aggregate.d1] icb=2166288 bd=3f19834d96a58d32/3e63dd3dc46ce81c/3ee0c6f7a0b5ed8d",
    "dsm/cpu/count site=Cpu value=4100870800000000 rows=135393 sim_ns=12591549 kernels=[] icb=0 bd=0000000000000000/3f89c9991949b0ac/0000000000000000",
    "dsm/gpu/uva/count site=Gpu value=4100870800000000 rows=135393 sim_ns=8029 kernels=[aggregate] icb=0 bd=3e5f237594c664ee/3e5f237594c664ee/3ee0c6f7a0b5ed8d",
    "dsm/multi/uva/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=8014 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3e4e1094d643f784/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "dsm/cpu/none site=Cpu value=0000000000000000 rows=0 sim_ns=11468 kernels=[] icb=0 bd=3ee80d1698775f36/0000000000000000/0000000000000000",
    "dsm/gpu/uva/none site=Gpu value=0000000000000000 rows=0 sim_ns=299017 kernels=[select_0,aggregate] icb=3249432 bd=3f328c3cc25bb840/3e877cf447651960/3ef0c6f7a0b5ed8d",
    "dsm/multi/uva/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=162011 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=3249432 bd=3f232350f090ffcb/3e73988594cc4cc2/3ef0c6f7a0b5ed8d",
    "dsm/cpu/clustered site=Cpu value=412f031a00000000 rows=40000 sim_ns=6188355 kernels=[] icb=0 bd=3f388330a38de634/3f78f6e94d586fd1/0000000000000000",
    "dsm/gpu/uva/clustered site=Gpu value=412f031a00000000 rows=40000 sim_ns=204703 kernels=[select_0,aggregate] icb=2166288 bd=3f28bbd26d64763b/3e83988594cc4cc2/3ef0c6f7a0b5ed8d",
    "dsm/multi/uva/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=113349 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=2166288 bd=3f1984fb15cf38fd/3e705fe359450486/3ef0c6f7a0b5ed8d",
    "dsm/gpu/memcpy/q6 site=Gpu value=415e2d8b2ad97ccf rows=2499 sim_ns=445649 kernels=[select_0,select_1,select_2,aggregate] icb=3791004 bd=3f3b1be0ed5162da/3e93875788e425eb/3f00c6f7a0b5ed8d",
    "dsm/multi/memcpy/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=251322 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=3791020 bd=3f2cbf39a27444dc/3e803d874174b6d8/3f00c6f7a0b5ed8d",
    "dsm/gpu/memcpy/sum site=Gpu value=41fab5536590a361 rows=135393 sim_ns=250051 kernels=[aggregate] icb=2166288 bd=3f2fb9e2420794fe/3e779f505f35670c/3ee0c6f7a0b5ed8d",
    "dsm/multi/memcpy/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=140905 kernels=[aggregate.d0,aggregate.d1] icb=2166304 bd=3f216b8d41c775a0/3e63dd3dc46ce81c/3ee0c6f7a0b5ed8d",
    "dsm/gpu/memcpy/count site=Gpu value=4100870800000000 rows=135393 sim_ns=18029 kernels=[aggregate] icb=0 bd=3ee5084743adcc23/3e5f237594c664ee/3ee0c6f7a0b5ed8d",
    "dsm/multi/memcpy/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=18014 kernels=[aggregate.d0,aggregate.d1] icb=16 bd=3ee50039ae18f9ef/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "dsm/gpu/memcpy/none site=Gpu value=0000000000000000 rows=0 sim_ns=369151 kernels=[select_0,aggregate] icb=3249432 bd=3f3724e3fedc584a/3e877cf447651960/3ef0c6f7a0b5ed8d",
    "dsm/multi/memcpy/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=205383 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=3249448 bd=3f28d2a39534c9d0/3e73988594cc4cc2/3ef0c6f7a0b5ed8d",
    "dsm/gpu/memcpy/clustered site=Gpu value=412f031a00000000 rows=40000 sim_ns=258126 kernels=[select_0,aggregate] icb=2166288 bd=3f2fbc6680c616ae/3e83988594cc4cc2/3ef0c6f7a0b5ed8d",
    "dsm/multi/memcpy/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=148930 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=2166304 bd=3f216c64015c4b85/3e705fe359450486/3ef0c6f7a0b5ed8d",
    "dsm/gpu/um-first/q6 site=Gpu value=415e2d8b2ad97ccf rows=2499 sim_ns=443111 kernels=[select_0,select_1,select_2,aggregate] icb=3932160 bd=3f3af14c4cce7e98/3e93875788e425eb/3f00c6f7a0b5ed8d",
    "dsm/gpu/um-warm/q6 site=Gpu value=415e2d8b2ad97ccf rows=2499 sim_ns=53982 kernels=[select_0,select_1,select_2,aggregate] icb=0 bd=3ef70cbf89a0dbb6/3e93875788e425eb/3f00c6f7a0b5ed8d",
    "dsm/multi/um-first/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=265759 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=3932160 bd=3f2ea3a68531cffe/3e803d874174b6d8/3f00c6f7a0b5ed8d",
    "dsm/multi/um-warm/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=42638 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=0 bd=3ee64f3b9647ef47/3e82ca5d05ea7ab2/3f00c6f7a0b5ed8d",
    "dsm/gpu/um-first/sum site=Gpu value=41fab5536590a361 rows=135393 sim_ns=126590 kernels=[aggregate] icb=1114112 bd=3f1f1670afc0777f/3e779f505f35670c/3ee0c6f7a0b5ed8d",
    "dsm/gpu/um-warm/sum site=Gpu value=41fab5536590a361 rows=135393 sim_ns=17670 kernels=[aggregate] icb=0 bd=3ee4478aae19586c/3e779f505f35670c/3ee0c6f7a0b5ed8d",
    "dsm/multi/um-first/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=73695 kernels=[aggregate.d0,aggregate.d1] icb=1114112 bd=3f1138b7818c06b4/3e63dd3dc46ce81c/3ee0c6f7a0b5ed8d",
    "dsm/multi/um-warm/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=12680 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3ed3a11c9ac0602d/3e668c6fa0b2f9a3/3ee0c6f7a0b5ed8d",
    "dsm/gpu/um-first/count site=Gpu value=4100870800000000 rows=135393 sim_ns=8029 kernels=[aggregate] icb=0 bd=3e5f237594c664ee/3e5f237594c664ee/3ee0c6f7a0b5ed8d",
    "dsm/gpu/um-warm/count site=Gpu value=4100870800000000 rows=135393 sim_ns=8029 kernels=[aggregate] icb=0 bd=3e5f237594c664ee/3e5f237594c664ee/3ee0c6f7a0b5ed8d",
    "dsm/multi/um-first/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=8014 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3e4e1094d643f784/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "dsm/multi/um-warm/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=8014 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3e4e1094d643f784/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "dsm/gpu/um-first/none site=Gpu value=0000000000000000 rows=0 sim_ns=30580 kernels=[select_0,aggregate] icb=0 bd=3eee9393f10e1fa8/3e877cf447651960/3ef0c6f7a0b5ed8d",
    "dsm/gpu/um-warm/none site=Gpu value=0000000000000000 rows=0 sim_ns=30580 kernels=[select_0,aggregate] icb=0 bd=3eee9393f10e1fa8/3e877cf447651960/3ef0c6f7a0b5ed8d",
    "dsm/multi/um-first/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=23056 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3edd985282eae7a6/3e768c6fa0b2f9a3/3ef0c6f7a0b5ed8d",
    "dsm/multi/um-warm/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=23056 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3edd985282eae7a6/3e768c6fa0b2f9a3/3ef0c6f7a0b5ed8d",
    "dsm/gpu/um-first/clustered site=Gpu value=412f031a00000000 rows=40000 sim_ns=134665 kernels=[select_0,aggregate] icb=1114112 bd=3f1f1b792d3d7ae0/3e83988594cc4cc2/3ef0c6f7a0b5ed8d",
    "dsm/gpu/um-warm/clustered site=Gpu value=412f031a00000000 rows=40000 sim_ns=25745 kernels=[select_0,aggregate] icb=0 bd=3ee46fce9a017372/3e83988594cc4cc2/3ef0c6f7a0b5ed8d",
    "dsm/multi/um-first/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=81720 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=1114112 bd=3f113a6500b5b27f/3e705fe359450486/3ef0c6f7a0b5ed8d",
    "dsm/multi/um-warm/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=20716 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3ed3c7c4358ab790/3e72ca5d05ea7ab2/3ef0c6f7a0b5ed8d",
    "dsm/gpu/device/q6 site=Gpu value=415e2d8b2ad97ccf rows=2499 sim_ns=53982 kernels=[select_0,select_1,select_2,aggregate] icb=0 bd=3ef70cbf89a0dbb6/3e93875788e425eb/3f00c6f7a0b5ed8d",
    "dsm/multi/device/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=42638 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=0 bd=3ee64f3b9647ef47/3e82ca5d05ea7ab2/3f00c6f7a0b5ed8d",
    "dsm/gpu/device/sum site=Gpu value=41fab5536590a361 rows=135393 sim_ns=17670 kernels=[aggregate] icb=0 bd=3ee4478aae19586c/3e779f505f35670c/3ee0c6f7a0b5ed8d",
    "dsm/multi/device/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=12680 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3ed3a11c9ac0602d/3e668c6fa0b2f9a3/3ee0c6f7a0b5ed8d",
    "dsm/gpu/device/count site=Gpu value=4100870800000000 rows=135393 sim_ns=8029 kernels=[aggregate] icb=0 bd=3e5f237594c664ee/3e5f237594c664ee/3ee0c6f7a0b5ed8d",
    "dsm/multi/device/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=8014 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3e4e1094d643f784/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "dsm/gpu/device/none site=Gpu value=0000000000000000 rows=0 sim_ns=30580 kernels=[select_0,aggregate] icb=0 bd=3eee9393f10e1fa8/3e877cf447651960/3ef0c6f7a0b5ed8d",
    "dsm/multi/device/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=23056 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3edd985282eae7a6/3e768c6fa0b2f9a3/3ef0c6f7a0b5ed8d",
    "dsm/gpu/device/clustered site=Gpu value=412f031a00000000 rows=40000 sim_ns=25745 kernels=[select_0,aggregate] icb=0 bd=3ee46fce9a017372/3e83988594cc4cc2/3ef0c6f7a0b5ed8d",
    "dsm/multi/device/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=20716 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3ed3c7c4358ab790/3e72ca5d05ea7ab2/3ef0c6f7a0b5ed8d",
    "nsm/cpu/q6 site=Cpu value=415e2d8b2ad97ccf rows=2499 sim_ns=12926049 kernels=[] icb=0 bd=3f55ebfc138dd2e8/3f89c9991949b0ac/0000000000000000",
    "nsm/gpu/uva/q6 site=Gpu value=415e2d8b2ad97ccf rows=2499 sim_ns=4343725 kernels=[select_0,select_1,select_2,aggregate] icb=49515155 bd=3f71a92bddd45c0d/3e93875788e425eb/3f00c6f7a0b5ed8d",
    "nsm/multi/uva/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=2256625 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=49515160 bd=3f62396073de1e2e/3e803d874174b6d8/3f00c6f7a0b5ed8d",
    "nsm/cpu/sum site=Cpu value=41fab5536590a361 rows=135393 sim_ns=12782692 kernels=[] icb=0 bd=3f490db25f7d8352/3f89c9991949b0ac/0000000000000000",
    "nsm/gpu/uva/sum site=Gpu value=41fab5536590a361 rows=135393 sim_ns=1732600 kernels=[aggregate] icb=19806062 bd=3f5c417f2650cca1/3e779f505f35670c/3ee0c6f7a0b5ed8d",
    "nsm/multi/uva/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=897820 kernels=[aggregate.d0,aggregate.d1] icb=19806064 bd=3f4d2859e6505685/3e63dd3dc46ce81c/3ee0c6f7a0b5ed8d",
    "nsm/cpu/count site=Cpu value=4100870800000000 rows=135393 sim_ns=12591549 kernels=[] icb=0 bd=0000000000000000/3f89c9991949b0ac/0000000000000000",
    "nsm/gpu/uva/count site=Gpu value=4100870800000000 rows=135393 sim_ns=8029 kernels=[aggregate] icb=0 bd=3e5f237594c664ee/3e5f237594c664ee/3ee0c6f7a0b5ed8d",
    "nsm/multi/uva/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=8014 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3e4e1094d643f784/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "nsm/cpu/none site=Cpu value=0000000000000000 rows=0 sim_ns=11468 kernels=[] icb=0 bd=3ee80d1698775f36/0000000000000000/0000000000000000",
    "nsm/gpu/uva/none site=Gpu value=0000000000000000 rows=0 sim_ns=2602975 kernels=[select_0,aggregate] icb=29709093 bd=3f653147a0a88194/3e877cf447651960/3ef0c6f7a0b5ed8d",
    "nsm/multi/uva/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=1350755 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=29709096 bd=3f55de5e44aedba0/3e73988594cc4cc2/3ef0c6f7a0b5ed8d",
    "nsm/cpu/clustered site=Cpu value=412f031a00000000 rows=40000 sim_ns=6188355 kernels=[] icb=0 bd=3f388330a38de634/3f78f6e94d586fd1/0000000000000000",
    "nsm/gpu/uva/clustered site=Gpu value=412f031a00000000 rows=40000 sim_ns=1740675 kernels=[select_0,aggregate] icb=19806062 bd=3f5c41cfae289cd7/3e83988594cc4cc2/3ef0c6f7a0b5ed8d",
    "nsm/multi/uva/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=905845 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=19806064 bd=3f4d288f96358bfe/3e705fe359450486/3ef0c6f7a0b5ed8d",
    "nsm/gpu/memcpy/q6 site=Gpu value=415e2d8b2ad97ccf rows=2499 sim_ns=1055811 kernels=[select_0,select_1,select_2,aggregate] icb=9748296 bd=3f50c62cb0c94743/3e93875788e425eb/3f00c6f7a0b5ed8d",
    "nsm/multi/memcpy/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=561648 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=9748312 bd=3f415b026b506c3b/3e803d874174b6d8/3f00c6f7a0b5ed8d",
    "nsm/gpu/memcpy/sum site=Gpu value=41fab5536590a361 rows=135393 sim_ns=1004991 kernels=[aggregate] icb=9748296 bd=3f5055aeef526ef4/3e779f505f35670c/3ee0c6f7a0b5ed8d",
    "nsm/multi/memcpy/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=528426 kernels=[aggregate.d0,aggregate.d1] icb=9748312 bd=3f410da65332cf58/3e63dd3dc46ce81c/3ee0c6f7a0b5ed8d",
    "nsm/gpu/memcpy/count site=Gpu value=4100870800000000 rows=135393 sim_ns=18029 kernels=[aggregate] icb=0 bd=3ee5084743adcc23/3e5f237594c664ee/3ee0c6f7a0b5ed8d",
    "nsm/multi/memcpy/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=18014 kernels=[aggregate.d0,aggregate.d1] icb=16 bd=3ee50039ae18f9ef/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "nsm/gpu/memcpy/none site=Gpu value=0000000000000000 rows=0 sim_ns=1023704 kernels=[select_0,aggregate] icb=9748296 bd=3f50829dee56cf09/3e877cf447651960/3ef0c6f7a0b5ed8d",
    "nsm/multi/memcpy/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=540110 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=9748312 bd=3f412c8da79de935/3e73988594cc4cc2/3ef0c6f7a0b5ed8d",
    "nsm/gpu/memcpy/clustered site=Gpu value=412f031a00000000 rows=40000 sim_ns=1013066 kernels=[select_0,aggregate] icb=9748296 bd=3f5055ff772a3f2a/3e83988594cc4cc2/3ef0c6f7a0b5ed8d",
    "nsm/multi/memcpy/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=536451 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=9748312 bd=3f410ddc031804d2/3e705fe359450486/3ef0c6f7a0b5ed8d",
    "nsm/gpu/um-first/q6 site=Gpu value=415e2d8b2ad97ccf rows=2499 sim_ns=957100 kernels=[select_0,select_1,select_2,aggregate] icb=9764864 bd=3f4e504d1f6d8390/3e93875788e425eb/3f00c6f7a0b5ed8d",
    "nsm/gpu/um-warm/q6 site=Gpu value=415e2d8b2ad97ccf rows=2499 sim_ns=80096 kernels=[select_0,select_1,select_2,aggregate] icb=0 bd=3f093755f9ff0175/3e93875788e425eb/3f00c6f7a0b5ed8d",
    "nsm/multi/um-first/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=506589 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=9764864 bd=3f3f1a483bea222e/3e803d874174b6d8/3f00c6f7a0b5ed8d",
    "nsm/multi/um-warm/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=55278 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=0 bd=3ef868a3fabdee30/3e82ca5d05ea7ab2/3f00c6f7a0b5ed8d",
    "nsm/gpu/um-first/sum site=Gpu value=41fab5536590a361 rows=135393 sim_ns=29276 kernels=[aggregate] icb=0 bd=3ef64f3b9647ef47/3e779f505f35670c/3ee0c6f7a0b5ed8d",
    "nsm/gpu/um-warm/sum site=Gpu value=41fab5536590a361 rows=135393 sim_ns=29276 kernels=[aggregate] icb=0 bd=3ef64f3b9647ef47/3e779f505f35670c/3ee0c6f7a0b5ed8d",
    "nsm/multi/um-first/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=18298 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3ee598b257c5529f/3e668c6fa0b2f9a3/3ee0c6f7a0b5ed8d",
    "nsm/multi/um-warm/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=18298 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3ee598b257c5529f/3e668c6fa0b2f9a3/3ee0c6f7a0b5ed8d",
    "nsm/gpu/um-first/count site=Gpu value=4100870800000000 rows=135393 sim_ns=8029 kernels=[aggregate] icb=0 bd=3e5f237594c664ee/3e5f237594c664ee/3ee0c6f7a0b5ed8d",
    "nsm/gpu/um-warm/count site=Gpu value=4100870800000000 rows=135393 sim_ns=8029 kernels=[aggregate] icb=0 bd=3e5f237594c664ee/3e5f237594c664ee/3ee0c6f7a0b5ed8d",
    "nsm/multi/um-first/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=8014 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3e4e1094d643f784/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "nsm/multi/um-warm/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=8014 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3e4e1094d643f784/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "nsm/gpu/um-first/none site=Gpu value=0000000000000000 rows=0 sim_ns=47989 kernels=[select_0,aggregate] icb=0 bd=3f00c57dabaffa37/3e877cf447651960/3ef0c6f7a0b5ed8d",
    "nsm/gpu/um-warm/none site=Gpu value=0000000000000000 rows=0 sim_ns=47989 kernels=[select_0,aggregate] icb=0 bd=3f00c57dabaffa37/3e877cf447651960/3ef0c6f7a0b5ed8d",
    "nsm/multi/um-first/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=31483 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3ef03c2fa88693d0/3e768c6fa0b2f9a3/3ef0c6f7a0b5ed8d",
    "nsm/multi/um-warm/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=31483 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3ef03c2fa88693d0/3e768c6fa0b2f9a3/3ef0c6f7a0b5ed8d",
    "nsm/gpu/um-first/clustered site=Gpu value=412f031a00000000 rows=40000 sim_ns=37351 kernels=[select_0,aggregate] icb=0 bd=3ef6635d8c3bfcca/3e83988594cc4cc2/3ef0c6f7a0b5ed8d",
    "nsm/gpu/um-warm/clustered site=Gpu value=412f031a00000000 rows=40000 sim_ns=37351 kernels=[select_0,aggregate] icb=0 bd=3ef6635d8c3bfcca/3e83988594cc4cc2/3ef0c6f7a0b5ed8d",
    "nsm/multi/um-first/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=26334 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3ee5ac06252a7e50/3e72ca5d05ea7ab2/3ef0c6f7a0b5ed8d",
    "nsm/multi/um-warm/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=26334 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3ee5ac06252a7e50/3e72ca5d05ea7ab2/3ef0c6f7a0b5ed8d",
    "nsm/gpu/device/q6 site=Gpu value=415e2d8b2ad97ccf rows=2499 sim_ns=80096 kernels=[select_0,select_1,select_2,aggregate] icb=0 bd=3f093755f9ff0175/3e93875788e425eb/3f00c6f7a0b5ed8d",
    "nsm/multi/device/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=55278 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=0 bd=3ef868a3fabdee30/3e82ca5d05ea7ab2/3f00c6f7a0b5ed8d",
    "nsm/gpu/device/sum site=Gpu value=41fab5536590a361 rows=135393 sim_ns=29276 kernels=[aggregate] icb=0 bd=3ef64f3b9647ef47/3e779f505f35670c/3ee0c6f7a0b5ed8d",
    "nsm/multi/device/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=18298 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3ee598b257c5529f/3e668c6fa0b2f9a3/3ee0c6f7a0b5ed8d",
    "nsm/gpu/device/count site=Gpu value=4100870800000000 rows=135393 sim_ns=8029 kernels=[aggregate] icb=0 bd=3e5f237594c664ee/3e5f237594c664ee/3ee0c6f7a0b5ed8d",
    "nsm/multi/device/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=8014 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3e4e1094d643f784/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "nsm/gpu/device/none site=Gpu value=0000000000000000 rows=0 sim_ns=47989 kernels=[select_0,aggregate] icb=0 bd=3f00c57dabaffa37/3e877cf447651960/3ef0c6f7a0b5ed8d",
    "nsm/multi/device/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=31483 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3ef03c2fa88693d0/3e768c6fa0b2f9a3/3ef0c6f7a0b5ed8d",
    "nsm/gpu/device/clustered site=Gpu value=412f031a00000000 rows=40000 sim_ns=37351 kernels=[select_0,aggregate] icb=0 bd=3ef6635d8c3bfcca/3e83988594cc4cc2/3ef0c6f7a0b5ed8d",
    "nsm/multi/device/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=26334 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3ee5ac06252a7e50/3e72ca5d05ea7ab2/3ef0c6f7a0b5ed8d",
    "pax/cpu/q6 site=Cpu value=415e2d8b2ad97ccf rows=2499 sim_ns=12926049 kernels=[] icb=0 bd=3f55ebfc138dd2e8/3f89c9991949b0ac/0000000000000000",
    "pax/gpu/uva/q6 site=Gpu value=415e2d8b2ad97ccf rows=2499 sim_ns=469377 kernels=[select_0,select_1,select_2,aggregate] icb=5020371 bd=3f3ca9f7e938c6ce/3e93875788e425eb/3f00c6f7a0b5ed8d",
    "pax/multi/uva/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=257633 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=5020366 bd=3f2d92fcb6384f96/3e803d874174b6d8/3f00c6f7a0b5ed8d",
    "pax/cpu/sum site=Cpu value=41fab5536590a361 rows=135393 sim_ns=12782692 kernels=[] icb=0 bd=3f490db25f7d8352/3f89c9991949b0ac/0000000000000000",
    "pax/gpu/uva/sum site=Gpu value=41fab5536590a361 rows=135393 sim_ns=202290 kernels=[aggregate] icb=2231276 bd=3f29774a64523a0a/3e779f505f35670c/3ee0c6f7a0b5ed8d",
    "pax/multi/uva/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=108248 kernels=[aggregate.d0,aggregate.d1] icb=2231274 bd=3f1a478786a528cd/3e63dd3dc46ce81c/3ee0c6f7a0b5ed8d",
    "pax/cpu/count site=Cpu value=4100870800000000 rows=135393 sim_ns=12591549 kernels=[] icb=0 bd=0000000000000000/3f89c9991949b0ac/0000000000000000",
    "pax/gpu/uva/count site=Gpu value=4100870800000000 rows=135393 sim_ns=8029 kernels=[aggregate] icb=0 bd=3e5f237594c664ee/3e5f237594c664ee/3ee0c6f7a0b5ed8d",
    "pax/multi/uva/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=8014 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3e4e1094d643f784/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "pax/cpu/none site=Cpu value=0000000000000000 rows=0 sim_ns=11468 kernels=[] icb=0 bd=3ee80d1698775f36/0000000000000000/0000000000000000",
    "pax/gpu/uva/none site=Gpu value=0000000000000000 rows=0 sim_ns=307510 kernels=[select_0,aggregate] icb=3346914 bd=3f331ab9ea9cec60/3e877cf447651960/3ef0c6f7a0b5ed8d",
    "pax/multi/uva/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=166397 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=3346911 bd=3f23b67c6490b47f/3e73988594cc4cc2/3ef0c6f7a0b5ed8d",
    "pax/cpu/clustered site=Cpu value=412f031a00000000 rows=40000 sim_ns=6188355 kernels=[] icb=0 bd=3f388330a38de634/3f78f6e94d586fd1/0000000000000000",
    "pax/gpu/uva/clustered site=Gpu value=412f031a00000000 rows=40000 sim_ns=210365 kernels=[select_0,aggregate] icb=2231276 bd=3f2979cea310bbba/3e83988594cc4cc2/3ef0c6f7a0b5ed8d",
    "pax/multi/uva/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=116273 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=2231274 bd=3f1a493505ced498/3e705fe359450486/3ef0c6f7a0b5ed8d",
    "pax/gpu/memcpy/q6 site=Gpu value=415e2d8b2ad97ccf rows=2499 sim_ns=446302 kernels=[select_0,select_1,select_2,aggregate] icb=3791004 bd=3f3b26d58a692d9f/3e93875788e425eb/3f00c6f7a0b5ed8d",
    "pax/multi/memcpy/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=251547 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=3791020 bd=3f2cc6c65eafc9ed/3e803d874174b6d8/3f00c6f7a0b5ed8d",
    "pax/gpu/memcpy/sum site=Gpu value=41fab5536590a361 rows=135393 sim_ns=250341 kernels=[aggregate] icb=2166288 bd=3f2fc39d56c612fd/3e779f505f35670c/3ee0c6f7a0b5ed8d",
    "pax/multi/memcpy/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=141005 kernels=[aggregate.d0,aggregate.d1] icb=2166304 bd=3f216ee8401acd36/3e63dd3dc46ce81c/3ee0c6f7a0b5ed8d",
    "pax/gpu/memcpy/count site=Gpu value=4100870800000000 rows=135393 sim_ns=18029 kernels=[aggregate] icb=0 bd=3ee5084743adcc23/3e5f237594c664ee/3ee0c6f7a0b5ed8d",
    "pax/multi/memcpy/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=18014 kernels=[aggregate.d0,aggregate.d1] icb=16 bd=3ee50039ae18f9ef/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "pax/gpu/memcpy/none site=Gpu value=0000000000000000 rows=0 sim_ns=369586 kernels=[select_0,aggregate] icb=3249432 bd=3f372c304e6b36ca/3e877cf447651960/3ef0c6f7a0b5ed8d",
    "pax/multi/memcpy/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=205533 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=3249448 bd=3f28d7ac12b1cd31/3e73988594cc4cc2/3ef0c6f7a0b5ed8d",
    "pax/gpu/memcpy/clustered site=Gpu value=412f031a00000000 rows=40000 sim_ns=258416 kernels=[select_0,aggregate] icb=2166288 bd=3f2fc621958494ae/3e83988594cc4cc2/3ef0c6f7a0b5ed8d",
    "pax/multi/memcpy/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=149030 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=2166304 bd=3f216fbeffafa31b/3e705fe359450486/3ef0c6f7a0b5ed8d",
    "pax/gpu/um-first/q6 site=Gpu value=415e2d8b2ad97ccf rows=2499 sim_ns=443764 kernels=[select_0,select_1,select_2,aggregate] icb=3932160 bd=3f3afc40e9e6495c/3e93875788e425eb/3f00c6f7a0b5ed8d",
    "pax/gpu/um-warm/q6 site=Gpu value=415e2d8b2ad97ccf rows=2499 sim_ns=54635 kernels=[select_0,select_1,select_2,aggregate] icb=0 bd=3ef7bc095b1d87fb/3e93875788e425eb/3f00c6f7a0b5ed8d",
    "pax/multi/um-first/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=265984 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=3932160 bd=3f2eab33416d5510/3e803d874174b6d8/3f00c6f7a0b5ed8d",
    "pax/multi/um-warm/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=42953 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=0 bd=3ee6f858db7d2d97/3e82ca5d05ea7ab2/3f00c6f7a0b5ed8d",
    "pax/gpu/um-first/sum site=Gpu value=41fab5536590a361 rows=135393 sim_ns=126880 kernels=[aggregate] icb=1114112 bd=3f1f29e6d93d737e/3e779f505f35670c/3ee0c6f7a0b5ed8d",
    "pax/gpu/um-warm/sum site=Gpu value=41fab5536590a361 rows=135393 sim_ns=17960 kernels=[aggregate] icb=0 bd=3ee4e33bfa013864/3e779f505f35670c/3ee0c6f7a0b5ed8d",
    "pax/multi/um-first/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=73795 kernels=[aggregate.d0,aggregate.d1] icb=1114112 bd=3f113f6d7e32b5e0/3e63dd3dc46ce81c/3ee0c6f7a0b5ed8d",
    "pax/multi/um-warm/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=12820 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3ed4376f82efb402/3e668c6fa0b2f9a3/3ee0c6f7a0b5ed8d",
    "pax/gpu/um-first/count site=Gpu value=4100870800000000 rows=135393 sim_ns=8029 kernels=[aggregate] icb=0 bd=3e5f237594c664ee/3e5f237594c664ee/3ee0c6f7a0b5ed8d",
    "pax/gpu/um-warm/count site=Gpu value=4100870800000000 rows=135393 sim_ns=8029 kernels=[aggregate] icb=0 bd=3e5f237594c664ee/3e5f237594c664ee/3ee0c6f7a0b5ed8d",
    "pax/multi/um-first/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=8014 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3e4e1094d643f784/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "pax/multi/um-warm/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=8014 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3e4e1094d643f784/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "pax/gpu/um-first/none site=Gpu value=0000000000000000 rows=0 sim_ns=31015 kernels=[select_0,aggregate] icb=0 bd=3eef7d1de2e9ef9d/3e877cf447651960/3ef0c6f7a0b5ed8d",
    "pax/gpu/um-warm/none site=Gpu value=0000000000000000 rows=0 sim_ns=31015 kernels=[select_0,aggregate] icb=0 bd=3eef7d1de2e9ef9d/3e877cf447651960/3ef0c6f7a0b5ed8d",
    "pax/multi/um-first/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=23266 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3ede79cedf31e566/3e768c6fa0b2f9a3/3ef0c6f7a0b5ed8d",
    "pax/multi/um-warm/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=23266 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3ede79cedf31e566/3e768c6fa0b2f9a3/3ef0c6f7a0b5ed8d",
    "pax/gpu/um-first/clustered site=Gpu value=412f031a00000000 rows=40000 sim_ns=134955 kernels=[select_0,aggregate] icb=1114112 bd=3f1f2eef56ba76df/3e83988594cc4cc2/3ef0c6f7a0b5ed8d",
    "pax/gpu/um-warm/clustered site=Gpu value=412f031a00000000 rows=40000 sim_ns=26035 kernels=[select_0,aggregate] icb=0 bd=3ee50b7fe5e9536b/3e83988594cc4cc2/3ef0c6f7a0b5ed8d",
    "pax/multi/um-first/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=81820 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=1114112 bd=3f11411afd5c61ab/3e705fe359450486/3ef0c6f7a0b5ed8d",
    "pax/multi/um-warm/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=20856 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3ed45e171dba0b65/3e72ca5d05ea7ab2/3ef0c6f7a0b5ed8d",
    "pax/gpu/device/q6 site=Gpu value=415e2d8b2ad97ccf rows=2499 sim_ns=54635 kernels=[select_0,select_1,select_2,aggregate] icb=0 bd=3ef7bc095b1d87fb/3e93875788e425eb/3f00c6f7a0b5ed8d",
    "pax/multi/device/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=42953 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=0 bd=3ee6f858db7d2d97/3e82ca5d05ea7ab2/3f00c6f7a0b5ed8d",
    "pax/gpu/device/sum site=Gpu value=41fab5536590a361 rows=135393 sim_ns=17960 kernels=[aggregate] icb=0 bd=3ee4e33bfa013864/3e779f505f35670c/3ee0c6f7a0b5ed8d",
    "pax/multi/device/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=12820 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3ed4376f82efb402/3e668c6fa0b2f9a3/3ee0c6f7a0b5ed8d",
    "pax/gpu/device/count site=Gpu value=4100870800000000 rows=135393 sim_ns=8029 kernels=[aggregate] icb=0 bd=3e5f237594c664ee/3e5f237594c664ee/3ee0c6f7a0b5ed8d",
    "pax/multi/device/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=8014 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3e4e1094d643f784/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "pax/gpu/device/none site=Gpu value=0000000000000000 rows=0 sim_ns=31015 kernels=[select_0,aggregate] icb=0 bd=3eef7d1de2e9ef9d/3e877cf447651960/3ef0c6f7a0b5ed8d",
    "pax/multi/device/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=23266 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3ede79cedf31e566/3e768c6fa0b2f9a3/3ef0c6f7a0b5ed8d",
    "pax/gpu/device/clustered site=Gpu value=412f031a00000000 rows=40000 sim_ns=26035 kernels=[select_0,aggregate] icb=0 bd=3ee50b7fe5e9536b/3e83988594cc4cc2/3ef0c6f7a0b5ed8d",
    "pax/multi/device/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=20856 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3ed45e171dba0b65/3e72ca5d05ea7ab2/3ef0c6f7a0b5ed8d",
    "dsm/cpu-nozonemap/q6 site=Cpu value=415e2d8b2ad97ccf rows=2499 sim_ns=16310874 kernels=[] icb=0 bd=3f55ebfc138dd2e8/3f905c1c4f5acaec/0000000000000000",
    "dsm/cpu-nozonemap/sum site=Cpu value=41fab5536590a361 rows=135393 sim_ns=16167517 kernels=[] icb=0 bd=3f490db25f7d8352/3f905c1c4f5acaec/0000000000000000",
    "dsm/cpu-nozonemap/count site=Cpu value=4100870800000000 rows=135393 sim_ns=15976374 kernels=[] icb=0 bd=0000000000000000/3f905c1c4f5acaec/0000000000000000",
    "dsm/cpu-nozonemap/none site=Cpu value=0000000000000000 rows=0 sim_ns=16263088 kernels=[] icb=0 bd=3f52ca45c79e227e/3f905c1c4f5acaec/0000000000000000",
    "dsm/cpu-nozonemap/clustered site=Cpu value=412f031a00000000 rows=40000 sim_ns=16167517 kernels=[] icb=0 bd=3f490db25f7d8352/3f905c1c4f5acaec/0000000000000000",
    "pax/placed/uva/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=257633 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=5020366 bd=3f2d92fcb6384f96/3e803d874174b6d8/3f00c6f7a0b5ed8d",
    "pax/placed/uva/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=108248 kernels=[aggregate.d0,aggregate.d1] icb=2231274 bd=3f1a478786a528cd/3e63dd3dc46ce81c/3ee0c6f7a0b5ed8d",
    "pax/placed/uva/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=8014 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3e4e1094d643f784/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "pax/placed/uva/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=166397 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=3346911 bd=3f23b67c6490b47f/3e73988594cc4cc2/3ef0c6f7a0b5ed8d",
    "pax/placed/uva/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=116273 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=2231274 bd=3f1a493505ced498/3e705fe359450486/3ef0c6f7a0b5ed8d",
    "pax/placed/device/q6 site=MultiGpu value=415e2d8b2ad97ccf rows=2499 sim_ns=42953 kernels=[select_0.d0,select_1.d0,select_2.d0,aggregate.d0,select_0.d1,select_1.d1,select_2.d1,aggregate.d1] icb=0 bd=3ee6f858db7d2d97/3e82ca5d05ea7ab2/3f00c6f7a0b5ed8d",
    "pax/placed/device/sum site=MultiGpu value=41fab5536590a361 rows=135393 sim_ns=12820 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3ed4376f82efb402/3e668c6fa0b2f9a3/3ee0c6f7a0b5ed8d",
    "pax/placed/device/count site=MultiGpu value=4100870800000000 rows=135393 sim_ns=8014 kernels=[aggregate.d0,aggregate.d1] icb=0 bd=3e4e1094d643f784/3e4e1094d643f784/3ee0c6f7a0b5ed8d",
    "pax/placed/device/none site=MultiGpu value=0000000000000000 rows=0 sim_ns=23266 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3ede79cedf31e566/3e768c6fa0b2f9a3/3ef0c6f7a0b5ed8d",
    "pax/placed/device/clustered site=MultiGpu value=412f031a00000000 rows=40000 sim_ns=20856 kernels=[select_0.d0,aggregate.d0,select_0.d1,aggregate.d1] icb=0 bd=3ed45e171dba0b65/3e72ca5d05ea7ab2/3ef0c6f7a0b5ed8d",
    "fig4/Caldera (GPU) seconds=3f3ded25ddb5276a revenue=415d87186fd4e154",
    "fig4/DBMS-C seconds=3f46450eb07a8f46 revenue=415d87186fd4e154",
    "fig4/MonetDB seconds=3f41a5fa7b05dab5 revenue=415d87186fd4e154",
];

#[test]
fn scan_entry_points_are_pinned_bit_for_bit() {
    let actual = actual_lines();
    let mismatches: Vec<String> = actual
        .iter()
        .zip(PINNED.iter())
        .filter(|(a, p)| a.as_str() != **p)
        .map(|(a, p)| format!("  pinned: {p}\n  actual: {a}"))
        .collect();
    assert!(
        mismatches.is_empty() && actual.len() == PINNED.len(),
        "{} of {} pinned lines differ ({} actual lines):\n{}\nactual values:\n{}",
        mismatches.len(),
        PINNED.len(),
        actual.len(),
        mismatches.join("\n"),
        actual.iter().map(|l| format!("    \"{l}\",")).collect::<Vec<_>>().join("\n")
    );
}
