//! Engine set-up (timed), the simulated-clock probe, and the per-layer
//! probes of the traced run.

use crate::clients::Env;
use crate::data::{self, Call, OlapTables, Scale, Shape, SITES};
use crate::query::{self, Answer, SimCost};
use crate::stats::{Report, Samples, Tally, MIB};
use caldera::Caldera;
use h2tap_common::{H2Error, Result};
use h2tap_olap::operators::merge_partials;
use h2tap_olap::PlanDataCache;
use h2tap_workloads::tpcc::TpccTables;
use std::time::{Duration, Instant};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OlapServe,
    HtapFresh,
    OltpNeworder,
}

impl Workload {
    const ALL: [Workload; 3] = [Self::OlapServe, Self::HtapFresh, Self::OltpNeworder];

    pub fn name(self) -> &'static str {
        match self {
            Self::OlapServe => "olap-serve",
            Self::HtapFresh => "htap-fresh",
            Self::OltpNeworder => "oltp-neworder",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A started engine and its tables.
pub struct Engine {
    pub caldera: Caldera,
    pub tables: OlapTables,
    pub tpcc: Option<TpccTables>,
}

/// Simulated cost of a forced call per site and shape, keyed
/// `<site>.<shape>`, in a fixed order.
pub type SimTable = Vec<(String, SimCost)>;

/// One timed set-up and what it leaves for the measured segment.
pub struct Setup {
    pub engine: Engine,
    pub setup_secs: f64,
    pub sim: SimTable,
    pub oracle: Vec<Answer>,
}

fn build(workload: Workload, scale: &Scale, seed: u64) -> Result<Engine> {
    Ok(match workload {
        Workload::OlapServe | Workload::HtapFresh => {
            let (caldera, tables) = data::olap_engine(scale, seed)?;
            Engine { caldera, tables, tpcc: None }
        }
        Workload::OltpNeworder => {
            let (caldera, tables, tpcc) = data::tpcc_engine(scale, seed)?;
            Engine { caldera, tables, tpcc: Some(tpcc) }
        }
    })
}

/// Warm-up: one forced call per site and shape (which also records the
/// simulated costs), then one placed pass of the mix. Returns the
/// simulated costs and every answer, for checking once the oracle is known.
fn warm_up(engine: &Engine) -> Result<(SimTable, Vec<(Shape, Answer)>)> {
    let mut sim = SimTable::new();
    let mut answers = Vec::new();
    for site in SITES {
        for shape in Shape::ALL {
            let out = query::run(&engine.caldera, &engine.tables, Call { shape, forced: Some(site) })?;
            sim.push((format!("{}.{}", data::site_name(site), shape.name()), out.sim));
            answers.push((shape, out.answer));
        }
    }
    for call in data::MIX {
        answers.push((call.shape, query::run(&engine.caldera, &engine.tables, call)?.answer));
    }
    Ok((sim, answers))
}

/// Sets the engine up once: load, start and warm-up, timed together. Every
/// warm-up answer must equal the serial oracle, which is computed after the
/// timed part.
pub fn setup(workload: Workload, scale: &Scale, seed: u64, tally: &Tally) -> Result<Setup> {
    let started = Instant::now();
    let engine = build(workload, scale, seed)?;
    let (sim, answers) = warm_up(&engine)?;
    let setup_secs = started.elapsed().as_secs_f64();

    let snapshot =
        engine.caldera.current_snapshot().ok_or_else(|| H2Error::Config("no snapshot after warm-up".into()))?;
    let oracle = query::oracles(&snapshot, &engine.tables)?;
    for (shape, answer) in &answers {
        tally.check("warmup_oracle", answer == &oracle[query::shape_index(*shape)], || {
            format!("warm-up {} answer differs from the serial oracle", shape.name())
        });
    }
    Ok(Setup { engine, setup_secs, sim, oracle })
}

/// Checks that a set-up's simulated costs equal the first set-up's exactly
/// (same seed, so the simulated clock must repeat).
pub fn check_sim_repeats(first: &SimTable, sim: &SimTable, tally: &Tally) {
    tally.check("sim_repeat", sim.len() == first.len(), || "a set-up probed a different set of simulated costs".into());
    for ((key, cost), (_, first_cost)) in sim.iter().zip(first) {
        tally.check("sim_repeat", cost == first_cost, || {
            format!("simulated cost of {key} did not repeat with the same seed: {first_cost:?} then {cost:?}")
        });
    }
}

/// The simulated-clock metrics: every name contains `sim`, and the values
/// repeat exactly for a given seed.
pub fn report_sim(sim: &SimTable, report: &mut Report) {
    for (key, cost) in sim {
        report.add(format!("gpu_sim.sim_ms.{key}"), cost.sim_ms, "sim_ms");
        report.add(format!("gpu_sim.kernel_launches.{key}"), cost.kernel_launches as f64, "sim_count");
        report.add(format!("gpu_sim.interconnect_mb.{key}"), cost.interconnect_bytes as f64 / MIB, "sim_MiB");
    }
}

/// Median wall time of `reps` traced calls of `f`, each a root span
/// `probe` with one child `name` in `layer`.
fn time_reps<T>(
    env: &Env,
    reps: usize,
    name: &'static str,
    layer: &'static str,
    mut f: impl FnMut() -> T,
) -> (Duration, T) {
    let mut samples = Samples::default();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (took, out) = env.tracer.request("probe.request", |root| {
            env.tracer.call(root, name, layer, || {
                let started = Instant::now();
                let out = std::hint::black_box(f());
                (started.elapsed(), out)
            })
        });
        samples.push(took.as_secs_f64());
        last = Some(out);
    }
    (Duration::from_secs_f64(samples.median()), last.expect("at least one repetition ran"))
}

/// The per-layer probes: direct calls into the storage, plan-cache and
/// operator layers on the current snapshot, the engine call they add up
/// to, and a forced call per site.
pub fn layer_probes(env: &Env, report: &mut Report) -> Result<()> {
    let reps = env.scale.probe_reps;
    let db = env.caldera.database();
    let snapshot = env.caldera.current_snapshot().ok_or_else(|| H2Error::Config("no snapshot to probe".into()))?;
    let tables: &OlapTables = &env.tables;

    // storage: a snapshot taken and released directly, and column copies.
    let (took, released) = time_reps(env, reps, "storage.snapshot", "storage", || {
        let s = db.snapshot();
        db.release_snapshot(&s)
    });
    env.tally.record(released.map(drop).map_err(|err| format!("release_snapshot failed: {err}")));
    report.add("storage.snapshot_ms", took.as_secs_f64() * 1e3, "ms");
    let lineitem = snapshot.table(tables.lineitem)?;
    let rows = lineitem.row_count() as usize;
    let scan_plan = query::plan_of(Shape::Scan);
    let cols = scan_plan.probe_columns_accessed();
    let mut buf = vec![0u64; rows];
    let (took, _) = time_reps(env, reps, "storage.column_into", "storage", || {
        for &col in &cols {
            lineitem.column_into(col, 0..rows, &mut buf);
        }
    });
    report.add("storage.column_scan_gbps", (rows * cols.len() * 8) as f64 / took.as_secs_f64() / 1e9, "GB/s");

    // olap cache: a cold preparation on a private cache, then a warm hit.
    let (took, cold) = time_reps(env, reps, "olap.cache.prepare_plan", "olap.cache", || {
        PlanDataCache::new().prepare_plan(lineitem, None, &scan_plan)
    });
    env.tally.record(cold.map(drop).map_err(|err| format!("cold prepare_plan failed: {err}")));
    report.add("olap.cache.materialise_ms", took.as_secs_f64() * 1e3, "ms");
    let cache = PlanDataCache::new();
    let scan_data = cache.prepare_plan(lineitem, None, &scan_plan)?;
    let (took, hit) = time_reps(env, reps, "olap.cache.prepare_plan", "olap.cache", || {
        cache.prepare_plan(lineitem, None, &scan_plan)
    });
    env.tally.record(hit.map(drop).map_err(|err| format!("warm prepare_plan failed: {err}")));
    report.add("olap.cache.hit_us", took.as_secs_f64() * 1e6, "us");

    // olap operators: every chunk of the scan and of the join, and the merge.
    let (took, partials) = time_reps(env, reps, "olap.operators.process_chunk", "olap.operators", || {
        query::process_all(&scan_data, &scan_plan)
    });
    report.add("olap.operators.scan_ns_per_row", took.as_secs_f64() * 1e9 / rows as f64, "ns");
    let (took, (groups, _)) = time_reps(env, reps, "olap.operators.merge_partials", "olap.operators", || {
        merge_partials(&scan_plan, partials.clone())
    });
    report.add("olap.operators.merge_us", took.as_secs_f64() * 1e6, "us");
    let scan_index = query::shape_index(Shape::Scan);
    env.tally.check("probe_oracle", query::groups_answer(&groups) == env.oracle[scan_index], || {
        "operator replay of the scan differs from the oracle".into()
    });
    let join_plan = query::plan_of(Shape::Join);
    let join_data = cache.prepare_plan(lineitem, Some(snapshot.table(tables.part)?), &join_plan)?;
    let (took, _) = time_reps(env, reps, "olap.operators.process_chunk", "olap.operators", || {
        query::process_all(&join_data, &join_plan)
    });
    report.add("olap.operators.join_ns_per_row", took.as_secs_f64() * 1e9 / rows as f64, "ns");

    // engine: the placed scan against a replay of its cache lookup, kernels
    // and merge on the same snapshot.
    let placed = data::MIX[0];
    let (engine_took, out) =
        time_reps(env, reps, "engine.run_olap", "engine", || query::run(env.caldera, tables, placed));
    env.tally.check("probe_oracle", out.is_ok_and(|o| o.answer == env.oracle[scan_index]), || {
        "probed engine scan differs from the oracle".into()
    });
    let (replay_took, replay) = time_reps(env, reps, "olap.operators.replay", "olap.operators", || {
        let data = cache.prepare_plan(lineitem, None, &scan_plan)?;
        Ok::<_, H2Error>(merge_partials(&scan_plan, query::process_all(&data, &scan_plan)))
    });
    env.tally.check(
        "probe_oracle",
        replay.is_ok_and(|(groups, _)| query::groups_answer(&groups) == env.oracle[scan_index]),
        || "replay of the engine scan differs from the oracle".into(),
    );
    report.add("engine.overhead_ms", (engine_took.as_secs_f64() - replay_took.as_secs_f64()) * 1e3, "ms");

    // sites: a forced call of the scan per site.
    for site in SITES {
        let call = Call { shape: Shape::Scan, forced: Some(site) };
        let (took, out) = time_reps(env, reps, "engine.run_olap", "engine", || query::run(env.caldera, tables, call));
        env.tally.check(
            "probe_oracle",
            out.is_ok_and(|o| o.answer == env.oracle[scan_index] && o.site == site),
            || format!("forced scan on {site:?} failed or differs from the oracle"),
        );
        report.add(format!("olap.site.{}.host_ms", data::site_name(site)), took.as_secs_f64() * 1e3, "ms");
    }
    Ok(())
}
