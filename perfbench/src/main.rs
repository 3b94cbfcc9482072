//! `perfbench`: the repository's HTAP benchmark.
//!
//! ```text
//! perfbench --workload <olap-serve|htap-fresh|oltp-neworder> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```
//!
//! Sets the engine up from seeded data, drives it through its public API
//! from closed-loop clients for `--seconds`, checks every answer, and
//! prints one JSON result line last on stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (from a run wrapped in the
//! benchmark's own spans) with `--trace 1`. See README.md.

mod clients;
mod data;
mod probes;
mod query;
mod stats;
mod trace;

use caldera::HtapStats;
use clients::{Env, Measured};
use data::{Scale, SITES};
use h2tap_common::{H2Error, Result};
use probes::Workload;
use stats::{peak_rss_mib, ratio, Report, Samples, Tally, MIB};
use std::time::Duration;
use trace::Tracer;

/// The seed runs use when none is given; README.md names the held-out seed.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    scale_name: String,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale_name = "full".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("olap-serve, htap-fresh or oltp-neworder"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds =
                    value.parse().ok().filter(|s: &f64| *s > 0.0 && s.is_finite()).ok_or_else(|| bad("seconds > 0"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scale" => scale_name = value,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let scale = match scale_name.as_str() {
        "full" => Scale::full(),
        "tiny" => Scale::tiny(),
        _ => return Err(format!("bad --scale value {scale_name:?}: full or tiny")),
    };
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, scale, scale_name })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(1);
        }
    }
}

/// The measured phase of a workload.
fn measured_phase(workload: Workload, env: &Env, secs: Duration, noop: bool) -> Measured {
    match workload {
        Workload::OlapServe => clients::olap_serve(env, secs, noop),
        Workload::HtapFresh => clients::htap_fresh(env, secs, noop),
        Workload::OltpNeworder => clients::oltp_neworder(env, secs, noop),
    }
}

/// The engine's stats before and after one segment's measured phase and
/// tail probes: the window the per-layer counters are taken over.
struct StatsWindow {
    before: HtapStats,
    after: HtapStats,
}

fn run(args: &Args) -> Result<String> {
    let tally = Tally::default();
    let tracer = Tracer::new();
    let workload = args.workload;
    let scale = &args.scale;
    eprintln!("perfbench: {} seed {} scale {} trace {}", workload.name(), args.seed, args.scale_name, args.trace);

    // The run is split into segments, each on a freshly set-up engine, and
    // every end-to-end figure is the median of its per-segment values, so
    // neither one engine instance (thread placement, memory layout) nor one
    // segment the machine disturbed decides it. The traced run alternates
    // untraced and traced segments; their throughput ratio is the tracing
    // overhead.
    let segments = scale.segments.max(1);
    let segment_secs = Duration::from_secs_f64(args.seconds / segments as f64);
    let mut report = Report::default();
    let mut setup_s = Samples::default();
    let mut first_sim: Option<probes::SimTable> = None;
    let (mut main, mut fresh, mut txn_probe) = (Measured::default(), Measured::default(), Measured::default());
    let (mut untraced_rate, mut traced_rate) = (Samples::default(), Samples::default());
    let mut windows: Vec<StatsWindow> = Vec::new();
    let mut first_segment_rss = 0.0;
    let mut per_segment_metrics: Vec<Vec<(&str, f64, &str)>> = Vec::new();
    for segment in 0..segments {
        let setup = probes::setup(workload, scale, args.seed, &tally)?;
        setup_s.push(setup.setup_secs);
        match &first_sim {
            None => first_sim = Some(setup.sim.clone()),
            Some(first) => probes::check_sim_repeats(first, &setup.sim, &tally),
        }
        let engine = &setup.engine;
        let env = Env {
            caldera: &engine.caldera,
            tables: engine.tables,
            tpcc: engine.tpcc,
            scale: args.scale,
            seed: args.seed,
            tracer: &tracer,
            tally: &tally,
            oracle: setup.oracle.clone(),
        };
        let traced = args.trace && segment % 2 == 1;
        if args.trace && segment == 0 {
            tracer.set_enabled(true);
            probes::layer_probes(&env, &mut report)?;
            tracer.set_enabled(false);
        }

        let quantity_before = quantity_sum(&env)?;
        let before = env.caldera.stats();
        tracer.set_enabled(traced);
        let m = measured_phase(workload, &env, segment_secs, traced);
        let rate = ratio(m.ops as f64, m.secs);
        if traced { &mut traced_rate } else { &mut untraced_rate }.push(rate);
        eprintln!(
            "perfbench: segment {segment}: set-up {:.3} s, {:.1} ops/s, olap p50 {:.3} ms ({} calls), txn p50 {:.1} us ({} txns), peak RSS {:.1} MiB",
            setup.setup_secs,
            rate,
            m.olap_ms.median(),
            m.olap_calls,
            m.txn_us.median(),
            m.txns,
            peak_rss_mib()
        );

        // Tail probes for the end-to-end metrics the workload's own mix
        // does not produce. The freshness probe runs first: the OLTP probe
        // writes.
        let per_segment = |n: usize| n.div_ceil(segments);
        let fresh_segment = match workload {
            Workload::OlapServe => clients::fresh_probe(&env, per_segment(scale.fresh_probe_rounds), 1),
            Workload::HtapFresh => Measured::default(),
            Workload::OltpNeworder => {
                clients::fresh_probe(&env, per_segment(scale.fresh_probe_rounds), scale.fresh_probe_queries)
            }
        };
        let probe = if workload == Workload::OlapServe {
            clients::txn_probe(&env, per_segment(scale.txn_probe_txns))
        } else {
            Measured::default()
        };
        tracer.set_enabled(false);
        let after = env.caldera.stats();

        // The segment's correctness checks.
        match env.tpcc {
            None => {
                let writes = if workload == Workload::OlapServe { probe.txns } else { m.txns };
                env.caldera.refresh_snapshot()?;
                let quantity_after = quantity_sum(&env)?;
                let ops_per_txn = clients::ycsb(&env).config().ops_per_txn as f64;
                tally.check("ycsb_sum", quantity_after == quantity_before + ops_per_txn * writes as f64, || {
                    format!("sum of l_quantity went from {quantity_before} to {quantity_after} over {writes} committed YCSB transactions")
                });
            }
            Some(tpcc) => {
                let db = env.caldera.database();
                let (orders, new_orders) = (db.row_count(tpcc.orders)?, db.row_count(tpcc.new_order)?);
                tally.check("tpcc_rows", orders == m.txns && new_orders == m.txns, || {
                    format!(
                        "{orders} orders and {new_orders} new orders after {} committed NewOrder transactions",
                        m.txns
                    )
                });
            }
        }
        let (olap, txn, freshness) = sources(workload, &m, &probe, &fresh_segment);
        per_segment_metrics.push(end_to_end(olap, txn, freshness));
        main.absorb(m);
        txn_probe.absorb(probe);
        fresh.absorb(fresh_segment);
        windows.push(StatsWindow { before, after });
        drop(env);
        setup.engine.caldera.shutdown();
        if segment == 0 {
            // Later segments' peaks include memory the allocator kept from
            // earlier engines, so the first segment's peak is the figure.
            first_segment_rss = peak_rss_mib();
        }
    }

    let (olap, txn, freshness) = sources(workload, &main, &txn_probe, &fresh);
    if args.trace {
        let overhead_pct = 100.0 * (ratio(untraced_rate.median(), traced_rate.median()) - 1.0);
        report_layers(&mut report, &windows, txn.txns, freshness, &main, overhead_pct);
        probes::report_sim(first_sim.as_ref().expect("at least one segment ran"), &mut report);
        tracer.report(&mut report);
        let path = std::path::PathBuf::from(format!(".bench_out/trace-{}-seed{}.jsonl", workload.name(), args.seed));
        tracer.write(&path).map_err(|err| H2Error::Config(format!("writing {}: {err}", path.display())))?;
        eprintln!("perfbench: spans written to {}", path.display());
    } else {
        report.add("setup_s", setup_s.median(), "s");
        for (i, &(name, _, unit)) in per_segment_metrics[0].iter().enumerate() {
            let mut values = Samples::default();
            for metrics in &per_segment_metrics {
                values.push(metrics[i].1);
            }
            report.add(name, values.median(), unit);
        }
        report.add("peak_rss_mb", first_segment_rss, "MiB");
    }
    eprintln!(
        "perfbench: samples olap {} txn {} refresh {} staleness {}; segments {segments}",
        olap.olap_ms.len(),
        txn.txn_us.len(),
        freshness.refresh_ms.len(),
        freshness.staleness_ms.len(),
    );
    eprintln!("perfbench: checks {}", tally.checks_run());
    for reason in tally.reasons() {
        eprintln!("perfbench: FAILED {reason}");
    }
    Ok(report.json(&tally))
}

/// Which phase produces the analytic, transactional and freshness metrics
/// of a workload: its measured phase, or a tail probe.
fn sources<'a>(
    workload: Workload,
    main: &'a Measured,
    txn_probe: &'a Measured,
    fresh: &'a Measured,
) -> (&'a Measured, &'a Measured, &'a Measured) {
    match workload {
        Workload::OlapServe => (main, txn_probe, fresh),
        Workload::HtapFresh => (main, main, main),
        Workload::OltpNeworder => (fresh, main, fresh),
    }
}

/// The end-to-end metrics of one segment, except `setup_s` and
/// `peak_rss_mb`.
fn end_to_end(olap: &Measured, txn: &Measured, freshness: &Measured) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("olap_p50_ms", olap.olap_ms.median(), "ms"),
        ("olap_p95_ms", olap.olap_ms.quantile(0.95), "ms"),
        ("olap_qps", ratio(olap.olap_calls as f64, olap.olap_secs), "1/s"),
        ("oltp_tps", ratio(txn.txns as f64, txn.txn_secs), "1/s"),
        ("txn_p50_us", txn.txn_us.median(), "us"),
        ("txn_p95_us", txn.txn_us.quantile(0.95), "us"),
        ("refresh_p50_ms", freshness.refresh_ms.median(), "ms"),
        ("staleness_p50_ms", freshness.staleness_ms.median(), "ms"),
    ]
}

fn quantity_sum(env: &Env) -> Result<f64> {
    let snapshot = env.caldera.current_snapshot().ok_or_else(|| H2Error::Config("no current snapshot".into()))?;
    clients::quantity_sum(&snapshot, &env.tables)
}

/// The per-layer counters of the measured part of the run (measured phase
/// plus tail probes), from the engine's stats before and after it.
fn report_layers(
    report: &mut Report,
    windows: &[StatsWindow],
    txns: u64,
    freshness: &Measured,
    main: &Measured,
    overhead_pct: f64,
) {
    // Counter deltas summed over the segments; gauges and running estimates
    // from the last segment.
    let delta = |f: &dyn Fn(&HtapStats) -> f64| windows.iter().map(|w| f(&w.after) - f(&w.before)).sum::<f64>();
    let d = |f: fn(&HtapStats) -> u64| delta(&|s| f(s) as f64);
    let last = &windows.last().expect("at least one segment ran").after;
    let txns = txns as f64;

    let queued = |s: &HtapStats| s.olap_sites.iter().map(|site| site.admission.queued).sum::<u64>();
    report.add("engine.admission_queued", d(queued), "count");
    report.add("engine.refresh_ms", freshness.refresh_ms.median(), "ms");

    let (col_hits, col_misses) = (d(|s| s.plan_cache.column_hits), d(|s| s.plan_cache.column_misses));
    let (hash_hits, hash_misses) = (d(|s| s.plan_cache.hash_hits), d(|s| s.plan_cache.hash_misses));
    report.add("olap.cache.column_hit_ratio", ratio(col_hits, col_hits + col_misses), "ratio");
    report.add("olap.cache.hash_hit_ratio", ratio(hash_hits, hash_hits + hash_misses), "ratio");
    report.add("olap.cache.shared_scan_attaches", d(|s| s.plan_cache.shared_scan_attaches), "count");
    report.add("olap.cache.invalidations", d(|s| s.plan_cache.invalidations), "count");
    report.add("olap.cache.occupancy_mb", last.plan_cache.occupancy_bytes as f64 / MIB, "MiB");

    for site in SITES {
        let name = data::site_name(site);
        report.add(format!("olap.site.{name}.queries"), delta(&|s| s.olap_queries_on(site) as f64), "count");
        report.add(
            format!("scheduler.prediction_error.{name}"),
            last.prediction_error_on(site).unwrap_or(0.0),
            "ratio",
        );
    }
    let regret = delta(&|s| s.calibration.regret.total_regret_secs);
    report.add("scheduler.regret_sim_ms", 1e3 * ratio(regret, d(|s| s.calibration.regret.decisions)), "sim_ms");

    report.add("storage.cow_pages_per_txn", ratio(d(|s| s.cow.pages_copied), txns), "count");
    report.add("storage.cow_mb", d(|s| s.cow.bytes_copied) / MIB, "MiB");

    report.add("oltp.dispatch_us", main.noop_us.median(), "us");
    report.add("oltp.retries_per_txn", ratio(d(|s| s.oltp.retries), txns), "count");
    let (committed, aborted) = (d(|s| s.oltp.committed), d(|s| s.oltp.aborted));
    report.add("oltp.abort_ratio", ratio(aborted, committed + aborted), "ratio");
    report.add("oltp.writebacks_per_txn", ratio(d(|s| s.oltp.writebacks), txns), "count");

    report.add("mpmsg.messages_per_txn", ratio(d(|s| s.oltp.messages), txns), "count");
    let remote = d(|s| s.oltp.remote_requests);
    report.add("mpmsg.remote_requests_per_txn", ratio(remote, txns), "count");
    report.add("mpmsg.remote_denied_ratio", ratio(d(|s| s.oltp.remote_denied), remote), "ratio");

    report.add("obs.trace_overhead_pct", overhead_pct, "%");
}
