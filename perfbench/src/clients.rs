//! The closed-loop clients of the measured phases and the serial tail
//! probes. A client sends its next call only after the previous one
//! returned; every call is timed on the host wall clock, traced when
//! tracing is on, and its outcome counted in the tally.

use crate::data::{self, salt, Call, OlapTables, Scale, MIX, WORKERS};
use crate::query::{self, Answer};
use crate::stats::{Samples, Tally};
use crate::trace::Tracer;
use caldera::{Caldera, TxnProc};
use h2tap_common::rng::SplitMixRng;
use h2tap_common::{AttrType, PartitionId, Result};
use h2tap_oltp::TxnGenerator;
use h2tap_storage::{decode_cell_f64, Snapshot};
use h2tap_workloads::tpcc::{NewOrderGenerator, TpccConfig, TpccTables};
use h2tap_workloads::tpch::columns;
use h2tap_workloads::ycsb::{YcsbConfig, YcsbGenerator};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Analytic calls that share one snapshot on `htap-fresh` (three passes of
/// the mix); the OLAP client refreshes before every such group.
pub const QUERIES_PER_SNAPSHOT: usize = 12;

/// Upper end of the random pause between two transactions of the serial
/// OLTP probe. A worker with no work sleeps up to 200 µs before it looks at
/// its job queue; a random pause spreads the probe over that sleep's phase
/// instead of locking onto one point of it.
const TXN_PROBE_MAX_PAUSE_US: u64 = 250;

/// Pace of the no-op transactions that measure OLTP dispatch in the traced
/// run.
const NOOP_INTERVAL: Duration = Duration::from_millis(5);

/// What a run shares with its clients.
pub struct Env<'a> {
    pub caldera: &'a Caldera,
    pub tables: OlapTables,
    pub tpcc: Option<TpccTables>,
    pub scale: Scale,
    pub seed: u64,
    pub tracer: &'a Tracer,
    pub tally: &'a Tally,
    /// Serial-oracle answers of every shape on the frozen analytic tables.
    pub oracle: Vec<Answer>,
}

/// End-to-end samples of one phase.
#[derive(Debug, Default)]
pub struct Measured {
    pub olap_ms: Samples,
    pub olap_calls: u64,
    /// Seconds the analytic calls were measured over (phase wall time for
    /// concurrent clients, summed call time for serial probes).
    pub olap_secs: f64,
    pub txn_us: Samples,
    /// Committed workload transactions (no-op dispatch probes excluded).
    pub txns: u64,
    pub txn_secs: f64,
    pub refresh_ms: Samples,
    pub staleness_ms: Samples,
    /// Round trips of the no-op dispatch probe.
    pub noop_us: Samples,
    /// Operations completed per second of phase time, all kinds together.
    pub ops: u64,
    pub secs: f64,
}

impl Measured {
    pub fn absorb(&mut self, other: Measured) {
        self.olap_ms.extend(&other.olap_ms);
        self.olap_calls += other.olap_calls;
        self.olap_secs += other.olap_secs;
        self.txn_us.extend(&other.txn_us);
        self.txns += other.txns;
        self.txn_secs += other.txn_secs;
        self.refresh_ms.extend(&other.refresh_ms);
        self.staleness_ms.extend(&other.staleness_ms);
        self.noop_us.extend(&other.noop_us);
        self.ops += other.ops;
        self.secs += other.secs;
    }

    /// Merges a concurrent client's samples (same phase, so the phase time
    /// is not added again).
    fn merge_client(&mut self, other: Measured) {
        let secs = self.secs;
        self.absorb(other);
        self.secs = secs;
    }
}

/// A phase deadline that the pausing client pushes back by the time it
/// held the other clients, so every phase measures its full length.
struct Deadline {
    origin: Instant,
    after_ns: u64,
    held_ns: AtomicU64,
}

impl Deadline {
    fn new(after: Duration) -> Self {
        Self { origin: Instant::now(), after_ns: after.as_nanos() as u64, held_ns: AtomicU64::new(0) }
    }

    fn passed(&self) -> bool {
        self.origin.elapsed().as_nanos() as u64 >= self.after_ns + self.held_ns.load(Ordering::Relaxed)
    }

    fn extend(&self, by: Duration) {
        self.held_ns.fetch_add(by.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Seconds since the phase started, minus the time clients were held.
    fn measured_secs(&self) -> f64 {
        self.origin.elapsed().saturating_sub(Duration::from_nanos(self.held_ns.load(Ordering::Relaxed))).as_secs_f64()
    }
}

/// Lets one client stop every other client of a phase while it computes a
/// reference answer outside the timed intervals.
struct Pause {
    state: Mutex<PauseState>,
    changed: Condvar,
}

struct PauseState {
    requested: bool,
    active: usize,
    parked: usize,
}

impl Pause {
    fn new(participants: usize) -> Self {
        Self {
            state: Mutex::new(PauseState { requested: false, active: participants, parked: 0 }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PauseState> {
        self.state.lock().expect("no client panics while holding the pause lock")
    }

    /// Called by a participant between operations: parks while a pause is held.
    fn checkpoint(&self) {
        let mut state = self.lock();
        if !state.requested {
            return;
        }
        state.parked += 1;
        self.changed.notify_all();
        while state.requested {
            state = self.changed.wait(state).expect("no client panics while holding the pause lock");
        }
        state.parked -= 1;
    }

    /// Called by a participant when it stops for good.
    fn leave(&self) {
        self.lock().active -= 1;
        self.changed.notify_all();
    }

    /// Parks every participant, runs `f`, resumes them; returns `f`'s
    /// result and how long the others were held.
    fn hold<T>(&self, f: impl FnOnce() -> T) -> (T, Duration) {
        let started = Instant::now();
        let mut state = self.lock();
        state.requested = true;
        while state.parked < state.active {
            state = self.changed.wait(state).expect("no client panics while holding the pause lock");
        }
        drop(state);
        let out = f();
        self.lock().requested = false;
        self.changed.notify_all();
        (out, started.elapsed())
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs one analytic call, checks its answer against `expected`, and
/// returns the call's wall time and its answer (when it produced one).
fn olap_call(env: &Env, call: Call, check: &'static str, expected: &Answer) -> (Duration, Option<Answer>) {
    env.tracer.request("olap.request", |root| {
        let started = Instant::now();
        let out = env.tracer.call(root, "engine.run_olap", "engine", || query::run(env.caldera, &env.tables, call));
        let took = started.elapsed();
        env.tracer.call(root, "check.answer", "check", || {
            let what = || format!("{} (forced {:?})", call.shape.name(), call.forced);
            match out {
                Ok(out) => {
                    env.tally.check(check, &out.answer == expected, || {
                        format!("{} answer differs from its {check} reference", what())
                    });
                    (took, Some(out.answer))
                }
                Err(err) => {
                    env.tally.record(Err(format!("{} failed: {err}", what())));
                    (took, None)
                }
            }
        })
    })
}

/// Runs one transaction drawn from `generator` on `home`.
fn txn_call(
    env: &Env,
    generator: &dyn TxnGenerator,
    home: PartitionId,
    seq: u64,
    rng: &mut SplitMixRng,
) -> (Duration, bool) {
    env.tracer.request("txn.request", |root| {
        let proc = env.tracer.call(root, "workloads.next_txn", "workloads", || generator.next_txn(home, seq, rng));
        let started = Instant::now();
        let out = env.tracer.call(root, "oltp.execute_txn_on", "oltp", || env.caldera.execute_txn_on(home, proc));
        let took = started.elapsed();
        let ok = out.is_ok();
        env.tally.record(out.map_err(|err| format!("transaction on {home} aborted: {err}")));
        (took, ok)
    })
}

fn refresh_call(env: &Env) -> Duration {
    env.tracer.request("refresh.request", |root| {
        let started = Instant::now();
        let out = env.tracer.call(root, "engine.refresh_snapshot", "engine", || env.caldera.refresh_snapshot());
        let took = started.elapsed();
        env.tally.record(out.map_err(|err| format!("refresh_snapshot failed: {err}")));
        took
    })
}

/// The YCSB generator over the large lineitem table.
pub fn ycsb(env: &Env) -> YcsbGenerator {
    let rows = env.caldera.database().row_count(env.tables.lineitem).unwrap_or(0);
    YcsbGenerator::new(YcsbConfig {
        working_set_pct: env.scale.ycsb_working_set_pct,
        ..YcsbConfig::paper_default(env.tables.lineitem, rows, WORKERS as u64)
    })
}

fn client_rng(env: &Env, client: usize) -> SplitMixRng {
    SplitMixRng::new(data::derive(env.seed, salt::CLIENT + client as u64))
}

/// Sends no-op transactions at a low rate until the deadline: the round
/// trip of `execute_txn_on` with no work inside.
fn noop_client(env: &Env, deadline: &Deadline, pause: Option<&Pause>) -> Measured {
    let mut m = Measured::default();
    let noop: TxnProc = Arc::new(|_ctx| Ok(()));
    let mut next = Instant::now();
    let mut seq = 0u32;
    while !deadline.passed() {
        if let Some(pause) = pause {
            pause.checkpoint();
        }
        let home = PartitionId(seq % WORKERS as u32);
        seq += 1;
        let took = env.tracer.request("noop.request", |root| {
            let started = Instant::now();
            let out = env
                .tracer
                .call(root, "oltp.execute_txn_on", "oltp", || env.caldera.execute_txn_on(home, Arc::clone(&noop)));
            let took = started.elapsed();
            env.tally.record(out.map_err(|err| format!("no-op transaction on {home} failed: {err}")));
            took
        });
        m.noop_us.push(us(took));
        next += NOOP_INTERVAL;
        if let Some(wait) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    if let Some(pause) = pause {
        pause.leave();
    }
    m
}

/// A client body of a measured phase.
type Client<'a> = Box<dyn FnOnce() -> Measured + Send + 'a>;

/// Runs `clients` on their own threads until `deadline`, plus the no-op
/// dispatch probe when `noop` is set, and merges their samples over the
/// phase's measured time.
fn run_phase(env: &Env, deadline: &Deadline, noop: bool, pause: Option<&Pause>, clients: Vec<Client<'_>>) -> Measured {
    let parts: Vec<Measured> = std::thread::scope(|scope| {
        let noop_handle = noop.then(|| scope.spawn(|| noop_client(env, deadline, pause)));
        let handles: Vec<_> = clients.into_iter().map(|client| scope.spawn(client)).collect();
        let mut out: Vec<Measured> = handles.into_iter().map(|h| h.join().expect("client panicked")).collect();
        out.extend(noop_handle.map(|h| h.join().expect("no-op client panicked")));
        out
    });
    let mut total = Measured { secs: deadline.measured_secs(), ..Measured::default() };
    for m in parts {
        total.merge_client(m);
    }
    total
}

/// `olap-serve`: two analytic clients send calls of the mix against the
/// frozen snapshot; every answer must equal the serial oracle bit for bit.
pub fn olap_serve(env: &Env, secs: Duration, noop: bool) -> Measured {
    let deadline = Deadline::new(secs);
    let clients: Vec<Client> = (0..WORKERS)
        .map(|client| {
            let deadline = &deadline;
            Box::new(move || {
                let mut m = Measured::default();
                // Each call is drawn from the mix at random: a fixed cycle
                // lets the two clients lock into one pattern of collisions
                // at the sites' admission gates for a whole run.
                let mut rng = client_rng(env, client);
                while !deadline.passed() {
                    let call = MIX[rng.next_below(MIX.len() as u64) as usize];
                    let (took, _) = olap_call(env, call, "frozen_oracle", &env.oracle[query::shape_index(call.shape)]);
                    m.olap_ms.push(ms(took));
                    m.olap_calls += 1;
                }
                m
            }) as Client
        })
        .collect();
    let mut total = run_phase(env, &deadline, noop, None, clients);
    total.olap_secs = total.secs;
    total.ops = total.olap_calls;
    total
}

/// `htap-fresh`: one OLTP client sends YCSB updates while one analytic
/// client cycles the mix and refreshes the snapshot every
/// [`QUERIES_PER_SNAPSHOT`] calls. Within a snapshot every answer must equal
/// that snapshot's first; the first must equal the serial oracle on the
/// snapshot, computed while every other client is parked. The time they
/// are parked is not measured time.
pub fn htap_fresh(env: &Env, secs: Duration, noop: bool) -> Measured {
    let deadline = Deadline::new(secs);
    let pause = Pause::new(1 + usize::from(noop));
    let generator = ycsb(env);
    let (deadline_ref, pause_ref, generator) = (&deadline, &pause, &generator);
    let oltp: Client = Box::new(move || {
        let mut m = Measured::default();
        let mut rng = client_rng(env, 0);
        let mut seq = 0u64;
        while !deadline_ref.passed() {
            pause_ref.checkpoint();
            let home = data::home_of(seq as usize);
            let (took, ok) = txn_call(env, generator, home, seq, &mut rng);
            seq += 1;
            m.txn_us.push(us(took));
            m.txns += u64::from(ok);
        }
        pause_ref.leave();
        m
    });
    let olap: Client = Box::new(move || {
        let mut m = Measured::default();
        let mut refresh_started = Instant::now();
        let mut held = Duration::ZERO;
        let mut reference: Vec<Answer> = Vec::new();
        let mut firsts: Vec<Option<Answer>> = Vec::new();
        let mut i = 0usize;
        while !deadline_ref.passed() {
            if i.is_multiple_of(QUERIES_PER_SNAPSHOT) {
                refresh_started = Instant::now();
                m.refresh_ms.push(ms(refresh_call(env)));
                let (refs, took) = pause_ref
                    .hold(|| env.caldera.current_snapshot().map(|snapshot| query::oracles(&snapshot, &env.tables)));
                deadline_ref.extend(took);
                held = took;
                reference = match refs {
                    Some(Ok(refs)) => refs,
                    Some(Err(err)) => {
                        env.tally.record(Err(format!("serial oracle failed: {err}")));
                        Vec::new()
                    }
                    None => {
                        env.tally.record(Err("no snapshot after refresh_snapshot".into()));
                        Vec::new()
                    }
                };
                firsts = vec![None; reference.len()];
            }
            let call = MIX[i % MIX.len()];
            i += 1;
            let k = query::shape_index(call.shape);
            let (check, expected) = match firsts.get(k).and_then(Option::as_ref) {
                Some(first) => ("same_snapshot", first.clone()),
                None => ("snapshot_oracle", reference.get(k).cloned().unwrap_or_default()),
            };
            let (took, answer) = olap_call(env, call, check, &expected);
            m.olap_ms.push(ms(took));
            m.staleness_ms.push(ms(refresh_started.elapsed().saturating_sub(held)));
            m.olap_calls += 1;
            if let Some(slot) = firsts.get_mut(k) {
                if slot.is_none() {
                    *slot = answer;
                }
            }
        }
        m
    });
    let mut total = run_phase(env, &deadline, noop, Some(&pause), vec![oltp, olap]);
    total.olap_secs = total.secs;
    total.txn_secs = total.secs;
    total.ops = total.olap_calls + total.txn_us.len() as u64;
    total
}

/// `oltp-neworder`: one client per warehouse sends TPC-C NewOrder to its
/// home worker.
pub fn oltp_neworder(env: &Env, secs: Duration, noop: bool) -> Measured {
    let tpcc = env.tpcc.expect("oltp-neworder runs on the TPC-C engine");
    let generator = NewOrderGenerator::new(tpcc, TpccConfig::default(), WORKERS);
    let deadline = Deadline::new(secs);
    let clients: Vec<Client> = (0..WORKERS)
        .map(|client| {
            let (deadline, generator) = (&deadline, &generator);
            Box::new(move || {
                let mut m = Measured::default();
                let mut rng = client_rng(env, client);
                let home = data::home_of(client);
                let mut seq = 0u64;
                while !deadline.passed() {
                    let (took, ok) = txn_call(env, generator, home, seq, &mut rng);
                    seq += 1;
                    m.txn_us.push(us(took));
                    m.txns += u64::from(ok);
                }
                m
            }) as Client
        })
        .collect();
    let mut total = run_phase(env, &deadline, noop, None, clients);
    total.txn_secs = total.secs;
    total.ops = total.txn_us.len() as u64;
    total
}

/// Serial freshness probe on static analytic data: `rounds` times, refresh
/// the snapshot and run `queries` calls of the mix, each checked against
/// the oracle. Staleness is measured from the start of the refresh.
pub fn fresh_probe(env: &Env, rounds: usize, queries: usize) -> Measured {
    let mut m = Measured::default();
    let mut i = 0usize;
    for _ in 0..rounds {
        let refresh_started = Instant::now();
        m.refresh_ms.push(ms(refresh_call(env)));
        for _ in 0..queries {
            let call = MIX[i % MIX.len()];
            i += 1;
            let (took, _) = olap_call(env, call, "frozen_oracle", &env.oracle[query::shape_index(call.shape)]);
            m.staleness_ms.push(ms(refresh_started.elapsed()));
            m.olap_ms.push(ms(took));
            m.olap_calls += 1;
            m.olap_secs += took.as_secs_f64();
        }
    }
    m
}

/// Serial OLTP probe: `txns` YCSB transactions from one client, with a
/// random pause before each; throughput counts the transactions' own time.
pub fn txn_probe(env: &Env, txns: usize) -> Measured {
    let generator = ycsb(env);
    let mut rng = client_rng(env, WORKERS);
    let mut m = Measured::default();
    for seq in 0..txns as u64 {
        std::thread::sleep(Duration::from_micros(rng.next_below(TXN_PROBE_MAX_PAUSE_US)));
        let (took, ok) = txn_call(env, &generator, data::home_of(seq as usize), seq, &mut rng);
        m.txn_us.push(us(took));
        m.txns += u64::from(ok);
        m.txn_secs += took.as_secs_f64();
    }
    m
}

/// Σ l_quantity over the large lineitem table of `snapshot` (exact: every
/// quantity is a small integer).
pub fn quantity_sum(snapshot: &Snapshot, tables: &OlapTables) -> Result<f64> {
    let table = snapshot.table(tables.lineitem)?;
    Ok(table.iter_attr(columns::QUANTITY).map(|cell| decode_cell_f64(AttrType::Float64, cell)).sum())
}
