//! Sample sets, the tally of attempted and failed operations, and the
//! result line.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Latency or rate samples of one metric.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile (`q` in `0..=1`); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process so far, in MiB (`ru_maxrss`).
pub fn peak_rss_mib() -> f64 {
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `usage` is a writable, zero-initialised buffer with the layout
    // of 64-bit Linux's `struct rusage`; `getrusage(RUSAGE_SELF = 0, ..)`
    // writes at most that struct into it and touches nothing else.
    let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
    if rc != 0 {
        return 0.0;
    }
    // SAFETY: the buffer was zero-initialised (a valid `Rusage`) and
    // `getrusage` succeeded, so every field holds an initialised integer.
    let usage = unsafe { usage.assume_init() };
    usage.maxrss_kib as f64 / 1024.0
}

/// Operations attempted and failed, with the first few failure reasons and
/// how often each kind of correctness check ran.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    reasons: Mutex<Vec<String>>,
    checks: Mutex<BTreeMap<&'static str, u64>>,
}

/// Failure reasons kept for the report (the count is always exact).
const KEPT_REASONS: usize = 20;

impl Tally {
    /// Counts one operation; `Err` carries the reason it failed.
    pub fn record(&self, outcome: Result<(), String>) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if let Err(reason) = outcome {
            self.fail(reason);
        }
    }

    fn fail(&self, reason: String) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut reasons = self.reasons.lock().expect("no thread panics while holding the reasons lock");
        if reasons.len() < KEPT_REASONS {
            reasons.push(reason);
        }
    }

    /// Counts a correctness check of `kind` that must hold: an operation
    /// that fails when it does not.
    pub fn check(&self, kind: &'static str, holds: bool, reason: impl FnOnce() -> String) {
        *self.checks.lock().expect("no thread panics while holding the checks lock").entry(kind).or_default() += 1;
        self.record(if holds { Ok(()) } else { Err(reason()) });
    }

    /// `kind=count` for every kind of check that ran.
    pub fn checks_run(&self) -> String {
        let checks = self.checks.lock().expect("no thread panics while holding the checks lock");
        checks.iter().map(|(kind, n)| format!("{kind}={n}")).collect::<Vec<_>>().join(" ")
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn reasons(&self) -> Vec<String> {
        self.reasons.lock().expect("no thread panics while holding the reasons lock").clone()
    }
}

/// The metrics of one run, in the order they were added.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("perfbench: metric {name} is not finite ({value}); reported as 0");
            0.0
        };
        self.metrics.push((name, value, unit));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self, tally: &Tally) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed() == 0,
            tally.attempted(),
            tally.failed(),
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.95), 95.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn result_line_counts_failures() {
        let tally = Tally::default();
        tally.record(Ok(()));
        tally.check("answer", false, || "wrong answer".into());
        assert_eq!(tally.checks_run(), "answer=1");
        let mut report = Report::default();
        report.add("latency_ms", 1.5, "ms");
        assert_eq!(
            report.json(&tally),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
