//! The benchmark's own spans: one root per client request or probe step,
//! with a child around every call the benchmark makes into a layer's public
//! functions. Spans stay in memory and are written out when the run ends.
//! The engine's internal tracing stays off.

use crate::stats::{ratio, Report};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Layer names of child spans, in reporting order. The root's own time
/// (request bookkeeping between layer calls) is reported as the gap.
pub const LAYERS: [&str; 7] = ["engine", "oltp", "workloads", "check", "storage", "olap.cache", "olap.operators"];

/// The span a child is recorded under.
#[derive(Debug, Clone, Copy)]
pub struct Parent {
    id: u64,
    request: u64,
}

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans while enabled; when disabled every call costs one relaxed
/// load.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::default(),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<Parent>,
        f: impl FnOnce(Option<Parent>) -> T,
    ) -> T {
        if !self.enabled.load(Ordering::Relaxed) {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let request = parent.map_or(id, |p| p.request);
        let start_ns = self.now_ns();
        let out = f(Some(Parent { id, request }));
        let end_ns = self.now_ns();
        let span = Span { id, parent: parent.map(|p| p.id), request, name, layer, start_ns, end_ns };
        self.spans.lock().expect("no thread panics while holding the span lock").push(span);
        out
    }

    /// A root span: one client request or probe step, with a fresh request id.
    pub fn request<T>(&self, name: &'static str, f: impl FnOnce(Option<Parent>) -> T) -> T {
        self.record(name, "bench", None, f)
    }

    /// A child span around one call into `layer`. Without a parent (tracing
    /// off, or the root was recorded while off) nothing is recorded.
    pub fn call<T>(&self, parent: Option<Parent>, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        match parent {
            Some(parent) => self.record(name, layer, Some(parent), |_| f()),
            None => f(),
        }
    }

    /// Adds each layer's share of root time (`trace.self_pct.<layer>`), the
    /// root time no layer span covers (`trace.gap_pct`) and the span count.
    pub fn report(&self, report: &mut Report) {
        let spans = self.spans.lock().expect("no thread panics while holding the span lock");
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                *covered.entry(parent).or_default() += span.end_ns - span.start_ns;
            }
        }
        let self_ns =
            |span: &Span| (span.end_ns - span.start_ns).saturating_sub(covered.get(&span.id).copied().unwrap_or(0));
        let mut by_layer: HashMap<&str, u64> = HashMap::new();
        let mut root_ns = 0u64;
        for span in spans.iter() {
            *by_layer.entry(span.layer).or_default() += self_ns(span);
            if span.parent.is_none() {
                root_ns += span.end_ns - span.start_ns;
            }
        }
        let pct = |ns: u64| 100.0 * ratio(ns as f64, root_ns as f64);
        for layer in LAYERS {
            report.add(format!("trace.self_pct.{layer}"), pct(by_layer.get(layer).copied().unwrap_or(0)), "%");
        }
        report.add("trace.gap_pct", pct(by_layer.get("bench").copied().unwrap_or(0)), "%");
        report.add("trace.spans", spans.len() as f64, "count");
    }

    /// Writes every span as one JSON object per line (times in ns since the
    /// tracer was created).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("no thread panics while holding the span lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.request, s.name, s.layer, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_gap_cover_the_root() {
        let tracer = Tracer::new();
        tracer.call(None, "engine.run_olap", "engine", || ());
        tracer.set_enabled(true);
        tracer.request("olap.request", |root| {
            tracer.call(root, "engine.run_olap", "engine", || std::thread::sleep(std::time::Duration::from_millis(4)));
            tracer.call(root, "check.answer", "check", || ());
        });
        let mut report = Report::default();
        tracer.report(&mut report);
        assert_eq!(report.get("trace.spans"), Some(3.0));
        let sum: f64 = LAYERS.iter().map(|l| report.get(&format!("trace.self_pct.{l}")).unwrap()).sum::<f64>()
            + report.get("trace.gap_pct").unwrap();
        assert!((sum - 100.0).abs() < 1e-9, "layer shares and gap add up to the root: {sum}");
        assert!(report.get("trace.self_pct.engine").unwrap() > 50.0);
    }
}
