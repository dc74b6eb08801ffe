//! An in-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer's public function:
//! name, start, end, the span that caused it, and the trace (job) it belongs
//! to.  Spans stay in memory until the run ends; [`Tracer::write_jsonl`]
//! writes them out and [`Tracer::self_times`] folds them into per-layer self
//! time.  A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, so children can name a parent that is recorded
    /// after them.  Disabled: 0.
    pub fn id(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can parent
    /// child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.id();
        let start = Instant::now();
        let result = f(id);
        self.record(id, name, trace, parent, start, Instant::now());
        result
    }

    /// Records a span whose bounds the caller measured, under an id from
    /// [`id`](Self::id).
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        trace: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.push(id, name, trace, parent, start, end);
        }
    }

    fn push(
        &self,
        id: u64,
        name: &'static str,
        trace: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            trace,
            name,
            start_ns: at(start),
            end_ns: at(end).max(at(start)),
        };
        self.spans.lock().expect("span buffer lock").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time per layer in nanoseconds: each span's duration minus the
    /// part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        let mut layers: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for span in &spans {
            let covered = children
                .get_mut(&span.id)
                .map(|intervals| union_ns(intervals))
                .unwrap_or(0);
            let entry = layers.entry(span.layer()).or_default();
            entry.0 += span.duration_ns().saturating_sub(covered);
            entry.1 += 1;
        }
        layers
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of half-open intervals.
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}
