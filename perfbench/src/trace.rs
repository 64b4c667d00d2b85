//! In-memory span recorder for traced runs.
//!
//! Spans are taken on the benchmark side only, around calls into each
//! layer's public functions. They stay in memory while the run measures and
//! are written once, at the end, as Chrome trace-event JSON (open it in
//! Perfetto or `chrome://tracing`). Every span carries the id of the span
//! that caused it and, inside a search, the generation it belongs to — the
//! identifier the spans of one generation share.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pathway_core::jsonlite::JsonValue;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    id: usize,
    parent: Option<usize>,
    generation: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    thread: u64,
}

/// An open span; hand it back to [`Tracer::close`].
#[derive(Debug)]
pub struct OpenSpan {
    id: usize,
    parent: Option<usize>,
    generation: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl OpenSpan {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> usize {
        self.id
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    /// `(parent span, generation)` that spans opened with
    /// [`Tracer::open_in_context`] attach to: the search loop sets it around
    /// every generation, so oracle calls made on worker lanes land under
    /// the generation that issued them.
    context: Mutex<(Option<usize>, Option<u64>)>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`; tracers of one run
    /// share it, so their spans line up on one timeline.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
            context: Mutex::new((None, None)),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent`, tagged with `generation`.
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<usize>,
        generation: Option<u64>,
    ) -> OpenSpan {
        OpenSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            generation,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Opens a span under the current search context.
    pub fn open_in_context(&self, name: &'static str) -> OpenSpan {
        let (parent, generation) = *self.context.lock().expect("trace context lock");
        self.open(name, parent, generation)
    }

    /// Sets the context [`Tracer::open_in_context`] attaches to.
    pub fn set_context(&self, parent: Option<usize>, generation: Option<u64>) {
        *self.context.lock().expect("trace context lock") = (parent, generation);
    }

    /// Closes `span` now and keeps it.
    pub fn close(&self, span: OpenSpan) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("trace span lock").push(Span {
            id: span.id,
            parent: span.parent,
            generation: span.generation,
            name: span.name,
            start_ns: span.start_ns,
            end_ns,
            thread: thread_number(),
        });
    }

    /// Seconds of self time per span name: each span's duration minus the
    /// part of its interval that its child spans cover (overlapping
    /// children, e.g. two lanes, are counted once).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("trace span lock");
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for span in spans.iter() {
            let mut covered = 0u64;
            if let Some(intervals) = children.get_mut(&span.id) {
                intervals.sort_unstable();
                let mut cursor = span.start_ns;
                for &(start, end) in intervals.iter() {
                    let start = start.max(cursor);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            let own = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(covered);
            *totals.entry(span.name).or_default() += own as f64 * 1e-9;
        }
        totals
    }
}

/// A small per-thread number for the `tid` of trace events.
fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static NUMBER: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NUMBER.with(|number| *number)
}

/// Writes the spans of every tracer as one Chrome trace-event document:
/// each tracer becomes a process named by its label, and `metadata` (the
/// run's environment block) goes under `otherData`.
pub fn write_chrome_json(
    path: &Path,
    tracers: &[(String, Tracer)],
    metadata: Vec<(String, JsonValue)>,
) -> std::io::Result<()> {
    let mut events = Vec::new();
    for (pid, (label, tracer)) in tracers.iter().enumerate() {
        let pid = JsonValue::Int(pid as i64 + 1);
        events.push(JsonValue::object([
            ("name", JsonValue::string("process_name")),
            ("ph", JsonValue::string("M")),
            ("pid", pid.clone()),
            (
                "args",
                JsonValue::object([("name", JsonValue::string(label.as_str()))]),
            ),
        ]));
        for span in tracer.spans.lock().expect("trace span lock").iter() {
            let mut args = vec![("id".to_string(), JsonValue::Int(span.id as i64))];
            if let Some(parent) = span.parent {
                args.push(("parent".to_string(), JsonValue::Int(parent as i64)));
            }
            if let Some(generation) = span.generation {
                args.push(("generation".to_string(), JsonValue::Int(generation as i64)));
            }
            let layer = span.name.split('.').next().unwrap_or(span.name);
            events.push(JsonValue::object([
                ("name", JsonValue::string(span.name)),
                ("cat", JsonValue::string(layer)),
                ("ph", JsonValue::string("X")),
                ("ts", JsonValue::Number(span.start_ns as f64 / 1e3)),
                (
                    "dur",
                    JsonValue::Number(span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3),
                ),
                ("pid", pid.clone()),
                ("tid", JsonValue::Int(span.thread as i64)),
                ("args", JsonValue::Object(args)),
            ]));
        }
    }
    let document = JsonValue::object([
        ("traceEvents", JsonValue::Array(events)),
        ("displayTimeUnit", JsonValue::string("ms")),
        ("otherData", JsonValue::Object(metadata)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, document.to_compact())
}
