//! The benchmark's own span recorder: spans wrap calls into each
//! layer's public API, are kept in memory, and are summarised at the
//! end of a traced run (self time, count, share per layer).
//!
//! Recording is off unless [`set_enabled`] turns it on; a disabled span
//! costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

thread_local! {
    /// Time covered by the children of each open span, innermost last.
    static OPEN: RefCell<Vec<Duration>> = const { RefCell::new(Vec::new()) };
}

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub name: &'static str,
    /// Sub-key (e.g. the generator family of a validation span).
    pub tag: &'static str,
    /// Wall time from open to close.
    pub total: Duration,
    /// `total` minus the time its child spans covered.
    pub own: Duration,
    /// Opened with no enclosing span on its thread.
    pub top: bool,
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Drains every span recorded so far.
pub fn take() -> Vec<Record> {
    std::mem::take(&mut *RECORDS.lock().expect("span records poisoned"))
}

/// An open span; closes when dropped.
pub struct Span {
    name: &'static str,
    tag: &'static str,
    start: Option<Instant>,
}

pub fn span(name: &'static str) -> Span {
    tagged(name, "")
}

pub fn tagged(name: &'static str, tag: &'static str) -> Span {
    let start = ENABLED.load(Ordering::Relaxed).then(|| {
        OPEN.with(|open| open.borrow_mut().push(Duration::ZERO));
        Instant::now()
    });
    Span { name, tag, start }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = span(name);
    f()
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let total = start.elapsed();
        let (children, top) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let children = open.pop().unwrap_or_default();
            match open.last_mut() {
                Some(parent) => {
                    *parent += total;
                    (children, false)
                }
                None => (children, true),
            }
        });
        let record = Record {
            name: self.name,
            tag: self.tag,
            total,
            own: total.saturating_sub(children),
            top,
        };
        if let Ok(mut records) = RECORDS.lock() {
            records.push(record);
        }
    }
}

/// Per-layer totals over a set of records.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub calls: u64,
    /// Inclusive busy time (children included).
    pub busy: Duration,
    /// Self time (children excluded).
    pub own: Duration,
}

/// Aggregates records by span name (tags folded together).
pub fn by_name(records: &[Record]) -> BTreeMap<&'static str, Layer> {
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for r in records {
        let layer = layers.entry(r.name).or_default();
        layer.calls += 1;
        layer.busy += r.total;
        layer.own += r.own;
    }
    layers
}

/// Inclusive busy time of the spans named `name`, by tag.
pub fn by_tag(records: &[Record], name: &str) -> BTreeMap<&'static str, Duration> {
    let mut tags: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for r in records.iter().filter(|r| r.name == name) {
        *tags.entry(r.tag).or_default() += r.total;
    }
    tags
}

/// Wall durations (ms) of every span named `name`.
pub fn durations_ms(records: &[Record], name: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.name == name)
        .map(|r| r.total.as_secs_f64() * 1e3)
        .collect()
}

/// Time covered by top-level spans.
pub fn covered(records: &[Record]) -> Duration {
    records.iter().filter(|r| r.top).map(|r| r.total).sum()
}

/// Renders the self-time ledger (self time, count and share of the
/// traced wall time per layer) for the run's standard error.
pub fn ledger(records: &[Record], wall: Duration, passes: usize) -> String {
    let passes = passes.max(1) as f64;
    let wall_s = wall.as_secs_f64().max(f64::MIN_POSITIVE);
    let mut out = format!(
        "{:<32} {:>10} {:>12} {:>8}\n",
        "layer (per traced pass)", "calls", "self_s", "share"
    );
    let mut layers: Vec<(&str, Layer)> = by_name(records).into_iter().collect();
    layers.sort_by_key(|(_, layer)| std::cmp::Reverse(layer.own));
    for (name, layer) in layers {
        out.push_str(&format!(
            "{:<32} {:>10.1} {:>12.6} {:>7.1}%\n",
            name,
            layer.calls as f64 / passes,
            layer.own.as_secs_f64() / passes,
            100.0 * layer.own.as_secs_f64() / wall_s
        ));
    }
    out
}
