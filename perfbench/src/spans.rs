//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark itself makes into a
//! crate's public API; the program is not instrumented. Each span carries
//! its layer (the crate called), the call's name, its parent (the span open
//! on the same thread when it started) and a request id (the point or sweep
//! it serves). With recording off, [`Spans::run`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The measured layers: the workspace crates that run while a simulation
/// is in progress.
pub const LAYERS: [&str; 8] =
    ["gpgraph", "gpkernels", "simcore", "sdclp", "gpworkloads", "simstate", "simtel", "simserve"];

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub struct Spans {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span of `layer`/`name` for request `request`.
    pub fn run<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|s| s.borrow_mut().pop());
        let span = Span { id, parent, layer, name, request, start_ns, end_ns };
        self.done.lock().expect("span list lock poisoned by a panicking thread").push(span);
        out
    }

    pub fn finished(&self) -> Vec<Span> {
        let mut v =
            self.done.lock().expect("span list lock poisoned by a panicking thread").clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Total seconds of the spans named `name` in `layer`.
    pub fn total(&self, layer: &str, name: &str) -> f64 {
        self.finished().iter().filter(|s| s.layer == layer && s.name == name).map(Span::secs).sum()
    }

    /// Number of spans recorded.
    pub fn count(&self) -> usize {
        self.done.lock().expect("span list lock poisoned by a panicking thread").len()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.finished() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.request, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Seconds each layer spent in its own spans, excluding the part of each
/// span's interval that its child spans cover.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_insert(0.0) += self_ns as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|(a, b)| a < b).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(covered_ns(&[(10, 20), (15, 30), (40, 50)], 0, 45), 25);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mk = |id, parent, layer, start_ns, end_ns| Span {
            id,
            parent,
            layer,
            name: "x",
            request: 0,
            start_ns,
            end_ns,
        };
        let spans = [mk(1, None, "gpworkloads", 0, 100), mk(2, Some(1), "simcore", 10, 70)];
        let s = self_seconds(&spans);
        assert!((s["gpworkloads"] - 40e-9).abs() < 1e-15);
        assert!((s["simcore"] - 60e-9).abs() < 1e-15);
    }
}
