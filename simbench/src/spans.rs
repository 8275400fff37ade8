//! In-memory span recording around the calls the benchmark makes into each
//! layer, and the self-time arithmetic over the recorded spans.
//!
//! A span is named `<layer>.<operation>`. A disarmed [`Recorder`] records
//! nothing: its `span` is one branch around the timed call.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

/// One timed call: name, start and end in nanoseconds since the run's epoch,
/// the span that caused it, and the cell it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The cell this span belongs to; every span of one cell shares it.
    pub cell: Option<u64>,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split_once('.').map_or(self.name, |(l, _)| l)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread. Worker threads record into recorders of
/// their own, which the sweep then [`absorb`](Recorder::absorb)s.
#[derive(Debug)]
pub struct Recorder {
    armed: bool,
    epoch: Instant,
    cell: Option<u64>,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing against `epoch`; records only when `armed`.
    pub fn new(armed: bool, epoch: Instant) -> Recorder {
        Recorder {
            armed,
            epoch,
            cell: None,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder for one cell: every span it records carries `cell`.
    pub fn for_cell(armed: bool, epoch: Instant, cell: u64) -> Recorder {
        Recorder {
            cell: Some(cell),
            ..Recorder::new(armed, epoch)
        }
    }

    /// Whether spans are being recorded.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Arms or disarms recording for the spans that begin from now on.
    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// The run's time base.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its index, or
    /// `None` when disarmed.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.armed {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cell: self.cell,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned, and every span a panic left open
    /// inside it.
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let now = self.now_ns();
            while let Some(open) = self.open.pop() {
                self.spans[open].end_ns = now;
                if open == id {
                    break;
                }
            }
        }
    }

    /// Times `f` as span `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.begin(name);
        let r = f(self);
        self.end(id);
        r
    }

    /// Takes over the spans another recorder made, re-parenting its root
    /// spans under `parent`.
    pub fn absorb(&mut self, spans: Vec<Span>, parent: Option<usize>) {
        let offset = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(parent);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Hands the recorded spans to the caller.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Total duration and call count of each span name in `spans`.
pub fn totals(spans: &[Span]) -> HashMap<&'static str, (u64, u64)> {
    let mut t: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for s in spans {
        let e = t.entry(s.name).or_default();
        e.0 += s.duration_ns();
        e.1 += 1;
    }
    t
}

/// Self time per layer, in ns, over the spans `all[range]`: each span's
/// duration minus the part of it its child spans cover (children of one span
/// may run concurrently on several workers, so their union is subtracted).
pub fn layer_self_ns(all: &[Span], range: std::ops::Range<usize>) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for s in &all[range.clone()] {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for id in range {
        let s = &all[id];
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&id) {
            kids.sort_unstable();
            let (mut lo, mut hi) = (s.start_ns, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(s.start_ns, s.end_ns), b.clamp(s.start_ns, s.end_ns));
                if a > hi {
                    covered += hi - lo;
                    lo = a;
                }
                hi = hi.max(b);
            }
            covered += hi - lo;
        }
        *out.entry(s.layer()).or_insert(0) += s.duration_ns() - covered;
    }
    out
}

/// Writes `header` and then one JSON object per span, one per line.
pub fn write_jsonl(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{header}")?;
    let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
    for (id, s) in spans.iter().enumerate() {
        writeln!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cell\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.cell)
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("harness.sweep", 0, 100, None),
            span("uarch.replay", 10, 60, Some(0)),
            span("core.replay", 40, 80, Some(0)),
            span("scenario.check", 60, 70, Some(2)),
        ];
        let selfs = layer_self_ns(&spans, 0..spans.len());
        assert_eq!(selfs["harness"], 100 - 70);
        assert_eq!(selfs["uarch"], 50);
        assert_eq!(selfs["core"], 40 - 10);
        assert_eq!(selfs["scenario"], 10);
    }

    #[test]
    fn absorbed_spans_keep_their_tree_under_the_new_parent() {
        let epoch = Instant::now();
        let mut cell = Recorder::for_cell(true, epoch, 7);
        cell.span("harness.cell", |r| r.span("uarch.replay", |_| ()));
        let mut main = Recorder::new(true, epoch);
        let sweep = main.begin("harness.sweep");
        main.end(sweep);
        main.absorb(cell.into_spans(), sweep);
        let s = main.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(1)));
        assert_eq!((s[1].cell, s[2].cell), (Some(7), Some(7)));
    }

    #[test]
    fn a_disarmed_recorder_records_nothing() {
        let mut r = Recorder::new(false, Instant::now());
        assert_eq!(r.span("uarch.replay", |_| 3), 3);
        assert!(r.spans().is_empty());
    }
}
