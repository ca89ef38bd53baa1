//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around the benchmark's calls into each
//! layer's public functions; nothing inside the library is instrumented.
//! They stay in memory until the run ends and are written out once.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::{percentile, sorted, tail_percentile};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Run-wide epoch id the span belongs to.
    pub epoch: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (inert when the recorder is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Records nested spans when on; every call is a single branch when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    epoch: u64,
}

impl Tracer {
    /// A recorder that records (`on`) or does nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            epoch: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (open spans must be closed first).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled with open spans");
        self.on = on;
    }

    /// Sets the epoch id stamped on spans opened from now on.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            epoch: self.epoch,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let closed = self.open.pop();
        assert_eq!(closed, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Renames a span once its kind is known (a cluster epoch turns out to
    /// carry a federation round only after it ran).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if self.on {
            self.spans[id.0].name = name;
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-layer view of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Spans with this name.
    pub calls: u64,
    /// Median span duration, ms.
    pub ms_p50: f64,
    /// Tail span duration, ms (see [`tail_percentile`]); 0 with too few
    /// calls.
    pub ms_p99: f64,
    /// Summed self time as a share of all `root` spans' time, %.
    pub self_pct: f64,
}

/// Groups spans by name; `root` names the span that is one whole epoch.
pub fn layers(spans: &[Span], root: &str) -> BTreeMap<&'static str, Layer> {
    let selfs = self_ns(spans);
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == root)
        .map(Span::dur_ns)
        .sum();
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(s.dur_ns() as f64 / 1e6);
        entry.1 += own;
    }
    by_name
        .into_iter()
        .map(|(name, (durs, own))| {
            let calls = durs.len() as u64;
            let durs = sorted(durs);
            let layer = Layer {
                calls,
                ms_p50: percentile(&durs, 0.5),
                ms_p99: tail_percentile(&durs, 0.99).map_or(0.0, |(v, _)| v),
                self_pct: if total == 0 {
                    0.0
                } else {
                    100.0 * own as f64 / total as f64
                },
            };
            (name, layer)
        })
        .collect()
}

/// Writes `header` (one JSON object) and then one JSON line per span.
pub fn write_jsonl(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"epoch\":{}}}",
            s.name, s.start_ns, s.end_ns, s.epoch
        )?;
    }
    out.flush()
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
            epoch: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("epoch", 0, 100, None),
            span("decide", 10, 30, Some(0)),
            span("learn", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_parent() {
        let spans = vec![
            span("epoch", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 140, 160, Some(0)),
        ];
        // Children cover [100, 160) of the parent: 60 ns.
        assert_eq!(self_ns(&spans)[0], 40);
    }

    #[test]
    fn layer_shares_sum_to_the_root() {
        let spans = vec![
            span("epoch", 0, 100, None),
            span("decide", 0, 25, Some(0)),
            span("epoch", 100, 200, None),
            span("decide", 100, 175, Some(2)),
        ];
        let l = layers(&spans, "epoch");
        assert_eq!(l["decide"].calls, 2);
        assert!((l["decide"].self_pct - 50.0).abs() < 1e-12);
        assert!((l["epoch"].self_pct - 50.0).abs() < 1e-12);
        assert_eq!(l["decide"].ms_p99, 0.0, "two calls cannot carry a tail");
    }

    #[test]
    fn recorder_nests_and_renames() {
        let mut t = Tracer::new(true);
        t.set_epoch(7);
        let root = t.begin("epoch");
        let child = t.begin("cluster_step");
        t.end(child);
        t.rename(child, "fed_epoch");
        t.end(root);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].name, "fed_epoch");
        assert_eq!(s[1].epoch, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        let id = off.begin("epoch");
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
