//! Bench-side spans: recorded around the harness's own calls into the
//! crates, kept in memory, written out once at exit. The program's
//! recorder (`photon-trace`) is a separate thing, read only in the traced
//! run for the phase shares.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed interval of harness time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called (`build`, `round`, a probe name, ...).
    pub name: String,
    /// Start, microseconds since the recorder was created.
    pub start_us: u64,
    /// End, microseconds since the recorder was created.
    pub end_us: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Round index, for per-round spans.
    pub round: Option<u64>,
}

/// In-memory span recorder for one workload run (single-threaded: spans
/// of other threads are added by the main thread from captured instants).
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Starts recording for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Spans {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Opens a span under the innermost open one; close it with [`exit`].
    ///
    /// [`exit`]: Spans::exit
    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.us(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            round: None,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    /// Panics when spans are closed out of order (a harness bug).
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_us = self.us(Instant::now());
    }

    /// Adds an already-finished span under the innermost open one.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, round: Option<u64>) {
        let span = Span {
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent: self.open.last().copied(),
            round,
        };
        self.spans.push(span);
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) as f64 / 1e3)
            .collect()
    }

    /// Writes one JSON object per span, self time included.
    ///
    /// # Errors
    /// Any I/O failure creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_us = self_times_us(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_us)) in self.spans.iter().zip(self_us).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{}\", \"start_us\": {}, \
                 \"end_us\": {}, \"self_us\": {self_us}, \"parent\": {}, \"round\": {}}}",
                s.name,
                self.workload,
                s.start_us,
                s.end_us,
                opt(s.parent.map(|p| p as u64)),
                opt(s.round),
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover. Children that overlap each other (parallel
/// threads) are counted once, and a child is clipped to its parent.
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_us, spans[p].end_us);
            let (a, b) = (s.start_us.clamp(lo, hi), s.end_us.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut frontier = s.start_us;
            for (a, b) in kids {
                if b > frontier {
                    covered += b - a.max(frontier);
                    frontier = b;
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
            round: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("window", 0, 100, None),
            span("round", 10, 30, Some(0)),
            span("round", 40, 70, Some(0)),
            span("inner", 45, 50, Some(2)),
        ];
        assert_eq!(self_times_us(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_the_parent() {
        // Two threads under one parent: 20..60 and 40..120 (runs past the
        // parent's end at 100) cover 20..100 = 80 of its 100.
        let spans = vec![
            span("serve", 0, 100, None),
            span("client-0", 20, 60, Some(0)),
            span("client-1", 40, 120, Some(0)),
            span("nested", 30, 35, Some(1)),
        ];
        assert_eq!(self_times_us(&spans), vec![20, 35, 80, 5]);
    }

    #[test]
    fn enter_exit_nest_and_record_attaches_to_the_open_span() {
        let mut s = Spans::new("w");
        let outer = s.enter("outer");
        let t = Instant::now();
        s.record("leaf", t, t, Some(3));
        let inner = s.enter("inner");
        s.exit(inner);
        s.exit(outer);
        assert_eq!(s.spans[1].parent, Some(outer));
        assert_eq!(s.spans[1].round, Some(3));
        assert_eq!(s.spans[2].parent, Some(outer));
        assert_eq!(s.durations_ms("leaf"), vec![0.0]);
    }
}
