//! Crash flight recorder: a bounded in-memory ring of the most recently
//! flushed events, dumped to a JSONL file when the process dies abnormally
//! (panic, `COORDKILL`, signal-driven shutdown).
//!
//! The JSONL sink only sees events at flush boundaries, and a killed
//! process loses whatever a crash interrupts; the flight recorder keeps
//! the recent past in memory — the process default recorder's
//! [`crate::flush`] feeds every flushed batch into the ring — and
//! [`flight_dump`] writes ring + still-pending events atomically, so
//! post-mortem debugging always has the final round's spans. Lock order is collector before ring ([`crate::flush`] holds the
//! collector lock while feeding the ring; the dump path snapshots the
//! collector first), so the two paths cannot deadlock.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::event::Event;
use crate::sink::atomic_write;

/// Maximum events retained in the flight ring; older events are evicted
/// first. Sized to hold several rounds of control-plane spans.
pub const FLIGHT_RING_CAP: usize = 4096;

struct FlightState {
    path: PathBuf,
    ring: VecDeque<Event>,
    meta: Option<String>,
}

impl FlightState {
    fn new(path: &Path) -> Self {
        FlightState {
            path: path.to_path_buf(),
            ring: VecDeque::with_capacity(128),
            meta: None,
        }
    }

    fn note_events(&mut self, batch: &[Event]) {
        for event in batch {
            if self.ring.len() == FLIGHT_RING_CAP {
                self.ring.pop_front();
            }
            self.ring.push_back(event.clone());
        }
    }

    /// Writes the ring, then `pending`, to the armed path, atomically.
    fn dump(&self, pid: u32, meta: Option<String>, pending: &[Event]) -> io::Result<PathBuf> {
        let mut text = String::new();
        if let Some(line) = self.meta.as_ref().or(meta.as_ref()) {
            text.push_str(line);
            text.push('\n');
        }
        for event in self.ring.iter().chain(pending) {
            text.push_str(&event.to_json_line_with_pid(pid));
            text.push('\n');
        }
        atomic_write(&self.path, &text)?;
        Ok(self.path.clone())
    }
}

/// The process's flight ring, fed by the process default recorder.
static FLIGHT: Mutex<Option<FlightState>> = Mutex::new(None);

/// Arms the flight recorder: recent events are retained in a bounded ring
/// and [`flight_dump`] (or the panic hook) writes them to `path`.
/// Idempotent; calling again moves the dump path and keeps the ring.
pub fn flight_init(path: &Path) {
    let mut guard = FLIGHT.lock();
    match guard.as_mut() {
        Some(state) => state.path = path.to_path_buf(),
        None => *guard = Some(FlightState::new(path)),
    }
}

/// Feeds a flushed batch into the ring (no-op until [`flight_init`]).
pub(crate) fn note_events(batch: &[Event]) {
    if let Some(state) = FLIGHT.lock().as_mut() {
        state.note_events(batch);
    }
}

/// Records the most recent `process_meta` line (no-op until
/// [`flight_init`]).
pub(crate) fn note_meta(line: String) {
    if let Some(state) = FLIGHT.lock().as_mut() {
        state.meta = Some(line);
    }
}

/// Dumps the flight ring plus every event the process default recorder
/// has drained but not flushed to the armed path, atomically. Returns the
/// path written, or `None` when [`flight_init`] was never called. Safe to
/// call at any point — the dump is non-consuming, so a process that
/// survives keeps flushing normally.
///
/// # Errors
/// Propagates I/O errors from the atomic write.
pub fn flight_dump() -> io::Result<Option<PathBuf>> {
    // Snapshot the collector before taking the ring lock (lock order:
    // collector, then ring).
    let (pid, meta, pending) = crate::recorder::default_recorder().flight_snapshot();
    let guard = FLIGHT.lock();
    guard
        .as_ref()
        .map(|state| state.dump(pid, meta, &pending))
        .transpose()
}

/// Chains a panic hook that dumps the flight ring before the default
/// hook runs, so a panicking process leaves its post-mortem file behind.
/// Call once after [`flight_init`].
pub fn flight_install_panic_hook() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = flight_dump();
        prev(info);
    }));
}

pub(crate) fn reset_for_tests() {
    *FLIGHT.lock() = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Phase, MAX_ARGS};

    fn mk(ts: u64, seq: u64) -> Event {
        Event {
            ts_us: ts,
            actor: 0,
            seq,
            phase: Phase::Round,
            name: "round",
            kind: EventKind::Span,
            dur_us: 1,
            args: [("", 0); MAX_ARGS],
        }
    }

    #[test]
    fn ring_is_bounded_and_dump_writes_jsonl() {
        let dir = std::env::temp_dir().join(format!("photon-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight-test.jsonl");
        let mut state = FlightState::new(&path);
        let batch: Vec<Event> = (0..FLIGHT_RING_CAP as u64 + 10).map(|i| mk(i, i)).collect();
        state.note_events(&batch);
        let written = state.dump(0, None, &[]).unwrap();
        assert_eq!(written, path);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), FLIGHT_RING_CAP, "ring bounded");
        // Oldest events evicted: the first retained line is ts 10.
        assert!(lines[0].contains("\"ts\":10,"), "got {}", lines[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Nothing in this binary arms the process ring.
    #[test]
    fn dump_without_init_is_none() {
        assert_eq!(flight_dump().unwrap(), None);
    }
}
