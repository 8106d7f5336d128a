//! Crash flight recorder: a bounded in-memory ring of a recorder's most
//! recently flushed events, dumped to a JSONL file when the process dies
//! abnormally (panic, `COORDKILL`, signal-driven shutdown).
//!
//! The JSONL sink only sees events at flush boundaries, and a killed
//! process loses whatever a crash interrupts; the flight recorder keeps
//! the recent past in memory — once [`flight_init`] arms a recorder's
//! ring, its every [`crate::flush`] feeds the flushed batch in — and
//! [`flight_dump`] writes ring + still-pending events atomically, so
//! post-mortem debugging always has the final round's spans. The ring is
//! the recorder's own, like its collector: two runs in one process dump
//! only their own events.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::event::Event;
use crate::recorder::with_current;

/// Maximum events retained in the flight ring; older events are evicted
/// first. Sized to hold several rounds of control-plane spans.
pub(crate) const FLIGHT_RING_CAP: usize = 4096;

/// A recorder's flight ring and the path it dumps to.
pub(crate) struct FlightRing {
    pub(crate) path: PathBuf,
    pub(crate) ring: VecDeque<Event>,
}

impl FlightRing {
    pub(crate) fn new(path: &Path) -> Self {
        FlightRing {
            path: path.to_path_buf(),
            ring: VecDeque::with_capacity(128),
        }
    }

    /// Appends a flushed batch, evicting the oldest events beyond
    /// [`FLIGHT_RING_CAP`] (a batch's own evicted head is never copied).
    pub(crate) fn note_events(&mut self, batch: &[Event]) {
        let keep = &batch[batch.len().saturating_sub(FLIGHT_RING_CAP)..];
        self.ring.extend(keep.iter().cloned());
        let excess = self.ring.len().saturating_sub(FLIGHT_RING_CAP);
        self.ring.drain(..excess);
    }
}

/// Arms the calling thread's recorder's flight ring: its recent events are
/// retained in a bounded ring and [`flight_dump`] (or the panic hook)
/// writes them to `path`. Idempotent; calling again moves the dump path
/// and keeps the ring.
pub fn flight_init(path: &Path) {
    with_current(|recorder| recorder.arm_flight(path));
}

/// Dumps the calling thread's recorder's flight ring plus every event it
/// has drained but not flushed to the armed path, atomically. Returns the
/// path written, or `None` when [`flight_init`] never armed this
/// recorder. Safe to call at any point — the dump is non-consuming, so a
/// process that survives keeps flushing normally.
///
/// # Errors
/// Propagates I/O errors from the atomic write.
pub fn flight_dump() -> io::Result<Option<PathBuf>> {
    with_current(|recorder| recorder.dump_flight())
}

/// Chains a panic hook that dumps the calling thread's recorder's flight
/// ring before the previous hook runs, whichever thread panics, so a
/// panicking process leaves its post-mortem file behind. Call once after
/// [`flight_init`].
pub fn flight_install_panic_hook() {
    let recorder = with_current(Arc::clone);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = recorder.dump_flight();
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Phase, Recorder, TraceConfig};

    #[test]
    fn ring_is_bounded_and_dump_writes_jsonl() {
        let dir = std::env::temp_dir().join(format!("photon-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight-test.jsonl");
        let recorder = Recorder::start(TraceConfig::default()).unwrap();
        let written = recorder.scope(|| {
            flight_init(&path);
            for ts in 0..FLIGHT_RING_CAP as u64 + 10 {
                crate::set_sim_time_us(ts);
                crate::instant(Phase::Round, "tick", &[]);
                if ts == 5 {
                    crate::flush().unwrap(); // the ring spans two batches
                }
            }
            crate::flush().unwrap();
            flight_dump().unwrap()
        });
        assert_eq!(written, Some(path.clone()));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), FLIGHT_RING_CAP, "ring bounded");
        // Oldest events evicted: the first retained line is ts 10.
        assert!(lines[0].contains("\"ts\":10,"), "got {}", lines[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A recorder nothing armed has no ring to dump.
    #[test]
    fn dump_without_init_is_none() {
        let recorder = Recorder::start(TraceConfig::default()).unwrap();
        assert_eq!(recorder.scope(flight_dump).unwrap(), None);
    }
}
