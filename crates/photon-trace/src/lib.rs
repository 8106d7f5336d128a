//! # photon-trace
//!
//! End-to-end observability for the Photon federation: a lock-light,
//! thread-safe structured event/span recorder with a phase profiler and
//! three export sinks.
//!
//! ## Architecture
//!
//! A run owns a [`Recorder`] value — the enabled flag, the clock, the
//! shard registry and the collector with its sinks — and installs it with
//! [`Recorder::scope`] as its thread's *current* recorder; the threads a
//! driver spawns inherit it, with the actor lane, through the [`Scope`]
//! that `photon_tensor::ops::pool::Context` carries. The instrumentation
//! call sites are free functions ([`span`], [`instant`], [`counter_add`],
//! …), each a delegation to the thread's scoped recorder or, with none,
//! to the process default that [`init`] configures (the CLI's one
//! recorder). Concurrent runs in one process therefore never see each
//! other's events or sim time. Process-level state is exactly three things:
//! the default slot, the count of enabled recorders, and the crash flight
//! ring (fed by the default recorder only).
//!
//! Every instrumented thread records into its **own shard** — a buffer of
//! [`Event`]s plus per-phase profile accumulators and a [`CounterSet`] —
//! behind an uncontended mutex, so the hot path never touches a shared
//! lock. Every explicit [`flush`] (and a shard that fills) migrates shard
//! contents into the recorder's collector, where counters and log-scale
//! histograms merge deterministically (bucket-wise addition is
//! order-invariant). There is no background thread.
//!
//! While **no** recorder is enabled the entire API costs one relaxed
//! atomic load per call site — no thread-local read, no allocation, no
//! clock read, no lock.
//!
//! ## Clocks and determinism
//!
//! Event timestamps come from one of two clocks ([`ClockMode`]):
//!
//! * **Sim** — the federation driver publishes simulated walltime
//!   (`photon_comms::SimClock` semantics: `round × round_ms`) via
//!   [`set_sim_time_us`] to its recorder. Timestamps, durations and args are then pure
//!   functions of the run seed, and [`flush`] sorts events by their full
//!   field set before writing, so two runs with the same seed produce
//!   **byte-identical** JSONL traces regardless of thread interleaving.
//! * **Monotonic** — real elapsed microseconds since tracing was
//!   enabled; suited to live profiling, not replay comparison.
//!
//! Real (monotonic) span durations always feed the [`PhaseProfile`] and
//! latency histograms — that is what the CLI phase report and the
//! Prometheus snapshot show — but in Sim mode they never leak into the
//! JSONL trace.
//!
//! ## Sinks
//!
//! 1. **JSONL trace** — one chrome://tracing-compatible event per line
//!    (`name`/`cat`/`ph`/`ts`/`dur`/`pid`/`tid`/`args`), loadable via
//!    chrome://tracing "Load" or Perfetto after wrapping in `[...]`.
//! 2. **Prometheus text snapshot** — counters, gauges, histograms and
//!    per-phase self time in exposition format, rewritten atomically
//!    (temp file + rename) on every flush so a crashed run still leaves
//!    a readable last state.
//! 3. **Phase profile report** — an end-of-run table ([`PhaseProfile`])
//!    of self-time percentages (summing to ~100% by construction),
//!    per-span p50/p95 latencies and on-wire byte totals.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod clock;
mod counters;
mod event;
mod flight;
mod hist;
mod merge;
mod profile;
mod recorder;
mod sink;

pub use clock::{now_us, set_sim_time_us, ClockMode};
pub use counters::CounterSet;
pub use event::{Event, EventKind, Phase, PhaseGroup};
pub use flight::{flight_dump, flight_init, flight_install_panic_hook, FLIGHT_RING_CAP};
pub use hist::LogHistogram;
pub use merge::{merge_shards, net_edge_stats, NetEdgeStats};
pub use profile::{PhaseProfile, PhaseStat};
pub use recorder::{
    counter_add, drain_now, enabled, flush, flush_guard, flush_to_string, gauge_set, init, instant,
    observe, reset_for_tests, set_actor, set_clock_offset_us, set_process_meta, span, FlushGuard,
    FlushSummary, Recorder, Scope, Span, TraceConfig,
};
pub use sink::{atomic_write, lint_prometheus, render_prometheus};
