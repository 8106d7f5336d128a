//! The [`Recorder`]: per-thread shards, one collector and the sinks, owned
//! by the run that records into it.
//!
//! ## Whose recorder
//!
//! A recorder is a value. [`Recorder::scope`] installs it as the calling
//! thread's *current* recorder for the length of a closure (restored on
//! exit and on panic); a driver that spawns threads hands them its
//! [`Scope`] — `photon_tensor::ops::pool::Context` carries one, so client
//! lanes, DDP replicas and sub-federation nodes record where their round
//! does, on their client's lane. Two federations in one process never see
//! each other's events, sim time or kernel-event setting.
//!
//! The free functions ([`span`], [`counter_add`], [`flush`], …) are what
//! instrumented code and the drivers call. Each is a one-line delegation
//! to the thread's scoped recorder or, on a thread with none, to the
//! process **default** — the recorder [`init`] configures, the only one a
//! CLI process has. Three things stay process-level: that default slot,
//! the count of enabled recorders (below) and the crash flight ring, which
//! only the default recorder feeds.
//!
//! ## Hot path
//!
//! Every recording entry point starts with one `Relaxed` load of the
//! process-wide count of enabled recorders. While that is zero the load is
//! the entire cost — no thread-local read, no clock read, no allocation, no
//! lock. Otherwise the thread resolves its recorder and records into its
//! own shard behind a mutex nothing else contends on (a flush touches each
//! shard for microseconds). A shard that fills spills into the collector
//! on the recording thread; no background thread exists.
//!
//! ## Determinism
//!
//! Shards are drained in registry order into one collector, but the
//! collector sorts pending events by their full field set (timestamp,
//! actor lane, per-shard sequence, content) before writing, and counter/
//! histogram/profile merging is commutative — so the flushed output is
//! independent of thread scheduling and drain timing. With the Sim clock
//! this makes trace files byte-identical across same-seed runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::mem;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Instant;

use parking_lot::Mutex;

use crate::clock::{Clock, ClockMode};
use crate::counters::CounterSet;
use crate::event::{Event, EventKind, Phase, MAX_ARGS};
use crate::hist::LogHistogram;
use crate::profile::PhaseProfile;
use crate::sink::{atomic_write, render_prometheus, JsonlSink};

/// Events a shard holds before the recording thread spills them into the
/// collector.
const SHARD_EVENT_CAP: usize = 1 << 14;

/// Events the collector holds between flushes. Beyond this, events are
/// counted as dropped rather than grown without bound; profile/counter
/// accounting is never dropped.
const PENDING_EVENT_CAP: usize = 1 << 20;

/// How many recorders in the process are enabled: the one load a call site
/// pays while nothing records.
static ENABLED_RECORDERS: AtomicUsize = AtomicUsize::new(0);

/// The process default recorder: what a thread with no [`Scope`] records
/// into, and what [`init`] / [`reset_for_tests`] configure.
static DEFAULT: OnceLock<Arc<Recorder>> = OnceLock::new();

thread_local! {
    /// This thread's recorder (`None`: the process default) and actor lane.
    static SCOPE: RefCell<Scope> = const { RefCell::new(Scope { recorder: None, actor: 0 }) };
    /// This thread's shard and the recorder it is registered with.
    static SHARD: RefCell<Option<(Weak<Recorder>, Arc<Shard>)>> = const { RefCell::new(None) };
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

#[derive(Default)]
struct ShardData {
    events: Vec<Event>,
    seq: u64,
    profile: PhaseProfile,
    counters: CounterSet,
    hists: BTreeMap<&'static str, LogHistogram>,
}

struct Shard {
    data: Mutex<ShardData>,
}

#[derive(Default)]
struct Collector {
    pending: Vec<Event>,
    profile: PhaseProfile,
    counters: CounterSet,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, LogHistogram>,
    written: u64,
    dropped: u64,
    jsonl: Option<JsonlSink>,
    prometheus: Option<PathBuf>,
    /// OS pid stamped on JSONL lines; 0 until [`set_process_meta`] is
    /// called, which keeps single-process traces byte-identical to the
    /// historical shape.
    pid: u32,
    /// Run-wide trace id ([`set_process_meta`]).
    trace_id: u64,
    /// Estimated offset of this process's trace clock from the
    /// coordinator's, in microseconds ([`set_clock_offset_us`]).
    clock_offset_us: i64,
    /// Process metadata has been set and the next flush should (re)write
    /// the `process_meta` line.
    meta_dirty: bool,
    /// Process metadata was ever set (controls pid stamping).
    meta_set: bool,
}

/// Recorder configuration passed to [`Recorder::start`] and [`init`].
#[derive(Debug, Clone, Default)]
pub struct TraceConfig {
    /// JSONL trace file path (`--trace-jsonl`); `None` disables the
    /// trace sink (events are still collected for [`flush_to_string`]).
    pub jsonl: Option<PathBuf>,
    /// Prometheus text snapshot path (`--metrics-text`), rewritten
    /// atomically on every [`flush`].
    pub prometheus: Option<PathBuf>,
    /// Emit per-kernel spans (GEMM/attention/layernorm) as JSONL events
    /// too. They always feed the profiler; as events they dominate trace
    /// volume, so this is opt-in (`--trace-kernels`).
    pub kernel_events: bool,
    /// Which clock stamps events. Defaults to [`ClockMode::Sim`].
    pub clock: ClockMode,
}

/// Everything the recorder knows at a flush boundary.
#[derive(Debug, Clone, Default)]
pub struct FlushSummary {
    /// Cumulative JSONL events written (or rendered) so far.
    pub events_written: u64,
    /// Cumulative events dropped to collector overflow.
    pub events_dropped: u64,
    /// Merged per-phase wall-time profile.
    pub profile: PhaseProfile,
    /// Merged named counters.
    pub counters: CounterSet,
    /// Last-set named gauges.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Merged named histograms.
    pub hists: BTreeMap<&'static str, LogHistogram>,
}

/// One run's trace state: the enabled and kernel-event flags, the clock,
/// the registry of per-thread shards and the collector with its sinks.
/// Shared as an `Arc` between the threads that record into it; dropping
/// the last handle closes the sinks.
pub struct Recorder {
    enabled: AtomicBool,
    kernel_events: AtomicBool,
    pub(crate) clock: Clock,
    registry: Mutex<Vec<Arc<Shard>>>,
    collector: Mutex<Collector>,
    /// Flushes feed the crash flight ring (the process default only).
    feeds_flight: bool,
}

/// What a thread records under: its recorder and its actor lane. A spawned
/// thread starts on the process default at lane 0, so the spawner captures
/// [`Scope::current`] and the thread [`Scope::enter`]s it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scope {
    recorder: Option<Arc<Recorder>>,
    actor: u32,
}

impl Scope {
    /// The recorder this scope records into: its own, else the process
    /// default.
    fn recorder(&self) -> &Arc<Recorder> {
        self.recorder.as_ref().unwrap_or_else(|| default_recorder())
    }

    /// The calling thread's scope.
    pub fn current() -> Self {
        SCOPE.with(|scope| scope.borrow().clone())
    }

    /// Runs `f` under this scope, restoring the thread's previous one
    /// afterwards — also on panic.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Scope);
        impl Drop for Restore {
            fn drop(&mut self) {
                SCOPE.with(|scope| mem::swap(&mut *scope.borrow_mut(), &mut self.0));
            }
        }
        let _restore = Restore(SCOPE.with(|scope| scope.replace(self.clone())));
        f()
    }
}

/// Two handles are equal when they are the same recorder.
impl PartialEq for Recorder {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
    }
}

impl Eq for Recorder {}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.set_enabled(false);
    }
}

pub(crate) fn default_recorder() -> &'static Arc<Recorder> {
    DEFAULT.get_or_init(|| Arc::new(Recorder::new(true)))
}

/// Runs `f` on the calling thread's recorder: the scoped one, else the
/// process default.
pub(crate) fn with_current<R>(f: impl FnOnce(&Arc<Recorder>) -> R) -> R {
    SCOPE.with(|scope| f(scope.borrow().recorder()))
}

/// True while no recorder in the process is enabled: the one relaxed load a
/// call site pays then.
#[inline(always)]
fn idle() -> bool {
    ENABLED_RECORDERS.load(Ordering::Relaxed) == 0
}

/// Runs `f` on the calling thread's recorder and actor lane if that
/// recorder is enabled. One relaxed load while no recorder is.
#[inline(always)]
fn recording<R>(f: impl FnOnce(&Arc<Recorder>, u32) -> R) -> Option<R> {
    if idle() {
        return None;
    }
    // Out of line, so a call site inlines the load and the branch only.
    #[inline(never)]
    fn resolve<R>(f: impl FnOnce(&Arc<Recorder>, u32) -> R) -> Option<R> {
        SCOPE.with(|scope| {
            let scope = scope.borrow();
            let recorder = scope.recorder();
            recorder
                .enabled
                .load(Ordering::Relaxed)
                .then(|| f(recorder, scope.actor))
        })
    }
    resolve(f)
}

impl Recorder {
    fn new(feeds_flight: bool) -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            kernel_events: AtomicBool::new(false),
            clock: Clock::new(),
            registry: Mutex::new(Vec::new()),
            collector: Mutex::new(Collector::default()),
            feeds_flight,
        }
    }

    /// A recorder enabled with the given sinks and clock. Nothing records
    /// into it until a thread runs inside its [`Recorder::scope`].
    ///
    /// # Errors
    /// The JSONL sink's file cannot be created.
    pub fn start(config: TraceConfig) -> io::Result<Arc<Self>> {
        let recorder = Arc::new(Recorder::new(false));
        recorder.init(config)?;
        Ok(recorder)
    }

    /// Runs `f` with this recorder as the calling thread's current one, on
    /// the thread's current actor lane; the previous recorder is restored
    /// afterwards — also on panic. Scopes nest.
    pub fn scope<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        Scope {
            recorder: Some(Arc::clone(self)),
            ..Scope::current()
        }
        .enter(f)
    }

    fn set_enabled(&self, on: bool) {
        if self.enabled.swap(on, Ordering::SeqCst) != on {
            if on {
                ENABLED_RECORDERS.fetch_add(1, Ordering::SeqCst);
            } else {
                ENABLED_RECORDERS.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Enables tracing with the given sinks and clock; calling again
    /// replaces the sink configuration and keeps already-collected data.
    fn init(&self, config: TraceConfig) -> io::Result<()> {
        let jsonl = match &config.jsonl {
            Some(path) => Some(JsonlSink::create(path)?),
            None => None,
        };
        {
            let mut collector = self.collector.lock();
            collector.jsonl = jsonl;
            collector.prometheus = config.prometheus;
        }
        self.clock.set_mode(config.clock);
        self.kernel_events
            .store(config.kernel_events, Ordering::SeqCst);
        self.set_enabled(true);
        Ok(())
    }

    /// Disables tracing and discards all state (shards, collector, sinks,
    /// sim clock; the flight ring too when this is the process default).
    fn reset(&self) {
        self.set_enabled(false);
        self.kernel_events.store(false, Ordering::SeqCst);
        for shard in self.registry.lock().iter() {
            *shard.data.lock() = ShardData::default();
        }
        *self.collector.lock() = Collector::default();
        if self.feeds_flight {
            crate::flight::reset_for_tests();
        }
        self.clock.set_sim_time_us(0);
        self.clock.set_mode(ClockMode::Sim);
    }

    fn set_process_meta(&self, trace_id: u64, pid: u32) {
        let mut collector = self.collector.lock();
        collector.trace_id = trace_id;
        collector.pid = pid;
        collector.meta_set = true;
        collector.meta_dirty = true;
    }

    fn set_clock_offset_us(&self, offset_us: i64) {
        let mut collector = self.collector.lock();
        collector.clock_offset_us = offset_us;
        if collector.meta_set {
            collector.meta_dirty = true;
        }
    }

    /// Runs `f` on the calling thread's shard of this recorder,
    /// registering one on the thread's first record here.
    #[inline]
    fn with_shard<R>(self: &Arc<Self>, f: impl FnOnce(&mut ShardData) -> R) -> R {
        SHARD.with(|slot| {
            let mut slot = slot.borrow_mut();
            let mine = slot
                .as_ref()
                .is_some_and(|(owner, _)| std::ptr::eq(owner.as_ptr(), Arc::as_ptr(self)));
            if !mine {
                let shard = Arc::new(Shard {
                    data: Mutex::new(ShardData::default()),
                });
                self.registry.lock().push(Arc::clone(&shard));
                *slot = Some((Arc::downgrade(self), shard));
            }
            let (_, shard) = slot.as_ref().expect("installed above");
            let mut data = shard.data.lock();
            f(&mut data)
        })
    }

    #[inline]
    fn open_span(&self, phase: Phase) -> SpanInner {
        CHILD_NS.with(|stack| stack.borrow_mut().push(0));
        SpanInner {
            phase,
            name: phase.name(),
            ts_us: self.clock.now_us(),
            start: Instant::now(),
            sim_dur_us: 0,
            args: [("", 0); MAX_ARGS],
            nargs: 0,
        }
    }

    fn close_span(self: &Arc<Self>, inner: &SpanInner, actor: u32, elapsed_ns: u64, self_ns: u64) {
        let emit = inner
            .phase
            .emits_event(self.kernel_events.load(Ordering::Relaxed));
        let dur_us = if self.clock.is_sim() {
            inner.sim_dur_us
        } else {
            elapsed_ns / 1_000
        };
        self.with_shard(|data| {
            data.profile.record_span(inner.phase, elapsed_ns, self_ns);
            if emit {
                data.push(
                    &self.collector,
                    Event {
                        ts_us: inner.ts_us,
                        actor,
                        seq: 0,
                        phase: inner.phase,
                        name: inner.name,
                        kind: EventKind::Span,
                        dur_us,
                        args: inner.args,
                    },
                );
            }
        });
    }

    fn instant(
        self: &Arc<Self>,
        actor: u32,
        phase: Phase,
        name: &'static str,
        args: &[(&'static str, u64)],
    ) {
        let mut packed = [("", 0u64); MAX_ARGS];
        for (slot, kv) in packed.iter_mut().zip(args.iter()) {
            *slot = *kv;
        }
        let event = Event {
            ts_us: self.clock.now_us(),
            actor,
            seq: 0,
            phase,
            name,
            kind: EventKind::Instant,
            dur_us: 0,
            args: packed,
        };
        self.with_shard(|data| data.push(&self.collector, event));
    }

    /// Migrates every shard's data into the collector. Dead threads' shards
    /// (only referenced by the registry, fully drained) are pruned.
    fn drain_shards(&self) {
        let shards: Vec<Arc<Shard>> = self.registry.lock().iter().map(Arc::clone).collect();
        let mut events: Vec<Event> = Vec::new();
        let mut profile = PhaseProfile::new();
        let mut counters = CounterSet::new();
        let mut hists: BTreeMap<&'static str, LogHistogram> = BTreeMap::new();
        for shard in &shards {
            let mut data = shard.data.lock();
            events.append(&mut data.events);
            profile.merge(&mem::take(&mut data.profile));
            counters.merge(&mem::take(&mut data.counters));
            for (name, hist) in mem::take(&mut data.hists) {
                hists.entry(name).or_default().merge(&hist);
            }
        }
        {
            let mut collector = self.collector.lock();
            collector.take_events(&mut events);
            collector.profile.merge(&profile);
            collector.counters.merge(&counters);
            for (name, hist) in hists {
                collector.hists.entry(name).or_default().merge(&hist);
            }
        }
        self.registry
            .lock()
            .retain(|shard| Arc::strong_count(shard) > 1 || !shard.data.lock().is_empty());
    }

    /// Drains all shards into the collector and returns the merged state
    /// without touching any sink.
    pub fn drain_now(&self) -> FlushSummary {
        self.drain_shards();
        self.collector.lock().summary()
    }

    /// Drains all shards, writes pending events to the JSONL sink (sorted
    /// deterministically), rewrites the Prometheus snapshot atomically, and
    /// returns the merged state. A disabled recorder returns an empty
    /// summary.
    ///
    /// # Errors
    /// I/O errors from either sink.
    pub fn flush(&self) -> io::Result<FlushSummary> {
        if !self.enabled.load(Ordering::Relaxed) {
            return Ok(FlushSummary::default());
        }
        self.drain_shards();
        let mut collector = self.collector.lock();
        let batch = collector.take_batch();
        let pid = collector.pid;
        if collector.meta_dirty {
            collector.meta_dirty = false;
            let meta = collector.meta_line();
            if let Some(sink) = collector.jsonl.as_mut() {
                sink.write_line(&meta)?;
            }
            if self.feeds_flight {
                crate::flight::note_meta(meta);
            }
        }
        if let Some(sink) = collector.jsonl.as_mut() {
            for event in &batch {
                sink.write_line(&event.to_json_line_with_pid(pid))?;
            }
            sink.flush()?;
        }
        if self.feeds_flight {
            crate::flight::note_events(&batch);
        }
        if let Some(path) = collector.prometheus.as_deref() {
            let text = render_prometheus(
                &collector.counters,
                &collector.gauges,
                &collector.hists,
                &collector.profile,
            );
            atomic_write(path, &text)?;
        }
        Ok(collector.summary())
    }

    /// Drains all shards and renders every pending event as sorted JSONL
    /// into a string (consuming them), without touching file sinks.
    /// Intended for determinism tests.
    pub fn flush_to_string(&self) -> String {
        self.drain_shards();
        let mut out = String::new();
        for event in &self.collector.lock().take_batch() {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Snapshot used by the flight recorder: the process pid, the metadata
    /// line (when process identity was declared) and a clone of every event
    /// drained but not yet flushed. Non-consuming, so a dump never steals
    /// events from a later flush.
    pub(crate) fn flight_snapshot(&self) -> (u32, Option<String>, Vec<Event>) {
        self.drain_shards();
        let collector = self.collector.lock();
        let mut pending = collector.pending.clone();
        pending.sort();
        let meta = collector.meta_set.then(|| collector.meta_line());
        (collector.pid, meta, pending)
    }
}

impl ShardData {
    /// Stamps `event` with the shard's next sequence number and queues it,
    /// spilling a full shard into `collector` first.
    fn push(&mut self, collector: &Mutex<Collector>, mut event: Event) {
        if self.events.len() == SHARD_EVENT_CAP {
            collector.lock().take_events(&mut self.events);
        }
        event.seq = self.seq;
        self.seq += 1;
        self.events.push(event);
    }

    fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.counters.is_empty()
            && self.hists.is_empty()
            && self.profile.is_empty()
    }
}

impl Collector {
    /// Queues `events` for the next flush, up to [`PENDING_EVENT_CAP`];
    /// the rest are counted as dropped. Leaves `events` empty.
    fn take_events(&mut self, events: &mut Vec<Event>) {
        let room = PENDING_EVENT_CAP.saturating_sub(self.pending.len());
        if events.len() > room {
            self.dropped += (events.len() - room) as u64;
            events.truncate(room);
        }
        self.pending.append(events);
    }

    /// The pending events in their deterministic order, counted as written.
    fn take_batch(&mut self) -> Vec<Event> {
        let mut batch = mem::take(&mut self.pending);
        batch.sort();
        self.written += batch.len() as u64;
        batch
    }

    /// The `process_meta` metadata line `photon trace merge` reads to
    /// learn this shard's pid, trace id and clock offset.
    fn meta_line(&self) -> String {
        format!(
            "{{\"name\":\"process_meta\",\"cat\":\"orchestration\",\"ph\":\"M\",\"ts\":0,\
             \"pid\":{},\"tid\":0,\"args\":{{\"trace_id\":{},\"clock_offset_us\":{}}}}}",
            self.pid, self.trace_id, self.clock_offset_us
        )
    }

    fn summary(&self) -> FlushSummary {
        FlushSummary {
            events_written: self.written,
            events_dropped: self.dropped,
            profile: self.profile.clone(),
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            hists: self.hists.clone(),
        }
    }
}

/// True when the calling thread's recorder is enabled (one relaxed atomic
/// load while none is).
#[inline]
pub fn enabled() -> bool {
    recording(|_, _| ()).is_some()
}

/// Enables the process default recorder with the given sinks and clock.
/// Idempotent per process in normal use; calling again replaces the sink
/// configuration and keeps already-collected data.
pub fn init(config: TraceConfig) -> io::Result<()> {
    default_recorder().init(config)
}

/// Sets this thread's logical actor lane: 0 is the aggregator/driver,
/// `1 + c` is client `c`. Events and spans recorded by the thread carry
/// this lane as their `tid`, and so do those of the threads that enter a
/// [`Scope`] captured here.
pub fn set_actor(actor: u32) {
    SCOPE.with(|scope| scope.borrow_mut().actor = actor);
}

/// Declares this process's identity in a distributed run: the run-wide
/// trace id (derived from the run seed) and the OS pid to stamp on JSONL
/// lines. Until this is called, lines carry `pid: 0` and no metadata line
/// is written — single-process traces keep their historical byte-identical
/// shape. The next [`flush`] after this call writes a `process_meta`
/// metadata line that `photon trace merge` uses to align shards.
pub fn set_process_meta(trace_id: u64, pid: u32) {
    with_current(|recorder| recorder.set_process_meta(trace_id, pid));
}

/// Publishes this process's estimated trace-clock offset from the
/// coordinator's clock (microseconds; positive means the coordinator's
/// clock reads ahead of ours). Clients derive it from the session
/// handshake round trip; `photon trace merge` adds it to every timestamp
/// in this process's shard. No-op until [`set_process_meta`] declares the
/// process.
pub fn set_clock_offset_us(offset_us: i64) {
    with_current(|recorder| recorder.set_clock_offset_us(offset_us));
}

/// An RAII guard that flushes the recorder when dropped, so a process
/// exiting between round flushes (early return, error path, end of main)
/// never loses its final events. Obtain one with [`flush_guard`].
#[must_use = "the guard flushes on drop; binding it to `_` drops it immediately"]
pub struct FlushGuard {
    _private: (),
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        let _ = flush();
    }
}

/// Returns a [`FlushGuard`] that flushes all sinks when dropped.
pub fn flush_guard() -> FlushGuard {
    FlushGuard { _private: () }
}

/// An in-flight span. Records its phase timing (and, for event-emitting
/// phases, a JSONL event) when dropped, into the recorder current on its
/// thread at that moment. Must be dropped on the thread that created it —
/// self-time accounting is thread-local.
#[must_use = "a span records on drop; binding it to `_` ends it immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    phase: Phase,
    name: &'static str,
    ts_us: u64,
    start: Instant,
    sim_dur_us: u64,
    args: [(&'static str, u64); MAX_ARGS],
    nargs: usize,
}

/// Opens a span for `phase`. No-op (and allocation-free) when tracing is
/// disabled.
// A `Span` is 160 bytes. Out of line and returning early, the idle path
// writes the `None` straight into the caller's slot; inlined, or through
// `recording` alone, the span is built aside and copied on every call.
#[inline(never)]
pub fn span(phase: Phase) -> Span {
    if idle() {
        return Span { inner: None };
    }
    Span {
        inner: recording(|recorder, _| recorder.open_span(phase)),
    }
}

impl Span {
    /// Overrides the event name (defaults to the phase name).
    pub fn named(mut self, name: &'static str) -> Self {
        if let Some(inner) = self.inner.as_mut() {
            inner.name = name;
        }
        self
    }

    /// Attaches a numeric arg (builder form; capped at 4 args).
    pub fn arg(mut self, key: &'static str, value: u64) -> Self {
        self.set_arg(key, value);
        self
    }

    /// Attaches a numeric arg after creation (capped at 4 args).
    pub fn set_arg(&mut self, key: &'static str, value: u64) {
        if let Some(inner) = self.inner.as_mut() {
            if inner.nargs < MAX_ARGS {
                inner.args[inner.nargs] = (key, value);
                inner.nargs += 1;
            }
        }
    }

    /// Sets the deterministic simulated duration (µs) this span reports
    /// in Sim-clock traces. Without it, Sim-mode events have `dur: 0`;
    /// measured wall time always feeds the profiler either way.
    pub fn set_sim_dur_us(&mut self, us: u64) {
        if let Some(inner) = self.inner.as_mut() {
            inner.sim_dur_us = us;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = &self.inner else {
            return;
        };
        let elapsed_ns = inner.start.elapsed().as_nanos() as u64;
        let child_ns = CHILD_NS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let child = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent = parent.saturating_add(elapsed_ns);
            }
            child
        });
        let self_ns = elapsed_ns.saturating_sub(child_ns);
        recording(|recorder, actor| recorder.close_span(inner, actor, elapsed_ns, self_ns));
    }
}

/// Records an instantaneous marker event with up to 4 numeric args.
#[inline]
pub fn instant(phase: Phase, name: &'static str, args: &[(&'static str, u64)]) {
    recording(|recorder, actor| recorder.instant(actor, phase, name, args));
}

/// Adds `delta` to the named counter.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    recording(|recorder, _| recorder.with_shard(|data| data.counters.add(name, delta)));
}

/// Sets a named gauge (last write wins; call from the driver thread for
/// deterministic snapshots).
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    recording(|recorder, _| recorder.collector.lock().gauges.insert(name, value));
}

/// Records one sample into the named histogram.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    recording(|recorder, _| {
        recorder.with_shard(|data| data.hists.entry(name).or_default().record(value))
    });
}

/// [`Recorder::drain_now`] on the calling thread's recorder.
pub fn drain_now() -> FlushSummary {
    with_current(|recorder| recorder.drain_now())
}

/// [`Recorder::flush`] on the calling thread's recorder. Called by drivers
/// at every round boundary.
pub fn flush() -> io::Result<FlushSummary> {
    with_current(|recorder| recorder.flush())
}

/// [`Recorder::flush_to_string`] on the calling thread's recorder.
pub fn flush_to_string() -> String {
    with_current(|recorder| recorder.flush_to_string())
}

/// Disables the process default recorder and discards all its state
/// (shards, collector, sinks, sim clock) and the flight ring. A test that
/// needs a recorder builds its own with [`Recorder::start`]; this is for
/// the programs that own the process, between measurement passes, and must
/// not race with spans open on the default recorder.
pub fn reset_for_tests() {
    default_recorder().reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn recorder() -> Arc<Recorder> {
        Recorder::start(TraceConfig::default()).expect("start")
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let off = Arc::new(Recorder::new(false));
        off.scope(|| {
            counter_add("never", 1);
            observe("never_hist", 5);
            let s = span(Phase::Round).arg("round", 1);
            drop(s);
        });
        let summary = off.drain_now();
        assert_eq!(summary.counters.len(), 0);
        assert_eq!(summary.events_written, 0);
        assert!(summary.profile.is_empty());
    }

    #[test]
    fn spans_nest_with_self_time_accounting() {
        let rec = recorder();
        rec.scope(|| {
            set_actor(0);
            crate::set_sim_time_us(1_000_000);
            let mut outer = span(Phase::Round).arg("round", 3);
            {
                let _inner = span(Phase::GuardScreen);
                std::thread::sleep(Duration::from_millis(2));
            }
            outer.set_sim_dur_us(500);
        });
        let text = rec.flush_to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "two span events: {text}");
        // Sorted output: both share ts/actor, guard_screen closed first.
        assert!(lines[0].contains("guard_screen"));
        assert!(lines[1].contains("\"name\":\"round\""));
        assert!(lines[1].contains("\"dur\":500"));
        assert!(lines[1].contains("\"ts\":1000000"));
        let summary = rec.drain_now();
        let round = summary.profile.get(Phase::Round).expect("round stat");
        let guard = summary.profile.get(Phase::GuardScreen).expect("guard stat");
        assert!(guard.total_ns >= 2_000_000);
        assert!(round.total_ns >= guard.total_ns);
        assert!(round.self_ns <= round.total_ns - guard.total_ns + 1_000_000);
    }

    #[test]
    fn counters_and_hists_merge_across_threads() {
        let rec = recorder();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    rec.scope(|| {
                        set_actor(1 + i);
                        counter_add("work.items", 10);
                        observe("work.latency_ns", 1_000 * (i as u64 + 1));
                    })
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        let summary = rec.drain_now();
        assert_eq!(summary.counters.get("work.items"), 40);
        let hist = summary.hists.get("work.latency_ns").expect("hist");
        assert_eq!(hist.count(), 4);
        assert_eq!(hist.max(), 4_000);
    }

    #[test]
    fn kernel_spans_are_profile_only_by_default() {
        let rec = recorder();
        rec.scope(|| {
            drop(span(Phase::KernelGemm));
            drop(span(Phase::PoolDispatch));
        });
        let text = rec.flush_to_string();
        assert!(text.is_empty(), "no kernel events expected: {text}");
        let summary = rec.drain_now();
        assert!(summary.profile.get(Phase::KernelGemm).is_some());
        assert!(summary.profile.get(Phase::PoolDispatch).is_some());
    }

    #[test]
    fn a_full_shard_spills_into_the_collector_in_order() {
        let rec = recorder();
        let n = SHARD_EVENT_CAP as u64 + 1;
        rec.scope(|| (0..n).for_each(|i| instant(Phase::Rollback, "tick", &[("i", i)])));
        assert_eq!(rec.collector.lock().pending.len(), SHARD_EVENT_CAP);
        rec.drain_shards();
        let batch = rec.collector.lock().take_batch();
        let order: Vec<u64> = batch.iter().map(|e| e.args[0].1).collect();
        assert_eq!(
            order,
            (0..n).collect::<Vec<_>>(),
            "sequence spans the spill"
        );
        assert_eq!(rec.drain_now().events_dropped, 0);
    }
}
