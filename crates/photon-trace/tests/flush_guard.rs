//! Regression tests for the flush-on-drop guard and the flight recorder:
//! a process that aborts a round mid-way (early return, error path) and
//! never reaches its round-boundary flush must still leave every
//! recorded event on disk, as complete lines.

use photon_trace::{
    flight_dump, flight_init, flush, flush_guard, init, instant, reset_for_tests, set_actor,
    set_sim_time_us, set_trace_scope, span, Phase, Recorder, TraceConfig,
};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("photon-fg-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn guard_flushes_partial_round_on_drop() {
    let dir = scratch("guard");
    let path = dir.join("trace.jsonl");
    let recorder = Recorder::start(TraceConfig {
        jsonl: Some(path.clone()),
        ..TraceConfig::default()
    })
    .expect("start");
    recorder.scope(|| {
        let _guard = flush_guard();
        set_actor(0);
        set_sim_time_us(1_000);
        // A partial round: the span closes but the driver aborts before
        // its round-boundary flush() call.
        let mut s = span(Phase::Round).arg("round", 0);
        s.set_sim_dur_us(500);
        drop(s);
        instant(Phase::Rollback, "abort_marker", &[("round", 0)]);
        // No explicit flush: the guard drop below is the only flush.
    });
    let text = std::fs::read_to_string(&path).expect("trace file");
    assert!(
        text.lines().any(|l| l.contains("\"name\":\"round\"")),
        "round span missing: {text}"
    );
    assert!(
        text.lines().any(|l| l.contains("abort_marker")),
        "abort marker missing: {text}"
    );
    // Every line is complete JSON-shaped (balanced braces, newline-terminated).
    assert!(text.ends_with('\n'));
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "torn: {line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The one test on the process default recorder, the recorder the CLI
/// arms; nothing else in this binary touches it.
#[test]
fn flight_dump_carries_unflushed_final_round() {
    reset_for_tests();
    let dir = scratch("flight");
    let flight_path = dir.join("flight-self.jsonl");
    init(TraceConfig::default()).expect("init");
    flight_init(&flight_path);
    set_trace_scope(0xfeed, 0);
    set_actor(0);
    // Round 0 reaches its flush (lands in the ring)...
    set_sim_time_us(1_000);
    drop(span(Phase::Round).arg("round", 0));
    flush().expect("flush");
    // ...round 1 is cut down before any flush.
    set_sim_time_us(2_000);
    drop(span(Phase::Round).arg("round", 1));
    instant(Phase::CoordRestart, "killed_here", &[]);
    let written = flight_dump().expect("dump").expect("armed");
    assert_eq!(written, flight_path);
    let text = std::fs::read_to_string(&flight_path).expect("flight file");
    // Metadata line first, and every line stamped with the process pid.
    assert!(text.lines().next().unwrap().contains("process_meta"));
    assert!(text.contains(&format!("\"pid\":{},", std::process::id())));
    // Both the flushed round and the unflushed final round are present.
    assert!(
        text.contains("\"ts\":1000,"),
        "flushed round missing: {text}"
    );
    assert!(text.contains("\"ts\":2000,"), "final round missing: {text}");
    assert!(text.contains("killed_here"));
    // The dump was non-consuming: the final round still flushes normally.
    let summary = flush().expect("post-dump flush");
    assert!(summary.events_written >= 3);
    reset_for_tests();
    let _ = std::fs::remove_dir_all(&dir);
}
