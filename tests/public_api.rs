//! The public API is pinned: every `pub fn` in the non-test code of
//! `crates/*/src` that no non-test code calls is listed below with the
//! reason it stays. `pub` means something outside the crate names the
//! item; a function only tests call is test-only API, and this list is
//! where it is declared. A new one fails this test until it gets a caller
//! or a row here, and a row fails once its function has a caller or is
//! gone, so the list can only shrink.
//!
//! Non-test code is every crate's `src` and `benches` and `examples`, the
//! root `examples/` and `benchmark/src`, each up to its first top-level
//! `#[cfg(test)]`. A function is called when its name appears there as a
//! value: not as its own declaration, a field, or inside a comment, a
//! string literal or a `use`. The scan matches names, so a function that
//! shares its name with anything called elsewhere counts as called.

use photon_tests::{crate_sources, non_test_lines, rust_files, workspace_root};
use std::collections::HashSet;

/// `(file under crates/, function, why it stays public with no caller)`.
const PINNED: &[(&str, &str, &str)] = &[
    (
        "photon-cluster/src/autotune.rs",
        "is_viable",
        "only the autotune unit tests, `photon-cluster/tests/proptests.rs` and `tests/pipeline_integration.rs` check a result with it",
    ),
    (
        "photon-cluster/src/hardware.rs",
        "a100",
        "a Table 1 GPU preset only `photon-cluster/tests/proptests.rs` and the hardware unit tests build",
    ),
    (
        "photon-cluster/src/hardware.rs",
        "rtx4090",
        "a consumer-GPU preset only `photon-cluster/tests/proptests.rs` and the cluster unit tests build",
    ),
    (
        "photon-cluster/src/regions.rs",
        "uniform",
        "a flat latency matrix only the regions unit tests build",
    ),
    (
        "photon-comms/src/collective.rs",
        "bytes_sent",
        "only `tests/walltime_consistency.rs` and the collective unit tests read it, to hold the ring to the analytic byte count",
    ),
    (
        "photon-comms/src/message.rs",
        "to_frame",
        "the default-options frame builder; only the photon-comms, photon-net and `tests/pipeline_integration.rs` tests call it",
    ),
    (
        "photon-comms/src/topology.rs",
        "bytes_on_wire",
        "the analytic byte count `tests/walltime_consistency.rs` and `photon-comms/tests/proptests.rs` hold the collectives to",
    ),
    (
        "photon-comms/src/walltime.rs",
        "round_time_overlapped",
        "ROADMAP item 1's overlap model; only `overlap_hides_communication_behind_compute` calls it",
    ),
    (
        "photon-comms/src/wire.rs",
        "decode_frame",
        "the one-shot frame decoder the wire fuzzers and proptests drive",
    ),
    (
        "photon-comms/src/wire.rs",
        "encode_frame",
        "the one-shot frame encoder the photon-comms proptests and unit tests drive",
    ),
    (
        "photon-core/src/aggregator.rs",
        "build_federation",
        "the plain federation builder; only photon-core unit tests and `photon-net/tests/loopback.rs` call it",
    ),
    (
        "photon-core/src/ddp.rs",
        "ddp_train",
        "the fresh-optimizer DDP entry point the ddp and client unit tests run; the client drives `run_replicas` itself",
    ),
    (
        "photon-core/src/hierarchy.rs",
        "live_count",
        "only `photon-core/tests/proptests.rs` and the hierarchy unit tests count live shards",
    ),
    (
        "photon-core/src/telemetry.rs",
        "fault_counters",
        "the run's fault counters as one value; the chaos, guard and observability tests read them",
    ),
    (
        "photon-fedopt/src/buffer.rs",
        "late_drops",
        "only the streaming-merge unit tests read the late-drop count",
    ),
    (
        "photon-fedopt/src/buffer.rs",
        "staleness_weights",
        "the normalized staleness weights `photon-fedopt/tests/proptests.rs` and the buffer unit tests check",
    ),
    (
        "photon-nn/src/model.rs",
        "pos_encoding",
        "only `tests/architecture_variants.rs` and the model unit tests read a model's positional scheme",
    ),
    (
        "photon-optim/src/schedule.rs",
        "stretch_for_batch",
        "only `photon-optim/tests/proptests.rs` and the schedule unit tests stretch a schedule",
    ),
    (
        "photon-tensor/src/backend/mod.rs",
        "portable",
        "the portable kernels on any host; the backend-parity and GEMM property tests hold the active backend to them",
    ),
    (
        "photon-tensor/src/ops/elementwise.rs",
        "add_inplace",
        "only `photon-tensor/tests/proptests.rs` and the elementwise unit tests call it",
    ),
    (
        "photon-tensor/src/ops/reduce.rs",
        "max_abs_diff",
        "only `photon-tensor/tests/proptests.rs` and the reduce unit tests call it",
    ),
    (
        "photon-tensor/src/ser.rs",
        "write_bf16_slice",
        "the writer of the bf16 form `read_bf16_slice` decodes; only the ser unit tests call it",
    ),
    (
        "photon-tokenizer/src/bpe.rs",
        "merge_count",
        "only `tests/pipeline_integration.rs` and the bpe unit tests read it",
    ),
    (
        "photon-trace/src/sink.rs",
        "lint_prometheus",
        "the exposition-format checker the observability, distributed-trace and loopback tests run on `/metrics`",
    ),
];

/// The identifiers of `line`, in order.
fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|word| !word.is_empty())
}

/// The names of the `pub fn`s declared in the non-test code of `source`.
fn pub_fns(source: &str) -> Vec<String> {
    non_test_lines(source)
        .filter_map(|line| {
            let rest = line.trim_start().strip_prefix("pub ")?;
            let rest = rest.strip_prefix("const ").unwrap_or(rest);
            let rest = rest.strip_prefix("unsafe ").unwrap_or(rest);
            idents(rest.strip_prefix("fn ")?).next().map(str::to_string)
        })
        .collect()
}

/// Adds to `called` every name the non-test code of `source` uses as a
/// value: every identifier except the name a `fn` declares, a field (a
/// `.name` not called, or a `name:` in a struct), and what sits in a
/// comment, a string literal or a `use` declaration.
fn note_calls(source: &str, called: &mut HashSet<String>) {
    let mut in_use = false;
    let mut in_str = false;
    for line in non_test_lines(source) {
        let item = line.trim_start();
        let item = item.strip_prefix("pub(crate) ").unwrap_or(item);
        let item = item.strip_prefix("pub ").unwrap_or(item);
        if !in_str && (in_use || item.starts_with("use ")) {
            in_use = !line.contains(';');
            continue;
        }
        note_line(line, &mut in_str, called);
    }
}

/// [`note_calls`] for one line; `in_str` carries an open string literal
/// from line to line.
fn note_line(line: &str, in_str: &mut bool, called: &mut HashSet<String>) {
    let b = line.as_bytes();
    let is_word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let next_code = |from: usize| b[from..].iter().copied().find(|c| !c.is_ascii_whitespace());
    let (mut i, mut last_punct, mut after_fn) = (0, b' ', false);
    while i < b.len() {
        let c = b[i];
        if *in_str {
            match c {
                b'\\' => i += 1,
                b'"' => *in_str = false,
                _ => {}
            }
            i += 1;
        } else if c == b'"' {
            *in_str = true;
            i += 1;
        } else if line[i..].starts_with("//") {
            return;
        } else if line[i..].starts_with("'\"'") {
            i += 3;
        } else if is_word(c) {
            let start = i;
            while i < b.len() && is_word(b[i]) {
                i += 1;
            }
            let word = &line[start..i];
            let next = next_code(i);
            let path = line[i..].trim_start().starts_with("::");
            let field = (last_punct == b'.' && next != Some(b'(') && !path)
                || (next == Some(b':') && !path);
            if !after_fn && !field && !c.is_ascii_digit() {
                called.insert(word.to_string());
            }
            after_fn = word == "fn";
            last_punct = b' ';
        } else {
            if !c.is_ascii_whitespace() {
                last_punct = c;
            }
            i += 1;
        }
    }
}

#[test]
fn uncalled_public_functions_are_pinned() {
    let root = workspace_root();
    let mut called = HashSet::new();
    for sub in ["src", "benches", "examples"] {
        for (_, source) in crate_sources(sub) {
            note_calls(&source, &mut called);
        }
    }
    for dir in ["examples", "benchmark/src"] {
        for file in rust_files(&root.join(dir)) {
            let source = std::fs::read_to_string(file).expect("readable source");
            note_calls(&source, &mut called);
        }
    }
    let mut found: Vec<(String, String)> = Vec::new();
    for (file, source) in crate_sources("src") {
        found.extend(
            pub_fns(&source)
                .into_iter()
                .filter(|name| !called.contains(name))
                .map(|name| (file.clone(), name)),
        );
    }
    found.sort();
    let mut pinned: Vec<(String, String)> = PINNED
        .iter()
        .map(|(file, name, _)| (file.to_string(), name.to_string()))
        .collect();
    pinned.sort();
    assert!(PINNED.iter().all(|(_, _, why)| !why.is_empty()));
    assert_eq!(
        found, pinned,
        "uncalled public functions changed: give the function a caller, make \
         it crate-private and let the compiler judge it, or pin it here with \
         its reason"
    );
}

#[test]
fn the_scanner_sees_methods_and_free_functions_and_skips_test_code() {
    let source = "\
pub fn free(x: u32) -> u32 {
    x
}
impl Thing {
    pub fn method(&self) {}
    pub const fn constant() -> u8 {
        0
    }
    pub(crate) fn internal(&self) {
        free(1);
    }
    fn private() {}
}
#[cfg(test)]
pub fn in_tests() {
    Thing::constant();
}
";
    assert_eq!(pub_fns(source), ["free", "method", "constant"]);
    let mut called = HashSet::new();
    note_calls(source, &mut called);
    // A declaration is not a call, a call is, and test code calls nothing.
    assert!(called.contains("free"));
    assert!(!called.contains("method"));
    assert!(!called.contains("internal"));
    assert!(!called.contains("constant"));
}

#[test]
fn comments_strings_fields_and_uses_are_not_calls() {
    let source = "\
use crate::module::{
    imported,
};
pub use crate::module::reexported;
// commented() would not run
/// Documents [`documented`].
struct Counter {
    field: u64,
}
fn caller(c: &mut Counter) {
    invoked(\"quoted \\\" still_quoted\", Counter { field: 0 });
    c.field += 1; // trailing()
    c.method_call();
    Type::path_ref;
}
";
    let mut called = HashSet::new();
    note_calls(source, &mut called);
    for name in [
        "imported",
        "reexported",
        "commented",
        "documented",
        "quoted",
        "still_quoted",
        "field",
        "trailing",
    ] {
        assert!(!called.contains(name), "{name}");
    }
    for name in ["invoked", "method_call", "path_ref", "Counter"] {
        assert!(called.contains(name), "{name}");
    }
}
