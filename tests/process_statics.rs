//! Process-global mutable state is pinned: every `static` with interior
//! mutability (`Atomic*`, `Mutex`, `RwLock`, `OnceLock`) in the non-test
//! code of `crates/*/src` is listed below with the reason it is process
//! wide. A new one fails this test until it is added here with its reason,
//! and a removed one until its row goes.

use photon_tests::{crate_sources, non_test_lines};

/// `(file under crates/, static, why it is one per process)`.
const PINNED: &[(&str, &str, &str)] = &[
    (
        "photon-comms/src/wire.rs",
        "CRC_PASSES",
        "a statistic of payload CRC passes, read only as differences",
    ),
    (
        "photon-tensor/src/ops/pool.rs",
        "OVERRIDE",
        "the --threads budget, set once before the pool starts",
    ),
    (
        "photon-tensor/src/ops/pool.rs",
        "ENV_THREADS",
        "PHOTON_THREADS, read once",
    ),
    (
        "photon-tensor/src/ops/pool.rs",
        "POOL",
        "the worker threads every kernel dispatches to, spawned once",
    ),
    (
        "photon-trace/src/recorder.rs",
        "ENABLED_RECORDERS",
        "the one load a call site pays while no recorder records",
    ),
    (
        "photon-trace/src/recorder.rs",
        "DEFAULT",
        "the recorder of a thread with no scope: the program's own",
    ),
];

const INTERIOR: [&str; 4] = ["Atomic", "Mutex", "RwLock", "OnceLock"];

/// The interior-mutable statics declared in `source` ahead of its first
/// top-level `#[cfg(test)]` (the non-test code, as the line counts take
/// it).
fn mutable_statics(source: &str) -> Vec<String> {
    non_test_lines(source)
        .filter_map(|line| {
            let rest = line.trim_start();
            let rest = rest.strip_prefix("pub ").unwrap_or(rest);
            let rest = rest.strip_prefix("pub(crate) ").unwrap_or(rest);
            let (name, ty) = rest.strip_prefix("static ")?.split_once(':')?;
            let ty = ty.split('=').next().unwrap_or(ty);
            INTERIOR
                .iter()
                .any(|kind| ty.contains(kind))
                .then(|| name.trim().to_string())
        })
        .collect()
}

#[test]
fn process_global_mutable_statics_are_pinned() {
    let mut found: Vec<(String, String)> = Vec::new();
    for (file, source) in crate_sources("src") {
        found.extend(
            mutable_statics(&source)
                .into_iter()
                .map(|n| (file.clone(), n)),
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
        "process-global mutable statics changed: design the state into its \
         owner, or pin it here with its reason"
    );
}

#[test]
fn the_scanner_sees_each_interior_kind_and_skips_test_code() {
    let source = "\
static A: AtomicU64 = AtomicU64::new(0);
pub(crate) static B: Mutex<Option<u8>> = Mutex::new(None);
pub static C: OnceLock<u8> = OnceLock::new();
static D: parking_lot::RwLock<u8> = parking_lot::RwLock::new(0);
static TABLE: [u32; 4] = [0; 4];
thread_local! {
    static E: Cell<u64> = const { Cell::new(0) };
}
#[cfg(test)]
static F: AtomicU64 = AtomicU64::new(0);
";
    assert_eq!(mutable_statics(source), ["A", "B", "C", "D"]);
}
