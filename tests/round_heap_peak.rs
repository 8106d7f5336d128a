//! A warm round's heap does not grow with its cohort: the update buffers
//! a round decodes results into, folds, screens and aggregates are kept
//! from round to round, so after warm-up the heap's high-water mark rises
//! above the round's starting level by a handful of model-sized buffers
//! (the lanes' in-flight result frames, the shard accumulators), not by
//! one or two per cohort member. Over loopback TCP both ends keep every
//! model-sized buffer, so a warm round allocates none. A count, not a
//! timing: it does not depend on the host's speed (the flat round's rise
//! does depend on how its lanes happen to overlap, so the flat round also
//! counts its large allocations, which do not).
//!
//! One `#[test]` in its own binary: the counting allocator is the
//! process's global allocator and counts every thread (the client lanes
//! included, and both ends of a loopback TCP run).

use photon_core::experiments::build_iid_federation;
use photon_core::{Aggregator, Federation, FederationConfig};
use photon_fedopt::{AggregationKind, GuardConfig};
use photon_net::{run_client, serve, ClientOptions, RunPlan, ServeOptions};
use photon_nn::ModelConfig;
use photon_tests::{scale_cfg, scale_federation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE` has been since it was last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);
/// The least `LIVE` has been since it was last reset.
static FLOOR: AtomicU64 = AtomicU64::new(u64::MAX);
/// Allocations of at least `LARGE_FROM` bytes since it was last set.
static LARGE: AtomicU64 = AtomicU64::new(0);
/// The size from which an allocation counts in `LARGE`; none do until a
/// count starts.
static LARGE_FROM: AtomicU64 = AtomicU64::new(u64::MAX);

/// The system allocator, tracking live bytes, their high-water mark and
/// the large allocations.
/// `realloc` and `alloc_zeroed` keep their default forms, which go through
/// `alloc` and `dealloc`.
struct Counting;

// SAFETY: every request is forwarded to `System` unchanged; the counters
// are statistics that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        if layout.size() as u64 >= LARGE_FROM.load(Ordering::Relaxed) {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let live = LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed) - layout.size() as u64;
        FLOOR.fetch_min(live, Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How far the fourth round of `fed` lifts the heap's high-water mark
/// above the round's starting level, in model-sized buffers (three rounds
/// first, so every buffer a round keeps is in place), and how many
/// allocations of at least half a model's bytes it makes. The rise
/// depends on which buffers happen to be alive at once; the count does
/// not.
fn warm_round_peak_rise(mut fed: Federation) -> (f64, u64) {
    for _ in 0..3 {
        fed.run_round().expect("warm-up round");
    }
    let model_bytes = std::mem::size_of_val(fed.aggregator.params());
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    LARGE.store(0, Ordering::Relaxed);
    LARGE_FROM.store(model_bytes as u64 / 2, Ordering::Relaxed);
    fed.run_round().expect("measured round");
    LARGE_FROM.store(u64::MAX, Ordering::Relaxed);
    let rise = PEAK.load(Ordering::Relaxed) - start;
    (
        rise as f64 / model_bytes as f64,
        LARGE.load(Ordering::Relaxed),
    )
}

/// `sim_tiny_wide`'s shape: 8 `proxy_tiny` clients, trimmed mean, the
/// guard and the compressed link.
fn tiny_wide() -> Federation {
    let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 8);
    cfg.local_steps = 4;
    cfg.local_batch = 4;
    cfg.aggregation = AggregationKind::parse("trimmed-mean").expect("a known rule");
    cfg.guard = GuardConfig {
        zscore_threshold: 1e12,
        ..GuardConfig::on()
    };
    cfg.compress_link = true;
    build_iid_federation(&cfg, 8_192)
        .expect("federation builds")
        .0
}

/// `tcp_large_tau1`'s shape at test size: `serve` and two `run_client`
/// threads over loopback, `proxy_tiny`, τ=1, B=1. Rounds run back to back,
/// so there is no quiet moment to start a count at; instead, over three
/// warm rounds, the live heap's swing — its peak less its lowest level,
/// the rest between two rounds — is what a warm round allocates and frees
/// on both ends together, in model-sized buffers.
fn tcp_round_swing() -> f64 {
    let mut cfg = FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 2);
    cfg.local_steps = 1;
    cfg.local_batch = 1;
    let model_bytes = std::mem::size_of_val(Aggregator::new(cfg.clone()).unwrap().params());
    let port = || {
        TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port()
    };
    let (addr, health) = (format!("127.0.0.1:{}", port()), port());
    let opts = ServeOptions {
        addr: addr.clone(),
        plan: RunPlan {
            cfg,
            tokens_per_client: 4_096,
            rounds: 8,
            faults: None,
        },
        min_clients: 2,
        checkpoint_dir: None,
        resume: false,
        warmup_ms: 0,
        cooldown_ms: 0,
        round_timeout_ms: 20_000,
        heartbeat_timeout_ms: 5_000,
        metrics_json: None,
        stop_after_rounds: None,
        health_port: Some(health),
    };
    let server = std::thread::spawn(move || serve(&opts).expect("serve"));
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let opts = ClientOptions {
                addr: addr.clone(),
                ..ClientOptions::default()
            };
            std::thread::spawn(move || run_client(&opts).expect("client"))
        })
        .collect();
    let give_up = Instant::now() + Duration::from_secs(300);
    let await_commits = |n: u64| {
        while rounds_committed(health).is_none_or(|seen| seen < n) {
            assert!(Instant::now() < give_up, "serve stopped before {n} commits");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    await_commits(4);
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    FLOOR.store(live, Ordering::Relaxed);
    await_commits(7);
    let swing = PEAK.load(Ordering::Relaxed) - FLOOR.load(Ordering::Relaxed);
    server.join().unwrap();
    for client in clients {
        client.join().unwrap();
    }
    swing as f64 / model_bytes as f64
}

/// `rounds_committed` from the coordinator's `GET /health`; `None` while
/// the endpoint is not up.
fn rounds_committed(port: u16) -> Option<u64> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).ok()?;
    stream.write_all(b"GET /health HTTP/1.0\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let key = "\"rounds_committed\": ";
    let at = response.find(key)? + key.len();
    let digits = response[at..].split(|c: char| !c.is_ascii_digit()).next()?;
    digits.parse().ok()
}

#[test]
fn a_warm_rounds_heap_peak_does_not_grow_with_the_cohort() {
    let (tree, _) = warm_round_peak_rise(scale_federation(&scale_cfg(1_000, 256)));
    println!("256-client nano tree: the peak rose by {tree:.1} model-sized buffers");
    let (flat, flat_large) = warm_round_peak_rise(tiny_wide());
    println!(
        "8-client proxy_tiny flat round: the peak rose by {flat:.1} model-sized buffers, \
         in {flat_large} allocation(s) of half a model or more"
    );
    let tcp = tcp_round_swing();
    println!("serve + 2 clients over loopback: a warm round swung by {tcp:.1} model-sized buffers");
    // The tree and TCP bounds are their steady readings plus a margin:
    // 12.3 + 1.7 and 0.1 + 0.9. The flat rise depends on how the lanes'
    // in-flight result frames overlap (3.0 to 6.0 run to run on one to
    // four lanes), so its bound stays where it was; its count of large
    // allocations does not (29 on every run at any thread budget), so
    // that is bounded at its reading and sees one buffer more.
    assert!(
        tree < 14.0,
        "a warm 256-client tree round lifted the heap peak by {tree:.1} model-sized buffers: \
         something per client is allocated each round instead of reused"
    );
    assert!(
        flat < 8.0,
        "a warm 8-client flat round lifted the heap peak by {flat:.1} model-sized buffers, \
         as many as its cohort"
    );
    assert!(
        flat_large <= 29,
        "a warm 8-client flat round made {flat_large} allocations of half a model or more, \
         above its 29: a buffer the round used to keep is allocated each round"
    );
    assert!(
        tcp < 1.0,
        "a warm loopback TCP round swung the heap by {tcp:.1} model-sized buffers: a frame, \
         a decoded broadcast or update, or the aggregate is allocated each round"
    );
}
