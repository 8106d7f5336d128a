//! CRC-pass census: a simulated round verifies every frame it receives
//! exactly once. An N-client cohort shares one broadcast frame (checked
//! and decoded once, before the lanes start) and returns N result frames
//! (each checked inside the simulated Link's retransmit loop, which runs
//! on the client's lane right after it seals its result, and decoded from
//! that proof on the same lane), so a clean round still runs N + 1
//! payload verifications — not the 3 N of N broadcast copies plus every
//! result checked twice.
//!
//! Each pass is a profile-only `crc_check` span, and the census reads the
//! spans of the recorder its round runs in. So it counts that round's
//! passes only: a sibling federation training beside it, on the process
//! default recorder, adds none, and the census shares its process with
//! any other test.

use photon_core::experiments::build_iid_federation;
use photon_core::{CoreError, FaultPlan, FaultSpec, Federation, RoundRecord};
use photon_tests::tiny_federation;
use photon_trace::{Phase, Recorder, TraceConfig};
use std::sync::atomic::{AtomicBool, Ordering};

const CLIENTS: usize = 6;

/// Runs `fed`'s next round in a recorder of its own and returns the
/// round with the payload CRC passes that recorder counted.
fn census(fed: &mut Federation, injector: &FaultPlan) -> Result<(RoundRecord, u64), CoreError> {
    let recorder = Recorder::start(TraceConfig::default()).expect("a sinkless recorder starts");
    let record = recorder.scope(|| fed.run_round_with(Some(injector)))?;
    let summary = recorder.drain_now();
    let passes = summary.profile.get(Phase::CrcCheck).map_or(0, |s| s.count);
    Ok((record, passes))
}

#[test]
fn a_round_verifies_each_received_frame_once() {
    let mut cfg = tiny_federation(CLIENTS);
    cfg.allow_partial_results = true;
    let (mut fed, _) = build_iid_federation(&cfg, 3_000).expect("federation builds");
    let (mut sibling, _) = build_iid_federation(&tiny_federation(2), 3_000).expect("builds");
    // Round 0 is clean; in round 1 the first transmission of client 2's
    // result arrives corrupted.
    let spec = FaultSpec::parse("corrupt:1@r1c2,seed=3").expect("fault spec parses");
    let injector = spec.plan(CLIENTS, 2);

    let stop = AtomicBool::new(false);
    let (clean, faulted) = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                sibling.run_round().expect("sibling round");
            }
        });
        let clean = census(&mut fed, &injector);
        let faulted = census(&mut fed, &injector);
        stop.store(true, Ordering::Relaxed);
        (clean, faulted)
    });

    let (clean, passes) = clean.expect("round 0");
    assert_eq!(clean.retransmits, 0);
    assert_eq!(passes, CLIENTS as u64 + 1);

    // The corrupted attempt is still verified — that is how it fails —
    // and the retransmission is verified in its place: one pass more.
    let (faulted, passes) = faulted.expect("round 1");
    assert_eq!(faulted.retransmits, 1, "the bad attempt is re-requested");
    assert_eq!(faulted.dropouts, 0, "and the clean copy is aggregated");
    assert_eq!(passes, CLIENTS as u64 + 2);
}
