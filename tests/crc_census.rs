//! CRC-pass census: a simulated round verifies every frame it receives
//! exactly once. An N-client cohort shares one broadcast frame (checked
//! and decoded once, before the lanes start) and returns N result frames
//! (each checked inside the Link's retransmit loop and decoded from that
//! proof), so a clean round runs N + 1 payload verifications — not the
//! 3 N of N broadcast copies plus every result checked twice.
//!
//! One `#[test]` in its own binary: `photon_comms::crc_passes` counts the
//! whole process, so a sibling test's frames would land in the census.

use photon_comms::crc_passes;
use photon_core::experiments::build_iid_federation;
use photon_core::FaultSpec;
use photon_tests::tiny_federation;

const CLIENTS: usize = 6;

#[test]
fn a_round_verifies_each_received_frame_once() {
    let mut cfg = tiny_federation(CLIENTS);
    cfg.allow_partial_results = true;
    let (mut fed, _) = build_iid_federation(&cfg, 3_000).expect("federation builds");
    // Round 0 is clean; in round 1 the first transmission of client 2's
    // result arrives corrupted.
    let spec = FaultSpec::parse("corrupt:1@r1c2,seed=3").expect("fault spec parses");
    let injector = spec.plan(CLIENTS, 2);

    let before = crc_passes();
    let clean = fed.run_round_with(Some(&injector)).expect("round 0");
    assert_eq!(clean.retransmits, 0);
    assert_eq!(crc_passes() - before, CLIENTS as u64 + 1);

    // The corrupted attempt is still verified — that is how it fails —
    // and the retransmission is verified in its place: one pass more.
    let before = crc_passes();
    let faulted = fed.run_round_with(Some(&injector)).expect("round 1");
    assert_eq!(faulted.retransmits, 1, "the bad attempt is re-requested");
    assert_eq!(faulted.dropouts, 0, "and the clean copy is aggregated");
    assert_eq!(crc_passes() - before, CLIENTS as u64 + 2);
}
