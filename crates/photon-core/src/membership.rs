//! Deterministic elastic membership: the roster of clients the aggregator
//! believes exist, with lease-based liveness.
//!
//! Photon's cross-silo setting assumes clients "can be sporadically
//! available throughout a full training cycle" (§2.1) — not merely
//! crashing, but permanently leaving and *newly arriving* mid-run. The
//! [`MembershipRegistry`] replaces the fixed, enumerated population with a
//! lease state machine driven entirely by the seeded fault plan and the
//! simulated walltime clock ([`photon_comms::SimClock`]), so every
//! membership decision is a pure function of `(config, fault seed, round)`
//! and replays bit-identically — including across a checkpoint restore.
//!
//! The lease state machine per member:
//!
//! ```text
//!            join / founding                 leave (permanent)
//!   ──────────────► Active ──────────────────► Departed
//!                   ▲    │ lease lapses (missed
//!     warm rejoin   │    │  heartbeats past lease_ms)
//!     (crash-free   │    ▼
//!      round)       └─ Expired ────────────────► Departed
//!                                 leave
//! ```
//!
//! Heartbeats are implicit: a client that is not scheduled to crash this
//! round renews its lease to `now + lease_ms`. A client crashing for
//! enough consecutive rounds that simulated time passes its lease expiry
//! is *expired* — dropped from the live roster until a crash-free round
//! lets it re-handshake (`Hello`/`LeaseGrant`) and warm-rejoin.
//!
//! Storage is flat arrays (ids are dense), and a round pays only for what
//! changed — the members lapsing and this round's churn and crashes — never
//! for the active roster: every heartbeating member holds the one lease the
//! registry renews for all of them at once ([`MembershipRegistry`]).

use crate::faults::{FaultEvent, FaultPlan};
use photon_comms::SimClock;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Knobs for the elastic membership runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MembershipConfig {
    /// Liveness lease duration in simulated milliseconds: a member that
    /// misses heartbeats for longer than this is expired from the roster.
    pub lease_ms: u64,
    /// Simulated duration of one federated round (drives the
    /// [`SimClock`]).
    pub round_ms: u64,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            lease_ms: 3_000,
            round_ms: 1_000,
        }
    }
}

impl MembershipConfig {
    /// Checks parameter consistency.
    ///
    /// # Errors
    /// Returns a description of the inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.round_ms == 0 {
            return Err("membership round_ms must be positive".into());
        }
        if self.lease_ms < self.round_ms {
            return Err(format!(
                "lease_ms {} shorter than one round ({} ms): every member \
                 would expire before it could renew",
                self.lease_ms, self.round_ms
            ));
        }
        Ok(())
    }

    /// The clock this membership configuration runs on.
    pub fn clock(&self) -> SimClock {
        SimClock::new(self.round_ms)
    }
}

/// Where a member is in the lease state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemberPhase {
    /// Holding a valid lease; eligible for cohort sampling.
    Active,
    /// Lease lapsed (missed heartbeats); sits out until a warm rejoin.
    Expired,
    /// Permanently left the federation; never returns.
    Departed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Member {
    birth_round: u64,
    /// The member's own lease. An active member that is not lapsing holds
    /// the later of this and the registry's shared `renewed` lease
    /// ([`MembershipRegistry::lease_of`]); everyone else holds this.
    lease_expires_ms: u64,
    phase: MemberPhase,
    /// Missed its last heartbeat: its lease stopped moving at
    /// `lease_expires_ms` and it sits in the expiry heap.
    lapsing: bool,
}

/// The membership changes one round produced, in the order they were
/// applied (joins → leaves → rejoins → expiries).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnEvents {
    /// Brand-new clients admitted this round (warm join).
    pub joined: Vec<u32>,
    /// Members that permanently departed this round.
    pub departed: Vec<u32>,
    /// Members whose lease lapsed this round.
    pub expired: Vec<u32>,
    /// Previously-expired members that warm-rejoined this round.
    pub rejoined: Vec<u32>,
}

impl ChurnEvents {
    /// Whether the round changed the roster at all.
    pub fn is_empty(&self) -> bool {
        self.joined.is_empty()
            && self.departed.is_empty()
            && self.expired.is_empty()
            && self.rejoined.is_empty()
    }
}

/// A serializable image of the registry, carried by the checkpoint so a
/// restore resumes with the exact roster the crashed run had.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MembershipSnapshot {
    /// The membership configuration the registry ran under.
    pub config: MembershipConfig,
    /// Next id to assign to a joining client.
    pub next_id: u32,
    /// Every member ever admitted: `(id, birth_round, lease_expires_ms,
    /// phase as u8: 0 = Active, 1 = Expired, 2 = Departed)`.
    pub members: Vec<(u32, u64, u64, u8)>,
}

/// The aggregator's membership registry: who exists, who is live, and who
/// may be sampled this round.
///
/// Ids are dense by construction — founding members are `0..population`
/// and every join takes the next id — so members live in a `Vec` indexed
/// by id, and the live roster is a sorted id vector the registry lends out
/// as a slice (`live_roster`).
///
/// What a round costs: [`MembershipRegistry::begin_round`] is
/// O(lapsing + churn + this round's crashes), with no term that grows with
/// the active roster. Every member that heartbeats gets the same lease,
/// `now + lease_ms`, so renewal is one store into the shared `renewed`
/// lease; a member's own lease is written only when it crashes (it keeps
/// the lease it held and starts lapsing), when a lapsing member heartbeats
/// again, and when it joins, rejoins or departs. Expiries come off a
/// min-heap, and a round that changed the rosters at all (departures,
/// rejoins, expiries) rebuilds them in one merge pass, worst case
/// O(active + changes) — never a `Vec::insert`/`remove` per change.
/// Sampling borrows the roster, so the cohort draw is O(cohort). Departed
/// members are never touched again.
#[derive(Debug, Clone)]
pub struct MembershipRegistry {
    cfg: MembershipConfig,
    clock: SimClock,
    /// Every member ever admitted, indexed by id.
    members: Vec<Member>,
    /// Ids in [`MemberPhase::Active`], ascending — the live roster and the
    /// renewal pass's universe.
    active: Vec<u32>,
    /// Ids in [`MemberPhase::Expired`], ascending — the rejoin scan's
    /// universe.
    expired: Vec<u32>,
    /// The lease every active, non-lapsing member shares: the last
    /// round's `now + lease_ms` (0 before the first round of a founded or
    /// restored registry, whose members all hold their own).
    renewed: u64,
    /// Ids of the lapsing members, in no order — the heartbeat scan's
    /// universe. May also hold ids that have since expired or departed;
    /// the next scan drops them.
    lapsing: Vec<u32>,
    /// Lazy lease-expiry min-heap over `(lease_expires_ms, id)`. An entry
    /// is pushed when a member starts lapsing (its lease then stops
    /// moving), and validated against the member's current lease on pop —
    /// stale entries (renewed or already-expired members) are discarded.
    /// A member can only expire on a round it also crashes (renewal
    /// precedes the expiry check), so crash-time pushes cover every
    /// expiry, including replays after a checkpoint restore.
    expiry_heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl PartialEq for MembershipRegistry {
    fn eq(&self, other: &Self) -> bool {
        // The rosters are derived state (and the lazy heap and the shared
        // lease admit many equivalent shapes); logical equality is the
        // member table as a snapshot reads it.
        self.cfg == other.cfg && self.snapshot().members == other.snapshot().members
    }
}

impl Eq for MembershipRegistry {}

/// `roster` with `added` merged in (both ascending, disjoint), minus every
/// id that has left `phase`: one pass, O(roster + added).
fn remerge(members: &[Member], roster: &[u32], added: &[u32], phase: MemberPhase) -> Vec<u32> {
    let mut out = Vec::with_capacity(roster.len() + added.len());
    let mut added = added.iter().copied().peekable();
    for &id in roster {
        if members[id as usize].phase == phase {
            out.extend(std::iter::from_fn(|| added.next_if(|&a| a < id)));
            out.push(id);
        }
    }
    out.extend(added);
    out
}

impl MembershipRegistry {
    /// Founds a registry with `population` members, all active with leases
    /// granted at round 0.
    ///
    /// # Panics
    /// Panics if the config fails [`MembershipConfig::validate`] or the
    /// population is empty.
    pub fn new(cfg: MembershipConfig, population: usize) -> Self {
        cfg.validate().expect("invalid membership config");
        assert!(population > 0, "cannot found an empty federation");
        let clock = cfg.clock();
        let founder = Member {
            birth_round: 0,
            lease_expires_ms: clock.now_ms(0) + cfg.lease_ms,
            phase: MemberPhase::Active,
            lapsing: false,
        };
        MembershipRegistry {
            cfg,
            clock,
            members: vec![founder; population],
            active: (0..population as u32).collect(),
            expired: Vec::new(),
            renewed: 0,
            lapsing: Vec::new(),
            expiry_heap: BinaryHeap::new(),
        }
    }

    /// The lease `m` holds: the shared one or its own, whichever is later,
    /// while it is active and heartbeating; its own otherwise.
    fn lease_of(&self, m: &Member) -> u64 {
        if m.phase == MemberPhase::Active && !m.lapsing {
            m.lease_expires_ms.max(self.renewed)
        } else {
            m.lease_expires_ms
        }
    }

    /// The registry's configuration.
    pub fn config(&self) -> MembershipConfig {
        self.cfg
    }

    /// Total ids ever assigned (founding members plus every join). Client
    /// id and roster index coincide, so this is also the size the client
    /// vector must be provisioned to.
    pub fn roster_len(&self) -> usize {
        self.members.len()
    }

    /// Applies one round of membership churn, in deterministic order:
    /// scheduled joins, then permanent leaves, then warm rejoins of
    /// expired members (a crash-free round re-handshakes), then heartbeat
    /// lease renewals (a member scheduled to crash misses its heartbeat),
    /// then lease-expiry checks against the simulated clock. Phases change
    /// as each step decides them; the rosters catch up in one merge pass
    /// at the end.
    pub fn begin_round(&mut self, round: u64, injector: Option<&FaultPlan>) -> ChurnEvents {
        let now = self.clock.now_ms(round);
        let lease = now + self.cfg.lease_ms;
        let mut events = ChurnEvents::default();

        if let Some(inj) = injector {
            for _ in 0..inj.joins_at(round) {
                let id = self.members.len() as u32;
                self.members.push(Member {
                    birth_round: round,
                    lease_expires_ms: lease,
                    phase: MemberPhase::Active,
                    lapsing: false,
                });
                // The newest id is the largest: the roster stays sorted.
                self.active.push(id);
                events.joined.push(id);
            }
            for id in inj.at(FaultEvent::Leave, round) {
                let Some(&m) = self.members.get(id as usize) else {
                    continue;
                };
                if m.phase != MemberPhase::Departed {
                    // It leaves with the lease it held.
                    self.members[id as usize] = Member {
                        lease_expires_ms: self.lease_of(&m),
                        phase: MemberPhase::Departed,
                        lapsing: false,
                        ..m
                    };
                    events.departed.push(id);
                }
            }
        }

        // This round's crashes, ascending.
        let crashes = injector.map_or_else(Vec::new, |inj| inj.crashes_at(round));
        let crashed = |id: u32| crashes.binary_search(&id).is_ok();
        // Warm rejoins: O(expired), ascending id.
        for &id in &self.expired {
            let m = &mut self.members[id as usize];
            if m.phase == MemberPhase::Expired && !crashed(id) {
                m.phase = MemberPhase::Active;
                m.lease_expires_ms = lease;
                events.rejoined.push(id);
            }
        }
        // Heartbeats: a lapsing member that heartbeats takes this round's
        // lease as its own and stops lapsing; one that crashes again keeps
        // lapsing. O(lapsing).
        let members = &mut self.members;
        self.lapsing.retain(|&id| {
            let m = &mut members[id as usize];
            if m.phase != MemberPhase::Active || !m.lapsing {
                return false; // expired or departed since it started lapsing
            }
            if crashed(id) {
                return true;
            }
            m.lapsing = false;
            m.lease_expires_ms = lease;
            false
        });
        // A heartbeating member that crashes misses its heartbeat: it keeps
        // the lease it holds — stored as its own, since the shared one
        // moves on below — and enters the expiry heap with it. O(crashes).
        for &id in &crashes {
            let Some(&m) = self.members.get(id as usize) else {
                continue;
            };
            if m.phase == MemberPhase::Active && !m.lapsing {
                let held = self.lease_of(&m);
                self.members[id as usize] = Member {
                    lease_expires_ms: held,
                    lapsing: true,
                    ..m
                };
                self.lapsing.push(id);
                self.expiry_heap.push(Reverse((held, id)));
            }
        }
        // Every other active member heartbeats: one store renews them all.
        self.renewed = lease;
        // Lease expiries: O(expiring), off the heap instead of a full
        // scan. Entries whose lease no longer matches (the member renewed,
        // already expired, or departed since the push) are stale and
        // discarded.
        while let Some(&Reverse((expires_ms, id))) = self.expiry_heap.peek() {
            if expires_ms >= now {
                break;
            }
            self.expiry_heap.pop();
            let m = self.members[id as usize];
            if m.phase == MemberPhase::Active && self.lease_of(&m) == expires_ms {
                self.members[id as usize] = Member {
                    phase: MemberPhase::Expired,
                    lapsing: false,
                    ..m
                };
                events.expired.push(id);
            }
        }
        // Expiries are reported in ascending id order; the heap yields
        // (lease, id) order.
        events.expired.sort_unstable();

        if !(events.departed.is_empty() && events.rejoined.is_empty() && events.expired.is_empty())
        {
            let m = &self.members;
            self.active = remerge(m, &self.active, &events.rejoined, MemberPhase::Active);
            self.expired = remerge(m, &self.expired, &events.expired, MemberPhase::Expired);
        }
        events
    }

    /// Active members, ascending — the universe the cohort sampler draws
    /// from this round, borrowed straight off the roster.
    pub(crate) fn live_roster(&self) -> &[u32] {
        &self.active
    }

    /// Every non-departed member, ascending — the fallback universe when
    /// every live member happens to be expired at once.
    pub(crate) fn reachable_members(&self) -> Vec<u32> {
        remerge(
            &self.members,
            &self.active,
            &self.expired,
            MemberPhase::Active,
        )
    }

    /// The member's phase, if it was ever admitted.
    pub fn phase(&self, id: u32) -> Option<MemberPhase> {
        self.members.get(id as usize).map(|m| m.phase)
    }

    /// The round the member first joined, if it was ever admitted.
    pub fn birth_round(&self, id: u32) -> Option<u64> {
        self.members.get(id as usize).map(|m| m.birth_round)
    }

    /// Exports the registry for checkpointing.
    pub fn snapshot(&self) -> MembershipSnapshot {
        MembershipSnapshot {
            config: self.cfg,
            next_id: self.members.len() as u32,
            members: (0u32..)
                .zip(&self.members)
                .map(|(id, m)| {
                    let phase = match m.phase {
                        MemberPhase::Active => 0u8,
                        MemberPhase::Expired => 1,
                        MemberPhase::Departed => 2,
                    };
                    (id, m.birth_round, self.lease_of(m), phase)
                })
                .collect(),
        }
    }

    /// Rebuilds a registry from a checkpoint snapshot.
    ///
    /// # Errors
    /// Returns a description of an invalid snapshot: bad config, unknown
    /// phase tag, or member ids that are not exactly `0..next_id` in order
    /// (the id is the member's index, so a gap, a duplicate or a shuffle
    /// cannot be represented).
    pub(crate) fn from_snapshot(snap: &MembershipSnapshot) -> Result<Self, String> {
        snap.config.validate()?;
        let mut members = Vec::with_capacity(snap.members.len());
        for &(id, birth_round, lease_expires_ms, phase) in &snap.members {
            if id as usize != members.len() {
                return Err(format!(
                    "member id {id} at position {}: ids must run 0..next_id in order",
                    members.len()
                ));
            }
            let phase = match phase {
                0 => MemberPhase::Active,
                1 => MemberPhase::Expired,
                2 => MemberPhase::Departed,
                other => return Err(format!("unknown member phase tag {other}")),
            };
            members.push(Member {
                birth_round,
                lease_expires_ms,
                phase,
                lapsing: false,
            });
        }
        if members.len() != snap.next_id as usize {
            return Err(format!(
                "{} members but next_id {}",
                members.len(),
                snap.next_id
            ));
        }
        let in_phase = |phase| {
            (0u32..)
                .zip(&members)
                .filter(move |(_, m)| m.phase == phase)
                .map(|(id, _)| id)
                .collect()
        };
        Ok(MembershipRegistry {
            cfg: snap.config,
            clock: snap.config.clock(),
            active: in_phase(MemberPhase::Active),
            expired: in_phase(MemberPhase::Expired),
            members,
            // Every member holds its own lease, and none is lapsing: a
            // member lapsing when the snapshot was taken starts again on
            // its next crash, with the lease it still holds.
            renewed: 0,
            lapsing: Vec::new(),
            // Empty is correct: a member can only expire on a round it
            // also crashes, and that crash pushes its entry.
            expiry_heap: BinaryHeap::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{ClientFault, FaultKind, FaultSpec, TargetedFault};
    use photon_tensor::SeedStream;
    use std::collections::BTreeMap;

    fn cfg() -> MembershipConfig {
        MembershipConfig::default() // 3 s lease, 1 s rounds
    }

    #[test]
    fn founding_members_are_all_live() {
        let reg = MembershipRegistry::new(cfg(), 4);
        assert_eq!(reg.live_roster(), vec![0, 1, 2, 3]);
        assert_eq!(reg.roster_len(), 4);
        assert_eq!(reg.phase(0), Some(MemberPhase::Active));
        assert_eq!(reg.birth_round(0), Some(0));
        assert_eq!(reg.phase(9), None);
    }

    #[test]
    fn joins_assign_fresh_ids_and_leaves_are_permanent() {
        let spec = FaultSpec {
            targeted: vec![
                TargetedFault::parse("join@r2").unwrap(),
                TargetedFault::parse("join@r2").unwrap(),
                TargetedFault::parse("leave@r3c1").unwrap(),
                TargetedFault::parse("leave@r5c4").unwrap(),
            ],
            ..FaultSpec::none(1)
        };
        let inj = spec.plan(3, 10);
        let mut reg = MembershipRegistry::new(cfg(), 3);
        assert!(reg.begin_round(0, Some(&inj)).is_empty());
        let ev = reg.begin_round(2, Some(&inj));
        assert_eq!(ev.joined, vec![3, 4]);
        assert_eq!(reg.live_roster(), vec![0, 1, 2, 3, 4]);
        assert_eq!(reg.birth_round(3), Some(2));
        let ev = reg.begin_round(3, Some(&inj));
        assert_eq!(ev.departed, vec![1]);
        assert_eq!(reg.live_roster(), vec![0, 2, 3, 4]);
        // A mid-run joiner can be told to leave too.
        let ev = reg.begin_round(5, Some(&inj));
        assert_eq!(ev.departed, vec![4]);
        assert_eq!(reg.phase(4), Some(MemberPhase::Departed));
        // Departed members never rejoin.
        for round in 6..10 {
            assert!(reg.begin_round(round, Some(&inj)).is_empty());
        }
        assert_eq!(reg.live_roster(), vec![0, 2, 3]);
    }

    #[test]
    fn sustained_crashes_expire_the_lease_and_a_quiet_round_rejoins() {
        // Client 1 crashes rounds 1..=4: lease granted at round 0 expires
        // at 1000 + 3000 = 4000 ms, so round 5 (now = 5000) expires it...
        // except the crash at round 4 means the last renewal was round 0.
        let spec = FaultSpec {
            targeted: vec![
                crate::faults::TargetedFault::parse("crash@r1c1").unwrap(),
                crate::faults::TargetedFault::parse("crash@r2c1").unwrap(),
                crate::faults::TargetedFault::parse("crash@r3c1").unwrap(),
                crate::faults::TargetedFault::parse("crash@r4c1").unwrap(),
            ],
            ..FaultSpec::none(1)
        };
        let inj = spec.plan(3, 10);
        let mut reg = MembershipRegistry::new(cfg(), 3);
        reg.begin_round(0, Some(&inj));
        let mut expired_at = None;
        for round in 1..=4 {
            let ev = reg.begin_round(round, Some(&inj));
            if !ev.expired.is_empty() {
                assert_eq!(ev.expired, vec![1]);
                expired_at = Some(round);
            }
        }
        // Lease from round 0 (granted to 3000 ms) lapses at round 4
        // (now = 4000 > 3000): three consecutive missed heartbeats.
        assert_eq!(expired_at, Some(4));
        assert_eq!(reg.live_roster(), vec![0, 2]);
        assert_eq!(reg.phase(1), Some(MemberPhase::Expired));
        // Round 5 is crash-free: warm rejoin with a fresh lease.
        let ev = reg.begin_round(5, Some(&inj));
        assert_eq!(ev.rejoined, vec![1]);
        assert_eq!(reg.live_roster(), vec![0, 1, 2]);
    }

    #[test]
    fn healthy_members_never_expire() {
        let mut reg = MembershipRegistry::new(cfg(), 5);
        for round in 0..50 {
            assert!(reg.begin_round(round, None).is_empty());
        }
        assert_eq!(reg.live_roster().len(), 5);
    }

    #[test]
    fn snapshot_roundtrips_exactly() {
        let spec = FaultSpec {
            targeted: vec![
                TargetedFault::parse("join@r1").unwrap(),
                TargetedFault::parse("leave@r2c0").unwrap(),
                TargetedFault::parse("crash@r1c2").unwrap(),
                TargetedFault::parse("crash@r2c2").unwrap(),
                TargetedFault::parse("crash@r3c2").unwrap(),
                TargetedFault::parse("crash@r4c2").unwrap(),
            ],
            ..FaultSpec::none(1)
        };
        let inj = spec.plan(3, 10);
        let mut reg = MembershipRegistry::new(cfg(), 3);
        for round in 0..5 {
            reg.begin_round(round, Some(&inj));
        }
        let snap = reg.snapshot();
        let restored = MembershipRegistry::from_snapshot(&snap).unwrap();
        assert_eq!(restored, reg);
        // And the restored registry continues identically.
        let mut a = reg.clone();
        let mut b = restored;
        for round in 5..10 {
            assert_eq!(
                a.begin_round(round, Some(&inj)),
                b.begin_round(round, Some(&inj))
            );
        }
        assert_eq!(a, b);
    }

    #[test]
    fn bad_snapshots_are_rejected() {
        let reg = MembershipRegistry::new(cfg(), 2);
        let mut snap = reg.snapshot();
        snap.members[0].3 = 9;
        assert!(MembershipRegistry::from_snapshot(&snap).is_err());
        let mut snap = reg.snapshot();
        snap.next_id = 1;
        assert!(MembershipRegistry::from_snapshot(&snap).is_err());
        // The id is the member's index: a snapshot whose ids are not
        // exactly 0..next_id in order is an error, never a bad index.
        let reg = MembershipRegistry::new(cfg(), 3);
        type Breakage = fn(&mut MembershipSnapshot);
        let broken: [(&str, Breakage); 5] = [
            ("gap", |s| {
                s.members.remove(1);
            }),
            ("duplicate", |s| s.members[1].0 = 0),
            ("out of order", |s| s.members.swap(0, 1)),
            ("missing tail", |s| s.members.truncate(2)),
            ("next_id past the members", |s| s.next_id = 4),
        ];
        for (what, breakage) in broken {
            let mut snap = reg.snapshot();
            breakage(&mut snap);
            assert!(MembershipRegistry::from_snapshot(&snap).is_err(), "{what}");
        }
    }

    /// A faithful reimplementation of the pre-heap `begin_round`: two full
    /// scans over every member ever admitted. The indexed path must
    /// produce byte-for-byte identical churn events against it.
    struct ShadowRegistry {
        cfg: MembershipConfig,
        clock: SimClock,
        members: BTreeMap<u32, Member>,
        next_id: u32,
    }

    impl ShadowRegistry {
        fn new(cfg: MembershipConfig, population: usize) -> Self {
            let clock = cfg.clock();
            let lease = clock.now_ms(0) + cfg.lease_ms;
            let members = (0..population as u32)
                .map(|id| {
                    (
                        id,
                        Member {
                            birth_round: 0,
                            lease_expires_ms: lease,
                            phase: MemberPhase::Active,
                            lapsing: false,
                        },
                    )
                })
                .collect();
            ShadowRegistry {
                cfg,
                clock,
                members,
                next_id: population as u32,
            }
        }

        fn begin_round(&mut self, round: u64, injector: Option<&FaultPlan>) -> ChurnEvents {
            let now = self.clock.now_ms(round);
            let lease = now + self.cfg.lease_ms;
            let mut events = ChurnEvents::default();
            if let Some(inj) = injector {
                for _ in 0..inj.joins_at(round) {
                    let id = self.next_id;
                    self.next_id += 1;
                    self.members.insert(
                        id,
                        Member {
                            birth_round: round,
                            lease_expires_ms: lease,
                            phase: MemberPhase::Active,
                            lapsing: false,
                        },
                    );
                    events.joined.push(id);
                }
                for id in inj.at(FaultEvent::Leave, round) {
                    if let Some(m) = self.members.get_mut(&id) {
                        if m.phase != MemberPhase::Departed {
                            m.phase = MemberPhase::Departed;
                            events.departed.push(id);
                        }
                    }
                }
            }
            let crashed = |id: u32| {
                injector
                    .and_then(|inj| inj.client_fault(round, id))
                    .map(|f| f == crate::faults::ClientFault::Crash)
                    .unwrap_or(false)
            };
            for (&id, m) in self.members.iter_mut() {
                match m.phase {
                    MemberPhase::Expired if !crashed(id) => {
                        m.phase = MemberPhase::Active;
                        m.lease_expires_ms = lease;
                        events.rejoined.push(id);
                    }
                    MemberPhase::Active if !crashed(id) => {
                        m.lease_expires_ms = lease;
                    }
                    _ => {}
                }
            }
            for (&id, m) in self.members.iter_mut() {
                if m.phase == MemberPhase::Active && now > m.lease_expires_ms {
                    m.phase = MemberPhase::Expired;
                    events.expired.push(id);
                }
            }
            events
        }
    }

    impl ShadowRegistry {
        fn ids(&self, keep: impl Fn(MemberPhase) -> bool) -> Vec<u32> {
            let kept = self.members.iter().filter(|(_, m)| keep(m.phase));
            kept.map(|(&id, _)| id).collect()
        }

        fn snapshot(&self) -> MembershipSnapshot {
            MembershipSnapshot {
                config: self.cfg,
                next_id: self.next_id,
                members: self
                    .members
                    .iter()
                    .map(|(&id, m)| (id, m.birth_round, m.lease_expires_ms, m.phase as u8))
                    .collect(),
            }
        }
    }

    /// One seeded churn scenario: a population in 1..=64, a lease of one
    /// to four rounds, random crash / join / leave rates, pinned joins
    /// (several a round included) and pinned leaves of founders, of
    /// not-yet-admitted ids and of clients in the very round they join.
    /// (The plan draws crashes for founding ids only, so a join and a
    /// crash never share a round.)
    fn churn_case(case: u64, rounds: u64) -> (MembershipConfig, usize, FaultPlan) {
        let mut rng = SeedStream::new(0xC0FFEE + case);
        let population = 1 + rng.next_below(64);
        let cfg = MembershipConfig {
            lease_ms: 1_000 * (1 + rng.next_below(4) as u64),
            round_ms: 1_000,
        };
        let mut pick = |rates: &[f64]| rates[rng.next_below(rates.len())];
        let mut spec = FaultSpec {
            p_crash: pick(&[0.0, 0.05, 0.25, 0.45, 0.7]),
            p_join: pick(&[0.0, 0.1, 0.5]),
            p_leave: pick(&[0.0, 0.02, 0.1]),
            ..FaultSpec::none(case)
        };
        for _ in 0..rng.next_below(8) {
            spec.targeted.push(TargetedFault {
                round: rng.next_below(rounds as usize) as u64,
                index: 0,
                kind: FaultKind::Join,
            });
        }
        // Joins draw from their own columns, so the ids they will be given
        // can be read off a first expansion and told to leave on arrival.
        let joins_only = spec.plan(population, rounds);
        let mut next_id = population as u32;
        for round in 0..rounds {
            let joiners = next_id..next_id + joins_only.joins_at(round);
            next_id = joiners.end;
            for id in joiners.filter(|_| rng.next_below(4) == 0) {
                spec.targeted.push(TargetedFault {
                    round,
                    index: id,
                    kind: FaultKind::Event {
                        event: FaultEvent::Leave,
                    },
                });
            }
        }
        for _ in 0..rng.next_below(6) {
            let id = rng.next_below(next_id as usize + 2) as u32;
            spec.targeted.push(TargetedFault {
                round: rng.next_below(rounds as usize) as u64,
                index: id,
                kind: FaultKind::Event {
                    event: FaultEvent::Leave,
                },
            });
        }
        let injector = spec.plan(population, rounds);
        (cfg, population, injector)
    }

    /// What one scenario reached: members that joined and left in the
    /// same round, expiries and rejoins.
    #[derive(Default)]
    struct Reached {
        joined_and_left: usize,
        expired: usize,
        rejoined: usize,
    }

    /// Runs `rounds` rounds of one scenario through the registry and the
    /// shadow and holds them equal every round: churn events, rosters,
    /// phases, birth rounds and snapshots. A registry restored from the
    /// snapshot after round `restore_at` runs alongside from then on.
    fn check_against_shadow(
        name: &str,
        (cfg, population, inj): (MembershipConfig, usize, FaultPlan),
        rounds: u64,
        restore_at: u64,
    ) -> (MembershipRegistry, Reached) {
        let mut fast = MembershipRegistry::new(cfg, population);
        let mut shadow = ShadowRegistry::new(cfg, population);
        let mut restored: Option<MembershipRegistry> = None;
        let mut reached = Reached::default();
        for round in 0..rounds {
            let at = format!("{name}, round {round}");
            let events = fast.begin_round(round, Some(&inj));
            assert_eq!(events, shadow.begin_round(round, Some(&inj)), "{at}");
            let live = shadow.ids(|p| p == MemberPhase::Active);
            assert_eq!(fast.live_roster(), live, "{at}");
            let reachable = shadow.ids(|p| p != MemberPhase::Departed);
            assert_eq!(fast.reachable_members(), reachable, "{at}");
            // One id past the roster too: never admitted.
            for id in 0..=shadow.next_id {
                let want = shadow.members.get(&id);
                assert_eq!(fast.phase(id), want.map(|m| m.phase), "{at}");
                assert_eq!(fast.birth_round(id), want.map(|m| m.birth_round), "{at}");
            }
            assert_eq!(fast.snapshot(), shadow.snapshot(), "{at}");

            let crashes: Vec<u32> = (0..shadow.next_id)
                .filter(|&id| inj.client_fault(round, id) == Some(ClientFault::Crash))
                .collect();
            assert_eq!(inj.crashes_at(round), crashes, "{at}");

            if let Some(restored) = restored.as_mut() {
                assert_eq!(restored.begin_round(round, Some(&inj)), events, "{at}");
                assert_eq!(restored.live_roster(), fast.live_roster(), "{at}");
                assert_eq!(restored.reachable_members(), reachable, "{at}");
                assert_eq!(*restored, fast, "{at}");
            }
            if round == restore_at {
                restored = Some(MembershipRegistry::from_snapshot(&fast.snapshot()).unwrap());
            }
            let left_on_arrival = |id| events.departed.contains(id);
            reached.joined_and_left += events
                .joined
                .iter()
                .filter(|&id| left_on_arrival(id))
                .count();
            reached.expired += events.expired.len();
            reached.rejoined += events.rejoined.len();
        }
        assert_eq!(fast.roster_len(), shadow.next_id as usize, "{name}");
        (fast, reached)
    }

    /// A scenario of pinned faults on 3 founders, 1 s rounds and a 3 s
    /// lease. The plan is expanded over `plan_population` ids, more than
    /// the founders, so that a pinned crash may name a client admitted
    /// mid-run — which `churn_case`'s plans never do.
    fn pinned_case(
        faults: &[&str],
        plan_population: usize,
    ) -> (MembershipConfig, usize, FaultPlan) {
        let spec = FaultSpec {
            targeted: faults
                .iter()
                .map(|f| TargetedFault::parse(f).unwrap())
                .collect(),
            ..FaultSpec::none(1)
        };
        (cfg(), 3, spec.plan(plan_population, 12))
    }

    #[test]
    fn heap_path_matches_old_double_scan_exactly() {
        let rounds = 60;
        let mut total = Reached::default();
        for case in 0..64 {
            let (_, reached) = check_against_shadow(
                &format!("case {case}"),
                churn_case(case, rounds),
                rounds,
                case % rounds,
            );
            total.joined_and_left += reached.joined_and_left;
            total.expired += reached.expired;
            total.rejoined += reached.rejoined;
        }
        // The table reaches what it claims to.
        assert!(total.joined_and_left > 0 && total.expired > 100 && total.rejoined > 100);

        // Client 3 joins at round 2 and crashes in its join round and the
        // four after it: it holds its own join-round lease (5 s), not the
        // shared lease of the round before (4 s), and lapses at round 6.
        // Client 4 joins with it, crashes in its join round only and
        // heartbeats on.
        let joiner_crashes = [
            "join@r2",
            "join@r2",
            "crash@r2c3",
            "crash@r3c3",
            "crash@r4c3",
            "crash@r5c3",
            "crash@r6c3",
            "crash@r2c4",
        ];
        // Client 1 crashes at rounds 1 and 2 and leaves at round 3 while
        // lapsing, with the lease it held (3 s); client 2 leaves at round
        // 3 while heartbeating (the shared 5 s). Joiner 3 lapses from its
        // join round and leaves at round 4 with its own 5 s lease.
        let lapsing_leaves = [
            "crash@r1c1",
            "crash@r2c1",
            "leave@r3c1",
            "leave@r3c2",
            "join@r2",
            "crash@r2c3",
            "crash@r3c3",
            "leave@r4c3",
        ];
        for restore_at in [0, 2, 3, 11] {
            let name = format!("joiner crashes, restored after round {restore_at}");
            let case = pinned_case(&joiner_crashes, 5);
            let (reg, reached) = check_against_shadow(&name, case, 12, restore_at);
            assert_eq!((reached.expired, reached.rejoined), (1, 1), "{name}");
            assert_eq!(reg.phase(4), Some(MemberPhase::Active), "{name}");

            let name = format!("lapsing members leave, restored after round {restore_at}");
            let case = pinned_case(&lapsing_leaves, 4);
            let (reg, _) = check_against_shadow(&name, case, 12, restore_at);
            let leases: Vec<_> = reg.snapshot().members[1..]
                .iter()
                .map(|m| (m.2, m.3))
                .collect();
            assert_eq!(leases, [(3_000, 2), (5_000, 2), (5_000, 2)], "{name}");
        }
    }

    #[test]
    fn config_validation() {
        assert!(MembershipConfig::default().validate().is_ok());
        assert!(MembershipConfig {
            lease_ms: 500,
            round_ms: 1_000,
        }
        .validate()
        .is_err());
        assert!(MembershipConfig {
            lease_ms: 1_000,
            round_ms: 0,
        }
        .validate()
        .is_err());
    }
}
