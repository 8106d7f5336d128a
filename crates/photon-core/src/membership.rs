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
//! Storage is flat arrays (ids are dense), and a round pays one sequential
//! pass over the active leases plus what changed: [`MembershipRegistry`].

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
    lease_expires_ms: u64,
    phase: MemberPhase,
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
/// What a round costs: [`MembershipRegistry::begin_round`] makes **one
/// sequential pass over the active leases** (a store per member; the crash
/// test is a cursor over the round's sorted crash list). That pass is
/// O(active) and the only term that grows with the registry. Everything
/// else is O(churn + this round's faults): joins append, expiries come off
/// a min-heap, and a round that changed the rosters at all (departures,
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
    /// Lazy lease-expiry min-heap over `(lease_expires_ms, id)`. An entry
    /// is pushed whenever a member misses a heartbeat (its lease then
    /// stops moving), and validated against the member's current lease on
    /// pop — stale entries (renewed or already-expired members) are
    /// discarded. A member can only expire on a round it also crashes
    /// (renewal precedes the expiry check), so crash-time pushes cover
    /// every expiry, including replays after a checkpoint restore.
    expiry_heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl PartialEq for MembershipRegistry {
    fn eq(&self, other: &Self) -> bool {
        // The rosters are derived state (and the lazy heap admits many
        // equivalent shapes); logical equality is the member table.
        self.cfg == other.cfg && self.members == other.members
    }
}

impl Eq for MembershipRegistry {}

/// Whether `id` is in the ascending list `ids`, for a scan whose own ids
/// ascend: drops the head of the list below `id`, so a whole scan costs
/// O(list + queries) instead of a map lookup per query.
fn next_is(ids: &mut &[u32], id: u32) -> bool {
    while ids.first().is_some_and(|&head| head < id) {
        *ids = &ids[1..];
    }
    ids.first() == Some(&id)
}

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
        };
        MembershipRegistry {
            cfg,
            clock,
            members: vec![founder; population],
            active: (0..population as u32).collect(),
            expired: Vec::new(),
            expiry_heap: BinaryHeap::new(),
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
                });
                // The newest id is the largest: the roster stays sorted.
                self.active.push(id);
                events.joined.push(id);
            }
            for id in inj.at(FaultEvent::Leave, round) {
                if let Some(m) = self.members.get_mut(id as usize) {
                    if m.phase != MemberPhase::Departed {
                        m.phase = MemberPhase::Departed;
                        events.departed.push(id);
                    }
                }
            }
        }

        // This round's crashes, ascending; each scan below walks them with
        // its own cursor.
        let crashes = injector.map_or_else(Vec::new, |inj| inj.crashes_at(round));
        // Warm rejoins: O(expired), ascending id.
        let mut crashed = &crashes[..];
        for &id in &self.expired {
            let m = &mut self.members[id as usize];
            if m.phase == MemberPhase::Expired && !next_is(&mut crashed, id) {
                m.phase = MemberPhase::Active;
                m.lease_expires_ms = lease;
                events.rejoined.push(id);
            }
        }
        // Heartbeat renewals: the one O(active) pass, sequential over the
        // roster and the member table. A member that crashes misses its
        // heartbeat — its lease stops moving, so it enters the expiry heap
        // with the lease it will still hold when (if) it lapses. (This
        // round's rejoins already hold a fresh lease.)
        let mut crashed = &crashes[..];
        for &id in &self.active {
            let m = &mut self.members[id as usize];
            if m.phase != MemberPhase::Active {
                continue; // departed above
            }
            if next_is(&mut crashed, id) {
                self.expiry_heap.push(Reverse((m.lease_expires_ms, id)));
            } else {
                m.lease_expires_ms = lease;
            }
        }
        // Lease expiries: O(expiring), off the heap instead of a second
        // full scan. Entries whose lease no longer matches (the member
        // renewed, already expired, or departed since the push) are stale
        // and discarded.
        while let Some(&Reverse((expires_ms, id))) = self.expiry_heap.peek() {
            if expires_ms >= now {
                break;
            }
            self.expiry_heap.pop();
            let m = &mut self.members[id as usize];
            if m.phase == MemberPhase::Active && m.lease_expires_ms == expires_ms {
                m.phase = MemberPhase::Expired;
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
                    (id, m.birth_round, m.lease_expires_ms, phase)
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
            // Empty is correct: a member can only expire on a round it
            // also crashes, and the deterministic fault plan re-pushes its
            // entry when that round replays.
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

    #[test]
    fn heap_path_matches_old_double_scan_exactly() {
        let rounds = 60;
        let (mut joined_and_left, mut expired, mut rejoined) = (0, 0, 0);
        for case in 0..64 {
            let (cfg, population, inj) = churn_case(case, rounds);
            let mut fast = MembershipRegistry::new(cfg, population);
            let mut shadow = ShadowRegistry::new(cfg, population);
            // A registry restored from a mid-run snapshot runs alongside.
            let restore_at = case % rounds;
            let mut restored: Option<MembershipRegistry> = None;
            for round in 0..rounds {
                let at = format!("case {case}, round {round}");
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
                joined_and_left += events
                    .joined
                    .iter()
                    .filter(|&id| left_on_arrival(id))
                    .count();
                expired += events.expired.len();
                rejoined += events.rejoined.len();
            }
            assert_eq!(fast.roster_len(), shadow.next_id as usize);
        }
        // The table reaches what it claims to.
        assert!(joined_and_left > 0 && expired > 100 && rejoined > 100);
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
