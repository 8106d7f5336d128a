//! The member gate of a multi-process run.
//!
//! ```text
//!                    connected >= min_clients
//! WaitingForMembers ────────────────────────► Warmup
//!        ▲  ▲                                   │ warmup_ms elapsed
//!        │  │ connected < min_clients           ▼
//!        │  └─────────────────────────────── RoundStart ◄──┐
//!        │                                      │          │ connected
//!        │                        round commits │          │ >= min_clients
//!        │     connected < min_clients          ▼          │
//!        └───────────────────────────────── RoundEnd ──────┘
//!
//!                  the driver ran its last round
//!    any state ─────────────────────────────────► Cooldown ──► Finished
//!                                                     cooldown_ms
//! ```
//!
//! The gate only decides *when* a round may start and when the run winds
//! down; which round runs, and when it commits, belong to the round engine
//! and the training driver. It owns no sockets, no clock and no model, so
//! it unit-tests exhaustively, and a restarted coordinator needs nothing
//! back but a fresh gate that re-gathers its members.

/// Coordinator run states, in lifecycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CoordState {
    /// Gathering connections until the min-client gate opens.
    WaitingForMembers,
    /// Members gathered; a settling delay before the first broadcast so
    /// near-simultaneous joiners land in the first cohort.
    Warmup,
    /// A round is in flight: the model is broadcast and results are
    /// being collected.
    RoundStart,
    /// The in-flight round committed; the next one starts as soon as the
    /// gate holds.
    RoundEnd,
    /// All rounds committed; a grace window for final acks to drain.
    Cooldown,
    /// The run is over; clients are told to shut down.
    Finished,
}

impl CoordState {
    /// Stable wire discriminant (the `state` byte of
    /// [`photon_comms::Message::RunSync`]).
    pub fn discriminant(self) -> u8 {
        match self {
            CoordState::WaitingForMembers => 0,
            CoordState::Warmup => 1,
            CoordState::RoundStart => 2,
            CoordState::RoundEnd => 3,
            CoordState::Cooldown => 4,
            CoordState::Finished => 5,
        }
    }

    /// Inverse of [`CoordState::discriminant`].
    pub fn from_discriminant(d: u8) -> Option<CoordState> {
        Some(match d {
            0 => CoordState::WaitingForMembers,
            1 => CoordState::Warmup,
            2 => CoordState::RoundStart,
            3 => CoordState::RoundEnd,
            4 => CoordState::Cooldown,
            5 => CoordState::Finished,
            _ => return None,
        })
    }

    /// Stable snake_case name for logs.
    pub fn name(self) -> &'static str {
        match self {
            CoordState::WaitingForMembers => "waiting_for_members",
            CoordState::Warmup => "warmup",
            CoordState::RoundStart => "round_start",
            CoordState::RoundEnd => "round_end",
            CoordState::Cooldown => "cooldown",
            CoordState::Finished => "finished",
        }
    }
}

/// The pure member gate: min-client gating, the warmup before a gathered
/// cohort's first round and the cooldown after the last.
#[derive(Debug)]
pub struct Coordinator {
    state: CoordState,
    min_clients: usize,
    warmup_ms: u64,
    cooldown_ms: u64,
    entered_at_ms: u64,
}

impl Coordinator {
    /// A gate that opens once `min_clients` connections are gathered.
    pub fn new(min_clients: usize, warmup_ms: u64, cooldown_ms: u64) -> Self {
        Coordinator {
            state: CoordState::WaitingForMembers,
            min_clients: min_clients.max(1),
            warmup_ms,
            cooldown_ms,
            entered_at_ms: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> CoordState {
        self.state
    }

    /// Advances the time- and membership-driven transitions and returns
    /// the one taken as `(from, to)`, if any; call repeatedly (idempotent when nothing
    /// changed). Between rounds the next one starts at once while the gate
    /// holds: the warmup runs only after members were (re)gathered.
    pub fn tick(&mut self, connected: usize, now_ms: u64) -> Option<(CoordState, CoordState)> {
        let gathered = connected >= self.min_clients;
        let elapsed = now_ms.saturating_sub(self.entered_at_ms);
        let to = match self.state {
            CoordState::WaitingForMembers if gathered => CoordState::Warmup,
            CoordState::Warmup if !gathered => CoordState::WaitingForMembers,
            CoordState::Warmup if elapsed >= self.warmup_ms => CoordState::RoundStart,
            CoordState::RoundEnd if gathered => CoordState::RoundStart,
            CoordState::RoundEnd => CoordState::WaitingForMembers,
            CoordState::Cooldown if elapsed >= self.cooldown_ms => CoordState::Finished,
            _ => return None,
        };
        Some(self.enter(to, now_ms))
    }

    /// The round in flight committed: `RoundStart → RoundEnd`.
    ///
    /// # Panics
    /// If called outside `RoundStart` — committing a round no broadcast
    /// opened is a server-loop bug.
    pub fn round_committed(&mut self, now_ms: u64) -> (CoordState, CoordState) {
        assert_eq!(
            self.state,
            CoordState::RoundStart,
            "round committed outside RoundStart"
        );
        self.enter(CoordState::RoundEnd, now_ms)
    }

    /// The driver ran its last round: wind down from wherever the gate is.
    pub fn finish(&mut self, now_ms: u64) -> (CoordState, CoordState) {
        self.enter(CoordState::Cooldown, now_ms)
    }

    fn enter(&mut self, to: CoordState, now_ms: u64) -> (CoordState, CoordState) {
        let from = std::mem::replace(&mut self.state, to);
        self.entered_at_ms = now_ms;
        (from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_core::{RoundRecord, TrainingHistory, ROUND_RING};

    #[test]
    fn full_lifecycle_with_fake_clock() {
        let mut c = Coordinator::new(2, 100, 50);
        assert_eq!(c.state(), CoordState::WaitingForMembers);
        // One client is not enough.
        assert!(c.tick(1, 0).is_none());
        // Gate opens at two.
        assert_eq!(
            c.tick(2, 10),
            Some((CoordState::WaitingForMembers, CoordState::Warmup))
        );
        // Warmup holds until its delay elapses.
        assert!(c.tick(2, 50).is_none());
        assert_eq!(
            c.tick(2, 110),
            Some((CoordState::Warmup, CoordState::RoundStart))
        );
        assert!(c.tick(2, 115).is_none(), "a round in flight holds");
        c.round_committed(120);
        assert_eq!(c.state(), CoordState::RoundEnd);
        // The gate holds: straight back to RoundStart, no second warmup.
        assert_eq!(
            c.tick(2, 121),
            Some((CoordState::RoundEnd, CoordState::RoundStart))
        );
        c.round_committed(130);
        // The driver is done: Cooldown, then Finished after the grace window.
        assert_eq!(c.finish(131), (CoordState::RoundEnd, CoordState::Cooldown));
        assert!(c.tick(2, 150).is_none());
        assert_eq!(
            c.tick(2, 200),
            Some((CoordState::Cooldown, CoordState::Finished))
        );
        assert!(c.tick(2, 300).is_none(), "Finished is final");
    }

    #[test]
    fn losing_quorum_between_rounds_regates() {
        let mut c = Coordinator::new(3, 0, 0);
        c.tick(3, 0);
        c.tick(3, 0);
        assert_eq!(c.state(), CoordState::RoundStart);
        c.round_committed(1);
        // A client died between rounds: back through the gate.
        assert_eq!(
            c.tick(2, 2),
            Some((CoordState::RoundEnd, CoordState::WaitingForMembers))
        );
        // It reconnects: warmup again, then the next round may start.
        c.tick(3, 3);
        c.tick(3, 3);
        assert_eq!(c.state(), CoordState::RoundStart);
        // A member lost during the warmup closes the gate again.
        let mut c = Coordinator::new(2, 100, 0);
        c.tick(2, 0);
        assert_eq!(
            c.tick(1, 10),
            Some((CoordState::Warmup, CoordState::WaitingForMembers))
        );
    }

    #[test]
    fn ring_keeps_only_the_most_recent_rounds() {
        let mut history = TrainingHistory::new();
        for r in 0..12u64 {
            history.push(RoundRecord {
                round: r,
                cohort: vec![0, 1, 2],
                dropouts: (r % 2) as usize,
                stragglers: usize::from(r == 11),
                ..RoundRecord::default()
            });
        }
        let recent = history.recent_rounds();
        assert_eq!(recent.len(), ROUND_RING);
        assert_eq!(recent.first().unwrap().round, 4);
        let last = recent.last().unwrap();
        assert_eq!((last.round, last.received, last.cohort), (11, 1, 3));
        assert_eq!(recent[0].received, 3, "round 4 lost nothing");
        assert!(TrainingHistory::new().recent_rounds().is_empty());
    }

    #[test]
    fn restore_regates_members_at_the_checkpointed_round() {
        // A restarted coordinator's gate is a fresh one: whatever round the
        // checkpoint restores, nothing starts before the members re-gather.
        let mut c = Coordinator::new(2, 0, 0);
        assert!(c.tick(1, 1_000).is_none());
        c.tick(2, 1_001);
        c.tick(2, 1_001);
        assert_eq!(c.state(), CoordState::RoundStart);
        // Restored past the target, the driver runs nothing and the gate
        // winds down without waiting for anyone.
        let mut done = Coordinator::new(2, 0, 0);
        done.finish(0);
        assert_eq!(done.state(), CoordState::Cooldown);
        assert_eq!(
            done.tick(0, 5),
            Some((CoordState::Cooldown, CoordState::Finished))
        );
    }

    #[test]
    fn discriminants_roundtrip() {
        for s in [
            CoordState::WaitingForMembers,
            CoordState::Warmup,
            CoordState::RoundStart,
            CoordState::RoundEnd,
            CoordState::Cooldown,
            CoordState::Finished,
        ] {
            assert_eq!(CoordState::from_discriminant(s.discriminant()), Some(s));
            assert!(!s.name().is_empty());
        }
        assert_eq!(CoordState::from_discriminant(9), None);
    }
}
