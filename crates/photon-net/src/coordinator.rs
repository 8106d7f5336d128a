//! The explicit coordinator state machine driving a multi-process run.
//!
//! ```text
//!                    connected >= min_clients
//! WaitingForMembers ────────────────────────► Warmup
//!        ▲                                      │ warmup_ms elapsed
//!        │ connected < min_clients              ▼
//!        └────────────────────────────────── RoundStart ◄──┐
//!                                               │          │ more rounds
//!                                 round commits │          │
//!                                               ▼          │
//!                                            RoundEnd ─────┘
//!                                               │ target reached
//!                                               ▼
//!                                            Cooldown ──► Finished
//! ```
//!
//! The machine is pure — it owns no sockets, no clock and no model — so
//! it unit-tests exhaustively and restores trivially after a coordinator
//! crash: `restore(round)` puts a fresh machine back at the checkpointed
//! round, re-gathering members before training resumes.

/// Slots kept in the recent-round ring buffer.
pub const ROUND_RING: usize = 8;

/// Coordinator run states, in lifecycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CoordState {
    /// Gathering connections until the min-client gate opens.
    WaitingForMembers,
    /// Members gathered; a settling delay before the first broadcast so
    /// near-simultaneous joiners land in round 0's cohort.
    Warmup,
    /// A round is in flight: the model is broadcast and results are
    /// being collected.
    RoundStart,
    /// The in-flight round committed; deciding whether to run another.
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

pub use photon_core::RoundSlot;

/// The pure coordinator state machine: min-client gating, round
/// progression and a ring buffer of the last [`ROUND_RING`] committed
/// rounds for post-mortem visibility.
#[derive(Debug)]
pub struct Coordinator {
    state: CoordState,
    round: u64,
    target_rounds: u64,
    min_clients: usize,
    warmup_ms: u64,
    cooldown_ms: u64,
    entered_at_ms: u64,
    ring: [RoundSlot; ROUND_RING],
    committed: u64,
}

impl Coordinator {
    /// A machine that will run rounds `0..target_rounds` once
    /// `min_clients` connections are gathered.
    pub fn new(min_clients: usize, target_rounds: u64, warmup_ms: u64, cooldown_ms: u64) -> Self {
        Coordinator {
            state: CoordState::WaitingForMembers,
            round: 0,
            target_rounds,
            min_clients: min_clients.max(1),
            warmup_ms,
            cooldown_ms,
            entered_at_ms: 0,
            ring: [RoundSlot::default(); ROUND_RING],
            committed: 0,
        }
    }

    /// Rebuilds the machine after a coordinator crash-restart: training
    /// resumes at `round` (the checkpointed next round), but members
    /// must re-gather through the min-client gate first.
    pub fn restore(&mut self, round: u64, now_ms: u64) {
        self.round = round;
        self.state = if round >= self.target_rounds {
            CoordState::Cooldown
        } else {
            CoordState::WaitingForMembers
        };
        self.entered_at_ms = now_ms;
    }

    /// Current state.
    pub fn state(&self) -> CoordState {
        self.state
    }

    /// The round currently in flight (or next to start).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Rounds committed through this machine instance.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The last [`ROUND_RING`] committed rounds, oldest first.
    pub fn recent_rounds(&self) -> Vec<RoundSlot> {
        let n = (self.committed as usize).min(ROUND_RING);
        (0..n)
            .map(|i| {
                let slot = (self.committed as usize - n + i) % ROUND_RING;
                self.ring[slot]
            })
            .collect()
    }

    /// Advances time- and membership-driven transitions. Returns the
    /// transition taken, if any; call repeatedly (idempotent when
    /// nothing changed).
    pub fn tick(&mut self, connected: usize, now_ms: u64) -> Option<(CoordState, CoordState)> {
        let from = self.state;
        let to = match self.state {
            CoordState::WaitingForMembers if connected >= self.min_clients => {
                if self.round >= self.target_rounds {
                    CoordState::Cooldown
                } else {
                    CoordState::Warmup
                }
            }
            CoordState::Warmup if connected < self.min_clients => CoordState::WaitingForMembers,
            CoordState::Warmup if now_ms.saturating_sub(self.entered_at_ms) >= self.warmup_ms => {
                CoordState::RoundStart
            }
            CoordState::RoundEnd => {
                if self.round >= self.target_rounds {
                    CoordState::Cooldown
                } else if connected < self.min_clients {
                    CoordState::WaitingForMembers
                } else {
                    CoordState::RoundStart
                }
            }
            CoordState::Cooldown
                if now_ms.saturating_sub(self.entered_at_ms) >= self.cooldown_ms =>
            {
                CoordState::Finished
            }
            _ => return None,
        };
        if to == from {
            return None;
        }
        self.state = to;
        self.entered_at_ms = now_ms;
        Some((from, to))
    }

    /// Records a committed round: pushes a ring slot, advances the round
    /// counter and moves `RoundStart → RoundEnd`.
    ///
    /// # Panics
    /// If called outside `RoundStart` — committing a round no broadcast
    /// opened is a server-loop bug.
    pub fn on_round_committed(&mut self, received: u32, cohort: u32, dup_drops: u32, now_ms: u64) {
        assert_eq!(
            self.state,
            CoordState::RoundStart,
            "round committed outside RoundStart"
        );
        self.ring[(self.committed as usize) % ROUND_RING] = RoundSlot {
            round: self.round,
            received,
            cohort,
            dup_drops,
        };
        self.committed += 1;
        self.round += 1;
        self.state = CoordState::RoundEnd;
        self.entered_at_ms = now_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_lifecycle_with_fake_clock() {
        let mut c = Coordinator::new(2, 2, 100, 50);
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
        assert_eq!(c.round(), 0);
        c.on_round_committed(2, 2, 0, 120);
        assert_eq!(c.state(), CoordState::RoundEnd);
        assert_eq!(c.round(), 1);
        // More rounds to run: straight back to RoundStart.
        assert_eq!(
            c.tick(2, 121),
            Some((CoordState::RoundEnd, CoordState::RoundStart))
        );
        c.on_round_committed(2, 2, 1, 130);
        // Target reached: Cooldown, then Finished after the grace window.
        assert_eq!(
            c.tick(2, 131),
            Some((CoordState::RoundEnd, CoordState::Cooldown))
        );
        assert!(c.tick(2, 150).is_none());
        assert_eq!(
            c.tick(2, 200),
            Some((CoordState::Cooldown, CoordState::Finished))
        );
        assert_eq!(c.committed(), 2);
    }

    #[test]
    fn losing_quorum_between_rounds_regates() {
        let mut c = Coordinator::new(3, 5, 0, 0);
        c.tick(3, 0);
        c.tick(3, 0);
        assert_eq!(c.state(), CoordState::RoundStart);
        c.on_round_committed(3, 3, 0, 1);
        // A client died between rounds: back through the gate.
        assert_eq!(
            c.tick(2, 2),
            Some((CoordState::RoundEnd, CoordState::WaitingForMembers))
        );
        // It reconnects: warmup again, then the next round starts where
        // the run left off.
        c.tick(3, 3);
        c.tick(3, 3);
        assert_eq!(c.state(), CoordState::RoundStart);
        assert_eq!(c.round(), 1);
    }

    #[test]
    fn ring_keeps_only_the_most_recent_rounds() {
        let mut c = Coordinator::new(1, 100, 0, 0);
        c.tick(1, 0);
        c.tick(1, 0);
        for r in 0..12u64 {
            assert_eq!(c.state(), CoordState::RoundStart);
            c.on_round_committed(1, 1, r as u32, r);
            c.tick(1, r);
        }
        let recent = c.recent_rounds();
        assert_eq!(recent.len(), ROUND_RING);
        assert_eq!(recent.first().unwrap().round, 4);
        assert_eq!(recent.last().unwrap().round, 11);
        assert_eq!(recent.last().unwrap().dup_drops, 11);
    }

    #[test]
    fn restore_regates_members_at_the_checkpointed_round() {
        let mut c = Coordinator::new(2, 10, 0, 0);
        c.restore(6, 1_000);
        assert_eq!(c.state(), CoordState::WaitingForMembers);
        assert_eq!(c.round(), 6);
        c.tick(2, 1_001);
        c.tick(2, 1_001);
        assert_eq!(c.state(), CoordState::RoundStart);
        // Restoring past the target goes straight to wind-down.
        let mut done = Coordinator::new(2, 10, 0, 0);
        done.restore(10, 0);
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
