//! Deterministic session tokens and the coordinator-side session table.
//!
//! A session token is a pure function of `(run seed, client id)` — see
//! `session_token`. That one decision buys coordinator crash-tolerance
//! for free: a restarted coordinator holds no session state, yet can
//! still authenticate every resuming client by recomputing the token it
//! would have issued. A reconnecting client presents its id and token and
//! resumes its lease and in-flight round; a client with a wrong token is
//! rejected rather than silently re-admitted under a stale identity.

use crate::backoff::splitmix;
use std::collections::BTreeMap;

/// The deterministic session token for `client_id` under `run_seed`.
/// Never 0 (0 on the wire means "no token yet" in a fresh
/// [`photon_comms::Message::SessionHello`]).
pub(crate) fn session_token(run_seed: u64, client_id: u32) -> u64 {
    let mixed = splitmix(run_seed ^ splitmix(0x5e55_1000 ^ u64::from(client_id)));
    if mixed == 0 {
        1
    } else {
        mixed
    }
}

/// Why a handshake was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SessionError {
    /// The presented token does not match the token for that client id.
    BadToken {
        /// Client id the peer claimed.
        client_id: u32,
    },
    /// A fresh-join handshake arrived but the admission budget is
    /// exhausted (every founding id is taken).
    Full,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::BadToken { client_id } => {
                write!(f, "bad session token for client {client_id}")
            }
            SessionError::Full => write!(f, "no client ids left to grant"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Outcome of a successful handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// The client's (new or confirmed) id.
    pub client_id: u32,
    /// The session token the grant must carry.
    pub token: u64,
    /// True when an existing session was resumed rather than a new
    /// member admitted.
    pub resumed: bool,
}

/// Per-session bookkeeping the coordinator keeps while running. None of
/// it needs to survive a restart — tokens are recomputable — but while
/// alive it distinguishes resumes from fresh joins and counts both.
#[derive(Debug, Clone, Default)]
struct SessionEntry {
    resumes: u64,
    last_acked_round: Option<u64>,
}

/// The coordinator's session table: id assignment plus resume
/// authentication.
///
/// Ids `0..capacity` are grantable; after a coordinator restart the
/// table is rebuilt empty with the same seed and capacity, and every
/// returning client re-authenticates purely by token. A restarted table
/// ([`SessionTable::new_restarted`]) cannot know which low ids the
/// previous incarnation granted, so it hands fresh admissions ids from
/// the *top* of the range — a pre-crash client that has not resumed yet
/// keeps its low id free to come back to.
#[derive(Debug)]
pub(crate) struct SessionTable {
    seed: u64,
    capacity: u32,
    next_id: u32,
    allocate_high: bool,
    sessions: BTreeMap<u32, SessionEntry>,
}

impl SessionTable {
    /// An empty table for a run with `seed`, granting at most `capacity`
    /// distinct client ids (sequentially from 0).
    pub fn new(seed: u64, capacity: u32) -> SessionTable {
        SessionTable {
            seed,
            capacity,
            next_id: 0,
            allocate_high: false,
            sessions: BTreeMap::new(),
        }
    }

    /// A table for a coordinator that crash-restarted mid-run: resumes
    /// authenticate exactly as in [`SessionTable::new`], but fresh
    /// admissions draw ids from the top of the range so they cannot
    /// collide with a founding client that has not resumed yet.
    pub(crate) fn new_restarted(seed: u64, capacity: u32) -> SessionTable {
        SessionTable {
            allocate_high: true,
            ..SessionTable::new(seed, capacity)
        }
    }

    /// Handles a `SessionHello`: a fresh hello (`client_id == u32::MAX`,
    /// `token == 0`) is admitted under the next free id; a resume hello
    /// is authenticated against the deterministic token.
    ///
    /// # Errors
    /// [`SessionError::BadToken`] on a token mismatch,
    /// [`SessionError::Full`] when no ids are left to grant.
    pub fn admit(&mut self, client_id: u32, token: u64) -> Result<Admission, SessionError> {
        if client_id == u32::MAX {
            let id = if self.allocate_high {
                // Restarted coordinator: scan down from the top for an id
                // no resumed session holds.
                (0..self.capacity)
                    .rev()
                    .find(|id| !self.sessions.contains_key(id))
                    .ok_or(SessionError::Full)?
            } else {
                // Fresh run: sequential founding ids, skipping any already
                // taken.
                while self.sessions.contains_key(&self.next_id) {
                    self.next_id += 1;
                }
                if self.next_id >= self.capacity {
                    return Err(SessionError::Full);
                }
                let id = self.next_id;
                self.next_id += 1;
                id
            };
            self.sessions.insert(id, SessionEntry::default());
            return Ok(Admission {
                client_id: id,
                token: session_token(self.seed, id),
                resumed: false,
            });
        }
        let expected = session_token(self.seed, client_id);
        if token != expected {
            return Err(SessionError::BadToken { client_id });
        }
        // A valid token is proof the id was granted — by this table or by
        // a previous incarnation of the coordinator.
        let entry = self.sessions.entry(client_id).or_default();
        entry.resumes += 1;
        Ok(Admission {
            client_id,
            token: expected,
            resumed: true,
        })
    }

    /// Records the highest round whose result the coordinator has
    /// acknowledged for `client_id`.
    pub(crate) fn note_acked(&mut self, client_id: u32, round: u64) {
        if let Some(entry) = self.sessions.get_mut(&client_id) {
            let newer = entry.last_acked_round.is_none_or(|r| round > r);
            if newer {
                entry.last_acked_round = Some(round);
            }
        }
    }

    /// Total session resumes across all clients.
    pub(crate) fn total_resumes(&self) -> u64 {
        self.sessions.values().map(|e| e.resumes).sum()
    }

    /// Number of distinct sessions ever granted or resumed.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_deterministic_distinct_and_nonzero() {
        for seed in [0u64, 7, u64::MAX] {
            let mut seen = std::collections::BTreeSet::new();
            for id in 0..64u32 {
                let t = session_token(seed, id);
                assert_ne!(t, 0);
                assert_eq!(t, session_token(seed, id));
                assert!(seen.insert(t), "token collision at id {id}");
            }
        }
        assert_ne!(session_token(1, 0), session_token(2, 0));
    }

    #[test]
    fn fresh_joins_get_sequential_ids_and_valid_tokens() {
        let mut table = SessionTable::new(42, 4);
        for expect in 0..4u32 {
            let adm = table.admit(u32::MAX, 0).unwrap();
            assert_eq!(adm.client_id, expect);
            assert_eq!(adm.token, session_token(42, expect));
            assert!(!adm.resumed);
        }
        assert_eq!(table.admit(u32::MAX, 0), Err(SessionError::Full));
    }

    #[test]
    fn reconnect_resumes_with_correct_token_only() {
        let mut table = SessionTable::new(9, 8);
        let adm = table.admit(u32::MAX, 0).unwrap();
        let resumed = table.admit(adm.client_id, adm.token).unwrap();
        assert!(resumed.resumed);
        assert_eq!(resumed.client_id, adm.client_id);
        assert_eq!(
            table.admit(adm.client_id, adm.token ^ 1),
            Err(SessionError::BadToken {
                client_id: adm.client_id
            })
        );
        assert_eq!(table.total_resumes(), 1);
    }

    #[test]
    fn restarted_table_authenticates_old_tokens_without_state() {
        let mut before = SessionTable::new(1234, 8);
        let a = before.admit(u32::MAX, 0).unwrap();
        let b = before.admit(u32::MAX, 0).unwrap();
        // Coordinator "crashes": a brand-new restarted table, same seed.
        let mut after = SessionTable::new_restarted(1234, 8);
        let ra = after.admit(a.client_id, a.token).unwrap();
        assert!(ra.resumed);
        // A fresh join arriving before b resumes must not steal b's id:
        // restarted tables allocate from the top of the range.
        let fresh = after.admit(u32::MAX, 0).unwrap();
        assert_eq!(fresh.client_id, 7);
        let rb = after.admit(b.client_id, b.token).unwrap();
        assert!(rb.resumed);
        assert_eq!(after.len(), 3);
    }

    #[test]
    fn note_acked_keeps_the_maximum() {
        let mut table = SessionTable::new(5, 2);
        let adm = table.admit(u32::MAX, 0).unwrap();
        table.note_acked(adm.client_id, 3);
        table.note_acked(adm.client_id, 1);
        assert_eq!(
            table.sessions[&adm.client_id].last_acked_round,
            Some(3),
            "ack round must be monotone"
        );
    }
}
