//! Deterministic fault injection for the federation engine.
//!
//! The paper's setting assumes accelerators "can be sporadically available
//! throughout a full training cycle" (§2.1) and that billion-scale runs
//! survive intermittent participation and aggregator restarts. This module
//! turns that assumption into a testable contract: a [`FaultSpec`]
//! describes *rates* of client crashes, stragglers, corrupted result
//! frames and aggregator crashes, plus faults pinned to one cell;
//! [`FaultSpec::plan`] expands it into a concrete, seeded [`FaultPlan`] — a
//! pure function of `(spec, population, rounds)` that is independent of
//! thread budgets and query order, so every chaos run replays
//! bit-identically.

use photon_comms::{PartitionKind, PartitionSchedule, PartitionSpec};
use photon_tensor::SeedStream;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Salt separating the sub-aggregator shard fault column from every other
/// draw, so `shardcrash=`/`shardhang=` rates never perturb a legacy plan.
const SHARD_FAULT_SALT: u64 = 0x7368_6172_6421; // "shard!"

/// A fault injected into one client for one round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ClientFault {
    /// The client disconnects mid-round and never sends a result frame.
    Crash,
    /// The client finishes, but `delay_ms` of simulated wall-time late —
    /// past the round deadline it is dropped into the partial-update path.
    Straggle {
        /// Simulated lateness in milliseconds.
        delay_ms: u64,
    },
    /// The client's first `attempts` result-frame transmissions arrive
    /// corrupted (caught by the Link CRC and retransmitted).
    Corrupt {
        /// Number of leading transmissions that arrive corrupted.
        attempts: u32,
    },
    /// Byzantine: the client reports an all-NaN pseudo-gradient.
    NanUpdate,
    /// Byzantine: the client negates its pseudo-gradient (gradient-ascent
    /// poisoning — numerically healthy, directionally adversarial).
    SignFlip,
    /// Byzantine: the client rescales its pseudo-gradient by `factor`.
    Scale {
        /// Multiplier applied to every delta coordinate.
        factor: f64,
    },
}

/// A plan event that is not a client's round fault. A [`FaultPlan`] keeps
/// them all in one ordered set keyed `(event, round, index)`, where
/// `index` is the client or shard the event hits (0 for the round-level
/// events).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultEvent {
    /// The aggregator crashes right after the round completes, before the
    /// next checkpoint (round-level; drawn from `agg=`, never pinned).
    AggCrash,
    /// The client permanently departs (unlike a crash, it never returns).
    Leave,
    /// The client's link is slow for the round: the network model
    /// multiplies that delivery's latency by the configured slow factor.
    SlowLink,
    /// The client's transport connection is severed mid-round, forcing a
    /// reconnect with capped backoff and a session resume. Injected at the
    /// transport layer only: the simulator has no connection to sever.
    NetCrash,
    /// The client keeps its connection open but goes mute (heartbeats
    /// included) for the round, exercising heartbeat-miss detection.
    NetHang,
    /// The coordinator process exits right after committing the round; a
    /// restart restores it from the checkpoint (round-level).
    CoordKill,
    /// The sub-aggregator shard crashes mid-round: its slice of the cohort
    /// is lost, the shard is permanently dead, and its orphans re-parent
    /// to siblings from the next round on.
    ShardCrash,
    /// The sub-aggregator shard hangs for the round: its slice is lost
    /// that round only.
    ShardHang,
}

/// What a pinned fault does.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A round fault of one client; overrides that cell's draw.
    Client {
        /// The fault.
        fault: ClientFault,
    },
    /// One brand-new client joins (on top of any `join=` draw).
    Join,
    /// One plan event.
    Event {
        /// The event.
        event: FaultEvent,
    },
}

/// Every pinned kind, one row each: its name before `@` (a `:<…>` suffix
/// is a magnitude the entry must give), the axis of the cell after its
/// round (`c` a client, `s` a shard, none for a round-level kind), and what
/// fires. Parsing and the unknown-kind error both read this table.
#[rustfmt::skip]
const KINDS: [(&str, Option<char>, FaultKind); 14] = [
    ("crash", Some('c'), client(ClientFault::Crash)),
    ("straggle:<ms>", Some('c'), client(ClientFault::Straggle { delay_ms: 0 })),
    ("corrupt:<n>", Some('c'), client(ClientFault::Corrupt { attempts: 0 })),
    ("nan-update", Some('c'), client(ClientFault::NanUpdate)),
    ("sign-flip", Some('c'), client(ClientFault::SignFlip)),
    ("scale:<x>", Some('c'), client(ClientFault::Scale { factor: 0.0 })),
    ("join", None, FaultKind::Join),
    ("leave", Some('c'), event(FaultEvent::Leave)),
    ("slowlink", Some('c'), event(FaultEvent::SlowLink)),
    ("netcrash", Some('c'), event(FaultEvent::NetCrash)),
    ("nethang", Some('c'), event(FaultEvent::NetHang)),
    ("coordkill", None, event(FaultEvent::CoordKill)),
    ("shardcrash", Some('s'), event(FaultEvent::ShardCrash)),
    ("shardhang", Some('s'), event(FaultEvent::ShardHang)),
];

const fn client(fault: ClientFault) -> FaultKind {
    FaultKind::Client { fault }
}

const fn event(event: FaultEvent) -> FaultKind {
    FaultKind::Event { event }
}

/// Every `key=value` rate key, one row each with the field it sets.
/// Parsing and the unknown-key error both read this table.
type SetRate = fn(&mut FaultSpec, &str) -> Option<()>;
const RATE_KEYS: [(&str, SetRate); 16] = [
    ("crash", |s, v| set(&mut s.p_crash, v)),
    ("straggle", |s, v| set(&mut s.p_straggle, v)),
    ("straggle-ms", |s, v| set(&mut s.straggle_ms_max, v)),
    ("corrupt", |s, v| set(&mut s.p_corrupt, v)),
    ("corrupt-attempts", |s, v| {
        set(&mut s.corrupt_attempts_max, v)
    }),
    ("agg", |s, v| set(&mut s.p_agg_crash, v)),
    ("nan", |s, v| set(&mut s.p_nan, v)),
    ("sign-flip", |s, v| set(&mut s.p_sign_flip, v)),
    ("scale", |s, v| set(&mut s.p_scale, v)),
    ("scale-factor", |s, v| set(&mut s.scale_factor, v)),
    ("join", |s, v| set(&mut s.p_join, v)),
    ("leave", |s, v| set(&mut s.p_leave, v)),
    ("shardcrash", |s, v| set(&mut s.p_shard_crash, v)),
    ("shardhang", |s, v| set(&mut s.p_shard_hang, v)),
    ("shards", |s, v| set(&mut s.shards, v)),
    ("seed", |s, v| set(&mut s.seed, v)),
];

fn set<T: std::str::FromStr>(field: &mut T, value: &str) -> Option<()> {
    *field = value.parse().ok()?;
    Some(())
}

/// A fault pinned to one cell, bypassing the probabilistic draws:
/// `sign-flip@r3c1` makes client 1 flip its update at round 3 whatever
/// the seeded rates say, `join@r2` admits one client at round 2, and
/// `shardhang@r4s1` hangs shard 1 at round 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TargetedFault {
    /// Round the fault fires in.
    pub round: u64,
    /// Client or shard hit by the fault (0 for a round-level kind).
    pub index: u32,
    /// What happens.
    pub kind: FaultKind,
}

impl TargetedFault {
    /// Parses a `kind@rN`, `kind@rNcM` or `kind@rNsM` entry, whichever
    /// axis the kind takes, e.g. `sign-flip@r3c1`, `scale:50@r2c0`,
    /// `join@r4` or `shardcrash@r3s2`.
    ///
    /// # Errors
    /// Returns a message naming the malformed part.
    pub fn parse(s: &str) -> Result<TargetedFault, String> {
        let (name, cell) = s
            .split_once('@')
            .ok_or_else(|| format!("targeted fault {s:?} is not kind@cell"))?;
        let (kind, axis) = parse_kind(name)?;
        let (round, index) = parse_cell(cell, axis).ok_or_else(|| {
            let shape = axis.map_or("rN".into(), |axis| format!("rN{axis}M"));
            format!("targeted fault {s:?} is not {name}@{shape}")
        })?;
        Ok(TargetedFault { round, index, kind })
    }
}

/// Looks a pinned kind's name up in [`KINDS`], filling in the magnitude a
/// `:<…>` row takes, and returns it with the axis of its cell.
fn parse_kind(name: &str) -> Result<(FaultKind, Option<char>), String> {
    let (base, magnitude) = match name.split_once(':') {
        Some((base, magnitude)) => (base, Some(magnitude)),
        None => (name, None),
    };
    let &(_, axis, kind) = KINDS
        .iter()
        .find(|(row, ..)| {
            row.split(':').next() == Some(base) && row.contains(':') == magnitude.is_some()
        })
        .ok_or_else(|| {
            let kinds: Vec<_> = KINDS.iter().map(|(row, ..)| *row).collect();
            format!("unknown fault kind {name:?} ({})", kinds.join("|"))
        })?;
    let kind = match (kind, magnitude) {
        (FaultKind::Client { fault }, Some(magnitude)) => client(
            sized(fault, magnitude)
                .ok_or_else(|| format!("invalid magnitude in fault kind {name:?}"))?,
        ),
        (kind, _) => kind,
    };
    Ok((kind, axis))
}

/// `fault` with the magnitude of a `straggle:<ms>`, `corrupt:<n>` or
/// `scale:<x>` entry (a scale factor must be finite).
fn sized(fault: ClientFault, magnitude: &str) -> Option<ClientFault> {
    Some(match fault {
        ClientFault::Straggle { .. } => ClientFault::Straggle {
            delay_ms: magnitude.parse().ok()?,
        },
        ClientFault::Corrupt { .. } => ClientFault::Corrupt {
            attempts: magnitude.parse().ok()?,
        },
        ClientFault::Scale { .. } => ClientFault::Scale {
            factor: magnitude.parse().ok().filter(|f: &f64| f.is_finite())?,
        },
        other => other,
    })
}

/// Parses the cell of a pinned entry: `rN` when `axis` is `None` (index
/// 0), else `rN<axis>M`.
fn parse_cell(cell: &str, axis: Option<char>) -> Option<(u64, u32)> {
    let rest = cell.strip_prefix('r')?;
    let (round, index) = match axis {
        Some(axis) => rest.split_once(axis)?,
        None => (rest, "0"),
    };
    Some((round.parse().ok()?, index.parse().ok()?))
}

/// Per-run fault rates, expanded into a [`FaultPlan`] by [`FaultSpec::plan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Per-(round, client) probability of a mid-round crash.
    pub p_crash: f64,
    /// Per-(round, client) probability of straggling.
    pub p_straggle: f64,
    /// Straggler delays are uniform in `[1, straggle_ms_max]`.
    pub straggle_ms_max: u64,
    /// Per-(round, client) probability of result-frame corruption.
    pub p_corrupt: f64,
    /// Corrupted transmission counts are uniform in `[1, corrupt_attempts_max]`.
    pub corrupt_attempts_max: u32,
    /// Per-round probability the aggregator crashes after the round.
    pub p_agg_crash: f64,
    /// Per-(round, client) probability of an all-NaN Byzantine update.
    #[serde(default)]
    pub p_nan: f64,
    /// Per-(round, client) probability of a sign-flipped Byzantine update.
    #[serde(default)]
    pub p_sign_flip: f64,
    /// Per-(round, client) probability of a rescaled Byzantine update.
    #[serde(default)]
    pub p_scale: f64,
    /// Multiplier used by `p_scale` draws.
    #[serde(default = "default_scale_factor")]
    pub scale_factor: f64,
    /// Per-round probability a brand-new client joins the federation
    /// (elastic membership; each firing admits exactly one client).
    #[serde(default)]
    pub p_join: f64,
    /// Per-(round, client) probability a founding member *permanently*
    /// departs (unlike a crash, a departed client never returns).
    #[serde(default)]
    pub p_leave: f64,
    /// Faults pinned to one cell (`kind@rN`, `kind@rNcM`, `kind@rNsM`),
    /// applied on top of the probabilistic draws; a pinned client fault
    /// overrides its cell's draw.
    #[serde(default)]
    pub targeted: Vec<TargetedFault>,
    /// Partition windows (`partition@rN[-rM]:a|b` grammar, `.`-separated
    /// client ids, `~` marking the severed group asymmetric).
    #[serde(default)]
    pub partitions: Vec<PartitionSpec>,
    /// Per-(round, shard) probability a sub-aggregator shard *crashes*
    /// mid-round ([`FaultEvent::ShardCrash`]). Drawn from its own salted
    /// column over [`FaultSpec::shards`] shards.
    #[serde(default)]
    pub p_shard_crash: f64,
    /// Per-(round, shard) probability a sub-aggregator shard *hangs* for
    /// one round ([`FaultEvent::ShardHang`]).
    #[serde(default)]
    pub p_shard_hang: f64,
    /// How many sub-aggregator shards the probabilistic shard columns
    /// cover (set from the hierarchy config; 0 disables the columns).
    #[serde(default)]
    pub shards: usize,
    /// Seed for the fault schedule (independent of the training seed).
    pub seed: u64,
}

fn default_scale_factor() -> f64 {
    100.0
}

impl FaultSpec {
    /// A spec that injects nothing (useful as a CLI default).
    pub fn none(seed: u64) -> Self {
        FaultSpec {
            p_crash: 0.0,
            p_straggle: 0.0,
            straggle_ms_max: 1_000,
            p_corrupt: 0.0,
            corrupt_attempts_max: 2,
            p_agg_crash: 0.0,
            p_nan: 0.0,
            p_sign_flip: 0.0,
            p_scale: 0.0,
            scale_factor: default_scale_factor(),
            p_join: 0.0,
            p_leave: 0.0,
            targeted: Vec::new(),
            partitions: Vec::new(),
            p_shard_crash: 0.0,
            p_shard_hang: 0.0,
            shards: 0,
            seed,
        }
    }

    /// Parses a compact CLI spec: comma-separated entries that are either
    /// `key=value` rates (the keys of `RATE_KEYS`: `crash`, `straggle`,
    /// `straggle-ms`, `corrupt`, `corrupt-attempts`, `agg`, `nan`,
    /// `sign-flip`, `scale`, `scale-factor`, `join`, `leave`, `shardcrash`,
    /// `shardhang`, `shards`, `seed`; each at most once), pinned faults
    /// `kind@rN` / `kind@rNcM` / `kind@rNsM` (see [`TargetedFault::parse`]),
    /// or partition windows `partition@rN[-rM]:a|b` (client ids
    /// `.`-separated; `~` before the severed group makes the partition
    /// asymmetric), e.g.
    /// `crash=0.05,partition@r2-r5:0|1.2,slowlink@r3c0,seed=9`.
    ///
    /// # Errors
    /// Returns a message naming the offending entry or value.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::none(0);
        let mut rates_seen = [false; RATE_KEYS.len()];
        for pair in s.split(',').filter(|p| !p.trim().is_empty()) {
            let pair = pair.trim();
            if let Some(window) = pair.strip_prefix("partition@") {
                spec.partitions.push(parse_partition(window)?);
            } else if pair.contains('@') {
                spec.targeted.push(TargetedFault::parse(pair)?);
            } else {
                let (key, value) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("fault spec entry {pair:?} is not key=value"))?;
                let key = key.trim();
                let row = RATE_KEYS
                    .iter()
                    .position(|(k, _)| *k == key)
                    .ok_or_else(|| {
                        let keys: Vec<_> = RATE_KEYS.iter().map(|(k, _)| *k).collect();
                        format!("unknown fault spec key {key:?} ({})", keys.join("|"))
                    })?;
                // A repeated key is a typo, not an override.
                if std::mem::replace(&mut rates_seen[row], true) {
                    return Err(format!("fault spec key {key:?} is given twice"));
                }
                (RATE_KEYS[row].1)(&mut spec, value)
                    .ok_or_else(|| format!("invalid fault value for {key}: {value:?}"))?;
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks probabilities and ranges.
    ///
    /// # Errors
    /// Returns a description of the inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("crash", self.p_crash),
            ("straggle", self.p_straggle),
            ("corrupt", self.p_corrupt),
            ("agg", self.p_agg_crash),
            ("nan", self.p_nan),
            ("sign-flip", self.p_sign_flip),
            ("scale", self.p_scale),
            ("join", self.p_join),
            ("leave", self.p_leave),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault probability {name}={p} outside [0, 1]"));
            }
        }
        let client_sum = self.p_crash
            + self.p_straggle
            + self.p_corrupt
            + self.p_nan
            + self.p_sign_flip
            + self.p_scale
            + self.p_leave;
        if client_sum > 1.0 {
            return Err("client fault probabilities sum past 1.0".into());
        }
        if self.straggle_ms_max == 0 || self.corrupt_attempts_max == 0 {
            return Err("fault magnitudes must be at least 1".into());
        }
        if !self.scale_factor.is_finite() {
            return Err(format!("scale factor {} must be finite", self.scale_factor));
        }
        for (name, p) in [
            ("shardcrash", self.p_shard_crash),
            ("shardhang", self.p_shard_hang),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("fault probability {name}={p} outside [0, 1]"));
            }
        }
        if self.p_shard_crash + self.p_shard_hang > 1.0 {
            return Err("shard fault probabilities sum past 1.0".into());
        }
        self.partitions.iter().try_for_each(PartitionSpec::validate)
    }

    /// [`FaultSpec::plan`] for `rounds` rounds of a run of `cfg`: the
    /// probabilistic shard columns cover the run's aggregation tree unless
    /// the spec pinned a shard count.
    ///
    /// # Panics
    /// Panics if the spec fails [`FaultSpec::validate`].
    pub fn plan_for(&self, cfg: &crate::FederationConfig, rounds: u64) -> FaultPlan {
        let mut spec = self.clone();
        if spec.shards == 0 {
            spec.shards = cfg.hierarchy.map_or(0, |h| h.shards);
        }
        spec.plan(cfg.population, rounds)
    }

    /// Expands the rates into a concrete schedule over `population`
    /// clients and `rounds` rounds. Every (round, client) cell draws from
    /// its own stream keyed by `(seed, round, client)`, so the plan is
    /// identical whatever order (or thread budget) it is built or queried
    /// under.
    ///
    /// # Panics
    /// Panics if the spec fails [`FaultSpec::validate`].
    pub fn plan(&self, population: usize, rounds: u64) -> FaultPlan {
        self.validate().expect("invalid fault spec");
        let mut client_faults = BTreeMap::new();
        let mut events = BTreeSet::new();
        for round in 0..rounds {
            for client in 0..population as u32 {
                let mut rng = cell_stream(self.seed, round, client);
                let u = rng.next_f64();
                // New thresholds extend the chain AFTER the legacy kinds
                // (Byzantine after the PR-2 set, churn after Byzantine), so
                // a spec with the new rates at zero expands to the exact
                // plan older versions produced.
                let t_crash = self.p_crash;
                let t_straggle = t_crash + self.p_straggle;
                let t_corrupt = t_straggle + self.p_corrupt;
                let t_nan = t_corrupt + self.p_nan;
                let t_flip = t_nan + self.p_sign_flip;
                let t_scale = t_flip + self.p_scale;
                let t_leave = t_scale + self.p_leave;
                let fault = if u < t_crash {
                    Some(ClientFault::Crash)
                } else if u < t_straggle {
                    Some(ClientFault::Straggle {
                        delay_ms: 1 + rng.next_below(self.straggle_ms_max as usize) as u64,
                    })
                } else if u < t_corrupt {
                    Some(ClientFault::Corrupt {
                        attempts: 1 + rng.next_below(self.corrupt_attempts_max as usize) as u32,
                    })
                } else if u < t_nan {
                    Some(ClientFault::NanUpdate)
                } else if u < t_flip {
                    Some(ClientFault::SignFlip)
                } else if u < t_scale {
                    Some(ClientFault::Scale {
                        factor: self.scale_factor,
                    })
                } else if u < t_leave {
                    // A departure is a membership event, not a round fault:
                    // the registry retires the client permanently.
                    events.insert((FaultEvent::Leave, round, client));
                    None
                } else {
                    None
                };
                if let Some(f) = fault {
                    client_faults.insert((round, client), f);
                }
            }
        }
        for round in 0..rounds {
            if cell_stream(self.seed, round, u32::MAX).next_f64() < self.p_agg_crash {
                events.insert((FaultEvent::AggCrash, round, 0));
            }
        }
        // Joins draw from their own reserved cell column (client id
        // u32::MAX - 1, disjoint from the agg-crash column): at most one
        // admission per round from the rate, plus any pinned join@rN.
        let mut joins: BTreeMap<u64, u32> = (0..rounds)
            .filter(|&round| cell_stream(self.seed, round, u32::MAX - 1).next_f64() < self.p_join)
            .map(|round| (round, 1))
            .collect();
        // Shard faults draw from their own salted (round, shard) column,
        // gated on the rates, so legacy specs expand bit-identically.
        if (self.p_shard_crash > 0.0 || self.p_shard_hang > 0.0) && self.shards > 0 {
            for round in 0..rounds {
                for shard in 0..self.shards as u32 {
                    let mut rng = cell_stream(self.seed ^ SHARD_FAULT_SALT, round, shard);
                    let u = rng.next_f64();
                    if u < self.p_shard_crash {
                        events.insert((FaultEvent::ShardCrash, round, shard));
                    } else if u < self.p_shard_crash + self.p_shard_hang {
                        events.insert((FaultEvent::ShardHang, round, shard));
                    }
                }
            }
        }
        // Pinned faults land after every draw; those past the horizon are
        // ignored. A pinned client fault also needs a founding client and
        // overrides its cell's draw. Every other kind is bounded by round
        // only: a pinned leave or slow link may name a client admitted
        // mid-run, and each pinned join admits one more client.
        for t in self.targeted.iter().filter(|t| t.round < rounds) {
            match t.kind {
                FaultKind::Client { fault } => {
                    if (t.index as usize) < population {
                        client_faults.insert((t.round, t.index), fault);
                    }
                }
                FaultKind::Join => *joins.entry(t.round).or_insert(0) += 1,
                FaultKind::Event { event } => {
                    events.insert((event, t.round, t.index));
                }
            }
        }
        FaultPlan {
            client_faults,
            joins,
            partitions: PartitionSchedule::new(self.partitions.clone()),
            events,
        }
    }
}

/// Parses a partition window `rN[-rM]:a|b` (after the `partition@`
/// prefix): client ids `.`-separated, `a` the side documented as staying
/// connected (may be empty or `*`), `b` the severed side, `~` before `b`
/// marking the partition asymmetric (severed clients still receive
/// broadcasts but their results are lost).
fn parse_partition(s: &str) -> Result<PartitionSpec, String> {
    let bad = |what: &str| format!("invalid {what} in partition window {s:?}");
    let (span, groups) = s.split_once(':').ok_or_else(|| bad("shape (rN:a|b)"))?;
    let span = span.strip_prefix('r').ok_or_else(|| bad("round span"))?;
    let (start_round, heal_round) = match span.split_once("-r") {
        Some((start, heal)) => (
            start.parse().map_err(|_| bad("start round"))?,
            Some(heal.parse().map_err(|_| bad("heal round"))?),
        ),
        None => (span.parse().map_err(|_| bad("start round"))?, None),
    };
    let (a, b) = groups.split_once('|').ok_or_else(|| bad("groups (a|b)"))?;
    let (b, asymmetric) = match b.strip_prefix('~') {
        Some(rest) => (rest, true),
        None => (b, false),
    };
    let parse_ids = |side: &str| -> Result<Vec<u32>, String> {
        if side.is_empty() || side == "*" {
            return Ok(Vec::new());
        }
        side.split('.')
            .map(|id| id.parse().map_err(|_| bad("client id")))
            .collect()
    };
    let spec = PartitionSpec {
        start_round,
        heal_round,
        connected: parse_ids(a)?,
        severed: parse_ids(b)?,
        asymmetric,
    };
    spec.validate()?;
    Ok(spec)
}

/// Derives the independent stream for one (round, client) cell.
fn cell_stream(seed: u64, round: u64, client: u32) -> SeedStream {
    // FNV-style mix over the cell coordinates: pure, order-free.
    let mut h = 0xcbf29ce484222325u64 ^ seed;
    for byte in round.to_le_bytes().into_iter().chain(client.to_le_bytes()) {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    SeedStream::new(h)
}

/// One column of a [`FaultPlan`], as [`FaultPlan::count`] tallies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tally {
    /// Scheduled client round faults, of any kind.
    ClientFaults,
    /// Scheduled admissions (a round may admit several).
    Joins,
    /// Partition windows.
    Partitions,
    /// Scheduled events of one kind.
    Event(FaultEvent),
}

/// A concrete, replayable fault schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    client_faults: BTreeMap<(u64, u32), ClientFault>,
    joins: BTreeMap<u64, u32>,
    partitions: PartitionSchedule,
    events: BTreeSet<(FaultEvent, u64, u32)>,
}

impl FaultPlan {
    /// The fault (if any) scheduled for `client` at `round`.
    pub fn client_fault(&self, round: u64, client: u32) -> Option<ClientFault> {
        self.client_faults.get(&(round, client)).copied()
    }

    /// The clients scheduled to crash at `round`, ascending: one range
    /// query over the round's faults, for callers that would otherwise ask
    /// [`FaultPlan::client_fault`] about every client.
    pub fn crashes_at(&self, round: u64) -> Vec<u32> {
        self.client_faults
            .range((round, 0)..=(round, u32::MAX))
            .filter(|&(_, &fault)| fault == ClientFault::Crash)
            .map(|(&(_, client), _)| client)
            .collect()
    }

    /// How many new clients join the federation at `round`.
    pub fn joins_at(&self, round: u64) -> u32 {
        self.joins.get(&round).copied().unwrap_or(0)
    }

    /// The severing in effect for `client` at `round`, if any.
    pub fn partition_state(&self, round: u64, client: u32) -> Option<PartitionKind> {
        self.partitions.state(round, client)
    }

    /// Whether `event` is scheduled at `round` for client or shard
    /// `index` (0 for the round-level [`FaultEvent::AggCrash`] and
    /// [`FaultEvent::CoordKill`]).
    pub fn has(&self, event: FaultEvent, round: u64, index: u32) -> bool {
        self.events.contains(&(event, round, index))
    }

    /// The clients or shards `event` is scheduled for at `round`,
    /// ascending.
    pub fn at(&self, event: FaultEvent, round: u64) -> Vec<u32> {
        self.events
            .range((event, round, 0)..=(event, round, u32::MAX))
            .map(|&(_, _, index)| index)
            .collect()
    }

    /// How many entries one column of the plan holds.
    pub fn count(&self, tally: Tally) -> usize {
        match tally {
            Tally::ClientFaults => self.client_faults.len(),
            Tally::Joins => self.joins.values().map(|&n| n as usize).sum(),
            Tally::Partitions => self.partitions.len(),
            Tally::Event(event) => self
                .events
                .range((event, 0, 0)..=(event, u64::MAX, u32::MAX))
                .count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::FaultEvent::*;
    use super::*;

    fn pinned(round: u64, index: u32, kind: FaultKind) -> TargetedFault {
        TargetedFault { round, index, kind }
    }

    fn chaos_spec(seed: u64) -> FaultSpec {
        FaultSpec {
            p_crash: 0.1,
            p_straggle: 0.2,
            straggle_ms_max: 500,
            p_corrupt: 0.15,
            corrupt_attempts_max: 3,
            p_agg_crash: 0.1,
            ..FaultSpec::none(seed)
        }
    }

    #[test]
    fn plans_replay_bit_identically() {
        let a = chaos_spec(7).plan(16, 50);
        let b = chaos_spec(7).plan(16, 50);
        assert_eq!(a, b);
        assert!(
            a.count(Tally::ClientFaults) > 0,
            "chaos spec injected nothing"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = chaos_spec(7).plan(16, 50);
        let b = chaos_spec(8).plan(16, 50);
        assert_ne!(a, b);
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = chaos_spec(3).plan(32, 200);
        let cells = 32.0 * 200.0;
        let frac = plan.count(Tally::ClientFaults) as f64 / cells;
        // p_crash + p_straggle + p_corrupt = 0.45.
        assert!((frac - 0.45).abs() < 0.05, "fault rate {frac}");
        let agg_frac = plan.count(Tally::Event(FaultEvent::AggCrash)) as f64 / 200.0;
        assert!((agg_frac - 0.1).abs() < 0.08, "agg crash rate {agg_frac}");
    }

    #[test]
    fn zero_spec_injects_nothing() {
        let plan = FaultSpec::none(9).plan(8, 100);
        assert_eq!(plan.count(Tally::ClientFaults), 0);
        assert_eq!(plan.count(Tally::Event(FaultEvent::AggCrash)), 0);
    }

    #[test]
    fn all_crash_spec_crashes_everyone() {
        let mut spec = FaultSpec::none(1);
        spec.p_crash = 1.0;
        let plan = spec.plan(4, 5);
        for round in 0..5 {
            for client in 0..4 {
                assert_eq!(plan.client_fault(round, client), Some(ClientFault::Crash));
            }
        }
    }

    #[test]
    fn fault_magnitudes_in_range() {
        let plan = chaos_spec(11).plan(16, 100);
        for round in 0..100 {
            for client in 0..16 {
                match plan.client_fault(round, client) {
                    Some(ClientFault::Straggle { delay_ms }) => {
                        assert!((1..=500).contains(&delay_ms))
                    }
                    Some(ClientFault::Corrupt { attempts }) => {
                        assert!((1..=3).contains(&attempts))
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn parse_roundtrips_the_cli_grammar() {
        let spec = FaultSpec::parse(
            "crash=0.05,straggle=0.1,straggle-ms=200,corrupt=0.02,agg=0.01,seed=4",
        )
        .unwrap();
        assert_eq!(spec.p_crash, 0.05);
        assert_eq!(spec.p_straggle, 0.1);
        assert_eq!(spec.straggle_ms_max, 200);
        assert_eq!(spec.p_corrupt, 0.02);
        assert_eq!(spec.p_agg_crash, 0.01);
        assert_eq!(spec.seed, 4);
        assert!(FaultSpec::parse("crash=2.0").is_err());
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("crash").is_err());
        assert!(FaultSpec::parse("crash=0.5,straggle=0.4,corrupt=0.3").is_err());
    }

    #[test]
    fn byzantine_rates_expand_into_byzantine_faults() {
        let spec = FaultSpec {
            p_nan: 0.1,
            p_sign_flip: 0.1,
            p_scale: 0.1,
            scale_factor: 40.0,
            ..FaultSpec::none(13)
        };
        let plan = spec.plan(16, 100);
        let mut nans = 0;
        let mut flips = 0;
        let mut scales = 0;
        for round in 0..100 {
            for client in 0..16 {
                match plan.client_fault(round, client) {
                    Some(ClientFault::NanUpdate) => nans += 1,
                    Some(ClientFault::SignFlip) => flips += 1,
                    Some(ClientFault::Scale { factor }) => {
                        assert_eq!(factor, 40.0);
                        scales += 1;
                    }
                    Some(_) => panic!("unexpected legacy fault"),
                    None => {}
                }
            }
        }
        assert!(nans > 0 && flips > 0 && scales > 0);
    }

    #[test]
    fn zero_byzantine_rates_leave_legacy_plans_unchanged() {
        // The threshold chain appends the new kinds after the old ones, so
        // a spec without Byzantine rates expands to the exact legacy plan.
        let legacy = chaos_spec(7).plan(16, 50);
        let extended = FaultSpec {
            scale_factor: 999.0, // irrelevant while p_scale == 0
            ..chaos_spec(7)
        }
        .plan(16, 50);
        assert_eq!(legacy, extended);
    }

    #[test]
    fn targeted_faults_override_the_draw() {
        let spec = FaultSpec {
            targeted: vec![
                TargetedFault::parse("sign-flip@r3c1").unwrap(),
                TargetedFault::parse("scale:50@r2c0").unwrap(),
                TargetedFault::parse("nan-update@r99c0").unwrap(), // out of horizon
            ],
            ..FaultSpec::none(5)
        };
        let plan = spec.plan(4, 6);
        assert_eq!(plan.client_fault(3, 1), Some(ClientFault::SignFlip));
        assert_eq!(
            plan.client_fault(2, 0),
            Some(ClientFault::Scale { factor: 50.0 })
        );
        assert_eq!(
            plan.count(Tally::ClientFaults),
            2,
            "out-of-horizon target kept"
        );
    }

    #[test]
    fn targeted_grammar_roundtrips() {
        let spec = FaultSpec::parse("sign-flip@r3c1,crash=0.05,scale:2.5@r0c2,seed=8").unwrap();
        assert_eq!(spec.seed, 8);
        assert_eq!(spec.p_crash, 0.05);
        assert_eq!(
            spec.targeted,
            vec![
                TargetedFault {
                    round: 3,
                    index: 1,
                    kind: client(ClientFault::SignFlip)
                },
                TargetedFault {
                    round: 0,
                    index: 2,
                    kind: client(ClientFault::Scale { factor: 2.5 })
                },
            ]
        );
        assert_eq!(
            TargetedFault::parse("straggle:75@r0c0").unwrap().kind,
            client(ClientFault::Straggle { delay_ms: 75 })
        );
        assert_eq!(
            TargetedFault::parse("corrupt:2@r0c0").unwrap().kind,
            client(ClientFault::Corrupt { attempts: 2 })
        );
        assert!(TargetedFault::parse("sign-flip@x3c1").is_err());
        assert!(TargetedFault::parse("sign-flip@r3").is_err());
        assert!(TargetedFault::parse("warp@r1c1").is_err());
        assert!(TargetedFault::parse("scale:inf@r0c0").is_err());
        assert!(FaultSpec::parse("nan=0.5,sign-flip=0.4,scale=0.3").is_err());
    }

    #[test]
    fn process_fault_grammar_parses_and_plans() {
        let spec =
            FaultSpec::parse("netcrash@r2c1,nethang@r3c0,coordkill@r4,crash=0.05,seed=9").unwrap();
        assert_eq!(
            spec.targeted,
            vec![
                pinned(2, 1, event(NetCrash)),
                pinned(3, 0, event(NetHang)),
                pinned(4, 0, event(CoordKill)),
            ]
        );
        let plan = spec.plan(4, 8);
        assert!(plan.has(NetCrash, 2, 1));
        assert!(!plan.has(NetCrash, 2, 0));
        assert!(plan.has(NetHang, 3, 0));
        assert!(plan.has(CoordKill, 4, 0));
        assert!(!plan.has(CoordKill, 3, 0));
        assert_eq!(plan.count(Tally::Event(NetCrash)), 1);
        assert_eq!(plan.count(Tally::Event(NetHang)), 1);
        assert_eq!(plan.count(Tally::Event(CoordKill)), 1);
        // Out-of-horizon targets are dropped, like every other targeted kind.
        let short = spec.plan(4, 2);
        assert_eq!(short.count(Tally::Event(NetCrash)), 0);
        assert_eq!(short.count(Tally::Event(CoordKill)), 0);
        // Malformed cells are named in the error.
        assert!(FaultSpec::parse("netcrash@r2").is_err());
        assert!(FaultSpec::parse("nethang@x2c1").is_err());
        assert!(FaultSpec::parse("coordkill@c1").is_err());
    }

    #[test]
    fn process_faults_leave_legacy_plans_unchanged() {
        // Process faults are targeted-only: a spec without them expands to
        // the exact legacy plan, so sim-mode runs stay bit-identical.
        let legacy = chaos_spec(7).plan(16, 50);
        let extended = FaultSpec {
            targeted: Vec::new(),
            ..chaos_spec(7)
        }
        .plan(16, 50);
        assert_eq!(legacy, extended);
        assert_eq!(legacy.count(Tally::Event(NetCrash)), 0);
        assert_eq!(legacy.count(Tally::Event(NetHang)), 0);
        assert_eq!(legacy.count(Tally::Event(CoordKill)), 0);
    }

    #[test]
    fn zero_churn_rates_leave_legacy_plans_unchanged() {
        // Churn thresholds extend the chain after every older kind, so a
        // churn-free spec expands to the exact legacy plan.
        let legacy = chaos_spec(7).plan(16, 50);
        let extended = FaultSpec {
            targeted: Vec::new(),
            ..chaos_spec(7)
        }
        .plan(16, 50);
        assert_eq!(legacy, extended);
        assert_eq!(legacy.count(Tally::Joins), 0);
        assert_eq!(legacy.count(Tally::Event(Leave)), 0);
    }

    #[test]
    fn churn_rates_expand_into_joins_and_leaves() {
        let spec = FaultSpec {
            p_join: 0.3,
            p_leave: 0.02,
            ..FaultSpec::none(17)
        };
        let plan = spec.plan(16, 100);
        let joins = plan.count(Tally::Joins) as f64 / 100.0;
        assert!((joins - 0.3).abs() < 0.12, "join rate {joins}");
        let leaves = plan.count(Tally::Event(Leave)) as f64 / (16.0 * 100.0);
        assert!((leaves - 0.02).abs() < 0.015, "leave rate {leaves}");
        // A leave is a membership event, never also a round fault.
        for round in 0..100 {
            for client in plan.at(Leave, round) {
                assert_eq!(plan.client_fault(round, client), None);
            }
        }
        // Plans replay bit-identically with churn enabled.
        assert_eq!(plan, spec.plan(16, 100));
    }

    #[test]
    fn churn_grammar_parses_and_targets_fire() {
        let spec =
            FaultSpec::parse("join=0.1,leave=0.01,join@r4,join@r4,leave@r6c20,seed=3").unwrap();
        assert_eq!(spec.p_join, 0.1);
        assert_eq!(spec.p_leave, 0.01);
        assert_eq!(
            spec.targeted,
            vec![
                pinned(4, 0, FaultKind::Join),
                pinned(4, 0, FaultKind::Join),
                pinned(6, 20, event(Leave)),
            ]
        );
        let plan = FaultSpec {
            targeted: vec![
                pinned(4, 0, FaultKind::Join),
                pinned(4, 0, FaultKind::Join),
                pinned(99, 0, FaultKind::Join),
                pinned(6, 20, event(Leave)),
                pinned(99, 0, event(Leave)),
            ],
            ..FaultSpec::none(3)
        }
        .plan(8, 10);
        assert_eq!(plan.joins_at(4), 2, "both pinned joins fire");
        assert_eq!(plan.joins_at(5), 0);
        // Targeted leaves are not bounded by the founding population:
        // client 20 joined mid-run and can still be told to depart.
        assert_eq!(plan.at(Leave, 6), vec![20]);
        assert_eq!(plan.count(Tally::Joins), 2, "out-of-horizon join dropped");
        assert_eq!(
            plan.count(Tally::Event(Leave)),
            1,
            "out-of-horizon leave dropped"
        );
        assert!(FaultSpec::parse("join@x4").is_err());
        assert!(FaultSpec::parse("leave@r6").is_err());
        assert!(FaultSpec::parse("join=1.5").is_err());
        assert!(FaultSpec::parse("crash=0.6,leave=0.5").is_err(), "sum cap");
    }

    #[test]
    fn network_grammar_parses_and_expands() {
        let spec = FaultSpec::parse("partition@r2-r5:0|1.2,partition@r6:*|~3,slowlink@r3c0,seed=9")
            .unwrap();
        assert_eq!(spec.targeted, vec![pinned(3, 0, event(SlowLink))]);
        assert_eq!(spec.partitions.len(), 2);
        assert_eq!(spec.partitions[0].start_round, 2);
        assert_eq!(spec.partitions[0].heal_round, Some(5));
        assert_eq!(spec.partitions[0].severed, vec![1, 2]);
        assert!(!spec.partitions[0].asymmetric);
        assert_eq!(spec.partitions[1].heal_round, None);
        assert!(spec.partitions[1].asymmetric);

        let plan = spec.plan(8, 10);
        assert_eq!(plan.count(Tally::Event(SlowLink)), 1);
        assert!(plan.has(SlowLink, 3, 0));
        assert!(!plan.has(SlowLink, 3, 1));
        assert_eq!(plan.count(Tally::Partitions), 2);
        assert_eq!(
            plan.partition_state(3, 1),
            Some(PartitionKind::Full),
            "client 1 severed during the window"
        );
        assert_eq!(plan.partition_state(5, 1), None, "healed");
        assert_eq!(plan.partition_state(7, 3), Some(PartitionKind::Asymmetric));
        // Malformed windows are rejected.
        assert!(FaultSpec::parse("partition@r2").is_err());
        assert!(
            FaultSpec::parse("partition@r2:0|").is_err(),
            "empty severed"
        );
        assert!(
            FaultSpec::parse("partition@r5-r2:0|1").is_err(),
            "heal<start"
        );
        assert!(FaultSpec::parse("partition@r2:1|1").is_err(), "overlap");
        assert!(FaultSpec::parse("slowlink@r3").is_err());
        // Per-attempt link loss is not a fault kind: a socket retransmits
        // below the frame, and a reset is a reconnect.
        let err = FaultSpec::parse("lossy=1.5").unwrap_err();
        assert!(err.contains("unknown fault spec key \"lossy\""), "{err}");
    }

    #[test]
    fn zero_network_rates_leave_legacy_plans_unchanged() {
        // Partitions and pinned slow links ride in separate fields, so a
        // network-free spec expands to the exact legacy plan.
        let legacy = chaos_spec(7).plan(16, 50);
        let extended = FaultSpec {
            targeted: Vec::new(),
            partitions: Vec::new(),
            ..chaos_spec(7)
        }
        .plan(16, 50);
        assert_eq!(legacy, extended);
        assert_eq!(legacy.count(Tally::Partitions), 0);
    }

    #[test]
    fn shard_fault_grammar_parses_and_plans() {
        let spec = FaultSpec::parse(
            "shardcrash=0.1,shardhang=0.2,shards=8,shardcrash@r3s2,shardhang@r1s0",
        )
        .unwrap();
        assert_eq!(spec.p_shard_crash, 0.1);
        assert_eq!(spec.p_shard_hang, 0.2);
        assert_eq!(spec.shards, 8);
        assert_eq!(
            spec.targeted,
            vec![
                pinned(3, 2, event(ShardCrash)),
                pinned(1, 0, event(ShardHang)),
            ]
        );
        let plan = spec.plan(16, 10);
        assert!(plan.has(ShardCrash, 3, 2));
        assert!(plan.has(ShardHang, 1, 0));
        assert!(plan.count(Tally::Event(ShardCrash)) + plan.count(Tally::Event(ShardHang)) >= 2);
        // The probabilistic columns replay bit-identically.
        assert_eq!(plan, spec.plan(16, 10));
        // Malformed cells are rejected.
        assert!(FaultSpec::parse("shardcrash@r3c2").is_err());
        assert!(FaultSpec::parse("shardhang@s2").is_err());
        assert!(FaultSpec::parse("shardcrash=1.5").is_err());
    }

    #[test]
    fn zero_shard_rates_leave_legacy_plans_unchanged() {
        // Shard faults draw from their own salted (round, shard) column
        // and are gated on the rates, so a shard-free spec expands to the
        // exact legacy plan — and turning them on moves no client fault.
        let legacy = chaos_spec(7).plan(16, 50);
        let extended = FaultSpec {
            p_shard_crash: 0.0,
            p_shard_hang: 0.0,
            shards: 4,
            ..chaos_spec(7)
        }
        .plan(16, 50);
        assert_eq!(legacy, extended);
        let sharded = FaultSpec {
            p_shard_crash: 0.3,
            p_shard_hang: 0.3,
            shards: 4,
            ..chaos_spec(7)
        }
        .plan(16, 50);
        assert!(sharded.count(Tally::Event(ShardCrash)) > 0);
        assert!(sharded.count(Tally::Event(ShardHang)) > 0);
        for round in 0..50 {
            for client in 0..16 {
                assert_eq!(
                    legacy.client_fault(round, client),
                    sharded.client_fault(round, client)
                );
            }
        }
        assert_eq!(
            legacy.count(Tally::Event(AggCrash)),
            sharded.count(Tally::Event(AggCrash))
        );
    }
}
