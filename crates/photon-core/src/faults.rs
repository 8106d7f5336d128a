//! Deterministic fault injection for the federation engine.
//!
//! The paper's setting assumes accelerators "can be sporadically available
//! throughout a full training cycle" (§2.1) and that billion-scale runs
//! survive intermittent participation and aggregator restarts. This module
//! turns that assumption into a testable contract: a [`FaultSpec`]
//! describes *rates* of client crashes, stragglers, corrupted result
//! frames and aggregator crashes; [`FaultSpec::plan`] expands it into a
//! concrete, seeded [`FaultPlan`] — a pure function of `(spec, population,
//! rounds)` that is independent of thread budgets and query order, so
//! every chaos run replays bit-identically.

use photon_comms::{PartitionKind, PartitionSchedule, PartitionSpec};
use photon_tensor::SeedStream;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Salt separating the link-loss draw column from the client fault chain,
/// so `lossy=` rates never perturb a legacy plan.
const LINK_LOSS_SALT: u64 = 0x6c6f_7373_7921; // "lossy!"

/// Leading transmission attempts a single `lossy=` firing may swallow.
const LINK_LOSS_BURST: usize = 2;

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

impl ClientFault {
    /// Parses the targeted-fault kind grammar: `crash`, `nan-update`,
    /// `sign-flip`, `scale:<x>`, `straggle:<ms>`, `corrupt:<n>`.
    ///
    /// # Errors
    /// Returns a message naming the offending kind or parameter.
    pub fn parse_kind(s: &str) -> Result<ClientFault, String> {
        let (name, param) = match s.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (s, None),
        };
        let bad = |what: &str| format!("invalid {what} in fault kind {s:?}");
        match (name, param) {
            ("crash", None) => Ok(ClientFault::Crash),
            ("nan-update", None) => Ok(ClientFault::NanUpdate),
            ("sign-flip", None) => Ok(ClientFault::SignFlip),
            ("scale", Some(p)) => {
                let factor: f64 = p.parse().map_err(|_| bad("factor"))?;
                if !factor.is_finite() {
                    return Err(bad("factor"));
                }
                Ok(ClientFault::Scale { factor })
            }
            ("straggle", Some(p)) => Ok(ClientFault::Straggle {
                delay_ms: p.parse().map_err(|_| bad("delay"))?,
            }),
            ("corrupt", Some(p)) => Ok(ClientFault::Corrupt {
                attempts: p.parse().map_err(|_| bad("attempts"))?,
            }),
            _ => Err(format!(
                "unknown fault kind {s:?} \
                 (crash|nan-update|sign-flip|scale:<x>|straggle:<ms>|corrupt:<n>)"
            )),
        }
    }
}

/// A fault pinned to one specific `(round, client)` cell, bypassing the
/// probabilistic draw — `sign-flip@r3c1` injects a sign flip into client 1
/// at round 3 regardless of the seeded rates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TargetedFault {
    /// Round the fault fires in.
    pub round: u64,
    /// Client hit by the fault.
    pub client: u32,
    /// What happens to the client.
    pub fault: ClientFault,
}

impl TargetedFault {
    /// Parses a `kind@rNcM` entry, e.g. `sign-flip@r3c1` or
    /// `scale:50@r2c0`.
    ///
    /// # Errors
    /// Returns a message naming the malformed part.
    pub fn parse(s: &str) -> Result<TargetedFault, String> {
        let (kind, cell) = s
            .split_once('@')
            .ok_or_else(|| format!("targeted fault {s:?} is not kind@rNcM"))?;
        let fault = ClientFault::parse_kind(kind)?;
        let (round, client) = parse_cell(cell, Some('c')).map_err(|part| match part {
            CellPart::Shape => format!("targeted fault cell {cell:?} is not rNcM"),
            CellPart::Round => format!("invalid round in {cell:?}"),
            CellPart::Index => format!("invalid client in {cell:?}"),
        })?;
        Ok(TargetedFault {
            round,
            client,
            fault,
        })
    }
}

/// Which part of a targeted cell failed to parse.
enum CellPart {
    Shape,
    Round,
    Index,
}

/// Parses the cell of a targeted entry: `rN` when `axis` is `None`
/// (index 0), else `rN<axis>M` — `c` addresses a client, `s` a shard.
fn parse_cell(cell: &str, axis: Option<char>) -> Result<(u64, u32), CellPart> {
    let rest = cell.strip_prefix('r').ok_or(CellPart::Shape)?;
    let (round, index) = match axis {
        Some(axis) => rest.split_once(axis).ok_or(CellPart::Shape)?,
        None => (rest, "0"),
    };
    Ok((
        round.parse().map_err(|_| CellPart::Round)?,
        index.parse().map_err(|_| CellPart::Index)?,
    ))
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
    /// Rounds with a pinned join (`join@rN` grammar), on top of `p_join`.
    #[serde(default)]
    pub targeted_joins: Vec<u64>,
    /// Pinned departures (`leave@rNcM` grammar). Unlike the probabilistic
    /// draw these may target clients beyond the founding population —
    /// a client that joined mid-run can be told to leave again.
    #[serde(default)]
    pub targeted_leaves: Vec<(u64, u32)>,
    /// Faults pinned to specific `(round, client)` cells, applied on top
    /// of (and overriding) the probabilistic draws.
    #[serde(default)]
    pub targeted: Vec<TargetedFault>,
    /// Per-(round, client) probability the link *loses* leading result
    /// transmissions (`lossy=` grammar). Drawn from its own salted column,
    /// never the client fault chain — loss is a link property, and a spec
    /// with `lossy=0` expands to the exact legacy plan.
    #[serde(default)]
    pub p_link_loss: f64,
    /// Links pinned slow for one round (`slowlink@rNcM` grammar): the
    /// network model multiplies that delivery's latency by the configured
    /// slow factor.
    #[serde(default)]
    pub targeted_slowlinks: Vec<(u64, u32)>,
    /// Partition windows (`partition@rN[-rM]:a|b` grammar, `.`-separated
    /// client ids, `~` marking the severed group asymmetric).
    #[serde(default)]
    pub partitions: Vec<PartitionSpec>,
    /// Process-level connection severs (`netcrash@rNcM` grammar): the
    /// client's transport connection is killed mid-round, forcing a
    /// reconnect with capped backoff and a session resume. Injected at the
    /// transport layer only — the in-process simulator has no connection
    /// to sever, so sim plans are unaffected.
    #[serde(default)]
    pub targeted_netcrashes: Vec<(u64, u32)>,
    /// Process-level silent hangs (`nethang@rNcM` grammar): the client
    /// keeps its connection open but goes mute (heartbeats included) for
    /// the round, exercising heartbeat-miss detection.
    #[serde(default)]
    pub targeted_nethangs: Vec<(u64, u32)>,
    /// Coordinator kills (`coordkill@rN` grammar): the serve process
    /// exits right after committing round N; a restart must restore the
    /// state machine from the checkpoint and re-sync live clients.
    #[serde(default)]
    pub targeted_coordkills: Vec<u64>,
    /// Per-(round, shard) probability a sub-aggregator shard *crashes*
    /// mid-round: its slice of the cohort is lost that round, the shard is
    /// permanently dead, and its orphans are re-parented to siblings from
    /// the next round on. Drawn from its own salted column over
    /// [`FaultSpec::shards`] shards.
    #[serde(default)]
    pub p_shard_crash: f64,
    /// Per-(round, shard) probability a sub-aggregator shard *hangs* for
    /// one round: its slice is lost that round but the shard recovers.
    #[serde(default)]
    pub p_shard_hang: f64,
    /// How many sub-aggregator shards the probabilistic shard columns
    /// cover (set from the hierarchy config; 0 disables the columns).
    #[serde(default)]
    pub shards: usize,
    /// Pinned shard crashes (`shardcrash@rNsM` grammar).
    #[serde(default)]
    pub targeted_shardcrashes: Vec<(u64, u32)>,
    /// Pinned shard hangs (`shardhang@rNsM` grammar).
    #[serde(default)]
    pub targeted_shardhangs: Vec<(u64, u32)>,
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
            targeted_joins: Vec::new(),
            targeted_leaves: Vec::new(),
            targeted: Vec::new(),
            p_link_loss: 0.0,
            targeted_slowlinks: Vec::new(),
            partitions: Vec::new(),
            targeted_netcrashes: Vec::new(),
            targeted_nethangs: Vec::new(),
            targeted_coordkills: Vec::new(),
            p_shard_crash: 0.0,
            p_shard_hang: 0.0,
            shards: 0,
            targeted_shardcrashes: Vec::new(),
            targeted_shardhangs: Vec::new(),
            seed,
        }
    }

    /// Parses a compact CLI spec: comma-separated entries that are either
    /// `key=value` rate pairs — keys `crash`, `straggle`, `straggle-ms`,
    /// `corrupt`, `corrupt-attempts`, `agg`, `nan`, `sign-flip`, `scale`,
    /// `scale-factor`, `join`, `leave`, `lossy`, `seed` — or targeted
    /// entries: `kind@rNcM` faults, `join@rN` admissions, `leave@rNcM`
    /// departures, `slowlink@rNcM` slow links, and partition windows
    /// `partition@rN[-rM]:a|b` (client ids `.`-separated; `~` before the
    /// severed group makes the partition asymmetric), e.g.
    /// `crash=0.05,lossy=0.1,partition@r2-r5:0|1.2,slowlink@r3c0,seed=9`.
    ///
    /// # Errors
    /// Returns a message naming the offending entry or value.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::none(0);
        for pair in s.split(',').filter(|p| !p.trim().is_empty()) {
            let pair = pair.trim();
            if let Some(window) = pair.strip_prefix("partition@") {
                spec.partitions.push(parse_partition(window)?);
                continue;
            }
            if let Some((kind, cell)) = pair.split_once('@') {
                let cells = match kind {
                    "slowlink" => Some((&mut spec.targeted_slowlinks, 'c')),
                    "netcrash" => Some((&mut spec.targeted_netcrashes, 'c')),
                    "nethang" => Some((&mut spec.targeted_nethangs, 'c')),
                    "leave" => Some((&mut spec.targeted_leaves, 'c')),
                    "shardcrash" => Some((&mut spec.targeted_shardcrashes, 's')),
                    "shardhang" => Some((&mut spec.targeted_shardhangs, 's')),
                    _ => None,
                };
                if let Some((cells, axis)) = cells {
                    cells.push(parse_cell(cell, Some(axis)).map_err(|_| {
                        format!("targeted {kind} {pair:?} is not {kind}@rN{axis}M")
                    })?);
                    continue;
                }
                let rounds = match kind {
                    "join" => Some(&mut spec.targeted_joins),
                    "coordkill" => Some(&mut spec.targeted_coordkills),
                    _ => None,
                };
                match rounds {
                    Some(rounds) => rounds.push(
                        parse_cell(cell, None)
                            .map_err(|_| format!("targeted {kind} {pair:?} is not {kind}@rN"))?
                            .0,
                    ),
                    None => spec.targeted.push(TargetedFault::parse(pair)?),
                }
                continue;
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry {pair:?} is not key=value"))?;
            let bad = || format!("invalid fault value for {key}: {value:?}");
            match key.trim() {
                "crash" => spec.p_crash = value.parse().map_err(|_| bad())?,
                "straggle" => spec.p_straggle = value.parse().map_err(|_| bad())?,
                "straggle-ms" => spec.straggle_ms_max = value.parse().map_err(|_| bad())?,
                "corrupt" => spec.p_corrupt = value.parse().map_err(|_| bad())?,
                "corrupt-attempts" => {
                    spec.corrupt_attempts_max = value.parse().map_err(|_| bad())?
                }
                "agg" => spec.p_agg_crash = value.parse().map_err(|_| bad())?,
                "nan" => spec.p_nan = value.parse().map_err(|_| bad())?,
                "sign-flip" => spec.p_sign_flip = value.parse().map_err(|_| bad())?,
                "scale" => spec.p_scale = value.parse().map_err(|_| bad())?,
                "scale-factor" => spec.scale_factor = value.parse().map_err(|_| bad())?,
                "join" => spec.p_join = value.parse().map_err(|_| bad())?,
                "leave" => spec.p_leave = value.parse().map_err(|_| bad())?,
                "lossy" => spec.p_link_loss = value.parse().map_err(|_| bad())?,
                "shardcrash" => spec.p_shard_crash = value.parse().map_err(|_| bad())?,
                "shardhang" => spec.p_shard_hang = value.parse().map_err(|_| bad())?,
                "shards" => spec.shards = value.parse().map_err(|_| bad())?,
                "seed" => spec.seed = value.parse().map_err(|_| bad())?,
                other => return Err(format!("unknown fault spec key {other:?}")),
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
        if !self.p_link_loss.is_finite() || !(0.0..=1.0).contains(&self.p_link_loss) {
            return Err(format!(
                "fault probability lossy={} outside [0, 1]",
                self.p_link_loss
            ));
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
        let mut leaves = BTreeSet::new();
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
                    leaves.insert((round, client));
                    None
                } else {
                    None
                };
                if let Some(f) = fault {
                    client_faults.insert((round, client), f);
                }
            }
        }
        // Targeted faults override whatever the probabilistic draw chose
        // for their cell; out-of-horizon targets are ignored.
        for t in &self.targeted {
            if t.round < rounds && (t.client as usize) < population {
                client_faults.insert((t.round, t.client), t.fault);
            }
        }
        let agg_crashes = (0..rounds)
            .filter(|&round| cell_stream(self.seed, round, u32::MAX).next_f64() < self.p_agg_crash)
            .collect();
        // Joins draw from their own reserved cell column (client id
        // u32::MAX - 1, disjoint from the agg-crash column): at most one
        // admission per round from the rate, plus any pinned join@rN.
        let mut joins: BTreeMap<u64, u32> = (0..rounds)
            .filter(|&round| cell_stream(self.seed, round, u32::MAX - 1).next_f64() < self.p_join)
            .map(|round| (round, 1))
            .collect();
        for round in in_horizon(&self.targeted_joins, rounds, |r| r) {
            *joins.entry(round).or_insert(0) += 1;
        }
        // Targeted leaves may name any client id — including one only
        // admitted mid-run — so they are not bounded by `population`.
        leaves.extend(in_horizon(&self.targeted_leaves, rounds, cell_round));
        // Link losses draw from their own salted column (never the client
        // fault chain), so `lossy=0` leaves legacy plans bit-identical.
        let mut link_losses = BTreeMap::new();
        if self.p_link_loss > 0.0 {
            for round in 0..rounds {
                for client in 0..population as u32 {
                    let mut rng = cell_stream(self.seed ^ LINK_LOSS_SALT, round, client);
                    if rng.next_f64() < self.p_link_loss {
                        let burst = 1 + rng.next_below(LINK_LOSS_BURST) as u32;
                        link_losses.insert((round, client), burst);
                    }
                }
            }
        }
        // Slow links, like targeted leaves, may name clients admitted
        // mid-run, so they are bounded only by the round horizon.
        let slow_links = in_horizon(&self.targeted_slowlinks, rounds, cell_round).collect();
        // Process faults are targeted-only (no probabilistic column), so
        // legacy specs expand to bit-identical plans with empty sets.
        let netcrashes = in_horizon(&self.targeted_netcrashes, rounds, cell_round).collect();
        let nethangs = in_horizon(&self.targeted_nethangs, rounds, cell_round).collect();
        let coordkills = in_horizon(&self.targeted_coordkills, rounds, |r| r).collect();
        // Shard faults draw from their own salted (round, shard) column,
        // gated on the rates, so legacy specs expand bit-identically.
        let mut shardcrashes = BTreeSet::new();
        let mut shardhangs = BTreeSet::new();
        if (self.p_shard_crash > 0.0 || self.p_shard_hang > 0.0) && self.shards > 0 {
            for round in 0..rounds {
                for shard in 0..self.shards as u32 {
                    let mut rng = cell_stream(self.seed ^ SHARD_FAULT_SALT, round, shard);
                    let u = rng.next_f64();
                    if u < self.p_shard_crash {
                        shardcrashes.insert((round, shard));
                    } else if u < self.p_shard_crash + self.p_shard_hang {
                        shardhangs.insert((round, shard));
                    }
                }
            }
        }
        shardcrashes.extend(in_horizon(&self.targeted_shardcrashes, rounds, cell_round));
        shardhangs.extend(in_horizon(&self.targeted_shardhangs, rounds, cell_round));
        FaultPlan {
            client_faults,
            agg_crashes,
            joins,
            leaves,
            link_losses,
            slow_links,
            partitions: PartitionSchedule::new(self.partitions.clone()),
            netcrashes,
            nethangs,
            coordkills,
            shardcrashes,
            shardhangs,
            rounds,
        }
    }
}

/// The targets that fire inside the planning horizon; later ones are
/// ignored.
fn in_horizon<'a, T: Copy>(
    targets: &'a [T],
    rounds: u64,
    round_of: impl Fn(T) -> u64 + 'a,
) -> impl Iterator<Item = T> + 'a {
    targets
        .iter()
        .copied()
        .filter(move |&target| round_of(target) < rounds)
}

fn cell_round((round, _): (u64, u32)) -> u64 {
    round
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

/// A concrete, replayable fault schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    client_faults: BTreeMap<(u64, u32), ClientFault>,
    agg_crashes: BTreeSet<u64>,
    joins: BTreeMap<u64, u32>,
    leaves: BTreeSet<(u64, u32)>,
    link_losses: BTreeMap<(u64, u32), u32>,
    slow_links: BTreeSet<(u64, u32)>,
    partitions: PartitionSchedule,
    netcrashes: BTreeSet<(u64, u32)>,
    nethangs: BTreeSet<(u64, u32)>,
    coordkills: BTreeSet<u64>,
    shardcrashes: BTreeSet<(u64, u32)>,
    shardhangs: BTreeSet<(u64, u32)>,
    rounds: u64,
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

    /// Whether the aggregator is scheduled to crash right after `round`
    /// completes (before the next checkpoint).
    pub fn aggregator_crashes_after(&self, round: u64) -> bool {
        self.agg_crashes.contains(&round)
    }

    /// How many new clients join the federation at `round`.
    pub fn joins_at(&self, round: u64) -> u32 {
        self.joins.get(&round).copied().unwrap_or(0)
    }

    /// The clients scheduled to permanently depart at `round`, ascending.
    pub fn leaves_at(&self, round: u64) -> Vec<u32> {
        self.leaves
            .range((round, 0)..=(round, u32::MAX))
            .map(|&(_, c)| c)
            .collect()
    }

    /// Number of scheduled client faults.
    pub fn client_fault_count(&self) -> usize {
        self.client_faults.len()
    }

    /// Number of scheduled aggregator crashes.
    pub fn agg_crash_count(&self) -> usize {
        self.agg_crashes.len()
    }

    /// Number of scheduled joins across the horizon.
    pub fn join_count(&self) -> usize {
        self.joins.values().map(|&n| n as usize).sum()
    }

    /// Number of scheduled permanent departures.
    pub fn leave_count(&self) -> usize {
        self.leaves.len()
    }

    /// Leading result transmissions lost on `client`'s link at `round`
    /// (0 = the link delivers normally).
    pub fn link_loss(&self, round: u64, client: u32) -> u32 {
        self.link_losses.get(&(round, client)).copied().unwrap_or(0)
    }

    /// Whether `client`'s link is pinned slow at `round`.
    pub fn slowlink_at(&self, round: u64, client: u32) -> bool {
        self.slow_links.contains(&(round, client))
    }

    /// The severing in effect for `client` at `round`, if any.
    pub fn partition_state(&self, round: u64, client: u32) -> Option<PartitionKind> {
        self.partitions.state(round, client)
    }

    /// Number of cells scheduled to lose transmissions.
    pub fn link_loss_count(&self) -> usize {
        self.link_losses.len()
    }

    /// Number of cells pinned slow.
    pub fn slowlink_count(&self) -> usize {
        self.slow_links.len()
    }

    /// Number of scheduled partition windows.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Whether `client`'s transport connection is scheduled to be severed
    /// mid-round at `round` (reconnect + session resume expected).
    pub fn netcrash_at(&self, round: u64, client: u32) -> bool {
        self.netcrashes.contains(&(round, client))
    }

    /// Whether `client` is scheduled to go silent (socket open, no frames
    /// or heartbeats) at `round`.
    pub fn nethang_at(&self, round: u64, client: u32) -> bool {
        self.nethangs.contains(&(round, client))
    }

    /// Whether the coordinator process is scheduled to die right after
    /// committing `round`.
    pub fn coordkill_after(&self, round: u64) -> bool {
        self.coordkills.contains(&round)
    }

    /// Number of scheduled transport connection severs.
    pub fn netcrash_count(&self) -> usize {
        self.netcrashes.len()
    }

    /// Number of scheduled transport hangs.
    pub fn nethang_count(&self) -> usize {
        self.nethangs.len()
    }

    /// Number of scheduled coordinator kills.
    pub fn coordkill_count(&self) -> usize {
        self.coordkills.len()
    }

    /// Whether sub-aggregator `shard` is scheduled to crash mid-round at
    /// `round` (permanent death; orphans re-parent next round).
    pub fn shardcrash_at(&self, round: u64, shard: u32) -> bool {
        self.shardcrashes.contains(&(round, shard))
    }

    /// Whether sub-aggregator `shard` is scheduled to hang for `round`
    /// (its slice is lost that round only).
    pub fn shardhang_at(&self, round: u64, shard: u32) -> bool {
        self.shardhangs.contains(&(round, shard))
    }

    /// Number of scheduled shard crashes.
    pub fn shardcrash_count(&self) -> usize {
        self.shardcrashes.len()
    }

    /// Number of scheduled shard hangs.
    pub fn shardhang_count(&self) -> usize {
        self.shardhangs.len()
    }

    /// The planning horizon in rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(a.client_fault_count() > 0, "chaos spec injected nothing");
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
        let frac = plan.client_fault_count() as f64 / cells;
        // p_crash + p_straggle + p_corrupt = 0.45.
        assert!((frac - 0.45).abs() < 0.05, "fault rate {frac}");
        let agg_frac = plan.agg_crash_count() as f64 / 200.0;
        assert!((agg_frac - 0.1).abs() < 0.08, "agg crash rate {agg_frac}");
    }

    #[test]
    fn zero_spec_injects_nothing() {
        let plan = FaultSpec::none(9).plan(8, 100);
        assert_eq!(plan.client_fault_count(), 0);
        assert_eq!(plan.agg_crash_count(), 0);
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
        assert_eq!(plan.client_fault_count(), 2, "out-of-horizon target kept");
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
                    client: 1,
                    fault: ClientFault::SignFlip
                },
                TargetedFault {
                    round: 0,
                    client: 2,
                    fault: ClientFault::Scale { factor: 2.5 }
                },
            ]
        );
        assert_eq!(
            ClientFault::parse_kind("straggle:75").unwrap(),
            ClientFault::Straggle { delay_ms: 75 }
        );
        assert_eq!(
            ClientFault::parse_kind("corrupt:2").unwrap(),
            ClientFault::Corrupt { attempts: 2 }
        );
        assert!(TargetedFault::parse("sign-flip@x3c1").is_err());
        assert!(TargetedFault::parse("sign-flip@r3").is_err());
        assert!(TargetedFault::parse("warp@r1c1").is_err());
        assert!(ClientFault::parse_kind("scale:inf").is_err());
        assert!(FaultSpec::parse("nan=0.5,sign-flip=0.4,scale=0.3").is_err());
    }

    #[test]
    fn process_fault_grammar_parses_and_plans() {
        let spec =
            FaultSpec::parse("netcrash@r2c1,nethang@r3c0,coordkill@r4,crash=0.05,seed=9").unwrap();
        assert_eq!(spec.targeted_netcrashes, vec![(2, 1)]);
        assert_eq!(spec.targeted_nethangs, vec![(3, 0)]);
        assert_eq!(spec.targeted_coordkills, vec![4]);
        let plan = spec.plan(4, 8);
        assert!(plan.netcrash_at(2, 1));
        assert!(!plan.netcrash_at(2, 0));
        assert!(plan.nethang_at(3, 0));
        assert!(plan.coordkill_after(4));
        assert!(!plan.coordkill_after(3));
        assert_eq!(plan.netcrash_count(), 1);
        assert_eq!(plan.nethang_count(), 1);
        assert_eq!(plan.coordkill_count(), 1);
        // Out-of-horizon targets are dropped, like every other targeted kind.
        let short = spec.plan(4, 2);
        assert_eq!(short.netcrash_count(), 0);
        assert_eq!(short.coordkill_count(), 0);
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
            targeted_netcrashes: Vec::new(),
            targeted_nethangs: Vec::new(),
            targeted_coordkills: Vec::new(),
            ..chaos_spec(7)
        }
        .plan(16, 50);
        assert_eq!(legacy, extended);
        assert_eq!(legacy.netcrash_count(), 0);
        assert_eq!(legacy.nethang_count(), 0);
        assert_eq!(legacy.coordkill_count(), 0);
    }

    #[test]
    fn zero_churn_rates_leave_legacy_plans_unchanged() {
        // Churn thresholds extend the chain after every older kind, so a
        // churn-free spec expands to the exact legacy plan.
        let legacy = chaos_spec(7).plan(16, 50);
        let extended = FaultSpec {
            targeted_joins: Vec::new(),
            targeted_leaves: Vec::new(),
            ..chaos_spec(7)
        }
        .plan(16, 50);
        assert_eq!(legacy, extended);
        assert_eq!(legacy.join_count(), 0);
        assert_eq!(legacy.leave_count(), 0);
    }

    #[test]
    fn churn_rates_expand_into_joins_and_leaves() {
        let spec = FaultSpec {
            p_join: 0.3,
            p_leave: 0.02,
            ..FaultSpec::none(17)
        };
        let plan = spec.plan(16, 100);
        let joins = plan.join_count() as f64 / 100.0;
        assert!((joins - 0.3).abs() < 0.12, "join rate {joins}");
        let leaves = plan.leave_count() as f64 / (16.0 * 100.0);
        assert!((leaves - 0.02).abs() < 0.015, "leave rate {leaves}");
        // A leave is a membership event, never also a round fault.
        for round in 0..100 {
            for client in plan.leaves_at(round) {
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
        assert_eq!(spec.targeted_joins, vec![4, 4]);
        assert_eq!(spec.targeted_leaves, vec![(6, 20)]);
        let plan = FaultSpec {
            targeted_joins: vec![4, 4, 99],
            targeted_leaves: vec![(6, 20), (99, 0)],
            ..FaultSpec::none(3)
        }
        .plan(8, 10);
        assert_eq!(plan.joins_at(4), 2, "both pinned joins fire");
        assert_eq!(plan.joins_at(5), 0);
        // Targeted leaves are not bounded by the founding population:
        // client 20 joined mid-run and can still be told to depart.
        assert_eq!(plan.leaves_at(6), vec![20]);
        assert_eq!(plan.join_count(), 2, "out-of-horizon join dropped");
        assert_eq!(plan.leave_count(), 1, "out-of-horizon leave dropped");
        assert!(FaultSpec::parse("join@x4").is_err());
        assert!(FaultSpec::parse("leave@r6").is_err());
        assert!(FaultSpec::parse("join=1.5").is_err());
        assert!(FaultSpec::parse("crash=0.6,leave=0.5").is_err(), "sum cap");
    }

    #[test]
    fn network_grammar_parses_and_expands() {
        let spec = FaultSpec::parse(
            "lossy=0.2,partition@r2-r5:0|1.2,partition@r6:*|~3,slowlink@r3c0,seed=9",
        )
        .unwrap();
        assert_eq!(spec.p_link_loss, 0.2);
        assert_eq!(spec.targeted_slowlinks, vec![(3, 0)]);
        assert_eq!(spec.partitions.len(), 2);
        assert_eq!(spec.partitions[0].start_round, 2);
        assert_eq!(spec.partitions[0].heal_round, Some(5));
        assert_eq!(spec.partitions[0].severed, vec![1, 2]);
        assert!(!spec.partitions[0].asymmetric);
        assert_eq!(spec.partitions[1].heal_round, None);
        assert!(spec.partitions[1].asymmetric);

        let plan = spec.plan(8, 10);
        assert!(plan.link_loss_count() > 0, "lossy=0.2 scheduled nothing");
        assert_eq!(plan.slowlink_count(), 1);
        assert!(plan.slowlink_at(3, 0));
        assert!(!plan.slowlink_at(3, 1));
        assert_eq!(plan.partition_count(), 2);
        assert_eq!(
            plan.partition_state(3, 1),
            Some(PartitionKind::Full),
            "client 1 severed during the window"
        );
        assert_eq!(plan.partition_state(5, 1), None, "healed");
        assert_eq!(plan.partition_state(7, 3), Some(PartitionKind::Asymmetric));
        // Loss bursts stay within the configured burst cap.
        for round in 0..10 {
            for client in 0..8 {
                let burst = plan.link_loss(round, client);
                assert!(burst <= 1 + LINK_LOSS_BURST as u32);
            }
        }
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
        assert!(FaultSpec::parse("lossy=1.5").is_err());
    }

    #[test]
    fn zero_network_rates_leave_legacy_plans_unchanged() {
        // `lossy=` draws from its own salted column and partitions ride in
        // separate fields, so a network-free spec expands to the exact
        // legacy plan.
        let legacy = chaos_spec(7).plan(16, 50);
        let extended = FaultSpec {
            p_link_loss: 0.0,
            targeted_slowlinks: Vec::new(),
            partitions: Vec::new(),
            ..chaos_spec(7)
        }
        .plan(16, 50);
        assert_eq!(legacy, extended);
        assert_eq!(legacy.link_loss_count(), 0);
        assert_eq!(legacy.partition_count(), 0);
    }

    #[test]
    fn link_loss_column_is_independent_of_the_fault_chain() {
        // Turning `lossy=` on must not move a single client fault: the
        // loss draw lives in a disjoint salted column.
        let base = chaos_spec(7);
        let lossy = FaultSpec {
            p_link_loss: 0.5,
            ..chaos_spec(7)
        };
        let a = base.plan(16, 50);
        let b = lossy.plan(16, 50);
        assert!(b.link_loss_count() > 0);
        for round in 0..50 {
            for client in 0..16 {
                assert_eq!(a.client_fault(round, client), b.client_fault(round, client));
            }
        }
        assert_eq!(a.agg_crash_count(), b.agg_crash_count());
        // Loss plans themselves replay bit-identically.
        assert_eq!(b, lossy.plan(16, 50));
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
        assert_eq!(spec.targeted_shardcrashes, vec![(3, 2)]);
        assert_eq!(spec.targeted_shardhangs, vec![(1, 0)]);
        let plan = spec.plan(16, 10);
        assert!(plan.shardcrash_at(3, 2));
        assert!(plan.shardhang_at(1, 0));
        assert!(plan.shardcrash_count() + plan.shardhang_count() >= 2);
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
        assert!(sharded.shardcrash_count() > 0);
        assert!(sharded.shardhang_count() > 0);
        for round in 0..50 {
            for client in 0..16 {
                assert_eq!(
                    legacy.client_fault(round, client),
                    sharded.client_fault(round, client)
                );
            }
        }
        assert_eq!(legacy.agg_crash_count(), sharded.agg_crash_count());
    }
}
