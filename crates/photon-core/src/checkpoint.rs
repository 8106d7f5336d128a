//! Global-model checkpointing (Algorithm 1, L.11): a JSON manifest plus a
//! CRC-protected binary parameter file, written atomically enough for the
//! paper's failure-recovery story (write to temp, rename).
//!
//! Format version 2 adds an optional `server_opt.bin` carrying the server
//! optimizer's state (momentum / Adam moments), so restoring a FedMom,
//! FedAdam or DiLoCo run no longer silently resets its momentum. Version-1
//! checkpoints (no `format_version` field) still load; the optimizer state
//! is reinitialized with a logged warning.
//!
//! Format version 3 adds an optional `membership.bin` carrying the elastic
//! roster (the membership registry snapshot) and any in-flight buffered
//! updates, so a restore resumes with the exact roster and buffer the
//! crashed run had. Version-2 (and version-1) checkpoints still load;
//! elastic state is simply absent.
//!
//! Format version 4 adds a `dtype` manifest field selecting the storage
//! precision of `params.bin` (f32 or bf16). Manifests without the field —
//! every v1–v3 checkpoint — decode as f32, so old checkpoints restore
//! unchanged. Loaded parameters are always widened to f32 master weights
//! in memory regardless of storage precision.
//!
//! Format version 5 adds an optional `hierarchy.bin` carrying the
//! aggregation tree's dead-shard set, so an aggregator crash-restart
//! re-derives the identical shard routing — including the deterministic
//! re-parenting of every orphaned client — the crashed run had. Pre-v5
//! checkpoints still load; the tree simply restores fully live.

use crate::hierarchy::HierarchyState;
use crate::membership::MembershipSnapshot;
use crate::{FederationConfig, Result};
use photon_comms::crc32;
use photon_fedopt::{BufferedUpdate, ServerOptState};
use photon_tensor::{bf16s_from_le, f32s_from_le, put_bf16s_le, put_f32s_le, Dtype};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write;
use std::path::Path;

const PARAMS_MAGIC: &[u8; 8] = b"PHTNCKP1";
const OPT_MAGIC: &[u8; 8] = b"PHTNOPT2";
const MEM_MAGIC: &[u8; 8] = b"PHTNMEM3";
const HIER_MAGIC: &[u8; 8] = b"PHTNHIE5";

/// Current checkpoint format version. Version-1 manifests predate the
/// field and deserialize as 0.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 5;

/// The elastic-membership side state carried by checkpoint v3: the roster
/// at save time plus any updates still waiting in the aggregation buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticState {
    /// The membership registry snapshot.
    pub membership: MembershipSnapshot,
    /// In-flight buffered updates (buffered mode only).
    pub buffer: Option<Vec<BufferedUpdate>>,
}

/// Checkpoint metadata saved alongside the parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointManifest {
    /// Completed rounds at save time.
    pub round: u64,
    /// The run configuration.
    pub config: FederationConfig,
    /// Parameter count (sanity check at load).
    pub param_count: usize,
    /// Checkpoint format version (0 = legacy v1 manifest without the
    /// field).
    #[serde(default)]
    pub format_version: u32,
    /// Whether `server_opt.bin` was saved alongside the parameters.
    #[serde(default)]
    pub has_server_opt: bool,
    /// Whether `membership.bin` (elastic roster + buffer) was saved.
    #[serde(default)]
    pub has_membership: bool,
    /// Storage precision of `params.bin` (v4+). Manifests without the
    /// field — every pre-v4 checkpoint — decode as f32.
    #[serde(default)]
    pub dtype: Dtype,
    /// Whether `hierarchy.bin` (the aggregation tree's dead-shard set)
    /// was saved (v5+).
    #[serde(default)]
    pub has_hierarchy: bool,
}

/// Saves a checkpoint into `dir` (created if missing): `manifest.json` and
/// `params.bin`. Equivalent to [`save_checkpoint_with_opt`] without server
/// optimizer state.
///
/// # Errors
/// Propagates filesystem errors.
pub fn save_checkpoint(
    dir: &Path,
    cfg: &FederationConfig,
    round: u64,
    params: &[f32],
) -> Result<()> {
    save_checkpoint_with_opt(dir, cfg, round, params, None)
}

/// Saves a checkpoint including the server optimizer's state, so a restore
/// resumes with its momentum intact. Equivalent to
/// [`save_checkpoint_full`] without elastic-membership state.
///
/// # Errors
/// Propagates filesystem errors.
pub fn save_checkpoint_with_opt(
    dir: &Path,
    cfg: &FederationConfig,
    round: u64,
    params: &[f32],
    server_opt: Option<&ServerOptState>,
) -> Result<()> {
    save_checkpoint_full(dir, cfg, round, params, server_opt, None, None)
}

/// Saves a full checkpoint: parameters, server optimizer state, (when the
/// run is elastic) the membership roster plus any in-flight buffered
/// updates, and (when the run is hierarchical) the aggregation tree's
/// dead-shard set.
///
/// # Errors
/// Propagates filesystem errors.
pub fn save_checkpoint_full(
    dir: &Path,
    cfg: &FederationConfig,
    round: u64,
    params: &[f32],
    server_opt: Option<&ServerOptState>,
    elastic: Option<&ElasticState>,
    hierarchy: Option<&HierarchyState>,
) -> Result<()> {
    fs::create_dir_all(dir)?;
    let dtype = cfg.dtype;
    let manifest = CheckpointManifest {
        round,
        config: cfg.clone(),
        param_count: params.len(),
        format_version: CHECKPOINT_FORMAT_VERSION,
        has_server_opt: server_opt.is_some(),
        has_membership: elastic.is_some(),
        dtype,
        has_hierarchy: hierarchy.is_some(),
    };
    let manifest_json =
        serde_json::to_string_pretty(&manifest).expect("manifest serialization cannot fail");

    let mut bin = Vec::with_capacity(16 + params.len() * dtype.bytes_per_param());
    bin.extend_from_slice(PARAMS_MAGIC);
    bin.extend_from_slice(&(params.len() as u64).to_le_bytes());
    match dtype {
        Dtype::F32 => put_f32s_le(&mut bin, params),
        Dtype::Bf16 => put_bf16s_le(&mut bin, params),
    }
    let crc = crc32(&bin);
    bin.extend_from_slice(&crc.to_le_bytes());

    // Write-then-fsync-then-rename so an interrupted save never corrupts
    // the previous checkpoint, and a power cut after the rename cannot
    // surface a renamed-but-unflushed (torn) file as the checkpoint. The
    // manifest goes last: it is the commit point that declares which side
    // files are valid.
    write_durably(dir, "params.bin", &bin)?;
    if let Some(state) = server_opt {
        write_durably(dir, "server_opt.bin", &encode_opt_state(state))?;
    }
    if let Some(state) = elastic {
        write_durably(dir, "membership.bin", &encode_elastic_state(state))?;
    }
    if let Some(state) = hierarchy {
        write_durably(dir, "hierarchy.bin", &encode_hierarchy_state(state))?;
    }
    write_durably(dir, "manifest.json", manifest_json.as_bytes())?;
    sync_dir(dir);
    Ok(())
}

/// Writes `bytes` to `dir/<name>` durably: into a temp file, fsynced, then
/// renamed over the target. The fsync before the rename guarantees the
/// rename never publishes a file whose data blocks are still in the page
/// cache only.
fn write_durably(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, dir.join(name))
}

/// Fsyncs the checkpoint directory so the renames themselves (directory
/// entries) are durable. Best-effort: platforms where a directory cannot
/// be opened for sync skip it quietly.
fn sync_dir(dir: &Path) {
    #[cfg(unix)]
    if let Ok(handle) = fs::File::open(dir) {
        let _ = handle.sync_all();
    }
    #[cfg(not(unix))]
    let _ = dir;
}

fn encode_elastic_state(state: &ElasticState) -> Vec<u8> {
    let mem = &state.membership;
    let mut bin = Vec::new();
    bin.extend_from_slice(MEM_MAGIC);
    bin.extend_from_slice(&mem.config.lease_ms.to_le_bytes());
    bin.extend_from_slice(&mem.config.round_ms.to_le_bytes());
    bin.extend_from_slice(&mem.next_id.to_le_bytes());
    bin.extend_from_slice(&(mem.members.len() as u32).to_le_bytes());
    for &(id, birth, lease, phase) in &mem.members {
        bin.extend_from_slice(&id.to_le_bytes());
        bin.extend_from_slice(&birth.to_le_bytes());
        bin.extend_from_slice(&lease.to_le_bytes());
        bin.push(phase);
    }
    match &state.buffer {
        None => bin.push(0),
        Some(entries) => {
            bin.push(1);
            bin.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for e in entries {
                bin.extend_from_slice(&e.client_id.to_le_bytes());
                bin.extend_from_slice(&e.origin_round.to_le_bytes());
                bin.extend_from_slice(&e.arrival_round.to_le_bytes());
                bin.extend_from_slice(&e.base_weight.to_le_bytes());
                bin.extend_from_slice(&e.mean_loss.to_le_bytes());
                bin.extend_from_slice(&(e.delta.len() as u64).to_le_bytes());
                put_f32s_le(&mut bin, &e.delta);
            }
        }
    }
    let crc = crc32(&bin);
    bin.extend_from_slice(&crc.to_le_bytes());
    bin
}

fn decode_elastic_state(bin: &[u8]) -> std::result::Result<ElasticState, String> {
    if bin.len() < 12 || &bin[..8] != MEM_MAGIC {
        return Err("membership.bin is not a photon membership state".into());
    }
    let (body, crc_bytes) = bin.split_at(bin.len() - 4);
    let declared = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != declared {
        return Err("membership.bin failed its integrity check".into());
    }
    let mut cursor = 8usize;
    let take = |cursor: &mut usize, n: usize| -> std::result::Result<&[u8], String> {
        let end = cursor
            .checked_add(n)
            .filter(|&e| e <= body.len())
            .ok_or("membership.bin truncated")?;
        let slice = &body[*cursor..end];
        *cursor = end;
        Ok(slice)
    };
    let u64_at = |cursor: &mut usize| -> std::result::Result<u64, String> {
        Ok(u64::from_le_bytes(
            take(cursor, 8)?.try_into().expect("8 bytes"),
        ))
    };
    let u32_at = |cursor: &mut usize| -> std::result::Result<u32, String> {
        Ok(u32::from_le_bytes(
            take(cursor, 4)?.try_into().expect("4 bytes"),
        ))
    };
    let lease_ms = u64_at(&mut cursor)?;
    let round_ms = u64_at(&mut cursor)?;
    let next_id = u32_at(&mut cursor)?;
    let n_members = u32_at(&mut cursor)? as usize;
    let mut members = Vec::with_capacity(n_members);
    for _ in 0..n_members {
        let id = u32_at(&mut cursor)?;
        let birth = u64_at(&mut cursor)?;
        let lease = u64_at(&mut cursor)?;
        let phase = take(&mut cursor, 1)?[0];
        members.push((id, birth, lease, phase));
    }
    let buffer = match take(&mut cursor, 1)?[0] {
        0 => None,
        1 => {
            let n_entries = u32_at(&mut cursor)? as usize;
            let mut entries = Vec::with_capacity(n_entries);
            for _ in 0..n_entries {
                let client_id = u32_at(&mut cursor)?;
                let origin_round = u64_at(&mut cursor)?;
                let arrival_round = u64_at(&mut cursor)?;
                let base_weight =
                    f64::from_le_bytes(take(&mut cursor, 8)?.try_into().expect("8 bytes"));
                let mean_loss =
                    f32::from_le_bytes(take(&mut cursor, 4)?.try_into().expect("4 bytes"));
                let len = u64_at(&mut cursor)? as usize;
                let raw = take(
                    &mut cursor,
                    len.checked_mul(4).ok_or("delta length overflow")?,
                )?;
                let delta = f32s_from_le(raw);
                entries.push(BufferedUpdate {
                    client_id,
                    origin_round,
                    arrival_round,
                    base_weight,
                    mean_loss,
                    delta,
                });
            }
            Some(entries)
        }
        other => return Err(format!("unknown membership buffer tag {other}")),
    };
    if cursor != body.len() {
        return Err("membership.bin has trailing bytes".into());
    }
    Ok(ElasticState {
        membership: MembershipSnapshot {
            config: crate::membership::MembershipConfig { lease_ms, round_ms },
            next_id,
            members,
        },
        buffer,
    })
}

/// Loads the elastic-membership state saved with a checkpoint, if the
/// manifest declares one (`None` for v1/v2 checkpoints and non-elastic
/// runs).
///
/// # Errors
/// Returns an error if the manifest is unreadable or a declared
/// `membership.bin` is missing or corrupt.
pub fn load_elastic_state(dir: &Path) -> Result<Option<ElasticState>> {
    let manifest_json = fs::read_to_string(dir.join("manifest.json"))?;
    let manifest: CheckpointManifest = serde_json::from_str(&manifest_json)
        .map_err(|e| crate::CoreError::InvalidConfig(format!("bad manifest: {e}")))?;
    if !manifest.has_membership {
        return Ok(None);
    }
    let bin = fs::read(dir.join("membership.bin"))?;
    decode_elastic_state(&bin)
        .map(Some)
        .map_err(crate::CoreError::InvalidConfig)
}

fn encode_hierarchy_state(state: &HierarchyState) -> Vec<u8> {
    let mut bin = Vec::with_capacity(16 + state.dead_shards.len() * 4);
    bin.extend_from_slice(HIER_MAGIC);
    bin.extend_from_slice(&(state.dead_shards.len() as u32).to_le_bytes());
    for &shard in &state.dead_shards {
        bin.extend_from_slice(&shard.to_le_bytes());
    }
    let crc = crc32(&bin);
    bin.extend_from_slice(&crc.to_le_bytes());
    bin
}

fn decode_hierarchy_state(bin: &[u8]) -> std::result::Result<HierarchyState, String> {
    if bin.len() < 16 || &bin[..8] != HIER_MAGIC {
        return Err("hierarchy.bin is not a photon hierarchy state".into());
    }
    let (body, crc_bytes) = bin.split_at(bin.len() - 4);
    let declared = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != declared {
        return Err("hierarchy.bin failed its integrity check".into());
    }
    let n = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")) as usize;
    if body.len() != 12 + n * 4 {
        return Err("hierarchy.bin length disagrees with its header".into());
    }
    let dead_shards: Vec<u32> = body[12..]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    if dead_shards.windows(2).any(|w| w[0] >= w[1]) {
        return Err("hierarchy.bin dead set is not strictly ascending".into());
    }
    Ok(HierarchyState { dead_shards })
}

/// Loads the aggregation tree's dead-shard set saved with a checkpoint,
/// if the manifest declares one (`None` for pre-v5 checkpoints and flat
/// runs).
///
/// # Errors
/// Returns an error if the manifest is unreadable or a declared
/// `hierarchy.bin` is missing or corrupt.
pub fn load_hierarchy_state(dir: &Path) -> Result<Option<HierarchyState>> {
    let manifest_json = fs::read_to_string(dir.join("manifest.json"))?;
    let manifest: CheckpointManifest = serde_json::from_str(&manifest_json)
        .map_err(|e| crate::CoreError::InvalidConfig(format!("bad manifest: {e}")))?;
    if !manifest.has_hierarchy {
        return Ok(None);
    }
    let bin = fs::read(dir.join("hierarchy.bin"))?;
    decode_hierarchy_state(&bin)
        .map(Some)
        .map_err(crate::CoreError::InvalidConfig)
}

fn encode_opt_state(state: &ServerOptState) -> Vec<u8> {
    let mut bin = Vec::new();
    bin.extend_from_slice(OPT_MAGIC);
    bin.extend_from_slice(&(state.kind.len() as u32).to_le_bytes());
    bin.extend_from_slice(state.kind.as_bytes());
    bin.extend_from_slice(&state.step.to_le_bytes());
    bin.extend_from_slice(&(state.slots.len() as u32).to_le_bytes());
    for slot in &state.slots {
        bin.extend_from_slice(&(slot.len() as u64).to_le_bytes());
        put_f32s_le(&mut bin, slot);
    }
    let crc = crc32(&bin);
    bin.extend_from_slice(&crc.to_le_bytes());
    bin
}

fn decode_opt_state(bin: &[u8]) -> std::result::Result<ServerOptState, String> {
    if bin.len() < 12 || &bin[..8] != OPT_MAGIC {
        return Err("server_opt.bin is not a photon optimizer state".into());
    }
    let (body, crc_bytes) = bin.split_at(bin.len() - 4);
    let declared = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != declared {
        return Err("server_opt.bin failed its integrity check".into());
    }
    let mut cursor = 8usize;
    let take = |cursor: &mut usize, n: usize| -> std::result::Result<&[u8], String> {
        let end = cursor
            .checked_add(n)
            .filter(|&e| e <= body.len())
            .ok_or("server_opt.bin truncated")?;
        let slice = &body[*cursor..end];
        *cursor = end;
        Ok(slice)
    };
    let kind_len = u32::from_le_bytes(take(&mut cursor, 4)?.try_into().expect("4 bytes")) as usize;
    let kind = String::from_utf8(take(&mut cursor, kind_len)?.to_vec())
        .map_err(|_| "server_opt.bin kind is not utf-8".to_string())?;
    let step = u64::from_le_bytes(take(&mut cursor, 8)?.try_into().expect("8 bytes"));
    let n_slots = u32::from_le_bytes(take(&mut cursor, 4)?.try_into().expect("4 bytes")) as usize;
    let mut slots = Vec::with_capacity(n_slots);
    for _ in 0..n_slots {
        let len = u64::from_le_bytes(take(&mut cursor, 8)?.try_into().expect("8 bytes")) as usize;
        let raw = take(
            &mut cursor,
            len.checked_mul(4).ok_or("slot length overflow")?,
        )?;
        slots.push(f32s_from_le(raw));
    }
    if cursor != body.len() {
        return Err("server_opt.bin has trailing bytes".into());
    }
    Ok(ServerOptState { kind, step, slots })
}

/// Loads the server optimizer state saved with a checkpoint, if the
/// checkpoint's manifest declares one (`None` for legacy v1 checkpoints
/// and runs saved without optimizer state).
///
/// # Errors
/// Returns an error if the manifest is unreadable or a declared
/// `server_opt.bin` is missing or corrupt.
pub fn load_server_opt_state(dir: &Path) -> Result<Option<ServerOptState>> {
    let manifest_json = fs::read_to_string(dir.join("manifest.json"))?;
    let manifest: CheckpointManifest = serde_json::from_str(&manifest_json)
        .map_err(|e| crate::CoreError::InvalidConfig(format!("bad manifest: {e}")))?;
    if !manifest.has_server_opt {
        return Ok(None);
    }
    let bin = fs::read(dir.join("server_opt.bin"))?;
    decode_opt_state(&bin)
        .map(Some)
        .map_err(crate::CoreError::InvalidConfig)
}

/// Loads a checkpoint saved by [`save_checkpoint`].
///
/// # Errors
/// Returns an error on missing files, bad magic, CRC mismatch, or a
/// manifest/parameter disagreement.
pub fn load_checkpoint(dir: &Path) -> Result<(CheckpointManifest, Vec<f32>)> {
    let manifest_json = fs::read_to_string(dir.join("manifest.json"))?;
    let manifest: CheckpointManifest = serde_json::from_str(&manifest_json)
        .map_err(|e| crate::CoreError::InvalidConfig(format!("bad manifest: {e}")))?;

    let bin = fs::read(dir.join("params.bin"))?;
    if bin.len() < 20 || &bin[..8] != PARAMS_MAGIC {
        return Err(crate::CoreError::InvalidConfig(
            "params.bin is not a photon checkpoint".into(),
        ));
    }
    let (body, crc_bytes) = bin.split_at(bin.len() - 4);
    let declared = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != declared {
        return Err(crate::CoreError::InvalidConfig(
            "params.bin failed its integrity check".into(),
        ));
    }
    let n = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes")) as usize;
    if n != manifest.param_count || body.len() != 16 + n * manifest.dtype.bytes_per_param() {
        return Err(crate::CoreError::InvalidConfig(
            "checkpoint length disagrees with manifest".into(),
        ));
    }
    let params = match manifest.dtype {
        Dtype::F32 => f32s_from_le(&body[16..]),
        Dtype::Bf16 => bf16s_from_le(&body[16..]),
    };
    Ok((manifest, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_nn::ModelConfig;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("photon-core-ckpt").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg() -> FederationConfig {
        FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 2)
    }

    #[test]
    fn roundtrip() {
        let dir = tmp_dir("roundtrip");
        let params: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        save_checkpoint(&dir, &cfg(), 12, &params).unwrap();
        let (manifest, loaded) = load_checkpoint(&dir).unwrap();
        assert_eq!(manifest.round, 12);
        assert_eq!(manifest.param_count, 100);
        assert_eq!(loaded, params);
        assert_eq!(manifest.config, cfg());
        assert_eq!(manifest.format_version, CHECKPOINT_FORMAT_VERSION);
        assert!(!manifest.has_server_opt);
        assert_eq!(load_server_opt_state(&dir).unwrap(), None);
    }

    #[test]
    fn server_opt_state_roundtrips() {
        let dir = tmp_dir("opt-state");
        let state = ServerOptState {
            kind: "fedadam".into(),
            step: 17,
            slots: vec![vec![0.5, -1.25, 3.0], vec![0.0, 2.5, -0.125]],
        };
        save_checkpoint_with_opt(&dir, &cfg(), 4, &[1.0, 2.0], Some(&state)).unwrap();
        let (manifest, _) = load_checkpoint(&dir).unwrap();
        assert!(manifest.has_server_opt);
        assert_eq!(load_server_opt_state(&dir).unwrap(), Some(state));
    }

    #[test]
    fn legacy_v1_manifest_loads_without_opt_state() {
        let dir = tmp_dir("legacy-v1");
        save_checkpoint(&dir, &cfg(), 3, &[1.0; 8]).unwrap();
        // Rewrite the manifest as a v1 manifest (no format_version /
        // has_server_opt fields).
        let path = dir.join("manifest.json");
        let mut lines: Vec<String> = fs::read_to_string(&path)
            .unwrap()
            .lines()
            .filter(|l| {
                !l.contains("format_version")
                    && !l.contains("has_server_opt")
                    && !l.contains("has_membership")
            })
            .map(String::from)
            .collect();
        // The removed fields were last; un-comma the new final field so the
        // manifest stays valid JSON.
        let last_field = lines.len() - 2;
        lines[last_field] = lines[last_field].trim_end_matches(',').to_string();
        fs::write(&path, lines.join("\n")).unwrap();
        let (manifest, params) = load_checkpoint(&dir).unwrap();
        assert_eq!(manifest.format_version, 0);
        assert!(!manifest.has_server_opt);
        assert_eq!(params, vec![1.0; 8]);
        assert_eq!(load_server_opt_state(&dir).unwrap(), None);
    }

    #[test]
    fn elastic_state_roundtrips() {
        use crate::membership::{MembershipConfig, MembershipRegistry};
        let dir = tmp_dir("elastic");
        let mut reg = MembershipRegistry::new(MembershipConfig::default(), 3);
        reg.begin_round(0, None);
        let elastic = ElasticState {
            membership: reg.snapshot(),
            buffer: Some(vec![BufferedUpdate {
                client_id: 2,
                origin_round: 4,
                arrival_round: 6,
                base_weight: 1.5,
                mean_loss: 2.25,
                delta: vec![0.5, -1.0, f32::NAN], // NaN must survive byte-exact
            }]),
        };
        save_checkpoint_full(&dir, &cfg(), 5, &[1.0, 2.0], None, Some(&elastic), None).unwrap();
        let (manifest, _) = load_checkpoint(&dir).unwrap();
        assert!(manifest.has_membership);
        assert_eq!(manifest.format_version, CHECKPOINT_FORMAT_VERSION);
        let loaded = load_elastic_state(&dir).unwrap().unwrap();
        assert_eq!(loaded.membership, elastic.membership);
        let (a, b) = (
            &loaded.buffer.as_ref().unwrap()[0],
            &elastic.buffer.as_ref().unwrap()[0],
        );
        assert_eq!(a.client_id, b.client_id);
        assert_eq!(a.base_weight, b.base_weight);
        assert_eq!(a.delta[..2], b.delta[..2]);
        assert!(a.delta[2].is_nan(), "NaN coordinate lost in roundtrip");
        // The registry reconstructs exactly.
        assert_eq!(
            MembershipRegistry::from_snapshot(&loaded.membership).unwrap(),
            reg
        );
    }

    #[test]
    fn v2_checkpoints_without_membership_still_load() {
        let dir = tmp_dir("legacy-v2");
        let state = ServerOptState {
            kind: "fedmom".into(),
            step: 2,
            slots: vec![vec![0.5; 4]],
        };
        save_checkpoint_with_opt(&dir, &cfg(), 7, &[2.0; 4], Some(&state)).unwrap();
        // Rewrite the manifest as a v2 manifest: no has_membership or
        // has_hierarchy fields, format_version 2.
        let path = dir.join("manifest.json");
        let json = fs::read_to_string(&path)
            .unwrap()
            .replace("\"format_version\": 5", "\"format_version\": 2")
            .lines()
            .filter(|l| !l.contains("has_membership") && !l.contains("has_hierarchy"))
            .collect::<Vec<_>>()
            .join("\n");
        let json = {
            // Un-comma the new final field so the manifest stays valid.
            let mut lines: Vec<String> = json.lines().map(String::from).collect();
            let last_field = lines.len() - 2;
            lines[last_field] = lines[last_field].trim_end_matches(',').to_string();
            lines.join("\n")
        };
        fs::write(&path, json).unwrap();
        let (manifest, params) = load_checkpoint(&dir).unwrap();
        assert_eq!(manifest.format_version, 2);
        assert!(!manifest.has_membership);
        assert_eq!(params, vec![2.0; 4]);
        assert_eq!(load_server_opt_state(&dir).unwrap(), Some(state));
        assert!(load_elastic_state(&dir).unwrap().is_none());
    }

    #[test]
    fn hierarchy_state_roundtrips() {
        let dir = tmp_dir("hierarchy");
        let state = HierarchyState {
            dead_shards: vec![1, 5, 6],
        };
        save_checkpoint_full(&dir, &cfg(), 9, &[1.0, 2.0], None, None, Some(&state)).unwrap();
        let (manifest, _) = load_checkpoint(&dir).unwrap();
        assert!(manifest.has_hierarchy);
        assert_eq!(manifest.format_version, CHECKPOINT_FORMAT_VERSION);
        assert_eq!(load_hierarchy_state(&dir).unwrap(), Some(state));

        // A fully-live tree round-trips too (empty dead set).
        let dir = tmp_dir("hierarchy-live");
        let live = HierarchyState::default();
        save_checkpoint_full(&dir, &cfg(), 1, &[1.0], None, None, Some(&live)).unwrap();
        assert_eq!(load_hierarchy_state(&dir).unwrap(), Some(live));
    }

    #[test]
    fn v4_checkpoints_without_hierarchy_still_load() {
        let dir = tmp_dir("legacy-v4");
        save_checkpoint(&dir, &cfg(), 3, &[1.0; 4]).unwrap();
        // Rewrite the manifest as a v4 manifest: no has_hierarchy field,
        // format_version 4.
        let path = dir.join("manifest.json");
        let json = fs::read_to_string(&path)
            .unwrap()
            .replace("\"format_version\": 5", "\"format_version\": 4")
            .lines()
            .filter(|l| !l.contains("has_hierarchy"))
            .collect::<Vec<_>>()
            .join("\n");
        let json = {
            // Un-comma the new final field so the manifest stays valid.
            let mut lines: Vec<String> = json.lines().map(String::from).collect();
            let last_field = lines.len() - 2;
            lines[last_field] = lines[last_field].trim_end_matches(',').to_string();
            lines.join("\n")
        };
        fs::write(&path, json).unwrap();
        let (manifest, params) = load_checkpoint(&dir).unwrap();
        assert_eq!(manifest.format_version, 4);
        assert!(!manifest.has_hierarchy);
        assert_eq!(params, vec![1.0; 4]);
        assert!(load_hierarchy_state(&dir).unwrap().is_none());
    }

    #[test]
    fn hierarchy_state_corruption_detected() {
        let dir = tmp_dir("hierarchy-corrupt");
        let state = HierarchyState {
            dead_shards: vec![0, 3],
        };
        save_checkpoint_full(&dir, &cfg(), 1, &[1.0], None, None, Some(&state)).unwrap();
        let path = dir.join("hierarchy.bin");
        let mut raw = fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        fs::write(&path, &raw).unwrap();
        assert!(load_hierarchy_state(&dir).is_err());

        // Truncation is caught too.
        let dir = tmp_dir("hierarchy-torn");
        save_checkpoint_full(&dir, &cfg(), 1, &[1.0], None, None, Some(&state)).unwrap();
        let path = dir.join("hierarchy.bin");
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() - 6]).unwrap();
        assert!(load_hierarchy_state(&dir).is_err());
    }

    #[test]
    fn elastic_state_corruption_detected() {
        let dir = tmp_dir("elastic-corrupt");
        let reg = crate::membership::MembershipRegistry::new(
            crate::membership::MembershipConfig::default(),
            2,
        );
        let elastic = ElasticState {
            membership: reg.snapshot(),
            buffer: None,
        };
        save_checkpoint_full(&dir, &cfg(), 1, &[1.0], None, Some(&elastic), None).unwrap();
        let path = dir.join("membership.bin");
        let mut raw = fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        fs::write(&path, &raw).unwrap();
        assert!(load_elastic_state(&dir).is_err());
    }

    #[test]
    fn opt_state_corruption_detected() {
        let dir = tmp_dir("opt-corrupt");
        let state = ServerOptState {
            kind: "fedmom".into(),
            step: 1,
            slots: vec![vec![1.0; 16]],
        };
        save_checkpoint_with_opt(&dir, &cfg(), 1, &[1.0, 2.0], Some(&state)).unwrap();
        let path = dir.join("server_opt.bin");
        let mut raw = fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        fs::write(&path, &raw).unwrap();
        assert!(load_server_opt_state(&dir).is_err());
    }

    #[test]
    fn bf16_checkpoint_roundtrips_and_halves_storage() {
        let dir = tmp_dir("bf16");
        let mut cfg_bf16 = cfg();
        cfg_bf16.dtype = Dtype::Bf16;
        // Values exactly representable in bf16 restore bit-exactly.
        let params: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) * 0.25).collect();
        save_checkpoint(&dir, &cfg_bf16, 9, &params).unwrap();
        let (manifest, loaded) = load_checkpoint(&dir).unwrap();
        assert_eq!(manifest.dtype, Dtype::Bf16);
        assert_eq!(loaded, params);

        let bf16_size = fs::metadata(dir.join("params.bin")).unwrap().len();
        let dir_f32 = tmp_dir("bf16-vs-f32");
        save_checkpoint(&dir_f32, &cfg(), 9, &params).unwrap();
        let f32_size = fs::metadata(dir_f32.join("params.bin")).unwrap().len();
        assert!(
            (bf16_size as f64) < 0.6 * f32_size as f64,
            "bf16 {bf16_size} vs f32 {f32_size}"
        );
    }

    #[test]
    fn overwrite_replaces_previous() {
        let dir = tmp_dir("overwrite");
        save_checkpoint(&dir, &cfg(), 1, &[1.0, 2.0]).unwrap();
        save_checkpoint(&dir, &cfg(), 2, &[3.0, 4.0, 5.0]).unwrap();
        let (manifest, params) = load_checkpoint(&dir).unwrap();
        assert_eq!(manifest.round, 2);
        assert_eq!(params, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn corruption_detected() {
        let dir = tmp_dir("corrupt");
        save_checkpoint(&dir, &cfg(), 1, &[1.0; 64]).unwrap();
        let path = dir.join("params.bin");
        let mut raw = fs::read(&path).unwrap();
        raw[30] ^= 0xFF;
        fs::write(&path, &raw).unwrap();
        assert!(load_checkpoint(&dir).is_err());
    }

    #[test]
    fn missing_checkpoint_errors() {
        assert!(load_checkpoint(Path::new("/nonexistent/ckpt")).is_err());
    }

    #[test]
    fn torn_params_write_is_detected() {
        // A crash can leave params.bin truncated mid-write; the length and
        // CRC checks must reject it instead of restoring garbage.
        let dir = tmp_dir("torn-params");
        save_checkpoint(&dir, &cfg(), 2, &[1.0; 64]).unwrap();
        let path = dir.join("params.bin");
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        assert!(load_checkpoint(&dir).is_err());
    }

    #[test]
    fn torn_manifest_write_is_detected() {
        let dir = tmp_dir("torn-manifest");
        save_checkpoint(&dir, &cfg(), 2, &[1.0; 16]).unwrap();
        let path = dir.join("manifest.json");
        let json = fs::read_to_string(&path).unwrap();
        fs::write(&path, &json[..json.len() / 2]).unwrap();
        assert!(load_checkpoint(&dir).is_err());
    }

    #[test]
    fn stale_tmp_files_do_not_affect_loading() {
        // A crash between write and rename leaves a *.tmp behind; the
        // published checkpoint must load as if it were not there.
        let dir = tmp_dir("stale-tmp");
        let params: Vec<f32> = (0..32).map(|i| i as f32).collect();
        save_checkpoint(&dir, &cfg(), 6, &params).unwrap();
        fs::write(dir.join("params.bin.tmp"), b"torn garbage").unwrap();
        fs::write(dir.join("manifest.json.tmp"), b"{\"round\":").unwrap();
        let (manifest, loaded) = load_checkpoint(&dir).unwrap();
        assert_eq!(manifest.round, 6);
        assert_eq!(loaded, params);
    }

    #[test]
    fn aggregator_resumes_from_checkpoint() {
        let dir = tmp_dir("resume");
        let cfg = cfg();
        let mut fed = crate::build_federation(&cfg, 2_000).unwrap();
        fed.aggregator.run_round(&mut fed.clients).unwrap();
        save_checkpoint(&dir, &cfg, fed.aggregator.round(), fed.aggregator.params()).unwrap();

        let (manifest, params) = load_checkpoint(&dir).unwrap();
        let mut fresh = crate::Aggregator::new(manifest.config.clone()).unwrap();
        fresh.restore(manifest.round, params).unwrap();
        assert_eq!(fresh.round(), fed.aggregator.round());
        assert_eq!(fresh.params(), fed.aggregator.params());
    }
}
