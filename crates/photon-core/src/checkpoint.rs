//! Global-model checkpointing (Algorithm 1, L.11): one sealed file per
//! directory, published by one rename.
//!
//! `checkpoint.bin` (format 6, integers little-endian):
//!
//! ```text
//! "PHTNCKP6" | u32 len | manifest JSON { round, config, param_count }
//!   | params            param_count × config.dtype (f32 or bf16)
//!   | server optimizer  u8 present [ kind | step | slots ]
//!   | elastic           u8 present [ roster | u8 buffered [ updates ] ]
//!   | hierarchy         u8 present [ dead shards ]
//!   | u32 crc32 of every byte before it
//! ```
//!
//! A save writes `checkpoint.bin.tmp`, fsyncs it, renames it over
//! `checkpoint.bin` and fsyncs the directory. The rename is the commit
//! point: whenever a save is killed, the directory holds exactly the
//! previous checkpoint or exactly the new one, and a leftover `.tmp` is
//! never read. Loaded parameters are always widened to f32 master weights
//! whatever the storage precision.

use crate::hierarchy::HierarchyState;
use crate::membership::{MembershipConfig, MembershipSnapshot};
use crate::{CoreError, FederationConfig, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use photon_comms::crc32;
use photon_fedopt::{BufferedUpdate, ServerOptState};
use photon_tensor::{
    bf16s_from_le, f32s_from_le, put_bf16s_le, put_f32s_le, read_f32_slice, write_f32_slice, Dtype,
};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 8] = b"PHTNCKP6";
const FILE: &str = "checkpoint.bin";
const TMP_FILE: &str = "checkpoint.bin.tmp";
/// What marks a directory written before format 6 (a JSON manifest beside
/// `params.bin` and per-feature sidecars). Only named to reject it.
const PRE_6_MANIFEST: &str = "manifest.json";

/// The elastic-membership state a checkpoint carries: the roster at save
/// time plus any updates still waiting in the aggregation buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticState {
    /// The membership registry snapshot.
    pub membership: MembershipSnapshot,
    /// In-flight buffered updates (buffered mode only).
    pub buffer: Option<Vec<BufferedUpdate>>,
}

/// Everything one checkpoint file holds, owned and fully validated.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Completed rounds at save time.
    pub round: u64,
    /// The run configuration.
    pub config: FederationConfig,
    /// The global parameters, widened to f32.
    pub params: Vec<f32>,
    /// The server optimizer's momenta; `None` for a params-only save.
    pub server_opt: Option<ServerOptState>,
    /// Roster and in-flight buffer; `None` for a run without membership.
    pub elastic: Option<ElasticState>,
    /// The aggregation tree's dead-shard set; `None` for a flat run.
    pub hierarchy: Option<HierarchyState>,
}

/// What a save writes, borrowed from the state that owns it.
pub(crate) struct CheckpointView<'a> {
    pub round: u64,
    pub config: &'a FederationConfig,
    pub params: &'a [f32],
    pub server_opt: Option<&'a ServerOptState>,
    pub elastic: Option<(&'a MembershipSnapshot, Option<&'a [BufferedUpdate]>)>,
    pub hierarchy: Option<&'a HierarchyState>,
}

/// The JSON head of the file; the sections after it are sized by it.
#[derive(Serialize, Deserialize)]
struct Manifest {
    round: u64,
    config: FederationConfig,
    param_count: usize,
}

/// Saves a params-only checkpoint into `dir` (created if missing) — model
/// export. A training run saves through
/// [`Aggregator::save_checkpoint`](crate::Aggregator::save_checkpoint),
/// which also carries the optimizer, roster and tree.
///
/// # Errors
/// Propagates filesystem errors.
pub fn save_checkpoint(
    dir: &Path,
    cfg: &FederationConfig,
    round: u64,
    params: &[f32],
) -> Result<()> {
    write_checkpoint(
        dir,
        &CheckpointView {
            round,
            config: cfg,
            params,
            server_opt: None,
            elastic: None,
            hierarchy: None,
        },
    )
}

/// Encodes `view` and publishes it as `dir`'s checkpoint.
pub(crate) fn write_checkpoint(dir: &Path, view: &CheckpointView<'_>) -> Result<()> {
    fs::create_dir_all(dir)?;
    let manifest = serde_json::to_string(&Manifest {
        round: view.round,
        config: view.config.clone(),
        param_count: view.params.len(),
    })
    .expect("manifest serialization cannot fail");
    // Sized for the parameters; momenta and buffered updates grow it.
    let stored = view.params.len() * view.config.dtype.bytes_per_param();
    let mut bin = BytesMut::with_capacity(manifest.len() + stored + 4096);
    bin.put_slice(MAGIC);
    bin.put_u32_le(manifest.len() as u32);
    bin.put_slice(manifest.as_bytes());
    match view.config.dtype {
        Dtype::F32 => put_f32s_le(&mut bin, view.params),
        Dtype::Bf16 => put_bf16s_le(&mut bin, view.params),
    }
    put_section(&mut bin, view.server_opt, put_opt_state);
    put_section(&mut bin, view.elastic, |bin, (membership, buffer)| {
        put_elastic_state(bin, membership, buffer)
    });
    put_section(&mut bin, view.hierarchy, put_hierarchy_state);
    let crc = crc32(&bin);
    bin.put_u32_le(crc);

    // The fsync before the rename keeps the rename from publishing a file
    // whose data blocks are still in the page cache only; the directory
    // fsync after it makes the rename itself durable.
    let tmp = dir.join(TMP_FILE);
    let mut file = fs::File::create(&tmp)?;
    file.write_all(&bin)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, dir.join(FILE))?;
    sync_dir(dir);
    Ok(())
}

/// Fsyncs the checkpoint directory. Best-effort: platforms where a
/// directory cannot be opened for sync skip it quietly.
fn sync_dir(dir: &Path) {
    #[cfg(unix)]
    if let Ok(handle) = fs::File::open(dir) {
        let _ = handle.sync_all();
    }
    #[cfg(not(unix))]
    let _ = dir;
}

/// Whether `dir` holds a checkpoint. A pre-6 layout counts, so that
/// [`load_checkpoint`] gets to name it in an error instead of the caller
/// starting over as if the directory were empty.
pub fn checkpoint_exists(dir: &Path) -> bool {
    dir.join(FILE).exists() || dir.join(PRE_6_MANIFEST).exists()
}

/// Loads the checkpoint in `dir`: one read, one integrity check, one
/// parse.
///
/// # Errors
/// Returns an error if there is no checkpoint, the directory holds a
/// pre-6 layout, or the file is truncated, corrupt or malformed.
pub fn load_checkpoint(dir: &Path) -> Result<Checkpoint> {
    let file = match fs::read(dir.join(FILE)) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && checkpoint_exists(dir) => {
            return Err(unreadable(format!(
                "{} holds a pre-6 checkpoint ({PRE_6_MANIFEST} beside params.bin and \
                 sidecar files); this build reads only {FILE}",
                dir.display()
            )));
        }
        Err(e) => return Err(e.into()),
    };
    decode(file).map_err(|e| unreadable(format!("{FILE} {e}")))
}

fn unreadable(msg: String) -> CoreError {
    CoreError::Checkpoint(std::io::Error::new(std::io::ErrorKind::InvalidData, msg))
}

fn decode(file: Vec<u8>) -> Decoded<Checkpoint> {
    let mut r = Reader::open(file)?;
    let manifest_len = r.u32()? as usize;
    let manifest: Manifest = std::str::from_utf8(&r.take(manifest_len)?)
        .map_err(|e| e.to_string())
        .and_then(|json| serde_json::from_str(json).map_err(|e| e.to_string()))
        .map_err(|e| format!("has a bad manifest: {e}"))?;
    let dtype = manifest.config.dtype;
    let raw = r.take(
        manifest
            .param_count
            .checked_mul(dtype.bytes_per_param())
            .ok_or("parameter count overflows")?,
    )?;
    let params = match dtype {
        Dtype::F32 => f32s_from_le(&raw),
        Dtype::Bf16 => bf16s_from_le(&raw),
    };
    let server_opt = r.section(take_opt_state)?;
    let elastic = r.section(take_elastic_state)?;
    let hierarchy = r.section(take_hierarchy_state)?;
    if r.body.has_remaining() {
        return Err("has trailing bytes".into());
    }
    Ok(Checkpoint {
        round: manifest.round,
        config: manifest.config,
        params,
        server_opt,
        elastic,
        hierarchy,
    })
}

/// What went wrong with the file, phrased to follow its name.
type Decoded<T> = std::result::Result<T, String>;

/// Appends an optional section: a presence byte, then its body.
fn put_section<T>(bin: &mut BytesMut, state: Option<T>, put: impl FnOnce(&mut BytesMut, T)) {
    bin.put_u8(state.is_some() as u8);
    if let Some(state) = state {
        put(bin, state);
    }
}

/// Bounds-checked cursor over the body of a checkpoint file whose magic
/// and CRC trailer have been verified: every read returns bytes of the
/// sealed body or an error, never a panic.
struct Reader {
    body: Bytes,
}

impl Reader {
    fn open(file: Vec<u8>) -> Decoded<Self> {
        if file.len() < MAGIC.len() + 4 || &file[..MAGIC.len()] != MAGIC {
            return Err("is not a photon checkpoint".into());
        }
        let (sealed, trailer) = file.split_at(file.len() - 4);
        if crc32(sealed) != u32::from_le_bytes(trailer.try_into().expect("4 bytes")) {
            return Err("failed its integrity check".into());
        }
        let body = MAGIC.len()..sealed.len();
        Ok(Reader {
            body: Bytes::from(file).slice(body),
        })
    }

    /// The unread body, once `n` more bytes of it are known to exist.
    fn need(&mut self, n: usize) -> Decoded<&mut Bytes> {
        if self.body.remaining() < n {
            return Err("ends inside a section".into());
        }
        Ok(&mut self.body)
    }

    fn take(&mut self, n: usize) -> Decoded<Bytes> {
        let body = self.need(n)?;
        let taken = body.slice(..n);
        body.advance(n);
        Ok(taken)
    }

    fn u8(&mut self) -> Decoded<u8> {
        Ok(self.need(1)?.get_u8())
    }

    fn u32(&mut self) -> Decoded<u32> {
        Ok(self.need(4)?.get_u32_le())
    }

    fn u64(&mut self) -> Decoded<u64> {
        Ok(self.need(8)?.get_u64_le())
    }

    /// A length-prefixed float vector; the count is checked against the
    /// bytes present before anything is allocated for it.
    fn f32s(&mut self) -> Decoded<Vec<f32>> {
        read_f32_slice(&mut self.body).map_err(|e| e.to_string())
    }

    fn section<T>(&mut self, body: impl FnOnce(&mut Self) -> Decoded<T>) -> Decoded<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => body(self).map(Some),
            other => Err(format!("has an unknown section tag {other}")),
        }
    }
}

fn put_opt_state(bin: &mut BytesMut, state: &ServerOptState) {
    bin.put_u32_le(state.kind.len() as u32);
    bin.put_slice(state.kind.as_bytes());
    bin.put_u64_le(state.step);
    bin.put_u32_le(state.slots.len() as u32);
    for slot in &state.slots {
        write_f32_slice(bin, slot);
    }
}

fn take_opt_state(r: &mut Reader) -> Decoded<ServerOptState> {
    let kind_len = r.u32()? as usize;
    let kind = String::from_utf8(r.take(kind_len)?.to_vec())
        .map_err(|_| "names a server optimizer that is not utf-8")?;
    let step = r.u64()?;
    let slots = (0..r.u32()?).map(|_| r.f32s()).collect::<Decoded<_>>()?;
    Ok(ServerOptState { kind, step, slots })
}

fn put_elastic_state(
    bin: &mut BytesMut,
    mem: &MembershipSnapshot,
    buffer: Option<&[BufferedUpdate]>,
) {
    bin.put_u64_le(mem.config.lease_ms);
    bin.put_u64_le(mem.config.round_ms);
    bin.put_u32_le(mem.next_id);
    bin.put_u32_le(mem.members.len() as u32);
    for &(id, birth, lease, phase) in &mem.members {
        bin.put_u32_le(id);
        bin.put_u64_le(birth);
        bin.put_u64_le(lease);
        bin.put_u8(phase);
    }
    put_section(bin, buffer, |bin, entries| {
        bin.put_u32_le(entries.len() as u32);
        for e in entries {
            bin.put_u32_le(e.client_id);
            bin.put_u64_le(e.origin_round);
            bin.put_u64_le(e.arrival_round);
            bin.put_f64_le(e.base_weight);
            bin.put_f32_le(e.mean_loss);
            write_f32_slice(bin, &e.delta);
        }
    });
}

fn take_elastic_state(r: &mut Reader) -> Decoded<ElasticState> {
    let config = MembershipConfig {
        lease_ms: r.u64()?,
        round_ms: r.u64()?,
    };
    let next_id = r.u32()?;
    let members = (0..r.u32()?)
        .map(|_| Ok((r.u32()?, r.u64()?, r.u64()?, r.u8()?)))
        .collect::<Decoded<_>>()?;
    let buffer = r.section(|r| {
        (0..r.u32()?)
            .map(|_| {
                Ok(BufferedUpdate {
                    client_id: r.u32()?,
                    origin_round: r.u64()?,
                    arrival_round: r.u64()?,
                    base_weight: f64::from_bits(r.u64()?),
                    mean_loss: f32::from_bits(r.u32()?),
                    delta: r.f32s()?,
                })
            })
            .collect()
    })?;
    Ok(ElasticState {
        membership: MembershipSnapshot {
            config,
            next_id,
            members,
        },
        buffer,
    })
}

fn put_hierarchy_state(bin: &mut BytesMut, state: &HierarchyState) {
    bin.put_u32_le(state.dead_shards.len() as u32);
    for &shard in &state.dead_shards {
        bin.put_u32_le(shard);
    }
}

fn take_hierarchy_state(r: &mut Reader) -> Decoded<HierarchyState> {
    let dead_shards = (0..r.u32()?)
        .map(|_| r.u32())
        .collect::<Decoded<Vec<u32>>>()?;
    if dead_shards.windows(2).any(|w| w[0] >= w[1]) {
        return Err("lists dead shards that are not strictly ascending".into());
    }
    Ok(HierarchyState { dead_shards })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::MembershipRegistry;
    use photon_nn::ModelConfig;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("photon-core-ckpt").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg() -> FederationConfig {
        FederationConfig::quick_demo(ModelConfig::proxy_tiny(), 2)
    }

    fn params_only(round: u64, params: &[f32]) -> Checkpoint {
        Checkpoint {
            round,
            config: cfg(),
            params: params.to_vec(),
            server_opt: None,
            elastic: None,
            hierarchy: None,
        }
    }

    /// A checkpoint with every section present; `k` varies every field.
    fn full(k: u32) -> Checkpoint {
        let mut reg = MembershipRegistry::new(MembershipConfig::default(), 2 + k as usize);
        reg.begin_round(k as u64, None);
        Checkpoint {
            round: 10 + k as u64,
            config: FederationConfig {
                seed: 40 + k as u64,
                ..cfg()
            },
            params: (0..64).map(|i| (i + k) as f32 * 0.5).collect(),
            server_opt: Some(ServerOptState {
                kind: "fedadam".into(),
                step: 3 + k as u64,
                slots: vec![vec![0.25 * k as f32; 64], vec![-1.5; 64]],
            }),
            elastic: Some(ElasticState {
                membership: reg.snapshot(),
                buffer: Some(vec![BufferedUpdate {
                    client_id: k,
                    origin_round: 4,
                    arrival_round: 6 + k as u64,
                    base_weight: 1.5,
                    mean_loss: 2.25,
                    delta: vec![0.5, -1.0, k as f32],
                }]),
            }),
            hierarchy: Some(HierarchyState {
                dead_shards: vec![1, 5 + k],
            }),
        }
    }

    fn save(dir: &Path, c: &Checkpoint) {
        write_checkpoint(
            dir,
            &CheckpointView {
                round: c.round,
                config: &c.config,
                params: &c.params,
                server_opt: c.server_opt.as_ref(),
                elastic: c
                    .elastic
                    .as_ref()
                    .map(|e| (&e.membership, e.buffer.as_deref())),
                hierarchy: c.hierarchy.as_ref(),
            },
        )
        .unwrap();
    }

    /// Recomputes the CRC trailer after a test edited the body.
    fn reseal(file: &mut [u8]) {
        let body = file.len() - 4;
        let crc = crc32(&file[..body]);
        file[body..].copy_from_slice(&crc.to_le_bytes());
    }

    /// The byte offset where the manifest ends and the sections start.
    fn manifest_end(file: &[u8]) -> usize {
        12 + u32::from_le_bytes(file[8..12].try_into().unwrap()) as usize
    }

    fn assert_truncations_rejected(name: &str, lengths: impl Fn(&[u8]) -> std::ops::Range<usize>) {
        let dir = tmp_dir(name);
        save(&dir, &full(0));
        let file = fs::read(dir.join(FILE)).unwrap();
        for len in lengths(&file) {
            fs::write(dir.join(FILE), &file[..len]).unwrap();
            assert!(load_checkpoint(&dir).is_err(), "loaded at {len} bytes");
        }
    }

    #[test]
    fn roundtrip() {
        let dir = tmp_dir("roundtrip");
        let params: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        save_checkpoint(&dir, &cfg(), 12, &params).unwrap();
        assert_eq!(load_checkpoint(&dir).unwrap(), params_only(12, &params));
        assert!(checkpoint_exists(&dir));
    }

    #[test]
    fn server_opt_state_roundtrips() {
        let dir = tmp_dir("opt-state");
        let mut saved = params_only(4, &[1.0, 2.0]);
        saved.server_opt = full(0).server_opt;
        save(&dir, &saved);
        assert_eq!(load_checkpoint(&dir).unwrap(), saved);
    }

    #[test]
    fn elastic_state_roundtrips() {
        let dir = tmp_dir("elastic");
        let mut reg = MembershipRegistry::new(MembershipConfig::default(), 3);
        reg.begin_round(0, None);
        let mut elastic = full(0).elastic.unwrap();
        elastic.membership = reg.snapshot();
        elastic.buffer.as_mut().unwrap()[0].delta[2] = f32::NAN;
        let mut saved = params_only(5, &[1.0, 2.0]);
        saved.elastic = Some(elastic.clone());
        save(&dir, &saved);
        let loaded = load_checkpoint(&dir).unwrap().elastic.unwrap();
        // NaN != NaN, so the delta is compared by its bits.
        let bits = |e: &ElasticState| {
            let delta = &e.buffer.as_ref().unwrap()[0].delta;
            delta.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&loaded), bits(&elastic));
        assert_eq!(
            MembershipRegistry::from_snapshot(&loaded.membership).unwrap(),
            reg
        );

        // A roster without a buffer (synchronous elastic run).
        elastic.buffer = None;
        saved.elastic = Some(elastic);
        save(&dir, &saved);
        assert_eq!(load_checkpoint(&dir).unwrap(), saved);
    }

    #[test]
    fn hierarchy_state_roundtrips() {
        let dir = tmp_dir("hierarchy");
        let mut saved = params_only(9, &[1.0, 2.0]);
        saved.hierarchy = Some(HierarchyState {
            dead_shards: vec![1, 5, 6],
        });
        save(&dir, &saved);
        assert_eq!(load_checkpoint(&dir).unwrap(), saved);

        // A fully live tree round-trips too (empty dead set).
        saved.hierarchy = Some(HierarchyState::default());
        save(&dir, &saved);
        assert_eq!(load_checkpoint(&dir).unwrap(), saved);
    }

    #[test]
    fn bf16_checkpoint_roundtrips_and_halves_storage() {
        let dir = tmp_dir("bf16");
        let mut cfg_bf16 = cfg();
        cfg_bf16.dtype = Dtype::Bf16;
        // Values exactly representable in bf16 restore bit-exactly.
        let params: Vec<f32> = (0..4096)
            .map(|i| ((i % 256) as f32 - 128.0) * 0.25)
            .collect();
        save_checkpoint(&dir, &cfg_bf16, 9, &params).unwrap();
        let loaded = load_checkpoint(&dir).unwrap();
        assert_eq!(loaded.config.dtype, Dtype::Bf16);
        assert_eq!(loaded.params, params);

        let bf16_size = fs::metadata(dir.join(FILE)).unwrap().len();
        save_checkpoint(&dir, &cfg(), 9, &params).unwrap();
        let f32_size = fs::metadata(dir.join(FILE)).unwrap().len();
        assert!(
            (bf16_size as f64) < 0.6 * f32_size as f64,
            "bf16 {bf16_size} vs f32 {f32_size}"
        );
    }

    #[test]
    fn overwrite_replaces_previous() {
        let dir = tmp_dir("overwrite");
        save(&dir, &full(0));
        save_checkpoint(&dir, &cfg(), 2, &[3.0, 4.0, 5.0]).unwrap();
        assert_eq!(
            load_checkpoint(&dir).unwrap(),
            params_only(2, &[3.0, 4.0, 5.0])
        );
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [FILE], "a save leaves one file and no .tmp");
    }

    #[test]
    fn missing_checkpoint_errors() {
        let dir = Path::new("/nonexistent/ckpt");
        assert!(!checkpoint_exists(dir));
        assert!(load_checkpoint(dir).is_err());
    }

    #[test]
    fn pre_6_directory_is_rejected_naming_the_old_layout() {
        let dir = tmp_dir("pre-6");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(PRE_6_MANIFEST), b"{\"round\": 3}").unwrap();
        fs::write(dir.join("params.bin"), b"PHTNCKP1").unwrap();
        assert!(checkpoint_exists(&dir), "so that a resume warns");
        let err = load_checkpoint(&dir).unwrap_err().to_string();
        assert!(
            err.contains("pre-6") && err.contains(PRE_6_MANIFEST),
            "{err}"
        );
    }

    /// Every state a killed save can leave: each published file is
    /// independently the old checkpoint's copy or the new one's. Loading
    /// must give exactly the old or exactly the new checkpoint (or fail),
    /// never fields of both. With one file there are two such states.
    #[test]
    fn a_killed_save_leaves_the_old_checkpoint_or_the_new_one() {
        let files_of = |dir: &Path| -> Vec<(std::ffi::OsString, Vec<u8>)> {
            let mut files: Vec<_> = fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap())
                .map(|e| (e.file_name(), fs::read(e.path()).unwrap()))
                .collect();
            files.sort();
            files
        };
        let (old, new) = (full(0), full(1));
        let dir = tmp_dir("killed-save");
        save(&dir, &old);
        let old_files = files_of(&dir);
        save(&dir, &new);
        let new_files = files_of(&dir);
        assert_eq!(old_files.len(), new_files.len());
        for mix in 0..1u32 << new_files.len() {
            for (i, (name, bytes)) in new_files.iter().enumerate() {
                let from_new = mix >> i & 1 == 1;
                let bytes = if from_new { bytes } else { &old_files[i].1 };
                fs::write(dir.join(name), bytes).unwrap();
            }
            if let Ok(loaded) = load_checkpoint(&dir) {
                assert!(
                    loaded == old || loaded == new,
                    "mix {mix:b} loads a blend: round {} with params[0] = {} and \
                     optimizer step {:?}",
                    loaded.round,
                    loaded.params[0],
                    loaded.server_opt.map(|s| s.step)
                );
            }
        }
        assert_eq!(
            load_checkpoint(&dir).unwrap(),
            new,
            "the last mix is all-new"
        );
    }

    #[test]
    fn stale_tmp_files_do_not_affect_loading() {
        // A save killed before its rename leaves a `.tmp` behind — empty,
        // half-written or complete. The published checkpoint must load as
        // if it were not there, and the next save must replace it.
        let dir = tmp_dir("stale-tmp");
        let (old, new) = (full(0), full(1));
        save(&dir, &new);
        let newer = fs::read(dir.join(FILE)).unwrap();
        save(&dir, &old);
        for leftover in [&newer[..0], &newer[..newer.len() / 2], &newer[..]] {
            fs::write(dir.join(TMP_FILE), leftover).unwrap();
            assert_eq!(load_checkpoint(&dir).unwrap(), old);
        }
        save(&dir, &new);
        assert_eq!(load_checkpoint(&dir).unwrap(), new);
        assert!(!dir.join(TMP_FILE).exists());
    }

    #[test]
    fn corruption_detected() {
        // One flipped byte anywhere — magic, manifest, any section, the
        // trailer — must fail the load.
        let dir = tmp_dir("corrupt");
        save(&dir, &full(0));
        let file = fs::read(dir.join(FILE)).unwrap();
        for at in 0..file.len() {
            let mut bad = file.clone();
            bad[at] ^= 0xFF;
            fs::write(dir.join(FILE), &bad).unwrap();
            assert!(load_checkpoint(&dir).is_err(), "flip at byte {at} loaded");
        }
    }

    #[test]
    fn torn_manifest_write_is_detected() {
        assert_truncations_rejected("torn-manifest", |file| 0..manifest_end(file));
    }

    #[test]
    fn torn_params_write_is_detected() {
        assert_truncations_rejected("torn-params", |file| manifest_end(file)..file.len());
    }

    /// Overwrites one byte, *reseals* the file so the CRC passes, and
    /// expects the section decoder itself to reject the content with
    /// `want` — without panicking or reading out of bounds.
    fn assert_resealed_damage_rejected(dir: &Path, file: &[u8], at: usize, byte: u8, want: &str) {
        let mut bad = file.to_vec();
        bad[at] = byte;
        reseal(&mut bad);
        fs::write(dir.join(FILE), &bad).unwrap();
        let err = load_checkpoint(dir).unwrap_err().to_string();
        assert!(err.contains(want), "byte {at} = {byte}: {err}");
    }

    #[test]
    fn opt_state_corruption_detected() {
        let dir = tmp_dir("opt-corrupt");
        let mut saved = params_only(1, &[1.0, 2.0]);
        saved.server_opt = full(0).server_opt;
        save(&dir, &saved);
        let file = fs::read(dir.join(FILE)).unwrap();
        let opt = manifest_end(&file) + 2 * 4 + 1;
        for (at, byte, want) in [
            (opt - 1, 2, "unknown section tag"),
            (opt + 4, 0xFF, "not utf-8"),
            (opt + 3, 0x7F, "ends inside a section"), // kind length
            (opt + 4 + 7 + 8, 9, "missing f32 slice length"), // slot count
            (opt + 4 + 7 + 8 + 4 + 7, 0x7F, "bytes remain"), // slot length
        ] {
            assert_resealed_damage_rejected(&dir, &file, at, byte, want);
        }
    }

    #[test]
    fn elastic_state_corruption_detected() {
        let dir = tmp_dir("elastic-corrupt");
        let mut saved = params_only(1, &[1.0]);
        saved.elastic = full(0).elastic;
        saved.elastic.as_mut().unwrap().buffer = None;
        save(&dir, &saved);
        let file = fs::read(dir.join(FILE)).unwrap();
        let elastic = manifest_end(&file) + 4 + 1 + 1;
        let buffered_tag = file.len() - 4 - 1 - 1;
        for (at, byte, want) in [
            (elastic + 8 + 8 + 4 + 3, 0x7F, "ends inside a section"), // member count
            (buffered_tag, 7, "unknown section tag"),
            (buffered_tag, 1, "ends inside a section"), // a buffer that is not there
        ] {
            assert_resealed_damage_rejected(&dir, &file, at, byte, want);
        }
    }

    #[test]
    fn hierarchy_state_corruption_detected() {
        let dir = tmp_dir("hierarchy-corrupt");
        let mut saved = params_only(1, &[1.0]);
        saved.hierarchy = Some(HierarchyState {
            dead_shards: vec![0, 3],
        });
        save(&dir, &saved);
        let file = fs::read(dir.join(FILE)).unwrap();
        let last_shard = file.len() - 4 - 4;
        for (at, byte, want) in [
            (last_shard, 0, "not strictly ascending"),
            (last_shard - 2 * 4, 3, "ends inside a section"), // shard count
            (last_shard - 2 * 4, 1, "trailing bytes"),
        ] {
            assert_resealed_damage_rejected(&dir, &file, at, byte, want);
        }
    }

    #[test]
    fn aggregator_resumes_from_checkpoint() {
        let dir = tmp_dir("resume");
        let cfg = cfg();
        let mut fed = crate::build_federation(&cfg, 2_000).unwrap();
        fed.aggregator.run_round(&mut fed.clients).unwrap();
        fed.aggregator.save_checkpoint(&dir).unwrap();

        let ckpt = load_checkpoint(&dir).unwrap();
        let mut fresh = crate::Aggregator::new(ckpt.config.clone()).unwrap();
        fresh.restore(ckpt).unwrap();
        assert_eq!(fresh.round(), fed.aggregator.round());
        assert_eq!(fresh.params(), fed.aggregator.params());
    }
}
