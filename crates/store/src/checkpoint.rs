//! Checkpoint files and the atomically-published `MANIFEST`.
//!
//! # Checkpoint file (`ckpt-<seq:016x>.ckpt`)
//!
//! ```text
//! magic    b"SSSJCKPT"    8 bytes
//! version  u8 = 1
//! body_len u32            length of body
//! crc      u32            CRC-32C of body
//! body:
//!   spec_len varint, spec UTF-8    canonical inner spec (durable
//!                                  wrapper stripped)
//!   seq      varint               records ingested when taken
//!   last_t   f64                  stream time when taken
//!   aux_len  varint, aux bytes    engine aux state
//!                                 ([`sssj_core::Checkpointable::write_aux`])
//!   n_pairs  varint
//!   pair ×n: left varint, right varint, t f64 (emission stamp)
//! ```
//!
//! The pair list is the **replay-suppression set**: every pair emitted
//! before the checkpoint whose members may still be regenerated from
//! the retained WAL. Recovery drops exactly these from replay output,
//! which is what makes recovery never emit a pre-checkpoint pair twice.
//!
//! # `MANIFEST`
//!
//! ```text
//! magic    b"SSSJMANI"
//! version  u8 = 1
//! body_len u32
//! crc      u32            CRC-32C of body
//! body:    name_len varint, checkpoint file name UTF-8, seq varint
//! ```
//!
//! Published atomically: the checkpoint file is written and fsynced
//! first, then `MANIFEST.tmp` is written, fsynced and `rename(2)`d over
//! `MANIFEST` — a crash at any point leaves either the old manifest or
//! the new one, never a torn pointer. Older checkpoint files are pruned
//! only after the rename. If the manifest is missing or fails its CRC,
//! [`load_latest`] falls back to scanning for the highest-sequence
//! checkpoint that validates.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::Path;

use sssj_collections::varint;

use crate::crc::crc32c;
use crate::StoreError;

const CKPT_MAGIC: &[u8; 8] = b"SSSJCKPT";
const MANIFEST_MAGIC: &[u8; 8] = b"SSSJMANI";
const VERSION: u8 = 1;
/// Sanity cap on the body length of either file.
const MAX_BODY_LEN: u32 = 256 << 20;

/// One decoded checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Canonical text of the inner spec (durable wrapper stripped).
    pub spec: String,
    /// Records ingested when the checkpoint was taken (= WAL offset).
    pub seq: u64,
    /// Stream time when the checkpoint was taken.
    pub last_t: f64,
    /// Engine aux state.
    pub aux: Vec<u8>,
    /// Recently emitted pairs `(left, right, emission stamp)` — the
    /// replay-suppression set.
    pub emitted: Vec<(u64, u64, f64)>,
}

/// The checkpoint file name for sequence `seq`.
pub fn file_name(seq: u64) -> String {
    format!("ckpt-{seq:016x}.ckpt")
}

/// Writes `magic | version | body_len | crc | body` straight to `path`.
fn write_plain(path: &Path, magic: &[u8; 8], body: &[u8], fsync: bool) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(17 + body.len());
    bytes.extend_from_slice(magic);
    bytes.push(VERSION);
    bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32c(body).to_le_bytes());
    bytes.extend_from_slice(body);
    let mut f = File::create(path)?;
    f.write_all(&bytes)?;
    if fsync {
        f.sync_all()?;
    }
    Ok(())
}

/// Like [`write_plain`] but via tmp + `rename(2)`, so the file at `path`
/// is replaced atomically.
fn write_framed(path: &Path, magic: &[u8; 8], body: &[u8], fsync: bool) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    write_plain(&tmp, magic, body, fsync)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

fn read_framed(path: &Path, magic: &[u8; 8]) -> Result<Vec<u8>, StoreError> {
    let mut f = File::open(path)?;
    let mut header = [0u8; 17];
    f.read_exact(&mut header)
        .map_err(|_| StoreError::Corrupt(format!("{}: truncated header", path.display())))?;
    if &header[..8] != magic {
        return Err(StoreError::Corrupt(format!(
            "{}: bad magic",
            path.display()
        )));
    }
    if header[8] != VERSION {
        return Err(StoreError::Corrupt(format!(
            "{}: unsupported version {}",
            path.display(),
            header[8]
        )));
    }
    let body_len = u32::from_le_bytes(header[9..13].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[13..17].try_into().expect("4 bytes"));
    if body_len > MAX_BODY_LEN {
        return Err(StoreError::Corrupt(format!(
            "{}: absurd body length {body_len}",
            path.display()
        )));
    }
    let mut body = vec![0u8; body_len as usize];
    f.read_exact(&mut body)
        .map_err(|_| StoreError::Corrupt(format!("{}: truncated body", path.display())))?;
    if crc32c(&body) != crc {
        return Err(StoreError::Corrupt(format!(
            "{}: body CRC mismatch",
            path.display()
        )));
    }
    Ok(body)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn uint(&mut self) -> Result<u64, StoreError> {
        let (v, n) = varint::read_u64(&self.buf[self.pos..])
            .map_err(|e| StoreError::Corrupt(format!("varint: {e}")))?;
        self.pos += n;
        Ok(v)
    }

    fn float(&mut self) -> Result<f64, StoreError> {
        let end = self
            .pos
            .checked_add(8)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| StoreError::Corrupt("truncated f64".into()))?;
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(f64::from_le_bytes(b))
    }

    fn bytes(&mut self, what: &str) -> Result<Vec<u8>, StoreError> {
        let len = self.uint()? as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| StoreError::Corrupt(format!("truncated {what}")))?;
        let out = self.buf[self.pos..end].to_vec();
        self.pos = end;
        Ok(out)
    }
}

fn encode_checkpoint(c: &Checkpoint) -> Vec<u8> {
    let mut body = Vec::new();
    varint::write_u64(c.spec.len() as u64, &mut body);
    body.extend_from_slice(c.spec.as_bytes());
    varint::write_u64(c.seq, &mut body);
    body.extend_from_slice(&c.last_t.to_le_bytes());
    varint::write_u64(c.aux.len() as u64, &mut body);
    body.extend_from_slice(&c.aux);
    varint::write_u64(c.emitted.len() as u64, &mut body);
    for &(left, right, t) in &c.emitted {
        varint::write_u64(left, &mut body);
        varint::write_u64(right, &mut body);
        body.extend_from_slice(&t.to_le_bytes());
    }
    body
}

fn decode_checkpoint(body: &[u8]) -> Result<Checkpoint, StoreError> {
    let mut c = Cursor { buf: body, pos: 0 };
    let spec = String::from_utf8(c.bytes("spec")?)
        .map_err(|_| StoreError::Corrupt("spec is not UTF-8".into()))?;
    let seq = c.uint()?;
    let last_t = c.float()?;
    // NEG_INFINITY is legal (a checkpoint of an empty stream); NaN is not.
    if last_t.is_nan() {
        return Err(StoreError::Corrupt("NaN last_t".into()));
    }
    let aux = c.bytes("aux")?;
    let n_pairs = c.uint()?;
    // Each entry needs ≥ 10 encoded bytes; a count beyond that is lying.
    if n_pairs > (body.len() as u64) / 10 + 1 {
        return Err(StoreError::Corrupt(format!("absurd pair count {n_pairs}")));
    }
    // Never pre-allocate from the untrusted count (same rule as
    // `sssj_core::read_max_aux`): a lying n_pairs must hit end-of-body, not an
    // out-of-memory abort.
    let mut emitted = Vec::with_capacity((n_pairs as usize).min(65_536));
    for _ in 0..n_pairs {
        let left = c.uint()?;
        let right = c.uint()?;
        let t = c.float()?;
        if t.is_nan() {
            return Err(StoreError::Corrupt("NaN emission stamp".into()));
        }
        emitted.push((left, right, t));
    }
    if c.pos != body.len() {
        return Err(StoreError::Corrupt(format!(
            "{} trailing checkpoint bytes",
            body.len() - c.pos
        )));
    }
    Ok(Checkpoint {
        spec,
        seq,
        last_t,
        aux,
        emitted,
    })
}

/// Writes the checkpoint file, atomically publishes `MANIFEST`, and
/// returns the checkpoint file name so the caller can unlink it when the
/// next checkpoint supersedes it ([`prune_superseded`] handles leftovers
/// from crashed incarnations at open time). `fsync` forces both files to
/// stable storage before the rename (machine-crash durability; a plain
/// flush already survives process crashes).
///
/// Metadata traffic is deliberately minimal — checkpoints sit on the
/// ingest path (`wal_overhead` budget): the checkpoint file is written
/// *in place* under its fresh sequence-stamped name (readers only look
/// at it once `MANIFEST` flips, and a torn write fails its CRC and falls
/// back), so only the manifest itself pays the tmp + `rename(2)` dance
/// that makes publication atomic.
pub fn publish(dir: &Path, c: &Checkpoint, fsync: bool) -> io::Result<String> {
    let name = file_name(c.seq);
    write_plain(&dir.join(&name), CKPT_MAGIC, &encode_checkpoint(c), fsync)?;
    let mut body = Vec::new();
    varint::write_u64(name.len() as u64, &mut body);
    body.extend_from_slice(name.as_bytes());
    varint::write_u64(c.seq, &mut body);
    write_framed(&dir.join("MANIFEST"), MANIFEST_MAGIC, &body, fsync)?;
    Ok(name)
}

/// Removes every checkpoint file except `keep` — run at open time to
/// clear leftovers of crashed incarnations (the steady state unlinks
/// superseded checkpoints directly, without a directory scan).
pub fn prune_superseded(dir: &Path, keep: &str) {
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            let is_old_ckpt = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".ckpt") && n != keep);
            if is_old_ckpt {
                let _ = fs::remove_file(&path);
            }
        }
    }
}

/// Loads the newest valid checkpoint: via `MANIFEST` when it validates,
/// otherwise by scanning for the highest-sequence checkpoint file that
/// does. `Ok(None)` when the directory holds no usable checkpoint (e.g.
/// a crash before the first one) — recovery then replays the WAL alone.
pub fn load_latest(dir: &Path) -> Result<Option<Checkpoint>, StoreError> {
    let manifest = dir.join("MANIFEST");
    if manifest.exists() {
        if let Ok(body) = read_framed(&manifest, MANIFEST_MAGIC) {
            let mut c = Cursor { buf: &body, pos: 0 };
            if let Ok(name_bytes) = c.bytes("name") {
                if let Ok(name) = String::from_utf8(name_bytes) {
                    // Reject path separators: the name is used to open a
                    // file under `dir` and must not escape it.
                    if !name.contains('/') && !name.contains('\\') {
                        if let Ok(body) = read_framed(&dir.join(&name), CKPT_MAGIC) {
                            if let Ok(ckpt) = decode_checkpoint(&body) {
                                return Ok(Some(ckpt));
                            }
                        }
                    }
                }
            }
        }
    }
    // Fallback: the manifest (or the checkpoint it points at) is gone or
    // corrupt; use the newest checkpoint file that still validates.
    let mut best: Option<Checkpoint> = None;
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            let is_ckpt = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".ckpt"));
            if !is_ckpt {
                continue;
            }
            if let Ok(body) = read_framed(&path, CKPT_MAGIC) {
                if let Ok(ckpt) = decode_checkpoint(&body) {
                    if best.as_ref().is_none_or(|b| ckpt.seq > b.seq) {
                        best = Some(ckpt);
                    }
                }
            }
        }
    }
    Ok(best)
}

/// Whether `dir` holds any durable state (manifest, checkpoint or WAL
/// segment) — the resume-vs-create decision.
pub fn has_state(dir: &Path) -> bool {
    if dir.join("MANIFEST").exists() {
        return true;
    }
    let any = |sub: &Path, prefix: &str, suffix: &str| -> bool {
        fs::read_dir(sub)
            .map(|entries| {
                entries.filter_map(|e| e.ok()).any(|e| {
                    e.file_name()
                        .to_str()
                        .is_some_and(|n| n.starts_with(prefix) && n.ends_with(suffix))
                })
            })
            .unwrap_or(false)
    };
    any(dir, "ckpt-", ".ckpt") || any(&dir.join("wal"), "seg-", ".wal")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sssj-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            spec: "str-l2?theta=0.7&lambda=0.01".into(),
            seq: 42,
            last_t: 17.5,
            aux: vec![1, 2, 3],
            emitted: vec![(0, 1, 0.5), (3, 7, 12.25)],
        }
    }

    #[test]
    fn publish_and_load_roundtrip() {
        let dir = tmp_dir("roundtrip");
        assert!(load_latest(&dir).unwrap().is_none());
        assert!(!has_state(&dir));
        let c = sample();
        publish(&dir, &c, true).unwrap();
        assert!(has_state(&dir));
        assert_eq!(load_latest(&dir).unwrap().unwrap(), c);
        // A newer checkpoint supersedes and prunes the older file.
        let mut c2 = sample();
        c2.seq = 100;
        let name = publish(&dir, &c2, false).unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap(), c2);
        // Open-time pruning clears superseded checkpoint files.
        prune_superseded(&dir, &name);
        let ckpts = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_str().unwrap().starts_with("ckpt-"))
            .count();
        assert_eq!(ckpts, 1, "old checkpoint pruned");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_falls_back_to_scan() {
        let dir = tmp_dir("fallback");
        let c = sample();
        publish(&dir, &c, true).unwrap();
        // Corrupt the manifest body.
        let manifest = dir.join("MANIFEST");
        let mut bytes = fs::read(&manifest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&manifest, &bytes).unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap(), c, "scan fallback");
        // Corrupt the checkpoint too: no usable state, but no panic.
        let ckpt = dir.join(file_name(c.seq));
        let mut bytes = fs::read(&ckpt).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&ckpt, &bytes).unwrap();
        assert!(load_latest(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_bitflips_never_panic() {
        let c = sample();
        let body = encode_checkpoint(&c);
        assert_eq!(decode_checkpoint(&body).unwrap(), c);
        for pos in 0..body.len() {
            let mut corrupted = body.clone();
            corrupted[pos] ^= 0x41;
            let _ = decode_checkpoint(&corrupted); // any Result, no panic
        }
        for cut in 0..body.len() {
            assert!(decode_checkpoint(&body[..cut]).is_err(), "cut {cut}");
        }
    }
}
