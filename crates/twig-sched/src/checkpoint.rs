//! Checkpoint store: versioned, checksummed per-cell records under
//! `<results-dir>/.checkpoints/`.
//!
//! Each completed matrix cell (one `(app × system × budget)` simulation,
//! or one app's rewrite metadata) is persisted as soon as it finishes, so
//! a crashed or killed run resumes from completed cells instead of
//! recomputing the whole matrix. Records are written atomically (temp
//! file + rename) and every load re-verifies a CRC-32 over the key and
//! payload — a torn, truncated, or bit-flipped record is evicted and the
//! cell recomputed, never silently served.
//!
//! A record is one [`crate::durable`] frame (magic `"TWCK"`) whose
//! payload is, little-endian:
//!
//! ```text
//! keylen  u32           length of the cell key
//! key     keylen bytes  e.g. "sim-kafka-twig-i2000000"
//! payload ...           JSON (integer-only fields => bit-exact round-trip)
//! ```
//!
//! The frame's CRC covers the key and the payload, and a record must fill
//! its file exactly: trailing bytes are corruption too.
//!
//! Cold runs (no `--resume`) wipe the directory first, which both keeps
//! "clean run ≡ cold run" trivially true and invalidates records from
//! older code or different budgets.

use std::path::{Path, PathBuf};

use crate::durable::{decode_record, write_frame};

/// On-disk record format version; bump on any layout or semantic change.
/// Version 2 moved the record into the shared frame.
pub const CHECKPOINT_VERSION: u8 = 2;

const MAGIC: &[u8; 4] = b"TWCK";

/// Serializes one record.
fn encode_record(key: &str, payload: &[u8]) -> Vec<u8> {
    let keylen = (key.len() as u32).to_le_bytes();
    let mut record = Vec::new();
    let parts = [&keylen[..], key.as_bytes(), payload];
    write_frame(&mut record, MAGIC, CHECKPOINT_VERSION, &parts)
        .expect("writing to a Vec cannot fail");
    record
}

/// The per-run checkpoint directory, or a disabled stub (unit tests and
/// library consumers that did not opt in).
#[derive(Debug)]
pub struct CheckpointStore {
    dir: Option<PathBuf>,
}

impl CheckpointStore {
    /// Opens (and creates) `dir`. When `resume` is false the directory is
    /// wiped first, so only records written by this run can be loaded.
    pub fn open(dir: &Path, resume: bool) -> CheckpointStore {
        if !resume {
            // Remove stale records one by one (never the directory's other
            // content, in case the user pointed this at something odd).
            if let Ok(entries) = std::fs::read_dir(dir) {
                for entry in entries.flatten() {
                    let path = entry.path();
                    let name = entry.file_name().to_string_lossy().into_owned();
                    if path.extension().is_some_and(|e| e == "ckpt")
                        || name.ends_with(crate::durable::TMP_SUFFIX)
                    {
                        let _ = std::fs::remove_file(&path);
                    }
                }
            }
        }
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!(
                "warning: cannot create checkpoint dir {}: {e}; checkpointing disabled",
                dir.display()
            );
            return CheckpointStore { dir: None };
        }
        CheckpointStore {
            dir: Some(dir.to_path_buf()),
        }
    }

    /// A store that never persists nor loads anything.
    pub fn disabled() -> CheckpointStore {
        CheckpointStore { dir: None }
    }

    /// Whether records are being persisted.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    fn path_for(&self, key: &str) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        let safe: String = key
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
            .collect();
        Some(dir.join(format!("{safe}.ckpt")))
    }

    /// Loads and verifies the record for `key`. Corrupt or mismatched
    /// records are deleted (evicted) and reported as missing.
    pub fn load(&self, key: &str) -> Option<Vec<u8>> {
        let path = self.path_for(key)?;
        let bytes = std::fs::read(&path).ok()?;
        let reason = match decode_record(&bytes, MAGIC, CHECKPOINT_VERSION) {
            Ok(body) => {
                let stored = body.split_first_chunk::<4>().and_then(|(keylen, body)| {
                    body.split_at_checked(u32::from_le_bytes(*keylen) as usize)
                });
                match stored {
                    Some((stored_key, payload)) if stored_key == key.as_bytes() => {
                        return Some(payload.to_vec())
                    }
                    _ => "foreign or malformed key".to_string(),
                }
            }
            Err(e) => e.to_string(),
        };
        let path_shown = path.display();
        eprintln!("warning: evicting corrupt checkpoint {path_shown} ({reason})");
        let _ = std::fs::remove_file(&path);
        None
    }

    /// Atomically persists `payload` for `key` (temp file + rename). A
    /// failure to persist is a warning, not an error: the run's results
    /// are unaffected, only a future resume loses this cell.
    pub fn store(&self, key: &str, payload: &[u8]) {
        self.store_with_faults(key, payload, crate::fault::global());
    }

    /// [`Self::store`] with an explicit fault spec — the injection seam
    /// the crash-consistency tests drive directly. A matching `disk-full`
    /// clause (label `ckpt:<key>`) tears the record mid-payload before it
    /// reaches disk: the deterministic stand-in for `ENOSPC` or a crash
    /// between `write` and `fsync`. The CRC layer guarantees such a
    /// record is evicted on load, never parsed as truth.
    pub fn store_with_faults(&self, key: &str, payload: &[u8], faults: &crate::FaultSpec) {
        let Some(path) = self.path_for(key) else {
            return;
        };
        let record = encode_record(key, payload);
        let record = match faults.apply_write_fault(&format!("ckpt:{key}"), &record) {
            Some(torn) => {
                eprintln!(
                    "warning: injected disk-full tore checkpoint {key} \
                     ({} of {} bytes written)",
                    torn.len(),
                    record.len()
                );
                torn
            }
            None => record,
        };
        let write = crate::durable::publish_atomic(
            &path,
            &record,
            Some("ckpt-tmp"),
            Some("ckpt-published"),
        );
        if let Err(e) = write {
            eprintln!("warning: cannot persist checkpoint {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "twig-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_store_and_load() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::open(&dir, false);
        assert!(store.is_enabled());
        store.store("sim-kafka-twig-i1000", br#"{"cycles":42}"#);
        let loaded = store.load("sim-kafka-twig-i1000").expect("record exists");
        assert_eq!(loaded, br#"{"cycles":42}"#);
        assert_eq!(store.load("sim-kafka-ideal-i1000"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_are_detected_and_evicted() {
        let dir = temp_dir("bitflip");
        let store = CheckpointStore::open(&dir, false);
        store.store("cell", b"payload-bytes-here");
        let path = dir.join("cell.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload bit and every record byte in turn; a flip must
        // never yield a successful load of wrong data.
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x10;
            std::fs::write(&path, &mutated).unwrap();
            if let Some(payload) = store.load("cell") {
                assert_eq!(payload, b"payload-bytes-here", "flip at byte {i}");
            }
            // load() evicts on corruption; restore for the next iteration.
            std::fs::write(&path, &bytes).unwrap();
        }
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load("cell"), None, "truncated record rejected");
        assert!(!path.exists(), "corrupt record evicted from disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_is_evicted_on_load_never_parsed() {
        let dir = temp_dir("torn");
        let store = CheckpointStore::open(&dir, false);
        let spec =
            crate::FaultSpec::parse("disk-full:label=ckpt:victim,times=1").unwrap();
        // The injected tear truncates the record mid-payload; the write
        // itself "succeeds" (rename lands), exactly like ENOSPC after a
        // partial write or a crash before fsync.
        store.store_with_faults("victim", br#"{"cycles":42,"ipc":9000}"#, &spec);
        let path = dir.join("victim.ckpt");
        let on_disk = std::fs::read(&path).unwrap();
        assert!(on_disk.len() < encode_record("victim", br#"{"cycles":42,"ipc":9000}"#).len());
        // Load must reject and evict — a torn record is never truth.
        assert_eq!(store.load("victim"), None);
        assert!(!path.exists(), "torn record must be evicted from disk");
        // The budget-exhausted retry persists cleanly and round-trips.
        store.store_with_faults("victim", br#"{"cycles":42,"ipc":9000}"#, &spec);
        assert_eq!(
            store.load("victim").expect("clean retry persists"),
            br#"{"cycles":42,"ipc":9000}"#
        );
        // Unmatched keys are never torn.
        store.store_with_faults("bystander", b"ok", &spec);
        assert_eq!(store.load("bystander").unwrap(), b"ok");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trailing_bytes_and_foreign_keys_are_evicted() {
        let dir = temp_dir("foreign");
        let store = CheckpointStore::open(&dir, false);
        store.store("cell-a", b"payload");
        let record = std::fs::read(dir.join("cell-a.ckpt")).unwrap();
        // A record copied under another key's name carries the wrong key.
        std::fs::write(dir.join("cell-b.ckpt"), &record).unwrap();
        assert_eq!(store.load("cell-b"), None);
        assert!(!dir.join("cell-b.ckpt").exists(), "foreign record evicted");
        // An intact record followed by anything is not a record.
        let mut padded = record.clone();
        padded.push(0);
        std::fs::write(dir.join("cell-a.ckpt"), &padded).unwrap();
        assert_eq!(store.load("cell-a"), None);
        assert!(!dir.join("cell-a.ckpt").exists(), "padded record evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_open_wipes_previous_records() {
        let dir = temp_dir("wipe");
        let store = CheckpointStore::open(&dir, false);
        store.store("old-cell", b"stale");
        // Resume keeps records…
        let resumed = CheckpointStore::open(&dir, true);
        assert!(resumed.load("old-cell").is_some());
        // …a cold open drops them.
        let cold = CheckpointStore::open(&dir, false);
        assert_eq!(cold.load("old-cell"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_store_is_inert() {
        let store = CheckpointStore::disabled();
        store.store("anything", b"x");
        assert_eq!(store.load("anything"), None);
        assert!(!store.is_enabled());
    }

    #[test]
    fn keys_with_path_hostile_characters_are_sanitized() {
        let dir = temp_dir("sanitize");
        let store = CheckpointStore::open(&dir, false);
        store.store("sim:kafka/twig ../..", b"v");
        assert_eq!(store.load("sim:kafka/twig ../..").unwrap(), b"v");
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            assert!(!name.contains('/') && !name.contains(':'), "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
