//! Crash-only durability layer: the one checksummed record frame, atomic
//! artifact publication, journaled read-modify-write, startup recovery,
//! deterministic crashpoint injection, and the concurrent-run lock.
//!
//! **The record frame** ([`write_frame`], [`decode_frame`]) is the only
//! binary record layout in the repository, and this module owns it with
//! its CRC-32 ([`crc32`]) and the one LEB128 varint codec
//! ([`put_varint`], [`get_varint`]). Every byte the program reads back
//! from disk passes through [`decode_frame`], under one of four magics:
//!
//! | magic | what the frame holds |
//! |---|---|
//! | `TWJL` | a write-ahead journal entry ([`Journaled`]) |
//! | `TWCK` | a checkpoint record ([`crate::CheckpointStore`]) |
//! | `TWGC` | a `.twgc` trace head, chunk, directory or tail |
//! | `TWPF` | a `.twpf` binary profile |
//!
//! A torn write, a truncation or a flipped bit fails the frame it touches
//! with a typed [`FrameError`]; the decoder never panics and never
//! allocates, whatever the input.
//!
//! The harness's fault kinds (`TWIG_FAULT_SPEC`) model failures *inside*
//! a live process — panics, hangs, torn buffers. This module models the
//! one failure class they cannot: the process dying between two
//! instructions. Every published artifact goes through one of two
//! protocols, each leaving only recoverable residue at every instant:
//!
//! * **Atomic publish** ([`publish_atomic`]): write `<file>.twig-tmp`,
//!   `fsync`, rename over the destination, `fsync` the directory. A crash
//!   before the rename leaves a `.twig-tmp` file (rolled *back* — deleted
//!   — on recovery); a crash after it leaves a complete artifact.
//! * **Journaled write** ([`Journaled`]): for read-modify-write files
//!   (`BENCH_trajectory.json`), first append the *new* document as a
//!   CRC-framed record to `<file>.twig-journal` and `fsync` it, then
//!   publish atomically, then remove the journal. A crash with a complete
//!   journal frame rolls *forward* (the publish is replayed); a torn
//!   frame is discarded (the pre-append document stands). At no instant
//!   can recovery observe a mix of old and new.
//!
//! Deterministic crashpoints are instrumented at every durability
//! boundary ([`hit`]); a `crash:point=<name>[,hit=<n>]` clause of
//! `TWIG_FAULT_SPEC` kills the process with exit code
//! [`CRASH_EXIT_CODE`] on the named point's nth hit. The
//! `crash_drill` binary enumerates [`CRASHPOINTS`] and proves recovered
//! outputs byte-identical to uncrashed runs (see `docs/ROBUSTNESS.md`).

use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Exit code of a fired crashpoint — distinct from every CLI and harness
/// exit code (0–6), so drills can tell "the injected crash fired" from
/// any organic failure.
pub const CRASH_EXIT_CODE: i32 = 86;

/// Suffix of unpublished temp files ([`publish_atomic`] residue; rolled
/// back — deleted — on recovery).
pub const TMP_SUFFIX: &str = ".twig-tmp";

/// Suffix of write-ahead journals ([`Journaled`] residue; rolled forward
/// on recovery when the last frame is complete, discarded when torn).
pub const JOURNAL_SUFFIX: &str = ".twig-journal";

/// Name of the concurrent-run lock file inside a results directory.
pub const LOCK_FILE_NAME: &str = ".lock";

/// Every registered crashpoint, `(name, durability boundary it sits on)`.
/// A `crash:point=` clause must name one of them, and the `crash_drill`
/// binary refuses to pass unless it exercised every entry — adding a
/// crashpoint without drilling it is a test failure, not drift.
pub const CRASHPOINTS: &[(&str, &str)] = &[
    ("ckpt-tmp", "checkpoint record: temp written+synced, before rename"),
    ("ckpt-published", "checkpoint record: renamed, before directory sync"),
    ("figure-tmp", "figure report: temp written+synced, before rename"),
    ("manifest-tmp", "run manifest: temp written+synced, before rename"),
    ("manifest-published", "run manifest: renamed, before directory sync"),
    ("bench-tmp", "bench timing report: temp written+synced, before rename"),
    ("metrics-tmp", "telemetry export: temp written+synced, before rename"),
    ("fleet-lastgood-pre", "fleet LastGood commit: before the store write"),
    ("fleet-lastgood-post", "fleet LastGood commit: after the store write"),
    ("fleet-manifest-tmp", "fleet manifest: temp written+synced, before rename"),
    ("fleet-manifest-published", "fleet manifest: renamed, before directory sync"),
    ("traj-journal", "trajectory append: journal frame synced, before publish"),
    ("traj-published", "trajectory append: published, before journal removal"),
];

/// Whether `name` is a registered crashpoint.
pub fn is_crashpoint(name: &str) -> bool {
    CRASHPOINTS.iter().any(|(p, _)| *p == name)
}

/// Records one hit of a registered crashpoint. Call exactly at the
/// durability boundary the point names. When a `crash:point=…` clause of
/// `TWIG_FAULT_SPEC` reaches its hit count here, the process exits with
/// [`CRASH_EXIT_CODE`]; with no clause armed this is an empty scan.
pub fn hit(point: &str) {
    debug_assert!(is_crashpoint(point), "unregistered crashpoint {point:?}");
    if crate::fault::global().crashes_at(point) {
        // stderr is unbuffered; the marker survives the hard exit.
        eprintln!("twig-crash: injected crash at crashpoint {point:?}");
        std::process::exit(CRASH_EXIT_CODE);
    }
}

/// Bytes a frame adds around its payload: magic, version, length, CRC.
pub const FRAME_OVERHEAD: usize = FRAME_HEAD + 4;

/// Bytes before the payload: magic, version, length.
pub const FRAME_HEAD: usize = 4 + 1 + 4;

/// Why bytes are not the expected frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// The bytes do not begin with the expected magic.
    BadMagic,
    /// The magic matches but the format version does not.
    BadVersion(u8),
    /// The bytes end before the frame does.
    Truncated,
    /// The payload fails its CRC (a flipped bit or a torn write).
    Checksum,
    /// A record that must fill its bytes exactly is followed by more.
    Trailing,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad magic"),
            FrameError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Checksum => write!(f, "checksum mismatch"),
            FrameError::Trailing => write!(f, "trailing bytes after the record"),
        }
    }
}

impl std::error::Error for FrameError {}

/// The reflected CRC-32 polynomial (ISO-HDLC, zlib).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time: `CRC32_TABLES[0][b]` is the
/// CRC step of byte `b`, and `CRC32_TABLES[k][b]` that step followed by
/// `k` zero bytes, so eight bytes fold into the state with eight lookups.
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (ISO-HDLC, the zlib polynomial) over the concatenation of
/// `parts` without materializing it, eight bytes per step. Frames are its
/// only callers.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = !0;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][usize::from(w[4])]
                ^ t[2][usize::from(w[5])]
                ^ t[1][usize::from(w[6])]
                ^ t[0][usize::from(w[7])];
        }
        for &byte in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xff) as usize];
        }
    }
    !crc
}

/// Writes one frame whose payload is the concatenation of `parts`, and
/// returns its length in bytes. In-memory callers pass a `&mut Vec<u8>`.
/// The layout, little-endian:
///
/// ```text
/// magic   4 bytes       the record kind ("TWJL", "TWCK", "TWGC", "TWPF")
/// version u8            the format version of that kind
/// paylen  u32           payload length
/// payload paylen bytes
/// crc     u32           CRC-32/ISO-HDLC over the payload
/// ```
///
/// # Errors
///
/// Propagates the sink's write errors.
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX` bytes.
pub fn write_frame<W: Write + ?Sized>(
    out: &mut W,
    magic: &[u8; 4],
    version: u8,
    parts: &[&[u8]],
) -> io::Result<usize> {
    let paylen: usize = parts.iter().map(|p| p.len()).sum();
    let len = u32::try_from(paylen).expect("a frame payload fits in u32");
    out.write_all(magic)?;
    out.write_all(&[version])?;
    out.write_all(&len.to_le_bytes())?;
    for part in parts {
        out.write_all(part)?;
    }
    out.write_all(&crc32(parts).to_le_bytes())?;
    Ok(paylen + FRAME_OVERHEAD)
}

/// Decodes the frame at the front of `bytes`: `(payload, rest)` when the
/// magic and version match, the frame is complete and its CRC verifies.
///
/// # Errors
///
/// The first check that fails, in the order magic, version, length, CRC.
pub fn decode_frame<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    version: u8,
) -> Result<(&'a [u8], &'a [u8]), FrameError> {
    let rest = match bytes.strip_prefix(magic) {
        Some(rest) => rest,
        None if bytes.len() < 4 && magic.starts_with(bytes) => return Err(FrameError::Truncated),
        None => return Err(FrameError::BadMagic),
    };
    let (&found, rest) = rest.split_first().ok_or(FrameError::Truncated)?;
    if found != version {
        return Err(FrameError::BadVersion(found));
    }
    let (len, rest) = rest.split_first_chunk::<4>().ok_or(FrameError::Truncated)?;
    let (payload, rest) = rest
        .split_at_checked(u32::from_le_bytes(*len) as usize)
        .ok_or(FrameError::Truncated)?;
    let (crc, rest) = rest.split_first_chunk::<4>().ok_or(FrameError::Truncated)?;
    if crc32(&[payload]) != u32::from_le_bytes(*crc) {
        return Err(FrameError::Checksum);
    }
    Ok((payload, rest))
}

/// Decodes a record that is exactly one frame, returning its payload.
///
/// # Errors
///
/// Any [`decode_frame`] error, or [`FrameError::Trailing`] when bytes
/// follow the frame.
pub fn decode_record<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    version: u8,
) -> Result<&'a [u8], FrameError> {
    match decode_frame(bytes, magic, version)? {
        (payload, []) => Ok(payload),
        _ => Err(FrameError::Trailing),
    }
}

/// Appends `v` as an LEB128 varint (seven bits per byte, low first).
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decodes the LEB128 varint at the front of `buf` and advances past it.
/// `None` when `buf` ends inside the varint or the value overflows `u64`.
#[inline]
pub fn get_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let (&byte, rest) = buf.split_first()?;
        *buf = rest;
        let bits = u64::from(byte & 0x7f);
        if shift == 63 && bits > 1 {
            return None;
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// The temp-file path [`publish_atomic`] stages `path` under.
pub fn tmp_path(path: &Path) -> PathBuf {
    sibling_with_suffix(path, TMP_SUFFIX)
}

/// The write-ahead journal path for a [`Journaled`] file.
pub fn journal_path(path: &Path) -> PathBuf {
    sibling_with_suffix(path, JOURNAL_SUFFIX)
}

fn sibling_with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

/// Best-effort fsync of `path`'s parent directory, so the rename itself
/// is durable. Failures are ignored: not every platform lets a directory
/// be opened, and the rename has already happened.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
}

/// Publishes `bytes` at `path` atomically: write `<path>.twig-tmp`,
/// `fsync`, rename over `path`, `fsync` the directory. Readers observe
/// either the previous document or the new one, never a prefix.
///
/// `pre_rename` / `post_rename` name the crashpoints hit at the two
/// boundaries (pass `None` for writers without registered points). On
/// error the temp file is removed — a failed publish leaves no residue.
///
/// # Errors
///
/// Any I/O failure creating, writing, syncing, or renaming the temp file.
pub fn publish_atomic(
    path: &Path,
    bytes: &[u8],
    pre_rename: Option<&str>,
    post_rename: Option<&str>,
) -> io::Result<()> {
    publish_atomic_with(path, pre_rename, post_rename, |out| out.write_all(bytes))
}

/// Streaming variant of [`publish_atomic`]: instead of a complete
/// in-memory byte buffer, the caller writes the document through a
/// buffered handle to the staged temp file. The atomicity protocol is
/// identical (temp write, `fsync`, rename, directory `fsync`), so large
/// artifacts — columnar traces, spilled caches — publish without ever
/// being resident in RAM. If `write` returns an error (or any I/O step
/// fails) the temp file is removed and `path` is untouched.
///
/// # Errors
///
/// Any error from `write` itself, or any I/O failure creating, flushing,
/// syncing, or renaming the temp file.
pub fn publish_atomic_with<T>(
    path: &Path,
    pre_rename: Option<&str>,
    post_rename: Option<&str>,
    write: impl FnOnce(&mut io::BufWriter<std::fs::File>) -> io::Result<T>,
) -> io::Result<T> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_path(path);
    let publish = (|| {
        let file = std::fs::File::create(&tmp)?;
        let mut out = io::BufWriter::new(file);
        let value = write(&mut out)?;
        out.flush()?;
        let file = out.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        if let Some(point) = pre_rename {
            hit(point);
        }
        std::fs::rename(&tmp, path)?;
        if let Some(point) = post_rename {
            hit(point);
        }
        sync_parent_dir(path);
        Ok(value)
    })();
    if publish.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    publish
}

/// Journal frame magic.
const JOURNAL_MAGIC: &[u8; 4] = b"TWJL";

/// Journal frame format version; bump on any layout change.
pub const JOURNAL_VERSION: u8 = 1;

/// Serializes one journal frame holding the complete new document.
pub fn encode_journal_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, JOURNAL_MAGIC, JOURNAL_VERSION, &[payload])
        .expect("writing to a Vec cannot fail");
    frame
}

/// Replays journal bytes: scans frames front to back and returns the
/// payload of the last fully-valid one. Torn tails, truncations,
/// bit-flips, and garbage suffixes invalidate only the frames they touch;
/// duplicated frames resolve to the last valid copy. `None` when no
/// complete valid frame exists (the journal is then discarded and the
/// pre-write document stands).
pub fn replay_journal(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut rest = bytes;
    let mut last_valid = None;
    while let Ok((payload, after)) = decode_frame(rest, JOURNAL_MAGIC, JOURNAL_VERSION) {
        last_valid = Some(payload);
        rest = after;
    }
    last_valid.map(<[u8]>::to_vec)
}

/// One healed crash residue, surfaced in run manifests.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Healed {
    /// The residue file that was acted on.
    pub path: String,
    /// What recovery did: `rolled-back-temp` (unpublished temp deleted),
    /// `rolled-forward-journal` (journaled write replayed to completion),
    /// or `discarded-torn-journal` (incomplete journal dropped; the
    /// pre-write document stands).
    pub action: &'static str,
}

impl fmt::Display for Healed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.action)
    }
}

/// Recovers one journaled file from whatever residue a crash left:
/// replays a valid journal frame into an atomic publish (roll forward),
/// discards a torn journal (roll back), and removes any unpublished temp.
///
/// # Errors
///
/// I/O failures reading the journal or re-publishing the document.
fn recover_journaled(path: &Path) -> io::Result<Vec<Healed>> {
    let mut healed = Vec::new();
    let tmp = tmp_path(path);
    if tmp.exists() {
        std::fs::remove_file(&tmp)?;
        healed.push(Healed {
            path: tmp.display().to_string(),
            action: "rolled-back-temp",
        });
    }
    let journal = journal_path(path);
    if journal.exists() {
        let bytes = std::fs::read(&journal)?;
        match replay_journal(&bytes) {
            Some(payload) => {
                // Roll forward: the write reached its journal, so it
                // committed; finishing the publish is idempotent even if
                // the crash happened after the rename.
                publish_atomic(path, &payload, None, None)?;
                std::fs::remove_file(&journal)?;
                sync_parent_dir(&journal);
                healed.push(Healed {
                    path: journal.display().to_string(),
                    action: "rolled-forward-journal",
                });
            }
            None => {
                std::fs::remove_file(&journal)?;
                sync_parent_dir(&journal);
                healed.push(Healed {
                    path: journal.display().to_string(),
                    action: "discarded-torn-journal",
                });
            }
        }
    }
    Ok(healed)
}

/// Scans `dir` recursively for crash residue (`*.twig-tmp`,
/// `*.twig-journal`) and heals it: temps roll back, journals roll forward
/// or are discarded. Returns what was healed, sorted by path, for the run
/// manifest. Residues that fail to heal are reported on stderr and
/// skipped — recovery itself must not crash the run.
pub fn recover_dir(dir: &Path) -> Vec<Healed> {
    let mut residues: Vec<PathBuf> = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&current) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.ends_with(TMP_SUFFIX) || name.ends_with(JOURNAL_SUFFIX) {
                    residues.push(path);
                }
            }
        }
    }
    // Heal per base file so a temp + journal pair is resolved coherently
    // (journal wins; the temp is just a discarded stage).
    let mut bases: Vec<PathBuf> = residues
        .iter()
        .map(|p| {
            let name = p.file_name().map(|n| n.to_string_lossy().into_owned());
            let base = name
                .as_deref()
                .map(|n| {
                    n.trim_end_matches(TMP_SUFFIX)
                        .trim_end_matches(JOURNAL_SUFFIX)
                        .to_string()
                })
                .unwrap_or_default();
            p.with_file_name(base)
        })
        .collect();
    bases.sort();
    bases.dedup();
    let mut healed = Vec::new();
    for base in bases {
        match recover_journaled(&base) {
            Ok(mut acts) => healed.append(&mut acts),
            Err(e) => eprintln!(
                "warning: cannot heal crash residue of {}: {e}",
                base.display()
            ),
        }
    }
    healed.sort_by(|a, b| a.path.cmp(&b.path));
    healed
}

/// A journaled read-modify-write file (e.g. `BENCH_trajectory.json`).
/// Opening heals any crash residue; writing journals the complete new
/// document before publishing it, so a kill at any instant recovers to
/// exactly the pre- or post-write document.
#[derive(Debug)]
pub struct Journaled {
    path: PathBuf,
}

impl Journaled {
    /// Opens `path`, healing journal/temp residue first. Returns what was
    /// healed (at most a roll-forward and a temp roll-back) for reporting.
    ///
    /// # Errors
    ///
    /// I/O failures during recovery.
    pub fn open(path: &Path) -> io::Result<(Journaled, Vec<Healed>)> {
        let healed = recover_journaled(path)?;
        Ok((
            Journaled {
                path: path.to_path_buf(),
            },
            healed,
        ))
    }

    /// The current document, or `None` when the file does not exist yet.
    ///
    /// # Errors
    ///
    /// Any read failure other than the file being absent.
    pub fn read(&self) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Replaces the document with `bytes` crash-safely: journal frame +
    /// `fsync`, atomic publish, journal removal. `after_journal` /
    /// `after_publish` name the crashpoints hit at the two commit
    /// boundaries.
    ///
    /// # Errors
    ///
    /// Any I/O failure along the way; the journal is left for the next
    /// open to roll forward if the publish already committed.
    pub fn write(
        &self,
        bytes: &[u8],
        after_journal: Option<&str>,
        after_publish: Option<&str>,
    ) -> io::Result<()> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let journal = journal_path(&self.path);
        let mut file = std::fs::File::create(&journal)?;
        file.write_all(&encode_journal_frame(bytes))?;
        file.sync_all()?;
        drop(file);
        if let Some(point) = after_journal {
            hit(point);
        }
        publish_atomic(&self.path, bytes, None, None)?;
        if let Some(point) = after_publish {
            hit(point);
        }
        std::fs::remove_file(&journal)?;
        sync_parent_dir(&journal);
        Ok(())
    }
}

/// Failure to acquire the concurrent-run lock.
#[derive(Debug)]
pub enum LockError {
    /// Another live process holds the lock.
    Held {
        /// The lock file path.
        path: PathBuf,
        /// The holding process id.
        pid: u32,
    },
    /// A filesystem failure while probing or creating the lock.
    Io(io::Error),
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Held { path, pid } => write!(
                f,
                "another run holds {} (pid {pid}); wait for it or remove the lock if stale",
                path.display()
            ),
            LockError::Io(e) => write!(f, "cannot acquire run lock: {e}"),
        }
    }
}

impl std::error::Error for LockError {}

/// Whether a process id is alive. On Linux this probes `/proc/<pid>`;
/// elsewhere it conservatively assumes alive (a stale lock then needs
/// manual removal, but a live run is never clobbered).
pub fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    let proc_root = Path::new("/proc");
    if proc_root.is_dir() {
        proc_root.join(pid.to_string()).is_dir()
    } else {
        true
    }
}

/// The concurrent-run guard: a `.lock` file holding the owner's pid,
/// created with `O_EXCL` inside the results directory. A second run
/// fails typed ([`LockError::Held`]) naming the holder; a lock whose pid
/// is dead (a killed run's residue) is stolen with a stderr notice.
/// Dropping the guard removes the lock.
#[derive(Debug)]
pub struct RunLock {
    path: PathBuf,
}

impl RunLock {
    /// Acquires the lock for `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// [`LockError::Held`] when a live process owns it; [`LockError::Io`]
    /// on filesystem failures.
    pub fn acquire(dir: &Path) -> Result<RunLock, LockError> {
        std::fs::create_dir_all(dir).map_err(LockError::Io)?;
        let path = dir.join(LOCK_FILE_NAME);
        // Bounded steal loop: each iteration either creates the lock,
        // returns Held, or removes one dead holder's file.
        for _ in 0..16 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    file.write_all(std::process::id().to_string().as_bytes())
                        .and_then(|()| file.sync_all())
                        .map_err(LockError::Io)?;
                    return Ok(RunLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    match Self::holder(&path) {
                        Some(pid) if pid_alive(pid) => {
                            return Err(LockError::Held { path, pid });
                        }
                        Some(pid) => {
                            eprintln!(
                                "stealing stale run lock {} (pid {pid} is dead)",
                                path.display()
                            );
                            let _ = std::fs::remove_file(&path);
                        }
                        // Unreadable/empty pid: either a racing creator
                        // mid-write (re-read after a pause) or a crash
                        // between create and write (then it never becomes
                        // readable and the remove below clears it).
                        None => {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            if Self::holder(&path).is_none() {
                                eprintln!(
                                    "removing pid-less run lock {} (crash residue)",
                                    path.display()
                                );
                                let _ = std::fs::remove_file(&path);
                            }
                        }
                    }
                }
                Err(e) => return Err(LockError::Io(e)),
            }
        }
        Err(LockError::Io(io::Error::other(
            "run lock contended past retry budget",
        )))
    }

    /// The pid recorded in a lock file, if readable.
    fn holder(path: &Path) -> Option<u32> {
        std::fs::read_to_string(path).ok()?.trim().parse().ok()
    }

    /// The lock file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("twig-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b""]), 0);
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn crc32_over_parts_equals_crc32_of_their_concatenation() {
        let whole: &[u8] = b"the quick brown fox jumps over the lazy dog";
        for cut in [0, 1, 9, whole.len() - 1, whole.len()] {
            let (a, b) = whole.split_at(cut);
            assert_eq!(crc32(&[a, b]), crc32(&[whole]), "cut at {cut}");
            assert_eq!(crc32(&[a, &[], b]), crc32(&[whole]), "cut at {cut}");
        }
    }

    /// The bitwise definition the tables are derived from.
    fn crc32_bitwise(parts: &[&[u8]]) -> u32 {
        let mut crc: u32 = !0;
        for &byte in parts.iter().flat_map(|p| p.iter()) {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// Random buffers, cut into random parts at unaligned offsets, give
    /// the bitwise reference's value.
    #[test]
    fn crc32_matches_the_bitwise_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let len = (next() % 300) as usize;
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let mut cuts: Vec<usize> = (0..next() % 5)
                .map(|_| (next() as usize) % (len + 1))
                .collect();
            cuts.sort_unstable();
            let mut parts: Vec<&[u8]> = Vec::new();
            let mut at = 0;
            for cut in cuts {
                parts.push(&buf[at..cut]);
                at = cut;
            }
            parts.push(&buf[at..]);
            assert_eq!(crc32(&parts), crc32_bitwise(&[&buf]), "len {len}");
            assert_eq!(crc32(&[&buf]), crc32_bitwise(&parts), "len {len}");
        }
    }

    #[test]
    fn varint_boundaries() {
        let mut buf = Vec::new();
        let widths = (1..10).flat_map(|width| [(1u64 << (7 * width)) - 1, 1 << (7 * width)]);
        for v in widths.chain([0, u64::MAX]) {
            buf.clear();
            put_varint(&mut buf, v);
            let mut rest = &buf[..];
            assert_eq!(get_varint(&mut rest), Some(v));
            assert!(rest.is_empty(), "{v} consumed exactly");
            // Every strict prefix ends inside the varint.
            for cut in 0..buf.len() {
                assert_eq!(get_varint(&mut &buf[..cut]), None, "{v} cut at {cut}");
            }
        }
        // A tenth byte above 1 overflows u64, as does an eleventh byte.
        let mut over = vec![0xff; 9];
        over.push(0x02);
        assert_eq!(get_varint(&mut &over[..]), None);
        let mut long = vec![0x80; 10];
        long.push(0);
        assert_eq!(get_varint(&mut &long[..]), None);
    }

    #[test]
    fn crash_spec_parses_points_and_counts() {
        use crate::fault::FaultSpec;
        for (point, _) in CRASHPOINTS {
            let spec = FaultSpec::parse(&format!("crash:point={point}")).unwrap();
            assert!(spec.crashes_at(point), "{point}: hit defaults to the first");
        }
        let spec = FaultSpec::parse(" crash : point = traj-journal , hit = 3 ").unwrap();
        assert!(!spec.crashes_at("traj-journal"));
        assert!(!spec.crashes_at("traj-journal"));
        assert!(spec.crashes_at("traj-journal"), "the third hit crashes");
        assert!(FaultSpec::parse("").unwrap().is_empty());
    }

    #[test]
    fn unarmed_and_unmatched_checks_never_fire() {
        use crate::fault::FaultSpec;
        let none = FaultSpec::none();
        for (point, _) in CRASHPOINTS {
            assert!(
                !none.crashes_at(point),
                "{point}: an unarmed spec never crashes"
            );
        }
        // Hits of other points, and non-crash clauses naming the point,
        // leave the armed count alone: only the second manifest-tmp hit fires.
        let spec =
            FaultSpec::parse("crash:point=manifest-tmp,hit=2;panic:cell=manifest-tmp").unwrap();
        assert!(!spec.crashes_at("ckpt-tmp"));
        assert!(!spec.crashes_at("ckpt-tmp"));
        assert!(!spec.crashes_at("manifest-tmp"));
        assert!(spec.crashes_at("manifest-tmp"));
        // A firing hit would exit the test process; surviving IS the
        // assertion. Only run it when the process-wide spec is unarmed.
        if crate::fault::global().is_empty() {
            for (point, _) in CRASHPOINTS {
                hit(point);
            }
        }
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = CRASHPOINTS.iter().map(|(p, _)| *p).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate crashpoint names");
        assert!(before >= 10, "the drill promises >= 10 points");
    }

    #[test]
    fn publish_atomic_roundtrips_and_leaves_no_residue() {
        let dir = temp_dir("publish");
        let path = dir.join("doc.json");
        publish_atomic(&path, b"{\"v\":1}", None, None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\":1}");
        publish_atomic(&path, b"{\"v\":2}", None, None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\":2}");
        assert!(!tmp_path(&path).exists());
        // Missing parent directories are created.
        let nested = dir.join("a/b/doc.txt");
        publish_atomic(&nested, b"x", None, None).unwrap();
        assert_eq!(std::fs::read(&nested).unwrap(), b"x");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_frames_roundtrip_and_reject_corruption() {
        let frame = encode_journal_frame(b"payload");
        assert_eq!(replay_journal(&frame).unwrap(), b"payload");
        // Torn tail: any strict prefix yields no frame.
        for cut in 0..frame.len() {
            assert_eq!(replay_journal(&frame[..cut]), None, "cut at {cut}");
        }
        // Bit-flips anywhere invalidate the frame.
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            if let Some(payload) = replay_journal(&bad) {
                assert_eq!(payload, b"payload", "flip at {i} yielded wrong payload");
            }
        }
        // Duplicated frames: the last valid one wins.
        let mut two = encode_journal_frame(b"old");
        two.extend_from_slice(&encode_journal_frame(b"new"));
        assert_eq!(replay_journal(&two).unwrap(), b"new");
        // A torn second frame falls back to the first.
        let mut torn = encode_journal_frame(b"old");
        let second = encode_journal_frame(b"new");
        torn.extend_from_slice(&second[..second.len() - 2]);
        assert_eq!(replay_journal(&torn).unwrap(), b"old");
    }

    #[test]
    fn journaled_write_commits_and_recovers_forward() {
        let dir = temp_dir("journaled");
        let path = dir.join("traj.json");
        let (file, healed) = Journaled::open(&path).unwrap();
        assert!(healed.is_empty());
        assert_eq!(file.read().unwrap(), None);
        file.write(b"doc-1", None, None).unwrap();
        assert_eq!(file.read().unwrap().unwrap(), b"doc-1");
        assert!(!journal_path(&path).exists(), "journal removed after commit");

        // Simulate a crash between journal sync and publish: the journal
        // holds doc-2, the file still holds doc-1. Open must roll forward.
        std::fs::write(journal_path(&path), encode_journal_frame(b"doc-2")).unwrap();
        let (file, healed) = Journaled::open(&path).unwrap();
        assert_eq!(healed.len(), 1);
        assert_eq!(healed[0].action, "rolled-forward-journal");
        assert_eq!(file.read().unwrap().unwrap(), b"doc-2");
        assert!(!journal_path(&path).exists());

        // A torn journal is discarded; doc-2 stands.
        let frame = encode_journal_frame(b"doc-3");
        std::fs::write(journal_path(&path), &frame[..frame.len() / 2]).unwrap();
        let (file, healed) = Journaled::open(&path).unwrap();
        assert_eq!(healed[0].action, "discarded-torn-journal");
        assert_eq!(file.read().unwrap().unwrap(), b"doc-2");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_dir_heals_temps_and_journals_recursively() {
        let dir = temp_dir("recover");
        std::fs::create_dir_all(dir.join("metrics")).unwrap();
        std::fs::write(dir.join("metrics/kafka.json.twig-tmp"), b"partial").unwrap();
        std::fs::write(dir.join("report.txt"), b"old").unwrap();
        std::fs::write(
            dir.join("report.txt.twig-journal"),
            encode_journal_frame(b"new"),
        )
        .unwrap();
        let healed = recover_dir(&dir);
        let actions: Vec<&str> = healed.iter().map(|h| h.action).collect();
        assert_eq!(actions, vec!["rolled-back-temp", "rolled-forward-journal"]);
        assert!(!dir.join("metrics/kafka.json.twig-tmp").exists());
        assert_eq!(std::fs::read(dir.join("report.txt")).unwrap(), b"new");
        assert!(recover_dir(&dir).is_empty(), "recovery is idempotent");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_lock_excludes_live_holders_and_steals_dead_ones() {
        let dir = temp_dir("lock");
        let lock = RunLock::acquire(&dir).unwrap();
        // Second acquisition in the same (live) process: held.
        match RunLock::acquire(&dir) {
            Err(LockError::Held { pid, .. }) => assert_eq!(pid, std::process::id()),
            other => panic!("expected Held, got {other:?}"),
        }
        drop(lock);
        assert!(!dir.join(LOCK_FILE_NAME).exists(), "drop releases the lock");
        // A dead holder's lock is stolen.
        std::fs::write(dir.join(LOCK_FILE_NAME), u32::MAX.to_string()).unwrap();
        let lock = RunLock::acquire(&dir).expect("stale lock stolen");
        drop(lock);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pid_liveness_probe_sees_self() {
        assert!(pid_alive(std::process::id()));
        // u32::MAX exceeds Linux's pid_max; nothing can hold it.
        if Path::new("/proc").is_dir() {
            assert!(!pid_alive(u32::MAX));
        }
    }
}
