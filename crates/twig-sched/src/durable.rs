//! Crash-only durability layer: atomic artifact publication, journaled
//! read-modify-write, startup recovery, deterministic crashpoint
//! injection, and the concurrent-run lock.
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
//! Deterministic crashpoints (`TWIG_CRASH_SPEC=<point>[@<n>]`, parsed
//! from [`twig_types::HarnessConfig`] like `TWIG_FAULT_SPEC`) are
//! instrumented at every durability boundary; a matching point kills the
//! process with exit code [`CRASH_EXIT_CODE`] on its nth hit. The
//! `crash_drill` binary enumerates [`CRASHPOINTS`] and proves recovered
//! outputs byte-identical to uncrashed runs (see `docs/ROBUSTNESS.md`).

use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

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
/// `TWIG_CRASH_SPEC` validates against this list, and the `crash_drill`
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

/// A parsed `TWIG_CRASH_SPEC`: one crashpoint name, optionally `@<n>`
/// (1-based; default 1) selecting which hit kills the process.
#[derive(Debug, Default)]
pub struct CrashSpec {
    point: Option<String>,
    nth: u32,
    hits: AtomicU32,
    /// The raw spec text, echoed into manifests.
    pub raw: Option<String>,
}

impl CrashSpec {
    /// Parses `<point>[@<n>]`, validating the point name against
    /// [`CRASHPOINTS`].
    ///
    /// # Errors
    ///
    /// Returns a description naming the unknown point or malformed count.
    pub fn parse(raw: &str) -> Result<CrashSpec, String> {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Ok(CrashSpec::none());
        }
        let (point, nth) = match trimmed.split_once('@') {
            Some((p, n)) => {
                let nth: u32 = n
                    .trim()
                    .parse()
                    .map_err(|_| format!("crash count {n:?} is not a number in {trimmed:?}"))?;
                if nth == 0 {
                    return Err(format!("crash count must be >= 1 in {trimmed:?}"));
                }
                (p.trim(), nth)
            }
            None => (trimmed, 1),
        };
        if !is_crashpoint(point) {
            let known: Vec<&str> = CRASHPOINTS.iter().map(|(p, _)| *p).collect();
            return Err(format!(
                "unknown crashpoint {point:?}; registered points: {}",
                known.join(", ")
            ));
        }
        Ok(CrashSpec {
            point: Some(point.to_string()),
            nth,
            hits: AtomicU32::new(0),
            raw: Some(trimmed.to_string()),
        })
    }

    /// A spec that never fires.
    pub fn none() -> CrashSpec {
        CrashSpec {
            nth: 1,
            ..CrashSpec::default()
        }
    }

    /// Whether any crashpoint is armed.
    pub fn is_armed(&self) -> bool {
        self.point.is_some()
    }

    /// Records one hit of `point`; kills the process with
    /// [`CRASH_EXIT_CODE`] when this is the armed point's nth hit.
    pub fn check(&self, point: &str) {
        let Some(armed) = self.point.as_deref() else {
            return;
        };
        if armed != point {
            return;
        }
        let count = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        if count == self.nth {
            // stderr is unbuffered; the marker survives the hard exit.
            eprintln!("twig-crash: injected crash at crashpoint {point:?} (hit {count})");
            std::process::exit(CRASH_EXIT_CODE);
        }
    }
}

/// Records one hit of a registered crashpoint against the process-wide
/// spec. Call exactly at the durability boundary the point names; with no
/// `TWIG_CRASH_SPEC` armed this is two loads and a compare.
pub fn hit(point: &str) {
    debug_assert!(is_crashpoint(point), "unregistered crashpoint {point:?}");
    global().check(point);
}

/// The process-wide spec parsed from `TWIG_CRASH_SPEC` (inert when the
/// variable is unset). A malformed spec aborts: silently ignoring an
/// operator's injection request would make a crash-drill CI job pass
/// vacuously.
pub fn global() -> &'static CrashSpec {
    static SPEC: OnceLock<CrashSpec> = OnceLock::new();
    SPEC.get_or_init(
        || match &twig_types::HarnessConfig::global().crash_spec.value {
            Some(raw) => CrashSpec::parse(raw)
                .unwrap_or_else(|e| panic!("malformed TWIG_CRASH_SPEC: {e}")),
            None => CrashSpec::none(),
        },
    )
}

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
/// `parts` without materializing it, eight bytes per step. Shared by
/// checkpoint records, journal frames, and `.twgc` trace chunks.
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
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_path(path);
    let publish = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
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
        Ok(())
    })();
    if publish.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    publish
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

/// Journal frame magic; layout (little-endian):
///
/// ```text
/// magic   "TWJL"        4 bytes
/// version u8            currently 1
/// paylen  u32           payload length
/// payload paylen bytes  the complete post-write document
/// crc     u32           CRC-32/ISO-HDLC over the payload
/// ```
const JOURNAL_MAGIC: &[u8; 4] = b"TWJL";

/// Journal frame format version; bump on any layout change.
pub const JOURNAL_VERSION: u8 = 1;

/// Serializes one journal frame holding the complete new document.
pub fn encode_journal_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 1 + 4 + payload.len() + 4);
    out.extend_from_slice(JOURNAL_MAGIC);
    out.push(JOURNAL_VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&[payload]).to_le_bytes());
    out
}

/// Replays journal bytes: scans frames front to back and returns the
/// payload of the last fully-valid one. Torn tails, truncations,
/// bit-flips, and garbage suffixes invalidate only the frames they touch;
/// duplicated frames resolve to the last valid copy. `None` when no
/// complete valid frame exists (the journal is then discarded and the
/// pre-write document stands).
pub fn replay_journal(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut rest = bytes;
    let mut last_valid: Option<Vec<u8>> = None;
    while let Some(after_magic) = rest.strip_prefix(JOURNAL_MAGIC) {
        let Some((&version, after_version)) = after_magic.split_first() else {
            break;
        };
        if version != JOURNAL_VERSION || after_version.len() < 4 {
            break;
        }
        let (len_bytes, after_len) = after_version.split_at(4);
        let paylen = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        if after_len.len() < paylen + 4 {
            break;
        }
        let (payload, after_payload) = after_len.split_at(paylen);
        let (crc_bytes, after_crc) = after_payload.split_at(4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(&[payload]) != stored {
            break;
        }
        last_valid = Some(payload.to_vec());
        rest = after_crc;
    }
    last_valid
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
            let mut cuts: Vec<usize> = (0..next() % 5).map(|_| (next() as usize) % (len + 1)).collect();
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
    fn crash_spec_parses_points_and_counts() {
        let spec = CrashSpec::parse("ckpt-tmp").unwrap();
        assert!(spec.is_armed());
        assert_eq!(spec.point.as_deref(), Some("ckpt-tmp"));
        assert_eq!(spec.nth, 1);
        let spec = CrashSpec::parse(" traj-journal@3 ").unwrap();
        assert_eq!(spec.point.as_deref(), Some("traj-journal"));
        assert_eq!(spec.nth, 3);
        assert!(!CrashSpec::parse("").unwrap().is_armed());
    }

    #[test]
    fn crash_spec_rejects_unknown_points_and_bad_counts() {
        let err = CrashSpec::parse("no-such-point").unwrap_err();
        assert!(err.contains("no-such-point"), "{err}");
        assert!(err.contains("ckpt-tmp"), "error lists registered points: {err}");
        assert!(CrashSpec::parse("ckpt-tmp@x").is_err());
        assert!(CrashSpec::parse("ckpt-tmp@0").is_err());
    }

    #[test]
    fn unarmed_and_unmatched_checks_never_fire() {
        // A firing check would exit the test process; surviving IS the
        // assertion. Count bookkeeping stays observable via later hits.
        CrashSpec::none().check("ckpt-tmp");
        let spec = CrashSpec::parse("manifest-tmp@1000000").unwrap();
        spec.check("ckpt-tmp");
        spec.check("manifest-tmp");
        assert_eq!(spec.hits.load(Ordering::Relaxed), 1);
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
