//! Fault-injectable storage I/O: every durable-path file operation in
//! the engine — WAL appends and fsyncs, table-file reads/writes,
//! catalog-meta publishes, spill frames — goes through this module
//! instead of touching `std::fs` directly.
//!
//! Two layers compose here:
//!
//! - A [`StorageFile`]/[`StorageFs`] trait pair abstracts the handful of
//!   primitives the durable paths need (open/read/write/fsync/rename/
//!   remove/dir-fsync). [`RealFs`] is the production implementation.
//! - A process-global [`FaultPlan`] — installed programmatically via
//!   [`set_fault_plan`] or from the `OPENIVM_FAULT_PLAN` environment
//!   variable — can inject ENOSPC, EINTR-class transient errors, fsync
//!   failure, short (torn) writes, and read corruption at the Nth
//!   operation matching a path pattern.
//!
//! On top of the fault check, every operation gets the transient-error
//! discipline for free: `EINTR`-class errors ([`std::io::ErrorKind::Interrupted`])
//! are retried with bounded backoff, counted in a process-wide retry
//! counter surfaced through [`retries`] (and from there into
//! `wal_stats()`). All other errors pass through untouched for the
//! caller's degradation policy (WAL poisoning, query-scoped spill
//! aborts, retriable checkpoints) to classify.

use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::error::EngineError;

/// Environment variable holding a fault plan applied to every storage
/// I/O operation of the process (see [`parse_fault_plan_setting`] for
/// the syntax). CI's fault-injection leg sets a transient-only plan so
/// the whole suite doubles as a retry-correctness test.
pub const FAULT_PLAN_ENV: &str = "OPENIVM_FAULT_PLAN";

/// Maximum retry attempts for one transient (`EINTR`-class) error.
const MAX_RETRIES: u32 = 8;

/// Process-wide count of transient-error retries.
static IO_RETRIES: AtomicU64 = AtomicU64::new(0);

/// Transient (`EINTR`-class) errors retried so far, process-wide.
pub fn retries() -> u64 {
    IO_RETRIES.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// The trait pair
// ---------------------------------------------------------------------

/// How a storage file is opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Read + write, created if missing, existing contents kept.
    ReadWrite,
    /// Created (or truncated) for writing.
    Create,
    /// Read-only; the file must exist.
    ReadOnly,
}

/// One open storage file: the primitive set the durable paths need.
// `len` here is a fallible size query on a file handle, not a
// collection length — an `is_empty` companion would be noise.
#[allow(clippy::len_without_is_empty)]
pub trait StorageFile: Send + fmt::Debug {
    /// Seek to a position, returning the new offset.
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64>;
    /// Read up to `buf.len()` bytes at the current position.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Write all of `buf` at the current position.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// fsync file data (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Truncate or extend to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Current file length in bytes.
    fn len(&mut self) -> io::Result<u64>;
}

/// A storage filesystem: opens files and performs the metadata
/// operations (rename/remove/mkdir/list/dir-fsync) the durable paths
/// use. Implementations must be shareable across threads — every morsel
/// worker writes its spill files through the same instance as the
/// session.
pub trait StorageFs: Send + Sync + fmt::Debug {
    /// Open `path` in the given mode.
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn StorageFile>>;
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically rename `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Create a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// List the entries of a directory.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
    /// fsync a directory (makes renames/creates within it durable).
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
}

/// The production [`StorageFs`]: plain `std::fs`.
#[derive(Debug, Default)]
pub struct RealFs;

#[derive(Debug)]
struct RealFile(std::fs::File);

impl StorageFile for RealFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.0.seek(pos)
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn len(&mut self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

impl StorageFs for RealFs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn StorageFile>> {
        let mut opts = std::fs::OpenOptions::new();
        match mode {
            OpenMode::ReadWrite => opts.read(true).write(true).create(true).truncate(false),
            OpenMode::Create => opts.read(true).write(true).create(true).truncate(true),
            OpenMode::ReadOnly => opts.read(true),
        };
        Ok(Box::new(RealFile(opts.open(path)?)))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::read_dir(path)?
            .map(|e| e.map(|e| e.path()))
            .collect()
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }
}

/// The installed filesystem implementation ([`RealFs`] unless a test
/// swapped one in).
fn backing_fs() -> Arc<dyn StorageFs> {
    static FS: OnceLock<Mutex<Arc<dyn StorageFs>>> = OnceLock::new();
    FS.get_or_init(|| Mutex::new(Arc::new(RealFs)))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

// ---------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------

/// The class of a storage I/O operation, for fault targeting and probe
/// counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Opening or creating a file.
    Open,
    /// Reading file bytes.
    Read,
    /// Writing file bytes (including truncation).
    Write,
    /// fsync of a file or directory.
    Sync,
    /// Filesystem metadata: rename, remove, mkdir, list.
    Meta,
}

impl OpClass {
    /// All operation classes, in a stable order.
    pub const ALL: [OpClass; 5] = [
        OpClass::Open,
        OpClass::Read,
        OpClass::Write,
        OpClass::Sync,
        OpClass::Meta,
    ];

    fn index(self) -> usize {
        match self {
            OpClass::Open => 0,
            OpClass::Read => 1,
            OpClass::Write => 2,
            OpClass::Sync => 3,
            OpClass::Meta => 4,
        }
    }
}

/// The kind of fault a rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `ENOSPC`: the device is full. Targets writes, creates, and
    /// metadata operations.
    Enospc,
    /// `EINTR`-class transient error. Targets every operation; the retry
    /// layer absorbs it unless it fires on every attempt.
    Transient,
    /// fsync failure (`EIO`). Targets file and directory syncs.
    FsyncFail,
    /// A torn write: a prefix of the buffer reaches the file, then the
    /// write errors. Targets writes.
    ShortWrite,
    /// Read corruption: the read succeeds but a byte is flipped —
    /// checksummed callers must detect it. Targets reads.
    ReadCorrupt,
}

impl FaultKind {
    /// All fault kinds, in a stable order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Enospc,
        FaultKind::Transient,
        FaultKind::FsyncFail,
        FaultKind::ShortWrite,
        FaultKind::ReadCorrupt,
    ];

    /// Which operation classes this fault kind can fire on.
    pub fn applies_to(self, class: OpClass) -> bool {
        match self {
            FaultKind::Transient => true,
            FaultKind::Enospc => {
                matches!(class, OpClass::Write | OpClass::Open | OpClass::Meta)
            }
            FaultKind::FsyncFail => matches!(class, OpClass::Sync),
            FaultKind::ShortWrite => matches!(class, OpClass::Write),
            FaultKind::ReadCorrupt => matches!(class, OpClass::Read),
        }
    }

    /// The operation class a single-shot rule of this kind counts
    /// against (used by sweep harnesses to enumerate op indexes).
    pub fn target_class(self) -> OpClass {
        match self {
            FaultKind::Enospc | FaultKind::ShortWrite => OpClass::Write,
            FaultKind::Transient => OpClass::Write,
            FaultKind::FsyncFail => OpClass::Sync,
            FaultKind::ReadCorrupt => OpClass::Read,
        }
    }

    fn parse(s: &str) -> Option<FaultKind> {
        Some(match s {
            "enospc" => FaultKind::Enospc,
            "transient" => FaultKind::Transient,
            "fsync" => FaultKind::FsyncFail,
            "short" => FaultKind::ShortWrite,
            "corrupt" => FaultKind::ReadCorrupt,
            _ => return None,
        })
    }
}

/// When a rule fires, counted over the operations it applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire exactly once, at the Nth matching operation (1-based).
    Once(u64),
    /// Fire at every Nth matching operation.
    Every(u64),
}

/// One fault rule: a kind, a path pattern, and a trigger point.
#[derive(Debug)]
pub struct FaultRule {
    kind: FaultKind,
    /// Substring the operation's path must contain (`*` or empty = all).
    pattern: String,
    trigger: Trigger,
    hits: AtomicU64,
}

impl FaultRule {
    /// A rule injecting `kind` at `trigger` on paths containing
    /// `pattern` (`*` matches every path).
    pub fn new(kind: FaultKind, pattern: impl Into<String>, trigger: Trigger) -> FaultRule {
        FaultRule {
            kind,
            pattern: pattern.into(),
            trigger,
            hits: AtomicU64::new(0),
        }
    }

    fn matches_path(&self, path: &Path) -> bool {
        self.pattern.is_empty()
            || self.pattern == "*"
            || path.to_string_lossy().contains(&self.pattern)
    }

    /// Whether this rule fires on the given operation (counts the hit).
    fn fire(&self, class: OpClass, path: &Path) -> bool {
        if !self.kind.applies_to(class) || !self.matches_path(path) {
            return false;
        }
        let n = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        match self.trigger {
            Trigger::Once(k) => n == k,
            Trigger::Every(k) => k > 0 && n.is_multiple_of(k),
        }
    }
}

/// A set of fault rules plus an optional probe counter. Install with
/// [`set_fault_plan`] (or `OPENIVM_FAULT_PLAN`); every storage I/O
/// operation consults the installed plan.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    /// When set, count every operation whose path contains this pattern
    /// per [`OpClass`] — the probe pass of a fault sweep.
    observe_pattern: Option<String>,
    observed: [AtomicU64; 5],
}

impl FaultPlan {
    /// An empty plan (no faults, no probe).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a rule (builder style).
    pub fn with_rule(mut self, kind: FaultKind, pattern: &str, trigger: Trigger) -> FaultPlan {
        self.rules.push(FaultRule::new(kind, pattern, trigger));
        self
    }

    /// A pure probe plan: injects nothing, counts every operation whose
    /// path contains `pattern`, per class. Sweep harnesses run the
    /// workload once under a probe to learn how many operations of each
    /// class exist, then re-run with `Once(i)` rules for each index.
    pub fn observing(pattern: impl Into<String>) -> FaultPlan {
        FaultPlan {
            rules: Vec::new(),
            observe_pattern: Some(pattern.into()),
            observed: Default::default(),
        }
    }

    /// Operations of `class` observed so far (probe plans only).
    pub fn observed(&self, class: OpClass) -> u64 {
        self.observed[class.index()].load(Ordering::Relaxed)
    }

    /// The fault to inject for one operation, if any.
    fn check(&self, class: OpClass, path: &Path) -> Option<FaultKind> {
        if let Some(pat) = &self.observe_pattern {
            if path.to_string_lossy().contains(pat.as_str()) {
                self.observed[class.index()].fetch_add(1, Ordering::Relaxed);
            }
        }
        self.rules
            .iter()
            .find(|r| r.fire(class, path))
            .map(|r| r.kind)
    }
}

/// Parse an `OPENIVM_FAULT_PLAN` value: `;`-separated rules of the form
/// `kind@pattern:trigger`, where `kind` is one of `enospc`, `transient`,
/// `fsync`, `short`, `corrupt`; `pattern` is a path substring (`*` for
/// all paths); and `trigger` is `N` (fire once, at the Nth matching
/// operation) or `%N` (fire at every Nth matching operation). Example:
/// `transient@*:%7;enospc@wal.:3`.
pub fn parse_fault_plan_setting(raw: &str) -> Result<FaultPlan, EngineError> {
    let invalid = |what: &str| {
        EngineError::bind(format!(
            "invalid {FAULT_PLAN_ENV} value {raw:?}: {what} \
             (expected `kind@pattern:trigger[;...]`, e.g. `transient@*:%7`)"
        ))
    };
    let mut plan = FaultPlan::new();
    for rule in raw.split(';') {
        let rule = rule.trim();
        if rule.is_empty() {
            continue;
        }
        let (kind, rest) = rule
            .split_once('@')
            .ok_or_else(|| invalid("missing `@` separator"))?;
        let kind = FaultKind::parse(kind.trim()).ok_or_else(|| invalid("unknown fault kind"))?;
        let (pattern, trigger) = rest
            .rsplit_once(':')
            .ok_or_else(|| invalid("missing `:trigger`"))?;
        let trigger = trigger.trim();
        let trigger = if let Some(n) = trigger.strip_prefix('%') {
            Trigger::Every(
                n.parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| invalid("bad `%N` period"))?,
            )
        } else {
            Trigger::Once(
                trigger
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| invalid("bad trigger index"))?,
            )
        };
        plan.rules
            .push(FaultRule::new(kind, pattern.trim(), trigger));
    }
    Ok(plan)
}

/// The installed plan cell, seeded from `OPENIVM_FAULT_PLAN` on first
/// use. An invalid value is a loud startup error (panic with the parse
/// message), never a silent no-fault run.
fn plan_cell() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static PLAN: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
    PLAN.get_or_init(|| {
        let from_env = std::env::var(FAULT_PLAN_ENV)
            .ok()
            .map(|raw| Arc::new(parse_fault_plan_setting(&raw).unwrap_or_else(|e| panic!("{e}"))));
        Mutex::new(from_env)
    })
}

/// Install (or clear, with `None`) the process-global fault plan.
/// Returns the previously installed plan.
pub fn set_fault_plan(plan: Option<Arc<FaultPlan>>) -> Option<Arc<FaultPlan>> {
    let mut cell = plan_cell().lock().unwrap_or_else(|e| e.into_inner());
    std::mem::replace(&mut cell, plan)
}

/// The currently installed fault plan, if any.
pub fn fault_plan() -> Option<Arc<FaultPlan>> {
    plan_cell()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Consult the installed plan for one operation.
fn injected(class: OpClass, path: &Path) -> Option<FaultKind> {
    fault_plan().and_then(|p| p.check(class, path))
}

fn fault_error(kind: FaultKind) -> io::Error {
    match kind {
        // ENOSPC / EINTR / EIO by errno, so `ErrorKind` classification
        // matches the real thing without a libc dependency.
        FaultKind::Enospc => io::Error::from_raw_os_error(28),
        FaultKind::Transient => io::Error::from_raw_os_error(4),
        FaultKind::FsyncFail => io::Error::from_raw_os_error(5),
        FaultKind::ShortWrite => io::Error::new(io::ErrorKind::WriteZero, "injected short write"),
        FaultKind::ReadCorrupt => io::Error::other("injected read corruption"),
    }
}

/// Run `op`, retrying `EINTR`-class transient errors with bounded
/// backoff. Each retry bumps the process-wide counter behind
/// [`retries`].
fn with_retry<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted && attempt < MAX_RETRIES => {
                attempt += 1;
                IO_RETRIES.fetch_add(1, Ordering::Relaxed);
                // 100µs … ~6ms: long enough to ride out signal storms,
                // bounded so a fail-every-time fault surfaces quickly.
                std::thread::sleep(std::time::Duration::from_micros(100 << attempt.min(6)));
            }
            other => return other,
        }
    }
}

// ---------------------------------------------------------------------
// The checked handle + filesystem entry points
// ---------------------------------------------------------------------

/// An open storage file with the fault check and transient-retry layer
/// applied to every operation. This is what the engine's durable paths
/// hold instead of a raw `std::fs::File`.
#[derive(Debug)]
pub struct FileHandle {
    inner: Box<dyn StorageFile>,
    path: PathBuf,
}

#[allow(clippy::len_without_is_empty)] // fallible size query, not a collection
impl FileHandle {
    /// The path this handle was opened at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Seek to `pos`.
    pub fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let (inner, path) = (&mut self.inner, &self.path);
        with_retry(|| match injected(OpClass::Meta, path) {
            Some(k) => Err(fault_error(k)),
            None => inner.seek(pos),
        })
    }

    /// Read up to `buf.len()` bytes. Injected read corruption performs
    /// the read, then flips a byte — checksummed callers must notice.
    pub fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let (inner, path) = (&mut self.inner, &self.path);
        with_retry(|| match injected(OpClass::Read, path) {
            Some(FaultKind::ReadCorrupt) => {
                let n = inner.read(buf)?;
                if n > 0 {
                    buf[0] ^= 0x40;
                }
                Ok(n)
            }
            Some(k) => Err(fault_error(k)),
            None => inner.read(buf),
        })
    }

    /// Read exactly `buf.len()` bytes.
    pub fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let mut filled = 0usize;
        while filled < buf.len() {
            match self.read(&mut buf[filled..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "failed to fill whole buffer",
                    ))
                }
                Ok(n) => filled += n,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Write all of `buf`. An injected short write puts a prefix of the
    /// buffer in the file, then errors — the torn-write crash shape.
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let (inner, path) = (&mut self.inner, &self.path);
        with_retry(|| match injected(OpClass::Write, path) {
            Some(FaultKind::ShortWrite) => {
                inner.write_all(&buf[..buf.len() / 2])?;
                Err(fault_error(FaultKind::ShortWrite))
            }
            Some(k) => Err(fault_error(k)),
            None => inner.write_all(buf),
        })
    }

    /// fsync file data.
    pub fn sync_data(&mut self) -> io::Result<()> {
        let (inner, path) = (&mut self.inner, &self.path);
        with_retry(|| match injected(OpClass::Sync, path) {
            Some(k) => Err(fault_error(k)),
            None => inner.sync_data(),
        })
    }

    /// Truncate or extend to `len` bytes.
    pub fn set_len(&mut self, len: u64) -> io::Result<()> {
        let (inner, path) = (&mut self.inner, &self.path);
        with_retry(|| match injected(OpClass::Write, path) {
            Some(k) => Err(fault_error(k)),
            None => inner.set_len(len),
        })
    }

    /// Current file length in bytes.
    pub fn len(&mut self) -> io::Result<u64> {
        let (inner, path) = (&mut self.inner, &self.path);
        with_retry(|| match injected(OpClass::Meta, path) {
            Some(k) => Err(fault_error(k)),
            None => inner.len(),
        })
    }
}

// `BufReader<FileHandle>` for the streaming spill readers.
impl Read for FileHandle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        FileHandle::read(self, buf)
    }
}

/// Open `path` through the installed [`StorageFs`].
pub fn open(path: &Path, mode: OpenMode) -> io::Result<FileHandle> {
    let fs = backing_fs();
    let inner = with_retry(|| match injected(OpClass::Open, path) {
        Some(k) => Err(fault_error(k)),
        None => fs.open(path, mode),
    })?;
    Ok(FileHandle {
        inner,
        path: path.to_path_buf(),
    })
}

/// Read a whole file. Injected read corruption flips a byte of the
/// returned contents.
pub fn read(path: &Path) -> io::Result<Vec<u8>> {
    let fs = backing_fs();
    with_retry(|| match injected(OpClass::Read, path) {
        Some(FaultKind::ReadCorrupt) => {
            let mut bytes = fs.read(path)?;
            if !bytes.is_empty() {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x40;
            }
            Ok(bytes)
        }
        Some(k) => Err(fault_error(k)),
        None => fs.read(path),
    })
}

/// Atomically rename `from` to `to`.
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    let fs = backing_fs();
    with_retry(|| match injected(OpClass::Meta, to) {
        Some(k) => Err(fault_error(k)),
        None => fs.rename(from, to),
    })
}

/// Remove a file.
pub fn remove_file(path: &Path) -> io::Result<()> {
    let fs = backing_fs();
    with_retry(|| match injected(OpClass::Meta, path) {
        Some(k) => Err(fault_error(k)),
        None => fs.remove_file(path),
    })
}

/// Create a directory and its parents.
pub fn create_dir_all(path: &Path) -> io::Result<()> {
    let fs = backing_fs();
    with_retry(|| match injected(OpClass::Meta, path) {
        Some(k) => Err(fault_error(k)),
        None => fs.create_dir_all(path),
    })
}

/// List the entries of a directory.
pub fn read_dir(path: &Path) -> io::Result<Vec<PathBuf>> {
    let fs = backing_fs();
    with_retry(|| match injected(OpClass::Meta, path) {
        Some(k) => Err(fault_error(k)),
        None => fs.read_dir(path),
    })
}

/// fsync a directory, making renames and file creations within it
/// durable across power loss.
pub fn sync_dir(path: &Path) -> io::Result<()> {
    let fs = backing_fs();
    with_retry(|| match injected(OpClass::Sync, path) {
        Some(k) => Err(fault_error(k)),
        None => fs.sync_dir(path),
    })
}

/// Serialize unit tests that install a global plan. Path-scoped patterns
/// keep unrelated concurrently-running tests unaffected; this lock only
/// keeps plan-installing tests from clobbering each other's plan.
#[cfg(test)]
pub(crate) fn test_plan_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_lock() -> std::sync::MutexGuard<'static, ()> {
        test_plan_serial()
    }

    struct PlanGuard(Option<Arc<FaultPlan>>);
    impl PlanGuard {
        fn install(plan: FaultPlan) -> PlanGuard {
            PlanGuard(set_fault_plan(Some(Arc::new(plan))))
        }
    }
    impl Drop for PlanGuard {
        fn drop(&mut self) {
            set_fault_plan(self.0.take());
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("openivm-iotest-{}-{name}", std::process::id()))
    }

    #[test]
    fn fault_plan_parses_and_rejects() {
        let plan = parse_fault_plan_setting("transient@*:%7; enospc@wal.:3").unwrap();
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].kind, FaultKind::Transient);
        assert_eq!(plan.rules[0].trigger, Trigger::Every(7));
        assert_eq!(plan.rules[1].kind, FaultKind::Enospc);
        assert_eq!(plan.rules[1].pattern, "wal.");
        assert_eq!(plan.rules[1].trigger, Trigger::Once(3));
        for bad in [
            "bogus@*:1",
            "enospc:*@1",
            "enospc@*:zero",
            "enospc@*:%0",
            "enospc@*:0",
            "transient@*",
        ] {
            let err = parse_fault_plan_setting(bad).unwrap_err();
            assert!(err.to_string().contains(FAULT_PLAN_ENV), "{bad:?} → {err}");
        }
        // Empty and whitespace plans are valid no-ops.
        assert!(parse_fault_plan_setting("").unwrap().rules.is_empty());
        assert!(parse_fault_plan_setting(" ; ").unwrap().rules.is_empty());
    }

    #[test]
    fn transient_faults_are_retried_and_counted() {
        let _serial = plan_lock();
        let path = temp_path("transient");
        // Fire EINTR on the 1st and 2nd write to this path; the retry
        // layer must absorb both and land the write.
        let _guard = PlanGuard::install(
            FaultPlan::new()
                .with_rule(FaultKind::Transient, "openivm-iotest", Trigger::Once(1))
                .with_rule(FaultKind::Transient, "openivm-iotest", Trigger::Once(2)),
        );
        let before = retries();
        let mut f = open(&path, OpenMode::Create).unwrap();
        f.write_all(b"payload").unwrap();
        drop(f);
        assert!(retries() > before, "retry counter must move");
        drop(_guard);
        assert_eq!(read(&path).unwrap(), b"payload");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn enospc_and_short_write_surface_cleanly() {
        let _serial = plan_lock();
        let path = temp_path("enospc");
        {
            let _guard = PlanGuard::install(FaultPlan::new().with_rule(
                FaultKind::Enospc,
                "openivm-iotest",
                Trigger::Once(2),
            ));
            let mut f = open(&path, OpenMode::Create).unwrap();
            // Open counted as op 1 (Enospc applies to Open); the write is
            // op 2 and fails with a real ENOSPC errno.
            let err = f.write_all(b"xxxx").unwrap_err();
            assert_eq!(err.raw_os_error(), Some(28), "{err}");
        }
        {
            let _guard = PlanGuard::install(FaultPlan::new().with_rule(
                FaultKind::ShortWrite,
                "openivm-iotest",
                Trigger::Once(1),
            ));
            let mut f = open(&path, OpenMode::Create).unwrap();
            let err = f.write_all(b"abcdef").unwrap_err();
            assert!(err.to_string().contains("short write"), "{err}");
        }
        // The short write left exactly the prefix: the torn shape.
        assert_eq!(std::fs::read(&path).unwrap(), b"abc");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_corruption_flips_a_byte() {
        let _serial = plan_lock();
        let path = temp_path("corrupt");
        std::fs::write(&path, b"checksummed").unwrap();
        let _guard = PlanGuard::install(FaultPlan::new().with_rule(
            FaultKind::ReadCorrupt,
            "openivm-iotest",
            Trigger::Once(1),
        ));
        let bytes = read(&path).unwrap();
        assert_eq!(bytes.len(), 11);
        assert_ne!(bytes, b"checksummed", "a byte must be flipped");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn probe_plan_counts_ops_per_class() {
        let _serial = plan_lock();
        let path = temp_path("probe");
        let plan = Arc::new(FaultPlan::observing("openivm-iotest"));
        let prev = set_fault_plan(Some(Arc::clone(&plan)));
        let mut f = open(&path, OpenMode::Create).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync_data().unwrap();
        drop(f);
        let _ = read(&path);
        remove_file(&path).unwrap();
        set_fault_plan(prev);
        assert_eq!(plan.observed(OpClass::Open), 1);
        assert_eq!(plan.observed(OpClass::Write), 1);
        assert_eq!(plan.observed(OpClass::Sync), 1);
        assert_eq!(plan.observed(OpClass::Read), 1);
        assert_eq!(plan.observed(OpClass::Meta), 1);
    }
}
