//! What the bench reads from the operating system: memory high-water
//! marks, CPU time, directory sizes, and the machine fingerprint.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;

/// `VmHWM` (peak resident set) of a process in MB; `None` = this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds a process has used so far.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    // USER_HZ is 100 on every Linux this runs on.
    Some(ticks / 100.0)
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The directory the bench may write in: `<target>/openivm-bench`, where
/// `<target>` is Cargo's target directory, found as the parent of the
/// profile directory (`release/`, `debug/`) the running executable is
/// under. Traces, the durable data directory and spill files all go here,
/// so nothing is written outside the checkout.
pub fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let is_profile = |p: &&Path| {
        p.file_name()
            .is_some_and(|n| n == "release" || n == "debug")
    };
    let target = exe
        .ancestors()
        .find(is_profile)
        .and_then(Path::parent)
        .ok_or_else(|| format!("{} is not under a Cargo target directory", exe.display()))?;
    let dir = target.join("openivm-bench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A directory under the bench's work directory, removed on drop — also
/// when a failed check unwinds.
#[derive(Debug)]
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(work_dir: &Path, label: &str) -> Result<ScratchDir, String> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = work_dir.join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, ty)| ty)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit being measured, when the bench runs inside a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// Everything about the machine and build a reader needs to judge whether
/// two result sets are comparable.
pub fn fingerprint(data_dir: &Path) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    Json::obj(vec![
        ("nproc", Json::count(parallelism)),
        // The engine sizes its worker pool from available_parallelism()
        // when OPENIVM_PARALLELISM is unset, and the bench unsets it.
        ("engine_parallelism", Json::count(parallelism)),
        ("cpu_model", Json::str(cpu_model)),
        ("kernel", Json::str(command_line("uname", &["-sr"]))),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("git_commit", Json::str(git_commit())),
        ("data_dir_fs", Json::str(fs_type(data_dir))),
        (
            "fsync_policy",
            Json::str("engine default: sync_on_commit, one fsync'd commit per durability point"),
        ),
    ])
}
