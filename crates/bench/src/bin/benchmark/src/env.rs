//! The host, the process and the files a run leaves: metadata, `/proc`
//! readings, and scratch directories inside the build's target directory.

use std::path::{Path, PathBuf};

use serde_json::Value;

/// Where traces and scratch stores go: `$CARGO_TARGET_DIR/benchmark`, or
/// `target/benchmark` under the working directory.
pub fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

/// A directory removed, with everything in it, when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh, empty directory named after `tag` and this process.
    pub fn new(tag: &str) -> ScratchDir {
        let path = output_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory");
        ScratchDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes in the regular files under `path`.
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Bytes in the write-ahead log files (`wal.*`) of the store at `db`.
pub fn wal_bytes(db: &Path) -> u64 {
    std::fs::read_dir(db)
        .expect("read store directory")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal."))
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .sum()
}

/// Copy the tree at `from` to `to` (created if missing).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// A field of `/proc/self/status`, e.g. `VmHWM`.
fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let kb: f64 = status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Bytes this process has passed to `write` and friends so far
/// (`wchar` in `/proc/self/io`): single-threaded, the growth across a
/// call is what that call wrote.
pub fn bytes_written() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .expect("wchar in /proc/self/io")
}

/// The host and build a run happened on.
pub fn host_meta() -> Vec<(String, Value)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc".into(), Value::Int(nproc as i128)),
        (
            "cpus_allowed_list".into(),
            Value::Str(status_field("Cpus_allowed_list").unwrap_or_default()),
        ),
        (
            "build_profile".into(),
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        (
            "pool_bytes".into(),
            Value::Int(
                (qpv_reldb::buffer::BufferPool::DEFAULT_CAPACITY * qpv_reldb::page::PAGE_SIZE)
                    as i128,
            ),
        ),
    ]
}
