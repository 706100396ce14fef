//! Collision-free artifact naming.
//!
//! The experiment binaries used to write fixed filenames
//! (`run_all.trace.json`, `treecode24.trace.json`), so two runs sharing
//! one artifact directory — a parallel bench sweep, or CI jobs racing on
//! a cache — silently overwrote each other's traces. Every artifact
//! filename now embeds a [`run_id`]: seconds since the Unix epoch, the
//! host process id, and a per-process sequence number. Any two artifacts
//! written by the same process, by two processes on one host, or by runs
//! started in the same second therefore get distinct names; the binaries
//! print the chosen path, which is the authoritative way to find it.
//!
//! [`artifact_stem`] is the standard shape: `{run}-r{ranks}-{run_id}`,
//! keeping the simulated rank count greppable in directory listings.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static SEQ: AtomicU64 = AtomicU64::new(0);

/// Artifact directory: `$MB_TELEMETRY_DIR`, or `./traces`.
pub fn artifact_dir() -> PathBuf {
    std::env::var_os("MB_TELEMETRY_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("traces"))
}

/// Write one artifact under `dir` (created if needed); returns its path.
pub fn write_artifact(dir: &Path, name: &str, contents: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path)?;
    f.write_all(contents.as_bytes())?;
    Ok(path)
}

/// Seconds since the Unix epoch (0 if the clock reads before it): the
/// timestamp stamped into run ids and benchmark documents.
pub fn unix_time_s() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Host hardware threads available to this process (1 if unknown): the
/// wall-clock context recorded next to every host-time measurement.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A process-unique run identifier: `{unix_secs}-{pid}-{seq}`.
///
/// Monotonic within a process (the trailing sequence number) and unique
/// across processes on one host (the pid), so filenames built from it
/// never collide even when runs start in the same second.
pub fn run_id() -> String {
    let secs = unix_time_s();
    let pid = std::process::id();
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{secs}-{pid}-{seq}")
}

/// The standard artifact filename stem: `{run}-r{ranks}-{run_id}`.
///
/// Append the artifact kind and extension yourself
/// (`format!("{stem}.trace.json")`).
pub fn artifact_stem(run: &str, ranks: usize) -> String {
    format!("{run}-r{ranks}-{}", run_id())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_ids_are_unique_within_a_process() {
        let a = run_id();
        let b = run_id();
        assert_ne!(a, b, "consecutive run ids must differ");
    }

    #[test]
    fn stem_embeds_run_name_and_rank_count() {
        let stem = artifact_stem("treecode", 24);
        assert!(stem.starts_with("treecode-r24-"), "got {stem}");
        // Three id fields after the stem prefix: secs, pid, seq.
        let id = stem.trim_start_matches("treecode-r24-");
        assert_eq!(id.split('-').count(), 3, "got {id}");
    }

    #[test]
    fn stems_for_identical_runs_do_not_collide() {
        assert_ne!(artifact_stem("run_all", 24), artifact_stem("run_all", 24));
    }
}
