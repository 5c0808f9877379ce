//! The environment stamp every result carries, and the `/proc` readings
//! (peak memory, child processes) the metrics need.

use std::process::{Command, Stdio};

/// CPUs this process may run on, as `nproc` reports them (falls back to
/// [`available_parallelism`] where the command is missing).
pub fn nproc() -> usize {
    Command::new("nproc")
        .stderr(Stdio::null())
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(available_parallelism)
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out commit, or `unknown` outside a git work tree.
pub fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size (`VmHWM`) of a live process, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Direct children of a live process (a router's replicas).
pub fn child_pids(pid: u32) -> Vec<u32> {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    let mut pids: Vec<u32> = tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("children")).ok())
        .flat_map(|s| {
            s.split_whitespace()
                .filter_map(|p| p.parse().ok())
                .collect::<Vec<u32>>()
        })
        .collect();
    pids.sort_unstable();
    pids.dedup();
    pids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable_and_positive() {
        let mb = peak_rss_mb(std::process::id()).expect("VmHWM of this process");
        assert!(mb > 0.0);
    }

    #[test]
    fn a_spawned_child_is_listed() {
        let mut child = Command::new("sleep").arg("5").spawn().expect("spawn sleep");
        let listed = child_pids(std::process::id()).contains(&child.id());
        child.kill().expect("kill sleep");
        child.wait().expect("reap sleep");
        assert!(listed);
    }
}
