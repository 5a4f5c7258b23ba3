//! Process facts read from `/proc` (no FFI): peak resident memory and the
//! calling thread's CPU time.

/// Peak resident set size of this process in MB (`VmHWM`); `NaN` where
/// `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Nanoseconds the calling thread has spent on a CPU (first field of its
/// `schedstat`).  Printed beside wall time so a slow run can be told apart:
/// CPU time tracking wall time means a slow core, a gap means stolen time.
pub fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}
