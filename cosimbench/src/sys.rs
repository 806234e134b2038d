//! Readings of the host the benchmark runs on, from `/proc`.

/// Peak resident set of this process in MB (`VmHWM`), or `NaN` when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host steal ticks summed over all CPUs (the eighth field of the
/// `cpu` line of `/proc/stat`): time the hypervisor ran someone else
/// while this machine had work. Zero when unavailable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            let rss = peak_rss_mb();
            assert!(rss > 0.0 && rss < 1e6, "{rss}");
        }
        let _ = steal_ticks();
    }
}
