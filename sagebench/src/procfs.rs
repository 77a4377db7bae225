//! Process counters read from outside the program under test, through
//! `/proc/self`. Each workload runs in its own process, so the counters
//! belong to that workload alone.

/// Kernel clock ticks per second for `/proc` CPU fields (`USER_HZ`), which
/// Linux fixes at 100 for user space on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// Process user + system CPU time in seconds (`utime + stime` of
/// `/proc/self/stat`), summed over every thread.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // The command name may hold spaces; the fields after it start at the
    // last ')'. utime and stime are fields 14 and 15 of the whole line.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| "missing utime/stime in /proc/self/stat".to_owned())
    };
    // Field 3 (state) is index 0 after the name.
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_and_grow() {
        let before = cpu_seconds().expect("stat readable");
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = cpu_seconds().expect("stat readable");
        assert!(after >= before);
        assert!(peak_rss_mb().expect("status readable") > 0.0);
    }
}
