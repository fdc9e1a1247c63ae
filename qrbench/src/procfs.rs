//! Process-wide resource readings from `/proc/self`.

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time the whole process has used, `(user, system)` in microseconds.
pub fn cpu_us() -> (f64, f64) {
    // Clock ticks per second; Linux fixes USER_HZ at 100 on every
    // architecture this benchmark builds for.
    const TICK_US: f64 = 10_000.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse().ok())
        .collect();
    match f[..] {
        [user, sys] => (user * TICK_US, sys * TICK_US),
        _ => (0.0, 0.0),
    }
}

/// Machine-wide CPU ticks from `/proc/stat`: `(stolen, total)`. Stolen
/// ticks are time the hypervisor ran other guests while this machine's
/// CPUs had work; a run that lost many is slower for reasons outside the
/// program.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    let total = f.iter().take(8).sum();
    (f.get(7).copied().unwrap_or(0), total)
}

/// Share of machine CPU time stolen between two [`host_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    crate::report::ratio(
        after.0.saturating_sub(before.0) as f64,
        after.1.saturating_sub(before.1) as f64,
    )
}
