//! Process and host facts read from `/proc` and `/sys`.

/// Peak resident set size (`VmHWM`) in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// User + system CPU seconds of the whole process, from
/// `/proc/self/stat` (fields 14 and 15, in `USER_HZ` = 100 ticks).
///
/// # Errors
///
/// When `/proc/self/stat` is unreadable or malformed.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "short /proc/self/stat".into())
    };
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// CPUs the kernel has online (`/sys/devices/system/cpu/online`,
/// e.g. `0-1`), or 0 when unreadable.
pub fn online_cpus() -> usize {
    let Ok(text) = std::fs::read_to_string("/sys/devices/system/cpu/online") else {
        return 0;
    };
    text.trim()
        .split(',')
        .filter_map(|range| match range.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => range.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// One line naming the host's parallelism and the code-generation
/// flags this benchmark was compiled with.
pub fn describe() -> String {
    let available = std::thread::available_parallelism().map_or(0, |n| n.get());
    let flags = env!("PERFBENCH_RUSTFLAGS");
    let flags = if flags.is_empty() { "(none)" } else { flags };
    format!(
        "host: nproc {} (online), available_parallelism {available}, rustflags {flags}",
        online_cpus()
    )
}
