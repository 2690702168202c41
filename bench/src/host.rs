//! What the operating system reports about this process: CPU time and peak
//! resident memory, read from `/proc/self`.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. Fixed at 100 on every Linux ABI (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, every thread, exited ones included) in
/// seconds. Zero when `/proc` is unreadable — callers divide by a tx count,
/// so a host without `/proc` reports 0 rather than failing the run.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    parse_cpu_ticks(&stat).map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// `utime + stime` out of a `/proc/<pid>/stat` line. The second field (the
/// command name) may contain spaces and parentheses, so fields are counted
/// from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    parse_status_kb(&status, "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|line| line.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Cores available to this process (1 when unknown).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let line = "1234 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100";
        assert_eq!(parse_cpu_ticks(line), Some(300));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_fields_parse_in_kilobytes() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(cores() >= 1);
    }
}
