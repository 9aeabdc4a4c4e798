//! Readers for the `/proc` figures the benchmark reports: process CPU
//! time, thread CPU time, peak resident memory and thread count.
//!
//! Every reader returns `None` ("unavailable") when the file or the
//! field is missing or malformed, so the benchmark reports the gap
//! instead of panicking on a kernel that lacks it.

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Process CPU time (user + system, every thread) in seconds from the
/// text of `/proc/self/stat`.
pub fn parse_stat_cpu_s(text: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses, so
    // count fields from the last ')'. Field 3 (state) is index 0 after
    // it; utime and stime are fields 14 and 15.
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Time on CPU in seconds from the text of `/proc/thread-self/schedstat`
/// (its first field, in nanoseconds).
pub fn parse_schedstat_s(text: &str) -> Option<f64> {
    let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 * 1e-9)
}

/// The integer value of `key` (e.g. `"VmHWM:"`) in the text of
/// `/proc/self/status`, in the file's own unit (kB for memory).
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Process CPU seconds so far.
pub fn process_cpu_s() -> Option<f64> {
    parse_stat_cpu_s(&read("/proc/self/stat")?)
}

/// Calling thread's CPU seconds so far, at nanosecond resolution.
pub fn thread_cpu_s() -> Option<f64> {
    parse_schedstat_s(&read("/proc/thread-self/schedstat")?)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    parse_status_field(&read("/proc/self/status")?, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Threads in this process.
pub fn threads() -> Option<u64> {
    parse_status_field(&read("/proc/self/status")?, "Threads:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_counts_fields_after_the_command_name() {
        let text = "4242 (odd) name)) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(parse_stat_cpu_s(text), Some(3.0));
    }

    #[test]
    fn stat_without_cpu_fields_is_unavailable() {
        assert_eq!(parse_stat_cpu_s("4242 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_s("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_s(""), None);
    }

    #[test]
    fn schedstat_reads_nanoseconds() {
        assert_eq!(parse_schedstat_s("1500000000 2000 7\n"), Some(1.5));
        assert_eq!(parse_schedstat_s(""), None);
        assert_eq!(parse_schedstat_s("n/a 1 2"), None);
    }

    #[test]
    fn status_fields_parse_or_report_unavailable() {
        let text = "Name:\tperfbench\nVmHWM:\t  266240 kB\nThreads:\t1\n";
        assert_eq!(parse_status_field(text, "VmHWM:"), Some(266_240));
        assert_eq!(parse_status_field(text, "Threads:"), Some(1));
        assert_eq!(parse_status_field(text, "VmRSS:"), None);
        assert_eq!(parse_status_field("VmHWM:\tlots kB\n", "VmHWM:"), None);
    }

    #[test]
    fn live_readers_work_on_this_kernel_or_say_unavailable() {
        // Either a plausible value or `None`; never a panic.
        if let Some(cpu) = process_cpu_s() {
            assert!(cpu >= 0.0);
        }
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
        let _ = (thread_cpu_s(), threads());
    }
}
