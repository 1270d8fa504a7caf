//! Readers for the process's own `/proc/self/status` and
//! `/proc/self/stat` (Linux). Each parser takes the file's text so the
//! tests can feed it fixed samples.

/// `/proc/<pid>/stat` reports times in `USER_HZ` ticks, which the kernel
/// fixes at 100 per second for every architecture's user-space ABI.
const USER_HZ: f64 = 100.0;

/// Peak resident set size (`VmHWM`) in KiB from `/proc/self/status` text.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// CPU time and page-fault counters of the process.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuStat {
    /// Seconds spent in user mode.
    pub user_s: f64,
    /// Seconds spent in the kernel.
    pub sys_s: f64,
    /// Page faults served without disk I/O.
    pub minor_faults: u64,
}

impl CpuStat {
    /// The counters accumulated since `earlier`.
    pub fn since(&self, earlier: &CpuStat) -> CpuStat {
        CpuStat {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// Parses `/proc/self/stat` text. The command name (field 2) sits in
/// parentheses and may itself contain spaces or parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat(stat: &str) -> Option<CpuStat> {
    let after = &stat[stat.rfind(')')? + 1..];
    // `after` starts at field 3 (state); minflt is field 10, utime 14,
    // stime 15.
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3).and_then(|f| f.parse::<u64>().ok());
    Some(CpuStat {
        minor_faults: field(10)?,
        user_s: field(14)? as f64 / USER_HZ,
        sys_s: field(15)? as f64 / USER_HZ,
    })
}

/// Peak resident set size of this process in MiB (0 where `/proc` is
/// unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// This process's CPU counters so far (zeros where `/proc` is
/// unavailable).
pub fn cpu_stat() -> CpuStat {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tperfbench\nUmask:\t0022\nState:\tR (running)\n\
VmPeak:\t  123456 kB\nVmSize:\t  120000 kB\nVmHWM:\t   45678 kB\nVmRSS:\t   40000 kB\n\
Threads:\t4\n";

    #[test]
    fn status_reader_finds_vm_hwm() {
        assert_eq!(vm_hwm_kib(STATUS), Some(45678));
        assert_eq!(vm_hwm_kib("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn stat_reader_counts_fields_after_the_command_name() {
        // A command name with spaces and a ')' must not shift the fields.
        let stat = "4242 (bench (x) y) S 1 4242 4242 0 -1 4194560 777 0 3 0 \
250 75 0 0 20 0 4 0 12345 67890 1000 18446744073709551615";
        let s = parse_stat(stat).unwrap();
        assert_eq!(s.minor_faults, 777);
        assert_eq!(s.user_s, 2.5);
        assert_eq!(s.sys_s, 0.75);
        assert_eq!(parse_stat("4242 (truncated) S 1 2"), None);
        assert_eq!(parse_stat("no parenthesis here"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(peak_rss_mib() > 0.0);
            let a = cpu_stat();
            let mut x = 0u64;
            for i in 0..5_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(x);
            let d = cpu_stat().since(&a);
            assert!(d.user_s >= 0.0 && d.sys_s >= 0.0);
        }
    }
}
