//! Host contention and process resource readings from `/proc`.
//!
//! Steal time is CPU time the virtual machine lost to other tenants. It is
//! recorded next to every run's metrics and never used to drop a run.

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// Aggregate CPU counters from the first line of `/proc/stat`, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCpu {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
}

/// Parses the `cpu` line of `/proc/stat`.
pub fn parse_host_cpu(stat: &str) -> Option<HostCpu> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some(HostCpu {
        total: fields.iter().sum(),
        steal: fields[7],
    })
}

/// Parses user and system CPU seconds from `/proc/self/stat`.
pub fn parse_process_cpu(stat: &str) -> Option<(f64, f64)> {
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime as f64 / TICKS_PER_S, stime as f64 / TICKS_PER_S))
}

/// Parses the peak resident set (`VmHWM`) from `/proc/self/status`, in MiB.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Current host CPU counters.
pub fn host_cpu() -> Option<HostCpu> {
    parse_host_cpu(&read("/proc/stat")?)
}

/// User and system CPU seconds this process has used so far.
pub fn process_cpu() -> Option<(f64, f64)> {
    parse_process_cpu(&read("/proc/self/stat")?)
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&read("/proc/self/status")?)
}

/// Contention over a window of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contention {
    /// Stolen share of all host CPU ticks in the window.
    pub steal_frac: f64,
    /// Process user CPU seconds in the window.
    pub cpu_user_s: f64,
    /// Process system CPU seconds in the window.
    pub cpu_sys_s: f64,
}

/// Start of a contention window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    host: Option<HostCpu>,
    process: Option<(f64, f64)>,
}

impl Window {
    /// Opens a window now.
    pub fn start() -> Self {
        Self {
            host: host_cpu(),
            process: process_cpu(),
        }
    }

    /// Contention from the start of the window until now; zero where
    /// `/proc` could not be read.
    pub fn finish(&self) -> Contention {
        let steal_frac = match (self.host, host_cpu()) {
            (Some(a), Some(b)) if b.total > a.total => {
                b.steal.saturating_sub(a.steal) as f64 / (b.total - a.total) as f64
            }
            _ => 0.0,
        };
        let (cpu_user_s, cpu_sys_s) = match (self.process, process_cpu()) {
            (Some(a), Some(b)) => (b.0 - a.0, b.1 - a.1),
            _ => (0.0, 0.0),
        };
        Contention {
            steal_frac,
            cpu_user_s,
            cpu_sys_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_stat_cpu_line() {
        let stat = "cpu  226955 0 35664 289474 714 0 322 47660 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        let cpu = parse_host_cpu(stat).expect("cpu line");
        assert_eq!(cpu.steal, 47660);
        assert_eq!(cpu.total, 226955 + 35664 + 289474 + 714 + 322 + 47660);
    }

    #[test]
    fn parses_process_times_after_command_name() {
        let stat = "4242 (perf bench) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 37 0 0 20 0 3 0";
        assert_eq!(parse_process_cpu(stat), Some((2.5, 0.37)));
    }

    #[test]
    fn parses_peak_rss() {
        let status = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(2.0));
    }
}
