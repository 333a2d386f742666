//! Host introspection from `/proc`: the fingerprint every result carries,
//! process CPU time, memory high-water marks and the thread guard.

use std::fs;

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, fixed at 100
/// by the kernel ABI.
const USER_HZ: f64 = 100.0;

/// Hardware threads the simulator's auto-sized pools resolve to.
pub fn nproc() -> usize {
    spms_kernel::host_parallelism()
}

/// The CPU model from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The compiler that built the benchmark.
pub fn rustc_version() -> &'static str {
    env!("E2EBENCH_RUSTC_VERSION")
}

/// A numeric field of `/proc/self/status` (`Threads`, or a `kB` size such
/// as `VmHWM` / `VmRSS`).
pub fn status_field(name: &str) -> Option<u64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    text.lines().find_map(|line| {
        let (key, rest) = line.split_once(':')?;
        if key != name {
            return None;
        }
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// A `kB` field of `/proc/self/status` in MiB (0 when unreadable).
pub fn status_mib(name: &str) -> f64 {
    status_field(name).map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// User plus system CPU seconds of the whole process, including threads
/// that have already exited.
pub fn process_cpu_s() -> f64 {
    let Ok(text) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields resume after its ')'.
    let Some((_, rest)) = text.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Nanoseconds on CPU summed over the process's live threads
/// (`/proc/self/task/*/schedstat`). Exact, but blind to threads that have
/// exited, so it only brackets calls during which no thread ends.
pub fn live_threads_cpu_ns() -> u64 {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.filter_map(Result::ok)
        .filter_map(|task| fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Tracks the peak thread count seen at the sampling points and whether
/// it ever exceeded the host's parallelism.
#[derive(Clone, Debug)]
pub struct ThreadGuard {
    limit: usize,
    peak: usize,
}

impl ThreadGuard {
    /// A guard allowing at most `nproc()` threads.
    pub fn new() -> Self {
        let mut guard = ThreadGuard {
            limit: nproc(),
            peak: 0,
        };
        guard.sample();
        guard
    }

    /// Reads the current thread count. A worker joined a moment ago can
    /// still be counted while the kernel reaps it, so a count above the
    /// limit is re-read for up to ~20 ms and only one that persists counts.
    pub fn sample(&mut self) {
        let threads = || status_field("Threads").map_or(0, |n| n as usize);
        let mut n = threads();
        for _ in 0..20 {
            if n <= self.limit {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            n = threads();
        }
        self.peak = self.peak.max(n);
    }

    /// The highest thread count sampled.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// `Err` naming the overrun if the peak exceeded the limit.
    pub fn verdict(&self) -> Result<(), String> {
        if self.peak > self.limit {
            Err(format!(
                "ran {} threads on a host with {} hardware threads",
                self.peak, self.limit
            ))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(status_field("Threads").unwrap() >= 1);
        assert!(status_mib("VmHWM") > 0.0);
        assert!(live_threads_cpu_ns() > 0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu_s() > 0.0);
        assert!(nproc() >= 1);
        assert!(!rustc_version().is_empty());
    }

    #[test]
    fn the_guard_flags_an_overrun() {
        let mut guard = ThreadGuard::new();
        guard.limit = 0;
        guard.sample();
        assert!(guard.verdict().unwrap_err().contains("threads"));
    }
}
