//! What the kernel already knows about this process: CPU time of the
//! whole process and of named threads, and peak resident memory.

use std::fs;
use std::time::Duration;

/// `/proc` reports process CPU time in ticks of `USER_HZ`, which Linux
/// fixes at 100 per second for user space.
const TICK: Duration = Duration::from_millis(10);

/// User plus system CPU time of the whole process, threads that have
/// already exited included.
pub fn process_cpu() -> Duration {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    TICK * ticks as u32
}

/// CPU time (nanosecond resolution) of this process's live threads
/// whose name starts with `prefix`, and how many there are.
pub fn threads_cpu(prefix: &str) -> (Duration, usize) {
    let mut total = Duration::ZERO;
    let mut count = 0;
    for entry in fs::read_dir("/proc/self/task").expect("/proc/self/task is listable") {
        let dir = entry.expect("task entry").path();
        // A thread can exit between listing and reading; skip it.
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !comm.starts_with(prefix) {
            continue;
        }
        let Ok(schedstat) = fs::read_to_string(dir.join("schedstat")) else {
            continue;
        };
        let ns: u64 = schedstat
            .split_whitespace()
            .next()
            .and_then(|s| s.parse().ok())
            .expect("schedstat starts with run time in ns");
        total += Duration::from_nanos(ns);
        count += 1;
    }
    (total, count)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

/// Available parallelism: the number of load threads a workload may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The soft limit on open file descriptors.
pub fn open_files_limit() -> u64 {
    let limits = fs::read_to_string("/proc/self/limits").expect("/proc/self/limits is readable");
    limits
        .lines()
        .find_map(|l| l.strip_prefix("Max open files"))
        .and_then(|v| v.split_whitespace().next())
        .map_or(u64::MAX, |soft| soft.parse().unwrap_or(u64::MAX))
}
