//! Process and thread accounting from `/proc/self`: CPU time, resident
//! memory and thread count.

use std::collections::BTreeMap;
use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/*/stat`. It is 100 on
/// every Linux this runs on, and std offers no `sysconf` to ask.
const TICKS_PER_S: u64 = 100;

/// Process CPU time so far, user plus system, in microseconds.
pub fn process_cpu_us() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // comm may contain spaces and parentheses; the fields resume after the
    // last ')'. utime and stime are fields 14 and 15, state is field 3.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick() + tick()) * (1_000_000 / TICKS_PER_S)
}

/// Resident set size, in kB.
pub fn rss_kb() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// One thread's identity and the CPU time it has run, from
/// `/proc/self/task/<tid>/{comm,schedstat}` (nanosecond resolution, where
/// `stat` would round each thread down to 10 ms ticks).
#[derive(Debug)]
pub struct ThreadCpu {
    pub comm: String,
    pub run_ns: u64,
}

pub fn threads() -> BTreeMap<u64, ThreadCpu> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        // A thread may exit between the listing and the reads.
        let path = entry.path();
        let Ok(comm) = fs::read_to_string(path.join("comm")) else {
            continue;
        };
        let Ok(sched) = fs::read_to_string(path.join("schedstat")) else {
            continue;
        };
        let run_ns = sched
            .split_ascii_whitespace()
            .next()
            .and_then(|f| f.parse().ok());
        out.insert(
            tid,
            ThreadCpu {
                comm: comm.trim_end().to_string(),
                run_ns: run_ns.unwrap_or(0),
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(rss_kb() > 0);
        let named = std::thread::Builder::new()
            .name("procfs-probe".into())
            .spawn(|| {
                let t0 = std::time::Instant::now();
                while t0.elapsed().as_millis() < 30 {
                    std::hint::black_box(0u64);
                }
                threads()
                    .values()
                    .filter(|t| t.comm == "procfs-probe")
                    .count()
            })
            .expect("spawn")
            .join()
            .expect("join");
        assert_eq!(named, 1);
        assert!(threads().values().any(|t| t.run_ns > 0));
        assert!(
            process_cpu_us() >= 20_000,
            "30 ms of spinning shows in utime"
        );
    }
}
