//! Process resource usage: CPU time split into user and system time from
//! `getrusage(2)`, and the peak resident set size from `/proc`.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as laid out by Linux on 64-bit targets: two
/// `timeval`s followed by fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [c_long; 14],
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// A snapshot of this process's resource usage.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User CPU seconds, all threads.
    pub user_s: f64,
    /// System CPU seconds, all threads.
    pub sys_s: f64,
}

impl Usage {
    /// Reads the current usage of the whole process.
    pub fn now() -> Usage {
        let mut raw = Rusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` with the
        // kernel's layout for this target; getrusage writes only into it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Usage {
            user_s: secs(&raw.ru_utime),
            sys_s: secs(&raw.ru_stime),
        }
    }

    /// CPU time spent between `earlier` and `self`: `(user_s, sys_s)`.
    pub fn since(&self, earlier: &Usage) -> (f64, f64) {
        (self.user_s - earlier.user_s, self.sys_s - earlier.sys_s)
    }
}

/// Peak resident set size of this process so far, in MB (10^6 bytes):
/// `VmHWM` from `/proc/self/status`. `getrusage`'s `ru_maxrss` is not
/// used because Linux carries it across `execve`, so under `cargo run` it
/// reports cargo's own peak.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_grows_with_work() {
        let before = Usage::now();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = Usage::now();
        let (user, sys) = after.since(&before);
        assert!(user > 0.0, "user={user}");
        assert!(sys >= 0.0);
        let rss = peak_rss_mb().unwrap();
        assert!(rss > 0.1, "rss={rss}");
    }
}
