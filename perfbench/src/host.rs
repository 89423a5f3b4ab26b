//! Host resource readings taken from outside the program: process CPU
//! time (every thread, exited ones included) and peak resident memory.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system) consumed so far by every thread of this
/// process. Threads that have exited still count, so reading this after a
/// run has joined its shard workers or node threads covers their work.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec with the C layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`). The
/// benchmark runs one workload per process, so no other workload's
/// high-water mark is included.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Wall and CPU time of one measured call.
#[derive(Debug, Clone, Copy)]
pub struct HostCost {
    /// Host wall seconds.
    pub wall_s: f64,
    /// Host CPU seconds over every thread.
    pub cpu_s: f64,
}

/// Run `f`, returning its value with the wall and CPU time it took. Any
/// threads `f` starts must be joined before it returns (the workloads'
/// run calls guarantee this), so their CPU time is included.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, HostCost) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    (out, HostCost { wall_s, cpu_s })
}

/// Spin (without sleeping) until `ns` host nanoseconds have passed: the
/// sensitivity self-test's planted host cost.
pub fn busy_wait_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}
