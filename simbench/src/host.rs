//! Host-side measurements: process resource usage (`getrusage`) and the
//! fingerprint printed beside every result, so later runs can tell kernel
//! noise and host differences apart from program time.

use std::fmt;

/// Resource usage of this process so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Minor page faults (allocation first-touch shows up here).
    pub minor_faults: u64,
}

impl Usage {
    /// Usage accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }

    /// Kernel share of the CPU time, in `[0, 1]`.
    pub fn sys_share(&self) -> f64 {
        let total = self.user_s + self.sys_s;
        if total > 0.0 {
            self.sys_s / total
        } else {
            0.0
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
compile_error!(
    "simbench reads `struct rusage` with the 64-bit Linux layout and tunes glibc malloc"
);

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

/// glibc's `cpu_set_t`: a 1024-bit CPU mask.
#[repr(C)]
#[derive(Default)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// glibc's `M_MMAP_THRESHOLD` parameter.
const M_MMAP_THRESHOLD: i32 = -3;

/// Size from which glibc serves an allocation with its own `mmap`: its
/// documented initial value, which a fresh `watchdog-cli run` process uses.
pub const MMAP_THRESHOLD: i32 = 128 * 1024;

/// Fixes glibc's mmap threshold at [`MMAP_THRESHOLD`], which also turns
/// off glibc's dynamic adjustment of it. Call before any measured work.
///
/// Left dynamic, the threshold rises the first time a large block is
/// freed, and whether a timed simulation's zeroed timing-core buffers then
/// come as fresh pages (page faults, sys time) or as reused heap memory
/// that `calloc` must clear (user time) depends on the process's allocation
/// history. Runs of fuzz-diff, which makes thousands of small timed
/// simulations, then split into two modes 1.65× apart at random.
/// Fixed, every simulation allocates like the first one in a fresh process.
pub fn pin_mmap_threshold() {
    // SAFETY: mallopt takes two ints and only changes allocator tuning;
    // it is called before this process allocates for measured work.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) };
    assert_eq!(ok, 1, "glibc accepts M_MMAP_THRESHOLD = 128 KiB");
}

/// The CPUs this thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet::default();
    // SAFETY: `set` is a live, writable glibc `cpu_set_t` of the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity of the calling thread");
    (0..set.bits.len() * 64)
        .filter(|&c| set.bits[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpu` (one of [`allowed_cpus`]).
pub fn pin_to_cpu(cpu: usize) {
    let mut set = CpuSet::default();
    set.bits[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live glibc `cpu_set_t` of the size passed (the
    // index above is bounds-checked); pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    assert_eq!(rc, 0, "cpu {cpu} is one this thread may run on");
}

/// Current resource usage of this process.
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (checked by the `compile_error!` gate above), and
    // RUSAGE_SELF is a valid `who`; getrusage writes only into `*usage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid buffer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        minor_faults: ru.minflt.max(0) as u64,
    }
}

/// Peak resident set size of this process image, MiB: `VmHWM` from
/// `/proc/self/status`. `getrusage`'s `ru_maxrss` is not used because
/// it survives `execve`, so under `cargo run` it reports cargo's own
/// peak whenever that is the larger.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// What a result was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Available parallelism.
    pub nproc: usize,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: &'static str,
    /// 1/5/15-minute load averages when the run started.
    pub loadavg: String,
}

impl Fingerprint {
    /// Captures the fingerprint; call before any measured work so the load
    /// average describes the neighbours, not this run.
    pub fn capture() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or("unknown", str::trim)
            .to_string();
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(","))
            .unwrap_or_else(|_| "unknown".into());
        Fingerprint {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("SIMBENCH_RUSTC"),
            loadavg,
        }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu=\"{}\" nproc={} rustc=\"{}\" loadavg_at_start={}",
            self.cpu, self.nproc, self.rustc, self.loadavg
        )
    }
}
