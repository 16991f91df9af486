//! Process-level measurements: CPU time, peak RSS, allocation counting,
//! fingerprints and the seed splitter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

use aergia_runtime::alloc_count::CountingAllocator;
use aergia_tensor::Tensor;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and calls getrusage with the 64-bit Linux struct layout");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which only `ru_maxrss` (the first) is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the 64-bit
    // Linux layout (checked by the cfg gate above) and `who` is one of the
    // two constants the call accepts; getrusage writes nothing else.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

fn cpu_secs(u: &Rusage) -> f64 {
    (u.utime.sec + u.stime.sec) as f64 + (u.utime.usec + u.stime.usec) as f64 * 1e-6
}

/// User + system CPU seconds of this process and of every child it has
/// waited for.
pub fn cpu_seconds() -> f64 {
    cpu_secs(&rusage(RUSAGE_SELF)) + cpu_secs(&rusage(RUSAGE_CHILDREN))
}

/// Largest peak RSS among the children this process has waited for, MiB.
pub fn children_peak_rss_mib() -> f64 {
    rusage(RUSAGE_CHILDREN).maxrss_kib as f64 / 1024.0
}

/// Sends SIGKILL to every process of the group `pgid` leads. A group that
/// is already gone is not an error.
pub fn kill_group(pgid: u32) {
    const SIGKILL: i32 = 9;
    if let Ok(pgid) = i32::try_from(pgid) {
        // SAFETY: `kill` takes two integers and touches no memory of this
        // process; a negative pid addresses the process group, which this
        // benchmark created for the child with `process_group(0)`.
        unsafe { kill(-pgid, SIGKILL) };
    }
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// The system allocator, counting allocations only while switched on: the
/// traced child turns it on around its timed rounds, every other process
/// pays one relaxed load per allocation.
pub struct GatedCounter {
    counting: AtomicBool,
    counter: CountingAllocator,
}

impl GatedCounter {
    pub const fn new() -> Self {
        GatedCounter { counting: AtomicBool::new(false), counter: CountingAllocator::new() }
    }

    pub fn set_counting(&self, on: bool) {
        self.counting.store(on, Ordering::Relaxed);
    }

    pub fn allocations(&self) -> u64 {
        self.counter.allocations()
    }
}

// SAFETY: every method forwards its arguments unchanged either to `System`
// or to `CountingAllocator`, which is itself `System` plus a counter bump;
// memory from either path is `System` memory, so freeing through `System`
// is valid whichever path allocated it.
unsafe impl GlobalAlloc for GatedCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if self.counting.load(Ordering::Relaxed) {
            self.counter.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if self.counting.load(Ordering::Relaxed) {
            self.counter.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if self.counting.load(Ordering::Relaxed) {
            self.counter.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}

/// 64-bit FNV-1a.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a weight snapshot: shapes and exact bit patterns.
pub fn weights_fingerprint(weights: &[Tensor]) -> u64 {
    let mut h = Fnv::new();
    for t in weights {
        for &d in t.dims() {
            h.bytes(&(d as u64).to_le_bytes());
        }
        for v in t.data() {
            h.bytes(&v.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

/// Fingerprint of anything with a deterministic `Debug` form (the round
/// records: integers, and floats printed in shortest round-trip form).
pub fn debug_fingerprint<T: std::fmt::Debug>(value: &T) -> u64 {
    let mut h = Fnv::new();
    h.bytes(format!("{value:?}").as_bytes());
    h.finish()
}

/// Derives the `stream`-th sub-seed of `seed` (splitmix64 finaliser), so
/// dataset, speeds, topology and engine never share a raw seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Median of a non-empty sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
