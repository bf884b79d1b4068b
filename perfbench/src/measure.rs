//! Process-level measurement: the allocation counter, `getrusage`, the
//! filesystem probe for the temp directory, and order statistics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// System allocator wrapper that counts `alloc`/`realloc` calls while
/// [`count_allocs`] is on. Off, it costs one relaxed load per call, so
/// the untraced run measures (almost) the plain allocator.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed statistic that publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Turn allocation counting on or off (process-wide).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Whole-process resource usage, from `getrusage(RUSAGE_SELF)`.
#[derive(Default)]
pub struct Usage {
    pub cpu_s: f64,
    pub max_rss_kb: u64,
    pub minor_faults: u64,
    pub ctx_switches_invol: u64,
}

#[cfg(target_os = "linux")]
pub fn usage() -> Usage {
    // `struct rusage` on 64-bit Linux: two `timeval`s (2 x i64 each)
    // followed by fourteen `long`s.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    let mut ru = [0i64; 18];
    // SAFETY: `ru` is a writable buffer with the size and alignment of
    // `struct rusage` on 64-bit Linux, and RUSAGE_SELF (0) is valid.
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    let secs = |s: i64, us: i64| s as f64 + us as f64 * 1e-6;
    Usage {
        cpu_s: secs(ru[0], ru[1]) + secs(ru[2], ru[3]),
        max_rss_kb: ru[4].max(0) as u64,
        minor_faults: ru[8].max(0) as u64,
        ctx_switches_invol: ru[17].max(0) as u64,
    }
}

#[cfg(not(target_os = "linux"))]
pub fn usage() -> Usage {
    Usage::default()
}

/// Whether `dir` sits on a RAM-backed filesystem (tmpfs or ramfs), so
/// the `fsync`s of the campaign cache do not time a shared disk.
#[cfg(target_os = "linux")]
pub fn ram_backed(dir: &std::path::Path) -> bool {
    use std::os::unix::ffi::OsStrExt;
    extern "C" {
        fn statfs(path: *const std::ffi::c_char, buf: *mut [i64; 32]) -> i32;
    }
    const TMPFS_MAGIC: i64 = 0x0102_1994;
    const RAMFS_MAGIC: i64 = 0x8584_58f6;
    let Ok(path) = std::ffi::CString::new(dir.as_os_str().as_bytes()) else {
        return false;
    };
    let mut buf = [0i64; 32];
    // SAFETY: `path` is NUL-terminated, and `buf` is larger than
    // `struct statfs` (120 bytes on 64-bit Linux), whose first field is
    // the `long` filesystem type.
    let rc = unsafe { statfs(path.as_ptr(), &mut buf) };
    rc == 0 && (buf[0] == TMPFS_MAGIC || buf[0] == RAMFS_MAGIC)
}

#[cfg(not(target_os = "linux"))]
pub fn ram_backed(_dir: &std::path::Path) -> bool {
    false
}

/// Linearly interpolated quantile `q` in `[0, 1]` of `values` (sorted in
/// place); `0.0` for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Deterministic 64-bit generator (SplitMix64) for the seeded inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}
