//! Small measurement helpers: order statistics, process CPU and peak
//! RSS, a seeded generator, host facts, and a result tally.

use std::path::Path;

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Percentile of `values` at quantile `q` in [0, 1], interpolating
/// linearly between order statistics (q = 0.5 is the median).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile in {50, 75, 90, 95, 99} that leaves at least
/// 10 samples above it; 50 when there are too few samples for any.
pub fn tail_quantile(n: usize) -> f64 {
    for q in [0.99, 0.95, 0.90, 0.75, 0.50] {
        let rank = (q * n as f64).ceil() as usize;
        if n >= rank + 10 {
            return q;
        }
    }
    0.50
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// CPU seconds consumed so far by every thread of this process.
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; the layout matches the 64-bit Linux ABI.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn vm_hwm_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kib| kib * 1024)
}

/// Return free heap to the OS and reset this process's `VmHWM` to its
/// current RSS, so the next read reports the peak of what ran in
/// between (Linux `clear_refs` 5) rather than heap an earlier
/// iteration left behind.
pub fn reset_peak_rss() {
    // SAFETY: glibc's malloc_trim only releases free heap pages.
    unsafe { malloc_trim(0) };
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// SplitMix64: a tiny seeded generator for arrival times and job seeds.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Facts about the machine and the code a result was measured on.
pub struct Host {
    pub cores: usize,
    pub rev: String,
}

impl Host {
    pub fn detect() -> Host {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rev: source_rev(),
        }
    }
}

/// The git commit when run from a git checkout; otherwise an FNV-1a
/// digest of the workspace sources, so results from exported trees can
/// still be matched to the code that produced them.
fn source_rev() -> String {
    if let Ok(head) = std::fs::read_to_string(".git/HEAD") {
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            Some(reference) => {
                if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
                    return format!("git:{}", id.trim());
                }
            }
            None => return format!("git:{head}"),
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        feed(file.to_string_lossy().as_bytes());
        feed(&std::fs::read(file).unwrap_or_default());
    }
    format!("src-fnv64:{hash:016x}")
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect_files(&entry.path(), out);
        }
    }
}

/// Operation accounting for the result line: every assembly, job and
/// output check is one attempted operation.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; report and count it as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}");
        }
    }
}
