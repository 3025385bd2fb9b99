//! Host counters from `/proc/self` and the run fingerprint.

use std::fmt::Write as _;

use crate::probe::PROBE_NOMINAL_MS;

/// Process-wide CPU and fault counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    /// Minor page faults so far.
    pub minflt: u64,
    /// User CPU time in clock ticks.
    pub utime: u64,
    /// Kernel CPU time in clock ticks.
    pub stime: u64,
}

impl ProcStat {
    /// Read `/proc/self/stat`; all zeros where it is unavailable.
    pub fn now() -> Self {
        let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
            return Self::default();
        };
        // Fields after the parenthesised command name start at field 3
        // (state): minflt is field 10, utime 14, stime 15.
        let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<u64> = rest
            .split_whitespace()
            .map(|s| s.parse().unwrap_or(0))
            .collect();
        let at = |field: usize| f.get(field - 3).copied().unwrap_or(0);
        Self {
            minflt: at(10),
            utime: at(14),
            stime: at(15),
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            minflt: self.minflt.saturating_sub(earlier.minflt),
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
        }
    }
}

/// Peak resident set size (`VmHWM`) in MiB; 0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Put the allocator into one fixed state before anything runs, so its
/// page-fault behaviour no longer depends on the input seed or on timing.
///
/// glibc serves large blocks with `mmap`; each time such a block is
/// freed it raises its mmap threshold to that block's size (up to a
/// 32 MiB ceiling) and its heap trim threshold to twice that (see
/// `mallopt(3)`). Left alone, which blocks get freed first depends on
/// the input, and the heap top is given back to the kernel whenever it
/// grows past the trim threshold: `luis_tight` ran at ~5.8K minor faults
/// per pair on some seeds and ~11.5K on others, for the whole run. Two
/// steps fix the state: free one block just under the ceiling (all
/// later allocations below 31 MiB come from the heap), then grow the
/// heap by `HEAP_RESERVE` in 1 MiB blocks, pin a small block above them
/// and free the rest, so the freed space sits below a live block and is
/// never trimmed. Only one header page per reserve block is touched
/// (~2 MiB of RSS) until the program reuses the space.
pub fn settle_allocator() -> Vec<u8> {
    /// Heap grown and kept below the pin.
    const HEAP_RESERVE: usize = 512 << 20;
    let ceiling: Vec<u8> = Vec::with_capacity(31 << 20);
    drop(std::hint::black_box(ceiling));
    let blocks: Vec<Vec<u8>> = (0..HEAP_RESERVE >> 20)
        .map(|_| std::hint::black_box(Vec::with_capacity(1 << 20)))
        .collect();
    let pin = std::hint::black_box(Vec::with_capacity(64));
    drop(std::hint::black_box(blocks));
    pin
}

/// The source revision when run from a git checkout, else `"none"`.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "none".to_string(),
    }
}

/// Everything that can change a number without changing the code: the
/// host, the runtime toggles, the build and the inputs.
pub fn fingerprint(seed: u64, probe_median_ms: f64) -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("pipelining", crate::run::PIPELINED.to_string()),
        ("SMA_SIMD", env("SMA_SIMD")),
        ("SMA_PRUNE", env("SMA_PRUNE")),
        ("SMA_OBS", env("SMA_OBS")),
        ("SMA_FAULTS", env("SMA_FAULTS")),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("git_rev", git_rev()),
        ("seed", seed.to_string()),
        ("probe_nominal_ms", format!("{PROBE_NOMINAL_MS}")),
        ("probe_median_ms", format!("{probe_median_ms:.4}")),
        (
            "host_speed",
            format!("{:.4}", PROBE_NOMINAL_MS / probe_median_ms.max(1e-9)),
        ),
    ]
}

/// The fingerprint as one JSON object.
pub fn fingerprint_json(fp: &[(&'static str, String)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in fp.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{k}\": \"{}\"", v.replace(['"', '\\'], "_"));
    }
    s.push('}');
    s
}
