//! What the harness needs from the machine: a pinned environment, one
//! CPU at a time, a scratch directory that cleans itself up, and a few
//! readings that tell a disturbed run from a slow program.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Pin the engine selection before any thread exists: the autotuner
/// (which micro-benchmarks on first use) is switched off and every
/// environment override the libraries read is removed, so no ambient
/// variable can pick the kernel, blocksize or pool for a gated number.
pub fn scrub_environment() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::set_var("XORSLP_TUNE", "off");
        for var in [
            "XORSLP_KERNEL",
            "XORSLP_BLOCKSIZE",
            "XORSLP_PARALLELISM",
            "XORSLP_FAILPOINT",
            "XORSLP_TUNE_DIR",
        ] {
            std::env::remove_var(var);
        }
    });
}

// The C library `std` already links; the harness depends on no crate
// for two calls.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
type CpuMask = [u64; 16];

/// Allow every thread of the process the CPUs in `mask`; false if the
/// calling thread's own could not be set.
fn set_affinity(mask: &CpuMask) -> bool {
    let size = std::mem::size_of::<CpuMask>();
    // SAFETY: `mask` is readable and as long as the size passed.
    let set = |tid: i32| unsafe { sched_setaffinity(tid, size, mask.as_ptr()) } == 0;
    if !set(0) {
        return false;
    }
    // The others may exit between the listing and the call: best effort.
    for task in std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        if let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) {
            set(tid);
        }
    }
    true
}

/// The whole process on one CPU at a time, hopping to the next allowed
/// one every half second, until dropped.
///
/// One CPU, because the store workloads keep some fifty threads (14
/// nodes, their workers, a fan-out thread per node and op) and this box
/// has two vCPUs of a shared host: spread over both, every hand-over
/// between threads wakes a halted vCPU through the host, and how long
/// that takes is the host's business — the benchmark driver saw the
/// `store_small` rates of one binary spread 26–30 % between quartiles.
/// Confined, a hand-over is a context switch and the CPU never idles.
/// Hopping, because a vCPU can be slow for minutes at a time while the
/// other is not: the fast tail of a run's samples then comes from
/// whichever was quiet. What it costs: client and node work no longer
/// overlap, so a change that only adds parallelism does not show.
pub struct CpuHop {
    allowed: CpuMask,
    /// The allowed CPUs by number; empty where the process could not be
    /// confined, and then nothing here does anything.
    cpus: Vec<usize>,
    at: usize,
    since: Instant,
}

impl CpuHop {
    const EVERY: Duration = Duration::from_millis(500);

    /// Confine the process to the first CPU it may run on. Call before
    /// the fixture exists: threads spawned later inherit the confinement.
    pub fn start() -> CpuHop {
        let mut allowed: CpuMask = [0; 16];
        let size = std::mem::size_of::<CpuMask>();
        // SAFETY: `allowed` is writable and as long as the size passed.
        let known = unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } == 0;
        let mut hop = CpuHop {
            allowed,
            cpus: (0..64 * allowed.len())
                .filter(|c| known && allowed[c / 64] >> (c % 64) & 1 == 1)
                .collect(),
            at: 0,
            since: Instant::now(),
        };
        hop.confine();
        hop
    }

    /// How many CPUs the process hops over; 0 where it could not be
    /// confined (recorded in the result's `env`).
    pub fn cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Move every thread of the process to the next CPU. Call between
    /// ops only: a thread spawned meanwhile would stay behind.
    pub fn hop(&mut self) {
        self.at += 1;
        self.since = Instant::now();
        self.confine();
    }

    pub fn hop_if_due(&mut self) {
        if self.since.elapsed() >= CpuHop::EVERY {
            self.hop();
        }
    }

    fn confine(&mut self) {
        if self.cpus.is_empty() {
            return;
        }
        let cpu = self.cpus[self.at % self.cpus.len()];
        let mut one: CpuMask = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        if !set_affinity(&one) {
            self.cpus.clear();
        }
    }
}

impl Drop for CpuHop {
    fn drop(&mut self) {
        if !self.cpus.is_empty() {
            set_affinity(&self.allowed);
        }
    }
}

/// A per-process scratch directory, removed on drop — which also runs
/// when a panic unwinds out of `main`.
pub struct DataDir {
    path: PathBuf,
    /// `"tmpfs"` or `"disk"`, recorded in the result's `env`.
    pub fs: &'static str,
}

impl DataDir {
    /// Prefer tmpfs: `BlobStore::put` ends in `sync_data`, and on this
    /// box's disk that alone moved a 4 KiB `put` from 8 ms to 14 ms
    /// between two runs of the same code. Where `/dev/shm` is not
    /// writable the directory goes beside the executable (inside the
    /// build directory, which `.gitignore` names).
    pub fn create() -> std::io::Result<DataDir> {
        let leaf = format!("trajectory-{}", std::process::id());
        let shm = Path::new("/dev/shm").join(&leaf);
        if std::fs::create_dir(&shm).is_ok() {
            return Ok(DataDir {
                path: shm,
                fs: "tmpfs",
            });
        }
        let exe = std::env::current_exe()?;
        let beside = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join("bench-data")
            .join(leaf);
        std::fs::create_dir_all(&beside)?;
        Ok(DataDir {
            path: beside,
            fs: "disk",
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// `(steal, total)` jiffies summed over all CPUs, from `/proc/stat`.
pub fn cpu_jiffies() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0.0),
        fields.iter().take(8).sum(),
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The harness's own reference work: a fixed dependent integer chain of
/// about a millisecond that touches no memory. When it slows down, the
/// machine did, not the program under test.
pub fn ref_spin_seconds() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..400_000u32 {
        // `black_box` per step: a bare LCG loop has a closed form, and
        // the compiler finds it.
        x = std::hint::black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

/// First line of `cmd args…`'s standard output, or `"unknown"`.
pub fn tool_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}
