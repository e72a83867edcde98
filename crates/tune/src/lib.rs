//! `ec-tune`: the per-machine kernel autotuner.
//!
//! The paper's §7 shows that the best XOR kernel and blocking parameter
//! `B` are machine properties — SIMD width, cache geometry and core
//! count move the optimum — and reports them as offline tables. This
//! crate turns those tables into a live subsystem: on first use it
//! micro-benchmarks kernel × blocksize × stripe-count with the real
//! RS(10,4) parity program ([`tune`]), persists the winner to a
//! versioned, CRC-protected cache file ([`Profile`]), and serves it as
//! the engine default ([`engine_defaults`]) that `RsConfig::new` — and
//! therefore the registry, archives, clusters and CLIs — starts from.
//!
//! Precedence, lowest to highest: static paper defaults < tuned profile
//! < environment (`XORSLP_KERNEL`, `XORSLP_BLOCKSIZE`,
//! `XORSLP_PARALLELISM`) < explicit config calls. The profile never
//! overrides anything a human asked for.
//!
//! Trust rules for the cache file are strict: corrupt, truncated,
//! stale-version or foreign-machine profiles are silently re-tuned —
//! a damaged cache can cost one re-benchmark, never correctness.
//!
//! Environment:
//! * `XORSLP_TUNE=off` (also `0`/`false`) — disable the autotuner
//!   entirely; defaults fall back to the static paper values.
//! * `XORSLP_TUNE_DIR=<dir>` — cache directory override. Default:
//!   `$HOME/.xorslp-ec`, falling back to a per-user directory under the
//!   system temp dir when `HOME` is unset.

mod profile;
mod tuner;

pub use profile::{Profile, ProfileError, TuneSample, MAGIC, VERSION};
pub use tuner::{tune, tune_count, TuneOptions};

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use xor_runtime::{available_kernels, default_parallelism, Kernel};

/// The static defaults from the paper, used when tuning is disabled and
/// as the base the profile refines: §6.1's `B = 1024` sweet spot, kernel
/// auto-detection, machine-sized pool.
pub const PAPER_BLOCKSIZE: usize = 1024;

/// Is the autotuner enabled? (`XORSLP_TUNE=off|0|false` disables it.)
pub fn tuning_enabled() -> bool {
    match std::env::var("XORSLP_TUNE") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "off" | "0" | "false" | "no"
        ),
        Err(_) => true,
    }
}

/// This machine's tuning identity: architecture, the kernels this CPU
/// can run, the worker-pool width, and the build flavor (debug timings
/// must never steer a release process, or vice versa). A cached profile
/// whose fingerprint differs is re-tuned.
pub fn machine_fingerprint() -> String {
    let kernels: Vec<&str> = available_kernels().iter().map(|k| k.name()).collect();
    format!(
        "{}|{}|w{}|{}",
        std::env::consts::ARCH,
        kernels.join(","),
        default_parallelism(),
        if cfg!(debug_assertions) { "dbg" } else { "rel" }
    )
}

/// The profile cache directory: `$XORSLP_TUNE_DIR`, else
/// `$HOME/.xorslp-ec`, else a per-user dir under the system temp dir.
pub fn tune_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("XORSLP_TUNE_DIR") {
        if !dir.trim().is_empty() {
            return PathBuf::from(dir);
        }
    }
    if let Ok(home) = std::env::var("HOME") {
        if !home.trim().is_empty() {
            return Path::new(&home).join(".xorslp-ec");
        }
    }
    std::env::temp_dir().join("xorslp-ec")
}

/// The profile cache file for *this* machine. The file name embeds a
/// hash of the fingerprint, so a home directory shared across
/// heterogeneous machines holds one profile per machine instead of the
/// machines endlessly re-tuning over each other's cache.
pub fn profile_path() -> PathBuf {
    tune_dir().join(format!(
        "profile-{:08x}.tune",
        ec_wire::crc32(machine_fingerprint().as_bytes())
    ))
}

/// Per-path once-cells: concurrent first use from any number of threads
/// runs the micro-benchmark exactly once per cache path (later callers
/// block on the winner and share its `Arc`).
fn cell_for(path: &Path) -> Arc<OnceLock<Arc<Profile>>> {
    type CellMap = HashMap<PathBuf, Arc<OnceLock<Arc<Profile>>>>;
    static CELLS: OnceLock<Mutex<CellMap>> = OnceLock::new();
    let cells = CELLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cells.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    map.entry(path.to_path_buf()).or_default().clone()
}

/// Load the profile cached at `path`, or run the micro-benchmark and
/// cache the result there. In-process, concurrent calls for the same
/// path tune at most once; on disk, the write is atomic (tmp + rename)
/// so racing *processes* can both tune but never corrupt the cache.
///
/// Any failure to load (missing, corrupt, truncated, stale version,
/// foreign machine) re-tunes; failure to *write* the cache is ignored —
/// the freshly measured profile is still returned and only the next
/// process pays again.
pub fn load_or_tune_at(path: &Path) -> Arc<Profile> {
    load_or_tune_at_with(path, &TuneOptions::default())
}

/// [`load_or_tune_at`] with an explicit workload shape — the hook the
/// cache-invalidation tests use to keep the forced re-tunes fast.
pub fn load_or_tune_at_with(path: &Path, opts: &TuneOptions) -> Arc<Profile> {
    cell_for(path)
        .get_or_init(|| {
            let fp = machine_fingerprint();
            match Profile::load(path, &fp) {
                Ok(p) => Arc::new(p),
                Err(_) => {
                    let p = tune(opts);
                    let _ = p.store(path);
                    Arc::new(p)
                }
            }
        })
        .clone()
}

/// The process-wide tuned profile, or `None` when `XORSLP_TUNE` turns
/// the autotuner off. First call on a cold machine runs the
/// micro-benchmark (well under a second); warm starts load the cache
/// file once and every later call is an `Arc` clone.
pub fn profile() -> Option<Arc<Profile>> {
    if !tuning_enabled() {
        return None;
    }
    Some(load_or_tune_at(&profile_path()))
}

/// Engine defaults fed to codec construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineDefaults {
    /// Default XOR kernel.
    pub kernel: Kernel,
    /// Default blocking parameter `B` in bytes.
    pub blocksize: usize,
    /// Default parallelism knob (`0` = machine-sized global pool).
    pub parallelism: usize,
}

impl EngineDefaults {
    /// The static paper defaults (what the engine shipped with before
    /// the autotuner existed).
    pub const PAPER: EngineDefaults = EngineDefaults {
        kernel: Kernel::Auto,
        blocksize: PAPER_BLOCKSIZE,
        parallelism: 0,
    };
}

/// The defaults `RsConfig::new` starts from: the tuned profile when the
/// autotuner is enabled, the static paper defaults otherwise.
/// Environment variables and explicit config calls are applied *on top*
/// by the config layer — this function is the bottom of the precedence
/// chain.
pub fn engine_defaults() -> EngineDefaults {
    match profile() {
        Some(p) => EngineDefaults {
            kernel: p.kernel,
            // A winning stripe count at (or beyond) the machine width
            // means "use the shared global pool"; below it, a dedicated
            // pool of exactly that width won the measurement.
            parallelism: if p.stripes >= default_parallelism() {
                0
            } else {
                p.stripes
            },
            blocksize: p.blocksize,
        },
        None => EngineDefaults::PAPER,
    }
}

/// Human-readable report for the CLIs' `tune` subcommand: the chosen
/// configuration, where it is cached, and the measured candidate table
/// (winner marked, sorted fastest-first).
pub fn format_report(p: &Profile, path: &Path, source: &str) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "machine:    {}", p.fingerprint);
    let _ = writeln!(out, "profile:    {} ({source})", path.display());
    let _ = writeln!(out, "kernel:     {}", p.kernel.name());
    let _ = writeln!(out, "blocksize:  {}", p.blocksize);
    let _ = writeln!(
        out,
        "stripes:    {}{}",
        p.stripes,
        if p.stripes >= default_parallelism() {
            " (machine width: shared global pool)"
        } else {
            ""
        }
    );
    // Not tuned, detected: the CRC-32 / SHA-256 kernels `ec-wire` picked
    // for this process from the CPU's feature flags.
    let (crc, sha) = ec_wire::integrity_kernels();
    let _ = writeln!(out, "integrity:  crc32={crc} sha256={sha} (by CPU feature, no override)");
    let mut samples: Vec<&TuneSample> = p.samples.iter().collect();
    samples.sort_by_key(|s| std::cmp::Reverse(s.mib_per_s));
    let _ = writeln!(out, "candidates ({} measured):", samples.len());
    for s in samples {
        let chosen = s.kernel == p.kernel.name()
            && s.blocksize as usize == p.blocksize
            && s.stripes as usize == p.stripes;
        let _ = writeln!(
            out,
            "  {:>6}  B={:<5} stripes={:<2} {:>8} MiB/s{}",
            s.kernel,
            s.blocksize,
            s.stripes,
            s.mib_per_s,
            if chosen { "  <- chosen" } else { "" }
        );
    }
    out
}

/// The whole `tune` subcommand shared by `xorslp-archive` and
/// `xorslp-store`: load-or-tune (or force a fresh measurement), persist,
/// and return the printable report.
pub fn cli_tune(force: bool) -> String {
    let path = profile_path();
    let before = tune_count();
    let (p, source) = if force {
        let p = Arc::new(tune(&TuneOptions::default()));
        (p, "re-tuned (--force)")
    } else {
        let p = load_or_tune_at(&path);
        (
            p,
            if tune_count() > before {
                "freshly tuned"
            } else {
                "cached"
            },
        )
    };
    if force {
        if let Err(e) = p.store(&path) {
            eprintln!("warning: could not write profile cache: {e}");
        }
    }
    format_report(&p, &path, source)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_names_the_winner_and_every_sample() {
        let p = Profile {
            fingerprint: "fp".into(),
            kernel: Kernel::Wide64,
            blocksize: 2048,
            stripes: 1,
            samples: vec![
                TuneSample {
                    kernel: "xor1".into(),
                    blocksize: 1024,
                    stripes: 1,
                    mib_per_s: 900,
                },
                TuneSample {
                    kernel: "xor8".into(),
                    blocksize: 2048,
                    stripes: 1,
                    mib_per_s: 4200,
                },
            ],
        };
        let r = format_report(&p, Path::new("/tmp/x.tune"), "cached");
        assert!(r.contains("kernel:     xor8"));
        assert!(r.contains("blocksize:  2048"));
        assert!(r.contains("<- chosen"));
        // `sha256=` names the single-message kernel and, after a `+`,
        // the lane kernel Merkle leaves are batched through, if any.
        let (crc, sha) = ec_wire::integrity_kernels();
        assert!(r.contains(&format!("integrity:  crc32={crc} sha256={sha} ")), "{r}");
        let kernels = ec_wire::implementations();
        assert!(sha.starts_with(kernels.sha256[0].0), "{sha}");
        assert_eq!(sha.contains('+'), kernels.leaf_batch.len() > 1, "{sha}");
        assert!(r.contains("xor1") && r.contains("900"));
        // Sorted fastest-first: the winner line precedes the scalar line.
        assert!(r.find("4200").unwrap() < r.find("900 ").unwrap());
    }

    #[test]
    fn fingerprint_names_arch_kernels_width_and_flavor() {
        let fp = machine_fingerprint();
        assert!(fp.contains(std::env::consts::ARCH));
        assert!(fp.contains("xor1") && fp.contains("xor8"));
        assert!(fp.contains(&format!("w{}", default_parallelism())));
        assert!(fp.ends_with("dbg") || fp.ends_with("rel"));
    }

    #[test]
    fn paper_defaults_are_the_documented_constants() {
        assert_eq!(
            EngineDefaults::PAPER,
            EngineDefaults {
                kernel: Kernel::Auto,
                blocksize: 1024,
                parallelism: 0,
            }
        );
    }

    #[test]
    fn profile_path_is_under_tune_dir_and_fingerprint_keyed() {
        let p = profile_path();
        assert!(p.starts_with(tune_dir()));
        let name = p.file_name().unwrap().to_str().unwrap();
        assert!(name.starts_with("profile-") && name.ends_with(".tune"));
    }
}
