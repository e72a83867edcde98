//! One run of one workload: build the fixture, measure for the given
//! time, check, and report — untraced for the end-to-end metrics, traced
//! for the per-layer ones.

use crate::archive::ArchiveWorkload;
use crate::codec_rs::CodecRs;
use crate::host::{self, CpuHop, DataDir};
use crate::json::Json;
use crate::layers;
use crate::metrics;
use crate::stats::{fast, median, p50, p_high, sorted};
use crate::store::{StoreWorkload, LARGE_BYTES, SMALL_BYTES};
use crate::workload::*;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run exactly this many cycles instead of measuring for `seconds`
    /// (the smoke test).
    pub cycles: Option<usize>,
}

/// The fixture is built at least this many times, and again while the
/// builds together have taken less than `SETUP_SECONDS` (the store with
/// 4 KiB objects is up in 0.15 s, and the fastest of five such builds
/// still moved by a tenth from run to run). The fastest build is
/// `setup_s` — like every timed metric here, a low quantile, because the
/// host only ever adds time. The cycles run on the first one built, and
/// the others are built, each on the next CPU, and dropped after the
/// last cycle: a fixture
/// built after another was dropped gets its buffers wherever the freed
/// blocks happened to leave room, and that differed from process to
/// process of the same command (hash maps drop in an order drawn per
/// process), so that the XOR kernels met shard buffers at another
/// offset from a cache line in every run — a fifth of their speed. The
/// first fixture of a process lands at the same offsets every time.
const SETUP_BUILDS: usize = 5;
const SETUP_BUILDS_MAX: usize = 20;
const SETUP_SECONDS: f64 = 3.0;
/// Fewer cycles than this do not support a fast tail: it must have ten
/// samples faster than it, from either CPU. Every workload is sized so
/// that a hundred cycles fit well inside the shortest run the benchmark
/// is driven with; on a machine too slow for that the run takes longer
/// rather than report the tail of a handful of samples.
const MIN_CYCLES: usize = 100;
/// The share of a traced run spent on the workload's cycles and their
/// replay; the rest goes to the workload-independent layer rows.
const TRACED_CYCLE_SHARE: f64 = 0.8;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub cycle: u32,
    /// Index of the causing span in the dump, or -1.
    pub parent: i64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Outcome {
    pub tally: Tally,
    pub cycles: usize,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Where and how the run was measured, as `--out` records it.
    pub env: Vec<(String, Json)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The result line the driver reads.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The record `--out` appends: the result line after `env`, which is
    /// this run's plus whatever the caller adds (tool versions).
    pub fn record(&self, more_env: Vec<(String, Json)>) -> Json {
        let env: Vec<(String, Json)> = self.env.iter().cloned().chain(more_env).collect();
        let Json::Obj(result) = self.result_line() else {
            unreachable!("result is an object")
        };
        Json::Obj(
            std::iter::once(("env".to_string(), Json::Obj(env)))
                .chain(result)
                .collect(),
        )
    }
}

/// Everything before the first timed sample: construct the fixture
/// (codecs, nodes, initial population) and run one untimed cycle, which
/// compiles every program the cycles will use.
fn build(workload: &str, seed: u64, dir: &Path) -> Box<dyn Workload> {
    std::fs::create_dir_all(dir).expect("create fixture dir");
    let mut w: Box<dyn Workload> = match workload {
        "codec_rs" => Box::new(CodecRs::build(seed)),
        "archive" => Box::new(ArchiveWorkload::build(seed, dir)),
        "store_large" => Box::new(StoreWorkload::build(seed, dir, LARGE_BYTES)),
        "store_small" => Box::new(StoreWorkload::build(seed, dir, SMALL_BYTES)),
        other => panic!("unknown workload {other}"),
    };
    w.cycle(0);
    w
}

pub fn run(opts: &Options) -> Outcome {
    // Counted before the confinement, which is what it would count.
    let nproc = host::nproc();
    // Before anything spawns a thread: they inherit the confinement.
    let mut cpu = CpuHop::start();
    let data = DataDir::create().expect("create scratch directory");
    let (steal0, total0) = host::cpu_jiffies();

    // Set-up: everything before the first timed sample.
    let timed_build = |k: usize| {
        let dir = data.path().join(format!("fixture{k}"));
        let start = Instant::now();
        let built = build(&opts.workload, opts.seed, &dir);
        (built, start.elapsed().as_secs_f64(), dir)
    };
    let (mut w, first_setup, _) = timed_build(0);
    let mut setups = vec![first_setup];
    let payload = w.payload_bytes();

    // An untraced run needs its hundred samples per op; a traced one
    // reports medians and shares, and is done when its time is.
    let (share, min_cycles) = if opts.trace {
        (TRACED_CYCLE_SHARE, 2)
    } else {
        (1.0, MIN_CYCLES)
    };
    let budget = Duration::from_secs_f64(opts.seconds * share);
    let enough = |cycles: usize, since: Instant| match opts.cycles {
        Some(n) => cycles >= n,
        None => cycles >= min_cycles && since.elapsed() >= budget,
    };

    // Plain samples always; in a traced run every other cycle is traced:
    // its ops become spans and are replayed layer by layer beside it.
    let mut plain: [Vec<f64>; OPS.len()] = Default::default();
    let mut traced: [Vec<f64>; OPS.len()] = Default::default();
    let mut layer: [[Vec<f64>; LAYERS.len()]; OPS.len()] = Default::default();
    let mut spin = Vec::new();
    let mut spans = Vec::new();
    let origin = Instant::now();
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    let mut cycles = 0;
    while !enough(cycles, origin) {
        cpu.hop_if_due();
        let trace_this = opts.trace && cycles % 2 == 1;
        let samples = w.cycle(cycles);
        let into = if trace_this { &mut traced } else { &mut plain };
        for (op, s) in samples.iter().enumerate() {
            into[op].push(s.secs);
        }
        if trace_this {
            spin.push(host::ref_spin_seconds());
            let replay_start = Instant::now();
            let times = w.replay(cycles, &samples);
            let mut at = ns(replay_start);
            for (op, s) in samples.iter().enumerate() {
                let parent = spans.len() as i64;
                let start_ns = ns(s.start);
                spans.push(Span {
                    name: OPS[op],
                    cycle: cycles as u32,
                    parent: -1,
                    start_ns,
                    end_ns: start_ns + (s.secs * 1e9) as u64,
                });
                for (l, &self_time) in times[op].iter().enumerate() {
                    layer[op][l].push(self_time / s.secs);
                    let dur = (self_time.max(0.0) * 1e9) as u64;
                    spans.push(Span {
                        name: LAYERS[l],
                        cycle: cycles as u32,
                        parent,
                        start_ns: at,
                        end_ns: at + dur,
                    });
                    at += dur;
                }
            }
        }
        cycles += 1;
    }
    w.finish();
    let tally = w.tally();
    let stored = w.stored_bytes_per_user_byte();
    // Memory is read here: what the builds below add is the harness's.
    let peak_rss = host::peak_rss_mb();
    drop(w);
    if !opts.trace && opts.cycles.is_none() {
        while setups.len() < SETUP_BUILDS
            || (setups.len() < SETUP_BUILDS_MAX && setups.iter().sum::<f64>() < SETUP_SECONDS)
        {
            cpu.hop();
            let (built, secs, dir) = timed_build(setups.len());
            setups.push(secs);
            drop(built);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    let metrics = if !opts.trace {
        // In report order: set-up, the six rates, stored ratio, memory.
        let fastest_setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
        let rates =
            (0..OPS.len()).map(|op| payload[op] as f64 / fast(&sorted(plain[op].clone())) / 1e6);
        let values = std::iter::once(fastest_setup)
            .chain(rates)
            .chain([stored, peak_rss]);
        metrics::end_to_end()
            .into_iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect()
    } else {
        let per_row = match opts.cycles {
            Some(_) => Duration::ZERO,
            None => Duration::from_secs_f64(
                opts.seconds * (1.0 - TRACED_CYCLE_SHARE) / metrics::LAYER_ROWS.len() as f64,
            ),
        };
        let mut values: Vec<(String, f64)> = layers::measure(opts.seed, data.path(), per_row)
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        for (op, name) in OPS.iter().enumerate() {
            let all = sorted(plain[op].iter().chain(&traced[op]).copied().collect());
            values.push((format!("e2e.{name}_p50_ms"), p50(&all) * 1e3));
            values.push((format!("e2e.{name}_p99_ms"), p_high(&all) * 1e3));
            values.push((
                format!("e2e.{name}_median_MBps"),
                payload[op] as f64 / p50(&all) / 1e6,
            ));
            // A layer's share: its self time in the replay over the op's
            // time in the same cycle, median over the traced cycles.
            let shares: Vec<f64> = layer[op]
                .iter()
                .map(|ratios| median(ratios) * 100.0)
                .collect();
            for (layer_name, share) in LAYERS.iter().zip(&shares) {
                values.push((format!("share.{name}.{layer_name}_pct"), *share));
            }
            values.push((
                format!("share.{name}.unattributed_pct"),
                100.0 - shares.iter().sum::<f64>(),
            ));
        }
        // A traced cycle against the plain one before it, all ops summed.
        let cycle_secs =
            |per_op: &[Vec<f64>; OPS.len()], k: usize| -> f64 { per_op.iter().map(|v| v[k]).sum() };
        let pairs: Vec<f64> = (0..traced[0].len())
            .map(|k| cycle_secs(&traced, k) / cycle_secs(&plain, k))
            .collect();
        values.push(("trace.overhead_pct".into(), (median(&pairs) - 1.0) * 100.0));
        let spin = sorted(spin);
        let (steal1, total1) = host::cpu_jiffies();
        values.push(("host.ref_spin_ms_fast".into(), fast(&spin) * 1e3));
        values.push(("host.ref_spin_ms_p50".into(), p50(&spin) * 1e3));
        values.push((
            "host.steal_pct".into(),
            (steal1 - steal0) / (total1 - total0).max(1.0) * 100.0,
        ));
        values.push(("host.nproc".into(), nproc as f64));
        // Report in the declared order; a row nobody measured is NaN,
        // which the smoke test refuses.
        metrics::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(f64::NAN, |(_, v)| *v);
                (name, value, unit)
            })
            .collect()
    };

    let env = [
        ("workload", Json::str(&opts.workload)),
        ("seed", Json::Num(opts.seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(opts.trace)))),
        ("seconds", Json::Num(opts.seconds)),
        ("cycles", Json::Num(cycles as f64)),
        ("kernel", Json::str(ec_core::Kernel::Auto.resolve().name())),
        ("blocksize", Json::Num(BLOCKSIZE as f64)),
        ("parallelism", Json::Num(1.0)),
        ("nproc", Json::Num(nproc as f64)),
        ("cpus_hopped", Json::Num(cpu.cpus() as f64)),
        ("data_fs", Json::str(data.fs)),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .to_vec();
    Outcome {
        tally,
        cycles,
        metrics,
        env,
        spans,
    }
}
