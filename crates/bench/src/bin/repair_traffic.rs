//! Repair traffic: survivor bytes read to rebuild a single lost shard,
//! RS(10, 4) vs LRC(10, 4, r=5) — equal data shards, equal total parity,
//! so equal storage overhead.
//!
//! The locally-repairable code's pitch is not throughput but *repair
//! I/O*: an MDS code must read `n` survivors to rebuild anything, while
//! LRC rebuilds a single lost shard from its locality group — here 5
//! reads (4 group members + the group's XOR parity) instead of 10. The
//! price is fault tolerance on some patterns (LRC(10,4,5) is not MDS).
//!
//! Method: archive a `BENCH_MB` input with each codec via `ec-stream`,
//! then for every shard index in turn delete that shard file, run
//! `Archive::repair`, and record the survivor bytes the repair actually
//! read (`RepairReport::bytes_read`) and its wall-clock. The assertion
//! printed at the bottom — LRC strictly below RS on every single-loss
//! repair, and in aggregate — is the acceptance metric of the codec
//! registry's locality-aware repair path.

use ec_core::CodecSpec;
use ec_stream::Archive;
use std::path::Path;
use std::time::Instant;

/// Bytes read and wall-clock per lost-shard index.
struct Sweep {
    per_shard: Vec<(usize, u64, f64)>,
    total_read: u64,
    total_secs: f64,
}

fn sweep(spec: &CodecSpec, input: &Path, dir: &Path) -> Sweep {
    let chunk = 1 << 20;
    let archive = Archive::create_with_spec(input, dir, spec, chunk).expect("create archive");
    let total = spec.data_shards + spec.parity_shards;
    let mut out = Sweep {
        per_shard: Vec::new(),
        total_read: 0,
        total_secs: 0.0,
    };
    for lost in 0..total {
        std::fs::remove_file(archive.shard_path(lost)).expect("remove shard");
        let t = Instant::now();
        let report = archive.repair().expect("repair");
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(report.repaired, vec![lost]);
        assert!(
            archive.verify().expect("verify").all_ok(),
            "repair left damage"
        );
        out.per_shard.push((lost, report.bytes_read, secs));
        out.total_read += report.bytes_read;
        out.total_secs += secs;
    }
    out
}

fn main() {
    ec_bench::print_env_header("repair_traffic");
    let mb = std::env::var("BENCH_MB")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(10);
    let len = mb * 1_000_000;
    let root = std::env::temp_dir().join(format!("xorslp_repair_traffic_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("mkdir");
    let input = root.join("input.bin");
    let data: Vec<u8> = (0..len).map(|i| ((i * 131 + i / 7) % 251) as u8).collect();
    std::fs::write(&input, &data).expect("write input");

    let rs = CodecSpec::rs(10, 4);
    let lrc = CodecSpec::lrc(10, 4, 5);
    let rs_sweep = sweep(&rs, &input, &root.join("rs"));
    let lrc_sweep = sweep(&lrc, &input, &root.join("lrc"));

    println!(
        "single-shard repair over a {mb} MB archive, {} shards (10 data + 4 parity)\n",
        10 + 4
    );
    println!(
        "{:>5}  {:>16} {:>9}   {:>16} {:>9}",
        "lost", "rs bytes read", "ms", "lrc:5 bytes read", "ms"
    );
    println!("{}", ec_bench::rule(64));
    for ((lost, rs_b, rs_s), (_, lrc_b, lrc_s)) in
        rs_sweep.per_shard.iter().zip(&lrc_sweep.per_shard)
    {
        println!(
            "{lost:>5}  {rs_b:>16} {:>9.2}   {lrc_b:>16} {:>9.2}",
            rs_s * 1e3,
            lrc_s * 1e3
        );
    }
    println!("{}", ec_bench::rule(64));
    println!(
        "{:>5}  {:>16} {:>9.2}   {:>16} {:>9.2}",
        "sum",
        rs_sweep.total_read,
        rs_sweep.total_secs * 1e3,
        lrc_sweep.total_read,
        lrc_sweep.total_secs * 1e3
    );
    println!(
        "\naggregate repair traffic: LRC reads {:.2}x fewer survivor bytes than RS",
        rs_sweep.total_read as f64 / lrc_sweep.total_read as f64
    );

    // The acceptance check: strictly fewer survivor bytes under LRC for
    // every data-shard (and local-parity) loss, never more on any loss
    // (a global parity row legitimately re-encodes from all `n` data
    // shards — exactly RS's floor), and strictly fewer in aggregate.
    for ((lost, rs_b, _), (_, lrc_b, _)) in rs_sweep.per_shard.iter().zip(&lrc_sweep.per_shard) {
        if *lost < lrc.data_shards + lrc.data_shards / lrc.group_size {
            assert!(
                lrc_b < rs_b,
                "shard {lost}: LRC read {lrc_b} bytes, RS read {rs_b}"
            );
        } else {
            assert!(
                lrc_b <= rs_b,
                "shard {lost}: LRC read {lrc_b} bytes, RS read {rs_b}"
            );
        }
    }
    assert!(lrc_sweep.total_read < rs_sweep.total_read);
    println!("OK: LRC ≤ RS on every single-shard repair, < on data shards and in aggregate");
    let _ = std::fs::remove_dir_all(&root);
}
