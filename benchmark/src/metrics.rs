//! The metric names the benchmark declares. `BENCHMARK.json` lists the
//! same names; a test holds the two together.

use crate::workload::{LAYERS, OPS};

pub const WORKLOADS: [&str; 4] = ["codec_rs", "archive", "store_large", "store_small"];

/// An end-to-end metric: what a user of the system sees, with the share
/// of the parent's median by which it may worsen before a change counts
/// as a regression.
pub struct EndToEnd {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Every end-to-end metric, in report order; the same on every workload.
pub fn end_to_end() -> Vec<EndToEnd> {
    let metric = |name: &str, unit, higher_is_better, bound| EndToEnd {
        name: name.to_string(),
        unit,
        higher_is_better,
        bound,
    };
    let mut v = vec![metric("setup_s", "s", false, SETUP_BOUND)];
    v.extend(
        OPS.iter()
            .map(|op| metric(&format!("{op}_MBps"), "MB/s", true, RATE_BOUND)),
    );
    v.push(metric("stored_bytes_per_user_byte", "B/B", false, 0.001));
    v.push(metric("peak_rss_MB", "MB", false, RSS_BOUND));
    v
}

/// ISSUE 16 asked for a tenth on set-up and on every rate and a
/// twentieth on memory; only the stored ratio has the issue's bound.
/// The benchmark driver accepts a benchmark when two sets of ten runs
/// of one binary spread no wider between quartiles than the bound and
/// their medians lie no farther apart, and asks for a third of the
/// bound as the spread to aim for. On the box this was defined on the
/// rates spread 1–6 % in a quiet set and up to 10 % (`store_small`)
/// when the host changes pace in the middle of one, and `peak_rss_MB`
/// 1–4 % (NOISE.md); the driver's own box is the noisier of the two.
/// So the timed metrics declare the widest bound the driver allows and
/// memory three to four times its spread.
pub const SETUP_BOUND: f64 = 0.25;
pub const RATE_BOUND: f64 = 0.25;
pub const RSS_BOUND: f64 = 0.15;

/// The per-layer rows `layers::measure` produces, with their units.
pub const LAYER_ROWS: [(&str, &str); 37] = [
    ("runtime.memcpy_MBps", "MB/s"),
    ("runtime.xor_kernel_MBps", "MB/s"),
    ("runtime.xor_kernel_unaligned_MBps", "MB/s"),
    ("runtime.exec_enc_MBps", "MB/s"),
    ("runtime.exec_dec2_MBps", "MB/s"),
    ("runtime.exec_enc_paper10MB_MBps", "MB/s"),
    ("optimizer.enc_xors_base_count", "count"),
    ("optimizer.enc_xors_opt_count", "count"),
    ("optimizer.enc_mem_accesses_opt_count", "count"),
    ("optimizer.optimize_ms", "ms"),
    ("core.codec_build_ms", "ms"),
    ("core.decode_compile_ms", "ms"),
    ("core.encode_call_overhead_pct", "%"),
    ("core.update_parity_MBps", "MB/s"),
    ("core.reconstruct_MBps", "MB/s"),
    ("core.verify_MBps", "MB/s"),
    ("core.lrc_encode_MBps", "MB/s"),
    ("core.lrc_local_repair_MBps", "MB/s"),
    ("arraycodes.evenodd_encode_MBps", "MB/s"),
    ("arraycodes.evenodd_decode2_MBps", "MB/s"),
    ("arraycodes.rdp_encode_MBps", "MB/s"),
    ("wire.crc32_MBps", "MB/s"),
    ("wire.sha256_MBps", "MB/s"),
    ("wire.merkle_build_MBps", "MB/s"),
    ("stream.encoder_mem_MBps", "MB/s"),
    ("stream.decoder_mem_MBps", "MB/s"),
    ("stream.fs_share_pct", "%"),
    ("stream.archive_open_ms", "ms"),
    ("store.blob_put_MBps", "MB/s"),
    ("store.blob_get_MBps", "MB/s"),
    ("store.blob_put_4KiB_us", "us"),
    ("store.connect_us", "us"),
    ("store.frame_rtt_us", "us"),
    ("store.node_put_MBps", "MB/s"),
    ("store.node_get_MBps", "MB/s"),
    ("store.put_round_overhead_ms", "ms"),
    ("store.scrub_payload_bytes_read_count", "count"),
];

/// `(name, unit)` of every per-layer metric the traced run reports.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = LAYER_ROWS
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    for op in OPS {
        v.push((format!("e2e.{op}_p50_ms"), "ms"));
        v.push((format!("e2e.{op}_p99_ms"), "ms"));
        v.push((format!("e2e.{op}_median_MBps"), "MB/s"));
    }
    for op in OPS {
        for layer in LAYERS {
            v.push((format!("share.{op}.{layer}_pct"), "%"));
        }
        v.push((format!("share.{op}.unattributed_pct"), "%"));
    }
    v.push(("trace.overhead_pct".into(), "%"));
    for (name, unit) in [
        ("host.ref_spin_ms_fast", "ms"),
        ("host.ref_spin_ms_p50", "ms"),
        ("host.steal_pct", "%"),
        ("host.nproc", "count"),
    ] {
        v.push((name.into(), unit));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    /// `BENCHMARK.json` at the repository root declares exactly what the
    /// code reports: names, units, directions and bounds.
    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse");
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).expect(key).to_string();

        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);

        let declared = list("end_to_end");
        let reported = end_to_end();
        assert_eq!(declared.len(), reported.len());
        for (d, r) in declared.iter().zip(&reported) {
            assert_eq!(text(d, "name"), r.name);
            assert_eq!(text(d, "unit"), r.unit, "{}", r.name);
            assert_eq!(
                text(d, "better") == "higher",
                r.higher_is_better,
                "{}",
                r.name
            );
            assert_eq!(
                d.get("bound").and_then(Json::as_f64),
                Some(r.bound),
                "{}",
                r.name
            );
        }

        let declared: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        let reported: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared, reported);
        assert!(reported.len() <= 128);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = end_to_end().into_iter().map(|m| m.name).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for name in &names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "a metric name is used twice");
    }
}
