//! The acceptance scenario of the `ec-store` subsystem, end to end over
//! real sockets: an RS(10, 4) cluster of 14 loopback nodes where
//! killing any 4 nodes still serves correct degraded `get`s, `repair`
//! restores a fully-healthy `scrub`, and a delta `overwrite` is
//! provably cheaper than a full re-put (SLP metrics + program-table
//! introspection).

use xorslp_ec::store::{Cluster, NodeHandle, OverwriteMode};
use xorslp_ec::RsConfig;
use std::path::PathBuf;
use std::time::Duration;

const N: usize = 10;
const P: usize = 4;

struct Fixture {
    root: PathBuf,
    nodes: Vec<Option<NodeHandle>>,
    addrs: Vec<String>,
}

impl Fixture {
    fn spawn(tag: &str) -> Fixture {
        let root = std::env::temp_dir().join(format!(
            "ec_store_e2e_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let nodes: Vec<Option<NodeHandle>> = (0..N + P)
            .map(|i| {
                Some(
                    NodeHandle::spawn(&root.join(format!("node{i}")), "127.0.0.1:0", 2)
                        .expect("spawn node"),
                )
            })
            .collect();
        let addrs = nodes
            .iter()
            .map(|n| n.as_ref().unwrap().addr().to_string())
            .collect();
        Fixture { root, nodes, addrs }
    }

    fn cluster(&self) -> Cluster {
        Cluster::new(self.addrs.clone(), RsConfig::new(N, P))
            .unwrap()
            .with_timeout(Duration::from_secs(5))
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        for node in self.nodes.iter_mut().filter_map(Option::take) {
            node.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn payload(len: usize, seed: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 31 + seed * 131 + i / 11) % 251) as u8).collect()
}

/// Kill-4 patterns spanning the interesting shapes: all-parity,
/// all-data, mixed, the paper's §7.5 decode pattern, and a spread.
const KILL_PATTERNS: [[usize; 4]; 5] = [
    [10, 11, 12, 13], // every parity node
    [0, 1, 2, 3],     // four data nodes
    [2, 5, 11, 13],   // mixed (the storage_cluster example's rack)
    [2, 4, 5, 6],     // the paper's P_dec erasure pattern
    [0, 4, 9, 12],    // spread
];

#[test]
fn rs_10_4_survives_any_four_dead_nodes_and_repairs() {
    let objects: Vec<(String, Vec<u8>)> = (0..3)
        .map(|k| (format!("obj-{k}"), payload(200_000 + 1237 * k, k)))
        .collect();

    for (case, dead_nodes) in KILL_PATTERNS.iter().enumerate() {
        let mut fx = Fixture::spawn(&format!("kill{case}"));
        let mut cluster = fx.cluster();
        for (name, data) in &objects {
            cluster.put(name, data).unwrap();
        }

        // Note: `dead_nodes` indexes the *node list*; which shards that
        // erases differs per object (rendezvous placement), so the five
        // patterns exercise many erasure patterns across the objects.
        for &i in dead_nodes {
            fx.nodes[i].take().expect("node alive").shutdown();
        }

        // Degraded reads: any 10 of 14 live nodes reconstruct exactly.
        for (name, data) in &objects {
            let got = cluster.get(name).unwrap_or_else(|e| {
                panic!("case {case}: degraded get({name}) failed: {e}")
            });
            assert_eq!(&got, data, "case {case}: degraded get({name})");
        }

        // Online repair: each dead node onto a fresh replacement.
        for &i in dead_nodes {
            let dead_addr = fx.addrs[i].clone();
            let dir = fx.root.join(format!("replacement{i}"));
            let node = NodeHandle::spawn(&dir, "127.0.0.1:0", 2).expect("replacement");
            let new_addr = node.addr().to_string();
            fx.nodes.push(Some(node));
            fx.addrs.push(new_addr.clone());
            let report = cluster.repair_node(&dead_addr, &new_addr).unwrap();
            assert!(
                report.failed.is_empty(),
                "case {case}: repair of node {i} failed: {:?}",
                report.failed
            );
        }

        // The cluster is fully healthy again: clean scrub (per-shard
        // CRCs and chunk-wise parity consistency) and non-degraded,
        // byte-exact reads.
        let scrub = cluster.scrub().unwrap();
        assert!(scrub.clean(), "case {case}: scrub after repair: {scrub:?}");
        for (name, data) in &objects {
            let (got, report) = cluster.get_with_report(name).unwrap();
            assert_eq!(&got, data, "case {case}: post-repair get({name})");
            assert!(!report.degraded(), "case {case}: {name} still degraded");
        }
    }
}

#[test]
fn delta_overwrite_is_cheaper_than_full_reput() {
    let fx = Fixture::spawn("delta");
    let cluster = fx.cluster();
    let original = payload(500_000, 7);
    cluster.put("big", &original).unwrap();

    // Touch two shards' worth of bytes out of ten.
    let shard_len = cluster.codec().shard_len(original.len());
    let mut v2 = original.clone();
    v2[0] ^= 0xFF;
    v2[3 * shard_len + 100] ^= 0xFF;
    assert_eq!(cluster.codec().programs(), 0, "no programs yet");
    let report = cluster.overwrite("big", &v2).unwrap();

    assert_eq!(report.mode, OverwriteMode::Delta);
    assert_eq!(report.changed, vec![0, 3]);
    assert_eq!(report.shards_written, 2 + P, "changed shards + parity, not n + p");
    // SLP metrics: the executed column programs cost strictly fewer
    // XORs than the full encode program a re-put would run.
    assert!(
        report.xor_count < report.full_xor_count,
        "delta {} XORs vs full {}",
        report.xor_count,
        report.full_xor_count
    );
    // Table introspection: exactly the two column programs compiled.
    assert_eq!(cluster.codec().programs(), 2);
    assert_eq!(cluster.get("big").unwrap(), v2);
}

#[test]
fn extra_nodes_spread_objects_beyond_n_plus_p() {
    // 16 nodes for n + p = 14: rendezvous placement uses different
    // 14-subsets per object, and everything still reads back.
    let root = std::env::temp_dir().join(format!("ec_store_e2e_spread_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let nodes: Vec<NodeHandle> = (0..16)
        .map(|i| NodeHandle::spawn(&root.join(format!("node{i}")), "127.0.0.1:0", 2).unwrap())
        .collect();
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
    let cluster = Cluster::new(addrs, RsConfig::new(N, P))
        .unwrap()
        .with_timeout(Duration::from_secs(5));
    for k in 0..8 {
        let data = payload(10_000 + k, k);
        cluster.put(&format!("spread-{k}"), &data).unwrap();
        assert_eq!(cluster.get(&format!("spread-{k}")).unwrap(), data);
    }
    assert!(cluster.scrub().unwrap().clean());
    drop(nodes);
    let _ = std::fs::remove_dir_all(&root);
}
