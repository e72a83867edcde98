//! Crash-atomicity matrix for generation-keyed writes: a client dying
//! after any k of its n + p shard writes (or just before publishing the
//! manifest) must leave the prior generation byte-exact and
//! degraded-free, and the next scrub's GC pass must sweep the
//! unpublished generation so no node keeps orphaned shard keys.
//! Plus: snapshot reads during a slow re-put never observe a
//! mixed-generation decode, and a crashed repair — of a dead node or of
//! scrub damage — is retryable.

use ec_core::RsConfig;
use ec_store::{
    parse_shard_key, Cluster, FailPoint, NodeClient, NodeHandle, NodeOptions,
};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(5);

/// Loopback nodes with per-node directories, like the cluster-test rig,
/// plus a whole-cluster shard-key census for orphan assertions.
struct Rig {
    root: PathBuf,
    nodes: Vec<Option<NodeHandle>>,
    addrs: Vec<String>,
}

impl Rig {
    fn spawn(tag: &str, count: usize) -> Rig {
        Rig::spawn_with(tag, count, NodeOptions { workers: 2, ..NodeOptions::default() })
    }

    fn spawn_with(tag: &str, count: usize, opts: NodeOptions) -> Rig {
        let root = std::env::temp_dir()
            .join(format!("ec_store_generation_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let nodes: Vec<Option<NodeHandle>> = (0..count)
            .map(|i| {
                Some(
                    NodeHandle::spawn_with(
                        &root.join(format!("node{i}")),
                        "127.0.0.1:0",
                        opts.clone(),
                    )
                    .expect("spawn node"),
                )
            })
            .collect();
        let addrs = nodes
            .iter()
            .map(|n| n.as_ref().unwrap().addr().to_string())
            .collect();
        Rig { root, nodes, addrs }
    }

    fn cluster(&self, n: usize, p: usize) -> Cluster {
        Cluster::new(self.addrs.clone(), RsConfig::new(n, p))
            .unwrap()
            .with_timeout(TIMEOUT)
    }

    fn kill(&mut self, i: usize) {
        if let Some(node) = self.nodes[i].take() {
            node.shutdown();
        }
    }

    fn spawn_replacement(&mut self) -> String {
        let dir = self.root.join(format!("replacement{}", self.nodes.len()));
        let node = NodeHandle::spawn(&dir, "127.0.0.1:0", 2).expect("spawn replacement");
        let addr = node.addr().to_string();
        self.nodes.push(Some(node));
        self.addrs.push(addr.clone());
        addr
    }

    /// Every `s:`-prefixed key on every live node, as sorted
    /// `(addr, key)` pairs — the ground truth for "zero orphans".
    fn shard_keys(&self) -> Vec<(String, String)> {
        self.keys("s:")
    }

    /// Likewise for any key family (`t:` = the shards' hash blobs).
    fn keys(&self, prefix: &str) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if node.is_none() {
                continue;
            }
            let mut c = NodeClient::connect(&self.addrs[i], TIMEOUT).unwrap();
            for key in c.list(prefix).unwrap() {
                out.push((self.addrs[i].clone(), key));
            }
        }
        out.sort();
        out
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        for node in self.nodes.iter_mut().filter_map(Option::take) {
            node.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn sample(len: usize, seed: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 31 + seed * 97 + i / 7) % 251) as u8).collect()
}

fn failpoint(point: &'static str, k: usize) -> FailPoint {
    Arc::new(move |p, i| p == point && i >= k)
}

#[test]
fn aborted_reput_at_every_step_preserves_prior_generation() {
    let (n, p) = (3usize, 2usize);
    let rig = Rig::spawn("put_matrix", n + p);
    let clean = rig.cluster(n, p).with_gc_grace(Duration::ZERO);
    let v1 = sample(64_000, 1);
    let v2 = sample(64_000, 2);
    clean.put("obj", &v1).unwrap();

    let live_keys = rig.shard_keys();
    assert_eq!(live_keys.len(), n + p, "one shard key per node");
    let gens: BTreeSet<u64> = live_keys
        .iter()
        .map(|(_, key)| parse_shard_key(key).expect("parseable shard key").2)
        .collect();
    assert_eq!(gens.len(), 1, "one live generation: {live_keys:?}");

    // Every abort point: die after k of n + p shard writes, and die
    // with all shards written but the manifest unpublished.
    let points: Vec<(&'static str, usize)> = (0..n + p)
        .map(|k| ("put.shard", k))
        .chain([("put.publish", 0)])
        .collect();
    for (point, k) in points {
        let crashing = rig.cluster(n, p).with_failpoint(failpoint(point, k));
        let err = crashing.put("obj", &v2).unwrap_err();
        assert!(
            err.to_string().contains("failpoint"),
            "{point}={k} must abort the put: {err}"
        );

        // The prior generation is untouched: byte-exact, degraded-free.
        let (got, report) = clean.get_with_report("obj").unwrap();
        assert_eq!(got, v1, "{point}={k} corrupted the live generation");
        assert!(!report.degraded(), "{point}={k} left the live generation short");

        // Scrub GC sweeps the unpublished generation (zero grace) and
        // reports it — except at k = 0, where nothing ever landed.
        let scrub = clean.scrub().unwrap();
        assert!(scrub.clean(), "{point}={k}: {scrub:?}");
        if point == "put.shard" && k == 0 {
            assert_eq!(scrub.generations_collected, 0, "{point}={k}");
        } else {
            assert_eq!(scrub.generations_collected, 1, "{point}={k}: {scrub:?}");
            assert!(scrub.bytes_reclaimed > 0, "{point}={k}: {scrub:?}");
        }

        // Zero orphaned shard keys on any node.
        assert_eq!(rig.shard_keys(), live_keys, "{point}={k} left orphans");
    }

    // A re-put with no failpoint still lands, and the generation it
    // supersedes is collected by the following scrub.
    clean.put("obj", &v2).unwrap();
    assert_eq!(clean.get("obj").unwrap(), v2);
    let scrub = clean.scrub().unwrap();
    assert!(scrub.clean(), "{scrub:?}");
    assert_eq!(scrub.generations_collected, 1, "{scrub:?}");
    let keys = rig.shard_keys();
    assert_eq!(keys.len(), n + p);
    assert_ne!(keys, live_keys, "the new generation must use new keys");
}

#[test]
fn aborted_delta_overwrite_preserves_prior_generation() {
    let (n, p) = (3usize, 2usize);
    let rig = Rig::spawn("overwrite_matrix", n + p);
    let clean = rig.cluster(n, p).with_gc_grace(Duration::ZERO);
    let v1 = sample(96_000, 3);
    clean.put("obj", &v1).unwrap();
    let live_keys = rig.shard_keys();
    let live_tree_keys = rig.keys("t:");
    assert_eq!(live_tree_keys.len(), n + p, "one hash blob per shard");

    // Flip bytes inside data shard 0 only: the delta path ships one
    // changed data shard plus both parity shards — three writes.
    let mut v2 = v1.clone();
    for b in &mut v2[..512] {
        *b ^= 0x5A;
    }
    let ships = 1 + p;

    let points: Vec<(&'static str, usize)> = (0..ships)
        .map(|k| ("overwrite.shard", k))
        .chain([("overwrite.publish", 0)])
        .collect();
    for (point, k) in points {
        let crashing = rig.cluster(n, p).with_failpoint(failpoint(point, k));
        crashing.overwrite("obj", &v2).unwrap_err();

        // A crash after k shard writes strands at most k shard/hash
        // pairs: a hash blob trips where its shard does.
        let landed = if point == "overwrite.shard" { k } else { ships };
        for (what, now, live) in [
            ("shard", rig.shard_keys(), &live_keys),
            ("hash blob", rig.keys("t:"), &live_tree_keys),
        ] {
            let stranded = now.iter().filter(|key| !live.contains(key)).count();
            assert_eq!(stranded, landed, "{point}={k} stranded {what} keys: {now:?}");
        }

        let (got, report) = clean.get_with_report("obj").unwrap();
        assert_eq!(got, v1, "{point}={k} corrupted the live generation");
        assert!(!report.degraded(), "{point}={k}");

        let scrub = clean.scrub().unwrap();
        assert!(scrub.clean(), "{point}={k}: {scrub:?}");
        assert_eq!(rig.shard_keys(), live_keys, "{point}={k} left orphans");
        assert_eq!(rig.keys("t:"), live_tree_keys, "{point}={k} left orphan hash blobs");
    }

    // The real overwrite lands; the keys it superseded (changed data +
    // parity — unchanged data shards keep their old keys) are swept.
    clean.overwrite("obj", &v2).unwrap();
    assert_eq!(clean.get("obj").unwrap(), v2);
    let scrub = clean.scrub().unwrap();
    assert!(scrub.clean(), "{scrub:?}");
    assert_eq!(scrub.generations_collected, 1, "{scrub:?}");
    assert!(scrub.bytes_reclaimed > 0);
    let keys = rig.shard_keys();
    assert_eq!(keys.len(), n + p);
    assert_ne!(keys, live_keys);
    // Hash blobs follow their shards: the unchanged data shards' blobs
    // are the very keys the put wrote, the other three are new.
    let tree_keys = rig.keys("t:");
    assert_eq!(tree_keys.len(), n + p);
    let kept = tree_keys.iter().filter(|key| live_tree_keys.contains(key)).count();
    assert_eq!(kept, n - 1, "{tree_keys:?}");
}

#[test]
fn aborted_repair_is_retryable_and_leaves_no_orphans() {
    let mut rig = Rig::spawn("repair_crash", 3);
    let data = sample(40_000, 7);
    let before = {
        let cluster = rig.cluster(2, 1);
        cluster.put("obj", &data).unwrap();
        cluster.manifest("obj").unwrap()
    };
    let dead = rig.addrs[0].clone();
    rig.kill(0);
    let replacement = rig.spawn_replacement();

    // The repair client dies after 0 replacement writes, and again with
    // the replacement written but the manifest unpublished. Either way
    // the published manifest still names the dead node, so reads keep
    // working (degraded through the survivors) and the repair retries.
    for (point, k) in [("repair.shard", 0), ("repair.publish", 0)] {
        let mut crashing = Cluster::new(rig.addrs[..3].to_vec(), RsConfig::new(2, 1))
            .unwrap()
            .with_timeout(TIMEOUT)
            .with_failpoint(failpoint(point, k));
        let report = crashing.repair_node(&dead, &replacement).unwrap();
        assert!(
            !report.failed.is_empty(),
            "{point}={k} must fail the object repair: {report:?}"
        );
        assert_eq!(
            crashing.get("obj").unwrap(),
            data,
            "{point}={k} broke degraded reads"
        );
    }

    // Retry without the failpoint: completes, and the scrub GC leaves
    // exactly one shard key per live node.
    let mut cluster = Cluster::new(rig.addrs[..3].to_vec(), RsConfig::new(2, 1))
        .unwrap()
        .with_timeout(TIMEOUT)
        .with_gc_grace(Duration::ZERO);
    let report = cluster.repair_node(&dead, &replacement).unwrap();
    assert!(report.failed.is_empty(), "{report:?}");
    // The shard moved to another node, so it landed under generation
    // g + 1 and that manifest was published.
    let after = cluster.manifest("obj").unwrap();
    assert_eq!(after.generation, before.generation + 1);
    let moved = after.placement.iter().position(|a| *a == replacement).expect("a moved shard");
    assert_eq!(after.shard_gen[moved], after.generation);
    let (got, read) = cluster.get_with_report("obj").unwrap();
    assert_eq!(got, data);
    assert!(!read.degraded());
    let scrub = cluster.scrub().unwrap();
    assert!(scrub.clean(), "{scrub:?}");
    let keys = rig.shard_keys();
    assert_eq!(keys.len(), 3, "one shard key per live node: {keys:?}");
    for (_, key) in &keys {
        assert_eq!(parse_shard_key(key).expect("parseable").0, "obj");
    }
}

/// A scrub repair is a write path like the others: crashed before its
/// first shard write, it leaves the manifest and the damage exactly as
/// they were, and the retry heals the object in place.
#[test]
fn aborted_object_repair_changes_nothing() {
    let rig = Rig::spawn("object_repair_crash", 3);
    let cluster = rig.cluster(2, 1);
    let data = sample(40_000, 9);
    cluster.put("obj", &data).unwrap();
    let before = cluster.manifest("obj").unwrap();
    let mut node = NodeClient::connect(&before.placement[0], TIMEOUT).unwrap();
    assert!(node.delete(&before.shard_key("obj", 0)).unwrap());

    let crashing = rig.cluster(2, 1).with_failpoint(failpoint("repair.shard", 0));
    let err = crashing.repair_object("obj").unwrap_err();
    assert!(err.to_string().contains("failpoint"), "{err}");
    assert_eq!(cluster.manifest("obj").unwrap(), before);
    let scrub = cluster.scrub().unwrap();
    assert_eq!(scrub.objects[0].damaged(), vec![0], "{scrub:?}");
    assert_eq!(cluster.get("obj").unwrap(), data);

    let report = cluster.repair_object("obj").unwrap();
    assert_eq!(report.repaired, vec![0], "{report:?}");
    assert_eq!(cluster.manifest("obj").unwrap(), before);
    assert!(cluster.scrub().unwrap().clean());
    assert_eq!(cluster.get("obj").unwrap(), data);
}

#[test]
fn snapshot_reads_never_mix_generations() {
    // Shard traffic (prefix `s:`) is slowed on every node so re-puts
    // take long enough for readers to overlap the write window;
    // manifest traffic stays fast.
    let opts = NodeOptions {
        workers: 2,
        response_delay: Some(Duration::from_millis(40)),
        delay_key_prefix: Some("s:".to_string()),
    };
    let rig = Rig::spawn_with("snapshot", 3, opts);
    let cluster = rig.cluster(2, 1);
    let v1 = sample(48_000, 11);
    let v2 = sample(48_000, 22);
    cluster.put("obj", &v1).unwrap();

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (done, addrs, v1, v2) = (&done, rig.addrs.clone(), &v1, &v2);
        s.spawn(move || {
            let reader = Cluster::new(addrs, RsConfig::new(2, 1))
                .unwrap()
                .with_timeout(TIMEOUT);
            let mut reads = 0u32;
            while !done.load(Ordering::Relaxed) {
                let got = reader.get("obj").unwrap();
                assert!(
                    &got == v1 || &got == v2,
                    "mixed-generation read: {} bytes matching neither version",
                    got.len()
                );
                reads += 1;
            }
            assert!(reads > 0, "reader never overlapped the writes");
        });
        // Slow alternating re-puts while the reader hammers the object.
        for _ in 0..3 {
            cluster.put("obj", v2).unwrap();
            cluster.put("obj", v1).unwrap();
        }
        cluster.put("obj", v2).unwrap();
        done.store(true, Ordering::Relaxed);
    });
    assert_eq!(cluster.get("obj").unwrap(), v2);
}
