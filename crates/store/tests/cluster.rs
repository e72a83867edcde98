//! Cluster-level failure matrix on a small geometry: degraded reads for
//! every erasure pattern, repair ≡ original bytes, delta overwrites,
//! scrub attribution and node death under concurrent readers.

use ec_core::{CodecSpec, RsConfig};
use ec_store::{
    manifest_key, parse_record, Cluster, GetReport, ManifestRecord, NodeClient, NodeHandle,
    OverwriteMode, ShardHealth, ShardOutcome, StoreError,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(5);

/// A disposable test cluster: `count` loopback nodes with per-node
/// directories, handles retrievable by index for killing.
struct TestCluster {
    root: PathBuf,
    nodes: Vec<Option<NodeHandle>>,
    addrs: Vec<String>,
}

impl TestCluster {
    fn spawn(tag: &str, count: usize) -> TestCluster {
        let root = std::env::temp_dir().join(format!(
            "ec_store_cluster_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let nodes: Vec<Option<NodeHandle>> = (0..count)
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
        TestCluster { root, nodes, addrs }
    }

    fn cluster(&self, n: usize, p: usize) -> Cluster {
        Cluster::new(self.addrs.clone(), RsConfig::new(n, p))
            .unwrap()
            .with_timeout(TIMEOUT)
    }

    /// Kill node `i` (listener closed, in-flight connections dropped).
    fn kill(&mut self, i: usize) {
        if let Some(node) = self.nodes[i].take() {
            node.shutdown();
        }
    }

    /// Spawn a brand-new empty node (a replacement), returning its
    /// address. Its handle joins the managed set.
    fn spawn_replacement(&mut self, tag: &str) -> String {
        let dir = self.root.join(format!("replacement-{tag}-{}", self.nodes.len()));
        let node = NodeHandle::spawn(&dir, "127.0.0.1:0", 2).expect("spawn replacement");
        let addr = node.addr().to_string();
        self.nodes.push(Some(node));
        self.addrs.push(addr.clone());
        addr
    }

    /// Index of the node serving `addr`.
    fn index_of(&self, addr: &str) -> usize {
        self.addrs.iter().position(|a| a == addr).expect("known addr")
    }

    /// Delete the blob under `key` on the node at `addr`: the node
    /// lives, the blob is gone.
    fn lose(&self, addr: &str, key: &str) {
        let mut node = NodeClient::connect(addr, TIMEOUT).unwrap();
        assert!(node.delete(key).unwrap(), "{key} was not on {addr}");
    }

    /// Flip one payload bit of the blob under `key` on the node at
    /// `addr`, in its file, behind the node's back.
    fn rot(&self, addr: &str, key: &str) {
        let hex: String = key.bytes().map(|b| format!("{b:02x}")).collect();
        let path = self
            .root
            .join(format!("node{}", self.index_of(addr)))
            .join(format!("{hex}.blob"));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
    }

    /// Every `s:` key on every live node, as sorted `(addr, key)` pairs.
    fn shard_keys(&self) -> Vec<(String, String)> {
        let mut keys = Vec::new();
        for (addr, _) in self.addrs.iter().zip(&self.nodes).filter(|(_, n)| n.is_some()) {
            let mut node = NodeClient::connect(addr, TIMEOUT).unwrap();
            keys.extend(node.list("s:").unwrap().into_iter().map(|key| (addr.clone(), key)));
        }
        keys.sort();
        keys
    }
}

impl Drop for TestCluster {
    fn drop(&mut self) {
        for node in self.nodes.iter_mut().filter_map(Option::take) {
            node.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn sample_data(len: usize, seed: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + seed * 7 + i / 9) % 251) as u8).collect()
}

#[test]
fn roundtrip_various_sizes() {
    let tc = TestCluster::spawn("sizes", 5);
    let cluster = tc.cluster(3, 2);
    for (k, len) in [0usize, 1, 7, 24, 1000, 100_000].into_iter().enumerate() {
        let name = format!("obj-{len}");
        let data = sample_data(len, k);
        cluster.put(&name, &data).unwrap();
        let (got, report) = cluster.get_with_report(&name).unwrap();
        assert_eq!(got, data, "{name}");
        assert!(!report.degraded(), "{name} should be a healthy read");
    }
    assert_eq!(cluster.objects().unwrap().len(), 6);
    // Delete removes the object everywhere.
    cluster.delete("obj-1000").unwrap();
    assert!(matches!(
        cluster.get("obj-1000"),
        Err(StoreError::NotFound(_))
    ));
    assert_eq!(cluster.objects().unwrap().len(), 5);
}

/// The shard indices a read asked for, in index order.
fn requested(report: &GetReport) -> Vec<usize> {
    (report.shards.iter())
        .filter(|s| !matches!(s.outcome, ShardOutcome::NotRequested))
        .map(|s| s.index)
        .collect()
}

/// A healthy read is served by the data shards alone: the report still
/// has one entry per shard, in index order, and the parity entries say
/// they were never asked for.
#[test]
fn a_healthy_read_fetches_only_the_data_shards() {
    let (n, p) = (4, 2);
    let tc = TestCluster::spawn("datafirst", n + p);
    let cluster = tc.cluster(n, p);
    let data = sample_data(40_000, 3);
    cluster.put("obj", &data).unwrap();
    let (got, report) = cluster.get_with_report("obj").unwrap();
    assert_eq!(got, data);
    assert_eq!(report.shards.len(), n + p);
    for (i, fetch) in report.shards.iter().enumerate() {
        assert_eq!(fetch.index, i, "{report:?}");
        let want_served = i < n;
        match &fetch.outcome {
            ShardOutcome::Served => assert!(want_served, "{report:?}"),
            ShardOutcome::NotRequested => assert!(!want_served, "{report:?}"),
            other => panic!("shard {i}: {other:?}"),
        }
    }
    assert!(!report.degraded());
}

/// A failed data fetch releases exactly the backup the codec's repair
/// plan names — for RS the first surviving parity — and the shard is
/// reported missing.
#[test]
fn a_lost_data_shard_releases_the_parity_its_repair_plan_names() {
    let (n, p) = (4, 2);
    let tc = TestCluster::spawn("backup", n + p);
    let cluster = tc.cluster(n, p);
    for i in 0..n {
        let name = format!("obj-{i}");
        let data = sample_data(40_000, i);
        cluster.put(&name, &data).unwrap();
        let m = cluster.manifest(&name).unwrap();
        tc.lose(&m.placement[i], &m.shard_key(&name, i));
        let (got, report) = cluster.get_with_report(&name).unwrap();
        assert_eq!(got, data, "{name}");
        assert_eq!(report.missing, vec![i], "{report:?}");
        let plan = cluster.codec().repair_sources(&[i]).unwrap();
        let backups: Vec<usize> = plan.into_iter().filter(|&s| s >= n).collect();
        assert_eq!(backups.len(), 1, "{backups:?}");
        let parity: Vec<usize> = requested(&report).into_iter().filter(|&s| s >= n).collect();
        assert_eq!(parity, backups, "{report:?}");
        assert!(matches!(report.shards[backups[0]].outcome, ShardOutcome::Served));
    }
}

/// Under LRC(4, 3, r=2) — groups {0,1} and {2,3}, local parities 4 and
/// 5, global parity 6 — a lost data shard is backed by its own group's
/// local parity, never by a global one.
#[test]
fn an_lrc_read_backs_a_lost_shard_with_its_local_parity() {
    let spec = CodecSpec::lrc(4, 3, 2);
    let tc = TestCluster::spawn("lrcread", 7);
    let cluster = Cluster::with_spec(tc.addrs.clone(), &spec).unwrap().with_timeout(TIMEOUT);
    for i in 0..4 {
        let name = format!("obj-{i}");
        let data = sample_data(30_000, i);
        cluster.put(&name, &data).unwrap();
        let m = cluster.manifest(&name).unwrap();
        tc.lose(&m.placement[i], &m.shard_key(&name, i));
        let (got, report) = cluster.get_with_report(&name).unwrap();
        assert_eq!(got, data, "{name}");
        assert_eq!(report.missing, vec![i], "{report:?}");
        let parity: Vec<usize> = requested(&report).into_iter().filter(|&s| s >= 4).collect();
        assert_eq!(parity, vec![4 + i / 2], "{report:?}");
    }
}

/// A read that rebuilt deleted data shards says so, every time: a
/// backup goes out only after the failure it covers has settled, so the
/// read can never complete with the deleted shards merely outstanding.
#[test]
fn a_read_around_deleted_data_shards_reports_them_missing() {
    let tc = TestCluster::spawn("deleted", 14);
    let cluster = tc.cluster(10, 4);
    let data = sample_data(200_000, 7);
    cluster.put("obj", &data).unwrap();
    let m = cluster.manifest("obj").unwrap();
    for i in [0, 1] {
        tc.lose(&m.placement[i], &m.shard_key("obj", i));
    }
    for read in 0..50 {
        let (got, report) = cluster.get_with_report("obj").unwrap();
        assert_eq!(got, data, "read {read}");
        assert_eq!(report.missing, vec![0, 1], "read {read}: {report:?}");
        assert!(report.degraded(), "read {read}");
    }
}

/// A degraded read compiles one decode program per distinct lost-data
/// set its release hook planned. With both data shards of RS(2, 3)
/// deleted the hook plans the first failure alone, then both; the
/// decode, missing the parity it never asked for as well, reads what
/// the plan for both reads and shares that program. (With n = 2 no data
/// majority can arrive, so no straggler joins a plan.)
#[test]
fn a_degraded_read_compiles_one_program_per_lost_data_set() {
    let tc = TestCluster::spawn("oneprogram", 5);
    let cluster = tc.cluster(2, 3);
    let data = sample_data(30_000, 3);
    cluster.put("obj", &data).unwrap();
    let m = cluster.manifest("obj").unwrap();
    for i in [0, 1] {
        tc.lose(&m.placement[i], &m.shard_key("obj", i));
    }
    let (got, report) = cluster.get_with_report("obj").unwrap();
    assert_eq!(got, data);
    assert_eq!(report.missing, vec![0, 1], "{report:?}");
    assert_eq!(requested(&report), vec![0, 1, 2, 3], "{report:?}");
    let programs = cluster.codec().programs();
    assert!((1..=2).contains(&programs), "{programs} programs");
    // The plan for {0, 1} and the decode of {0, 1, 4} are one program.
    cluster.codec().repair_sources(&[0, 1]).unwrap();
    assert_eq!(cluster.codec().programs(), programs);
}

#[test]
fn invalid_arguments_are_typed() {
    let tc = TestCluster::spawn("args", 3);
    // Too few nodes for the geometry.
    assert!(matches!(
        Cluster::new(tc.addrs.clone(), RsConfig::new(3, 2)),
        Err(StoreError::InvalidArg(_))
    ));
    // Duplicate membership.
    let mut dup = tc.addrs.clone();
    dup.push(dup[0].clone());
    assert!(matches!(
        Cluster::new(dup, RsConfig::new(2, 1)),
        Err(StoreError::InvalidArg(_))
    ));
    let cluster = tc.cluster(2, 1);
    assert!(matches!(cluster.put("", b"x"), Err(StoreError::InvalidArg(_))));
    assert!(matches!(
        cluster.put(&"x".repeat(200), b"x"),
        Err(StoreError::InvalidArg(_))
    ));
    assert!(matches!(cluster.get("absent"), Err(StoreError::NotFound(_))));
}

/// The full failure matrix on RS(3, 2) over 5 nodes: for **every** pair
/// of dead nodes, degraded reads return the exact bytes, and repairing
/// both nodes onto fresh replacements restores a fully healthy cluster
/// whose shards byte-compare through a clean scrub.
#[test]
fn every_double_failure_reads_and_repairs() {
    let objects: Vec<(String, Vec<u8>)> = (0..4)
        .map(|k| (format!("obj-{k}"), sample_data(10_000 + 997 * k, k)))
        .collect();
    for a in 0..5 {
        for b in (a + 1)..5 {
            let mut tc = TestCluster::spawn(&format!("matrix{a}{b}"), 5);
            let mut cluster = tc.cluster(3, 2);
            for (name, data) in &objects {
                cluster.put(name, data).unwrap();
            }
            tc.kill(a);
            tc.kill(b);
            // Degraded reads: any 3 of 5 nodes suffice.
            for (name, data) in &objects {
                let (got, _report) = cluster.get_with_report(name).unwrap();
                assert_eq!(&got, data, "degraded read of {name}, dead {a},{b}");
            }
            // Repair both dead nodes onto fresh replacements.
            for dead_idx in [a, b] {
                let dead_addr = tc.addrs[dead_idx].clone();
                let replacement = tc.spawn_replacement(&format!("{dead_idx}"));
                let report = cluster.repair_node(&dead_addr, &replacement).unwrap();
                assert!(report.failed.is_empty(), "dead {a},{b}: {:?}", report.failed);
            }
            // Fully healthy again: clean scrub and healthy reads.
            let scrub = cluster.scrub().unwrap();
            assert!(scrub.clean(), "dead {a},{b}: {scrub:?}");
            for (name, data) in &objects {
                let (got, report) = cluster.get_with_report(name).unwrap();
                assert_eq!(&got, data, "post-repair read of {name}");
                assert!(!report.degraded(), "post-repair read must be healthy");
            }
        }
    }
}

#[test]
fn node_death_mid_read_falls_back_to_degraded() {
    let mut tc = TestCluster::spawn("middeath", 6);
    let cluster = Arc::new(tc.cluster(4, 2));
    let objects: Vec<(String, Vec<u8>)> = (0..6)
        .map(|k| (format!("obj-{k}"), sample_data(50_000 + k, k)))
        .collect();
    for (name, data) in &objects {
        cluster.put(name, data).unwrap();
    }
    // 8 reader threads loop over every object while two nodes die under
    // them. Some reads observe the node mid-connection (EOF/reset),
    // some get refused connections — every single read must still
    // return the exact bytes.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..8)
        .map(|t| {
            let cluster = cluster.clone();
            let objects = objects.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut reads = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let (name, data) = &objects[(reads + t) % objects.len()];
                    let got = cluster.get(name).unwrap_or_else(|e| {
                        panic!("reader {t}: get({name}) failed: {e}")
                    });
                    assert_eq!(&got, data, "reader {t}: {name}");
                    reads += 1;
                }
                reads
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));
    tc.kill(1);
    std::thread::sleep(Duration::from_millis(150));
    tc.kill(4);
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    let total: usize = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(total > 0, "readers made no progress");
}

#[test]
fn delta_overwrite_ships_less_and_proves_it() {
    let tc = TestCluster::spawn("delta", 6);
    let cluster = tc.cluster(4, 2);
    let original = sample_data(64 * 1024, 1);
    cluster.put("doc", &original).unwrap();
    let baseline_programs = cluster.codec().programs();

    // Change one shard's worth of bytes: a delta overwrite.
    let shard_len = cluster.codec().shard_len(original.len());
    let mut v2 = original.clone();
    for b in &mut v2[..shard_len / 2] {
        *b ^= 0xA5;
    }
    let report = cluster.overwrite("doc", &v2).unwrap();
    assert_eq!(report.mode, OverwriteMode::Delta);
    assert_eq!(report.changed, vec![0]);
    assert_eq!(report.shards_written, 1 + 2); // one data shard + p parity
    // ... and read no more than it shipped: the old bytes of the one
    // changed shard and the parity it updates, not the object.
    assert_eq!(report.shards_read, 1 + 2);
    // The SLP metrics prove the delta is strictly cheaper than a full
    // re-encode, and the program table proves the column program path
    // actually ran.
    assert!(
        report.xor_count < report.full_xor_count,
        "{} XORs vs full {}",
        report.xor_count,
        report.full_xor_count
    );
    assert!(cluster.codec().programs() > baseline_programs);
    assert_eq!(cluster.get("doc").unwrap(), v2);

    // Unchanged content: nothing ships.
    let report = cluster.overwrite("doc", &v2).unwrap();
    assert_eq!(report.mode, OverwriteMode::NoChange);
    assert_eq!((report.shards_written, report.shards_read), (0, 0));

    // A size change forces the full path.
    let v3 = sample_data(96 * 1024, 3);
    let report = cluster.overwrite("doc", &v3).unwrap();
    assert_eq!(report.mode, OverwriteMode::Full);
    assert_eq!(report.shards_read, 0);
    assert_eq!(cluster.get("doc").unwrap(), v3);

    // Overwrite of a nonexistent object degrades to a plain put.
    let report = cluster.overwrite("fresh", &original).unwrap();
    assert_eq!(report.mode, OverwriteMode::Full);
    assert_eq!(cluster.get("fresh").unwrap(), original);
}

/// A delta overwrite and a fresh put of the same bytes must agree on
/// every integrity field of the manifest: the delta path updates only
/// the indices it touched, so a stale or mis-indexed root would show
/// here — and in the deep scrub, which re-reads every shard and
/// re-encodes parity.
#[test]
fn delta_overwrite_matches_a_fresh_put() {
    let geometries = [
        ("rs", CodecSpec::rs(10, 4), 1usize << 20),
        ("lrc", CodecSpec::lrc(4, 3, 2), 600_000),
    ];
    for (tag, spec, len) in geometries {
        let nodes = spec.data_shards + spec.parity_shards;
        let (a_nodes, b_nodes) = (
            TestCluster::spawn(&format!("deltaeq_a_{tag}"), nodes),
            TestCluster::spawn(&format!("deltaeq_b_{tag}"), nodes),
        );
        let open = |tc: &TestCluster| {
            Cluster::with_spec(tc.addrs.clone(), &spec).unwrap().with_timeout(TIMEOUT)
        };
        let (a, b) = (open(&a_nodes), open(&b_nodes));
        let mut model = sample_data(len, 5);
        a.put("obj", &model).unwrap();
        let shard_len = a.codec().shard_len(len);

        // Seeded ranges: leaf-aligned 64 KiB, one byte, a few hundred
        // bytes across a shard boundary, and up to two shards' worth
        // anywhere. Every byte of a range changes (XOR with non-zero),
        // so the changed shards are exactly the ones it overlaps.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ len as u64;
        let mut next = |below: usize| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize % below
        };
        for round in 0..8 {
            let (at, range) = match round % 4 {
                0 => (next(len / 65_536) * 65_536, 65_536),
                1 => (next(len), 1),
                2 => ((1 + next(spec.data_shards - 1)) * shard_len - 100, 300),
                _ => {
                    let range = 1 + next(2 * shard_len);
                    (next(len - range), range)
                }
            };
            for byte in &mut model[at..at + range] {
                *byte ^= 1 + next(255) as u8;
            }
            let what = format!("{tag} round {round}: {range} bytes at {at}");
            let touched: Vec<usize> = (at / shard_len..=(at + range - 1) / shard_len).collect();

            let report = a.overwrite("obj", &model).unwrap();
            assert_eq!(report.mode, OverwriteMode::Delta, "{what}");
            assert_eq!(report.changed, touched, "{what}");
            assert_eq!(report.shards_read, touched.len() + spec.parity_shards, "{what}");
            b.put("obj", &model).unwrap();

            let (delta, fresh) = (a.manifest("obj").unwrap(), b.manifest("obj").unwrap());
            assert_eq!(delta.shard_root, fresh.shard_root, "{what}");
            assert_eq!(delta.shard_crc, fresh.shard_crc, "{what}");
            assert_eq!(delta.object_root, fresh.object_root, "{what}");
            assert_eq!(delta.object_len, fresh.object_len, "{what}");
            assert_eq!(a.get("obj").unwrap(), model, "{what}");
            let deep = a.scrub_deep().unwrap();
            assert!(deep.clean(), "{what}: {deep:?}");
        }
    }
}

/// The trade the root-based change detection makes: an overwrite reads
/// only the shards it changes (and parity), so damage to an *unchanged*
/// data shard neither stops the delta nor is noticed by it — the next
/// scrub names it. Damage to anything the delta must read still forces
/// the full path, which heals it by rewriting everything.
#[test]
fn delta_overwrite_reads_only_what_it_changes() {
    let (n, p) = (4usize, 2usize);
    let original = sample_data(64 * 1024, 2);
    let mut v2 = original.clone();
    for b in &mut v2[..100] {
        *b ^= 0x3C; // data shard 0 only
    }

    // Damage to unchanged data shard 2: lost, or rotten.
    for (case, rotten) in [("unchanged_lost", false), ("unchanged_rotten", true)] {
        let tc = TestCluster::spawn(case, n + p);
        let cluster = tc.cluster(n, p);
        cluster.put("doc", &original).unwrap();
        let before = cluster.manifest("doc").unwrap();
        let (addr, key) = (&before.placement[2], before.shard_key("doc", 2));
        if rotten {
            tc.rot(addr, &key);
        } else {
            tc.lose(addr, &key);
        }

        let report = cluster.overwrite("doc", &v2).unwrap();
        assert_eq!(report.mode, OverwriteMode::Delta, "{case}");
        assert_eq!(report.changed, vec![0], "{case}");
        let (got, read) = cluster.get_with_report("doc").unwrap();
        assert_eq!(got, v2, "{case}");
        assert_eq!(read.missing, vec![2], "{case}");
        // The damaged shard kept its key and generation: it is still
        // the put's shard, and scrub finds it there.
        let after = cluster.manifest("doc").unwrap();
        assert_eq!(after.shard_gen[2], before.generation, "{case}");
        let scrub = cluster.scrub().unwrap();
        assert_eq!(scrub.objects.len(), 1, "{case}");
        assert_eq!(scrub.objects[0].damaged(), vec![2], "{case}: {scrub:?}");
        let health = &scrub.objects[0].shards[2];
        if rotten {
            assert!(matches!(health, ShardHealth::Corrupt(_)), "{case}: {health:?}");
        } else {
            assert!(matches!(health, ShardHealth::Missing(_)), "{case}: {health:?}");
        }
    }

    // Damage to the changed data shard 0, or to parity shard n + 1: the
    // read-modify-write cannot run, the whole object is re-put.
    for (case, shard, rotten) in [("changed_lost", 0, false), ("parity_rotten", n + 1, true)] {
        let tc = TestCluster::spawn(case, n + p);
        let cluster = tc.cluster(n, p);
        cluster.put("doc", &original).unwrap();
        let before = cluster.manifest("doc").unwrap();
        let (addr, key) = (&before.placement[shard], before.shard_key("doc", shard));
        if rotten {
            tc.rot(addr, &key);
        } else {
            tc.lose(addr, &key);
        }

        let report = cluster.overwrite("doc", &v2).unwrap();
        assert_eq!(report.mode, OverwriteMode::Full, "{case}");
        assert_eq!((report.shards_written, report.shards_read), (n + p, 0), "{case}");
        let (got, read) = cluster.get_with_report("doc").unwrap();
        assert_eq!(got, v2, "{case}");
        assert!(!read.degraded(), "{case}");
        assert!(cluster.scrub().unwrap().clean(), "{case}");
    }
}

/// Two objects that differ only in how many trailing zeros are content
/// and how many are padding have the same shards: the overwrite ships
/// nothing and republishes the manifest with the new length.
#[test]
fn padding_collision_overwrite_republishes_only_the_manifest() {
    let tc = TestCluster::spawn("padding", 6);
    let cluster = tc.cluster(4, 2);
    let short = sample_data(1000, 6);
    let mut long = short.clone();
    long.push(0);
    assert_eq!(cluster.codec().split_data(&short), cluster.codec().split_data(&long));
    cluster.put("doc", &short).unwrap();
    let before = cluster.manifest("doc").unwrap();

    let report = cluster.overwrite("doc", &long).unwrap();
    assert_eq!(report.mode, OverwriteMode::NoChange);
    assert_eq!(report.changed, Vec::<usize>::new());
    assert_eq!((report.shards_written, report.shards_read), (0, 0));
    let after = cluster.manifest("doc").unwrap();
    assert_eq!(after.generation, before.generation + 1);
    assert_eq!(after.object_len, 1001);
    // Every shard is still the put's: same keys, same roots.
    assert_eq!(after.shard_gen, before.shard_gen);
    assert_eq!(after.shard_root, before.shard_root);
    assert_eq!(after.object_root, before.object_root);
    assert_eq!(cluster.get("doc").unwrap(), long);
    assert!(cluster.scrub().unwrap().clean());

    // The same bytes again: not even the manifest moves.
    let report = cluster.overwrite("doc", &long).unwrap();
    assert_eq!(report.mode, OverwriteMode::NoChange);
    assert_eq!(cluster.manifest("doc").unwrap().generation, after.generation);
}

#[test]
fn scrub_attributes_and_repairs_bit_rot() {
    let tc = TestCluster::spawn("scrub", 5);
    let cluster = tc.cluster(3, 2);
    let data = sample_data(40_000, 9);
    cluster.put("victim", &data).unwrap();
    assert!(cluster.scrub().unwrap().clean());
    let before = cluster.manifest("victim").unwrap();
    let keys = tc.shard_keys();

    // Rot one shard blob on disk, behind the node's back: find it by
    // scanning the node directories for a shard-sized blob.
    let mut rotted = 0;
    'outer: for i in 0..5 {
        let dir = tc.root.join(format!("node{i}"));
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "blob") {
                let bytes = std::fs::read(&path).unwrap();
                if bytes.len() > 1000 {
                    // a shard, not a manifest
                    let mut bad = bytes;
                    let mid = bad.len() / 2;
                    bad[mid] ^= 1;
                    std::fs::write(&path, &bad).unwrap();
                    rotted += 1;
                    break 'outer;
                }
            }
        }
    }
    assert_eq!(rotted, 1, "no shard blob found to corrupt");

    // Scrub attributes the damage to exactly one shard, as Corrupt.
    let report = cluster.scrub().unwrap();
    assert!(!report.clean());
    let damaged = report.damaged_objects();
    assert_eq!(damaged.len(), 1);
    let object = damaged[0];
    let bad: Vec<usize> = object.damaged();
    assert_eq!(bad.len(), 1, "{object:?}");
    assert!(
        matches!(object.shards[bad[0]], ShardHealth::Corrupt(_)),
        "{object:?}"
    );

    // Reads never served the rot (degraded around it), and
    // scrub_and_repair heals it in place.
    assert_eq!(cluster.get("victim").unwrap(), data);
    let (_, repairs) = cluster.scrub_and_repair().unwrap();
    assert_eq!(repairs.len(), 1);
    assert_eq!(repairs[0].1.as_ref().unwrap().repaired, bad);
    assert!(cluster.scrub().unwrap().clean());
    // In place: the same generation, the same shard keys, no new one.
    let after = cluster.manifest("victim").unwrap();
    assert_eq!((after.generation, &after.shard_gen), (before.generation, &before.shard_gen));
    assert_eq!(tc.shard_keys(), keys);
}

#[test]
fn restarted_empty_node_repairs_in_place() {
    let mut tc = TestCluster::spawn("restart", 4);
    let mut cluster = tc.cluster(2, 2);
    let data = sample_data(30_000, 4);
    cluster.put("obj", &data).unwrap();
    let before = cluster.manifest("obj").unwrap();
    // Kill a node and wipe its directory (disk replaced), then restart
    // it on the same address.
    let idx = tc.index_of(&cluster.nodes()[0].clone());
    let addr = tc.addrs[idx].clone();
    tc.kill(idx);
    let dir = tc.root.join(format!("node{idx}"));
    std::fs::remove_dir_all(&dir).unwrap();
    // Rebinding the same port right after close works because no
    // lingering server-side connection holds it (clients closed first).
    let node = NodeHandle::spawn(&dir, &addr, 2).expect("restart node");
    tc.nodes[idx] = Some(node);

    // Same-address repair: `--dead X` without a replacement.
    let report = cluster.repair_node(&addr, &addr).unwrap();
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert_eq!(report.shards_rebuilt, 1);
    // The shard went back under its live keys: no shard moved, so the
    // generation stands and the restarted node holds the manifest again.
    assert_eq!(cluster.manifest("obj").unwrap().generation, before.generation);
    let mut node = NodeClient::connect(&addr, TIMEOUT).unwrap();
    let copy = parse_record(&node.get(&manifest_key("obj")).unwrap()).unwrap();
    assert_eq!(copy, ManifestRecord::Live(before));
    assert!(cluster.scrub().unwrap().clean());
    assert_eq!(cluster.get("obj").unwrap(), data);
}

/// `Cluster` is shared across client threads behind an `Arc`.
const _: fn() = || {
    fn shared<T: Send + Sync>() {}
    shared::<Cluster>();
};

/// Every IPv4 TCP socket on this host whose remote end is the loopback
/// `port`, as `(local port, state)` — the client ends of connections to
/// the node serving it (`/proc/net/tcp`; states: 01 established,
/// 08 close-wait, 04/05 fin-wait, 06 time-wait). The table is not read
/// atomically, and other tests' sockets come and go while it is, so it
/// is read until two reads agree.
fn sockets_to(port: u16) -> Vec<(u16, u8)> {
    let port_of = |end: &str| u16::from_str_radix(end.rsplit(':').next().unwrap(), 16).unwrap();
    let read = || -> Vec<(u16, u8)> {
        let table = std::fs::read_to_string("/proc/net/tcp").expect("/proc/net/tcp");
        let sockets: std::collections::BTreeSet<_> = (table.lines().skip(1))
            .filter_map(|line| {
                let fields: Vec<&str> = line.split_whitespace().collect();
                let state = u8::from_str_radix(fields[3], 16).unwrap();
                (port_of(fields[2]) == port).then(|| (port_of(fields[1]), state))
            })
            .collect();
        sockets.into_iter().collect()
    };
    let mut last = read();
    loop {
        match read() {
            now if now == last => return now,
            now => last = now,
        }
    }
}

fn port(addr: &str) -> u16 {
    addr.rsplit(':').next().unwrap().parse().unwrap()
}

/// Connections this host holds open to `port`: established, or closed
/// by the node and not yet by the client.
fn held_open(port: u16) -> Vec<u16> {
    (sockets_to(port).into_iter())
        .filter(|&(_, state)| matches!(state, 0x01 | 0x08))
        .map(|(local, _)| local)
        .collect()
}

/// A node restarted empty at its address between two operations: the
/// connection the cluster kept to it is found closed and dropped, the
/// next `get` dials the node once, and decodes around its lost shard.
#[test]
fn a_node_restarted_empty_is_redialed_once_by_the_next_get() {
    let mut tc = TestCluster::spawn("restartget", 4);
    let cluster = tc.cluster(2, 2);
    let data = sample_data(30_000, 6);
    cluster.put("obj", &data).unwrap();
    let addr = cluster.manifest("obj").unwrap().placement[0].clone();
    let idx = tc.index_of(&addr);
    let kept = held_open(port(&addr));
    assert_eq!(kept.len(), 1, "the cluster keeps one connection per node");

    tc.kill(idx);
    let dir = tc.root.join(format!("node{idx}"));
    std::fs::remove_dir_all(&dir).unwrap();
    tc.nodes[idx] = Some(NodeHandle::spawn(&dir, &addr, 2).expect("restart node"));
    // Closed connections to the port linger in time-wait — earlier
    // users of it, and the wake-ups the node's shutdown sends its own
    // loops — so only sockets that change from here on are the get's.
    let before = sockets_to(port(&addr));

    let (got, report) = cluster.get_with_report("obj").unwrap();
    assert_eq!(got, data);
    assert_eq!(report.missing, vec![0], "{report:?}");
    let dialed: Vec<(u16, u8)> = (sockets_to(port(&addr)).into_iter())
        .filter(|socket| !before.contains(socket) && !kept.contains(&socket.0))
        .collect();
    assert_eq!(dialed.len(), 1, "one redial, and it is kept: {dialed:?}");
    assert_eq!(held_open(port(&addr)), vec![dialed[0].0]);
}

/// Eight threads sharing one cluster each dial what they do not find
/// kept; when they are done the cluster keeps one connection per node.
#[test]
fn threads_sharing_a_cluster_leave_one_kept_connection_per_node() {
    let tc = TestCluster::spawn("sharedpool", 6);
    let cluster = Arc::new(tc.cluster(4, 2));
    let workers: Vec<_> = (0..8)
        .map(|t| {
            let cluster = cluster.clone();
            std::thread::spawn(move || {
                for k in 0..6 {
                    let (name, data) = (format!("obj-{t}-{k}"), sample_data(5_000 + k, t));
                    cluster.put(&name, &data).unwrap();
                    assert_eq!(cluster.get(&name).unwrap(), data, "{name}");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("worker");
    }
    for addr in &tc.addrs {
        assert_eq!(held_open(port(addr)).len(), 1, "{addr}: {:?}", sockets_to(port(addr)));
    }
    drop(cluster);
    for addr in &tc.addrs {
        assert_eq!(held_open(port(addr)), Vec::<u16>::new(), "{addr}: closed with the cluster");
    }
}

/// A shard that did not land never enters the map: a damaged shard
/// whose node left the membership is rebuilt for the best spare member,
/// and when that member does not take it, the repair reports it
/// unplaced and publishes nothing.
#[test]
fn an_unplaced_shard_is_never_published() {
    let mut tc = TestCluster::spawn("unplaced", 4);
    let open = |members: &[String]| {
        Cluster::new(members.to_vec(), RsConfig::new(2, 1)).unwrap().with_timeout(TIMEOUT)
    };
    let old = open(&tc.addrs[..3]);
    old.put("obj", &sample_data(20_000, 8)).unwrap();
    let before = old.manifest("obj").unwrap();
    let i = before.placement.iter().position(|a| *a == tc.addrs[0]).expect("A holds a shard");
    tc.lose(&tc.addrs[0], &before.shard_key("obj", i));
    tc.kill(3);

    let cluster = open(&tc.addrs[1..]);
    let report = cluster.repair_object("obj").unwrap();
    assert_eq!(report.unplaced, vec![i], "{report:?}");
    assert!(report.repaired.is_empty(), "{report:?}");
    let after = cluster.manifest("obj").unwrap();
    assert_eq!((after.placement, after.generation), (before.placement, before.generation));
}

#[test]
fn delete_survives_a_partitioned_node_rejoining() {
    let mut tc = TestCluster::spawn("tombstone", 4);
    let cluster = tc.cluster(2, 1);
    cluster.put("ghost", &sample_data(10_000, 3)).unwrap();
    // One node sleeps through the delete (killed, disk intact).
    let slept = 3;
    let slept_addr = tc.addrs[slept].clone();
    tc.kill(slept);
    cluster.delete("ghost").unwrap();
    assert!(matches!(cluster.get("ghost"), Err(StoreError::NotFound(_))));

    // The node rejoins with its stale manifest replica (and possibly a
    // stale shard). The tombstone outvotes it: the object stays
    // deleted, the listing stays empty, and scrub stays clean instead
    // of wedging on an unreconstructable ghost.
    let node = NodeHandle::spawn(
        &tc.root.join(format!("node{slept}")),
        &slept_addr,
        2,
    )
    .expect("rejoin");
    tc.nodes[slept] = Some(node);
    assert!(
        matches!(cluster.get("ghost"), Err(StoreError::NotFound(_))),
        "stale replica resurrected a deleted object"
    );
    assert_eq!(cluster.objects().unwrap(), Vec::<String>::new());
    assert!(cluster.scrub().unwrap().clean());

    // A re-put resurrects cleanly, outvoting the tombstone in turn.
    let v2 = sample_data(8_000, 4);
    cluster.put("ghost", &v2).unwrap();
    assert_eq!(cluster.get("ghost").unwrap(), v2);
    assert_eq!(cluster.objects().unwrap(), vec!["ghost".to_string()]);
    assert!(cluster.scrub().unwrap().clean());
}

#[test]
fn rotted_manifests_are_not_reported_as_absent() {
    use ec_store::{manifest_key, NodeClient};
    let tc = TestCluster::spawn("manifestrot", 4);
    let cluster = tc.cluster(2, 1);
    cluster.put("obj", &sample_data(5000, 1)).unwrap();
    // Overwrite every manifest replica with garbage (valid blob frames,
    // invalid manifest bytes): the object is rotted, not absent.
    for addr in &tc.addrs {
        let mut c = NodeClient::connect(addr, TIMEOUT).unwrap();
        c.put(&manifest_key("obj"), b"not a manifest").unwrap();
    }
    match cluster.get("obj") {
        Err(StoreError::Manifest(_)) => {}
        other => panic!("expected Manifest rot error, got {other:?}"),
    }
}

#[test]
fn repair_node_is_retryable_after_membership_swap() {
    let mut tc = TestCluster::spawn("retry", 4);
    let mut cluster = tc.cluster(2, 1);
    let data = sample_data(20_000, 5);
    cluster.put("obj", &data).unwrap();
    let dead_addr = tc.addrs[1].clone();
    tc.kill(1);
    let replacement = tc.spawn_replacement("r");
    cluster.repair_node(&dead_addr, &replacement).unwrap();
    // Re-running the same repair (membership already swapped) is a
    // valid retry, not an InvalidArg — it rescans and finds nothing to
    // do.
    let report = cluster.repair_node(&dead_addr, &replacement).unwrap();
    assert!(report.failed.is_empty());
    assert_eq!(report.shards_rebuilt, 0, "second pass must be a no-op");
    assert!(cluster.scrub().unwrap().clean());
    assert_eq!(cluster.get("obj").unwrap(), data);
}

#[test]
fn scrub_gc_reclaims_orphans_after_membership_change() {
    use ec_store::NodeClient;
    // Six nodes; membership A = {0..4}, membership B = {1..5}. An
    // object placed (partly) on node 0 under A is re-put under B:
    // node 0 is no longer a member but still reachable, and the prior
    // manifest names it. The re-put deliberately leaves the prior
    // generation in place (snapshot readers may still hold it); a
    // union-membership scrub with zero GC grace must then collect the
    // stale shard.
    let tc = TestCluster::spawn("orphans", 6);
    let cluster_a = Cluster::new(tc.addrs[..5].to_vec(), RsConfig::new(2, 2))
        .unwrap()
        .with_timeout(TIMEOUT);
    let cluster_b = Cluster::new(tc.addrs[1..].to_vec(), RsConfig::new(2, 2))
        .unwrap()
        .with_timeout(TIMEOUT);
    let node0 = &tc.addrs[0];
    let shard_of = |name: &str| -> bool {
        let mut c = NodeClient::connect(node0, TIMEOUT).unwrap();
        c.list("s:").unwrap().iter().any(|key| key.ends_with(name))
    };
    // Find an object whose A-placement includes node 0 (4 of 5 nodes
    // host each object, so almost any name works).
    let mut chosen = None;
    for k in 0..32 {
        let name = format!("orph-{k}");
        cluster_a.put(&name, &sample_data(10_000, k)).unwrap();
        if shard_of(&name) {
            chosen = Some(name);
            break;
        }
        cluster_a.delete(&name).unwrap();
    }
    let name = chosen.expect("no object landed on node 0");

    let v2 = sample_data(10_000, 99);
    cluster_b.put(&name, &v2).unwrap();
    assert!(
        shard_of(&name),
        "re-put must leave the prior generation in place for snapshot readers"
    );
    assert_eq!(cluster_b.get(&name).unwrap(), v2);

    // A scrub over the union membership sees the winning (B) manifest,
    // finds node 0's shard unreferenced by it, and collects it.
    let gc_cluster = Cluster::new(tc.addrs.clone(), RsConfig::new(2, 2))
        .unwrap()
        .with_timeout(TIMEOUT)
        .with_gc_grace(Duration::ZERO);
    let report = gc_cluster.scrub().unwrap();
    assert!(
        report.generations_collected >= 1,
        "scrub GC must report the superseded generation: {report:?}"
    );
    assert!(report.bytes_reclaimed > 0);
    assert!(
        !shard_of(&name),
        "stale shard on the reachable ex-member must be collected by scrub GC"
    );
    assert_eq!(cluster_b.get(&name).unwrap(), v2);
}

/// Locality in action: under LRC(4, 3, r=2) — groups {0,1} and {2,3},
/// local XOR parities at 4 and 5, a global RS row at 6 — repairing a
/// node that held one data shard must fetch only the shard's locality
/// group (its partner + the group parity: 2 shards), not the any-`n`
/// floor of 4 survivors. `bytes_read` is the proof, and the program
/// table proves the subset program actually ran.
#[test]
fn lrc_repair_node_reads_only_the_local_group() {
    let mut tc = TestCluster::spawn("lrcrepair", 7);
    let mut cluster = Cluster::with_spec(tc.addrs.clone(), &CodecSpec::lrc(4, 3, 2))
        .unwrap()
        .with_timeout(TIMEOUT);
    let data = sample_data(40_000, 6);
    cluster.put("obj", &data).unwrap();
    let shard_len = cluster.codec().shard_len(data.len()) as u64;

    // Kill the node holding data shard 0 (7 shards over 7 nodes: it
    // holds nothing else).
    let dead_addr = cluster.manifest("obj").unwrap().placement[0].clone();
    tc.kill(tc.index_of(&dead_addr));
    let baseline_programs = cluster.codec().programs();

    let replacement = tc.spawn_replacement("lrc");
    let report = cluster.repair_node(&dead_addr, &replacement).unwrap();
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert_eq!(report.shards_rebuilt, 1);
    assert_eq!(report.bytes_rebuilt, shard_len);
    assert_eq!(
        report.bytes_read,
        2 * shard_len,
        "repair must read exactly the locality group, not {} any-n bytes",
        4 * shard_len
    );
    // The group-subset decode program was compiled into the table.
    assert!(cluster.codec().programs() > baseline_programs);
    assert!(cluster.scrub().unwrap().clean());
    assert_eq!(cluster.get("obj").unwrap(), data);
}

/// The manifest records the codec, and a cluster configured with a
/// different family — same (n, p)! — is refused with a typed error
/// instead of decoding garbage through the wrong generator matrix.
#[test]
fn mismatched_codec_is_a_typed_refusal() {
    let tc = TestCluster::spawn("codectrap", 7);
    let rs = tc.cluster(4, 3);
    let data = sample_data(9_000, 8);
    rs.put("obj", &data).unwrap();

    let lrc = Cluster::with_spec(tc.addrs.clone(), &CodecSpec::lrc(4, 3, 2))
        .unwrap()
        .with_timeout(TIMEOUT);
    match lrc.get("obj") {
        Err(StoreError::Manifest(msg)) => {
            assert!(msg.contains("rs(4, 3)"), "{msg}");
            assert!(msg.contains("lrc:2(4, 3)"), "{msg}");
        }
        other => panic!("expected a typed codec mismatch, got {other:?}"),
    }
    // The recorded codec is still discoverable without matching it…
    assert_eq!(
        lrc.manifest("obj").unwrap().codec_spec().unwrap(),
        CodecSpec::rs(4, 3)
    );
    // …and the LRC cluster round-trips objects stored under its own
    // spec (degraded read included: lose one group member).
    lrc.put("obj2", &data).unwrap();
    assert_eq!(lrc.get("obj2").unwrap(), data);
}

#[test]
fn op_deadline_expiry_is_a_typed_timeout() {
    let tc = TestCluster::spawn("deadline", 5);
    // An already-expired deadline: every operation fails with the typed
    // Timeout before (and regardless of) any socket I/O.
    let expired = Cluster::new(tc.addrs.clone(), RsConfig::new(3, 2))
        .unwrap()
        .with_timeout(TIMEOUT)
        .with_op_deadline(Duration::ZERO);
    let data = sample_data(10_000, 1);
    for result in [
        expired.put("budgeted", &data).map(|_| ()),
        expired.get("budgeted").map(|_| ()),
        expired.objects().map(|_| ()),
        expired.scrub().map(|_| ()),
    ] {
        match result {
            Err(StoreError::Timeout) => {}
            other => panic!("expected StoreError::Timeout, got {other:?}"),
        }
    }
    // A generous deadline changes nothing about a healthy cluster.
    let generous = Cluster::new(tc.addrs.clone(), RsConfig::new(3, 2))
        .unwrap()
        .with_timeout(TIMEOUT)
        .with_op_deadline(Duration::from_secs(30));
    generous.put("budgeted", &data).unwrap();
    assert_eq!(generous.get("budgeted").unwrap(), data);
}

#[test]
fn batch_repair_reads_each_survivor_once() {
    let mut tc = TestCluster::spawn("batchrepair", 8);
    let mut cluster = tc.cluster(4, 2);
    let data = sample_data(48_000, 9);
    let mut shard_len = 0u64;
    for k in 0..5 {
        let report = cluster.put(&format!("obj-{k}"), &data).unwrap();
        shard_len = report.shard_len as u64;
    }

    // Pick two victims and tally, per object, how many survivor-shard
    // reads a batch repair needs: RS(4, 2) rebuilds any ≤2 lost shards
    // of an object from exactly n = 4 survivors, read once — however
    // many of the lost shards each dead node held.
    let dead_a = cluster.manifest("obj-0").unwrap().placement[0].clone();
    let dead_b = cluster.manifest("obj-0").unwrap().placement[1].clone();
    let mut expected_read = 0u64;
    for k in 0..5 {
        let placement = cluster.manifest(&format!("obj-{k}")).unwrap().placement;
        if placement.contains(&dead_a) || placement.contains(&dead_b) {
            expected_read += 4 * shard_len;
        }
    }
    tc.kill(tc.index_of(&dead_a));
    tc.kill(tc.index_of(&dead_b));
    let repl_a = tc.spawn_replacement("a");
    let repl_b = tc.spawn_replacement("b");

    // ONE repair pass for both dead nodes: one survivor fetch + one
    // reconstruct per object places all of that object's lost shards.
    let report = cluster
        .repair_nodes(&[
            (dead_a.clone(), repl_a.clone()),
            (dead_b.clone(), repl_b.clone()),
        ])
        .unwrap();
    assert_eq!(report.objects_scanned, 5);
    assert!(report.failed.is_empty(), "failed: {:?}", report.failed);
    assert_eq!(
        report.bytes_read, expected_read,
        "a batch repair must read each survivor shard once per object, \
         not once per dead node"
    );
    assert!(cluster.nodes().contains(&repl_a));
    assert!(cluster.nodes().contains(&repl_b));
    assert!(!cluster.nodes().iter().any(|a| a == &dead_a || a == &dead_b));

    // The cluster is whole again: clean scrub, healthy reads.
    let scrub = cluster.scrub().unwrap();
    assert!(scrub.clean(), "post-repair scrub: {scrub:?}");
    for k in 0..5 {
        let (got, report) = cluster.get_with_report(&format!("obj-{k}")).unwrap();
        assert_eq!(got, data);
        assert!(!report.degraded());
    }

    // Pair validation is typed: duplicate dead entries and a node used
    // as both dead and replacement are refused up front.
    let bad = cluster.repair_nodes(&[
        (repl_a.clone(), repl_b.clone()),
        (repl_a.clone(), repl_b.clone()),
    ]);
    assert!(matches!(bad, Err(StoreError::InvalidArg(_))), "{bad:?}");
}
