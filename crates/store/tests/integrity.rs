//! End-to-end integrity tests: the Merkle subsystem as deployed.
//!
//! The star witness is a *CRC-colliding* tamper: a 5-byte XOR pattern
//! that is a multiple of the CRC-32 generator polynomial, so flipping it
//! into any stored payload leaves every containing CRC-32 — the node's
//! blob-frame checksum *and* the manifest's per-shard checksum — intact.
//! Only the hash layer can see it; these tests prove it does, that the
//! incremental scrub names the exact damaged leaf without moving payload
//! bytes, and that repair heals it with a root proof before publishing.

use ec_core::RsConfig;
use ec_store::{
    manifest_key, Cluster, Manifest, NodeClient, NodeHandle, OverwriteMode, ShardHealth,
    ShardOutcome, StoreError, HASH_LEAF_SIZE, MANIFEST_MAGIC,
};
use ec_wire::crc32;
use std::path::{Path, PathBuf};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(5);

/// XORing this anywhere inside a buffer preserves the buffer's CRC-32:
/// the pattern is (a byte multiple of) the generator polynomial, and a
/// polynomial multiple stays a multiple under any bit shift.
const CRC_NEUTRAL_FLIP: [u8; 5] = [0x41, 0x06, 0x71, 0xDB, 0x01];

struct TestCluster {
    root: PathBuf,
    nodes: Vec<NodeHandle>,
    addrs: Vec<String>,
}

impl TestCluster {
    fn spawn(tag: &str, count: usize) -> TestCluster {
        let root = std::env::temp_dir()
            .join(format!("ec_store_integrity_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let nodes: Vec<NodeHandle> = (0..count)
            .map(|i| {
                NodeHandle::spawn(&root.join(format!("node{i}")), "127.0.0.1:0", 2)
                    .expect("spawn node")
            })
            .collect();
        let addrs = nodes.iter().map(|n| n.addr().to_string()).collect();
        TestCluster { root, nodes, addrs }
    }

    fn cluster(&self, n: usize, p: usize) -> Cluster {
        Cluster::new(self.addrs.clone(), RsConfig::new(n, p))
            .unwrap()
            .with_timeout(TIMEOUT)
    }

    /// Every blob file across all node dirs whose hex-encoded key starts
    /// with `key_prefix` ("s:" shard payloads, "t:" hash blobs).
    fn blob_files(&self, key_prefix: &str) -> Vec<PathBuf> {
        let hex: String =
            key_prefix.bytes().map(|b| format!("{b:02x}")).collect();
        let mut found = Vec::new();
        for i in 0..self.nodes.len() {
            let dir = self.root.join(format!("node{i}"));
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                if name.starts_with(&hex) && name.ends_with(".blob") {
                    found.push(path);
                }
            }
        }
        found.sort();
        found
    }

    /// The blob file holding shard `index` of `object`, found through
    /// the manifest's placement and shard key.
    fn shard_file(&self, cluster: &Cluster, object: &str, index: usize) -> PathBuf {
        let manifest = cluster.manifest(object).unwrap();
        let node = self.addrs.iter().position(|a| *a == manifest.placement[index]).unwrap();
        let hex: String =
            manifest.shard_key(object, index).bytes().map(|b| format!("{b:02x}")).collect();
        self.root.join(format!("node{node}")).join(format!("{hex}.blob"))
    }
}

impl Drop for TestCluster {
    fn drop(&mut self) {
        for node in self.nodes.drain(..) {
            node.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn sample_data(len: usize, seed: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + seed * 7 + i / 9) % 251) as u8).collect()
}

/// XOR the CRC-neutral pattern into one blob file at `payload_offset`,
/// asserting the frame's payload CRC-32 really is unchanged (the file
/// on disk stays self-consistent, so the node will happily serve it).
fn crc_colliding_tamper(path: &Path, payload_offset: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    let payload_end = bytes.len() - 4;
    let before = crc32(&bytes[12..payload_end]);
    for (k, b) in CRC_NEUTRAL_FLIP.iter().enumerate() {
        bytes[12 + payload_offset + k] ^= b;
    }
    assert_eq!(
        crc32(&bytes[12..payload_end]),
        before,
        "the tamper pattern must be CRC-32 neutral"
    );
    std::fs::write(path, &bytes).unwrap();
}

/// A healthy hashed object is scrubbed by comparing 32-byte roots: no
/// payload bytes move, and the incremental pass is told apart from the
/// full-read pass by the report's byte accounting.
#[test]
fn healthy_scrub_moves_zero_payload_bytes() {
    let tc = TestCluster::spawn("healthy", 5);
    let cluster = tc.cluster(3, 2);
    // 400 kB over n=3 makes each shard span several 64 KiB hash leaves.
    let data = sample_data(400_000, 3);
    cluster.put("obj", &data).unwrap();

    let report = cluster.scrub().unwrap();
    assert!(report.clean(), "{report:?}");
    assert_eq!(
        report.payload_bytes_read, 0,
        "a healthy incremental scrub must fetch zero shard payload bytes"
    );
    // Two 32-byte roots (computed + stored) per shard, nothing more.
    assert_eq!(report.hash_bytes_read, 64 * 5);
    assert_eq!(report.objects[0].parity_consistent, Some(true));

    // The deep scrub still exists, agrees, and shows what the
    // incremental path saves: every shard read in full.
    let deep = cluster.scrub_deep().unwrap();
    assert!(deep.clean(), "{deep:?}");
    assert_eq!(deep.hash_bytes_read, 0);
    assert!(deep.payload_bytes_read >= data.len() as u64);
    assert!(
        deep.payload_bytes_read >= 5 * report.hash_bytes_read,
        "incremental scrub should cost at least 5x fewer bytes \
         ({} payload vs {} hash)",
        deep.payload_bytes_read,
        report.hash_bytes_read
    );
}

/// The headline case: damage engineered to slip every CRC-32 is caught
/// by the Merkle layer, localized to the exact 64 KiB leaf by the
/// O(log) descent (still zero payload bytes), never served to readers,
/// and healed by repair — after which the descent and the full re-read
/// agree the object is clean.
#[test]
fn crc_colliding_tamper_is_caught_localized_and_repaired() {
    let tc = TestCluster::spawn("tamper", 5);
    let cluster = tc.cluster(3, 2);
    let data = sample_data(400_000, 7);
    cluster.put("victim", &data).unwrap();
    assert!(cluster.scrub().unwrap().clean());

    // Flip the pattern inside hash leaf 1 of some shard, behind the
    // node's back. Both the blob frame CRC and the manifest shard CRC
    // still pass; shard files are the only blobs this large.
    let shard_file = tc
        .blob_files("s:")
        .into_iter()
        .find(|p| p.metadata().unwrap().len() > 100_000)
        .expect("a shard blob on disk");
    crc_colliding_tamper(&shard_file, HASH_LEAF_SIZE as usize + 10);

    // Readers never see the damage: the fetch path root-checks every
    // shard, so the read reconstructs around the tampered one.
    let (got, _) = cluster.get_with_report("victim").unwrap();
    assert_eq!(got, data, "tampered bytes must not reach a reader");

    // The incremental scrub attributes it — exact shard, exact leaf —
    // without fetching any payload.
    let report = cluster.scrub().unwrap();
    assert!(!report.clean());
    assert_eq!(report.payload_bytes_read, 0);
    let object = &report.objects[0];
    let damaged = object.damaged();
    assert_eq!(damaged.len(), 1, "{object:?}");
    assert!(matches!(object.shards[damaged[0]], ShardHealth::Corrupt(_)));
    assert_eq!(
        object.damaged_leaves,
        vec![(damaged[0], vec![1])],
        "descent must name hash leaf 1 and only leaf 1"
    );

    // The full re-read path blames the same shard (descent and full
    // fetch agree on attribution).
    let deep = cluster.scrub_deep().unwrap();
    assert_eq!(deep.objects[0].damaged(), damaged);

    // Repair rebuilds the shard (root-proven before publish) and the
    // next scrub — both flavors — is clean.
    let (_, repairs) = cluster.scrub_and_repair().unwrap();
    assert_eq!(repairs.len(), 1);
    let outcome = repairs[0].1.as_ref().unwrap();
    assert_eq!(outcome.repaired, damaged);
    assert!(cluster.scrub().unwrap().clean());
    assert!(cluster.scrub_deep().unwrap().clean());
    assert_eq!(cluster.get("victim").unwrap(), data);
}

/// CRC-colliding damage on a shard a fetch round is served — found by
/// the root check after the round, not as the shard arrives — costs the
/// operation a round, never a byte: a data-first get fetches the repair
/// plan's parity in one more round, repair rebuilds the survivor beside
/// the shard it came for, and an overwrite that reads the damaged
/// parity falls back to a full put, as it does when that parity is gone.
#[test]
fn a_crc_colliding_served_shard_costs_a_round_not_a_byte() {
    let tc = TestCluster::spawn("served", 5);
    let (n, p) = (3, 2);
    let cluster = tc.cluster(n, p);
    let data = sample_data(400_000, 13);
    // The objects the deep scrub finds damaged: a read heals nothing.
    let damaged = || -> Vec<String> {
        let report = cluster.scrub_deep().unwrap();
        report.damaged_objects().iter().map(|o| o.object.clone()).collect()
    };

    cluster.put("read", &data).unwrap();
    crc_colliding_tamper(&tc.shard_file(&cluster, "read", 0), 10);
    let (got, report) = cluster.get_with_report("read").unwrap();
    assert_eq!(got, data, "tampered bytes must not reach a reader");
    assert!(matches!(report.shards[0].outcome, ShardOutcome::Corrupt(_)), "{report:?}");
    assert_eq!(report.missing, vec![0]);
    let parity_served =
        report.shards[n..].iter().filter(|s| matches!(s.outcome, ShardOutcome::Served)).count();
    assert_eq!(parity_served, 1, "{report:?}");

    cluster.put("repair", &data).unwrap();
    let before = cluster.manifest("repair").unwrap();
    std::fs::remove_file(tc.shard_file(&cluster, "repair", n + 1)).unwrap();
    crc_colliding_tamper(&tc.shard_file(&cluster, "repair", 1), HASH_LEAF_SIZE as usize + 10);
    let outcome = cluster.repair_object("repair").unwrap();
    assert_eq!(outcome.repaired, vec![1, n + 1]);
    // Both rebuilt shards were proven against the roots the put
    // recorded, which the repair kept.
    assert_eq!(cluster.manifest("repair").unwrap().shard_root, before.shard_root);
    assert_eq!(damaged(), ["read"]);
    assert_eq!(cluster.get("repair").unwrap(), data);

    cluster.put("overwrite", &data).unwrap();
    crc_colliding_tamper(&tc.shard_file(&cluster, "overwrite", n), 10);
    let shard_len = cluster.manifest("overwrite").unwrap().shard_len as usize;
    let mut edited = data.clone();
    edited[shard_len + 5] ^= 0xFF; // inside data shard 1
    let report = cluster.overwrite("overwrite", &edited).unwrap();
    assert_eq!(report.mode, OverwriteMode::Full, "{report:?}");
    assert_eq!(cluster.get("overwrite").unwrap(), edited);
    assert_eq!(damaged(), ["read"]);
}

/// The same pattern as a *legitimate edit*: an overwrite whose only
/// change leaves a data shard's CRC-32 exactly where it was. The
/// overwrite decides what changed from the manifest, without reading
/// the old shard — so it must decide from the SHA-256 roots, and still
/// ship the shard.
#[test]
fn crc_preserving_edit_is_still_a_changed_shard() {
    let tc = TestCluster::spawn("crcedit", 5);
    let cluster = tc.cluster(3, 2);
    let data = sample_data(400_000, 11);
    cluster.put("doc", &data).unwrap();
    let before = cluster.manifest("doc").unwrap();

    let at = before.shard_len as usize + 70_000; // inside data shard 1
    let mut edited = data.clone();
    for (k, b) in CRC_NEUTRAL_FLIP.iter().enumerate() {
        edited[at + k] ^= b;
    }
    let new_shards = cluster.codec().split_data(&edited);
    assert_eq!(crc32(&new_shards[1]), before.shard_crc[1], "the edit must be CRC-32 neutral");

    let report = cluster.overwrite("doc", &edited).unwrap();
    assert_eq!(report.mode, OverwriteMode::Delta);
    assert_eq!(report.changed, vec![1]);
    assert_eq!((report.shards_read, report.shards_written), (1 + 2, 1 + 2));
    assert_eq!(cluster.get("doc").unwrap(), edited);
    let after = cluster.manifest("doc").unwrap();
    assert_eq!(after.shard_crc[1], before.shard_crc[1]);
    assert_ne!(after.shard_root[1], before.shard_root[1]);
    assert_eq!(after.shard_gen[1], after.generation, "the shard was rewritten");
    assert!(cluster.scrub_deep().unwrap().clean());
}

/// Losing or rotting a `t:` hash blob is damage to the *cache*, not the
/// data: scrub reports it as `BadHashes` with parity still provably
/// consistent, and repair rewrites just the blob from verified payload.
#[test]
fn hash_blob_damage_is_bad_hashes_and_rewritten() {
    let tc = TestCluster::spawn("hashblob", 5);
    let cluster = tc.cluster(3, 2);
    let data = sample_data(300_000, 11);
    cluster.put("obj", &data).unwrap();

    // Delete one node's hash blob outright...
    let tree_files = tc.blob_files("t:");
    assert_eq!(tree_files.len(), 5);
    std::fs::remove_file(&tree_files[0]).unwrap();
    // ...and CRC-neutrally corrupt a leaf hash inside another (the
    // leaves start at byte 17 of the hash-blob payload), so the blob
    // still parses but disagrees with the manifest root.
    crc_colliding_tamper(&tree_files[1], 17 + 3);

    let report = cluster.scrub().unwrap();
    assert!(!report.clean());
    let object = &report.objects[0];
    let damaged = object.damaged();
    assert_eq!(damaged.len(), 2, "{object:?}");
    for &i in &damaged {
        assert!(
            matches!(object.shards[i], ShardHealth::BadHashes(_)),
            "{object:?}"
        );
    }
    assert_eq!(
        object.parity_consistent,
        Some(true),
        "payload roots all verified — parity is still proven"
    );
    assert_eq!(report.payload_bytes_read, 0);

    // Repair touches only the blobs: nothing is rebuilt, the two blobs
    // are re-derived from root-verified payload, and scrub goes clean.
    let (_, repairs) = cluster.scrub_and_repair().unwrap();
    assert_eq!(repairs.len(), 1);
    let outcome = repairs[0].1.as_ref().unwrap();
    assert!(outcome.repaired.is_empty(), "{outcome:?}");
    let mut rewritten = outcome.hash_blobs_rewritten.clone();
    rewritten.sort_unstable();
    assert_eq!(rewritten, damaged);
    assert!(cluster.scrub().unwrap().clean());
}

/// The record a writer from before generation-qualified keys and Merkle
/// roots would have left for `m` (manifest version 2: codec identity,
/// then `[addr][crc]` per shard), claiming `generation`. CRC-valid.
fn retired_manifest(m: &Manifest, generation: u64) -> Vec<u8> {
    let mut out = MANIFEST_MAGIC.to_vec();
    out.push(2);
    out.extend_from_slice(&m.data_shards.to_le_bytes());
    out.extend_from_slice(&m.parity_shards.to_le_bytes());
    out.extend_from_slice(&m.codec_id.to_le_bytes());
    out.extend_from_slice(&m.group_size.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&m.object_len.to_le_bytes());
    out.extend_from_slice(&m.shard_len.to_le_bytes());
    for (addr, crc) in m.placement.iter().zip(&m.shard_crc) {
        out.extend_from_slice(&(addr.len() as u16).to_le_bytes());
        out.extend_from_slice(addr.as_bytes());
        out.extend_from_slice(&crc.to_le_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Whether an object is Merkle-protected is decided by the manifest
/// parser, not by whichever replica claims the highest generation: a
/// rootless record of a retired version is a damaged replica, outvoted
/// like any other, and the keys it would have pointed at are nobody's.
#[test]
fn a_rootless_replica_cannot_downgrade_an_object() {
    let tc = TestCluster::spawn("stale", 5);
    let cluster = tc.cluster(3, 2).with_gc_grace(Duration::ZERO);
    let data = sample_data(200_000, 5);
    cluster.put("obj", &data).unwrap();
    let real = cluster.manifest("obj").unwrap();

    // One node holds a CRC-valid version-2 record at a generation far
    // above the real one, and the un-suffixed shard key it names.
    let holder = &real.placement[0];
    let mut node = NodeClient::connect(holder, TIMEOUT).unwrap();
    node.put(&manifest_key("obj"), &retired_manifest(&real, real.generation + 7)).unwrap();
    node.put("s:000:obj", &vec![0xEE; real.shard_len as usize]).unwrap();

    // The election skips it: the real manifest still wins, and the read
    // is served — whole, undegraded — from root-checked shards.
    assert_eq!(cluster.manifest("obj").unwrap(), real);
    let (got, report) = cluster.get_with_report("obj").unwrap();
    assert_eq!(got, data);
    assert!(!report.degraded(), "{report:?}");

    // Scrub sees a clean object, and its GC — grace zero, so anything
    // it may judge it collects — leaves the foreign key alone.
    let scrub = cluster.scrub().unwrap();
    assert!(scrub.clean(), "{scrub:?}");
    assert_eq!(scrub.objects.len(), 1);
    assert_eq!(scrub.generations_collected, 0);
    assert_eq!(node.get("s:000:obj").unwrap(), vec![0xEE; real.shard_len as usize]);

    // With every replica rootless the object is unreadable, typed — not
    // readable CRC-only.
    for addr in &tc.addrs {
        let mut node = NodeClient::connect(addr, TIMEOUT).unwrap();
        node.put(&manifest_key("obj"), &retired_manifest(&real, real.generation)).unwrap();
    }
    match cluster.get("obj") {
        Err(StoreError::Manifest(msg)) => {
            assert_eq!(msg, "unsupported manifest version 2 (this build reads 4)");
        }
        other => panic!("expected the version refusal, got {other:?}"),
    }
}
