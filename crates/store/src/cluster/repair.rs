//! Repair: one core — rebuild (the codec's plan → fetch → widen loop),
//! prove, place, publish — and its two front ends, scrub damage
//! (`repair_object`) and dead nodes (`repair_nodes`).

use super::scrub::ClusterScrubReport;
use super::write::publish;
use super::{trip, Cluster, Ship, OBJECTS_PER_ROUND};
use crate::client::{reply, BatchOp};
use crate::error::StoreError;
use crate::fanout::ParallelConnSet;
use crate::manifest::{self, validate_object_name, Manifest};
use crate::placement;
use crate::tree::{tree_key, HashBlob};
use ec_core::EcError;
use ec_wire::merkle::{leaf_count, MerkleTree};
use std::collections::HashMap;

/// Result of a [`Cluster::repair_object`].
#[derive(Clone, Debug, Default)]
pub struct ObjectRepairReport {
    /// Shard indices rebuilt and re-stored.
    pub repaired: Vec<usize>,
    /// Shard indices that were rebuilt but did not land — no member
    /// could take them, or the write failed; the manifest never names
    /// them.
    pub unplaced: Vec<usize>,
    /// Shard indices whose `t:` hash blob was re-derived from verified
    /// payload bytes and rewritten — covers both blobs beside repaired
    /// shards and blobs that were themselves the only damage
    /// ([`ShardHealth::BadHashes`](super::ShardHealth::BadHashes)).
    pub hash_blobs_rewritten: Vec<usize>,
}

/// Per-object outcome of a [`Cluster::scrub_and_repair`] pass: the
/// object name and either its repair report or the reason repair
/// failed (so objects that *stayed* broken are visible).
pub type RepairOutcome = (String, Result<ObjectRepairReport, String>);

/// Result of a [`Cluster::repair_node`] / [`Cluster::repair_nodes`].
#[derive(Clone, Debug, Default)]
pub struct NodeRepairReport {
    /// Objects whose manifests were examined.
    pub objects_scanned: usize,
    /// Shards rebuilt onto replacement nodes.
    pub shards_rebuilt: usize,
    /// Bytes rebuilt onto replacement nodes.
    pub bytes_rebuilt: u64,
    /// Survivor shard bytes fetched to drive the rebuilds — the repair
    /// traffic. A locality-aware codec keeps this below the any-`n`
    /// floor by reading only the lost shard's group, and a batch
    /// multi-node repair reads each survivor once, not once per dead
    /// node.
    pub bytes_read: u64,
    /// Objects that could not be repaired (too few survivors right
    /// now, or a rebuilt shard that did not land), with the reason.
    pub failed: Vec<(String, String)>,
}

impl Cluster {
    /// Rebuild every damaged shard of `object` from the survivors and
    /// put it back — in place, under its live keys, when its node is a
    /// member; else on the highest-ranked member holding no shard of the
    /// object, under a new generation that is then published — with a
    /// fresh `t:` blob for every intact shard whose stored blob is stale.
    pub fn repair_object(&self, object: &str) -> Result<ObjectRepairReport, StoreError> {
        self.repair_object_via(&mut self.conns(), object)
    }

    /// The scrub front end of the repair core: fetch every shard — the
    /// only way to find the damage — and audit the intact shards' `t:`
    /// blobs in one round.
    fn repair_object_via(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
    ) -> Result<ObjectRepairReport, StoreError> {
        validate_object_name(object)?;
        let manifest = self.fetch_manifest(conns, object, &[])?;
        self.check_geometry(object, &manifest)?;
        let all: Vec<usize> = (0..manifest.total_shards()).collect();
        let fetched = self.fetch_shards(conns, object, &manifest, &all);
        let shards: Vec<Option<Vec<u8>>> = fetched.into_iter().map(Result::ok).collect();
        let stale = self.stale_hash_blobs(conns, object, &manifest, &shards);
        let restore: Vec<usize> = all
            .into_iter()
            .filter(|i| shards[*i].is_none() || stale.contains(i))
            .collect();
        self.repair(conns, object, manifest, &restore, shards, &HashMap::new())
            .map(|(r, _)| r)
    }

    /// The intact shards whose stored `t:` blob is absent, damaged, or
    /// disagrees with the manifest root, from one round of stored-root
    /// probes (a stored root that re-hashes to the manifest root proves
    /// the whole blob). An unreachable node has nothing to rewrite onto.
    fn stale_hash_blobs(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        manifest: &Manifest,
        shards: &[Option<Vec<u8>>],
    ) -> Vec<usize> {
        let leaf_size = manifest.hash_leaf_size;
        let widths = MerkleTree::level_widths(leaf_count(manifest.shard_len, leaf_size as u64));
        let level = (widths.len() - 1) as u8;
        let intact: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_some()).collect();
        let keys: Vec<String> = intact
            .iter()
            .map(|&i| tree_key(object, i, manifest.shard_gen[i]))
            .collect();
        let jobs: Vec<_> = (intact.iter().zip(&keys))
            .map(|(&i, key)| {
                let (stored, start, count) = (true, 0, 1);
                let op = BatchOp::HashSubtree {
                    key,
                    leaf_size,
                    stored,
                    level,
                    start,
                    count,
                };
                (manifest.placement[i].as_str(), op, |answer| {
                    reply::hash_subtree(answer, 1)
                })
            })
            .collect();
        (intact.iter().zip(conns.run_batch(jobs)))
            .filter(|(&i, stored)| match stored {
                Ok(root) => root[0] != manifest.shard_root[i],
                Err(e) => matches!(e, StoreError::Remote { .. }),
            })
            .map(|(&i, _)| i)
            .collect()
    }

    /// The one repair core, for scrub damage and dead nodes alike.
    /// `restore` names the shards to put back: one that `shards` lacks is
    /// rebuilt and shipped with its `t:` blob; one it holds (fetched and
    /// verified, its blob stale) gets only the blob, re-derived.
    ///
    /// 1. Rebuild the lost shards with the codec's repair loop,
    ///    `reconstruct_from`, whose fetch is `fetch_shards`: it fetches
    ///    what the repair plan needs and `shards` lacks, and on an
    ///    absent source every other survivor, then rebuilds every shard
    ///    still missing.
    /// 2. Prove each rebuilt shard against `shard_root[i]`, in the one
    ///    hash pass that also makes its blob.
    /// 3. Ship every shard and blob in one round, under the one placement
    ///    rule: shard `i` goes to `moves[placement[i]]`, else stays on
    ///    `placement[i]` if that is a member, else to the highest-ranked
    ///    member holding no shard of the object. A shard that stays is
    ///    written under its live keys — exactly the bytes the manifest
    ///    names, so nothing is published; one that moves is written under
    ///    generation `g + 1` keys.
    /// 4. Only if a moved shard landed, publish manifest `g + 1` naming it
    ///    to the post-repair membership, required on every node that took
    ///    a shard; a shard that did not land never enters the map. An
    ///    unchanged map goes to each replacement in `moves` as its
    ///    discovery copy.
    ///
    /// Returns the report and the survivor bytes fetched.
    fn repair(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        mut manifest: Manifest,
        restore: &[usize],
        mut shards: Vec<Option<Vec<u8>>>,
        moves: &HashMap<&str, &str>,
    ) -> Result<(ObjectRepairReport, u64), StoreError> {
        let (n, total) = (self.codec.data_shards(), manifest.total_shards());
        let lost: Vec<usize> = restore
            .iter()
            .copied()
            .filter(|&i| shards[i].is_none())
            .collect();
        let mut bytes_read = 0;
        let fetch = |want: &[usize], shards: &mut [Option<Vec<u8>>]| {
            for (&i, bytes) in want
                .iter()
                .zip(self.fetch_shards(conns, object, &manifest, want))
            {
                if let Ok(bytes) = bytes {
                    bytes_read += bytes.len() as u64;
                    shards[i] = Some(bytes);
                }
            }
        };
        self.codec
            .reconstruct_from(&mut shards, &lost, fetch)
            .map_err(|e| match e {
                EcError::TooManyErasures { missing, .. } => {
                    let object = object.to_string();
                    StoreError::Unavailable {
                        object,
                        needed: n,
                        have: total - missing,
                    }
                }
                e => e.into(),
            })?;
        let restored: Vec<&[u8]> = restore
            .iter()
            .map(|&i| shards[i].as_deref().expect("held or rebuilt"))
            .collect();
        let blobs = HashBlob::from_shards(&restored, manifest.hash_leaf_size);
        // Survivors were root-checked on fetch, so a mismatch is a codec
        // fault or a lying manifest: such bytes must not become the truth.
        if let Some((i, _)) = restore
            .iter()
            .zip(&blobs)
            .find(|(i, blob)| blob.root() != manifest.shard_root[**i])
        {
            return Err(StoreError::Manifest(format!(
                "repair of `{object}` shard {i}: reconstructed bytes fail \
                 the manifest Merkle root — refusing to publish"
            )));
        }

        let new_gen = manifest.generation + 1;
        let members: Vec<String> = (self.nodes.iter())
            .map(|addr| {
                moves
                    .get(addr.as_str())
                    .map_or_else(|| addr.clone(), |to| to.to_string())
            })
            .collect();
        let dests: Vec<Option<String>> = {
            let mut spares = (placement::rank_nodes(object, &members).into_iter())
                .map(|k| members[k].as_str())
                .filter(|addr| !manifest.placement.iter().any(|a| a == addr));
            (restore.iter())
                .map(|&i| {
                    let home = manifest.placement[i].as_str();
                    let stays = !lost.contains(&i) || members.iter().any(|m| m == home);
                    match moves.get(home) {
                        Some(&to) => Some(to),
                        None if stays => Some(home),
                        None => spares.next(),
                    }
                    .map(str::to_string)
                })
                .collect()
        };
        let tree_bytes: Vec<Vec<u8>> = blobs.iter().map(HashBlob::to_bytes).collect();
        let mut ships: Vec<Ship> = Vec::new();
        for (at, (&i, dest)) in restore.iter().zip(&dests).enumerate() {
            let Some(dest) = dest.as_deref() else {
                continue;
            };
            let generation = match dest == manifest.placement[i] {
                true => manifest.shard_gen[i],
                false => new_gen,
            };
            if lost.contains(&i) {
                ships.push((
                    dest,
                    manifest::shard_key(object, i, generation),
                    restored[at],
                    at,
                ));
            }
            ships.push((dest, tree_key(object, i, generation), &tree_bytes[at], at));
        }
        let mut shipped = self.ship(conns, "repair.shard", &ships)?.into_iter();
        let mut report = ObjectRepairReport::default();
        let (mut took, mut moved) = (Vec::new(), Vec::new());
        for (&i, dest) in restore.iter().zip(&dests) {
            let rebuilt = lost.contains(&i);
            let Some(dest) = dest.as_deref() else {
                report.unplaced.push(i);
                continue;
            };
            let landed = !rebuilt || shipped.next().expect("a shard write").is_ok();
            let blob_landed = shipped.next().expect("a blob write").is_ok();
            if !landed {
                report.unplaced.push(i);
                continue;
            }
            if blob_landed {
                report.hash_blobs_rewritten.push(i);
            }
            if rebuilt {
                report.repaired.push(i);
                took.push(dest);
                if dest != manifest.placement[i] {
                    moved.push((i, dest));
                }
            }
        }

        if moved.is_empty() {
            let copy = manifest.to_bytes();
            publish(conns, object, &copy, moves.values(), |_| true)?;
            return Ok((report, bytes_read));
        }
        for (i, dest) in moved {
            manifest.placement[i] = dest.to_string();
            manifest.shard_gen[i] = new_gen;
        }
        manifest.generation = new_gen;
        // Nodes outside `took` may be dead mid-multi-failure; their stale
        // replicas lose the generation vote until a repair reaches them.
        trip(&self.failpoint, "repair.publish", 0)?;
        publish(conns, object, &manifest.to_bytes(), &members, |addr| {
            took.contains(&addr)
        })?;
        Ok((report, bytes_read))
    }

    /// Run a scrub and repair every damaged object it found. Returns
    /// the scrub report and the per-object repair outcomes — including
    /// failed attempts, so an object that *stayed* broken is
    /// distinguishable from one never attempted.
    pub fn scrub_and_repair(&self) -> Result<(ClusterScrubReport, Vec<RepairOutcome>), StoreError> {
        let mut conns = self.conns();
        let scrub = self.scrub_via(&mut conns, false)?;
        let mut repairs = Vec::new();
        for damaged in scrub.damaged_objects() {
            let outcome = self
                .repair_object_via(&mut conns, &damaged.object)
                .map_err(|e| e.to_string());
            repairs.push((damaged.object.clone(), outcome));
        }
        Ok((scrub, repairs))
    }

    /// Rebuild every shard that lived on `dead` onto `replacement`
    /// (which may equal `dead` for a node that came back empty), update
    /// the manifests, and swap the membership. Objects that cannot be
    /// repaired right now (too few survivors) are reported, not fatal.
    ///
    /// The single-pair convenience over [`Cluster::repair_nodes`].
    pub fn repair_node(
        &mut self,
        dead: &str,
        replacement: &str,
    ) -> Result<NodeRepairReport, StoreError> {
        self.repair_nodes(&[(dead.to_string(), replacement.to_string())])
    }

    /// Rebuild every shard that lived on any of the dead nodes onto its
    /// pair's replacement — **one survivor fetch and one reconstruct
    /// per object**, placing all of that object's lost shards at once,
    /// instead of one full fetch-and-rebuild pass per dead node. For k
    /// simultaneous failures this reads each survivor shard once, not k
    /// times ([`NodeRepairReport::bytes_read`] is the proof).
    ///
    /// Each pair follows [`Cluster::repair_node`]'s rules: `dead` must
    /// be a member (or `replacement` already one — the retry after an
    /// earlier partial repair swapped the membership), and `replacement
    /// == dead` means the node restarted empty in place: its shards are
    /// rewritten under their live keys and no manifest changes. Shards
    /// that move land under a new generation, published only after they
    /// landed — a repairer that dies mid-object leaves the old manifest
    /// and its keys as they were, still repairable by the retry. An
    /// object with a shard that did not land is reported in `failed`.
    /// Memberships are swapped after the sweep. The objects are elected
    /// 64 to a fan-out round.
    pub fn repair_nodes(
        &mut self,
        pairs: &[(String, String)],
    ) -> Result<NodeRepairReport, StoreError> {
        self.repair_nodes_via(&mut self.conns(), pairs)
    }

    fn repair_nodes_via(
        &mut self,
        conns: &mut ParallelConnSet,
        pairs: &[(String, String)],
    ) -> Result<NodeRepairReport, StoreError> {
        if pairs.is_empty() {
            return Err(StoreError::InvalidArg(
                "no (dead, replacement) pairs given".into(),
            ));
        }
        for (i, (dead, replacement)) in pairs.iter().enumerate() {
            if replacement.len() > crate::manifest::MAX_ADDR {
                return Err(StoreError::InvalidArg(
                    "replacement address too long".into(),
                ));
            }
            for (prior_dead, prior_repl) in &pairs[..i] {
                if prior_dead == dead {
                    return Err(StoreError::InvalidArg(format!(
                        "{dead} is listed as dead twice"
                    )));
                }
                if prior_repl == replacement {
                    return Err(StoreError::InvalidArg(format!(
                        "{replacement} is the replacement of two nodes"
                    )));
                }
            }
            if pairs.iter().any(|(d, r)| d != dead && r == dead) {
                return Err(StoreError::InvalidArg(format!(
                    "{dead} is both a dead node and a replacement"
                )));
            }
            let dead_member = self.nodes.iter().any(|a| a == dead);
            let replacement_member = self.nodes.iter().any(|a| a == replacement);
            match (dead_member, replacement_member) {
                (true, true) if dead != replacement => {
                    return Err(StoreError::InvalidArg(format!(
                        "{replacement} is already a cluster member"
                    )));
                }
                (true, _) => {}
                // Retry path: an earlier (partially failed) repair
                // already swapped the membership. Re-running with the
                // same pair is allowed and finishes the objects that
                // failed then.
                (false, true) => {}
                (false, false) => {
                    return Err(StoreError::InvalidArg(format!(
                        "{dead} is not a cluster member"
                    )));
                }
            }
        }
        let dead: Vec<&str> = pairs.iter().map(|(d, _)| d.as_str()).collect();
        let moves: HashMap<&str, &str> = pairs
            .iter()
            .map(|(d, r)| (d.as_str(), r.as_str()))
            .collect();
        let objects = self.objects_via(conns, &dead)?;
        let mut report = NodeRepairReport::default();
        for window in objects.chunks(OBJECTS_PER_ROUND) {
            let votes = self.fetch_records(conns, window, &dead);
            for (object, vote) in window.iter().zip(votes) {
                report.objects_scanned += 1;
                // Lost: every shard on a dead node.
                let repaired = vote.manifest(object).and_then(|manifest| {
                    self.check_geometry(object, &manifest)?;
                    let (total, shard_len) = (manifest.total_shards(), manifest.shard_len);
                    let lost: Vec<usize> = (0..total)
                        .filter(|&i| moves.contains_key(manifest.placement[i].as_str()))
                        .collect();
                    let (fixed, read) =
                        self.repair(conns, object, manifest, &lost, vec![None; total], &moves)?;
                    Ok((fixed, read, shard_len))
                });
                match repaired {
                    Ok((fixed, read, shard_len)) => {
                        report.bytes_read += read;
                        report.shards_rebuilt += fixed.repaired.len();
                        report.bytes_rebuilt += fixed.repaired.len() as u64 * shard_len;
                        if !fixed.unplaced.is_empty() {
                            let why = format!("rebuilt shards {:?} did not land", fixed.unplaced);
                            report.failed.push((object.clone(), why));
                        }
                    }
                    // Tombstoned (deleted) objects need no repair.
                    Err(StoreError::NotFound(_)) => {}
                    Err(e) => report.failed.push((object.clone(), e.to_string())),
                }
            }
        }
        for (dead, replacement) in pairs {
            if let Some(pos) = self.nodes.iter().position(|a| a == dead) {
                self.nodes[pos] = replacement.clone();
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeHandle;
    use ec_core::RsConfig;

    /// `repair_nodes` elects its objects a window to a round: after the
    /// listing round, one election round for 8 objects, where an
    /// election per object took 8. Deleted objects keep their `m:`
    /// tombstones, so the listing names them; the election finds them
    /// `NotFound` and they are skipped, neither repaired nor failed.
    #[test]
    fn repair_nodes_elects_a_window_per_round() {
        let root =
            std::env::temp_dir().join(format!("ec_store_repair_elect_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut nodes: Vec<NodeHandle> = (0..5)
            .map(|i| NodeHandle::spawn(&root.join(format!("n{i}")), "127.0.0.1:0", 2).unwrap())
            .collect();
        let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
        let mut cluster = Cluster::new(addrs.clone(), RsConfig::new(2, 1)).unwrap();
        for k in 0..8 {
            let name = format!("obj-{k}");
            cluster.put(&name, &vec![k as u8; 4096]).unwrap();
            cluster.delete(&name).unwrap();
        }
        let dead = addrs[0].clone();
        nodes.remove(0).shutdown();

        let mut conns = cluster.conns();
        let report = cluster
            .repair_nodes_via(&mut conns, &[(dead.clone(), dead)])
            .unwrap();
        assert_eq!(report.objects_scanned, 8);
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        assert_eq!(report.shards_rebuilt, 0);
        let live_nodes = addrs.len() as u32 - 1;
        assert_eq!(conns.rounds(), 1 + 1);
        assert_eq!(conns.requests(), live_nodes * (1 + 8));
        drop(nodes);
        let _ = std::fs::remove_dir_all(&root);
    }
}
