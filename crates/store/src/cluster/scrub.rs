//! Scrub: the incremental (Merkle) and full-read verification of every
//! object, and the generation GC that ends each sweep.

use super::read::no_node_answered;
use super::{Cluster, ShardFault, OBJECTS_PER_ROUND};
use crate::client::{reply, BatchOp};
use crate::error::{RemoteErrorCode, StoreError};
use crate::fanout::ParallelConnSet;
use crate::manifest::{parse_shard_key, Manifest};
use crate::tree::tree_key;
use ec_wire::merkle::{leaf_count, Hash, MerkleTree};
use std::collections::{BTreeSet, HashMap};

impl From<ShardFault> for ShardHealth {
    fn from(f: ShardFault) -> ShardHealth {
        match f {
            ShardFault::Corrupt(msg) => ShardHealth::Corrupt(msg),
            ShardFault::Missing(msg) => ShardHealth::Missing(msg),
        }
    }
}

/// Health of one shard as seen by scrub.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// Retrieved and matches the manifest checksum.
    Ok,
    /// Unreachable or absent (reason recorded).
    Missing(String),
    /// Retrieved (or stored) bytes that fail the manifest checksum or
    /// the node's own frame check.
    Corrupt(String),
    /// The shard payload verifies against its manifest Merkle root but
    /// its stored `t:` hash blob is missing, damaged, or disagrees with
    /// the manifest — repair rewrites the blob from the verified
    /// payload without touching the shard itself.
    BadHashes(String),
}

impl ShardHealth {
    pub fn is_ok(&self) -> bool {
        matches!(self, ShardHealth::Ok)
    }
}

/// One object's scrub result.
#[derive(Clone, Debug)]
pub struct ObjectScrub {
    pub object: String,
    pub shards: Vec<ShardHealth>,
    /// `Some(false)` when every shard is individually intact yet data
    /// and parity disagree (possible only if the manifest itself lies);
    /// `None` when damage prevented the chunk-wise re-encode check.
    ///
    /// On the incremental (Merkle) scrub path a healthy object infers
    /// `Some(true)` without re-encoding: every shard's bytes still hash
    /// to the roots recorded when parity *was* consistent (at encode
    /// time), and unchanged bytes cannot have become inconsistent.
    pub parity_consistent: Option<bool>,
    /// Hash bytes fetched to scrub this object (roots plus any descent
    /// levels) — the incremental scrub's entire read cost for a healthy
    /// object.
    pub hash_bytes_read: u64,
    /// Shard payload bytes fetched. Zero on the incremental path for a
    /// healthy object; the full-read path ([`Cluster::scrub_deep`])
    /// pays `(n + p) · shard_len` here.
    pub payload_bytes_read: u64,
    /// Per damaged shard, the exact leaf indices (at the manifest's
    /// `hash_leaf_size` granularity) where the node's computed tree and
    /// the trusted stored tree disagree — the descent's damage
    /// attribution. Empty for shards whose damage could not be
    /// localized (missing shard, untrusted hash blob).
    pub damaged_leaves: Vec<(usize, Vec<usize>)>,
}

impl ObjectScrub {
    /// Indices of damaged shards.
    pub fn damaged(&self) -> Vec<usize> {
        (0..self.shards.len()).filter(|&i| !self.shards[i].is_ok()).collect()
    }

    /// Whether the object is fully healthy.
    pub fn clean(&self) -> bool {
        self.damaged().is_empty() && self.parity_consistent == Some(true)
    }
}

/// Result of a [`Cluster::scrub`].
#[derive(Clone, Debug)]
pub struct ClusterScrubReport {
    /// Nodes that answered none of the sweep's opening listing round.
    pub dead_nodes: Vec<String>,
    /// Per-object results.
    pub objects: Vec<ObjectScrub>,
    /// Objects whose manifest could not be fetched or parsed.
    pub failed_objects: Vec<(String, String)>,
    /// Distinct `(object, generation)` shard-key groups the scrub-time
    /// GC collected this cycle: superseded generations a later write
    /// replaced, and orphans a crashed writer left unpublished.
    pub generations_collected: u64,
    /// Payload bytes freed by the GC deletions.
    pub bytes_reclaimed: u64,
    /// Total hash bytes fetched across all objects (see
    /// [`ObjectScrub::hash_bytes_read`]).
    pub hash_bytes_read: u64,
    /// Total shard payload bytes fetched across all objects (see
    /// [`ObjectScrub::payload_bytes_read`]).
    pub payload_bytes_read: u64,
}

impl ClusterScrubReport {
    /// Objects with at least one damaged shard or a consistency
    /// failure.
    pub fn damaged_objects(&self) -> Vec<&ObjectScrub> {
        self.objects.iter().filter(|o| !o.clean()).collect()
    }

    /// Whether the whole cluster is healthy.
    pub fn clean(&self) -> bool {
        self.dead_nodes.is_empty()
            && self.failed_objects.is_empty()
            && self.objects.iter().all(ObjectScrub::clean)
    }
}

/// Parse a GC-able per-shard key — a shard blob (`s:`) or its hash-blob
/// twin (`t:`) — into `(object, index, generation)`. The two families
/// share one suffix grammar, so one liveness rule judges both.
fn parse_gc_key(key: &str) -> Option<(&str, usize, u64)> {
    parse_shard_key(key).or_else(|| crate::tree::parse_tree_key(key))
}

/// The key families the sweep's listing round asks every node for, in
/// job order: manifests (the objects to scrub), then shard blobs and
/// their hash-blob twins (what the GC judges). Each is its own
/// `LIST_AGED`, so no one answer carries two families under the frame
/// cap.
const LISTED: [&str; 3] = ["m:", "s:", "t:"];

/// One node's `(key, age_secs, len)` shard-key listing.
type AgedListing = Vec<(String, u64, u64)>;

/// One object's manifest election, shared by its scrub and the GC.
struct Elected {
    object: String,
    /// The election's verdict ([`super::RecordVote::manifest`]).
    manifest: Result<Manifest, StoreError>,
    /// The election saw a transport failure: the GC leaves the object
    /// alone this cycle.
    gc_deferred: bool,
}

impl Cluster {
    /// Verify every object end to end: per-shard manifest checksums
    /// (bit-rot attribution) plus a chunk-wise data↔parity consistency
    /// re-encode when all shards are intact. The sweep ends with the
    /// generation GC pass — superseded and crash-orphaned shard keys
    /// past the grace window are collected and tallied into
    /// [`ClusterScrubReport::generations_collected`] /
    /// [`ClusterScrubReport::bytes_reclaimed`].
    pub fn scrub(&self) -> Result<ClusterScrubReport, StoreError> {
        self.scrub_via(&mut self.conns(), false)
    }

    /// [`Cluster::scrub`] forcing the full-read path for every object:
    /// fetch all shards, verify CRCs and Merkle roots over the actual
    /// payload bytes, and re-encode data↔parity chunk-wise. The
    /// incremental scrub proves bytes unchanged in O(log) hash traffic;
    /// the deep scrub is the periodic belt-and-suspenders pass that
    /// additionally exercises the codec identity end to end.
    pub fn scrub_deep(&self) -> Result<ClusterScrubReport, StoreError> {
        self.scrub_via(&mut self.conns(), true)
    }

    /// The sweep, on one connection set, in four rounds for a healthy
    /// cluster of up to [`OBJECTS_PER_ROUND`] objects:
    ///
    /// 1. every node lists its `m:`, `s:` and `t:` keys, pipelined on
    ///    its connection. A node that answers none of them is dead for
    ///    the sweep — marked once in the shared state, so every later
    ///    touch fast-fails instead of paying a connect timeout per
    ///    object. The union of the names listed is the sweep's object
    ///    universe, orphan-only objects included;
    /// 2. one manifest election per object, whose verdict serves both
    ///    the object's scrub and the GC;
    /// 3. the computed and stored root of every shard of every object
    ///    the election found live under this cluster's codec (`deep`
    ///    instead reads each object in full, one round apiece);
    /// 4. the GC's deletes ([`Cluster::collect_garbage`]).
    ///
    /// Rounds 2 and 3 run once per [`OBJECTS_PER_ROUND`] objects, and a
    /// damaged shard adds a round per tree level it descends.
    pub(super) fn scrub_via(
        &self,
        conns: &mut ParallelConnSet,
        deep: bool,
    ) -> Result<ClusterScrubReport, StoreError> {
        let jobs: Vec<_> = (self.nodes.iter())
            .flat_map(|addr| {
                LISTED.map(|prefix| (addr.as_str(), BatchOp::ListAged { prefix }, reply::list_aged))
            })
            .collect();
        let mut answers = conns.run_batch(jobs).into_iter();
        let mut dead_nodes = Vec::new();
        let mut universe = BTreeSet::new();
        let (mut manifests_listed, mut timed_out) = (false, false);
        let mut listings: Vec<(&str, AgedListing)> = Vec::new();
        // A typed refusal is as much a sign of life as an answer.
        let answered = |answer: &Result<AgedListing, StoreError>| {
            matches!(answer, Ok(_) | Err(StoreError::Remote { .. }))
        };
        for addr in &self.nodes {
            let [manifests, shards, trees] =
                LISTED.map(|_| answers.next().expect("a listing per family"));
            if ![&manifests, &shards, &trees].into_iter().any(answered) {
                dead_nodes.push(addr.clone());
            }
            match manifests {
                Ok(entries) => {
                    manifests_listed = true;
                    let names = entries.into_iter().filter_map(|(key, _, _)| {
                        key.strip_prefix(LISTED[0]).map(str::to_string)
                    });
                    universe.extend(names);
                }
                Err(StoreError::Timeout) => timed_out = true,
                Err(_) => {}
            }
            // A node whose shard listing failed is skipped by the GC:
            // its keys are invisible this cycle, never presumed
            // collectible. A `t:` listing that failed alone only keeps
            // the hash blobs for a later cycle.
            if let Ok(mut entries) = shards {
                entries.extend(trees.unwrap_or_default());
                let names = entries.iter().filter_map(|(key, _, _)| parse_gc_key(key));
                universe.extend(names.map(|(object, _, _)| object.to_string()));
                listings.push((addr, entries));
            }
        }
        if !manifests_listed {
            return Err(no_node_answered(timed_out));
        }
        let mut report = ClusterScrubReport {
            dead_nodes,
            objects: Vec::new(),
            failed_objects: Vec::new(),
            generations_collected: 0,
            bytes_reclaimed: 0,
            hash_bytes_read: 0,
            payload_bytes_read: 0,
        };
        let universe: Vec<String> = universe.into_iter().collect();
        let mut elections = Vec::with_capacity(universe.len());
        for window in universe.chunks(OBJECTS_PER_ROUND) {
            let votes = self.fetch_records(conns, window, &[]);
            let elected = window.iter().zip(votes).map(|(object, vote)| Elected {
                object: object.clone(),
                gc_deferred: vote.conn_err.is_some(),
                manifest: vote.manifest(object),
            });
            let from = elections.len();
            elections.extend(elected);
            self.scrub_window(conns, &elections[from..], deep, &mut report);
        }
        self.collect_garbage(conns, &listings, &elections, &mut report);
        Ok(report)
    }

    /// Scrub the objects of one election window into `report`: every
    /// live one stored under this cluster's codec, its shard roots
    /// fetched for all of them in one round (or, `deep`, each read in
    /// full).
    fn scrub_window(
        &self,
        conns: &mut ParallelConnSet,
        elections: &[Elected],
        deep: bool,
        report: &mut ClusterScrubReport,
    ) {
        let mut targets: Vec<(&str, &Manifest)> = Vec::with_capacity(elections.len());
        for Elected { object, manifest, .. } in elections {
            let reason = match manifest {
                // Tombstoned (deleted) or never published — the key
                // listing can't filter these; they are not damage.
                Err(StoreError::NotFound(_)) => continue,
                Err(e) => e.to_string(),
                Ok(m) => match self.check_geometry(object, m) {
                    Ok(()) => {
                        targets.push((object, m));
                        continue;
                    }
                    Err(e) => e.to_string(),
                },
            };
            report.failed_objects.push((object.clone(), reason));
        }
        let mut roots = (!deep).then(|| self.fetch_roots(conns, &targets));
        for (object, manifest) in targets {
            let scrubbed = match &mut roots {
                None => self.scrub_object_full(conns, object, manifest),
                // O(p · log leaves) hash bytes, zero payload bytes for a
                // healthy object.
                Some(roots) => Ok(self.scrub_object_incremental(conns, object, manifest, roots)),
            };
            match scrubbed {
                Ok(scrub) => {
                    report.hash_bytes_read += scrub.hash_bytes_read;
                    report.payload_bytes_read += scrub.payload_bytes_read;
                    report.objects.push(scrub);
                }
                Err(e) => report.failed_objects.push((object.to_string(), e.to_string())),
            }
        }
    }

    /// One round, two `HASH_SUBTREE` jobs per shard of every target,
    /// pipelined on the shard's node: the root of the tree the node
    /// computes from the shard blob as it is now, then the root of the
    /// tree stored in its `t:` hash blob. The answers, in that order,
    /// for [`Cluster::scrub_object_incremental`] to judge.
    fn fetch_roots(
        &self,
        conns: &mut ParallelConnSet,
        targets: &[(&str, &Manifest)],
    ) -> std::vec::IntoIter<Result<Hash, StoreError>> {
        // Per shard: its node, its two keys, and its tree's geometry.
        let shards: Vec<(&str, [String; 2], u32, u8)> = (targets.iter())
            .flat_map(|&(object, m)| {
                let leaves = leaf_count(m.shard_len, m.hash_leaf_size as u64);
                let top = (MerkleTree::level_widths(leaves).len() - 1) as u8;
                (0..m.total_shards()).map(move |i| {
                    let keys = [m.shard_key(object, i), tree_key(object, i, m.shard_gen[i])];
                    (m.placement[i].as_str(), keys, m.hash_leaf_size, top)
                })
            })
            .collect();
        let jobs: Vec<_> = (shards.iter())
            .flat_map(|(addr, [skey, tkey], leaf_size, top)| {
                [(skey, false), (tkey, true)].map(|(key, stored)| {
                    let (leaf_size, level, start, count) = (*leaf_size, *top, 0, 1);
                    let op = BatchOp::HashSubtree { key, leaf_size, stored, level, start, count };
                    (*addr, op, |answer| reply::hash_subtree(answer, 1).map(|v| v[0]))
                })
            })
            .collect();
        conns.run_batch(jobs).into_iter()
    }

    /// The scrub-time garbage collector: collect every shard key no
    /// live manifest references, once it has outlived the grace window.
    /// It judges the sweep's own listing (`listings`, the nodes whose
    /// shard listing answered) against the sweep's own elections, which
    /// were taken after that listing — so every generation published
    /// before a key was listed is seen — and deletes in one round.
    ///
    /// A shard key on node `A` is **live** iff the object's winning
    /// manifest `m` has `m.placement[idx] == A && m.shard_gen[idx] ==
    /// gen` — one rule that uniformly covers superseded generations
    /// (a later write swung the manifest away), crash orphans (their
    /// manifest never published, or a tombstone won), and ex-placement
    /// strays from membership churn. Everything else about the pass is
    /// refusal to over-collect:
    ///
    /// * an object whose record election hit *any* transport failure is
    ///   skipped this cycle — the unreachable node might hold the
    ///   freshest manifest, and collecting against a stale one would
    ///   eat a published generation;
    /// * a key younger than the grace window is kept even when no
    ///   manifest references it: it may belong to a put that has not
    ///   published *yet* (ages come from each node's own clock via
    ///   `LIST_AGED`, so no cross-node clock agreement is assumed);
    /// * a node that did not answer its shard listing is skipped; its
    ///   garbage waits for a later cycle.
    ///
    /// GC failures are deliberately non-fatal to the scrub: collection
    /// is bookkeeping, and the next cycle retries everything.
    fn collect_garbage(
        &self,
        conns: &mut ParallelConnSet,
        listings: &[(&str, AgedListing)],
        elections: &[Elected],
        report: &mut ClusterScrubReport,
    ) {
        let grace_secs = self.gc_grace.as_secs();
        // Per object: `Some(m)` = live manifest, `None` = provably
        // deleted or never published; objects whose election was
        // deferred stay out of the map and are skipped entirely.
        let live: HashMap<&str, Option<&Manifest>> = (elections.iter())
            .filter(|e| !e.gc_deferred)
            .map(|e| (e.object.as_str(), e.manifest.as_ref().ok()))
            .collect();
        // Every node's doomed keys, then one delete round across nodes.
        let mut doomed: Vec<(&str, &(String, u64, u64))> = Vec::new();
        for &(addr, ref entries) in listings {
            let is_doomed = |(key, age_secs, _): &&(String, u64, u64)| {
                let Some((object, idx, gen)) = parse_gc_key(key) else {
                    return false; // not ours to judge
                };
                let is_live = match live.get(object) {
                    None => return false, // election deferred: keep
                    Some(None) => false,
                    Some(Some(m)) => {
                        m.placement.get(idx).map(String::as_str) == Some(addr)
                            && m.shard_gen.get(idx) == Some(&gen)
                    }
                };
                !is_live && *age_secs >= grace_secs
            };
            doomed.extend(entries.iter().filter(is_doomed).map(|entry| (addr, entry)));
        }
        let jobs: Vec<_> = doomed
            .iter()
            .map(|(addr, (key, _, _))| (*addr, BatchOp::Delete { key }, reply::delete))
            .collect();
        let mut collected: BTreeSet<(&str, u64)> = BTreeSet::new();
        for ((_, (key, _, len)), result) in doomed.iter().zip(conns.run_batch(jobs)) {
            if matches!(result, Ok(true)) {
                let (object, _, gen) = parse_gc_key(key).expect("filtered above");
                collected.insert((object, gen));
                report.bytes_reclaimed += len;
            }
        }
        report.generations_collected = collected.len() as u64;
    }

    /// The full-read scrub: fetch every shard (CRC- and root-verified by
    /// the fetch job), then re-encode data↔parity chunk-wise.
    fn scrub_object_full(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        manifest: &Manifest,
    ) -> Result<ObjectScrub, StoreError> {
        let total = manifest.total_shards();
        let all: Vec<usize> = (0..total).collect();
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; total];
        let mut health = Vec::with_capacity(total);
        let mut payload_bytes_read = 0u64;
        for (i, result) in self.fetch_shards(conns, object, manifest, &all).into_iter().enumerate() {
            match result {
                Ok(bytes) => {
                    payload_bytes_read += bytes.len() as u64;
                    shards[i] = Some(bytes);
                    health.push(ShardHealth::Ok);
                }
                Err(fault) => health.push(fault.into()),
            }
        }
        let parity_consistent = if health.iter().all(ShardHealth::is_ok) {
            let owned: Vec<Vec<u8>> =
                shards.into_iter().map(|s| s.expect("all present")).collect();
            Some(self.codec.verify(&owned)?)
        } else {
            None
        };
        Ok(ObjectScrub {
            object: object.to_string(),
            shards: health,
            parity_consistent,
            hash_bytes_read: 0,
            payload_bytes_read,
            damaged_leaves: Vec::new(),
        })
    }

    /// The incremental (Merkle) scrub of one object, judging the two
    /// roots per shard [`Cluster::fetch_roots`] fetched (taken from
    /// `roots` in shard order): the node's *computed* root (re-hashed
    /// from the shard blob as it is right now) and the *stored* root
    /// (from the `t:` hash blob). A shard whose computed root equals
    /// the manifest root provably holds the exact bytes recorded at
    /// write time — no payload read needed, and since parity was
    /// consistent when those roots were recorded, unchanged bytes mean
    /// parity still holds. A computed mismatch descends the two trees
    /// level by level, fetching only the children of mismatching nodes,
    /// to name the exact damaged leaves in O(damaged · log leaves) hash
    /// transfers.
    fn scrub_object_incremental(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        manifest: &Manifest,
        roots: &mut impl Iterator<Item = Result<Hash, StoreError>>,
    ) -> ObjectScrub {
        let total = manifest.total_shards();
        let leaf_size = manifest.hash_leaf_size;
        let widths =
            MerkleTree::level_widths(leaf_count(manifest.shard_len, leaf_size as u64));
        let mut health = Vec::with_capacity(total);
        let mut hash_bytes_read = 0u64;
        let mut damaged_leaves = Vec::new();
        for (i, addr) in manifest.placement.iter().enumerate() {
            let computed = roots.next().expect("a computed root per shard");
            let stored = roots.next().expect("a stored root per shard");
            hash_bytes_read += 32 * (computed.is_ok() as u64 + stored.is_ok() as u64);
            let computed = match computed {
                Ok(root) => root,
                Err(StoreError::Remote { code: RemoteErrorCode::NotFound, .. }) => {
                    health.push(ShardHealth::Missing(format!(
                        "{addr}: shard blob absent"
                    )));
                    continue;
                }
                Err(e @ StoreError::Remote { .. }) => {
                    health.push(ShardHealth::Corrupt(format!("{addr}: {e}")));
                    continue;
                }
                // Anything but an answer from the node is the
                // connection's failure, and the stored root's went with it.
                Err(e) => {
                    health.push(ShardHealth::Missing(format!("{addr}: {e}")));
                    continue;
                }
            };
            if computed == manifest.shard_root[i] {
                // Payload proven byte-exact. The stored hash blob is a
                // cache — audit it so descent stays possible next time.
                match stored {
                    Ok(root) if root == manifest.shard_root[i] => {
                        health.push(ShardHealth::Ok)
                    }
                    Ok(_) => health.push(ShardHealth::BadHashes(format!(
                        "{addr}: stored hash blob disagrees with the manifest root"
                    ))),
                    Err(e) => health.push(ShardHealth::BadHashes(format!(
                        "{addr}: stored hash blob unusable: {e}"
                    ))),
                }
                continue;
            }
            // Computed ≠ manifest: the shard's bytes changed since the
            // write. Attribute the damage by descending computed vs
            // stored — valid only when the stored tree re-hashes to the
            // trusted manifest root.
            let trusted_cache = matches!(&stored, Ok(r) if *r == manifest.shard_root[i]);
            if !trusted_cache {
                health.push(ShardHealth::Corrupt(format!(
                    "{addr}: shard fails its manifest Merkle root and the stored \
                     hash blob is unusable for attribution"
                )));
                continue;
            }
            match self.descend(
                conns,
                object,
                manifest,
                i,
                &widths,
                &mut hash_bytes_read,
            ) {
                Ok(leaves) => {
                    health.push(ShardHealth::Corrupt(format!(
                        "{addr}: shard fails its manifest Merkle root; damaged \
                         {leaf_size}-byte leaves {leaves:?}"
                    )));
                    damaged_leaves.push((i, leaves));
                }
                Err(e) => health.push(ShardHealth::Corrupt(format!(
                    "{addr}: shard fails its manifest Merkle root (descent \
                     failed: {e})"
                ))),
            }
        }
        // Healthy bytes are *unchanged* bytes: the roots were recorded
        // when data and parity were consistent by construction, so the
        // re-encode check is implied. (A hash-blob audit failure does
        // not make parity unknown — the payload roots all verified.)
        let payload_healthy = health
            .iter()
            .all(|h| matches!(h, ShardHealth::Ok | ShardHealth::BadHashes(_)));
        ObjectScrub {
            object: object.to_string(),
            shards: health,
            parity_consistent: if payload_healthy { Some(true) } else { None },
            hash_bytes_read,
            payload_bytes_read: 0,
            damaged_leaves,
        }
    }

    /// Walk shard `i`'s computed and stored trees from the root's
    /// children down, fetching only the children of mismatching nodes,
    /// and return the leaf indices where the two disagree.
    fn descend(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        manifest: &Manifest,
        i: usize,
        widths: &[u64],
        hash_bytes_read: &mut u64,
    ) -> Result<Vec<usize>, StoreError> {
        let addr = &manifest.placement[i];
        let skey = manifest.shard_key(object, i);
        let tkey = tree_key(object, i, manifest.shard_gen[i]);
        let leaf_size = manifest.hash_leaf_size;
        let top = widths.len() - 1;
        let mut suspects = vec![0usize];
        for level in (0..top).rev() {
            let width = widths[level] as usize;
            // One round per level: the children of every suspect, from
            // the computed tree and from the stored one.
            let jobs: Vec<_> = suspects
                .iter()
                .flat_map(|&parent| [(parent, &skey, false), (parent, &tkey, true)])
                .map(|(parent, key, stored)| {
                    let start = parent as u32 * 2;
                    let count = 2.min(width as u32 - start);
                    let level = level as u8;
                    let op = BatchOp::HashSubtree { key, leaf_size, stored, level, start, count };
                    (addr.as_str(), op, move |answer| reply::hash_subtree(answer, count))
                })
                .collect();
            let mut children = conns.run_batch(jobs).into_iter();
            let mut next = Vec::with_capacity(suspects.len() * 2);
            for &parent in &suspects {
                let computed = children.next().expect("computed children per suspect")?;
                let stored = children.next().expect("stored children per suspect")?;
                *hash_bytes_read += 32 * (computed.len() + stored.len()) as u64;
                for (k, (c, s)) in computed.iter().zip(&stored).enumerate() {
                    if c != s {
                        next.push(parent * 2 + k);
                    }
                }
            }
            if next.is_empty() {
                // The trees disagree at the root but nowhere below — the
                // damage is in interior bookkeeping, not leaf data;
                // nothing finer to report.
                return Ok(suspects);
            }
            suspects = next;
        }
        Ok(suspects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::NodeClient;
    use crate::node::NodeHandle;
    use ec_core::RsConfig;
    use std::time::Duration;

    /// Regression for the shared-connection-state contract: a node
    /// found dead by the sweep's listing round is marked dead exactly once
    /// in the operation's `ParallelConnSet` — every per-object touch
    /// afterwards fast-fails without a new dial, so a sweep over many
    /// objects pays one connect failure, not one per object.
    #[test]
    fn scrub_marks_a_dead_node_exactly_once() {
        let root = std::env::temp_dir()
            .join(format!("ec_store_deadonce_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut nodes: Vec<NodeHandle> = (0..4)
            .map(|i| {
                NodeHandle::spawn(&root.join(format!("n{i}")), "127.0.0.1:0", 2)
                    .expect("spawn node")
            })
            .collect();
        let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
        let cluster = Cluster::new(addrs.clone(), RsConfig::new(2, 1)).unwrap();
        for k in 0..12 {
            cluster
                .put(&format!("obj-{k}"), &vec![k as u8; 4096])
                .unwrap();
        }
        let dead = addrs[0].clone();
        nodes.remove(0).shutdown();

        let mut conns = cluster.conns();
        let report = cluster.scrub_via(&mut conns, false).unwrap();
        assert_eq!(report.dead_nodes, vec![dead.clone()]);
        assert_eq!(report.objects.len() + report.failed_objects.len(), 12);
        assert_eq!(
            conns.connect_attempts(&dead),
            1,
            "a dead node must be dialed once per sweep, not once per object"
        );
        drop(nodes);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `count` nodes under a fresh directory named for `test`.
    fn spawn_nodes(test: &str, count: usize) -> (std::path::PathBuf, Vec<NodeHandle>, Vec<String>) {
        let root = std::env::temp_dir().join(format!("ec_store_{test}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let nodes: Vec<NodeHandle> = (0..count)
            .map(|i| NodeHandle::spawn(&root.join(format!("n{i}")), "127.0.0.1:0", 2).unwrap())
            .collect();
        let addrs = nodes.iter().map(|n| n.addr().to_string()).collect();
        (root, nodes, addrs)
    }

    /// The sweep's shape, counted on its connection set: one listing
    /// round (three `LIST_AGED`s per node), one election round (a `GET`
    /// per node per object, orphan-only objects included), one root
    /// round (two `HASH_SUBTREE`s per shard of every live object) and
    /// one delete round — and the orphan a crashed first put left,
    /// with no manifest anywhere, is collected.
    #[test]
    fn a_sweep_is_four_rounds_and_collects_an_orphan() {
        let (root, nodes, addrs) = spawn_nodes("sweep_shape", 5);
        let (n, k) = (addrs.len() as u32, 3u32);
        let cluster = Cluster::new(addrs.clone(), RsConfig::new(2, 1))
            .unwrap()
            .with_gc_grace(Duration::ZERO);
        let shards = cluster.codec.total_shards() as u32;
        for i in 0..k {
            cluster.put(&format!("obj-{i}"), &vec![i as u8; 4096]).unwrap();
        }
        let crashing = Cluster::new(addrs.clone(), RsConfig::new(2, 1))
            .unwrap()
            .with_failpoint(std::sync::Arc::new(|point: &str, _| point == "put.publish"));
        assert!(crashing.put("orphan", &[7u8; 4096]).is_err());

        let mut conns = cluster.conns();
        let report = cluster.scrub_via(&mut conns, false).unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.objects.len(), k as usize);
        assert_eq!(report.generations_collected, 1, "{report:?}");
        let (listings, elections, roots) = (3 * n, (k + 1) * n, 2 * shards * k);
        let deletes = 2 * shards; // the orphan's shard blobs and hash blobs
        assert_eq!(conns.rounds(), 4);
        assert_eq!(conns.requests(), listings + elections + roots + deletes);
        for addr in &addrs {
            let mut node = NodeClient::connect(addr, Duration::from_secs(5)).unwrap();
            for prefix in ["s:", "t:"] {
                let left = node.list(prefix).unwrap();
                assert!(
                    left.iter().all(|key| parse_gc_key(key).is_some_and(|(o, _, _)| o != "orphan")),
                    "{addr}: {left:?}"
                );
            }
        }
        drop(nodes);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Past [`OBJECTS_PER_ROUND`] objects the election and the root
    /// checks take a second round each; with nothing to collect there
    /// is no delete round.
    #[test]
    fn a_sweep_elects_and_checks_roots_a_window_per_round() {
        let (root, nodes, addrs) = spawn_nodes("sweep_window", 4);
        let n = addrs.len() as u32;
        let k = OBJECTS_PER_ROUND as u32 + 1;
        let cluster = Cluster::new(addrs, RsConfig::new(2, 1))
            .unwrap()
            .with_gc_grace(Duration::ZERO);
        let shards = cluster.codec.total_shards() as u32;
        for i in 0..k {
            cluster.put(&format!("obj-{i:03}"), &[i as u8; 512]).unwrap();
        }
        let mut conns = cluster.conns();
        let report = cluster.scrub_via(&mut conns, false).unwrap();
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.objects.len(), k as usize);
        assert_eq!(report.generations_collected, 0);
        assert_eq!(conns.rounds(), 1 + 2 * 2);
        assert_eq!(conns.requests(), 3 * n + k * n + 2 * shards * k);
        drop(nodes);
        let _ = std::fs::remove_dir_all(&root);
    }
}
