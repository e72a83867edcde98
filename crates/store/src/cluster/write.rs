//! The write path: `put`, `delete` and the delta `overwrite`, with the
//! prepare round and the record publish every write shares.

use super::{trip, Cluster, Ship};
use crate::client::{reply, BatchOp};
use crate::error::StoreError;
use crate::fanout::ParallelConnSet;
use crate::manifest::{self, manifest_key, validate_object_name, Manifest};
use crate::proto::{MAX_BODY, MAX_KEY};
use crate::tree::{tree_key, HashBlob, HASH_LEAF_SIZE};
use ec_wire::crc32;
use ec_wire::merkle::{root_over_roots, Hash};

/// Result of a [`Cluster::put`].
#[derive(Clone, Debug)]
pub struct PutReport {
    /// Shards stored (`n + p`).
    pub shards_written: usize,
    /// Bytes per shard.
    pub shard_len: usize,
    /// Nodes holding a manifest replica after the put.
    pub manifest_replicas: usize,
}

/// How an [`Cluster::overwrite`] was executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverwriteMode {
    /// Changed data shards + delta parity updates (the cheap path).
    Delta,
    /// Full re-encode and re-put (size changed, too much changed, or
    /// prerequisites for the delta were unavailable).
    Full,
    /// The new bytes equal the stored bytes; nothing was written.
    NoChange,
}

/// Result of a [`Cluster::overwrite`].
#[derive(Clone, Debug)]
pub struct OverwriteReport {
    pub mode: OverwriteMode,
    /// Data-shard indices whose content changed.
    pub changed: Vec<usize>,
    /// Shards actually shipped to nodes (changed data + parity for the
    /// delta path; `n + p` for the full path; `0` for no change).
    pub shards_written: usize,
    /// Old shards fetched to compute the write: the changed data shards
    /// and the `p` parity shards for the delta path; `0` otherwise
    /// (which shards changed is read off the manifest's Merkle roots,
    /// not off the stored payloads).
    pub shards_read: usize,
    /// XOR instructions the executed path costs per packet-byte
    /// (column programs of the changed shards for delta; the full
    /// encode program otherwise). Comparing the two *proves* the delta
    /// win — the acceptance metric of the delta-update subsystem.
    pub xor_count: usize,
    /// XOR count of the full encode program, for comparison.
    pub full_xor_count: usize,
}

/// Write one `m:` record of `object` — a manifest or a tombstone — to
/// every one of `targets` in one round: the commit point of every
/// write. A target `required` holds for must accept it, the rest are
/// best-effort. Returns how many accepted.
pub(super) fn publish(
    conns: &mut ParallelConnSet,
    object: &str,
    record: &[u8],
    targets: impl IntoIterator<Item = impl AsRef<str>>,
    required: impl Fn(&str) -> bool,
) -> Result<usize, StoreError> {
    let key = manifest_key(object);
    let put = BatchOp::Put {
        key: &key,
        data: record,
    };
    let targets: Vec<_> = targets.into_iter().collect();
    let mut accepted = 0;
    let results = conns.run_batch(
        targets
            .iter()
            .map(|a| (a.as_ref(), put, reply::put))
            .collect(),
    );
    for (addr, result) in targets.iter().zip(results) {
        match result {
            Ok(()) => accepted += 1,
            Err(e) if required(addr.as_ref()) => return Err(e),
            Err(_) => {}
        }
    }
    Ok(accepted)
}

impl Cluster {
    /// Store `data` under `object`, replacing any previous version.
    ///
    /// Writes to one object must be serialized by the caller (single
    /// writer per object): two concurrent writers can race the
    /// generation election and the loser's publish silently supersede
    /// the winner's. The race is *detectable and collectable* — each
    /// writer's shards live under its own generation keys, the election
    /// picks exactly one manifest, and the loser's generation is
    /// GC'd — but last-publish-wins is not a merge. Concurrent writers
    /// of different objects are safe.
    ///
    /// Replacement is crash-atomic: the new generation's shards are
    /// written under fresh generation-qualified keys *beside* the live
    /// generation, and the manifest that makes them visible replicates
    /// only after all `n + p` landed. A client that dies at any point
    /// mid-re-put leaves the prior generation byte-exact (its keys were
    /// never touched) and its partial shards unpublished, to be
    /// collected by the next scrub cycle's GC after the grace window.
    pub fn put(&self, object: &str, data: &[u8]) -> Result<PutReport, StoreError> {
        validate_object_name(object)?;
        let mut conns = self.conns();
        // Replacing an existing (or deleted) object must advance its
        // generation past every live replica *and* every tombstone, so
        // stale records lose the freshest-record vote.
        let vote = self.fetch_record(&mut conns, object, &[]);
        let generation = vote.next_generation();
        self.put_inner(&mut conns, object, data, generation, None)
    }

    /// [`Cluster::put`] with the generation election already decided
    /// (the overwrite fallbacks fetched the manifest; no second
    /// cluster-wide sweep) and, from an overwrite that already hashed
    /// them to find what changed, the data shards' hash blobs in
    /// `data_blobs`. Superseded shards — the prior generation's
    /// keys, and ex-placement blobs stranded by membership churn — are
    /// deliberately *not* reclaimed here: a concurrent reader may still
    /// be fetching the prior generation it resolved, so collection
    /// belongs to the scrub-time GC.
    fn put_inner(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        data: &[u8],
        generation: u64,
        data_blobs: Option<Vec<HashBlob>>,
    ) -> Result<PutReport, StoreError> {
        let shard_len = self.codec.shard_len(data.len());
        if shard_len + MAX_KEY + 64 > MAX_BODY {
            return Err(StoreError::InvalidArg(format!(
                "object of {} bytes needs {shard_len}-byte shards, beyond the \
                 {MAX_BODY}-byte frame cap — archive it with ec-stream instead",
                data.len()
            )));
        }
        let shards = self.codec.encode(data)?;
        let placement = self.placement_for(object);
        let spec = self.codec.spec();
        // Hash every shard once at write time: the per-shard Merkle
        // roots (and the object root over them) ride in the manifest as
        // the end-to-end ground truth, and the leaf hashes ship beside
        // each shard as its `t:` blob so scrub can descend without
        // re-reading payloads. The shards the caller's blobs do not
        // cover (parity after an overwrite; all of them for a put) are
        // hashed here.
        let mut hash_blobs = data_blobs.unwrap_or_default();
        let hashed = hash_blobs.len();
        hash_blobs.extend(HashBlob::from_shards(&shards[hashed..], HASH_LEAF_SIZE));
        let shard_root: Vec<Hash> = hash_blobs.iter().map(HashBlob::root).collect();
        let manifest = Manifest {
            data_shards: spec.data_shards as u16,
            parity_shards: spec.parity_shards as u16,
            codec_id: spec.id.wire(),
            group_size: spec.group_size as u16,
            generation,
            object_len: data.len() as u64,
            shard_len: shard_len as u64,
            placement: placement.clone(),
            shard_crc: shards.iter().map(|s| crc32(s)).collect(),
            shard_gen: vec![generation; shards.len()],
            hash_leaf_size: HASH_LEAF_SIZE,
            object_root: root_over_roots(&shard_root),
            shard_root,
        };
        // Prepare: all n + p shards (each with its hash blob) ship in
        // one concurrent round under the new generation's keys — beside
        // the live generation, never over it — so the put costs
        // ~max(per-node RTT), not the sum. All must land before the
        // manifest publishes; any failure here aborts with the prior
        // generation untouched and the partial shards left for GC.
        let tree_bytes: Vec<Vec<u8>> = hash_blobs.iter().map(HashBlob::to_bytes).collect();
        let ships: Vec<Ship> = (shards.iter().zip(&tree_bytes).enumerate())
            .flat_map(|(i, (shard, tree))| {
                let addr = placement[i].as_str();
                [
                    (addr, manifest.shard_key(object, i), shard.as_slice(), i),
                    (addr, tree_key(object, i, generation), tree.as_slice(), i),
                ]
            })
            .collect();
        self.ship(conns, "put.shard", &ships)?
            .into_iter()
            .collect::<Result<(), _>>()?;
        // Publish: the manifest replication is the commit point.
        // Required on the placement nodes: they are what repair trusts.
        trip(&self.failpoint, "put.publish", 0)?;
        let placed = |addr: &str| manifest.placement.iter().any(|a| a == addr);
        let replicas = publish(conns, object, &manifest.to_bytes(), &self.nodes, placed)?;
        Ok(PutReport {
            shards_written: shards.len(),
            shard_len,
            manifest_replicas: replicas,
        })
    }

    /// One prepare round, in ship order — a shard before its hash blob,
    /// so a crash leaves whole pairs. The round stops at the first ship
    /// whose failpoint `point` trips, as if the client died there: the
    /// ships before it go out, none after it do, and its error is the
    /// round's. Otherwise, each ship's result.
    pub(super) fn ship(
        &self,
        conns: &mut ParallelConnSet,
        point: &'static str,
        ships: &[Ship],
    ) -> Result<Vec<Result<(), StoreError>>, StoreError> {
        let crash = (ships.iter().enumerate())
            .find_map(|(k, &(.., at))| trip(&self.failpoint, point, at).err().map(|e| (k, e)));
        let sent = crash.as_ref().map_or(ships.len(), |&(k, _)| k);
        let jobs: Vec<_> = ships[..sent]
            .iter()
            .map(|(addr, key, data, _)| (*addr, BatchOp::Put { key, data }, reply::put))
            .collect();
        let results = conns.run_batch(jobs);
        match crash {
            Some((_, e)) => Err(e),
            None => Ok(results),
        }
    }

    /// Delete `object` everywhere. Returns the number of shard blobs
    /// removed (unreachable nodes are skipped).
    ///
    /// Deletion is recorded as a *tombstone* under the manifest key —
    /// a higher-generation grave marker — rather than by removing the
    /// manifests: a node that slept through the delete would otherwise
    /// resurrect the object with its surviving replica and wedge every
    /// scrub cycle on an unreconstructable ghost.
    pub fn delete(&self, object: &str) -> Result<usize, StoreError> {
        validate_object_name(object)?;
        let mut conns = self.conns();
        let manifest = self.fetch_manifest(&mut conns, object, &[])?;
        // The tombstone publishes *first*: the index swing is the
        // delete, exactly as the manifest swing is the put. A client
        // that dies right after this point has deleted the object; the
        // shard blobs it did not get to are ordinary superseded keys
        // for the GC. The old order (shards first) had a crash window
        // where the object was half-destroyed yet still live.
        let tomb = manifest::tombstone_bytes(manifest.generation + 1);
        if publish(&mut conns, object, &tomb, &self.nodes, |_| false)? == 0 {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "no node accepted the delete tombstone",
            )));
        }
        // Best-effort eager reclaim of the shard keys (and their `t:`
        // hash-blob twins) the manifest referenced; whatever this misses
        // (unreachable nodes, older generations) the GC collects after
        // the grace window.
        let mut doomed: Vec<(String, String, bool)> = Vec::new();
        for (i, addr) in manifest.placement.iter().enumerate() {
            doomed.push((addr.clone(), manifest.shard_key(object, i), true));
            doomed.push((
                addr.clone(),
                tree_key(object, i, manifest.shard_gen[i]),
                false,
            ));
        }
        let jobs: Vec<_> = doomed
            .iter()
            .map(|(addr, key, _)| (addr.as_str(), BatchOp::Delete { key }, reply::delete))
            .collect();
        // The returned count stays what it always was: *shard* blobs
        // removed (hash blobs are bookkeeping, not payload).
        let removed = doomed
            .iter()
            .zip(conns.run_batch(jobs))
            .filter(|((_, _, is_shard), r)| *is_shard && matches!(r, Ok(true)))
            .count();
        Ok(removed)
    }

    /// Replace `object`'s content, shipping deltas instead of the world
    /// when possible. Which data shards changed is decided from the
    /// manifest alone — a new shard whose SHA-256 Merkle root equals
    /// `shard_root[i]` is unchanged, and is neither read nor rewritten —
    /// then the changed old shards and the `p` parity shards are fetched
    /// in one round and parity is updated with the cached per-column
    /// programs over `old ⊕ new`. Falls back to a full re-put when the
    /// shard geometry changes, every data shard changed, or a *changed*
    /// old shard or a parity shard is not retrievable.
    ///
    /// An overwrite never reads the shards it does not change, so a dead
    /// or rotten **unchanged** shard neither stops the delta nor is
    /// noticed by it: finding that damage is [`Cluster::scrub`]'s job.
    ///
    /// Like [`Cluster::put`], writes to one object must be serialized
    /// by the caller: the delta path is a read-modify-write of parity
    /// with no cross-client locking, so two concurrent overwrites of
    /// the same object can each apply only their own delta and leave
    /// parity matching neither.
    pub fn overwrite(&self, object: &str, data: &[u8]) -> Result<OverwriteReport, StoreError> {
        validate_object_name(object)?;
        let (n, p) = (self.codec.data_shards(), self.codec.parity_shards());
        let full_xor = self.codec.encode_slp().xor_count();
        let full_report = |put: PutReport| OverwriteReport {
            mode: OverwriteMode::Full,
            changed: (0..n).collect(),
            shards_written: put.shards_written,
            shards_read: 0,
            xor_count: full_xor,
            full_xor_count: full_xor,
        };

        let mut conns = self.conns();
        let mut manifest = match self.fetch_manifest(&mut conns, object, &[]) {
            Ok(m) => m,
            // Absent (or tombstoned): a plain put re-runs the
            // generation election and resurrects cleanly.
            Err(StoreError::NotFound(_)) => return self.put(object, data).map(full_report),
            Err(e) => return Err(e),
        };
        self.check_geometry(object, &manifest)?;
        // The manifest just fetched won the generation election, so
        // `generation + 1` beats every replica and tombstone without a
        // second cluster sweep — on the full path as on the delta path.
        let new_gen = manifest.generation + 1;
        if self.codec.shard_len(data.len()) as u64 != manifest.shard_len {
            // Geometry changed: delta cannot apply.
            return self
                .put_inner(&mut conns, object, data, new_gen, None)
                .map(full_report);
        }

        // Change detection, zero payload reads: hash the new data shards
        // (the blobs ship with whatever changed, on either path) and
        // compare roots with the manifest's. Roots, never `shard_crc`
        // alone — CRC-32 is linear and an edit can preserve it. A
        // manifest hashed at another leaf size has no comparable roots:
        // every shard counts as changed.
        let new = self.codec.split_data(data);
        let new_blobs = HashBlob::from_shards(&new, HASH_LEAF_SIZE);
        let same_leaves = manifest.hash_leaf_size == HASH_LEAF_SIZE;
        let changed: Vec<usize> = (0..n)
            .filter(|&i| !same_leaves || new_blobs[i].root() != manifest.shard_root[i])
            .collect();
        if changed.is_empty() {
            if data.len() as u64 != manifest.object_len {
                // Same shard bytes, different logical length (padding
                // collision): only the manifest needs refreshing.
                manifest.object_len = data.len() as u64;
                manifest.generation = new_gen;
                let placed = |addr: &str| manifest.placement.iter().any(|a| a == addr);
                publish(
                    &mut conns,
                    object,
                    &manifest.to_bytes(),
                    &self.nodes,
                    placed,
                )?;
            }
            return Ok(OverwriteReport {
                mode: OverwriteMode::NoChange,
                changed,
                shards_written: 0,
                shards_read: 0,
                xor_count: 0,
                full_xor_count: full_xor,
            });
        }
        if changed.len() == n {
            // Nothing survives; re-encoding is strictly cheaper.
            return self
                .put_inner(&mut conns, object, data, new_gen, Some(new_blobs))
                .map(full_report);
        }
        let delta_xor: usize = changed
            .iter()
            .map(|&i| self.codec.update_slp(i).map(|slp| slp.xor_count()))
            .sum::<Result<usize, _>>()?;

        // The one read round: the changed old data shards and all p
        // parity shards (each CRC- and root-verified against the
        // manifest). The parity RMW needs every one of them — fall back
        // without.
        let touched: Vec<usize> = changed.iter().copied().chain(n..n + p).collect();
        let fetched: Result<Vec<Vec<u8>>, _> = self
            .fetch_shards(&mut conns, object, &manifest, &touched)
            .into_iter()
            .collect();
        let Ok(mut old) = fetched else {
            return self
                .put_inner(&mut conns, object, data, new_gen, Some(new_blobs))
                .map(full_report);
        };
        let mut parity = old.split_off(changed.len());
        {
            let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
            for (&i, old) in changed.iter().zip(old) {
                self.codec.update_parity(i, &old, &new[i], &mut prefs)?;
            }
        }

        // Prepare: ship the changed data shards and the updated parity,
        // each with its hash blob, under the *new* generation's keys in
        // one round. Unchanged data shards keep their keys, generations,
        // roots and stored hash blobs — that is the delta saving — and
        // the old generation's changed/parity keys stay untouched beside
        // the new ones, so a crash anywhere below leaves the published
        // generation byte-exact for readers and the partial
        // new-generation shards for GC.
        let parity_blobs = HashBlob::from_shards(&parity, HASH_LEAF_SIZE);
        let shipped: Vec<(usize, &[u8], &HashBlob)> = touched
            .iter()
            .map(|&i| match i.checked_sub(n) {
                None => (i, new[i].as_slice(), &new_blobs[i]),
                Some(j) => (i, parity[j].as_slice(), &parity_blobs[j]),
            })
            .collect();
        let tree_bytes: Vec<Vec<u8>> = shipped.iter().map(|(_, _, blob)| blob.to_bytes()).collect();
        let ships: Vec<Ship> = (shipped.iter().zip(&tree_bytes).enumerate())
            .flat_map(|(at, (&(i, shard, _), tree))| {
                let addr = manifest.placement[i].as_str();
                [
                    (addr, manifest::shard_key(object, i, new_gen), shard, at),
                    (addr, tree_key(object, i, new_gen), tree.as_slice(), at),
                ]
            })
            .collect();
        self.ship(&mut conns, "overwrite.shard", &ships)?
            .into_iter()
            .collect::<Result<(), _>>()?;
        for &(i, shard, blob) in &shipped {
            manifest.shard_crc[i] = crc32(shard);
            manifest.shard_gen[i] = new_gen;
            manifest.shard_root[i] = blob.root();
        }
        manifest.object_root = root_over_roots(&manifest.shard_root);
        manifest.object_len = data.len() as u64;
        manifest.generation = new_gen;
        // Publish: the commit point of the delta.
        trip(&self.failpoint, "overwrite.publish", 0)?;
        let placed = |addr: &str| manifest.placement.iter().any(|a| a == addr);
        publish(
            &mut conns,
            object,
            &manifest.to_bytes(),
            &self.nodes,
            placed,
        )?;
        Ok(OverwriteReport {
            mode: OverwriteMode::Delta,
            shards_written: touched.len(),
            shards_read: touched.len(),
            changed,
            xor_count: delta_xor,
            full_xor_count: full_xor,
        })
    }
}
