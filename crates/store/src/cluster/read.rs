//! The read path: the manifest election, the data-first `get`, shard
//! fetches and the checks every fetched shard passes, and discovery.

use super::{Cluster, ClusterHealth, RecordVote, ShardFault, OBJECTS_PER_ROUND};
use crate::client::{reply, Answer, BatchOp};
use crate::error::{RemoteErrorCode, StoreError};
use crate::fanout::{release_all, FirstN, ParallelConnSet, Progress, Release};
use crate::manifest::{manifest_key, validate_object_name, Manifest};
use crate::tree::HashBlob;
use ec_core::ErasureCoder;
use ec_wire::crc32;
use std::collections::BTreeSet;
use std::time::Duration;

/// How one shard fetch ended: outer `Err` = transport failure, inner
/// `Err` = the node answered but the shard is damaged or absent.
type Fetched = Result<Result<Vec<u8>, ShardFault>, StoreError>;

/// One shard-fetch outcome slot as a `get`'s hooks see it: `None` =
/// held back or still in flight.
type FetchSlot = Option<Fetched>;

/// The least a data fetch is waited for before it counts as a
/// straggler, however fast the majority was. On a kept connection a
/// healthy fetch takes well under a millisecond — the scale at which a
/// busy host's scheduler delays one node's answer — so below this,
/// lateness is noise, not a slow node.
const MIN_PATIENCE: Duration = Duration::from_millis(5);

/// How one shard fetch of a `get` ended.
#[derive(Clone, Debug)]
pub enum ShardOutcome {
    /// Arrived and passed validation; available to the decode.
    Served,
    /// Still in flight when the read already had enough — a straggler
    /// the read did not wait for.
    Abandoned,
    /// Never asked for: a parity shard the read could do without.
    NotRequested,
    /// The node was unreachable, or the blob absent (reason recorded).
    Dead(String),
    /// Bytes arrived but failed the manifest length, checksum or Merkle
    /// root check.
    Corrupt(String),
}

impl ShardOutcome {
    /// Whether this fetch failed (as opposed to served, abandoned or
    /// never requested).
    pub fn failed(&self) -> bool {
        matches!(self, ShardOutcome::Dead(_) | ShardOutcome::Corrupt(_))
    }
}

/// Per-shard observability of one read: what became of each of the
/// `n + p` shards, and how long its fetch took.
#[derive(Clone, Debug)]
pub struct ShardFetch {
    /// Shard index.
    pub index: usize,
    /// The node holding the shard.
    pub node: String,
    pub outcome: ShardOutcome,
    /// Request-to-completion time (`None` for fetches abandoned or
    /// never requested).
    pub elapsed: Option<Duration>,
}

/// Result of a [`Cluster::get_with_report`].
#[derive(Clone, Debug)]
pub struct GetReport {
    /// Shard indices whose fetch *failed* (unreachable node, absent or
    /// corrupt blob). Abandoned stragglers and shards never requested
    /// are not failures and are not listed here — so a lost parity
    /// shard shows only when a read needed it; finding it otherwise is
    /// scrub's job.
    pub missing: Vec<usize>,
    /// One entry per shard, in index order, with outcome and timing.
    /// Every served shard was verified against its manifest Merkle root.
    pub shards: Vec<ShardFetch>,
}

impl GetReport {
    /// Whether the read observed real damage (a failed shard fetch).
    /// Early-returning past a slow-but-healthy straggler is not
    /// degradation.
    pub fn degraded(&self) -> bool {
        !self.missing.is_empty()
    }

    /// Shard indices the read finished without, for no fault of theirs:
    /// stragglers it stopped waiting for, and shards it never asked for.
    pub fn abandoned(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|s| {
                matches!(
                    s.outcome,
                    ShardOutcome::Abandoned | ShardOutcome::NotRequested
                )
            })
            .map(|s| s.index)
            .collect()
    }
}

fn served_bytes(slot: &FetchSlot) -> Option<&[u8]> {
    match slot {
        Some(Ok(Ok(bytes))) => Some(bytes),
        _ => None,
    }
}

fn served(slot: &FetchSlot) -> bool {
    served_bytes(slot).is_some()
}

/// Whether the shards a `get` has been served decode: all `n` data
/// shards, or a set the codec's decode plan accepts.
fn decodable(codec: &dyn ErasureCoder, outcomes: &[FetchSlot]) -> bool {
    if outcomes[..codec.data_shards()].iter().all(served) {
        return true;
    }
    let unserved: Vec<usize> = (0..outcomes.len())
        .filter(|&i| !served(&outcomes[i]))
        .collect();
    codec.repair_sources(&unserved).is_ok()
}

/// A `get`'s release hook: which shard fetches it wants on the wire.
/// Every data shard from the start, and once a data fetch has failed or
/// straggles, the shards the codec's repair plan for the lost ones names
/// — for RS the first surviving parity per lost shard, for LRC the
/// group's local parity.
///
/// The straggler rule comes from the round's own arrivals: once most
/// data fetches have been served, one still out after twice the time
/// the slowest of those took (and at least [`MIN_PATIENCE`]) is a
/// straggler. A healthy peer lands within
/// the majority's spread, so a healthy read does not hedge, and a
/// straggler holds the read up by at most the majority's time again
/// before its backup goes out. With half or fewer served there is
/// nothing to compare against, so a read whose nodes are all slow just
/// waits for them.
fn wanted(codec: &dyn ErasureCoder, round: &Progress<'_, Result<Vec<u8>, ShardFault>>) -> Release {
    let n = codec.data_shards();
    let outcomes = round.outcomes;
    let mut lost: Vec<usize> = (0..outcomes.len())
        .filter(|&i| matches!(outcomes[i], Some(Ok(Err(_)) | Err(_))))
        .collect();
    let arrivals: Vec<Duration> = (0..n)
        .filter(|&i| served(&outcomes[i]))
        .filter_map(|i| round.elapsed[i])
        .collect();
    let outstanding: Vec<usize> = (0..n).filter(|&i| outcomes[i].is_none()).collect();
    let mut recheck = None;
    if 2 * arrivals.len() > n && !outstanding.is_empty() {
        let slowest = *arrivals.iter().max().expect("a majority was served");
        let patience = (2 * slowest).max(MIN_PATIENCE);
        if round.now >= patience {
            lost.extend(outstanding);
        } else {
            recheck = Some(patience);
        }
    }
    let jobs = if lost.is_empty() {
        (0..n).collect()
    } else {
        match codec.repair_sources(&lost) {
            Ok(plan) => (0..n).chain(plan).collect(),
            // More lost than the code tolerates: ask everyone.
            Err(_) => (0..outcomes.len()).collect(),
        }
    };
    Release { jobs, recheck }
}

/// The shards a `get` asks for once what it was served no longer
/// decodes — a served shard failed its Merkle root, or a backup failed:
/// the repair plan's sources for every shard that failed or was
/// abandoned, among those it never asked for; or, where the plan needs
/// none of those, every shard it has no answer from.
fn backups(codec: &dyn ErasureCoder, outcomes: &[FetchSlot], held: &[bool]) -> Vec<usize> {
    let lost: Vec<usize> = (0..outcomes.len())
        .filter(|&i| {
            if outcomes[i].is_some() {
                !served(&outcomes[i])
            } else {
                !held[i]
            }
        })
        .collect();
    let unanswered = |i: &usize| outcomes[*i].is_none();
    match codec.repair_sources(&lost) {
        Ok(plan) if plan.iter().any(unanswered) => plan.into_iter().filter(unanswered).collect(),
        _ => (0..outcomes.len()).filter(unanswered).collect(),
    }
}

/// The keys of shards `indices` of `object`, for
/// [`shard_fetch_jobs`] to borrow.
fn shard_keys(object: &str, manifest: &Manifest, indices: &[usize]) -> Vec<String> {
    indices
        .iter()
        .map(|&i| manifest.shard_key(object, i))
        .collect()
}

/// One fetch-and-validate job per shard in `indices` (`keys` from
/// [`shard_keys`]), for barrier rounds and `get`'s held round alike.
/// Each answer's length and manifest CRC-32 are checked as it arrives,
/// on the thread running the round, so a round can send a backup for a
/// bad shard at once; the Merkle roots of what it was served are checked
/// after the round, all in one batch ([`check_roots`]). The outer `Err`
/// of a [`Fetched`] is a transport failure (the fan-out layer drops the
/// connection); the inner result is the typed shard outcome.
fn shard_fetch_jobs<'a>(
    manifest: &'a Manifest,
    keys: &'a [String],
    indices: &'a [usize],
) -> Vec<crate::fanout::Job<'a, impl FnOnce(Answer) -> Fetched + 'a>> {
    (indices.iter().zip(keys))
        .map(|(&i, key)| {
            let addr = manifest.placement[i].as_str();
            (addr, BatchOp::Get { key }, move |answer| {
                check_shard(manifest, i, answer)
            })
        })
        .collect()
}

/// Judge what a node answered to the fetch of shard `i`: its length
/// and CRC-32 against the manifest. Its Merkle root is
/// [`check_roots`]' job.
fn check_shard(manifest: &Manifest, i: usize, answer: Answer) -> Fetched {
    let addr = &manifest.placement[i];
    let want_len = manifest.shard_len;
    match answer {
        Ok(bytes) => {
            if bytes.len() as u64 != want_len {
                return Ok(Err(ShardFault::Corrupt(format!(
                    "node {addr} returned {} bytes, manifest says {want_len}",
                    bytes.len()
                ))));
            }
            if crc32(&bytes) != manifest.shard_crc[i] {
                return Ok(Err(ShardFault::Corrupt(format!(
                    "shard bytes from {addr} fail the manifest checksum"
                ))));
            }
            Ok(Ok(bytes))
        }
        Err(StoreError::Remote {
            code: RemoteErrorCode::CorruptBlob,
            message,
        }) => Ok(Err(ShardFault::Corrupt(format!(
            "{addr}: corrupt blob: {message}"
        )))),
        Err(e @ StoreError::Remote { .. }) => Ok(Err(ShardFault::Missing(format!("{addr}: {e}")))),
        Err(e) => Err(e),
    }
}

/// Check every shard a round was served (slot `k` holds shard
/// `indices[k]`) against its manifest Merkle root; one that fails
/// becomes `Corrupt`. Every consumer of a fetch — get, overwrite's fetch
/// of the changed shards and parity, repair's survivor fetch, the
/// full-read scrub — gets end-to-end hash verification this way, so
/// even a CRC-colliding flip cannot slip into a decode. The shards are
/// hashed together, leaf-major ([`HashBlob::from_shards`]): one shard of
/// a 1 MiB RS(10, 4) object is two leaves, too few for the SHA-256
/// lanes, while a round's ten or more fill them.
fn check_roots(manifest: &Manifest, indices: &[usize], slots: &mut [FetchSlot]) {
    let (at, shards): (Vec<usize>, Vec<&[u8]>) = (slots.iter().enumerate())
        .filter_map(|(k, slot)| Some((k, served_bytes(slot)?)))
        .unzip();
    let blobs = HashBlob::from_shards(&shards, manifest.hash_leaf_size);
    for (k, blob) in at.into_iter().zip(blobs) {
        let i = indices[k];
        if blob.root() != manifest.shard_root[i] {
            slots[k] = Some(Ok(Err(ShardFault::Corrupt(format!(
                "shard bytes from {} fail the manifest Merkle root \
                 (CRC-32 passes — checksum-colliding damage)",
                manifest.placement[i]
            )))));
        }
    }
}

/// Why a listing no node answered failed: the operation budget running
/// out is a different story from every node being down, so a timeout
/// stays typed.
pub(super) fn no_node_answered(timed_out: bool) -> StoreError {
    match timed_out {
        true => StoreError::Timeout,
        false => StoreError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            "no cluster node is reachable",
        )),
    }
}

/// One barrier round fetching shards `indices` of `object`, every
/// served shard root-checked.
fn fetch_round(
    conns: &mut ParallelConnSet,
    object: &str,
    manifest: &Manifest,
    indices: &[usize],
) -> FirstN<Result<Vec<u8>, ShardFault>> {
    let keys = shard_keys(object, manifest, indices);
    let jobs = shard_fetch_jobs(manifest, &keys, indices);
    let mut round = conns.run_first_n(jobs, |_| false, release_all);
    check_roots(manifest, indices, &mut round.outcomes);
    round
}

impl Cluster {
    /// Poll every node (skipping `exclude`) for the manifest record of
    /// each of `objects` — one concurrent fan-out round, each node's
    /// `GET`s pipelined on its connection — and tally one election per
    /// object, in `objects` order. An election deliberately waits for
    /// *every* reachable node: returning on the first few answers could
    /// miss the freshest generation or a tombstone and resurrect stale
    /// data. Callers that elect many objects pass at most
    /// [`OBJECTS_PER_ROUND`] at a time.
    pub(super) fn fetch_records<S: AsRef<str>>(
        &self,
        conns: &mut ParallelConnSet,
        objects: &[S],
        exclude: &[&str],
    ) -> Vec<RecordVote> {
        let keys: Vec<String> = objects.iter().map(|o| manifest_key(o.as_ref())).collect();
        let targets: Vec<&str> = (self.nodes.iter().map(String::as_str))
            .filter(|a| !exclude.contains(a))
            .collect();
        let jobs: Vec<_> = (keys.iter())
            .flat_map(|key| {
                targets
                    .iter()
                    .map(move |&addr| (addr, BatchOp::Get { key }))
            })
            .map(|(addr, op)| (addr, op, std::convert::identity))
            .collect();
        let mut answers = conns.run_batch(jobs).into_iter();
        (0..objects.len())
            .map(|_| {
                let mut vote = RecordVote::default();
                answers
                    .by_ref()
                    .take(targets.len())
                    .for_each(|answer| vote.tally(answer));
                vote
            })
            .collect()
    }

    /// The election of one object's record ([`Cluster::fetch_records`]).
    pub(super) fn fetch_record(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        exclude: &[&str],
    ) -> RecordVote {
        self.fetch_records(conns, &[object], exclude)
            .pop()
            .expect("one vote per object")
    }

    /// The freshest live manifest of `object`, by the rules of
    /// [`RecordVote::manifest`].
    pub(super) fn fetch_manifest(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        exclude: &[&str],
    ) -> Result<Manifest, StoreError> {
        self.fetch_record(conns, object, exclude).manifest(object)
    }

    /// Check that a fetched manifest matches this cluster's codec —
    /// exact [`CodecSpec`] equality, so a same-geometry object stored
    /// under a different family (or group size) is refused with a typed
    /// error instead of decoded into garbage.
    pub(super) fn check_geometry(&self, object: &str, m: &Manifest) -> Result<(), StoreError> {
        let stored = m.codec_spec().map_err(StoreError::Codec)?;
        let ours = self.codec.spec();
        if stored != ours {
            return Err(StoreError::Manifest(format!(
                "object `{object}` is stored as {}({}, {}) but the cluster is \
                 configured as {}({}, {})",
                stored.name(),
                stored.data_shards,
                stored.parity_shards,
                ours.name(),
                ours.data_shards,
                ours.parity_shards
            )));
        }
        Ok(())
    }

    /// The freshest live manifest of `object` — no geometry check, so
    /// this also answers "what codec was this stored under?" for
    /// objects the current cluster codec cannot read.
    pub fn manifest(&self, object: &str) -> Result<Manifest, StoreError> {
        validate_object_name(object)?;
        self.fetch_manifest(&mut self.conns(), object, &[])
    }

    /// Read `object` (degrading transparently over up to `p` missing
    /// shards).
    pub fn get(&self, object: &str) -> Result<Vec<u8>, StoreError> {
        self.get_with_report(object).map(|(data, _)| data)
    }

    /// [`Cluster::get`] plus the per-shard fetch report: which shards
    /// were served, which failed and were reconstructed around, which
    /// stragglers the read did not wait for, which it never asked for,
    /// and how long each fetch took.
    pub fn get_with_report(&self, object: &str) -> Result<(Vec<u8>, GetReport), StoreError> {
        validate_object_name(object)?;
        let mut conns = self.conns();
        let manifest = self.fetch_manifest(&mut conns, object, &[])?;
        self.check_geometry(object, &manifest)?;
        let (n, total) = (self.codec.data_shards(), manifest.total_shards());

        // Data first: a systematic code serves a healthy read from its
        // n data shards alone, so the parity fetches are held back in
        // the same round and go out only as backups — for a failed data
        // fetch at once, for a straggler by the rule in `wanted`. The
        // read returns as soon as what it was served decodes.
        let all: Vec<usize> = (0..total).collect();
        let keys = shard_keys(object, &manifest, &all);
        let jobs = shard_fetch_jobs(&manifest, &keys, &all);
        let codec = &*self.codec;
        let FirstN {
            mut outcomes,
            mut elapsed,
            held,
            mut timed_out,
        } = conns.run_first_n(
            jobs,
            |outcomes| decodable(codec, outcomes),
            |round| wanted(codec, round),
        );
        check_roots(&manifest, &all, &mut outcomes);
        // A shard that failed its root is lost like a dead one: if the
        // rest no longer decodes, fetch the backups in one more round
        // (and again, should a backup fail), never a verified shard again.
        while !timed_out && !decodable(codec, &outcomes) {
            let more = backups(codec, &outcomes, &held);
            if more.is_empty() {
                break;
            }
            let round = fetch_round(&mut conns, object, &manifest, &more);
            for ((&i, outcome), took) in more.iter().zip(round.outcomes).zip(round.elapsed) {
                (outcomes[i], elapsed[i]) = (outcome, took);
            }
            timed_out = round.timed_out;
        }

        let mut shards: Vec<Option<Vec<u8>>> = vec![None; total];
        let mut fetches = Vec::with_capacity(total);
        let mut missing = Vec::new();
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let outcome = match outcome {
                Some(Ok(Ok(bytes))) => {
                    shards[i] = Some(bytes);
                    ShardOutcome::Served
                }
                Some(Ok(Err(ShardFault::Corrupt(msg)))) => {
                    missing.push(i);
                    ShardOutcome::Corrupt(msg)
                }
                Some(Ok(Err(ShardFault::Missing(msg)))) => {
                    missing.push(i);
                    ShardOutcome::Dead(msg)
                }
                Some(Err(e)) => {
                    missing.push(i);
                    ShardOutcome::Dead(format!("{}: {e}", manifest.placement[i]))
                }
                None if held[i] => ShardOutcome::NotRequested,
                None => ShardOutcome::Abandoned,
            };
            fetches.push(ShardFetch {
                index: i,
                node: manifest.placement[i].clone(),
                outcome,
                elapsed: elapsed[i],
            });
        }
        let have = shards.iter().flatten().count();
        if have < n {
            return Err(if timed_out {
                StoreError::Timeout
            } else {
                StoreError::Unavailable {
                    object: object.to_string(),
                    needed: n,
                    have,
                }
            });
        }
        let data = self.codec.decode(&shards, manifest.object_len as usize)?;
        Ok((
            data,
            GetReport {
                missing,
                shards: fetches,
            },
        ))
    }

    /// Fetch the given shard indices in one round: per index, the
    /// validated bytes or the typed fault (for scrub attribution; a
    /// transport failure is `Missing`).
    pub(super) fn fetch_shards(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        manifest: &Manifest,
        indices: &[usize],
    ) -> Vec<Result<Vec<u8>, ShardFault>> {
        // Only the operation deadline ends a barrier with a job unsettled.
        let round = fetch_round(conns, object, manifest, indices).outcomes;
        (indices.iter().zip(round))
            .map(|(&i, r)| match r.unwrap_or(Err(StoreError::Timeout)) {
                Ok(inner) => inner,
                Err(e) => Err(ShardFault::Missing(format!(
                    "{}: {e}",
                    manifest.placement[i]
                ))),
            })
            .collect()
    }

    /// All object names known to any reachable node, via the replicated
    /// manifests: one listing round, then one election round per 64
    /// names.
    pub fn objects(&self) -> Result<Vec<String>, StoreError> {
        self.live_objects_via(&mut self.conns())
    }

    fn live_objects_via(&self, conns: &mut ParallelConnSet) -> Result<Vec<String>, StoreError> {
        let names = self.objects_via(conns, &[])?;
        // Tombstoned (deleted) objects still hold an `m:` record on
        // every node; the listing is by key, so filter them through the
        // record election.
        let mut live = Vec::with_capacity(names.len());
        for window in names.chunks(OBJECTS_PER_ROUND) {
            let votes = self.fetch_records(conns, window, &[]);
            for (name, vote) in window.iter().zip(votes) {
                if !matches!(vote.manifest(name), Err(StoreError::NotFound(_))) {
                    live.push(name.clone());
                }
            }
        }
        Ok(live)
    }

    pub(super) fn objects_via(
        &self,
        conns: &mut ParallelConnSet,
        exclude: &[&str],
    ) -> Result<Vec<String>, StoreError> {
        let targets: Vec<&String> = self
            .nodes
            .iter()
            .filter(|a| !exclude.contains(&a.as_str()))
            .collect();
        let jobs: Vec<_> = targets
            .iter()
            .map(|addr| (addr.as_str(), BatchOp::List { prefix: "m:" }, reply::list))
            .collect();
        let mut names = BTreeSet::new();
        let mut reachable = 0usize;
        let mut timed_out = false;
        for result in conns.run_batch(jobs) {
            match result {
                Ok(keys) => {
                    reachable += 1;
                    for key in keys {
                        names.insert(key["m:".len()..].to_string());
                    }
                }
                Err(StoreError::Timeout) => timed_out = true,
                Err(_) => {}
            }
        }
        if reachable == 0 {
            return Err(no_node_answered(timed_out));
        }
        Ok(names.into_iter().collect())
    }

    /// Per-node liveness and usage, probed concurrently.
    pub fn health(&self) -> ClusterHealth {
        let mut conns = self.conns();
        let jobs: Vec<_> = self
            .nodes
            .iter()
            .map(|addr| (addr.as_str(), BatchOp::Health, reply::health))
            .collect();
        ClusterHealth {
            nodes: self
                .nodes
                .iter()
                .zip(conns.run_batch(jobs))
                .map(|(addr, result)| (addr.clone(), result.ok()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeHandle;
    use ec_core::RsConfig;
    use std::time::Instant;

    #[test]
    fn a_read_does_not_wait_out_one_slow_node() {
        // One node of four sits on each shard request for 600 ms. A put
        // needs every ack and pays it; a read has enough with the other
        // three, lingers a fraction of *their* round trip, and abandons
        // the straggler — which is slowness, not damage.
        let slow = Duration::from_millis(600);
        let root = std::env::temp_dir().join(format!("ec_store_straggler_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let nodes: Vec<NodeHandle> = (0..4)
            .map(|i| {
                let opts = crate::node::NodeOptions {
                    workers: 2,
                    response_delay: (i == 0).then_some(slow),
                    delay_key_prefix: Some("s:".to_string()),
                };
                NodeHandle::spawn_with(&root.join(format!("n{i}")), "127.0.0.1:0", opts).unwrap()
            })
            .collect();
        let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
        let cluster = Cluster::new(addrs.clone(), RsConfig::new(3, 1)).unwrap();
        let data = vec![0x5Au8; 30_000];
        cluster.put("obj", &data).unwrap();
        let start = Instant::now();
        let (got, report) = cluster.get_with_report("obj").unwrap();
        let took = start.elapsed();
        assert_eq!(got, data);
        assert!(
            took < slow / 2,
            "the read waited for the straggler: {took:?}"
        );
        assert!(!report.degraded(), "{report:?}");
        let straggler = cluster
            .manifest("obj")
            .unwrap()
            .placement
            .iter()
            .position(|a| *a == addrs[0]);
        assert_eq!(report.abandoned(), Vec::from_iter(straggler));
        drop(nodes);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `objects()` is one listing round plus one election round per
    /// [`OBJECTS_PER_ROUND`] names, and the election still filters out
    /// a deleted object, whose tombstone the listing names.
    #[test]
    fn objects_elects_a_window_per_round() {
        let root = std::env::temp_dir().join(format!("ec_store_objects_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let nodes: Vec<NodeHandle> = (0..4)
            .map(|i| NodeHandle::spawn(&root.join(format!("n{i}")), "127.0.0.1:0", 2).unwrap())
            .collect();
        let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
        let cluster = Cluster::new(addrs.clone(), RsConfig::new(2, 1)).unwrap();
        let names: Vec<String> = (0..=OBJECTS_PER_ROUND + 1)
            .map(|i| format!("obj-{i:03}"))
            .collect();
        for name in &names {
            cluster.put(name, name.as_bytes()).unwrap();
        }
        cluster.delete(&names[7]).unwrap();
        let mut conns = cluster.conns();
        let live = cluster.live_objects_via(&mut conns).unwrap();
        let mut want = names.clone();
        want.remove(7);
        assert_eq!(live, want);
        assert_eq!(conns.rounds(), 1 + 2);
        let nodes_asked = addrs.len() as u32;
        assert_eq!(conns.requests(), nodes_asked * (1 + names.len() as u32));
        drop(nodes);
        let _ = std::fs::remove_dir_all(&root);
    }
}
