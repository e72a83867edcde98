//! The cluster client: erasure-coded objects across shard nodes, with
//! every multi-node exchange fanned out concurrently so operations cost
//! ~max(per-node RTT) instead of the sum.
//!
//! * `put` stripes an object into `n + p` shards (one `encode` through
//!   the SLP-optimized codec), ships all of them *concurrently* to the
//!   top-ranked nodes of the object's rendezvous ordering, and
//!   replicates a [`Manifest`] to every node in one more fan-out round;
//! * `get` issues all `n + p` shard fetches at once and returns on the
//!   **first n** that suffice — all data shards, or (for an MDS codec)
//!   any `n` arrivals — abandoning stragglers, so one slow node does
//!   not tax every read; degraded reads reconstruct through the codec's
//!   cached decode programs;
//! * `overwrite` is the delta path: the manifest's Merkle roots say
//!   which data shards changed, only those and the parity are read and
//!   shipped, and parity is brought up to date with the cached
//!   per-column programs (`old ⊕ new`, not the world);
//! * `repair_nodes` rebuilds any number of simultaneously-dead nodes
//!   onto replacements in **one survivor fetch + one reconstruct per
//!   object** (not one pass per dead node), fetching only the shards
//!   the codec's repair plan names when it applies — a locally
//!   repairable codec shrinks a single-shard repair to its locality
//!   group; `repair_node` is the single-pair convenience;
//! * `scrub` + `repair_object` verify end-to-end CRCs and chunk-wise
//!   parity consistency with per-object fan-out, attributing damage per
//!   shard via the manifest checksums; a node found dead is marked once
//!   in the shared connection state and fast-fails every later touch;
//! * an optional per-operation deadline ([`Cluster::with_op_deadline`])
//!   bounds each operation's wall clock and surfaces as the typed
//!   [`StoreError::Timeout`].
//!
//! **Crash atomicity** (the generation-keyed write discipline): every
//! write path — `put`, delta `overwrite`, `repair_nodes` — *prepares*
//! its shards under fresh generation-qualified keys beside the live
//! generation, *publishes* by replicating the new manifest only after
//! every shard landed, and leaves *collection* of superseded and
//! crash-orphaned generations to the scrub-time GC
//! ([`Cluster::scrub`], grace window via [`Cluster::with_gc_grace`]).
//! No published shard byte is ever mutated in place, so a client that
//! dies at any point mid-write leaves the prior generation fully
//! readable, and a `get` racing a re-put decodes one generation or the
//! other, never a mixture.

use crate::client::{reply, Answer, BatchOp, NodeHealth};
use crate::error::{RemoteErrorCode, StoreError};
use crate::fanout::ParallelConnSet;
use crate::manifest::{
    self, manifest_key, parse_shard_key, validate_object_name, Manifest,
    ManifestRecord,
};
use crate::placement;
use crate::proto::{MAX_BODY, MAX_KEY};
use crate::tree::{tree_key, HashBlob, HASH_LEAF_SIZE};
use ec_core::{codec_for_with, CodecSpec, EcError, ErasureCoder, RsConfig};
use ec_wire::crc32;
use ec_wire::merkle::{leaf_count, root_over_roots, Hash, MerkleTree};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one shard fetch ended: outer `Err` = transport failure, inner
/// `Err` = the node answered but the shard is damaged or absent.
type Fetched = Result<Result<Vec<u8>, ShardFault>, StoreError>;

/// One shard-fetch outcome slot as the first-n predicates see it:
/// `None` = still in flight.
type FetchSlot = Option<Fetched>;

/// One write of a prepare round: the node, the key, the bytes, and the
/// index its failpoint trips at (`None` = it never trips).
type Ship<'a> = (&'a str, String, &'a [u8], Option<usize>);

/// Default network timeout (connect + each read/write).
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(5);

/// The key scrub's liveness probe `STAT`s: outside the `m:` / `s:` /
/// `t:` families, so no writer ever creates it.
const LIVENESS_KEY: &str = "?alive";

/// Default GC grace window: a shard blob younger than this (by its own
/// node's clock) is never collected, however orphaned it looks — it may
/// belong to a put whose manifest has not landed *yet*.
pub const DEFAULT_GC_GRACE: Duration = Duration::from_secs(300);

/// A crash-injection hook for the fault-injection tests: called as
/// `(point, index)` before each guarded write step, and the step fails
/// (as if the client died there) when it returns `true`.
///
/// Points: `put.shard` / `overwrite.shard` / `repair.shard` fire per
/// shard write with the write's index, so `index >= k` simulates a
/// client crashing after `k` of `n + p` shard writes; `put.publish` /
/// `overwrite.publish` / `repair.publish` fire once (index 0) just
/// before the manifest replication that makes the write visible.
///
/// Install with [`Cluster::with_failpoint`], or via the environment for
/// CLI-driven tests: `XORSLP_FAILPOINT="<point>=<k>"` makes `point`
/// fail at every `index >= k`.
pub type FailPoint = Arc<dyn Fn(&str, usize) -> bool + Send + Sync>;

/// Parse `XORSLP_FAILPOINT="<point>=<k>"` into a hook (`None` when the
/// variable is unset or malformed — a malformed spec must not silently
/// disable the injection a test asked for, so it is at least loud).
fn failpoint_from_env() -> Option<FailPoint> {
    let spec = std::env::var("XORSLP_FAILPOINT").ok()?;
    let Some((point, k)) = spec.split_once('=') else {
        eprintln!("ignoring malformed XORSLP_FAILPOINT `{spec}` (want <point>=<k>)");
        return None;
    };
    let Ok(k) = k.trim().parse::<usize>() else {
        eprintln!("ignoring malformed XORSLP_FAILPOINT `{spec}` (want <point>=<k>)");
        return None;
    };
    let point = point.trim().to_string();
    Some(Arc::new(move |p: &str, index: usize| p == point && index >= k))
}

/// Evaluate a failpoint inside a write step: `Err` = the injected
/// crash. A tripped step errors before touching the network, so the
/// write aborts exactly as if the client process died there — shards
/// already written stay on their nodes as an unpublished generation.
fn trip(fp: &Option<FailPoint>, point: &'static str, index: usize) -> Result<(), StoreError> {
    match fp {
        Some(f) if f(point, index) => Err(StoreError::Io(std::io::Error::other(
            format!("failpoint {point} tripped at index {index}"),
        ))),
        _ => Ok(()),
    }
}

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

/// How one shard fetch of a first-n read ended.
#[derive(Clone, Debug)]
pub enum ShardOutcome {
    /// Arrived and passed validation; available to the decode.
    Served,
    /// Still in flight when the read already had enough — the straggler
    /// the first-n path exists to not wait for.
    Abandoned,
    /// The node was unreachable, or the blob absent (reason recorded).
    Dead(String),
    /// Bytes arrived but failed the manifest checksum / length check.
    Corrupt(String),
}

impl ShardOutcome {
    /// Whether this fetch failed (as opposed to served or abandoned).
    pub fn failed(&self) -> bool {
        matches!(self, ShardOutcome::Dead(_) | ShardOutcome::Corrupt(_))
    }
}

/// Per-shard observability of one read: what each of the `n + p`
/// concurrently-issued fetches did, and how long it took.
#[derive(Clone, Debug)]
pub struct ShardFetch {
    /// Shard index.
    pub index: usize,
    /// The node the fetch targeted.
    pub node: String,
    pub outcome: ShardOutcome,
    /// Issue-to-completion time (`None` for abandoned fetches).
    pub elapsed: Option<Duration>,
}

/// Result of a [`Cluster::get_with_report`].
#[derive(Clone, Debug)]
pub struct GetReport {
    /// Shard indices whose fetch *failed* (unreachable node, absent or
    /// corrupt blob) and were reconstructed around. Abandoned
    /// stragglers are not failures and are not listed here.
    pub missing: Vec<usize>,
    /// Every shard fetch of the read, with outcome and timing. Every
    /// served shard was verified against its manifest Merkle root.
    pub shards: Vec<ShardFetch>,
}

impl GetReport {
    /// Whether the read observed real damage (a failed shard fetch).
    /// Early-returning past a slow-but-healthy straggler is not
    /// degradation.
    pub fn degraded(&self) -> bool {
        !self.missing.is_empty()
    }

    /// Shard indices abandoned as stragglers.
    pub fn abandoned(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|s| matches!(s.outcome, ShardOutcome::Abandoned))
            .map(|s| s.index)
            .collect()
    }
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

/// Tally of one manifest-record election across the nodes.
#[derive(Default)]
struct RecordVote {
    /// Highest-generation live manifest seen.
    live: Option<Manifest>,
    /// Highest tombstone generation seen.
    tombstone: Option<u64>,
    /// Nodes that answered (with a record or a clean NotFound).
    reachable: usize,
    /// A replica that exists but fails its checks (kept for honest
    /// attribution when nothing usable is found).
    rot_err: Option<StoreError>,
    /// A transport-level failure.
    conn_err: Option<StoreError>,
}

impl RecordVote {
    /// The generation a fresh write must carry to win this election.
    fn next_generation(&self) -> u64 {
        let live = self.live.as_ref().map_or(0, |m| m.generation);
        live.max(self.tombstone.unwrap_or(0)) + 1
    }

    /// The live manifest, unless a tombstone supersedes it.
    fn current(self) -> Option<Manifest> {
        let tomb = self.tombstone.unwrap_or(0);
        self.live.filter(|m| m.generation > tomb)
    }
}

/// Why one shard fetch failed, typed so scrub can attribute damage.
enum ShardFault {
    /// Bytes exist but are wrong (frame/checksum/length failure).
    Corrupt(String),
    /// Unreachable node or absent blob.
    Missing(String),
}

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
    /// Nodes that did not answer the sweep's opening liveness probe.
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

/// Result of a [`Cluster::repair_object`].
#[derive(Clone, Debug, Default)]
pub struct ObjectRepairReport {
    /// Shard indices rebuilt and re-stored.
    pub repaired: Vec<usize>,
    /// Shard indices that were rebuilt but whose node did not accept
    /// the write.
    pub unplaced: Vec<usize>,
    /// Shard indices whose `t:` hash blob was re-derived from verified
    /// payload bytes and rewritten — covers both blobs beside repaired
    /// shards and blobs that were themselves the only damage
    /// ([`ShardHealth::BadHashes`]).
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
    /// now), with the reason.
    pub failed: Vec<(String, String)>,
}

/// Per-node health as seen by [`Cluster::health`].
#[derive(Clone, Debug)]
pub struct ClusterHealth {
    /// `(address, health)` per node; `None` for unreachable nodes.
    pub nodes: Vec<(String, Option<NodeHealth>)>,
}

/// A client of a set of shard nodes, holding the codec and the node
/// membership. All read-side operations take `&self` and the cluster is
/// `Send + Sync` — share it behind an `Arc` across client threads.
///
/// **Write concurrency**: writes to *different* objects may run
/// concurrently, but writes to one object (`put` / `overwrite` /
/// `delete`) must be serialized by the caller — shard replacement is
/// not transactional across nodes, and the delta-overwrite path is a
/// read-modify-write of parity with no cross-client locking.
pub struct Cluster {
    codec: Box<dyn ErasureCoder>,
    nodes: Vec<String>,
    timeout: Duration,
    /// Per-operation wall-clock bound (`None` = only the per-I/O
    /// `timeout` applies).
    op_deadline: Option<Duration>,
    /// Minimum age (node-clock) a shard blob must reach before the
    /// scrub-time GC may collect it.
    gc_grace: Duration,
    /// Crash injection for the fault tests ([`FailPoint`]); `None` in
    /// production unless `XORSLP_FAILPOINT` is set.
    failpoint: Option<FailPoint>,
}

impl Cluster {
    /// Build a client for `nodes` with the default RS codec configured
    /// by `cfg` (`cfg.data_shards + cfg.parity_shards` must not exceed
    /// the node count; extra nodes are spare capacity that rendezvous
    /// placement will use object-by-object).
    pub fn new(nodes: Vec<String>, cfg: RsConfig) -> Result<Cluster, StoreError> {
        let spec = CodecSpec::rs(cfg.data_shards, cfg.parity_shards);
        Cluster::with_spec_and_config(nodes, &spec, cfg)
    }

    /// Build a client for `nodes` with any registered codec — the same
    /// registry store manifests resolve through, so a cluster opened
    /// with the spec an object was stored under round-trips it.
    pub fn with_spec(nodes: Vec<String>, spec: &CodecSpec) -> Result<Cluster, StoreError> {
        let cfg = RsConfig::new(spec.data_shards, spec.parity_shards);
        Cluster::with_spec_and_config(nodes, spec, cfg)
    }

    /// [`Cluster::with_spec`] carrying engine knobs (kernel,
    /// parallelism, cache caps) from `cfg`; geometry comes from `spec`.
    pub fn with_spec_and_config(
        nodes: Vec<String>,
        spec: &CodecSpec,
        cfg: RsConfig,
    ) -> Result<Cluster, StoreError> {
        let total = spec.data_shards + spec.parity_shards;
        if nodes.len() < total {
            return Err(StoreError::InvalidArg(format!(
                "{} nodes cannot host {} shards per object (n + p = {total})",
                nodes.len(),
                total,
            )));
        }
        let distinct: BTreeSet<&String> = nodes.iter().collect();
        if distinct.len() != nodes.len() {
            return Err(StoreError::InvalidArg("duplicate node address".into()));
        }
        if let Some(addr) = nodes.iter().find(|a| a.len() > crate::manifest::MAX_ADDR) {
            return Err(StoreError::InvalidArg(format!(
                "node address of {} bytes exceeds the cap of {}",
                addr.len(),
                crate::manifest::MAX_ADDR
            )));
        }
        let codec = codec_for_with(spec, cfg)?;
        Ok(Cluster {
            codec,
            nodes,
            timeout: DEFAULT_TIMEOUT,
            op_deadline: None,
            gc_grace: DEFAULT_GC_GRACE,
            failpoint: failpoint_from_env(),
        })
    }

    /// Override the network timeout (connect and each read/write).
    pub fn with_timeout(mut self, timeout: Duration) -> Cluster {
        self.timeout = timeout;
        self
    }

    /// Bound every operation (`put`/`get`/`scrub`/…) to `deadline` of
    /// wall clock from the moment it starts. The budget is carried
    /// through every fan-out round — per-I/O timeouts shrink to the
    /// remaining time — and once spent the operation fails with the
    /// typed [`StoreError::Timeout`].
    pub fn with_op_deadline(mut self, deadline: Duration) -> Cluster {
        self.op_deadline = Some(deadline);
        self
    }

    /// Override the GC grace window ([`DEFAULT_GC_GRACE`]). Zero means
    /// "collect every non-live shard key immediately" — right for tests
    /// and controlled maintenance, wrong while any writer may be
    /// mid-put: an unpublished generation younger than the grace window
    /// is the only thing standing between an in-flight put and the GC.
    pub fn with_gc_grace(mut self, grace: Duration) -> Cluster {
        self.gc_grace = grace;
        self
    }

    /// Install a crash-injection hook (see [`FailPoint`]). Test-only by
    /// intent; overrides any `XORSLP_FAILPOINT` environment hook.
    pub fn with_failpoint(mut self, failpoint: FailPoint) -> Cluster {
        self.failpoint = Some(failpoint);
        self
    }

    /// The codec backing this cluster (e.g. for SLP/cache metrics).
    pub fn codec(&self) -> &dyn ErasureCoder {
        &*self.codec
    }

    /// Current node membership, in configuration order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    fn conns(&self) -> ParallelConnSet {
        ParallelConnSet::new(
            self.timeout,
            self.op_deadline.map(|d| Instant::now() + d),
        )
    }

    /// The `n + p` node addresses hosting `object`, shard-index order.
    fn placement_for(&self, object: &str) -> Vec<String> {
        let total = self.codec.total_shards();
        placement::rank_nodes(object, &self.nodes)[..total]
            .iter()
            .map(|&i| self.nodes[i].clone())
            .collect()
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

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
        let tree_bytes: Vec<Vec<u8>> =
            hash_blobs.iter().map(HashBlob::to_bytes).collect();
        // The hash blob trips at its shard's index, so a simulated
        // crash after k shard writes strands at most k shard/hash pairs.
        let ships: Vec<Ship> = shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                (placement[i].as_str(), manifest.shard_key(object, i), shard.as_slice(), Some(i))
            })
            .chain(tree_bytes.iter().enumerate().map(|(i, bytes)| {
                (placement[i].as_str(), tree_key(object, i, generation), bytes.as_slice(), Some(i))
            }))
            .collect();
        for result in self.ship(conns, "put.shard", &ships) {
            result?;
        }
        // Publish: the manifest replication is the commit point.
        trip(&self.failpoint, "put.publish", 0)?;
        let replicas = self.replicate_manifest(conns, object, &manifest)?;
        Ok(PutReport {
            shards_written: shards.len(),
            shard_len,
            manifest_replicas: replicas,
        })
    }

    /// Write the manifest to every node concurrently: mandatory on the
    /// placement nodes (they are what repair trusts), best-effort
    /// elsewhere.
    fn replicate_manifest(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        manifest: &Manifest,
    ) -> Result<usize, StoreError> {
        let bytes = manifest.to_bytes();
        let key = manifest_key(object);
        let targets = self.nodes.iter().map(String::as_str);
        let mut replicas = 0;
        for (addr, result) in self.nodes.iter().zip(put_everywhere(conns, targets, &key, &bytes)) {
            match result {
                Ok(()) => replicas += 1,
                Err(e) if manifest.placement.contains(addr) => return Err(e),
                Err(_) => {}
            }
        }
        Ok(replicas)
    }

    /// One prepare round: write every ship whose failpoint holds, all
    /// at once, and fail the ones it trips as if the client had died
    /// before sending them (`point` names the failpoint). Results in
    /// ship order.
    fn ship(
        &self,
        conns: &mut ParallelConnSet,
        point: &'static str,
        ships: &[Ship],
    ) -> Vec<Result<(), StoreError>> {
        let tripped: Vec<Option<StoreError>> = ships
            .iter()
            .map(|(.., at)| at.and_then(|i| trip(&self.failpoint, point, i).err()))
            .collect();
        let jobs: Vec<_> = (ships.iter().zip(&tripped))
            .filter(|(_, tripped)| tripped.is_none())
            .map(|((addr, key, data, _), _)| (*addr, BatchOp::Put { key, data }, reply::put))
            .collect();
        let mut sent = conns.run_batch(jobs).into_iter();
        tripped
            .into_iter()
            .map(|tripped| match tripped {
                Some(e) => Err(e),
                None => sent.next().expect("one result per ship sent"),
            })
            .collect()
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
        let key = manifest_key(object);
        let targets = self.nodes.iter().map(String::as_str);
        let accepted = put_everywhere(&mut conns, targets, &key, &tomb)
            .into_iter()
            .filter(Result::is_ok)
            .count();
        if accepted == 0 {
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
            doomed.push((addr.clone(), tree_key(object, i, manifest.shard_gen[i]), false));
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

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Poll every node (skipping `exclude`) for the object's manifest
    /// record — one concurrent fan-out round — and tally the generation
    /// election. The election deliberately waits for *every* reachable
    /// node: returning on the first few answers could miss the freshest
    /// generation or a tombstone and resurrect stale data.
    fn fetch_record(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        exclude: &[&str],
    ) -> RecordVote {
        let key = manifest_key(object);
        let targets: Vec<&String> = self
            .nodes
            .iter()
            .filter(|a| !exclude.contains(&a.as_str()))
            .collect();
        let jobs: Vec<_> = targets
            .iter()
            .map(|addr| (addr.as_str(), BatchOp::Get { key: &key }, std::convert::identity))
            .collect();
        let mut vote = RecordVote::default();
        for result in conns.run_batch(jobs) {
            match result {
                Ok(bytes) => {
                    vote.reachable += 1;
                    match manifest::parse_record(&bytes) {
                        Ok(ManifestRecord::Live(m))
                            if vote
                                .live
                                .as_ref()
                                .is_none_or(|b| m.generation > b.generation) =>
                        {
                            vote.live = Some(m)
                        }
                        Ok(ManifestRecord::Live(_)) => {}
                        Ok(ManifestRecord::Tombstone { generation }) => {
                            vote.tombstone =
                                Some(vote.tombstone.unwrap_or(0).max(generation));
                        }
                        Err(e) => vote.rot_err = Some(e),
                    }
                }
                Err(StoreError::Remote { code: RemoteErrorCode::NotFound, .. }) => {
                    vote.reachable += 1;
                }
                Err(e @ StoreError::Remote { .. }) => vote.rot_err = Some(e),
                Err(e) => vote.conn_err = Some(e),
            }
        }
        vote
    }

    /// The freshest *live* manifest: the highest-generation valid copy
    /// wins (a node that slept through a write cannot serve a stale
    /// shard map), unless a tombstone of equal or higher generation
    /// supersedes it — then the object is deleted. Corrupt replicas are
    /// skipped, not fatal, but are reported honestly when no usable
    /// replica exists (rot must not masquerade as "not found").
    fn fetch_manifest(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        exclude: &[&str],
    ) -> Result<Manifest, StoreError> {
        let vote = self.fetch_record(conns, object, exclude);
        let tomb = vote.tombstone.unwrap_or(0);
        match vote.live {
            Some(m) if m.generation > tomb => return Ok(m),
            Some(_) => return Err(StoreError::NotFound(object.to_string())),
            None if vote.tombstone.is_some() => {
                return Err(StoreError::NotFound(object.to_string()))
            }
            None => {}
        }
        if let Some(e) = vote.rot_err {
            return Err(e);
        }
        if vote.reachable == 0 {
            if let Some(e) = vote.conn_err {
                return Err(e); // every node unreachable: that's the story
            }
        }
        Err(StoreError::NotFound(object.to_string()))
    }

    /// Check that a fetched manifest matches this cluster's codec —
    /// exact [`CodecSpec`] equality, so a same-geometry object stored
    /// under a different family (or group size) is refused with a typed
    /// error instead of decoded into garbage.
    fn check_geometry(&self, object: &str, m: &Manifest) -> Result<(), StoreError> {
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
    /// stragglers the first-n early return abandoned, and how long each
    /// fetch took.
    pub fn get_with_report(
        &self,
        object: &str,
    ) -> Result<(Vec<u8>, GetReport), StoreError> {
        validate_object_name(object)?;
        let mut conns = self.conns();
        let manifest = self.fetch_manifest(&mut conns, object, &[])?;
        self.check_geometry(object, &manifest)?;
        let (n, total) = (self.codec.data_shards(), manifest.total_shards());

        // First-n read: issue all n + p fetches concurrently and return
        // as soon as enough arrived. Preferred stopping set: all data
        // shards (a straight column-copy decode). Sufficient, for an
        // MDS codec: any n arrivals — after a short proportional linger
        // for the data stragglers, since a reconstruction decode is
        // dearer than a sub-RTT wait. A non-MDS codec (LRC) must not
        // stop at n arbitrary arrivals at all: some ≤ p loss patterns
        // are undecodable, so it waits for all data or for every fetch
        // to settle.
        let all: Vec<usize> = (0..total).collect();
        let keys = shard_keys(object, &manifest, &all);
        let jobs = shard_fetch_jobs(&manifest, &keys, &all);
        let is_mds = self.codec.is_mds();
        let served = |o: &FetchSlot| matches!(o, Some(Ok(Ok(_))));
        let all_data =
            move |outcomes: &[FetchSlot]| outcomes[..n].iter().all(served);
        let first = conns.run_first_n(jobs, all_data, move |outcomes| {
            all_data(outcomes)
                || (is_mds && outcomes.iter().filter(|o| served(o)).count() >= n)
        });

        let mut shards: Vec<Option<Vec<u8>>> = vec![None; total];
        let mut fetches = Vec::with_capacity(total);
        let mut missing = Vec::new();
        for (i, outcome) in first.outcomes.into_iter().enumerate() {
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
                None => ShardOutcome::Abandoned,
            };
            fetches.push(ShardFetch {
                index: i,
                node: manifest.placement[i].clone(),
                outcome,
                elapsed: first.elapsed[i],
            });
        }
        let have = shards.iter().flatten().count();
        if have < n {
            return Err(if first.timed_out {
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
        Ok((data, GetReport { missing, shards: fetches }))
    }

    // ------------------------------------------------------------------
    // Delta overwrite
    // ------------------------------------------------------------------

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
    pub fn overwrite(
        &self,
        object: &str,
        data: &[u8],
    ) -> Result<OverwriteReport, StoreError> {
        validate_object_name(object)?;
        let (n, p) = (self.codec.data_shards(), self.codec.parity_shards());
        let full_xor = self.codec.encode_xor_count();
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
            return self.put_inner(&mut conns, object, data, new_gen, None).map(full_report);
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
                self.replicate_manifest(&mut conns, object, &manifest)?;
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
            .map(|&i| self.codec.update_xor_count(i))
            .sum::<Result<usize, _>>()?;

        // The one read round: the changed old data shards and all p
        // parity shards (each CRC- and root-verified against the
        // manifest). The parity RMW needs every one of them — fall back
        // without.
        let touched: Vec<usize> = changed.iter().copied().chain(n..n + p).collect();
        let fetched: Option<Vec<Vec<u8>>> =
            self.fetch_shards(&mut conns, object, &manifest, &touched).into_iter().collect();
        let Some(mut old) = fetched else {
            return self
                .put_inner(&mut conns, object, data, new_gen, Some(new_blobs))
                .map(full_report);
        };
        let mut parity = old.split_off(changed.len());
        {
            let mut prefs: Vec<&mut [u8]> =
                parity.iter_mut().map(Vec::as_mut_slice).collect();
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
        let tree_bytes: Vec<Vec<u8>> =
            shipped.iter().map(|(_, _, blob)| blob.to_bytes()).collect();
        // As in `put_inner`, a hash blob trips at its shard's index.
        let ships: Vec<Ship> = shipped
            .iter()
            .enumerate()
            .map(|(at, &(i, shard, _))| {
                let key = manifest::shard_key(object, i, new_gen);
                (manifest.placement[i].as_str(), key, shard, Some(at))
            })
            .chain(shipped.iter().zip(&tree_bytes).enumerate().map(|(at, (&(i, ..), bytes))| {
                let key = tree_key(object, i, new_gen);
                (manifest.placement[i].as_str(), key, bytes.as_slice(), Some(at))
            }))
            .collect();
        for result in self.ship(&mut conns, "overwrite.shard", &ships) {
            result?;
        }
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
        self.replicate_manifest(&mut conns, object, &manifest)?;
        Ok(OverwriteReport {
            mode: OverwriteMode::Delta,
            shards_written: touched.len(),
            shards_read: touched.len(),
            changed,
            xor_count: delta_xor,
            full_xor_count: full_xor,
        })
    }

    /// Fetch the given shard indices concurrently; per-index `Some`
    /// only for shards that arrived and validated.
    fn fetch_shards(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        manifest: &Manifest,
        indices: &[usize],
    ) -> Vec<Option<Vec<u8>>> {
        let keys = shard_keys(object, manifest, indices);
        conns
            .run_batch(shard_fetch_jobs(manifest, &keys, indices))
            .into_iter()
            .map(|r| match r {
                Ok(Ok(bytes)) => Some(bytes),
                _ => None,
            })
            .collect()
    }

    /// Like [`Cluster::fetch_shards`] but keeping the typed fault per
    /// failed shard (for scrub attribution).
    fn fetch_shards_attributed(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        manifest: &Manifest,
        indices: &[usize],
    ) -> Vec<Result<Vec<u8>, ShardFault>> {
        let keys = shard_keys(object, manifest, indices);
        indices
            .iter()
            .zip(conns.run_batch(shard_fetch_jobs(manifest, &keys, indices)))
            .map(|(&i, r)| match r {
                Ok(inner) => inner,
                Err(e) => {
                    Err(ShardFault::Missing(format!("{}: {e}", manifest.placement[i])))
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Discovery, health, scrub, repair
    // ------------------------------------------------------------------

    /// All object names known to any reachable node, via the replicated
    /// manifests.
    pub fn objects(&self) -> Result<Vec<String>, StoreError> {
        let mut conns = self.conns();
        let names = self.objects_via(&mut conns, &[])?;
        // Tombstoned (deleted) objects still hold an `m:` record on
        // every node; the listing is by key, so filter them through the
        // record election.
        Ok(names
            .into_iter()
            .filter(|name| {
                !matches!(
                    self.fetch_manifest(&mut conns, name, &[]),
                    Err(StoreError::NotFound(_))
                )
            })
            .collect())
    }

    fn objects_via(
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
            // The operation budget running out is a different story
            // from every node being down — keep the timeout typed.
            return Err(if timed_out {
                StoreError::Timeout
            } else {
                StoreError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "no cluster node is reachable",
                ))
            });
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

    /// Verify every object end to end: per-shard manifest checksums
    /// (bit-rot attribution) plus a chunk-wise data↔parity consistency
    /// re-encode when all shards are intact. The sweep ends with the
    /// generation GC pass — superseded and crash-orphaned shard keys
    /// past the grace window are collected and tallied into
    /// [`ClusterScrubReport::generations_collected`] /
    /// [`ClusterScrubReport::bytes_reclaimed`].
    pub fn scrub(&self) -> Result<ClusterScrubReport, StoreError> {
        self.scrub_via(&mut self.conns())
    }

    /// [`Cluster::scrub`] forcing the full-read path for every object:
    /// fetch all shards, verify CRCs and Merkle roots over the actual
    /// payload bytes, and re-encode data↔parity chunk-wise. The
    /// incremental scrub proves bytes unchanged in O(log) hash traffic;
    /// the deep scrub is the periodic belt-and-suspenders pass that
    /// additionally exercises the codec identity end to end.
    pub fn scrub_deep(&self) -> Result<ClusterScrubReport, StoreError> {
        self.scrub_via_opts(&mut self.conns(), true)
    }

    fn scrub_via(&self, conns: &mut ParallelConnSet) -> Result<ClusterScrubReport, StoreError> {
        self.scrub_via_opts(conns, false)
    }

    /// One connection set for the whole sweep: the opening liveness probe
    /// fans out to every node at once, and a node it finds dead is
    /// marked dead *once* in the shared state — every later touch this
    /// cycle fast-fails instead of paying a fresh connect timeout per
    /// damaged object.
    fn scrub_via_opts(
        &self,
        conns: &mut ParallelConnSet,
        deep: bool,
    ) -> Result<ClusterScrubReport, StoreError> {
        // The liveness probe asks for nothing the node has to look for:
        // `HEALTH` walks the blob directory and stats every file, which
        // at a few thousand blobs is milliseconds per node, while the
        // typed `NotFound` of a `STAT` on a key no writer uses is one
        // failed `open` — and just as much a sign of life.
        let jobs: Vec<_> = self
            .nodes
            .iter()
            .map(|addr| (addr.as_str(), BatchOp::Stat { key: LIVENESS_KEY }, reply::stat))
            .collect();
        let dead_nodes: Vec<String> = self
            .nodes
            .iter()
            .zip(conns.run_batch(jobs))
            .filter(|(_, answer)| !matches!(answer, Ok(_) | Err(StoreError::Remote { .. })))
            .map(|(addr, _)| addr.clone())
            .collect();
        let mut report = ClusterScrubReport {
            dead_nodes,
            objects: Vec::new(),
            failed_objects: Vec::new(),
            generations_collected: 0,
            bytes_reclaimed: 0,
            hash_bytes_read: 0,
            payload_bytes_read: 0,
        };
        for object in self.objects_via(conns, &[])? {
            match self.scrub_object_opts(conns, &object, deep) {
                Ok(scrub) => {
                    report.hash_bytes_read += scrub.hash_bytes_read;
                    report.payload_bytes_read += scrub.payload_bytes_read;
                    report.objects.push(scrub);
                }
                // Tombstoned (deleted) — the key listing can't filter
                // these; they are not damage.
                Err(StoreError::NotFound(_)) => {}
                Err(e) => report.failed_objects.push((object, e.to_string())),
            }
        }
        self.gc_via(conns, &mut report);
        Ok(report)
    }

    /// The scrub-time garbage collector: collect every shard key no
    /// live manifest references, once it has outlived the grace window.
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
    /// * a node that does not answer `LIST_AGED` is skipped; its garbage
    ///   waits for a later cycle.
    ///
    /// GC failures are deliberately non-fatal to the scrub: collection
    /// is bookkeeping, and the next cycle retries everything.
    fn gc_via(&self, conns: &mut ParallelConnSet, report: &mut ClusterScrubReport) {
        let grace_secs = self.gc_grace.as_secs();
        // Every node's shard-key listing first: the election set must
        // cover objects that *only* exist as orphaned shards (a first
        // put that died before any manifest landed leaves keys no
        // manifest listing will ever name).
        type AgedListing = Vec<(String, u64, u64)>; // (key, age_secs, len)
        // One round, two listings per node: shard keys and their `t:`
        // hash-blob twins are collected by the same rule; a node that
        // answers one listing answers the other (same opcode), so the
        // extension cannot half-apply.
        let jobs: Vec<_> = self
            .nodes
            .iter()
            .flat_map(|addr| {
                ["s:", "t:"].map(|prefix| (addr.as_str(), BatchOp::ListAged { prefix }, reply::list_aged))
            })
            .collect();
        let mut answers = conns.run_batch(jobs).into_iter();
        let mut listings: Vec<(&str, AgedListing)> = Vec::new();
        for addr in &self.nodes {
            let (shards, trees) = (answers.next(), answers.next());
            if let Some(Ok(mut entries)) = shards {
                entries.extend(trees.and_then(Result::ok).unwrap_or_default());
                listings.push((addr, entries));
            }
        }
        let mut objects = BTreeSet::new();
        for (_, entries) in &listings {
            for (key, _, _) in entries {
                if let Some((object, _, _)) = parse_gc_key(key) {
                    objects.insert(object.to_string());
                }
            }
        }
        // One record election per object: `Some(m)` = live manifest,
        // `None` = provably deleted or never published; objects whose
        // election saw a transport failure stay out of the map and are
        // skipped entirely.
        let mut live: HashMap<String, Option<Manifest>> = HashMap::new();
        for object in &objects {
            let vote = self.fetch_record(conns, object, &[]);
            if vote.conn_err.is_some() {
                continue;
            }
            live.insert(object.clone(), vote.current());
        }
        // Every node's doomed keys, then one delete round across nodes.
        let mut doomed: Vec<(&str, &(String, u64, u64))> = Vec::new();
        for (addr, entries) in &listings {
            let is_doomed = |(key, age_secs, _): &&(String, u64, u64)| {
                let Some((object, idx, gen)) = parse_gc_key(key) else {
                    return false; // not ours to judge
                };
                let is_live = match live.get(object) {
                    None => return false, // election deferred: keep
                    Some(None) => false,
                    Some(Some(m)) => {
                        m.placement.get(idx).map(String::as_str) == Some(*addr)
                            && m.shard_gen.get(idx) == Some(&gen)
                    }
                };
                !is_live && *age_secs >= grace_secs
            };
            doomed.extend(entries.iter().filter(is_doomed).map(|entry| (*addr, entry)));
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

    fn scrub_object_opts(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        deep: bool,
    ) -> Result<ObjectScrub, StoreError> {
        let manifest = self.fetch_manifest(conns, object, &[])?;
        self.check_geometry(object, &manifest)?;
        if deep {
            self.scrub_object_full(conns, object, &manifest)
        } else {
            // O(p · log leaves) hash bytes, zero payload bytes for a
            // healthy object.
            self.scrub_object_incremental(conns, object, &manifest)
        }
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
        for (i, result) in self
            .fetch_shards_attributed(conns, object, manifest, &all)
            .into_iter()
            .enumerate()
        {
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

    /// The incremental (Merkle) scrub of one object.
    ///
    /// Round 1 fetches two 32-byte roots per shard over `HASH_SUBTREE`:
    /// the node's *computed* root (re-hashed from the shard blob as it
    /// is right now) and the *stored* root (from the `t:` hash blob).
    /// A shard whose computed root equals the manifest root provably
    /// holds the exact bytes recorded at write time — no payload read
    /// needed, and since parity was consistent when those roots were
    /// recorded, unchanged bytes mean parity still holds. A computed
    /// mismatch descends the two trees level by level, fetching only
    /// the children of mismatching nodes, to name the exact damaged
    /// leaves in O(damaged · log leaves) hash transfers.
    fn scrub_object_incremental(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        manifest: &Manifest,
    ) -> Result<ObjectScrub, StoreError> {
        let total = manifest.total_shards();
        let leaf_size = manifest.hash_leaf_size;
        let widths =
            MerkleTree::level_widths(leaf_count(manifest.shard_len, leaf_size as u64));
        let top = (widths.len() - 1) as u8;
        // Two jobs per shard, pipelined on the shard's node: the root of
        // the computed tree, then the root of the stored one.
        let keys: Vec<[String; 2]> = (0..total)
            .map(|i| [manifest.shard_key(object, i), tree_key(object, i, manifest.shard_gen[i])])
            .collect();
        let jobs: Vec<_> = (keys.iter().zip(&manifest.placement))
            .flat_map(|(keys, addr)| [(addr, &keys[0], false), (addr, &keys[1], true)])
            .map(|(addr, key, stored)| {
                let (level, start, count) = (top, 0, 1);
                let op = BatchOp::HashSubtree { key, leaf_size, stored, level, start, count };
                (addr.as_str(), op, |answer| reply::hash_subtree(answer, 1).map(|v| v[0]))
            })
            .collect();
        let mut roots = conns.run_batch(jobs).into_iter();
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
        Ok(ObjectScrub {
            object: object.to_string(),
            shards: health,
            parity_consistent: if payload_healthy { Some(true) } else { None },
            hash_bytes_read,
            payload_bytes_read: 0,
            damaged_leaves,
        })
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

    /// Rebuild every damaged shard of `object` from the survivors and
    /// re-store them on their placement nodes.
    pub fn repair_object(&self, object: &str) -> Result<ObjectRepairReport, StoreError> {
        self.repair_object_via(&mut self.conns(), object)
    }

    fn repair_object_via(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
    ) -> Result<ObjectRepairReport, StoreError> {
        validate_object_name(object)?;
        let manifest = self.fetch_manifest(conns, object, &[])?;
        self.check_geometry(object, &manifest)?;
        let total = manifest.total_shards();
        let all: Vec<usize> = (0..total).collect();
        let mut shards: Vec<Option<Vec<u8>>> =
            self.fetch_shards(conns, object, &manifest, &all);
        let damaged: Vec<usize> = (0..total).filter(|&i| shards[i].is_none()).collect();
        let mut report = ObjectRepairReport::default();
        // Hash-blob audit first, and unconditionally: an object whose
        // only damage is a lost/rotted `t:` blob ([`ShardHealth::
        // BadHashes`]) has zero payload damage, so the early return
        // below would otherwise skip the one thing that needs fixing.
        self.audit_hash_blobs(conns, object, &manifest, &shards, &mut report);
        if damaged.is_empty() {
            return Ok(report);
        }
        let have = total - damaged.len();
        if have < self.codec.data_shards() {
            return Err(StoreError::Unavailable {
                object: object.to_string(),
                needed: self.codec.data_shards(),
                have,
            });
        }
        self.codec.reconstruct(&mut shards)?;
        let mut manifest = manifest;
        let mut retargeted = Vec::new();
        for &i in &damaged {
            // A damaged shard placed on an address that is no longer a
            // member (e.g. its node was replaced while this object's
            // repair failed transiently) would be rebuilt and dropped
            // every scrub cycle: re-target it to a live member first.
            if !self.nodes.contains(&manifest.placement[i]) {
                if let Some(target) = self.spare_member(object, &manifest.placement) {
                    manifest.placement[i] = target;
                    retargeted.push(i);
                }
            }
            // In-place rewrite under the manifest's own key is safe
            // here (and only here): the bytes written are exactly what
            // the live manifest already promises for this key, so the
            // write is idempotent, a crash mid-way leaves at worst the
            // same damage scrub just attributed, and the node-side
            // temp-file + rename makes each single rewrite atomic. No
            // new generation is needed because nothing is *changing* —
            // damage is being restored to the published state.
            let shard = shards[i].as_deref().expect("reconstructed");
            // Root proof before publish: the reconstruction consumed
            // root-verified survivors, so a mismatch here means a codec
            // fault or an internally inconsistent manifest — publishing
            // would overwrite a (possibly recoverable) shard with bytes
            // the manifest itself disowns.
            if MerkleTree::from_payload(shard, manifest.hash_leaf_size as usize).root()
                != manifest.shard_root[i]
            {
                return Err(StoreError::Manifest(format!(
                    "repair of `{object}` shard {i}: reconstructed bytes fail \
                     the manifest Merkle root — refusing to publish"
                )));
            }
            let addr = &manifest.placement[i];
            let put = BatchOp::Put { key: &manifest.shard_key(object, i), data: shard };
            match conns.with(addr, put, reply::put) {
                Ok(()) => {
                    report.repaired.push(i);
                    // The shard's bytes were just re-derived; refresh
                    // the leaf cache beside them so the next scrub can
                    // descend again. Best-effort: a missed rewrite is
                    // re-flagged as `BadHashes` next cycle.
                    let put = BatchOp::Put {
                        key: &tree_key(object, i, manifest.shard_gen[i]),
                        data: &HashBlob::from_shard(shard, manifest.hash_leaf_size).to_bytes(),
                    };
                    if conns.with(addr, put, reply::put).is_ok()
                        && !report.hash_blobs_rewritten.contains(&i)
                    {
                        report.hash_blobs_rewritten.push(i);
                    }
                }
                Err(_) => report.unplaced.push(i),
            }
        }
        if !retargeted.is_empty() {
            // The shard map changed: publish it. Required on the nodes
            // that just accepted re-targeted shards (they proved alive;
            // without the manifest their shards are undiscoverable),
            // best-effort elsewhere.
            manifest.generation += 1;
            let bytes = manifest.to_bytes();
            let key = manifest_key(object);
            let targets = self.nodes.iter().map(String::as_str);
            for (addr, result) in
                self.nodes.iter().zip(put_everywhere(conns, targets, &key, &bytes))
            {
                let required = retargeted
                    .iter()
                    .any(|&i| &manifest.placement[i] == addr && report.repaired.contains(&i));
                match result {
                    Err(e) if required => return Err(e),
                    _ => {}
                }
            }
        }
        Ok(report)
    }

    /// Check each intact shard's stored `t:` hash blob against the
    /// trusted manifest root and rewrite the ones that are absent,
    /// damaged, or disagree — re-derived from payload bytes the fetch
    /// already proved against that same root. Best-effort per blob: a
    /// blob that cannot be fixed now is re-flagged by the next scrub.
    fn audit_hash_blobs(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        manifest: &Manifest,
        shards: &[Option<Vec<u8>>],
        report: &mut ObjectRepairReport,
    ) {
        let widths = MerkleTree::level_widths(leaf_count(
            manifest.shard_len,
            manifest.hash_leaf_size as u64,
        ));
        let top = (widths.len() - 1) as u8;
        for (i, shard) in shards.iter().enumerate() {
            let Some(shard) = shard else { continue };
            let addr = &manifest.placement[i];
            let tkey = tree_key(object, i, manifest.shard_gen[i]);
            let root = BatchOp::HashSubtree {
                key: &tkey,
                leaf_size: manifest.hash_leaf_size,
                stored: true,
                level: top,
                start: 0,
                count: 1,
            };
            let stored = conns.with(addr, root, |answer| reply::hash_subtree(answer, 1));
            let needs_rewrite = match stored {
                // A stored root that re-hashes to the manifest root
                // proves the whole blob (the node derives it from the
                // stored leaves).
                Ok(roots) => roots[0] != manifest.shard_root[i],
                Err(StoreError::Remote { .. }) => true,
                // Transport failure — nothing to rewrite onto.
                Err(_) => continue,
            };
            if needs_rewrite {
                let blob = HashBlob::from_shard(shard, manifest.hash_leaf_size).to_bytes();
                let rewrite = BatchOp::Put { key: &tkey, data: &blob };
                if conns.with(addr, rewrite, reply::put).is_ok() {
                    report.hash_blobs_rewritten.push(i);
                }
            }
        }
    }

    /// The highest-ranked member (for `object`'s rendezvous ordering)
    /// not already in `placement` — the natural home for a shard whose
    /// recorded node left the cluster.
    fn spare_member(&self, object: &str, placement: &[String]) -> Option<String> {
        placement::rank_nodes(object, &self.nodes)
            .into_iter()
            .map(|i| self.nodes[i].clone())
            .find(|addr| !placement.contains(addr))
    }

    /// Run a scrub and repair every damaged object it found. Returns
    /// the scrub report and the per-object repair outcomes — including
    /// failed attempts, so an object that *stayed* broken is
    /// distinguishable from one never attempted.
    pub fn scrub_and_repair(
        &self,
    ) -> Result<(ClusterScrubReport, Vec<RepairOutcome>), StoreError> {
        let mut conns = self.conns();
        let scrub = self.scrub_via(&mut conns)?;
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
    /// == dead` means the node restarted empty in place. Memberships
    /// are swapped after the sweep.
    pub fn repair_nodes(
        &mut self,
        pairs: &[(String, String)],
    ) -> Result<NodeRepairReport, StoreError> {
        if pairs.is_empty() {
            return Err(StoreError::InvalidArg(
                "no (dead, replacement) pairs given".into(),
            ));
        }
        for (i, (dead, replacement)) in pairs.iter().enumerate() {
            if replacement.len() > crate::manifest::MAX_ADDR {
                return Err(StoreError::InvalidArg("replacement address too long".into()));
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
        let replacements: HashMap<&str, &str> =
            pairs.iter().map(|(d, r)| (d.as_str(), r.as_str())).collect();
        let mut conns = self.conns();
        let objects = self.objects_via(&mut conns, &dead)?;
        let mut report = NodeRepairReport::default();
        for object in &objects {
            report.objects_scanned += 1;
            match self.repair_object_onto(&mut conns, object, &dead, &replacements, &mut report)
            {
                Ok(()) => {}
                // Tombstoned (deleted) objects need no repair.
                Err(StoreError::NotFound(_)) => {}
                Err(e) => report.failed.push((object.clone(), e.to_string())),
            }
        }
        for (dead, replacement) in pairs {
            if let Some(pos) = self.nodes.iter().position(|a| a == dead) {
                self.nodes[pos] = replacement.clone();
            }
        }
        Ok(report)
    }

    /// Rebuild `lost` from survivors, preferring the codec's repair
    /// plan: fetch only the shards [`ErasureCoder::repair_sources`]
    /// names and run the cached subset program — for a single loss
    /// under LRC that is the shard's locality group, a fraction of the
    /// any-`n` read floor. Falls back to fetching everything when the
    /// plan's sources are themselves missing. Fetched survivor bytes
    /// are tallied into `report.bytes_read` — once per object, however
    /// many dead nodes `lost` spans.
    fn rebuild_lost(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        manifest: &Manifest,
        dead: &[&str],
        lost: &[usize],
        report: &mut NodeRepairReport,
    ) -> Result<Vec<Option<Vec<u8>>>, StoreError> {
        let total = manifest.total_shards();
        if let Ok(plan) = self.codec.repair_sources(lost) {
            if plan.len() + lost.len() < total
                && plan
                    .iter()
                    .all(|&i| !dead.contains(&manifest.placement[i].as_str()))
            {
                let mut shards: Vec<Option<Vec<u8>>> = vec![None; total];
                let mut bytes = 0u64;
                let mut complete = true;
                for (&i, fetched) in plan
                    .iter()
                    .zip(self.fetch_shards(conns, object, manifest, &plan))
                {
                    match fetched {
                        Some(s) => {
                            bytes += s.len() as u64;
                            shards[i] = Some(s);
                        }
                        None => complete = false,
                    }
                }
                if complete {
                    match self.codec.reconstruct_subset(&mut shards, lost) {
                        Ok(()) => {
                            report.bytes_read += bytes;
                            return Ok(shards);
                        }
                        // A source the subset program needs is gone
                        // after all: retry below against everything.
                        Err(EcError::MissingSource { .. }) => {}
                        Err(e) => return Err(e.into()),
                    }
                }
            }
        }
        let survivors: Vec<usize> = (0..total)
            .filter(|&i| !dead.contains(&manifest.placement[i].as_str()))
            .collect();
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; total];
        let mut bytes = 0u64;
        for (&i, fetched) in survivors
            .iter()
            .zip(self.fetch_shards(conns, object, manifest, &survivors))
        {
            if let Some(s) = fetched {
                bytes += s.len() as u64;
                shards[i] = Some(s);
            }
        }
        let have = shards.iter().flatten().count();
        if have < self.codec.data_shards() {
            return Err(StoreError::Unavailable {
                object: object.to_string(),
                needed: self.codec.data_shards(),
                have,
            });
        }
        // `reconstruct` rebuilds every missing shard; the caller places
        // only the dead nodes' shards — other damage belongs to other
        // repairs.
        self.codec.reconstruct(&mut shards)?;
        report.bytes_read += bytes;
        Ok(shards)
    }

    /// Repair one object across all dead nodes at once: find every
    /// shard placed on a dead node, rebuild them in a single
    /// reconstruct from one survivor fetch, and place each onto its
    /// dead node's replacement.
    ///
    /// Replacement writes follow the same prepare→publish discipline as
    /// `put`: rebuilt shards land under a *new* generation's keys, and
    /// the manifest naming them replicates only after every placement
    /// succeeded. A repairer that dies mid-object leaves the old
    /// manifest (and every key it references) exactly as it was —
    /// still degraded, still repairable by the retry — and its partial
    /// placements as GC-able orphans on the replacements.
    fn repair_object_onto(
        &self,
        conns: &mut ParallelConnSet,
        object: &str,
        dead: &[&str],
        replacements: &HashMap<&str, &str>,
        report: &mut NodeRepairReport,
    ) -> Result<(), StoreError> {
        let mut manifest = self.fetch_manifest(conns, object, dead)?;
        self.check_geometry(object, &manifest)?;
        let total = manifest.total_shards();
        let affected: Vec<usize> = (0..total)
            .filter(|&i| dead.contains(&manifest.placement[i].as_str()))
            .collect();
        let new_gen = manifest.generation + 1;
        if !affected.is_empty() {
            let shards =
                self.rebuild_lost(conns, object, &manifest, dead, &affected, report)?;
            // Root proof before publish: the survivors that fed the
            // reconstruction were root-verified on fetch, so a mismatch
            // here is a codec fault or a lying manifest — either way
            // these bytes must not become the object's new truth.
            for &i in &affected {
                let shard = shards[i].as_deref().expect("reconstructed");
                if MerkleTree::from_payload(shard, manifest.hash_leaf_size as usize).root()
                    != manifest.shard_root[i]
                {
                    return Err(StoreError::Manifest(format!(
                        "repair of `{object}` shard {i}: reconstructed bytes \
                         fail the manifest Merkle root — refusing to publish"
                    )));
                }
            }
            // Prepare: one concurrent round places every rebuilt shard —
            // and its regenerated `t:` leaf cache — on its replacement
            // node, under the new generation's keys.
            let tree_bytes: Vec<Vec<u8>> = affected
                .iter()
                .map(|&i| {
                    HashBlob::from_shard(
                        shards[i].as_deref().expect("reconstructed"),
                        manifest.hash_leaf_size,
                    )
                    .to_bytes()
                })
                .collect();
            // A shard write, then its hash blob's, per lost shard. The
            // failpoint index is `Some(write_idx)` only for shard writes,
            // so `repair.shard` trips per shard.
            let ships: Vec<Ship> = affected
                .iter()
                .enumerate()
                .flat_map(|(write_idx, &i)| {
                    let target = replacements[manifest.placement[i].as_str()];
                    let shard = shards[i].as_deref().expect("reconstructed");
                    [
                        (target, manifest::shard_key(object, i, new_gen), shard, Some(write_idx)),
                        (target, tree_key(object, i, new_gen), tree_bytes[write_idx].as_slice(), None),
                    ]
                })
                .collect();
            let mut placed = self.ship(conns, "repair.shard", &ships).into_iter();
            for &i in &affected {
                placed.next().expect("a shard write per lost shard")?;
                let target = replacements[manifest.placement[i].as_str()];
                manifest.placement[i] = target.to_string();
                manifest.shard_gen[i] = new_gen;
                report.shards_rebuilt += 1;
                report.bytes_rebuilt += shards[i].as_ref().expect("reconstructed").len() as u64;
                placed.next().expect("a hash-blob write per lost shard")?;
            }
        }
        let key = manifest_key(object);
        if affected.is_empty() {
            // Nothing moved: the manifest is unchanged, so no
            // generation bump and no cluster-wide republish — each
            // replacement just needs its discovery copy seeded.
            let bytes = manifest.to_bytes();
            for result in put_everywhere(conns, replacements.values().copied(), &key, &bytes) {
                result?;
            }
            return Ok(());
        }
        // Publish: the shard map changed — refresh it on the
        // post-repair membership, concurrently. Only the replacements
        // are *required* to accept it (they just proved alive; without
        // a manifest their new shards are undiscoverable) — other
        // nodes may themselves be dead mid-multi-failure, and their
        // stale replicas lose the generation vote until their own
        // repair refreshes them.
        trip(&self.failpoint, "repair.publish", 0)?;
        manifest.generation = new_gen;
        let bytes = manifest.to_bytes();
        let targets: Vec<&str> = self
            .nodes
            .iter()
            .map(|addr| {
                replacements.get(addr.as_str()).copied().unwrap_or(addr.as_str())
            })
            .collect();
        let published = put_everywhere(conns, targets.iter().copied(), &key, &bytes);
        for (&addr, result) in targets.iter().zip(published) {
            match result {
                Ok(()) => {}
                Err(e) if replacements.values().any(|&r| r == addr) => return Err(e),
                Err(_) => {}
            }
        }
        Ok(())
    }
}

/// Parse a GC-able per-shard key — a shard blob (`s:`) or its hash-blob
/// twin (`t:`) — into `(object, index, generation)`. The two families
/// share one suffix grammar, so one liveness rule judges both.
fn parse_gc_key(key: &str) -> Option<(&str, usize, u64)> {
    parse_shard_key(key).or_else(|| crate::tree::parse_tree_key(key))
}

/// Write `bytes` under `key` on every one of `targets`, in one round;
/// results in target order.
fn put_everywhere<'a>(
    conns: &mut ParallelConnSet,
    targets: impl Iterator<Item = &'a str>,
    key: &str,
    bytes: &[u8],
) -> Vec<Result<(), StoreError>> {
    let put = BatchOp::Put { key, data: bytes };
    conns.run_batch(targets.map(|addr| (addr, put, reply::put)).collect())
}

/// The keys of shards `indices` of `object`, for
/// [`shard_fetch_jobs`] to borrow.
fn shard_keys(object: &str, manifest: &Manifest, indices: &[usize]) -> Vec<String> {
    indices.iter().map(|&i| manifest.shard_key(object, i)).collect()
}

/// One fetch-and-validate job per shard in `indices` (`keys` from
/// [`shard_keys`]), for barrier rounds and first-n reads alike. Each
/// shard is checked as its answer arrives, on the thread running the
/// round. The outer `Err` of a [`Fetched`] is a transport failure (the
/// fan-out layer drops the connection); the inner result is the typed
/// shard outcome.
fn shard_fetch_jobs<'a>(
    manifest: &'a Manifest,
    keys: &'a [String],
    indices: &'a [usize],
) -> Vec<crate::fanout::Job<'a, impl FnOnce(Answer) -> Fetched + 'a>> {
    (indices.iter().zip(keys))
        .map(|(&i, key)| {
            let addr = manifest.placement[i].as_str();
            (addr, BatchOp::Get { key }, move |answer| check_shard(manifest, i, answer))
        })
        .collect()
}

/// Judge what a node answered to the fetch of shard `i`.
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
            // Every consumer of this job — get, overwrite's fetch of the
            // changed shards and parity, repair's survivor fetch, the
            // full-read scrub — gets end-to-end hash verification for
            // free, so even a CRC-colliding flip cannot slip into a
            // decode.
            if MerkleTree::from_payload(&bytes, manifest.hash_leaf_size as usize).root()
                != manifest.shard_root[i]
            {
                return Ok(Err(ShardFault::Corrupt(format!(
                    "shard bytes from {addr} fail the manifest Merkle root \
                     (CRC-32 passes — checksum-colliding damage)"
                ))));
            }
            Ok(Ok(bytes))
        }
        Err(StoreError::Remote { code: RemoteErrorCode::CorruptBlob, message }) => {
            Ok(Err(ShardFault::Corrupt(format!("{addr}: corrupt blob: {message}"))))
        }
        Err(e @ StoreError::Remote { .. }) => {
            Ok(Err(ShardFault::Missing(format!("{addr}: {e}"))))
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeHandle;

    /// Regression for the shared-connection-state contract: a node
    /// found dead by the scrub health probe is marked dead exactly once
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
        let report = cluster.scrub_via(&mut conns).unwrap();
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

    // -----------------------------------------------------------------
    // The completion loop (`fanout.rs`) against scripted peers.
    // -----------------------------------------------------------------

    use crate::proto::{self, op, status};
    use std::convert::identity;
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc;

    const PATIENCE: Duration = Duration::from_secs(10);

    fn listener() -> (TcpListener, String) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        (listener, addr)
    }

    /// Read one request off `stream`: its id and `(opcode, key)`.
    fn request(stream: &mut TcpStream) -> Result<(u32, (u8, String)), proto::FrameError> {
        let frame = proto::read_frame(stream)?;
        let key = proto::PayloadReader::new(&frame.payload).key().unwrap().to_string();
        Ok((frame.request_id, (frame.tag, key)))
    }

    fn get(key: &str) -> BatchOp<'_> {
        BatchOp::Get { key }
    }

    #[test]
    fn silent_nodes_cost_one_timeout_between_them() {
        // Two peers that take the connection (the kernel completes the
        // handshake from the listen backlog) and never say a word.
        let (_quiet_a, a) = listener();
        let (_quiet_b, b) = listener();
        let timeout = Duration::from_millis(600);
        let mut conns = ParallelConnSet::new(timeout, None);
        let start = Instant::now();
        let results = conns.run_batch(vec![(&*a, get("k"), identity), (&*b, get("k"), identity)]);
        let took = start.elapsed();
        assert!(results.iter().all(|r| matches!(r, Err(StoreError::Timeout))), "{results:?}");
        assert!(took >= timeout, "gave up early: {took:?}");
        assert!(took < timeout * 2 - timeout / 4, "the nodes were waited for in turn: {took:?}");
    }

    #[test]
    fn a_dead_address_is_dialed_once_per_operation() {
        let (gone, addr) = listener();
        drop(gone);
        let mut conns = ParallelConnSet::new(PATIENCE, None);
        for round in 0..3 {
            let results = conns.run_batch(vec![(&*addr, get("a"), identity), (&*addr, get("b"), identity)]);
            for (job, result) in results.iter().enumerate() {
                let Err(StoreError::Io(e)) = result else {
                    panic!("round {round}, job {job}: {result:?}");
                };
                assert_eq!(e.kind(), std::io::ErrorKind::ConnectionRefused);
                // Only the dial itself tells the kernel's story; the
                // rest fail fast on the mark it left.
                assert_eq!(e.to_string().contains("marked dead"), (round, job) != (0, 0), "{e}");
            }
        }
        assert_eq!(conns.connect_attempts(&addr), 1);
    }

    #[test]
    fn same_address_jobs_are_pipelined_in_job_order() {
        // A node that answers nothing until it has read all six
        // requests: a client that waited for an answer before sending
        // the next request would never get one.
        let (node, addr) = listener();
        let seen = std::thread::spawn(move || {
            let (mut stream, _) = node.accept().unwrap();
            let requests: Vec<_> = (0..6).map(|_| request(&mut stream).unwrap()).collect();
            for (id, _) in requests.iter().rev() {
                proto::write_frame(&mut stream, status::OK, *id, &[]).unwrap();
            }
            requests.into_iter().map(|(_, what)| what).collect::<Vec<_>>()
        });
        let keys = ["s:0", "t:0", "s:1", "t:1", "s:2", "t:2"];
        let jobs: Vec<_> = keys
            .iter()
            .map(|&key| (&*addr, BatchOp::Put { key, data: b"bytes" }, reply::put))
            .collect();
        let mut conns = ParallelConnSet::new(PATIENCE, None);
        for result in conns.run_batch(jobs) {
            result.unwrap();
        }
        let want: Vec<_> = keys.iter().map(|k| (op::PUT_SHARD, k.to_string())).collect();
        assert_eq!(seen.join().unwrap(), want, "shard before its hash blob, in job order");
        assert_eq!(conns.connect_attempts(&addr), 1);
    }

    #[test]
    fn an_abandoned_stragglers_connection_is_never_reused() {
        let (prompt, prompt_addr) = listener();
        let (straggler, straggler_addr) = listener();
        let answering = std::thread::spawn(move || {
            let (mut stream, _) = prompt.accept().unwrap();
            while let Ok((id, _)) = request(&mut stream) {
                proto::write_frame(&mut stream, status::OK, id, &[b"prompt"]).unwrap();
            }
        });
        let (report, reported) = mpsc::channel();
        let straggling = std::thread::spawn(move || {
            // First connection: take the request and sit on it. The
            // client must hang up on it, not talk to it again.
            let (mut first, _) = straggler.accept().unwrap();
            let (_, asked) = request(&mut first).unwrap();
            report.send(asked.1).unwrap();
            let hung_up = matches!(request(&mut first), Err(proto::FrameError::Eof));
            // Second connection: behave.
            let (mut second, _) = straggler.accept().unwrap();
            let (id, asked) = request(&mut second).unwrap();
            proto::write_frame(&mut second, status::OK, id, &[b"late"]).unwrap();
            (hung_up, asked.1)
        });

        let mut conns = ParallelConnSet::new(PATIENCE, None);
        let jobs = vec![(&*prompt_addr, get("one"), identity), (&*straggler_addr, get("one"), identity)];
        let enough = |outcomes: &[Option<Result<Vec<u8>, StoreError>>]| outcomes[0].is_some();
        let first = conns.run_first_n(jobs, enough, enough);
        assert_eq!(first.outcomes[0].as_ref().unwrap().as_ref().unwrap(), b"prompt");
        assert!(first.outcomes[1].is_none() && first.elapsed[1].is_none() && !first.timed_out);
        assert_eq!(reported.recv_timeout(PATIENCE).unwrap(), "one");

        // The next round finds the prompt node's connection in the pool
        // and has to dial the straggler afresh.
        let jobs = vec![(&*prompt_addr, get("two"), identity), (&*straggler_addr, get("two"), identity)];
        let second = conns.run_batch(jobs);
        assert_eq!(second[0].as_ref().unwrap(), b"prompt");
        assert_eq!(second[1].as_ref().unwrap(), b"late");
        assert_eq!(straggling.join().unwrap(), (true, "two".to_string()));
        assert_eq!(conns.connect_attempts(&prompt_addr), 1);
        assert_eq!(conns.connect_attempts(&straggler_addr), 2);
        drop(conns);
        answering.join().unwrap();
    }

    #[test]
    fn a_round_costs_the_slowest_node_not_the_sum() {
        // Every node sits on each shard request for 250 ms. Asked in
        // turn, the four shard writes of a put alone would take a
        // second; asked at once, the whole put and the get after it take
        // about one delay each.
        let delay = Duration::from_millis(250);
        let root = std::env::temp_dir().join(format!("ec_store_maxrtt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let nodes: Vec<NodeHandle> = (0..4)
            .map(|i| {
                let opts = crate::node::NodeOptions {
                    workers: 2,
                    response_delay: Some(delay),
                    delay_key_prefix: Some("s:".to_string()),
                };
                NodeHandle::spawn_with(&root.join(format!("n{i}")), "127.0.0.1:0", opts).unwrap()
            })
            .collect();
        let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
        let cluster = Cluster::new(addrs, RsConfig::new(3, 1)).unwrap();
        let data = vec![0xA5u8; 30_000];
        let start = Instant::now();
        cluster.put("obj", &data).unwrap();
        let put = start.elapsed();
        let start = Instant::now();
        assert_eq!(cluster.get("obj").unwrap(), data);
        let got = start.elapsed();
        for (what, took) in [("put", put), ("get", got)] {
            assert!(took >= delay, "{what} dodged the injected delay: {took:?}");
            assert!(took < delay * 5 / 2, "{what} paid the nodes in turn: {took:?}");
        }
        drop(nodes);
        let _ = std::fs::remove_dir_all(&root);
    }

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
        assert!(took < slow / 2, "the read waited for the straggler: {took:?}");
        assert!(!report.degraded(), "{report:?}");
        let straggler = cluster.manifest("obj").unwrap().placement.iter().position(|a| *a == addrs[0]);
        assert_eq!(report.abandoned(), Vec::from_iter(straggler));
        drop(nodes);
        let _ = std::fs::remove_dir_all(&root);
    }
}
