//! The cluster client: erasure-coded objects across shard nodes, with
//! every multi-node exchange fanned out concurrently so operations cost
//! ~max(per-node RTT) instead of the sum.
//!
//! * `put` stripes an object into `n + p` shards (one `encode` through
//!   the SLP-optimized codec), ships all of them *concurrently* to the
//!   top-ranked nodes of the object's rendezvous ordering, and
//!   replicates a [`Manifest`] to every node in one more fan-out round;
//! * `get` is **data first**: it fetches the `n` data shards and holds
//!   the parity fetches back in the same round. A failed data fetch
//!   releases at once the backup the codec's repair plan names (the
//!   first surviving parity for RS, the group's local parity for LRC);
//!   a data fetch still out after twice the time the served majority
//!   took is a straggler and is backed the same way, so one slow node
//!   does not tax every read. The read returns as soon as what it was
//!   served decodes; degraded reads reconstruct through the codec's
//!   cached decode programs. A healthy read no longer sees a lost
//!   parity shard — finding that is scrub's job;
//! * `overwrite` is the delta path: the manifest's Merkle roots say
//!   which data shards changed, only those and the parity are read and
//!   shipped, and parity is brought up to date with the cached
//!   per-column programs (`old ⊕ new`, not the world);
//! * `scrub` sweeps the cluster in four rounds: one listing of every
//!   node's manifest, shard and hash-blob keys (the sign of life, the
//!   object universe and the GC's listing at once); one manifest
//!   election per object, shared by its scrub and the GC; every live
//!   object's shard roots, attributing damage per shard; and the GC's
//!   deletes. Elections and root checks go [`OBJECTS_PER_ROUND`]
//!   objects to a round. A node found dead is marked once in the shared
//!   connection state and fast-fails every later touch;
//! * one repair core serves both repairs — `repair_object` (scrub
//!   damage) and `repair_nodes` (any number of simultaneously-dead
//!   nodes, one survivor fetch + one reconstruct per object): the
//!   codec's `reconstruct_from` fetches only what its repair plan lacks
//!   (a locally repairable codec reads a single lost shard's group) and
//!   rebuilds; then prove each rebuilt shard against its manifest root,
//!   ship shards and hash blobs in one round, publish only a changed
//!   shard map;
//! * an optional per-operation deadline ([`Cluster::with_op_deadline`])
//!   bounds each operation's wall clock and surfaces as the typed
//!   [`StoreError::Timeout`].
//!
//! **Crash atomicity** (the generation-keyed write discipline): `put`
//! and delta `overwrite` *prepare* their shards under fresh
//! generation-qualified keys beside the live generation, *publish* by
//! replicating the new manifest only after every shard landed, and
//! leave *collection* of superseded and crash-orphaned generations to
//! the scrub-time GC ([`Cluster::scrub`], grace window via
//! [`Cluster::with_gc_grace`]). Repair follows one placement rule: a
//! shard that moves to another node is prepared under generation
//! `g + 1` and published the same way; a shard that stays on its node
//! is rewritten under its live keys with exactly the bytes the live
//! manifest already names — idempotent, rename-atomic per node, and
//! nothing to publish (measured: a new generation plus a publish for
//! every scrub repair cost 21 % of `store_small/repair_MBps`). So a
//! client that dies at any point mid-write leaves the published
//! generation readable, and a `get` racing a re-put decodes one
//! generation or the other, never a mixture.

mod read;
mod repair;
mod scrub;
mod write;

pub use read::{GetReport, ShardFetch, ShardOutcome};
pub use repair::{NodeRepairReport, ObjectRepairReport, RepairOutcome};
pub use scrub::{ClusterScrubReport, ObjectScrub, ShardHealth};
pub use write::{OverwriteMode, OverwriteReport, PutReport};

use crate::client::NodeHealth;
use crate::error::{RemoteErrorCode, StoreError};
use crate::fanout::{ParallelConnSet, Pool};
use crate::manifest::{self, Manifest, ManifestRecord};
use crate::placement;
use ec_core::{codec_for_with, CodecSpec, ErasureCoder, RsConfig};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One write of a prepare round: the node, the key, the bytes, and the
/// index its failpoint trips at.
type Ship<'a> = (&'a str, String, &'a [u8], usize);

/// Default network timeout (connect + each read/write).
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(5);

/// Default GC grace window: a shard blob younger than this (by its own
/// node's clock) is never collected, however orphaned it looks — it may
/// belong to a put whose manifest has not landed *yet*.
pub const DEFAULT_GC_GRACE: Duration = Duration::from_secs(300);

/// A crash-injection hook for the fault-injection tests: called as
/// `(point, index)` before each guarded write step, and the step fails
/// (as if the client died there) when it returns `true`.
///
/// Points: `put.shard` / `overwrite.shard` / `repair.shard` fire per
/// shard write with the write's index — a shard's hash blob trips with
/// it — and the round stops at the first write that trips, so
/// `index >= k` simulates a client crashing after `k` shard writes;
/// `put.publish` / `overwrite.publish` / `repair.publish` fire once
/// (index 0) just before the manifest replication that makes the write
/// visible. The `repair.*` points guard `repair_object` and
/// `repair_nodes` alike; a repair that moves no shard publishes
/// nothing, so `repair.publish` cannot fire in it.
///
/// Install with [`Cluster::with_failpoint`]; a cluster has no hook
/// otherwise. (The `xorslp-store` CLI installs one from its own
/// `XORSLP_FAILPOINT="<point>=<k>"`, which makes `point` fail at every
/// `index >= k`.)
pub type FailPoint = Arc<dyn Fn(&str, usize) -> bool + Send + Sync>;

/// Evaluate a failpoint inside a write step: `Err` = the injected
/// crash. A tripped step errors before touching the network, so the
/// write aborts exactly as if the client process died there — shards
/// already written stay on their nodes as an unpublished generation.
fn trip(fp: &Option<FailPoint>, point: &'static str, index: usize) -> Result<(), StoreError> {
    match fp {
        Some(f) if f(point, index) => Err(StoreError::Io(std::io::Error::other(format!(
            "failpoint {point} tripped at index {index}"
        )))),
        _ => Ok(()),
    }
}

/// The most objects one round elects or root-checks: it bounds what a
/// round pipelines to each node (an election is one `GET` per object,
/// a root check two `HASH_SUBTREE`s per shard) and how many manifests
/// a round's answers hold at once.
const OBJECTS_PER_ROUND: usize = 64;

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
    /// Count one node's answer to the `GET` of the object's record.
    fn tally(&mut self, answer: Result<Vec<u8>, StoreError>) {
        match answer {
            Ok(bytes) => {
                self.reachable += 1;
                match manifest::parse_record(&bytes) {
                    Ok(ManifestRecord::Live(m))
                        if self
                            .live
                            .as_ref()
                            .is_none_or(|b| m.generation > b.generation) =>
                    {
                        self.live = Some(m)
                    }
                    Ok(ManifestRecord::Live(_)) => {}
                    Ok(ManifestRecord::Tombstone { generation }) => {
                        self.tombstone = Some(self.tombstone.unwrap_or(0).max(generation));
                    }
                    Err(e) => self.rot_err = Some(e),
                }
            }
            Err(StoreError::Remote {
                code: RemoteErrorCode::NotFound,
                ..
            }) => self.reachable += 1,
            Err(e @ StoreError::Remote { .. }) => self.rot_err = Some(e),
            Err(e) => self.conn_err = Some(e),
        }
    }

    /// The generation a fresh write must carry to win this election.
    fn next_generation(&self) -> u64 {
        let live = self.live.as_ref().map_or(0, |m| m.generation);
        live.max(self.tombstone.unwrap_or(0)) + 1
    }

    /// The election's verdict on `object`: the freshest *live* manifest
    /// — the highest-generation valid copy wins (a node that slept
    /// through a write cannot serve a stale shard map), unless a
    /// tombstone of equal or higher generation supersedes it, and then
    /// the object is deleted (`NotFound`). Corrupt replicas are skipped,
    /// not fatal, but are reported honestly when no usable replica
    /// exists (rot must not masquerade as "not found"), and so is a
    /// transport failure when no node answered at all.
    fn manifest(self, object: &str) -> Result<Manifest, StoreError> {
        let not_found = || StoreError::NotFound(object.to_string());
        if self.live.is_some() || self.tombstone.is_some() {
            let tomb = self.tombstone.unwrap_or(0);
            return self
                .live
                .filter(|m| m.generation > tomb)
                .ok_or_else(not_found);
        }
        match (self.rot_err, self.conn_err) {
            (Some(e), _) => Err(e),
            (None, Some(e)) if self.reachable == 0 => Err(e),
            _ => Err(not_found()),
        }
    }
}

/// Why one shard fetch failed, typed so scrub can attribute damage.
enum ShardFault {
    /// Bytes exist but are wrong (frame/checksum/length failure).
    Corrupt(String),
    /// Unreachable node or absent blob.
    Missing(String),
}

/// Per-node health as seen by [`Cluster::health`].
#[derive(Clone, Debug)]
pub struct ClusterHealth {
    /// `(address, health)` per node; `None` for unreachable nodes.
    pub nodes: Vec<(String, Option<NodeHealth>)>,
}

/// A client of a set of shard nodes, holding the codec, the node
/// membership and the connections it keeps between operations. All
/// read-side operations take `&self` and the cluster is `Send + Sync` —
/// share it behind an `Arc` across client threads.
///
/// **Kept connections**: the cluster holds at most one idle connection
/// per node address for its lifetime. Each operation takes a node's kept
/// connection before it would dial, and gives back what it leaves idle
/// and intact; threads sharing one cluster dial for the connections they
/// do not find kept, and leave one per node behind. A kept connection is
/// closed rather than reused when a zero-timeout poll finds it readable
/// (the node closed it, reset it, or sent bytes nobody asked for) or it
/// has been idle half the node's idle deadline; every failure that drops
/// a connection mid-operation also keeps it out of the pool, and a node
/// found dead is dialed again by the next operation.
///
/// **Write concurrency**: writes to *different* objects may run
/// concurrently, but writes to one object (`put` / `overwrite` /
/// `delete`) must be serialized by the caller — shard replacement is
/// not transactional across nodes, and the delta-overwrite path is a
/// read-modify-write of parity with no cross-client locking.
pub struct Cluster {
    codec: Box<dyn ErasureCoder>,
    nodes: Vec<String>,
    /// The idle connections kept between operations, one per node at
    /// most.
    pool: Arc<Pool>,
    timeout: Duration,
    /// Per-operation wall-clock bound (`None` = only the per-I/O
    /// `timeout` applies).
    op_deadline: Option<Duration>,
    /// Minimum age (node-clock) a shard blob must reach before the
    /// scrub-time GC may collect it.
    gc_grace: Duration,
    /// Crash injection for the fault tests ([`FailPoint`]); `None`
    /// unless [`Cluster::with_failpoint`] installed one.
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
    /// parallelism) from `cfg`; geometry comes from `spec`.
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
            pool: Arc::default(),
            timeout: DEFAULT_TIMEOUT,
            op_deadline: None,
            gc_grace: DEFAULT_GC_GRACE,
            failpoint: None,
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
    /// intent.
    pub fn with_failpoint(mut self, failpoint: FailPoint) -> Cluster {
        self.failpoint = Some(failpoint);
        self
    }

    /// The codec backing this cluster (e.g. for SLP/program-table metrics).
    pub fn codec(&self) -> &dyn ErasureCoder {
        &*self.codec
    }

    /// Current node membership, in configuration order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    fn conns(&self) -> ParallelConnSet {
        let deadline = self.op_deadline.map(|d| Instant::now() + d);
        ParallelConnSet::new(self.timeout, deadline).with_pool(&self.pool)
    }

    /// The `n + p` node addresses hosting `object`, shard-index order.
    fn placement_for(&self, object: &str) -> Vec<String> {
        let total = self.codec.total_shards();
        placement::rank_nodes(object, &self.nodes)[..total]
            .iter()
            .map(|&i| self.nodes[i].clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{reply, BatchOp};
    use crate::node::NodeHandle;

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
        let key = proto::PayloadReader::new(&frame.payload)
            .key()
            .unwrap()
            .to_string();
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
        assert!(
            results
                .iter()
                .all(|r| matches!(r, Err(StoreError::Timeout))),
            "{results:?}"
        );
        assert!(took >= timeout, "gave up early: {took:?}");
        assert!(
            took < timeout * 2 - timeout / 4,
            "the nodes were waited for in turn: {took:?}"
        );
    }

    #[test]
    fn a_dead_address_is_dialed_once_per_operation() {
        let (gone, addr) = listener();
        drop(gone);
        let mut conns = ParallelConnSet::new(PATIENCE, None);
        for round in 0..3 {
            let results = conns.run_batch(vec![
                (&*addr, get("a"), identity),
                (&*addr, get("b"), identity),
            ]);
            for (job, result) in results.iter().enumerate() {
                let Err(StoreError::Io(e)) = result else {
                    panic!("round {round}, job {job}: {result:?}");
                };
                assert_eq!(e.kind(), std::io::ErrorKind::ConnectionRefused);
                // Only the dial itself tells the kernel's story; the
                // rest fail fast on the mark it left.
                assert_eq!(
                    e.to_string().contains("marked dead"),
                    (round, job) != (0, 0),
                    "{e}"
                );
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
            requests
                .into_iter()
                .map(|(_, what)| what)
                .collect::<Vec<_>>()
        });
        let keys = ["s:0", "t:0", "s:1", "t:1", "s:2", "t:2"];
        let jobs: Vec<_> = keys
            .iter()
            .map(|&key| {
                (
                    &*addr,
                    BatchOp::Put {
                        key,
                        data: b"bytes",
                    },
                    reply::put,
                )
            })
            .collect();
        let mut conns = ParallelConnSet::new(PATIENCE, None);
        for result in conns.run_batch(jobs) {
            result.unwrap();
        }
        let want: Vec<_> = keys
            .iter()
            .map(|k| (op::PUT_SHARD, k.to_string()))
            .collect();
        assert_eq!(
            seen.join().unwrap(),
            want,
            "shard before its hash blob, in job order"
        );
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
        let jobs = vec![
            (&*prompt_addr, get("one"), identity),
            (&*straggler_addr, get("one"), identity),
        ];
        let enough = |outcomes: &[Option<Result<Vec<u8>, StoreError>>]| outcomes[0].is_some();
        let first = conns.run_first_n(jobs, enough, crate::fanout::release_all);
        assert_eq!(
            first.outcomes[0].as_ref().unwrap().as_ref().unwrap(),
            b"prompt"
        );
        assert!(first.outcomes[1].is_none() && first.elapsed[1].is_none() && !first.timed_out);
        assert_eq!(reported.recv_timeout(PATIENCE).unwrap(), "one");

        // The next round finds the prompt node's connection in the pool
        // and has to dial the straggler afresh.
        let jobs = vec![
            (&*prompt_addr, get("two"), identity),
            (&*straggler_addr, get("two"), identity),
        ];
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
    fn a_held_job_goes_out_only_when_released() {
        // Job 1 is released once job 0 has its answer; job 2 never is.
        // The backup's node must see its request only after the prompt
        // node answered, and the never-released job's node not even a
        // connect.
        let (prompt, prompt_addr) = listener();
        let (backup, backup_addr) = listener();
        let (_unasked, unasked_addr) = listener();
        let (told, answered) = mpsc::channel();
        let prompting = std::thread::spawn(move || {
            let (mut stream, _) = prompt.accept().unwrap();
            let (id, _) = request(&mut stream).unwrap();
            told.send(()).unwrap();
            proto::write_frame(&mut stream, status::OK, id, &[b"first"]).unwrap();
        });
        let backing = std::thread::spawn(move || {
            let (mut stream, _) = backup.accept().unwrap();
            let (id, _) = request(&mut stream).unwrap();
            let after_the_first = answered.try_recv().is_ok();
            proto::write_frame(&mut stream, status::OK, id, &[b"backup"]).unwrap();
            after_the_first
        });

        let mut conns = ParallelConnSet::new(PATIENCE, None);
        let jobs = vec![
            (&*prompt_addr, get("k"), identity),
            (&*backup_addr, get("k"), identity),
            (&*unasked_addr, get("k"), identity),
        ];
        let release = |round: &crate::fanout::Progress<'_, Vec<u8>>| crate::fanout::Release {
            jobs: if round.outcomes[0].is_some() {
                vec![0, 1]
            } else {
                vec![0]
            },
            recheck: None,
        };
        let round = conns.run_first_n(jobs, |outcomes| outcomes[1].is_some(), release);
        assert_eq!(
            round.outcomes[1].as_ref().unwrap().as_ref().unwrap(),
            b"backup"
        );
        assert_eq!(round.held, [false, false, true]);
        assert!(
            backing.join().unwrap(),
            "the backup went out before the first answer"
        );
        prompting.join().unwrap();
        assert_eq!(conns.connect_attempts(&unasked_addr), 0);
    }

    // -----------------------------------------------------------------
    // Kept connections (`fanout.rs`'s `Pool`): when one is reused, and
    // when it is closed and the address dialed afresh.
    // -----------------------------------------------------------------

    use crate::fanout::{fresh, Pool, MAX_IDLE};
    use crate::sys::{PollFd, POLLIN};
    use std::io::Write;

    /// Answer every request on `stream` with `OK <reply>` until the
    /// client hangs up.
    fn serve(stream: &mut TcpStream, reply: &[u8]) {
        while let Ok((id, _)) = request(stream) {
            proto::write_frame(stream, status::OK, id, &[reply]).unwrap();
        }
    }

    /// One operation on `pool`: a GET of `key` per entry of `addrs`.
    fn op(pool: &Arc<Pool>, addrs: &[&str], key: &str) -> (Vec<Result<Vec<u8>, StoreError>>, u32) {
        let mut conns = ParallelConnSet::new(PATIENCE, None).with_pool(pool);
        let results = conns.run_batch(addrs.iter().map(|&a| (a, get(key), identity)).collect());
        let dialed = addrs.iter().map(|a| conns.connect_attempts(a)).sum();
        (results, dialed)
    }

    /// Wait until the connection kept for `addr` has something to say
    /// (the peer's close, or its bytes), so the next take sees it.
    fn until_readable(pool: &Pool, addr: &str) {
        let polled = pool.with_kept(addr, |conn, _| {
            let mut fds = [PollFd::new(conn.socket(), POLLIN)];
            crate::sys::poll_ready(&mut fds, PATIENCE).unwrap()
        });
        assert_eq!(polled, Some(1), "the kept connection never turned readable");
    }

    #[test]
    fn a_second_operation_on_one_pool_dials_nothing() {
        let (node, addr) = listener();
        let serving = std::thread::spawn(move || {
            let (mut stream, _) = node.accept().unwrap();
            serve(&mut stream, b"kept");
        });
        let pool = Arc::new(Pool::default());
        for round in 0..2 {
            let (results, dialed) = op(&pool, &[&addr], &format!("k{round}"));
            assert_eq!(results[0].as_ref().unwrap(), b"kept");
            assert_eq!(dialed, u32::from(round == 0), "round {round}");
        }
        assert_eq!(pool.dials(&addr), 1);
        drop(pool); // closes the kept connection: the peer sees EOF
        serving.join().unwrap();
    }

    /// A node whose first connection answers one request with `first`,
    /// then meets whatever comes next with `fault` and is closed; its
    /// next connection answers everything with `second`.
    fn faulty_peer(fault: fn(&mut TcpStream)) -> (String, std::thread::JoinHandle<()>) {
        let (node, addr) = listener();
        let peer = std::thread::spawn(move || {
            let (mut first, _) = node.accept().unwrap();
            let (id, _) = request(&mut first).unwrap();
            proto::write_frame(&mut first, status::OK, id, &[b"first"]).unwrap();
            fault(&mut first);
            drop(first);
            let (mut second, _) = node.accept().unwrap();
            serve(&mut second, b"second");
        });
        (addr, peer)
    }

    /// Hold the connection open, saying nothing more, until the client
    /// hangs up.
    fn until_hung_up(stream: &mut TcpStream) {
        let _ = request(stream);
    }

    #[test]
    fn a_kept_connection_that_turned_readable_is_redialed_without_an_error() {
        let closed: fn(&mut TcpStream) = |_| {};
        let unsolicited: fn(&mut TcpStream) = |stream| {
            proto::write_frame(stream, status::OK, 77, &[b"nobody asked"]).unwrap();
            until_hung_up(stream);
        };
        for (what, between_ops) in [
            ("closed by the peer", closed),
            ("unsolicited frame", unsolicited),
        ] {
            let (addr, peer) = faulty_peer(between_ops);
            let pool = Arc::new(Pool::default());
            assert_eq!(op(&pool, &[&addr], "a").0[0].as_ref().unwrap(), b"first");
            until_readable(&pool, &addr);
            let (results, dialed) = op(&pool, &[&addr], "b");
            assert_eq!(
                results[0].as_ref().unwrap(),
                b"second",
                "{what}: {results:?}"
            );
            assert_eq!((dialed, pool.dials(&addr)), (1, 2), "{what}");
            drop(pool);
            peer.join().unwrap();
        }
    }

    #[test]
    fn an_abandoned_stragglers_connection_never_enters_the_pool() {
        let (prompt, prompt_addr) = listener();
        let (straggler, straggler_addr) = listener();
        let answering = std::thread::spawn(move || {
            let (mut stream, _) = prompt.accept().unwrap();
            serve(&mut stream, b"prompt");
        });
        let straggling = std::thread::spawn(move || {
            let (mut first, _) = straggler.accept().unwrap();
            request(&mut first).unwrap();
            let hung_up = matches!(request(&mut first), Err(proto::FrameError::Eof));
            let (mut second, _) = straggler.accept().unwrap();
            serve(&mut second, b"late");
            hung_up
        });

        let pool = Arc::new(Pool::default());
        let mut conns = ParallelConnSet::new(PATIENCE, None).with_pool(&pool);
        let jobs = vec![
            (&*prompt_addr, get("one"), identity),
            (&*straggler_addr, get("one"), identity),
        ];
        let enough = |outcomes: &[Option<Result<Vec<u8>, StoreError>>]| outcomes[0].is_some();
        let first = conns.run_first_n(jobs, enough, crate::fanout::release_all);
        assert!(first.outcomes[1].is_none() && !first.timed_out);
        drop(conns);
        assert!(pool.with_kept(&prompt_addr, |_, _| ()).is_some());
        assert!(
            pool.with_kept(&straggler_addr, |_, _| ()).is_none(),
            "the straggler was kept"
        );

        // The next operation reuses the prompt node's connection and
        // dials the straggler afresh.
        let (second, dialed) = op(&pool, &[&prompt_addr, &straggler_addr], "two");
        assert_eq!(second[0].as_ref().unwrap(), b"prompt");
        assert_eq!(second[1].as_ref().unwrap(), b"late");
        assert_eq!(dialed, 1);
        assert_eq!(
            (pool.dials(&prompt_addr), pool.dials(&straggler_addr)),
            (1, 2)
        );
        drop(pool);
        assert!(
            straggling.join().unwrap(),
            "the abandoned connection was talked to again"
        );
        answering.join().unwrap();
    }

    #[test]
    fn an_address_found_dead_is_dialed_again_by_the_next_operation() {
        let (gone, addr) = listener();
        drop(gone);
        let pool = Arc::new(Pool::default());
        for round in 1..=2 {
            // Two jobs each: the second fails fast on the first's mark.
            let (results, dialed) = op(&pool, &[&addr, &addr], "k");
            assert!(
                results.iter().all(|r| matches!(r, Err(StoreError::Io(_)))),
                "{results:?}"
            );
            assert_eq!((dialed, pool.dials(&addr)), (2, round), "round {round}");
        }
    }

    #[test]
    fn a_connection_idle_for_half_the_node_deadline_is_not_reused() {
        // The rule, against the node's deadline: reuse strictly inside
        // half of it, so the node's idle close never races a reuse.
        let node_deadline = Duration::from_secs(60);
        assert!(include_str!("../node.rs")
            .contains("const IDLE_DEADLINE: Duration = Duration::from_secs(60);"));
        assert_eq!(MAX_IDLE * 2, node_deadline);
        assert!(fresh(Duration::ZERO) && fresh(MAX_IDLE - Duration::from_nanos(1)));
        assert!(!fresh(MAX_IDLE) && !fresh(node_deadline));

        // And in the pool: a kept connection aged past it is closed.
        let (addr, serving) = faulty_peer(until_hung_up);
        let pool = Arc::new(Pool::default());
        assert_eq!(op(&pool, &[&addr], "a").0[0].as_ref().unwrap(), b"first");
        let aged = pool.with_kept(&addr, |_, since| *since = Instant::now() - MAX_IDLE);
        assert!(aged.is_some());
        let (results, dialed) = op(&pool, &[&addr], "b");
        assert_eq!(results[0].as_ref().unwrap(), b"second");
        assert_eq!(dialed, 1);
        drop(pool);
        serving.join().unwrap();
    }

    // Network faults on a *reused* connection: each ends the operation
    // it hits in a typed error, at once or after the I/O timeout, and
    // the next operation dials afresh and is served.

    /// Run three operations against a [`faulty_peer`]: the second
    /// (`jobs` GETs) meets `fault` on the connection the first left
    /// kept. Returns the second operation's results and how long it
    /// took.
    fn fault_on_reuse(
        jobs: usize,
        fault: fn(&mut TcpStream),
    ) -> (Vec<Result<Vec<u8>, StoreError>>, Duration) {
        let (addr, peer) = faulty_peer(fault);
        let pool = Arc::new(Pool::default());
        let timeout = Duration::from_millis(400);
        let run = |key: &str, count: usize| {
            let mut conns = ParallelConnSet::new(timeout, None).with_pool(&pool);
            let start = Instant::now();
            let results =
                conns.run_batch((0..count).map(|_| (&*addr, get(key), identity)).collect());
            (results, start.elapsed(), conns.connect_attempts(&addr))
        };
        let (first, _, dialed) = run("a", 1);
        assert_eq!(
            (first[0].as_ref().unwrap(), dialed),
            (&b"first".to_vec(), 1)
        );
        let (faulted, took, dialed) = run("b", jobs);
        assert_eq!(
            dialed, 0,
            "the second operation did not reuse the kept connection"
        );
        let (third, _, dialed) = run("c", 1);
        assert_eq!(third[0].as_ref().unwrap(), b"second", "{third:?}");
        assert_eq!(
            (dialed, pool.dials(&addr)),
            (1, 2),
            "the faulted connection was kept"
        );
        drop(pool);
        peer.join().unwrap();
        (faulted, took)
    }

    /// Every result is an answer or a typed transport error, and at
    /// least one is the error; the operation did not hang.
    fn typed_failure(what: &str, results: &[Result<Vec<u8>, StoreError>], took: Duration) {
        let typed = |r: &Result<_, _>| {
            matches!(
                r,
                Ok(_) | Err(StoreError::Io(_) | StoreError::Protocol(_) | StoreError::Timeout)
            )
        };
        assert!(results.iter().all(typed), "{what}: {results:?}");
        assert!(results.iter().any(Result::is_err), "{what}: {results:?}");
        assert!(took < PATIENCE / 2, "{what} took {took:?}");
    }

    #[test]
    fn a_reset_after_the_peer_reads_a_request_is_a_typed_error() {
        let (results, took) = fault_on_reuse(2, |stream| {
            request(stream).unwrap();
            // Close with the second request unread: the kernel resets.
            stream.peek(&mut [0]).unwrap();
        });
        typed_failure("reset", &results, took);
        assert!(results.iter().all(Result::is_err), "{results:?}");
    }

    #[test]
    fn half_an_answer_then_a_close_is_a_typed_error() {
        let (results, took) = fault_on_reuse(1, |stream| {
            let (id, _) = request(stream).unwrap();
            let mut frame = Vec::new();
            proto::write_frame(&mut frame, status::OK, id, &[&[7u8; 64][..]]).unwrap();
            stream.write_all(&frame[..frame.len() / 2]).unwrap();
        });
        typed_failure("half an answer", &results, took);
    }

    #[test]
    fn a_duplicated_response_id_is_a_typed_error() {
        let (results, took) = fault_on_reuse(2, |stream| {
            let (id, _) = request(stream).unwrap();
            request(stream).unwrap();
            for _ in 0..2 {
                proto::write_frame(stream, status::OK, id, &[b"twice"]).unwrap();
            }
            until_hung_up(stream);
        });
        typed_failure("duplicated id", &results, took);
        assert_eq!(results[0].as_ref().unwrap(), b"twice");
        assert!(
            matches!(&results[1], Err(StoreError::Protocol(_))),
            "{results:?}"
        );
    }

    #[test]
    fn a_stall_past_the_io_timeout_is_a_typed_timeout() {
        let (results, took) = fault_on_reuse(1, |stream| {
            request(stream).unwrap();
            until_hung_up(stream);
        });
        typed_failure("stall", &results, took);
        assert!(
            matches!(results[0], Err(StoreError::Timeout)),
            "{results:?}"
        );
        assert!(
            took >= Duration::from_millis(400),
            "gave up early: {took:?}"
        );
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
            assert!(
                took < delay * 5 / 2,
                "{what} paid the nodes in turn: {took:?}"
            );
        }
        drop(nodes);
        let _ = std::fs::remove_dir_all(&root);
    }
}
