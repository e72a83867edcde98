//! `store_large` and `store_small`: a 14-node loopback cluster holding
//! 4 objects of 1 MiB or of 4 KiB.
//!
//! The same API in two regimes. At 1 MiB bytes dominate: every shard is
//! checksummed and hashed by the client, the frame codec on both ends
//! and the blob store. At 4 KiB the codec and hashing vanish and the
//! per-op rounds (manifest election, fan-out thread spawns, manifest
//! replication, blob renames) are everything.

use crate::gen::{repair_patterns, Rng};
use crate::host::dir_bytes;
use crate::workload::*;
use ec_core::RsCodec;
use ec_store::{
    manifest_key, tree_key, Cluster, HashBlob, Manifest, NodeClient, NodeHandle, NodeOptions,
    OverwriteMode, ShardOutcome, HASH_LEAF_SIZE,
};
use ec_wire::crc32;
use ec_wire::merkle::MerkleTree;
use std::path::{Path, PathBuf};
use std::time::Duration;

pub const LARGE_BYTES: usize = 1 << 20;
pub const SMALL_BYTES: usize = 4 << 10;
/// Four objects, one for each op that needs its own: `Cluster::scrub` covers
/// every object of the cluster, and with eight it was half of a
/// `store_large` cycle, which on one CPU left every op a bare hundred
/// samples a run.
pub const OBJECTS: usize = 4;
/// The aligned range a large-object `update` replaces.
const RANGE_BYTES: usize = 64 << 10;
const PATTERNS: usize = 8;
const TIMEOUT: Duration = Duration::from_secs(10);

/// Each op works on its own object, so that a `put` or a `repair_object`
/// never heals what another op damaged (`read` fetches what `write` or
/// `update` just stored, which is also how their bytes are checked).
const WRITE_OBJ: usize = 0;
const UPDATE_OBJ: usize = 1;
const DEGRADED_OBJ: usize = 2;
const REPAIR_OBJ: usize = 3;

pub struct StoreWorkload {
    size: usize,
    node_root: PathBuf,
    /// Dropping a handle shuts its node down and joins its threads.
    _nodes: Vec<NodeHandle>,
    cluster: Cluster,
    names: Vec<String>,
    /// What each object must read back as.
    model: Vec<Vec<u8>>,
    rng: Rng,
    repairs: Vec<Vec<usize>>,
    populated_bytes: u64,
    tally: Tally,
    replay: Option<RsCodec>,
    progs: ProgCache,
}

impl StoreWorkload {
    pub fn build(seed: u64, dir: &Path, size: usize) -> StoreWorkload {
        let mut rng = Rng::new(seed, "store");
        let node_root = dir.join("nodes");
        let nodes: Vec<NodeHandle> = (0..N + P)
            .map(|i| {
                let opts = NodeOptions {
                    workers: 2,
                    ..NodeOptions::default()
                };
                NodeHandle::spawn_with(&node_root.join(format!("node{i:02}")), "127.0.0.1:0", opts)
                    .expect("spawn node")
            })
            .collect();
        let addrs = nodes.iter().map(|n| n.addr().to_string()).collect();
        // Zero grace: each scrub collects the generations the cycle's
        // writes superseded, so the node directories do not grow.
        let cluster = Cluster::new(addrs, engine())
            .expect("cluster")
            .with_timeout(TIMEOUT)
            .with_gc_grace(Duration::ZERO);
        let names: Vec<String> = (0..OBJECTS)
            .map(|i| rng.name(&format!("obj{i:02}-")))
            .collect();
        let model: Vec<Vec<u8>> = (0..OBJECTS).map(|_| rng.bytes(size)).collect();
        for (name, bytes) in names.iter().zip(&model) {
            cluster.put(name, bytes).expect("initial put");
        }
        let populated_bytes = dir_bytes(&node_root).expect("size of node dirs");
        let mut repairs = repair_patterns(&mut rng, N, P);
        repairs.truncate(PATTERNS);
        for lost in &repairs {
            // Compiles the pattern's decode program into the cluster's cache.
            cluster.codec().repair_sources(lost).expect("repair plan");
        }
        StoreWorkload {
            size,
            node_root,
            _nodes: nodes,
            cluster,
            names,
            model,
            repairs,
            rng,
            populated_bytes,
            tally: Tally::default(),
            replay: None,
            progs: ProgCache::default(),
        }
    }

    /// Delete the shard blobs `lost` of `object` (and their hash blobs)
    /// on the nodes that hold them; returns what was deleted, so that a
    /// caller can put it back.
    fn damage(&self, object: &str, lost: &[usize]) -> Vec<(String, String, Vec<u8>)> {
        let manifest = self
            .cluster
            .manifest(object)
            .expect("manifest of a live object");
        let mut removed = Vec::new();
        for &i in lost {
            let addr = &manifest.placement[i];
            let mut node = NodeClient::connect(addr, TIMEOUT).expect("connect to node");
            for key in [
                manifest.shard_key(object, i),
                tree_key(object, i, manifest.shard_gen[i]),
            ] {
                let bytes = node.get(&key).expect("blob to delete exists");
                assert!(node.delete(&key).expect("delete blob"), "blob was there");
                removed.push((addr.clone(), key, bytes));
            }
        }
        removed
    }

    /// Whether the nodes hold shards `which` of `object` with the
    /// checksums its manifest records.
    fn shards_intact(&self, object: &str, which: &[usize]) -> bool {
        let Ok(manifest) = self.cluster.manifest(object) else {
            return false;
        };
        which.iter().all(|&i| {
            NodeClient::connect(&manifest.placement[i], TIMEOUT)
                .and_then(|mut node| node.stat(&manifest.shard_key(object, i)))
                .is_ok_and(|stat| stat.ok && stat.crc == manifest.shard_crc[i])
        })
    }

    fn get_checked(&mut self, idx: usize, degraded: bool) -> Sample {
        let mut sw = Stopwatch::new();
        let r = sw.time(|| self.cluster.get_with_report(&self.names[idx]));
        // A first-n read may return before the two "no such blob" answers
        // arrive, and then lists those fetches as abandoned, not failed:
        // what a degraded read must show is that it was not served them.
        let ok = r.is_ok_and(|(bytes, rep)| {
            let served = |i: usize| matches!(rep.shards[i].outcome, ShardOutcome::Served);
            bytes == self.model[idx]
                && if degraded {
                    !served(0) && !served(1)
                } else {
                    !rep.degraded()
                }
        });
        self.tally.op(
            ok,
            if degraded {
                "get (data shards 0, 1 deleted)"
            } else {
                "get"
            },
        );
        sw.sample()
    }
}

impl Workload for StoreWorkload {
    fn cycle(&mut self, cycle: usize) -> [Sample; OPS.len()] {
        // write: put of an existing name, a new generation
        let w = WRITE_OBJ;
        self.rng.fill(&mut self.model[w]);
        let mut sw = Stopwatch::new();
        let r = sw.time(|| self.cluster.put(&self.names[w], &self.model[w]));
        self.tally
            .op(r.is_ok_and(|rep| rep.shards_written == N + P), "put");
        let write = sw.sample();

        // update: one aligned 64 KiB range, or the whole small object
        let u = UPDATE_OBJ;
        let range = RANGE_BYTES.min(self.size);
        let at = self.rng.below(self.size / range) * range;
        self.rng.fill(&mut self.model[u][at..at + range]);
        let mut sw = Stopwatch::new();
        let r = sw.time(|| self.cluster.overwrite(&self.names[u], &self.model[u]));
        let delta_expected = range < self.size;
        let ok = r.is_ok_and(|rep| {
            if delta_expected {
                rep.mode == OverwriteMode::Delta
            } else {
                rep.mode != OverwriteMode::NoChange
            }
        });
        self.tally.op(ok, "overwrite");
        let update = sw.sample();

        // read: what was just put, or what was just overwritten
        let read = self.get_checked(if cycle.is_multiple_of(2) { w } else { u }, false);

        // read_degraded: data shards 0 and 1 gone for the length of the get
        let d = DEGRADED_OBJ;
        let removed = self.damage(&self.names[d], &[0, 1]);
        let read_degraded = self.get_checked(d, true);
        for (addr, key, bytes) in removed {
            let mut node = NodeClient::connect(&addr, TIMEOUT).expect("connect to node");
            node.put(&key, &bytes).expect("restore blob");
        }

        // repair: one data and one parity shard blob deleted
        let x = REPAIR_OBJ;
        let lost = self.repairs[cycle % PATTERNS].clone();
        self.damage(&self.names[x], &lost);
        let mut sw = Stopwatch::new();
        let r = sw.time(|| self.cluster.repair_object(&self.names[x]));
        let repaired = r.is_ok_and(|rep| rep.repaired == lost && rep.unplaced.is_empty());
        let intact = repaired && self.shards_intact(&self.names[x], &lost);
        self.tally
            .op(intact, "repair_object (1 data + 1 parity blob deleted)");
        let repair = sw.sample();

        // scrub: every object, healthy again; collects this cycle's garbage
        let mut sw = Stopwatch::new();
        let r = sw.time(|| self.cluster.scrub());
        let ok = r.is_ok_and(|rep| rep.clean() && rep.objects.len() == OBJECTS);
        self.tally.op(ok, "scrub of a healthy cluster");
        let scrub = sw.sample();

        [write, read, read_degraded, update, repair, scrub]
    }

    fn payload_bytes(&self) -> [u64; OPS.len()] {
        let object = self.size as u64;
        let range = RANGE_BYTES.min(self.size) as u64;
        [
            object,
            object,
            object,
            range,
            object,
            object * OBJECTS as u64,
        ]
    }

    fn replay(&mut self, cycle: usize, _ops: &[Sample; OPS.len()]) -> LayerTimes {
        let codec = self
            .replay
            .get_or_insert_with(|| RsCodec::with_config(engine()).expect("RS(10,4)"));
        Replay {
            cluster: &self.cluster,
            names: &self.names,
            model: &self.model,
            repairs: &self.repairs,
            size: self.size,
            codec,
            progs: &mut self.progs,
        }
        .run(cycle)
    }

    fn stored_bytes_per_user_byte(&self) -> f64 {
        self.populated_bytes as f64 / (OBJECTS * self.size) as f64
    }

    fn finish(&mut self) {
        for i in 0..OBJECTS {
            let ok = self
                .cluster
                .get(&self.names[i])
                .is_ok_and(|b| b == self.model[i]);
            self.tally.op(ok, "object differs from the model at exit");
        }
        // The last scrub collected every superseded generation: what the
        // nodes hold is what the initial population held, give or take
        // manifest bytes.
        let now = dir_bytes(&self.node_root).expect("size of node dirs");
        let drift = now.abs_diff(self.populated_bytes) as f64 / self.populated_bytes as f64;
        self.tally
            .op(drift < 0.02, "node directories grew or shrank over the run");
    }

    fn tally(&self) -> Tally {
        self.tally
    }
}

/// The decomposed replay of one cycle's ops: the same bytes through
/// `core`, then the integrity passes (`wire`), then the blob traffic
/// (`store`) — one connection at a time, under keys of its own (`r:…`,
/// which neither the manifest listing nor the GC looks at).
///
/// `wire` counts every CRC-32 and SHA-256 pass over shard bytes on the
/// op's path, including the three CRC passes that run inside `store`
/// code (frame encode, frame decode, blob frame); `store` is the node
/// traffic minus those.
struct Replay<'a> {
    cluster: &'a Cluster,
    names: &'a [String],
    model: &'a [Vec<u8>],
    repairs: &'a [Vec<usize>],
    size: usize,
    codec: &'a RsCodec,
    progs: &'a mut ProgCache,
}

impl Replay<'_> {
    /// Self times by layer: `codec` is a whole codec call, of which `exec`
    /// ran compiled programs.
    fn layers(exec: f64, codec: f64, wire: f64, store: f64) -> [f64; LAYERS.len()] {
        let mut t = [0.0; LAYERS.len()];
        t[RUNTIME] = exec;
        t[CORE] = codec - exec;
        t[WIRE] = wire;
        t[STORE] = store;
        t
    }

    fn connect(&self, addr: &str) -> NodeClient {
        NodeClient::connect(addr, TIMEOUT).expect("connect to node")
    }

    /// The manifest election every op starts with: one read per node.
    fn election(&self, object: &str) -> f64 {
        let key = manifest_key(object);
        secs(|| {
            for addr in self.cluster.nodes() {
                let _ = std::hint::black_box(self.connect(addr).get(&key));
            }
        })
        .1
    }

    /// Fetch shards `which` of `object`, one node at a time.
    fn fetch(&self, object: &str, m: &Manifest, which: &[usize]) -> (Vec<Vec<u8>>, f64) {
        secs(|| {
            which
                .iter()
                .map(|&i| {
                    self.connect(&m.placement[i])
                        .get(&m.shard_key(object, i))
                        .expect("shard")
                })
                .collect()
        })
    }

    /// Store `shards` with their hash blobs on the nodes `m` places them
    /// on, and optionally a manifest on every node; then remove them.
    fn ship(&self, m: &Manifest, shards: &[(usize, &[u8])], manifests: bool) -> f64 {
        let trees: Vec<Vec<u8>> = shards
            .iter()
            .map(|(_, s)| HashBlob::from_shard(s, HASH_LEAF_SIZE).to_bytes())
            .collect();
        let record = m.to_bytes();
        let t = secs(|| {
            for ((i, shard), tree) in shards.iter().zip(&trees) {
                let mut node = self.connect(&m.placement[*i]);
                node.put(&format!("r:s{i}"), shard).expect("replay put");
                node.put(&format!("r:t{i}"), tree).expect("replay put");
            }
            if manifests {
                for addr in self.cluster.nodes() {
                    self.connect(addr).put("r:m", &record).expect("replay put");
                }
            }
        })
        .1;
        for (i, _) in shards {
            let mut node = self.connect(&m.placement[*i]);
            let _ = (
                node.delete(&format!("r:s{i}")),
                node.delete(&format!("r:t{i}")),
            );
        }
        if manifests {
            for addr in self.cluster.nodes() {
                let _ = self.connect(addr).delete("r:m");
            }
        }
        t
    }

    /// `crc` CRC-32 passes and `sha` Merkle builds over each shard.
    fn integrity<'s>(shards: impl IntoIterator<Item = &'s [u8]>, crc: usize, sha: usize) -> f64 {
        secs(|| {
            for shard in shards {
                for _ in 0..crc {
                    std::hint::black_box(crc32(shard));
                }
                for _ in 0..sha {
                    std::hint::black_box(
                        MerkleTree::from_payload(shard, HASH_LEAF_SIZE as usize).root(),
                    );
                }
            }
        })
        .1
    }

    fn exec(
        &mut self,
        key: String,
        stripe: &[Vec<u8>],
        lost: &[usize],
        slp: impl FnOnce(&RsCodec) -> slp::Slp,
    ) -> f64 {
        let prog = self.progs.get(key, stripe[0].len() / 8, || slp(self.codec));
        exec_stripe(prog, stripe, lost)
    }

    /// A full write of `data` as `object`: election, encode, checksum
    /// and hash 14 shards, ship them and 14 manifests.
    fn put(&mut self, object: &str, data: &[u8]) -> [f64; LAYERS.len()] {
        let m = self.cluster.manifest(object).expect("manifest");
        let (shards, encode) = secs(|| self.codec.encode(data).expect("encode"));
        let exec = self.exec("enc".into(), &shards, &[], |c| c.encode_slp().clone());
        let all: Vec<(usize, &[u8])> = shards.iter().map(Vec::as_slice).enumerate().collect();
        // client: manifest CRC + hash blob; path: frame out, frame in, blob
        let integrity = Self::integrity(shards.iter().map(Vec::as_slice), 1 + 3, 1);
        let traffic = self.election(object) + self.ship(&m, &all, true);
        let crc_inside = Self::integrity(shards.iter().map(Vec::as_slice), 3, 0);
        Self::layers(exec, encode, integrity, traffic - crc_inside)
    }

    /// A read of `object` from the shards `which` (ten of them).
    fn get(&mut self, object: &str, size: usize, which: &[usize]) -> [f64; LAYERS.len()] {
        let m = self.cluster.manifest(object).expect("manifest");
        let election = self.election(object);
        let (fetched, traffic) = self.fetch(object, &m, which);
        // path: blob, frame out, frame in; client: manifest CRC + Merkle root
        let integrity = Self::integrity(fetched.iter().map(Vec::as_slice), 3 + 1, 1);
        let crc_inside = Self::integrity(fetched.iter().map(Vec::as_slice), 3, 0);
        let mut held: Vec<Option<Vec<u8>>> = vec![None; N + P];
        for (&i, shard) in which.iter().zip(&fetched) {
            held[i] = Some(shard.clone());
        }
        let lost: Vec<usize> = (0..N).filter(|i| !which.contains(i)).collect();
        let (_, decode) = secs(|| self.codec.decode(&held, size).expect("decode"));
        let exec = if lost.is_empty() {
            0.0
        } else {
            let stripe: Vec<Vec<u8>> = held
                .iter()
                .map(|s| s.clone().unwrap_or_else(|| vec![0; fetched[0].len()]))
                .collect();
            self.exec(format!("dec{lost:?}"), &stripe, &lost, |c| {
                c.decode_slp(&lost).expect("data lost")
            })
        };
        Self::layers(exec, decode, integrity, election + traffic - crc_inside)
    }

    /// A delta overwrite that changed data shards `changed`: fetch them
    /// and the parity, patch, ship the changed shards and 14 manifests.
    fn delta(&mut self, object: &str, old: &[u8], new: &[u8]) -> [f64; LAYERS.len()] {
        let m = self.cluster.manifest(object).expect("manifest");
        let (before, after) = (self.codec.split_data(old), self.codec.split_data(new));
        let changed: Vec<usize> = (0..N).filter(|&i| before[i] != after[i]).collect();
        let touched: Vec<usize> = changed.iter().copied().chain(N..N + P).collect();
        let election = self.election(object);
        let (mut fetched, traffic_in) = self.fetch(object, &m, &touched);
        let mut parity = fetched.split_off(changed.len());
        let (_, patch) = secs(|| {
            for &i in &changed {
                let mut refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
                self.codec
                    .update_parity(i, &before[i], &after[i], &mut refs)
                    .expect("update_parity");
            }
        });
        let mut exec = 0.0;
        for &i in &changed {
            let delta = vec![after[i].clone()];
            exec += self.exec(format!("col{i}"), &delta, &[], |c| {
                c.update_slp(i).expect("data shard")
            });
        }
        let written: Vec<(usize, &[u8])> = changed
            .iter()
            .map(|&i| (i, after[i].as_slice()))
            .chain(
                parity
                    .iter()
                    .enumerate()
                    .map(|(j, s)| (N + j, s.as_slice())),
            )
            .collect();
        let traffic_out = self.ship(&m, &written, true);
        let moved = || fetched.iter().chain(&parity).map(Vec::as_slice);
        // fetched: 3 path CRCs + manifest CRC + Merkle root; written:
        // manifest CRC + hash blob + 3 path CRCs
        let integrity = Self::integrity(moved(), 8, 2);
        let crc_inside = Self::integrity(moved(), 6, 0);
        Self::layers(
            exec,
            patch,
            integrity,
            election + traffic_in + traffic_out - crc_inside,
        )
    }

    /// A repair of shards `lost`: fetch the plan's survivors, rebuild,
    /// ship the rebuilt shards.
    fn repair(&mut self, object: &str, lost: &[usize]) -> [f64; LAYERS.len()] {
        let m = self.cluster.manifest(object).expect("manifest");
        let plan = self.codec.repair_sources(lost).expect("repair plan");
        let election = self.election(object);
        let (fetched, traffic_in) = self.fetch(object, &m, &plan);
        let mut held: Vec<Option<Vec<u8>>> = vec![None; N + P];
        for (&i, shard) in plan.iter().zip(&fetched) {
            held[i] = Some(shard.clone());
        }
        let stripe: Vec<Vec<u8>> = held
            .iter()
            .map(|s| s.clone().unwrap_or_else(|| vec![0; fetched[0].len()]))
            .collect();
        let (_, rebuild) = secs(|| {
            self.codec
                .reconstruct_subset(&mut held, lost)
                .expect("reconstruct")
        });
        let exec = self.exec(format!("dec{lost:?}"), &stripe, lost, |c| {
            c.decode_slp(lost).expect("data lost")
        }) + self.exec(format!("row{}", lost[1]), &stripe, &[], |c| {
            c.partial_encode_slp(&[lost[1] - N]).expect("parity row")
        });
        let rebuilt: Vec<(usize, &[u8])> = lost
            .iter()
            .map(|&i| (i, held[i].as_deref().expect("rebuilt")))
            .collect();
        let traffic_out = self.ship(&m, &rebuilt, true);
        let moved = || {
            fetched
                .iter()
                .map(Vec::as_slice)
                .chain(rebuilt.iter().map(|(_, s)| *s))
        };
        let integrity = Self::integrity(moved(), 4, 1);
        let crc_inside = Self::integrity(moved(), 3, 0);
        Self::layers(
            exec,
            rebuild,
            integrity,
            election + traffic_in + traffic_out - crc_inside,
        )
    }

    /// The incremental scrub: per object an election, then per shard the
    /// node re-hashes its blob and reads back its hash blob; then the
    /// GC's listings and a second election per object. Replayed over
    /// half of the objects (they are all alike) and scaled, so that a
    /// traced cycle stays short.
    fn scrub(&mut self, cycle: usize) -> [f64; LAYERS.len()] {
        const SHARE: usize = 2;
        let first = (cycle % SHARE) * (OBJECTS / SHARE);
        let mut traffic = 0.0;
        let mut hashed = 0.0;
        for idx in first..first + OBJECTS / SHARE {
            let object = &self.names[idx];
            let m = self.cluster.manifest(object).expect("manifest");
            let leaves = m.shard_len.div_ceil(u64::from(HASH_LEAF_SIZE)).max(1);
            let top = MerkleTree::level_widths(leaves).len() as u8 - 1;
            traffic += 2.0 * self.election(object);
            traffic += secs(|| {
                for i in 0..N + P {
                    let mut node = self.connect(&m.placement[i]);
                    let tkey = tree_key(object, i, m.shard_gen[i]);
                    node.hash_subtree(&m.shard_key(object, i), HASH_LEAF_SIZE, false, top, 0, 1)
                        .expect("computed root");
                    node.hash_subtree(&tkey, HASH_LEAF_SIZE, true, top, 0, 1)
                        .expect("stored root");
                }
            })
            .1;
            // what the nodes computed: blob CRC and Merkle tree per shard
            let shards = self.codec.encode(&self.model[idx]).expect("encode");
            hashed += Self::integrity(shards.iter().map(Vec::as_slice), 1, 1);
        }
        let listings = secs(|| {
            for addr in self.cluster.nodes() {
                let mut node = self.connect(addr);
                let _ = std::hint::black_box((node.list_aged("s:"), node.list_aged("t:")));
            }
        })
        .1;
        let scale = SHARE as f64;
        Self::layers(
            0.0,
            0.0,
            hashed * scale,
            (traffic - hashed) * scale + listings,
        )
    }

    fn run(&mut self, cycle: usize) -> LayerTimes {
        let (wi, ui) = (WRITE_OBJ, UPDATE_OBJ);
        let (w_name, u_name) = (&self.names[wi], &self.names[ui]);
        let (w_data, u_data) = (&self.model[wi], &self.model[ui]);
        let size = self.size;
        let healthy: Vec<usize> = (0..N).collect();
        let degraded: Vec<usize> = (2..N + 2).collect();
        let mut t = [[0.0; LAYERS.len()]; OPS.len()];
        t[0] = self.put(w_name, w_data);
        t[1] = self.get(
            if cycle.is_multiple_of(2) {
                w_name
            } else {
                u_name
            },
            size,
            &healthy,
        );
        t[2] = self.get(&self.names[DEGRADED_OBJ], size, &degraded);
        t[3] = if RANGE_BYTES < size {
            // Replay the same shape of change on the current bytes.
            let mut changed = u_data.clone();
            let at = (cycle % (size / RANGE_BYTES)) * RANGE_BYTES;
            changed[at..at + RANGE_BYTES]
                .iter_mut()
                .for_each(|b| *b ^= 0xA5);
            self.delta(u_name, u_data, &changed)
        } else {
            self.put(u_name, u_data)
        };
        t[4] = self.repair(&self.names[REPAIR_OBJ], &self.repairs[cycle % PATTERNS]);
        t[5] = self.scrub(cycle);
        t
    }
}
