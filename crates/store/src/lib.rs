//! `ec-store` — a networked erasure-coded object store on top of the
//! `ec-core` codec: the HDFS-style deployment the paper's introduction
//! motivates, where the SLP-optimized codec is fast enough that the
//! *system around it* is what needs engineering.
//!
//! The pieces:
//!
//! * **shard node** ([`NodeHandle`]): a directory-backed blob store
//!   served over a length-prefixed, CRC-framed binary protocol on plain
//!   `std::net` TCP (`docs/STORE.md`) — a few identical `poll(2)`
//!   serving loops, hostile-input hardened, blobs stored as CRC-trailed
//!   frames so bit-rot is attributable per shard;
//! * **cluster client** ([`Cluster`]): deterministic rendezvous
//!   placement with replicated shard-map [`Manifest`]s, striped `put`
//!   through any registered [`ec_core::ErasureCoder`] (the manifest
//!   records the codec; mismatches are typed errors, never garbage
//!   decodes), **data-first reads** (`get` fetches the `n` data shards
//!   and sends a parity fetch only as the backup the codec's repair
//!   plan names for a failed or straggling one; degraded reads
//!   reconstruct through the codec's program table), delta `overwrite`
//!   (changed shards + per-column parity updates, not a full re-put),
//!   and online batch
//!   `repair_nodes` — any number of simultaneously-dead nodes rebuilt
//!   with one survivor fetch + one reconstruct per object, fetching
//!   only the codec's repair plan when it applies (under LRC a single
//!   lost shard reads just its locality group). Every multi-node
//!   exchange fans out concurrently over pipelined request-id framed
//!   connections, so operations cost ~max(per-node RTT), not the sum,
//!   and an optional per-op deadline surfaces as a typed timeout;
//! * **node client** ([`NodeClient`]): one node's blobs, one request per
//!   call — each call a one-job round of the same non-blocking loop the
//!   cluster's rounds run on, over a connection kept between calls;
//! * **integrity** ([`Manifest`] + [`HashBlob`]): every object
//!   carries per-shard SHA-256 Merkle roots and an object root in its
//!   manifest, with the leaf hashes cached beside each shard as a `t:`
//!   blob — so scrub verifies a healthy object by comparing 32-byte
//!   roots (zero payload bytes moved) and descends the tree over the
//!   `HASH_SUBTREE` opcode to name the exact damaged 64 KiB leaves,
//!   catching even CRC-colliding tampering end-to-end;
//! * **scrub** ([`Cluster::scrub`], [`Cluster::scrub_and_repair`]):
//!   end-to-end verification — per-shard manifest CRCs plus Merkle-root
//!   comparison (full data↔parity re-encode on demand) — and repair of
//!   what it finds, each rebuilt shard proven against its manifest root
//!   before it is published (`xorslp-store scrub --repair`);
//! * the `xorslp-store` CLI wiring `serve` / `put` / `get` / `overwrite`
//!   / `delete` / `list` / `health` / `repair` / `scrub`.
//!
//! ```
//! use ec_core::RsConfig;
//! use ec_store::{Cluster, NodeHandle};
//! use std::time::Duration;
//!
//! // Three in-process loopback nodes (dir-backed, ephemeral ports).
//! let dir = std::env::temp_dir().join(format!("ec_store_doctest_{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut nodes: Vec<NodeHandle> = (0..3)
//!     .map(|i| NodeHandle::spawn(&dir.join(format!("node{i}")), "127.0.0.1:0", 2).unwrap())
//!     .collect();
//! let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
//!
//! // RS(2, 1): any single node may die.
//! let cluster = Cluster::new(addrs, RsConfig::new(2, 1))
//!     .unwrap()
//!     .with_timeout(Duration::from_secs(2));
//! let payload: Vec<u8> = (0..100_000u32).map(|i| (i * 7) as u8).collect();
//! cluster.put("demo", &payload).unwrap();
//!
//! // Kill one node: reads degrade transparently.
//! nodes.remove(0).shutdown();
//! assert_eq!(cluster.get("demo").unwrap(), payload);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

mod blob;
mod client;
mod cluster;
mod error;
mod fanout;
mod manifest;
mod node;
mod placement;
pub mod proto;
mod sys;
mod tree;

pub use blob::{BlobError, BlobStat, BlobStore, BLOB_MAGIC, BLOB_OVERHEAD};
pub use client::{NodeClient, NodeHealth};
pub use cluster::{
    Cluster, ClusterHealth, ClusterScrubReport, FailPoint, GetReport, NodeRepairReport,
    ObjectRepairReport, ObjectScrub, OverwriteMode, OverwriteReport, PutReport, RepairOutcome,
    ShardFetch, ShardHealth, ShardOutcome, DEFAULT_GC_GRACE, DEFAULT_TIMEOUT,
};
pub use error::{RemoteErrorCode, StoreError};
pub use manifest::{
    manifest_key, parse_record, parse_shard_key, shard_key, tombstone_bytes, Manifest,
    ManifestRecord, MANIFEST_MAGIC, MANIFEST_VERSION, MAX_OBJECT_NAME, TOMBSTONE_MAGIC,
};
pub use node::{NodeHandle, NodeOptions};
pub use placement::{rank_nodes, score};
pub use tree::{parse_tree_key, tree_key, HashBlob, HASH_BLOB_VERSION, HASH_LEAF_SIZE, HASH_MAGIC};
