//! The shard-map manifest: where an object's shards live and what bytes
//! they must contain.
//!
//! A manifest is written at `put` time and replicated to every cluster
//! node under key `m:<object>`; each shard lives under a
//! generation-qualified key `s:<idx>g<gen>:<object>` on the node the
//! manifest names. The per-shard CRC-32s and SHA-256 Merkle roots
//! recorded here are the *end-to-end* ground truth for reads and scrub:
//! a shard whose blob frame is internally consistent but whose content
//! no longer matches the manifest is attributably damaged (rewritten or
//! rotted before its frame CRC was computed), which is what lets scrub
//! name the lying shard instead of only proving "data and parity
//! disagree".
//!
//! Generation-qualified keys are what make the write path crash-atomic:
//! a re-put writes its shards under *new* keys beside the live
//! generation and publishes by swinging the manifest, so no published
//! byte is ever mutated in place; superseded and crash-orphaned
//! generations are collected later by the scrub-time GC
//! (`docs/STORE.md` §GC).

use crate::error::StoreError;
use crate::proto::{put_str, PayloadReader, MAX_KEY};
use ec_core::{CodecSpec, EcError};
use ec_wire::crc32;
use ec_wire::merkle::{root_over_roots, Hash};

/// Magic prefix of the serialized manifest.
pub const MANIFEST_MAGIC: [u8; 8] = *b"XSLPECM1";

/// The one manifest/tombstone serialization version this build writes
/// and reads. The version byte exists so that the *next* change to the
/// record is refused, typed, by this build — not so that older records
/// stay readable (`docs/STORE.md`, "Compatibility policy").
pub const MANIFEST_VERSION: u8 = 4;

/// Upper bound on one node address string in a manifest.
pub const MAX_ADDR: usize = 256;

/// Upper bound on an object name: the generation-qualified shard key
/// `s:NNNg<16 hex>:<object>` must fit the protocol's key cap.
pub const MAX_OBJECT_NAME: usize = MAX_KEY - 23;

/// Key of an object's manifest blob.
pub fn manifest_key(object: &str) -> String {
    format!("m:{object}")
}

/// Key of shard `index` of an object at write `generation`: the
/// generation is embedded as 16 hex digits so that concurrent
/// generations of the same shard coexist on one node. The fixed-width
/// prefix ends before the object name (which may itself contain `:`)
/// begins.
pub fn shard_key(object: &str, index: usize, generation: u64) -> String {
    format!("s:{index:03}g{generation:016x}:{object}")
}

/// Decompose a shard key into `(object, index, generation)` — the GC's
/// inverse of [`shard_key`]. `None` for keys that are not shard keys
/// (callers list with prefix `s:` but must not trip over foreign keys).
pub fn parse_shard_key(key: &str) -> Option<(&str, usize, u64)> {
    parse_prefixed_key(key, "s:")
}

/// The shared grammar behind [`parse_shard_key`] and
/// [`crate::tree::parse_tree_key`]: `<prefix><iii>g<16 hex>:<object>`.
pub(crate) fn parse_prefixed_key<'a>(key: &'a str, prefix: &str) -> Option<(&'a str, usize, u64)> {
    let rest = key.strip_prefix(prefix)?;
    let (idx_digits, rest) = rest.split_at_checked(3)?;
    let index = idx_digits.parse::<usize>().ok()?;
    let rest = rest.strip_prefix('g')?;
    let (gen_digits, rest) = rest.split_at_checked(16)?;
    let generation = u64::from_str_radix(gen_digits, 16).ok()?;
    let object = rest.strip_prefix(':')?;
    Some((object, index, generation))
}

/// Validate a caller-supplied object name against the key grammar.
pub fn validate_object_name(object: &str) -> Result<(), StoreError> {
    if object.is_empty() {
        return Err(StoreError::InvalidArg(
            "object name must not be empty".into(),
        ));
    }
    if object.len() > MAX_OBJECT_NAME {
        return Err(StoreError::InvalidArg(format!(
            "object name of {} bytes exceeds the cap of {MAX_OBJECT_NAME}",
            object.len()
        )));
    }
    Ok(())
}

/// Magic prefix of a serialized tombstone: a deleted object's grave
/// marker, stored under the object's manifest key. Deleting the `m:`
/// blobs outright would let a node that slept through the delete
/// resurrect the object with its surviving replica; a tombstone instead
/// *outvotes* stale manifests in the generation election.
pub const TOMBSTONE_MAGIC: [u8; 8] = *b"XSLPECT1";

/// A stored manifest-key record: a live shard map or a tombstone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ManifestRecord {
    Live(Manifest),
    Tombstone { generation: u64 },
}

/// Serialize a tombstone at `generation`
/// (`magic ‖ version ‖ u64 generation ‖ crc32`).
pub fn tombstone_bytes(generation: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(TOMBSTONE_MAGIC.len() + 13);
    out.extend_from_slice(&TOMBSTONE_MAGIC);
    out.push(MANIFEST_VERSION);
    out.extend_from_slice(&generation.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parse either record form stored under a manifest key.
pub fn parse_record(bytes: &[u8]) -> Result<ManifestRecord, StoreError> {
    if !bytes.starts_with(&TOMBSTONE_MAGIC) {
        return Manifest::from_bytes(bytes).map(ManifestRecord::Live);
    }
    let expect = TOMBSTONE_MAGIC.len() + 1 + 8 + 4;
    if bytes.len() != expect {
        return Err(StoreError::Manifest(format!(
            "tombstone of {} bytes, expected {expect}",
            bytes.len()
        )));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    if u32::from_le_bytes(trailer.try_into().expect("fixed slice")) != crc32(body) {
        return Err(StoreError::Manifest("tombstone checksum mismatch".into()));
    }
    let version = body[TOMBSTONE_MAGIC.len()];
    if version != MANIFEST_VERSION {
        return Err(StoreError::Manifest(format!(
            "unsupported tombstone version {version} (this build reads {MANIFEST_VERSION})"
        )));
    }
    let generation = u64::from_le_bytes(
        body[TOMBSTONE_MAGIC.len() + 1..]
            .try_into()
            .expect("fixed slice"),
    );
    Ok(ManifestRecord::Tombstone { generation })
}

/// One object's shard map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Data shards `n` of the code the object was encoded with.
    pub data_shards: u16,
    /// Parity shards `p`.
    pub parity_shards: u16,
    /// Wire identifier of the codec family ([`ec_core::CodecId::wire`]).
    pub codec_id: u16,
    /// LRC locality-group size `r`; `0` for every other family.
    pub group_size: u16,
    /// Monotonic write generation: every `put`, delta `overwrite` and
    /// node repair bumps it, and readers prefer the highest-generation
    /// replica — a node that slept through a write serves a *stale*
    /// manifest, and without this counter stale and current replicas
    /// are indistinguishable.
    pub generation: u64,
    /// Exact byte length of the object.
    pub object_len: u64,
    /// Byte length of every shard (packet-aligned; zero for an empty
    /// object).
    pub shard_len: u64,
    /// `placement[i]` is the address of the node holding shard `i`
    /// (`0..n` data, `n..n+p` parity).
    pub placement: Vec<String>,
    /// `shard_crc[i]` is the CRC-32 of shard `i`'s exact bytes.
    pub shard_crc: Vec<u32>,
    /// `shard_gen[i]` is the write generation embedded in shard `i`'s
    /// key ([`shard_key`]). Per-shard rather than manifest-wide so a
    /// delta overwrite can publish changed shards under the new
    /// generation while unchanged data shards keep their existing
    /// immutable keys.
    pub shard_gen: Vec<u64>,
    /// Leaf granularity of the Merkle fields below (never zero in a
    /// parsed record).
    pub hash_leaf_size: u32,
    /// `shard_root[i]` is the SHA-256 Merkle root of shard `i`'s exact
    /// bytes at [`Manifest::hash_leaf_size`] leaves — the end-to-end
    /// ground truth that, unlike [`Manifest::shard_crc`], cannot be
    /// forged by a CRC-preserving flip.
    pub shard_root: Vec<Hash>,
    /// Merkle root over [`Manifest::shard_root`]
    /// ([`ec_wire::merkle::root_over_roots`]) — one 32-byte commitment
    /// to the whole object.
    pub object_root: Hash,
}

impl Manifest {
    /// Total shards `n + p`.
    pub fn total_shards(&self) -> usize {
        self.data_shards as usize + self.parity_shards as usize
    }

    /// Key of shard `index` as this manifest references it: the
    /// placement address plus this key is the complete, immutable
    /// location of the shard's bytes.
    pub fn shard_key(&self, object: &str, index: usize) -> String {
        shard_key(object, index, self.shard_gen[index])
    }

    /// The codec spec the object was encoded under, validated: an
    /// unknown wire id or an unrealizable geometry is a typed
    /// [`EcError`], never a garbage decode.
    pub fn codec_spec(&self) -> Result<CodecSpec, EcError> {
        CodecSpec::from_wire(
            self.codec_id,
            self.group_size,
            self.data_shards as usize,
            self.parity_shards as usize,
        )
    }

    /// Serialize to the wire/blob form (little-endian fields, trailing
    /// CRC-32 over everything before it).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.placement.len() * 64);
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.push(MANIFEST_VERSION);
        out.extend_from_slice(&self.data_shards.to_le_bytes());
        out.extend_from_slice(&self.parity_shards.to_le_bytes());
        out.extend_from_slice(&self.codec_id.to_le_bytes());
        out.extend_from_slice(&self.group_size.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.object_len.to_le_bytes());
        out.extend_from_slice(&self.shard_len.to_le_bytes());
        out.extend_from_slice(&self.hash_leaf_size.to_le_bytes());
        for (i, (addr, crc)) in self.placement.iter().zip(&self.shard_crc).enumerate() {
            put_str(&mut out, addr);
            out.extend_from_slice(&crc.to_le_bytes());
            out.extend_from_slice(&self.shard_gen[i].to_le_bytes());
            out.extend_from_slice(&self.shard_root[i]);
        }
        out.extend_from_slice(&self.object_root);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse and validate the wire/blob form.
    pub fn from_bytes(bytes: &[u8]) -> Result<Manifest, StoreError> {
        let bad = |msg: String| StoreError::Manifest(msg);
        if bytes.len() < MANIFEST_MAGIC.len() + 4 {
            return Err(bad("manifest too short".into()));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("fixed slice"));
        if stored != crc32(body) {
            return Err(bad("manifest checksum mismatch".into()));
        }
        let mut r = PayloadReader::new(body);
        let parse = |r: &mut PayloadReader| -> Result<Manifest, String> {
            let mut magic = [0u8; 8];
            for b in &mut magic {
                *b = r.u8()?;
            }
            if magic != MANIFEST_MAGIC {
                return Err("bad manifest magic".into());
            }
            let version = r.u8()?;
            if version != MANIFEST_VERSION {
                return Err(format!(
                    "unsupported manifest version {version} (this build reads \
                     {MANIFEST_VERSION})"
                ));
            }
            let data_shards = r.u16()?;
            let parity_shards = r.u16()?;
            let codec_id = r.u16()?;
            let group_size = r.u16()?;
            let generation = r.u64()?;
            let object_len = r.u64()?;
            let shard_len = r.u64()?;
            let hash_leaf_size = r.u32()?;
            if hash_leaf_size == 0 {
                return Err("manifest with zero hash leaf size".into());
            }
            let total = data_shards as usize + parity_shards as usize;
            if data_shards == 0 || parity_shards == 0 || total > 255 {
                return Err(format!("invalid geometry ({data_shards}, {parity_shards})"));
            }
            if shard_len
                .checked_mul(data_shards as u64)
                .is_none_or(|c| c < object_len)
            {
                return Err(format!(
                    "{data_shards} shards of {shard_len} bytes cannot hold a \
                     {object_len}-byte object"
                ));
            }
            let mut placement = Vec::with_capacity(total);
            let mut shard_crc = Vec::with_capacity(total);
            let mut shard_gen = Vec::with_capacity(total);
            let mut shard_root = Vec::with_capacity(total);
            for _ in 0..total {
                placement.push(r.str_bounded(MAX_ADDR, "node address")?.to_string());
                shard_crc.push(r.u32()?);
                shard_gen.push(r.u64()?);
                shard_root.push(r.array()?);
            }
            let object_root = r.array()?;
            Ok(Manifest {
                data_shards,
                parity_shards,
                codec_id,
                group_size,
                generation,
                object_len,
                shard_len,
                placement,
                shard_crc,
                shard_gen,
                hash_leaf_size,
                shard_root,
                object_root,
            })
        };
        let manifest = parse(&mut r).map_err(bad)?;
        r.finish().map_err(bad)?;
        // Typed rejection: unknown codec ids / unrealizable family
        // geometry surface as `StoreError::Codec`, and the shard-length
        // alignment check uses the codec's own alignment (8 for the
        // GF(2^8) codecs, `w` for the array codes).
        let spec = manifest.codec_spec().map_err(StoreError::Codec)?;
        let align = spec.shard_alignment().map_err(StoreError::Codec)? as u64;
        if manifest.shard_len % align != 0 {
            return Err(bad(format!(
                "shard length {} is not {align}-aligned for codec {}",
                manifest.shard_len,
                spec.name()
            )));
        }
        // The object root is *derived* from the shard roots; a record
        // where the two disagree was corrupted in a CRC-colliding way or
        // hand-forged, and trusting either half would let scrub and get
        // validate against different ground truths.
        if manifest.object_root != root_over_roots(&manifest.shard_root) {
            return Err(bad("object root does not commit to the shard roots".into()));
        }
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_core::CodecId;
    use ec_wire::SHA256_LEN;

    fn sample() -> Manifest {
        let shard_root: Vec<Hash> = (0..6u8)
            .map(|i| ec_wire::merkle::leaf_hash(&[i; 16]))
            .collect();
        Manifest {
            data_shards: 4,
            parity_shards: 2,
            codec_id: CodecId::Rs.wire(),
            group_size: 0,
            generation: 3,
            object_len: 1000,
            shard_len: 256,
            placement: (0..6).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect(),
            shard_crc: (0..6).map(|i| 0xDEAD_0000 + i).collect(),
            shard_gen: vec![3, 3, 1, 3, 3, 3],
            hash_leaf_size: 65536,
            object_root: root_over_roots(&shard_root),
            shard_root,
        }
    }

    #[test]
    fn roundtrips() {
        let m = sample();
        assert_eq!(Manifest::from_bytes(&m.to_bytes()).unwrap(), m);
        assert_eq!(m.to_bytes()[MANIFEST_MAGIC.len()], MANIFEST_VERSION);
    }

    #[test]
    fn forged_hash_fields_rejected() {
        // A manifest whose object root does not commit to its shard
        // roots must be refused even though its CRC is self-consistent.
        let mut m = sample();
        m.shard_root[2][0] ^= 0x01;
        assert!(matches!(
            Manifest::from_bytes(&m.to_bytes()),
            Err(StoreError::Manifest(_))
        ));
        m = sample();
        m.object_root[31] ^= 0x80;
        assert!(Manifest::from_bytes(&m.to_bytes()).is_err());
    }

    #[test]
    fn empty_object_roundtrips() {
        let m = Manifest {
            object_len: 0,
            shard_len: 0,
            ..sample()
        };
        assert_eq!(Manifest::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                Manifest::from_bytes(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn hostile_magnitudes_rejected() {
        // CRC-valid but geometrically absurd manifests must fail the
        // magnitude checks, not demand giant buffers downstream.
        let absurd = Manifest {
            data_shards: 200,
            parity_shards: 200,
            ..sample()
        };
        assert!(matches!(
            Manifest::from_bytes(&absurd.to_bytes()),
            Err(StoreError::Manifest(_))
        ));
        let cannot_hold = Manifest {
            object_len: u64::MAX,
            shard_len: 8,
            ..sample()
        };
        assert!(Manifest::from_bytes(&cannot_hold.to_bytes()).is_err());
        let unaligned = Manifest {
            shard_len: 12,
            ..sample()
        };
        assert!(Manifest::from_bytes(&unaligned.to_bytes()).is_err());
        let zero_parity = Manifest {
            parity_shards: 0,
            shard_crc: vec![0; 4],
            shard_gen: vec![1; 4],
            placement: sample().placement[..4].to_vec(),
            ..sample()
        };
        assert!(Manifest::from_bytes(&zero_parity.to_bytes()).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(Manifest::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    /// A manifest as the writer of `version` (1, 2 or 3) laid it out,
    /// CRC and all: version 1 had no codec fields, versions 1–2 no
    /// per-shard generations, versions 1–3 no Merkle fields.
    fn retired_manifest(m: &Manifest, version: u8) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.push(version);
        out.extend_from_slice(&m.data_shards.to_le_bytes());
        out.extend_from_slice(&m.parity_shards.to_le_bytes());
        if version >= 2 {
            out.extend_from_slice(&m.codec_id.to_le_bytes());
            out.extend_from_slice(&m.group_size.to_le_bytes());
        }
        out.extend_from_slice(&m.generation.to_le_bytes());
        out.extend_from_slice(&m.object_len.to_le_bytes());
        out.extend_from_slice(&m.shard_len.to_le_bytes());
        for (i, (addr, crc)) in m.placement.iter().zip(&m.shard_crc).enumerate() {
            put_str(&mut out, addr);
            out.extend_from_slice(&crc.to_le_bytes());
            if version >= 3 {
                out.extend_from_slice(&m.shard_gen[i].to_le_bytes());
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn retired_versions_are_refused_by_name() {
        // Well-formed, CRC-valid records of every version this format
        // ever had: each is refused whole, with the version found and
        // the one read in the message — through both entry points.
        let refusal = |bytes: &[u8]| match parse_record(bytes) {
            Err(StoreError::Manifest(msg)) => msg,
            other => panic!("not refused as a manifest error: {other:?}"),
        };
        for version in [1u8, 2, 3] {
            let bytes = retired_manifest(&sample(), version);
            assert_eq!(
                refusal(&bytes),
                format!("unsupported manifest version {version} (this build reads 4)")
            );
            assert!(Manifest::from_bytes(&bytes).is_err());

            let mut tomb = tombstone_bytes(42);
            tomb[TOMBSTONE_MAGIC.len()] = version;
            let at = tomb.len() - 4;
            let crc = crc32(&tomb[..at]);
            tomb[at..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                refusal(&tomb),
                format!("unsupported tombstone version {version} (this build reads 4)")
            );
        }
        // And the one way a version-4 record could still claim to be
        // rootless: a zero leaf size.
        let rootless = Manifest {
            hash_leaf_size: 0,
            ..sample()
        };
        assert_eq!(
            refusal(&rootless.to_bytes()),
            "manifest with zero hash leaf size"
        );
    }

    #[test]
    fn tombstones_roundtrip_and_reject_damage() {
        let bytes = tombstone_bytes(42);
        assert_eq!(
            parse_record(&bytes).unwrap(),
            ManifestRecord::Tombstone { generation: 42 }
        );
        // A live manifest parses as Live through the same entry point.
        assert_eq!(
            parse_record(&sample().to_bytes()).unwrap(),
            ManifestRecord::Live(sample())
        );
        // Any bit flip or truncation is detected.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x04;
            assert!(parse_record(&bad).is_err(), "flip at byte {i}");
        }
        for cut in 8..bytes.len() {
            assert!(parse_record(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn codec_spec_travels_in_the_manifest() {
        let m = Manifest {
            codec_id: CodecId::Lrc.wire(),
            group_size: 2,
            parity_shards: 3,
            placement: (0..7).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect(),
            shard_crc: (0..7).map(|i| 0xBEEF_0000 + i).collect(),
            shard_gen: vec![3; 7],
            shard_root: vec![[0u8; SHA256_LEN]; 7],
            object_root: root_over_roots(&[[0u8; SHA256_LEN]; 7]),
            ..sample()
        };
        let parsed = Manifest::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.codec_spec().unwrap(), CodecSpec::lrc(4, 3, 2));
    }

    #[test]
    fn unknown_codec_id_is_typed() {
        let m = Manifest {
            codec_id: 999,
            ..sample()
        };
        assert!(matches!(
            Manifest::from_bytes(&m.to_bytes()),
            Err(StoreError::Codec(EcError::UnknownCodec(_)))
        ));
        // Known id, impossible family geometry (evenodd wants p = 2...
        // here it gets group_size it cannot take).
        let m = Manifest {
            codec_id: CodecId::EvenOdd.wire(),
            group_size: 3,
            ..sample()
        };
        assert!(matches!(
            Manifest::from_bytes(&m.to_bytes()),
            Err(StoreError::Codec(EcError::InvalidParams(_)))
        ));
    }

    #[test]
    fn keys_and_names() {
        assert_eq!(manifest_key("obj"), "m:obj");
        assert_eq!(shard_key("obj", 7, 0), "s:007g0000000000000000:obj");
        assert_eq!(shard_key("obj", 7, 0x2a), "s:007g000000000000002a:obj");
        validate_object_name("obj").unwrap();
        assert!(validate_object_name("").is_err());
        assert!(validate_object_name(&"x".repeat(MAX_OBJECT_NAME + 1)).is_err());
        validate_object_name(&"x".repeat(MAX_OBJECT_NAME)).unwrap();
        // The longest legal key fits the protocol cap.
        assert!(shard_key(&"x".repeat(MAX_OBJECT_NAME), 255, u64::MAX).len() <= MAX_KEY);
    }

    #[test]
    fn shard_keys_parse_back() {
        for gen in [0u64, 1, 42, u64::MAX] {
            let key = shard_key("a:b/c", 17, gen);
            assert_eq!(parse_shard_key(&key), Some(("a:b/c", 17, gen)));
        }
        // Foreign or mangled keys are refused, not misparsed.
        for bad in [
            "m:obj",
            "s:",
            "s:01",
            "s:007",
            "s:007obj",
            "s:007:obj",
            "s:007g123:obj",
            "s:007g00000000000000zz:obj",
            "s:007g0000000000000001obj",
        ] {
            assert_eq!(parse_shard_key(bad), None, "{bad}");
        }
        // The manifest-side accessor agrees with the free function.
        let m = sample();
        assert_eq!(m.shard_key("obj", 2), "s:002g0000000000000001:obj");
        assert_eq!(m.shard_key("obj", 0), "s:000g0000000000000003:obj");
    }
}
