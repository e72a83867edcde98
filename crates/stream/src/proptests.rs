//! Property tests: the streaming path is byte-equivalent to the one-shot
//! codec across chunk sizes, data lengths, erasure patterns, per-frame
//! damage — and every registered codec family.

use crate::format::FRAME_TRAILER_LEN;
use crate::{StreamDecoder, StreamEncoder, StreamError, HEADER_LEN};
use ec_core::{codec_for, CodecSpec, ErasureCoder};
use ec_wire::crc_preserving_flip;
use ec_wire::merkle::leaf_hash;
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::OnceLock;

/// One codec per registered family, geometry small enough that the
/// proptest stays fast; compiled once.
fn codecs() -> &'static [Box<dyn ErasureCoder>] {
    static CODECS: OnceLock<Vec<Box<dyn ErasureCoder>>> = OnceLock::new();
    CODECS.get_or_init(|| {
        [
            CodecSpec::rs(3, 2),
            CodecSpec::parse("evenodd", 3, 2).unwrap(),
            CodecSpec::parse("rdp", 3, 2).unwrap(),
            CodecSpec::lrc(4, 3, 2),
        ]
        .iter()
        .map(|s| codec_for(s).unwrap())
        .collect()
    })
}

/// Chunk sizes crossing every boundary: smaller than a packet row, not a
/// multiple of `8 × n`, exactly aligned, and larger than most inputs
/// (tail-smaller-than-chunk).
const CHUNKS: [usize; 6] = [1, 7, 24, 333, 1024, 4096];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streaming_roundtrip_equals_oneshot(
        codec_sel in 0usize..4,
        data in proptest::collection::vec(any::<u8>(), 0..3000),
        chunk_sel in 0usize..CHUNKS.len(),
        lost_seed in proptest::collection::hash_set(0usize..7, 0..=2),
        // (chunk, shard, CRC-preserving?, offset) of each damaged frame.
        damage in proptest::collection::vec(
            (any::<u64>(), 0usize..7, any::<bool>(), any::<usize>()),
            0..=3,
        ),
        trusted_mask in any::<u8>(),
    ) {
        let codec = &*codecs()[codec_sel];
        let t = codec.total_shards();
        let chunk = CHUNKS[chunk_sel];

        // Keep only losses the codec can tolerate: a pattern is
        // decodable iff it has a repair plan (LRC is not MDS, so some
        // ≤ p sets are out).
        let lost: Vec<usize> = {
            let mut l: Vec<usize> = lost_seed.iter().map(|&i| i % t).collect();
            l.sort_unstable();
            l.dedup();
            if codec.repair_sources(&l).is_ok() { l } else { Vec::new() }
        };

        let sinks: Vec<Cursor<Vec<u8>>> = (0..t).map(|_| Cursor::new(Vec::new())).collect();
        let mut enc = StreamEncoder::new(codec, chunk, sinks).unwrap();
        enc.write_all(&data).unwrap();
        let (meta, sinks) = enc.finalize().unwrap();
        let files: Vec<Vec<u8>> = sinks.into_iter().map(Cursor::into_inner).collect();

        prop_assert_eq!(meta.codec_spec().unwrap(), codec.spec());
        prop_assert_eq!(meta.original_len, data.len() as u64);
        prop_assert_eq!(meta.chunk_count, (data.len() as u64).div_ceil(chunk as u64));
        for f in &files {
            prop_assert_eq!(f.len() as u64, meta.shard_file_len());
        }

        // Chunk-by-chunk: the frames are exactly the one-shot encode of
        // that chunk's data (so streaming ≡ one-shot, not merely
        // "roundtrips somehow").
        let mut offset = HEADER_LEN;
        for c in 0..meta.chunk_count {
            let lo = c as usize * chunk;
            let hi = (lo + chunk).min(data.len());
            let expect = codec.encode(&data[lo..hi]).unwrap();
            let slen = meta.slice_len(c);
            for (i, f) in files.iter().enumerate() {
                prop_assert_eq!(
                    &f[offset..offset + slen],
                    &expect[i][..],
                    "chunk {} shard {}",
                    c,
                    i
                );
            }
            offset += slen + 4;
        }

        // Damage single frames of random chunks: a bit flip the CRC
        // catches, or — on a shard with trusted leaves, the only place it
        // is detectable — a CRC-preserving flip only the leaf catches.
        let trusted = |i: usize| trusted_mask >> i & 1 == 1;
        let payload_at = |c: u64| HEADER_LEN + c as usize * (meta.slice_len(0) + FRAME_TRAILER_LEN);
        let leaves: Vec<Vec<_>> = files
            .iter()
            .map(|f| {
                (0..meta.chunk_count)
                    .map(|c| leaf_hash(&f[payload_at(c)..][..meta.slice_len(c)]))
                    .collect()
            })
            .collect();
        let mut files = files;
        let mut bad: Vec<Vec<usize>> = vec![lost.clone(); meta.chunk_count as usize];
        for &(chunk_seed, shard_seed, forge, offset) in &damage {
            if meta.chunk_count == 0 {
                break;
            }
            let (c, i) = (chunk_seed % meta.chunk_count, shard_seed % t);
            if bad[c as usize].contains(&i) {
                continue; // a second flip could undo the first
            }
            let (at, slen) = (payload_at(c), meta.slice_len(c));
            if forge && trusted(i) && slen >= 5 {
                crc_preserving_flip(&mut files[i], at + offset % (slen - 4));
            } else {
                files[i][at + offset % slen] ^= 1 << (offset % 8);
            }
            bad[c as usize].push(i);
        }

        // The outcome the chunks' damage calls for: byte-exact output, or
        // the first chunk whose lost data cannot be rebuilt — typed
        // `TooDamaged` over all of its missing or failed frames when they
        // outnumber the parity (an LRC pattern within `p` that is not
        // decodable is a codec error).
        let p = codec.parity_shards();
        let n = codec.data_shards();
        let fatal = bad.iter_mut().enumerate().find_map(|(c, b)| {
            b.sort_unstable();
            let decodable = b.iter().all(|&i| i >= n) || codec.repair_sources(b).is_ok();
            (!decodable).then_some((c as u64, b.len()))
        });

        let sources: Vec<Option<Cursor<Vec<u8>>>> = files
            .iter()
            .enumerate()
            .map(|(i, f)| {
                (!lost.contains(&i)).then(|| {
                    let mut cur = Cursor::new(f.clone());
                    cur.set_position(HEADER_LEN as u64);
                    cur
                })
            })
            .collect();
        let mut dec = StreamDecoder::new(codec, meta, sources).unwrap();
        for (i, leaves) in leaves.into_iter().enumerate() {
            if trusted(i) {
                dec.set_trusted_leaves(i, leaves);
            }
        }
        let mut out = Vec::new();
        match (dec.pump(&mut out), fatal) {
            (Ok(_), None) => prop_assert_eq!(out, data),
            (Err(StreamError::TooDamaged { chunk, missing, parity }), Some((c, m))) if m > p => {
                prop_assert_eq!((chunk, missing, parity), (c, m, p));
            }
            (Err(StreamError::Codec(_)), Some((_, m))) if m <= p => {}
            (result, fatal) => panic!("{result:?} where the damage calls for {fatal:?}"),
        }
    }
}

/// A chunk whose plan and every other parity frame are gone reports the
/// damage of all its frames, not only the ones the plan got to read.
#[test]
fn an_exhausted_plan_reports_the_whole_chunk() {
    let codec = codec_for(&CodecSpec::rs(4, 2)).unwrap();
    let data: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
    let sinks: Vec<Cursor<Vec<u8>>> = (0..6).map(|_| Cursor::new(Vec::new())).collect();
    let mut enc = StreamEncoder::new(&*codec, 1024, sinks).unwrap();
    enc.write_all(&data).unwrap();
    let (meta, sinks) = enc.finalize().unwrap();
    let sources = sinks
        .into_iter()
        .enumerate()
        .map(|(i, mut s)| {
            s.set_position(HEADER_LEN as u64);
            (![0, 4, 5].contains(&i)).then_some(s)
        })
        .collect();
    let mut dec = StreamDecoder::new(&*codec, meta, sources).unwrap();
    match dec.pump(&mut Vec::new()) {
        Err(StreamError::TooDamaged {
            chunk: 0,
            missing: 3,
            parity: 2,
        }) => {}
        other => panic!("expected TooDamaged over three frames, got {other:?}"),
    }
}
