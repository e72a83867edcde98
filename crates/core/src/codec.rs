//! The [`RsCodec`]: systematic RS(n, p) as a matrix constructor over the
//! shared [`XorCodec`] engine.

use crate::coder::CodecSpec;
use crate::config::RsConfig;
use array_codes::{EcError, XorCodec};
use bitmatrix::BitMatrix;
use gf256::{encoding_matrix, GfMatrix, MatrixKind};

/// Packets per shard of the GF(2^8) codes: one per symbol bit.
pub(crate) const PACKETS_PER_SHARD: usize = 8;

/// A systematic Reed–Solomon erasure codec computed entirely with XORs.
///
/// This type only builds the code: it validates the geometry, constructs
/// the GF(2^8) coding matrix and expands its parity rows to the
/// bit-matrix (the Blömer et al. construction) that defines an
/// [`XorCodec`] with `w = 8` packets per shard. It derefs to that engine,
/// which holds every operation (`encode`, `decode`, `reconstruct`,
/// `update_parity`, `repair_sources`, `verify`, …) and the program
/// table.
pub struct RsCodec {
    engine: XorCodec,
    /// The full `(n+p) × n` systematic coding matrix.
    matrix: GfMatrix,
}

impl RsCodec {
    /// Create an RS(n, p) codec with the paper's default configuration.
    pub fn new(data_shards: usize, parity_shards: usize) -> Result<RsCodec, EcError> {
        RsCodec::with_config(RsConfig::new(data_shards, parity_shards))
    }

    /// Create a codec from an explicit configuration.
    pub fn with_config(cfg: RsConfig) -> Result<RsCodec, EcError> {
        // Matrix constructors assert on degenerate geometry, so the spec
        // is validated first.
        CodecSpec::rs(cfg.data_shards, cfg.parity_shards).validate()?;
        let matrix = encoding_matrix(MatrixKind::IsalPower, cfg.data_shards, cfg.parity_shards);
        let engine = engine_over(&cfg, &matrix, Vec::new())?;
        Ok(RsCodec { engine, matrix })
    }

    /// The systematic coding matrix (`(n+p) × n`).
    pub fn encode_matrix(&self) -> &GfMatrix {
        &self.matrix
    }
}

/// The engine over an explicit systematic `(n+p) × n` GF(2^8) coding
/// matrix (the top `n` rows must be the identity): its parity rows
/// expanded to a bit-matrix with `w = 8`. `groups` lists the locality
/// groups of the matrix, if any — the LRC construction's entry point.
pub(crate) fn engine_over(
    cfg: &RsConfig,
    matrix: &GfMatrix,
    groups: Vec<Vec<usize>>,
) -> Result<XorCodec, EcError> {
    let (n, p) = (cfg.data_shards, cfg.parity_shards);
    debug_assert!(
        matrix.top_is_identity(n),
        "coding matrix must be systematic"
    );
    let parity_rows: Vec<usize> = (n..n + p).collect();
    let parity = BitMatrix::expand_gf_matrix(&matrix.select_rows(&parity_rows));
    XorCodec::new(n, p, PACKETS_PER_SHARD, &parity, groups, cfg.engine)
}

impl std::ops::Deref for RsCodec {
    type Target = XorCodec;

    fn deref(&self) -> &XorCodec {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{codec_for, codec_for_with, Compression, OptConfig, Scheduling};

    fn sample_data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + i / 7) as u8).collect()
    }

    #[test]
    fn roundtrip_no_erasures() {
        let codec = RsCodec::new(4, 2).unwrap();
        let data = sample_data(4 * 64);
        let shards = codec.encode(&data).unwrap();
        assert_eq!(shards.len(), 6);
        assert!(codec.verify(&shards).unwrap());
        let received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        assert_eq!(codec.decode(&received, data.len()).unwrap(), data);
    }

    #[test]
    fn roundtrip_all_single_erasures() {
        let codec = RsCodec::new(5, 3).unwrap();
        let data = sample_data(5 * 40);
        let shards = codec.encode(&data).unwrap();
        for lost in 0..8 {
            let mut received: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
            received[lost] = None;
            assert_eq!(
                codec.decode(&received, data.len()).unwrap(),
                data,
                "lost {lost}"
            );
        }
    }

    #[test]
    fn roundtrip_max_erasures_every_pattern() {
        // RS(4,2): all C(6,2)=15 double-erasure patterns.
        let codec = RsCodec::new(4, 2).unwrap();
        let data = sample_data(4 * 24);
        let shards = codec.encode(&data).unwrap();
        for a in 0..6 {
            for b in a + 1..6 {
                let mut received: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
                received[a] = None;
                received[b] = None;
                assert_eq!(
                    codec.decode(&received, data.len()).unwrap(),
                    data,
                    "lost {a},{b}"
                );
            }
        }
    }

    #[test]
    fn paper_pattern_rs_10_4() {
        // The paper's P_dec pattern: data shards {2,4,5,6} lost.
        let codec = RsCodec::new(10, 4).unwrap();
        let data = sample_data(10 * 80 + 13); // padding exercised
        let shards = codec.encode(&data).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        for i in [2, 4, 5, 6] {
            received[i] = None;
        }
        assert_eq!(codec.decode(&received, data.len()).unwrap(), data);
        // and the decode SLP has exactly the paper's XOR count before
        // optimization; after Full-DFS it is much smaller.
        let slp = codec.decode_slp(&[2, 4, 5, 6]).unwrap();
        assert!(slp.xor_count() < 1368);
    }

    #[test]
    fn reconstruct_rebuilds_data_and_parity() {
        let codec = RsCodec::new(6, 3).unwrap();
        let data = sample_data(6 * 32);
        let shards = codec.encode(&data).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        received[1] = None; // data
        received[7] = None; // parity
        received[8] = None; // parity
        codec.reconstruct(&mut received).unwrap();
        for (i, s) in received.iter().enumerate() {
            assert_eq!(s.as_ref().unwrap(), &shards[i], "shard {i}");
        }
    }

    #[test]
    fn parity_only_erasures_skip_the_inverse() {
        let codec = RsCodec::new(4, 2).unwrap();
        let data = sample_data(4 * 16);
        let shards = codec.encode(&data).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        received[4] = None;
        received[5] = None;
        // decode ignores parity loss entirely
        assert_eq!(codec.decode(&received, data.len()).unwrap(), data);
        // reconstruct rebuilds them
        codec.reconstruct(&mut received).unwrap();
        assert_eq!(received[4].as_ref().unwrap(), &shards[4]);
        assert_eq!(received[5].as_ref().unwrap(), &shards[5]);
        // Neither compiled anything: the pattern has no decode program
        // and the full row set is the encode program.
        assert_eq!(codec.programs(), 0);
    }

    #[test]
    fn too_many_erasures_rejected() {
        let codec = RsCodec::new(4, 2).unwrap();
        let data = sample_data(64);
        let shards = codec.encode(&data).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        received[0] = None;
        received[1] = None;
        received[2] = None;
        assert!(matches!(
            codec.decode(&received, data.len()),
            Err(EcError::TooManyErasures {
                missing: 3,
                parity: 2
            })
        ));
    }

    #[test]
    fn shard_shape_errors() {
        let codec = RsCodec::new(3, 2).unwrap();
        assert!(matches!(
            codec.decode(&[None, None], 0),
            Err(EcError::ShardCount {
                expected: 5,
                got: 2
            })
        ));
        let bad: Vec<Option<Vec<u8>>> = vec![
            Some(vec![0; 16]),
            Some(vec![0; 8]), // inconsistent
            Some(vec![0; 16]),
            Some(vec![0; 16]),
            Some(vec![0; 16]),
        ];
        assert!(matches!(
            codec.decode(&bad, 0),
            Err(EcError::ShardLength(_))
        ));
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(RsCodec::new(0, 2).is_err());
        assert!(RsCodec::new(2, 0).is_err());
        assert!(RsCodec::new(200, 100).is_err());
        assert!(RsCodec::with_config(RsConfig::new(4, 2).blocksize(0)).is_err());
    }

    #[test]
    fn shard_len_matches_encode_output() {
        let codec = RsCodec::new(10, 4).unwrap();
        for data_len in [0usize, 1, 79, 80, 81, 1000, 4096] {
            let data = sample_data(data_len);
            let shards = codec.encode(&data).unwrap();
            assert_eq!(shards[0].len(), codec.shard_len(data_len), "len {data_len}");
        }
    }

    #[test]
    fn encode_into_reuses_buffers_and_matches_encode() {
        let codec = RsCodec::new(5, 2).unwrap();
        // One set of buffers reused across different data and lengths:
        // stale contents and stale sizes must not leak through.
        let mut shards = vec![vec![0xFFu8; 123]; 7];
        for data_len in [5 * 40, 17, 0, 5 * 40 + 3] {
            let data = sample_data(data_len);
            codec.encode_into(&data, &mut shards).unwrap();
            assert_eq!(shards, codec.encode(&data).unwrap(), "len {data_len}");
        }
        // Wrong buffer count is rejected.
        let mut six = vec![Vec::new(); 6];
        assert!(matches!(
            codec.encode_into(&[1, 2, 3], &mut six),
            Err(EcError::ShardCount {
                expected: 7,
                got: 6
            })
        ));
    }

    #[test]
    fn split_data_matches_encode_layout() {
        let codec = RsCodec::new(5, 2).unwrap();
        for data_len in [0usize, 1, 17, 5 * 40, 5 * 40 + 3] {
            let data = sample_data(data_len);
            let split = codec.split_data(&data);
            let encoded = codec.encode(&data).unwrap();
            assert_eq!(&split[..], &encoded[..5], "len {data_len}");
        }
    }

    #[test]
    fn empty_data_roundtrip() {
        let codec = RsCodec::new(4, 2).unwrap();
        let shards = codec.encode(&[]).unwrap();
        assert!(shards.iter().all(Vec::is_empty));
        let received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        assert_eq!(codec.decode(&received, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn every_config_roundtrips() {
        let data = sample_data(6 * 48);
        for opt in [
            OptConfig::BASE,
            OptConfig::COMPRESS,
            OptConfig::FUSE,
            OptConfig::FULL_DFS,
            OptConfig {
                compression: Compression::RePair,
                fuse: true,
                schedule: Scheduling::Greedy { cache_blocks: 32 },
            },
        ] {
            let codec = RsCodec::with_config(RsConfig::new(6, 2).opt(opt).blocksize(64)).unwrap();
            let shards = codec.encode(&data).unwrap();
            let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
            received[0] = None;
            received[6] = None;
            assert_eq!(
                codec.decode(&received, data.len()).unwrap(),
                data,
                "{opt:?}"
            );
        }
    }

    #[test]
    fn configs_agree_on_parity_bytes() {
        // Only the spec is recorded in an archive or manifest, so no
        // engine knob may change the bytes: every configuration of every
        // family must encode exactly as the codec resolved from the spec.
        let data = sample_data(16 * 1024 + 13);
        for spec in [
            CodecSpec::rs(10, 4),
            CodecSpec::lrc(8, 4, 4),
            CodecSpec::parse("evenodd", 5, 2).unwrap(),
            CodecSpec::parse("rdp", 4, 2).unwrap(),
        ] {
            let reference = codec_for(&spec).unwrap().encode(&data).unwrap();
            for opt in [OptConfig::BASE, OptConfig::FULL_DFS] {
                for blocksize in [16, 1024] {
                    for kernel in xor_runtime::available_kernels() {
                        for parallelism in [1, 2] {
                            let cfg = RsConfig::new(spec.data_shards, spec.parity_shards)
                                .opt(opt)
                                .blocksize(blocksize)
                                .kernel(kernel)
                                .parallelism(parallelism);
                            let codec = codec_for_with(&spec, cfg).unwrap();
                            assert_eq!(codec.spec(), spec);
                            assert_eq!(
                                codec.encode(&data).unwrap(),
                                reference,
                                "{} {opt:?} B={blocksize} {kernel:?} ×{parallelism}",
                                spec.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn multithreaded_encode_matches_single() {
        let data = sample_data(8 * 1024 + 3);
        let single = RsCodec::new(8, 3).unwrap().encode(&data).unwrap();

        let codec = RsCodec::with_config(RsConfig::new(8, 3).parallelism(4)).unwrap();
        let shard_len = single[0].len();
        let data_refs: Vec<&[u8]> = single[..8].iter().map(Vec::as_slice).collect();
        let mut parity = vec![vec![0u8; shard_len]; 3];
        {
            let mut refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
            codec.encode_parity(&data_refs, &mut refs).unwrap();
        }
        assert_eq!(&parity[..], &single[8..]);
    }

    #[test]
    fn short_shards_encode_mt_with_many_threads() {
        // Shards of one packet-byte each: the partitioner must fall back
        // to a single stripe (not zero work, not a per-byte split) and
        // still produce exact parity whatever the stripe cap.
        let data = sample_data(4 * 8); // 8-byte shards → 1-byte packets
        let single = RsCodec::new(4, 2).unwrap().encode(&data).unwrap();
        let data_refs: Vec<&[u8]> = single[..4].iter().map(Vec::as_slice).collect();
        for threads in [1usize, 2, 7, 64] {
            let codec = RsCodec::with_config(RsConfig::new(4, 2).parallelism(threads)).unwrap();
            let mut parity = vec![vec![0u8; single[0].len()]; 2];
            {
                let mut refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
                codec.encode_parity(&data_refs, &mut refs).unwrap();
            }
            assert_eq!(&parity[..], &single[4..], "threads {threads}");
        }
    }

    #[test]
    fn parallelism_knob_does_not_change_bytes() {
        let data = sample_data(6 * 4096 + 11);
        let reference = RsCodec::with_config(RsConfig::new(6, 3).parallelism(1))
            .unwrap()
            .encode(&data)
            .unwrap();
        for par in [0usize, 2, 4] {
            let codec = RsCodec::with_config(RsConfig::new(6, 3).parallelism(par)).unwrap();
            assert_eq!(codec.encode(&data).unwrap(), reference, "parallelism {par}");
            let mut received: Vec<Option<Vec<u8>>> = reference.iter().cloned().map(Some).collect();
            for i in [1, 4, 7] {
                received[i] = None;
            }
            assert_eq!(
                codec.decode(&received, data.len()).unwrap(),
                data,
                "parallelism {par}"
            );
        }
    }

    /// Full re-encode oracle for the delta-update identity.
    fn full_parity(codec: &RsCodec, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let len = data[0].len();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut parity = vec![vec![0u8; len]; codec.parity_shards()];
        {
            let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
            codec.encode_parity(&refs, &mut prefs).unwrap();
        }
        parity
    }

    #[test]
    fn update_parity_matches_full_reencode_for_every_column() {
        let codec = RsCodec::new(5, 3).unwrap();
        let shard_len = 5 * 16;
        let data: Vec<Vec<u8>> = (0..5)
            .map(|k| sample_data(shard_len + k).split_off(k))
            .collect();
        let mut parity = full_parity(&codec, &data);
        for i in 0..5 {
            let mut new_data = data.clone();
            new_data[i] = data[i]
                .iter()
                .map(|b| b.wrapping_mul(31).wrapping_add(7))
                .collect();
            {
                let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
                codec
                    .update_parity(i, &data[i], &new_data[i], &mut prefs)
                    .unwrap();
            }
            assert_eq!(parity, full_parity(&codec, &new_data), "column {i}");
            // Updating back restores the original parity (involution).
            {
                let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
                codec
                    .update_parity(i, &new_data[i], &data[i], &mut prefs)
                    .unwrap();
            }
            assert_eq!(parity, full_parity(&codec, &data), "column {i} undone");
        }
    }

    #[test]
    fn update_parity_validates_inputs() {
        let codec = RsCodec::new(4, 2).unwrap();
        let shard = vec![0u8; 16];
        let mut parity = vec![vec![0u8; 16]; 2];
        let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        // shard index out of range
        assert!(matches!(
            codec.update_parity(4, &shard, &shard, &mut prefs),
            Err(EcError::InvalidParams(_))
        ));
        // old/new length mismatch
        let short = vec![0u8; 8];
        assert!(matches!(
            codec.update_parity(0, &shard, &short, &mut prefs),
            Err(EcError::ShardLength(_))
        ));
        // unaligned length
        let odd = vec![0u8; 10];
        let mut odd_parity = vec![vec![0u8; 10]; 2];
        let mut oprefs: Vec<&mut [u8]> = odd_parity.iter_mut().map(Vec::as_mut_slice).collect();
        assert!(matches!(
            codec.update_parity(0, &odd, &odd, &mut oprefs),
            Err(EcError::ShardLength(_))
        ));
        // wrong parity count
        let mut one = [vec![0u8; 16]];
        let mut onerefs: Vec<&mut [u8]> = one.iter_mut().map(Vec::as_mut_slice).collect();
        assert!(matches!(
            codec.update_parity(0, &shard, &shard, &mut onerefs),
            Err(EcError::ShardCount {
                expected: 2,
                got: 1
            })
        ));
        // zero-length shards are a no-op
        let empty: Vec<u8> = Vec::new();
        let mut zero = [Vec::new(), Vec::new()];
        let mut zrefs: Vec<&mut [u8]> = zero.iter_mut().map(Vec::as_mut_slice).collect();
        codec.update_parity(0, &empty, &empty, &mut zrefs).unwrap();
    }

    #[test]
    fn encode_parity_partial_matches_full_rows() {
        let codec = RsCodec::new(6, 3).unwrap();
        let data: Vec<Vec<u8>> = (0..6)
            .map(|k| sample_data(48 + 8 * k)[k..48 + k].to_vec())
            .collect();
        let full = full_parity(&codec, &data);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        for rows in [
            vec![0],
            vec![1],
            vec![2],
            vec![0, 2],
            vec![1, 2],
            vec![0, 1, 2],
        ] {
            let mut out = vec![vec![0u8; 48]; rows.len()];
            {
                let mut orefs: Vec<&mut [u8]> = out.iter_mut().map(Vec::as_mut_slice).collect();
                codec
                    .encode_parity_partial(&refs, &mut orefs, &rows)
                    .unwrap();
            }
            for (k, &r) in rows.iter().enumerate() {
                assert_eq!(out[k], full[r], "rows {rows:?} slot {k}");
            }
        }
    }

    #[test]
    fn encode_parity_partial_rejects_bad_rows() {
        let codec = RsCodec::new(4, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..4).map(|_| vec![1u8; 16]).collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut out = vec![vec![0u8; 16]; 1];
        let mut orefs: Vec<&mut [u8]> = out.iter_mut().map(Vec::as_mut_slice).collect();
        for rows in [vec![], vec![2], vec![1, 0], vec![0, 0]] {
            assert!(
                matches!(
                    codec.encode_parity_partial(&refs, &mut orefs, &rows),
                    Err(EcError::InvalidParams(_))
                ),
                "rows {rows:?}"
            );
        }
        // parity slot count must match the row count
        assert!(matches!(
            codec.encode_parity_partial(&refs, &mut orefs, &[0, 1]),
            Err(EcError::ShardCount {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn update_program_is_strictly_cheaper_than_full_encode() {
        // The acceptance criterion of the delta-update subsystem: a
        // single-shard write executes strictly fewer XOR instructions
        // than re-encoding the world.
        let codec = RsCodec::new(10, 4).unwrap();
        let full = codec.encode_slp().xor_count();
        for i in 0..10 {
            let upd = codec.update_slp(i).unwrap().xor_count();
            assert!(upd < full, "column {i}: {upd} XORs vs full {full}");
        }
        // Row-subset repair of one parity shard is cheaper than all four.
        for r in 0..4 {
            let one = codec.partial_encode_slp(&[r]).unwrap().xor_count();
            assert!(one < full, "row {r}: {one} XORs vs full {full}");
        }
    }

    #[test]
    fn the_default_table_holds_the_repair_and_update_working_set() {
        // Every single and double data loss, every single-parity repair
        // of one data loss, every column and every single row: 109 keys.
        // Nothing is evicted, so each distinct program is still there.
        let codec = RsCodec::new(10, 4).unwrap();
        assert_eq!(codec.programs(), 0);
        let mut keys = 0;
        for a in 0..10 {
            for b in a..14 {
                codec.decode_slp(&[a, b]).unwrap();
                keys += 1;
            }
            codec.update_slp(a).unwrap();
            keys += 1;
        }
        for r in 0..4 {
            codec.partial_encode_slp(&[r]).unwrap();
            keys += 1;
        }
        assert_eq!(keys, 109);
        // {d, 11..13} read what {d} reads; {d, 10} swaps in parity 11.
        assert_eq!(codec.programs(), 10 + 45 + 10 + 10 + 4);
    }

    #[test]
    fn a_repair_plan_and_a_wider_decode_share_one_program() {
        // A degraded get plans `repair_sources({0, 1})`, then decodes with
        // the parity it never asked for missing too: {0, 1, 12, 13}. Both
        // read data 2..9 and parity 10, 11 — one program.
        let codec = RsCodec::new(10, 4).unwrap();
        let data = sample_data(10 * 8 * 40 + 3);
        let shards = codec.encode(&data).unwrap();
        let received: Vec<Option<Vec<u8>>> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| (![0, 1, 12, 13].contains(&i)).then(|| s.clone()))
            .collect();
        assert_eq!(
            codec.repair_sources(&[0, 1]).unwrap(),
            vec![2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
        );
        let decoded = codec.decode(&received, data.len()).unwrap();
        assert_eq!(codec.programs(), 1);
        let fresh = RsCodec::new(10, 4).unwrap();
        assert_eq!(decoded, fresh.decode(&received, data.len()).unwrap());
        assert_eq!(decoded, data);
        assert_eq!(codec.decode_slp(&[0, 1]), fresh.decode_slp(&[0, 1, 12, 13]));
    }

    #[test]
    fn reconstruct_single_parity_uses_one_row_program() {
        let codec = RsCodec::new(6, 3).unwrap();
        let data = sample_data(6 * 32);
        let shards = codec.encode(&data).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        received[7] = None; // parity row 1 only
        codec.reconstruct(&mut received).unwrap();
        assert_eq!(received[7].as_ref().unwrap(), &shards[7]);
        // The repair compiled exactly the one-row program — not the full
        // encode, no decode program, nothing else: asking for row 1's SLP
        // is a table hit.
        assert_eq!(codec.programs(), 1);
        let slp = codec.partial_encode_slp(&[1]).unwrap();
        assert_eq!(codec.programs(), 1);
        assert_eq!(slp.outputs.len(), PACKETS_PER_SHARD);
        assert!(slp.xor_count() < codec.encode_slp().xor_count());
    }

    #[test]
    fn encode_parity_zero_length_is_a_noop() {
        // Zero-length shards succeed serial and striped.
        let data: Vec<Vec<u8>> = vec![Vec::new(); 4];
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut parity: Vec<Vec<u8>> = vec![Vec::new(); 2];
        for threads in [1usize, 4] {
            let codec = RsCodec::with_config(RsConfig::new(4, 2).parallelism(threads)).unwrap();
            let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
            codec.encode_parity(&refs, &mut prefs).unwrap();
        }
    }

    #[test]
    fn decode_slp_parity_only_is_typed() {
        let codec = RsCodec::new(4, 2).unwrap();
        assert_eq!(codec.decode_slp(&[4, 5]), Err(EcError::NoDataLost));
        // Caller errors stay distinguishable.
        assert!(matches!(
            codec.decode_slp(&[9]),
            Err(EcError::InvalidParams(_))
        ));
    }

    #[test]
    fn verify_early_exit_still_correct_across_lengths() {
        let codec = RsCodec::with_config(RsConfig::new(4, 2).blocksize(64)).unwrap();
        // Lengths around the blocksize: single stripe, many stripes, tails.
        for shard_len in [8usize, 64, 512, 520, 4096] {
            let data = sample_data(4 * shard_len);
            let mut shards = codec.encode(&data).unwrap();
            assert!(codec.verify(&shards).unwrap(), "len {shard_len}");
            // Corrupt the *last* byte of a parity shard: early exit must
            // not skip the final (possibly partial) stripe.
            let last = shards[5].len() - 1;
            shards[5][last] ^= 1;
            assert!(!codec.verify(&shards).unwrap(), "len {shard_len} tail");
            shards[5][last] ^= 1;
            // And the first byte of a data shard (first stripe).
            shards[0][0] ^= 0x80;
            assert!(!codec.verify(&shards).unwrap(), "len {shard_len} head");
        }
        // Zero-length shards verify trivially.
        let empty: Vec<Vec<u8>> = vec![Vec::new(); 6];
        assert!(codec.verify(&empty).unwrap());
    }

    #[test]
    fn paper_headline_slp_sizes() {
        // The deterministic anchor of the whole reproduction: the
        // unoptimized RS(10,4) programs have exactly the paper's sizes.
        let codec = RsCodec::with_config(RsConfig::new(10, 4).opt(OptConfig::BASE)).unwrap();
        let enc = codec.encode_slp();
        assert_eq!(enc.xor_count(), 755, "#⊕(P_enc) from §7.5");
        assert_eq!(enc.mem_accesses(), 2265, "#M(P_enc) = 3·755");
        assert_eq!(enc.nvar(), 32, "NVar(P_enc)");
        let dec = codec.decode_slp(&[2, 4, 5, 6]).unwrap();
        assert_eq!(dec.xor_count(), 1368, "#⊕(P_dec) from §7.5");
        assert_eq!(dec.nvar(), 32, "NVar(P_dec)");
    }
}
