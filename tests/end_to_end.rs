//! Cross-crate integration tests through the public façade: the whole
//! pipeline from coding matrix to executed bytes.

use xorslp_ec::bits::BitMatrix;
use xorslp_ec::gf::{encoding_matrix, Gf, MatrixKind};
use xorslp_ec::opt::{self, OptConfig, StageMetrics};
use xorslp_ec::runtime::{ExecProgram, Kernel};
use xorslp_ec::slp::binary_slp_from_bitmatrix;
use xorslp_ec::{EngineConfig, RsCodec, RsConfig, XorCodec};

fn sample(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 2_654_435_761usize) >> 7) as u8).collect()
}

#[test]
fn paper_metrics_table_7_5_encode() {
    // The §7.5 stage-by-stage numbers for P_enc that are architecture-
    // independent: #⊕, #M, NVar of the Base program are matched exactly;
    // compressed numbers use our deterministic tie-breaking and are
    // asserted as recorded in EXPERIMENTS.md.
    let matrix = encoding_matrix(MatrixKind::IsalPower, 10, 4);
    let rows: Vec<usize> = (10..14).collect();
    let bits = BitMatrix::expand_gf_matrix(&matrix.select_rows(&rows));
    let base = binary_slp_from_bitmatrix(&bits);

    let m = StageMetrics::of(&base);
    assert_eq!((m.xors, m.mem, m.nvar), (755, 2265, 32), "paper: 755/2265/32");

    let (co, stats) = opt::xor_repair(&base);
    let fu = opt::fuse(&co);
    let dfs = opt::schedule_dfs(&fu);

    // The work of the cancellation step, as a count: restarting every
    // `Rebuild` walk after every pairing step took 7,111,720 probes.
    assert!(stats.rebuild_probes <= 400_000, "{} probes", stats.rebuild_probes);

    // Invariants the paper states for the pipeline:
    assert_eq!(fu.xor_count(), co.xor_count());
    assert_eq!(dfs.xor_count(), fu.xor_count());
    assert_eq!(dfs.mem_accesses(), fu.mem_accesses());
    assert!(co.xor_count() < base.xor_count());
    assert!(fu.mem_accesses() < co.mem_accesses());
    assert!(dfs.nvar() < fu.nvar());

    // Our heuristics are fully deterministic; pin their exact outputs.
    // Paper's values for comparison (§7.5): Co #⊕ = 385, Fu = 146 instrs
    // with #M = 677, Dfs NVar = 88 with CCap = 167. We land within a few
    // percent on each (and better on NVar); see EXPERIMENTS.md.
    assert_eq!(co.xor_count(), 389);
    assert_eq!(fu.instrs.len(), 152);
    assert_eq!(fu.mem_accesses(), 693);
    assert_eq!(dfs.nvar(), 82);
    // Note: the paper reports "#⊕" for fused programs as the instruction
    // count (146 = NVar); scalar XOR operations are invariant under
    // fusion and stay at the compressed count.
    assert_eq!(fu.xor_count(), co.xor_count());
}

#[test]
fn paper_metrics_table_7_5_decode() {
    // P_dec for the erasure {2,4,5,6}: Base matches the paper exactly
    // (1368 / 4104 / 32); the optimized stages are pinned (paper: Co 511,
    // Fu 206 instrs / #M 923, Dfs NVar 125 / CCap 205).
    let matrix = encoding_matrix(MatrixKind::IsalPower, 10, 4);
    let lost = [2usize, 4, 5, 6];
    let survivors: Vec<usize> = (0..14).filter(|i| !lost.contains(i)).collect();
    let inv = matrix.select_rows(&survivors[..10]).invert().unwrap();
    let rec = inv.select_rows(&lost);
    let base = binary_slp_from_bitmatrix(&BitMatrix::expand_gf_matrix(&rec));

    let m = StageMetrics::of(&base);
    assert_eq!((m.xors, m.mem, m.nvar), (1368, 4104, 32));

    let (co, _) = opt::xor_repair(&base);
    let fu = opt::fuse(&co);
    let dfs = opt::schedule_dfs(&fu);
    assert_eq!(co.xor_count(), 522);
    assert_eq!(fu.instrs.len(), 212);
    assert_eq!(fu.mem_accesses(), 946);
    assert_eq!(dfs.nvar(), 124);
    assert_eq!(base.eval(), dfs.eval());
}

#[test]
fn executed_bytes_equal_reference_for_all_stages() {
    let matrix = encoding_matrix(MatrixKind::IsalPower, 6, 3);
    let rows: Vec<usize> = (6..9).collect();
    let bits = BitMatrix::expand_gf_matrix(&matrix.select_rows(&rows));
    let base = binary_slp_from_bitmatrix(&bits);

    // 48 distinct packets, equal length (the executor requires it); mix
    // the packet index into the byte stream so no two inputs coincide.
    let inputs: Vec<Vec<u8>> = (0..48usize)
        .map(|k| {
            (0..1000)
                .map(|i| (((i + 97 * k) * 2_654_435_761usize) >> 7) as u8)
                .collect()
        })
        .collect();
    let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let expect = base.run_reference(&refs);

    for config in [OptConfig::BASE, OptConfig::COMPRESS, OptConfig::FUSE, OptConfig::FULL_DFS] {
        let optimized = opt::optimize(&base, config);
        let prog = ExecProgram::compile(&optimized, 256, Kernel::Auto);
        assert_eq!(prog.run_to_vecs(&refs).unwrap(), expect, "{config:?}");
    }
}

#[test]
fn xor_codec_and_baseline_codec_both_roundtrip() {
    let data = sample(8 * 4096 + 99);
    let xor = RsCodec::new(8, 3).unwrap();
    let gf = xorslp_ec::baseline::GfRsCodec::new(8, 3).unwrap();

    let xs = xor.encode(&data).unwrap();
    let gs = gf.encode(&data).unwrap();

    let mut xr: Vec<Option<Vec<u8>>> = xs.into_iter().map(Some).collect();
    let mut gr: Vec<Option<Vec<u8>>> = gs.into_iter().map(Some).collect();
    for i in [1, 6, 9] {
        xr[i] = None;
        gr[i] = None;
    }
    assert_eq!(xor.decode(&xr, data.len()).unwrap(), data);
    assert_eq!(gf.decode(&gr, data.len()).unwrap(), data);
}

/// Every RS(10,4) erasure pattern that loses data: 1001 minus the one
/// that erases all four parity shards.
fn data_losing_patterns() -> Vec<[usize; 4]> {
    let mut patterns = Vec::new();
    for a in 0..14usize {
        for b in a + 1..14 {
            for c in b + 1..14 {
                for d in c + 1..14 {
                    if a < 10 {
                        patterns.push([a, b, c, d]);
                    }
                }
            }
        }
    }
    assert_eq!(patterns.len(), 1000, "1001 patterns minus the parity-only one");
    patterns
}

#[test]
fn decode_slps_of_every_rs_10_4_pattern_are_sound() {
    // All 1001 erasure patterns: the decode SLP evaluates to the exact
    // GF-inverse rows (a full sweep of matrix → bit-matrix → SLP).
    let codec = RsCodec::with_config(RsConfig::new(10, 4).opt(OptConfig::BASE)).unwrap();
    let matrix = codec.encode_matrix();
    for lost in data_losing_patterns() {
        let lost_data: Vec<usize> = lost.iter().copied().filter(|&i| i < 10).collect();
        let survivors: Vec<usize> = (0..14).filter(|i| !lost.contains(i)).collect();
        let inverse = matrix.select_rows(&survivors).invert().unwrap();
        let rows = BitMatrix::expand_gf_matrix(&inverse.select_rows(&lost_data));

        let slp = codec.decode_slp(&lost).unwrap();
        // inputs: the ten survivors' packets in shard order; outputs: the
        // lost data shards' packets in shard order
        assert_eq!(slp.n_consts, 80, "{lost:?}");
        let values = slp.eval();
        assert_eq!(values.len(), rows.rows(), "{lost:?}");
        for (r, value) in values.iter().enumerate() {
            let got: Vec<usize> = value.iter().map(|c| c as usize).collect();
            let want: Vec<usize> = rows.ones_in_row(r).collect();
            assert_eq!(got, want, "{lost:?}, output {r}");
        }
    }
    // …and the worst pattern matches the measured maximum (1416 XORs).
    let worst = codec.decode_slp(&[0, 2, 3, 9]).unwrap();
    assert_eq!(worst.xor_count(), 1416);
    // the paper's P_dec pattern:
    let paper = codec.decode_slp(&[2, 4, 5, 6]).unwrap();
    assert_eq!(paper.xor_count(), 1368);
}

#[test]
#[ignore = "optimizes 1000 decode programs: seconds in release, minutes unoptimized (CI runs it with --release)"]
fn optimized_decode_of_every_rs_10_4_pattern_is_exact() {
    // The paper's 1002-SLP sweep as a correctness test: for every pattern
    // the default pipeline's program computes what the unoptimized one
    // does, and the codec returns the bytes an independent GF(2^8)
    // table-lookup codec returns.
    let base = RsCodec::with_config(RsConfig::new(10, 4).opt(OptConfig::BASE)).unwrap();
    let xor = RsCodec::new(10, 4).unwrap();
    let gf = xorslp_ec::baseline::GfRsCodec::new(10, 4).unwrap();

    let data = sample(10 * 1024);
    let xor_shards = xor.encode(&data).unwrap();
    let gf_shards = gf.encode(&data).unwrap();
    let erase = |shards: &[Vec<u8>], lost: &[usize]| -> Vec<Option<Vec<u8>>> {
        let keep = |(i, s): (usize, &Vec<u8>)| (!lost.contains(&i)).then(|| s.clone());
        shards.iter().enumerate().map(keep).collect()
    };

    for lost in data_losing_patterns() {
        let optimized = xor.decode_slp(&lost).unwrap();
        assert_eq!(optimized.eval(), base.decode_slp(&lost).unwrap().eval(), "{lost:?}");
        let by_xor = xor.decode(&erase(&xor_shards, &lost), data.len()).unwrap();
        let by_gf = gf.decode(&erase(&gf_shards, &lost), data.len()).unwrap();
        assert!(by_xor == by_gf && by_gf == data, "{lost:?}");
    }
}

#[test]
fn matrix_kinds_interoperate_with_all_opt_levels() {
    // RsCodec always builds the power matrix (the one its spec names on
    // disk); the engine under it takes any matrix construction.
    let data = sample(5 * 640);
    for kind in [MatrixKind::IsalPower, MatrixKind::ReducedVandermonde, MatrixKind::Cauchy] {
        let matrix = encoding_matrix(kind, 5, 2);
        let parity = BitMatrix::expand_gf_matrix(&matrix.select_rows(&[5, 6]));
        for opt in [OptConfig::BASE, OptConfig::FULL_DFS] {
            let cfg = EngineConfig { opt, blocksize: 512, ..EngineConfig::new() };
            let codec = XorCodec::new(5, 2, 8, &parity, Vec::new(), cfg).unwrap();
            let shards = codec.encode(&data).unwrap();
            assert!(codec.verify(&shards).unwrap());
            let mut rx: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
            rx[3] = None;
            rx[5] = None;
            assert_eq!(codec.decode(&rx, data.len()).unwrap(), data, "{kind:?} {opt:?}");
        }
    }
}

#[test]
fn companion_map_underpins_the_codec() {
    // A spot check that the algebra the codec rests on holds end to end:
    // 𝔅(x · y) = x̃ · 𝔅(y) for the matrix entries actually used.
    let matrix = encoding_matrix(MatrixKind::IsalPower, 4, 2);
    for r in 4..6 {
        for c in 0..4 {
            let x = matrix[(r, c)];
            let comp = xorslp_ec::bits::companion(x);
            for y in [0u8, 1, 7, 0x80, 0xFF] {
                let bits = xorslp_ec::bits::byte_to_bits(y);
                let out = comp.mul_vec(&bits);
                let got = xorslp_ec::bits::bits_to_byte(&out);
                assert_eq!(Gf(got), x * Gf(y));
            }
        }
    }
}

#[test]
fn large_object_throughput_smoke() {
    // 20 MiB object: mostly a check that nothing quadratic crept into the
    // hot path; also exercises arena reuse.
    let codec = RsCodec::new(10, 4).unwrap();
    let data = sample(20 * 1024 * 1024);
    let shards = codec.encode(&data).unwrap();
    let mut rx: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
    rx[2] = None;
    rx[4] = None;
    rx[5] = None;
    rx[6] = None;
    assert_eq!(codec.decode(&rx, data.len()).unwrap(), data);
}

#[test]
fn array_codes_ride_the_same_pipeline() {
    // EVENODD and RDP (the §7.6 specialized comparators) also encode and
    // decode correctly through the façade.
    let data = sample(5 * 4 * 30 + 7);
    let eo = xorslp_ec::arrays::ArrayCodec::evenodd(5);
    let rdp = xorslp_ec::arrays::ArrayCodec::rdp(4);
    for (name, codec) in [("evenodd", &eo), ("rdp", &rdp)] {
        let shards = codec.encode(&data).unwrap();
        let mut rx: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        rx[0] = None;
        rx[codec.total_shards() - 1] = None;
        assert_eq!(codec.decode(&rx, data.len()).unwrap(), data, "{name}");
    }
}
