//! A deliberately slow, bit-sliced GF(2^8) reference codec used only in
//! tests.
//!
//! In the striped layout, bit `t` of packets `0..8` of a shard is one
//! GF(2^8) symbol. This oracle extracts every symbol bit by bit, performs
//! the coding-matrix multiplication with table-driven field arithmetic
//! (`gf256`), and reassembles parity packets — no XOR programs, no
//! bit-matrices, no SIMD. Agreement with [`crate::RsCodec`] ties the whole
//! SLP pipeline to the field-arithmetic definition of Reed–Solomon.

use gf256::{Gf, GfMatrix};

/// Read bit `t` of a packet (LSB-first within each byte).
fn get_bit(packet: &[u8], t: usize) -> bool {
    packet[t / 8] >> (t % 8) & 1 == 1
}

/// Set bit `t` of a packet.
fn set_bit(packet: &mut [u8], t: usize, v: bool) {
    if v {
        packet[t / 8] |= 1 << (t % 8);
    } else {
        packet[t / 8] &= !(1 << (t % 8));
    }
}

/// Compute parity shards from data shards by symbol-wise GF arithmetic in
/// the bit-sliced domain.
///
/// `matrix` is the full systematic `(n+p) × n` coding matrix.
pub fn parity_bitsliced(matrix: &GfMatrix, data: &[&[u8]]) -> Vec<Vec<u8>> {
    let n = data.len();
    assert_eq!(matrix.cols(), n);
    let p = matrix.rows() - n;
    let shard_len = data[0].len();
    assert!(data.iter().all(|s| s.len() == shard_len));
    assert_eq!(shard_len % 8, 0);
    let packet_len = shard_len / 8;
    let n_symbols = packet_len * 8; // one symbol per bit position

    let data_packets: Vec<Vec<&[u8]>> = data
        .iter()
        .map(|s| s.chunks_exact(packet_len.max(1)).collect())
        .collect();

    let mut parity = vec![vec![0u8; shard_len]; p];
    if packet_len == 0 {
        return parity;
    }
    for t in 0..n_symbols {
        // Extract the n data symbols at bit position t.
        let symbols: Vec<Gf> = (0..n)
            .map(|i| {
                let mut byte = 0u8;
                for (b, packet) in data_packets[i].iter().enumerate() {
                    if get_bit(packet, t) {
                        byte |= 1 << b;
                    }
                }
                Gf(byte)
            })
            .collect();
        // Multiply by each parity row and scatter the result bits.
        for (r, out) in parity.iter_mut().enumerate() {
            let sym: Gf = matrix
                .row(n + r)
                .iter()
                .zip(&symbols)
                .fold(Gf::ZERO, |acc, (&c, &s)| acc + c * s);
            for b in 0..8 {
                let lo = b * packet_len;
                let packet = &mut out[lo..lo + packet_len];
                set_bit(packet, t, sym.0 >> b & 1 == 1);
            }
        }
    }
    parity
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OptConfig, RsCodec, RsConfig};

    fn sample(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37) ^ seed)
            .collect()
    }

    #[test]
    fn xor_codec_equals_bitsliced_gf_codec() {
        // The decisive cross-validation: the optimized XOR pipeline and
        // symbol-wise field arithmetic produce identical parity bytes.
        for (n, p) in [(3usize, 2usize), (4, 2), (10, 4)] {
            let codec = RsCodec::new(n, p).unwrap();
            let shard_len = 48;
            let data: Vec<Vec<u8>> = (0..n).map(|i| sample(shard_len, i as u8)).collect();
            let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();

            let expect = parity_bitsliced(codec.encode_matrix(), &data_refs);

            let mut parity = vec![vec![0u8; shard_len]; p];
            {
                let mut refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
                codec.encode_parity(&data_refs, &mut refs).unwrap();
            }
            assert_eq!(parity, expect, "RS({n},{p})");
        }
    }

    #[test]
    fn oracle_agrees_across_optimization_levels() {
        let n = 6;
        let shard_len = 64;
        let data: Vec<Vec<u8>> = (0..n).map(|i| sample(shard_len, 100 + i as u8)).collect();
        let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        for opt in [OptConfig::BASE, OptConfig::FULL_DFS] {
            let codec = RsCodec::with_config(RsConfig::new(n, 3).opt(opt).blocksize(16)).unwrap();
            let expect = parity_bitsliced(codec.encode_matrix(), &data_refs);
            let mut parity = vec![vec![0u8; shard_len]; 3];
            {
                let mut refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
                codec.encode_parity(&data_refs, &mut refs).unwrap();
            }
            assert_eq!(parity, expect, "{opt:?}");
        }
    }
}
