//! SHA-256 (FIPS 180-4), the cryptographic hash of the integrity
//! subsystem: Merkle leaf/node hashes in the shard-file hash trailer
//! (`docs/FORMAT.md`), the store manifest's per-shard roots
//! (`docs/STORE.md`) and the `HASH_SUBTREE` opcode all hash with it.
//!
//! Implemented here rather than pulled in as a dependency for the same
//! reason as the CRC: the workspace builds offline, and the durable
//! formats pin the exact algorithm. Where CRC-32 catches line noise and
//! bit rot, SHA-256 is collision-resistant: a mutation crafted to
//! preserve a CRC (any multiple of its generator polynomial) still
//! changes the SHA-256 digest, which is what upgrades the stack from
//! bit-rot-evidence to tamper-evidence.
//!
//! Validated against the NIST FIPS 180-4 example vectors (one-block,
//! two-block, and the million-`a` stress vector) in the tests below.
//!
//! Three kernels run the compression function. Two advance one message:
//! a portable one, and on x86-64 with `sha` + `ssse3` + `sse4.1` the
//! Intel SHA extensions; the process picks one on first use
//! ([`selected`]) and every [`Sha256`] runs it. The third advances
//! **sixteen** messages at once, one per 32-bit lane of a 512-bit
//! register (x86-64 with `avx512f` + `avx512bw`, [`selected_lanes`]):
//! `sha256rnds2` is a serial dependency chain that one message cannot
//! fill, whereas sixteen messages share every instruction of the plain
//! round function (the multi-buffer idea of Gopal et al., Intel 2010).
//! Only [`sha256_batch`] drives it — a job manager that keeps every lane
//! busy whatever the messages' lengths — and only
//! `merkle::leaf_hashes_into` calls that: a Merkle tree's leaves are the
//! independent messages the lanes need.
//!
//! The digest cannot depend on the kernel: all three compute the FIPS
//! 180-4 compression function over the same padded blocks, the lanes
//! never mix (every operation is element-wise once the message words
//! are transposed), and `tests/kernel_equivalence.rs` checks each one
//! against an oracle that shares no code with this file.

use std::sync::OnceLock;

/// Digest size in bytes.
pub const SHA256_LEN: usize = 32;

/// The first 32 bits of the fractional parts of the cube roots of the
/// first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A SHA-256 kernel: run the compression function (FIPS 180-4 §6.2.2)
/// over a whole run of 64-byte blocks, so a large `update` is one call
/// and the state stays in registers across it. `blocks.len()` is a
/// multiple of 64.
type CompressFn = fn(&mut [u32; 8], &[u8]);

/// Portable kernel: the 64 rounds unrolled eight at a time (the working
/// variables rotate by renaming, not by moves) over a 16-word rolling
/// message schedule.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    /// One round; `$kw` is `K[t] + W[t]`. Writes the new `e` into `$d`
    /// and the new `a` into `$h`, which the next round reads under
    /// rotated names.
    macro_rules! round {
        ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $kw:expr) => {
            let t1 = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add(($e & $f) ^ (!$e & $g))
                .wrapping_add($kw);
            let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(t2);
        };
    }
    for block in blocks.as_chunks::<64>().0 {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for base in (0..64).step_by(8) {
            // `K[t] + W[t]` for round `t = base + j`; from round 16 on,
            // `W[t]` overwrites `W[t-16]` in the 16-word ring first.
            let mut kw = |j: usize| {
                let t = base + j;
                if t >= 16 {
                    let (w15, w2) = (w[(t + 1) & 15], w[(t + 14) & 15]);
                    w[t & 15] = w[t & 15]
                        .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                        .wrapping_add(w[(t + 9) & 15])
                        .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
                }
                K[t].wrapping_add(w[t & 15])
            };
            round!(a b c d e f g h, kw(0));
            round!(h a b c d e f g, kw(1));
            round!(g h a b c d e f, kw(2));
            round!(f g h a b c d e, kw(3));
            round!(e f g h a b c d, kw(4));
            round!(d e f g h a b c, kw(5));
            round!(c d e f g h a b, kw(6));
            round!(b c d e f g h a, kw(7));
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The Intel SHA extensions: `sha256rnds2` runs two rounds per
/// instruction on the state held as two registers (`ABEF`, `CDGH`);
/// `sha256msg1`/`sha256msg2` produce four schedule words at a time.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: `kernels()` lists this function only after
        // `is_x86_feature_detected!` confirmed `sha`, `ssse3` and `sse4.1`.
        unsafe { compress_blocks(state, blocks.as_chunks::<64>().0) }
    }

    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // SAFETY: the pointer comes from a reference to 16 bytes of
        // `u32`s, and the unaligned load has no alignment requirement.
        let load_words = |w: &[u32; 4]| unsafe { _mm_loadu_si128(w.as_ptr().cast()) };
        // SAFETY: as `load_words`, for 16 `u8`s.
        let load_bytes = |b: &[u8; 16]| unsafe { _mm_loadu_si128(b.as_ptr().cast()) };
        let store_words =
            // SAFETY: the pointer comes from an exclusive reference to 16
            // bytes of `u32`s, and the unaligned store has no alignment
            // requirement.
            |w: &mut [u32; 4], v| unsafe { _mm_storeu_si128(w.as_mut_ptr().cast(), v) };

        let (halves, _) = state.as_chunks_mut::<4>();
        // [a b c d], [e f g h] → the ABEF / CDGH layout `sha256rnds2` wants.
        let dcba = _mm_shuffle_epi32(load_words(&halves[0]), 0xB1);
        let hgfe = _mm_shuffle_epi32(load_words(&halves[1]), 0x1B);
        let mut abef = _mm_alignr_epi8(dcba, hgfe, 8);
        let mut cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);

        let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let k = K.as_chunks::<4>().0;
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // Four rounds on schedule words `w[4g..4g+4]`.
            let mut rounds4 = |g: usize, w: __m128i| {
                let wk = _mm_add_epi32(w, load_words(&k[g]));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            };
            // The next four schedule words from the previous sixteen.
            let schedule = |w0, w1, w2: __m128i, w3: __m128i| {
                let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
                _mm_sha256msg2_epu32(sum, w3)
            };
            let lanes = block.as_chunks::<16>().0;
            let mut w0 = _mm_shuffle_epi8(load_bytes(&lanes[0]), big_endian);
            let mut w1 = _mm_shuffle_epi8(load_bytes(&lanes[1]), big_endian);
            let mut w2 = _mm_shuffle_epi8(load_bytes(&lanes[2]), big_endian);
            let mut w3 = _mm_shuffle_epi8(load_bytes(&lanes[3]), big_endian);
            rounds4(0, w0);
            rounds4(1, w1);
            rounds4(2, w2);
            rounds4(3, w3);
            for g in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(g, w0);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(g + 1, w1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(g + 2, w2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(g + 3, w3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        store_words(&mut halves[0], _mm_blend_epi16(feba, dchg, 0xF0));
        store_words(&mut halves[1], _mm_alignr_epi8(dchg, feba, 8));
    }
}

/// How many messages a lane kernel advances per call.
pub(crate) const LANES: usize = 16;

/// [`LANES`] SHA-256 states held transposed — `[word][lane]` — so each
/// working variable `a`…`h` is one 512-bit register of the lane kernel.
pub(crate) type LaneStates = [[u32; LANES]; 8];

/// A lane kernel: advance [`LANES`] independent states by `nblocks`
/// 64-byte blocks each, lane `l` reading its blocks from `blocks[l]`.
///
/// # Safety
///
/// Every `blocks[l]` must be valid for reads of `64 * nblocks` bytes
/// (no alignment is required), and the kernel must have come from
/// [`lane_kernels`], which lists one only on a CPU that can run it.
pub(crate) type CompressLanesFn = unsafe fn(&mut LaneStates, &[*const u8; LANES], usize);

/// The lane kernel spelled with the single-message one: each lane in
/// turn through [`selected`]. It defines what a [`CompressLanesFn`]
/// computes and lets [`sha256_batch`]'s scheduling be tested on a CPU
/// without AVX-512; no production path picks it ([`selected_lanes`]).
///
/// # Safety
///
/// As [`CompressLanesFn`].
unsafe fn compress_lanes_serial(
    states: &mut LaneStates,
    blocks: &[*const u8; LANES],
    nblocks: usize,
) {
    let compress = selected().1;
    for (l, &lane_blocks) in blocks.iter().enumerate() {
        let mut state: [u32; 8] = std::array::from_fn(|word| states[word][l]);
        // SAFETY: the caller guarantees `64 * nblocks` readable bytes
        // behind every lane pointer.
        compress(&mut state, unsafe {
            std::slice::from_raw_parts(lane_blocks, 64 * nblocks)
        });
        for (word, value) in state.into_iter().enumerate() {
            states[word][l] = value;
        }
    }
}

/// AVX-512: sixteen messages, one per dword lane. The sixteen blocks
/// are loaded, byte-swapped and transposed (16×16 dwords) so register
/// `w[t]` holds schedule word `t` of every lane; from there the round
/// function is the portable kernel's, element-wise — `vprord` for the
/// rotations, one `vpternlogd` each for the three-way XORs, `Ch` and
/// `Maj` — over the same 16-word rolling schedule.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{LaneStates, K, LANES};
    use std::arch::x86_64::*;

    /// 16×16 dword transpose: `rows[i]` lane `j` ↔ `rows[j]` lane `i`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose(rows: &mut [__m512i; 16]) {
        // Within each 128-bit quarter: 4×4 dword blocks, via dword then
        // qword interleaves. After this, `q[4i + k]` quarter `c` holds
        // column `4c + k` of rows `4i..4i + 4`.
        let mut d = [_mm512_setzero_si512(); 16];
        for i in 0..8 {
            d[2 * i] = _mm512_unpacklo_epi32(rows[2 * i], rows[2 * i + 1]);
            d[2 * i + 1] = _mm512_unpackhi_epi32(rows[2 * i], rows[2 * i + 1]);
        }
        let mut q = [_mm512_setzero_si512(); 16];
        for i in 0..4 {
            q[4 * i] = _mm512_unpacklo_epi64(d[4 * i], d[4 * i + 2]);
            q[4 * i + 1] = _mm512_unpackhi_epi64(d[4 * i], d[4 * i + 2]);
            q[4 * i + 2] = _mm512_unpacklo_epi64(d[4 * i + 1], d[4 * i + 3]);
            q[4 * i + 3] = _mm512_unpackhi_epi64(d[4 * i + 1], d[4 * i + 3]);
        }
        // Across quarters: a 4×4 transpose of 128-bit quarters among
        // `q[k]`, `q[4 + k]`, `q[8 + k]`, `q[12 + k]`.
        for k in 0..4 {
            let even_lo = _mm512_shuffle_i32x4(q[k], q[4 + k], 0x88);
            let odd_lo = _mm512_shuffle_i32x4(q[k], q[4 + k], 0xDD);
            let even_hi = _mm512_shuffle_i32x4(q[8 + k], q[12 + k], 0x88);
            let odd_hi = _mm512_shuffle_i32x4(q[8 + k], q[12 + k], 0xDD);
            rows[k] = _mm512_shuffle_i32x4(even_lo, even_hi, 0x88);
            rows[4 + k] = _mm512_shuffle_i32x4(odd_lo, odd_hi, 0x88);
            rows[8 + k] = _mm512_shuffle_i32x4(even_lo, even_hi, 0xDD);
            rows[12 + k] = _mm512_shuffle_i32x4(odd_lo, odd_hi, 0xDD);
        }
    }

    /// # Safety
    ///
    /// As [`super::CompressLanesFn`]: `lane_kernels()` lists this
    /// function only after `is_x86_feature_detected!` confirmed
    /// `avx512f` and `avx512bw`, and every `blocks[l]` is valid for
    /// reads of `64 * nblocks` bytes.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn compress(
        states: &mut LaneStates,
        blocks: &[*const u8; LANES],
        nblocks: usize,
    ) {
        /// One round on all lanes; `$kw` is `K[t] + W[t]`. Same renaming
        /// scheme as the portable kernel's `round!`.
        macro_rules! round {
            ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $kw:expr) => {
                let big_s1 = _mm512_ternarylogic_epi32(
                    _mm512_ror_epi32($e, 6),
                    _mm512_ror_epi32($e, 11),
                    _mm512_ror_epi32($e, 25),
                    XOR3,
                );
                let ch = _mm512_ternarylogic_epi32($e, $f, $g, CH);
                let t1 = _mm512_add_epi32(_mm512_add_epi32($h, big_s1), _mm512_add_epi32(ch, $kw));
                let big_s0 = _mm512_ternarylogic_epi32(
                    _mm512_ror_epi32($a, 2),
                    _mm512_ror_epi32($a, 13),
                    _mm512_ror_epi32($a, 22),
                    XOR3,
                );
                let maj = _mm512_ternarylogic_epi32($a, $b, $c, MAJ);
                $d = _mm512_add_epi32($d, t1);
                $h = _mm512_add_epi32(t1, _mm512_add_epi32(big_s0, maj));
            };
        }
        // `vpternlogd` truth tables: x ^ y ^ z, x ? y : z, majority.
        const XOR3: i32 = 0x96;
        const CH: i32 = 0xCA;
        const MAJ: i32 = 0xE8;

        // SAFETY: the pointer comes from a reference to 16 `u32`s, and
        // the unaligned load has no alignment requirement.
        let load_state = |row: &[u32; LANES]| unsafe { _mm512_loadu_si512(row.as_ptr().cast()) };
        let store_state =
            // SAFETY: the pointer comes from an exclusive reference to 16
            // `u32`s, and the unaligned store has no alignment
            // requirement.
            |row: &mut [u32; LANES], v| unsafe { _mm512_storeu_si512(row.as_mut_ptr().cast(), v) };

        let big_endian = _mm512_set4_epi32(0x0c0d_0e0f, 0x0809_0a0b, 0x0405_0607, 0x0001_0203);
        let mut state: [__m512i; 8] = std::array::from_fn(|word| load_state(&states[word]));
        for block in 0..nblocks {
            let mut w = [_mm512_setzero_si512(); 16];
            for (row, lane_blocks) in w.iter_mut().zip(blocks) {
                // SAFETY: `block < nblocks`, so the 64 bytes at
                // `64 * block` lie inside the `64 * nblocks` the caller
                // vouches for; the load is the unaligned one.
                let bytes = unsafe { _mm512_loadu_si512(lane_blocks.add(64 * block).cast()) };
                *row = _mm512_shuffle_epi8(bytes, big_endian);
            }
            transpose(&mut w);

            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
            for base in (0..64).step_by(16) {
                // `K[t] + W[t]` for round `t = base + j`; from round 16
                // on, `W[t]` overwrites `W[t-16]` in the ring first.
                // `j` is a literal at every use, so `w` stays in
                // registers.
                macro_rules! kw {
                    ($j:literal) => {{
                        if base > 0 {
                            let (w15, w2) = (w[($j + 1) & 15], w[($j + 14) & 15]);
                            let s0 = _mm512_ternarylogic_epi32(
                                _mm512_ror_epi32(w15, 7),
                                _mm512_ror_epi32(w15, 18),
                                _mm512_srli_epi32(w15, 3),
                                XOR3,
                            );
                            let s1 = _mm512_ternarylogic_epi32(
                                _mm512_ror_epi32(w2, 17),
                                _mm512_ror_epi32(w2, 19),
                                _mm512_srli_epi32(w2, 10),
                                XOR3,
                            );
                            w[$j] = _mm512_add_epi32(
                                _mm512_add_epi32(w[$j], s0),
                                _mm512_add_epi32(w[($j + 9) & 15], s1),
                            );
                        }
                        _mm512_add_epi32(w[$j], _mm512_set1_epi32(K[base + $j] as i32))
                    }};
                }
                round!(a b c d e f g h, kw!(0));
                round!(h a b c d e f g, kw!(1));
                round!(g h a b c d e f, kw!(2));
                round!(f g h a b c d e, kw!(3));
                round!(e f g h a b c d, kw!(4));
                round!(d e f g h a b c, kw!(5));
                round!(c d e f g h a b, kw!(6));
                round!(b c d e f g h a, kw!(7));
                round!(a b c d e f g h, kw!(8));
                round!(h a b c d e f g, kw!(9));
                round!(g h a b c d e f, kw!(10));
                round!(f g h a b c d e, kw!(11));
                round!(e f g h a b c d, kw!(12));
                round!(d e f g h a b c, kw!(13));
                round!(c d e f g h a b, kw!(14));
                round!(b c d e f g h a, kw!(15));
            }
            for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *s = _mm512_add_epi32(*s, v);
            }
        }
        for (row, v) in states.iter_mut().zip(state) {
            store_state(row, v);
        }
    }
}

/// Every SHA-256 kernel this CPU can run as `(name, kernel)`, fastest
/// first; the portable kernel is always the last entry.
fn kernels() -> Vec<(&'static str, CompressFn)> {
    let mut list: Vec<(&'static str, CompressFn)> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        list.push(("sha-ni", sha_ni::compress));
    }
    list.push(("portable", compress_portable));
    list
}

/// The kernel this process uses, detected once.
pub(crate) fn selected() -> (&'static str, CompressFn) {
    static SELECTED: OnceLock<(&'static str, CompressFn)> = OnceLock::new();
    *SELECTED.get_or_init(|| kernels()[0])
}

/// One fresh digest per available kernel, for the equivalence tests.
pub(crate) fn implementations() -> Vec<(&'static str, Sha256)> {
    kernels()
        .into_iter()
        .map(|(name, compress)| (name, Sha256::with_kernel(compress)))
        .collect()
}

/// Every lane kernel this CPU can run as `(name, kernel)`, fastest
/// first; the serial spelling is always the last entry.
pub(crate) fn lane_kernels() -> Vec<(&'static str, CompressLanesFn)> {
    let mut list: Vec<(&'static str, CompressLanesFn)> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
    {
        list.push(("avx512x16", avx512::compress));
    }
    list.push(("serial", compress_lanes_serial));
    list
}

/// The lane kernel this process uses: the hardware one, or `None`
/// where there is none — the serial spelling is never worth a batch,
/// callers hash message by message instead. Not cached here; both
/// callers ([`selected_name`], `merkle`'s batch choice) ask once.
pub(crate) fn selected_lanes() -> Option<(&'static str, CompressLanesFn)> {
    let kernels = lane_kernels();
    (kernels.len() > 1).then(|| kernels[0])
}

/// What [`selected`] and [`selected_lanes`] picked, as one name:
/// `sha-ni+avx512x16`, or just `sha-ni` where there is no lane kernel.
pub(crate) fn selected_name() -> &'static str {
    static NAME: OnceLock<String> = OnceLock::new();
    NAME.get_or_init(|| match selected_lanes() {
        Some((lanes, _)) => format!("{}+{lanes}", selected().0),
        None => selected().0.to_string(),
    })
}

/// The blocks `prefix ‖ message` is hashed in, for a `len`-byte message:
/// a staged *head* (the first block, which the prefix shifts off the
/// message's 64-byte grid), a *body* read in place from message byte 63
/// on, and a staged *tail* (what is left, 0x80, zeros and the bit
/// length). A message shorter than 63 bytes has only a tail.
#[derive(Clone, Copy)]
struct Shape {
    head: usize,
    body: usize,
    /// Bytes of `prefix ‖ message` the tail carries, under 64.
    fill: usize,
    tail: usize,
}

impl Shape {
    fn of(len: usize) -> Shape {
        let head = usize::from(len >= 63);
        let body = len.saturating_sub(63) / 64;
        let fill = len + 1 - 64 * (head + body);
        Shape {
            head,
            body,
            fill,
            tail: if fill < 56 { 1 } else { 2 },
        }
    }

    fn blocks(&self, part: Part) -> usize {
        match part {
            Part::Head => self.head,
            Part::Body => self.body,
            Part::Tail => self.tail,
        }
    }
}

/// The part of its [`Shape`] a lane is hashing.
#[derive(Clone, Copy)]
enum Part {
    Head,
    Body,
    Tail,
}

/// A lane's message and how far into it the lane has hashed.
#[derive(Clone, Copy)]
struct Job {
    message: usize,
    part: Part,
    /// Blocks of `part` already hashed.
    done: usize,
}

/// The sixteen lanes of one [`sha256_batch`]: which message each holds,
/// its running state, and its staged head or tail.
struct Lanes<'m, T> {
    prefix: u8,
    messages: &'m [T],
    jobs: [Option<Job>; LANES],
    states: LaneStates,
    staged: [[u8; 128]; LANES],
}

impl<T: AsRef<[u8]>> Lanes<'_, T> {
    /// Put `message` into free lane `l`, from the initial hash value.
    fn start(&mut self, l: usize, message: usize) {
        for (row, h) in self.states.iter_mut().zip(H0) {
            row[l] = h;
        }
        let bytes = self.messages[message].as_ref();
        let part = if Shape::of(bytes.len()).head == 1 {
            self.staged[l][0] = self.prefix;
            self.staged[l][1..64].copy_from_slice(&bytes[..63]);
            Part::Head
        } else {
            self.stage_tail(l, message);
            Part::Tail
        };
        self.jobs[l] = Some(Job {
            message,
            part,
            done: 0,
        });
    }

    /// Stage the tail of `message` in lane `l` (its head, if any, is
    /// hashed by now).
    fn stage_tail(&mut self, l: usize, message: usize) {
        let bytes = self.messages[message].as_ref();
        let shape = Shape::of(bytes.len());
        let prefix_left = 1 - shape.head;
        let block = &mut self.staged[l];
        *block = [0; 128];
        block[..prefix_left].fill(self.prefix);
        block[prefix_left..shape.fill]
            .copy_from_slice(&bytes[bytes.len() + prefix_left - shape.fill..]);
        block[shape.fill] = 0x80;
        let bit_len = (bytes.len() as u64 + 1).wrapping_mul(8).to_be_bytes();
        block[64 * shape.tail - 8..64 * shape.tail].copy_from_slice(&bit_len);
    }

    /// The blocks lane `l` has left in its current part: never empty
    /// while the lane is occupied.
    fn remaining(&self, l: usize) -> &[u8] {
        let job = self.jobs[l].expect("an occupied lane");
        let bytes = self.messages[job.message].as_ref();
        let (from, shape) = (64 * job.done, Shape::of(bytes.len()));
        match job.part {
            Part::Head => &self.staged[l][from..64],
            Part::Body => &bytes[63 + from..63 + 64 * shape.body],
            Part::Tail => &self.staged[l][from..64 * shape.tail],
        }
    }

    /// Count `blocks` more of lane `l`'s current part as hashed, moving
    /// on to its next non-empty part. Returns the message once the lane
    /// has hashed all of it, and frees the lane.
    fn advance(&mut self, l: usize, blocks: usize) -> Option<usize> {
        let mut job = self.jobs[l].expect("an occupied lane");
        let shape = Shape::of(self.messages[job.message].as_ref().len());
        job.done += blocks;
        if job.done == shape.blocks(job.part) {
            job.done = 0;
            job.part = match job.part {
                Part::Head if shape.body > 0 => Part::Body,
                Part::Head | Part::Body => {
                    self.stage_tail(l, job.message);
                    Part::Tail
                }
                Part::Tail => {
                    self.jobs[l] = None;
                    return Some(job.message);
                }
            };
        }
        self.jobs[l] = Some(job);
        None
    }
}

/// The digest a final state spells.
fn digest(state: [u32; 8]) -> [u8; SHA256_LEN] {
    let mut out = [0u8; SHA256_LEN];
    for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(state) {
        *bytes = word.to_be_bytes();
    }
    out
}

/// SHA-256 of `prefix ‖ message` for any number of messages of any
/// lengths; `out[i]` is `messages[i]`'s digest. The job manager of the
/// multi-buffer scheme: the messages go into the [`LANES`] lanes in the
/// order given, each lane hashing one from its own state. Every
/// `compress` call advances all occupied lanes by the fewest contiguous
/// blocks any of them has left in its current part (the staged head, the
/// in-place body or the staged tail), and a lane whose message ends
/// files its digest and takes the next message. The kernel's time does
/// not depend on how many lanes are occupied, so once no message is
/// waiting and fewer than `min_lanes` lanes are occupied, those finish
/// from their states on the single-message kernel ([`selected`]).
///
/// Allocation-free: heads and tails are staged per lane on the stack.
/// `compress` must be an entry of [`lane_kernels`]: that is what makes
/// it runnable on this CPU.
pub(crate) fn sha256_batch<T: AsRef<[u8]>>(
    compress: CompressLanesFn,
    min_lanes: usize,
    prefix: u8,
    messages: &[T],
    out: &mut [[u8; SHA256_LEN]],
) {
    assert_eq!(out.len(), messages.len(), "one digest slot per message");
    let mut lanes = Lanes {
        prefix,
        messages,
        jobs: [None; LANES],
        states: [[0; LANES]; 8],
        staged: [[0; 128]; LANES],
    };
    let state_of = |states: &LaneStates, l: usize| std::array::from_fn(|word| states[word][l]);
    let mut next = 0; // the first message no lane has taken yet
    loop {
        for l in 0..LANES {
            if lanes.jobs[l].is_none() && next < messages.len() {
                lanes.start(l, next);
                next += 1;
            }
        }
        let occupied = lanes.jobs.iter().flatten().count();
        if next == messages.len() && occupied < min_lanes {
            let single = selected().1;
            for l in 0..LANES {
                if lanes.jobs[l].is_none() {
                    continue;
                }
                let mut state = state_of(&lanes.states, l);
                let message = loop {
                    let part = lanes.remaining(l);
                    let blocks = part.len() / 64;
                    single(&mut state, part);
                    if let Some(message) = lanes.advance(l, blocks) {
                        break message;
                    }
                };
                out[message] = digest(state);
            }
            return;
        }
        let occupied = || (0..LANES).filter(|&l| lanes.jobs[l].is_some());
        let step = occupied()
            .map(|l| lanes.remaining(l).len() / 64)
            .min()
            .expect("occupied");
        // A free lane rereads an occupied one's blocks; its state is
        // reset before it takes a message.
        let filler = lanes
            .remaining(occupied().next().expect("occupied"))
            .as_ptr();
        let blocks = std::array::from_fn(|l| match lanes.jobs[l] {
            Some(_) => lanes.remaining(l).as_ptr(),
            None => filler,
        });
        // SAFETY: `compress` came from `lane_kernels()`. Every pointer is
        // the start of an occupied lane's `remaining` blocks, a slice of
        // its message or of its staging row with at least `64 * step`
        // bytes, since `step` is the fewest blocks any of them has left.
        unsafe { compress(&mut lanes.states, &blocks, step) };
        for l in 0..LANES {
            if lanes.jobs[l].is_some() {
                if let Some(message) = lanes.advance(l, step) {
                    out[message] = digest(state_of(&lanes.states, l));
                }
            }
        }
    }
}

/// SHA-256 of `prefix ‖ message` for 1 to [`LANES`] messages of one
/// length, all advanced together by `compress`: the equal-length lane
/// schedule [`sha256_batch`] generalises, kept as its oracle.
#[cfg(test)]
pub(crate) fn sha256_lanes<T: AsRef<[u8]>>(
    compress: CompressLanesFn,
    prefix: u8,
    messages: &[T],
    out: &mut [[u8; SHA256_LEN]],
) {
    assert!(
        (1..=LANES).contains(&messages.len()),
        "1 to {LANES} messages per call"
    );
    assert_eq!(out.len(), messages.len(), "one digest slot per message");
    let len = messages[0].as_ref().len();
    // Memory safety below rests on this: every lane is read to `len`.
    assert!(
        messages.iter().all(|m| m.as_ref().len() == len),
        "messages must be equally long"
    );
    // An unoccupied lane redoes the last message; its digest is dropped.
    let lane = |l: usize| messages[l.min(messages.len() - 1)].as_ref();

    let mut states: LaneStates = std::array::from_fn(|word| [H0[word]; LANES]);
    let mut staged = [[0u8; 128]; LANES];
    let mut hashed = 0; // message bytes consumed so far, the same in every lane
    if len >= 63 {
        for (l, block) in staged.iter_mut().enumerate() {
            block[0] = prefix;
            block[1..64].copy_from_slice(&lane(l)[..63]);
        }
        let whole = (len - 63) / 64;
        // SAFETY: `compress` came from `lane_kernels()`. Each staged
        // pointer has 128 ≥ 64 bytes behind it; each in-place pointer
        // starts 63 bytes into a `len`-byte message and is read for
        // `64 * whole ≤ len - 63` bytes.
        unsafe {
            compress(&mut states, &std::array::from_fn(|l| staged[l].as_ptr()), 1);
            compress(
                &mut states,
                &std::array::from_fn(|l| lane(l)[63..].as_ptr()),
                whole,
            );
        }
        hashed = 63 + 64 * whole;
    }
    // The tail: what is left of `prefix ‖ message` (under 64 bytes),
    // 0x80, zeros, and the bit length closing the first block that has
    // eight bytes to spare.
    let prefix_left = usize::from(len < 63);
    let fill = prefix_left + (len - hashed);
    let tail_blocks = if fill < 56 { 1 } else { 2 };
    let bit_len = (len as u64 + 1).wrapping_mul(8).to_be_bytes();
    for (l, block) in staged.iter_mut().enumerate() {
        *block = [0; 128];
        block[..prefix_left].fill(prefix);
        block[prefix_left..fill].copy_from_slice(&lane(l)[hashed..]);
        block[fill] = 0x80;
        block[64 * tail_blocks - 8..64 * tail_blocks].copy_from_slice(&bit_len);
    }
    // SAFETY: `compress` came from `lane_kernels()`, and each staged
    // pointer has 128 ≥ `64 * tail_blocks` bytes behind it.
    unsafe {
        compress(
            &mut states,
            &std::array::from_fn(|l| staged[l].as_ptr()),
            tail_blocks,
        )
    };
    for (l, digest) in out.iter_mut().enumerate() {
        for (word, bytes) in digest.as_chunks_mut::<4>().0.iter_mut().enumerate() {
            *bytes = states[word][l].to_be_bytes();
        }
    }
}

/// A running SHA-256 digest for incremental (streaming) updates.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message bytes fed so far (the padding encodes this in bits;
    /// u64 bounds the message at 2^61 bytes, far beyond any shard).
    len: u64,
    /// Partial block awaiting 64 bytes.
    block: [u8; 64],
    fill: usize,
    compress: CompressFn,
}

impl Sha256 {
    /// Start a fresh digest.
    pub fn new() -> Sha256 {
        Sha256::with_kernel(selected().1)
    }

    fn with_kernel(compress: CompressFn) -> Sha256 {
        Sha256 {
            state: H0,
            len: 0,
            block: [0; 64],
            fill: 0,
            compress,
        }
    }

    /// Feed bytes into the digest.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.fill > 0 {
            let take = data.len().min(64 - self.fill);
            self.block[self.fill..self.fill + take].copy_from_slice(&data[..take]);
            self.fill += take;
            data = &data[take..];
            if self.fill < 64 {
                // `data` is exhausted into the still-partial block; falling
                // through would let the remainder bookkeeping below reset
                // `fill` and drop these bytes.
                return;
            }
            (self.compress)(&mut self.state, &self.block);
        }
        let (whole, rest) = data.split_at(data.len() & !63);
        if !whole.is_empty() {
            (self.compress)(&mut self.state, whole);
        }
        self.block[..rest.len()].copy_from_slice(rest);
        self.fill = rest.len();
    }

    /// The digest of everything fed so far.
    pub fn finish(mut self) -> [u8; SHA256_LEN] {
        // Padding: 0x80, zeros to 56 mod 64, then the 64-bit big-endian
        // message bit length — a second block only when the first has
        // no room left for the length.
        self.block[self.fill] = 0x80;
        self.block[self.fill + 1..].fill(0);
        if self.fill >= 56 {
            (self.compress)(&mut self.state, &self.block);
            self.block.fill(0);
        }
        self.block[56..].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        (self.compress)(&mut self.state, &self.block);
        digest(self.state)
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> [u8; SHA256_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

/// Lower-case hex of a digest, for CLI/report display.
pub fn hash_hex(digest: &[u8; SHA256_LEN]) -> String {
    let mut s = String::with_capacity(SHA256_LEN * 2);
    for b in digest {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        s.push(char::from_digit((b & 0xF) as u32, 16).expect("nibble"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: [u8; 32]) -> String {
        hash_hex(&digest)
    }

    /// The straight-from-the-standard compression function every kernel
    /// replaced (64-word schedule, one loop over the rounds), kept as
    /// the oracle they are checked against.
    fn compress_reference(state: &mut [u32; 8], blocks: &[u8]) {
        for block in blocks.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (t, word) in w.iter_mut().take(16).enumerate() {
                *word =
                    u32::from_be_bytes(block[t * 4..t * 4 + 4].try_into().expect("fixed slice"));
            }
            for t in 16..64 {
                let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
                let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
                w[t] = w[t - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[t - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
            for t in 0..64 {
                let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = h
                    .wrapping_add(big_s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[t])
                    .wrapping_add(w[t]);
                let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = big_s0.wrapping_add(maj);
                (h, g, f, e) = (g, f, e, d.wrapping_add(t1));
                (d, c, b, a) = (c, b, a, t1.wrapping_add(t2));
            }
            for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *s = s.wrapping_add(v);
            }
        }
    }

    #[test]
    fn every_kernel_matches_the_reference_compress() {
        let data: Vec<u8> = (0..64 * 9u32).map(|i| (i * 131 + 17) as u8).collect();
        for (name, compress) in kernels() {
            for blocks in 0..=9 {
                let (mut got, mut want) = (H0, H0);
                // Two calls each, so the second starts from a non-initial state.
                for _ in 0..2 {
                    compress(&mut got, &data[..blocks * 64]);
                    compress_reference(&mut want, &data[..blocks * 64]);
                }
                assert_eq!(got, want, "{name}, {blocks} blocks");
            }
        }
    }

    /// On equal-length batches the job manager is the lane schedule it
    /// generalises, with every occupancy in the lanes and with every
    /// lane drained.
    #[test]
    fn batch_matches_the_equal_length_schedule() {
        let data: Vec<u8> = (0..LANES as u32 * 300)
            .map(|i| (i * 97 + 11) as u8)
            .collect();
        for (name, compress) in lane_kernels() {
            for len in [0, 1, 55, 62, 63, 64, 118, 119, 127, 128, 300] {
                let messages: Vec<&[u8]> =
                    (0..LANES).map(|l| &data[l * 300..l * 300 + len]).collect();
                for count in 1..=LANES {
                    let mut want = vec![[0u8; 32]; count];
                    sha256_lanes(compress, 0x00, &messages[..count], &mut want);
                    for min_lanes in [1, LANES + 1] {
                        let mut got = vec![[0u8; 32]; count];
                        sha256_batch(compress, min_lanes, 0x00, &messages[..count], &mut got);
                        assert_eq!(got, want, "{name}, {count} × {len} B, min {min_lanes}");
                    }
                }
            }
        }
    }

    thread_local! {
        static LANE_STEPS: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
    }

    /// The serial lane kernel, counting its calls and block steps.
    ///
    /// # Safety
    ///
    /// As [`CompressLanesFn`].
    unsafe fn counting_lanes(states: &mut LaneStates, blocks: &[*const u8; LANES], n: usize) {
        LANE_STEPS.with(|c| c.set((c.get().0 + 1, c.get().1 + n)));
        // SAFETY: the caller's guarantee, passed on unchanged.
        unsafe { compress_lanes_serial(states, blocks, n) }
    }

    /// The leaves of an RS(10, 4) 1 MiB object's ten data shards of
    /// 104,864 B, leaf-major at 64 KiB: ten of 65,536 B (1 head + 1,023
    /// body + 1 tail block) then ten of 39,328 B (1 + 613 + 1). Packed,
    /// the sixteen lanes take 1,025 block steps in six calls — the long
    /// leaves' own length: the heads, 613 body blocks, six short tails,
    /// four more heads, the long leaves' last 408 body blocks, their
    /// tails — and the four lanes left drain to the single-message
    /// kernel. Cut into runs of equal lengths, the same leaves took
    /// 1,025 + 615 steps.
    #[test]
    fn ragged_leaves_share_the_lanes() {
        let shards: Vec<Vec<u8>> = (0..10u32)
            .map(|s| (0..104_864u32).map(|i| (i * 31 + s * 7) as u8).collect())
            .collect();
        let leaves: Vec<&[u8]> = shards
            .iter()
            .map(|s| &s[..65_536])
            .chain(shards.iter().map(|s| &s[65_536..]))
            .collect();
        let mut got = vec![[0u8; 32]; leaves.len()];
        LANE_STEPS.with(|c| c.set((0, 0)));
        sha256_batch(counting_lanes, 8, 0x00, &leaves, &mut got);
        assert_eq!(LANE_STEPS.with(|c| c.get()), (6, 1_025));
        for (leaf, got) in leaves.iter().zip(got) {
            assert_eq!(got, sha256(&[&[0x00], *leaf].concat()));
        }
    }

    // NIST FIPS 180-4 / CAVP example vectors.

    #[test]
    fn nist_empty_message() {
        assert_eq!(
            hex(sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_448_bit_message() {
        // Two-block example: 56 bytes of input.
        assert_eq!(
            hex(sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bit_message() {
        assert_eq!(
            hex(sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn nist_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i * 31 + 7) as u8).collect();
        // Split at awkward boundaries (never block-aligned).
        for step in [1usize, 13, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for part in data.chunks(step) {
                h.update(part);
            }
            assert_eq!(h.finish(), sha256(&data), "step {step}");
        }
    }

    #[test]
    fn crc_preserving_mutation_changes_digest() {
        // XORing in a multiple of the CRC-32 generator polynomial leaves
        // the CRC unchanged (linearity) — the exact blind spot SHA-256
        // closes. 0x1DB710641 is poly << 1 in reflected bit order; as
        // bytes (LSB-first per byte) that is 41 06 71 DB 01.
        let mut data: Vec<u8> = (0..256u32).map(|i| (i * 7) as u8).collect();
        let before_crc = crate::crc32(&data);
        let before_sha = sha256(&data);
        for (i, delta) in [0x41, 0x06, 0x71, 0xDB, 0x01].into_iter().enumerate() {
            data[100 + i] ^= delta;
        }
        assert_eq!(crate::crc32(&data), before_crc, "mutation must evade CRC");
        assert_ne!(sha256(&data), before_sha, "SHA-256 must catch it");
    }
}
