//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), the integrity checksum
//! of the shard-file format (`docs/FORMAT.md`) and the object-store wire
//! protocol (`docs/STORE.md`).
//!
//! Implemented here rather than pulled in as a dependency: the workspace
//! builds offline, and the format specs pin the exact algorithm so
//! shards and frames stay readable by any implementation. Two kernels
//! compute it, both with tables and constants built at compile time
//! from [`POLY`]: a portable slice-by-16, and on x86-64 with
//! `pclmulqdq` + `sse4.1` a carry-less-multiply folding kernel (Gopal
//! et al., *Fast CRC Computation for Generic Polynomials Using
//! PCLMULQDQ*, Intel 2009). The process picks one on first use
//! ([`selected`]); the checksum is the same bit for bit on either.

use std::sync::OnceLock;

/// The reflected polynomial of CRC-32 (IEEE).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, which lets one step consume 16
/// input bytes with 16 independent lookups.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// A CRC-32 kernel: advance the raw (un-inverted) state over `data`.
type UpdateFn = fn(u32, &[u8]) -> u32;

/// Portable slice-by-16: 16 bytes per step, byte-at-a-time tail.
fn update_slice16(mut crc: u32, data: &[u8]) -> u32 {
    /// The four lookups of the 32-bit word whose first byte is followed
    /// by `top` more bytes of the 16-byte step.
    #[inline(always)]
    fn word(top: usize, w: u32) -> u32 {
        TABLES[top][(w & 0xFF) as usize]
            ^ TABLES[top - 1][((w >> 8) & 0xFF) as usize]
            ^ TABLES[top - 2][((w >> 16) & 0xFF) as usize]
            ^ TABLES[top - 3][(w >> 24) as usize]
    }
    let (steps, tail) = data.as_chunks::<16>();
    for step in steps {
        let [a, b, c, d] = *step.as_chunks::<4>().0 else {
            unreachable!("16 = 4 × 4")
        };
        crc = word(15, u32::from_le_bytes(a) ^ crc)
            ^ word(11, u32::from_le_bytes(b))
            ^ word(7, u32::from_le_bytes(c))
            ^ word(3, u32::from_le_bytes(d));
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Carry-less-multiply folding: four 128-bit lanes each jump 64 bytes
/// ahead per step, four independent multiply chains instead of the
/// table kernels' one serial dependency through `crc`.
#[cfg(target_arch = "x86_64")]
mod pclmul {
    use super::{update_slice16, POLY};
    use std::arch::x86_64::*;

    /// `x^n mod P` in this CRC's reflected bit order, shifted left one
    /// bit: the form the folding multiplications take their constants in.
    const fn x_pow_mod(n: u32) -> i64 {
        let mut r = 0x8000_0000u32; // x^0
        let mut i = 0;
        while i < n {
            r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
            i += 1;
        }
        (r as i64) << 1
    }

    /// `floor(x^64 / P)`, bit-reflected: the Barrett constant.
    const fn mu() -> i64 {
        let p = POLY.reverse_bits() as u128 | 1 << 32;
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        let mut i = 33;
        while i > 0 {
            i -= 1;
            if rem >> (i + 32) & 1 != 0 {
                quot |= 1 << i;
                rem ^= p << i;
            }
        }
        (quot.reverse_bits() >> 31) as i64
    }

    // Fold distances: 512 bits (the same lane, one step on), 128 bits
    // (the next lane), and the 64-bit step of the final reduction.
    pub(super) const K1: i64 = x_pow_mod(4 * 128 + 32);
    pub(super) const K2: i64 = x_pow_mod(4 * 128 - 32);
    pub(super) const K3: i64 = x_pow_mod(128 + 32);
    pub(super) const K4: i64 = x_pow_mod(128 - 32);
    pub(super) const K5: i64 = x_pow_mod(64);
    pub(super) const P_X: i64 = (POLY as i64) << 1 | 1;
    pub(super) const MU: i64 = mu();

    /// Whole 64-byte steps fold; anything shorter, and the tail, goes
    /// through the portable kernel.
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        let (steps, tail) = data.as_chunks::<64>();
        let crc = match steps.split_first() {
            // SAFETY: `kernels()` lists this function only after
            // `is_x86_feature_detected!` confirmed `pclmulqdq` and `sse4.1`.
            Some((first, rest)) => unsafe { fold(crc, first, rest) },
            None => crc,
        };
        update_slice16(crc, tail)
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lanes(step: &[u8; 64]) -> [__m128i; 4] {
        let (lanes, _) = step.as_chunks::<16>();
        // SAFETY: each `lane` is a `&[u8; 16]`, 16 readable bytes, and
        // `_mm_loadu_si128` has no alignment requirement.
        let load = |lane: &[u8; 16]| unsafe { _mm_loadu_si128(lane.as_ptr().cast()) };
        [
            load(&lanes[0]),
            load(&lanes[1]),
            load(&lanes[2]),
            load(&lanes[3]),
        ]
    }

    /// `acc` moved along the message by the distance `k` encodes (low
    /// half times `k.low`, high half times `k.high`), XORed into `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_lane(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(crc: u32, first: &[u8; 64], rest: &[[u8; 64]]) -> u32 {
        let [mut x0, mut x1, mut x2, mut x3] = lanes(first);
        x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        for step in rest {
            let [d0, d1, d2, d3] = lanes(step);
            x0 = fold_lane(x0, k1k2, d0);
            x1 = fold_lane(x1, k1k2, d1);
            x2 = fold_lane(x2, k1k2, d2);
            x3 = fold_lane(x3, k1k2, d3);
        }

        // Four lanes into one.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_lane(x0, k3k4, x1);
        x = fold_lane(x, k3k4, x2);
        x = fold_lane(x, k3k4, x3);

        // 128 → 96 → 64 bits, then Barrett-reduce to the 32-bit remainder.
        let low32 = _mm_set_epi32(0, !0, 0, !0);
        x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
        x = _mm_xor_si128(
            _mm_srli_si128(x, 4),
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        );
        let p_mu = _mm_set_epi64x(MU, P_X);
        let mut t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
        t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), p_mu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t), 1) as u32
    }
}

/// Every CRC-32 kernel this CPU can run as `(name, kernel)`, fastest
/// first; the portable kernel is always the last entry.
fn kernels() -> Vec<(&'static str, UpdateFn)> {
    let mut list: Vec<(&'static str, UpdateFn)> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        list.push(("pclmul", pclmul::update));
    }
    list.push(("slice16", update_slice16));
    list
}

/// The kernel this process uses, detected once.
pub(crate) fn selected() -> (&'static str, UpdateFn) {
    static SELECTED: OnceLock<(&'static str, UpdateFn)> = OnceLock::new();
    *SELECTED.get_or_init(|| kernels()[0])
}

/// One fresh digest per available kernel, for the equivalence tests.
pub(crate) fn implementations() -> Vec<(&'static str, Crc32)> {
    kernels()
        .into_iter()
        .map(|(name, update)| (name, Crc32::with_kernel(update)))
        .collect()
}

/// A running CRC-32 digest for incremental (streaming) updates.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
    update: UpdateFn,
}

impl Crc32 {
    /// Start a fresh digest.
    pub fn new() -> Crc32 {
        Crc32::with_kernel(selected().1)
    }

    fn with_kernel(update: UpdateFn) -> Crc32 {
        Crc32 { state: !0, update }
    }

    /// Feed bytes into the digest.
    pub fn update(&mut self, data: &[u8]) {
        self.state = (self.update)(self.state, data);
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// XOR a 5-byte pattern into `data` at `offset` that leaves **every**
/// CRC-32 over any region containing it unchanged.
///
/// CRC-32 is linear over GF(2): XORing a multiple of the generator
/// polynomial into the message leaves the checksum as it was. The
/// pattern below is the generator itself (`x^32 + … + 1`,
/// `0x104C11DB7`) in this CRC's reflected bit order. This is the
/// checksum's documented blind spot — the tamper tests use it to build
/// CRC-valid corruption that only the SHA-256 Merkle layer can catch.
///
/// Panics if fewer than 5 bytes remain at `offset`.
pub fn crc_preserving_flip(data: &mut [u8], offset: usize) {
    const PATTERN: [u8; 5] = [0x41, 0x06, 0x71, 0xDB, 0x01];
    for (i, delta) in PATTERN.into_iter().enumerate() {
        data[offset + i] ^= delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table loop every kernel replaced, kept as the
    /// oracle they are checked against.
    fn update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    #[test]
    fn every_kernel_matches_the_bytewise_loop() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 131 + 17) as u8).collect();
        for (name, update) in kernels() {
            for len in (0..=300).chain([1023, 1024, 1025, 4097, 5000]) {
                for state in [!0u32, 0, 0x1234_5678] {
                    assert_eq!(
                        update(state, &data[..len]),
                        update_bytewise(state, &data[..len]),
                        "{name} len {len} state {state:#x}"
                    );
                }
            }
        }
    }

    /// The derived folding constants are the published ones (Gopal et
    /// al. table for the IEEE polynomial, as used by zlib and the Linux
    /// kernel).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_match_the_published_values() {
        assert_eq!(pclmul::K1, 0x1_5444_2bd4);
        assert_eq!(pclmul::K2, 0x1_c6e4_1596);
        assert_eq!(pclmul::K3, 0x1_7519_97d0);
        assert_eq!(pclmul::K4, 0x0_ccaa_009e);
        assert_eq!(pclmul::K5, 0x1_63cd_6124);
        assert_eq!(pclmul::P_X, 0x1_db71_0641);
        assert_eq!(pclmul::MU, 0x1_f701_1641);
    }

    #[test]
    fn known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        let mut c = Crc32::new();
        for part in data.chunks(13) {
            c.update(part);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn crc_preserving_flip_preserves_any_containing_crc() {
        let base: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for offset in [0usize, 1, 7, 100, 295] {
            let mut data = base.clone();
            crc_preserving_flip(&mut data, offset);
            assert_ne!(data, base, "offset {offset}");
            assert_eq!(crc32(&data), crc32(&base), "offset {offset}");
            // Also unchanged over any sub-region containing the pattern.
            let lo = offset.saturating_sub(3);
            assert_eq!(crc32(&data[lo..]), crc32(&base[lo..]), "offset {offset}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data: Vec<u8> = (0..64u8).collect();
        let clean = crc32(&data);
        for i in [0usize, 13, 63] {
            data[i] ^= 0x10;
            assert_ne!(crc32(&data), clean, "flip at {i}");
            data[i] ^= 0x10;
        }
    }
}
