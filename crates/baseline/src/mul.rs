//! Constant-by-buffer GF(2^8) multiplication kernels.

use gf256::Gf;

/// Which multiplication backend to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GfBackend {
    /// 64 KiB-product-table lookups, one byte at a time.
    Table,
    /// ISA-L's split-nibble `vpshufb` algorithm (32 bytes/instruction).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Pick the fastest available at runtime.
    #[default]
    Auto,
}

impl GfBackend {
    /// Resolve [`GfBackend::Auto`] for this CPU.
    ///
    /// # Panics
    /// If [`GfBackend::Avx2`] is asked for on a CPU without AVX2: the
    /// kernels' safety rests on this check.
    pub fn resolve(self) -> GfBackend {
        match self {
            GfBackend::Auto => {
                #[cfg(target_arch = "x86_64")]
                {
                    if std::arch::is_x86_feature_detected!("avx2") {
                        return GfBackend::Avx2;
                    }
                }
                GfBackend::Table
            }
            #[cfg(target_arch = "x86_64")]
            GfBackend::Avx2 => {
                assert!(
                    std::arch::is_x86_feature_detected!("avx2"),
                    "GfBackend::Avx2 needs AVX2"
                );
                GfBackend::Avx2
            }
            GfBackend::Table => GfBackend::Table,
        }
    }

    /// Display name for benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            GfBackend::Table => "table",
            #[cfg(target_arch = "x86_64")]
            GfBackend::Avx2 => "avx2-shuffle",
            GfBackend::Auto => "auto",
        }
    }
}

/// The two 16-entry nibble tables for one coefficient: `lo[x] = c·x`,
/// `hi[x] = c·(x << 4)`, so `c·b = lo[b & 15] ^ hi[b >> 4]`.
#[derive(Clone, Copy, Debug)]
pub struct NibbleTables {
    /// Products of the coefficient with the 16 low-nibble values.
    pub lo: [u8; 16],
    /// Products of the coefficient with the 16 high-nibble values.
    pub hi: [u8; 16],
}

impl NibbleTables {
    /// Build the tables for coefficient `c`.
    pub fn new(c: Gf) -> NibbleTables {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for x in 0..16u8 {
            lo[x as usize] = (c * Gf(x)).0;
            hi[x as usize] = (c * Gf(x << 4)).0;
        }
        NibbleTables { lo, hi }
    }

    /// Scalar product of one byte through the tables.
    #[inline]
    #[allow(clippy::should_implement_trait)] // not the ring product: a table lookup
    pub fn mul(self, b: u8) -> u8 {
        self.lo[(b & 0x0F) as usize] ^ self.hi[(b >> 4) as usize]
    }
}

/// `dst = c · src`, element-wise.
pub fn mul_slice(backend: GfBackend, c: Gf, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "length mismatch");
    match backend.resolve() {
        GfBackend::Table => {
            let row = Gf::mul_row(c.0);
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = row[s as usize];
            }
        }
        // SAFETY: `resolve` returned `Avx2`, so the CPU has AVX2, and the
        // lengths were asserted equal above.
        #[cfg(target_arch = "x86_64")]
        GfBackend::Avx2 => unsafe { mul_avx2(c, src, dst, false) },
        GfBackend::Auto => unreachable!("resolved above"),
    }
}

/// `dst ^= c · src`, element-wise (the dot-product accumulation step).
pub fn mul_slice_acc(backend: GfBackend, c: Gf, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "length mismatch");
    match backend.resolve() {
        GfBackend::Table => {
            let row = Gf::mul_row(c.0);
            for (d, &s) in dst.iter_mut().zip(src) {
                *d ^= row[s as usize];
            }
        }
        // SAFETY: as in `mul_slice`.
        #[cfg(target_arch = "x86_64")]
        GfBackend::Avx2 => unsafe { mul_avx2(c, src, dst, true) },
        GfBackend::Auto => unreachable!("resolved above"),
    }
}

/// AVX2 split-nibble multiply: `dst (^)= c·src`.
///
/// # Safety
/// Requires AVX2 (checked by `resolve`). Slices already bound-checked.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_avx2(c: Gf, src: &[u8], dst: &mut [u8], accumulate: bool) {
    use std::arch::x86_64::*;
    let t = NibbleTables::new(c);
    let tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr() as *const __m128i));
    let thi = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr() as *const __m128i));
    let mask = _mm256_set1_epi8(0x0F);

    let len = src.len();
    let mut off = 0;
    while off + 32 <= len {
        let v = _mm256_loadu_si256(src.as_ptr().add(off) as *const __m256i);
        let lo = _mm256_and_si256(v, mask);
        let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(v), mask);
        let mut prod = _mm256_xor_si256(_mm256_shuffle_epi8(tlo, lo), _mm256_shuffle_epi8(thi, hi));
        if accumulate {
            let old = _mm256_loadu_si256(dst.as_ptr().add(off) as *const __m256i);
            prod = _mm256_xor_si256(prod, old);
        }
        _mm256_storeu_si256(dst.as_mut_ptr().add(off) as *mut __m256i, prod);
        off += 32;
    }
    // scalar tail
    for i in off..len {
        let p = t.mul(src[i]);
        if accumulate {
            dst[i] ^= p;
        } else {
            dst[i] = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends() -> Vec<GfBackend> {
        let mut bs = vec![GfBackend::Table];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            bs.push(GfBackend::Avx2);
        }
        bs
    }

    #[test]
    fn nibble_tables_reproduce_full_multiplication() {
        for c in [0u8, 1, 2, 0x1D, 0x53, 0xFF] {
            let t = NibbleTables::new(Gf(c));
            for b in 0..=255u8 {
                assert_eq!(t.mul(b), (Gf(c) * Gf(b)).0, "c={c} b={b}");
            }
        }
    }

    #[test]
    fn backends_agree_on_mul_slice() {
        let src: Vec<u8> = (0..1000).map(|i| (i * 7 % 256) as u8).collect();
        for c in [0u8, 1, 2, 0x80, 0xC3] {
            let mut expect = vec![0u8; src.len()];
            for (d, &s) in expect.iter_mut().zip(&src) {
                *d = (Gf(c) * Gf(s)).0;
            }
            for b in backends() {
                let mut dst = vec![0u8; src.len()];
                mul_slice(b, Gf(c), &src, &mut dst);
                assert_eq!(dst, expect, "backend {b:?} c={c}");
            }
        }
    }

    #[test]
    fn accumulate_is_xor_of_products() {
        let src: Vec<u8> = (0..77).map(|i| (i * 13) as u8).collect();
        for b in backends() {
            let mut dst: Vec<u8> = (0..77).map(|i| (i * 3) as u8).collect();
            let base = dst.clone();
            mul_slice_acc(b, Gf(0x35), &src, &mut dst);
            for i in 0..77 {
                assert_eq!(dst[i], base[i] ^ (Gf(0x35) * Gf(src[i])).0);
            }
        }
    }

    #[test]
    fn multiply_by_one_is_identity_and_zero_clears() {
        let src: Vec<u8> = (0..64u8).collect();
        for b in backends() {
            let mut dst = vec![0xAA; 64];
            mul_slice(b, Gf(1), &src, &mut dst);
            assert_eq!(dst, src);
            mul_slice(b, Gf(0), &src, &mut dst);
            assert!(dst.iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn odd_lengths_hit_the_tail_path() {
        for len in [1usize, 31, 33, 63, 65] {
            let src: Vec<u8> = (0..len).map(|i| (i * 11 % 256) as u8).collect();
            let mut expect = vec![0u8; len];
            for (d, &s) in expect.iter_mut().zip(&src) {
                *d = (Gf(7) * Gf(s)).0;
            }
            for b in backends() {
                let mut dst = vec![0u8; len];
                mul_slice(b, Gf(7), &src, &mut dst);
                assert_eq!(dst, expect, "backend {b:?} len {len}");
            }
        }
    }
}

/// Precomputed nibble tables for a whole coefficient matrix — the setup
/// ISA-L performs in `ec_init_tables`.
pub struct DotTables {
    rows: usize,
    cols: usize,
    tables: Vec<NibbleTables>,
}

impl DotTables {
    /// Build tables for `rows × cols` coefficients given row-major.
    pub fn new(rows: usize, cols: usize, coeffs: impl IntoIterator<Item = Gf>) -> DotTables {
        let tables: Vec<NibbleTables> = coeffs.into_iter().map(NibbleTables::new).collect();
        assert_eq!(tables.len(), rows * cols, "coefficient count mismatch");
        DotTables { rows, cols, tables }
    }

    /// Number of output rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of input columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn at(&self, r: usize, i: usize) -> NibbleTables {
        self.tables[r * self.cols + i]
    }
}

/// Fused dot product `outputs[r] = Σ_i coeffs[r][i] · inputs[i]`, reading
/// each input byte once per position — the shape of ISA-L's
/// `gf_vect_dot_prod` kernels.
///
/// # Panics
/// Panics on shape or length mismatches.
pub fn dot_product(
    backend: GfBackend,
    tables: &DotTables,
    inputs: &[&[u8]],
    outputs: &mut [&mut [u8]],
) {
    assert_eq!(inputs.len(), tables.cols(), "input count mismatch");
    assert_eq!(outputs.len(), tables.rows(), "output count mismatch");
    let len = inputs.first().map_or(0, |s| s.len());
    assert!(
        inputs.iter().all(|s| s.len() == len) && outputs.iter().all(|s| s.len() == len),
        "length mismatch"
    );
    if len == 0 || tables.rows() == 0 {
        return;
    }
    match backend.resolve() {
        GfBackend::Table => dot_product_table(tables, inputs, outputs, len),
        #[cfg(target_arch = "x86_64")]
        GfBackend::Avx2 => {
            // Group output rows by 4 so the accumulators stay in registers.
            let mut r0 = 0;
            while r0 < tables.rows() {
                let group = (tables.rows() - r0).min(4);
                // SAFETY: `resolve` returned `Avx2`, so the CPU has AVX2;
                // the counts and lengths were asserted above, and
                // `r0 + group <= tables.rows()`.
                unsafe { dot_product_avx2(tables, inputs, outputs, len, r0, group) };
                r0 += group;
            }
        }
        GfBackend::Auto => unreachable!("resolved above"),
    }
}

fn dot_product_table(tables: &DotTables, inputs: &[&[u8]], outputs: &mut [&mut [u8]], len: usize) {
    // Blocked so a source chunk stays cached across all output rows.
    const BLOCK: usize = 4096;
    let mut lo = 0;
    while lo < len {
        let hi = (lo + BLOCK).min(len);
        for (r, out) in outputs.iter_mut().enumerate() {
            let out = &mut out[lo..hi];
            let row0 = Gf::mul_row(tables.at(r, 0).mul(1));
            for (d, &s) in out.iter_mut().zip(&inputs[0][lo..hi]) {
                *d = row0[s as usize];
            }
            for (i, src) in inputs.iter().enumerate().skip(1) {
                let t = tables.at(r, i);
                if t.mul(1) == 0 {
                    continue;
                }
                let row = Gf::mul_row(t.mul(1));
                for (d, &s) in out.iter_mut().zip(&src[lo..hi]) {
                    *d ^= row[s as usize];
                }
            }
        }
        lo = hi;
    }
}

/// One group of ≤ 4 output rows, AVX2, source-major with register
/// accumulators.
///
/// # Safety
/// Requires AVX2; slices pre-validated by `dot_product`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_product_avx2(
    tables: &DotTables,
    inputs: &[&[u8]],
    outputs: &mut [&mut [u8]],
    len: usize,
    r0: usize,
    group: usize,
) {
    use std::arch::x86_64::*;
    // Preload the (lo, hi) table registers for this row group.
    let n = inputs.len();
    let mut tl: Vec<__m256i> = Vec::with_capacity(group * n);
    let mut th: Vec<__m256i> = Vec::with_capacity(group * n);
    for g in 0..group {
        for i in 0..n {
            let t = tables.at(r0 + g, i);
            tl.push(_mm256_broadcastsi128_si256(_mm_loadu_si128(
                t.lo.as_ptr() as *const __m128i
            )));
            th.push(_mm256_broadcastsi128_si256(_mm_loadu_si128(
                t.hi.as_ptr() as *const __m128i
            )));
        }
    }
    let mask = _mm256_set1_epi8(0x0F);

    let mut off = 0;
    while off + 32 <= len {
        let mut acc = [_mm256_setzero_si256(); 4];
        for (i, src) in inputs.iter().enumerate() {
            let v = _mm256_loadu_si256(src.as_ptr().add(off) as *const __m256i);
            let lo = _mm256_and_si256(v, mask);
            let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(v), mask);
            for (g, a) in acc.iter_mut().enumerate().take(group) {
                let prod = _mm256_xor_si256(
                    _mm256_shuffle_epi8(tl[g * n + i], lo),
                    _mm256_shuffle_epi8(th[g * n + i], hi),
                );
                *a = _mm256_xor_si256(*a, prod);
            }
        }
        for g in 0..group {
            _mm256_storeu_si256(
                outputs[r0 + g].as_mut_ptr().add(off) as *mut __m256i,
                acc[g],
            );
        }
        off += 32;
    }
    // scalar tail
    for t in off..len {
        for g in 0..group {
            let mut acc = 0u8;
            for (i, src) in inputs.iter().enumerate() {
                acc ^= tables.at(r0 + g, i).mul(src[t]);
            }
            outputs[r0 + g][t] = acc;
        }
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    fn backends() -> Vec<GfBackend> {
        let mut bs = vec![GfBackend::Table];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            bs.push(GfBackend::Avx2);
        }
        bs
    }

    #[test]
    fn fused_dot_product_matches_naive() {
        // 5 outputs forces both a full group of 4 and a remainder group.
        let (rows, cols, len) = (5usize, 6usize, 101usize);
        let coeffs: Vec<Gf> = (0..rows * cols).map(|k| Gf((k * 37 + 1) as u8)).collect();
        let tables = DotTables::new(rows, cols, coeffs.iter().copied());
        let inputs: Vec<Vec<u8>> = (0..cols)
            .map(|i| (0..len).map(|t| ((t * 7 + i * 13) % 256) as u8).collect())
            .collect();
        let input_refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();

        let mut expect = vec![vec![0u8; len]; rows];
        for r in 0..rows {
            for t in 0..len {
                expect[r][t] = (0..cols)
                    .map(|i| coeffs[r * cols + i] * Gf(inputs[i][t]))
                    .fold(Gf::ZERO, |a, b| a + b)
                    .0;
            }
        }
        for b in backends() {
            let mut outs = vec![vec![0u8; len]; rows];
            {
                let mut refs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
                dot_product(b, &tables, &input_refs, &mut refs);
            }
            assert_eq!(outs, expect, "backend {b:?}");
        }
    }

    #[test]
    fn zero_coefficients_are_skipped_correctly() {
        let tables = DotTables::new(1, 2, [Gf(0), Gf(3)]);
        let a = vec![0xFFu8; 40];
        let b: Vec<u8> = (0..40u8).collect();
        let mut out = vec![0u8; 40];
        for be in backends() {
            let mut refs: Vec<&mut [u8]> = vec![&mut out];
            dot_product(be, &tables, &[&a, &b], &mut refs);
            for t in 0..40 {
                assert_eq!(out[t], (Gf(3) * Gf(b[t])).0);
            }
        }
    }
}
