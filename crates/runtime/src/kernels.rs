//! XOR kernels: `dst[i] = s1[i] ^ s2[i] ^ … ^ sk[i]` for one chunk.
//!
//! Five implementations, mirroring §7.2's `xor1`/`xor32` comparison plus a
//! portable middle ground and the wider SIMD tiers:
//!
//! * [`Kernel::Scalar`] — byte-at-a-time (`xor1`);
//! * [`Kernel::Wide64`] — eight bytes per step via unaligned `u64`s;
//! * [`Kernel::Avx2`] — 32 bytes per step via `_mm256_xor_si256`
//!   (`xor32`), with a 2× unrolled main loop;
//! * [`Kernel::Avx512`] — 64 bytes per step via `_mm512_xor_si512`
//!   (`xor64`), 2× unrolled, on CPUs with AVX-512F;
//! * [`Kernel::Neon`] — 16 bytes per step via `veorq_u8` (`xor16`),
//!   4× unrolled, on aarch64.
//!
//! Every kernel produces byte-identical output (asserted by the
//! equivalence matrix in `tests/kernel_equivalence.rs`); they differ only
//! in throughput, which the §7 table binaries (`table_7_2_blocksize`,
//! `table_7_4_blocksize`) measure per machine.
//!
//! # Aliasing contract
//!
//! `dst` may equal one or more of the sources **exactly** (same address) —
//! scheduled programs reuse pebbles as in `p1 ← ⊕(p1, p2, p3)`. Partial
//! overlap is forbidden. Element-wise processing makes exact aliasing
//! sound: position `i` is fully read before it is written.

/// Which XOR implementation to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Kernel {
    /// Byte-wise loop — the paper's `xor1`.
    Scalar,
    /// `u64`-wide loop; portable fallback.
    Wide64,
    /// AVX2 32-byte loop — the paper's `xor32`.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512 64-byte loop (`xor64`); needs AVX-512F.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// NEON 16-byte loop (`xor16`) on aarch64.
    #[cfg(target_arch = "aarch64")]
    Neon,
    /// Detect the best available kernel at first use.
    #[default]
    Auto,
}

impl Kernel {
    /// Resolve [`Kernel::Auto`] to a concrete kernel for this CPU:
    /// AVX-512 > AVX2 > `u64` on x86-64, NEON on aarch64. "Best" here
    /// means *widest*; whether wider is faster on a given machine is a
    /// question for the §7 table binaries, not for this function.
    pub fn resolve(self) -> Kernel {
        match self {
            Kernel::Auto => {
                #[cfg(target_arch = "x86_64")]
                {
                    if std::arch::is_x86_feature_detected!("avx512f") {
                        return Kernel::Avx512;
                    }
                    if std::arch::is_x86_feature_detected!("avx2") {
                        return Kernel::Avx2;
                    }
                }
                #[cfg(target_arch = "aarch64")]
                {
                    if std::arch::is_aarch64_feature_detected!("neon") {
                        return Kernel::Neon;
                    }
                }
                Kernel::Wide64
            }
            k => k,
        }
    }

    /// Whether this CPU can execute the kernel ([`Kernel::Auto`] always
    /// can — it resolves to something available).
    pub fn is_available(self) -> bool {
        match self {
            Kernel::Scalar | Kernel::Wide64 | Kernel::Auto => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            Kernel::Neon => std::arch::is_aarch64_feature_detected!("neon"),
        }
    }

    /// Human-readable name used by the benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "xor1",
            Kernel::Wide64 => "xor8",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => "xor32",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => "xor64",
            #[cfg(target_arch = "aarch64")]
            Kernel::Neon => "xor16",
            Kernel::Auto => "auto",
        }
    }
}

/// Every concrete kernel this CPU can execute, slowest-lane first
/// (scalar, wide64, then the SIMD tiers): the equivalence tests'
/// iteration domain.
pub fn available_kernels() -> Vec<Kernel> {
    let mut ks = vec![Kernel::Scalar, Kernel::Wide64];
    #[cfg(target_arch = "x86_64")]
    {
        if Kernel::Avx2.is_available() {
            ks.push(Kernel::Avx2);
        }
        if Kernel::Avx512.is_available() {
            ks.push(Kernel::Avx512);
        }
    }
    #[cfg(target_arch = "aarch64")]
    if Kernel::Neon.is_available() {
        ks.push(Kernel::Neon);
    }
    ks
}

/// XOR `srcs` into `dst` for `len` bytes with the chosen kernel.
///
/// With a single source this is a copy (a no-op when `dst == srcs[0]`).
///
/// # Safety
/// * every pointer must be valid for `len` bytes;
/// * `dst` may only alias a source at the *same* address (no partial
///   overlap);
/// * for the SIMD kernels ([`Kernel::Avx2`], [`Kernel::Avx512`],
///   `Kernel::Neon`) the CPU must support the corresponding feature
///   (check [`Kernel::is_available`] or use [`Kernel::resolve`]).
///
/// # Panics
/// Panics if `srcs` is empty.
pub unsafe fn xor_into(kernel: Kernel, dst: *mut u8, srcs: &[*const u8], len: usize) {
    assert!(!srcs.is_empty(), "XOR of zero sources is undefined");
    if srcs.len() == 1 {
        if !std::ptr::eq(srcs[0], dst as *const u8) {
            // SAFETY: both pointers are valid for `len` bytes (caller),
            // and a source that is not `dst` itself does not overlap it
            // (the caller's aliasing rule).
            std::ptr::copy_nonoverlapping(srcs[0], dst, len);
        }
        return;
    }
    // SAFETY (every arm): the caller's contract is the inner kernels'
    // contract word for word — pointers valid for `base + len = len`
    // bytes, exact-address aliasing only — and the caller vouches for
    // the CPU feature of the SIMD kernel it names; `Auto` resolves to a
    // kernel `is_available()` confirmed.
    match kernel {
        Kernel::Scalar => xor_scalar(dst, srcs, 0, len),
        Kernel::Wide64 => xor_wide64(dst, srcs, 0, len),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => xor_avx2(dst, srcs, len),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => xor_avx512(dst, srcs, len),
        #[cfg(target_arch = "aarch64")]
        Kernel::Neon => xor_neon(dst, srcs, len),
        Kernel::Auto => xor_into(kernel.resolve(), dst, srcs, len),
    }
}

// The inner kernels take a base offset instead of pre-shifted pointer
// arrays, so tail handoffs (wide → scalar) never materialize a shifted
// copy of `srcs` — the executor's inner loop stays allocation-free.

/// Byte-at-a-time reference kernel, and every wider kernel's tail.
///
/// # Safety
/// `dst` and every `srcs[k]` must be valid for `base + len` bytes, and
/// `dst` may alias a source only at the same address: each byte is read
/// from all sources before it is written, so exact aliasing is sound
/// and a partial overlap would read bytes already overwritten.
unsafe fn xor_scalar(dst: *mut u8, srcs: &[*const u8], base: usize, len: usize) {
    for i in base..base + len {
        let mut acc = *srcs[0].add(i);
        for s in &srcs[1..] {
            acc ^= *s.add(i);
        }
        *dst.add(i) = acc;
    }
}

/// Eight bytes per step through `read_unaligned` / `write_unaligned`,
/// so no pointer needs any alignment; the last `len % 8` bytes go to
/// [`xor_scalar`].
///
/// # Safety
/// As [`xor_scalar`]: every word touched lies in `base..base + len`.
unsafe fn xor_wide64(dst: *mut u8, srcs: &[*const u8], base: usize, len: usize) {
    let words = len / 8;
    for w in 0..words {
        let off = base + w * 8;
        let mut acc = (srcs[0].add(off) as *const u64).read_unaligned();
        for s in &srcs[1..] {
            acc ^= (s.add(off) as *const u64).read_unaligned();
        }
        (dst.add(off) as *mut u64).write_unaligned(acc);
    }
    let tail = words * 8;
    if tail < len {
        xor_scalar(dst, srcs, base + tail, len - tail);
    }
}

/// # Safety
/// As [`xor_scalar`] with `base = 0`, and the CPU must support `avx2`
/// (`Kernel::Avx2.is_available()`). Every vector access is a `loadu` /
/// `storeu` inside `off..off + 64 ≤ len`, so no alignment is needed;
/// the tail under 32 bytes goes to [`xor_wide64`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn xor_avx2(dst: *mut u8, srcs: &[*const u8], len: usize) {
    use std::arch::x86_64::*;
    let mut off = 0;
    // 2× unrolled 32-byte lanes for instruction-level parallelism.
    while off + 64 <= len {
        let mut a = _mm256_loadu_si256(srcs[0].add(off) as *const __m256i);
        let mut b = _mm256_loadu_si256(srcs[0].add(off + 32) as *const __m256i);
        for s in &srcs[1..] {
            a = _mm256_xor_si256(a, _mm256_loadu_si256(s.add(off) as *const __m256i));
            b = _mm256_xor_si256(b, _mm256_loadu_si256(s.add(off + 32) as *const __m256i));
        }
        _mm256_storeu_si256(dst.add(off) as *mut __m256i, a);
        _mm256_storeu_si256(dst.add(off + 32) as *mut __m256i, b);
        off += 64;
    }
    while off + 32 <= len {
        let mut a = _mm256_loadu_si256(srcs[0].add(off) as *const __m256i);
        for s in &srcs[1..] {
            a = _mm256_xor_si256(a, _mm256_loadu_si256(s.add(off) as *const __m256i));
        }
        _mm256_storeu_si256(dst.add(off) as *mut __m256i, a);
        off += 32;
    }
    if off < len {
        xor_wide64(dst, srcs, off, len - off);
    }
}

/// # Safety
/// As [`xor_scalar`] with `base = 0`, and the CPU must support
/// `avx512f` (`Kernel::Avx512.is_available()`). Every vector access is
/// a `loadu` / `storeu` inside `off..off + 128 ≤ len`, so no alignment
/// is needed; the tail under 64 bytes goes to [`xor_wide64`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn xor_avx512(dst: *mut u8, srcs: &[*const u8], len: usize) {
    use std::arch::x86_64::*;
    let mut off = 0;
    // 2× unrolled 64-byte lanes, mirroring the AVX2 kernel's shape.
    while off + 128 <= len {
        let mut a = _mm512_loadu_si512(srcs[0].add(off) as *const _);
        let mut b = _mm512_loadu_si512(srcs[0].add(off + 64) as *const _);
        for s in &srcs[1..] {
            a = _mm512_xor_si512(a, _mm512_loadu_si512(s.add(off) as *const _));
            b = _mm512_xor_si512(b, _mm512_loadu_si512(s.add(off + 64) as *const _));
        }
        _mm512_storeu_si512(dst.add(off) as *mut _, a);
        _mm512_storeu_si512(dst.add(off + 64) as *mut _, b);
        off += 128;
    }
    while off + 64 <= len {
        let mut a = _mm512_loadu_si512(srcs[0].add(off) as *const _);
        for s in &srcs[1..] {
            a = _mm512_xor_si512(a, _mm512_loadu_si512(s.add(off) as *const _));
        }
        _mm512_storeu_si512(dst.add(off) as *mut _, a);
        off += 64;
    }
    if off < len {
        xor_wide64(dst, srcs, off, len - off);
    }
}

/// # Safety
/// As [`xor_scalar`] with `base = 0`, and the CPU must support `neon`
/// (`Kernel::Neon.is_available()`). `vld1q_u8` / `vst1q_u8` take byte
/// pointers and need no alignment; every access lies inside
/// `off..off + 64 ≤ len`, and the tail under 16 bytes goes to
/// [`xor_wide64`].
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn xor_neon(dst: *mut u8, srcs: &[*const u8], len: usize) {
    use std::arch::aarch64::*;
    let mut off = 0;
    // 4× unrolled 16-byte lanes: NEON registers are narrow, so deeper
    // unrolling is what buys instruction-level parallelism here.
    while off + 64 <= len {
        let mut a = vld1q_u8(srcs[0].add(off));
        let mut b = vld1q_u8(srcs[0].add(off + 16));
        let mut c = vld1q_u8(srcs[0].add(off + 32));
        let mut d = vld1q_u8(srcs[0].add(off + 48));
        for s in &srcs[1..] {
            a = veorq_u8(a, vld1q_u8(s.add(off)));
            b = veorq_u8(b, vld1q_u8(s.add(off + 16)));
            c = veorq_u8(c, vld1q_u8(s.add(off + 32)));
            d = veorq_u8(d, vld1q_u8(s.add(off + 48)));
        }
        vst1q_u8(dst.add(off), a);
        vst1q_u8(dst.add(off + 16), b);
        vst1q_u8(dst.add(off + 32), c);
        vst1q_u8(dst.add(off + 48), d);
        off += 64;
    }
    while off + 16 <= len {
        let mut a = vld1q_u8(srcs[0].add(off));
        for s in &srcs[1..] {
            a = veorq_u8(a, vld1q_u8(s.add(off)));
        }
        vst1q_u8(dst.add(off), a);
        off += 16;
    }
    if off < len {
        xor_wide64(dst, srcs, off, len - off);
    }
}

/// Safe convenience wrapper over slices, used by tests and small callers.
///
/// # Panics
/// Panics if lengths differ, `srcs` is empty, or this CPU cannot run
/// `kernel`.
pub fn xor_slices(kernel: Kernel, dst: &mut [u8], srcs: &[&[u8]]) {
    assert!(!srcs.is_empty(), "XOR of zero sources is undefined");
    assert!(
        kernel.is_available(),
        "this CPU cannot run the {} kernel",
        kernel.name()
    );
    for s in srcs {
        assert_eq!(s.len(), dst.len(), "length mismatch");
    }
    let ptrs: Vec<*const u8> = srcs.iter().map(|s| s.as_ptr()).collect();
    // SAFETY: every pointer comes from a slice asserted to be
    // `dst.len()` long, `&mut dst` cannot overlap a shared `&[u8]`, and
    // `is_available()` was asserted above.
    unsafe { xor_into(kernel, dst.as_mut_ptr(), &ptrs, dst.len()) }
}

/// In-place accumulation `dst ^= src` with the given kernel.
///
/// Delta parity updates end with exactly this step: XOR a freshly
/// computed delta-parity strip into the stored parity shard. The
/// destination aliases itself as the first source at the *same* address,
/// the one aliasing form every kernel supports (pebble reuse).
///
/// # Panics
/// Panics if the lengths differ or this CPU cannot run `kernel`.
pub fn xor_accumulate(kernel: Kernel, dst: &mut [u8], src: &[u8]) {
    assert_eq!(src.len(), dst.len(), "length mismatch");
    assert!(
        kernel.is_available(),
        "this CPU cannot run the {} kernel",
        kernel.name()
    );
    if dst.is_empty() {
        return;
    }
    // Derive the aliased read pointer from the *mutable* borrow so both
    // pointers share one provenance (a later as_mut_ptr would invalidate
    // a shared as_ptr tag under Stacked Borrows).
    let d = dst.as_mut_ptr();
    let srcs = [d as *const u8, src.as_ptr()];
    // SAFETY: both slices are `dst.len()` long and `is_available()`
    // holds (asserted above); `dst` aliases `srcs[0]` at exactly its own
    // address, the one permitted form, and cannot overlap the shared
    // borrow `src`.
    unsafe { xor_into(kernel, d, &srcs, dst.len()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kernels() -> Vec<Kernel> {
        available_kernels()
    }

    fn reference_xor(srcs: &[&[u8]]) -> Vec<u8> {
        let mut out = srcs[0].to_vec();
        for s in &srcs[1..] {
            for (d, x) in out.iter_mut().zip(*s) {
                *d ^= x;
            }
        }
        out
    }

    #[test]
    fn kernels_agree_with_reference_across_lengths_and_arities() {
        // Odd lengths exercise every tail path (64/32/8/1 bytes).
        for len in [
            0usize, 1, 7, 8, 31, 32, 33, 63, 64, 65, 127, 200, 1024, 4097,
        ] {
            for arity in 1..=9usize {
                let srcs: Vec<Vec<u8>> = (0..arity)
                    .map(|a| {
                        (0..len)
                            .map(|i| (i as u8).wrapping_mul(a as u8 + 3) ^ 0x5A)
                            .collect()
                    })
                    .collect();
                let refs: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
                let expect = reference_xor(&refs);
                for k in all_kernels() {
                    let mut dst = vec![0u8; len];
                    xor_slices(k, &mut dst, &refs);
                    assert_eq!(dst, expect, "kernel {k:?} len {len} arity {arity}");
                }
            }
        }
    }

    #[test]
    fn exact_aliasing_accumulates_in_place() {
        // dst == srcs[0]: p ← ⊕(p, q) must behave like p ^= q.
        for k in all_kernels() {
            let mut p: Vec<u8> = (0..100u8).collect();
            let q: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(7)).collect();
            let expect: Vec<u8> = p.iter().zip(&q).map(|(a, b)| a ^ b).collect();
            let ptrs = [p.as_ptr(), q.as_ptr()];
            // SAFETY: `p` and `q` are 100 bytes each, `dst` is `p` at
            // its own address, and `all_kernels()` lists only kernels
            // this CPU runs.
            unsafe { xor_into(k, p.as_mut_ptr(), &ptrs, 100) };
            assert_eq!(p, expect, "kernel {k:?}");
        }
    }

    #[test]
    fn xor_accumulate_matches_manual_xor() {
        for k in all_kernels() {
            for len in [0usize, 1, 7, 64, 100, 1025] {
                let mut dst: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
                let src: Vec<u8> = (0..len).map(|i| (i * 31 + 5) as u8).collect();
                let expect: Vec<u8> = dst.iter().zip(&src).map(|(a, b)| a ^ b).collect();
                xor_accumulate(k, &mut dst, &src);
                assert_eq!(dst, expect, "kernel {k:?} len {len}");
            }
        }
    }

    #[test]
    fn single_source_is_copy() {
        for k in all_kernels() {
            let src: Vec<u8> = (0..50u8).collect();
            let mut dst = vec![0u8; 50];
            xor_slices(k, &mut dst, &[&src]);
            assert_eq!(dst, src);
        }
    }

    #[test]
    fn self_copy_is_noop() {
        let mut buf: Vec<u8> = (0..64u8).collect();
        let ptr = buf.as_ptr();
        // SAFETY: one 64-byte buffer as both `dst` and the only source,
        // same address; `Wide64` needs no CPU feature.
        unsafe { xor_into(Kernel::Wide64, buf.as_mut_ptr(), &[ptr], 64) };
        assert_eq!(buf, (0..64u8).collect::<Vec<u8>>());
    }

    #[test]
    fn auto_resolves_to_something_concrete() {
        let k = Kernel::Auto.resolve();
        assert_ne!(k, Kernel::Auto);
    }

    #[test]
    fn xor_is_involutive_through_kernels() {
        // (a ⊕ b) ⊕ b = a for every kernel — a cheap end-to-end sanity.
        for k in all_kernels() {
            let a: Vec<u8> = (0..777).map(|i| (i * 31 % 251) as u8).collect();
            let b: Vec<u8> = (0..777).map(|i| (i * 17 % 255) as u8).collect();
            let mut t = vec![0u8; 777];
            xor_slices(k, &mut t, &[&a, &b]);
            let mut back = vec![0u8; 777];
            xor_slices(k, &mut back, &[&t, &b]);
            assert_eq!(back, a);
        }
    }

    #[test]
    #[should_panic(expected = "zero sources")]
    fn empty_sources_panics() {
        let mut dst = [0u8; 4];
        xor_slices(Kernel::Scalar, &mut dst, &[]);
    }
}
