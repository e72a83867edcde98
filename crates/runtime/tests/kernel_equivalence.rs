//! Kernel equivalence matrix: every kernel this CPU can run must produce
//! byte-identical XOR results, whatever the length, alignment or source
//! arity.
//!
//! The SIMD kernels (`xor8`, `xor32`, `xor64`, `xor16`) each have three
//! code paths — the unrolled vector loop, the single-vector loop, and
//! the scalar tail — and the bugs live at the seams: a length just under
//! a vector width, a buffer starting at an odd address, a tail of 1–7
//! bytes. These tests sweep exactly those seams against an independent
//! byte-at-a-time reference (not `Kernel::Scalar`, so a shared bug
//! cannot cancel out).

use proptest::prelude::*;
use xor_runtime::{available_kernels, xor_accumulate, xor_slices, Kernel};

/// Independent reference: plain byte-wise XOR, no shared code with the
/// kernels under test.
fn reference_xor(srcs: &[&[u8]]) -> Vec<u8> {
    let mut out = vec![0u8; srcs[0].len()];
    for s in srcs {
        for (o, b) in out.iter_mut().zip(s.iter()) {
            *o ^= b;
        }
    }
    out
}

/// Deterministic but non-uniform fill so lane swaps and off-by-ones
/// cannot produce the right answer by accident.
fn fill(buf: &mut [u8], seed: usize) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = ((i * 131 + seed * 239 + 17) % 251) as u8;
    }
}

/// Run one (kernel, len, arity, misalignment) cell of the matrix.
fn check_cell(kernel: Kernel, len: usize, n_srcs: usize, misalign: usize) {
    // Over-allocate and slice at `misalign` so the kernels see buffers
    // that start off the natural vector alignment.
    let backing: Vec<Vec<u8>> = (0..n_srcs)
        .map(|s| {
            let mut v = vec![0u8; len + misalign];
            fill(&mut v, s + 1);
            v
        })
        .collect();
    let srcs: Vec<&[u8]> = backing.iter().map(|v| &v[misalign..]).collect();

    let mut dst_backing = vec![0xAAu8; len + misalign];
    let dst = &mut dst_backing[misalign..];
    xor_slices(kernel, dst, &srcs);

    assert_eq!(
        dst,
        &reference_xor(&srcs)[..],
        "kernel {} diverges at len={len} srcs={n_srcs} misalign={misalign}",
        kernel.name()
    );
}

/// Every seam length for every kernel: vector widths ±1, unroll widths
/// ±1, odd tails, and zero.
#[test]
fn seam_lengths_match_reference_for_every_kernel() {
    let lens = [
        0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 191, 255, 256, 257,
        511, 1023, 1024, 1025, 4095, 4096, 4097,
    ];
    for kernel in available_kernels() {
        for &len in &lens {
            for n_srcs in 1..=8 {
                check_cell(kernel, len, n_srcs, 0);
            }
        }
    }
}

/// The same seams with the buffers deliberately knocked off alignment —
/// every kernel uses unaligned loads/stores, so an odd base address must
/// change nothing.
#[test]
fn misaligned_buffers_match_reference_for_every_kernel() {
    let lens = [1, 15, 63, 64, 65, 127, 128, 129, 255, 1024, 4097];
    for kernel in available_kernels() {
        for &len in &lens {
            for misalign in [1, 3, 7] {
                for n_srcs in [1, 2, 5, 8] {
                    check_cell(kernel, len, n_srcs, misalign);
                }
            }
        }
    }
}

/// The aliasing accumulate form (`dst ^= src`) every delta-parity update
/// ends with must also agree across kernels.
#[test]
fn accumulate_matches_reference_for_every_kernel() {
    for kernel in available_kernels() {
        for len in [0usize, 1, 7, 64, 65, 127, 1000, 4097] {
            let mut dst = vec![0u8; len];
            let mut src = vec![0u8; len];
            fill(&mut dst, 3);
            fill(&mut src, 9);
            let expect = reference_xor(&[&dst, &src]);
            xor_accumulate(kernel, &mut dst, &src);
            assert_eq!(dst, expect, "accumulate diverges for {}", kernel.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random lengths, arities and misalignments: whatever the shape,
    /// all available kernels agree with the byte-wise reference.
    #[test]
    fn random_shapes_match_reference(
        len in 0usize..5000,
        n_srcs in 1usize..=8,
        misalign in 0usize..8,
    ) {
        for kernel in available_kernels() {
            check_cell(kernel, len, n_srcs, misalign);
        }
    }

    /// All kernels also agree with *each other* on random data (pairwise
    /// through the reference is implied; this pins the cross-kernel
    /// equality that lets a codec swap kernels without changing a byte).
    #[test]
    fn kernels_agree_pairwise(len in 1usize..3000, n_srcs in 1usize..=8) {
        let backing: Vec<Vec<u8>> = (0..n_srcs)
            .map(|s| {
                let mut v = vec![0u8; len];
                fill(&mut v, s + 42);
                v
            })
            .collect();
        let srcs: Vec<&[u8]> = backing.iter().map(|v| &v[..]).collect();
        let mut first: Option<(Kernel, Vec<u8>)> = None;
        for kernel in available_kernels() {
            let mut dst = vec![0u8; len];
            xor_slices(kernel, &mut dst, &srcs);
            match &first {
                None => first = Some((kernel, dst)),
                Some((k0, d0)) => prop_assert_eq!(
                    &dst, d0,
                    "{} and {} disagree at len={}", kernel.name(), k0.name(), len
                ),
            }
        }
    }
}
