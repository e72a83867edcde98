//! Kernel equivalence matrix for the integrity layer: every CRC-32 and
//! SHA-256 kernel this CPU can run must produce the digests the durable
//! formats pin, whatever the length, base address or `update` split.
//!
//! The kernels come from `ec_wire::implementations()` — the portable
//! ones are always in the list, so they are exercised on machines where
//! the process itself runs the hardware ones. The bugs live at the
//! seams: an input just under one fold step (64 bytes) or one slice
//! step (16), a tail handed from the folding kernel to the table one, a
//! buffer starting at an odd address, a block boundary inside an
//! `update`. CRC-32 is checked against a bit-at-a-time oracle that
//! shares no table or constant with the crate; SHA-256 against the FIPS
//! 180-4 vectors and, for every other input, against a textbook
//! transcription of the standard that derives its own constants. The
//! batched Merkle-leaf hash — sixteen messages to a kernel call where
//! the CPU has the lane kernel — adds three axes, how many lanes are
//! occupied, which message sits in which, and where each lane stands in
//! its message when another's ends, and is checked against the same
//! textbook oracle.

use ec_wire::merkle::{leaf_hash, leaf_hashes_into, LEAF_BATCH};
use ec_wire::{
    crc32, crc_preserving_flip, implementations, sha256, Crc32, Implementations, Sha256,
};
use proptest::prelude::*;

/// Independent reference: CRC-32/ISO-HDLC one bit at a time.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

/// Deterministic but non-uniform fill so lane swaps and off-by-ones
/// cannot produce the right answer by accident.
fn fill(len: usize, seed: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + seed * 239 + 17) % 251) as u8).collect()
}

/// Every seam length: 0..=300 covers both step sizes several times
/// over; the rest are the block seams, a page, and the benchmark's
/// shard size.
fn seam_lengths() -> impl Iterator<Item = usize> {
    (0..=300).chain([4095, 4096, 4097, 107_520])
}

fn crc_with(kernel: &Crc32, parts: &[&[u8]]) -> u32 {
    let mut c = *kernel;
    for part in parts {
        c.update(part);
    }
    c.finish()
}

fn sha_with(kernel: &Sha256, parts: &[&[u8]]) -> [u8; 32] {
    let mut h = kernel.clone();
    for part in parts {
        h.update(part);
    }
    h.finish()
}

fn hex(digest: [u8; 32]) -> String {
    ec_wire::hash_hex(&digest)
}

/// Independent reference: SHA-256 as FIPS 180-4 writes it down — pad the
/// whole message, 64-word schedule, one loop over the rounds, constants
/// computed from the primes rather than copied from the crate.
fn sha256_textbook(data: &[u8]) -> [u8; 32] {
    // First 32 fractional bits of the square (h) and cube (k) roots of
    // the first primes, by integer root extraction.
    let primes: Vec<u128> = (2u128..312).filter(|n| (2..*n).all(|d| n % d != 0)).collect();
    let root_frac = |p: u128, degree: u32| {
        // floor(p^(1/degree) · 2^32) by bisection, low 32 bits.
        let target = p << (32 * degree);
        let (mut lo, mut hi) = (0u128, 1u128 << 36);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if mid.pow(degree) <= target { lo = mid } else { hi = mid }
        }
        lo as u32
    };
    let k: Vec<u32> = primes.iter().map(|&p| root_frac(p, 3)).collect();
    let mut h: Vec<u32> = primes[..8].iter().map(|&p| root_frac(p, 2)).collect();

    let mut message = data.to_vec();
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend(((data.len() as u64) * 8).to_be_bytes());
    for block in message.chunks(64) {
        let mut w: Vec<u32> =
            block.chunks(4).map(|b| u32::from_be_bytes(b.try_into().unwrap())).collect();
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w.push(w[t - 16].wrapping_add(s0).wrapping_add(w[t - 7]).wrapping_add(s1));
        }
        let mut v = h.clone(); // a..h = v[0]..v[7]
        for t in 0..64 {
            let s1 = v[4].rotate_right(6) ^ v[4].rotate_right(11) ^ v[4].rotate_right(25);
            let ch = (v[4] & v[5]) ^ (!v[4] & v[6]);
            let t1 = v[7].wrapping_add(s1).wrapping_add(ch).wrapping_add(k[t]).wrapping_add(w[t]);
            let s0 = v[0].rotate_right(2) ^ v[0].rotate_right(13) ^ v[0].rotate_right(22);
            let maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
            v.rotate_right(1);
            v[4] = v[4].wrapping_add(t1);
            v[0] = t1.wrapping_add(s0.wrapping_add(maj));
        }
        for (h, v) in h.iter_mut().zip(v) {
            *h = h.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_mut(4).zip(h) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[test]
fn portable_kernels_are_always_listed_and_the_selection_is_one_of_the_list() {
    let Implementations { crc32: crcs, sha256: shas, leaf_batch: batches } = implementations();
    assert_eq!(crcs.last().map(|(n, _)| *n), Some("slice16"));
    assert_eq!(shas.last().map(|(n, _)| *n), Some("portable"));
    assert_eq!(batches.last().map(|(n, _)| *n), Some("serial"));
    let (crc, sha) = ec_wire::integrity_kernels();
    assert_eq!(crc, crcs[0].0, "the process runs the fastest listed CRC kernel");
    // `single` or `single+lanes`: the fastest listed SHA kernel, and the
    // hardware lane kernel when one is listed before the serial spelling.
    let want_sha = match batches.as_slice() {
        [(lanes, _), _, ..] => format!("{}+{lanes}", shas[0].0),
        _ => shas[0].0.to_string(),
    };
    assert_eq!(sha, want_sha, "the process runs the fastest listed SHA kernels");
}

#[test]
fn crc_matches_bitwise_oracle_at_every_seam_and_offset() {
    let crcs = implementations().crc32;
    let backing = fill(107_520 + 64 + 16, 1);
    for (name, kernel) in &crcs {
        for len in seam_lengths() {
            // Base offsets 0..16 off a cache line: every alignment the
            // 16-byte loads can see.
            for offset in 0..16 {
                let data = &backing[64 + offset..64 + offset + len];
                assert_eq!(
                    crc_with(kernel, &[data]),
                    crc32_bitwise(data),
                    "crc kernel {name} diverges at len={len} offset={offset}"
                );
            }
        }
    }
}

#[test]
fn sha256_matches_fips_vectors_on_every_kernel() {
    let shas = implementations().sha256;
    let vectors: [(&[u8], &str); 4] = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
              hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];
    let million_a = vec![b'a'; 1_000_000];
    for (name, kernel) in &shas {
        for (message, digest) in vectors {
            assert_eq!(hex(sha_with(kernel, &[message])), digest, "sha kernel {name}");
        }
        // One call (a 15,625-block run) and 1000-byte pieces (every
        // block boundary lands inside an `update`).
        let pieces: Vec<&[u8]> = million_a.chunks(1000).collect();
        for parts in [&[&million_a[..]][..], &pieces[..]] {
            assert_eq!(
                hex(sha_with(kernel, parts)),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "sha kernel {name}, million-a in {} parts",
                parts.len()
            );
        }
    }
}

#[test]
fn sha256_matches_textbook_oracle_at_every_seam_and_offset() {
    let shas = implementations().sha256;
    let backing = fill(107_520 + 64 + 16, 2);
    for len in seam_lengths() {
        let want = sha256_textbook(&backing[64..64 + len]);
        for (name, kernel) in &shas {
            for offset in 0..16 {
                // Same bytes at a different address: copy them there.
                let mut moved = vec![0u8; 64 + offset + len];
                moved[64 + offset..].copy_from_slice(&backing[64..64 + len]);
                assert_eq!(
                    sha_with(kernel, &[&moved[64 + offset..]]),
                    want,
                    "sha kernel {name} diverges at len={len} offset={offset}"
                );
            }
        }
    }
}

/// The batched leaf hash on every lane kernel: each seam length × base
/// offsets 0/1/16/63 × 1..=16 occupied lanes (a lone message drains to
/// the single-message kernel: no process runs the lanes below two),
/// every lane's digest against the textbook `sha256(0x00 ‖ message)`.
/// Each lane holds its own bytes (a distinct `fill` seed), so a kernel
/// that swapped two lanes, or filed a digest under the wrong index,
/// cannot pass.
#[test]
fn leaf_batch_matches_textbook_oracle_at_every_seam_offset_and_occupancy() {
    const LANES: usize = LEAF_BATCH;
    let batches = implementations().leaf_batch;
    for len in seam_lengths() {
        let messages: Vec<Vec<u8>> = (0..LANES).map(|lane| fill(len, 100 + lane)).collect();
        let want: Vec<[u8; 32]> = messages
            .iter()
            .map(|message| sha256_textbook(&[&[0x00], &message[..]].concat()))
            .collect();
        for offset in [0usize, 1, 16, 63] {
            // Same bytes at a different address: copy them there.
            let moved: Vec<Vec<u8>> =
                messages.iter().map(|m| [&vec![0u8; offset][..], &m[..]].concat()).collect();
            let chunks: Vec<&[u8]> = moved.iter().map(|m| &m[offset..]).collect();
            for occupied in 1..=LANES {
                // The shard-sized seam adds only in-place middle blocks
                // to what 4097 covers; unoptimised, its full sweep is
                // most of this test's time, so it keeps the occupancies
                // the shipped geometries produce (RS(6,3), RS(10,4)) and
                // the two ends.
                if len > 4097 && ![1, 9, 14, LANES].contains(&occupied) {
                    continue;
                }
                for (name, batch) in &batches {
                    let mut got = vec![[0u8; 32]; occupied];
                    batch.hash_into(&chunks[..occupied], &mut got);
                    assert_eq!(
                        got,
                        want[..occupied],
                        "leaf batch {name} diverges at len={len} offset={offset} \
                         occupied={occupied}"
                    );
                }
            }
        }
    }
}

/// Leaves of mixed lengths on every lane kernel, `serial` included, and
/// through `leaf_hashes_into` (the process's own drain threshold): a
/// lane whose leaf ends takes the next one while the others are
/// partway through theirs, and the last lanes drain to the
/// single-message kernel from wherever they stand — head, body or
/// tail. Every digest against the textbook `sha256(0x00 ‖ leaf)`.
#[test]
fn ragged_leaf_batches_match_textbook_oracle_on_every_lane_kernel() {
    let batches = implementations().leaf_batch;
    let check = |what: &str, leaves: &[&[u8]], want: &[[u8; 32]]| {
        for (name, batch) in &batches {
            let mut got = vec![[0u8; 32]; leaves.len()];
            batch.hash_into(leaves, &mut got);
            assert_eq!(got, want, "leaf batch {name} diverges on {what}");
        }
        let mut got = vec![[0u8; 32]; leaves.len()];
        leaf_hashes_into(leaves, &mut got);
        assert_eq!(got, want, "leaf_hashes_into diverges on {what}");
    };
    let oracle = |leaves: &[Vec<u8>]| -> Vec<[u8; 32]> {
        leaves.iter().map(|leaf| sha256_textbook(&[&[0x00], &leaf[..]].concat())).collect()
    };

    // An RS(10, 4) 1 MiB object's shards (104,864 B) at 64 KiB leaves,
    // leaf-major: ten of 65,536 B, then ten of 39,328 B.
    let seams = [0usize, 1, 54, 55, 62, 63, 64, 119, 120, 127, 128];
    let shapes: [(&str, Vec<usize>); 3] = [
        ("RS(10, 4) leaves", [65_536; 10].into_iter().chain([39_328; 10]).collect()),
        // Every seam length, three times over in three orders: lanes
        // end their heads, bodies and tails at different blocks.
        ("interleaved seams", (0..33).map(|i| seams[(i * [1, 4, 7][i / 11]) % 11]).collect()),
        // One long leaf among short ones: the short lanes finish and
        // drain while it is in its body.
        ("one long among seven short", vec![100, 1, 63, 70_000, 5, 128, 64, 200]),
    ];
    for (what, lengths) in shapes {
        let leaves: Vec<Vec<u8>> =
            lengths.iter().enumerate().map(|(i, &len)| fill(len, 300 + i)).collect();
        let chunks: Vec<&[u8]> = leaves.iter().map(Vec::as_slice).collect();
        check(what, &chunks, &oracle(&leaves));
    }

    // 17 to 40 mixed leaves, from empty to 74 blocks, at base offsets
    // 0, 1 and 63: refills with every lane at a different block.
    for count in [17usize, 23, 31, 40] {
        let leaves: Vec<Vec<u8>> = (0..count)
            .map(|i| fill((i * 7_919 + count * 131) % 4_800, 400 + i))
            .collect();
        let want = oracle(&leaves);
        for offset in [0usize, 1, 63] {
            let moved: Vec<Vec<u8>> =
                leaves.iter().map(|m| [&vec![0u8; offset][..], &m[..]].concat()).collect();
            let chunks: Vec<&[u8]> = moved.iter().map(|m| &m[offset..]).collect();
            check(&format!("{count} mixed leaves at offset {offset}"), &chunks, &want);
        }
    }
}

#[test]
fn crc_preserving_flip_evades_crc_and_not_sha256_on_every_kernel() {
    let Implementations { crc32: crcs, sha256: shas, .. } = implementations();
    // Long enough that the flip lands inside the folded region of the
    // carry-less-multiply kernel as well as in its table-driven tail.
    let base = fill(1000, 3);
    for offset in [0usize, 1, 63, 64, 500, 960, 995] {
        let mut tampered = base.clone();
        crc_preserving_flip(&mut tampered, offset);
        assert_ne!(tampered, base);
        for (name, kernel) in &crcs {
            assert_eq!(
                crc_with(kernel, &[&tampered]),
                crc_with(kernel, &[&base]),
                "crc kernel {name} must not see the flip at {offset}"
            );
        }
        for (name, kernel) in &shas {
            assert_ne!(
                sha_with(kernel, &[&tampered]),
                sha_with(kernel, &[&base]),
                "sha kernel {name} must see the flip at {offset}"
            );
        }
    }
}

/// The one-shot functions and the default constructors run the selected
/// kernel; they must agree with the list too.
#[test]
fn public_one_shots_agree_with_the_listed_kernels() {
    let Implementations { crc32: crcs, sha256: shas, leaf_batch: batches } = implementations();
    let data = fill(10_000, 4);
    for (name, kernel) in &crcs {
        assert_eq!(crc32(&data), crc_with(kernel, &[&data]), "{name}");
    }
    for (name, kernel) in &shas {
        assert_eq!(sha256(&data), sha_with(kernel, &[&data]), "{name}");
    }
    // 40 leaves of 250 bytes: two full kernel calls and a run of eight.
    let chunks: Vec<&[u8]> = data.chunks(250).collect();
    let mut want = vec![[0u8; 32]; chunks.len()];
    leaf_hashes_into(&chunks, &mut want);
    assert_eq!(want, chunks.iter().map(|c| leaf_hash(c)).collect::<Vec<_>>());
    for (name, batch) in &batches {
        let mut got = vec![[0u8; 32]; chunks.len()];
        batch.hash_into(&chunks, &mut got);
        assert_eq!(got, want, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random `update` split sequences ≡ one-shot, on every kernel, from
    /// a random base offset.
    #[test]
    fn random_update_splits_match_one_shot(
        len in 0usize..6000,
        offset in 0usize..16,
        cuts in proptest::collection::vec(0usize..6000, 0..8),
        seed in 0usize..1000,
    ) {
        let backing = fill(len + offset, seed);
        let data = &backing[offset..];
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
        cuts.extend([0, len]);
        cuts.sort_unstable();
        let parts: Vec<&[u8]> = cuts.windows(2).map(|w| &data[w[0]..w[1]]).collect();

        let Implementations { crc32: crcs, sha256: shas, .. } = implementations();
        let want_crc = crc32_bitwise(data);
        for (name, kernel) in &crcs {
            prop_assert_eq!(crc_with(kernel, &parts), want_crc, "crc kernel {}", name);
        }
        let want_sha = sha256_textbook(data);
        for (name, kernel) in &shas {
            prop_assert_eq!(sha_with(kernel, &parts), want_sha, "sha kernel {}", name);
        }
    }
}
