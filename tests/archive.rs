//! Integration suite of the streaming archive subsystem: loss,
//! truncation and bit-flip scenarios against real files on disk.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use xorslp_ec::stream::{shard_file_name, Archive, ShardState, StreamError, HEADER_LEN};

/// A unique scratch directory per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xorslp_archive_test_{}_{tag}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn sample(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + i / 7 + 5) as u8).collect()
}

/// Create a multi-chunk archive and return (scratch, input path, dir).
fn setup(tag: &str, len: usize, n: usize, p: usize, chunk: usize) -> (Scratch, PathBuf, PathBuf) {
    let s = Scratch::new(tag);
    let input = s.path("input.bin");
    fs::write(&input, sample(len)).unwrap();
    let dir = s.path("shards");
    Archive::create(&input, &dir, n, p, chunk).unwrap();
    (s, input, dir)
}

fn assert_extract_identical(dir: &Path, input: &Path, out_name: &str) {
    let archive = Archive::open(dir).unwrap();
    let out = dir.join(out_name);
    archive.extract(&out).unwrap();
    assert_eq!(fs::read(input).unwrap(), fs::read(&out).unwrap());
    fs::remove_file(out).unwrap();
}

#[test]
fn roundtrip_and_self_description() {
    // Unaligned length, tail chunk smaller than the others.
    let (_s, input, dir) = setup("roundtrip", 5 * 64 * 1024 + 12347, 6, 3, 64 * 1024);
    let archive = Archive::open(&dir).unwrap();
    let m = archive.meta();
    assert_eq!((m.data_shards, m.parity_shards), (6, 3));
    assert_eq!(m.original_len, 5 * 64 * 1024 + 12347);
    assert_eq!(m.chunk_count, 6);
    assert!(archive.verify().unwrap().all_ok());
    assert!(archive.scrub().unwrap().clean());
    assert_extract_identical(&dir, &input, "restored.bin");
}

#[test]
fn survives_loss_of_any_p_shard_files() {
    let (_s, input, dir) = setup("losses", 4 * 4096 * 2 + 99, 4, 2, 4 * 4096);
    let pristine: Vec<Vec<u8>> =
        (0..6).map(|i| fs::read(dir.join(shard_file_name(i))).unwrap()).collect();
    for a in 0..6 {
        for b in a + 1..6 {
            fs::remove_file(dir.join(shard_file_name(a))).unwrap();
            fs::remove_file(dir.join(shard_file_name(b))).unwrap();

            // Extraction works from the survivors alone…
            assert_extract_identical(&dir, &input, "restored.bin");

            // …and repair restores the exact original shard files.
            let archive = Archive::open(&dir).unwrap();
            let report = archive.verify().unwrap();
            assert_eq!(report.damaged(), vec![a, b], "lost {a},{b}");
            assert_eq!(report.shards[a], ShardState::Missing);
            let rep = archive.repair().unwrap();
            assert_eq!(rep.repaired, vec![a, b]);
            assert!(archive.verify().unwrap().all_ok(), "after repair of {a},{b}");
            for (i, want) in pristine.iter().enumerate() {
                assert_eq!(
                    &fs::read(dir.join(shard_file_name(i))).unwrap(),
                    want,
                    "shard {i} after losing {a},{b}"
                );
            }
        }
    }
}

#[test]
fn truncation_is_flagged_and_repaired() {
    let (_s, input, dir) = setup("truncate", 3 * 8192 + 17, 3, 2, 8192);
    let victim = dir.join(shard_file_name(1));
    let pristine = fs::read(&victim).unwrap();
    // Cut the file mid-frame.
    let f = fs::OpenOptions::new().write(true).open(&victim).unwrap();
    f.set_len(pristine.len() as u64 - (pristine.len() as u64 - HEADER_LEN as u64) / 2)
        .unwrap();
    drop(f);

    let archive = Archive::open(&dir).unwrap();
    let report = archive.verify().unwrap();
    assert_eq!(report.damaged(), vec![1]);
    assert!(
        matches!(report.shards[1], ShardState::WrongLength { .. }),
        "{:?}",
        report.shards[1]
    );
    // The truncated shard's surviving leading chunks are still used as
    // sources; repair rebuilds only what is actually gone.
    archive.repair().unwrap();
    assert_eq!(fs::read(&victim).unwrap(), pristine);
    assert!(archive.verify().unwrap().all_ok());
    assert_extract_identical(&dir, &input, "restored.bin");
}

#[test]
fn payload_bit_flip_is_flagged_per_chunk_and_repaired() {
    let (_s, input, dir) = setup("bitflip", 4 * 2048 * 3 + 100, 4, 2, 4 * 2048);
    let archive = Archive::open(&dir).unwrap();
    let m = *archive.meta();
    assert_eq!(m.chunk_count, 4);
    let victim = dir.join(shard_file_name(5));
    let pristine = fs::read(&victim).unwrap();

    // Flip one byte in chunk 2's payload of parity shard 5.
    let offset: usize =
        HEADER_LEN + 2 * (m.slice_len(0) + 4) + m.slice_len(2) / 2;
    let mut bytes = pristine.clone();
    bytes[offset] ^= 0x01;
    fs::write(&victim, &bytes).unwrap();

    let report = archive.verify().unwrap();
    assert_eq!(report.damaged(), vec![5]);
    assert_eq!(report.shards[5], ShardState::Corrupt { chunks: vec![2] });
    // Scrub agrees and reports no CRC-evading inconsistency.
    let scrub = archive.scrub().unwrap();
    assert!(!scrub.clean());
    assert!(scrub.inconsistent_chunks.is_empty());

    let rep = archive.repair().unwrap();
    assert_eq!(rep.repaired, vec![5]);
    assert_eq!(rep.chunks_rebuilt, 1, "only the flipped chunk reconstructs");
    assert_eq!(fs::read(&victim).unwrap(), pristine);
    assert_extract_identical(&dir, &input, "restored.bin");
}

#[test]
fn header_corruption_is_flagged_and_repaired() {
    let (_s, input, dir) = setup("header", 2 * 4096 + 5, 4, 2, 4096);
    let victim = dir.join(shard_file_name(0));
    let pristine = fs::read(&victim).unwrap();
    let mut bytes = pristine.clone();
    bytes[12] ^= 0xFF; // n field — CRC catches it
    fs::write(&victim, &bytes).unwrap();

    let archive = Archive::open(&dir).unwrap();
    let m = archive.meta();
    assert_eq!((m.data_shards, m.parity_shards), (4, 2), "majority vote wins");
    let report = archive.verify().unwrap();
    assert_eq!(report.shards[0], ShardState::BadHeader);
    archive.repair().unwrap();
    assert_eq!(fs::read(&victim).unwrap(), pristine);
    assert_extract_identical(&dir, &input, "restored.bin");
}

#[test]
fn single_parity_loss_repairs_via_row_subset_program() {
    let (_s, _input, dir) = setup("partial", 6 * 1024 * 2, 6, 3, 6 * 1024);
    fs::remove_file(dir.join(shard_file_name(7))).unwrap(); // parity row 1

    let archive = Archive::open(&dir).unwrap();
    assert_eq!(archive.codec().programs(), 0);
    archive.repair().unwrap();
    // The repair compiled exactly one program, the row-subset program,
    // instead of the full p-row encode (and no decode program: no data
    // shard is lost).
    assert_eq!(archive.codec().programs(), 1);
    assert!(archive.verify().unwrap().all_ok());
}

#[test]
fn more_than_p_losses_is_a_typed_error() {
    let (_s, _input, dir) = setup("toomany", 4 * 1024, 4, 2, 1024);
    for i in [0, 2, 5] {
        fs::remove_file(dir.join(shard_file_name(i))).unwrap();
    }
    let archive = Archive::open(&dir).unwrap();
    assert!(matches!(
        archive.repair(),
        Err(StreamError::TooDamaged { missing: 3, parity: 2, .. })
    ));
    assert!(matches!(
        archive.extract(&dir.join("out.bin")),
        Err(StreamError::TooDamaged { .. })
    ));
    // No half-written repair artifacts left behind.
    assert!(fs::read_dir(&dir)
        .unwrap()
        .all(|e| !e.unwrap().file_name().to_string_lossy().ends_with(".tmp")));
}

#[test]
fn create_is_safe_against_typos_and_stale_shards() {
    // A failed create (mistyped input path) must not touch an existing
    // archive in the target directory.
    let (_s, input, dir) = setup("createsafe", 4096, 2, 2, 1024);
    let pristine: Vec<Vec<u8>> =
        (0..4).map(|i| fs::read(dir.join(shard_file_name(i))).unwrap()).collect();
    assert!(Archive::create(&dir.join("no-such-input.bin"), &dir, 2, 2, 1024).is_err());
    for (i, want) in pristine.iter().enumerate() {
        assert_eq!(
            &fs::read(dir.join(shard_file_name(i))).unwrap(),
            want,
            "shard {i} touched by failed create"
        );
    }
    // Re-creating with a smaller shard count removes the stale tail
    // files, so the directory holds exactly one archive afterwards.
    Archive::create(&input, &dir, 2, 1, 2048).unwrap();
    assert!(!dir.join(shard_file_name(3)).exists(), "stale shard left behind");
    let archive = Archive::open(&dir).unwrap();
    assert_eq!(archive.meta().total_shards(), 3);
    assert!(archive.verify().unwrap().all_ok());
}

#[test]
fn mixed_generation_tie_is_refused_not_guessed() {
    // Two archives with equal shard counts interleaved in one directory:
    // open() must refuse the 2-vs-2 header tie instead of picking a side
    // (repairing under the wrong metadata would destroy good shards).
    let (_s, _input, dir) = setup("tie", 4096, 2, 2, 1024);
    let s2 = Scratch::new("tie_other");
    let input2 = s2.path("other.bin");
    fs::write(&input2, sample(8000)).unwrap();
    let dir2 = s2.path("shards");
    Archive::create(&input2, &dir2, 2, 2, 2048).unwrap();
    for i in 0..2 {
        fs::copy(dir2.join(shard_file_name(i)), dir.join(shard_file_name(i))).unwrap();
    }
    match Archive::open(&dir) {
        Err(StreamError::Format(msg)) => assert!(msg.contains("ambiguous"), "{msg}"),
        other => panic!("expected ambiguity error, got {:?}", other.map(|a| *a.meta())),
    }
    // A 3-vs-1 split is damage, not ambiguity: majority wins.
    fs::copy(dir2.join(shard_file_name(2)), dir.join(shard_file_name(2))).unwrap();
    let archive = Archive::open(&dir).unwrap();
    assert_eq!(archive.meta().chunk_size, 2048);
}

#[test]
fn empty_file_archives_and_restores() {
    let (_s, input, dir) = setup("empty", 0, 4, 2, 4096);
    let archive = Archive::open(&dir).unwrap();
    assert_eq!(archive.meta().chunk_count, 0);
    assert!(archive.verify().unwrap().all_ok());
    assert!(archive.scrub().unwrap().clean());
    assert_extract_identical(&dir, &input, "restored.bin");
}

#[test]
fn damage_across_different_shards_in_different_chunks_repairs() {
    // Corruption budget is per *chunk*, not per archive: with p = 1,
    // two different shards damaged in two different chunks still repair.
    let (_s, input, dir) = setup("disjoint", 3 * 1024 * 4, 3, 1, 3 * 1024);
    let m = *Archive::open(&dir).unwrap().meta();
    assert_eq!(m.chunk_count, 4);
    let frame = m.slice_len(0) + 4;
    // shard 0 bad in chunk 1, shard 2 bad in chunk 3.
    for (shard, chunk) in [(0usize, 1usize), (2, 3)] {
        let path = dir.join(shard_file_name(shard));
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_LEN + chunk * frame + 7] ^= 0x20;
        fs::write(&path, bytes).unwrap();
    }
    let archive = Archive::open(&dir).unwrap();
    assert_eq!(archive.verify().unwrap().damaged(), vec![0, 2]);
    let rep = archive.repair().unwrap();
    assert_eq!(rep.repaired, vec![0, 2]);
    assert_eq!(rep.chunks_rebuilt, 2);
    assert!(archive.verify().unwrap().all_ok());
    assert_extract_identical(&dir, &input, "restored.bin");
}
