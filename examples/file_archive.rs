//! Archive a file into self-describing shard files, destroy and corrupt
//! some, then scrub, repair and restore — erasure coding as a
//! cold-storage tool, on the streaming [`Archive`] API.
//!
//! ```text
//! cargo run --release --example file_archive [path-to-file]
//! ```
//!
//! Without an argument, a demo file is generated. Everything below runs
//! in bounded memory (`O(chunk × (n + p))`), so the input can be far
//! larger than RAM.

use std::fs;
use std::path::PathBuf;
use xorslp_ec::stream::{shard_file_name, Archive};

const N: usize = 6;
const P: usize = 3;
const CHUNK: usize = 256 * 1024;

fn main() -> std::io::Result<()> {
    let work = std::env::temp_dir().join("xorslp_ec_archive_demo");
    let _ = fs::remove_dir_all(&work);
    fs::create_dir_all(&work)?;

    // Input: argument or generated demo payload.
    let input: PathBuf = match std::env::args().nth(1) {
        Some(p) => PathBuf::from(p),
        None => {
            let p = work.join("demo.bin");
            let payload: Vec<u8> = (0..2_000_003u32).map(|i| (i * 57 + 13) as u8).collect();
            fs::write(&p, payload)?;
            p
        }
    };

    // ---- create ----------------------------------------------------------
    let dir = work.join("shards");
    let archive = Archive::create(&input, &dir, N, P, CHUNK).expect("create");
    let meta = *archive.meta();
    println!(
        "archived {} ({} bytes) as RS({N}, {P}): {} chunks of {} bytes, {} shard files under {}",
        input.display(),
        meta.original_len,
        meta.chunk_count,
        meta.chunk_size,
        meta.total_shards(),
        dir.display()
    );
    drop(archive); // everything below reopens from the shard files alone

    // ---- disaster strikes ------------------------------------------------
    // Delete two shard files outright…
    for i in [0, 7] {
        fs::remove_file(dir.join(shard_file_name(i)))?;
        println!("deleted   {}", shard_file_name(i));
    }
    // …and flip bytes inside a third (silent bit rot). Offsets are
    // clamped to the file so tiny inputs (whose shard files are nearly
    // all header) still demo scrub → repair instead of panicking.
    let victim = dir.join(shard_file_name(4));
    let mut bytes = fs::read(&victim)?;
    let len = bytes.len();
    let mut flipped = 0;
    for off in [
        xorslp_ec::stream::HEADER_LEN,
        len / 2,
        len.saturating_sub(9),
    ] {
        if off < len {
            bytes[off] ^= 0x11;
            flipped += 1;
        }
    }
    fs::write(&victim, bytes)?;
    println!("corrupted {} ({flipped} bytes flipped)", shard_file_name(4));

    // ---- scrub: the damage is pinpointed, not just detected --------------
    let archive = Archive::open(&dir).expect("open from surviving shards");
    let report = archive.scrub().expect("scrub");
    println!("\nscrub report:");
    for (i, state) in report.verify.shards.iter().enumerate() {
        println!("  shard {i:3}: {state}");
    }
    assert!(!report.clean());

    // ---- repair: rebuilt from the survivors, chunk by chunk --------------
    let rep = archive.repair().expect("repair");
    println!(
        "\nrepaired shard files {:?} ({} chunks reconstructed)",
        rep.repaired, rep.chunks_rebuilt
    );
    assert!(archive.verify().expect("verify").all_ok());
    println!("verify: all {} shards ok", meta.total_shards());

    // ---- extract ---------------------------------------------------------
    let restored = work.join("restored.bin");
    archive.extract(&restored).expect("extract");
    assert!(
        files_identical(&input, &restored)?,
        "restored file differs!"
    );
    println!("restored file is bit-identical ✓ ({})", restored.display());
    Ok(())
}

/// Streaming comparison — the input may be larger than RAM, and the
/// whole demo keeps that bound.
fn files_identical(a: &std::path::Path, b: &std::path::Path) -> std::io::Result<bool> {
    let mut ra = std::io::BufReader::new(fs::File::open(a)?);
    let mut rb = std::io::BufReader::new(fs::File::open(b)?);
    let (mut ba, mut bb) = ([0u8; 8192], [0u8; 8192]);
    loop {
        let na = read_full(&mut ra, &mut ba)?;
        let nb = read_full(&mut rb, &mut bb)?;
        if na != nb || ba[..na] != bb[..nb] {
            return Ok(false);
        }
        if na == 0 {
            return Ok(true);
        }
    }
}

/// Fill `buf` as far as the reader allows (loop over short reads).
fn read_full(r: &mut impl std::io::Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..])? {
            0 => break,
            got => n += got,
        }
    }
    Ok(n)
}
