//! `xorslp-archive` — streaming erasure-coded archives from the command
//! line.
//!
//! ```text
//! xorslp-archive create  <input> <dir> [-n N] [-p P] [--chunk BYTES] [--codec NAME]
//! xorslp-archive info    <dir>
//! xorslp-archive verify  <dir>
//! xorslp-archive scrub   <dir>
//! xorslp-archive repair  <dir>
//! xorslp-archive extract <dir> <output>
//! ```
//!
//! `verify` and `scrub` exit 1 when damage is found (repairable with
//! `repair`), 2 on hard errors — script-friendly for cron-style
//! integrity sweeps.

use ec_core::CodecSpec;
use ec_stream::{Archive, ShardState, StreamError};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
xorslp-archive — streaming erasure-coded archives (XOR-SLP codecs)

USAGE:
    xorslp-archive create  <input> <dir> [-n N] [-p P] [--chunk BYTES] [--codec NAME]
    xorslp-archive info    <dir>
    xorslp-archive verify  <dir>
    xorslp-archive scrub   <dir>
    xorslp-archive repair  <dir>
    xorslp-archive extract <dir> <output>

VERBS:
    create    split <input> into N data + P parity shard files under <dir>
              (defaults: -n 6 -p 3 --chunk 1048576 --codec rs;
               codecs: rs, evenodd, rdp, lrc, lrc:<r>)
    info      print the archive's self-described parameters
    verify    check headers, lengths and per-chunk CRCs; exit 1 on damage
    scrub     verify + full parity-consistency scan; exit 1 on damage
    repair    rebuild damaged shard files from the survivors
    extract   restore the original file from the surviving shards
";

/// Command-line mistakes and archive failures are different error
/// channels: a missing argument must print usage, not "invalid archive
/// format".
enum CliError {
    Usage(String),
    Stream(StreamError),
}

impl From<StreamError> for CliError {
    fn from(e: StreamError) -> Self {
        CliError::Stream(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Stream(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(verb) = args.first() else {
        print!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    match verb.as_str() {
        "create" => create(&args[1..]),
        "info" => info(&args[1..]),
        "verify" => verify(&args[1..], false),
        "scrub" => verify(&args[1..], true),
        "repair" => repair(&args[1..]),
        "extract" => extract(&args[1..]),
        "-h" | "--help" | "help" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => {
            eprintln!("unknown verb `{other}`\n\n{USAGE}");
            Ok(ExitCode::from(2))
        }
    }
}

fn parse_num(args: &[String], i: &mut usize, flag: &str) -> Result<usize, CliError> {
    *i += 1;
    args.get(*i)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CliError::Usage(format!("{flag} needs a numeric argument")))
}

fn create(args: &[String]) -> Result<ExitCode, CliError> {
    let mut positional: Vec<&String> = Vec::new();
    let (mut n, mut p, mut chunk) = (6usize, 3usize, 1 << 20);
    let mut codec_name = String::from("rs");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-n" => n = parse_num(args, &mut i, "-n")?,
            "-p" => p = parse_num(args, &mut i, "-p")?,
            "--chunk" => chunk = parse_num(args, &mut i, "--chunk")?,
            "--codec" => {
                i += 1;
                codec_name = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--codec needs a name".into()))?
                    .clone();
            }
            _ => positional.push(&args[i]),
        }
        i += 1;
    }
    let [input, dir] = positional[..] else {
        return Err(CliError::Usage("create needs <input> and <dir>".into()));
    };
    let spec = CodecSpec::parse(&codec_name, n, p)
        .map_err(|e| CliError::Usage(format!("--codec: {e}")))?;
    let archive = Archive::create_with_spec(Path::new(input), Path::new(dir), &spec, chunk)?;
    let m = archive.meta();
    println!(
        "archived {input} ({} bytes) as {}({n}, {p}) × {} chunks of {} bytes under {dir}",
        m.original_len,
        spec.name(),
        m.chunk_count,
        m.chunk_size
    );
    println!(
        "{} shard files of {} bytes each (overhead {:.1}%)",
        m.total_shards(),
        m.shard_file_len(),
        overhead_pct(m.original_len, m.total_shards() as u64 * m.shard_file_len()),
    );
    Ok(ExitCode::SUCCESS)
}

fn overhead_pct(original: u64, stored: u64) -> f64 {
    if original == 0 {
        return 0.0;
    }
    (stored as f64 / original as f64 - 1.0) * 100.0
}

fn open(args: &[String], verb: &str) -> Result<(Archive, PathBuf), CliError> {
    let [dir] = args else {
        return Err(CliError::Usage(format!("{verb} needs <dir>")));
    };
    Ok((Archive::open(Path::new(dir))?, PathBuf::from(dir)))
}

fn info(args: &[String]) -> Result<ExitCode, CliError> {
    let (archive, dir) = open(args, "info")?;
    let m = archive.meta();
    let codec = m
        .codec_spec()
        .map(|s| s.name())
        .unwrap_or_else(|e| format!("<invalid: {e}>"));
    println!("archive:       {}", dir.display());
    println!(
        "code:          {codec}({}, {})",
        m.data_shards, m.parity_shards
    );
    println!("original size: {} bytes", m.original_len);
    println!("chunk size:    {} bytes", m.chunk_size);
    println!("chunks:        {}", m.chunk_count);
    println!("shard file:    {} bytes each", m.shard_file_len());
    match archive.elected_roots() {
        Some((shard_roots, object_root)) => {
            println!("object root:   {}", ec_wire::hash_hex(&object_root));
            for (i, r) in shard_roots.iter().enumerate() {
                println!("  shard {i:3} root: {}", ec_wire::hash_hex(r));
            }
        }
        None => println!("object root:   <no quorum among hash trailers>"),
    }
    Ok(ExitCode::SUCCESS)
}

fn print_states(states: &[ShardState]) {
    for (i, s) in states.iter().enumerate() {
        println!("  shard {i:3}: {s}");
    }
}

fn verify(args: &[String], deep: bool) -> Result<ExitCode, CliError> {
    let (archive, _) = open(args, if deep { "scrub" } else { "verify" })?;
    if deep {
        let report = archive.scrub()?;
        print_states(&report.verify.shards);
        if !report.inconsistent_chunks.is_empty() {
            println!(
                "  parity inconsistent in {} chunks: {:?}",
                report.inconsistent_chunks.len(),
                report.inconsistent_chunks
            );
        }
        if report.clean() {
            println!("scrub clean");
            return Ok(ExitCode::SUCCESS);
        }
        if report.verify.all_ok() {
            // Every CRC passes yet data and parity disagree: the
            // checksums cannot say *which* shard lies, so `repair` (which
            // trusts CRC-clean slices) cannot fix this.
            println!(
                "parity inconsistency with all checksums passing — not auto-repairable; \
                 restore the affected chunks from a trusted copy"
            );
            return Ok(ExitCode::from(1));
        }
    } else {
        let report = archive.verify()?;
        print_states(&report.shards);
        if report.all_ok() {
            println!("all shards ok");
            return Ok(ExitCode::SUCCESS);
        }
    }
    println!("damage found — run `xorslp-archive repair`");
    Ok(ExitCode::from(1))
}

fn repair(args: &[String]) -> Result<ExitCode, CliError> {
    let (archive, _) = open(args, "repair")?;
    let report = archive.repair()?;
    if report.repaired.is_empty() {
        println!("nothing to repair");
    } else {
        println!(
            "rewrote {} shard files {:?} ({} chunks reconstructed)",
            report.repaired.len(),
            report.repaired,
            report.chunks_rebuilt
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn extract(args: &[String]) -> Result<ExitCode, CliError> {
    let [dir, output] = args else {
        return Err(CliError::Usage("extract needs <dir> and <output>".into()));
    };
    let archive = Archive::open(Path::new(dir))?;
    let report = archive.extract(Path::new(output))?;
    println!(
        "extracted {} bytes to {output} ({} chunks, {} erasure-decoded, {} frame bytes read, {})",
        report.bytes_written,
        report.chunks,
        report.chunks_repaired,
        report.bytes_read,
        if report.hash_verified {
            "hash-verified"
        } else {
            "CRC-only"
        }
    );
    Ok(ExitCode::SUCCESS)
}
