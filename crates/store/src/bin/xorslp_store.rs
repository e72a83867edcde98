//! `xorslp-store` — the networked erasure-coded object store from the
//! command line.
//!
//! ```text
//! xorslp-store serve  <dir> <addr> [--workers N]
//! xorslp-store put    <cluster> <object> <file>   [-n N] [-p P]
//! xorslp-store get    <cluster> <object> <file>   [-n N] [-p P]
//! xorslp-store ...
//! ```
//!
//! `<cluster>` is a comma-separated list of node addresses; the same
//! list (same order) must be given to every client so rendezvous
//! placement agrees.
//!
//! Fault tests crash a client mid-write through the environment:
//! `XORSLP_FAILPOINT="<point>=<k>"` installs a [`FailPoint`] that fails
//! `point` at every index `>= k` (e.g. `put.shard=2` dies after two
//! shard writes, before the manifest publishes).

use ec_core::CodecSpec;
use ec_store::{
    Cluster, FailPoint, NodeHandle, NodeOptions, OverwriteMode, ShardOutcome, StoreError,
};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
xorslp-store — networked erasure-coded object store over XOR SLPs

USAGE:
    xorslp-store serve     <dir> <addr> [--workers N] [--delay-ms N [--delay-prefix P]]
    xorslp-store put       <cluster> <object> <file> [GEOMETRY]
    xorslp-store get       <cluster> <object> <file> [--verbose] [GEOMETRY]
    xorslp-store overwrite <cluster> <object> <file> [GEOMETRY]
    xorslp-store delete    <cluster> <object>        [GEOMETRY]
    xorslp-store list      <cluster> [--verbose]     [GEOMETRY]
    xorslp-store health    <cluster>                 [GEOMETRY]
    xorslp-store scrub     <cluster> [--repair] [--deep] [--gc-grace SECS] [GEOMETRY]
    xorslp-store repair    <cluster> --dead ADDR [--replacement ADDR]
                           [--dead ADDR [--replacement ADDR]]... [GEOMETRY]

ARGS:
    <cluster>  comma-separated node addresses, e.g. 127.0.0.1:7501,127.0.0.1:7502
    GEOMETRY   [-n N] [-p P] [--codec NAME] — shard counts (defaults:
               -n 3 -p 2) and codec family (rs, evenodd, rdp, lrc,
               lrc:<r>; default rs); must match across all clients and
               the codec each object was stored under

VERBS:
    serve      run a shard node: store blobs under <dir>, listen on <addr>
               (--workers: serving loops, one thread each, default 4;
               --delay-ms: hold every response N ms — a latency shim for
               benchmarks; --delay-prefix: only for keys starting with P)
    put        erasure-code <file> across the cluster as <object>
    get        fetch <object> into <file>: the N data shards are fetched,
               a parity shard only as the backup for a failed or
               straggling one, and the read completes as soon as what it
               was served decodes; degrades over up to P dead nodes
               (--verbose: per-shard outcome and timing)
    overwrite  replace <object> with <file>, shipping deltas when possible
    delete     remove <object> from all nodes
    list       all objects known to the cluster (--verbose: the object's
               Merkle root and per-shard roots)
    health     per-node liveness and usage
    scrub      verify every object end-to-end; exit 1 on damage.
               Objects verify incrementally: 32-byte Merkle
               roots are compared and mismatches descended to the exact
               damaged leaves, moving zero payload bytes when healthy
               (--deep: force the full-read data↔parity re-encode;
               --repair: rebuild damaged shards in place first). Each
               scrub ends with the generation GC: shard keys no live
               manifest references — superseded by a later write, or
               orphaned by a crashed one — are collected once older
               than the grace window (--gc-grace SECS, default 300;
               0 collects immediately — safe only with no writer
               mid-put)
    repair     rebuild dead nodes' shards onto their --replacement (default:
               the same address, e.g. after restarting it empty); repeat
               --dead/--replacement pairs to repair several nodes in one
               batch pass that reads each survivor once
";

enum CliError {
    Usage(String),
    Store(StoreError),
}

impl From<StoreError> for CliError {
    fn from(e: StoreError) -> Self {
        CliError::Store(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Store(StoreError::Io(e))
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
        Err(CliError::Store(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parsed common options: positional args, geometry, named flags.
struct Opts {
    positional: Vec<String>,
    n: usize,
    p: usize,
    codec: String,
    workers: usize,
    repair: bool,
    verbose: bool,
    deep: bool,
    gc_grace: Option<u64>,
    delay_ms: Option<u64>,
    delay_prefix: Option<String>,
    dead: Vec<String>,
    replacement: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, CliError> {
    let mut opts = Opts {
        positional: Vec::new(),
        n: 3,
        p: 2,
        codec: "rs".to_string(),
        workers: 0,
        repair: false,
        verbose: false,
        deep: false,
        gc_grace: None,
        delay_ms: None,
        delay_prefix: None,
        dead: Vec::new(),
        replacement: Vec::new(),
    };
    let mut i = 0;
    let num = |args: &[String], i: &mut usize, flag: &str| -> Result<usize, CliError> {
        *i += 1;
        args.get(*i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a numeric argument")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "-n" => opts.n = num(args, &mut i, "-n")?,
            "-p" => opts.p = num(args, &mut i, "-p")?,
            "--workers" => opts.workers = num(args, &mut i, "--workers")?,
            "--codec" => {
                i += 1;
                opts.codec = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--codec needs a name".into()))?
                    .clone();
            }
            "--repair" => opts.repair = true,
            "--verbose" => opts.verbose = true,
            "--deep" => opts.deep = true,
            "--gc-grace" => opts.gc_grace = Some(num(args, &mut i, "--gc-grace")? as u64),
            "--delay-ms" => opts.delay_ms = Some(num(args, &mut i, "--delay-ms")? as u64),
            "--delay-prefix" => {
                i += 1;
                opts.delay_prefix = Some(
                    args.get(i)
                        .ok_or_else(|| CliError::Usage("--delay-prefix needs a key prefix".into()))?
                        .clone(),
                );
            }
            "--dead" | "--replacement" => {
                let flag = args[i].clone();
                i += 1;
                let value = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage(format!("{flag} needs an address")))?
                    .clone();
                if flag == "--dead" {
                    opts.dead.push(value);
                } else {
                    opts.replacement.push(value);
                }
            }
            other => opts.positional.push(other.to_string()),
        }
        i += 1;
    }
    Ok(opts)
}

fn cluster_from(opts: &Opts, which: usize) -> Result<Cluster, CliError> {
    let spec = opts
        .positional
        .get(which)
        .ok_or_else(|| CliError::Usage("missing <cluster> argument".into()))?;
    let nodes: Vec<String> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    let codec = CodecSpec::parse(&opts.codec, opts.n, opts.p)
        .map_err(|e| CliError::Usage(format!("--codec: {e}")))?;
    let mut cluster = Cluster::with_spec(nodes, &codec)?.with_timeout(Duration::from_secs(10));
    if let Some(secs) = opts.gc_grace {
        cluster = cluster.with_gc_grace(Duration::from_secs(secs));
    }
    if let Ok(spec) = std::env::var("XORSLP_FAILPOINT") {
        cluster = cluster.with_failpoint(failpoint(&spec)?);
    }
    Ok(cluster)
}

/// The hook `XORSLP_FAILPOINT="<point>=<k>"` asks for. A malformed spec
/// is a usage error: it must not silently disable the crash a test
/// asked for.
fn failpoint(spec: &str) -> Result<FailPoint, CliError> {
    let parsed = spec
        .split_once('=')
        .and_then(|(point, k)| Some((point.trim().to_string(), k.trim().parse::<usize>().ok()?)));
    let Some((point, k)) = parsed else {
        return Err(CliError::Usage(format!(
            "XORSLP_FAILPOINT `{spec}`: want <point>=<k>"
        )));
    };
    Ok(Arc::new(move |p: &str, index: usize| {
        p == point && index >= k
    }))
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(verb) = args.first() else {
        print!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    let opts = parse_opts(&args[1..])?;
    match verb.as_str() {
        "serve" => serve(&opts),
        "put" => put(&opts),
        "get" => get(&opts),
        "overwrite" => overwrite(&opts),
        "delete" => delete(&opts),
        "list" => list(&opts),
        "health" => health(&opts),
        "scrub" => scrub(&opts),
        "repair" => repair(&opts),
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

fn serve(opts: &Opts) -> Result<ExitCode, CliError> {
    let [dir, addr] = &opts.positional[..] else {
        return Err(CliError::Usage("serve needs <dir> and <addr>".into()));
    };
    let node = NodeHandle::spawn_with(
        Path::new(dir),
        addr,
        NodeOptions {
            workers: opts.workers,
            response_delay: opts.delay_ms.map(Duration::from_millis),
            delay_key_prefix: opts.delay_prefix.clone(),
        },
    )?;
    match opts.delay_ms {
        Some(ms) => println!(
            "serving {dir} on {} (responses delayed {ms} ms{})",
            node.addr(),
            opts.delay_prefix
                .as_deref()
                .map(|p| format!(" for keys starting `{p}`"))
                .unwrap_or_default()
        ),
        None => println!("serving {dir} on {}", node.addr()),
    }
    // Serve until killed; the serving loops do all the work.
    loop {
        std::thread::park();
    }
}

fn object_file(opts: &Opts, verb: &str) -> Result<(String, String), CliError> {
    match &opts.positional[..] {
        [_cluster, object, file] => Ok((object.clone(), file.clone())),
        _ => Err(CliError::Usage(format!(
            "{verb} needs <cluster>, <object> and <file>"
        ))),
    }
}

fn put(opts: &Opts) -> Result<ExitCode, CliError> {
    let cluster = cluster_from(opts, 0)?;
    let (object, file) = object_file(opts, "put")?;
    let data = std::fs::read(&file)?;
    let report = cluster.put(&object, &data)?;
    println!(
        "stored `{object}` ({} bytes) under {} as {} shards of {} bytes \
         (manifest on {} nodes)",
        data.len(),
        cluster.codec().spec().name(),
        report.shards_written,
        report.shard_len,
        report.manifest_replicas
    );
    Ok(ExitCode::SUCCESS)
}

fn get(opts: &Opts) -> Result<ExitCode, CliError> {
    let cluster = cluster_from(opts, 0)?;
    let (object, file) = object_file(opts, "get")?;
    let (data, report) = cluster.get_with_report(&object)?;
    // Temp-then-rename: a mid-write failure (disk full, kill) must not
    // clobber a pre-existing output file.
    let tmp = format!("{file}.{}.tmp", std::process::id());
    std::fs::write(&tmp, &data)?;
    if let Err(e) = std::fs::rename(&tmp, &file) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    if report.degraded() {
        println!(
            "fetched `{object}` ({} bytes) DEGRADED — reconstructed around \
             missing shards {:?}",
            data.len(),
            report.missing
        );
    } else {
        println!(
            "fetched `{object}` ({} bytes), all shards healthy",
            data.len()
        );
    }
    if opts.verbose {
        println!("  integrity: every served shard verified against its manifest Merkle root");
        for fetch in &report.shards {
            let elapsed = fetch
                .elapsed
                .map(|d| format!("{:.1} ms", d.as_secs_f64() * 1e3))
                .unwrap_or_else(|| "-".into());
            let outcome = match &fetch.outcome {
                ShardOutcome::Served => "served".to_string(),
                ShardOutcome::Abandoned => "abandoned (straggler)".to_string(),
                ShardOutcome::NotRequested => "not requested".to_string(),
                ShardOutcome::Dead(reason) => format!("dead: {reason}"),
                ShardOutcome::Corrupt(reason) => format!("corrupt: {reason}"),
            };
            println!(
                "  shard {:>2} @ {}  {elapsed:>10}  {outcome}",
                fetch.index, fetch.node
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn overwrite(opts: &Opts) -> Result<ExitCode, CliError> {
    let cluster = cluster_from(opts, 0)?;
    let (object, file) = object_file(opts, "overwrite")?;
    let data = std::fs::read(&file)?;
    let report = cluster.overwrite(&object, &data)?;
    match report.mode {
        OverwriteMode::Delta => println!(
            "delta overwrite of `{object}`: {} changed data shards, {} shards \
             read, {} shards shipped, {} XORs vs {} for a full re-encode \
             ({:.1}x cheaper)",
            report.changed.len(),
            report.shards_read,
            report.shards_written,
            report.xor_count,
            report.full_xor_count,
            report.full_xor_count as f64 / report.xor_count.max(1) as f64,
        ),
        OverwriteMode::Full => println!(
            "full overwrite of `{object}` ({} shards shipped)",
            report.shards_written
        ),
        OverwriteMode::NoChange => println!("`{object}` unchanged; nothing written"),
    }
    Ok(ExitCode::SUCCESS)
}

fn delete(opts: &Opts) -> Result<ExitCode, CliError> {
    let cluster = cluster_from(opts, 0)?;
    let object = opts
        .positional
        .get(1)
        .ok_or_else(|| CliError::Usage("delete needs <cluster> and <object>".into()))?;
    let removed = cluster.delete(object)?;
    println!("deleted `{object}` ({removed} shard blobs removed)");
    Ok(ExitCode::SUCCESS)
}

fn list(opts: &Opts) -> Result<ExitCode, CliError> {
    let cluster = cluster_from(opts, 0)?;
    let objects = cluster.objects()?;
    for object in &objects {
        match cluster.manifest(object) {
            Ok(m) => {
                let codec = m
                    .codec_spec()
                    .map(|s| s.name())
                    .unwrap_or_else(|e| format!("<invalid codec: {e}>"));
                println!(
                    "{object}  {codec}({}, {})  {} bytes",
                    m.data_shards, m.parity_shards, m.object_len
                );
                if opts.verbose {
                    println!(
                        "  object root {} ({} B leaves)",
                        hex(&m.object_root),
                        m.hash_leaf_size
                    );
                    for (i, root) in m.shard_root.iter().enumerate() {
                        println!("  shard {i:>2} root {}", hex(root));
                    }
                }
            }
            Err(e) => println!("{object}  <manifest unreadable: {e}>"),
        }
    }
    eprintln!("{} objects", objects.len());
    Ok(ExitCode::SUCCESS)
}

fn health(opts: &Opts) -> Result<ExitCode, CliError> {
    let cluster = cluster_from(opts, 0)?;
    let mut dead = 0;
    for (addr, health) in cluster.health().nodes {
        match health {
            Some(h) => println!("{addr}: alive, {} blobs, {} bytes", h.blobs, h.bytes),
            None => {
                println!("{addr}: UNREACHABLE");
                dead += 1;
            }
        }
    }
    Ok(if dead == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn scrub(opts: &Opts) -> Result<ExitCode, CliError> {
    let cluster = cluster_from(opts, 0)?;
    let run = |cluster: &Cluster| {
        if opts.deep {
            cluster.scrub_deep()
        } else {
            cluster.scrub()
        }
    };
    let report = if opts.repair {
        let (first, repairs) = cluster.scrub_and_repair()?;
        for (object, outcome) in &repairs {
            match outcome {
                Ok(report) => {
                    if report.hash_blobs_rewritten.is_empty() {
                        println!("repaired `{object}`: shards {:?}", report.repaired);
                    } else {
                        println!(
                            "repaired `{object}`: shards {:?}, hash blobs rewritten {:?}",
                            report.repaired, report.hash_blobs_rewritten
                        );
                    }
                }
                Err(reason) => println!("`{object}` NOT repaired: {reason}"),
            }
        }
        // Re-scrub so the exit code reflects the post-repair state;
        // fold in the GC work the first pass already did so the
        // printed tally covers the whole invocation.
        let mut report = run(&cluster)?;
        report.generations_collected += first.generations_collected;
        report.bytes_reclaimed += first.bytes_reclaimed;
        report
    } else {
        run(&cluster)?
    };
    for addr in &report.dead_nodes {
        println!("node {addr}: UNREACHABLE");
    }
    for object in &report.objects {
        if object.clean() {
            continue;
        }
        println!(
            "object `{}`: damaged shards {:?}, parity consistent: {:?}",
            object.object,
            object.damaged(),
            object.parity_consistent
        );
        for (shard, leaves) in &object.damaged_leaves {
            println!("  shard {shard}: damaged leaves {leaves:?}");
        }
    }
    for (object, err) in &report.failed_objects {
        println!("object `{object}`: scrub failed: {err}");
    }
    println!(
        "read: {} hash bytes, {} payload bytes",
        report.hash_bytes_read, report.payload_bytes_read
    );
    println!(
        "gc: {} generations collected, {} bytes reclaimed",
        report.generations_collected, report.bytes_reclaimed
    );
    if report.clean() {
        println!("scrub clean: {} objects verified", report.objects.len());
        Ok(ExitCode::SUCCESS)
    } else {
        println!("damage found");
        Ok(ExitCode::from(1))
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn repair(opts: &Opts) -> Result<ExitCode, CliError> {
    let mut cluster = cluster_from(opts, 0)?;
    if opts.dead.is_empty() {
        return Err(CliError::Usage("repair needs --dead ADDR".into()));
    }
    if !opts.replacement.is_empty() && opts.replacement.len() != opts.dead.len() {
        return Err(CliError::Usage(
            "give one --replacement per --dead (or none, to repair each \
             dead node in place)"
                .into(),
        ));
    }
    // One batch pass for all pairs: each object's survivors are read
    // once and every lost shard is placed, however many nodes died.
    let pairs: Vec<(String, String)> = opts
        .dead
        .iter()
        .enumerate()
        .map(|(i, dead)| {
            let replacement = opts.replacement.get(i).unwrap_or(dead).clone();
            (dead.clone(), replacement)
        })
        .collect();
    let report = cluster.repair_nodes(&pairs)?;
    let targets: Vec<&str> = pairs.iter().map(|(_, r)| r.as_str()).collect();
    println!(
        "repaired {} shards ({} bytes, {} survivor bytes read) across {} \
         objects onto {}",
        report.shards_rebuilt,
        report.bytes_rebuilt,
        report.bytes_read,
        report.objects_scanned,
        targets.join(", ")
    );
    for (object, err) in &report.failed {
        println!("object `{object}`: NOT repaired: {err}");
    }
    Ok(if report.failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
