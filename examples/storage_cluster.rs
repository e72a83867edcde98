//! A real erasure-coded storage cluster over real sockets: 14
//! in-process shard nodes on loopback, object placement, node failures,
//! degraded reads and online repair — the HDFS-style scenario that
//! motivates the paper's introduction, served by the `ec-store`
//! subsystem instead of an in-memory toy.
//!
//! ```text
//! cargo run --release --example storage_cluster
//! ```

use std::time::{Duration, Instant};
use xorslp_ec::store::{Cluster, NodeHandle};
use xorslp_ec::RsConfig;

const N: usize = 10;
const P: usize = 4;

fn main() {
    let root = std::env::temp_dir().join(format!("xorslp_cluster_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Spawn 14 shard nodes: each one a directory-backed blob store
    // serving the CRC-framed TCP protocol on an ephemeral loopback port.
    let mut nodes: Vec<Option<NodeHandle>> = (0..N + P)
        .map(|i| {
            Some(
                NodeHandle::spawn(&root.join(format!("node{i}")), "127.0.0.1:0", 2)
                    .expect("spawn node"),
            )
        })
        .collect();
    let mut addrs: Vec<String> = nodes
        .iter()
        .map(|n| n.as_ref().unwrap().addr().to_string())
        .collect();
    // Zero GC grace so the final scrub collects superseded generations
    // immediately (fine here: no writer is ever mid-put when we scrub).
    let mut cluster = Cluster::new(addrs.clone(), RsConfig::new(N, P))
        .expect("cluster client")
        .with_gc_grace(Duration::ZERO);
    println!("cluster: {} loopback nodes, RS({N}, {P})\n", N + P);

    // Store fifty 256 KiB objects.
    let objects: Vec<(String, Vec<u8>)> = (0..50)
        .map(|k| {
            let name = format!("obj-{k:03}");
            let data: Vec<u8> = (0..256 * 1024u32)
                .map(|i| ((i * 31 + k * 7) % 251) as u8)
                .collect();
            (name, data)
        })
        .collect();
    let total: usize = objects.iter().map(|(_, d)| d.len()).sum();
    let t = Instant::now();
    for (name, data) in &objects {
        cluster.put(name, data).expect("put");
    }
    let dt = t.elapsed();
    println!(
        "stored {} objects, {:.1} MiB in {:.0} ms ({:.0} MB/s through encode + sockets + disk)",
        objects.len(),
        total as f64 / (1024.0 * 1024.0),
        dt.as_secs_f64() * 1e3,
        total as f64 / dt.as_secs_f64() / 1e6,
    );

    // A rack goes down: nodes 2, 5, 11 and 13 die (p = 4 failures, the
    // worst this geometry survives).
    let dead = [2usize, 5, 11, 13];
    for &i in &dead {
        nodes[i].take().expect("alive").shutdown();
    }
    println!("\nnodes 2, 5, 11, 13 failed (listener closed, connections reset)");

    // Reads still work: degraded reads reconstruct through the cached
    // decode programs from whichever 10 shards answer.
    let t = Instant::now();
    let mut degraded_reads = 0;
    for (name, data) in &objects {
        let (got, report) = cluster.get_with_report(name).expect("degraded read");
        assert_eq!(&got, data);
        degraded_reads += report.degraded() as usize;
    }
    let dt = t.elapsed();
    println!(
        "read all objects degraded ({degraded_reads} needed reconstruction): \
         {:.0} ms ({:.0} MB/s)",
        dt.as_secs_f64() * 1e3,
        total as f64 / dt.as_secs_f64() / 1e6,
    );

    // Online repair: rebuild each dead node's shards onto a fresh
    // replacement from the survivors (row-subset programs re-encode
    // lost parity; the program table covers lost data).
    let t = Instant::now();
    let mut rebuilt_bytes = 0;
    for &i in &dead {
        let replacement_dir = root.join(format!("replacement{i}"));
        let node = NodeHandle::spawn(&replacement_dir, "127.0.0.1:0", 2).expect("spawn");
        let new_addr = node.addr().to_string();
        let report = cluster.repair_node(&addrs[i], &new_addr).expect("repair");
        assert!(report.failed.is_empty());
        rebuilt_bytes += report.bytes_rebuilt;
        addrs.push(new_addr);
        nodes.push(Some(node));
    }
    let dt = t.elapsed();
    println!(
        "\nrepaired {:.1} MiB onto 4 replacement nodes in {:.0} ms",
        rebuilt_bytes as f64 / (1024.0 * 1024.0),
        dt.as_secs_f64() * 1e3,
    );

    // Delta overwrite: touch one shard's worth of one object and ship
    // old⊕new through the cached column programs instead of re-putting
    // the world (writes need the placement nodes up, so this runs on
    // the repaired cluster).
    let (name, data) = &objects[7];
    let mut v2 = data.clone();
    for b in &mut v2[..1024] {
        *b ^= 0xA5;
    }
    let report = cluster.overwrite(name, &v2).expect("delta overwrite");
    println!(
        "\ndelta overwrite of {name}: {} of {N} data shards changed, {} shards \
         shipped, {} XORs vs {} for a full re-encode",
        report.changed.len(),
        report.shards_written,
        report.xor_count,
        report.full_xor_count,
    );

    // Scrub proves the cluster fully healthy: every shard passes its
    // manifest CRC and data ↔ parity re-encode consistently, chunk-wise.
    // The GC pass at the end collects the generation the delta overwrite
    // superseded (its old shard keys stayed behind for snapshot readers).
    let scrub = cluster.scrub().expect("scrub");
    assert!(scrub.clean(), "scrub found damage: {scrub:?}");
    println!(
        "scrub clean: {} objects verified end-to-end on {} nodes; \
         gc collected {} superseded generations ({} bytes)",
        scrub.objects.len(),
        cluster.nodes().len(),
        scrub.generations_collected,
        scrub.bytes_reclaimed,
    );

    // And every object reads back healthy (no reconstruction needed).
    for (name, data) in &objects {
        let expected = if name == &objects[7].0 { &v2 } else { data };
        let (got, report) = cluster.get_with_report(name).expect("healthy read");
        assert_eq!(&got, expected);
        assert!(!report.degraded());
    }
    println!("\nall objects verified after repair ✓");

    drop(cluster);
    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
}
