//! No library reads the environment. With variables naming a kernel, a
//! stripe cap and a failpoint set, a codec still gets the paper's
//! engine and a cluster still has no crash hook: only a caller's field
//! write or `Cluster::with_failpoint` moves either. (The `xorslp-store`
//! binary reads `XORSLP_FAILPOINT` for its own fault tests; no library
//! does.)
//!
//! One test in its own binary, so the variables it sets are the whole
//! process's environment from the first codec built on.

use std::time::Duration;
use xorslp_ec::store::{Cluster, NodeHandle};
use xorslp_ec::{EngineConfig, RsCodec, RsConfig};

#[test]
fn engine_and_failpoint_ignore_the_environment() {
    std::env::set_var("XORSLP_KERNEL", "scalar");
    std::env::set_var("XORSLP_PARALLELISM", "3");
    std::env::set_var("XORSLP_FAILPOINT", "put.publish=0");

    let codec = RsCodec::new(10, 4).unwrap();
    assert_eq!(*codec.engine_config(), EngineConfig::PAPER);

    let root = std::env::temp_dir().join(format!("xorslp_no_env_knobs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let nodes: Vec<NodeHandle> = (0..3)
        .map(|i| NodeHandle::spawn(&root.join(format!("node{i}")), "127.0.0.1:0", 1).unwrap())
        .collect();
    let addrs = nodes.iter().map(|n| n.addr().to_string()).collect();
    let cluster = Cluster::new(addrs, RsConfig::new(2, 1))
        .unwrap()
        .with_timeout(Duration::from_secs(5));
    let data: Vec<u8> = (0..10_000u32).map(|i| (i * 31 + i / 7) as u8).collect();
    cluster
        .put("obj", &data)
        .expect("a put with XORSLP_FAILPOINT set publishes");
    assert_eq!(cluster.get("obj").unwrap(), data);

    for node in nodes {
        node.shutdown();
    }
    std::fs::remove_dir_all(&root).unwrap();
}
