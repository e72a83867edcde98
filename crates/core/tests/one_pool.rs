//! One worker pool: a codec owns no thread. A `parallelism = 1` codec
//! runs every call inline on the calling thread, so building and driving
//! any number of them leaves the process's thread count where it was; a
//! codec that stripes hands its stripes to the process's one shared
//! pool, which is built once, by the first striped call.
//!
//! The count is the `Threads:` line of `/proc/self/status`, which covers
//! every thread of the process; that is why this test lives alone in its
//! own integration test binary, where nothing else starts threads.
#![cfg(target_os = "linux")]

use array_codes::ArrayCodec;
use ec_core::{LrcCodec, RsCodec, RsConfig, XorCodec};

/// The process's thread count.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .unwrap();
    line.trim().parse().unwrap()
}

/// A 640 KiB stripe: the benchmark's `codec_rs` geometry.
const STRIPE: usize = 640 * 1024;

/// Encode, decode with two data shards lost, reconstruct them, update
/// one data shard's parity and verify the stripe.
fn drive(codec: &XorCodec) {
    let n = codec.data_shards();
    let data: Vec<u8> = (0..STRIPE).map(|i| (i * 31 + 7) as u8).collect();
    let mut shards = codec.encode(&data).unwrap();
    let mut held: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
    held[0] = None;
    held[n - 1] = None;
    assert!(codec.decode(&held, data.len()).unwrap() == data);
    codec.reconstruct(&mut held).unwrap();
    assert!(held.iter().zip(&shards).all(|(h, s)| h.as_ref() == Some(s)));

    let new: Vec<u8> = shards[1].iter().map(|b| b ^ 0x5A).collect();
    let (data_shards, parity_shards) = shards.split_at_mut(n);
    let mut parity: Vec<&mut [u8]> = parity_shards.iter_mut().map(Vec::as_mut_slice).collect();
    codec
        .update_parity(1, &data_shards[1], &new, &mut parity)
        .unwrap();
    data_shards[1] = new;
    assert!(codec.verify(&shards).unwrap());
}

#[test]
fn serial_codecs_own_no_thread_and_striped_ones_share_one_pool() {
    let before = threads();
    let serial = RsConfig::new(10, 4).parallelism(1);
    let rs: Vec<RsCodec> = (0..4)
        .map(|_| RsCodec::with_config(serial).unwrap())
        .collect();
    let lrc = LrcCodec::with_config(serial, 5).unwrap();
    let evenodd = ArrayCodec::evenodd(5).with_parallelism(1);
    for codec in rs.iter().map(|c| &**c).chain([&*lrc, &*evenodd]) {
        drive(codec);
    }
    assert_eq!(
        threads(),
        before,
        "six serial codecs, each driven through every call"
    );

    // Two striped codecs: the first striped call builds the one pool,
    // the second codec finds it built.
    let striped = RsConfig::new(10, 4).parallelism(2);
    let data: Vec<u8> = (0..STRIPE).map(|i| (i * 13 + 1) as u8).collect();
    let first = RsCodec::with_config(striped).unwrap();
    first.encode(&data).unwrap();
    let with_pool = threads();
    assert!(
        with_pool <= before + xor_runtime::default_parallelism(),
        "{before} threads became {with_pool}: more than the pool"
    );
    let second = RsCodec::with_config(striped).unwrap();
    second.encode(&data).unwrap();
    assert_eq!(
        threads(),
        with_pool,
        "a second striped codec started threads"
    );
}
