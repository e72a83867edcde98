//! Failure-injection tests: the library must fail loudly and precisely,
//! never corrupt data silently.

use xorslp_ec::{EcError, Kernel, OptConfig, RsCodec, RsConfig};

fn sample(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 37 + 11) as u8).collect()
}

#[test]
fn rejects_all_invalid_parameter_combinations() {
    assert!(matches!(RsCodec::new(0, 4), Err(EcError::InvalidParams(_))));
    assert!(matches!(RsCodec::new(4, 0), Err(EcError::InvalidParams(_))));
    assert!(matches!(
        RsCodec::new(128, 128),
        Err(EcError::InvalidParams(_))
    ));
    assert!(matches!(
        RsCodec::with_config(RsConfig::new(4, 2).blocksize(0)),
        Err(EcError::InvalidParams(_))
    ));
}

#[test]
fn detects_too_many_erasures_before_touching_data() {
    let codec = RsCodec::new(4, 2).unwrap();
    let shards = codec.encode(&sample(1024)).unwrap();
    let mut rx: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
    rx[0] = None;
    rx[2] = None;
    rx[4] = None;
    match codec.decode(&rx, 1024) {
        Err(EcError::TooManyErasures {
            missing: 3,
            parity: 2,
        }) => {}
        other => panic!("expected TooManyErasures, got {other:?}"),
    }
}

#[test]
fn detects_wrong_shard_count() {
    let codec = RsCodec::new(4, 2).unwrap();
    let err = codec.decode(&[None, None, None], 0).unwrap_err();
    assert!(matches!(
        err,
        EcError::ShardCount {
            expected: 6,
            got: 3
        }
    ));
}

#[test]
fn detects_inconsistent_shard_lengths() {
    let codec = RsCodec::new(3, 2).unwrap();
    let shards = codec.encode(&sample(999)).unwrap();
    let mut rx: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
    rx[1].as_mut().unwrap().pop(); // truncate one shard
    assert!(matches!(
        codec.decode(&rx, 999),
        Err(EcError::ShardLength(_))
    ));
}

#[test]
fn detects_data_len_exceeding_shards() {
    let codec = RsCodec::new(4, 2).unwrap();
    let data = sample(640);
    let shards = codec.encode(&data).unwrap();
    let rx: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
    // claim the object was bigger than the shards can hold
    assert!(matches!(
        codec.decode(&rx, 10_000),
        Err(EcError::ShardLength(_))
    ));
}

#[test]
fn verify_catches_corruption() {
    let codec = RsCodec::new(4, 2).unwrap();
    let data = sample(4 * 512);
    let mut shards = codec.encode(&data).unwrap();
    assert!(codec.verify(&shards).unwrap());
    shards[1][17] ^= 0x40; // flip one bit in a data shard
    assert!(
        !codec.verify(&shards).unwrap(),
        "corruption must be detected"
    );
}

#[test]
fn erased_index_out_of_range() {
    let codec = RsCodec::new(4, 2).unwrap();
    assert!(matches!(
        codec.decode_slp(&[7]),
        Err(EcError::InvalidParams(_))
    ));
}

#[test]
fn reconstruct_with_nothing_missing_is_a_noop() {
    let codec = RsCodec::new(4, 2).unwrap();
    let data = sample(4 * 128);
    let shards = codec.encode(&data).unwrap();
    let mut rx: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
    codec.reconstruct(&mut rx).unwrap();
    for (got, want) in rx.iter().zip(&shards) {
        assert_eq!(got.as_ref().unwrap(), want);
    }
}

#[test]
fn decode_under_every_kernel_and_blocksize_combination() {
    // Paranoia sweep: misaligned lengths, tiny blocks, scalar and SIMD.
    let data = sample(6 * 808); // 808 = 8 × 101: prime packet length
    for kernel in [Kernel::Scalar, Kernel::Wide64, Kernel::Auto] {
        for blocksize in [1usize, 13, 101, 1024] {
            let codec = RsCodec::with_config(
                RsConfig::new(6, 2)
                    .kernel(kernel)
                    .blocksize(blocksize)
                    .opt(OptConfig::FULL_DFS),
            )
            .unwrap();
            let shards = codec.encode(&data).unwrap();
            let mut rx: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
            rx[0] = None;
            rx[5] = None;
            assert_eq!(
                codec.decode(&rx, data.len()).unwrap(),
                data,
                "kernel {kernel:?} B={blocksize}"
            );
        }
    }
}

#[test]
fn zero_and_tiny_payloads() {
    let codec = RsCodec::new(3, 2).unwrap();
    for len in [0usize, 1, 2, 7, 8, 23, 24, 25] {
        let data = sample(len);
        let shards = codec.encode(&data).unwrap();
        let mut rx: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        rx[0] = None;
        if len > 0 {
            rx[4] = None;
        }
        assert_eq!(codec.decode(&rx, len).unwrap(), data, "len {len}");
    }
}
