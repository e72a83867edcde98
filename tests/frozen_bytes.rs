//! Every stored and transmitted format, pinned to the byte.
//!
//! Each format has one version, and "one version" is only a claim until
//! the bytes are written down: these vectors are what this build's
//! writers emit for fixed inputs, and what its parsers must read back.
//! A change that is meant to leave the formats alone proves it by
//! passing this file untouched; a change that is meant to alter one
//! bumps that format's version byte and says so by updating a constant.
//!
//! The constants were generated by running this test body at commit
//! 2b56c10 (PR 21, the last commit that still read older versions).

use std::io::{Cursor, Read};
use std::net::TcpListener;
use std::time::Duration;
use xorslp_ec::codec::{codec_for, CodecSpec};
use xorslp_ec::store::{
    parse_record, proto, tombstone_bytes, HashBlob, Manifest, ManifestRecord, NodeClient,
};
use xorslp_ec::stream::{ArchiveMeta, HashTrailer, ShardHeader, StreamEncoder, HEADER_LEN};
use xorslp_ec::wire::merkle::{leaf_hash, root_over_roots, Hash};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const HEADER: &str = concat!(
    "58534c5045435331030000000a0004000b000400000001000200000000000000",
    "40e20100000000000500000000000000000000000000000000000000d7c9d671",
);

#[test]
fn archive_header() {
    let meta = ArchiveMeta::with_spec(&CodecSpec::lrc(10, 4, 5), 1 << 16, 123_456);
    let header = ShardHeader {
        meta,
        shard_index: 11,
    };
    let bytes = header.to_bytes();
    assert_eq!(hex(&bytes), HEADER);
    assert_eq!(ShardHeader::from_bytes(&bytes).unwrap(), header);
}

const TRAILER: &str = concat!(
    "14a03c0788b115ec5ed69541b8a4cb450df81cc9a91e72a56c17ff81f793057b",
    "9125d73b64196978efe9a82134f06bde943d456f2c0236c2e6109f16cdf0a176",
    "f3b55442a5da47e724ffd9f19186c509f4b59d56d150cdc4b3972c2fdd9c449e",
    "4c7a92ca829afd1fb3cf0e396923009d1d122ca0834bb08da75a03af74f5aa1b",
    "07cf9f4fecfa5dd5b6b06adb1749578c067f3e0e39bb3a2802b077474f24ad5a",
    "586cbb0823421e622b5f1bc9fb38f1d0912c0abce6945848242999084f77579a",
    "bfdf1566",
);

#[test]
fn hash_trailer_of_a_two_chunk_shard() {
    // 150 bytes through RS(2, 1) in 100-byte chunks: two frames per
    // shard file, then the trailer (2 leaves + 3 shard roots + object
    // root + CRC = 196 bytes).
    let codec = codec_for(&CodecSpec::rs(2, 1)).unwrap();
    let sinks: Vec<Cursor<Vec<u8>>> = (0..3).map(|_| Cursor::new(Vec::new())).collect();
    let mut enc = StreamEncoder::new(&*codec, 100, sinks).unwrap();
    let data: Vec<u8> = (0..150u32).map(|i| (i * 7 + 3) as u8).collect();
    enc.write_all(&data).unwrap();
    let (meta, sinks) = enc.finalize().unwrap();
    let file = sinks.into_iter().next().unwrap().into_inner();
    assert_eq!(file.len() as u64, meta.shard_file_len());
    let trailer = &file[file.len() - HashTrailer::wire_len(&meta).unwrap() as usize..];
    assert_eq!(hex(trailer), TRAILER);
    let parsed = HashTrailer::from_bytes(trailer, &meta).unwrap();
    assert!(parsed.self_consistent(0));
    assert_eq!(parsed.to_bytes(), trailer);
    let header = ShardHeader::from_bytes(file[..HEADER_LEN].try_into().unwrap()).unwrap();
    assert_eq!((header.meta, header.shard_index), (meta, 0));
}

fn manifest() -> Manifest {
    let shard_root: Vec<Hash> = (0..6u8).map(|i| leaf_hash(&[i; 16])).collect();
    Manifest {
        data_shards: 4,
        parity_shards: 2,
        codec_id: 1,
        group_size: 0,
        generation: 3,
        object_len: 1000,
        shard_len: 256,
        placement: (0..6).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect(),
        shard_crc: (0..6).map(|i| 0xDEAD_0000 + i).collect(),
        shard_gen: vec![3, 3, 1, 3, 3, 3],
        hash_leaf_size: 65536,
        object_root: root_over_roots(&shard_root),
        shard_root,
    }
}

const MANIFEST: &str = concat!(
    "58534c5045434d310404000200010000000300000000000000e8030000000000",
    "000001000000000000000001000e003132372e302e302e313a373030300000ad",
    "de03000000000000000a88111852095cae045340ea1f0b279944b2a756a213d9",
    "b50107d7489771e1590e003132372e302e302e313a373030310100adde030000",
    "0000000000d420b622997f78a73d9fb81a263b2dbafd714d89e0ce06fc206147",
    "9ddaa53cde0e003132372e302e302e313a373030320200adde01000000000000",
    "002a2c6164afecf85278d351838aad2a3e1cf1c83d7bdd1855c4d9313b7a9a8f",
    "a80e003132372e302e302e313a373030330300adde0300000000000000effb50",
    "c88ab1aadde6261bc74a800d531f935fa70000ded0f5268b9a9ceca6b40e0031",
    "32372e302e302e313a373030340400adde0300000000000000bf632d36c9aa95",
    "820dc076f9a15462fbe2b37227c439074975c031ca037d167c0e003132372e30",
    "2e302e313a373030350500adde0300000000000000592877f9f88e68ba9e9c99",
    "81b487357a622fc2235cade6386999295c217c37afa16800a277cc085c835552",
    "5ab13573bad7789f8c13642e4f353edafbeed359cef888da19",
);

#[test]
fn manifest_record() {
    let m = manifest();
    let bytes = m.to_bytes();
    assert_eq!(hex(&bytes), MANIFEST);
    assert_eq!(
        parse_record(&bytes).unwrap(),
        ManifestRecord::Live(m.clone())
    );
    assert_eq!(m.shard_key("obj", 2), "s:002g0000000000000001:obj");
}

const TOMBSTONE: &str = "58534c5045435431040700000000000000357f5cd3";

#[test]
fn tombstone_record() {
    let bytes = tombstone_bytes(7);
    assert_eq!(hex(&bytes), TOMBSTONE);
    assert_eq!(
        parse_record(&bytes).unwrap(),
        ManifestRecord::Tombstone { generation: 7 }
    );
}

const HASH_BLOB: &str = concat!(
    "58534c5045434831010001000003000000ef1857131c87d0d05952c87f3bb39f",
    "feb1ec786076ead94656a6a41f7135e2d9ef1857131c87d0d05952c87f3bb39f",
    "feb1ec786076ead94656a6a41f7135e2d936c4db832d50fd281f7ccf12a94ab1",
    "e40efbbd37eda80b1684459716464079c485a926e1",
);

#[test]
fn hash_blob() {
    let shard: Vec<u8> = (0..600u32).map(|i| (i * 13) as u8).collect();
    let blob = HashBlob::from_shard(&shard, 256);
    let bytes = blob.to_bytes();
    assert_eq!(hex(&bytes), HASH_BLOB);
    assert_eq!(HashBlob::from_bytes(&bytes).unwrap(), blob);
}

const PUT_SHARD_FRAME: &str = concat!(
    "2d0000000201010000001a00733a303030673030303030303030303030303030",
    "30313a6f626a73686172642062797465739b4684f3",
);

#[test]
fn put_shard_request_frame() {
    // What a client's first request looks like on the wire: the bytes a
    // listening socket receives for `put("s:000g…:obj", b"shard bytes")`.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().unwrap();
        let mut bytes = vec![0u8; PUT_SHARD_FRAME.len() / 2];
        peer.read_exact(&mut bytes).unwrap();
        proto::write_frame(&mut peer, proto::status::OK, 1, &[]).unwrap();
        bytes
    });
    let mut client = NodeClient::connect(&addr, Duration::from_secs(10)).unwrap();
    client
        .put("s:000g0000000000000001:obj", b"shard bytes")
        .unwrap();
    let bytes = peer.join().unwrap();
    assert_eq!(hex(&bytes), PUT_SHARD_FRAME);
    let frame = proto::read_frame(&mut Cursor::new(&bytes)).unwrap();
    assert_eq!(frame.tag, proto::op::PUT_SHARD);
    assert_eq!(frame.payload.len(), 2 + 26 + 11);
}
