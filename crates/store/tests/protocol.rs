//! Protocol-level tests against a live node: hostile frames are
//! rejected with typed errors (no panics, bounded allocations), the
//! node survives every abuse, and honest concurrent clients hammering
//! one node all succeed.

use ec_store::proto::{self, op, status};
use ec_store::{NodeClient, NodeHandle, NodeOptions, RemoteErrorCode, StoreError};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(5);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ec_store_proto_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_node(tag: &str) -> (NodeHandle, String, PathBuf) {
    let dir = temp_dir(tag);
    let node = NodeHandle::spawn(&dir, "127.0.0.1:0", 2).expect("spawn node");
    let addr = node.addr().to_string();
    (node, addr, dir)
}

fn client(addr: &str) -> NodeClient {
    NodeClient::connect(addr, TIMEOUT).expect("connect")
}

/// Raw socket with client-side timeouts, for speaking garbage.
fn raw(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).expect("raw connect");
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s.set_write_timeout(Some(TIMEOUT)).unwrap();
    s
}

/// After any abuse, the node must still serve honest clients.
fn assert_still_serving(addr: &str) {
    let mut c = client(addr);
    c.put("liveness-probe", b"ok")
        .expect("node must still serve");
    assert_eq!(c.get("liveness-probe").unwrap(), b"ok");
    c.delete("liveness-probe").unwrap();
}

/// `body` framed by hand — length prefix, CRC trailer — for bodies
/// `proto::write_frame` would never produce.
fn raw_frame(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::from((body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    frame.extend_from_slice(&ec_wire::crc32(body).to_le_bytes());
    frame
}

/// Read one raw frame (len, body, crc) and return
/// `(tag, request_id, payload)`.
fn read_raw_frame(s: &mut TcpStream) -> (u8, u32, Vec<u8>) {
    let mut len = [0u8; 4];
    s.read_exact(&mut len).expect("frame length");
    let body_len = u32::from_le_bytes(len) as usize;
    let mut body = vec![0u8; body_len];
    s.read_exact(&mut body).expect("frame body");
    let mut crc = [0u8; 4];
    s.read_exact(&mut crc).expect("frame crc");
    assert_eq!(
        u32::from_le_bytes(crc),
        ec_wire::crc32(&body),
        "response CRC"
    );
    assert_eq!(body[0], proto::PROTO_VERSION, "unknown response version");
    let id = u32::from_le_bytes(body[2..6].try_into().unwrap());
    (body[1], id, body[6..].to_vec())
}

#[test]
fn garbage_bytes_get_a_typed_answer_and_a_close() {
    let (_node, addr, dir) = spawn_node("garbage");
    let mut s = raw(&addr);
    // An HTTP request: the first 4 bytes parse as an absurd length.
    s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let (tag, id, payload) = read_raw_frame(&mut s);
    assert_eq!((tag, id), (status::ERR, proto::NO_REQUEST_ID));
    assert_eq!(payload[0], RemoteErrorCode::BadFrame as u8);
    // The node closes after a framing error.
    let mut rest = Vec::new();
    assert_eq!(s.read_to_end(&mut rest).unwrap(), 0);
    assert_still_serving(&addr);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn oversized_length_prefix_rejected_without_allocation() {
    let (_node, addr, dir) = spawn_node("oversize");
    let mut s = raw(&addr);
    // Claim a body of u32::MAX bytes (4 GiB): the MAX_BODY check fires
    // before any buffer is sized from the hostile length.
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let (tag, _, payload) = read_raw_frame(&mut s);
    assert_eq!(tag, status::ERR);
    assert_eq!(payload[0], RemoteErrorCode::BadFrame as u8);
    assert_still_serving(&addr);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn truncated_frame_then_close_does_not_wedge_the_node() {
    let (_node, addr, dir) = spawn_node("truncated");
    {
        let mut s = raw(&addr);
        // Declare 100 bytes, send 10, vanish.
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[0u8; 10]).unwrap();
    } // dropped: the node sees EOF mid-frame
    assert_still_serving(&addr);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bad_crc_and_bad_version_are_rejected() {
    let (_node, addr, dir) = spawn_node("crcver");
    // Valid shape, corrupted body byte → CRC mismatch.
    {
        let mut s = raw(&addr);
        let mut frame = Vec::new();
        proto::write_frame(&mut frame, op::HEALTH, 1, &[]).unwrap();
        let body_start = 4;
        frame[body_start + 1] ^= 0x01; // flip the opcode under the CRC
        s.write_all(&frame).unwrap();
        let (tag, _, payload) = read_raw_frame(&mut s);
        assert_eq!(tag, status::ERR);
        assert_eq!(payload[0], RemoteErrorCode::BadFrame as u8);
    }
    // Correct CRC, unsupported version byte.
    {
        let mut s = raw(&addr);
        s.write_all(&raw_frame(&[99u8, op::HEALTH, 1, 0, 0, 0]))
            .unwrap();
        let (tag, _, payload) = read_raw_frame(&mut s);
        assert_eq!(tag, status::ERR);
        assert_eq!(payload[0], RemoteErrorCode::BadFrame as u8);
    }
    assert_still_serving(&addr);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn malformed_payloads_keep_the_connection_alive() {
    let (_node, addr, dir) = spawn_node("badreq");
    let mut s = raw(&addr);
    // Unknown opcode: typed BadRequest, stream stays usable.
    proto::write_frame(&mut s, 0x7F, 1, &[]).unwrap();
    let (tag, _, payload) = read_raw_frame(&mut s);
    assert_eq!(tag, status::ERR);
    assert_eq!(payload[0], RemoteErrorCode::BadRequest as u8);

    // Key length pointing past the payload.
    let mut bad_key = Vec::new();
    bad_key.extend_from_slice(&200u16.to_le_bytes());
    bad_key.extend_from_slice(b"short");
    proto::write_frame(&mut s, op::GET_SHARD, 2, &[&bad_key]).unwrap();
    let (tag, _, payload) = read_raw_frame(&mut s);
    assert_eq!(tag, status::ERR);
    assert_eq!(payload[0], RemoteErrorCode::BadRequest as u8);

    // Over-cap key length.
    let mut long_key = Vec::new();
    let key = "k".repeat(proto::MAX_KEY + 1);
    long_key.extend_from_slice(&(key.len() as u16).to_le_bytes());
    long_key.extend_from_slice(key.as_bytes());
    proto::write_frame(&mut s, op::GET_SHARD, 3, &[&long_key]).unwrap();
    let (tag, _, payload) = read_raw_frame(&mut s);
    assert_eq!(tag, status::ERR);
    assert_eq!(payload[0], RemoteErrorCode::BadRequest as u8);

    // Trailing garbage after a well-formed GET payload.
    let mut trailing = Vec::new();
    trailing.extend_from_slice(&1u16.to_le_bytes());
    trailing.extend_from_slice(b"kEXTRA");
    proto::write_frame(&mut s, op::GET_SHARD, 4, &[&trailing]).unwrap();
    let (tag, _, payload) = read_raw_frame(&mut s);
    assert_eq!(tag, status::ERR);
    assert_eq!(payload[0], RemoteErrorCode::BadRequest as u8);

    // …and the same connection still serves honest requests.
    proto::write_frame(&mut s, op::HEALTH, 5, &[]).unwrap();
    let (tag, _, _) = read_raw_frame(&mut s);
    assert_eq!(tag, status::OK);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn typed_errors_for_missing_and_corrupt_blobs() {
    let (_node, addr, dir) = spawn_node("typed");
    let mut c = client(&addr);
    match c.get("absent") {
        Err(StoreError::Remote {
            code: RemoteErrorCode::NotFound,
            ..
        }) => {}
        other => panic!("expected NotFound, got {other:?}"),
    }
    // Corrupt a stored blob on disk, behind the node's back.
    c.put("victim", &[42u8; 1000]).unwrap();
    let blob_file = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "blob"))
        .expect("blob file on disk");
    let mut bytes = std::fs::read(&blob_file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x80;
    std::fs::write(&blob_file, &bytes).unwrap();
    match c.get("victim") {
        Err(StoreError::Remote {
            code: RemoteErrorCode::CorruptBlob,
            ..
        }) => {}
        other => panic!("expected CorruptBlob, got {other:?}"),
    }
    // STAT attributes it without shipping the payload.
    let stat = c.stat("victim").unwrap();
    assert!(!stat.ok);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn concurrent_clients_hammering_one_node() {
    let (_node, addr, dir) = spawn_node("hammer");
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = client(&addr);
                for round in 0..50 {
                    let key = format!("t{t}-r{round}");
                    let payload = vec![(t * 37 + round) as u8; 256 + t * 13];
                    c.put(&key, &payload).unwrap();
                    assert_eq!(c.get(&key).unwrap(), payload, "{key}");
                    if round % 3 == 0 {
                        assert!(c.delete(&key).unwrap());
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    // Every key that wasn't deleted is still listed.
    let mut c = client(&addr);
    let keys = c.list("t").unwrap();
    assert_eq!(keys.len(), 8 * 50 - 8 * 17); // 17 of 50 rounds deleted per thread
    let health = c.health().unwrap();
    assert_eq!(health.blobs, keys.len() as u64);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn idle_connections_do_not_starve_honest_clients() {
    // The node has 2 serving loops; park 4 silent connections on it,
    // then do real work. A quiet connection holds no loop (each loop
    // polls all of its connections), so honest requests are served
    // promptly instead of waiting out a 60 s idle deadline.
    let (_node, addr, dir) = spawn_node("idlestarve");
    let _silent: Vec<TcpStream> = (0..4).map(|_| raw(&addr)).collect();
    std::thread::sleep(Duration::from_millis(300)); // the loops accept them
    let start = std::time::Instant::now();
    assert_still_serving(&addr);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "honest client starved by idle connections ({:?})",
        start.elapsed()
    );
    // The silent connections are still alive (not dropped): one of them
    // can still speak and be served.
    let mut late = _silent.into_iter().next().unwrap();
    proto::write_frame(&mut late, op::HEALTH, 1, &[]).unwrap();
    let (tag, _, _) = read_raw_frame(&mut late);
    assert_eq!(tag, status::OK);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn shutdown_kills_inflight_connections() {
    let (node, addr, dir) = spawn_node("shutdown");
    let mut c = client(&addr);
    c.put("k", b"v").unwrap();
    node.shutdown();
    // The held connection dies (EOF/reset), new connections are refused
    // — exactly what the cluster client treats as a dead node.
    assert!(c.get("k").is_err());
    assert!(NodeClient::connect(&addr, Duration::from_millis(500)).is_err());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn v2_responses_echo_the_request_id() {
    let (_node, addr, dir) = spawn_node("idecho");
    let mut s = raw(&addr);
    proto::write_frame(&mut s, op::HEALTH, 0xDEAD_BEEF, &[]).unwrap();
    let (tag, id, _) = read_raw_frame(&mut s);
    assert_eq!(tag, status::OK);
    assert_eq!(id, 0xDEAD_BEEF, "response must echo the request id");
    // Ids are opaque to the node: no ordering or uniqueness demands.
    for weird in [0u32, u32::MAX, 7, 7] {
        proto::write_frame(&mut s, op::HEALTH, weird, &[]).unwrap();
        let (tag, id, _) = read_raw_frame(&mut s);
        assert_eq!(tag, status::OK);
        assert_eq!(id, weird);
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_version_1_request_gets_one_bad_frame_answer_and_a_close() {
    // The retired framing — `[version 1][tag][payload]`, no request id,
    // CRC valid — is not served: the node answers once, with the typed
    // `BadFrame` naming the version and the reserved id (it recovered
    // none), and closes. It keeps serving everyone else.
    let (_node, addr, dir) = spawn_node("v1refused");
    let mut s = raw(&addr);
    let mut body = vec![1u8, op::PUT_SHARD];
    body.extend_from_slice(&1u16.to_le_bytes());
    body.extend_from_slice(b"kvalue-bytes");
    s.write_all(&raw_frame(&body)).unwrap();
    let (tag, id, payload) = read_raw_frame(&mut s);
    assert_eq!((tag, id), (status::ERR, proto::NO_REQUEST_ID));
    match proto::parse_err(&payload) {
        StoreError::Remote {
            code: RemoteErrorCode::BadFrame,
            message,
        } => {
            assert_eq!(
                message,
                "unsupported protocol version 1 (this build speaks 2)"
            );
        }
        other => panic!("expected a typed BadFrame, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(
        s.read_to_end(&mut rest).unwrap(),
        0,
        "one answer, then a close"
    );
    // Nothing was stored on the strength of that frame.
    assert!(matches!(
        client(&addr).get("k"),
        Err(StoreError::Remote {
            code: RemoteErrorCode::NotFound,
            ..
        })
    ));
    assert_still_serving(&addr);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn pipelined_requests_are_answered_in_arrival_order() {
    let (_node, addr, dir) = spawn_node("pipeline");
    let mut c = client(&addr);
    c.put("a", b"alpha").unwrap();
    c.put("b", b"beta").unwrap();
    c.put("c", b"gamma").unwrap();
    // Three GETs on the wire back to back before any answer is read.
    // The node answers in arrival order, each under its request's id;
    // matching answers to requests is the client's business.
    let get = |id: u32, key: &[u8], out: &mut Vec<u8>| {
        let mut payload = Vec::from((key.len() as u16).to_le_bytes());
        payload.extend_from_slice(key);
        proto::write_frame(out, op::GET_SHARD, id, &[&payload]).unwrap();
    };
    let mut s = raw(&addr);
    let mut frames = Vec::new();
    for (id, key) in [(11, b"a"), (12, b"b"), (13, b"c")] {
        get(id, key, &mut frames);
    }
    s.write_all(&frames).unwrap();
    for (id, want) in [(11, &b"alpha"[..]), (12, b"beta"), (13, b"gamma")] {
        assert_eq!(read_raw_frame(&mut s), (status::OK, id, want.to_vec()));
    }
    // The connection is still healthy after the pipelined exchange.
    let mut again = Vec::new();
    get(14, b"b", &mut again);
    s.write_all(&again).unwrap();
    assert_eq!(read_raw_frame(&mut s), (status::OK, 14, b"beta".to_vec()));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn hostile_response_id_is_a_typed_error_and_poisons_the_connection() {
    // A lying "node": answers every request with a well-formed frame
    // carrying a request id the client never issued.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        loop {
            let mut len = [0u8; 4];
            if s.read_exact(&mut len).is_err() {
                return;
            }
            let mut body = vec![0u8; u32::from_le_bytes(len) as usize + 4];
            if s.read_exact(&mut body).is_err() {
                return; // body + trailing crc
            }
            if proto::write_frame(&mut s, status::OK, 0x4141_4141, &[b"x"]).is_err() {
                return;
            }
        }
    });
    let mut c = NodeClient::connect(&addr, TIMEOUT).unwrap();
    match c.get("anything") {
        Err(StoreError::Protocol(msg)) => {
            assert!(
                msg.contains("unexpected request id"),
                "error must name the lie: {msg}"
            );
        }
        other => panic!("expected a typed protocol error, got {other:?}"),
    }
    // The stream can no longer be trusted: the client's loop has
    // already dropped the connection (as it does on any non-Remote
    // error), so the server sees the close rather than more requests on
    // a desynced stream.
    drop(c);
    server.join().unwrap();
}

#[test]
fn two_requests_in_one_segment_get_two_answers() {
    // Both frames leave in one write, so the node's first read of the
    // second connection byte finds them back to back: its reader must
    // stop at the end of the first frame, not run into the second.
    let (_node, addr, dir) = spawn_node("backtoback");
    let mut s = raw(&addr);
    s.set_nodelay(true).unwrap();
    let mut put = Vec::new();
    put.extend_from_slice(&1u16.to_le_bytes());
    put.extend_from_slice(b"kpayload");
    let mut get = Vec::new();
    get.extend_from_slice(&1u16.to_le_bytes());
    get.push(b'k');
    let mut both = Vec::new();
    proto::write_frame(&mut both, op::PUT_SHARD, 7, &[&put]).unwrap();
    proto::write_frame(&mut both, op::GET_SHARD, 8, &[&get]).unwrap();
    s.write_all(&both).unwrap();
    assert_eq!(read_raw_frame(&mut s), (status::OK, 7, Vec::new()));
    assert_eq!(read_raw_frame(&mut s), (status::OK, 8, b"payload".to_vec()));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_request_trickled_a_byte_at_a_time_is_served() {
    let (_node, addr, dir) = spawn_node("trickle");
    let mut s = raw(&addr);
    s.set_nodelay(true).unwrap();
    let mut frame = Vec::new();
    proto::write_frame(&mut frame, op::HEALTH, 3, &[]).unwrap();
    for byte in frame {
        s.write_all(&[byte]).unwrap();
    }
    let (tag, echoed, _) = read_raw_frame(&mut s);
    assert_eq!((tag, echoed), (status::OK, 3));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_kept_connection_is_not_queued_behind_silent_peers() {
    // Four silent connections outnumber the node's two serving threads.
    // A client that keeps its connection and pauses between requests is
    // still answered at once: a quiet peer holds no thread.
    let (_node, addr, dir) = spawn_node("keptconn");
    let _silent: Vec<TcpStream> = (0..4).map(|_| raw(&addr)).collect();
    let mut c = client(&addr);
    c.health().unwrap(); // accepted after the silent four
    let mut total = Duration::ZERO;
    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(150));
        let start = Instant::now();
        c.health().unwrap();
        total += start.elapsed();
    }
    assert!(
        total < Duration::from_millis(200),
        "20 requests on a kept connection took {total:?} between them"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn injected_delays_on_two_connections_overlap() {
    // One serving thread, two connections, one delayed request on each:
    // the delays run side by side, not one after the other.
    let dir = temp_dir("delays");
    let opts = NodeOptions {
        workers: 1,
        response_delay: Some(Duration::from_millis(200)),
        delay_key_prefix: None,
    };
    let node = NodeHandle::spawn_with(&dir, "127.0.0.1:0", opts).expect("spawn node");
    let addr = node.addr().to_string();
    let (mut a, mut b) = (client(&addr), client(&addr));
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| a.health().unwrap());
        s.spawn(|| b.health().unwrap());
    });
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(300),
        "two 200 ms delays took {took:?}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn shutdown_is_prompt_with_idle_connections() {
    let (node, addr, dir) = spawn_node("idleshutdown");
    let idle: Vec<TcpStream> = (0..8).map(|_| raw(&addr)).collect();
    client(&addr).health().unwrap(); // accepted after the idle eight
    let start = Instant::now();
    node.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    // Every idle connection was closed with the node.
    for mut s in idle {
        match s.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("an idle connection outlived its node: {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}
