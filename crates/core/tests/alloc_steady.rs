//! The codec's steady-state allocation contract, at `parallelism = 1`:
//! `encode_into`, `update_parity` and `verify` perform **zero
//! allocations**; `decode` allocates only the buffer it returns, and
//! `reconstruct` one `Vec` per rebuilt shard.
//!
//! `update_parity` builds its parity-packet list in thread-local
//! packet-ref scratch (`with_ref_scratch`), fetches its column program
//! from the codec's cache, and runs one fused blocked pass on the
//! caller's persistent arena with the executor's thread-local pointer
//! tables: no delta array, no delta-parity array, no collected lists.
//! `decode` writes each rebuilt packet into the buffer it returns.
//! This test pins that with a counting global allocator that counts
//! calls and bytes **per thread** (which is why it lives alone in its own
//! integration test binary), so what the libtest harness allocates on its
//! own threads never reaches the window and the assertions are exact.
//!
//! `parallelism = 1`: the single-stripe plan runs inline on this thread.
//! The pooled path hands stripes to workers, whose arenas persist too,
//! but each task submission boxes a closure.

use ec_core::{LrcCodec, RsCodec, RsConfig, XorCodec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread. `const`-
    /// initialised and without a destructor, so touching it from inside
    /// the allocator cannot itself allocate or register anything.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a reallocation counts its new size).
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those calls are nobody's window.
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
    let _ = ALLOC_BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

fn allocations_on_this_thread() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

fn bytes_allocated_on_this_thread() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

struct Counting;

// SAFETY: delegates straight to `System`; only adds a thread-local count.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// 64 KiB shards: the benchmark's `codec_rs` geometry.
const SHARD: usize = 64 * 1024;
const WINDOW: usize = 30;

/// Update every data shard twice (compiling every column program and
/// growing every scratch vector and the caller's arena), then assert the
/// next `WINDOW` updates allocate nothing on this thread — and that the
/// parity is still the parity of the data.
fn assert_steady_state_update_is_allocation_free(name: &str, codec: &XorCodec) {
    let n = codec.data_shards();
    let data: Vec<u8> = (0..n * SHARD).map(|i| (i * 31 + 7) as u8).collect();
    let mut shards = codec.encode(&data).unwrap();
    let replacement: Vec<u8> = (0..SHARD).map(|i| (i * 17 + 3) as u8).collect();
    let (data_shards, parity_shards) = shards.split_at_mut(n);
    let mut parity: Vec<&mut [u8]> = parity_shards.iter_mut().map(Vec::as_mut_slice).collect();
    // Each call swaps shard `i` between its own bytes and `replacement`,
    // so after an even number of calls per shard the stripe is unchanged.
    let mut update = |call: usize| {
        let i = call % n;
        let (old, new) = if (call / n).is_multiple_of(2) {
            (&data_shards[i][..], &replacement[..])
        } else {
            (&replacement[..], &data_shards[i][..])
        };
        codec.update_parity(i, old, new, &mut parity).unwrap();
    };

    for call in 0..2 * n {
        update(call);
    }
    let before = allocations_on_this_thread();
    for call in 2 * n..2 * n + WINDOW {
        update(call);
    }
    let allocated = allocations_on_this_thread() - before;
    assert_eq!(
        allocated, 0,
        "{name}: {WINDOW} steady-state update_parity calls made {allocated} allocations"
    );

    // Finish the swap cycle so every shard is back to its own bytes.
    let mut call = 2 * n + WINDOW;
    while !call.is_multiple_of(2 * n) {
        update(call);
        call += 1;
    }
    drop(parity);
    assert!(codec.verify(&shards).unwrap(), "{name}: parity no longer matches the data");
}

fn rs_10_4() -> RsCodec {
    RsCodec::with_config(RsConfig::new(10, 4).parallelism(1)).unwrap()
}

fn lrc_10_4_r5() -> LrcCodec {
    LrcCodec::with_config(RsConfig::new(10, 4).parallelism(1), 5).unwrap()
}

#[test]
fn steady_state_update_is_allocation_free_rs_10_4() {
    assert_steady_state_update_is_allocation_free("RS(10,4)", &rs_10_4());
}

#[test]
fn steady_state_update_is_allocation_free_lrc_10_4_r5() {
    assert_steady_state_update_is_allocation_free("LRC(10,4,r=5)", &lrc_10_4_r5());
}

/// Slack for what a call allocates besides shard bytes: the erasure
/// pattern, its program-table key, and lists of shard references.
const SLACK: u64 = 4 * 1024;

fn stripe(codec: &XorCodec) -> (Vec<u8>, Vec<Vec<u8>>) {
    let data: Vec<u8> = (0..codec.data_shards() * SHARD).map(|i| (i * 31 + 7) as u8).collect();
    let shards = codec.encode(&data).unwrap();
    (data, shards)
}

/// Re-encode into the same buffers and verify the same stripe, twice each
/// to warm up, then assert the next calls allocate nothing on this
/// thread.
fn assert_steady_state_encode_and_verify_are_allocation_free(name: &str, codec: &XorCodec) {
    let (data, mut shards) = stripe(codec);
    for _ in 0..2 {
        codec.encode_into(&data, &mut shards).unwrap();
        assert!(codec.verify(&shards).unwrap());
    }
    let before = allocations_on_this_thread();
    for _ in 0..4 {
        codec.encode_into(&data, &mut shards).unwrap();
    }
    let encode = allocations_on_this_thread() - before;
    let before = allocations_on_this_thread();
    for _ in 0..4 {
        assert!(codec.verify(&shards).unwrap(), "{name}: encode_into changed the stripe");
    }
    let verify = allocations_on_this_thread() - before;
    assert_eq!((encode, verify), (0, 0), "{name}: allocations of 4 encode_into, 4 verify");
}

/// With two data shards lost, a steady-state decode allocates the `n·len`
/// buffer it returns and nothing shard-sized besides: no rebuilt shards
/// to stitch in.
fn assert_steady_state_decode_allocates_its_output(name: &str, codec: &XorCodec) {
    let n = codec.data_shards();
    let (data, shards) = stripe(codec);
    let mut held: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
    held[1] = None;
    held[n - 2] = None;
    for call in 0..6 {
        let before = bytes_allocated_on_this_thread();
        let out = codec.decode(&held, data.len()).unwrap();
        let bytes = bytes_allocated_on_this_thread() - before;
        assert!(out == data, "{name}: decode returned other bytes");
        let bound = (n * SHARD) as u64 + SLACK;
        // The first two calls compile the program and grow the scratch.
        assert!(call < 2 || bytes <= bound, "{name}: decode allocated {bytes} > {bound} bytes");
    }
}

/// With one data and one parity shard lost, a steady-state reconstruct
/// allocates the two shards it rebuilds and nothing shard-sized besides:
/// no stand-in zero shard when every data shard is present.
fn assert_steady_state_reconstruct_allocates_its_shards(name: &str, codec: &XorCodec) {
    let n = codec.data_shards();
    let (_, shards) = stripe(codec);
    let mut held: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
    for call in 0..6 {
        held[3] = None;
        held[n + 1] = None;
        let before = bytes_allocated_on_this_thread();
        codec.reconstruct(&mut held).unwrap();
        let bytes = bytes_allocated_on_this_thread() - before;
        assert!(held[3].as_ref() == Some(&shards[3]), "{name}: data shard rebuilt wrong");
        assert!(held[n + 1].as_ref() == Some(&shards[n + 1]), "{name}: parity rebuilt wrong");
        let bound = 2 * SHARD as u64 + SLACK;
        let what = format!("{name}: reconstruct allocated {bytes} > {bound} bytes");
        assert!(call < 2 || bytes <= bound, "{what}");
    }
}

#[test]
fn steady_state_encode_and_verify_are_allocation_free() {
    assert_steady_state_encode_and_verify_are_allocation_free("RS(10,4)", &rs_10_4());
    assert_steady_state_encode_and_verify_are_allocation_free("LRC(10,4,r=5)", &lrc_10_4_r5());
}

#[test]
fn steady_state_decode_allocates_only_its_output() {
    assert_steady_state_decode_allocates_its_output("RS(10,4)", &rs_10_4());
    assert_steady_state_decode_allocates_its_output("LRC(10,4,r=5)", &lrc_10_4_r5());
}

#[test]
fn steady_state_reconstruct_allocates_only_the_rebuilt_shards() {
    assert_steady_state_reconstruct_allocates_its_shards("RS(10,4)", &rs_10_4());
    assert_steady_state_reconstruct_allocates_its_shards("LRC(10,4,r=5)", &lrc_10_4_r5());
}
