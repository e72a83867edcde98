//! A steady-state delta parity update performs **zero allocations**.
//!
//! `update_parity` builds its parity-packet list in thread-local
//! packet-ref scratch (`with_ref_scratch`), fetches its column program
//! from the codec's cache, and runs one fused blocked pass on the
//! caller's persistent arena with the executor's thread-local pointer
//! tables: no delta array, no delta-parity array, no collected lists.
//! This test pins that with a counting global allocator that counts
//! **per thread** (which is why it lives alone in its own integration
//! test binary), so what the libtest harness allocates on its own
//! threads never reaches the window and the assertion is exact.
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
}

fn count_one() {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those calls are nobody's window.
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

fn allocations_on_this_thread() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

struct Counting;

// SAFETY: delegates straight to `System`; only adds a thread-local count.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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

#[test]
fn steady_state_update_is_allocation_free_rs_10_4() {
    let codec = RsCodec::with_config(RsConfig::new(10, 4).parallelism(1)).unwrap();
    assert_steady_state_update_is_allocation_free("RS(10,4)", &codec);
}

#[test]
fn steady_state_update_is_allocation_free_lrc_10_4_r5() {
    let codec = LrcCodec::with_config(RsConfig::new(10, 4).parallelism(1), 5).unwrap();
    assert_steady_state_update_is_allocation_free("LRC(10,4,r=5)", &codec);
}
