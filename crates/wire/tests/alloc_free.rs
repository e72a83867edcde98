//! `merkle::leaf_hashes_into` allocates nothing, whatever the batch: the
//! lane scheduler works in the caller's order, with every lane's staged
//! head and tail on the stack. This test pins that with a counting
//! global allocator that counts bytes **per thread** (which is why it
//! lives alone in its own integration test binary), so what the libtest
//! harness allocates on its own threads never reaches the window.

use ec_wire::merkle::{leaf_hash, leaf_hashes_into, Hash};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread asked the allocator for (a reallocation counts
    /// its new size). `const`-initialised and without a destructor, so
    /// touching it from inside the allocator cannot itself allocate.
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those calls are nobody's window.
    let _ = ALLOC_BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

fn bytes_allocated_on_this_thread() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

struct Counting;

// SAFETY: delegates straight to `System`; only adds a thread-local count.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract for `realloc`, passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Hash `leaves` once to settle the process's kernel choice, then assert
/// the next call allocates nothing on this thread and files every digest
/// where `leaf_hash` says it belongs.
fn assert_allocation_free(what: &str, leaves: &[&[u8]]) {
    let mut hashes = vec![Hash::default(); leaves.len()];
    leaf_hashes_into(leaves, &mut hashes);
    let before = bytes_allocated_on_this_thread();
    leaf_hashes_into(leaves, &mut hashes);
    let allocated = bytes_allocated_on_this_thread() - before;
    assert_eq!(
        allocated, 0,
        "{what}: leaf_hashes_into allocated {allocated} bytes"
    );
    for (leaf, hash) in leaves.iter().zip(&hashes) {
        assert_eq!(*hash, leaf_hash(leaf), "{what}");
    }
}

/// The leaves of an RS(10, 4) 1 MiB object's ten data shards of
/// 104,864 B at 64 KiB, leaf-major: what a store round checks.
#[test]
fn the_rs_10_4_round_batch_allocates_nothing() {
    let shards: Vec<Vec<u8>> = (0..10usize)
        .map(|s| {
            (0..104_864)
                .map(|i| ((i * 131 + s * 29) % 251) as u8)
                .collect()
        })
        .collect();
    let leaves: Vec<&[u8]> = (shards.iter().map(|s| &s[..65_536]))
        .chain(shards.iter().map(|s| &s[65_536..]))
        .collect();
    assert_allocation_free("RS(10, 4) 20 leaves", &leaves);
}

/// Forty leaves of mixed lengths, from empty to 74 blocks: refills and
/// a drain partway through.
#[test]
fn a_mixed_batch_allocates_nothing() {
    let backing: Vec<u8> = (0..4_800).map(|i| (i * 7 + 3) as u8).collect();
    let leaves: Vec<&[u8]> = (0..40)
        .map(|i| &backing[..(i * 7_919 + 11) % 4_800])
        .collect();
    assert_allocation_free("40 mixed leaves", &leaves);
}
