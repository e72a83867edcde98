//! Steady-state streaming encode performs **zero allocations per chunk**
//! after warm-up.
//!
//! The whole chain is engineered for this: `StreamEncoder` stages input
//! in fixed buffers, `RsCodec::encode_into` reuses the caller's shard
//! vectors and thread-local packet-ref scratch (`with_ref_scratch`), the
//! single-stripe plan runs inline on the caller's persistent arena,
//! the executor's pointer tables live in thread-local scratch, and the
//! chunk's `n + p` leaf hashes go through `leaf_hashes_into`, which
//! stages on the stack. This test pins the property with a counting
//! global allocator (which is why it lives alone in its own
//! integration-test binary) that counts **per thread**, so what the
//! libtest harness allocates on its own threads never reaches the
//! window and the assertion is exact: zero, not "mostly zero".
//!
//! One thing does grow with the stream — each shard's leaf-hash vector,
//! 32 bytes per chunk, doubling its capacity at 4, 8, 16, … chunks. The
//! measured window sits between two doublings (chunks 34..=63), which
//! is the claim as the encoder's docs make it: nothing is allocated
//! *per chunk*.

use ec_core::{RsCodec, RsConfig};
use ec_stream::StreamEncoder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Seek, SeekFrom, Write};

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

/// A sink that swallows frames without buffering (writing into a growing
/// `Vec` would itself allocate and mask the property under test).
struct NullSink(u64);

impl Write for NullSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Seek for NullSink {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        match pos {
            SeekFrom::Start(o) => self.0 = o,
            SeekFrom::Current(d) => self.0 = self.0.checked_add_signed(d).unwrap(),
            SeekFrom::End(_) => unimplemented!("not needed by the encoder"),
        }
        Ok(self.0)
    }
}

/// Encode `WARM_UP` chunks, then assert the next `WINDOW` allocate
/// nothing on this thread.
fn assert_steady_state_is_allocation_free(n: usize, p: usize) {
    const CHUNK: usize = 64 * 1024;
    // Past the leaf vectors' doubling at 32 chunks; the next is at 64.
    const WARM_UP: u64 = 33;
    const WINDOW: u64 = 30;
    // parallelism = 1: a single-stripe plan runs inline on this thread's
    // persistent arena (the pooled path hands stripes to workers, whose
    // arenas persist too, but each task submission boxes a closure).
    let codec = RsCodec::with_config(RsConfig::new(n, p).parallelism(1)).unwrap();
    let input: Vec<u8> = (0..CHUNK).map(|i| (i * 31 + 7) as u8).collect();

    let sinks: Vec<NullSink> = (0..codec.total_shards()).map(|_| NullSink(0)).collect();
    let mut enc = StreamEncoder::new(&codec, CHUNK, sinks).unwrap();

    // Warm-up: grows the shard buffers, the ref/pointer scratch and the
    // caller arena to the steady-state working set.
    for _ in 0..WARM_UP {
        enc.write_all(&input).unwrap();
    }
    let before = allocations_on_this_thread();
    for _ in 0..WINDOW {
        enc.write_all(&input).unwrap();
    }
    let allocated = allocations_on_this_thread() - before;
    assert_eq!(
        allocated, 0,
        "RS({n},{p}): {WINDOW} steady-state chunks made {allocated} allocations"
    );

    // The stream still finalizes to a consistent archive description.
    let (meta, _sinks) = enc.finalize().unwrap();
    assert_eq!(meta.chunk_count, WARM_UP + WINDOW);
    assert_eq!(meta.original_len, (WARM_UP + WINDOW) * CHUNK as u64);
}

/// 9 slices per chunk: over the lane kernel's break-even, so where the
/// CPU has it this is the batched path.
#[test]
fn steady_state_chunk_encode_is_allocation_free() {
    assert_steady_state_is_allocation_free(6, 3);
}

/// 14 slices per chunk, the benchmark's geometry.
#[test]
fn steady_state_chunk_encode_is_allocation_free_rs_10_4() {
    assert_steady_state_is_allocation_free(10, 4);
}

/// 6 slices per chunk: under the break-even, hashed one by one.
#[test]
fn steady_state_chunk_encode_is_allocation_free_rs_4_2() {
    assert_steady_state_is_allocation_free(4, 2);
}
