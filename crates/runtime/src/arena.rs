//! Aligned, cache-conflict-aware buffer management (§7.4).
//!
//! On a 32 KiB / 8-way / 64-byte-line L1 cache, two blocks whose start
//! addresses are congruent modulo 4 KiB compete for the same cache sets.
//! The paper's allocation strategy places array `i` so that
//! `A(arr_i) ≡ i·B (mod 4096)` for blocksize `B`, spreading concurrently
//! used chunks across sets. [`VarArena`] and [`StripedBuf`] both implement
//! this staggering.

use std::alloc::{alloc_zeroed, dealloc, Layout};

/// The conflict modulus: blocks congruent mod 4096 share L1 cache sets.
pub const CACHE_PAGE: usize = 4096;

/// A heap buffer aligned to [`CACHE_PAGE`].
pub struct AlignedBuf {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: AlignedBuf uniquely owns its allocation, like Vec<u8>.
unsafe impl Send for AlignedBuf {}
// SAFETY: like Vec<u8>: `&AlignedBuf` offers only reads (`as_slice`) and
// a raw base pointer; every write needs `&mut self` or goes through that
// pointer under its user's own contract (`VarArena` strips are handed to
// one thread at a time).
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// Allocate `len` zeroed bytes aligned to 4096.
    pub fn new(len: usize) -> AlignedBuf {
        assert!(len > 0, "cannot allocate an empty aligned buffer");
        let layout =
            Layout::from_size_align(len, CACHE_PAGE).expect("invalid aligned-buffer layout");
        // SAFETY: layout has non-zero size (len > 0 asserted above).
        let ptr = unsafe { alloc_zeroed(layout) };
        assert!(!ptr.is_null(), "aligned allocation of {len} bytes failed");
        AlignedBuf { ptr, len }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the buffer has zero length (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base pointer (4096-aligned).
    pub fn as_ptr(&self) -> *const u8 {
        self.ptr
    }

    /// Mutable base pointer.
    pub fn as_mut_ptr(&mut self) -> *mut u8 {
        self.ptr
    }

    /// The whole buffer as a slice.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr is valid for len bytes and initialized (zeroed).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// The whole buffer as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: ptr is valid for len bytes, initialized, uniquely owned.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        let layout =
            Layout::from_size_align(self.len, CACHE_PAGE).expect("layout was valid at allocation");
        // SAFETY: allocated with the same layout in `new`.
        unsafe { dealloc(self.ptr, layout) };
    }
}

/// Round `n` up to a multiple of `m`.
fn round_up(n: usize, m: usize) -> usize {
    n.div_ceil(m) * m
}

/// The variable arena of the executor: `n_vars` buffers of `array_len`
/// bytes each, placed so that buffer `i` starts at an address
/// `≡ i·blocksize (mod 4096)`.
pub struct VarArena {
    buf: AlignedBuf,
    stride: usize,
    array_len: usize,
    n_vars: usize,
}

impl VarArena {
    /// Allocate an arena. `blocksize` is the blocking parameter `B`; the
    /// staggering only matters when `B` divides 4096, but any value is
    /// accepted.
    pub fn new(n_vars: usize, array_len: usize, blocksize: usize) -> VarArena {
        let n = n_vars.max(1);
        let len = array_len.max(1);
        // stride ≡ blocksize (mod 4096) and stride ≥ array_len, so buffer
        // i sits at i·stride ≡ i·B (mod 4096).
        let stride = round_up(len, CACHE_PAGE) + (blocksize % CACHE_PAGE);
        VarArena {
            buf: AlignedBuf::new(n * stride),
            stride,
            array_len: len,
            n_vars: n,
        }
    }

    /// Does this arena fit a program with the given requirements?
    ///
    /// Grow-on-demand semantics: an arena sized for a *larger* array
    /// length still fits a smaller one (the staggering invariant
    /// `A(v_i) ≡ i·B (mod 4096)` only depends on the stride residue, not
    /// on the run length), so long-lived arenas — e.g. a pool worker's —
    /// stop reallocating once they have grown to the peak working set.
    pub fn fits(&self, n_vars: usize, array_len: usize, blocksize: usize) -> bool {
        self.n_vars >= n_vars.max(1)
            && self.array_len >= array_len.max(1)
            && self.stride % CACHE_PAGE == blocksize % CACHE_PAGE
    }

    /// Number of variable buffers.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Length of each buffer.
    pub fn array_len(&self) -> usize {
        self.array_len
    }

    /// Base pointer of variable `i`'s buffer.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn var_ptr(&self, i: usize) -> *mut u8 {
        assert!(i < self.n_vars, "variable index {i} out of arena range");
        // SAFETY: i·stride + array_len ≤ buffer length by construction.
        unsafe { self.buf.as_ptr().add(i * self.stride) as *mut u8 }
    }

    /// Variable `i`'s buffer as a slice (test helper).
    pub fn var_slice(&self, i: usize) -> &[u8] {
        // SAFETY: var_ptr bounds-checks; region is initialized.
        unsafe { std::slice::from_raw_parts(self.var_ptr(i), self.array_len) }
    }
}

/// A set of equally-sized strips allocated with the same staggering
/// strategy — used by benchmarks to lay out *input* packets the way the
/// paper's evaluation does, and by tests as a convenient shard container.
pub struct StripedBuf {
    arena: VarArena,
}

impl StripedBuf {
    /// Allocate `strips` buffers of `strip_len` bytes staggered for
    /// blocksize `B`.
    pub fn new(strips: usize, strip_len: usize, blocksize: usize) -> StripedBuf {
        StripedBuf {
            arena: VarArena::new(strips, strip_len, blocksize),
        }
    }

    /// Number of strips.
    pub fn strips(&self) -> usize {
        self.arena.n_vars()
    }

    /// Length of each strip.
    pub fn strip_len(&self) -> usize {
        self.arena.array_len()
    }

    /// Strip `i` as a slice.
    pub fn strip(&self, i: usize) -> &[u8] {
        self.arena.var_slice(i)
    }

    /// Strip `i` as a mutable slice.
    pub fn strip_mut(&mut self, i: usize) -> &mut [u8] {
        // SAFETY: strips are disjoint; &mut self gives unique access.
        unsafe { std::slice::from_raw_parts_mut(self.arena.var_ptr(i), self.arena.array_len()) }
    }

    /// All strips as immutable slices.
    pub fn all(&self) -> Vec<&[u8]> {
        (0..self.strips()).map(|i| self.strip(i)).collect()
    }

    /// All strips as mutable slices (strips are disjoint, so handing out
    /// one `&mut` per strip from `&mut self` is sound).
    pub fn all_mut(&mut self) -> Vec<&mut [u8]> {
        let len = self.arena.array_len();
        (0..self.strips())
            .map(|i| {
                let ptr = self.arena.var_ptr(i);
                // SAFETY: var_ptr(i) regions never overlap (see
                // VarArena::new); &mut self guarantees exclusive access to
                // the whole arena for the lifetime of the returned slices.
                unsafe { std::slice::from_raw_parts_mut(ptr, len) }
            })
            .collect()
    }

    /// Fill every strip from an iterator of bytes (cycling workload
    /// generator for tests).
    pub fn fill_with(&mut self, mut f: impl FnMut(usize, usize) -> u8) {
        for s in 0..self.strips() {
            let strip = self.strip_mut(s);
            for (i, b) in strip.iter_mut().enumerate() {
                *b = f(s, i);
            }
        }
    }
}

/// The resting form of the [`with_ref_scratch`] vectors: always empty,
/// so the `'static` lifetime is never attached to a live reference.
type RefScratch = (Vec<&'static [u8]>, Vec<&'static mut [u8]>);

thread_local! {
    /// Reusable slice-reference scratch (see [`with_ref_scratch`]): the
    /// packet-ref lists the codecs build per call. At rest both vectors
    /// are always empty; only their capacity persists.
    static REF_SCRATCH: std::cell::RefCell<RefScratch> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Run `f` with this thread's persistent pair of slice-reference vectors
/// (immutable inputs, mutable outputs), both empty on entry.
///
/// The codec hot paths flatten shards into per-packet slice lists on
/// every call; collecting those into fresh `Vec`s is the last per-call
/// allocation on the steady-state encode path. This helper lends out
/// capacity-retaining vectors instead. Not re-entrant: a nested call
/// simply sees empty fresh vectors (graceful, but unshared).
pub fn with_ref_scratch<'a, R>(
    f: impl FnOnce(&mut Vec<&'a [u8]>, &mut Vec<&'a mut [u8]>) -> R,
) -> R {
    let (ins, outs) = REF_SCRATCH.with(|cell| {
        let mut b = cell.borrow_mut();
        (std::mem::take(&mut b.0), std::mem::take(&mut b.1))
    });
    // SAFETY: both vectors are empty (emptied before being stored back,
    // and `mem::take` above leaves empties behind), so this transmute
    // only changes the lifetime parameter of a `Vec` holding no
    // elements. Lifetimes do not affect layout.
    let mut ins: Vec<&'a [u8]> = unsafe { std::mem::transmute::<Vec<&'static [u8]>, _>(ins) };
    let mut outs: Vec<&'a mut [u8]> =
        // SAFETY: as for `ins` — an empty `Vec`, lifetime-only transmute.
        unsafe { std::mem::transmute::<Vec<&'static mut [u8]>, _>(outs) };
    let r = f(&mut ins, &mut outs);
    ins.clear();
    outs.clear();
    // SAFETY: cleared above — empty again, lifetime-only transmute back.
    let ins: Vec<&'static [u8]> = unsafe { std::mem::transmute::<Vec<&'a [u8]>, _>(ins) };
    let outs: Vec<&'static mut [u8]> =
        // SAFETY: cleared above — empty again, lifetime-only transmute back.
        unsafe { std::mem::transmute::<Vec<&'a mut [u8]>, _>(outs) };
    REF_SCRATCH.with(|cell| {
        let mut b = cell.borrow_mut();
        b.0 = ins;
        b.1 = outs;
    });
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_scratch_is_empty_on_entry_and_reuses_capacity() {
        let data = vec![1u8; 8];
        let mut out = vec![0u8; 8];
        let cap = with_ref_scratch(|ins, outs| {
            assert!(ins.is_empty() && outs.is_empty());
            for _ in 0..32 {
                ins.push(&data);
            }
            outs.push(&mut out);
            ins.capacity()
        });
        // The next borrow sees empty vectors backed by the same capacity.
        with_ref_scratch(|ins: &mut Vec<&[u8]>, outs| {
            assert!(ins.is_empty() && outs.is_empty());
            assert_eq!(ins.capacity(), cap);
        });
    }

    #[test]
    fn aligned_buf_is_page_aligned_and_zeroed() {
        let b = AlignedBuf::new(10_000);
        assert_eq!(b.as_ptr() as usize % CACHE_PAGE, 0);
        assert!(b.as_slice().iter().all(|&x| x == 0));
        assert_eq!(b.len(), 10_000);
    }

    #[test]
    fn arena_staggering_matches_the_paper() {
        // A(v_i) ≡ i·B (mod 4096) for B = 1024 (§7.4's example: offsets
        // cycle 0, 1K, 2K, 3K, 0, 1K, …).
        let blocksize = 1024;
        let arena = VarArena::new(8, 12_288, blocksize);
        for i in 0..8 {
            let addr = arena.var_ptr(i) as usize;
            assert_eq!(
                addr % CACHE_PAGE,
                (i * blocksize) % CACHE_PAGE,
                "variable {i} not staggered"
            );
        }
    }

    #[test]
    fn arena_buffers_are_disjoint() {
        let arena = VarArena::new(4, 1000, 512);
        for i in 0..4 {
            for j in 0..4 {
                if i == j {
                    continue;
                }
                let a = arena.var_ptr(i) as usize;
                let b = arena.var_ptr(j) as usize;
                assert!(
                    a + 1000 <= b || b + 1000 <= a,
                    "buffers {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn arena_fits_checks() {
        let arena = VarArena::new(8, 4096, 1024);
        assert!(arena.fits(8, 4096, 1024));
        assert!(arena.fits(4, 4096, 1024));
        // grow-on-demand: a smaller run length fits a larger arena
        assert!(arena.fits(8, 2048, 1024));
        assert!(!arena.fits(9, 4096, 1024));
        assert!(!arena.fits(8, 8192, 1024));
        assert!(!arena.fits(8, 4096, 512));
    }

    #[test]
    fn striped_buf_roundtrip() {
        let mut s = StripedBuf::new(3, 100, 64);
        s.fill_with(|strip, i| (strip * 31 + i) as u8);
        for strip in 0..3 {
            assert!(s
                .strip(strip)
                .iter()
                .enumerate()
                .all(|(i, &b)| b == (strip * 31 + i) as u8));
        }
        assert_eq!(s.all().len(), 3);
    }

    #[test]
    fn degenerate_sizes_are_clamped() {
        let arena = VarArena::new(0, 0, 64);
        assert_eq!(arena.n_vars(), 1);
        assert_eq!(arena.array_len(), 1);
    }
}
