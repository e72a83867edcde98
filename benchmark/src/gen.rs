//! Seeded input generation: payload bytes, object names, erasure
//! patterns. The same seed gives the same inputs; the program under
//! test sees only what is generated here.

/// xorshift64* — small, fast, and good enough for payload bytes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, label)`: each consumer derives its own, so
    /// adding a consumer never shifts another's inputs.
    pub fn new(seed: u64, label: &str) -> Rng {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        // splitmix64 finalizer; xorshift must not start at zero.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((h ^ (h >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..bound` (`bound > 0`; the modulo bias is far below
    /// anything a benchmark input can notice).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        let last = self.next_u64().to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill(&mut v);
        v
    }

    /// A short lowercase name, e.g. for store objects.
    pub fn name(&mut self, prefix: &str) -> String {
        let mut s = String::from(prefix);
        for _ in 0..8 {
            s.push((b'a' + self.below(26) as u8) as char);
        }
        s
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Every pattern of two lost data shards (`C(n, 2)` of them), in seed
/// order.
pub fn data_pair_patterns(rng: &mut Rng, n: usize) -> Vec<Vec<usize>> {
    let mut all: Vec<Vec<usize>> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| vec![a, b]))
        .collect();
    rng.shuffle(&mut all);
    all
}

/// Every pattern of one lost data shard and one lost parity shard
/// (`n · p` of them), in seed order.
pub fn repair_patterns(rng: &mut Rng, n: usize, p: usize) -> Vec<Vec<usize>> {
    let mut all: Vec<Vec<usize>> = (0..n)
        .flat_map(|d| (n..n + p).map(move |q| vec![d, q]))
        .collect();
    rng.shuffle(&mut all);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let draw = |seed| {
            let mut r = Rng::new(seed, "payload");
            let bytes = r.bytes(1000);
            let names: Vec<String> = (0..4).map(|_| r.name("o-")).collect();
            let pats = (
                data_pair_patterns(&mut r, 10),
                repair_patterns(&mut r, 10, 4),
            );
            (bytes, names, pats)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(Rng::new(7, "a").next_u64(), Rng::new(7, "b").next_u64());
    }

    #[test]
    fn patterns_cover_every_case_once_in_seed_order() {
        let mut r = Rng::new(1, "patterns");
        let pairs = data_pair_patterns(&mut r, 10);
        let repairs = repair_patterns(&mut r, 10, 4);
        assert_eq!((pairs.len(), repairs.len()), (45, 40));
        for (i, p) in repairs.iter().enumerate() {
            assert!(p[0] < 10 && (10..14).contains(&p[1]));
            assert!(!repairs[..i].contains(p));
        }
        let mut sorted_pairs = pairs.clone();
        sorted_pairs.sort();
        sorted_pairs.dedup();
        assert_eq!(sorted_pairs.len(), 45);
        assert_ne!(pairs, sorted_pairs, "shuffled, not enumerated");
        let mut order: Vec<usize> = (0..50).collect();
        r.shuffle(&mut order);
        assert_ne!(order, (0..50).collect::<Vec<_>>());
        order.sort_unstable();
        assert_eq!(
            order,
            (0..50).collect::<Vec<_>>(),
            "a shuffle is a permutation"
        );
        let mut r = Rng::new(1, "fill");
        let v = r.bytes(13);
        assert_eq!(v.len(), 13);
        assert!(v.iter().any(|&b| b != 0));
    }
}
