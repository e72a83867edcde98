//! Shard ↔ packet layout (the `w`-way striping of XOR-based EC).
//!
//! A shard of `L` bytes is `w` packets of `L/w` bytes. Generator
//! bit-matrix column `w·i + b` addresses packet `b` of shard `i`, so the
//! executor consumes/produces flat packet lists. `w = 8` for the GF(2^8)
//! codes (one packet per symbol bit), `w = prime − 1` for the array
//! codes.

use crate::error::EcError;

/// The `w` packets of one shard, in order.
///
/// Callers validate first: the shard length must be a multiple of `w`.
pub(crate) fn packets(shard: &[u8], w: usize) -> impl ExactSizeIterator<Item = &[u8]> {
    debug_assert_eq!(shard.len() % w, 0, "shard not packet-aligned");
    let pl = shard.len() / w;
    (0..w).map(move |k| &shard[k * pl..(k + 1) * pl])
}

/// The `w` packets of one mutable shard, in order.
pub(crate) fn packets_mut(shard: &mut [u8], w: usize) -> impl ExactSizeIterator<Item = &mut [u8]> {
    debug_assert_eq!(shard.len() % w, 0, "shard not packet-aligned");
    let pl = shard.len() / w;
    let mut rest = shard;
    (0..w).map(move |_| {
        let (packet, tail) = std::mem::take(&mut rest).split_at_mut(pl);
        rest = tail;
        packet
    })
}

/// Validate a set of equally sized, packet-aligned shards and return the
/// common shard length.
pub(crate) fn common_shard_len<'a>(
    mut shards: impl Iterator<Item = &'a [u8]>,
    w: usize,
) -> Result<usize, EcError> {
    let Some(first) = shards.next() else {
        return Err(EcError::ShardLength("no shards given".into()));
    };
    let len = first.len();
    if len % w != 0 {
        return Err(EcError::ShardLength(format!(
            "shard length {len} is not a multiple of {w}"
        )));
    }
    for s in shards {
        if s.len() != len {
            return Err(EcError::ShardLength(format!(
                "shard lengths differ: {len} vs {}",
                s.len()
            )));
        }
    }
    Ok(len)
}

/// Shard length used by [`crate::XorCodec::encode`] for a given data
/// length: the smallest packet-aligned length with `n` shards covering
/// the data.
pub(crate) fn shard_len_for(data_len: usize, n: usize, w: usize) -> usize {
    data_len.div_ceil(n).div_ceil(w) * w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_split_evenly() {
        let shard: Vec<u8> = (0..64u8).collect();
        let ps: Vec<&[u8]> = packets(&shard, 8).collect();
        assert_eq!(ps.len(), 8);
        assert_eq!(ps[0], &shard[0..8]);
        assert_eq!(ps[7], &shard[56..64]);
        // w need not divide 8: an array code's w = 4 or w = 6 striping.
        let ps: Vec<&[u8]> = packets(&shard[..60], 6).collect();
        assert_eq!(ps.len(), 6);
        assert_eq!(ps[5], &shard[50..60]);
    }

    #[test]
    fn packets_mut_are_disjoint_and_cover() {
        let mut shard = vec![0u8; 32];
        for (i, p) in packets_mut(&mut shard, 8).enumerate() {
            p.fill(i as u8);
        }
        assert_eq!(&shard[0..4], &[0, 0, 0, 0]);
        assert_eq!(&shard[28..32], &[7, 7, 7, 7]);
    }

    #[test]
    fn zero_length_shards() {
        let mut shard: [u8; 0] = [];
        assert_eq!(packets(&shard, 8).len(), 8);
        assert_eq!(packets_mut(&mut shard, 4).count(), 4);
    }

    #[test]
    fn common_len_checks() {
        let a = vec![0u8; 16];
        let b = vec![0u8; 16];
        assert_eq!(
            common_shard_len([a.as_slice(), b.as_slice()].into_iter(), 8),
            Ok(16)
        );
        let c = vec![0u8; 24];
        assert!(common_shard_len([a.as_slice(), c.as_slice()].into_iter(), 8).is_err());
        let odd = vec![0u8; 10];
        assert!(common_shard_len([odd.as_slice()].into_iter(), 8).is_err());
        assert_eq!(common_shard_len([odd.as_slice()].into_iter(), 5), Ok(10));
    }

    #[test]
    fn shard_len_rounding() {
        assert_eq!(shard_len_for(80, 10, 8), 8);
        assert_eq!(shard_len_for(81, 10, 8), 16);
        assert_eq!(shard_len_for(0, 10, 8), 0);
        assert_eq!(shard_len_for(1, 10, 8), 8);
        assert_eq!(shard_len_for(100, 4, 6), 30);
    }
}
