//! Deterministic shard placement: highest-random-weight (rendezvous)
//! hashing.
//!
//! Every client that knows the object name and the node set computes the
//! same placement with no coordination: node `j` gets score
//! `mix(fnv1a(node_j) ⊕ rot(fnv1a(object)))` and the `n + p` highest
//! scores host the shards, in score order. Removing one node from the
//! set only reassigns the shards that lived on it — the relative order
//! of the surviving nodes is untouched (the HRW property that makes
//! repair targeted instead of a full reshuffle).
//!
//! The exact hash (FNV-1a 64 + a splitmix64 finalizer) is part of the
//! deployment contract and is pinned in `docs/STORE.md`.

/// FNV-1a over a byte string (64-bit).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: spreads the weak FNV mixing over all 64 bits.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The rendezvous score of `(object, node)`.
pub fn score(object: &str, node: &str) -> u64 {
    mix(fnv1a(node.as_bytes()) ^ fnv1a(object.as_bytes()).rotate_left(32))
}

/// All node indices ranked by descending score (ties break by index, so
/// the ranking is total and deterministic).
pub fn rank_nodes(object: &str, nodes: &[String]) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..nodes.len()).collect();
    ranked.sort_by_key(|&i| (std::cmp::Reverse(score(object, &nodes[i])), i));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(k: usize) -> Vec<String> {
        (0..k).map(|i| format!("10.0.0.{i}:7000")).collect()
    }

    #[test]
    fn ranking_is_a_deterministic_permutation() {
        let ns = nodes(14);
        let a = rank_nodes("obj-007", &ns);
        let b = rank_nodes("obj-007", &ns);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..14).collect::<Vec<_>>());
    }

    #[test]
    fn different_objects_spread_across_nodes() {
        // The top-ranked node must not be constant across objects —
        // otherwise one node hosts every first shard.
        let ns = nodes(8);
        let firsts: std::collections::HashSet<usize> = (0..64)
            .map(|k| rank_nodes(&format!("obj-{k}"), &ns)[0])
            .collect();
        assert!(firsts.len() > 3, "placement is degenerate: {firsts:?}");
    }

    #[test]
    fn removing_a_node_preserves_relative_order() {
        // The HRW property: dropping node `d` from the set must not
        // change the relative order of the others.
        let ns = nodes(9);
        for d in 0..ns.len() {
            let survivors: Vec<String> = ns
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != d)
                .map(|(_, n)| n.clone())
                .collect();
            for obj in ["a", "obj-42", "some/longer/object/name"] {
                let full: Vec<&String> = rank_nodes(obj, &ns)
                    .into_iter()
                    .filter(|&i| i != d)
                    .map(|i| &ns[i])
                    .collect();
                let reduced: Vec<&String> = rank_nodes(obj, &survivors)
                    .into_iter()
                    .map(|i| &survivors[i])
                    .collect();
                assert_eq!(full, reduced, "object {obj}, dropped node {d}");
            }
        }
    }
}
