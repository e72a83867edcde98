//! Differential tests: the incremental compressor must return the same
//! `(Slp, CompressStats)` as the from-scratch `reference` — the same
//! program, not an equivalent one — for both RePair and XorRePair.
//! `rebuild_probes` is the one field that is meant to differ.

use super::{const_code, reference, repair, xor_repair, Compressor, Round, Sets, Walk};
use bitmatrix::BitMatrix;
use gf256::{encoding_matrix, GfMatrix, MatrixKind};
use proptest::prelude::*;
use slp::{binary_slp_from_bitmatrix, flat_slp_from_bitmatrix, Instr, Slp, Term};

/// The reference takes about a second per RS(10,4)-sized program in an
/// unoptimized build, so `cargo test` runs a sample of the large cases and
/// `cargo test --release` (a CI row) runs all of them.
const FULL: bool = !cfg!(debug_assertions);

/// Both compressors on `p`, new against reference. Returns XorRePair's
/// probe counts `(new, reference)`.
fn assert_identical(p: &Slp, what: &str) -> (usize, usize) {
    let (new, new_stats) = repair(p);
    let (old, old_stats) = reference::repair(p);
    assert_eq!(new, old, "RePair program differs on {what}");
    assert_eq!(new_stats, old_stats, "RePair stats differ on {what}");

    let (new, new_stats) = xor_repair(p);
    let (old, old_stats) = reference::xor_repair(p);
    assert_eq!(new, old, "XorRePair program differs on {what}");
    assert_eq!(
        (
            new_stats.pairs,
            new_stats.rebuilds_applied,
            new_stats.dead_temporals
        ),
        (
            old_stats.pairs,
            old_stats.rebuilds_applied,
            old_stats.dead_temporals
        ),
        "XorRePair stats differ on {what}"
    );
    (new_stats.rebuild_probes, old_stats.rebuild_probes)
}

fn rs_10_4() -> GfMatrix {
    encoding_matrix(MatrixKind::IsalPower, 10, 4)
}

fn rs_10_4_parity_bits() -> BitMatrix {
    BitMatrix::expand_gf_matrix(&rs_10_4().select_rows(&[10, 11, 12, 13]))
}

/// The decode bit-matrix for `lost` as the codec builds it: invert the
/// first ten surviving rows, keep the rows of the lost data shards.
fn rs_10_4_decode_bits(lost: &[usize]) -> BitMatrix {
    let survivors: Vec<usize> = (0..14).filter(|i| !lost.contains(i)).collect();
    let inv = rs_10_4()
        .select_rows(&survivors[..10])
        .invert()
        .expect("MDS: any ten rows are independent");
    let lost_data: Vec<usize> = lost.iter().copied().filter(|&i| i < 10).collect();
    BitMatrix::expand_gf_matrix(&inv.select_rows(&lost_data))
}

#[test]
fn paper_p0() {
    use Term::{Const, Var};
    let p0 = Slp::new(
        4,
        vec![
            Instr::new(0, vec![Const(0), Const(1)]),
            Instr::new(1, vec![Const(0), Const(1), Const(2)]),
            Instr::new(2, vec![Const(0), Const(1), Const(2), Const(3)]),
            Instr::new(3, vec![Const(1), Const(2), Const(3)]),
        ],
        vec![Var(0), Var(1), Var(2), Var(3)],
    )
    .unwrap();
    assert_identical(&p0, "P0");
}

#[test]
fn rs_10_4_encoder() {
    let base = binary_slp_from_bitmatrix(&rs_10_4_parity_bits());
    let (new, old) = assert_identical(&base, "RS(10,4) P_enc");
    assert_eq!(old, 7_111_720, "probes of the from-scratch Rebuild");
    assert!(new <= 400_000, "incremental Rebuild made {new} probes");
}

#[test]
fn rs_10_4_update_columns() {
    let parity = rs_10_4_parity_bits();
    for shard in 0..10 {
        let block = parity.col_range(8 * shard, 8);
        assert_eq!((block.rows(), block.cols()), (32, 8));
        assert_identical(
            &binary_slp_from_bitmatrix(&block),
            &format!("update column {shard}"),
        );
    }
}

#[test]
fn rs_10_4_decoders() {
    // The paper's P_dec (1368 XORs), the largest decoder (1416), every
    // single loss and every data-losing double loss: 97 matrices (one
    // double in nine when not `FULL`).
    let mut patterns: Vec<Vec<usize>> = vec![vec![2, 4, 5, 6], vec![0, 2, 3, 9]];
    patterns.extend((0..10).map(|a| vec![a]));
    let doubles = (0..10usize).flat_map(|a| (a + 1..14).map(move |b| vec![a, b]));
    patterns.extend(doubles.step_by(if FULL { 1 } else { 9 }));
    assert!(!FULL || patterns.len() >= 60);
    for lost in &patterns {
        let base = binary_slp_from_bitmatrix(&rs_10_4_decode_bits(lost));
        assert_identical(&base, &format!("decode {lost:?}"));
    }
    let xors = |lost: &[usize]| binary_slp_from_bitmatrix(&rs_10_4_decode_bits(lost)).xor_count();
    assert_eq!((xors(&[2, 4, 5, 6]), xors(&[0, 2, 3, 9])), (1368, 1416));
}

/// `(|rem ⊕ t|, index of t)` of every round of a walk but the last.
fn picks(walk: &Walk) -> Vec<(u32, u32)> {
    walk.rounds.iter().filter_map(|round| round.best).collect()
}

/// What happened during one hand-driven XorRePair run.
#[derive(Debug, Default)]
struct Events {
    /// Steps whose pair already had a temporal (`by_def` hit).
    reused_temporal: usize,
    /// Walks redone from a round that had a stored pick.
    early_divergence: usize,
    /// Originals resolved while another original's memo survived the step.
    resolved_beside_memo: usize,
}

/// `Compressor::run(true)`, step by step, noting the rare paths taken.
fn drive(p: &Slp) -> (Slp, Events) {
    let mut c = Compressor::new(&p.flatten());
    let mut events = Events::default();
    loop {
        let live_before = c.live.len();
        c.resolve_aliases();
        let memos = c
            .live
            .iter()
            .filter(|&&oi| c.originals[oi].walk.rounds.len() > 1);
        if c.live.len() < live_before && memos.count() > 0 {
            events.resolved_beside_memo += 1;
        }
        let Some((x, y)) = c.pairs.best(&c.occ) else {
            break;
        };
        let temporals = c.temporals.len();
        c.apply_pair(x, y);
        events.reused_temporal += usize::from(c.temporals.len() == temporals);

        let walks = |c: &Compressor| -> Vec<Vec<(u32, u32)>> {
            c.live
                .iter()
                .map(|&oi| picks(&c.originals[oi].walk))
                .collect()
        };
        let before = walks(&c);
        c.rebuild_pass();
        for (old, new) in before.iter().zip(walks(&c)) {
            let common = old.iter().zip(&new).take_while(|(a, b)| a == b).count();
            events.early_divergence += usize::from(common < old.len());
        }
    }
    assert!(c.live.is_empty());
    (c.emit().0, events)
}

#[test]
fn rare_paths_are_taken_and_still_identical() {
    // A 6 × 10 matrix (found by random search) on which one run reuses an
    // existing temporal, redoes walks from an early round, and resolves
    // originals while others keep their memos.
    let p = flat_slp_from_bitmatrix(&BitMatrix::parse(&[
        "0001000101",
        "1011110010",
        "0001001011",
        "1101000100",
        "1000011011",
        "0010000101",
    ]));
    let (driven, events) = drive(&p);
    assert!(events.reused_temporal > 0, "{events:?}");
    assert!(events.early_divergence > 0, "{events:?}");
    assert!(events.resolved_beside_memo > 0, "{events:?}");
    assert_eq!(driven, reference::xor_repair(&p).0);
    assert_identical(&p, "the rare-path matrix");
}

#[test]
fn a_newcomer_takes_a_round_only_when_strictly_better() {
    // ⟦v⟧ = {0..8}; t0 = {0,1}, t1 = {2,3}: the walk is t0 (6 left), t1 (4).
    let set = |bits: &[u32]| [bits.iter().fold(0u64, |w, b| w | 1 << b)];
    let mut temporals = Sets::new(8);
    temporals.push(&set(&[0, 1]));
    temporals.push(&set(&[2, 3]));
    let mut probes = 0;
    let mut walk = Walk::new(8, &set(&[0, 1, 2, 3, 4, 5, 6, 7]));
    walk.advance(&temporals, &mut probes);
    assert_eq!(picks(&walk), [(6, 0), (4, 1)]);
    // three remainders against two temporals, less t1 against ⟦v⟧: once t0
    // leaves 6, a two-element set cannot leave fewer
    assert_eq!((walk.candidate_len, probes), (6, 5));

    // t2 = {4,5} ties with t0 in round 0 and with t1 in round 1: both keep
    // their round (by size alone), and t2 only extends the walk: one probe
    // against {4..8}, three for the new remainder {6,7}.
    temporals.push(&set(&[4, 5]));
    walk.advance(&temporals, &mut probes);
    assert_eq!(picks(&walk), [(6, 0), (4, 1), (2, 2)]);
    assert_eq!(probes, 9);

    // t3 = {0,1,2,3,4} beats t0 in round 0 (3 left < 6): that round is
    // not rescanned, the rest of the walk is dropped unprobed, and the new
    // remainder {5,6,7} meets all four temporals.
    temporals.push(&set(&[0, 1, 2, 3, 4]));
    walk.advance(&temporals, &mut probes);
    assert_eq!(picks(&walk), [(3, 3)]);
    assert_eq!(
        walk.candidate(),
        [3, const_code(5), const_code(6), const_code(7)]
    );
    assert_eq!((walk.candidate_len, probes), (4, 14));

    // Nothing new: no probes at all.
    walk.advance(&temporals, &mut probes);
    assert_eq!(probes, 14);
}

#[test]
fn a_temporal_picked_twice_cancels() {
    let mut walk = Walk::new(8, &[0xff]);
    let best = |idx| Round {
        best: Some((0, idx)),
        seen: 0,
    };
    walk.rounds = vec![best(4), best(1), best(4), best(2), best(4), best(1)];
    assert_eq!(walk.chosen().collect::<Vec<_>>(), [4, 2]);
}

/// Random flat SLP of `n_outputs` rows over `n_consts` inputs, each input
/// present with probability `density`; empty rows get input 0.
fn dense_flat_slp(n_consts: u32, n_outputs: usize, density: f64) -> impl Strategy<Value = Slp> {
    proptest::collection::vec(
        proptest::collection::vec(any::<u32>(), n_consts as usize),
        n_outputs,
    )
    .prop_map(move |rows| {
        let threshold = (density * f64::from(u32::MAX)) as u32;
        let mut bits = BitMatrix::zero(rows.len(), n_consts as usize);
        for (r, row) in rows.iter().enumerate() {
            for (c, &x) in row.iter().enumerate() {
                bits.set(r, c, x < threshold);
            }
            if bits.row_popcount(r) == 0 {
                bits.set(r, 0, true);
            }
        }
        flat_slp_from_bitmatrix(&bits)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_matrices_24_by_12(p in dense_flat_slp(24, 12, 0.5)) {
        assert_identical(&p, "a random 12 × 24 matrix");
    }

    #[test]
    fn a_walk_fed_one_temporal_at_a_time_equals_a_walk_fed_all_at_once(
        value in (any::<u64>(), any::<u64>()),
        temporals in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..24),
        sparsity in 0u32..3,
    ) {
        // AND-ing each word with a rotation of itself thins the sets out,
        // so that some temporals shrink the value and most do not.
        let thin = |w: (u64, u64)| [
            w.0 & w.0.rotate_left(sparsity),
            w.1 & w.1.rotate_left(2 * sparsity),
        ];
        let value = thin(value);
        let mut stepwise = Walk::new(128, &value);
        let mut met = Sets::new(128);
        for &t in &temporals {
            met.push(&thin(t));
            stepwise.advance(&met, &mut 0);
            let mut fresh = Walk::new(128, &value);
            fresh.advance(&met, &mut 0);
            prop_assert_eq!(picks(&stepwise), picks(&fresh));
            prop_assert_eq!(&stepwise.rems.words, &fresh.rems.words);
            prop_assert_eq!(stepwise.candidate(), fresh.candidate());
            prop_assert_eq!(stepwise.candidate_len, fresh.candidate_len);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if FULL { 64 } else { 4 }))]

    #[test]
    fn random_matrices_80_by_32(p in dense_flat_slp(80, 32, 0.3)) {
        assert_identical(&p, "a random 32 × 80 matrix");
    }
}
