//! Differential tests: the incremental compressor must return the same
//! `(Slp, CompressStats)` as the from-scratch `reference` — the same
//! program, not an equivalent one — for both RePair and XorRePair.
//! `rebuild_probes` is the one field that is meant to differ.

use super::{const_code, reference, repair, xor_repair, Compressor, Temporals, Walk};
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
fn rs_20_4_encoder() {
    // 160 constants: three words per value set, past the one- and
    // two-word scans. Two of the four parity shards when not `FULL`.
    let matrix = encoding_matrix(MatrixKind::IsalPower, 20, 4);
    let rows: &[usize] = if FULL { &[20, 21, 22, 23] } else { &[20, 21] };
    let parity = BitMatrix::expand_gf_matrix(&matrix.select_rows(rows));
    assert_eq!((parity.rows(), parity.cols()), (8 * rows.len(), 160));
    assert_identical(&binary_slp_from_bitmatrix(&parity), "RS(20,4) P_enc");
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
    walk.bounds
        .iter()
        .copied()
        .zip(walk.picks.iter().copied())
        .collect()
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
            .filter(|&&oi| !c.originals[oi].walk.picks.is_empty());
        if c.live.len() < live_before && memos.count() > 0 {
            events.resolved_beside_memo += 1;
        }
        let Some((x, y)) = c.best_pair() else {
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

/// One walk fed four temporals in three steps, over a universe of
/// `universe` constants (the sets only use constants 0..8). Returns the
/// probe count after each step.
fn newcomer_walk(universe: usize) -> [usize; 3] {
    let set = |bits: &[u32]| {
        let mut words = vec![0u64; universe.div_ceil(64)];
        words[0] = bits.iter().fold(0, |w, b| w | 1 << b);
        words
    };
    let mut counts = [0; 3];
    let mut probes = 0;

    // ⟦v⟧ = {0..8}; t0 = {0,1}, t1 = {2,3}: the walk is t0 (6 left), t1 (4).
    let mut temporals = Temporals::new(universe);
    temporals.push(&set(&[0, 1]));
    temporals.push(&set(&[2, 3]));
    let mut walk = Walk::new(universe, &set(&[0, 1, 2, 3, 4, 5, 6, 7]));
    walk.rescan_from(0, &temporals, &mut probes);
    assert_eq!(picks(&walk), [(6, 0), (4, 1)]);
    assert_eq!(walk.candidate_len, 6);
    counts[0] = probes;

    // t2 = {4,5} ties with t0 in round 0 and with t1 in round 1: both keep
    // their round, and t2 only extends the walk by {6,7}.
    temporals.push(&set(&[4, 5]));
    walk.advance(&temporals, &mut probes);
    assert_eq!(picks(&walk), [(6, 0), (4, 1), (2, 2)]);
    counts[1] = probes;

    // t3 = {0,1,2,3,4} beats t0 in round 0 (3 left < 6): that round is
    // not rescanned. The tail would move by {2,3,4}, which t1 overlaps, so
    // it is dropped unprobed and the new remainder {5,6,7} meets all four
    // temporals.
    temporals.push(&set(&[0, 1, 2, 3, 4]));
    walk.advance(&temporals, &mut probes);
    assert_eq!(picks(&walk), [(3, 3)]);
    assert_eq!(
        walk.candidate(),
        [3, const_code(5), const_code(6), const_code(7)]
    );
    assert_eq!(walk.candidate_len, 4);
    counts[2] = probes;
    counts
}

#[test]
fn a_newcomer_takes_a_round_only_when_strictly_better() {
    // The newcomer meets every round with no size test first, at every
    // width. (A fresh scan skips sizes too far from `|rem|`, but here
    // every size is within reach.)
    //  step 1: ⟦v⟧, {2..8} and {4..8} each against t0, t1 — 6;
    //  step 2: t2 against the three remainders (9), then {6,7} against
    //          t0..t2 — 12;
    //  step 3: t3 against ⟦v⟧ wins at once (13), then {5,6,7} against
    //          t0..t3 — 17.
    // One, two and three words per set: no scan branches on the width.
    for universe in [8, 128, 192] {
        assert_eq!(newcomer_walk(universe), [6, 12, 17], "{universe}");
    }
}

/// A walk over `universe` constants fed one temporal at a time, each
/// newcomer one constant off the pick it takes; checked against a walk fed
/// all of them at once. Returns the probe count after each step.
fn shifted_walk(universe: usize) -> [usize; 3] {
    let set = |bits: &[u32]| {
        let mut words = vec![0u64; universe.div_ceil(64)];
        words[0] = bits.iter().fold(0, |w, b| w | 1 << b);
        words
    };
    let value = set(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let mut counts = [0; 3];
    let mut probes = 0;
    let mut temporals = Temporals::new(universe);
    let mut walk = Walk::new(universe, &value);
    let mut step = |t: &[u32], walk: &mut Walk, probes: &mut usize| {
        temporals.push(&set(t));
        walk.advance(&temporals, probes);
        let mut fresh = Walk::new(universe, &value);
        fresh.rescan_from(0, &temporals, &mut 0);
        assert_eq!(picks(walk), picks(&fresh));
        assert_eq!(walk.rems.words, fresh.rems.words);
        assert_eq!(walk.candidate_len, fresh.candidate_len);
    };

    // t0 = {0,1}, t1 = {4,5}: the walk is t0 (6 left), t1 (4: {2,3,6,7}).
    step(&[0, 1], &mut walk, &mut probes);
    step(&[4, 5], &mut walk, &mut probes);
    assert_eq!(picks(&walk), [(6, 0), (4, 1)]);
    counts[0] = probes;

    // t2 = {0,1,2} takes round 0 from t0 (5 < 6). That moves the tail by
    // {2}, which lies inside {2..8} and {2,3,6,7}: t1 keeps round 1 at 3,
    // {3,6,7} stays the last remainder, and t2 is probed once per round.
    step(&[0, 1, 2], &mut walk, &mut probes);
    assert_eq!(picks(&walk), [(5, 2), (3, 1)]);
    assert_eq!(
        walk.candidate(),
        [1, 2, const_code(3), const_code(6), const_code(7)]
    );
    counts[1] = probes;

    // t3 = {0,1,2,4} takes round 0 from t2 (4 < 5). The tail would move by
    // {4}, which t1 holds: round 1 goes, and {3,5,6,7} is scanned afresh
    // against all four — none shrinks it.
    step(&[0, 1, 2, 4], &mut walk, &mut probes);
    assert_eq!(picks(&walk), [(4, 3)]);
    assert_eq!(walk.candidate_len, 5);
    counts[2] = probes;
    counts
}

#[test]
fn a_newcomer_that_moves_the_tail_inside_it_keeps_the_later_picks() {
    //  step 1: t0 against ⟦v⟧, which it takes, and {2..8} (2); t1
    //          against ⟦v⟧ and {2..8}, which it takes, then {2,3,6,7}
    //          against both — 6;
    //  step 2: t2 against ⟦v⟧ (7), then against the two moved remainders
    //          — 9;
    //  step 3: t3 against ⟦v⟧ (10), then {3,5,6,7} against t0..t3 — 14.
    // One and three words per set: the same counts.
    for universe in [8, 192] {
        assert_eq!(shifted_walk(universe), [6, 9, 14], "{universe}");
    }
}

#[test]
fn a_temporal_picked_twice_cancels() {
    let mut walk = Walk::new(8, &[0xff]);
    walk.picks = vec![4, 1, 4, 2, 4, 1];
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
        let mut met = Temporals::new(128);
        for &t in &temporals {
            met.push(&thin(t));
            stepwise.advance(&met, &mut 0);
            let mut fresh = Walk::new(128, &value);
            fresh.rescan_from(0, &met, &mut 0);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if FULL { 32 } else { 1 }))]

    // Three and four words per value set: past the one- and two-word
    // scans.
    #[test]
    fn random_matrices_150_by_24(p in dense_flat_slp(150, 24, 0.3)) {
        assert_identical(&p, "a random 24 × 150 matrix");
    }

    #[test]
    fn random_matrices_200_by_16(p in dense_flat_slp(200, 16, 0.3)) {
        assert_identical(&p, "a random 16 × 200 matrix");
    }
}
