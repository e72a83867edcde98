//! Property tests: every pass preserves `⟦·⟧` on random programs, and the
//! quantitative theorems hold.

use crate::{fuse, optimize, repair, schedule_dfs, schedule_greedy, xor_repair, OptConfig};
use crate::{Compression, Scheduling};
use proptest::prelude::*;
use slp::{Instr, Slp, Term};

/// Random flat SLP: `n_outputs` rows over `n_consts` inputs, each row a
/// random non-empty subset. This is exactly the shape coding matrices
/// produce.
fn flat_slp(n_consts: usize, n_outputs: usize) -> impl Strategy<Value = Slp> {
    proptest::collection::vec(
        proptest::collection::btree_set(0..n_consts as u32, 1..=n_consts),
        n_outputs,
    )
    .prop_map(move |rows| {
        let mut instrs = Vec::new();
        let mut outputs = Vec::new();
        for row in rows {
            let dst = instrs.len() as u32;
            instrs.push(Instr::new(
                dst,
                row.into_iter().map(Term::Const).collect::<Vec<_>>(),
            ));
            outputs.push(Term::Var(dst));
        }
        Slp::new(n_consts, instrs, outputs).unwrap()
    })
}

/// Random layered DAG SLP exercising variable reuse in argument lists.
fn dag_slp() -> impl Strategy<Value = Slp> {
    (4usize..10, 5usize..25).prop_flat_map(|(n_consts, n_instrs)| {
        let arity = 2usize..5;
        proptest::collection::vec(
            (proptest::collection::vec(any::<u32>(), arity), any::<u32>()),
            n_instrs,
        )
        .prop_map(move |raw| {
            let mut instrs: Vec<Instr> = Vec::new();
            for (v, (seeds, _)) in raw.iter().enumerate() {
                let v = v as u32;
                let mut args: Vec<Term> = Vec::new();
                for &s in seeds {
                    // mix constants and previously defined variables
                    let t = if v > 0 && s % 3 == 0 {
                        Term::Var(s % v)
                    } else {
                        Term::Const(s % n_consts as u32)
                    };
                    if !args.contains(&t) {
                        args.push(t);
                    }
                }
                if args.is_empty() {
                    args.push(Term::Const(0));
                }
                instrs.push(Instr::new(v, args));
            }
            let n = instrs.len() as u32;
            let outputs: Vec<Term> = (n.saturating_sub(4)..n).map(Term::Var).collect();
            Slp::new(n_consts, instrs, outputs).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn repair_preserves_semantics(p in flat_slp(10, 6)) {
        let (q, _) = repair(&p);
        prop_assert_eq!(q.eval(), p.eval());
        prop_assert!(q.is_binary());
        prop_assert!(q.is_ssa());
    }

    #[test]
    fn xor_repair_preserves_semantics_and_never_loses(p in flat_slp(10, 6)) {
        let (q, _) = xor_repair(&p);
        prop_assert_eq!(q.eval(), p.eval());
        // compression never exceeds the naive XOR count
        prop_assert!(q.xor_count() <= p.xor_count().max(1));
    }

    #[test]
    fn fusion_preserves_semantics_on_dags(p in dag_slp()) {
        let q = fuse(&p);
        prop_assert_eq!(q.eval(), p.eval());
    }

    #[test]
    fn theorem_2_fusion_strictly_reduces_mem(p in dag_slp()) {
        // Whenever fusion changes the (DCE'd) program, #M strictly drops.
        let ssa = p.to_ssa().eliminate_dead_code();
        let q = fuse(&ssa);
        if q != ssa {
            prop_assert!(
                q.mem_accesses() < ssa.mem_accesses(),
                "#M went {} -> {}",
                ssa.mem_accesses(),
                q.mem_accesses()
            );
        }
    }

    #[test]
    fn schedulers_preserve_semantics(p in flat_slp(12, 6)) {
        let fused = fuse(&p);
        let dfs = schedule_dfs(&fused);
        prop_assert_eq!(dfs.eval(), p.eval());
        let greedy = schedule_greedy(&fused, 8);
        prop_assert_eq!(greedy.eval(), p.eval());
    }

    #[test]
    fn schedulers_never_increase_static_costs(p in flat_slp(12, 6)) {
        let fused = fuse(&xor_repair(&p).0);
        for q in [schedule_dfs(&fused), schedule_greedy(&fused, 8)] {
            prop_assert_eq!(q.xor_count(), fused.xor_count());
            prop_assert_eq!(q.mem_accesses(), fused.mem_accesses());
            prop_assert!(q.nvar() <= fused.nvar());
        }
    }

    #[test]
    fn full_pipeline_preserves_semantics(p in flat_slp(16, 8)) {
        for config in [
            OptConfig::FULL_DFS,
            OptConfig {
                compression: Compression::RePair,
                fuse: true,
                schedule: Scheduling::Greedy { cache_blocks: 12 },
            },
        ] {
            let q = optimize(&p, config);
            prop_assert_eq!(q.eval(), p.eval());
        }
    }

    #[test]
    fn pipeline_output_runs_on_real_bytes(p in flat_slp(8, 4), len in 1usize..64) {
        // The reference interpreter agrees before/after optimization on
        // concrete data — ties the abstract semantics to actual bytes.
        let q = optimize(&p, OptConfig::FULL_DFS);
        let inputs: Vec<Vec<u8>> = (0..8u8)
            .map(|i| (0..len).map(|j| i.wrapping_mul(31) ^ (j as u8)).collect())
            .collect();
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(p.run_reference(&refs), q.run_reference(&refs));
    }
}
