//! §7.3 — average reduction ratios of the optimizer stages over all 1002
//! RS(10,4) coding SLPs (1 encoding + 1001 decoding; the one parity-only
//! pattern has an empty program and is excluded, leaving 1001 programs).
//!
//! Reproduces three tables:
//! 1. XOR reduction: `Avg #⊕(RePair(P))/#⊕(P)` (paper: 42.1 %) and
//!    XorRePair (paper: 40.8 %); Zhou & Tian's best heuristic: ~65 %.
//! 2. Memory accesses `#M`: Co/P 40.8 %, Fu/P 35.1 %, Fu(Co)/Co 59.2 %,
//!    Fu(Co)/P 24.1 %.
//! 3. NVar and CCap: Co/P 1552 %/498 %, Fu/P 100 %/98.7 %,
//!    Fu(Co)/Co 38.9 %/51.2 %, Dfs(Fu(Co))/Co 24.5 %/40.0 %.
//!
//! `BENCH_SAMPLE=n` limits the sweep to the encoding SLP plus `n` evenly
//! spaced decode patterns for a quick look.

use ec_bench::{dec_base_slp, decode_patterns, enc_base_slp, rule, sample_size};
use slp::{ccap, Slp};
use slp_optimizer::{fuse, repair, schedule_dfs, xor_repair};

struct Averager {
    sums: Vec<f64>,
    count: usize,
}

impl Averager {
    fn new(k: usize) -> Averager {
        Averager {
            sums: vec![0.0; k],
            count: 0,
        }
    }
    fn add(&mut self, vals: &[f64]) {
        for (s, v) in self.sums.iter_mut().zip(vals) {
            *s += v;
        }
        self.count += 1;
    }
    fn avg(&self, i: usize) -> f64 {
        100.0 * self.sums[i] / self.count as f64
    }
}

fn main() {
    println!("== Table 7.3: average reduction ratios over the RS(10,4) coding SLPs");

    let mut programs: Vec<(String, Slp)> = vec![("enc".into(), enc_base_slp(10, 4))];
    let patterns = decode_patterns(10, 4);
    let selected: Vec<Vec<usize>> = match sample_size() {
        Some(k) if k < patterns.len() => {
            let step = patterns.len() / k.max(1);
            patterns.into_iter().step_by(step.max(1)).take(k).collect()
        }
        _ => patterns,
    };
    for lost in &selected {
        programs.push((format!("dec{lost:?}"), dec_base_slp(10, 4, lost)));
    }
    println!(
        "programs: {} (1 encoding + {} decoding)\n",
        programs.len(),
        selected.len()
    );

    // indices: 0 repair_xor, 1 xorrepair_xor,
    //          2 co_mem, 3 fu_mem, 4 fuco_over_co_mem, 5 fuco_mem,
    //          6 co_nvar, 7 fu_nvar, 8 fuco_over_co_nvar, 9 dfs_over_co_nvar,
    //          10 co_ccap, 11 fu_ccap, 12 fuco_over_co_ccap, 13 dfs_over_co_ccap
    let mut acc = Averager::new(14);

    for (i, (_, base)) in programs.iter().enumerate() {
        let (rp, _) = repair(base);
        let (co, _) = xor_repair(base);
        let fu_only = fuse(base); // Fu(P): fuse the uncompressed program
        let fuco = fuse(&co);
        let dfs = schedule_dfs(&fuco);

        let b_x = base.xor_count() as f64;
        let b_m = base.mem_accesses() as f64;
        let b_n = base.nvar() as f64;
        let b_c = ccap(base) as f64;
        let co_m = co.mem_accesses() as f64;
        let co_n = co.nvar() as f64;
        let co_c = ccap(&co) as f64;

        acc.add(&[
            rp.xor_count() as f64 / b_x,
            co.xor_count() as f64 / b_x,
            co_m / b_m,
            fu_only.mem_accesses() as f64 / b_m,
            fuco.mem_accesses() as f64 / co_m,
            fuco.mem_accesses() as f64 / b_m,
            co_n / b_n,
            fu_only.nvar() as f64 / b_n,
            fuco.nvar() as f64 / co_n,
            dfs.nvar() as f64 / co_n,
            co_c / b_c,
            ccap(&fu_only) as f64 / b_c,
            ccap(&fuco) as f64 / co_c,
            ccap(&dfs) as f64 / co_c,
        ]);
        if (i + 1) % 100 == 0 {
            eprintln!("  … {}/{} programs", i + 1, programs.len());
        }
    }

    println!("Reducing operators (#⊕):");
    println!("{}", rule(64));
    println!(
        "  Avg RePair(P)/P    = {:6.1} %   (paper: 42.1 %)",
        acc.avg(0)
    );
    println!(
        "  Avg XorRePair(P)/P = {:6.1} %   (paper: 40.8 %)",
        acc.avg(1)
    );
    println!("  (best bit-matrix heuristic in [Zhou & Tian]: ~65 %)");
    println!();
    println!("Reducing memory access (#M):");
    println!("{}", rule(64));
    println!("  Co(P)/P        = {:6.1} %   (paper: 40.8 %)", acc.avg(2));
    println!("  Fu(P)/P        = {:6.1} %   (paper: 35.1 %)", acc.avg(3));
    println!("  Fu(Co(P))/Co(P)= {:6.1} %   (paper: 59.2 %)", acc.avg(4));
    println!("  Fu(Co(P))/P    = {:6.1} %   (paper: 24.1 %)", acc.avg(5));
    println!();
    println!("Reducing variables and required cache size:");
    println!("{}", rule(64));
    println!("             Co(P)/P   Fu(P)/P   Fu(Co)/Co   Dfs(Fu(Co))/Co");
    println!(
        "  NVar     {:7.1} % {:8.1} % {:9.1} % {:12.1} %",
        acc.avg(6),
        acc.avg(7),
        acc.avg(8),
        acc.avg(9)
    );
    println!(
        "  CCap     {:7.1} % {:8.1} % {:9.1} % {:12.1} %",
        acc.avg(10),
        acc.avg(11),
        acc.avg(12),
        acc.avg(13)
    );
    println!();
    println!("paper:  NVar  1552 %    100 %      38.9 %        24.5 %");
    println!("        CCap   498 %   98.7 %      51.2 %        40.0 %");
}
