//! Figure 1 — static measures (#⊕, #M, NVar, CCap) of the fully optimized
//! encode and decode SLPs across the codec grid RS(8..10, 2..4).
//!
//! Decode uses the paper's erasure pattern `{2,4,5,6}` truncated to the
//! parity count (the paper does not state its Figure-1 pattern; §7.5
//! establishes `{2,4,5,6}` for RS(10,4), which we reproduce exactly).
//!
//! Paper values (enc/dec): e.g. RS(10,4): 146/206, 677/923, 88/125,
//! 167/205; RS(8,2): 26/65, 180/286, 17/38, 80/102.

use ec_bench::{dec_base_slp, enc_base_slp, paper_decode_pattern, rule};
use slp::{ccap, Slp};
use slp_optimizer::{optimize, OptConfig};

fn measures(slp: &Slp) -> (usize, usize, usize, usize) {
    // The paper's Figure-1 "#⊕" is the instruction count of the fused
    // program (see §7.5); report that for comparability.
    (slp.instrs.len(), slp.mem_accesses(), slp.nvar(), ccap(slp))
}

fn main() {
    println!("== Figure 1: measures of optimized coding SLPs, Dfs(Fu(XorRePair(P)))\n");
    println!(
        "{:>9} | {:>11} | {:>11} | {:>11} | {:>11}",
        "codec", "#⊕ Enc/Dec", "#M Enc/Dec", "NVar E/D", "CCap E/D"
    );
    println!("{}", rule(65));
    for p in [4usize, 3, 2] {
        for n in [8usize, 9, 10] {
            let enc = optimize(&enc_base_slp(n, p), OptConfig::FULL_DFS);
            let lost = paper_decode_pattern(p);
            let dec = optimize(&dec_base_slp(n, p, &lost), OptConfig::FULL_DFS);
            let (ex, em, en, ec) = measures(&enc);
            let (dx, dm, dn, dc) = measures(&dec);
            println!(
                "{:>9} | {:>5}/{:<5} | {:>5}/{:<5} | {:>5}/{:<5} | {:>5}/{:<5}",
                format!("RS({n},{p})"),
                ex,
                dx,
                em,
                dm,
                en,
                dn,
                ec,
                dc
            );
        }
    }
    println!();
    println!("paper Figure 1 (enc/dec): RS(8,4) 121/170 543/747 79/102 143/166");
    println!("                          RS(10,4) 146/206 677/923 88/125 167/205");
    println!("                          RS(10,2) 30/77 222/352 19/50 98/130");
}
