//! Optimization passes for XOR straight-line programs, implementing §4–§6
//! of the paper:
//!
//! * **Compression** (§4): [`mod@repair`] — the grammar-compression heuristic
//!   RePair adapted to `SLP⊕`, and XorRePair, its extension with the
//!   cancellation-aware `Rebuild` subroutine;
//! * **Fusion** (§5): [`fusion`] — deforestation for SLPs: variables used
//!   exactly once are unfolded into variadic XORs, eliminating intermediate
//!   arrays and reducing the memory-access count `#M`;
//! * **Scheduling** (§6): [`schedule`] — two pebble-game heuristics (DFS
//!   postorder and bottom-up greedy) that reorder the program and reuse
//!   buffers ("pebbles") to shrink `NVar`, `CCap` and `IOcost`;
//! * **Register allocation** (§6.3): [`regalloc`] — linear-scan register
//!   assignment on SSA SLPs, kept as an ablation showing why renaming alone
//!   (without reordering) is not enough;
//! * a [`pipeline`] driver composing the passes the way §7 evaluates them
//!   (`Co`, `Fu`, `Dfs`, `Greedy`).
//!
//! Every pass preserves the set semantics `⟦·⟧` exactly; this invariant is
//! enforced by unit tests on the paper's worked examples and by property
//! tests on randomly generated programs.
//!
//! Compiling is cheap enough to do per operation: the full default
//! pipeline takes about 1.6 ms for the RS(10, 4) encoder (755 XORs in, 389
//! out) and about 4.3 ms for the paper's `P_dec` (1368 in, 522 out) on one
//! x86-64 core without `popcnt` (best of warm runs), nine tenths of it in
//! XorRePair.

pub mod fusion;
pub mod graph;
pub mod pipeline;
pub mod regalloc;
pub mod repair;
pub mod schedule;

pub use fusion::fuse;
pub use pipeline::{optimize, Compression, OptConfig, Scheduling, StageMetrics};
pub use regalloc::assign_registers;
pub use repair::{repair, xor_repair, CompressStats};
pub use schedule::{schedule_dfs, schedule_greedy};

#[cfg(test)]
mod proptests;
