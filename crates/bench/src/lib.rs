//! # cartcomm-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§4):
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table1` | Table 1 — rounds, volumes, cut-off ratios per `(d, n)` stencil |
//! | `table2` | Table 2 — the systems (as machine profiles) |
//! | `fig3`   | Figure 3 — `Cart_alltoall` vs `MPI_Neighbor_alltoall`, Hydra / Open MPI |
//! | `fig4`   | Figure 4 — same, Hydra / Intel MPI |
//! | `fig5`   | Figure 5 — same, Titan / Cray MPI |
//! | `fig6`   | Figure 6 — `Cart_allgather` (Hydra) and `Cart_alltoallv` (Titan) |
//! | `fig7`   | Figure 7 — run-time histograms at 128×16 vs 1024×16 ranks |
//!
//! Each figure binary prices the four measured series (blocking baseline,
//! non-blocking baseline, trivial, message-combining) on the calibrated
//! machine profile, repeats the measurement with noise injection, applies
//! the paper's Appendix-A filtering, and prints the same normalized bars
//! the figure shows. Pass `--quirks` to enable the per-library defect
//! emulation that reproduces the pathological baseline numbers of
//! Figures 3–4. Wall-clock numbers of the real ranks-as-fibers runtime
//! are `cartbench`'s (`benchmark/`), not this crate's; `cartprof` and
//! `perfgate` are the two binaries here that time anything.

pub mod harness;

pub use harness::{
    simulate_allgather_series, simulate_alltoall_series, simulate_alltoallv_series, v_block_sizes,
    FigureRow, SeriesKind,
};

/// Where and with what a committed baseline was taken, as a JSON object:
/// α̂ on 27 ranks over 2 cores is not α̂ on 27 cores, a kernel's
/// ns/byte on one machine not another's, and a baseline has to say which
/// it is. `rank_threads` is how many ranks the measurement runs; they
/// share at most one worker thread per core.
pub fn host_json(rank_threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut w = cartcomm_comm::obs::json::JsonWriter::new();
    w.obj().key("nproc").raw(nproc);
    w.key("rank_threads").raw(rank_threads);
    w.key("oversubscription")
        .float(rank_threads as f64 / nproc as f64, 6);
    w.key("build_profile").str(env!("CARTCOMM_BUILD_PROFILE"));
    w.key("rustc").str(env!("CARTCOMM_BUILD_RUSTC")).end();
    w.finish()
}
