//! The paper's motivating scenario: long physical time for a moderate
//! system. Protein folding plays out over microseconds, i.e. ~2e8 MD
//! steps at 5 fs (§1) — time-to-solution is set entirely by the per-step
//! wall time, which is why strong scaling (and hence communication) is
//! "arguably the most critical issue in the MD community".
//!
//! Part 1 runs the folding-sized 65K-atom system on 768 nodes (its
//! strong-scaling sweet spot: ~21 atoms per rank) and projects days to one
//! microsecond under baseline vs optimized communication. Part 2 scales a
//! 1.7M-atom system across machine sizes to show where the optimized code
//! keeps buying time after the baseline saturates.
//!
//!     cargo run --release --example protein_folding_proxy

#![deny(clippy::unwrap_used, clippy::expect_used)]

use tofumd::runtime::{Cluster, CommVariant, RunConfig};

const STEPS_TO_1US: f64 = 2.0e8; // 1 us / 5 fs

fn days(per_step: f64) -> f64 {
    STEPS_TO_1US * per_step / 86_400.0
}

fn main() {
    println!("Protein-folding proxy: EAM, 5 fs steps, target 1 us of physical time\n");

    println!("== 65K atoms on 768 nodes (the paper's small-system setting) ==");
    let cfg = RunConfig::eam(65_536);
    let mut baseline_days = 0.0;
    for variant in [CommVariant::Ref, CommVariant::Opt] {
        let mut c = Cluster::proxy([4, 3, 2], [8, 12, 8], cfg, variant);
        c.run(30);
        let per_step = c.step_time();
        let d = days(per_step);
        if variant == CommVariant::Ref {
            baseline_days = d;
        }
        println!(
            "  {:<14} {:>8.1} us/step  -> {:>6.1} days to 1 us",
            variant.label(),
            per_step * 1e6,
            d
        );
    }

    println!("\n== 1.7M atoms, optimized code across machine sizes ==");
    let big = RunConfig::eam(1_700_000);
    for (nodes, mesh) in [
        (768usize, [8u32, 12, 8]),
        (6144, [16, 24, 16]),
        (18432, [24, 32, 24]),
    ] {
        let mut c = Cluster::proxy([4, 3, 2], mesh, big, CommVariant::Opt);
        c.run(30);
        let per_step = c.step_time();
        println!(
            "  {nodes:>6} nodes  {:>8.1} us/step  -> {:>6.2} days to 1 us",
            per_step * 1e6,
            days(per_step)
        );
    }

    let mut opt = Cluster::proxy([4, 3, 2], [8, 12, 8], cfg, CommVariant::Opt);
    opt.run(30);
    let opt_days = days(opt.step_time());
    println!("\nAt the 65K sweet spot the optimized communication cuts time-to-solution by");
    println!(
        "{:.1}x: {:.2} -> {:.2} days per microsecond of physical time.",
        baseline_days / opt_days,
        baseline_days,
        opt_days
    );
}
