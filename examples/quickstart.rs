//! Quickstart: run a small Lennard-Jones melt on a simulated 12-node
//! Fugaku slice with the paper's optimized communication, and print the
//! LAMMPS-style stage breakdown.
//!
//!     cargo run --release --example quickstart

#![deny(clippy::unwrap_used, clippy::expect_used)]

use tofumd::runtime::{Cluster, CommVariant, RunConfig, StageBreakdown};

fn main() {
    // 8,000 LJ atoms (Table 2 benchmark parameters) on 12 nodes / 48 ranks.
    let cfg = RunConfig::lj(8_000);
    let mut cluster = Cluster::new([2, 3, 2], cfg, CommVariant::Opt);
    println!(
        "built {} atoms over {} ranks ({} ghosts on rank 0)",
        cluster.natoms(),
        cluster.nranks(),
        cluster.states()[0].atoms.nghost()
    );

    let t0 = cluster.thermo();
    println!(
        "step {:>5}  T = {:.4}  P = {:+.4}  E = {:.4}",
        t0.step,
        t0.temperature,
        t0.pressure,
        t0.total_energy()
    );
    for _ in 0..5 {
        cluster.run(20);
        let t = cluster.thermo();
        println!(
            "step {:>5}  T = {:.4}  P = {:+.4}  E = {:.4}",
            t.step,
            t.temperature,
            t.pressure,
            t.total_energy()
        );
    }

    let b = cluster.breakdown();
    let pct = b.percentages();
    println!("\nper-step virtual-time breakdown (simulated Fugaku):");
    for ((name, t), pct) in StageBreakdown::NAMES.iter().zip(b.to_array()).zip(pct) {
        println!("  {name:<6} {:>9.2} us  {pct:>5.1}%", t * 1e6);
    }
    println!("  total  {:>9.2} us per step", b.total() * 1e6);
}
