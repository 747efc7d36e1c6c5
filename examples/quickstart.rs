//! Quickstart: run a small Lennard-Jones melt on a simulated 12-node
//! Fugaku slice with the paper's optimized communication, and print the
//! LAMMPS-style stage breakdown.
//!
//!     cargo run --release --example quickstart

#![deny(clippy::unwrap_used, clippy::expect_used)]

use tofumd::runtime::{Cluster, CommVariant, RunConfig};

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
    println!("  Pair   {:>9.2} us  {:>5.1}%", b.pair * 1e6, pct[0]);
    println!("  Neigh  {:>9.2} us  {:>5.1}%", b.neigh * 1e6, pct[1]);
    println!("  Comm   {:>9.2} us  {:>5.1}%", b.comm * 1e6, pct[2]);
    println!("  Modify {:>9.2} us  {:>5.1}%", b.modify * 1e6, pct[3]);
    println!("  Other  {:>9.2} us  {:>5.1}%", b.other * 1e6, pct[4]);
    println!("  total  {:>9.2} us per step", b.total() * 1e6);
}
