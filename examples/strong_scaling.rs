//! A compact strong-scaling sweep (mini Fig. 13): the paper's LJ workload
//! from 768 to 36,864 nodes, baseline vs optimized, with parallel
//! efficiencies and the opt/ref speedup.
//!
//!     cargo run --release --example strong_scaling [-- --shells N] [--full] [--quick]
//!
//! `--shells 2` widens the halo to the paper's extended exchange (62
//! neighbors with the Newton-halved LJ list, 124 with `--full`);
//! `--shells 1 --full` is the 26-neighbor regime. `--quick` runs only the
//! first two machine sizes (CI smoke).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use tofumd::model::scaling;
use tofumd::runtime::config::CommTuning;
use tofumd::runtime::{Cluster, CommVariant, RunConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let shells: Option<usize> = arg("--shells").and_then(|v| v.parse().ok());
    let full = args.iter().any(|a| a == "--full");
    let quick = args.iter().any(|a| a == "--quick");

    let cfg = RunConfig {
        kind: if full {
            tofumd::runtime::config::PotentialKind::LjFull
        } else {
            tofumd::runtime::config::PotentialKind::Lj
        },
        comm: CommTuning {
            shells,
            ..CommTuning::default()
        },
        ..RunConfig::lj(4_194_304)
    };
    println!("Strong scaling, LJ 4,194,304 atoms (15 steps per point)");
    {
        let probe = Cluster::proxy([4, 3, 2], [8, 12, 8], cfg, CommVariant::Ref);
        println!(
            "halo: {} neighbors per rank ({} list, shells {})\n",
            probe.states()[0].graph.neighbor_count(),
            if full { "full" } else { "Newton-halved" },
            shells.unwrap_or(1),
        );
    }
    println!(
        "{:>6} {:>12} {:>6} {:>12} {:>6} {:>8}",
        "nodes", "ref/step", "eff", "opt/step", "eff", "speedup"
    );
    let mut base: Option<(f64, f64)> = None;
    let points = [
        (768usize, [8u32, 12, 8]),
        (2160, [12, 15, 12]),
        (6144, [16, 24, 16]),
        (18432, [24, 32, 24]),
        (36864, [32, 36, 32]),
    ];
    let npoints = if quick { 2 } else { points.len() };
    for &(nodes, mesh) in &points[..npoints] {
        let t = |variant| {
            let mut c = Cluster::proxy([4, 3, 2], mesh, cfg, variant);
            c.run(15);
            c.step_time()
        };
        let (r, o) = (t(CommVariant::Ref), t(CommVariant::Opt));
        let (br, bo) = *base.get_or_insert((r, o));
        println!(
            "{nodes:>6} {:>10.1}us {:>5.0}% {:>10.1}us {:>5.0}% {:>7.2}x",
            r * 1e6,
            100.0 * scaling::parallel_efficiency(768, br, nodes, r),
            o * 1e6,
            100.0 * scaling::parallel_efficiency(768, bo, nodes, o),
            r / o
        );
    }
    println!("\nthe paper's numbers for these points: the fig13 rows of results/claims.txt");
}
