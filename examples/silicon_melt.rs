//! Silicon melting study with the Stillinger-Weber potential — the
//! full-neighbor-list, three-body force-field class the paper's extended
//! experiment targets (Tersoff / DeePMD, Fig. 15), run through the
//! optimized 26-neighbor exchange with ghost-force reverse communication.
//!
//! Heats a diamond-silicon crystal with a Berendsen thermostat, tracks the
//! radial distribution function and mean-squared displacement, and writes
//! an extended-XYZ trajectory.
//!
//!     cargo run --release --example silicon_melt [-- --hot] [--rcb] [--rebalance] [--kill-rank]
//!
//! Default run holds 800 K (solid); `--hot` drives 3500 K (melt) — watch
//! the RDF second shell wash out and the MSD turn diffusive. `--rcb`
//! appends a decomposition study: the same SW system with a density ramp,
//! distributed over 48 ranks under uniform bricks vs recursive coordinate
//! bisection, with the per-rank atom imbalance of both. `--rebalance`
//! appends a dynamic-balancing study: the ramped melt drifts mass off the
//! step-0 cuts, and `fix balance 40 1.05 rcb` keeps cutting the imbalance
//! back down while a static decomposition only degrades. `--kill-rank`
//! appends a fault-tolerance study: one rank dies mid-melt, the survivors
//! roll back to the last checkpoint, re-cut the system over N−1 ranks and
//! finish the run (self-asserting: every atom survives and the final
//! energy matches an undisturbed twin).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use tofumd::md::{lattice::FccLattice, neighbor::RebuildPolicy, units::UnitSystem, velocity};
use tofumd::md::{thermostat::Berendsen, Atoms, Msd, Potential, Rdf, SerialSim, StillingerWeber};
use tofumd::runtime::config::{CommTuning, Decomp};
use tofumd::runtime::{Cluster, CommVariant, RunConfig};

fn rcb_study() {
    println!("\nDecomposition study: SW silicon with a +x density ramp, 48 ranks");
    let mk = |decomp| RunConfig {
        comm: CommTuning {
            decomp,
            density_gradient: 0.6,
            ..CommTuning::default()
        },
        ..RunConfig::sw(4_000)
    };
    let mut grid = Cluster::new([2, 3, 2], mk(Decomp::Grid), CommVariant::MpiP2p);
    let mut rcb = Cluster::new([2, 3, 2], mk(Decomp::Rcb), CommVariant::MpiP2p);
    println!(
        "atoms/rank imbalance (max/mean): grid {:.3}, rcb {:.3}",
        grid.atom_imbalance(),
        rcb.atom_imbalance()
    );
    grid.run(20);
    let trace = rcb.run_traced(20);
    print!("{}", trace.report());
    println!(
        "after 20 steps: grid pe {:.4}, rcb pe {:.4}",
        grid.thermo().pe,
        rcb.thermo().pe
    );
}

fn rebalance_study() {
    println!("\nDynamic rebalance study: SW silicon melt on a +x density ramp, 48 ranks");
    let mk = |every| RunConfig {
        comm: CommTuning {
            decomp: Decomp::Rcb,
            density_gradient: 0.8,
            balance_thresh: Some(1.05),
            rebalance_every: every,
            ..CommTuning::default()
        },
        ..RunConfig::sw(4_000)
    };
    let mut fixed = Cluster::new([2, 3, 2], mk(None), CommVariant::MpiP2p);
    let mut dynamic = Cluster::new([2, 3, 2], mk(Some(40)), CommVariant::MpiP2p);
    let steps = 200;
    let tf = fixed.run_traced(steps);
    let td = dynamic.run_traced(steps);
    println!("static decomposition (step 0 cuts kept):");
    print!("{}", tf.report());
    println!(
        "fix balance 40 1.05 rcb ({} rebalances):",
        dynamic.rebalance_count()
    );
    print!("{}", td.report());

    // Self-check: every rebalance must cut the imbalance excess to at
    // most half of its pre-rebalance peak.
    assert!(
        dynamic.rebalance_count() > 0,
        "the ramp melt must trip the threshold"
    );
    let mut window_start = 0;
    for &rb in &td.rebalance_steps {
        let peak = td
            .imbalance_samples
            .iter()
            .filter(|s| s.0 > window_start && s.0 < rb)
            .map(|s| s.1)
            .fold(1.0f64, f64::max);
        let Some(&(_, post)) = td.imbalance_samples.iter().find(|s| s.0 == rb) else {
            panic!("no imbalance sample at the rebalance step {rb}");
        };
        println!("  step {rb:>4}: peak {peak:.4} -> {post:.4}");
        assert!(
            post - 1.0 <= 0.5 * (peak - 1.0),
            "rebalance at {rb} only cut {peak} to {post}"
        );
        window_start = rb;
    }
    let (Some((_, _, flast)), Some((_, _, dlast))) =
        (tf.imbalance_history(), td.imbalance_history())
    else {
        panic!("both melts sample their imbalance");
    };
    println!(
        "final imbalance after {steps} steps: static {:.4}, rebalanced {:.4}",
        flast.1, dlast.1
    );
    assert!(dlast.1 < flast.1, "rebalancing must end better balanced");
}

fn kill_rank_study() {
    use tofumd::tofu::{FaultKind, FaultPlan, FaultRule};
    println!("\nRank-death study: SW silicon on RCB, 48 ranks, rank 17 dies at step 30");
    let cfg = RunConfig {
        comm: CommTuning {
            decomp: Decomp::Rcb,
            density_gradient: 0.6,
            ..CommTuning::default()
        },
        ..RunConfig::sw(4_000)
    };
    let plan =
        FaultPlan::new().with_rule(FaultRule::any(FaultKind::KillRank { step: 30, rank: 17 }));
    let mut faulty = Cluster::with_fault_plan([2, 3, 2], cfg, CommVariant::MpiP2p, plan);
    let natoms = faulty.natoms();
    faulty.set_checkpoint_every(10); // LAMMPS: restart 10 <file>
    faulty.run_to(60);
    let trace = faulty.run_traced(2);
    print!("{}", trace.report());

    let stats = faulty.recovery_stats();
    println!(
        "recovered: rank {} removed, {} steps replayed, MTTR {:.2}us virtual",
        faulty.dead_rank().map_or(-1, i64::from),
        stats.steps_lost,
        stats.mttr() * 1e6
    );
    assert_eq!(
        faulty.dead_rank(),
        Some(17),
        "the kill must trigger recovery"
    );
    assert_eq!(stats.recoveries, 1);
    assert_eq!(faulty.natoms(), natoms, "atoms lost in the shrink");
    assert_eq!(
        faulty.states()[17].atoms.nlocal,
        0,
        "dead rank still owns atoms"
    );

    // The shrunken run's physics must match an undisturbed 48-rank twin
    // to fp-noise precision (summation order differs, the trajectory
    // does not).
    let mut clean = Cluster::new([2, 3, 2], cfg, CommVariant::MpiP2p);
    clean.run_to(62);
    faulty.run_to(62);
    let (ef, ec) = (faulty.thermo(), clean.thermo());
    let diff = ((ef.pe + ef.ke) - (ec.pe + ec.ke)).abs() / (ec.pe + ec.ke).abs();
    println!(
        "final energy: clean {:.6}, recovered {:.6} (rel diff {diff:.2e})",
        ec.pe + ec.ke,
        ef.pe + ef.ke
    );
    assert!(diff < 1e-6, "recovered physics drifted: {diff}");
    println!("kill-rank study passed: N-1 recovery is physics-faithful");
}

fn main() -> std::io::Result<()> {
    let hot = std::env::args().any(|a| a == "--hot");
    let t_target = if hot { 3500.0 } else { 800.0 };
    println!("Stillinger-Weber silicon, target T = {t_target} K\n");

    let lat = FccLattice::from_cell(5.431);
    let (bounds, pos) = lat.build_diamond(4, 4, 4);
    let mut atoms = Atoms::from_positions(pos, 1);
    velocity::finalize_velocities_serial(&mut atoms, 28.0855, t_target, UnitSystem::Metal, 7);
    let mut sim = SerialSim::new(
        atoms,
        bounds,
        Potential::Pair(Box::new(StillingerWeber::silicon())),
        UnitSystem::Metal,
        1.0,
        RebuildPolicy {
            every: 5,
            check: true,
        },
        0.001, // 1 fs: SW bonds are stiff
        28.0855,
    );
    println!(
        "{} atoms, cohesive energy {:.3} eV/atom",
        sim.atoms.nlocal,
        sim.snapshot().pe / sim.atoms.nlocal as f64
    );

    let thermostat = Berendsen::new(t_target, 0.1);
    let mut msd = Msd::new(&sim.atoms);
    let mut traj = tofumd::md::XyzTrajectory::new(Vec::new(), "Si");
    println!(
        "\n{:>6} {:>10} {:>12} {:>12}",
        "step", "T (K)", "PE/atom", "MSD (A^2)"
    );
    for block in 0..10 {
        sim.run(100);
        thermostat.apply(&mut sim.atoms, 28.0855, UnitSystem::Metal, 0.1);
        msd.update(&sim.atoms, &sim.bounds);
        traj.frame(&sim.atoms, &sim.bounds, sim.step)?;
        let s = sim.snapshot();
        println!(
            "{:>6} {:>10.1} {:>12.4} {:>12.4}",
            (block + 1) * 100,
            s.temperature,
            s.pe / sim.atoms.nlocal as f64,
            msd.value()
        );
    }

    // RDF over the final configuration.
    let mut rdf = Rdf::new(6.0, 120);
    rdf.sample(&sim.atoms, &sim.bounds);
    let (r1, g1) = rdf.peak(&sim.bounds);
    println!("\nRDF first peak: r = {r1:.3} A (bond length 2.352 A), g = {g1:.1}");
    let g = rdf.g(&sim.bounds);
    let second_shell = g
        .iter()
        .filter(|(r, _)| (3.5..4.2).contains(r))
        .map(|(_, v)| *v)
        .fold(0.0f64, f64::max);
    println!(
        "second-shell (3.84 A) max g = {second_shell:.2} -> {}",
        if second_shell > 1.5 {
            "crystalline order intact"
        } else {
            "shell washed out: molten"
        }
    );
    let frames = traj.frames;
    println!(
        "trajectory: {frames} extended-XYZ frames buffered ({} bytes)",
        traj.into_inner().len()
    );

    if std::env::args().any(|a| a == "--rcb") {
        rcb_study();
    }
    if std::env::args().any(|a| a == "--rebalance") {
        rebalance_study();
    }
    if std::env::args().any(|a| a == "--kill-rank") {
        kill_rank_study();
    }
    Ok(())
}
