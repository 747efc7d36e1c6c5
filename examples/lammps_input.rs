//! Drive the simulated cluster from a LAMMPS input script — the workflow
//! of the paper's artifact, whose experiments are all launched through
//! `in.threadpool.lj` / `in.threadpool.eam`.
//!
//!     cargo run --release --example lammps_input [path/to/in.script]
//!
//! With no argument, the built-in artifact LJ script runs.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use tofumd::md::thermo::ThermoSnapshot;
use tofumd::runtime::{parse_script, Cluster, CommVariant, StageBreakdown};

fn main() {
    let text = match std::env::args().nth(1) {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        }
        None => tofumd::runtime::script::IN_THREADPOOL_LJ.to_string(),
    };
    let run = match parse_script(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("script error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "parsed script: {:?}, {} atoms, {} steps (thermo every {})",
        run.config.kind, run.config.natoms_target, run.steps, run.thermo_every
    );
    for line in &run.ignored {
        println!("  (ignored: {line})");
    }

    // `read_restart` resumes from a checkpoint (its embedded config
    // governs); otherwise the setup commands build the system.
    let mut cluster = match &run.read_restart {
        Some(file) => {
            let c = Cluster::restore_from_file(std::path::Path::new(file))
                .unwrap_or_else(|e| panic!("read_restart {file}: {e}"));
            println!("resumed from {file} at step {}", c.current_step());
            c
        }
        None => Cluster::proxy([4, 3, 2], [8, 12, 8], run.config, CommVariant::Opt),
    };
    if let Some((every, file)) = &run.restart {
        cluster.set_checkpoint_every(*every);
        cluster.set_checkpoint_path(file);
    }
    println!(
        "\nrunning on the simulated 768-node machine ({} proxy ranks)...",
        cluster.nranks()
    );
    // LAMMPS prints the first and the last step whatever the interval
    // (`thermo 0` prints only those). The cluster charges every interval's
    // reduction into Other, as LAMMPS's output stage does, and logs it;
    // the first and a last step off the interval are read directly.
    let every = if run.thermo_every == 0 {
        run.steps
    } else {
        run.thermo_every.min(run.steps)
    };
    cluster.set_thermo_every(every);
    let print = |t: &ThermoSnapshot| {
        println!(
            "step {:>6}  T {:>9.4}  P {:>12.4}  E {:>14.4}",
            t.step,
            t.temperature,
            t.pressure,
            t.total_energy()
        );
    };
    let start = cluster.current_step();
    print(&cluster.thermo());
    cluster.run(run.steps);
    let log = cluster.thermo_log();
    log.iter().filter(|t| t.step > start).for_each(print);
    if log.last().is_none_or(|t| t.step != cluster.current_step()) {
        print(&cluster.thermo());
    }
    let b = cluster.breakdown();
    let shares: Vec<String> = StageBreakdown::NAMES
        .iter()
        .zip(b.percentages())
        .map(|(name, pct)| format!("{name} {pct:.1}%"))
        .collect();
    println!(
        "\nMPI task timing breakdown (virtual): {}",
        shares.join(" ")
    );
    println!(
        "performance: {:.3} {}-units/day per the paper's metric",
        tofumd::model::scaling::units_per_day(0.005, b.total()),
        if matches!(run.config.kind, tofumd::runtime::PotentialKind::Eam) {
            "ps"
        } else {
            "tau"
        },
    );
}
