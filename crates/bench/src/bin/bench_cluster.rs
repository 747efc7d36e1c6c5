//! Cluster-layer smoke benchmark emitting machine-readable numbers.
//!
//! Runs the full lockstep cluster (48 ranks on the smallest foldable
//! mesh) for every engine variant and both potentials at 1 and 8 driver
//! threads, and writes `BENCH_cluster.json` with two columns per row:
//! real timesteps per second (wall-clock throughput of the simulator
//! itself) and the *modeled* per-step comm time (the virtual-clock comm
//! stage the paper optimizes). CI compares throughput against the
//! committed baseline with a -10% tolerance band; the modeled comm time
//! is deterministic and compared exactly.
//!
//! Usage: `bench_cluster [--steps N] [--out PATH]` (default 15 steps,
//! `BENCH_cluster.json` in the working directory — the committed baseline
//! is generated with defaults).

// The bins share the library crate's no-unwrap contract.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::time::Instant;
use tofumd_md::{Atoms, SerialSim};
use tofumd_runtime::{Cluster, CommVariant, RunConfig};

const MESH: [u32; 3] = [2, 3, 2];

/// Total energy (pe + ke) of a serial twin carrying the cluster's initial
/// state after `steps` steps — the physics oracle every benchmarked row
/// must agree with. A benchmark over a broken engine is worse than no
/// benchmark: the throughput column would look healthy while the physics
/// silently rot.
fn serial_twin_energy(cfg: RunConfig, steps: u64) -> f64 {
    let c = Cluster::new(MESH, cfg, CommVariant::Ref);
    let mut rows = Vec::new();
    for st in c.states() {
        for i in 0..st.atoms.nlocal {
            rows.push((st.atoms.tag[i], st.atoms.x[i], st.atoms.v[i]));
        }
    }
    rows.sort_unstable_by_key(|e| e.0);
    let mut atoms = Atoms::from_positions(rows.iter().map(|e| e.1).collect(), 1);
    for (i, e) in rows.iter().enumerate() {
        atoms.v[i] = e.2;
    }
    let mut serial = SerialSim::new(
        atoms,
        c.global_box(),
        cfg.build_potential(),
        cfg.units(),
        cfg.skin(),
        cfg.policy(),
        cfg.timestep(),
        cfg.mass(),
    );
    for _ in 0..steps {
        serial.run_step();
    }
    let s = serial.snapshot();
    s.pe + s.ke
}

struct Row {
    name: String,
    timesteps_per_sec: f64,
    comm_time: f64,
}

fn main() {
    let arg = |flag: &str| std::env::args().skip_while(|a| a != flag).nth(1);
    let steps: u64 = arg("--steps").and_then(|v| v.parse().ok()).unwrap_or(15);
    let out = arg("--out").unwrap_or_else(|| "BENCH_cluster.json".into());

    let variants = [
        CommVariant::Ref,
        CommVariant::MpiP2p,
        CommVariant::Utofu3Stage,
        CommVariant::Utofu4TniP2p,
        CommVariant::Utofu6TniP2p,
        CommVariant::Opt,
    ];
    type MkConfig = fn(usize) -> RunConfig;
    let potentials: [(&str, MkConfig); 2] = [("lj", RunConfig::lj), ("eam", RunConfig::eam)];

    let mut rows: Vec<Row> = Vec::new();
    for (pot, mk) in potentials {
        let e_serial = serial_twin_energy(mk(6_000), steps + 2);
        for variant in variants {
            for threads in [1usize, 8] {
                let mut c = Cluster::new(MESH, mk(6_000), variant);
                c.set_driver_threads(threads);
                // Warm-up: first list build + buffer registration.
                c.run(2);
                c.reset_timers();
                let t0 = Instant::now();
                c.run(steps);
                let wall = t0.elapsed().as_secs_f64();
                // Energy sanity against the serial twin: cross-engine fp
                // summation noise only, never a physics divergence.
                let t = c.thermo();
                let diff = ((t.pe + t.ke) - e_serial).abs() / e_serial.abs();
                assert!(
                    diff < 1e-6,
                    "{}_{pot}_t{threads}: total energy {} differs from the serial twin {e_serial} \
                     (rel {diff:.2e}) — refusing to benchmark broken physics",
                    variant.label(),
                    t.pe + t.ke,
                );
                let row = Row {
                    name: format!("{}_{}_t{}", variant.label(), pot, threads),
                    timesteps_per_sec: steps as f64 / wall,
                    comm_time: c.breakdown().comm,
                };
                println!(
                    "{:28} {:>9.2} steps/s  comm {:.3e} s/step",
                    row.name, row.timesteps_per_sec, row.comm_time
                );
                rows.push(row);
            }
        }
    }

    // Hand-formatted JSON, same shape discipline as BENCH_kernels.json.
    let mut json = String::from("{\n  \"bench\": \"cluster\",\n  \"steps\": ");
    json.push_str(&steps.to_string());
    json.push_str(",\n  \"results\": [\n");
    for (k, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"timesteps_per_sec\": {:.3}, \"comm_time\": {:.6e}}}{}\n",
            r.name,
            r.timesteps_per_sec,
            r.comm_time,
            if k + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out}");
}
