//! The commands that are not committed text: the lockstep bisector, the
//! host reading of §3.3's region overheads, and `reproduce`.

use crate::cli::{self, Opts};
use crate::{render_table, run_proxy, MESH_768};
use std::path::Path;
use std::process::ExitCode;
use tofumd_model::Machine;
use tofumd_runtime::lockstep::{bisect_cluster_against_serial, bisect_clusters, LockstepOptions};
use tofumd_runtime::{Cluster, CommVariant, RunConfig};
use tofumd_tofu::{FaultPlan, FaultRates};

/// Lockstep divergence bisector: drive `--variant` in lockstep against the
/// reference engine, another variant or the serial twin (`--against`) on
/// the 12-node / 48-rank test mesh and report the first `(step, op, round,
/// rank)` where the physics disagrees, plus per-op comm counters. Exits 0
/// when no divergence is found, 1 on the first divergence (the thread
/// count never changes the verdict).
///
/// `--fault-seed N` installs a seeded recoverable fault plan
/// (`FaultRates::light`) on side A's fabric — the DESIGN.md §10 guarantee
/// says the verdict must stay clean anyway (faults only move virtual
/// time), so a divergence under a seed is a recovery-path bug. The fault
/// totals side A absorbed are printed with the report.
pub(crate) fn bisect(o: &Opts) -> ExitCode {
    const MESH: [u32; 3] = [2, 3, 2];
    let opts = LockstepOptions {
        steps: o.steps,
        tol: o.tol,
    };
    let cfg = RunConfig::lj(o.atoms);
    let build = |v: CommVariant, plan: Option<FaultPlan>| -> Cluster {
        let mut c = match plan {
            Some(plan) => Cluster::with_fault_plan(MESH, cfg, v, plan),
            None => Cluster::new(MESH, cfg, v),
        };
        c.set_driver_threads(o.threads());
        c
    };
    let plan = o
        .fault_seed
        .map(|seed| FaultPlan::seeded(seed, FaultRates::light()));
    let mut a = build(o.variant, plan);
    let report = match o.against {
        None => bisect_cluster_against_serial(&mut a, &opts),
        Some(reference) => bisect_clusters(&mut a, &mut build(reference, None), &opts),
    };
    print!("{}", report.render());
    if let Some(seed) = o.fault_seed {
        let c = a.fault_counters();
        println!(
            "faults absorbed by side A (seed {seed}): {} total \
             ({} drops, {} delays, {} dups, {} truncations){}",
            c.total(),
            c.drops,
            c.delays,
            c.duplicates,
            c.truncations,
            if a.demoted() {
                " — DEMOTED to ref"
            } else {
                ""
            },
        );
    }
    ExitCode::from(u8::from(!report.is_clean()))
}

/// §3.3 — thread startup/synchronization overhead, spin pool vs fork-join,
/// measured on this host beside the `Machine::fugaku()` region overheads the
/// virtual-time model uses (the paper's A64FX readings). Host wall-clock,
/// so never committed. Then §3.4's over-provision factor per variant: the
/// bytes each design registers against the bytes its traffic touched
/// (what this host holds for them).
pub(crate) fn overheads(o: &Opts) -> ExitCode {
    let (threads, iters) = (o.threads(), usize::try_from(o.iters).unwrap_or(usize::MAX));
    println!("§3.3 — parallel-region overheads ({threads} threads, {iters} regions)\n");
    let r = tofumd_threadpool::measure_overheads(threads, iters);
    let p = Machine::fugaku().net;
    let row = |name: &str, host: f64, model: f64| {
        vec![
            name.to_string(),
            format!("{:.2} us", host * 1e6),
            format!("{:.2} us", model * 1e6),
        ]
    };
    let rows = [
        row("spin pool", r.pool, p.pool_region_overhead),
        row(
            "fork-join (OpenMP-like)",
            r.fork_join,
            p.omp_region_overhead,
        ),
    ];
    let headers = "mechanism|measured (host)|paper / model";
    println!("{}", render_table(headers, &rows));
    let paper = p.omp_region_overhead / p.pool_region_overhead;
    println!("measured ratio: {:.1}x (paper: {paper:.1}x)", r.ratio());
    if std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) == 1 {
        println!("note: single-core host — the spin pool degrades to yield-based switching,");
        println!("so the measured ratio underestimates the dedicated-core contrast.");
    }

    const STEPS: u64 = 25;
    println!("\n§3.4 — registered memory, modeled vs host-backed ({STEPS} steps, 65K workload)\n");
    let rows: Vec<Vec<String>> = CommVariant::STEP_BY_STEP
        .iter()
        .map(|&variant| {
            let c = run_proxy(MESH_768, RunConfig::lj(65_536), variant, STEPS, threads);
            let (modeled, backed) = c.registered_bytes();
            vec![
                variant.label().to_string(),
                c.registration_calls().to_string(),
                modeled.to_string(),
                backed.to_string(),
                format!("{:.2}x", modeled as f64 / backed as f64),
            ]
        })
        .collect();
    let headers = "variant|registration calls|modeled bytes|backed bytes|modeled / backed";
    println!("{}", render_table(headers, &rows));
    println!("modeled: what the design registers and is charged for; backed: the prefix");
    println!("of each region some put, frame or read has touched");
    ExitCode::SUCCESS
}

/// The repository's `results/` directory.
pub(crate) fn results_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

/// Run every report at its defaults, write `results/<name>.txt` and their
/// claim readings as `results/claims.txt`, so that `reproduce && git diff
/// --exit-code results/` checks every committed output against the tree.
pub(crate) fn reproduce(o: &Opts) -> ExitCode {
    let mut files = Vec::new();
    for (command, report) in cli::reports() {
        let opts = Opts {
            threads: o.threads,
            ..command.defaults
        };
        files.push((format!("{}.txt", command.name), report(&opts)));
    }
    let claims = crate::claims::file(files.iter().map(|f| &f.1));
    files.push(("claims.txt".into(), claims.into()));
    for (file, report) in files {
        if let Err(e) = std::fs::write(results_dir().join(&file), report.text) {
            eprintln!("cannot write results/{file}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote results/{file}");
    }
    ExitCode::SUCCESS
}
