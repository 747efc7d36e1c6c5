//! Cluster behavior tests (moved out of `cluster.rs` when the monolith
//! was split into the driver/physics/accounting layers).

use tofumd_md::thermo::ThermoSnapshot;
use tofumd_runtime::config::{CommTuning, Decomp};
use tofumd_runtime::{
    bisect_cluster_against_serial, Cluster, CommVariant, LockstepOptions, PotentialKind, RunConfig,
};

/// Smallest foldable machine: one cell = 12 nodes = 48 ranks.
const MESH: [u32; 3] = [2, 3, 2];

fn small_lj(variant: CommVariant) -> Cluster {
    Cluster::new(MESH, RunConfig::lj(8000), variant)
}

#[test]
fn construction_distributes_all_atoms() {
    let c = small_lj(CommVariant::Opt);
    assert_eq!(c.nranks(), 48);
    // 8000 target -> rounded up to whole FCC cells.
    assert!(c.natoms() >= 8000);
    // Ghosts exist after setup.
    assert!(c.states().iter().all(|s| s.atoms.nghost() > 0));
}

#[test]
fn forces_match_serial_reference_at_setup() {
    let cluster = small_lj(CommVariant::Opt);
    // Serial reference on the identical system: the cluster's own atoms
    // (pre-step positions) in one box.
    let serial = cluster.serial_twin();
    // Compare forces atom-by-atom via tags.
    let mut serial_f = std::collections::HashMap::new();
    for i in 0..serial.atoms.nlocal {
        serial_f.insert(serial.atoms.tag[i], serial.atoms.f[i]);
    }
    let mut checked = 0;
    for st in cluster.states() {
        for i in 0..st.atoms.nlocal {
            let expect = serial_f[&st.atoms.tag[i]];
            for (d, e) in expect.iter().enumerate() {
                assert!(
                    (st.atoms.f[i][d] - e).abs() < 1e-9,
                    "force mismatch on tag {} dim {d}: {} vs {}",
                    st.atoms.tag[i],
                    st.atoms.f[i][d],
                    e
                );
            }
            checked += 1;
        }
    }
    assert_eq!(checked, serial.atoms.nlocal);
}

/// The serial twin is the same system: each atom keeps its tag and type.
/// A density ramp leaves gaps in the tags and a binary mixture's species
/// ride on the types, so a twin that renumbers tags or resets types
/// diverges at step 1.
#[test]
fn serial_twin_bisects_clean_on_ramps_and_mixtures() {
    let ramp = |decomp| RunConfig {
        comm: CommTuning {
            decomp,
            density_gradient: 0.6,
            ..CommTuning::default()
        },
        ..RunConfig::lj(4000)
    };
    let binary = RunConfig {
        kind: PotentialKind::LjBinary,
        ..RunConfig::lj(4000)
    };
    let opts = LockstepOptions {
        steps: 3,
        ..LockstepOptions::default()
    };
    for (cfg, variant) in [
        (ramp(Decomp::Grid), CommVariant::MpiP2p),
        (ramp(Decomp::Rcb), CommVariant::MpiP2p),
        (binary, CommVariant::Opt),
    ] {
        let report = bisect_cluster_against_serial(&mut Cluster::new(MESH, cfg, variant), &opts);
        let what = (cfg.kind, cfg.comm.decomp, variant);
        assert!(report.is_clean(), "{what:?}:\n{}", report.render());
        assert_eq!(report.steps_run, 3);
    }
}

#[test]
fn all_variants_agree_on_physics() {
    let mut reference: Option<ThermoSnapshot> = None;
    for variant in CommVariant::STEP_BY_STEP {
        let mut c = small_lj(variant);
        c.run(10);
        let t = c.thermo();
        if let Some(r) = &reference {
            assert!(
                (t.pe - r.pe).abs() / r.pe.abs() < 1e-9,
                "{}: pe {} vs {}",
                variant.label(),
                t.pe,
                r.pe
            );
            assert!((t.ke - r.ke).abs() / r.ke < 1e-9, "{}", variant.label());
        } else {
            reference = Some(t);
        }
    }
}

#[test]
fn energy_is_conserved_across_rebuilds() {
    let mut c = small_lj(CommVariant::Opt);
    let e0 = c.thermo().total_energy();
    c.run(25); // crosses the every-20 rebuild
    let e1 = c.thermo().total_energy();
    let drift = (e1 - e0).abs() / c.natoms() as f64;
    assert!(drift < 2e-2, "per-atom energy drift {drift}");
    assert!(c.rebuild_count >= 2, "setup + step-20 rebuild");
}

#[test]
fn opt_variant_is_fastest_ref_is_slower() {
    let mut times = std::collections::HashMap::new();
    for variant in [CommVariant::Ref, CommVariant::Opt] {
        let mut c = small_lj(variant);
        c.run(5);
        times.insert(variant.label(), c.step_time());
    }
    assert!(
        times["parallel-p2p"] < times["ref"],
        "opt {} should beat ref {}",
        times["parallel-p2p"],
        times["ref"]
    );
}

#[test]
fn breakdown_sums_to_positive_stages() {
    let mut c = small_lj(CommVariant::Ref);
    c.run(5);
    let b = c.breakdown();
    assert!(b.pair > 0.0 && b.comm > 0.0 && b.modify > 0.0 && b.other > 0.0);
    let pct = b.percentages();
    assert!((pct.iter().sum::<f64>() - 100.0).abs() < 1e-6);
}

#[test]
fn eam_cluster_runs_and_conserves() {
    let mut c = Cluster::new(MESH, RunConfig::eam(8000), CommVariant::Opt);
    let e0 = c.thermo().total_energy();
    c.run(10);
    let e1 = c.thermo().total_energy();
    let drift = (e1 - e0).abs() / c.natoms() as f64;
    assert!(drift < 5e-3, "EAM per-atom drift {drift} eV");
}

#[test]
fn thermo_output_logs_and_charges_other() {
    let mut quiet = small_lj(CommVariant::Opt);
    let mut chatty = small_lj(CommVariant::Opt);
    chatty.set_thermo_every(5);
    quiet.run(20);
    chatty.run(20);
    assert_eq!(chatty.thermo_log().len(), 4);
    assert!(quiet.thermo_log().is_empty());
    // The reductions cost Other time.
    assert!(chatty.breakdown().other > quiet.breakdown().other);
    // Logged steps are the multiples of 5.
    assert_eq!(chatty.thermo_log()[0].step, 5);
    assert_eq!(chatty.thermo_log()[3].step, 20);
}

#[test]
fn traced_run_matches_cumulative_breakdown() {
    let mut c = small_lj(CommVariant::Opt);
    let trace = c.run_traced(25);
    assert_eq!(trace.len(), 25);
    // Trace mean must equal the cluster's cumulative breakdown.
    let tm = trace.mean();
    let cb = c.breakdown();
    assert!((tm.total() - cb.total()).abs() / cb.total() < 1e-9);
    // The step-20 rebuild shows up as a marked, more expensive step.
    let rebuilt: Vec<_> = trace.steps.iter().filter(|r| r.rebuilt).collect();
    assert_eq!(rebuilt.len(), 1);
    assert_eq!(rebuilt[0].step, 20);
    assert!(trace.rebuild_cost_ratio().unwrap() > 1.2);
    // Imbalance factor is sane (>= 1, not huge on a uniform lattice).
    let imb = c.imbalance();
    assert!((1.0..1.5).contains(&imb), "imbalance {imb}");
}

#[test]
fn proxy_scales_workload_down() {
    let c = Cluster::proxy(
        MESH,
        [32, 36, 32],
        RunConfig::lj(4_194_304),
        CommVariant::Opt,
    );
    // 4.2M atoms over 147,456 ranks ~ 28/rank; 48 proxy ranks ~ 1.4k.
    let per_rank = c.natoms() as f64 / c.nranks() as f64;
    assert!(
        (20.0..60.0).contains(&per_rank),
        "proxy per-rank atoms {per_rank}"
    );
}
