//! The phase-executor determinism contract (DESIGN.md §9): driver thread
//! counts {1, 2, 8} must produce **bit-identical** thermo logs, virtual
//! clocks and op-level comm counters across all five engine variants, on
//! both the LJ and EAM presets.
//!
//! The contract holds because rank→worker chunking is static and
//! node-aligned: ranks sharing a node (and therefore TNI injection
//! clocks) are always driven by one worker in ascending order, and every
//! cross-node interaction is order-independent (max-folds + content
//! matching).

use tofumd_core::engine::OpStats;
use tofumd_runtime::{Cluster, CommVariant, RunConfig};

const MESH: [u32; 3] = [2, 3, 2]; // 12 nodes, 48 ranks

/// Exact-bits fingerprint of everything the contract covers: the thermo
/// log, every rank's virtual clock and all seven stage buckets (a charge
/// booked into the wrong bucket at some thread count shows), and the final
/// global thermo snapshot.
fn fingerprint(c: &Cluster) -> Vec<u64> {
    let mut bits = Vec::new();
    for snap in c.thermo_log() {
        bits.push(snap.step);
        bits.extend(
            [snap.pe, snap.ke, snap.temperature, snap.pressure]
                .iter()
                .map(|v| v.to_bits()),
        );
    }
    for st in c.states() {
        bits.push(st.clock.to_bits());
        bits.extend(st.stages.buckets().map(f64::to_bits));
    }
    let t = c.thermo();
    bits.extend([t.pe.to_bits(), t.ke.to_bits(), t.pressure.to_bits()]);
    bits
}

fn run_at(cfg: RunConfig, variant: CommVariant, threads: usize, steps: u64) -> (Vec<u64>, OpStats) {
    let mut c = Cluster::new(MESH, cfg, variant);
    c.set_driver_threads(threads);
    c.set_thermo_every(2);
    c.run(steps);
    assert_eq!(c.driver_threads(), threads);
    (fingerprint(&c), c.op_stats())
}

/// Exhaustive property over the contract's domain: thread counts
/// {1, 2, 8} × all five step-by-step variants × both potentials.
#[test]
fn thread_count_never_changes_results() {
    for (cfg, steps, label) in [
        (RunConfig::lj(4000), 8, "lj"),
        (RunConfig::eam(4000), 6, "eam"),
    ] {
        for variant in CommVariant::STEP_BY_STEP {
            let (base_fp, base_ops) = run_at(cfg, variant, 1, steps);
            for threads in [2, 8] {
                let (fp, ops) = run_at(cfg, variant, threads, steps);
                assert_eq!(
                    fp,
                    base_fp,
                    "{label}/{}: {threads}-thread run diverged from serial",
                    variant.label()
                );
                assert_eq!(
                    ops,
                    base_ops,
                    "{label}/{}: {threads}-thread op counters diverged",
                    variant.label()
                );
            }
        }
    }
}

/// The exchange/border/rebuild path (step 20 under the LJ policy) is also
/// bit-identical under threading, not just the forward path.
#[test]
fn reneighbor_path_is_deterministic_under_threads() {
    let (base_fp, base_ops) = run_at(RunConfig::lj(4000), CommVariant::Opt, 1, 21);
    let (fp, ops) = run_at(RunConfig::lj(4000), CommVariant::Opt, 8, 21);
    assert_eq!(fp, base_fp, "rebuild step diverged under 8 threads");
    assert_eq!(ops, base_ops);
}

/// Changing the thread count mid-run must also leave the trajectory
/// untouched (the team swap preserves the node partition).
#[test]
fn thread_count_can_change_mid_run() {
    let mut a = Cluster::new(MESH, RunConfig::lj(4000), CommVariant::Opt);
    let mut b = Cluster::new(MESH, RunConfig::lj(4000), CommVariant::Opt);
    a.run(6);
    b.set_driver_threads(4);
    b.run(3);
    b.set_driver_threads(2);
    b.run(3);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}
