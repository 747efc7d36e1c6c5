//! Regression coverage for the `run_op` round-count contract: the driver
//! reads `rounds()` / `barrier_between_rounds()` from rank 0's engine
//! only, so an engine wrapper that fails to delegate them silently
//! changes every rank's round count. The driver now debug-asserts that
//! all ranks agree; these tests pin both sides of that contract.

use std::panic::AssertUnwindSafe;
use tofumd_core::engine::{GhostEngine, Op, RankState};
use tofumd_runtime::{Cluster, CommVariant, FaultInjector, RunConfig};
use tofumd_tofu::TofuError;

const MESH: [u32; 3] = [2, 3, 2];

/// A wrapper that forwards traffic but *lies about its round count* — the
/// exact bug class the assertion exists to catch.
struct NoDelegate {
    inner: Box<dyn GhostEngine>,
}

impl GhostEngine for NoDelegate {
    fn rounds(&self, op: Op) -> usize {
        self.inner.rounds(op) + 1
    }
    fn post(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        self.inner.post(op, round, st)
    }
    fn complete(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        self.inner.complete(op, round, st)
    }
    fn setup_cost(&self) -> f64 {
        self.inner.setup_cost()
    }
}

#[test]
fn non_delegating_wrapper_is_caught_in_debug() {
    // debug_assert! only fires in debug builds; under --release the
    // assertion compiles out, so there is nothing to observe.
    if !cfg!(debug_assertions) {
        return;
    }
    let mut c = Cluster::new(MESH, RunConfig::lj(4000), CommVariant::Opt);
    c.wrap_engine(7, |inner| Box::new(NoDelegate { inner }));
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the expected panic quiet
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| c.run(1)));
    std::panic::set_hook(hook);
    let err = result.expect_err("round-count disagreement must be caught");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("engines disagree on rounds"),
        "unexpected panic message: {msg}"
    );
}

#[test]
fn delegating_wrapper_passes_the_round_check() {
    // FaultInjector delegates rounds()/barrier_between_rounds() to its
    // inner engine (mandatory since the assertion landed); with a fault
    // scheduled far in the future it must be a pure pass-through.
    let mut plain = Cluster::new(MESH, RunConfig::lj(4000), CommVariant::Opt);
    let mut wrapped = Cluster::new(MESH, RunConfig::lj(4000), CommVariant::Opt);
    wrapped.wrap_engine(7, |inner| {
        Box::new(FaultInjector::new(inner, Op::Forward, u64::MAX, 0.0))
    });
    plain.run(3);
    wrapped.run(3);
    let a = plain.thermo();
    let b = wrapped.thermo();
    assert_eq!(a.pe.to_bits(), b.pe.to_bits());
    assert_eq!(a.ke.to_bits(), b.ke.to_bits());
}
