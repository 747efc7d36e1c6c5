//! The read side of the façade: stage breakdowns, virtual-clock metrics,
//! thermodynamic reductions, comm telemetry and the Fig. 6 exchange
//! micro-benchmark. Child module of [`crate::cluster`]; everything here
//! only observes (or re-drives) existing state.

use super::{Cluster, StageBreakdown};
use crate::accounting;
use tofumd_core::engine::{Op, OpStats};
use tofumd_md::atom::Atoms;
use tofumd_md::serial::SerialSim;
use tofumd_md::thermo::{self, ThermoSnapshot};

impl Cluster {
    /// Raw per-stage sums across ranks (un-normalized; used by tracing).
    fn stage_sums(&self) -> [f64; 5] {
        let mut s = [0.0; 5];
        for t in self.states.iter().map(|st| &st.stages) {
            s[0] += t.pair + t.pair_comm;
            s[1] += t.neigh;
            s[2] += t.comm;
            s[3] += t.modify;
            s[4] += t.other;
        }
        s
    }

    /// Slowest-rank clock divided by the mean rank clock — the
    /// load-imbalance factor that gates bulk-synchronous steps.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let max = accounting::latest_clock(self.states.iter());
        let mean = self.states.iter().map(|s| s.clock).sum::<f64>() / self.nranks() as f64;
        if mean <= 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Per-rank local atom counts — the load each rank carries right now.
    #[must_use]
    pub fn atom_counts(&self) -> Vec<usize> {
        self.states.iter().map(|s| s.atoms.nlocal).collect()
    }

    /// Max/mean of the per-rank atom counts (1.0 = perfectly balanced) —
    /// the decomposition-quality counterpart of the virtual-clock
    /// [`Cluster::imbalance`].
    #[must_use]
    pub fn atom_imbalance(&self) -> f64 {
        crate::trace::atom_imbalance(&self.atom_counts())
    }

    /// `(rank, row)` of the first row that breaks a halo window's licence
    /// ([`crate::driver::Partition::violation`]) on any rank currently
    /// holding a row partition; `None` when every partition is sound (or
    /// no overlapped rebuild has classified rows yet).
    #[must_use]
    pub fn partition_violation(&self) -> Option<(usize, usize)> {
        self.lanes
            .iter()
            .zip(&self.states)
            .enumerate()
            .find_map(|(r, (lane, st))| {
                let (part, list) = (lane.part.as_ref()?, lane.list.as_ref()?);
                Some((r, part.violation(list, st.atoms.nlocal)?))
            })
    }

    /// Run `n` steps recording a per-step stage trace.
    pub fn run_traced(&mut self, n: u64) -> crate::trace::Trace {
        let mut trace = crate::trace::Trace::default();
        let nranks = self.nranks() as f64;
        let ops_before = self.op_stats();
        for _ in 0..n {
            let before = self.stage_sums();
            let clock_before = accounting::latest_clock(self.states.iter());
            let rebuilds_before = self.rebuild_count;
            let rebalances_before = self.rebalance_count;
            let overlapped_before = self.overlapped_total();
            self.run_step();
            trace.push_imbalance_sample(self.step, self.atom_imbalance());
            if self.rebalance_count > rebalances_before {
                trace.push_rebalance_step(self.step);
            }
            let after = self.stage_sums();
            let clock_after = accounting::latest_clock(self.states.iter());
            let mut stages = [0.0; 5];
            for (st, (a, b)) in stages.iter_mut().zip(after.iter().zip(&before)) {
                *st = (a - b) / nranks;
            }
            trace.push(crate::trace::StepRecord {
                step: self.step,
                stages,
                max_clock_delta: clock_after - clock_before,
                rebuilt: self.rebuild_count > rebuilds_before,
                overlapped: (self.overlapped_total() - overlapped_before) / nranks,
            });
        }
        let delta = self.op_stats().since(&ops_before);
        trace.comm = crate::trace::comm_rows(&delta, nranks * n as f64);
        trace.set_atom_counts(self.atom_counts());
        trace.recovery = self.recovery;
        trace
    }

    /// Total comm time hidden behind interior compute across all ranks
    /// since the last `reset_timers` — the DAG plan's overlap win. Not
    /// part of any stage sum: it is wait the ranks never incurred.
    #[must_use]
    pub fn overlapped_total(&self) -> f64 {
        self.states.iter().map(|st| st.stages.overlapped).sum()
    }

    /// Mean per-step stage breakdown over all ranks since the last
    /// `reset_timers`.
    #[must_use]
    pub fn breakdown(&self) -> StageBreakdown {
        let n = self.nranks() as f64;
        let steps = self.steps_run.max(1) as f64;
        let s = self.stage_sums();
        StageBreakdown {
            pair: s[0] / (n * steps),
            neigh: s[1] / (n * steps),
            comm: s[2] / (n * steps),
            modify: s[3] / (n * steps),
            other: s[4] / (n * steps),
        }
    }

    /// Wall-clock (virtual) seconds per step: the slowest rank's clock
    /// averaged over the steps run.
    #[must_use]
    pub fn step_time(&self) -> f64 {
        let latest = accounting::latest_clock(self.states.iter());
        latest / self.steps_run.max(1) as f64
    }

    /// Globally-reduced thermodynamic snapshot.
    #[must_use]
    pub fn thermo(&self) -> ThermoSnapshot {
        let units = self.cfg.units();
        let mass = self.cfg.mass();
        let mut pe = 0.0;
        let mut virial = 0.0;
        let mut ke = 0.0;
        for (lane, st) in self.lanes.iter().zip(&self.states) {
            pe += lane.energy.energy + lane.embed;
            virial += lane.energy.virial;
            ke += thermo::kinetic_energy(&st.atoms, mass, units);
        }
        let n = self.natoms();
        ThermoSnapshot {
            step: self.step,
            pe,
            ke,
            temperature: thermo::temperature(ke, n, units),
            pressure: thermo::pressure(ke, virial, self.global.volume(), units),
        }
    }

    /// The serial engine on this cluster's current locals in tag order,
    /// every atom keeping its tag, type, position and velocity: the same
    /// system in one box, for the bisector and the physics checks to step
    /// beside the cluster.
    #[must_use]
    pub fn serial_twin(&self) -> SerialSim {
        let mut order: Vec<(u64, usize, usize)> = Vec::with_capacity(self.natoms());
        for (r, st) in self.states.iter().enumerate() {
            order.extend((0..st.atoms.nlocal).map(|i| (st.atoms.tag[i], r, i)));
        }
        order.sort_unstable();
        let mut atoms = Atoms::default();
        for (tag, r, i) in order {
            let a = &self.states[r].atoms;
            atoms.push_local(a.x[i], a.v[i], a.typ[i], tag);
        }
        let cfg = &self.cfg;
        SerialSim::new(
            atoms,
            self.global,
            cfg.build_potential(),
            cfg.units(),
            cfg.skin(),
            cfg.policy(),
            cfg.timestep(),
            cfg.mass(),
        )
    }

    /// Sum of modeled setup costs (registrations, pre-sizing) across ranks.
    #[must_use]
    pub fn setup_cost(&self) -> f64 {
        self.lanes.iter().map(|l| l.engine.setup_cost()).sum()
    }

    /// Per-op / per-round message counters summed over ranks since the
    /// build (Table 1's live counterpart: messages posted and payload
    /// bytes moved; `.total()` folds the ops). They live on the ranks'
    /// states, so engine swaps (demotion, recovery) keep them.
    #[must_use]
    pub fn op_stats(&self) -> OpStats {
        let mut total = OpStats::default();
        for st in &self.states {
            total.merge(&st.stats);
        }
        total
    }

    /// Enable LAMMPS-style `thermo N` output: every N steps the cluster
    /// performs (and charges) a global thermodynamic reduction and logs
    /// the snapshot.
    pub fn set_thermo_every(&mut self, every: u64) {
        self.thermo_every = every;
    }

    /// Snapshots collected at thermo steps since construction.
    #[must_use]
    pub fn thermo_log(&self) -> &[ThermoSnapshot] {
        &self.thermo_log
    }

    /// Fig. 6's micro-measurement: run only the forward ghost exchange
    /// `iters` times and return the mean per-exchange time (max over
    /// ranks). Positions are frozen, so this isolates the message path.
    #[must_use]
    pub fn bench_forward_exchange(&mut self, iters: u64) -> f64 {
        self.reset_timers();
        for _ in 0..iters {
            self.run_op(Op::Forward);
        }
        let latest = accounting::latest_clock(self.states.iter());
        self.reset_timers();
        latest / iters as f64
    }

    /// Registration calls made on the fabric so far, over all nodes.
    #[must_use]
    pub fn registration_calls(&self) -> u64 {
        (0..self.net.node_count())
            .map(|n| self.net.registration_calls_of(n))
            .sum()
    }

    /// Re-registrations since the build finished, across all ranks: the
    /// §3.4 dynamic-expansion overhead (every grow re-registers), zero
    /// under pre-registration. An engine swapped in mid-run (demotion,
    /// recovery) registers its buffers here too.
    #[must_use]
    pub fn growth_events(&self) -> u64 {
        self.registration_calls() - self.built_reg_calls
    }

    /// `(modeled, backed)` bytes of registered memory over all nodes: what
    /// the engines registered (§3.4's theoretical maximum, the size every
    /// cost is charged on) and what the host holds for the bytes actually
    /// touched (see [`tofumd_tofu::TofuNet::registered_bytes`]).
    #[must_use]
    pub fn registered_bytes(&self) -> (usize, usize) {
        self.net.registered_bytes()
    }
}
