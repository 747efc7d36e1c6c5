//! The simulated cluster: lockstep multi-rank MD over the TofuD fabric.
//!
//! Every rank holds real atoms and computes real forces; ghost data moves
//! as real bytes through the chosen [`CommVariant`]'s engine. Time is
//! *virtual*: communication time flows from the fabric's calibrated model,
//! compute-stage time from the [`Machine`]'s stage costs applied to the
//! rank's actual workload. The per-stage accounting mirrors LAMMPS's timing
//! breakdown (Table 3): Pair, Neigh, Comm, Modify, Other.
//!
//! `Cluster` is a thin façade: each timestep executes the
//! [`Phase`]s of [`crate::driver`]'s step DAG, per-rank
//! compute lives in [`crate::physics`], and virtual-time bookkeeping in
//! [`crate::accounting`]. Host parallelism comes from the driver's
//! node-aligned [`Team`] on the spin pool — bit-identical results at any
//! thread count (DESIGN.md §9).
//!
//! The same type serves correctness runs (compare against
//! [`tofumd_md::SerialSim`]) and performance runs (a small *proxy* torus
//! carrying the per-rank workload of a much larger target machine).

use crate::accounting;
use crate::config::RunConfig;
use crate::driver::{step_plan, Lane, Pass, Phase, PlanMode, Team, Verdict};
use crate::physics;
use crate::trace::RecoveryStats;
use crate::variant::CommVariant;
use std::sync::Arc;
use tofumd_core::engine::{GhostEngine, Op, RankState, Stage, StageTimes};
use tofumd_core::topo_map::RankMap;
use tofumd_core::AddressBook;
use tofumd_md::integrate::NveIntegrator;
use tofumd_md::potential::Potential;
use tofumd_md::region::Box3;
use tofumd_md::thermo::ThermoSnapshot;
use tofumd_model::Machine;
use tofumd_mpi::Communicator;
use tofumd_tofu::{FaultCounters, FaultPlan, TofuError, TofuNet};

pub use tofumd_model::StageBreakdown;

// Child modules of the façade: seating a decomposition (build, restore's
// assemble, the shared re-cut / install / settle), checkpoint and
// recovery, rebalancing, and the read-side metrics/observability
// surface. Split out so this file stays the step driver alone.
#[path = "cluster_build.rs"]
mod build;
#[path = "cluster_checkpoint.rs"]
mod checkpoint_impl;
#[path = "cluster_rebalance.rs"]
mod rebalance;
#[path = "cluster_report.rs"]
mod report;

/// Callback invoked after every completed communication round: `(op,
/// round, rounds, states)`. Installed by the lockstep bisector to snapshot
/// per-rank state at op granularity.
pub type OpObserver = Box<dyn FnMut(Op, usize, usize, &[RankState]) + Send>;

/// The lockstep simulated cluster.
pub struct Cluster {
    /// The run configuration in force.
    pub cfg: RunConfig,
    /// The communication design under test.
    pub variant: CommVariant,
    map: RankMap,
    global: Box3,
    net: Arc<TofuNet>,
    mpi: Arc<Communicator>,
    /// The address exchange this cluster's uTofu engines publish to.
    book: Arc<AddressBook>,
    potential: Arc<Potential>,
    integrator: NveIntegrator,
    states: Vec<RankState>,
    lanes: Vec<Lane>,
    team: Team,
    /// The modeled machine; the fabric is built from its `net`.
    machine: Machine,
    /// Completed timesteps since construction.
    pub step: u64,
    /// Neighbor-list rebuilds performed (including setup).
    pub rebuild_count: u64,
    steps_run: u64,
    /// LAMMPS `thermo N`: global thermo reduction every N steps (0 = off).
    thermo_every: u64,
    /// Snapshots collected at thermo steps.
    thermo_log: Vec<ThermoSnapshot>,
    target_mesh: [u32; 3],
    op_observer: Option<OpObserver>,
    /// Fabric registration calls when the build (or a restore) settled —
    /// the baseline of [`Cluster::growth_events`].
    pub(crate) built_reg_calls: u64,
    /// True once the cluster has swapped its engines for the MPI 3-stage
    /// reference after a retry budget was exhausted.
    pub(crate) demoted: bool,
    /// Forces the next step to reneighbor (set on demotion: the fresh
    /// engines have no ghost send lists until a Border pass runs).
    pub(crate) force_rebuild: bool,
    /// Mid-run rebalances performed since construction.
    pub(crate) rebalance_count: u64,
    /// Whether the step DAG may overlap halo ops with interior compute.
    plan_mode: PlanMode,
    /// Auto-checkpoint cadence in steps (0 = manual checkpoints only).
    /// Checkpoints land at the first reneighbor step at or past the due
    /// step, so the dump is always at a list-rebuild boundary.
    pub(crate) checkpoint_every: u64,
    /// First step at or after which the next auto checkpoint is due.
    pub(crate) next_checkpoint: u64,
    /// Where auto checkpoints are written (`restart N <file>`); `None`
    /// keeps them in memory only.
    pub(crate) checkpoint_path: Option<std::path::PathBuf>,
    /// The sealed container bytes of the most recent checkpoint — the
    /// rollback target when a peer dies.
    pub(crate) last_checkpoint: Option<Vec<u8>>,
    /// Set when a communication op surfaced [`TofuError::PeerDead`]
    /// mid-step; consumed by `run_step`, which aborts the step and runs
    /// the shrinking recovery.
    pub(crate) pending_peer_death: Option<u32>,
    /// The rank a shrinking recovery removed from the run, if any. Its
    /// lane stays allocated but is skipped by every phase.
    pub(crate) dead: Option<u32>,
    /// Checkpoint/recovery counters, surfaced through
    /// [`Trace::report`](crate::trace::Trace::report).
    pub(crate) recovery: RecoveryStats,
    /// True exactly when the current state is a consistent checkpoint
    /// boundary (end of a reneighbor step, or right after setup/restore).
    pub(crate) at_rebuild_boundary: bool,
}

impl Cluster {
    /// Build a cluster on `mesh` nodes holding `cfg.natoms_target` atoms.
    #[must_use]
    pub fn new(mesh: [u32; 3], cfg: RunConfig, variant: CommVariant) -> Self {
        Self::build(mesh, mesh, cfg, variant, None)
    }

    /// Build a *proxy* cluster: a small `proxy_mesh` torus whose ranks each
    /// carry the per-rank workload of `cfg.natoms_target` atoms spread over
    /// `target_mesh`; collective costs are modeled at the target scale.
    #[must_use]
    pub fn proxy(
        proxy_mesh: [u32; 3],
        target_mesh: [u32; 3],
        cfg: RunConfig,
        variant: CommVariant,
    ) -> Self {
        let target_nodes: u64 = target_mesh.iter().map(|&d| u64::from(d)).product();
        let proxy_nodes: u64 = proxy_mesh.iter().map(|&d| u64::from(d)).product();
        let scaled =
            ((cfg.natoms_target as u64 * proxy_nodes) / target_nodes).max(proxy_nodes * 4) as usize;
        let scaled_cfg = RunConfig {
            natoms_target: scaled,
            ..cfg
        };
        Self::build(proxy_mesh, target_mesh, scaled_cfg, variant, None)
    }

    /// Build a cluster with a deterministic [`FaultPlan`] installed on the
    /// fabric *before* any engine construction, so registration and CQ
    /// faults already apply to the build itself (keyed under
    /// [`tofumd_tofu::OP_SETUP`] / step 0).
    #[must_use]
    pub fn with_fault_plan(
        mesh: [u32; 3],
        cfg: RunConfig,
        variant: CommVariant,
        plan: FaultPlan,
    ) -> Self {
        Self::build(mesh, mesh, cfg, variant, Some(plan))
    }

    /// Install (or replace) a fault plan on the running fabric; it takes
    /// effect at the next communication op.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.net.set_fault_plan(plan);
    }

    /// Running totals of the faults the fabric has injected.
    #[must_use]
    pub fn fault_counters(&self) -> FaultCounters {
        self.net.fault_counters()
    }

    /// True once a retry-budget exhaustion demoted the cluster to the MPI
    /// 3-stage reference engine.
    #[must_use]
    pub fn demoted(&self) -> bool {
        self.demoted
    }

    /// The communication variant currently in force (changes to
    /// [`CommVariant::Ref`] after a mid-run demotion).
    #[must_use]
    pub fn variant(&self) -> CommVariant {
        self.variant
    }

    /// Number of ranks.
    #[must_use]
    pub fn nranks(&self) -> usize {
        self.states.len()
    }

    /// Total atoms across all ranks.
    #[must_use]
    pub fn natoms(&self) -> usize {
        self.states.iter().map(|s| s.atoms.nlocal).sum()
    }

    /// Per-rank states (read-only observability for tests).
    #[must_use]
    pub fn states(&self) -> &[RankState] {
        &self.states
    }

    /// The global periodic box of the built system.
    #[must_use]
    pub fn global_box(&self) -> Box3 {
        self.global
    }

    /// The rank-to-node mapping in force.
    #[must_use]
    pub fn rank_map(&self) -> &RankMap {
        &self.map
    }

    /// Zero all timing state (clocks, TNI schedules, stage times).
    /// Called after setup so reported times cover production steps only.
    pub fn reset_timers(&mut self) {
        for st in &mut self.states {
            st.clock = 0.0;
            st.stages = StageTimes::default();
        }
        self.net.reset_clocks();
        self.steps_run = 0;
    }

    /// Drive the lockstep phases with `threads` host threads (1 = serial).
    /// Results are bit-identical at any thread count: the team's static
    /// node-aligned partition keeps every shared-TNI ordering fixed
    /// (DESIGN.md §9).
    pub fn set_driver_threads(&mut self, threads: usize) {
        assert!(threads >= 1);
        if threads != self.team.threads() {
            self.team = Team::new(threads, &self.map);
        }
    }

    /// Host threads currently driving the phases.
    #[must_use]
    pub fn driver_threads(&self) -> usize {
        self.team.threads()
    }

    /// Select how timesteps are sequenced. [`PlanMode::Dag`] (the
    /// default) overlaps halo exchange with interior compute;
    /// [`PlanMode::Barrier`] pins the step DAG to its non-overlapping
    /// shape. Physics is bit-identical either way.
    pub fn set_plan_mode(&mut self, mode: PlanMode) {
        self.plan_mode = mode;
    }

    /// The step-sequencing mode in force.
    #[must_use]
    pub fn plan_mode(&self) -> PlanMode {
        self.plan_mode
    }

    fn physics_ctx(&self) -> physics::Ctx {
        let (variant, cfg) = (self.variant, &self.cfg);
        physics::Ctx {
            machine: self.machine,
            threading: variant.threading(),
            cutoff: self.potential.cutoff(),
            skin: cfg.skin(),
            // The one-sided rule requires the grid's half ghost shell;
            // irregular (RCB) graphs carry ghosts on every side, so they
            // keep the coordinate-ordering rule to own each cross-rank
            // pair exactly once.
            list_kind: match self.potential.list_kind() {
                tofumd_md::neighbor::ListKind::HalfNewton
                    if variant.is_p2p() && cfg.comm.decomp == crate::config::Decomp::Grid =>
                {
                    tofumd_md::neighbor::ListKind::HalfOneSided
                }
                k => k,
            },
            eam: cfg.is_eam(),
        }
    }

    /// After a parallel region joined, raise the first failure a lane
    /// captured in `what`. Recoverable faults never reach here (the
    /// engines absorb them by retry or reliable-stack fallback). A
    /// [`TofuError::PeerDead`] is the one survivable escalation: it marks
    /// the dead rank for the shrinking recovery and lets the step driver
    /// abort the step. Anything else — a protocol violation, or a physics
    /// phase run out of order — a real run could not survive either, so
    /// the typed context is surfaced as a panic message rather than
    /// silently corrupting physics.
    fn raise_lane_failures(&mut self, what: std::fmt::Arguments<'_>) {
        for (rank, lane) in self.lanes.iter_mut().enumerate() {
            if let Some(e) = lane.failed.take() {
                if let TofuError::PeerDead { rank: dead, .. } = e {
                    // Every survivor reports the same dead peer; keep the
                    // first sighting and drain the rest.
                    if self.pending_peer_death.is_none() {
                        self.pending_peer_death = Some(dead);
                    }
                    continue;
                }
                panic!("rank {rank}: {what} failed: {e}");
            }
        }
    }

    /// Open `op`: key the fabric's fault decisions on `(step, op)` and
    /// return the lanes it skips — the fabric's dead ranks joined with the
    /// recovery's record, not `survivors()` alone: a fault plan's kill is
    /// keyed by the fault-context step, which a rollback rewinds. Every
    /// fan-out of an engine call starts here.
    fn open(&self, op: Op) -> Dead {
        self.net.set_fault_context(self.step, op.index() as u8);
        let mut dead = self.net.dead_ranks();
        if let Some(d) = self.dead {
            dead.push(d);
            dead.sort_unstable();
            dead.dedup();
        }
        Dead(dead)
    }

    fn run_op(&mut self, op: Op) {
        let dead = self.open(op);
        // The round structure is read off the first live lane: a dead
        // lane's engine sits on a stale graph and has no say.
        let lead = &self.lanes[(0..self.lanes.len()).find(|&r| !dead.has(r)).unwrap_or(0)].engine;
        let (rounds, barrier) = (lead.rounds(op), lead.barrier_between_rounds());
        // A wrapper that fails to delegate rounds()/barrier_between_rounds()
        // silently changes every rank's round count (the driver reads one
        // lane only) — catch the disagreement here.
        debug_assert!(
            self.lanes.iter().enumerate().all(|(r, l)| dead.has(r)
                || (l.engine.rounds(op) == rounds && l.engine.barrier_between_rounds() == barrier)),
            "engines disagree on rounds({op:?})/barrier: engine wrappers must \
             delegate rounds() and barrier_between_rounds()"
        );
        for round in 0..rounds {
            self.team
                .for_each(&mut self.lanes, &mut self.states, &|rank, lane, st| {
                    dead.call(rank, lane, st, |lane, st| lane.engine.post(op, round, st));
                });
            self.raise_lane_failures(format_args!("post({op:?}, round {round})"));
            if self.pending_peer_death.is_some() {
                break;
            }
            self.team
                .for_each(&mut self.lanes, &mut self.states, &|rank, lane, st| {
                    dead.call(rank, lane, st, |lane, st| {
                        lane.engine.complete(op, round, st)
                    });
                });
            self.raise_lane_failures(format_args!("complete({op:?}, round {round})"));
            if self.pending_peer_death.is_some() {
                break;
            }
            if barrier && round + 1 < rounds {
                // Stage synchronization of the 3-stage pattern ("an MPI
                // barrier is mandatory between stages", §3.1), realized by
                // LAMMPS's sendrecv dependency chain: a global stall plus
                // one notification, not a log-P collective.
                let cost = self.net.params().mpi_match_cost;
                accounting::global_sync(&mut self.states, cost, op.into());
            }
            self.observe(op, round, rounds);
        }
        self.mpi.reset_mailboxes();
    }

    /// Can this step's halo ops overlap with interior compute? Requires
    /// [`PlanMode::Dag`] and a p2p variant — the row every lane's engine
    /// was built from, so Border and Forward are single rounds without a
    /// stage barrier. Re-evaluated every step, so a mid-run demotion (to
    /// the 3-stage reference) degrades the DAG to its non-overlapping
    /// shape.
    fn overlap_eligible(&self) -> bool {
        self.plan_mode == PlanMode::Dag && self.variant.is_p2p()
    }

    /// Post half of an overlapped single-round op: identical to the post
    /// side of [`Cluster::run_op`], plus each rank records the clock at
    /// which its halo went out (the start of the overlap window).
    fn window_post(&mut self, op: Op) {
        let dead = self.open(op);
        debug_assert_eq!(self.lanes[0].engine.rounds(op), 1);
        self.team
            .for_each(&mut self.lanes, &mut self.states, &|rank, lane, st| {
                dead.call(rank, lane, st, |lane, st| lane.engine.post(op, 0, st));
                lane.overlap_c0 = st.clock;
            });
        self.raise_lane_failures(format_args!("post({op:?})"));
    }

    /// The overlap window of the op [`Cluster::window_post`] opened, run
    /// rank-major in one team region: each rank charges the interior rows'
    /// share of `pass`, completes its own `op` — the complete side of
    /// [`Cluster::run_op`] plus the overlap credit — then runs `pass` over
    /// all its rows and charges the remainder ([`physics::Split`]). The
    /// credit: the rank's clock advanced by `clock − overlap_c0` of
    /// interior compute since the post; any part of the raw arrival horizon
    /// covered by that window is comm time the barrier plan would have
    /// waited out, booked into `st.stages.overlapped`. A lane whose complete
    /// fails runs no pass; the failures are raised after the region, as
    /// for a whole op.
    fn run_window(&mut self, op: Op, pass: Pass, ctx: &physics::Ctx) {
        let dead = self.open(op);
        let pre_ghost = op == Op::Border;
        let split = physics::Split {
            ctx,
            potential: &self.potential,
            pass,
            pre_ghost,
        };
        let complete = |lane: &mut Lane, st: &mut RankState| {
            let c1 = st.clock;
            st.arrival_horizon = f64::NEG_INFINITY;
            let done = lane.engine.complete(op, 0, st);
            let hidden = (st.arrival_horizon.min(c1) - lane.overlap_c0).max(0.0);
            st.stages.overlapped += hidden;
            done
        };
        self.team.for_each_chunk(
            &mut self.lanes,
            &mut self.states,
            &|rank, lane, st, exec, scratch| {
                split.interior(rank, lane, st, exec);
                if lane.failed.is_none() && dead.call(rank, lane, st, complete) {
                    split.boundary(rank, lane, st, exec, scratch);
                }
            },
        );
        self.raise_lane_failures(format_args!("window({op:?}, {pass:?})"));
        self.mpi.reset_mailboxes();
        if self.pending_peer_death.is_some() {
            return;
        }
        if pre_ghost {
            self.rebuild_count += 1;
            // A row billed inside a window must be one that could have
            // run there: it lists no ghost.
            debug_assert_eq!(self.partition_violation(), None);
        }
        self.observe(op, 0, 1);
    }

    /// Hand the states after round `round` of `rounds` of `op` to the
    /// installed [`OpObserver`], if any.
    fn observe(&mut self, op: Op, round: usize, rounds: usize) {
        if let Some(obs) = &mut self.op_observer {
            obs(op, round, rounds, &self.states);
        }
    }

    /// Install an [`OpObserver`] called after every completed round of
    /// every op. Used by the lockstep bisector; replaces any previous
    /// observer.
    pub fn set_op_observer(&mut self, obs: OpObserver) {
        self.op_observer = Some(obs);
    }

    /// Remove the installed [`OpObserver`], if any.
    pub fn clear_op_observer(&mut self) {
        self.op_observer = None;
    }

    /// Replace rank `rank`'s ghost engine with `wrap(old_engine)`. The
    /// lockstep fault-injection tests use this to interpose a corrupting
    /// shim around one rank's engine.
    pub fn wrap_engine(
        &mut self,
        rank: usize,
        wrap: impl FnOnce(Box<dyn GhostEngine>) -> Box<dyn GhostEngine>,
    ) {
        let old = std::mem::replace(&mut self.lanes[rank].engine, Box::new(PlaceholderEngine));
        self.lanes[rank].engine = wrap(old);
    }

    /// Decide whether this step reneighbors: rebuild-policy schedule plus
    /// (for EAM) the every-5-step displacement check, whose allreduce is
    /// booked into Other at the target machine's scale. Afterwards the
    /// dynamic-balance trigger is evaluated — at `fix balance` interval
    /// steps the atom imbalance is globally reduced (one more allreduce
    /// into Other) and compared with the balance threshold; firing arms
    /// this step's Rebalance phase and forces a reneighbor so the fresh
    /// decomposition rebuilds ghosts and lists. Skipped after a demotion
    /// (the reference engines are grid-only).
    fn reneighbor_check(&mut self) -> Verdict {
        let rebuild = self.rebuild_due();
        // A post-recovery run keeps its shrunken decomposition static.
        // Every input of `run_rebalance` is in rank space over the
        // survivors, but no test yet drives a re-cut after a death.
        let mut rebalance = false;
        if !self.demoted && self.dead.is_none() && self.cfg.comm.rebalance_check_due(self.step) {
            let imbalance = self.atom_imbalance();
            rebalance = self.cfg.comm.rebalance_due(self.step, imbalance);
            self.allreduce(1);
        }
        let rebuild = rebuild || rebalance;
        Verdict { rebuild, rebalance }
    }

    /// An allreduce of `bytes` per rank at the target machine's scale:
    /// every clock stalls to the latest plus the collective's cost, booked
    /// into Other.
    fn allreduce(&mut self, bytes: usize) {
        let p = self.net.params();
        let hop = p.mean_hop_latency(self.target_mesh);
        let nodes: u32 = self.target_mesh.iter().product();
        let cost = p.allreduce_time(f64::from(4 * nodes), hop, bytes);
        accounting::global_sync(&mut self.states, cost, Stage::Other);
    }

    /// The rebuild half of the verdict: a demotion's forced reneighbor,
    /// else the policy's schedule and displacement check.
    fn rebuild_due(&mut self) -> bool {
        if self.force_rebuild {
            // A demotion swapped in engines with empty ghost send lists;
            // only a full exchange + border pass can populate them.
            self.force_rebuild = false;
            return true;
        }
        let policy = self.cfg.policy();
        if !policy.is_check_step(self.step) {
            return false;
        }
        if !policy.check {
            return true;
        }
        physics::check_displacements(
            &self.team,
            self.cfg.skin(),
            &mut self.lanes,
            &mut self.states,
        );
        let moved = self.lanes.iter().any(|l| l.moved);
        self.allreduce(1);
        moved
    }

    /// Per-step Other floor plus the optional LAMMPS `thermo N`
    /// reduction, booked into Other like LAMMPS's output stage.
    fn accounting_phase(&mut self, ctx: &physics::Ctx) {
        physics::charge_other_floor(&self.team, ctx, &mut self.lanes, &mut self.states);
        if self.thermo_every > 0 && self.step.is_multiple_of(self.thermo_every) {
            self.allreduce(3 * 8);
            let snap = self.thermo();
            self.thermo_log.push(snap);
        }
    }

    /// Execute one phase of a timestep.
    fn run_phase(&mut self, phase: Phase) {
        let ctx = self.physics_ctx();
        let potential = self.potential.clone();
        let (team, lanes, states) = (&self.team, &mut self.lanes, &mut self.states);
        match phase {
            Phase::InitialIntegrate => {
                physics::integrate_initial(team, &self.integrator, lanes, states);
            }
            Phase::Rebalance => self.run_rebalance(),
            Phase::Exchange => {
                // Positions are deliberately *not* wrapped into the global
                // box first: the face link's periodic shift re-wraps a
                // boundary-crossing atom while sending it one hop; a global
                // wrap would route it the long way around the torus.
                for st in states {
                    st.atoms.clear_ghosts();
                }
                self.run_op(Op::Exchange);
            }
            Phase::SpatialSort => physics::spatial_sort(team, &ctx, lanes, states),
            Phase::Comm(op) => self.run_op(op),
            Phase::Post(op) => self.window_post(op),
            Phase::Window { op, pass } => self.run_window(op, pass, &ctx),
            Phase::RebuildLists => {
                physics::rebuild_lists(team, &ctx, lanes, states);
                self.rebuild_count += 1;
            }
            Phase::Pass(pass) => physics::pair_pass(team, &potential, pass, lanes, states),
            Phase::ChargePair => physics::charge_pair(team, &ctx, lanes, states),
            Phase::Embed => physics::eam_embed(team, &potential, lanes, states),
            Phase::FinalIntegrate => {
                physics::integrate_final(team, &ctx, &self.integrator, lanes, states);
            }
            Phase::Accounting => self.accounting_phase(&ctx),
        }
        self.raise_lane_failures(format_args!("{phase:?}"));
    }

    /// Advance one timestep: `InitialIntegrate` and the reneighbor
    /// check, then — the verdict shapes it — the [`step_plan`] in order,
    /// overlapping halo ops with interior compute where
    /// `Cluster::overlap_eligible` allows. Physics is bit-identical
    /// between the plan's two shapes. If any engine exhausted its put retry
    /// budget during the step, the whole cluster demotes to the MPI
    /// 3-stage reference before the next step.
    pub fn run_step(&mut self) {
        self.step += 1;
        self.at_rebuild_boundary = false;
        self.run_phase(Phase::InitialIntegrate);
        let verdict = self.reneighbor_check();
        self.raise_lane_failures(format_args!("reneighbor check"));
        // A rebuild step creates its own partition; a forward step can
        // only split rows if an overlapped rebuild already classified
        // them for the current list epoch (one-pass rebuilds invalidate
        // it).
        let partitioned = verdict.rebuild || self.lanes.iter().all(|l| l.part.is_some());
        let (eam, reverse) = (self.cfg.is_eam(), self.potential.needs_reverse());
        let overlap = self.overlap_eligible() && partitioned;
        for phase in step_plan(verdict, eam, reverse, overlap) {
            if self.pending_peer_death.is_some() {
                break;
            }
            self.run_phase(phase);
        }
        // A peer died mid-step: abandon the partial step and roll every
        // survivor back to the last checkpoint on a shrunken star forest.
        if let Some(dead) = self.pending_peer_death.take() {
            self.recover_from_rank_death(dead);
            return;
        }
        self.steps_run += 1;
        if !self.demoted && self.lanes.iter().any(|l| l.engine.fallback_requested()) {
            self.demote_to_ref();
        }
        if verdict.rebuild {
            self.at_rebuild_boundary = true;
            if self.checkpoint_every > 0 && self.step >= self.next_checkpoint {
                self.auto_checkpoint();
            }
        }
    }

    /// Graceful degradation: replace every lane's engine with the MPI
    /// 3-stage reference (the counters stay on the rank's state). The
    /// demotion is *collective* — the lockstep ops require all ranks to
    /// speak the same protocol — and forces a reneighbor pass next step so
    /// the fresh engines build their ghost lists before any forward
    /// exchange.
    fn demote_to_ref(&mut self) {
        self.variant = CommVariant::Ref;
        self.fresh_engines();
        self.demoted = true;
        self.force_rebuild = true;
    }

    /// Advance `n` timesteps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.run_step();
        }
    }
}

/// The lanes an op skips ([`Cluster::open`]).
struct Dead(Vec<u32>);

impl Dead {
    fn has(&self, rank: usize) -> bool {
        self.0.contains(&(rank as u32))
    }

    /// One lane's engine call in a fan-out: none on a dead rank; on a live
    /// one `call`, its error parked in `lane.failed` for
    /// [`Cluster::raise_lane_failures`]. False only when the call failed.
    fn call(
        &self,
        rank: usize,
        lane: &mut Lane,
        st: &mut RankState,
        call: impl FnOnce(&mut Lane, &mut RankState) -> Result<(), TofuError>,
    ) -> bool {
        if self.has(rank) {
            return true;
        }
        if let Err(e) = call(lane, st) {
            lane.failed = Some(e);
            return false;
        }
        true
    }
}

/// Stand-in engine: a lane's until [`Cluster::fresh_engines`] builds the
/// real one, and inside [`Cluster::wrap_engine`] while the real engine is
/// moved out. Never posts or completes.
struct PlaceholderEngine;

impl GhostEngine for PlaceholderEngine {
    fn rounds(&self, _op: Op) -> usize {
        0
    }
    fn post(
        &mut self,
        _op: Op,
        _round: usize,
        _st: &mut RankState,
    ) -> Result<(), tofumd_tofu::TofuError> {
        unreachable!("placeholder engine must never run");
    }
    fn complete(
        &mut self,
        _op: Op,
        _round: usize,
        _st: &mut RankState,
    ) -> Result<(), tofumd_tofu::TofuError> {
        unreachable!("placeholder engine must never run");
    }
}
