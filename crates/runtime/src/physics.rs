//! The per-rank compute kernels of a timestep — neighbor rebuilds, pair
//! passes (including the EAM two-pass pipeline) and NVE integration —
//! extracted from the `Cluster` monolith and fanned out over the
//! [`Team`].
//!
//! Every function here is a pure per-rank map: rank `r` touches only
//! `lanes[r]` / `states[r]` plus shared read-only context, so the team
//! can run them at any thread count with bit-identical results (the
//! virtual-time charges depend only on the rank's own workload).
//!
//! A scatter pass always runs whole, over all of a rank's rows
//! ([`pair_pass`] in the non-overlapping shape, [`Split::boundary`] in a
//! halo window — the same `run_pass`); a window splits only the pass's
//! *charge* around the rank's complete.

use crate::driver::{Lane, Partition, Pass, Team};
use tofumd_core::border_bin;
use tofumd_core::engine::{RankState, Stage};
use tofumd_md::integrate::NveIntegrator;
use tofumd_md::kernels::PairScratch;
use tofumd_md::neighbor::{sort_locals_by_bin, ListKind, NeighborList};
use tofumd_md::potential::Potential;
use tofumd_model::{RankWork, StageCosts, Threading};
use tofumd_threadpool::ChunkExec;
use tofumd_tofu::{NetParams, TofuError};

/// Record a phase-order violation (state consumed before it was built) on
/// the lane; the step driver raises it after the phase joins.
fn fail_missing_list(lane: &mut Lane, rank: usize, phase: &'static str) {
    fail_missing(lane, rank, phase, "neighbor list");
}

/// Like [`fail_missing_list`] for other prerequisite state.
fn fail_missing(lane: &mut Lane, rank: usize, phase: &'static str, missing: &'static str) {
    lane.failed = Some(TofuError::PhaseOrder {
        node: rank,
        phase,
        missing,
    });
}

/// Shared read-only context for the physics phases: the potential's
/// cutoff, the cost model and the threading mode the *virtual* machine
/// charges for (orthogonal to the host team's thread count).
pub struct Ctx {
    /// Stage cost model.
    pub costs: StageCosts,
    /// Fabric timing constants.
    pub params: NetParams,
    /// The virtual compute-threading mode of the variant under test.
    pub threading: Threading,
    /// Force cutoff of the potential.
    pub cutoff: f64,
    /// Verlet skin.
    pub skin: f64,
    /// Neighbor-list flavor the variant needs.
    pub list_kind: ListKind,
    /// EAM workload flag for the cost model.
    pub eam: bool,
}

impl Ctx {
    /// Neigh-stage time of a workload.
    fn neigh_time(&self, work: &RankWork) -> f64 {
        self.costs.neigh_time(work, self.threading, &self.params)
    }

    /// Pair-stage time of a workload.
    fn pair_time(&self, work: &RankWork) -> f64 {
        self.costs.pair_time(work, self.threading, &self.params)
    }
}

/// The cost-model workload of a rank's whole row set under `list`.
fn full_work(st: &RankState, list: &NeighborList, eam: bool) -> RankWork {
    RankWork {
        n_local: st.atoms.nlocal as f64,
        n_ghost: st.atoms.nghost() as f64,
        interactions: list.npairs() as f64,
        eam,
    }
}

/// The cost-model workload descriptor of one rank; `None` when the rank's
/// neighbor list has not been built yet (a phase-ordering bug the caller
/// reports through the lane's typed-error path).
#[must_use]
pub fn rank_work(lane: &Lane, st: &RankState, eam: bool) -> Option<RankWork> {
    Some(full_work(st, lane.list.as_ref()?, eam))
}

/// The rank's sub-box grown by its ghost cutoff: the region the neighbor
/// grid bins over.
fn ghost_box(st: &RankState) -> ([f64; 3], [f64; 3]) {
    let (sub, rg) = (st.graph.sub, st.graph.r_ghost);
    (sub.lo.map(|c| c - rg), sub.hi.map(|c| c + rg))
}

/// Sort every rank's local atoms into row-major bin order on the *same*
/// grid the list rebuild bins over, so the half-stencil fast path engages
/// on the next build. Runs between Exchange and Border: no ghosts exist,
/// and the Border phase rebuilds its send lists against the new order.
/// A host-side layout optimization only — no virtual time is charged.
pub fn spatial_sort(team: &Team, ctx: &Ctx, lanes: &mut [Lane], states: &mut [RankState]) {
    team.for_each(lanes, states, &|_, _lane, st| {
        let (lo, hi) = ghost_box(st);
        sort_locals_by_bin(&mut st.atoms, lo, hi, ctx.cutoff + ctx.skin);
    });
}

/// Rebuild every rank's Verlet list in place (chunk-parallel,
/// bit-identical to the serial build) and charge Neigh time.
pub fn rebuild_lists(team: &Team, ctx: &Ctx, lanes: &mut [Lane], states: &mut [RankState]) {
    team.for_each_chunk(lanes, states, &|_, lane, st, exec, _| {
        let ((lo, hi), kind) = (ghost_box(st), ctx.list_kind);
        let list = lane.list.get_or_insert_with(|| NeighborList::empty(kind));
        list.rebuild(&st.atoms, lo, hi, kind, ctx.cutoff + ctx.skin, None, exec);
        let dt = ctx.neigh_time(&full_work(st, list, ctx.eam));
        st.charge(dt, Stage::Neigh);
        // A one-pass rebuild starts a new list epoch without classifying
        // rows; any partition from an earlier epoch is now stale.
        lane.part = None;
        lane.interior_list = None;
    });
}

/// Run one scatter pass over all of the rank's rows: densities into
/// `st.scalar`, or forces into zeroed `st.atoms.f` (the force pass reads F'
/// from `st.scalar`) with the energy/virial into `lane.energy`. A missing
/// list or a potential of the other kind leaves a phase-order violation in
/// `lane.failed`.
fn run_pass(
    potential: &Potential,
    pass: Pass,
    r: usize,
    lane: &mut Lane,
    st: &mut RankState,
    exec: &ChunkExec<'_>,
    scratch: &mut PairScratch,
) {
    let Some(list) = lane.list.as_ref() else {
        fail_missing_list(lane, r, pass.name());
        return;
    };
    match (potential, pass) {
        (Potential::Pair(pot), Pass::Pair) => {
            st.atoms.zero_forces();
            lane.energy = pot.compute_chunked(&mut st.atoms, list, exec, scratch);
        }
        (Potential::ManyBody(pot), Pass::Rho) => {
            pot.compute_rho_chunked(&st.atoms, list, &mut st.scalar, exec, scratch);
        }
        (Potential::ManyBody(pot), Pass::Force) => {
            st.atoms.zero_forces();
            lane.energy = pot.compute_force_chunked(&mut st.atoms, list, &st.scalar, exec, scratch);
        }
        _ => fail_missing(lane, r, pass.name(), "potential of the pass's kind"),
    }
}

/// One scatter pass of the unsplit pair stage, on every rank.
pub fn pair_pass(
    team: &Team,
    potential: &Potential,
    pass: Pass,
    lanes: &mut [Lane],
    states: &mut [RankState],
) {
    team.for_each_chunk(lanes, states, &|r, lane, st, exec, scratch| {
        run_pass(potential, pass, r, lane, st, exec, scratch);
    });
}

/// EAM mid-stage: embedding energy + F' for locals; leaves F' in
/// `st.scalar` for the forward-scalar op.
pub fn eam_embed(team: &Team, potential: &Potential, lanes: &mut [Lane], states: &mut [RankState]) {
    team.for_each_chunk(lanes, states, &|r, lane, st, exec, _| {
        let Potential::ManyBody(pot) = potential else {
            fail_missing(lane, r, "eam_embed", "many-body potential");
            return;
        };
        lane.embed = pot.compute_embedding_chunked(&st.atoms, &st.scalar, &mut lane.fp_buf, exec);
        std::mem::swap(&mut st.scalar, &mut lane.fp_buf);
    });
}

/// Charge every rank's Pair-stage time from its actual workload.
pub fn charge_pair(team: &Team, ctx: &Ctx, lanes: &mut [Lane], states: &mut [RankState]) {
    team.for_each(lanes, states, &|r, lane, st| {
        let Some(work) = rank_work(lane, st, ctx.eam) else {
            fail_missing_list(lane, r, "charge_pair");
            return;
        };
        let dt = ctx.pair_time(&work);
        st.charge(dt, Stage::Pair);
    });
}

/// First velocity-Verlet half (cost charged once, in
/// [`integrate_final`]).
pub fn integrate_initial(
    team: &Team,
    integrator: &NveIntegrator,
    lanes: &mut [Lane],
    states: &mut [RankState],
) {
    team.for_each(lanes, states, &|_, _lane, st| {
        integrator.initial_integrate(&mut st.atoms);
    });
}

/// Second velocity-Verlet half + the Modify charge for both halves.
pub fn integrate_final(
    team: &Team,
    ctx: &Ctx,
    integrator: &NveIntegrator,
    lanes: &mut [Lane],
    states: &mut [RankState],
) {
    team.for_each(lanes, states, &|r, lane, st| {
        integrator.final_integrate(&mut st.atoms);
        let Some(work) = rank_work(lane, st, ctx.eam) else {
            fail_missing_list(lane, r, "integrate_final");
            return;
        };
        let dt = ctx.costs.modify_time(&work, ctx.threading, &ctx.params);
        st.charge(dt, Stage::Modify);
    });
}

/// Per-rank displacement check: set `lane.moved` when any atom drifted
/// beyond half the skin since the last rebuild.
pub fn check_displacements(team: &Team, skin: f64, lanes: &mut [Lane], states: &mut [RankState]) {
    team.for_each(lanes, states, &|r, lane, st| {
        let Some(list) = lane.list.as_ref() else {
            fail_missing_list(lane, r, "check_displacements");
            return;
        };
        lane.moved = list.any_moved_beyond_half_skin(&st.atoms, skin);
    });
}

/// Charge the per-step bookkeeping floor into Other.
pub fn charge_other_floor(team: &Team, ctx: &Ctx, lanes: &mut [Lane], states: &mut [RankState]) {
    let dt = ctx.costs.other_time();
    team.for_each(lanes, states, &|_, _lane, st| {
        st.charge(dt, Stage::Other);
    });
}

// ---------------------------------------------------------------------
// Halo windows: the per-rank steps either side of the rank's own complete.
// A window splits what the *model* needs split — the charge — and nothing
// else: the interior rows' share of Neigh/Pair is charged (and, in the
// Border window, those rows are classified and built) while the halo is in
// flight; after the complete the list is finished, the pass runs once over
// all rows, and the remainder is charged (DESIGN.md §12).
// ---------------------------------------------------------------------

/// Geometric classification radius: a hair beyond the list cutoff so
/// float jitter at the shell boundary can only *shrink* the interior —
/// a misclassified row would silently read stale ghosts.
fn classify_radius(ctx: &Ctx) -> f64 {
    (ctx.cutoff + ctx.skin) * (1.0 + 1e-9)
}

/// Cost-model workload of an interior row set (no ghosts by definition).
fn interior_work(n_rows: usize, pairs: usize, eam: bool) -> RankWork {
    RankWork {
        n_local: n_rows as f64,
        n_ghost: 0.0,
        interactions: pairs as f64,
        eam,
    }
}

/// Virtual time of one side of a split stage under the stage's cost
/// function `time`: the `interior` rows' own cost, or — given the `full`
/// workload — what the whole stage costs beyond it, so the two sides add
/// up to the one-pass charge.
fn split_time(
    time: impl Fn(&RankWork) -> f64,
    interior: &RankWork,
    full: Option<&RankWork>,
) -> f64 {
    let t_int = time(interior);
    match full {
        None => t_int,
        Some(work) => (time(work) - t_int).max(0.0),
    }
}

/// The interior workload of one window's pass: geometric when the window
/// opens before the ghost shell exists (the first pass of a rebuild step),
/// list-content otherwise (the list is fixed, only ghost values are in
/// flight).
fn split_sel(part: &Partition, pre_ghost: bool, eam: bool) -> RankWork {
    if pre_ghost {
        interior_work(part.n_geo, part.geo_pairs, eam)
    } else {
        interior_work(part.n_pair, part.pair_pairs, eam)
    }
}

impl Pass {
    /// Phase name of the pass in [`TofuError::PhaseOrder`] reports.
    fn name(self) -> &'static str {
        match self {
            Pass::Pair => "pair",
            Pass::Rho => "eam_rho",
            Pass::Force => "eam_force",
        }
    }

    /// Share of the Pair-stage time the pass carries: EAM's density and
    /// force passes halve it.
    fn pair_share(self) -> f64 {
        match self {
            Pass::Pair => 1.0,
            Pass::Rho | Pass::Force => 0.5,
        }
    }
}

/// The scatter pass of one halo window, as the two per-rank steps the
/// driver runs around the rank's own complete.
pub struct Split<'a> {
    /// Shared read-only context.
    pub ctx: &'a Ctx,
    /// The potential whose pass the window carries.
    pub potential: &'a Potential,
    /// The pass.
    pub pass: Pass,
    /// The Border window: it opens before the rank's ghost shell exists,
    /// so the interior step classifies rows geometrically and builds the
    /// interior-only list (the clock needs its pair count before the
    /// complete), and the boundary step first merges the boundary rows
    /// into the full list. Every other window reads the fixed list's
    /// content partition.
    pub pre_ghost: bool,
}

impl Split<'_> {
    /// One side's share of the pass's Pair time: the interior rows' own
    /// cost, or — given the `full` workload — what the whole pass costs
    /// beyond it. `None` leaves a phase-order violation in `lane.failed`.
    fn share(&self, r: usize, lane: &mut Lane, full: Option<&RankWork>) -> Option<f64> {
        let (ctx, pass) = (self.ctx, self.pass);
        let Some(part) = lane.part.as_ref() else {
            fail_missing(lane, r, pass.name(), "row partition");
            return None;
        };
        let inner = split_sel(part, self.pre_ghost, ctx.eam);
        Some(pass.pair_share() * split_time(|w| ctx.pair_time(w), &inner, full))
    }

    /// While the rank's halo is in flight: charge the interior rows' share
    /// of Pair (and, in the Border window, classify and build those rows
    /// and charge their share of Neigh). No row is evaluated — a row that
    /// holds no ghost index cannot observe the halo, so when it runs is a
    /// host matter, not a modeled one.
    pub fn interior(&self, r: usize, lane: &mut Lane, st: &mut RankState, exec: &ChunkExec<'_>) {
        if self.pre_ghost {
            build_interior_list(self.ctx, lane, st, exec);
        }
        if let Some(dt) = self.share(r, lane, None) {
            st.charge(dt, Stage::Pair);
        }
    }

    /// After the rank's halo landed: finish the list (Border window), run
    /// the pass once over all rows — the one-pass form itself — and charge
    /// the remainder of Pair (and of Neigh).
    pub fn boundary(
        &self,
        r: usize,
        lane: &mut Lane,
        st: &mut RankState,
        exec: &ChunkExec<'_>,
        scratch: &mut PairScratch,
    ) {
        if self.pre_ghost && !build_boundary_list(self.ctx, r, lane, st, exec) {
            return;
        }
        run_pass(self.potential, self.pass, r, lane, st, exec, scratch);
        // `None`: no list, which `run_pass` has reported.
        let Some(full) = rank_work(lane, st, self.ctx.eam) else {
            return;
        };
        if let Some(dt) = self.share(r, lane, Some(&full)) {
            st.charge(dt, Stage::Pair);
        }
    }
}

/// Classify the rank's rows geometrically and build its interior-only
/// Verlet list — before any ghost exists, while its Border halo is in
/// flight. Charges the interior share of Neigh.
fn build_interior_list(ctx: &Ctx, lane: &mut Lane, st: &mut RankState, exec: &ChunkExec<'_>) {
    let (lo, hi) = ghost_box(st);
    // The last epoch's flags are rewritten in place.
    let mut geo = lane.part.take().map(|p| p.geo).unwrap_or_default();
    let (x, nlocal, sub) = (&st.atoms.x, st.atoms.nlocal, &st.graph.sub);
    border_bin::interior_flags(x, nlocal, sub, classify_radius(ctx), &mut geo);
    let (kind, cutoff_list) = (ctx.list_kind, ctx.cutoff + ctx.skin);
    let mut list = lane
        .list
        .take()
        .unwrap_or_else(|| NeighborList::empty(kind));
    list.rebuild(&st.atoms, lo, hi, kind, cutoff_list, Some(&geo), exec);
    let n_geo = geo.iter().filter(|&&b| b).count();
    let geo_pairs = list.npairs();
    let interior = interior_work(n_geo, geo_pairs, ctx.eam);
    let dt = split_time(|w| ctx.neigh_time(w), &interior, None);
    st.charge(dt, Stage::Neigh);
    lane.interior_list = Some(list);
    lane.part = Some(Partition {
        geo,
        n_geo,
        geo_pairs,
        ..Partition::default()
    });
}

/// Write the rank's boundary rows, built against its arrived ghost shell,
/// beside the interior rows (bit-identical to the one-pass build) and read
/// the list-content partition the rows recorded, for forward-step splits.
/// Charges the remainder of the full rebuild's Neigh time. `false`
/// (with the violation in `lane.failed`) when the interior half never ran.
fn build_boundary_list(
    ctx: &Ctx,
    r: usize,
    lane: &mut Lane,
    st: &mut RankState,
    exec: &ChunkExec<'_>,
) -> bool {
    let Some(mut list) = lane.interior_list.take() else {
        fail_missing(lane, r, "boundary_build", "interior list");
        return false;
    };
    let Some(part) = lane.part.as_mut() else {
        fail_missing(lane, r, "boundary_build", "row partition");
        return false;
    };
    let (lo, hi) = ghost_box(st);
    list.rebuild_boundary(&st.atoms, lo, hi, &part.geo, exec);
    (part.n_pair, part.pair_pairs) = list.local_only_totals();
    let interior = interior_work(part.n_geo, part.geo_pairs, ctx.eam);
    let work = full_work(st, &list, ctx.eam);
    let dt = split_time(|w| ctx.neigh_time(w), &interior, Some(&work));
    st.charge(dt, Stage::Neigh);
    lane.list = Some(list);
    true
}
