//! The per-rank compute kernels of a timestep — neighbor rebuilds, pair
//! passes (including the EAM two-pass pipeline) and NVE integration —
//! extracted from the `Cluster` monolith and fanned out over the
//! [`Team`](crate::driver::Team).
//!
//! Every function here is a pure per-rank map: rank `r` touches only
//! `lanes[r]` / `states[r]` plus shared read-only context, so the team
//! can run them at any thread count with bit-identical results (the
//! virtual-time charges depend only on the rank's own workload).

use crate::driver::{Lane, Partition, Pass, Team};
use tofumd_core::border_bin;
use tofumd_core::engine::RankState;
use tofumd_md::integrate::NveIntegrator;
use tofumd_md::kernels::{self, PairScratch, Rows};
use tofumd_md::neighbor::{sort_locals_by_bin, ListKind, NeighborList};
use tofumd_md::potential::{replay_pass, Potential};
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

/// Rebuild every rank's Verlet list (chunk-parallel, bit-identical to the
/// serial build) and charge Neigh time.
pub fn rebuild_lists(team: &Team, ctx: &Ctx, lanes: &mut [Lane], states: &mut [RankState]) {
    team.for_each_chunk(lanes, states, &|_, lane, st, exec, _| {
        let (lo, hi) = ghost_box(st);
        let list = NeighborList::build_chunked(
            &st.atoms,
            lo,
            hi,
            ctx.list_kind,
            ctx.cutoff,
            ctx.skin,
            exec,
        );
        let dt = ctx.neigh_time(&full_work(st, &list, ctx.eam));
        st.clock += dt;
        lane.acc.neigh += dt;
        lane.list = Some(list);
        // A one-pass rebuild starts a new list epoch without classifying
        // rows; any partition from an earlier epoch is now stale.
        lane.part = None;
        lane.interior_list = None;
    });
}

/// Single-pass pair potential: zero forces, compute, store energy/virial.
pub fn pair_single(
    team: &Team,
    potential: &Potential,
    lanes: &mut [Lane],
    states: &mut [RankState],
) {
    team.for_each_chunk(lanes, states, &|r, lane, st, exec, scratch| {
        st.atoms.zero_forces();
        let Potential::Pair(pot) = potential else {
            fail_missing(lane, r, "pair", "single-pass potential");
            return;
        };
        let Some(list) = lane.list.as_ref() else {
            fail_missing_list(lane, r, "pair");
            return;
        };
        lane.energy = pot.compute_chunked(&mut st.atoms, list, exec, scratch);
        lane.embed = 0.0;
    });
}

/// EAM pass 1: electron densities into `st.scalar` (ghost contributions
/// are reverse-folded by the scalar op the caller runs next).
pub fn eam_rho(team: &Team, potential: &Potential, lanes: &mut [Lane], states: &mut [RankState]) {
    team.for_each_chunk(lanes, states, &|r, lane, st, exec, scratch| {
        st.atoms.zero_forces();
        let Potential::ManyBody(pot) = potential else {
            fail_missing(lane, r, "eam_rho", "many-body potential");
            return;
        };
        let Some(list) = lane.list.as_ref() else {
            fail_missing_list(lane, r, "eam_rho");
            return;
        };
        pot.compute_rho_chunked(&st.atoms, list, &mut st.scalar, exec, scratch);
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

/// EAM pass 2: forces from the exchanged F' values.
pub fn eam_force(team: &Team, potential: &Potential, lanes: &mut [Lane], states: &mut [RankState]) {
    team.for_each_chunk(lanes, states, &|r, lane, st, exec, scratch| {
        let Potential::ManyBody(pot) = potential else {
            fail_missing(lane, r, "eam_force", "many-body potential");
            return;
        };
        let Some(list) = lane.list.as_ref() else {
            fail_missing_list(lane, r, "eam_force");
            return;
        };
        lane.energy = pot.compute_force_chunked(&mut st.atoms, list, &st.scalar, exec, scratch);
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
        st.clock += dt;
        lane.acc.pair += dt;
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
        st.clock += dt;
        lane.acc.modify += dt;
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
    team.for_each(lanes, states, &|_, lane, st| {
        st.clock += dt;
        lane.acc.other += dt;
    });
}

// ---------------------------------------------------------------------
// Split (overlap) passes: the per-rank steps of a halo window. A rank's
// interior half runs while its halo is in flight, its boundary half after
// its own complete, and the boundary half replays both sides in exact
// serial row order (DESIGN.md §12).
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

/// The interior flag set of one split pass and its workload: geometric
/// when the pass starts before the ghost shell exists (the first pass of a
/// rebuild step), list-content otherwise (the list is fixed, only ghost
/// values are in flight).
fn split_sel(part: &Partition, pre_ghost: bool, eam: bool) -> (&[bool], RankWork) {
    if pre_ghost {
        (&part.geo, interior_work(part.n_geo, part.geo_pairs, eam))
    } else {
        (&part.pair, interior_work(part.n_pair, part.pair_pairs, eam))
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

/// Log the rows `rows` covers of `pass` through the potential's row
/// kernel (the force pass reads F' from `st.scalar`). `Err` names what the
/// potential lacks for the pass.
fn log_rows(
    potential: &Potential,
    pass: Pass,
    st: &RankState,
    list: &NeighborList,
    rows: Rows<'_>,
    exec: &ChunkExec<'_>,
    scratch: &mut PairScratch,
) -> Result<(), &'static str> {
    const NO_KERNEL: &str = "row kernel";
    match (potential, pass) {
        (Potential::Pair(pot), Pass::Pair) => {
            let kernel = pot.row_kernel().ok_or(NO_KERNEL)?;
            kernel.log_rows(&st.atoms, list, rows, exec, scratch);
        }
        (Potential::ManyBody(pot), Pass::Rho) => {
            let kernel = pot.row_kernel().ok_or(NO_KERNEL)?;
            kernel.log_rho_rows(&st.atoms, list, rows, exec, scratch);
        }
        (Potential::ManyBody(pot), Pass::Force) => {
            let kernel = pot.row_kernel().ok_or(NO_KERNEL)?;
            kernel.log_force_rows(&st.atoms, list, &st.scalar, rows, exec, scratch);
        }
        _ => return Err("potential of the pass's kind"),
    }
    Ok(())
}

/// The scatter pass split across one halo window, as the two per-rank
/// steps the driver runs around the rank's own complete.
pub struct Split<'a> {
    /// Shared read-only context.
    pub ctx: &'a Ctx,
    /// The potential whose row kernel logs the pass.
    pub potential: &'a Potential,
    /// The pass being split.
    pub pass: Pass,
    /// The Border window: it opens before the rank's ghost shell exists,
    /// so the interior half classifies rows geometrically and builds and
    /// logs the interior-only list, and the boundary half first merges the
    /// boundary rows into the full list. Every other window splits the
    /// fixed list by content.
    pub pre_ghost: bool,
}

impl Split<'_> {
    /// Log one side of the pass into `scratch` (the force pass reads F'
    /// from `st.scalar`) and return the side's share of the pass's Pair
    /// time: the interior rows' own cost, or what the whole pass costs
    /// beyond it. `None` leaves a phase-order violation in `lane.failed`.
    fn log_side(
        &self,
        r: usize,
        lane: &mut Lane,
        st: &RankState,
        interior: bool,
        exec: &ChunkExec<'_>,
        scratch: &mut PairScratch,
    ) -> Option<f64> {
        let (ctx, pass) = (self.ctx, self.pass);
        let Some(part) = lane.part.as_ref() else {
            fail_missing(lane, r, pass.name(), "row partition");
            return None;
        };
        let (flags, inner) = split_sel(part, self.pre_ghost, ctx.eam);
        let list = if interior && self.pre_ghost {
            lane.interior_list.as_ref()
        } else {
            lane.list.as_ref()
        };
        let Some(list) = list else {
            fail_missing_list(lane, r, pass.name());
            return None;
        };
        let rows = Rows::Side { flags, interior };
        if let Err(missing) = log_rows(self.potential, pass, st, list, rows, exec, scratch) {
            fail_missing(lane, r, pass.name(), missing);
            return None;
        }
        let full = (!interior).then(|| full_work(st, list, ctx.eam));
        Some(pass.pair_share() * split_time(|w| ctx.pair_time(w), &inner, full.as_ref()))
    }

    /// Interior half, while the rank's halo is in flight: log the interior
    /// rows of the pass — no output array is touched — and charge their
    /// share of Pair (and, in the Border window, of Neigh).
    pub fn interior(
        &self,
        r: usize,
        lane: &mut Lane,
        st: &mut RankState,
        exec: &ChunkExec<'_>,
        scratch: &mut PairScratch,
    ) {
        if self.pre_ghost {
            build_interior_list(self.ctx, lane, st, exec);
        }
        scratch.prepare(st.atoms.nlocal, st.atoms.ntotal());
        if let Some(dt) = self.log_side(r, lane, st, true, exec, scratch) {
            st.clock += dt;
            lane.acc.pair += dt;
        }
    }

    /// Boundary half, after the rank's halo landed: log the boundary rows
    /// against it, then replay both sides in exact serial row order —
    /// densities into a zeroed `st.scalar`, forces into zeroed forces with
    /// the energy/virial fold — bit-identical to the one-pass forms.
    /// Charges the remainder of Pair (and, in the Border window, of Neigh).
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
        let Some(dt) = self.log_side(r, lane, st, false, exec, scratch) else {
            return;
        };
        if self.pass == Pass::Rho {
            st.scalar.clear();
            st.scalar.resize(st.atoms.ntotal(), 0.0);
            kernels::replay_scalars(scratch, &mut st.scalar, exec);
        } else {
            st.atoms.zero_forces();
            lane.energy = replay_pass(scratch, &mut st.atoms.f, exec);
        }
        st.clock += dt;
        lane.acc.pair += dt;
    }
}

/// Classify the rank's rows geometrically and build its interior-only
/// Verlet list — before any ghost exists, while its Border halo is in
/// flight. Charges the interior share of Neigh.
fn build_interior_list(ctx: &Ctx, lane: &mut Lane, st: &mut RankState, exec: &ChunkExec<'_>) {
    let (lo, hi) = ghost_box(st);
    let geo = border_bin::interior_flags(
        &st.atoms.x,
        st.atoms.nlocal,
        &st.graph.sub,
        classify_radius(ctx),
    );
    let ilist = NeighborList::build_interior(
        &st.atoms,
        lo,
        hi,
        ctx.list_kind,
        ctx.cutoff,
        ctx.skin,
        &geo,
        exec,
    );
    let n_geo = geo.iter().filter(|&&b| b).count();
    let geo_pairs = ilist.npairs();
    let interior = interior_work(n_geo, geo_pairs, ctx.eam);
    let dt = split_time(|w| ctx.neigh_time(w), &interior, None);
    st.clock += dt;
    lane.acc.neigh += dt;
    lane.interior_list = Some(ilist);
    lane.part = Some(Partition {
        geo,
        n_geo,
        geo_pairs,
        ..Partition::default()
    });
}

/// Build the rank's boundary rows against its arrived ghost shell, merge
/// with the interior list into the full list (bit-identical to the
/// one-pass build) and derive the list-content partition for forward-step
/// splits. Charges the remainder of the full rebuild's Neigh time. `false`
/// (with the violation in `lane.failed`) when the interior half never ran.
fn build_boundary_list(
    ctx: &Ctx,
    r: usize,
    lane: &mut Lane,
    st: &mut RankState,
    exec: &ChunkExec<'_>,
) -> bool {
    let Some(ilist) = lane.interior_list.take() else {
        fail_missing(lane, r, "boundary_build", "interior list");
        return false;
    };
    let Some(part) = lane.part.as_mut() else {
        fail_missing(lane, r, "boundary_build", "row partition");
        return false;
    };
    let (lo, hi) = ghost_box(st);
    let full = NeighborList::build_boundary(&st.atoms, lo, hi, &ilist, &part.geo, exec);
    part.pair = full.local_only_rows();
    part.n_pair = part.pair.iter().filter(|&&b| b).count();
    part.pair_pairs = full.pairs_in(&part.pair, true);
    let interior = interior_work(part.n_geo, part.geo_pairs, ctx.eam);
    let work = full_work(st, &full, ctx.eam);
    let dt = split_time(|w| ctx.neigh_time(w), &interior, Some(&work));
    st.clock += dt;
    lane.acc.neigh += dt;
    lane.list = Some(full);
    true
}
