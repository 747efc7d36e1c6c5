//! Seating a decomposition on a [`Cluster`]. Child module of
//! [`crate::cluster`] so it can fill the façade's private fields.
//!
//! Every path that puts atoms on ranks is a short sequence of steps, each
//! written once here: *generate* (lattice, density ramp, owners,
//! velocities), *assemble* (fabric, graphs, lanes and engines from
//! per-rank atoms), *re-cut* (positions wrapped the way Exchange routes
//! them, an RCB over the live ranks), *install* (new graphs, engines
//! rebound or rebuilt, lane caches dropped) and *settle* (Border → lists
//! → Pair → Reverse). Build is generate → assemble → sort → settle;
//! restore is decode → assemble → settle; shrinking recovery is re-cut →
//! install → settle; a rebalance is re-cut → install → migrate; a
//! demotion rebuilds the engines only.

use super::{Cluster, PlaceholderEngine};
use crate::config::{Decomp, RunConfig};
use crate::driver::{Lane, Phase, PlanMode, Team};
use crate::variant::CommVariant;
use std::sync::Arc;
use tofumd_core::engine::{wrap_for_exchange, GhostEngine, Op, RankState};
use tofumd_core::topo_map::{Placement, RankMap};
use tofumd_core::{AddressBook, CommGraph, MpiEngine, PlanConfig, UtofuEngine};
use tofumd_md::atom::Atoms;
use tofumd_md::domain::RcbDecomposition;
use tofumd_md::integrate::NveIntegrator;
use tofumd_md::region::Box3;
use tofumd_md::velocity;
use tofumd_model::StageCosts;
use tofumd_mpi::Communicator;
use tofumd_tofu::{CellGrid, FaultPlan, NetParams, TofuError, TofuNet};

/// The one engine factory: `variant`'s row of the pattern × transport
/// table ([`CommVariant::row`]) built for the rank that owns `graph`; a
/// row that cannot walk it is the typed error, under the variant's label.
pub(super) fn try_engine(
    variant: CommVariant,
    graph: &CommGraph,
    mpi: &Arc<Communicator>,
    book: &Arc<AddressBook>,
    map: &RankMap,
    density: f64,
) -> Result<Box<dyn GhostEngine>, TofuError> {
    let (kind, utofu) = variant.row();
    let built: Result<Box<dyn GhostEngine>, _> = match utofu {
        None => MpiEngine::new(mpi.clone(), kind, graph).map(|e| Box::new(e) as _),
        Some(cfg) => {
            let (net, node) = (mpi.net().clone(), map.node_of(graph.me));
            UtofuEngine::new(net, book.clone(), kind, graph, node, density, cfg)
                .map(|e| Box::new(e) as _)
        }
    };
    built.map_err(|e| e.for_engine(variant.label()))
}

/// Atoms dealt to ranks — in on-rank order — and the decomposition that
/// dealt them: an RCB cut (`None` on the grid) whose part p sits on the
/// p-th rank `dead` spares. What generate or a checkpoint hands
/// [`Cluster::assemble`].
pub(super) struct Deal {
    pub(super) atoms: Vec<Atoms>,
    pub(super) rcb: Option<Arc<RcbDecomposition>>,
    pub(super) dead: Option<u32>,
}

/// Lattice cells per axis, proportioned to the rank grid so each rank's
/// sub-box is (near-)cubic — the paper's Table 1 analysis and Fig. 1
/// assume cubic sub-boxes — and sized for `cfg.natoms_target` atoms, with
/// the global box they span. Build lays its lattice in exactly these
/// cells; restore takes the box alone.
fn lattice(cfg: &RunConfig, map: &RankMap) -> ([usize; 3], Box3) {
    let rg = map.rank_grid;
    let nranks_f = f64::from(rg[0]) * f64::from(rg[1]) * f64::from(rg[2]);
    let apc = cfg.atoms_per_cell() as f64;
    let cells_per_rank = (cfg.natoms_target as f64 / (apc * nranks_f)).cbrt();
    let cells = rg.map(|r| ((cells_per_rank * f64::from(r)).ceil() as usize).max(1));
    let a = cfg.lattice().cell;
    (cells, Box3::from_lengths(cells.map(|n| a * n as f64)))
}

/// Generate: the lattice of [`lattice`], thinned along +x by the density
/// ramp, dealt to its owners — the grid's bricks, or an RCB over the kept
/// positions — with velocities drawn per rank, then drift-corrected and
/// scaled with globally reduced sums so they match a serial run.
fn generate(cfg: &RunConfig, map: &RankMap) -> Deal {
    let nranks = map.nranks();
    let (cells, global) = lattice(cfg, map);
    let (built, pos) = cfg.build_lattice(cells[0], cells[1], cells[2]);
    // Restore seats `lattice`'s box with no positions: the two must agree.
    debug_assert_eq!(built, global, "lattice box and cell box disagree");
    // The ramp thins by a per-tag hash, so the surviving set is identical
    // under any decomposition.
    let glx = global.lengths()[0];
    let kept: Vec<([f64; 3], u64)> = pos
        .iter()
        .enumerate()
        .map(|(i, p)| (*p, i as u64 + 1))
        .filter(|(p, tag)| cfg.comm.keeps_atom(*tag, (p[0] - global.lo[0]) / glx))
        .collect();
    // RCB's irregular graph rides the MPI p2p engine; the engine factory
    // rejects every other variant on it.
    let rcb = match cfg.comm.decomp {
        Decomp::Grid => None,
        Decomp::Rcb => {
            let xs: Vec<[f64; 3]> = kept.iter().map(|(x, _)| *x).collect();
            Some(Arc::new(RcbDecomposition::build(nranks, &xs, &global)))
        }
    };
    let mut atoms: Vec<Atoms> = (0..nranks).map(|_| Atoms::default()).collect();
    for (p, tag) in &kept {
        let owner = match &rcb {
            Some(r) => r.owner_of(p),
            None => owner_of(&global, map, p),
        };
        atoms[owner].push_local(*p, [0.0; 3], cfg.type_of_tag(*tag), *tag);
    }
    // Zero total momentum and scale to the target temperature with
    // globally reduced sums, so the result matches a serial run.
    let (mass, units) = (cfg.mass(), cfg.units());
    for a in &mut atoms {
        velocity::create_velocities(a, mass, cfg.temperature, units, cfg.seed);
    }
    let vs = || atoms.iter().flat_map(|a| &a.v[..a.nlocal]);
    let natoms_global = vs().count();
    let mut vcm = [0.0f64; 3];
    for v in vs() {
        for d in 0..3 {
            vcm[d] += v[d];
        }
    }
    let vcm = vcm.map(|s| s / natoms_global as f64);
    let ke_after = vs().fold(0.0, |ke, v| {
        let s = (0..3).fold(0.0, |s, d| s + (v[d] - vcm[d]) * (v[d] - vcm[d]));
        ke + 0.5 * units.mvv2e() * mass * s
    });
    for a in &mut atoms {
        velocity::apply_drift_and_scale(a, vcm, ke_after, natoms_global, cfg.temperature, units);
    }
    Deal {
        atoms,
        rcb,
        dead: None,
    }
}

impl Cluster {
    /// Build = generate → assemble → sort → settle, with the clocks zeroed
    /// after the setup.
    pub(super) fn build(
        proxy_mesh: [u32; 3],
        target_mesh: [u32; 3],
        cfg: RunConfig,
        variant: CommVariant,
        fault_plan: Option<FaultPlan>,
    ) -> Self {
        let grid = CellGrid::from_node_mesh(proxy_mesh)
            .unwrap_or_else(|| panic!("node mesh {proxy_mesh:?} does not fold onto TofuD cells"));
        let deal = generate(&cfg, &RankMap::new(grid, Placement::TopoAware));
        let mut c = Self::assemble(grid, target_mesh, cfg, variant, fault_plan, deal);
        // Sort locals into bin order while no ghosts exist yet.
        c.run_phase(Phase::SpatialSort);
        c.settle();
        c.reset_timers();
        c.built_reg_calls = c.registration_calls();
        c
    }

    /// Assemble: the fabric — with `fault_plan` live before the first
    /// engine registers, so registration / CQ faults hit the build too —
    /// the box of [`lattice`], every rank's graph and a lane with a fresh
    /// engine, from the atoms of `deal`. No phase runs.
    pub(super) fn assemble(
        grid: CellGrid,
        target_mesh: [u32; 3],
        cfg: RunConfig,
        variant: CommVariant,
        fault_plan: Option<FaultPlan>,
        deal: Deal,
    ) -> Self {
        let map = RankMap::new(grid, Placement::TopoAware);
        let nranks = map.nranks();
        let net = Arc::new(TofuNet::new(grid, NetParams::default()));
        if let Some(plan) = fault_plan {
            net.set_fault_plan(plan);
        }
        let mut c = Cluster {
            cfg,
            variant,
            global: lattice(&cfg, &map).1,
            team: Team::new(1, &map),
            map,
            mpi: Arc::new(Communicator::new(net.clone(), nranks, 4)),
            net,
            book: AddressBook::new(),
            potential: Arc::new(cfg.build_potential()),
            integrator: NveIntegrator::new(cfg.timestep(), cfg.mass(), cfg.units()),
            states: Vec::new(),
            lanes: (0..nranks)
                .map(|_| Lane::new(Box::new(PlaceholderEngine)))
                .collect(),
            costs: StageCosts::default(),
            step: 0,
            rebuild_count: 0,
            steps_run: 0,
            rebuild: false,
            reverse_needed: cfg.needs_reverse(),
            thermo_every: 0,
            thermo_log: Vec::new(),
            target_mesh,
            target_ranks: 4 * target_mesh.iter().map(|&d| d as usize).product::<usize>(),
            op_observer: None,
            built_reg_calls: 0,
            demoted: false,
            force_rebuild: false,
            rebalance_now: false,
            rebalance_count: 0,
            plan_mode: PlanMode::default(),
            proxy_mesh: grid.node_mesh(),
            checkpoint_every: 0,
            next_checkpoint: 0,
            checkpoint_path: None,
            last_checkpoint: None,
            pending_peer_death: None,
            dead: deal.dead,
            recovery: crate::trace::RecoveryStats::default(),
            at_rebuild_boundary: false,
        };
        let graphs = c.graphs(deal.rcb.as_ref());
        let states = deal.atoms.into_iter().zip(graphs);
        c.states = states.map(|(a, g)| RankState::new(a, g)).collect();
        c.fresh_engines();
        c
    }

    /// The ranks still alive, in rank order: part p of an RCB cut sits on
    /// the p-th of them.
    pub(super) fn survivors(&self) -> Vec<usize> {
        let dead = self.dead.map(|d| d as usize);
        (0..self.map.nranks())
            .filter(|&r| Some(r) != dead)
            .collect()
    }

    /// Every rank's graph: part p of `rcb` on the p-th live rank — the one
    /// place an RCB star forest is built — or else the grid's brick, where
    /// a dead rank sits too (no phase reads its graph).
    pub(super) fn graphs(&self, rcb: Option<&Arc<RcbDecomposition>>) -> Vec<CommGraph> {
        let (map, global, r_ghost) = (&self.map, &self.global, self.cfg.ghost_cutoff());
        let gl = global.lengths();
        let min_edge = (0..3)
            .map(|d| gl[d] / f64::from(map.rank_grid[d]))
            .fold(f64::INFINITY, f64::min);
        let auto_shells = ((r_ghost / min_edge).ceil() as usize).max(1);
        // A requested halo depth may widen the exchange (62/124-neighbor
        // scenarios) but never narrow it below the cutoff-derived floor.
        let shells = self
            .cfg
            .comm
            .shells
            .map_or(auto_shells, |s| s.max(auto_shells));
        let half = self.cfg.newton_half();
        let live = self.survivors();
        let forest = rcb.map(|rcb| CommGraph::from_rcb_parts(rcb, map, r_ghost, &live));
        let mut parts = forest.unwrap_or_default().into_iter();
        let graph = |rank| {
            let part = live.binary_search(&rank).ok().and_then(|_| parts.next());
            part.unwrap_or_else(|| {
                CommGraph::grid(rank, map, global, r_ghost, PlanConfig { shells, half })
            })
        };
        (0..map.nranks()).map(graph).collect()
    }

    /// A fresh engine of the variant in force on every lane, over its
    /// rank's graph — the one place engines are built, and the single
    /// place a mismatched variant × decomposition stops a run.
    pub(super) fn fresh_engines(&mut self) {
        let density = self.cfg.density();
        for (lane, st) in self.lanes.iter_mut().zip(&self.states) {
            let built = try_engine(
                self.variant,
                &st.graph,
                &self.mpi,
                &self.book,
                &self.map,
                density,
            );
            lane.engine = built.unwrap_or_else(|e| panic!("{e}"));
        }
    }

    /// Re-cut: every owned position of `ranks` wrapped exactly the way
    /// Exchange routes a migrant, in rank order (deterministic input), and
    /// an RCB cut of them over the live ranks. `what` names the caller in
    /// the panic a degenerate cut raises.
    pub(super) fn recut<'a>(
        &self,
        ranks: impl Iterator<Item = &'a Atoms>,
        what: &str,
    ) -> (Vec<Vec<[f64; 3]>>, Arc<RcbDecomposition>) {
        let global = self.global;
        let wrapped: Vec<Vec<[f64; 3]>> = ranks
            .map(|a| {
                a.x[..a.nlocal]
                    .iter()
                    .map(|&x| wrap_for_exchange(&global, x))
                    .collect()
            })
            .collect();
        let all: Vec<[f64; 3]> = wrapped.iter().flatten().copied().collect();
        match RcbDecomposition::try_build(self.survivors().len(), &all, &global) {
            Ok(r) => (wrapped, Arc::new(r)),
            Err(e) => panic!("{what} at step {}: {e}", self.step),
        }
    }

    /// Install: `graphs` on every rank, its ghosts dropped; then each
    /// lane's engine rebound to its rank's new graph — or, when `fresh`,
    /// rebuilt for the variant in force — and its graph-keyed caches
    /// dropped. A barrier point: every rank swaps before any communicates.
    pub(super) fn install(&mut self, graphs: Vec<CommGraph>, fresh: bool) {
        for (st, graph) in self.states.iter_mut().zip(graphs) {
            st.atoms.clear_ghosts();
            st.graph = graph;
        }
        if fresh {
            self.fresh_engines();
        }
        for (lane, st) in self.lanes.iter_mut().zip(&self.states) {
            if !fresh {
                lane.engine.rebind_graph(st);
            }
            lane.part = None;
            lane.interior_list = None;
        }
    }

    /// Settle: ghosts, lists, forces and — when Newton's third law folds
    /// them back — the reverse exchange, from the positions in place. At a
    /// reneighbor boundary these are pure functions of the positions, so
    /// the state after a settle is a valid checkpoint boundary.
    pub(super) fn settle(&mut self) {
        self.run_op(Op::Border);
        self.run_phase(Phase::RebuildLists);
        self.run_phase(Phase::Pair);
        if self.reverse_needed {
            self.run_op(Op::Reverse);
        }
        self.at_rebuild_boundary = true;
    }
}

/// Which rank's sub-box contains the (wrapped) position.
fn owner_of(global: &Box3, map: &RankMap, x: &[f64; 3]) -> usize {
    let (l, rg) = (global.lengths(), map.rank_grid);
    let mut c = [0i64; 3];
    for d in 0..3 {
        let frac = (x[d] - global.lo[d]) / l[d];
        let idx = (frac * f64::from(rg[d])).floor() as i64;
        c[d] = idx.clamp(0, i64::from(rg[d]) - 1);
    }
    map.rank_at(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommTuning;

    #[test]
    fn a_variant_that_cannot_walk_the_graph_is_a_typed_error() {
        let grid = CellGrid::new([1, 1, 1]);
        let map = RankMap::new(grid, Placement::TopoAware);
        let net = Arc::new(TofuNet::new(grid, NetParams::default()));
        let mpi = Arc::new(Communicator::new(net, map.nranks(), 4));
        let global = Box3::from_lengths([20.0, 16.0, 12.0]);
        let pts: Vec<[f64; 3]> = (0..200u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let u = |s: u32| ((h >> s) & 0xffff) as f64 / 65536.0;
                [u(0) * 20.0, u(16) * 16.0, u(32) * 12.0]
            })
            .collect();
        let rcb = Arc::new(RcbDecomposition::build(4, &pts, &global));
        let graph = CommGraph::from_rcb(0, &rcb, &map, 2.5);
        let book = AddressBook::new();
        let build = |variant| try_engine(variant, &graph, &mpi, &book, &map, 0.8);
        for variant in [CommVariant::Ref, CommVariant::Utofu3Stage, CommVariant::Opt] {
            let err = build(variant).err();
            let want = TofuError::UnsupportedGraph {
                engine: variant.label(),
                graph: "rcb",
            };
            assert_eq!(err, Some(want), "{variant:?}");
        }
        let text = build(CommVariant::Opt).err().map(|e| e.to_string());
        assert_eq!(
            text.as_deref(),
            Some(
                "engine parallel-p2p does not support rcb graphs: the staged sweeps and \
                 the uTofu buffer tables need the uniform grid"
            )
        );
        // The one row that walks it migrates owner-directed in one round.
        let engine = build(CommVariant::MpiP2p).unwrap();
        assert_eq!(engine.rounds(Op::Exchange), 1);
    }

    #[test]
    #[should_panic(expected = "engine ref does not support rcb graphs")]
    fn a_mismatched_cluster_stops_at_the_factory() {
        let cfg = RunConfig {
            comm: CommTuning {
                decomp: Decomp::Rcb,
                ..CommTuning::default()
            },
            ..RunConfig::lj(2_000)
        };
        let _ = Cluster::new([2, 3, 2], cfg, CommVariant::Ref);
    }
}
