//! Construction of a [`Cluster`]: lattice sizing proportioned to the rank
//! grid, atom distribution, engine instantiation per [`CommVariant`],
//! global velocity initialization and the setup phases (ghosts, lists,
//! initial forces). Child module of [`crate::cluster`] so it can fill the
//! façade's private fields without widening their visibility.

use super::Cluster;
use crate::config::{Decomp, RunConfig};
use crate::driver::{Lane, Phase, PlanMode, Team};
use crate::variant::CommVariant;
use std::sync::Arc;
use tofumd_core::engine::{GhostEngine, Op, RankState};
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

impl Cluster {
    /// The engine of `variant` for `rank`'s current graph, from the one
    /// factory every build, demotion and recovery goes through — and the
    /// single place a mismatched variant × decomposition stops a run.
    pub(super) fn engine_for(&self, variant: CommVariant, rank: usize) -> Box<dyn GhostEngine> {
        let (graph, density) = (&self.states[rank].graph, self.cfg.density());
        try_engine(variant, graph, &self.mpi, &self.book, &self.map, density)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    pub(super) fn build(
        proxy_mesh: [u32; 3],
        target_mesh: [u32; 3],
        cfg: RunConfig,
        variant: CommVariant,
    ) -> Self {
        Self::build_with_faults(proxy_mesh, target_mesh, cfg, variant, None)
    }

    pub(super) fn build_with_faults(
        proxy_mesh: [u32; 3],
        target_mesh: [u32; 3],
        cfg: RunConfig,
        variant: CommVariant,
        fault_plan: Option<FaultPlan>,
    ) -> Self {
        let grid = CellGrid::from_node_mesh(proxy_mesh)
            .unwrap_or_else(|| panic!("node mesh {proxy_mesh:?} does not fold onto TofuD cells"));
        let map = RankMap::new(grid, Placement::TopoAware);
        let nranks = map.nranks();
        let target_ranks = 4 * target_mesh.iter().map(|&d| d as usize).product::<usize>();

        // Build the global system with the lattice proportioned to the
        // rank grid so each rank's sub-box is (near-)cubic — the paper's
        // Table 1 analysis and Fig. 1 assume cubic sub-boxes.
        let rg_pre = {
            let mesh = grid.node_mesh();
            [
                mesh[0] * tofumd_core::topo_map::RANKS_PER_NODE_SPLIT[0],
                mesh[1] * tofumd_core::topo_map::RANKS_PER_NODE_SPLIT[1],
                mesh[2] * tofumd_core::topo_map::RANKS_PER_NODE_SPLIT[2],
            ]
        };
        let nranks_f = f64::from(rg_pre[0]) * f64::from(rg_pre[1]) * f64::from(rg_pre[2]);
        let apc = cfg.atoms_per_cell() as f64;
        let cells_per_rank = (cfg.natoms_target as f64 / (apc * nranks_f)).cbrt();
        let (cx, cy, cz) = (
            (cells_per_rank * f64::from(rg_pre[0])).ceil() as usize,
            (cells_per_rank * f64::from(rg_pre[1])).ceil() as usize,
            (cells_per_rank * f64::from(rg_pre[2])).ceil() as usize,
        );
        let (global, pos) = cfg.build_lattice(cx.max(1), cy.max(1), cz.max(1));
        // Optional density ramp: thin the lattice along +x by a per-tag
        // hash so the surviving set is identical under any decomposition.
        let glx = global.lengths()[0];
        let kept: Vec<([f64; 3], u64)> = pos
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, i as u64 + 1))
            .filter(|(p, tag)| cfg.comm.keeps_atom(*tag, (p[0] - global.lo[0]) / glx))
            .collect();

        // Fabric + MPI layer. A fault plan must be live before the first
        // engine is built so registration / CQ faults hit the build too.
        let net = Arc::new(TofuNet::new(grid, NetParams::default()));
        if let Some(plan) = fault_plan {
            net.set_fault_plan(plan);
        }
        let mpi = Arc::new(Communicator::new(net.clone(), nranks, 4));

        // Plans.
        let rg = map.rank_grid;
        let r_ghost = cfg.ghost_cutoff();
        let gl = global.lengths();
        let min_edge = (0..3)
            .map(|d| gl[d] / f64::from(rg[d]))
            .fold(f64::INFINITY, f64::min);
        let auto_shells = ((r_ghost / min_edge).ceil() as usize).max(1);
        // A requested halo depth may widen the exchange (62/124-neighbor
        // scenarios) but never narrow it below the cutoff-derived floor.
        let shells = cfg.comm.shells.map_or(auto_shells, |s| s.max(auto_shells));
        let plan_cfg = PlanConfig {
            shells,
            half: cfg.newton_half(),
        };

        // Decomposition: uniform bricks, or RCB over the initial atom
        // positions. RCB's irregular graph rides the MPI p2p engine; the
        // engine factory rejects every other variant on it.
        let rcb = match cfg.comm.decomp {
            Decomp::Grid => None,
            Decomp::Rcb => {
                let xs: Vec<[f64; 3]> = kept.iter().map(|(x, _)| *x).collect();
                Some(Arc::new(RcbDecomposition::build(nranks, &xs, &global)))
            }
        };

        // Distribute atoms to owners.
        let mut per_rank: Vec<Vec<([f64; 3], u64)>> = vec![Vec::new(); nranks];
        for (p, tag) in &kept {
            let owner = match &rcb {
                Some(r) => r.owner_of(p),
                None => owner_of(&global, rg, &map, p),
            };
            per_rank[owner].push((*p, *tag));
        }

        let potential = Arc::new(cfg.build_potential());
        let integrator = NveIntegrator::new(cfg.timestep(), cfg.mass(), cfg.units());
        let mut states = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            let graph = match &rcb {
                Some(r) => CommGraph::from_rcb(rank, r, &map, r_ghost),
                None => CommGraph::grid(rank, &map, &global, r_ghost, plan_cfg),
            };
            let mut atoms = Atoms::default();
            for (x, tag) in &per_rank[rank] {
                atoms.push_local(*x, [0.0; 3], cfg.type_of_tag(*tag), *tag);
            }
            velocity::create_velocities(
                &mut atoms,
                cfg.mass(),
                cfg.temperature,
                cfg.units(),
                cfg.seed,
            );
            states.push(RankState::new(atoms, graph));
        }

        // Zero total momentum and scale to the target temperature, using
        // globally reduced quantities so the result matches a serial run.
        let natoms_global: usize = states.iter().map(|s| s.atoms.nlocal).sum();
        let mut vcm = [0.0f64; 3];
        for st in &states {
            for i in 0..st.atoms.nlocal {
                for d in 0..3 {
                    vcm[d] += st.atoms.v[i][d];
                }
            }
        }
        for v in &mut vcm {
            *v /= natoms_global as f64;
        }
        let mut ke_after = 0.0;
        for st in &states {
            for i in 0..st.atoms.nlocal {
                let mut s = 0.0;
                for d in 0..3 {
                    let dv = st.atoms.v[i][d] - vcm[d];
                    s += dv * dv;
                }
                ke_after += 0.5 * cfg.units().mvv2e() * cfg.mass() * s;
            }
        }
        for st in &mut states {
            velocity::apply_drift_and_scale(
                &mut st.atoms,
                vcm,
                ke_after,
                natoms_global,
                cfg.temperature,
                cfg.units(),
            );
        }

        let half = cfg.needs_reverse();
        let team = Team::new(1, &map);
        let mut cluster = Cluster {
            cfg,
            variant,
            map,
            global,
            net,
            mpi,
            book: AddressBook::new(),
            potential,
            integrator,
            states,
            lanes: Vec::new(),
            team,
            costs: StageCosts::default(),
            step: 0,
            rebuild_count: 0,
            steps_run: 0,
            rebuild: false,
            reverse_needed: half,
            thermo_every: 0,
            thermo_log: Vec::new(),
            target_mesh,
            target_ranks,
            op_observer: None,
            built_reg_calls: 0,
            demoted: false,
            force_rebuild: false,
            rebalance_now: false,
            rebalance_count: 0,
            plan_mode: PlanMode::default(),
            proxy_mesh,
            checkpoint_every: 0,
            next_checkpoint: 0,
            checkpoint_path: None,
            last_checkpoint: None,
            pending_peer_death: None,
            dead: None,
            recovery: crate::trace::RecoveryStats::default(),
            // The setup phases below end at a freshly-built-lists state —
            // a valid checkpoint boundary.
            at_rebuild_boundary: true,
        };
        cluster.lanes = (0..nranks)
            .map(|rank| Lane::new(cluster.engine_for(variant, rank)))
            .collect();
        // Setup stage: sort locals into bin order (no ghosts exist yet),
        // then establish ghosts, lists, initial forces.
        cluster.run_phase(Phase::SpatialSort);
        cluster.run_op(Op::Border);
        cluster.run_phase(Phase::RebuildLists);
        cluster.run_phase(Phase::Pair);
        if cluster.reverse_needed {
            cluster.run_op(Op::Reverse);
        }
        cluster.reset_timers();
        cluster.built_reg_calls = cluster.registration_calls();
        cluster
    }
}

/// Which rank's sub-box contains the (wrapped) position.
fn owner_of(global: &Box3, rg: [u32; 3], map: &RankMap, x: &[f64; 3]) -> usize {
    let l = global.lengths();
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
