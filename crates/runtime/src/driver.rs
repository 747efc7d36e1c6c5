//! The deterministic host-parallel phase executor.
//!
//! A timestep is `InitialIntegrate`, the reneighbor check, then a
//! [`step_plan`] built from the check's [`Verdict`]: an ordered list of
//! [`Phase`]s — per-rank work items (ghost ops, scatter passes, the pair
//! charge, integration, accounting) — executed over all simulated ranks
//! by a persistent [`Team`] of host threads built on `tofumd-threadpool`'s
//! spin pool (the paper's §3.3 design, dogfooded as our own step driver).
//! The plan is the one sequencer: every ghost op a step runs is one of its
//! entries, and the setup/restore/recovery settle runs its middle slice,
//! [`halo_and_pair`].
//!
//! # Determinism contract (DESIGN.md §9)
//!
//! Results are **bit-identical at any thread count** because rank→worker
//! assignment is static and *node-aligned*:
//!
//! * The only cross-rank mutable state whose ordering is observable in
//!   virtual time is the per-`(node, TNI)` injection clock inside
//!   [`tofumd_tofu::TofuNet`] — and only ranks sharing a *node* share
//!   TNIs. Cross-node interactions fold arrival times with `max` and
//!   match payloads by content (piggyback / stadd / (src, tag)), so their
//!   ordering is unobservable.
//! * Therefore the team partitions work by **node**: all four ranks of a
//!   node are always driven by the same worker, nodes in ascending id
//!   order and ranks in ascending order within each node — exactly the
//!   serial order restricted to each worker's node range. No phase result
//!   can depend on the interleaving between workers.
//! * A halo window ([`Phase::Window`]) runs *rank-major* inside one such
//!   region. A rank's complete needs only that every rank has posted (the
//!   `Post` region before it) and still injects in per-node rank order, so
//!   the window moves no TNI clock a whole-team complete sweep would not.
//!   The window splits a pass's *charge* around the complete; the pass
//!   itself runs once, after it.
//!
//! Note the 1×2×2 rank-per-node split means a node's four ranks are *not*
//! contiguous in rank order, which is why chunking is over node groups
//! rather than rank ranges.

use std::sync::{Mutex, PoisonError};
use tofumd_core::engine::{GhostEngine, Op};
use tofumd_core::topo_map::RankMap;
use tofumd_md::kernels::PairScratch;
use tofumd_md::neighbor::NeighborList;
use tofumd_md::potential::PairEnergyVirial;
use tofumd_threadpool::{ChunkExec, GroupFanout, SpinPool};
use tofumd_tofu::TofuError;

/// The rank's interior/boundary row partition for one overlap window
/// (rebuilt on reneighbor steps, reused in between).
///
/// Two tiers of "interior" exist because the two split points need
/// different guarantees:
///
/// * `geo` — geometric: the atom sits deeper than `cutoff + skin` from
///   every face of the rank's subdomain, so *no* atom it could ever list
///   as a neighbor is a ghost. Safe for the rebuild-step split, where the
///   interior rows are built before the ghost shell exists.
/// * `pair` — list-content: the row's stored neighbors are all local
///   ([`NeighborList::local_only`]); the list counts these rows as it
///   writes them, and the partition keeps the counts. A superset of
///   `geo`; safe for forward-step splits, where the list is fixed and
///   only ghost *positions* are in flight.
///
/// Either way an interior row holds no ghost index, so nothing it computes
/// can depend on the halo in flight: that is what licenses charging it
/// inside the window while the host evaluates every row in one sweep after
/// the complete ([`Partition::violation`] checks it).
#[derive(Debug, Default, Clone)]
pub struct Partition {
    /// Geometric interior flags per local atom.
    pub geo: Vec<bool>,
    /// Count of `geo` rows.
    pub n_geo: usize,
    /// Stored pairs on `geo` rows.
    pub geo_pairs: usize,
    /// Count of `pair` rows.
    pub n_pair: usize,
    /// Stored pairs on `pair` rows.
    pub pair_pairs: usize,
}

impl Partition {
    /// The first row that breaks the partition's contract against the
    /// rank's finished `list` (after the boundary build): flagged `geo`
    /// yet listing an index `>= nlocal`. (`pair` is read off the list's
    /// rows, so it holds by construction.) `None` when sound.
    #[must_use]
    pub fn violation(&self, list: &NeighborList, nlocal: usize) -> Option<usize> {
        (0..nlocal).find(|&i| self.geo[i] && !list.local_only(i))
    }
}

/// Per-rank execution context owned by the driver: everything a phase
/// needs besides the [`tofumd_core::engine::RankState`] itself, which also
/// holds the rank's clock, stage times and comm counters. Keeping
/// it in one struct lets the team hand a worker `(&mut Lane, &mut
/// RankState)` for each rank it owns without aliasing.
pub struct Lane {
    /// The rank's communication engine.
    pub engine: Box<dyn GhostEngine>,
    /// Current Verlet list (`None` only before the setup build).
    pub list: Option<NeighborList>,
    /// Pair energy/virial of the last force evaluation.
    pub energy: PairEnergyVirial,
    /// EAM embedding energy of the last evaluation.
    pub embed: f64,
    /// Scratch buffer for the EAM F' forward (swapped with `scalar`).
    pub fp_buf: Vec<f64>,
    /// Reneighbor-check verdict of this rank (set by the check phase).
    pub moved: bool,
    /// Typed engine failure captured inside a parallel phase region (the
    /// pool's closures cannot propagate `Result`s); the step driver
    /// inspects and raises it after the region joins.
    pub failed: Option<TofuError>,
    /// Interior/boundary row partition of the current neighbor epoch.
    pub part: Option<Partition>,
    /// The list between the halves of a split rebuild: its interior rows
    /// written pre-ghost, finished in place by the boundary build after
    /// the Border op lands and moved back to `list`.
    pub interior_list: Option<NeighborList>,
    /// The rank's clock right after the last overlapped post — the start
    /// of the window whose hidden comm time the complete side credits.
    pub overlap_c0: f64,
}

impl Lane {
    /// Fresh lane around `engine` with empty derived state.
    #[must_use]
    pub fn new(engine: Box<dyn GhostEngine>) -> Self {
        Lane {
            engine,
            list: None,
            energy: PairEnergyVirial::default(),
            embed: 0.0,
            fp_buf: Vec::new(),
            moved: false,
            failed: None,
            part: None,
            interior_list: None,
            overlap_c0: 0.0,
        }
    }
}

/// One scatter pass of the pair stage — the unit whose charge the step
/// DAG splits across a halo window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// The single pass of a pairwise potential.
    Pair,
    /// EAM electron density.
    Rho,
    /// EAM forces from the exchanged F' values.
    Force,
}

/// One work item of a timestep. The comm phases run the engine's
/// post/complete rounds; the compute phases fan per-rank closures out
/// over the [`Team`]. Every step starts with `InitialIntegrate`; after
/// the reneighbor check the rest is the step's [`step_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// First velocity-Verlet half-kick + drift.
    InitialIntegrate,
    /// Mid-run domain rebalance (listed only when the check armed it):
    /// rebuild the RCB decomposition from the current positions, swap
    /// every rank's graph and migrate atoms to their new owners. A global
    /// barrier point — every rank swaps before any rank exchanges.
    Rebalance,
    /// Staged atom migration (reneighbor steps only; 3 rounds, never
    /// split).
    Exchange,
    /// Spatial sort of local atoms into bin order (reneighbor steps only,
    /// after Exchange while no ghosts exist and before Border rebuilds the
    /// send lists against the new order).
    SpatialSort,
    /// A whole ghost op, every round posted and completed back-to-back.
    Comm(Op),
    /// Post the puts of a single-round halo op, opening its overlap
    /// window for every rank.
    Post(Op),
    /// The overlap window of the halo op posted just before, run
    /// rank-major: each rank in team order charges the interior rows'
    /// share of `pass`, completes *its own* `op`, then runs `pass` once
    /// over all rows against the arrived halo and charges the remainder.
    /// In the Border window the interior step first classifies rows
    /// geometrically and builds the interior-only Verlet list, and the
    /// boundary step first merges the boundary rows into the full list.
    Window {
        /// The halo op the window completes.
        op: Op,
        /// The scatter pass whose charge is split across it.
        pass: Pass,
    },
    /// Verlet-list rebuild in one pass.
    RebuildLists,
    /// One scatter pass over all of every rank's rows, unsplit and
    /// uncharged: its Pair time is booked once by `ChargePair`.
    Pass(Pass),
    /// Book every rank's Pair-stage time from its whole workload, after
    /// the unsplit pair stage's last pass.
    ChargePair,
    /// EAM embedding energy + F' for locals.
    Embed,
    /// Second velocity-Verlet half-kick + Modify charge.
    FinalIntegrate,
    /// Per-step Other floor + the optional thermo reduction.
    Accounting,
}

/// How the cluster sequences a timestep's work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Never overlap: every step runs [`step_plan`]'s non-overlapping
    /// shape — every comm op posts and completes back-to-back, compute
    /// strictly between ops. The reference side of the DAG-equivalence
    /// suites.
    Barrier,
    /// Overlap halo posts with interior compute wherever the variant
    /// allows it (the default).
    #[default]
    Dag,
}

/// What a step's reneighbor check decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The step reneighbors: migration, sort, Border and a list build.
    pub rebuild: bool,
    /// The balance trigger fired: the step re-cuts before it migrates.
    pub rebalance: bool,
}

/// Entries of the longest plan, a barrier EAM rebalance step.
const PLAN_CAPACITY: usize = 14;

/// The phases of one timestep after `InitialIntegrate` and the reneighbor
/// check: the rebalance when armed, the migration and sort on a rebuild,
/// the [`halo_and_pair`] middle, then the final integrate and the
/// accounting. A pure function of the step's shape — independent of host
/// thread count, wall-clock, or any virtual-time value (DESIGN.md §12).
#[must_use]
pub fn step_plan(verdict: Verdict, eam: bool, reverse: bool, overlap: bool) -> Vec<Phase> {
    let mut plan = Vec::with_capacity(PLAN_CAPACITY);
    if verdict.rebalance {
        plan.push(Phase::Rebalance);
    }
    if verdict.rebuild {
        plan.extend([Phase::Exchange, Phase::SpatialSort]);
    }
    halo_and_pair(&mut plan, verdict.rebuild, eam, reverse, overlap);
    plan.extend([Phase::FinalIntegrate, Phase::Accounting]);
    plan
}

/// The middle of a step, appended to `plan` (settle runs it alone): the
/// Border (rebuild) or Forward halo with the first scatter pass, EAM's
/// scalar ops around its embed and force pass, and Reverse when ghost
/// forces fold back. `overlap` splits each halo op into a post and a
/// rank-major window that charges its pass; without it each op runs whole
/// before its pass and `ChargePair` books the pair stage after the last.
pub fn halo_and_pair(
    plan: &mut Vec<Phase>,
    rebuild: bool,
    eam: bool,
    reverse: bool,
    overlap: bool,
) {
    use Phase::{ChargePair, Comm, Embed, Post, RebuildLists, Window};
    let halo = |op, pass| match overlap {
        true => [Post(op), Window { op, pass }],
        false => [Comm(op), Phase::Pass(pass)],
    };
    let op = if rebuild { Op::Border } else { Op::Forward };
    let [open, first] = halo(op, if eam { Pass::Rho } else { Pass::Pair });
    plan.push(open);
    if rebuild && !overlap {
        plan.push(RebuildLists);
    }
    plan.push(first);
    if eam {
        plan.extend([Comm(Op::ReverseScalar), Embed]);
        plan.extend(halo(Op::ForwardScalar, Pass::Force));
    }
    if !overlap {
        plan.push(ChargePair);
    }
    if reverse {
        plan.push(Comm(Op::Reverse));
    }
}

/// The persistent worker team driving per-rank phases.
///
/// Built once per `(thread count, rank map)`; dispatching a phase is one
/// spin-pool region (a single atomic store + spin join), not a round of
/// thread spawns like the old `thread::scope` driver.
pub struct Team {
    pool: SpinPool,
    /// Rank ids grouped by node, each node's ranks ascending.
    nodes: GroupFanout,
    /// The one scatter log: of the rank the whole pool is currently inside
    /// (`threads > nodes`). A rank one worker owns scatters straight into
    /// its arrays and needs none. The lock is what makes handing it out of
    /// `&self` safe code; it is never contended.
    scratch: Mutex<PairScratch>,
}

impl Team {
    /// Build a team of `threads` host threads over `map`'s ranks.
    #[must_use]
    pub fn new(threads: usize, map: &RankMap) -> Self {
        assert!(threads >= 1, "team needs at least one thread");
        let node_of: Vec<usize> = (0..map.nranks()).map(|r| map.node_of(r)).collect();
        Team {
            pool: SpinPool::new(threads),
            nodes: GroupFanout::new(&node_of),
            scratch: Mutex::default(),
        }
    }

    /// Parallelism of the team.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Number of node groups in the partition.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes.groups()
    }

    /// Run `f(rank, &mut a[rank], &mut b[rank])` for every rank with the
    /// static node-aligned fan-out ([`GroupFanout::for_each`]): worker
    /// `tid` walks its contiguous range of node groups in ascending order
    /// and visits each of their ranks. With one thread this is the plain
    /// serial loop in team order.
    pub fn for_each<A: Send, B: Send>(
        &self,
        a: &mut [A],
        b: &mut [B],
        f: &(dyn Fn(usize, &mut A, &mut B) + Sync),
    ) {
        self.nodes.for_each(&self.pool, a, b, f);
    }

    /// Like [`Team::for_each`], but hands each rank closure a
    /// [`ChunkExec`] — and with it the way the rank's scatter passes write
    /// (`tofumd_md::kernels`). The parallelism budget is spent at exactly
    /// one level — the spin pool is not reentrant:
    ///
    /// * more threads than node groups → walk ranks serially (team order)
    ///   and give every rank the pooled executor and the team's scatter
    ///   log, so wide-thread runs on few ranks still use all workers;
    /// * otherwise → the node-aligned rank fan-out of `for_each` with a
    ///   serial executor inside each rank: one worker owns the rank, its
    ///   passes scatter straight into its arrays, and the scratch it is
    ///   handed is an empty one nothing opens (no allocation).
    ///
    /// Results are identical either way because every chunked kernel is
    /// bit-identical to its serial form under either executor — the mode
    /// choice (and the thread count) affects only wall-clock.
    pub fn for_each_chunk<A: Send, B: Send>(
        &self,
        a: &mut [A],
        b: &mut [B],
        f: &(dyn Fn(usize, &mut A, &mut B, &ChunkExec<'_>, &mut PairScratch) + Sync),
    ) {
        if self.pool.threads() > self.nodes().max(1) {
            let exec = ChunkExec::Pool(&self.pool);
            let scratch = &mut *self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
            for &r in self.nodes.order() {
                f(r, &mut a[r], &mut b[r], &exec, scratch);
            }
            return;
        }
        self.for_each(a, b, &|r, ea, eb| {
            f(r, ea, eb, &ChunkExec::Serial, &mut PairScratch::new());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofumd_core::topo_map::Placement;
    use tofumd_tofu::CellGrid;

    fn map() -> RankMap {
        RankMap::new(
            CellGrid::from_node_mesh([2, 3, 2]).unwrap(),
            Placement::TopoAware,
        )
    }

    #[test]
    fn partition_is_node_aligned_and_complete() {
        let m = map();
        let team = Team::new(3, &m);
        assert_eq!(team.nodes(), 12);
        assert_eq!(team.nodes.order().len(), m.nranks());
        // Every rank appears exactly once.
        let mut seen = vec![false; m.nranks()];
        for &r in team.nodes.order() {
            assert!(!seen[r]);
            seen[r] = true;
        }
        // Each node group holds exactly that node's ranks, ascending.
        for n in 0..team.nodes() {
            let g = team.nodes.group(n);
            assert_eq!(g.len(), 4);
            assert!(g.windows(2).all(|w| w[0] < w[1]));
            assert!(g.iter().all(|&r| m.node_of(r) == n));
        }
    }

    #[test]
    fn for_each_visits_every_rank_once_at_any_thread_count() {
        let m = map();
        for threads in [1, 2, 5, 8] {
            let team = Team::new(threads, &m);
            let mut hits = vec![0u32; m.nranks()];
            let mut ids = vec![0usize; m.nranks()];
            team.for_each(&mut hits, &mut ids, &|r, h, id| {
                *h += 1;
                *id = r;
            });
            assert!(hits.iter().all(|&h| h == 1), "threads={threads}");
            assert!(ids.iter().enumerate().all(|(i, &id)| i == id));
        }
    }

    /// `for_each_chunk` visits every rank once and spends the threads at
    /// one level: a serial executor per rank (and a scratch nothing has
    /// opened) while workers own whole ranks, the pooled executor and the
    /// team's one scatter log once threads outnumber the 12 node groups.
    #[test]
    fn for_each_chunk_pools_only_when_threads_exceed_nodes() {
        let m = map();
        for threads in [1, 2, 5, 12, 13, 16] {
            let team = Team::new(threads, &m);
            let pooled = threads > 12;
            let mut hits = vec![0u32; m.nranks()];
            let mut seen = vec![0usize; m.nranks()];
            team.for_each_chunk(&mut hits, &mut seen, &|_, h, s, exec, scratch| {
                *h += 1;
                *s = std::ptr::from_mut(scratch) as usize;
                assert_eq!(matches!(exec, ChunkExec::Pool(_)), pooled);
            });
            assert!(hits.iter().all(|&h| h == 1), "threads={threads}");
            let own = std::ptr::from_ref(&*team.scratch.lock().unwrap()) as usize;
            assert!(
                seen.iter().all(|&s| (s == own) == pooled),
                "threads={threads}"
            );
        }
    }

    /// The verdicts a check can return: a rebalance always rebuilds.
    const VERDICTS: [Verdict; 3] = [
        Verdict {
            rebuild: false,
            rebalance: false,
        },
        Verdict {
            rebuild: true,
            rebalance: false,
        },
        Verdict {
            rebuild: true,
            rebalance: true,
        },
    ];

    /// `[FinalIntegrate, Accounting]`, after Reverse when asked for.
    fn tail(reverse: bool) -> Vec<Phase> {
        let reverse = reverse.then_some(Phase::Comm(Op::Reverse));
        reverse
            .into_iter()
            .chain([Phase::FinalIntegrate, Phase::Accounting])
            .collect()
    }

    /// The step "DAG" is a chain in program order: every shape ends with
    /// the final integrate and the accounting, runs no phase twice, lists
    /// the rebalance exactly when the verdict armed it, and puts a window
    /// directly behind the post of the op it completes — the one
    /// cross-rank edge (a rank completes only after every rank posted).
    #[test]
    fn dag_ids_are_topological_and_execution_is_id_order() {
        for verdict in VERDICTS {
            for eam in [false, true] {
                for overlap in [false, true] {
                    let plan = step_plan(verdict, eam, true, overlap);
                    assert!(plan.ends_with(&[Phase::FinalIntegrate, Phase::Accounting]));
                    assert_eq!(plan.contains(&Phase::Rebalance), verdict.rebalance);
                    for (i, phase) in plan.iter().enumerate() {
                        assert!(!plan[..i].contains(phase), "{phase:?} runs twice");
                        if let Phase::Window { op, .. } = *phase {
                            assert_eq!(plan[i - 1], Phase::Post(op));
                        }
                    }
                }
            }
        }
    }

    /// The non-overlapping shape (all of `PlanMode::Barrier`, and what
    /// `PlanMode::Dag` degrades to) is the barrier step sequence: whole
    /// ops, each scatter pass after the op it reads, one `ChargePair` after
    /// the last pass, the rebuild and forward paths mutually exclusive, the
    /// armed rebalance ahead of the migration it redirects, Reverse only
    /// when asked for.
    #[test]
    fn non_overlap_dag_is_the_barrier_sequence() {
        use Phase::{ChargePair, Comm, Embed, Exchange, Rebalance, RebuildLists, SpatialSort};
        let rebuild = [Exchange, SpatialSort, Comm(Op::Border), RebuildLists];
        for eam in [false, true] {
            let pair = if eam {
                vec![
                    Phase::Pass(Pass::Rho),
                    Comm(Op::ReverseScalar),
                    Embed,
                    Comm(Op::ForwardScalar),
                    Phase::Pass(Pass::Force),
                    ChargePair,
                ]
            } else {
                vec![Phase::Pass(Pass::Pair), ChargePair]
            };
            for reverse in [false, true] {
                let order = |v| step_plan(v, eam, reverse, false);
                let tail = tail(reverse);
                let [forward, rebuilt, rebalanced] = VERDICTS.map(order);
                assert_eq!(forward, [&[Comm(Op::Forward)][..], &pair, &tail].concat());
                assert_eq!(rebuilt, [&rebuild[..], &pair, &tail].concat());
                let head = [&[Rebalance][..], &rebuild].concat();
                assert_eq!(rebalanced, [head, pair.clone(), tail].concat());
            }
        }
    }

    /// The overlapping shape: every split halo op is a `Post` region
    /// followed by its rank-major `Window`, and the windows book the pair
    /// stage, so no `ChargePair` is listed. The interior/complete/boundary
    /// order inside a window is per rank, not part of the plan.
    #[test]
    fn overlap_dag_runs_each_split_pass_in_a_window_after_its_post() {
        use Phase::{Comm, Embed, Exchange, Post, Rebalance, SpatialSort, Window};
        let window = |op, pass| [Post(op), Window { op, pass }];
        for eam in [false, true] {
            let first = if eam { Pass::Rho } else { Pass::Pair };
            let mid: Vec<Phase> = if eam {
                let force = window(Op::ForwardScalar, Pass::Force);
                [&[Comm(Op::ReverseScalar), Embed][..], &force[..]].concat()
            } else {
                vec![]
            };
            for reverse in [false, true] {
                let tail = tail(reverse);
                // Rebuild: list build and first pass split around Border,
                // behind the migration (and the re-cut when armed).
                let border = window(Op::Border, first);
                let rebuild = [&[Exchange, SpatialSort][..], &border].concat();
                let rebalance = [&[Rebalance][..], &rebuild].concat();
                // Forward: first pass split around Forward (and, for EAM,
                // the force pass around the F' forward).
                let forward = window(Op::Forward, first);
                let heads = [&forward[..], &rebuild, &rebalance];
                for (verdict, head) in VERDICTS.into_iter().zip(heads) {
                    let plan = step_plan(verdict, eam, reverse, true);
                    assert_eq!(plan, [head, &mid[..], &tail].concat());
                }
            }
        }
    }

    /// Settle's slice — ghosts, lists, the pair stage and Reverse from the
    /// positions in place — is the barrier rebuild plan between its
    /// migration and its tail.
    #[test]
    fn settle_slice_is_the_middle_of_the_barrier_rebuild_plan() {
        for eam in [false, true] {
            for reverse in [false, true] {
                let mut slice = Vec::new();
                halo_and_pair(&mut slice, true, eam, reverse, false);
                assert!(slice.starts_with(&[Phase::Comm(Op::Border), Phase::RebuildLists]));
                let plan = step_plan(VERDICTS[1], eam, reverse, false);
                let migrate = [Phase::Exchange, Phase::SpatialSort];
                let end = [Phase::FinalIntegrate, Phase::Accounting];
                assert_eq!(plan, [&migrate[..], &slice, &end].concat());
            }
        }
    }

    /// A step allocates its plan once: the capacity `step_plan` asks for
    /// covers every shape, and the longest shape fills it.
    #[test]
    fn plan_capacity_covers_every_shape() {
        let mut longest = 0;
        for rebuild in [false, true] {
            for rebalance in [false, true] {
                for eam in [false, true] {
                    for reverse in [false, true] {
                        for overlap in [false, true] {
                            let verdict = Verdict { rebuild, rebalance };
                            let plan = step_plan(verdict, eam, reverse, overlap);
                            assert!(plan.len() <= PLAN_CAPACITY, "{plan:?}");
                            longest = longest.max(plan.len());
                        }
                    }
                }
            }
        }
        assert_eq!(longest, PLAN_CAPACITY);
    }
}
