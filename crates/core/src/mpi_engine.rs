//! The ghost engine over the MPI two-sided transport: under the staged
//! pattern it is the LAMMPS baseline ("ref"), under p2p the naive variant
//! that §3.2 shows is *slower* than the baseline because of MPI's
//! per-message software cost — and the one engine that also walks
//! irregular graphs (RCB, post-recovery).

use crate::engine::{GhostEngine, Op, RankState};
use crate::ghost::Payload;
use crate::pattern::{Hop, Landing, Pattern, PatternKind};
use crate::sf::CommGraph;
use crate::wire::LeF64s;
use std::cell::RefCell;
use std::sync::Arc;
use tofumd_mpi::Communicator;
use tofumd_tofu::TofuError;

/// Tag block of an op: tags only ever match within one op's rounds.
fn op_base(op: Op) -> u32 {
    op.index() as u32 + 1
}

/// Tag for a face-sweep message: op, sweep dimension, direction sent.
fn staged_tag(op: Op, dim: usize, dir: usize) -> u32 {
    op_base(op) * 64 + (dim as u32) * 2 + dir as u32
}

/// Tag for an edge message: op and the *receiver's* edge index (a sender
/// tags with its edge's `peer_index`; on grid graphs the two coincide).
fn p2p_tag(op: Op, link: usize) -> u32 {
    op_base(op) * 1024 + link as u32
}

fn tag(op: Op, landing: Landing) -> u32 {
    match landing {
        Landing::Face { dim, dir } => staged_tag(op, dim, dir),
        Landing::Edge(link) => p2p_tag(op, link),
    }
}

thread_local! {
    /// The send buffer of every MPI engine this host thread drives, grown
    /// to the largest message it has sent: one per driver thread, where
    /// one per engine would hold a rank count of them.
    static BYTES: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// One rank's MPI engine: its endpoint and its pattern.
pub struct MpiEngine {
    comm: Arc<Communicator>,
    me: usize,
    pattern: Pattern,
}

impl MpiEngine {
    /// Build the engine for the rank that owns `graph`, walking it with
    /// the pattern of `kind`.
    pub fn new(
        comm: Arc<Communicator>,
        kind: PatternKind,
        graph: &CommGraph,
    ) -> Result<Self, TofuError> {
        Ok(MpiEngine {
            comm,
            me: graph.me,
            pattern: Pattern::new(kind, graph)?,
        })
    }
}

impl GhostEngine for MpiEngine {
    fn rounds(&self, op: Op) -> usize {
        self.pattern.rounds(op)
    }

    /// "An MPI barrier is mandatory between stages" (§3.1): a property of
    /// the staged pattern over *this* transport only.
    fn barrier_between_rounds(&self) -> bool {
        self.pattern.is_staged()
    }

    fn rebind_graph(&mut self, st: &RankState) {
        self.pattern.rebind(&st.graph);
    }

    /// MPI copies every payload into its send buffer: the pack cost of the
    /// whole round is charged up front and every byte counts as staged.
    /// The values stream from the layout through [`crate::wire::F64Sink`]
    /// into the thread's one byte vector, sent per hop.
    fn post(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        self.pattern.select(op, round, st);
        let (pattern, layout) = (&self.pattern, &self.pattern.ghosts);
        let payload = |h: Hop| Payload::of(op, h.layout);
        let mut f64s = 0;
        pattern.for_each_hop(op, round, st, false, |h, _| f64s += payload(h).len(layout))?;
        let mut now = st.clock + self.comm.net().params().pack_cost(f64s * 8);
        BYTES.with_borrow_mut(|bytes| {
            pattern.for_each_hop(op, round, st, false, |h, st| {
                bytes.clear();
                payload(h).write(layout, st, bytes);
                st.stats.at(op, round).count(bytes.len());
                st.stats.at(op, round).copied(bytes.len());
                let (dst, tag) = (h.rank, tag(op, h.landing));
                self.comm.send(self.me, dst, tag, bytes, &mut now);
            })
        })?;
        st.charge(now - st.clock, op);
        Ok(())
    }

    /// Receive the round's messages in hop order, each delivered straight
    /// from the mailbox bytes it landed in before the next is matched. A
    /// shortfall (dead peer / protocol bug) surfaces as the typed error;
    /// the clock is still charged for the messages that did arrive.
    fn complete(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        let (mut now, mut horizon, mut failed) = (st.clock, st.arrival_horizon, Ok(()));
        let mut i = 0;
        while let Some(h) = self.pattern.hop(op, round, &st.graph, true, i)? {
            let pattern = &mut self.pattern;
            let deliver = |bytes: &[u8]| pattern.deliver(op, h.layout, st, LeF64s::new(bytes));
            match self
                .comm
                .recv_with(self.me, h.rank, tag(op, h.landing), now, deliver)
            {
                Ok(m) => (now, horizon) = (m.now, horizon.max(m.arrival)),
                Err(e) => {
                    failed = Err(e);
                    break;
                }
            }
            i += 1;
        }
        st.arrival_horizon = horizon;
        st.charge(now - st.clock, op);
        failed?;
        self.pattern.finish(op, st);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::fixture::{drive, fill_scalars, fixture, Fabric, Fixture};
    use crate::sf::PlanConfig;
    use crate::utofu_engine::UtofuConfig;

    fn mpi_fixture(kind: PatternKind) -> Fixture<MpiEngine> {
        fixture(|fab, g| fab.mpi(kind, g))
    }

    #[test]
    fn mpi_3stage_establishes_cross_rank_ghosts() {
        let mut f = mpi_fixture(PatternKind::Staged);
        drive(&mut f, Op::Border);
        let states = &f.states;
        // Rank 0's atom at x = hi - 0.5 must appear as a ghost on rank 1
        // (its -x neighbor side), and vice versa.
        assert!(
            states[1].atoms.nghost() >= 1,
            "rank 1 got {} ghosts",
            states[1].atoms.nghost()
        );
        assert!(states[0].atoms.nghost() >= 1);
        // Tags preserved across the wire.
        let tags1: Vec<u64> = states[1].atoms.tag[states[1].atoms.nlocal..].to_vec();
        assert!(
            tags1.contains(&1),
            "rank 0's atom (tag 1) as ghost: {tags1:?}"
        );
    }

    #[test]
    fn mpi_3stage_forward_updates_ghost_positions() {
        let mut f = mpi_fixture(PatternKind::Staged);
        drive(&mut f, Op::Border);
        let before = f.states[1].atoms.x[f.states[1].atoms.nlocal];
        // Move rank 0's atom and forward.
        f.states[0].atoms.x[0][1] += 0.25;
        drive(&mut f, Op::Forward);
        let after = f.states[1].atoms.x[f.states[1].atoms.nlocal];
        assert!((after[1] - before[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mpi_p2p_reverse_returns_ghost_forces() {
        // Fig. 5 semantics: rank 1 sends its -x-face atom to its *lower*
        // neighbors (rank 0 among them); rank 0 holds the ghost, computes,
        // and the reverse stage carries the force back to rank 1.
        let mut f = mpi_fixture(PatternKind::P2p);
        drive(&mut f, Op::Border);
        assert!(
            f.states[0].atoms.nghost() >= 1,
            "rank 0 must hold rank 1's border atom as a ghost"
        );
        let n0 = f.states[0].atoms.nlocal;
        for gi in n0..f.states[0].atoms.ntotal() {
            f.states[0].atoms.f[gi] = [1.0, 2.0, 3.0];
        }
        f.states[1].atoms.zero_forces();
        drive(&mut f, Op::Reverse);
        let states = &f.states;
        assert!(states[1].atoms.f[0][0] >= 1.0 - 1e-12);
        assert!((states[1].atoms.f[0][1] / states[1].atoms.f[0][0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn tags_disambiguate_ops_and_links() {
        // Distinct (op, link) pairs must map to distinct MPI tags.
        let mut seen = std::collections::HashSet::new();
        for op in [
            Op::Border,
            Op::Forward,
            Op::Reverse,
            Op::ForwardScalar,
            Op::ReverseScalar,
        ] {
            for link in 0..124 {
                assert!(seen.insert(p2p_tag(op, link)), "collision at {op:?} {link}");
            }
            for dim in 0..3 {
                for dir in 0..2 {
                    assert!(
                        seen.insert(staged_tag(op, dim, dir) + 1_000_000),
                        "staged collision"
                    );
                }
            }
        }
    }

    #[test]
    fn engines_charge_time_to_the_right_buckets() {
        let mut f = mpi_fixture(PatternKind::P2p);
        drive(&mut f, Op::Border);
        assert!(f.states[0].stages.comm > 0.0);
        let comm_before = f.states[0].stages.comm;
        fill_scalars(&mut f, 1.0);
        drive(&mut f, Op::ForwardScalar);
        assert!(
            f.states[0].stages.pair_comm > 0.0,
            "scalar ops book into the pair bucket"
        );
        assert_eq!(
            f.states[0].stages.comm, comm_before,
            "scalar ops must not book into Comm"
        );
    }

    #[test]
    fn engines_report_their_round_structure() {
        // The driver reads the round count and the stage barrier off the
        // engine. The whole table: the six communication variants as
        // (pattern, transport) rows × halo depth, plus MPI p2p on an RCB
        // graph → rounds per op in `Op::ALL` order (Exchange, Border,
        // Forward, Reverse, ForwardScalar, ReverseScalar) and the barrier.
        use PatternKind::{P2p, Staged};
        let (coarse4, single6, pool6) = (
            UtofuConfig::coarse4(),
            UtofuConfig::single6(),
            UtofuConfig::pool6(),
        );
        let table = [
            (Staged, None, 1, [3, 3, 3, 3, 3, 3], true),
            (Staged, None, 2, [3, 6, 6, 6, 6, 6], true),
            (P2p, None, 1, [3, 1, 1, 1, 1, 1], false),
            (P2p, None, 2, [3, 1, 1, 1, 1, 1], false),
            (Staged, Some(coarse4), 1, [3, 3, 3, 3, 3, 3], false),
            (Staged, Some(coarse4), 2, [3, 6, 6, 6, 6, 6], false),
            (P2p, Some(coarse4), 1, [3, 1, 1, 1, 1, 1], false),
            (P2p, Some(coarse4), 2, [3, 1, 1, 1, 1, 1], false),
            (P2p, Some(single6), 1, [3, 1, 1, 1, 1, 1], false),
            (P2p, Some(single6), 2, [3, 1, 1, 1, 1, 1], false),
            (P2p, Some(pool6), 1, [3, 1, 1, 1, 1, 1], false),
            (P2p, Some(pool6), 2, [3, 1, 1, 1, 1, 1], false),
        ];
        let structure =
            |e: &dyn GhostEngine| (Op::ALL.map(|op| e.rounds(op)), e.barrier_between_rounds());
        for (kind, utofu, shells, rounds, barrier) in table {
            let fab = Fabric::new();
            let graph = fab.graph(0, PlanConfig { shells, half: true });
            let got = match utofu {
                None => structure(&fab.mpi(kind, &graph)),
                Some(cfg) => structure(&fab.utofu(kind, cfg, &graph)),
            };
            assert_eq!(got, (rounds, barrier), "{kind:?} {utofu:?} shells {shells}");
        }
        // An irregular graph migrates owner-directed: one round of all.
        let fab = Fabric::new();
        let rcb = fab.rcb_graph(0);
        assert_eq!(structure(&fab.mpi(P2p, &rcb)), ([1; 6], false));
        // The staged sweeps and the uTofu tables cannot walk it at all.
        for err in [
            MpiEngine::new(fab.comm.clone(), Staged, &rcb).err(),
            crate::UtofuEngine::new(fab.net, fab.book, P2p, &rcb, 0, 0.8, pool6).err(),
        ] {
            assert!(
                matches!(err, Some(TofuError::UnsupportedGraph { graph: "rcb", .. })),
                "{err:?}"
            );
        }
    }
}
