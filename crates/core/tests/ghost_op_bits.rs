//! The modeled bits of the steady-state ghost ops, pinned to recorded
//! digests: how a halo message is moved on the host — which walk sizes
//! its buffers, how a ghost segment is copied, which lock a put takes —
//! must never reach a charge, a clock, a counter or a delivered value.
//!
//! Every rank of one TofuD cell (48 ranks) runs four Border epochs of
//! seeded random atoms. The epochs grow, shrink and grow again, and the
//! last packs every atom into the band along the low x face, so the
//! undersized baseline buffers grow inside later epochs too: the owner-side
//! ones only at a ghost op's post. Each epoch runs six steps with the
//! locals jittered and the ghost forces and scalars refilled every step:
//! Forward and Reverse, then none, one or both of ReverseScalar and
//! ForwardScalar. The round-robin slot cursor advances once per posted op,
//! so over an epoch each op lands in every slot of a 4-slot
//! configuration.
//!
//! Each digest is FNV-1a over little-endian words: per rank its clock and
//! seven stage buckets; per rank, op and round every `CommStats` counter;
//! and after every step the ghost positions, the owner forces and every
//! scalar. The growth-event total is pinned on its own, so a buffer that
//! a skipped walk left undersized reads as a count, not a digest.

use std::sync::Arc;
use tofumd_core::engine::{CommStats, GhostEngine, Op, RankState};
use tofumd_core::topo_map::{Placement, RankMap};
use tofumd_core::{
    AddressBook, CommGraph, MpiEngine, PatternKind, PlanConfig, UtofuConfig, UtofuEngine,
};
use tofumd_md::atom::Atoms;
use tofumd_md::region::Box3;
use tofumd_mpi::Communicator;
use tofumd_tofu::{CellGrid, NetParams, TofuNet};

/// Atoms per rank in each Border epoch, and the depth from the low x face
/// they are drawn within.
const EPOCHS: [(usize, f64); 4] = [(30, 10.0), (320, 10.0), (120, 10.0), (500, 2.5)];

/// Steady-state steps per epoch.
const STEPS: usize = 6;

struct Fixture<E> {
    engines: Vec<E>,
    states: Vec<RankState>,
    /// The MPI lanes' communicator: its mailboxes are reset after every
    /// op, as the cluster driver does.
    comm: Option<Arc<Communicator>>,
}

/// One TofuD cell: its fabric, rank map (48 ranks), the global box of
/// 10^3 sub-boxes on it, and every rank's grid graph at cutoff 2.8.
fn cell() -> (Arc<TofuNet>, RankMap, Vec<CommGraph>) {
    let grid = CellGrid::new([1, 1, 1]);
    let map = RankMap::new(grid, Placement::TopoAware);
    let rg = map.rank_grid;
    let global = Box3::from_lengths(rg.map(|n| 10.0 * f64::from(n)));
    let net = Arc::new(TofuNet::new(grid, NetParams::default()));
    let graphs = (0..map.nranks())
        .map(|r| CommGraph::grid(r, &map, &global, 2.8, PlanConfig::NEWTON))
        .collect();
    (net, map, graphs)
}

fn states(graphs: Vec<CommGraph>) -> Vec<RankState> {
    let fresh = |g| RankState::new(Atoms::default(), g);
    graphs.into_iter().map(fresh).collect()
}

fn utofu(kind: PatternKind, cfg: UtofuConfig) -> Fixture<UtofuEngine> {
    let (net, map, graphs) = cell();
    let book = AddressBook::new();
    let engines = graphs
        .iter()
        .map(|g| {
            let (net, book, node) = (net.clone(), book.clone(), map.node_of(g.me));
            UtofuEngine::new(net, book, kind, g, node, 0.8442, cfg).unwrap()
        })
        .collect();
    Fixture {
        engines,
        states: states(graphs),
        comm: None,
    }
}

fn mpi(kind: PatternKind) -> Fixture<MpiEngine> {
    let (net, map, graphs) = cell();
    let comm = Arc::new(Communicator::new(net, map.nranks(), 4));
    let engines = graphs
        .iter()
        .map(|g| MpiEngine::new(comm.clone(), kind, g).unwrap())
        .collect();
    Fixture {
        engines,
        states: states(graphs),
        comm: Some(comm),
    }
}

/// splitmix64: the seeded stream every position and value is drawn from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `per_rank` atoms drawn uniformly inside each rank's sub-box, within
/// `depth` of its low x face (a margin of 0.01 keeps the jitter from
/// carrying one out), tagged by rank.
fn stock<E>(f: &mut Fixture<E>, (per_rank, depth): (usize, f64), rng: &mut Rng) {
    for (r, st) in f.states.iter_mut().enumerate() {
        let sub = st.graph.sub;
        let extent = [depth, 10.0, 10.0];
        let pos = (0..per_rank)
            .map(|_| [0, 1, 2].map(|d| sub.lo[d] + 0.01 + (extent[d] - 0.02) * rng.unit()))
            .collect();
        st.atoms = Atoms::from_positions(pos, 1 + 10_000 * r as u64);
    }
}

fn drive<E: GhostEngine>(f: &mut Fixture<E>, op: Op) {
    for round in 0..f.engines[0].rounds(op) {
        for (e, st) in f.engines.iter_mut().zip(&mut f.states) {
            e.post(op, round, st).unwrap();
        }
        for (e, st) in f.engines.iter_mut().zip(&mut f.states) {
            e.complete(op, round, st).unwrap();
        }
    }
    if let Some(comm) = &f.comm {
        comm.reset_mailboxes();
    }
}

/// FNV-1a over the little-endian bytes of each word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64s<'a>(&mut self, vs: impl IntoIterator<Item = &'a f64>) {
        for v in vs {
            self.word(v.to_bits());
        }
    }
}

/// What a run leaves behind: digests of the clocks and stage times, of
/// the per-`(op, round)` counters and of the delivered values, and the
/// growth-event total.
#[derive(Debug, PartialEq, Eq)]
struct Bits {
    clocks: u64,
    stats: u64,
    values: u64,
    growth: u64,
}

/// Four epochs of steady-state steps over every rank of `f`.
fn run<E: GhostEngine>(mut f: Fixture<E>, seed: u64) -> Bits {
    let mut rng = Rng(seed);
    let mut values = Fnv::new();
    for epoch in EPOCHS {
        stock(&mut f, epoch, &mut rng);
        drive(&mut f, Op::Border);
        assert!(f.states.iter().all(|st| st.atoms.nghost() > 0));
        for step in 0..STEPS {
            for st in &mut f.states {
                for x in &mut st.atoms.x[..st.atoms.nlocal] {
                    x.iter_mut().for_each(|v| *v += 0.004 * (rng.unit() - 0.5));
                }
            }
            drive(&mut f, Op::Forward);
            for st in &mut f.states {
                for fi in &mut st.atoms.f {
                    *fi = [0, 1, 2].map(|_| rng.unit() - 0.5);
                }
                let n = st.atoms.ntotal();
                st.scalar.clear();
                st.scalar.extend((0..n).map(|_| rng.unit()));
            }
            drive(&mut f, Op::Reverse);
            if step % 3 > 0 {
                drive(&mut f, Op::ReverseScalar);
            }
            if step % 3 > 1 {
                drive(&mut f, Op::ForwardScalar);
            }
            for st in &f.states {
                let a = &st.atoms;
                values.f64s(a.x[a.nlocal..].as_flattened());
                values.f64s(a.f[..a.nlocal].as_flattened());
                values.f64s(&st.scalar);
            }
        }
    }
    let (mut clocks, mut stats, mut growth) = (Fnv::new(), Fnv::new(), 0);
    for st in &mut f.states {
        clocks.word(st.clock.to_bits());
        clocks.f64s(st.stages.buckets_mut().map(|b| &*b));
        for op in Op::ALL {
            for s in st.stats.rounds_of(op) {
                let CommStats {
                    messages,
                    bytes,
                    max_msg_bytes,
                    growth_events,
                    retries,
                    fallback_sends,
                    dup_drops,
                    overwrites,
                    bytes_copied,
                } = *s;
                growth += growth_events;
                for w in [
                    messages,
                    bytes,
                    max_msg_bytes,
                    growth_events,
                    retries,
                    fallback_sends,
                    dup_drops,
                    overwrites,
                    bytes_copied,
                ] {
                    stats.word(w);
                }
            }
        }
    }
    Bits {
        clocks: clocks.0,
        stats: stats.0,
        values: values.0,
        growth,
    }
}

/// A baseline (undersized, growable) configuration over four round-robin
/// slots: the one shape whose buffers grow one slot at a time.
fn baseline_four_slots() -> UtofuConfig {
    UtofuConfig {
        slots: 4,
        ..UtofuConfig::single6()
    }
}

fn bits(clocks: u64, stats: u64, values: u64, growth: u64) -> Bits {
    Bits {
        clocks,
        stats,
        values,
        growth,
    }
}

#[test]
fn steady_state_ghost_ops_keep_their_recorded_bits() {
    let p2p = PatternKind::P2p;
    let cases: [(&str, Bits, Bits); 7] = [
        (
            "coarse4",
            run(utofu(p2p, UtofuConfig::coarse4()), 1),
            bits(
                0xf68e_401b_ffcb_dc82,
                0xe71e_c7de_6cc7_a7f5,
                0x1ec8_f89e_fabf_f481,
                480,
            ),
        ),
        (
            "single6",
            run(utofu(p2p, UtofuConfig::single6()), 2),
            bits(
                0xc18a_3be8_715d_0a9c,
                0xe501_d424_e975_b7bf,
                0x7153_ccdf_5e2e_6e2e,
                478,
            ),
        ),
        (
            "pool6",
            run(utofu(p2p, UtofuConfig::pool6()), 3),
            bits(
                0xe0d1_d3a4_a936_e8a7,
                0xcd69_666b_1300_9a7f,
                0x5b26_aa4c_7ba6_3da8,
                0,
            ),
        ),
        (
            "single6 over 4 slots",
            run(utofu(p2p, baseline_four_slots()), 4),
            bits(
                0x6a3c_1e68_6e04_d02f,
                0x27e2_bc9c_4598_1af8,
                0xa0a3_548c_f996_e59f,
                1906,
            ),
        ),
        (
            "staged coarse4",
            run(utofu(PatternKind::Staged, UtofuConfig::coarse4()), 5),
            bits(
                0x2c80_0e06_2a12_f9be,
                0xe759_bb2d_082b_d57e,
                0x73b6_5b70_e10b_d912,
                0,
            ),
        ),
        (
            "mpi p2p",
            run(mpi(p2p), 6),
            bits(
                0x11eb_d2cd_ca11_20c1,
                0x0948_fe57_d2be_7a31,
                0xb28f_47df_8506_3d75,
                0,
            ),
        ),
        (
            "mpi staged",
            run(mpi(PatternKind::Staged), 7),
            bits(
                0xe478_0a46_8adf_896a,
                0xc09e_47ae_5997_4fe5,
                0x3909_3ef9_9c82_43cd,
                0,
            ),
        ),
    ];
    let mut failed = Vec::new();
    for (label, got, want) in &cases {
        let Bits {
            clocks,
            stats,
            values,
            growth,
        } = got;
        eprintln!("{label}: {clocks:#018x} {stats:#018x} {values:#018x} growth {growth}");
        if got != want {
            failed.push(*label);
        }
    }
    assert!(failed.is_empty(), "bits moved: {failed:?}");
}
