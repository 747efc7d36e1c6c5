//! The steady-state ghost ops, Border and Exchange allocate nothing on
//! either transport.
//!
//! Channels are resolved at the first post and the per-op plans at Border;
//! after that a Forward / Reverse / ForwardScalar / ReverseScalar round —
//! `post` + `complete` over every rank — is "write into the landing range"
//! and "take, dedupe, unpack in place" on reused buffers, under either
//! pattern. Border is the same once the send lists and the atoms have the
//! capacity the last one needed: records streamed from the send lists
//! straight into the peers' landing slots, ghosts appended from the landed
//! bytes, plans rebuilt into their own vectors. A counting global
//! allocator holds the uTofu engine to that: zero allocations per round
//! under pre-registration, and without it only in rounds that grew a
//! buffer. The MPI engine writes every hop straight into the receiver's
//! mailbox and delivers each message from the mailbox bytes it landed in.
//! Exchange is a send-list op like Border: warmed rounds that carry atoms
//! across a face and back allocate nothing on either transport.
//!
//! One `#[test]` only: the counter is per thread, but the fixture is not
//! cheap and the configurations share it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tofumd_core::engine::{GhostEngine, Op, RankState};
use tofumd_core::topo_map::{Placement, RankMap};
use tofumd_core::{
    AddressBook, CommGraph, MpiEngine, PatternKind, PlanConfig, UtofuConfig, UtofuEngine,
};
use tofumd_md::atom::Atoms;
use tofumd_md::domain::RcbDecomposition;
use tofumd_md::region::Box3;
use tofumd_mpi::Communicator;
use tofumd_tofu::{CellGrid, NetParams, TofuNet};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a const-initialized, destructor-free thread-local counter bump, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const GHOST_OPS: [Op; 4] = [
    Op::Forward,
    Op::Reverse,
    Op::ForwardScalar,
    Op::ReverseScalar,
];

struct Fixture<E> {
    engines: Vec<E>,
    states: Vec<RankState>,
    /// The MPI lanes' communicator: its mailboxes are reset after every
    /// op, as the cluster driver does.
    comm: Option<Arc<Communicator>>,
}

/// One TofuD cell: its fabric, its rank map (48 ranks) and the global box
/// of 10^3 sub-boxes on it.
fn cell() -> (Arc<TofuNet>, RankMap, Box3) {
    let grid = CellGrid::new([1, 1, 1]);
    let map = RankMap::new(grid, Placement::TopoAware);
    let rg = map.rank_grid;
    let global = Box3::from_lengths([
        10.0 * f64::from(rg[0]),
        10.0 * f64::from(rg[1]),
        10.0 * f64::from(rg[2]),
    ]);
    let net = Arc::new(TofuNet::new(grid, NetParams::default()));
    (net, map, global)
}

fn grid_graph(map: &RankMap, global: &Box3, r: usize) -> CommGraph {
    CommGraph::grid(r, map, global, 2.8, PlanConfig::NEWTON)
}

/// Every rank of the cell built with `cfg` under the p2p pattern.
fn fixture(cfg: UtofuConfig) -> Fixture<UtofuEngine> {
    fixture_of(PatternKind::P2p, cfg)
}

fn fixture_of(kind: PatternKind, cfg: UtofuConfig) -> Fixture<UtofuEngine> {
    let (net, map, global) = cell();
    let book = AddressBook::new();
    let (mut engines, mut states) = (Vec::new(), Vec::new());
    for r in 0..map.nranks() {
        let graph = grid_graph(&map, &global, r);
        let node = map.node_of(r);
        let (net, book) = (net.clone(), book.clone());
        engines.push(UtofuEngine::new(net, book, kind, &graph, node, 0.8442, cfg).unwrap());
        states.push(RankState::new(Atoms::default(), graph));
    }
    Fixture {
        engines,
        states,
        comm: None,
    }
}

/// Every rank of the cell on the MPI transport under `kind`.
fn mpi_fixture(kind: PatternKind) -> Fixture<MpiEngine> {
    let (net, map, global) = cell();
    let graphs = (0..map.nranks()).map(|r| grid_graph(&map, &global, r));
    mpi_over(net, &map, graphs.collect(), kind)
}

fn mpi_over(
    net: Arc<TofuNet>,
    map: &RankMap,
    graphs: Vec<CommGraph>,
    kind: PatternKind,
) -> Fixture<MpiEngine> {
    let comm = Arc::new(Communicator::new(net, map.nranks(), 4));
    let engines = graphs
        .iter()
        .map(|g| MpiEngine::new(comm.clone(), kind, g).unwrap())
        .collect();
    let states = graphs
        .into_iter()
        .map(|g| RankState::new(Atoms::default(), g))
        .collect();
    Fixture {
        engines,
        states,
        comm: Some(comm),
    }
}

/// Four ranks of the cell walking the irregular graphs of an RCB cut of
/// 600 scattered atoms, each holding the atoms it owns.
fn mpi_rcb_fixture() -> Fixture<MpiEngine> {
    let (net, map, _) = cell();
    let pts: Vec<[f64; 3]> = (0..600u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let u = |s: u32| ((h >> s) & 0xffff) as f64 / 65536.0;
            [u(0) * 20.0, u(16) * 16.0, u(32) * 12.0]
        })
        .collect();
    let global = Box3::from_lengths([20.0, 16.0, 12.0]);
    let rcb = Arc::new(RcbDecomposition::build(4, &pts, &global));
    let graphs = (0..4).map(|r| CommGraph::from_rcb(r, &rcb, &map, 2.5));
    let mut f = mpi_over(net, &map, graphs.collect(), PatternKind::P2p);
    for (r, st) in f.states.iter_mut().enumerate() {
        let mine: Vec<[f64; 3]> = pts
            .iter()
            .copied()
            .filter(|x| st.graph.sub.contains(x))
            .collect();
        st.atoms = Atoms::from_positions(mine, 1 + 10_000 * r as u64);
    }
    f
}

/// `per_rank` atoms on a diagonal through each sub-box: its ends sit in
/// corner regions, so every rank has border atoms on many edges.
fn stock<E>(f: &mut Fixture<E>, per_rank: usize) {
    for (r, st) in f.states.iter_mut().enumerate() {
        let sub = st.graph.sub;
        let pos = (0..per_rank)
            .map(|i| {
                let t = (i as f64 + 0.5) / per_rank as f64;
                [
                    sub.lo[0] + 10.0 * t,
                    sub.lo[1] + 10.0 * t,
                    sub.lo[2] + 10.0 * t,
                ]
            })
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

fn border<E: GhostEngine>(f: &mut Fixture<E>) {
    drive(f, Op::Border);
    for st in &mut f.states {
        let n = st.atoms.ntotal();
        st.scalar.clear();
        st.scalar.resize(n, 0.25);
    }
}

/// Buffers the engines have grown so far.
fn grown(f: &Fixture<UtofuEngine>) -> u64 {
    f.states
        .iter()
        .map(|st| st.stats.total().growth_events)
        .sum()
}

/// What running `ops` over all ranks allocated and how many buffers it
/// grew.
fn measure(f: &mut Fixture<UtofuEngine>, ops: &[Op]) -> (u64, u64) {
    let (g0, a0) = (grown(f), allocs());
    for &op in ops {
        drive(f, op);
    }
    (allocs() - a0, grown(f) - g0)
}

/// One round of the four ghost ops over all ranks.
fn round(f: &mut Fixture<UtofuEngine>) -> (u64, u64) {
    measure(f, &GHOST_OPS)
}

/// A rebuild on an unchanged atom set: Border, then the ghost ops, each
/// measured on its own.
fn rebuild(f: &mut Fixture<UtofuEngine>) -> [(u64, u64); 2] {
    let b = measure(f, &[Op::Border]);
    [b, round(f)]
}

/// Rebuilds until every receive slot has held every op's frame once.
fn warm(f: &mut Fixture<UtofuEngine>) {
    for _ in 0..UtofuConfig::pool6().slots {
        rebuild(f);
    }
}

/// Allocations per rank and round of `op` on the MPI transport.
fn per_rank_round(f: &mut Fixture<MpiEngine>, op: Op) -> f64 {
    let a0 = allocs();
    drive(f, op);
    let rounds = f.engines[0].rounds(op) * f.engines.len();
    (allocs() - a0) as f64 / rounds as f64
}

#[test]
fn steady_state_ghost_ops_do_not_allocate() {
    // The counter sees this thread's allocations.
    let before = allocs();
    drop(std::hint::black_box(vec![0u8; 64]));
    assert_eq!(allocs(), before + 1);

    // Pre-registered: never, once warm.
    let mut f = fixture(UtofuConfig::pool6());
    stock(&mut f, 12);
    border(&mut f);
    assert!(f.states.iter().all(|st| st.atoms.nghost() > 0));
    round(&mut f);
    round(&mut f);
    for r in 0..20 {
        assert_eq!(round(&mut f), (0, 0), "pool6 round {r}");
    }
    // Border itself, on the same atoms: send lists, records, ghosts and
    // plans all land in vectors the last Border grew. A rebuild shifts
    // which of the 4 round-robin receive slots each op lands in, so the
    // slots' host backing reaches its high-water mark over one rotation.
    warm(&mut f);
    for r in 0..5 {
        assert_eq!(rebuild(&mut f), [(0, 0); 2], "pool6 rebuild {r}");
    }
    // A new epoch re-plans at Border into the same plan vectors; its
    // denser lists may grow them once, and then it is just as quiet.
    stock(&mut f, 20);
    border(&mut f);
    round(&mut f);
    for r in 0..5 {
        assert_eq!(round(&mut f), (0, 0), "pool6 second epoch, round {r}");
    }
    warm(&mut f);
    for r in 0..3 {
        assert_eq!(
            rebuild(&mut f),
            [(0, 0); 2],
            "pool6 second epoch, rebuild {r}"
        );
    }
    assert_eq!(exchange_rounds(&mut f), 0.0, "pool6 Exchange");

    // Dynamic buffers: only a round that grows one may allocate (the
    // re-registration itself), and the grown size sticks.
    let mut f = fixture(UtofuConfig::coarse4());
    stock(&mut f, 12);
    border(&mut f);
    round(&mut f);
    round(&mut f);
    for r in 0..20 {
        assert_eq!(round(&mut f), (0, 0), "coarse4 round {r}");
    }
    for r in 0..5 {
        assert_eq!(rebuild(&mut f), [(0, 0); 2], "coarse4 rebuild {r}");
    }
    // A much denser epoch outgrows the owner-side buffers, which Border
    // does not touch: the first Reverse after it must grow them.
    stock(&mut f, 400);
    border(&mut f);
    let rounds: Vec<_> = (0..6).map(|_| round(&mut f)).collect();
    assert!(rounds[0].1 > 0, "dense reverse must grow: {rounds:?}");
    for (r, &(allocated, grown)) in rounds.iter().enumerate() {
        assert!(
            allocated == 0 || grown > 0,
            "coarse4 dense round {r} allocated {allocated} without growing"
        );
    }
    assert_eq!(rounds[2..], [(0, 0); 4], "grown sizes are cached");
    // Border's records outweigh the ghost ops' values in the same send
    // regions: the first dense rebuild backs them further (no modeled
    // growth), and the rebuilds after it are quiet.
    rebuild(&mut f);
    for r in 0..3 {
        assert_eq!(rebuild(&mut f), [(0, 0); 2], "coarse4 dense rebuild {r}");
    }
    assert_eq!(exchange_rounds(&mut f), 0.0, "coarse4 Exchange");

    // The staged pattern over the same engine: three sequential rounds per
    // op on the face buffers, just as quiet once those have grown.
    let mut f = fixture_of(PatternKind::Staged, UtofuConfig::coarse4());
    stock(&mut f, 12);
    border(&mut f);
    round(&mut f);
    round(&mut f);
    for r in 0..20 {
        assert_eq!(round(&mut f), (0, 0), "staged round {r}");
    }
    warm(&mut f);
    for r in 0..5 {
        assert_eq!(rebuild(&mut f), [(0, 0); 2], "staged rebuild {r}");
    }
    assert_eq!(exchange_rounds(&mut f), 0.0, "staged Exchange");

    // MPI: the send vector of a rank's round, and nothing per message or
    // per record — on the grid under both patterns and on an irregular
    // graph. Warm-up rounds size the mailboxes, the MRQ and the atoms.
    let mpi = [
        ("staged", mpi_fixture(PatternKind::Staged)),
        ("p2p", mpi_fixture(PatternKind::P2p)),
    ];
    for (label, mut f) in mpi {
        stock(&mut f, 12);
        mpi_steady(label, &mut f);
    }
    let mut f = mpi_rcb_fixture();
    mpi_steady("p2p on rcb", &mut f);
}

/// Warm `f` up, then hold each MPI op to no allocation per rank and
/// round (one for a ghost op and two for Border while every post
/// allocated its send vector).
fn mpi_steady(label: &str, f: &mut Fixture<MpiEngine>) {
    for _ in 0..2 {
        border(f);
        for op in GHOST_OPS {
            drive(f, op);
        }
    }
    assert!(f.states.iter().all(|st| st.atoms.nghost() > 0), "{label}");
    for r in 0..5 {
        let border = per_rank_round(f, Op::Border);
        assert_eq!(border, 0.0, "{label} Border, step {r}: per rank");
        for op in GHOST_OPS {
            let got = per_rank_round(f, op);
            assert_eq!(got, 0.0, "{label} {op:?}, step {r}: per rank");
        }
    }
    let exchange = exchange_rounds(f);
    assert_eq!(exchange, 0.0, "{label} Exchange: per rank");
}

/// Move every rank's locals that sit within 1.0 of its low x face (`down`)
/// or its high one 0.75 further that way, most of them out of the sub-box.
/// The ghosts go first, as the driver drops them before Exchange.
fn push_across<E>(f: &mut Fixture<E>, down: bool) {
    for st in &mut f.states {
        st.atoms.clear_ghosts();
        let (lo, hi) = (st.graph.sub.lo[0], st.graph.sub.hi[0]);
        for x in &mut st.atoms.x {
            if down && x[0] < lo + 1.0 {
                x[0] -= 0.75;
            } else if !down && x[0] >= hi - 1.0 {
                x[0] += 0.75;
            }
        }
    }
}

/// Exchange rounds that carry atoms across the x faces and back: eight to
/// warm up, then the allocations per rank and op round of six more. Every
/// round must move an atom.
fn exchange_rounds<E: GhostEngine>(f: &mut Fixture<E>) -> f64 {
    let locals = |f: &Fixture<E>| -> Vec<Vec<u64>> {
        let tags = |st: &RankState| st.atoms.tag[..st.atoms.nlocal].to_vec();
        f.states.iter().map(tags).collect()
    };
    let mut cross = |k: usize| {
        let before = locals(f);
        push_across(f, k.is_multiple_of(2));
        let a0 = allocs();
        drive(f, Op::Exchange);
        let spent = allocs() - a0;
        assert_ne!(locals(f), before, "Exchange round {k} moved no atom");
        spent
    };
    let (warm, measured) = (8, 6);
    (0..warm).for_each(|k| {
        cross(k);
    });
    let spent: u64 = (warm..warm + measured).map(&mut cross).sum();
    let rounds = f.engines[0].rounds(Op::Exchange) * f.engines.len() * measured;
    spent as f64 / rounds as f64
}
