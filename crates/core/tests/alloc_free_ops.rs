//! The steady-state ghost ops of the uTofu engine allocate nothing.
//!
//! Channels are resolved at the first post and the per-op plans at Border;
//! after that a Forward / Reverse / ForwardScalar / ReverseScalar round —
//! `post` + `complete` over every rank — is "frame in place, put" and
//! "take, dedupe, unpack in place" on reused buffers, under either
//! pattern. A counting global allocator holds the engine to that: zero
//! allocations per round under pre-registration, and without it only in
//! rounds that grew a buffer.
//!
//! One `#[test]` only: the counter is per thread, but the fixture is not
//! cheap and the configurations share it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tofumd_core::engine::{GhostEngine, Op, RankState};
use tofumd_core::plan::{CommPlan, PlanConfig};
use tofumd_core::topo_map::{Placement, RankMap};
use tofumd_core::{AddressBook, CommGraph, PatternKind, UtofuConfig, UtofuEngine};
use tofumd_md::atom::Atoms;
use tofumd_md::region::Box3;
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

struct Fixture {
    engines: Vec<UtofuEngine>,
    states: Vec<RankState>,
}

/// One TofuD cell (48 ranks, 10^3 sub-boxes), every rank built with `cfg`
/// under the p2p pattern.
fn fixture(cfg: UtofuConfig) -> Fixture {
    fixture_of(PatternKind::P2p, cfg)
}

fn fixture_of(kind: PatternKind, cfg: UtofuConfig) -> Fixture {
    let grid = CellGrid::new([1, 1, 1]);
    let map = RankMap::new(grid, Placement::TopoAware);
    let rg = map.rank_grid;
    let global = Box3::from_lengths([
        10.0 * f64::from(rg[0]),
        10.0 * f64::from(rg[1]),
        10.0 * f64::from(rg[2]),
    ]);
    let net = Arc::new(TofuNet::new(grid, NetParams::default()));
    let book = AddressBook::new();
    let (mut engines, mut states) = (Vec::new(), Vec::new());
    for r in 0..map.nranks() {
        let plan = CommPlan::build(r, &map, &global, 2.8, PlanConfig::NEWTON);
        let graph = CommGraph::from_grid(plan);
        let node = map.node_of(r);
        let (net, book) = (net.clone(), book.clone());
        engines.push(UtofuEngine::new(net, book, kind, &graph, node, 0.8442, cfg).unwrap());
        states.push(RankState::new(Atoms::default(), graph));
    }
    Fixture { engines, states }
}

/// `per_rank` atoms on a diagonal through each sub-box: its ends sit in
/// corner regions, so every rank has border atoms on many edges.
fn stock(f: &mut Fixture, per_rank: usize) {
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

fn drive(f: &mut Fixture, op: Op) {
    for round in 0..f.engines[0].rounds(op) {
        for (e, st) in f.engines.iter_mut().zip(&mut f.states) {
            e.post(op, round, st).unwrap();
        }
        for (e, st) in f.engines.iter_mut().zip(&mut f.states) {
            e.complete(op, round, st).unwrap();
        }
    }
}

fn border(f: &mut Fixture) {
    drive(f, Op::Border);
    for st in &mut f.states {
        let n = st.atoms.ntotal();
        st.scalar.clear();
        st.scalar.resize(n, 0.25);
    }
}

/// One round of the four ghost ops over all ranks; returns what it
/// allocated and how many buffers it grew.
fn round(f: &mut Fixture) -> (u64, u64) {
    let grown = |f: &Fixture| {
        f.engines
            .iter()
            .map(UtofuEngine::growth_events)
            .sum::<u64>()
    };
    let (a0, g0) = (allocs(), grown(f));
    for op in GHOST_OPS {
        drive(f, op);
    }
    (allocs() - a0, grown(f) - g0)
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
    // A new epoch re-plans (allocating, at Border) and is then just as quiet.
    stock(&mut f, 20);
    border(&mut f);
    round(&mut f);
    for r in 0..5 {
        assert_eq!(round(&mut f), (0, 0), "pool6 second epoch, round {r}");
    }

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
}
