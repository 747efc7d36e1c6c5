//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use tofumd::comm::engine::{GhostOp, RankState};
use tofumd::comm::ghost::GhostLayout;
use tofumd::comm::sf::{CommGraph, PlanConfig};
use tofumd::comm::topo_map::{Placement, RankMap};
use tofumd::comm::wire::{self, F64Sink};
use tofumd::md::domain::{neighbor_offsets, NeighborOffset, RcbDecomposition};
use tofumd::md::potential::eam::EamParams;
use tofumd::md::potential::spline::Spline;
use tofumd::md::{Atoms, Box3};
use tofumd::tofu::CellGrid;

proptest! {
    /// PBC wrap always lands inside the box and preserves the point modulo
    /// whole box lengths.
    #[test]
    fn wrap_is_a_projection(
        x in -100.0f64..100.0, y in -100.0f64..100.0, z in -100.0f64..100.0,
        lx in 1.0f64..20.0, ly in 1.0f64..20.0, lz in 1.0f64..20.0,
    ) {
        let b = Box3::from_lengths([lx, ly, lz]);
        let (w, img) = b.wrap([x, y, z]);
        prop_assert!(b.contains(&w));
        // Wrapping again is the identity.
        let (w2, img2) = b.wrap(w);
        prop_assert_eq!(w, w2);
        prop_assert_eq!(img2, [0, 0, 0]);
        // Unwrapping reproduces the original point.
        let l = b.lengths();
        for (d, &len) in l.iter().enumerate() {
            let orig = [x, y, z][d];
            let back = w[d] + f64::from(img[d]) * len;
            prop_assert!((back - orig).abs() < 1e-9 * (1.0 + orig.abs()));
        }
    }

    /// Minimum-image displacement is never longer than half the diagonal.
    #[test]
    fn minimum_image_is_minimal(
        ax in 0.0f64..10.0, ay in 0.0f64..10.0, az in 0.0f64..10.0,
        bx in 0.0f64..10.0, by in 0.0f64..10.0, bz in 0.0f64..10.0,
    ) {
        let b = Box3::from_lengths([10.0; 3]);
        let dx = b.minimum_image(&[ax, ay, az], &[bx, by, bz]);
        for v in dx {
            prop_assert!(v.abs() <= 5.0 + 1e-12);
        }
    }

    /// Torus hop metric: symmetric, zero iff equal, triangle inequality.
    #[test]
    fn hops_is_a_metric(
        seed in 0usize..1000,
    ) {
        let grid = CellGrid::new([3, 2, 2]);
        let n = grid.node_count();
        let a = grid.mesh_of_id(seed % n);
        let b = grid.mesh_of_id((seed * 7 + 3) % n);
        let c = grid.mesh_of_id((seed * 13 + 5) % n);
        prop_assert_eq!(grid.hops(a, b), grid.hops(b, a));
        prop_assert_eq!(grid.hops(a, a), 0);
        prop_assert!(grid.hops(a, c) <= grid.hops(a, b) + grid.hops(b, c));
    }

    /// Wire encoding round-trips arbitrary payloads, with and without the
    /// message-combine frame.
    #[test]
    fn wire_roundtrip(values in prop::collection::vec(-1e12f64..1e12, 0..200)) {
        prop_assert_eq!(wire::decode_f64s(&wire::encode_f64s(&values)), values.clone());
        prop_assert_eq!(wire::parse_combined(&wire::frame_combined(&values)), values);
    }

    /// Natural cubic splines reproduce smooth functions and their
    /// derivatives to interpolation accuracy.
    #[test]
    fn spline_accuracy(a in 0.5f64..3.0, b in -2.0f64..2.0) {
        let f = |x: f64| (a * x).sin() + b * x * x;
        let s = Spline::tabulate(0.0, 0.01, 601, f);
        for i in 0..40 {
            let x = 0.3 + i as f64 * 0.13;
            prop_assert!((s.eval(x) - f(x)).abs() < 1e-5);
        }
    }

    /// The EAM cutoff switch keeps rho and phi exactly zero beyond the
    /// cutoff and smooth below it.
    #[test]
    fn eam_forms_vanish_at_cutoff(r in 0.6f64..8.0) {
        let p = EamParams::cu();
        if r >= p.cutoff {
            prop_assert_eq!(p.rho(r), 0.0);
            prop_assert_eq!(p.phi(r), 0.0);
        } else {
            prop_assert!(p.rho(r) >= 0.0);
            prop_assert!(p.rho(r).is_finite() && p.phi(r).is_finite());
        }
    }

    /// Border selection through the ghost layout: every record carries
    /// the tag and the edge-shifted position, and the forward op then packs
    /// exactly the atoms Border selected.
    #[test]
    fn p2p_forward_roundtrip(
        atoms in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0), 1..60),
    ) {
        let grid = CellGrid::from_node_mesh([8, 12, 8]).unwrap();
        let map = RankMap::new(grid, Placement::TopoAware);
        let rg = map.rank_grid;
        let global = Box3::from_lengths([
            10.0 * f64::from(rg[0]),
            10.0 * f64::from(rg[1]),
            10.0 * f64::from(rg[2]),
        ]);
        let graph = CommGraph::grid(0, &map, &global, 2.5, PlanConfig::NEWTON);
        let pos: Vec<[f64; 3]> = atoms.iter().map(|&(x, y, z)| [x, y, z]).collect();
        let mut st = RankState::new(Atoms::from_positions(pos, 1), graph);
        let sel = st.graph.selector();
        let mut g = GhostLayout::default();
        g.reset(&mut st.atoms, st.graph.send.iter().map(|e| e.shift));
        g.select_border(&st, &sel);
        let payloads: Vec<Vec<f64>> = (0..st.graph.send.len())
            .map(|k| {
                let mut records: Vec<f64> = Vec::new();
                g.pack_border(k, &st, &mut records);
                records
            })
            .collect();
        // Feed the payloads back as if we were our own neighbor: parse and
        // confirm every record preserves the tag and the shifted position.
        for (k, payload) in payloads.iter().enumerate() {
            let shift = st.graph.send[k].shift;
            for (tag, _typ, x) in wire::parse_border_records(payload) {
                let i = (tag - 1) as usize;
                for d in 0..3 {
                    prop_assert!((x[d] - (st.atoms.x[i][d] + shift[d])).abs() < 1e-12);
                }
            }
        }
        // The forward op packs the positions of exactly those atoms.
        for (k, payload) in payloads.iter().enumerate() {
            let mut fwd: Vec<f64> = Vec::new();
            g.pack(GhostOp::Forward, k, &st, &mut fwd);
            prop_assert_eq!(fwd.len(), g.len(GhostOp::Forward, k));
            let border_x: Vec<f64> = wire::parse_border_records(payload)
                .iter()
                .flat_map(|r| r.2)
                .collect();
            prop_assert_eq!(fwd, border_x);
        }
    }

    /// Every neighbor-offset set splits face/edge/corner counts correctly
    /// for any shell count.
    #[test]
    fn offset_counts(shells in 1usize..4) {
        let full = neighbor_offsets(shells, false);
        let half = neighbor_offsets(shells, true);
        let s = 2 * shells + 1;
        prop_assert_eq!(full.len(), s * s * s - 1);
        prop_assert_eq!(half.len(), (s * s * s - 1) / 2);
        // Half + opposites = full.
        for o in &half {
            prop_assert!(full.contains(o));
            prop_assert!(full.contains(&o.opposite()));
            prop_assert!(!half.contains(&o.opposite()));
        }
    }
}

proptest! {
    /// Cell-binned neighbor lists agree with an O(N^2) brute-force
    /// reference for arbitrary atom clouds and cutoffs.
    #[test]
    fn neighbor_list_matches_brute_force(
        atoms in prop::collection::vec((0.5f64..9.5, 0.5f64..9.5, 0.5f64..9.5), 2..80),
        cutoff in 0.8f64..3.0,
    ) {
        use tofumd::md::neighbor::{ListKind, NeighborList};
        let pos: Vec<[f64; 3]> = atoms.iter().map(|&(x, y, z)| [x, y, z]).collect();
        let a = tofumd::md::Atoms::from_positions(pos.clone(), 1);
        let list = NeighborList::build(&a, [0.0; 3], [10.0; 3], ListKind::Full, cutoff, 0.0);
        let c2 = cutoff * cutoff;
        for i in 0..pos.len() {
            let mut expect: Vec<u32> = (0..pos.len() as u32)
                .filter(|&j| {
                    let j = j as usize;
                    if j == i {
                        return false;
                    }
                    let d2: f64 = (0..3).map(|d| (pos[i][d] - pos[j][d]).powi(2)).sum();
                    d2 < c2
                })
                .collect();
            let mut got = list.neighbors(i).to_vec();
            expect.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, expect, "atom {}", i);
        }
    }

    /// The half-Newton list is exactly half of the full list's pairs when
    /// there are no ghosts.
    #[test]
    fn half_list_is_half_of_full(
        atoms in prop::collection::vec((0.5f64..9.5, 0.5f64..9.5, 0.5f64..9.5), 2..60),
    ) {
        use tofumd::md::neighbor::{ListKind, NeighborList};
        let pos: Vec<[f64; 3]> = atoms.iter().map(|&(x, y, z)| [x, y, z]).collect();
        let a = tofumd::md::Atoms::from_positions(pos, 1);
        let full = NeighborList::build(&a, [0.0; 3], [10.0; 3], ListKind::Full, 2.0, 0.0);
        let half = NeighborList::build(&a, [0.0; 3], [10.0; 3], ListKind::HalfNewton, 2.0, 0.0);
        prop_assert_eq!(full.npairs(), 2 * half.npairs());
    }

    /// Slab volumes are monotone in the cutoff and bounded by the sub-box.
    #[test]
    fn slab_volumes_are_sane(r1 in 0.5f64..4.0, r2 in 0.5f64..4.0) {
        let (lo, hi) = if r1 < r2 { (r1, r2) } else { (r2, r1) };
        let grid = CellGrid::from_node_mesh([8, 12, 8]).unwrap();
        let map = RankMap::new(grid, Placement::TopoAware);
        let rg = map.rank_grid;
        let global = Box3::from_lengths([
            10.0 * f64::from(rg[0]),
            10.0 * f64::from(rg[1]),
            10.0 * f64::from(rg[2]),
        ]);
        let g_lo = CommGraph::grid(0, &map, &global, lo, PlanConfig::NEWTON);
        let g_hi = CommGraph::grid(0, &map, &global, hi, PlanConfig::NEWTON);
        let v = |g: &CommGraph| -> f64 { g.recv.iter().map(|e| g.slab_volume(e.offset)).sum() };
        prop_assert!(v(&g_hi) >= v(&g_lo) - 1e-12);
        // Face slab never exceeds the sub-box volume at 1 shell.
        for e in &g_lo.recv {
            prop_assert!(g_lo.slab_volume(e.offset) <= g_lo.sub.volume() + 1e-9);
        }
    }
}

proptest! {
    /// Exchange records (packed tag/type + x + v) survive the wire intact,
    /// including through the combined frame.
    #[test]
    fn exchange_records_roundtrip(
        records in prop::collection::vec(
            ((0u64..(1 << 48)), (0u32..32),
             prop::array::uniform3(-1e6f64..1e6), prop::array::uniform3(-1e3f64..1e3)),
            0..40,
        ),
    ) {
        let mut payload: Vec<f64> = Vec::new();
        for (tag, typ, x, v) in &records {
            wire::put_record(&mut payload, *tag, *typ, &[*x, *v].concat());
        }
        prop_assert_eq!(payload.len(), records.len() * wire::EXCHANGE_RECORD_F64S);
        prop_assert_eq!(wire::parse_exchange_records(&payload), records.clone());
        let framed = wire::frame_combined(&payload);
        prop_assert_eq!(framed.len(), wire::combined_size(payload.len()));
        prop_assert_eq!(wire::parse_exchange_records(&wire::parse_combined(&framed)), records);
    }

    /// Border records (packed tag/type + x) survive the wire intact,
    /// including through the combined frame.
    #[test]
    fn border_records_roundtrip(
        records in prop::collection::vec(
            ((0u64..(1 << 48)), (0u32..32), prop::array::uniform3(-1e6f64..1e6)),
            0..40,
        ),
    ) {
        let mut payload: Vec<f64> = Vec::new();
        for (tag, typ, x) in &records {
            wire::put_record(&mut payload, *tag, *typ, x);
        }
        prop_assert_eq!(payload.len(), records.len() * wire::BORDER_RECORD_F64S);
        prop_assert_eq!(wire::parse_border_records(&payload), records.clone());
        let framed = wire::frame_combined(&payload);
        prop_assert_eq!(wire::parse_border_records(&wire::parse_combined(&framed)), records);
    }

    /// The combine frame is exactly self-describing: its length header
    /// matches `combined_size`, and parsing ignores trailing slack the way
    /// a fixed remote buffer delivers it.
    #[test]
    fn combined_frame_tolerates_oversized_buffers(
        values in prop::collection::vec(-1e12f64..1e12, 0..64),
        slack in 0usize..64,
    ) {
        let mut framed = wire::frame_combined(&values).to_vec();
        prop_assert_eq!(framed.len(), wire::combined_size(values.len()));
        framed.extend(std::iter::repeat_n(0xAAu8, slack * 8));
        prop_assert_eq!(wire::parse_combined(&framed), values);
    }

    /// The zero-copy writer produces byte-for-byte the staged frame on any
    /// payload, in any oversized registered region, and the frame parses
    /// back to the same values — so the in-place wire path and the staged
    /// path are interchangeable on the receiver.
    #[test]
    fn zero_copy_writer_matches_staged_frame(
        values in prop::collection::vec(-1e12f64..1e12, 0..200),
        slack in 0usize..64,
    ) {
        let staged = wire::frame_combined(&values);
        // A registered region is at least frame-sized, usually bigger.
        let mut region = vec![0xAAu8; wire::combined_size(values.len()) + slack * 8];
        let written = {
            let mut w = wire::CombinedWriter::new(&mut region);
            // Mixed single-value and slice pushes, as the pack sinks emit.
            for chunk in values.chunks(3) {
                match chunk {
                    [a] => w.put_f64(*a),
                    rest => w.put_f64s(rest),
                }
            }
            w.finish()
        };
        prop_assert_eq!(written, staged.len());
        prop_assert_eq!(&region[..written], &staged[..]);
        prop_assert_eq!(wire::parse_combined(&region), values);
    }
}

/// The wire edge cases a shrinking proptest run may never pin exactly:
/// the empty payload and the tag/type budget boundaries.
#[test]
fn wire_edge_cases_exact() {
    assert_eq!(wire::parse_exchange_records(&[]), vec![]);
    assert_eq!(wire::parse_border_records(&[]), vec![]);
    assert_eq!(
        wire::parse_combined(&wire::frame_combined(&[])),
        Vec::<f64>::new()
    );
    let max_tag = (1u64 << 48) - 1;
    let max_typ = 31u32;
    assert_eq!(
        wire::unpack_id(wire::pack_id(max_tag, max_typ)),
        (max_tag, max_typ)
    );
    assert_eq!(wire::unpack_id(wire::pack_id(0, 0)), (0, 0));
    let mut payload: Vec<f64> = Vec::new();
    let body = [f64::MIN, 0.0, f64::MAX, 0.0, 0.0, 0.0];
    wire::put_record(&mut payload, max_tag, max_typ, &body);
    let back = wire::parse_exchange_records(&payload);
    assert_eq!(
        back,
        vec![(max_tag, max_typ, [f64::MIN, 0.0, f64::MAX], [0.0; 3])]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Star-forest invariants over random folded node meshes: the paper's
    /// 13/26/62/124-neighbor exchanges are four instances of one graph
    /// family, and the grid pairing is index-symmetric on every mesh.
    #[test]
    fn graph_invariants_on_random_meshes(
        cx in 1u32..3, cy in 1u32..3, cz in 1u32..3,
        pat in 0usize..3,
        shells in 1usize..3,
        half in any::<bool>(),
        r in 0.5f64..2.5,
        seed in 0usize..1000,
    ) {
        let intra = [[2u32, 3, 2], [3, 2, 2], [2, 2, 3]][pat];
        let mesh = [cx * intra[0], cy * intra[1], cz * intra[2]];
        let grid = CellGrid::from_node_mesh(mesh).unwrap();
        let map = RankMap::new(grid, Placement::TopoAware);
        let rg = map.rank_grid;
        let global = Box3::from_lengths([
            10.0 * f64::from(rg[0]),
            10.0 * f64::from(rg[1]),
            10.0 * f64::from(rg[2]),
        ]);
        let cfg = PlanConfig { shells, half };
        let expected = [[26, 13], [124, 62]][shells - 1][usize::from(half)];
        let me = seed % map.nranks();
        let g = CommGraph::grid(me, &map, &global, r, cfg);
        prop_assert_eq!(g.neighbor_count(), expected);
        prop_assert_eq!(g.send.len(), g.recv.len());
        for (k, (s, rv)) in g.send.iter().zip(&g.recv).enumerate() {
            prop_assert_eq!(rv.offset, s.offset.opposite());
            // Grid pairing is index-symmetric by construction.
            prop_assert_eq!(s.peer_index, k);
            prop_assert_eq!(rv.peer_index, k);
        }
        // Mirror one edge through the peer's own graph: my send[k] must be
        // the peer's recv[peer_index], pointing back at me.
        if !g.send.is_empty() {
            let k = seed % g.send.len();
            let e = g.send[k];
            let pg = CommGraph::grid(e.rank, &map, &global, r, cfg);
            let back = pg.recv[e.peer_index];
            prop_assert_eq!(back.rank, me);
            prop_assert_eq!(back.offset, e.offset.opposite());
        }
    }

    /// RCB decompositions tile the global box, own every (wrapped) input
    /// point, and rebuild deterministically.
    #[test]
    fn rcb_owns_every_point(
        pts in prop::collection::vec(
            (0.0f64..12.0, 0.0f64..9.0, 0.0f64..6.0), 1..150),
        nranks in 1usize..17,
    ) {
        let global = Box3::from_lengths([12.0, 9.0, 6.0]);
        let xs: Vec<[f64; 3]> = pts.iter().map(|&(x, y, z)| [x, y, z]).collect();
        let rcb = RcbDecomposition::build(nranks, &xs, &global);
        prop_assert_eq!(rcb.boxes.len(), nranks);
        let vol: f64 = rcb.boxes.iter().map(Box3::volume).sum();
        prop_assert!((vol - global.volume()).abs() < 1e-6 * global.volume());
        for p in &xs {
            let r = rcb.owner_of(p);
            prop_assert!(r < nranks);
            let (w, _) = global.wrap(*p);
            prop_assert!(rcb.boxes[r].contains(&w), "{:?} not in {:?}", w, rcb.boxes[r]);
        }
        let again = RcbDecomposition::build(nranks, &xs, &global);
        for (a, b) in rcb.boxes.iter().zip(&again.boxes) {
            prop_assert_eq!(a.lo, b.lo);
            prop_assert_eq!(a.hi, b.hi);
        }
    }
}

/// The per-offset slab test, the oracle for grid graphs' border selection:
/// the neighbor at `off` (possibly several shells out) owns
/// `[lo + o·a, lo + (o+1)·a)` along d and needs the atoms within `r` of
/// it, each bound spelled from the sub-box face nearest the atom.
fn slab_needs(x: &[f64; 3], sub: &Box3, r: f64, off: NeighborOffset) -> bool {
    let a = sub.lengths();
    (0..3).all(|d| {
        let o = f64::from(off.d[d]);
        match off.d[d].signum() {
            1 => x[d] >= sub.hi[d] + (o - 1.0) * a[d] - r,
            -1 => x[d] < sub.lo[d] + (o + 1.0) * a[d] + r,
            _ => true,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// On grid graphs the one border selector picks the send edges the
    /// slab oracle picks, in the same order: on random rank meshes with
    /// anisotropic, off-origin boxes, one and two shells, half and full
    /// sets, and `r_ghost` from 0.2 of the shortest edge to just under the
    /// shell limit. Probed at random points within `r_ghost` of the
    /// sub-box (locals drift at most skin/2 between rebuilds), and with
    /// one coordinate on every `lo`, `hi`, `lo + r`, `hi - r` and oracle
    /// bound in that range, one ulp either side of it; NaN selects no edge.
    #[test]
    fn grid_selector_matches_the_slab_oracle(
        cells in prop::array::uniform3(1u32..3),
        shape in 0usize..4,
        origin in prop::array::uniform3(-1.0f64..1.0),
        scale in -6.0f64..2.0,
        edge in prop::array::uniform3(1.0f64..12.0),
        reach in 0.0f64..0.999,
        seed in 0usize..1000,
        probes in prop::collection::vec(prop::array::uniform3(0.0f64..1.0), 8),
    ) {
        let (shells, half) = (1 + shape / 2, shape % 2 == 1);
        let map = RankMap::new(CellGrid::new(cells), Placement::TopoAware);
        let rg = map.rank_grid.map(f64::from);
        // Off-origin by 1e-6 to 100: faces off the sub-box's own ulp grid.
        let origin = origin.map(|o| o * 10f64.powf(scale));
        let hi = [0, 1, 2].map(|d| origin[d] + edge[d] * rg[d]);
        let global = Box3::new(origin, hi);
        let min_edge = edge.iter().copied().fold(f64::INFINITY, f64::min);
        let r = min_edge * (0.2 + reach * (shells as f64 - 0.2));
        let g = CommGraph::grid(seed % map.nranks(), &map, &global, r, PlanConfig { shells, half });
        let (sub, a, sel) = (g.sub, g.sub.lengths(), g.selector());
        let targets = |x: &[f64; 3]| {
            let mut out = Vec::new();
            sel.for_each_target(x, |k| out.push(k));
            out
        };
        let check = |x: [f64; 3]| {
            let want: Vec<u16> = (0..g.send.len())
                .filter(|&k| slab_needs(&x, &sub, r, g.send[k].offset))
                .map(|k| k as u16)
                .collect();
            assert_eq!(targets(&x), want, "at {x:?} on {sub:?}, r = {r}");
        };
        for p in &probes {
            let x = [0, 1, 2].map(|d| sub.lo[d] - r + p[d] * (a[d] + 2.0 * r));
            check(x);
            for d in 0..3 {
                let mut faces = vec![sub.lo[d], sub.hi[d], sub.lo[d] + r, sub.hi[d] - r];
                for s in 1..=shells {
                    let o = s as f64;
                    faces.push(sub.hi[d] + (o - 1.0) * a[d] - r);
                    faces.push(sub.lo[d] - (o - 1.0) * a[d] + r);
                }
                for f in faces {
                    let near = |v: f64| sub.lo[d] - r <= v && v < sub.hi[d] + r;
                    for v in [f, f.next_up(), f.next_down()].into_iter().filter(|&v| near(v)) {
                        let mut y = x;
                        y[d] = v;
                        check(y);
                    }
                }
                let mut y = x;
                y[d] = f64::NAN;
                prop_assert!(targets(&y).is_empty(), "NaN along {} selects an edge", d);
            }
        }
        prop_assert!(targets(&[f64::NAN; 3]).is_empty());
    }
}
