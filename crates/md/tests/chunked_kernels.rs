//! Property tests for the deterministic chunk-parallel kernels.
//!
//! The contract under test: the chunked neighbor build and the chunked
//! LJ/EAM passes are **bit-identical** to the serial seed kernels — same
//! force bits, same energy/virial bits — at any thread count, with or
//! without spatial sorting; and spatial sorting permutes atoms without
//! changing which pairs exist. The neighbor build itself is held, row for
//! row, to the per-candidate reference scan kept here as [`oracle_rows`].

use proptest::prelude::*;
use tofumd_md::kernels::{KernelMode, PairScratch};
use tofumd_md::neighbor::{
    ghost_pair_belongs_to_i, sort_locals_by_bin, CellBins, ListKind, NeighborList,
};
use tofumd_md::potential::{EamCu, LjCut, ManyBodyPotential, PairPotential};
use tofumd_md::Atoms;
use tofumd_threadpool::{ChunkExec, SpinPool};

const LO: [f64; 3] = [-3.0, -3.0, -3.0];
const HI: [f64; 3] = [13.0, 13.0, 13.0];

/// A cloud of local atoms in the core box plus "ghosts" scattered over the
/// extended region (their provenance doesn't matter to the kernels).
fn cloud(nlocal: usize, nghost: usize) -> impl Strategy<Value = (Vec<[f64; 3]>, Vec<[f64; 3]>)> {
    let local = prop::collection::vec(prop::array::uniform3(0.05f64..9.95), nlocal..nlocal + 1);
    let ghost = prop::collection::vec(prop::array::uniform3(-2.5f64..12.5), nghost..nghost + 1);
    (local, ghost)
}

/// A cloud whose local count sweeps every residue mod the lane width, so
/// the blocked kernels exercise every scalar-tail length 0..=7 (and the
/// random densities scatter per-row neighbor counts across all residues
/// as well).
fn lane_cloud(base: usize) -> impl Strategy<Value = (Vec<[f64; 3]>, Vec<[f64; 3]>)> {
    (cloud(base + 7, 71), 0usize..8).prop_map(move |((mut l, mut g), res)| {
        l.truncate(base + res);
        g.truncate(64 + res);
        (l, g)
    })
}

fn make_atoms(locals: &[[f64; 3]], ghosts: &[[f64; 3]], sorted: bool, cell: f64) -> Atoms {
    let mut atoms = Atoms::from_positions(locals.to_vec(), 1);
    if sorted {
        sort_locals_by_bin(&mut atoms, LO, HI, cell);
    }
    for (k, g) in ghosts.iter().enumerate() {
        atoms.push_ghost(*g, 1, 1000 + k as u64);
    }
    atoms
}

fn assert_forces_bitwise(a: &Atoms, b: &Atoms, label: &str) {
    assert_eq!(a.f.len(), b.f.len());
    for (i, (fa, fb)) in a.f.iter().zip(&b.f).enumerate() {
        for d in 0..3 {
            assert_eq!(
                fa[d].to_bits(),
                fb[d].to_bits(),
                "{label}: force mismatch atom {i} dim {d}: {} vs {}",
                fa[d],
                fb[d]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Chunked LJ forces/energy/virial are bitwise equal to the serial
    /// kernel at 1, 2 and 8 threads, on sorted and unsorted input, and the
    /// chunked list build reproduces the serial build exactly.
    #[test]
    fn lj_chunked_is_bitwise_serial(atoms_in in cloud(180, 90), sorted in any::<bool>()) {
        let (locals, ghosts) = atoms_in;
        let lj = LjCut::lammps_bench();
        let cell = 2.5 + 0.3;
        let atoms0 = make_atoms(&locals, &ghosts, sorted, cell);
        let list = NeighborList::build(&atoms0, LO, HI, ListKind::HalfNewton, 2.5, 0.3);

        let mut ref_atoms = atoms0.clone();
        ref_atoms.zero_forces();
        let ref_ev = lj.compute(&mut ref_atoms, &list);

        for threads in [1usize, 2, 8] {
            let pool;
            let exec = if threads == 1 {
                ChunkExec::Serial
            } else {
                pool = SpinPool::new(threads);
                ChunkExec::Pool(&pool)
            };
            // The chunked build must reproduce the serial list verbatim.
            let clist =
                NeighborList::build_chunked(&atoms0, LO, HI, ListKind::HalfNewton, 2.5, 0.3, &exec);
            prop_assert_eq!(clist.npairs(), list.npairs());
            for i in 0..atoms0.nlocal {
                prop_assert_eq!(clist.neighbors(i), list.neighbors(i), "row {} threads {}", i, threads);
            }

            let mut atoms = atoms0.clone();
            atoms.zero_forces();
            let mut scratch = PairScratch::new();
            let ev = lj.compute_chunked(&mut atoms, &list, &exec, &mut scratch);
            prop_assert_eq!(ev.energy.to_bits(), ref_ev.energy.to_bits(), "threads {}", threads);
            prop_assert_eq!(ev.virial.to_bits(), ref_ev.virial.to_bits(), "threads {}", threads);
            assert_forces_bitwise(&atoms, &ref_atoms, &format!("lj threads {threads} sorted {sorted}"));
        }
    }

    /// The three chunked EAM passes are bitwise equal to the serial ones
    /// at 1, 2 and 8 threads.
    #[test]
    fn eam_chunked_is_bitwise_serial(atoms_in in cloud(140, 70), sorted in any::<bool>()) {
        let (locals, ghosts) = atoms_in;
        let eam = EamCu::lammps_bench();
        let cell = 4.95 + 1.0;
        let atoms0 = make_atoms(&locals, &ghosts, sorted, cell);
        let list = NeighborList::build(&atoms0, LO, HI, ListKind::HalfNewton, 4.95, 1.0);

        let mut ref_atoms = atoms0.clone();
        ref_atoms.zero_forces();
        let mut ref_rho = Vec::new();
        let mut ref_fp = Vec::new();
        eam.compute_rho(&ref_atoms, &list, &mut ref_rho);
        let ref_embed = eam.compute_embedding(&ref_atoms, &ref_rho, &mut ref_fp);
        let ref_ev = eam.compute_force(&mut ref_atoms, &list, &ref_fp);

        for threads in [1usize, 2, 8] {
            let pool;
            let exec = if threads == 1 {
                ChunkExec::Serial
            } else {
                pool = SpinPool::new(threads);
                ChunkExec::Pool(&pool)
            };
            let mut atoms = atoms0.clone();
            atoms.zero_forces();
            let mut scratch = PairScratch::new();
            let mut rho = Vec::new();
            let mut fp = Vec::new();
            eam.compute_rho_chunked(&atoms, &list, &mut rho, &exec, &mut scratch);
            prop_assert_eq!(rho.len(), ref_rho.len());
            for (i, (a, b)) in rho.iter().zip(&ref_rho).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "rho atom {} threads {}", i, threads);
            }
            let embed = eam.compute_embedding_chunked(&atoms, &rho, &mut fp, &exec);
            prop_assert_eq!(embed.to_bits(), ref_embed.to_bits(), "threads {}", threads);
            for (i, (a, b)) in fp.iter().zip(&ref_fp).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "fp atom {} threads {}", i, threads);
            }
            let ev = eam.compute_force_chunked(&mut atoms, &list, &fp, &exec, &mut scratch);
            prop_assert_eq!(ev.energy.to_bits(), ref_ev.energy.to_bits(), "threads {}", threads);
            prop_assert_eq!(ev.virial.to_bits(), ref_ev.virial.to_bits(), "threads {}", threads);
            assert_forces_bitwise(&atoms, &ref_atoms, &format!("eam threads {threads} sorted {sorted}"));
        }
    }

    /// The lane-blocked LJ kernel is bitwise equal to the scalar one —
    /// energy, virial, and every force component — in the serial path and
    /// under the chunked executor at 1, 2 and 8 threads, across every
    /// scalar-tail residue.
    #[test]
    fn lj_blocked_is_bitwise_scalar(atoms_in in lane_cloud(152), sorted in any::<bool>()) {
        let (locals, ghosts) = atoms_in;
        let scalar = LjCut::lammps_bench();
        let blocked = LjCut::lammps_bench().with_kernel_mode(KernelMode::Blocked);
        let cell = 2.5 + 0.3;
        let atoms0 = make_atoms(&locals, &ghosts, sorted, cell);
        let list = NeighborList::build(&atoms0, LO, HI, ListKind::HalfNewton, 2.5, 0.3);

        let mut ref_atoms = atoms0.clone();
        ref_atoms.zero_forces();
        let ref_ev = scalar.compute(&mut ref_atoms, &list);

        let mut serial = atoms0.clone();
        serial.zero_forces();
        let ev = blocked.compute(&mut serial, &list);
        prop_assert_eq!(ev.energy.to_bits(), ref_ev.energy.to_bits());
        prop_assert_eq!(ev.virial.to_bits(), ref_ev.virial.to_bits());
        assert_forces_bitwise(&serial, &ref_atoms, "lj blocked serial");

        for threads in [1usize, 2, 8] {
            let pool;
            let exec = if threads == 1 {
                ChunkExec::Serial
            } else {
                pool = SpinPool::new(threads);
                ChunkExec::Pool(&pool)
            };
            let mut atoms = atoms0.clone();
            atoms.zero_forces();
            let mut scratch = PairScratch::new();
            let ev = blocked.compute_chunked(&mut atoms, &list, &exec, &mut scratch);
            prop_assert_eq!(ev.energy.to_bits(), ref_ev.energy.to_bits(), "threads {}", threads);
            prop_assert_eq!(ev.virial.to_bits(), ref_ev.virial.to_bits(), "threads {}", threads);
            assert_forces_bitwise(&atoms, &ref_atoms, &format!("lj blocked threads {threads}"));
        }
    }

    /// All three lane-blocked EAM passes (rho, embedding, force) are
    /// bitwise equal to the scalar ones, serial and chunked at 1, 2 and 8
    /// threads, across every scalar-tail residue.
    #[test]
    fn eam_blocked_is_bitwise_scalar(atoms_in in lane_cloud(120), sorted in any::<bool>()) {
        let (locals, ghosts) = atoms_in;
        let scalar = EamCu::lammps_bench();
        let blocked = EamCu::lammps_bench().with_kernel_mode(KernelMode::Blocked);
        let cell = 4.95 + 1.0;
        let atoms0 = make_atoms(&locals, &ghosts, sorted, cell);
        let list = NeighborList::build(&atoms0, LO, HI, ListKind::HalfNewton, 4.95, 1.0);

        let mut ref_atoms = atoms0.clone();
        ref_atoms.zero_forces();
        let mut ref_rho = Vec::new();
        let mut ref_fp = Vec::new();
        scalar.compute_rho(&ref_atoms, &list, &mut ref_rho);
        let ref_embed = scalar.compute_embedding(&ref_atoms, &ref_rho, &mut ref_fp);
        let ref_ev = scalar.compute_force(&mut ref_atoms, &list, &ref_fp);

        let mut serial = atoms0.clone();
        serial.zero_forces();
        let mut rho_s = Vec::new();
        let mut fp_s = Vec::new();
        blocked.compute_rho(&serial, &list, &mut rho_s);
        for (i, (a, b)) in rho_s.iter().zip(&ref_rho).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "serial rho atom {}", i);
        }
        let embed_s = blocked.compute_embedding(&serial, &rho_s, &mut fp_s);
        prop_assert_eq!(embed_s.to_bits(), ref_embed.to_bits());
        let ev_s = blocked.compute_force(&mut serial, &list, &fp_s);
        prop_assert_eq!(ev_s.energy.to_bits(), ref_ev.energy.to_bits());
        prop_assert_eq!(ev_s.virial.to_bits(), ref_ev.virial.to_bits());
        assert_forces_bitwise(&serial, &ref_atoms, "eam blocked serial");

        for threads in [1usize, 2, 8] {
            let pool;
            let exec = if threads == 1 {
                ChunkExec::Serial
            } else {
                pool = SpinPool::new(threads);
                ChunkExec::Pool(&pool)
            };
            let mut atoms = atoms0.clone();
            atoms.zero_forces();
            let mut scratch = PairScratch::new();
            let mut rho = Vec::new();
            let mut fp = Vec::new();
            blocked.compute_rho_chunked(&atoms, &list, &mut rho, &exec, &mut scratch);
            for (i, (a, b)) in rho.iter().zip(&ref_rho).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "rho atom {} threads {}", i, threads);
            }
            let embed = blocked.compute_embedding_chunked(&atoms, &rho, &mut fp, &exec);
            prop_assert_eq!(embed.to_bits(), ref_embed.to_bits(), "threads {}", threads);
            for (i, (a, b)) in fp.iter().zip(&ref_fp).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "fp atom {} threads {}", i, threads);
            }
            let ev = blocked.compute_force_chunked(&mut atoms, &list, &fp, &exec, &mut scratch);
            prop_assert_eq!(ev.energy.to_bits(), ref_ev.energy.to_bits(), "threads {}", threads);
            prop_assert_eq!(ev.virial.to_bits(), ref_ev.virial.to_bits(), "threads {}", threads);
            assert_forces_bitwise(&atoms, &ref_atoms, &format!("eam blocked threads {threads}"));
        }
    }

    /// Spatial sorting permutes atoms but never changes which pairs the
    /// half-one-sided list contains: same pair count, same (tag, tag)
    /// pair set.
    #[test]
    fn half_one_sided_pairs_invariant_under_sorting(atoms_in in cloud(160, 80)) {
        let (locals, ghosts) = atoms_in;
        let cell = 2.5 + 0.3;
        let unsorted = make_atoms(&locals, &ghosts, false, cell);
        let sorted = make_atoms(&locals, &ghosts, true, cell);

        let pair_tags = |atoms: &Atoms| -> std::collections::BTreeSet<(u64, u64)> {
            let list = NeighborList::build(atoms, LO, HI, ListKind::HalfOneSided, 2.5, 0.3);
            let mut set = std::collections::BTreeSet::new();
            for i in 0..atoms.nlocal {
                for &j in list.neighbors(i) {
                    let (a, b) = (atoms.tag[i], atoms.tag[j as usize]);
                    set.insert((a.min(b), a.max(b)));
                }
            }
            set
        };
        let pu = pair_tags(&unsorted);
        let ps = pair_tags(&sorted);
        prop_assert_eq!(pu.len(), ps.len(), "pair count changed by sorting");
        prop_assert_eq!(pu, ps, "pair set changed by sorting");
    }
}

/// Does the pair (i, j) belong in row `i` under this list kind?
fn kind_accepts(
    kind: ListKind,
    nlocal: usize,
    i: usize,
    j: usize,
    xi: &[f64; 3],
    xj: &[f64; 3],
) -> bool {
    match kind {
        ListKind::Full => true,
        ListKind::HalfNewton => {
            if j < nlocal {
                // local-local: store once under the lower index
                j >= i
            } else {
                ghost_pair_belongs_to_i(xi, xj)
            }
        }
        // Ghost pairs always belong to the local side; the half ghost
        // shell guarantees uniqueness.
        ListKind::HalfOneSided => j >= nlocal || j >= i,
    }
}

/// The reference neighbor build: every row walks all 27 stencil bins in
/// ascending `(dz, dy, dx)` order and every candidate in bin order
/// (`CellBins::for_each_candidate`), one candidate and one branch at a time — the scan `NeighborList` shipped
/// before the branch-free stream scan, without the half-stencil skip.
fn oracle_rows(
    atoms: &Atoms,
    lo: [f64; 3],
    hi: [f64; 3],
    kind: ListKind,
    cutoff_list: f64,
) -> Vec<Vec<u32>> {
    let cutsq = cutoff_list * cutoff_list;
    let mut bins = CellBins::new(lo, hi, cutoff_list);
    bins.fill(&atoms.x, atoms.nlocal);
    let x = &atoms.x;
    (0..atoms.nlocal)
        .map(|i| {
            let xi = x[i];
            let mut row = Vec::new();
            bins.for_each_candidate(&xi, |ju| {
                let j = ju as usize;
                if j == i {
                    return;
                }
                let xj = x[j];
                if !kind_accepts(kind, atoms.nlocal, i, j, &xi, &xj) {
                    return;
                }
                let dd0 = xi[0] - xj[0];
                let dd1 = xi[1] - xj[1];
                let dd2 = xi[2] - xj[2];
                let r2 = dd0 * dd0 + dd1 * dd1 + dd2 * dd2;
                if r2 < cutsq {
                    row.push(ju);
                }
            });
            row
        })
        .collect()
}

const KINDS: [ListKind; 3] = [ListKind::HalfNewton, ListKind::HalfOneSided, ListKind::Full];

/// Oracle cutoff and skin: neither is exact in binary.
const OCUT: f64 = 1.1;
const OSKIN: f64 = 0.3;

/// Grid shapes (bins per dimension) and local counts of the oracle
/// clouds: 1-bin-wide grids in every dimension, a sparse grid (empty and
/// 1-7-atom bins), a dense one (block tails past 8 and enough rows for a
/// 2-thread pool to engage) and one large enough for 8 threads.
const SHAPES: [([usize; 3], usize); 7] = [
    ([1, 1, 1], 40),
    ([1, 4, 6], 150),
    ([7, 1, 3], 120),
    ([3, 6, 1], 100),
    ([5, 5, 5], 300),
    ([4, 3, 2], 2100),
    ([10, 9, 8], 8300),
];

struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    fn point(&mut self, lo: [f64; 3], hi: [f64; 3]) -> [f64; 3] {
        std::array::from_fn(|d| lo[d] + (hi[d] - lo[d]) * self.unit())
    }
}

/// The two coordinates either side of the acceptance edge along dimension
/// `d` from `p` in direction `sign`: the last one whose `r²` (computed as
/// the build computes it) is below `cutsq`, and its neighbor one ulp out.
fn straddle(p: [f64; 3], d: usize, sign: f64, cutoff_list: f64) -> [[f64; 3]; 2] {
    let cutsq = cutoff_list * cutoff_list;
    let r2 = |q: f64| {
        let dd = p[d] - q;
        dd * dd + 0.0 * 0.0 + 0.0 * 0.0
    };
    let out = |q: f64| {
        if sign > 0.0 {
            q.next_up()
        } else {
            q.next_down()
        }
    };
    let back = |q: f64| {
        if sign > 0.0 {
            q.next_down()
        } else {
            q.next_up()
        }
    };
    let mut q = p[d] + sign * cutoff_list;
    while r2(q) < cutsq {
        q = out(q);
    }
    while r2(q) >= cutsq {
        q = back(q);
    }
    let mut inside = p;
    inside[d] = q;
    let mut outside = p;
    outside[d] = out(q);
    [inside, outside]
}

/// An adversarial cloud on an off-origin region of `shape` bins: uniform
/// filler, one crowded bin, atoms exactly on every bin face and on `hi`,
/// pairs straddling the cutoff to the ulp, coincident and tie-breaking
/// coordinates, and ghosts that reach outside `[lo, hi]`.
#[allow(clippy::type_complexity)]
fn edge_cloud(
    shape: [usize; 3],
    nfill: usize,
    seed: u64,
) -> ([f64; 3], [f64; 3], Vec<[f64; 3]>, Vec<[f64; 3]>) {
    let cl = OCUT + OSKIN;
    let mut rng = Lcg(seed | 1);
    let lo = [-1.7, 0.3, -2.9];
    let hi: [f64; 3] = std::array::from_fn(|d| lo[d] + shape[d] as f64 * cl * 1.07);
    let size: [f64; 3] = std::array::from_fn(|d| (hi[d] - lo[d]) / shape[d] as f64);
    let mut locals: Vec<[f64; 3]> = (0..nfill).map(|_| rng.point(lo, hi)).collect();
    let mut ghosts: Vec<[f64; 3]> = Vec::new();
    // Ghost shell reaching 0.6 cells outside the region (clamped bins).
    let (glo, ghi): ([f64; 3], [f64; 3]) = (
        std::array::from_fn(|d| lo[d] - 0.6 * cl),
        std::array::from_fn(|d| hi[d] + 0.6 * cl),
    );
    for _ in 0..nfill / 2 {
        ghosts.push(rng.point(glo, ghi));
    }
    // One crowded bin: 13 locals and 11 ghosts in the same cell.
    let cell: [usize; 3] = std::array::from_fn(|d| rng.below(shape[d]));
    let clo: [f64; 3] = std::array::from_fn(|d| lo[d] + cell[d] as f64 * size[d]);
    let chi: [f64; 3] = std::array::from_fn(|d| clo[d] + 0.99 * size[d]);
    for k in 0..24 {
        let p = rng.point(clo, chi);
        if k < 13 {
            locals.push(p);
        } else {
            ghosts.push(p);
        }
    }
    // Atoms exactly on bin faces (as the grid computes them) and on `hi`.
    for d in 0..3 {
        for k in 0..=shape[d] {
            let mut p = rng.point(lo, hi);
            p[d] = if k == shape[d] {
                hi[d]
            } else {
                lo[d] + k as f64 * size[d]
            };
            if k % 2 == 0 {
                locals.push(p);
            } else {
                ghosts.push(p);
            }
        }
    }
    // Cutoff straddles and coordinate ties around a few filler atoms.
    for t in 0..12 {
        let p = locals[rng.below(nfill)];
        let d = t % 3;
        let sign = if t % 2 == 0 { 1.0 } else { -1.0 };
        let pair = straddle(p, d, sign, cl);
        if t < 6 {
            locals.extend(pair);
        } else {
            ghosts.extend(pair);
        }
        // Coincident local and ghost; ghosts tying on z, and on z and y.
        locals.push(p);
        ghosts.push(p);
        ghosts.push([p[0] + sign * 0.05, p[1], p[2]]);
        ghosts.push([p[0] - sign * 0.07, p[1] + sign * 0.05, p[2]]);
    }
    (lo, hi, locals, ghosts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every row the build emits equals the oracle's row — same neighbors,
    /// same order — for each list kind, sorted and unsorted locals, 1, 2
    /// and 8 threads, in one pass and split into interior and boundary
    /// halves.
    #[test]
    fn build_matches_oracle(seed in any::<u64>()) {
        let cl = OCUT + OSKIN;
        let pool2 = SpinPool::new(2);
        let pool8 = SpinPool::new(8);
        let execs = [ChunkExec::Serial, ChunkExec::Pool(&pool2), ChunkExec::Pool(&pool8)];
        for (shape, nfill) in SHAPES {
            let (lo, hi, locals, ghosts) = edge_cloud(shape, nfill, seed);
            for sorted in [false, true] {
                let mut bare = Atoms::from_positions(locals.clone(), 1);
                if sorted {
                    sort_locals_by_bin(&mut bare, lo, hi, cl);
                }
                let mut atoms = bare.clone();
                for (k, g) in ghosts.iter().enumerate() {
                    atoms.push_ghost(*g, 1, 1_000_000 + k as u64);
                }
                // Sound interior flags: no ghost in range (thinned, since
                // any subset of a sound interior set is sound).
                let full = oracle_rows(&atoms, lo, hi, ListKind::Full, cl);
                let interior: Vec<bool> = full
                    .iter()
                    .enumerate()
                    .map(|(i, row)| i % 5 != 0 && row.iter().all(|&j| (j as usize) < atoms.nlocal))
                    .collect();
                for kind in KINDS {
                    let want = oracle_rows(&atoms, lo, hi, kind, cl);
                    for exec in &execs {
                        let label = format!(
                            "{kind:?} shape {shape:?} sorted {sorted} threads {}",
                            exec.threads()
                        );
                        let one =
                            NeighborList::build_chunked(&atoms, lo, hi, kind, OCUT, OSKIN, exec);
                        let int = NeighborList::build_interior(
                            &bare, lo, hi, kind, OCUT, OSKIN, &interior, exec,
                        );
                        let split =
                            NeighborList::build_boundary(&atoms, lo, hi, &int, &interior, exec);
                        for (i, row) in want.iter().enumerate() {
                            prop_assert_eq!(one.neighbors(i), &row[..], "one-pass row {} {}", i, label);
                            prop_assert_eq!(split.neighbors(i), &row[..], "split row {} {}", i, label);
                        }
                    }
                }
            }
        }
    }
}
