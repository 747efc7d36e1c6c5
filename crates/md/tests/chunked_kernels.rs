//! Property tests for the deterministic chunk-parallel kernels.
//!
//! The contract under test: the chunked neighbor build and the row bodies
//! of the LJ (any type table), EAM and SW passes are **bit-identical** to
//! the serial kernels — same force bits, same energy/virial bits —
//! whichever way they write: straight into the arrays (a serial executor)
//! or through the scatter log (a pool of 2 or 8 threads), with or without
//! spatial sorting; and spatial sorting permutes atoms without changing
//! which pairs exist. The neighbor build itself is held, row for row, to the
//! per-candidate reference scan kept here as [`oracle_rows`].

use proptest::prelude::*;
use tofumd_md::kernels::{PairScratch, LANE_WIDTH};
use tofumd_md::neighbor::{
    ghost_pair_belongs_to_i, sort_locals_by_bin, CellBins, ListKind, NeighborList,
};
use tofumd_md::potential::{EamCu, LjCut, PairPotential, StillingerWeber};
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

/// First index at which two arrays differ in any bit, if any.
fn first_bit_mismatch(a: &[f64], b: &[f64]) -> Option<usize> {
    assert_eq!(a.len(), b.len());
    (0..a.len()).find(|&i| a[i].to_bits() != b[i].to_bits())
}

/// Slab width of the LJ row kernel (`potential::lj::ROW_BLOCK`).
const ROW_BLOCK: usize = 64;

/// Local rows of a kernel cloud: enough that an 8-thread pool clears
/// `ChunkExec::MIN_WORK_PER_THREAD` and really fans the chunks out.
const KERNEL_ROWS: usize = 8 * ChunkExec::MIN_WORK_PER_THREAD + 40;

/// A cloud for the row kernels, scaled to the list cutoff: uniform filler
/// at ~35 half-list pairs per row, one crowded cell whose rows run well
/// past [`ROW_BLOCK`], pairs straddling the *force* cutoff to the ulp, and
/// a ghost shell (so boundary rows scatter to targets past `nlocal`).
/// Odd seeds sort the locals into bin order.
fn kernel_cloud(seed: u64, cutoff: f64, skin: f64) -> ([f64; 3], [f64; 3], Atoms) {
    let cl = cutoff + skin;
    let mut rng = Lcg(seed | 1);
    let side = 7.9 * cl;
    let (lo, hi) = ([-cl; 3], [side + cl; 3]);
    let mut locals: Vec<[f64; 3]> = (0..KERNEL_ROWS - 160 - 12)
        .map(|_| rng.point([0.0; 3], [side; 3]))
        .collect();
    let mut ghosts: Vec<[f64; 3]> = Vec::new();
    while ghosts.len() < 3000 {
        let g = rng.point(lo, hi);
        if g.iter().any(|&c| c < 0.0 || c > side) {
            ghosts.push(g);
        }
    }
    let clo: [f64; 3] = std::array::from_fn(|_| rng.unit() * (side - cl));
    let chi = clo.map(|c| c + 0.9 * cl);
    for t in 0..6 {
        let p = locals[rng.below(locals.len())];
        let sign = if t % 2 == 0 { 1.0 } else { -1.0 };
        locals.extend(straddle(p, t % 3, sign, cutoff));
        ghosts.extend(straddle(p, (t + 1) % 3, -sign, cutoff));
    }
    for k in 0..200 {
        let p = rng.point(clo, chi);
        if k < 160 {
            locals.push(p);
        } else {
            ghosts.push(p);
        }
    }
    let mut atoms = Atoms::from_positions(locals, 1);
    if seed % 2 == 1 {
        sort_locals_by_bin(&mut atoms, lo, hi, cl);
    }
    for (k, g) in ghosts.iter().enumerate() {
        atoms.push_ghost(*g, 1, 1_000_000 + k as u64);
    }
    (lo, hi, atoms)
}

/// The cloud must exercise what the family claims: a row past the LJ slab
/// width and every block-tail length of the EAM lane loop.
fn assert_row_coverage(list: &NeighborList, nlocal: usize) {
    let lens: Vec<usize> = (0..nlocal).map(|i| list.neighbors(i).len()).collect();
    assert!(lens.iter().any(|&n| n > ROW_BLOCK), "no row past one slab");
    for res in 0..LANE_WIDTH {
        assert!(
            lens.iter().any(|&n| n % LANE_WIDTH == res),
            "no row of length ≡ {res} (mod {LANE_WIDTH})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Three-way identity of the LJ force pass, half and full lists: the
    /// row kernel writing directly (`ChunkExec::Serial`) ≡ the serial
    /// scalar oracle ≡ the row kernel logged and replayed at pool threads
    /// {2, 8} — forces, energy and virial bit for bit, from zeroed forces
    /// and on top of forces already in the array, all on one scratch. Over
    /// type tables of 1 to 3 species from both constructors, shifted and
    /// not: every atom (ghosts included) is drawn one of the table's
    /// species, so a table of `n` gathers a pair's row from all `n²` type
    /// pairs, and a one-entry table runs the captured-row loop.
    #[test]
    fn lj_row_kernel_is_bitwise_serial(seed in any::<u64>()) {
        let (lo, hi, mut atoms0) = kernel_cloud(seed, 2.5, 0.3);
        let mut rng = Lcg(seed ^ 0x5851_f42d_4c95_7f2d);
        let species = [(1.0, 1.0), (0.8, 0.9), (1.3, 1.1)];
        let pools = [SpinPool::new(2), SpinPool::new(8)];
        let execs = [ChunkExec::Serial, ChunkExec::Pool(&pools[0]), ChunkExec::Pool(&pools[1])];
        let mut scratch = PairScratch::new();
        for preloaded in [false, true] {
            if preloaded {
                for f in &mut atoms0.f {
                    *f = rng.point([-1e3; 3], [1e3; 3]);
                }
            }
            for kind in [ListKind::HalfNewton, ListKind::Full] {
                let list = NeighborList::build(&atoms0, lo, hi, kind, 2.5, 0.3);
                assert_row_coverage(&list, atoms0.nlocal);
                let tables = [
                    LjCut::new(1.0, 1.0, 2.5, kind),
                    LjCut::new(1.0, 1.0, 2.5, kind).shifted(),
                    LjCut::from_types(&species[..1], 2.5),
                    LjCut::from_types(&species[..2], 2.5),
                    LjCut::from_types(&species, 2.5).shifted(),
                ];
                for (t, lj) in tables.iter().enumerate() {
                    let ntypes = [1, 1, 1, 2, 3][t];
                    for typ in &mut atoms0.typ {
                        *typ = 1 + rng.below(ntypes) as u32;
                    }
                    let mut want = atoms0.clone();
                    let want_ev = lj.compute(&mut want, &list);
                    for exec in &execs {
                        let mut atoms = atoms0.clone();
                        let ev = lj.compute_chunked(&mut atoms, &list, exec, &mut scratch);
                        prop_assert_eq!(ev.energy.to_bits(), want_ev.energy.to_bits());
                        prop_assert_eq!(ev.virial.to_bits(), want_ev.virial.to_bits());
                        prop_assert_eq!(first_bit_mismatch(atoms.f.as_flattened(), want.f.as_flattened()), None, "{:?} table {} preloaded {} t{}", kind, t, preloaded, exec.threads());
                    }
                }
            }
        }
    }

    /// The same three-way identity for the EAM density and force passes —
    /// direct ≡ serial oracle ≡ logged at pool threads {2, 8} — plus the
    /// chunked embedding; the density pass into a dirty `rho` of the wrong
    /// length, and both passes sharing one scratch with each other.
    #[test]
    fn eam_row_kernels_are_bitwise_serial(seed in any::<u64>()) {
        let eam = EamCu::lammps_bench();
        let (lo, hi, atoms0) = kernel_cloud(seed, 4.95, 1.0);
        let pools = [SpinPool::new(2), SpinPool::new(8)];
        let execs = [ChunkExec::Serial, ChunkExec::Pool(&pools[0]), ChunkExec::Pool(&pools[1])];
        let list = NeighborList::build(&atoms0, lo, hi, ListKind::HalfNewton, 4.95, 1.0);
        assert_row_coverage(&list, atoms0.nlocal);
        let (mut want_rho, mut want_fp) = (Vec::new(), Vec::new());
        eam.compute_rho(&atoms0, &list, &mut want_rho);
        let want_embed = eam.compute_embedding(&atoms0, &want_rho, &mut want_fp);
        // Stand-in for the forward-communicated ghost F'.
        for (i, fp) in want_fp.iter_mut().enumerate().skip(atoms0.nlocal) {
            *fp = 1e-3 * (i as f64).sin();
        }
        let mut want = atoms0.clone();
        let want_ev = eam.compute_force(&mut want, &list, &want_fp);
        let mut scratch = PairScratch::new();
        for exec in &execs {
            let (mut rho, mut fp) = (vec![7.5; 11], Vec::new());
            eam.compute_rho_chunked(&atoms0, &list, &mut rho, exec, &mut scratch);
            prop_assert_eq!(first_bit_mismatch(&rho, &want_rho), None, "rho t{}", exec.threads());
            let embed = eam.compute_embedding_chunked(&atoms0, &rho, &mut fp, exec);
            prop_assert_eq!(embed.to_bits(), want_embed.to_bits());
            prop_assert_eq!(first_bit_mismatch(&fp[..atoms0.nlocal], &want_fp[..atoms0.nlocal]), None);
            let mut atoms = atoms0.clone();
            let ev = eam.compute_force_chunked(&mut atoms, &list, &want_fp, exec, &mut scratch);
            prop_assert_eq!(ev.energy.to_bits(), want_ev.energy.to_bits());
            prop_assert_eq!(ev.virial.to_bits(), want_ev.virial.to_bits());
            prop_assert_eq!(first_bit_mismatch(atoms.f.as_flattened(), want.f.as_flattened()), None, "force t{}", exec.threads());
        }
    }

    /// The SW force pass on the full list: its row body writing directly ≡
    /// `compute` (the same body, run serially) ≡ logged and replayed at
    /// pool threads {2, 8} — pair reactions, triplet j/k scatters and the
    /// centre's shares, plus energy/virial, bit for bit. The cloud is laid
    /// out for twice SW's cutoff, which thins its crowded cell: the
    /// triplet loop is quadratic in a row's neighbors.
    #[test]
    fn sw_row_kernel_is_bitwise_serial(seed in any::<u64>()) {
        let sw = StillingerWeber::silicon();
        let rc = sw.r_cut();
        let (lo, hi, mut atoms0) = kernel_cloud(seed, 2.0 * rc, 1.0);
        let pools = [SpinPool::new(2), SpinPool::new(8)];
        let execs = [ChunkExec::Serial, ChunkExec::Pool(&pools[0]), ChunkExec::Pool(&pools[1])];
        let list = NeighborList::build(&atoms0, lo, hi, ListKind::Full, rc, 1.0);
        let mut scratch = PairScratch::new();
        for preloaded in [false, true] {
            if preloaded {
                let mut rng = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
                for f in &mut atoms0.f {
                    *f = rng.point([-1e3; 3], [1e3; 3]);
                }
            }
            let mut want = atoms0.clone();
            let want_ev = sw.compute(&mut want, &list);
            for exec in &execs {
                let mut atoms = atoms0.clone();
                let ev = sw.compute_chunked(&mut atoms, &list, exec, &mut scratch);
                prop_assert_eq!(ev.energy.to_bits(), want_ev.energy.to_bits());
                prop_assert_eq!(ev.virial.to_bits(), want_ev.virial.to_bits());
                prop_assert_eq!(first_bit_mismatch(atoms.f.as_flattened(), want.f.as_flattened()), None, "preloaded {} t{}", preloaded, exec.threads());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

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
    // The crowded bin's lower z face, which the HalfNewton build prunes
    // across: locals and ghosts exactly on it and one ulp either side,
    // and ghosts tying those rows' z on either side in y and in x (the
    // ones one ulp below sit in the bin below).
    for z in [clo[2].next_down(), clo[2], clo[2].next_up()] {
        let mut p = rng.point(clo, chi);
        p[2] = z;
        locals.push(p);
        ghosts.push(p);
        for s in [-1.0, 1.0] {
            ghosts.push([p[0], p[1] + s * 0.3 * size[1], z]);
            ghosts.push([p[0] + s * 0.3 * size[0], p[1], z]);
        }
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
        // One list rebuilt in place through every case: its pages still
        // hold the rows of the case before.
        let mut split = NeighborList::empty(ListKind::Full);
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
                        split.rebuild(&bare, lo, hi, kind, OCUT + OSKIN, Some(&interior), exec);
                        split.rebuild_boundary(&atoms, lo, hi, &interior, exec);
                        for (i, row) in want.iter().enumerate() {
                            prop_assert_eq!(one.neighbors(i), &row[..], "one-pass row {} {}", i, label);
                            prop_assert_eq!(split.neighbors(i), &row[..], "split row {} {}", i, label);
                            let local = row.iter().all(|&j| (j as usize) < atoms.nlocal);
                            prop_assert_eq!(split.local_only(i), local, "split flag {} {}", i, label);
                        }
                    }
                }
            }
        }
    }
}
