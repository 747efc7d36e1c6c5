//! The bits of every pair pass, pinned to recorded digests: how the
//! potential layer is organised — which type holds a coefficient table,
//! which function a pass is reached through — must never reach a force,
//! an energy, a virial or a trajectory.
//!
//! Each digest is FNV-1a ([`fnv1a64`]) over little-endian words. A pass
//! digest folds every force (ghosts included), then the energy and virial
//! bits, of one pass over a fixed seeded 2 160-atom cloud; the scalar
//! oracle, the row kernel on a serial executor and the row kernel on a
//! 2-thread pool must all read the same digest. A run digest folds the
//! thermo log and final thermo of a 20-step binary-mixture cluster run,
//! then every rank's local tags, positions, velocities and forces.

use tofumd::md::potential::PairEnergyVirial;
use tofumd::md::{Atoms, EamCu, ListKind, LjCut, NeighborList, PairPotential, PairScratch};
use tofumd::runtime::checkpoint::fnv1a64;
use tofumd::runtime::{Cluster, CommVariant, PotentialKind, RunConfig};
use tofumd::threadpool::{ChunkExec, SpinPool};

fn push(bytes: &mut Vec<u8>, word: u64) {
    bytes.extend(word.to_le_bytes());
}

fn push_f64s<'a>(bytes: &mut Vec<u8>, xs: impl IntoIterator<Item = &'a f64>) {
    for x in xs {
        push(bytes, x.to_bits());
    }
}

struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// 2 160 atoms jittered (±15 % of the spacing `a`) off a 12 × 12 × 15
/// simple-cubic grid, typed `1 + tag % ntypes`, plus every periodic image
/// within `reach` of the box as a ghost carrying its owner's type. The
/// locals clear a 2-thread pool's `ChunkExec::MIN_WORK_PER_THREAD`, so
/// the pool really logs in two halves. Returns the list region with the
/// atoms.
fn cloud(a: f64, ntypes: u32, reach: f64) -> ([f64; 3], [f64; 3], Atoms) {
    let n = [12usize, 12, 15];
    let len: [f64; 3] = std::array::from_fn(|d| n[d] as f64 * a);
    let mut rng = Lcg(0x2545_f491_4f6c_dd1d);
    let mut pos = Vec::with_capacity(2_160);
    for k in 0..n[2] {
        for j in 0..n[1] {
            for i in 0..n[0] {
                let cell = [i, j, k];
                pos.push(std::array::from_fn(|d| {
                    (cell[d] as f64 + 0.5 + 0.3 * (rng.unit() - 0.5)) * a
                }));
            }
        }
    }
    let mut atoms = Atoms::from_positions(pos, 1);
    let typ = |tag: u64| 1 + (tag % u64::from(ntypes)) as u32;
    for i in 0..atoms.nlocal {
        atoms.typ[i] = typ(atoms.tag[i]);
    }
    for sx in [-1.0, 0.0, 1.0] {
        for sy in [-1.0, 0.0, 1.0] {
            for sz in [-1.0, 0.0, 1.0] {
                if [sx, sy, sz] == [0.0; 3] {
                    continue;
                }
                let shift = [sx * len[0], sy * len[1], sz * len[2]];
                for i in 0..atoms.nlocal {
                    let p: [f64; 3] = std::array::from_fn(|d| atoms.x[i][d] + shift[d]);
                    if (0..3).all(|d| p[d] >= -reach && p[d] < len[d] + reach) {
                        let tag = atoms.tag[i];
                        atoms.push_ghost(p, typ(tag), tag);
                    }
                }
            }
        }
    }
    ([-reach; 3], len.map(|l| l + reach), atoms)
}

fn pass_digest(atoms: &Atoms, ev: PairEnergyVirial) -> u64 {
    let mut bytes = Vec::new();
    push_f64s(&mut bytes, atoms.f.as_flattened());
    push(&mut bytes, ev.energy.to_bits());
    push(&mut bytes, ev.virial.to_bits());
    fnv1a64(&bytes)
}

/// One force pass of `pot` on its list kind's list: the scalar oracle,
/// then the row kernel serial and on a 2-thread pool, which must agree.
fn pair_digest(pot: &dyn PairPotential, a: f64, ntypes: u32) -> u64 {
    let skin = 0.3;
    let (lo, hi, atoms0) = cloud(a, ntypes, pot.cutoff() + skin);
    let kind = pot.list_kind();
    let list = NeighborList::build(&atoms0, lo, hi, kind, pot.cutoff(), skin);
    let mut want = atoms0.clone();
    let want_ev = pot.compute(&mut want, &list);
    let digest = pass_digest(&want, want_ev);
    let pool = SpinPool::new(2);
    let mut scratch = PairScratch::new();
    for exec in [ChunkExec::Serial, ChunkExec::Pool(&pool)] {
        let mut atoms = atoms0.clone();
        let ev = pot.compute_chunked(&mut atoms, &list, &exec, &mut scratch);
        assert_eq!(
            pass_digest(&atoms, ev),
            digest,
            "{kind:?} t{}",
            exec.threads()
        );
    }
    digest
}

#[test]
fn lj_passes_keep_their_recorded_bits() {
    let a = 1.1; // reduced density ~0.75
    let full = LjCut::new(1.0, 1.0, 2.5, ListKind::Full);
    let one_sided = LjCut::new(1.0, 1.0, 2.5, ListKind::HalfOneSided);
    let binary = LjCut::from_types(&[(1.0, 1.0), (0.8, 0.9)], 2.5);
    let ternary = LjCut::from_types(&[(1.0, 1.0), (0.8, 0.9), (1.3, 1.1)], 2.5);
    let got = [
        pair_digest(&LjCut::lammps_bench(), a, 1),
        pair_digest(&full, a, 1),
        pair_digest(&one_sided, a, 1),
        pair_digest(&LjCut::lammps_bench().shifted(), a, 1),
        pair_digest(&binary, a, 2),
        pair_digest(&ternary, a, 3),
    ];
    assert_eq!(
        got,
        [
            0x6cf9_201e_52d3_8121,
            0x8b5b_c39a_9791_bb26,
            0x355f_1912_4bce_1f34,
            0xd4f1_b49a_ec4c_23d0,
            0x82f1_bf09_a0a0_1861,
            0xb47b_e86f_0d72_335d,
        ],
        "[half, full, one-sided, shifted, binary, ternary]: {got:#018x?}"
    );
}

/// EAM's three passes in the cluster's order, the ghost `F'` a fixed
/// stand-in for the forward-communicated values: the density pass, the
/// embedding (its `F'` over locals, then its energy) and the force pass.
#[test]
fn eam_passes_keep_their_recorded_bits() {
    let eam = EamCu::lammps_bench();
    let skin = 1.0;
    let (lo, hi, atoms0) = cloud(2.28, 1, eam.cutoff() + skin);
    let list = NeighborList::build(&atoms0, lo, hi, ListKind::HalfNewton, eam.cutoff(), skin);
    let nlocal = atoms0.nlocal;
    let pool = SpinPool::new(2);
    let mut scratch = PairScratch::new();
    let mut digests = Vec::new();
    for exec in [None, Some(ChunkExec::Serial), Some(ChunkExec::Pool(&pool))] {
        let (mut rho, mut fp) = (Vec::new(), Vec::new());
        let mut atoms = atoms0.clone();
        let (embed, ev) = match &exec {
            None => {
                eam.compute_rho(&atoms, &list, &mut rho);
                let embed = eam.compute_embedding(&atoms, &rho, &mut fp);
                for (i, f) in fp.iter_mut().enumerate().skip(nlocal) {
                    *f = 1e-3 * (i as f64).sin();
                }
                (embed, eam.compute_force(&mut atoms, &list, &fp))
            }
            Some(exec) => {
                eam.compute_rho_chunked(&atoms, &list, &mut rho, exec, &mut scratch);
                let embed = eam.compute_embedding_chunked(&atoms, &rho, &mut fp, exec);
                fp.resize(atoms.ntotal(), 0.0);
                for (i, f) in fp.iter_mut().enumerate().skip(nlocal) {
                    *f = 1e-3 * (i as f64).sin();
                }
                let ev = eam.compute_force_chunked(&mut atoms, &list, &fp, exec, &mut scratch);
                (embed, ev)
            }
        };
        let mut rho_bytes = Vec::new();
        push_f64s(&mut rho_bytes, &rho);
        let mut embed_bytes = Vec::new();
        push_f64s(&mut embed_bytes, &fp[..nlocal]);
        push(&mut embed_bytes, embed.to_bits());
        digests.push([
            fnv1a64(&rho_bytes),
            fnv1a64(&embed_bytes),
            pass_digest(&atoms, ev),
        ]);
    }
    assert_eq!(digests[1], digests[0], "serial row kernels vs the oracle");
    assert_eq!(digests[2], digests[0], "2-thread pool vs the oracle");
    let got = digests[0];
    assert_eq!(
        got,
        [
            0x6da6_70f6_4a79_c10d,
            0x70ad_538f_f87f_3426,
            0x8bc3_dd3d_d710_1353,
        ],
        "[rho, embed, force]: {got:#018x?}"
    );
}

fn run_digest(variant: CommVariant) -> u64 {
    let cfg = RunConfig {
        kind: PotentialKind::LjBinary,
        ..RunConfig::lj(4_000)
    };
    let mut c = Cluster::new([2, 3, 2], cfg, variant);
    c.set_thermo_every(5);
    c.run(20);
    let mut bytes = Vec::new();
    for t in c.thermo_log().iter().chain([&c.thermo()]) {
        push(&mut bytes, t.step);
        push_f64s(&mut bytes, &[t.pe, t.ke, t.temperature, t.pressure]);
    }
    for st in c.states() {
        let a = &st.atoms;
        let n = a.nlocal;
        for &tag in &a.tag[..n] {
            push(&mut bytes, tag);
        }
        push_f64s(&mut bytes, a.x[..n].as_flattened());
        push_f64s(&mut bytes, a.v[..n].as_flattened());
        push_f64s(&mut bytes, a.f[..n].as_flattened());
    }
    fnv1a64(&bytes)
}

/// A 20-step binary-mixture run on [2, 3, 2] nodes (48 ranks), 4 000
/// atoms, crossing the step-20 rebuild, on the uTofu and the MPI p2p
/// engines.
#[test]
fn binary_cluster_runs_keep_their_recorded_bits() {
    let got = [CommVariant::Opt, CommVariant::MpiP2p].map(run_digest);
    assert_eq!(
        got,
        [0x9570_75c0_7970_7777, 0xb12b_7403_5c2a_63eb],
        "[opt, mpi-p2p]: {got:#018x?}"
    );
}
