//! Kernel-layer smoke benchmark emitting machine-readable numbers.
//!
//! Times the per-rank hot kernels — CSR cell-bin rebuild (against a
//! Vec-of-Vec baseline), the sorted half-stencil neighbor build, and the
//! chunked LJ / EAM force passes at 1 and 8 workers — and writes
//! `BENCH_kernels.json` (atoms per second per kernel) for CI to archive.
//!
//! Usage: `bench_kernels [--iters N] [--out PATH]` (default 30 iterations,
//! `BENCH_kernels.json` in the working directory).

// The bins share the library crate's no-unwrap contract.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::time::Instant;
use tofumd_md::kernels::PairScratch;
use tofumd_md::lattice::FccLattice;
use tofumd_md::neighbor::{sort_locals_by_bin, CellBins, ListKind, NeighborList};
use tofumd_md::potential::{EamCu, LjCut, ManyBodyPotential, PairPotential};
use tofumd_md::Atoms;
use tofumd_threadpool::{ChunkExec, SpinPool};

/// The allocation-per-rebuild baseline the CSR layout replaces: one `Vec`
/// per bin, grown pair-wise during the scatter pass.
struct VecOfVecBins {
    lo: [f64; 3],
    inv_size: [f64; 3],
    nbin: [usize; 3],
    bins: Vec<Vec<u32>>,
}

impl VecOfVecBins {
    fn new(lo: [f64; 3], hi: [f64; 3], min_cell: f64) -> Self {
        let mut nbin = [1usize; 3];
        let mut inv_size = [0.0f64; 3];
        for d in 0..3 {
            let span = (hi[d] - lo[d]).max(min_cell);
            nbin[d] = ((span / min_cell).floor() as usize).max(1);
            inv_size[d] = nbin[d] as f64 / span;
        }
        let nbins = nbin[0] * nbin[1] * nbin[2];
        Self {
            lo,
            inv_size,
            nbin,
            bins: vec![Vec::new(); nbins],
        }
    }

    fn fill(&mut self, positions: &[[f64; 3]]) {
        for b in &mut self.bins {
            b.clear();
        }
        for (i, x) in positions.iter().enumerate() {
            let mut c = [0usize; 3];
            for d in 0..3 {
                let f = ((x[d] - self.lo[d]) * self.inv_size[d]).floor() as i64;
                c[d] = f.clamp(0, self.nbin[d] as i64 - 1) as usize;
            }
            let flat = (c[2] * self.nbin[1] + c[1]) * self.nbin[0] + c[0];
            self.bins[flat].push(i as u32);
        }
    }
}

/// Median of `iters` timed runs of `f`, in seconds.
fn time_median<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    // One warm-up run so first-touch allocations don't skew the median.
    f();
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Row {
    name: String,
    atoms: usize,
    atoms_per_sec: f64,
}

fn main() {
    let arg = |flag: &str| std::env::args().skip_while(|a| a != flag).nth(1);
    let iters: usize = arg("--iters").and_then(|v| v.parse().ok()).unwrap_or(30);
    let out = arg("--out").unwrap_or_else(|| "BENCH_kernels.json".into());

    let lat = FccLattice::from_reduced_density(0.8442);
    let (bx, pos) = lat.build(8, 8, 8);
    let l = bx.lengths();
    let mut atoms = Atoms::from_positions(pos, 1);
    sort_locals_by_bin(&mut atoms, [0.0; 3], l, 2.5 + 0.3);
    let n = atoms.nlocal;

    let cu = FccLattice::from_cell(3.615);
    let (cbx, cpos) = cu.build(8, 8, 8);
    let cl = cbx.lengths();
    let mut eam_atoms = Atoms::from_positions(cpos, 1);
    sort_locals_by_bin(&mut eam_atoms, [0.0; 3], cl, 4.95 + 1.0);
    let ne = eam_atoms.nlocal;

    let mut rows: Vec<Row> = Vec::new();
    let mut push = |name: &str, atoms: usize, secs: f64| {
        let r = Row {
            name: name.to_string(),
            atoms,
            atoms_per_sec: atoms as f64 / secs,
        };
        println!(
            "{:28} {:6} atoms  {:>12.3e} atoms/s",
            r.name, r.atoms, r.atoms_per_sec
        );
        rows.push(r);
    };

    // CSR rebuild vs the Vec-of-Vec baseline.
    {
        let mut csr = CellBins::new([0.0; 3], l, 2.5 + 0.3);
        push(
            "bins_csr_rebuild",
            n,
            time_median(iters, || csr.fill(&atoms.x, n)),
        );
        let mut vov = VecOfVecBins::new([0.0; 3], l, 2.5 + 0.3);
        push(
            "bins_vec_of_vec_rebuild",
            n,
            time_median(iters, || vov.fill(&atoms.x)),
        );
    }

    // Sorted half-stencil serial build.
    push(
        "build_sorted_serial",
        n,
        time_median(iters, || {
            std::hint::black_box(NeighborList::build(
                &atoms,
                [0.0; 3],
                l,
                ListKind::HalfNewton,
                2.5,
                0.3,
            ));
        }),
    );

    let pool = SpinPool::new(8);
    let list = NeighborList::build(&atoms, [0.0; 3], l, ListKind::HalfNewton, 2.5, 0.3);
    let eam_list = NeighborList::build(&eam_atoms, [0.0; 3], cl, ListKind::HalfNewton, 4.95, 1.0);
    let lj = LjCut::lammps_bench();
    let eam = EamCu::lammps_bench();

    for threads in [1usize, 8] {
        let exec = if threads == 1 {
            ChunkExec::Serial
        } else {
            ChunkExec::Pool(&pool)
        };
        let mut scratch = PairScratch::new();
        push(
            &format!("build_chunked_t{threads}"),
            n,
            time_median(iters, || {
                std::hint::black_box(NeighborList::build_chunked(
                    &atoms,
                    [0.0; 3],
                    l,
                    ListKind::HalfNewton,
                    2.5,
                    0.3,
                    &exec,
                ));
            }),
        );
        push(
            &format!("lj_chunked_t{threads}"),
            n,
            time_median(iters, || {
                atoms.zero_forces();
                lj.compute_chunked(&mut atoms, &list, &exec, &mut scratch);
            }),
        );
        let mut rho = Vec::new();
        let mut fp = Vec::new();
        push(
            &format!("eam_chunked_t{threads}"),
            ne,
            time_median(iters, || {
                eam_atoms.zero_forces();
                eam.compute_rho_chunked(&eam_atoms, &eam_list, &mut rho, &exec, &mut scratch);
                eam.compute_embedding_chunked(&eam_atoms, &rho, &mut fp, &exec);
                eam.compute_force_chunked(&mut eam_atoms, &eam_list, &fp, &exec, &mut scratch);
            }),
        );
    }

    // Scaling curves: the blocked row kernels at three system sizes. The
    // curves follow the kernel, not pool scaling, so they run on the
    // serial chunk executor — on a machine with fewer cores than the pool
    // has workers, pool scheduling noise would swamp the kernel-level
    // signal. The curve shape (not just one point) is the perf-regression
    // baseline: CI bands every row by name, so each curve point is held to
    // the -10% band independently.
    {
        let exec = ChunkExec::Serial;
        for (nx, ny, nz) in [(8usize, 8usize, 8usize), (16, 16, 16), (32, 32, 16)] {
            let natoms = 4 * nx * ny * nz;
            // Larger systems amortize per-iteration cost; fewer samples
            // keep the smoke run quick. The floor stays high enough that
            // the median is stable against scheduler noise.
            let curve_iters = (iters * 2048 / natoms).max(15);

            let (bx, pos) = lat.build(nx, ny, nz);
            let l = bx.lengths();
            let mut atoms = Atoms::from_positions(pos, 1);
            sort_locals_by_bin(&mut atoms, [0.0; 3], l, 2.5 + 0.3);
            let list = NeighborList::build(&atoms, [0.0; 3], l, ListKind::HalfNewton, 2.5, 0.3);
            let mut scratch = PairScratch::new();
            push(
                &format!("lj_blocked_n{natoms}"),
                natoms,
                time_median(curve_iters, || {
                    atoms.zero_forces();
                    lj.compute_chunked(&mut atoms, &list, &exec, &mut scratch);
                }),
            );

            let (cbx, cpos) = cu.build(nx, ny, nz);
            let cl = cbx.lengths();
            let mut eam_atoms = Atoms::from_positions(cpos, 1);
            sort_locals_by_bin(&mut eam_atoms, [0.0; 3], cl, 4.95 + 1.0);
            let eam_list =
                NeighborList::build(&eam_atoms, [0.0; 3], cl, ListKind::HalfNewton, 4.95, 1.0);
            let mut rho = Vec::new();
            let mut fp = Vec::new();
            push(
                &format!("eam_blocked_n{natoms}"),
                natoms,
                time_median(curve_iters, || {
                    eam_atoms.zero_forces();
                    eam.compute_rho_chunked(&eam_atoms, &eam_list, &mut rho, &exec, &mut scratch);
                    eam.compute_embedding_chunked(&eam_atoms, &rho, &mut fp, &exec);
                    eam.compute_force_chunked(&mut eam_atoms, &eam_list, &fp, &exec, &mut scratch);
                }),
            );
        }
    }

    // Energy sanity against the serial twin kernels: the chunked passes
    // contract bit-identity with the serial ones at any worker count, so
    // a single differing bit means the timed kernel is broken and the
    // throughput numbers above are meaningless.
    {
        let mut twin = atoms.clone();
        twin.zero_forces();
        let ev_serial = lj.compute(&mut twin, &list);
        let pe_atom = ev_serial.energy / n as f64;
        assert!(
            pe_atom.is_finite() && pe_atom < 0.0,
            "serial LJ twin energy/atom {pe_atom} is not a bound crystal"
        );
        let mut rho_twin = Vec::new();
        let mut fp_twin = Vec::new();
        let mut scratch = PairScratch::new();
        eam.compute_rho(&eam_atoms, &eam_list, &mut rho_twin);
        let embed_serial = eam.compute_embedding(&eam_atoms, &rho_twin, &mut fp_twin);
        let mut eam_twin = eam_atoms.clone();
        eam_twin.zero_forces();
        let eam_serial = eam.compute_force(&mut eam_twin, &eam_list, &fp_twin);
        for threads in [1usize, 8] {
            let exec = if threads == 1 {
                ChunkExec::Serial
            } else {
                ChunkExec::Pool(&pool)
            };
            atoms.zero_forces();
            let ev = lj.compute_chunked(&mut atoms, &list, &exec, &mut scratch);
            assert_eq!(
                ev.energy.to_bits(),
                ev_serial.energy.to_bits(),
                "lj_chunked_t{threads} energy {} != serial twin {}",
                ev.energy,
                ev_serial.energy
            );
            let mut rho = Vec::new();
            let mut fp = Vec::new();
            eam_atoms.zero_forces();
            eam.compute_rho_chunked(&eam_atoms, &eam_list, &mut rho, &exec, &mut scratch);
            let embed = eam.compute_embedding_chunked(&eam_atoms, &rho, &mut fp, &exec);
            let ev = eam.compute_force_chunked(&mut eam_atoms, &eam_list, &fp, &exec, &mut scratch);
            assert_eq!(
                (embed + ev.energy).to_bits(),
                (embed_serial + eam_serial.energy).to_bits(),
                "eam_chunked_t{threads} energy {} != serial twin {}",
                embed + ev.energy,
                embed_serial + eam_serial.energy
            );
        }
        println!("energy sanity: chunked kernels bit-match their serial twins");
    }

    // Hand-formatted JSON: no serde_json in the workspace, and the shape
    // is flat enough that string assembly stays readable.
    let mut json = String::from("{\n  \"bench\": \"kernels\",\n  \"iters\": ");
    json.push_str(&iters.to_string());
    json.push_str(",\n  \"results\": [\n");
    for (k, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"atoms\": {}, \"atoms_per_sec\": {:.3}}}{}\n",
            r.name,
            r.atoms,
            r.atoms_per_sec,
            if k + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out}");
}
