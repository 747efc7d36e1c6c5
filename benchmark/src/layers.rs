//! Outside-in layer probes: the one file that names functions below the
//! `Cluster` façade. Each probe times calls into a workspace crate's
//! *public* functions over the data of every rank of a live cluster, so a
//! `*_ms_per_step` / `*_ms_per_rebuild` value is one cluster-step's worth
//! of that layer at one thread and the values add up.
//!
//! Layers are the workspace crates: `md`, `core` (re-exported by the
//! façade as `comm`), `tofu`, `mpi`, `threadpool`, `model`, `runtime`.

use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tofumd::comm::engine::Op;
use tofumd::comm::{wire, CommGraph, CommPlan};
use tofumd::md::integrate::NveIntegrator;
use tofumd::md::neighbor::CellBins;
use tofumd::md::potential::Potential;
use tofumd::md::{sort_locals_by_bin, Atoms, Box3, ListKind, NeighborList, PairScratch, SerialSim};
use tofumd::mpi::Communicator;
use tofumd::runtime::config::Decomp;
use tofumd::runtime::{Cluster, RunConfig};
use tofumd::threadpool::{ChunkExec, SpinPool};
use tofumd::tofu::{CellGrid, NetParams, PutRequest, TofuNet};

/// Named probe results (`metrics::PER_LAYER` names).
pub type Values = BTreeMap<&'static str, f64>;

/// Total energy of a cluster right now.
pub fn total_energy(c: &Cluster) -> f64 {
    let t = c.thermo();
    t.pe + t.ke
}

// ---------------------------------------------------------------------
// md: the serial twin (physics oracle and single-threaded baseline)
// ---------------------------------------------------------------------

/// A cluster's initial state, gathered in tag order, from which the
/// `md::SerialSim` twin of the same system is built.
pub struct TwinSeed {
    rows: Vec<(u64, [f64; 3], [f64; 3])>,
    global: Box3,
    cfg: RunConfig,
}

/// What the twin reports.
pub struct Twin {
    /// Total energy after the requested steps.
    pub energy: f64,
    /// Host time per atom per step of the plain serial engine.
    pub ns_per_atom_step: f64,
}

impl TwinSeed {
    /// Copy every rank's locals out of a freshly built cluster (before
    /// any step).
    pub fn capture(c: &Cluster) -> Self {
        let mut rows = Vec::with_capacity(c.natoms());
        for st in c.states() {
            for i in 0..st.atoms.nlocal {
                rows.push((st.atoms.tag[i], st.atoms.x[i], st.atoms.v[i]));
            }
        }
        rows.sort_unstable_by_key(|r| r.0);
        TwinSeed {
            rows,
            global: c.global_box(),
            cfg: c.cfg,
        }
    }

    /// Build the serial twin and advance it `steps` steps.
    pub fn run(&self, steps: u64) -> Twin {
        let cfg = self.cfg;
        let mut atoms = Atoms::from_positions(self.rows.iter().map(|r| r.1).collect(), 1);
        for (i, r) in self.rows.iter().enumerate() {
            atoms.v[i] = r.2;
            atoms.typ[i] = cfg.type_of_tag(r.0);
        }
        let mut serial = SerialSim::new(
            atoms,
            self.global,
            cfg.build_potential(),
            cfg.units(),
            cfg.skin(),
            cfg.policy(),
            cfg.timestep(),
            cfg.mass(),
        );
        let t0 = Instant::now();
        serial.run(steps);
        let dt = t0.elapsed().as_secs_f64();
        let s = serial.snapshot();
        Twin {
            energy: s.pe + s.ke,
            ns_per_atom_step: dt * 1e9 / (self.rows.len() as f64 * steps.max(1) as f64),
        }
    }
}

// ---------------------------------------------------------------------
// core: exact comm counters
// ---------------------------------------------------------------------

/// The comm counters the benchmark reports, summed over ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub messages: u64,
    pub bytes: u64,
    /// Send-side staging bytes of the *ghost* ops (forward, reverse and
    /// their scalar twins) — the ones the uTofu path makes zero-copy.
    pub ghost_bytes_copied: u64,
    pub max_msg_bytes: u64,
    pub retries: u64,
    pub fallback_sends: u64,
    pub growth_events: u64,
}

impl OpCounts {
    pub fn read(c: &Cluster) -> Self {
        let stats = c.op_stats();
        let total = stats.total();
        let ghost_bytes_copied = [
            Op::Forward,
            Op::Reverse,
            Op::ForwardScalar,
            Op::ReverseScalar,
        ]
        .iter()
        .map(|&op| stats.op_total(op).bytes_copied)
        .sum();
        OpCounts {
            messages: total.messages,
            bytes: total.bytes,
            ghost_bytes_copied,
            max_msg_bytes: total.max_msg_bytes,
            retries: total.retries,
            fallback_sends: total.fallback_sends,
            growth_events: total.growth_events,
        }
    }

    /// Add the traffic between two readings. A shrinking recovery swaps
    /// every engine for a fresh one, so the counters restart; a reading
    /// pair that went backwards is that step and contributes nothing.
    pub fn add_delta(&mut self, before: &OpCounts, after: &OpCounts) {
        if after.messages < before.messages || after.bytes < before.bytes {
            return;
        }
        self.messages += after.messages - before.messages;
        self.bytes += after.bytes - before.bytes;
        self.ghost_bytes_copied += after
            .ghost_bytes_copied
            .saturating_sub(before.ghost_bytes_copied);
        self.max_msg_bytes = self.max_msg_bytes.max(after.max_msg_bytes);
        self.retries += after.retries.saturating_sub(before.retries);
        self.fallback_sends += after.fallback_sends.saturating_sub(before.fallback_sends);
        self.growth_events += after.growth_events.saturating_sub(before.growth_events);
    }
}

// ---------------------------------------------------------------------
// The probe pass
// ---------------------------------------------------------------------

/// Run `f` `reps` times, each under a span, and return the median
/// duration in seconds.
fn timed_median(
    tr: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    reps: usize,
    mut f: impl FnMut(),
) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| tr.time(name, Some(parent), &mut f).1)
        .collect();
    median(&times)
}

/// One live rank's atoms (locals + ghosts) with the binning region the
/// runtime's rebuild uses for it.
struct RankSnap {
    atoms: Atoms,
    lo: [f64; 3],
    hi: [f64; 3],
}

fn snapshot(c: &Cluster) -> Vec<RankSnap> {
    c.states()
        .iter()
        .filter(|st| st.atoms.nlocal > 0)
        .map(|st| {
            let (sub, rg) = (st.graph.sub, st.graph.r_ghost);
            RankSnap {
                atoms: st.atoms.clone(),
                lo: [sub.lo[0] - rg, sub.lo[1] - rg, sub.lo[2] - rg],
                hi: [sub.hi[0] + rg, sub.hi[1] + rg, sub.hi[2] + rg],
            }
        })
        .collect()
}

/// The list flavor `runtime::physics` builds for this cluster: p2p
/// variants on the grid use the one-sided half shell.
fn list_kind_of(c: &Cluster, potential: &Potential) -> ListKind {
    match potential.list_kind() {
        ListKind::HalfNewton if c.variant().is_p2p() && c.cfg.comm.decomp == Decomp::Grid => {
            ListKind::HalfOneSided
        }
        k => k,
    }
}

/// Every layer probe over `c`'s current state. `c` must have stepped at
/// least once (ghosts present) and its virtual-clock figures must
/// already be recorded: the forward-op probe resets the timers.
pub fn probe_layers(
    c: &mut Cluster,
    pool_threads: usize,
    tr: &mut Tracer,
    parent: SpanId,
) -> Values {
    let mut v = Values::new();
    probe_md(c, tr, parent, &mut v);
    probe_core(c, tr, parent, &mut v);
    probe_tofu(tr, parent, &mut v);
    probe_mpi(tr, parent, &mut v);
    let pool = SpinPool::new(pool_threads);
    const DISPATCHES: usize = 20_000;
    let dt = timed_median(tr, "threadpool.dispatch", parent, 3, || {
        for _ in 0..DISPATCHES {
            pool.run(&|tid| {
                black_box(tid);
            });
        }
    });
    v.insert("threadpool.dispatch_ns", dt * 1e9 / DISPATCHES as f64);
    v
}

fn probe_md(c: &Cluster, tr: &mut Tracer, parent: SpanId, v: &mut Values) {
    const REPS: usize = 3;
    let cfg = c.cfg;
    let potential = cfg.build_potential();
    let (cutoff, skin) = (potential.cutoff(), cfg.skin());
    let cell = cutoff + skin;
    let kind = list_kind_of(c, &potential);
    let mut snaps = snapshot(c);
    let nlocal: usize = snaps.iter().map(|s| s.atoms.nlocal).sum();
    let ntotal: usize = snaps.iter().map(|s| s.atoms.ntotal()).sum();

    // Bins: a fresh grid per rebuild, as `NeighborList::build_*` makes.
    let dt = timed_median(tr, "md.bins_fill", parent, REPS, || {
        for s in &snaps {
            let mut bins = CellBins::new(s.lo, s.hi, cell);
            bins.fill(&s.atoms.x, s.atoms.nlocal);
            black_box(&bins);
        }
    });
    v.insert("md.bins_fill_ms_per_rebuild", dt * 1e3);
    v.insert("md.bins_fill_ns_per_atom", dt * 1e9 / ntotal.max(1) as f64);

    // Spatial sort runs ghost-free between Exchange and Border; it
    // mutates, so every rep sorts a fresh ghost-free copy.
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut fresh: Vec<Atoms> = snaps
                .iter()
                .map(|s| {
                    let mut a = s.atoms.clone();
                    a.clear_ghosts();
                    a
                })
                .collect();
            tr.time("md.sort_locals", Some(parent), || {
                for (a, s) in fresh.iter_mut().zip(&snaps) {
                    black_box(sort_locals_by_bin(a, s.lo, s.hi, cell));
                }
            })
            .1
        })
        .collect();
    v.insert("md.sort_locals_ms_per_rebuild", median(&times) * 1e3);

    // List build: the entry `physics::rebuild_lists` uses.
    let mut lists: Vec<NeighborList> = Vec::new();
    let dt = timed_median(tr, "md.list_build", parent, REPS, || {
        lists = snaps
            .iter()
            .map(|s| {
                NeighborList::build_chunked_mode(
                    &s.atoms,
                    s.lo,
                    s.hi,
                    kind,
                    cutoff,
                    skin,
                    &ChunkExec::Serial,
                    cfg.kernel,
                )
            })
            .collect();
    });
    let npairs: usize = lists.iter().map(NeighborList::npairs).sum();
    v.insert("md.list_build_ms_per_rebuild", dt * 1e3);
    v.insert("md.list_build_ns_per_atom", dt * 1e9 / nlocal.max(1) as f64);
    v.insert(
        "md.list_pairs_per_atom",
        npairs as f64 / nlocal.max(1) as f64,
    );

    // Pair: the configured potential's chunked force pass (EAM = density
    // + embedding + force; its two mid-pair scalar ops are comm, probed
    // under core).
    let mut scratch = PairScratch::new();
    let (mut rho, mut fp) = (Vec::new(), Vec::new());
    let dt = timed_median(tr, "md.pair", parent, REPS, || {
        for (s, list) in snaps.iter_mut().zip(&lists) {
            s.atoms.zero_forces();
            match &potential {
                Potential::Pair(p) => {
                    black_box(p.compute_chunked(
                        &mut s.atoms,
                        list,
                        &ChunkExec::Serial,
                        &mut scratch,
                    ));
                }
                Potential::ManyBody(p) => {
                    p.compute_rho_chunked(
                        &s.atoms,
                        list,
                        &mut rho,
                        &ChunkExec::Serial,
                        &mut scratch,
                    );
                    black_box(p.compute_embedding_chunked(
                        &s.atoms,
                        &rho,
                        &mut fp,
                        &ChunkExec::Serial,
                    ));
                    black_box(p.compute_force_chunked(
                        &mut s.atoms,
                        list,
                        &fp,
                        &ChunkExec::Serial,
                        &mut scratch,
                    ));
                }
            }
        }
    });
    v.insert("md.pair_ms_per_step", dt * 1e3);
    v.insert("md.pair_ns_per_pair", dt * 1e9 / npairs.max(1) as f64);

    // Integrate: both velocity-Verlet halves.
    let integrator = NveIntegrator::new(cfg.timestep(), cfg.mass(), cfg.units());
    let dt = timed_median(tr, "md.integrate", parent, REPS, || {
        for s in &mut snaps {
            integrator.initial_integrate(&mut s.atoms);
            integrator.final_integrate(&mut s.atoms);
        }
    });
    v.insert("md.integrate_ms_per_step", dt * 1e3);
}

fn probe_core(c: &mut Cluster, tr: &mut Tracer, parent: SpanId, v: &mut Values) {
    const REPS: usize = 3;

    // Border classification: which send edges want each local atom.
    let selectors: Vec<_> = c
        .states()
        .iter()
        .filter(|st| st.atoms.nlocal > 0)
        .map(|st| st.graph.selector())
        .collect();
    let nlocal = c.natoms();
    let dt = {
        let states = c.states();
        timed_median(tr, "core.border_classify", parent, REPS, || {
            let mut hits = 0u64;
            for (st, sel) in states
                .iter()
                .filter(|st| st.atoms.nlocal > 0)
                .zip(&selectors)
            {
                for x in &st.atoms.x[..st.atoms.nlocal] {
                    sel.for_each_target(x, |_| hits += 1);
                }
            }
            black_box(hits);
        })
    };
    v.insert(
        "core.border_classify_ns_per_atom",
        dt * 1e9 / nlocal.max(1) as f64,
    );

    // Star-forest construction for every rank, by the constructor that
    // built this cluster's graphs.
    let global = c.global_box();
    let dt = {
        let states = c.states();
        let map = c.rank_map();
        let live = states
            .iter()
            .find(|st| st.atoms.nlocal > 0)
            .unwrap_or(&states[0]);
        let r_ghost = live.graph.r_ghost;
        match (live.graph.rcb(), live.graph.config()) {
            (Some(rcb), _) => timed_median(tr, "core.graph_build", parent, REPS, || {
                for part in 0..rcb.boxes.len() {
                    black_box(CommGraph::from_rcb(part, rcb, map, r_ghost));
                }
            }),
            (None, Some(plan_cfg)) => timed_median(tr, "core.graph_build", parent, REPS, || {
                for rank in 0..states.len() {
                    black_box(CommGraph::from_grid(CommPlan::build(
                        rank, map, &global, r_ghost, plan_cfg,
                    )));
                }
            }),
            (None, None) => 0.0,
        }
    };
    v.insert("core.graph_build_ms", dt * 1e3);

    // Wire format of the MPI lanes (uTofu ghost ops are zero-copy).
    const WIRE_F64S: usize = 512;
    const WIRE_ITERS: usize = 2_000;
    let values: Vec<f64> = (0..WIRE_F64S).map(|k| k as f64 * 0.37).collect();
    let bytes = wire::encode_f64s(&values);
    let per_byte = 1e9 / (WIRE_ITERS * WIRE_F64S * 8) as f64;
    let dt = timed_median(tr, "core.wire_encode", parent, REPS, || {
        for _ in 0..WIRE_ITERS {
            black_box(wire::encode_f64s(black_box(&values)));
        }
    });
    v.insert("core.wire_encode_ns_per_byte", dt * per_byte);
    let dt = timed_median(tr, "core.wire_decode", parent, REPS, || {
        for _ in 0..WIRE_ITERS {
            black_box(wire::decode_f64s(black_box(&bytes)));
        }
    });
    v.insert("core.wire_decode_ns_per_byte", dt * per_byte);

    // One host Forward op over all ranks, engine-agnostic. Last: it
    // zeroes the cluster's virtual clocks.
    const FWD_ITERS: u64 = 40;
    let before = OpCounts::read(c);
    let dt = timed_median(tr, "core.fwd_op", parent, REPS, || {
        black_box(c.bench_forward_exchange(FWD_ITERS));
    });
    let after = OpCounts::read(c);
    let msgs_per_op = (after.messages - before.messages) as f64 / (REPS as u64 * FWD_ITERS) as f64;
    v.insert("core.fwd_op_ms", dt * 1e3 / FWD_ITERS as f64);
    v.insert(
        "core.fwd_op_us_per_msg",
        dt * 1e6 / FWD_ITERS as f64 / msgs_per_op.max(1.0),
    );
}

/// The mesh the standalone fabric probes run on: the benchmark clusters'
/// 12 nodes / 48 ranks.
const PROBE_MESH: [u32; 3] = [2, 3, 2];

fn probe_fabric() -> Arc<TofuNet> {
    let grid = CellGrid::from_node_mesh(PROBE_MESH)
        .unwrap_or_else(|| unreachable!("{PROBE_MESH:?} folds onto TofuD cells"));
    Arc::new(TofuNet::new(grid, NetParams::default()))
}

fn probe_tofu(tr: &mut Tracer, parent: SpanId, v: &mut Values) {
    const REPS: usize = 3;
    const PUTS: usize = 2_000;
    let net = probe_fabric();
    let (stadd, _) = net.register_mem(1, 64 << 10);
    for (name, span, size) in [
        ("tofu.put_ns_64B", "tofu.put_64B", 64usize),
        ("tofu.put_ns_4KiB", "tofu.put_4KiB", 4 << 10),
        ("tofu.put_ns_64KiB", "tofu.put_64KiB", 64 << 10),
    ] {
        let data = vec![0x5au8; size];
        let dt = timed_median(tr, span, parent, REPS, || {
            for k in 0..PUTS {
                black_box(net.put(PutRequest {
                    src_node: 0,
                    tni: 0,
                    dst_node: 1,
                    dst_stadd: stadd,
                    dst_offset: 0,
                    data: &data,
                    piggyback: 0,
                    src_rank: 0,
                    seq: k as u64,
                    now: 0.0,
                    cache_injection: false,
                }));
                black_box(net.take_arrivals(1, |_| true));
            }
        });
        v.insert(name, dt * 1e9 / PUTS as f64);
    }
    const REGISTRATIONS: usize = 200;
    let dt = timed_median(tr, "tofu.register_mem", parent, REPS, || {
        // A fresh fabric per rep so the registry does not grow across reps.
        let net = probe_fabric();
        for _ in 0..REGISTRATIONS {
            black_box(net.register_mem(2, 64 << 10));
        }
    });
    v.insert("tofu.register_mem_us", dt * 1e6 / REGISTRATIONS as f64);
}

fn probe_mpi(tr: &mut Tracer, parent: SpanId, v: &mut Values) {
    const REPS: usize = 3;
    const RANKS: usize = 48;
    let mpi = Communicator::new(probe_fabric(), RANKS, 4);

    // 1 KiB eager send + matching receive between ranks on two nodes.
    // Mailboxes are bump-allocated per step; reset as the driver does.
    const BATCHES: usize = 8;
    const SENDS_PER_BATCH: usize = 256;
    let data = vec![0xa5u8; 1 << 10];
    let dt = timed_median(tr, "mpi.send_recv_1KiB", parent, REPS, || {
        for _ in 0..BATCHES {
            for k in 0..SENDS_PER_BATCH {
                let mut now = 0.0;
                mpi.send(0, 5, k as u32, &data, &mut now);
                black_box(mpi.recv(5, 0, k as u32, now));
            }
            mpi.reset_mailboxes();
        }
    });
    v.insert(
        "mpi.send_recv_ns_1KiB",
        dt * 1e9 / (BATCHES * SENDS_PER_BATCH) as f64,
    );

    const REDUCES: usize = 20_000;
    let values: Vec<f64> = (0..RANKS).map(|r| r as f64).collect();
    let mut clocks = vec![0.0; RANKS];
    let dt = timed_median(tr, "mpi.allreduce_sum", parent, REPS, || {
        for _ in 0..REDUCES {
            black_box(mpi.allreduce_sum(black_box(&values), &mut clocks));
        }
    });
    v.insert("mpi.allreduce_sum_us", dt * 1e6 / REDUCES as f64);
}

// ---------------------------------------------------------------------
// model: the paper's headline ratio
// ---------------------------------------------------------------------

/// Modeled seconds per step of `c` over its first `steps` steps (after
/// the usual two warm-up steps).
pub fn virt_step_time(mut c: Cluster, warmup: u64, steps: u64) -> f64 {
    c.run(warmup);
    c.reset_timers();
    c.run(steps);
    c.step_time()
}

// ---------------------------------------------------------------------
// runtime: checkpoint dump and restore
// ---------------------------------------------------------------------

/// Step `c` to its next reneighbor boundary, seal a checkpoint there and
/// restore a cluster from it. Returns `(dump_ms, size_mb, restore_ms)`.
pub fn probe_checkpoint(
    c: &mut Cluster,
    tr: &mut Tracer,
    parent: SpanId,
) -> Result<(f64, f64, f64), String> {
    // Checkpoints are only legal at a reneighbor boundary.
    let rebuilds = c.rebuild_count;
    let mut guard = 0;
    while c.rebuild_count == rebuilds {
        c.run_step();
        guard += 1;
        if guard > 200 {
            return Err("no reneighbor step within 200 steps".into());
        }
    }
    let (size, dump_s) = tr.time("runtime.checkpoint_dump", Some(parent), || {
        c.checkpoint_now()
    });
    let size = size.map_err(|e| format!("checkpoint_now: {e}"))?;
    let bytes = c
        .last_checkpoint()
        .ok_or("checkpoint_now left no container")?
        .to_vec();
    let (restored, restore_s) = tr.time("runtime.restore", Some(parent), || {
        Cluster::restore_from_bytes(&bytes)
    });
    let restored = restored.map_err(|e| format!("restore_from_bytes: {e}"))?;
    if restored.natoms() != c.natoms() || restored.current_step() != c.current_step() {
        return Err("restored cluster differs from the checkpointed one".into());
    }
    Ok((dump_s * 1e3, size as f64 / 1e6, restore_s * 1e3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_count_deltas_skip_an_engine_swap() {
        let c = |messages, bytes| OpCounts {
            messages,
            bytes,
            max_msg_bytes: bytes,
            ..OpCounts::default()
        };
        let mut acc = OpCounts::default();
        acc.add_delta(&c(10, 100), &c(14, 180));
        // Recovery: fresh engines, counters restart below the last reading.
        acc.add_delta(&c(14, 180), &c(3, 30));
        acc.add_delta(&c(3, 30), &c(5, 50));
        assert_eq!((acc.messages, acc.bytes), (6, 100));
        assert_eq!(acc.max_msg_bytes, 180);
    }
}
