//! The deterministic reports: one `fn(&Opts) -> String` per table, figure
//! and extension study, each the exact text of `results/<name>.txt`.
//!
//! A report prints modeled (virtual-clock) quantities only — no host time,
//! no host thread count — so its text depends on the tree and on the
//! flags it declares in [`crate::cli::COMMANDS`], never on the machine or
//! on `--threads`.

use crate::cli::Opts;
use crate::{
    fmt_time, proxy, push_table, render_table, run_proxy, MESH_768, STRONG_SCALING_MESHES,
};
use std::sync::Arc;
use tofumd_core::fine;
use tofumd_core::plan::{CommPlan, PlanConfig};
use tofumd_core::topo_map::{Placement, RankMap};
use tofumd_md::region::Box3;
use tofumd_md::{velocity, Atoms, SerialSim};
use tofumd_model::analytic::{opt_step_time, AnalyticWorkload};
use tofumd_model::equations::{pattern_times, Transport};
use tofumd_model::sensitivity::{headline_speedup, sweep, Knob};
use tofumd_model::{scaling, Geometry, StageCosts};
use tofumd_runtime::{Cluster, CommVariant, PotentialKind, RunConfig, StageBreakdown};
use tofumd_tofu::{CellGrid, CongestionModel, NetParams, TofuNet, Vcq, CQS_PER_TNI, TNIS_PER_NODE};

/// LJ reduced density of every paper workload.
const DENSITY: f64 = 0.8442;
/// Ghost cutoff of the LJ workloads: 2.5 cutoff + 0.3 skin.
const R_GHOST: f64 = 2.8;

/// The 768-node machine folded onto TofuD cells.
fn grid_768() -> CellGrid {
    CellGrid::from_node_mesh(MESH_768)
        .unwrap_or_else(|| panic!("node mesh {MESH_768:?} does not fold onto TofuD cells"))
}

/// A global box of `a`-edged cubic sub-boxes over `map`'s rank grid.
fn global_box(map: &RankMap, a: f64) -> Box3 {
    Box3::from_lengths(map.rank_grid.map(|n| a * f64::from(n)))
}

/// Modeled time of one forward exchange of `cfg` under `variant` on the
/// 768-node proxy, averaged over `o.iters` iterations.
fn exchange_time(cfg: RunConfig, variant: CommVariant, o: &Opts) -> f64 {
    proxy(MESH_768, cfg, variant, o.threads()).bench_forward_exchange(o.iters)
}

fn size_label(bytes: usize) -> String {
    if bytes >= 1024 {
        format!("{} KiB", bytes / 1024)
    } else {
        format!("{bytes} B")
    }
}

/// Table 1 — the symbolic rows (message volume, hops, message count) of
/// the 3-stage and p2p patterns at the paper's 65K-on-768-nodes geometry,
/// cross-checked against the concrete per-rank plan the communication
/// layer builds.
pub(crate) fn table1(_: &Opts) -> String {
    let n_local = 65_536.0 / 3072.0;
    let geom = Geometry::from_atoms_per_rank(n_local, DENSITY, R_GHOST);
    let mut out = String::new();
    out += &format!(
        "Table 1 — pattern analysis (a = {:.3}, r = {R_GHOST}, 65K atoms / 3072 ranks)\n\n",
        geom.a
    );
    let line = |name: String, volume: f64, hops: String, msgs: u32| {
        vec![
            name,
            format!("{volume:.2}"),
            format!("{:.1}", volume * DENSITY),
            format!("{:.0} B", volume * DENSITY * 24.0),
            hops,
            msgs.to_string(),
        ]
    };
    let mut rows = Vec::new();
    for (pattern, row_set, total_vol, total_msg) in [
        (
            "3-stage",
            geom.three_stage_rows(),
            geom.three_stage_total(),
            6,
        ),
        ("p2p", geom.p2p_rows(), geom.p2p_total(), 13),
    ] {
        for row in &row_set {
            rows.push(line(
                pattern.into(),
                row.volume,
                row.hops.to_string(),
                row.msgs,
            ));
        }
        rows.push(line(
            format!("{pattern} TOTAL"),
            total_vol,
            String::new(),
            total_msg,
        ));
    }
    let headers = "pattern|slab volume|atoms|fwd bytes|hops|msgs";
    push_table(&mut out, headers, &rows);

    // Cross-check: the concrete CommPlan reproduces the symbolic volumes.
    let map = RankMap::new(grid_768(), Placement::TopoAware);
    let plan = CommPlan::build(
        0,
        &map,
        &global_box(&map, geom.a),
        R_GHOST,
        PlanConfig::NEWTON,
    );
    let plan_total: f64 = plan
        .recv_from
        .iter()
        .map(|l| plan.slab_volume(l.offset))
        .sum();
    out += &format!(
        "\nCommPlan cross-check: concrete half-shell volume {:.2} vs symbolic {:.2} (match: {})\n",
        plan_total,
        geom.p2p_total(),
        (plan_total - geom.p2p_total()).abs() < 1e-6
    );
    out += "paper anchors: 6 messages / full shell for 3-stage, 13 / half shell for p2p;\n";
    out += "65K forward messages at most ~528 B.\n";
    out
}

/// Equations (3)–(8) for the 65K strong-scaling geometry and a
/// large-message geometry under MPI and uTofu injection costs: p2p loses
/// under MPI's heavy T_inj but wins under uTofu's light one, and parallel
/// injection benefits p2p most (§3.1/§3.2).
pub(crate) fn equations(_: &Opts) -> String {
    let p = NetParams::default();
    let mut out = String::from("Equations (3)-(8) — analytic pattern times\n\n");
    for (label, n_local) in [
        ("65K / 3072 ranks (small msgs)", 21.3),
        ("1.7M / 3072 ranks", 553.0),
    ] {
        let geom = Geometry::from_atoms_per_rank(n_local, DENSITY, R_GHOST);
        let rows: Vec<Vec<String>> = [(Transport::Mpi, "MPI"), (Transport::Utofu, "uTofu")]
            .into_iter()
            .map(|(transport, name)| {
                let t = pattern_times(&geom, DENSITY, 24.0, transport, &p);
                let times = [
                    t.three_stage_naive,
                    t.three_stage_opt,
                    t.three_stage_parallel,
                    t.p2p_naive,
                    t.p2p_opt,
                    t.p2p_parallel,
                ];
                std::iter::once(name.to_string())
                    .chain(times.map(fmt_time))
                    .collect()
            })
            .collect();
        out += &format!("== {label} ==\n");
        let headers = "transport|3stage naive (3)|3stage opt (5)|3stage par (7)|p2p naive (4)|p2p opt (6)|p2p par (8)";
        push_table(&mut out, headers, &rows);
    }
    out += "paper anchors: under MPI, Eq.(4) > Eq.(5) for small messages (naive p2p\n";
    out += "loses); under uTofu, Eq.(8) < Eq.(7) (p2p wins with parallel interfaces).\n";
    out
}

/// Fig. 6 — ghost-exchange transmission time of the 65K workload through
/// five implementations (the paper times 10 k iterations). MPI-p2p is
/// *worse* than MPI-3-stage; uTofu flips the comparison; the thread-pool
/// version is fastest.
pub(crate) fn fig06(o: &Opts) -> String {
    let mut out = String::new();
    out += &format!(
        "Fig. 6 — message transmission time, 768 nodes, 65K atoms, {} iterations\n\n",
        o.iters
    );
    let mut rows = Vec::new();
    let mut mpi_3stage = 0.0;
    for variant in [
        CommVariant::Ref,
        CommVariant::MpiP2p,
        CommVariant::Utofu3Stage,
        CommVariant::Utofu4TniP2p,
        CommVariant::Opt,
    ] {
        let t = exchange_time(RunConfig::lj(65_536), variant, o);
        let name = if variant == CommVariant::Ref {
            mpi_3stage = t;
            "mpi-3stage"
        } else {
            variant.label()
        };
        rows.push(vec![
            name.to_string(),
            fmt_time(t),
            format!("{:+.0}%", 100.0 * (t / mpi_3stage - 1.0)),
        ]);
    }
    let headers = "implementation|exchange time|vs mpi-3stage";
    push_table(&mut out, headers, &rows);
    out += "paper anchors: mpi-p2p slower than mpi-3stage; utofu-p2p ~-79% vs mpi-3stage;\n";
    out += "thread-pool p2p fastest.\n";
    out
}

/// Fig. 7 — the two VCQ binding modes on a simulated node:
/// coarse-grained (each of the 4 ranks binds one VCQ on its own TNI) and
/// fine-grained (each rank creates 6 VCQs, one per TNI, claiming CQ slot r
/// on each) — and the 9-CQ-per-TNI exhaustion rule. A `Vcq` frees its CQ
/// on drop, so each section holds the VCQs it created until its rows are
/// read.
pub(crate) fn fig07(_: &Opts) -> String {
    let node = || Arc::new(TofuNet::new(CellGrid::new([1, 1, 1]), NetParams::default()));
    let create = |net: &Arc<TofuNet>, tni: usize, rank: u32| {
        Vcq::create(net.clone(), 0, tni, rank)
            .unwrap_or_else(|e| panic!("VCQ for rank {rank} TNI {tni}: {e:?}"))
    };
    let mut out = String::from("Fig. 7 — VCQ binding (simulated node)\n\n");

    out.push_str("== coarse-grained: 4 ranks x 1 VCQ on their own TNI ==\n");
    let net = node();
    let vcqs: Vec<Vcq> = (0..4u32).map(|r| create(&net, r as usize, r)).collect();
    let rows: Vec<Vec<String>> = (0..4)
        .zip(&vcqs)
        .map(|(rank, v)| {
            vec![
                format!("rank {rank}"),
                format!("TNI {}", v.tni()),
                format!("CQ {}", v.cq()),
            ]
        })
        .collect();
    out += &render_table("rank|TNI|CQ", &rows);

    out.push_str("\n== fine-grained: 4 ranks x 6 VCQs, one per TNI (Fig. 7's scheme) ==\n");
    let net = node();
    let mut vcqs: Vec<Vcq> = Vec::new();
    let mut rows = Vec::new();
    for rank in 0..4u32 {
        let mut cells = vec![format!("rank {rank}")];
        for tni in 0..TNIS_PER_NODE {
            let v = create(&net, tni, rank);
            cells.push(format!("CQ{}", v.cq()));
            vcqs.push(v);
        }
        rows.push(cells);
    }
    out += &render_table("rank|TNI0|TNI1|TNI2|TNI3|TNI4|TNI5", &rows);
    out += &format!("\n24 CQs in use (4 ranks x 6 TNIs); each TNI has {CQS_PER_TNI} CQs, so\n");

    // Exhaustion: how many more VCQs fit on TNI0 beside the four held?
    while let Ok(v) = Vcq::create(net.clone(), 0, 0, 99) {
        vcqs.push(v);
    }
    let extra = vcqs.len() - 4 * TNIS_PER_NODE;
    out += &format!("{extra} additional VCQs fit on TNI0 before CQ exhaustion (9 - 4 = 5).\n");
    out
}

/// One node's 4 ranks send `msgs` messages of `size` bytes to a neighbor
/// node through `vcqs_per_rank` VCQs driven by `threads` virtual threads
/// per rank. Returns the virtual time for all messages to inject.
fn send_burst(size: usize, msgs: usize, vcqs_per_rank: usize, threads: usize) -> f64 {
    let p = NetParams::default();
    let net = Arc::new(TofuNet::new(CellGrid::new([1, 1, 1]), p));
    let (dst, _) = net.register_mem(1, size.max(1) * 4);
    let payload = vec![0u8; size];
    let mut done: f64 = 0.0;
    for rank in 0..4u32 {
        // This rank's VCQs: its own TNI, or all six.
        let tnis = if vcqs_per_rank == 1 {
            rank as usize..rank as usize + 1
        } else {
            0..TNIS_PER_NODE
        };
        let mut vcqs: Vec<Vcq> = tnis
            .map(|t| {
                Vcq::create(net.clone(), 0, t, rank)
                    .unwrap_or_else(|e| panic!("VCQ for rank {rank} TNI {t}: {e:?}"))
            })
            .collect();
        // Virtual comm threads: thread t posts messages t, t+T, t+2T...
        let region = if threads > 1 {
            p.pool_region_overhead
        } else {
            p.vcq_drive_overhead * vcqs_per_rank as f64
        };
        for t in 0..threads {
            let mut now = region;
            for _ in (t..msgs).step_by(threads) {
                let r = vcqs[t % vcqs_per_rank].put(&mut now, 1, dst, 0, &payload, 0, true);
                done = done.max(r.local_complete);
            }
            done = done.max(now);
        }
    }
    done
}

/// Fig. 8 — message rate and bandwidth of one node vs message size in the
/// three configurations of §3.3: a single thread driving 4 TNIs (one per
/// rank), a single thread driving 6 TNIs, and 6 pool threads driving 6
/// TNIs ("parallel"). Parallel wins for small messages; single-6TNI is
/// *below* single-4TNI (per-VCQ driving overhead, TNI contention among the
/// node's 4 ranks); large messages converge to link bandwidth.
pub(crate) fn fig08(o: &Opts) -> String {
    let msgs = o.msgs;
    let mut out = String::new();
    out += &format!("Fig. 8 — one-node message rate vs size ({msgs} msgs/rank/config)\n\n");
    let mut rows = Vec::new();
    for size in [
        8usize, 32, 128, 512, 1024, 4096, 16384, 65536, 262_144, 1_048_576,
    ] {
        let t4 = send_burst(size, msgs, 1, 1);
        let t6 = send_burst(size, msgs, 6, 1);
        let tp = send_burst(size, msgs, 6, 6);
        let total = (4 * msgs) as f64;
        let rate = |t: f64| total / t / 1e6; // Mmsg/s
        let bw = |t: f64| total * size as f64 / t / 1e9; // GB/s
        rows.push(vec![
            size_label(size),
            format!("{:.2}", rate(t4)),
            format!("{:.2}", rate(t6)),
            format!("{:.2}", rate(tp)),
            format!("{:.2}", bw(t4)),
            format!("{:.2}", bw(tp)),
        ]);
    }
    let headers =
        "msg size|single-4TNI Mmsg/s|single-6TNI Mmsg/s|parallel Mmsg/s|4TNI GB/s|parallel GB/s";
    push_table(&mut out, headers, &rows);
    out += "paper anchors reproduced: single-6TNI rate is below single-4TNI (VCQ driving\n";
    out += "overhead + TNI contention); the parallel method boosts the small-message rate\n";
    out += "by well over the paper's 50% floor; all configurations converge to\n";
    out += "bandwidth-bound behaviour for large messages.\n";
    out
}

/// Fig. 11 — accuracy: pressure evolution under reference vs optimized
/// communication, both potentials (the paper: 65 K atoms, 50 K steps;
/// `--steps 50000 --atoms 65536` is that setting). The serial engine on
/// the cluster's own initial state is the reference trajectory.
pub(crate) fn fig11(o: &Opts) -> String {
    let (steps, natoms) = (o.steps, o.atoms);
    let sample = (steps / 20).max(1);
    let mut out = String::new();
    out += &format!("Fig. 11 — pressure accuracy, {natoms} atoms, {steps} steps\n\n");
    for (pot, cfg) in [
        ("L-J", RunConfig::lj(natoms)),
        ("EAM", RunConfig::eam(natoms)),
    ] {
        let mut opt = Cluster::new(crate::PROXY_MESH, cfg, CommVariant::Opt);
        opt.set_driver_threads(o.threads());
        let mut serial = serial_twin(&opt, &cfg);
        let mut rows = Vec::new();
        let mut done = 0;
        while done < steps {
            let n = sample.min(steps - done);
            serial.run(n);
            opt.run(n);
            done += n;
            let p_ref = serial.snapshot().pressure;
            let p_opt = opt.thermo().pressure;
            rows.push(vec![
                done.to_string(),
                format!("{p_ref:.6}"),
                format!("{p_opt:.6}"),
                format!("{:.2e}", (p_opt - p_ref).abs() / p_ref.abs().max(1e-12)),
            ]);
        }
        out += &format!("== {pot} ==\n");
        let headers = "step|pressure (ref)|pressure (opt)|rel diff";
        push_table(&mut out, headers, &rows);
    }
    out += "paper anchor: optimized and reference pressures agree (Fig. 11); small\n";
    out += "late-trajectory deviations reflect floating-point summation-order chaos,\n";
    out += "exactly as between two LAMMPS runs on different rank counts.\n";
    out
}

/// The serial engine on `cluster`'s initial positions in tag order, its
/// velocities drawn the way the cluster draws them (seed, drift removal,
/// rescale to the target temperature).
fn serial_twin(cluster: &Cluster, cfg: &RunConfig) -> SerialSim {
    let mut gathered: Vec<(u64, [f64; 3])> = Vec::new();
    for st in cluster.states() {
        let a = &st.atoms;
        gathered.extend((0..a.nlocal).map(|i| (a.tag[i], a.x[i])));
    }
    gathered.sort_unstable_by_key(|g| g.0);
    let mut atoms = Atoms::from_positions(gathered.iter().map(|g| g.1).collect(), 1);
    let (mass, units, t) = (cfg.mass(), cfg.units(), cfg.temperature);
    velocity::create_velocities(&mut atoms, mass, t, units, cfg.seed);
    let vcm = velocity::center_of_mass_velocity(&atoms);
    let mut shifted = atoms.clone();
    for v in &mut shifted.v[..atoms.nlocal] {
        for d in 0..3 {
            v[d] -= vcm[d];
        }
    }
    let ke = tofumd_md::thermo::kinetic_energy(&shifted, mass, units);
    let nglobal = atoms.nlocal;
    velocity::apply_drift_and_scale(&mut atoms, vcm, ke, nglobal, t, units);
    SerialSim::new(
        atoms,
        cluster.global_box(),
        cfg.build_potential(),
        cfg.units(),
        cfg.skin(),
        cfg.policy(),
        cfg.timestep(),
        cfg.mass(),
    )
}

/// Fig. 12 — step-by-step performance of the optimizations on 768 nodes,
/// all three panels for the 65 K and 1.7 M systems and both potentials:
/// (a) total time per 99 steps and speedup over `ref`, (b) communication
/// time, (c) pair-stage time.
pub(crate) fn fig12(o: &Opts) -> String {
    let steps = o.steps;
    let mut out = String::new();
    out += &format!("Fig. 12 — step-by-step optimization, 768 nodes, {steps} steps\n\n");
    for (label, natoms) in [("65K particles", 65_536), ("1.7M particles", 1_700_000)] {
        for (pot, cfg) in [
            ("L-J", RunConfig::lj(natoms)),
            ("EAM", RunConfig::eam(natoms)),
        ] {
            let mut rows = Vec::new();
            let mut reference = StageBreakdown::default();
            for variant in CommVariant::STEP_BY_STEP {
                let b = run_proxy(MESH_768, cfg, variant, steps, o.threads()).breakdown();
                if variant == CommVariant::Ref {
                    reference = b;
                }
                rows.push(vec![
                    variant.label().to_string(),
                    fmt_time(b.total() * steps as f64),
                    format!("{:.2}x", reference.total() / b.total()),
                    fmt_time(b.comm * steps as f64),
                    format!("{:.0}%", 100.0 * (1.0 - b.comm / reference.comm)),
                    fmt_time(b.pair * steps as f64),
                    format!("{:.0}%", 100.0 * (1.0 - b.pair / reference.pair)),
                ]);
            }
            out += &format!("== {label}, {pot} ==\n");
            let headers = "variant|total/99stp|speedup|comm|comm cut|pair|pair cut";
            push_table(&mut out, headers, &rows);
        }
    }
    out += "paper anchors: 65K speedup 3.01x (LJ) / 2.45x (EAM); 1.7M 1.6x / 1.4x;\n";
    out += "comm cut ~77% and pair cut 43% (LJ) / 56% (EAM) for parallel-p2p at 65K.\n";
    out
}

/// Fig. 13 + headline numbers — strong scaling from 768 to 36,864 nodes
/// (LJ 4,194,304 particles, EAM 3,456,000): per-step times, parallel
/// efficiency relative to the 768-node point (13a), pair/comm stage times
/// (13b), speedup of `opt` over `ref`, and the tau/day / us/day headline
/// throughputs.
pub(crate) fn fig13(o: &Opts) -> String {
    let steps = o.steps;
    let mut out = String::new();
    out += &format!("Fig. 13 — strong scaling, {steps} steps per point\n\n");
    for (pot, cfg, natoms) in [
        ("L-J", RunConfig::lj(4_194_304), 4_194_304usize),
        ("EAM", RunConfig::eam(3_456_000), 3_456_000),
    ] {
        let mut rows = Vec::new();
        let mut base = [0.0f64; 2]; // ref, opt step time at 768 nodes
        let mut last_opt = 0.0;
        for (nodes, mesh) in STRONG_SCALING_MESHES {
            let run = |variant| {
                let c = run_proxy(mesh, cfg, variant, steps, o.threads());
                (c.step_time(), c.breakdown())
            };
            let ((t_ref, b_ref), (t_opt, b_opt)) = (run(CommVariant::Ref), run(CommVariant::Opt));
            if nodes == 768 {
                base = [t_ref, t_opt];
            }
            last_opt = t_opt;
            let eff_ref = scaling::parallel_efficiency(768, base[0], nodes, t_ref);
            let eff_opt = scaling::parallel_efficiency(768, base[1], nodes, t_opt);
            rows.push(vec![
                nodes.to_string(),
                format!("{:.1}", natoms as f64 / (4 * nodes * 12) as f64),
                fmt_time(t_ref),
                format!("{:.0}%", 100.0 * eff_ref),
                fmt_time(t_opt),
                format!("{:.0}%", 100.0 * eff_opt),
                format!("{:.2}x", t_ref / t_opt),
                fmt_time(b_ref.pair),
                fmt_time(b_opt.pair),
                fmt_time(b_ref.comm),
                fmt_time(b_opt.comm),
            ]);
        }
        out += &format!("== {pot}, {natoms} particles ==\n");
        let headers = "nodes|atoms/core|ref/step|eff|opt/step|eff|speedup|ref pair|opt pair|ref comm|opt comm";
        push_table(&mut out, headers, &rows);
        let perf = scaling::units_per_day(0.005, last_opt);
        if pot == "L-J" {
            out += &format!(
                "opt throughput at 36,864 nodes: {:.2}M tau/day (paper: 8.77M)\n\n",
                perf / 1e6
            );
        } else {
            out += &format!(
                "opt throughput at 36,864 nodes: {:.2} us/day (paper: 2.87)\n\n",
                scaling::ps_to_us_per_day(perf)
            );
        }
    }
    out
}

/// Table 3 — strong-scaling stage breakdown at the last point (36,864
/// nodes; LJ 4,194,304 atoms, EAM 3,456,000 atoms): per-stage times and
/// percentage shares for Origin (ref) and Opt beside the paper's
/// percentage rows.
pub(crate) fn table3(o: &Opts) -> String {
    let steps = o.steps;
    let mesh = STRONG_SCALING_MESHES[4].1;
    let mut out = String::new();
    out += &format!(
        "Table 3 — breakdown at 36,864 nodes, {steps} steps (percentages: ours (paper))\n\n"
    );
    /// Paper percentage rows (Table 3).
    const PAPER: [(&str, [f64; 5]); 4] = [
        ("Origin-L-J", [15.3, 1.5, 64.85, 9.36, 8.99]),
        ("Opt-L-J", [26.71, 3.71, 43.67, 10.23, 15.68]),
        ("Origin-EAM", [43.44, 2.3, 33.5, 3.85, 16.91]),
        ("Opt-EAM", [40.85, 4.1, 20.02, 3.19, 31.84]),
    ];
    let (lj, eam) = (RunConfig::lj(4_194_304), RunConfig::eam(3_456_000));
    let (origin, opt) = (CommVariant::Ref, CommVariant::Opt);
    let runs = [(lj, origin), (lj, opt), (eam, origin), (eam, opt)];
    let mut rows = Vec::new();
    for ((name, paper_pct), (cfg, variant)) in PAPER.into_iter().zip(runs) {
        let b = run_proxy(mesh, cfg, variant, steps, o.threads()).breakdown();
        let stages = [b.pair, b.neigh, b.comm, b.modify, b.other, b.total()];
        rows.push(
            std::iter::once(name.to_string())
                .chain(stages.map(fmt_time))
                .collect(),
        );
        let pct = b.percentages();
        rows.push(
            std::iter::once(format!("{name} %"))
                .chain((0..5).map(|i| format!("{:.1} ({:.1})", pct[i], paper_pct[i])))
                .chain([String::new()])
                .collect(),
        );
    }
    let headers = "potential|Pair|Neigh|Comm|Modify|Other|total/step";
    push_table(&mut out, headers, &rows);
    out
}

/// Fig. 14 — weak scaling from 768 to 20,736 nodes: 100 K atoms *per
/// core* for LJ and 72 K for EAM (1.2 M / 864 K per rank), 99 / 72 billion
/// atoms at the last point. Per-rank workloads of this size cannot be
/// instantiated with real atoms, so this report uses `tofumd-model`'s
/// analytic path (stage costs + pattern equations) — the regime is
/// overwhelmingly pair-dominated, which is exactly why the paper observes
/// near-linear scaling.
pub(crate) fn fig14(_: &Opts) -> String {
    let costs = StageCosts::default();
    let p = NetParams::default();
    let mut out = String::from("Fig. 14 — weak scaling (opt variant, analytic path)\n\n");
    for (name, w, unit) in [
        (
            "L-J (100K atoms/core)",
            AnalyticWorkload::lj(100_000.0 * 12.0),
            "tau",
        ),
        (
            "EAM (72K atoms/core)",
            AnalyticWorkload::eam(72_000.0 * 12.0),
            "ps",
        ),
    ] {
        let mut rows = Vec::new();
        let base = opt_step_time(&w, 4.0 * 768.0, &costs, &p).total();
        for nodes in [768usize, 2160, 6144, 18432, 20736] {
            let ranks = 4.0 * nodes as f64;
            let t = opt_step_time(&w, ranks, &costs, &p).total();
            let total_atoms = w.n_local * ranks;
            rows.push(vec![
                nodes.to_string(),
                format!("{:.1}B", total_atoms / 1e9),
                format!("{:.1} ms", t * 1e3),
                format!("{:.2e} atom-steps/s", total_atoms / t),
                format!("{:.1}%", 100.0 * base / t),
                format!("{:.3} {unit}/day", scaling::units_per_day(0.005, t)),
            ]);
        }
        out += &format!("== {name} ==\n");
        let headers = "nodes|atoms|step time|aggregate perf|efficiency|throughput";
        push_table(&mut out, headers, &rows);
    }
    out += "paper anchors: 99 / 72 billion atoms at 20,736 nodes; nearly linear scaling\n";
    out += "(aggregate performance grows ~linearly with node count, per-step time flat).\n";
    out
}

/// Fig. 15 — extended experiment: 26, 62 and 124 messages per exchange.
/// Potentials needing a full neighbor list exchange with all 26
/// neighbors; long-cutoff potentials whose cutoff exceeds the sub-box edge
/// need 62 (Newton on) or 124 (full list). Both sides run for real: the
/// p2p engines build multi-shell plans with exact slab classification,
/// and the staged engine relays ghosts across multiple swaps per
/// dimension.
pub(crate) fn fig15(o: &Opts) -> String {
    let mut out = String::new();
    out += &format!(
        "Fig. 15 — 26/62/124-message exchanges, 768 nodes, {} iterations\n\n",
        o.iters
    );
    let long_cutoff = |full| PotentialKind::LjLongCutoff { cutoff: 5.0, full };
    let mut rows = Vec::new();
    for (label, kind) in [
        ("26 (full list, cutoff < sub-box)", PotentialKind::LjFull),
        ("62 (Newton, cutoff > sub-box)", long_cutoff(false)),
        ("124 (full list, cutoff > sub-box)", long_cutoff(true)),
    ] {
        let cfg = RunConfig {
            kind,
            ..RunConfig::lj(65_536)
        };
        let t_p2p = exchange_time(cfg, CommVariant::Opt, o);
        let t_staged = exchange_time(cfg, CommVariant::Utofu3Stage, o);
        let winner = if t_p2p < t_staged { "p2p" } else { "3-stage" };
        rows.push(vec![
            label.to_string(),
            fmt_time(t_p2p),
            fmt_time(t_staged),
            winner.into(),
        ]);
    }
    let headers = "scenario|p2p (opt)|3-stage (utofu)|winner";
    push_table(&mut out, headers, &rows);
    out += "\npaper anchor: the optimized p2p wins at 26 and 62 messages but loses at\n";
    out += "124 — the 3-stage message count scales linearly in the shell count, p2p's\n";
    out += "with its cube.\n";
    out
}

/// Ablations of the paper's individual design choices (DESIGN.md §5):
/// Newton's 3rd law (13-neighbor half exchange vs 26-neighbor full), LPT
/// vs round-robin comm-thread assignment, pre-registration vs buffer
/// growth, message combine vs length + payload, and topology-aware vs
/// shuffled placement. (The border-bin classifier's host cost is the
/// benchmark's `core.border_classify_ns_per_atom`.)
pub(crate) fn ablations(o: &Opts) -> String {
    let row = |name: &str, a: String, b: String| vec![name.to_string(), a, b];
    let p = NetParams::default();
    let mut out = String::new();
    out += &format!(
        "Ablations ({} exchange iterations where timed)\n\n",
        o.iters
    );

    // 1. Newton halving.
    let half = RunConfig::lj(65_536);
    let full = RunConfig {
        kind: PotentialKind::LjFull,
        ..half
    };
    let measure = |cfg| {
        let mut c = proxy(MESH_768, cfg, CommVariant::Opt, o.threads());
        let t = c.bench_forward_exchange(o.iters);
        let ghosts: usize = c.states().iter().map(|s| s.atoms.nghost()).sum();
        (ghosts, t)
    };
    let ((g_half, t_half), (g_full, t_full)) = (measure(half), measure(full));
    out += "== 1. Newton's 3rd law (13 vs 26 neighbors) ==\n";
    let rows = [
        row("half (Newton on)", g_half.to_string(), fmt_time(t_half)),
        row("full (Newton off)", g_full.to_string(), fmt_time(t_full)),
    ];
    let headers = "mode|ghosts total|exchange time";
    push_table(&mut out, headers, &rows);
    out += &format!(
        "ghost volume ratio {:.2} (theory 2.0), exchange-time ratio {:.2}\n\n",
        g_full as f64 / g_half as f64,
        t_full / t_half
    );

    // 2. LPT vs round-robin across 6 comm threads (CPU makespan: packing
    // + posting; wire time overlaps with other threads' work).
    for (label, n_local) in [("65K workload", 21.3), ("1.7M workload", 553.0)] {
        let geom = Geometry::from_atoms_per_rank(n_local, DENSITY, R_GHOST);
        let mut costs = Vec::new();
        for row in geom.p2p_rows() {
            let bytes = (row.volume * DENSITY * 24.0) as usize;
            let cost = p.pack_cost(bytes) + p.cpu_per_put_utofu;
            costs.extend((0..row.msgs).map(|_| cost));
        }
        let mut lanes = Vec::new();
        fine::balance_lpt(costs.len(), |k| costs[k], &mut [0.0; 6], &mut lanes);
        let lpt = fine::makespan(&lanes, &costs);
        let rr = fine::makespan(&fine::balance_round_robin(costs.len(), 6), &costs);
        out += &format!("== 2. Comm-thread load balancing, {label} ==\n");
        let rows = [
            vec!["LPT (size x hops)".into(), fmt_time(lpt)],
            vec!["round-robin".into(), fmt_time(rr)],
        ];
        push_table(&mut out, "assignment|CPU makespan", &rows);
        out += &format!(
            "LPT improves the critical path by {:.0}%\n\n",
            100.0 * (1.0 - lpt / rr)
        );
    }

    // 3. Pre-registration vs dynamic buffers.
    let run_25 = |name, variant| {
        let mut c = proxy(MESH_768, RunConfig::lj(1_700_000), variant, o.threads());
        c.run(25);
        row(
            name,
            c.growth_events().to_string(),
            fmt_time(c.setup_cost()),
        )
    };
    out += "== 3. Pre-registered addresses (25 steps, 1.7M workload) ==\n";
    let rows = [
        run_25("opt (pre-registered)", CommVariant::Opt),
        run_25("baseline uTofu (grow on demand)", CommVariant::Utofu4TniP2p),
    ];
    let headers = "variant|re-registrations during run|setup cost";
    push_table(&mut out, headers, &rows);
    out += "opt registers its theoretical maximum once at setup and never again;\n";
    out += "the baseline stalls mid-run to re-register grown buffers\n\n";

    // 4. Message combine. One exchange, 13 links: combined = 1 message per
    // link; split = a length message + a payload message per link.
    let combined = p.cpu_per_put_utofu + p.wire_time(512 + 8, 1);
    let split = 2.0 * p.cpu_per_put_utofu + p.wire_time(8, 1) + p.wire_time(512, 1);
    out += "== 4. Message combine (length-prefixed single message) ==\n";
    let rows = [
        row("combined", fmt_time(combined), fmt_time(13.0 * combined)),
        row("length + payload", fmt_time(split), fmt_time(13.0 * split)),
    ];
    let headers = "protocol|per link|per exchange (13 links)";
    push_table(&mut out, headers, &rows);
    out += &format!(
        "combine saves {:.2} us per exchange\n\n",
        13.0 * (split - combined) * 1e6
    );

    // 5. Topology map. Mean per-message wire time over a sample of ranks'
    // 13 recv links at the full 768-node scale (522-byte forward messages).
    let mean_wire = |m: &RankMap| -> f64 {
        let global = global_box(m, 2.935);
        let wires: Vec<f64> = (0..m.nranks())
            .step_by(97)
            .flat_map(|r| CommPlan::build(r, m, &global, R_GHOST, PlanConfig::NEWTON).recv_from)
            .map(|l| p.wire_time(522, l.hops))
            .collect();
        wires.iter().sum::<f64>() / wires.len() as f64
    };
    let mean_hops =
        |m: &RankMap| -> f64 { (0..64).map(|r| m.mean_neighbor_hops(r * 37)).sum::<f64>() / 64.0 };
    let topo = RankMap::new(grid_768(), Placement::TopoAware);
    let rand = RankMap::new(grid_768(), Placement::Shuffled { seed: 7 });
    let (w_topo, w_rand) = (mean_wire(&topo), mean_wire(&rand));
    out += "== 5. Topology mapping (768-node machine, 522 B forward messages) ==\n";
    let (h_topo, h_rand) = (mean_hops(&topo), mean_hops(&rand));
    let rows = [
        row("topo-aware", format!("{h_topo:.2}"), fmt_time(w_topo)),
        row("shuffled", format!("{h_rand:.2}"), fmt_time(w_rand)),
    ];
    let headers = "placement|mean neighbor hops|mean message wire time";
    push_table(&mut out, headers, &rows);
    out += &format!(
        "hop inflation {:.1}x; per-message latency inflation {:.2}x\n",
        h_rand / h_topo,
        w_rand / w_topo
    );
    out
}

/// Calibration sensitivity: how the headline strong-scaling speedup (LJ,
/// 36,864 nodes) responds when each calibrated constant is swept around
/// its fitted value. The directions — not the absolute numbers — carry
/// the paper's conclusions; this shows they survive 2x miscalibration of
/// any single constant.
pub(crate) fn sensitivity(_: &Opts) -> String {
    let costs = StageCosts::default();
    let p = NetParams::default();
    let base = headline_speedup(&p, &costs);
    let mut out = String::new();
    out += "Calibration sensitivity — LJ headline speedup at 36,864 nodes\n";
    out += &format!("(calibrated parameter set gives {base:.2}x; paper: 2.9x)\n\n");
    let factors = [0.25, 0.5, 1.0, 2.0, 4.0];
    let rows: Vec<Vec<String>> = Knob::ALL
        .into_iter()
        .map(|knob| {
            let mut row = vec![
                knob.name().to_string(),
                format!("{:.2} us", knob.default_value(&p) * 1e6),
            ];
            let samples = sweep(knob, &factors, &costs);
            row.extend(samples.iter().map(|s| format!("{:.2}x", s.speedup)));
            row
        })
        .collect();
    let headers = "knob|calibrated|x0.25|x0.5|x1|x2|x4";
    push_table(&mut out, headers, &rows);
    out += "\nreadings: MPI cost and OpenMP overhead scale the *baseline* (speedup grows\n";
    out += "with them); uTofu cost and pool overhead scale the *optimized* code (speedup\n";
    out += "shrinks). No single 2x miscalibration drops the speedup below ~1.5x — the\n";
    out += "paper's conclusion is robust to the constants we had to fit.\n";
    out
}

/// Extension: validating §3.1's "for small message sizes, we do not
/// consider message blocking in the network". Routes a whole 768-node
/// machine's 13-neighbor exchange through a wormhole link-congestion
/// model and compares arrivals against the contention-free model used
/// everywhere else — at the paper's 65K message size (~522 B) and at
/// deliberately inflated sizes where the assumption must break.
pub(crate) fn congestion(_: &Opts) -> String {
    const OFFSETS: [[u32; 3]; 13] = [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
        [1, 1, 0],
        [1, 0, 1],
        [0, 1, 1],
        [1, 1, 1],
        [1, 11, 0],
        [1, 0, 7],
        [0, 1, 7],
        [1, 11, 7],
        [1, 1, 7],
        [1, 11, 1],
    ];
    let mut out = String::new();
    out += "§3.1 no-blocking assumption check — 768-node exchange, all rank pairs\n\n";
    let p = NetParams::default();
    let grid = grid_768();
    let mesh = grid.node_mesh();
    let mut model = CongestionModel::new(&grid, p);
    let mut rows = Vec::new();
    for bytes in [522usize, 4096, 65_536, 1 << 20] {
        model.reset();
        // Real departure schedule: messages leave a node spaced by the
        // injection interval (4 ranks x 13 messages over 6 TNIs), not all
        // at t = 0.
        let slot = p.cpu_per_put_utofu + 4.0 * p.tni_occupancy(bytes) / 6.0;
        let mut max_excess: f64 = 0.0;
        let mut sum_excess = 0.0;
        let mut n = 0u64;
        for x in 0..mesh[0] {
            for y in 0..mesh[1] {
                for z in 0..mesh[2] {
                    // Desynchronize nodes slightly (packing time varies
                    // with local atom counts in reality).
                    let jitter = f64::from((x * 7 + y * 13 + z * 29) % 11) * 0.03e-6;
                    for (k, d) in OFFSETS.iter().enumerate() {
                        let from = [x, y, z];
                        let to = [0, 1, 2].map(|i| (from[i] + d[i]) % mesh[i]);
                        let depart = jitter + k as f64 * slot;
                        let excess = model.transmit(from, to, bytes, depart)
                            - model.free_flight(from, to, bytes, depart);
                        max_excess = max_excess.max(excess);
                        sum_excess += excess;
                        n += 1;
                    }
                }
            }
        }
        let mean_excess = sum_excess / n as f64;
        let flight = p.wire_time(bytes, 2);
        // Scale reference: the full exchange takes ~13 injection slots.
        let exchange = 13.0 * slot + flight;
        rows.push(vec![
            size_label(bytes),
            format!("{:.3} us", flight * 1e6),
            format!("{:.3} us", mean_excess * 1e6),
            format!("{:.3} us", max_excess * 1e6),
            format!("{:.1}%", 100.0 * mean_excess / exchange),
        ]);
    }
    let headers = "msg size|free-flight (2 hops)|mean blocking|max blocking|mean/exchange";
    push_table(&mut out, headers, &rows);
    out += "\nAt the paper's strong-scaling message size (~0.5 KB) the mean blocking is\n";
    out += "a few hundred nanoseconds — single-digit percent of an exchange, supporting\n";
    out += "§3.1's simplification. Megabyte messages accumulate ~ms-scale worst-case\n";
    out += "blocking; the weak-scaling regime is compute-bound long before that\n";
    out += "matters, but the assumption is genuinely size-limited.\n";
    out
}

/// Per-step virtual-time trace of a run — observability beyond the paper's
/// aggregate numbers: which steps spike (reneighbor), how stages vary, and
/// the rank-imbalance factor that gates bulk-synchronous execution.
pub(crate) fn trace(o: &Opts) -> String {
    let mut out = String::new();
    out += &format!(
        "Per-step trace — 65K LJ on 768 nodes, {} steps\n\n",
        o.steps
    );
    for variant in [CommVariant::Ref, CommVariant::Opt] {
        let mut c = proxy(MESH_768, RunConfig::lj(65_536), variant, o.threads());
        let trace = c.run_traced(o.steps);
        out += &format!("== {} ==\n", variant.label());
        out.push_str(&trace.report());
        out += &format!("rank imbalance factor: {:.3}\n", c.imbalance());
        // Compact per-step view: total time with rebuild markers.
        let mean = trace.mean().total();
        let marks: String = trace
            .steps
            .iter()
            .map(|r| {
                let total: f64 = r.stages.iter().sum();
                if r.rebuilt {
                    'R'
                } else if total > 1.2 * mean {
                    '^'
                } else if total < 0.8 * mean {
                    '.'
                } else {
                    '-'
                }
            })
            .collect();
        out += &format!("steps:  {marks}   (R = reneighbor, ^ high, - typical, . low)\n\n");
    }
    out
}
