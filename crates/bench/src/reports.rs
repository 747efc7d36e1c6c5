//! The deterministic reports: one `fn(&Opts) -> String` per table, figure
//! and extension study, each the exact text of `results/<name>.txt`.
//!
//! A report prints modeled (virtual-clock) quantities only — no host time,
//! no host thread count — so its text depends on the tree and on the
//! flags it declares in [`crate::cli::COMMANDS`], never on the machine or
//! on `--threads`.

use crate::claims::{self, finish, Report};
use crate::cli::Opts;
use crate::{
    fmt_time, proxy, push_table, render_table, run_proxy, MESH_768, STRONG_SCALING_MESHES,
    WEAK_SCALING_MESHES,
};
use std::sync::Arc;
use tofumd_core::fine;
use tofumd_core::sf::{CommGraph, PlanConfig};
use tofumd_core::topo_map::{Placement, RankMap};
use tofumd_md::region::Box3;
use tofumd_model::analytic::{opt_step_time, AnalyticWorkload};
use tofumd_model::equations::{pattern_times, Transport};
use tofumd_model::sensitivity::{headline_speedup, sweep, Knob};
use tofumd_model::{scaling, Geometry, Machine};
use tofumd_runtime::{Cluster, CommVariant, PotentialKind, RunConfig, StageBreakdown};
use tofumd_tofu::{
    CellGrid, CongestionModel, Put, PutSrc, TofuNet, Vcq, CQS_PER_TNI, TNIS_PER_NODE,
};

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
pub(crate) fn table1(_: &Opts) -> Report {
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
    let (mut rows, mut msgs) = (Vec::new(), Vec::new());
    for (pattern, row_set, total_vol) in [
        ("3-stage", geom.three_stage_rows(), geom.three_stage_total()),
        ("p2p", geom.p2p_rows(), geom.p2p_total()),
    ] {
        for row in &row_set {
            rows.push(line(
                pattern.into(),
                row.volume,
                row.hops.to_string(),
                row.msgs,
            ));
        }
        let total_msg = row_set.iter().map(|r| r.msgs).sum();
        msgs.push(f64::from(total_msg));
        rows.push(line(
            format!("{pattern} TOTAL"),
            total_vol,
            String::new(),
            total_msg,
        ));
    }
    let headers = "pattern|slab volume|atoms|fwd bytes|hops|msgs";
    push_table(&mut out, headers, &rows);

    // Cross-check: the concrete grid graph reproduces the symbolic volumes.
    let map = RankMap::new(grid_768(), Placement::TopoAware);
    let global = global_box(&map, geom.a);
    let graph = CommGraph::grid(0, &map, &global, R_GHOST, PlanConfig::NEWTON);
    let plan_total: f64 = graph.recv.iter().map(|e| graph.slab_volume(e.offset)).sum();
    out += &format!(
        "\nCommPlan cross-check: concrete half-shell volume {:.2} vs symbolic {:.2} (match: {})\n\n",
        plan_total,
        geom.p2p_total(),
        (plan_total - geom.p2p_total()).abs() < 1e-6
    );
    let bytes = geom.p2p_rows().map(|r| r.volume * DENSITY * 24.0);
    let most = bytes.into_iter().fold(0.0, f64::max);
    let readings = vec![
        ("table1.3stage-msgs", msgs[0]),
        ("table1.p2p-msgs", msgs[1]),
        ("table1.p2p-max-bytes", most),
    ];
    finish(out, readings)
}

/// Equations (3)–(8) for the 65K strong-scaling geometry and a
/// large-message geometry under MPI and uTofu injection costs: p2p loses
/// under MPI's heavy T_inj but wins under uTofu's light one, and parallel
/// injection benefits p2p most (§3.1/§3.2).
pub(crate) fn equations(_: &Opts) -> Report {
    let p = Machine::fugaku().net;
    let mut out = String::from("Equations (3)-(8) — analytic pattern times\n\n");
    let mut small = Vec::new(); // the 65K MPI and uTofu times
    for (label, n_local) in [
        ("65K / 3072 ranks (small msgs)", 21.3),
        ("1.7M / 3072 ranks", 553.0),
    ] {
        let geom = Geometry::from_atoms_per_rank(n_local, DENSITY, R_GHOST);
        let rows: Vec<Vec<String>> = [(Transport::Mpi, "MPI"), (Transport::Utofu, "uTofu")]
            .into_iter()
            .map(|(transport, name)| {
                let t = pattern_times(&geom, DENSITY, 24.0, transport, &p);
                small.push(t);
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
    let (mpi, utofu) = (small[0], small[1]);
    let loses = mpi.p2p_naive / mpi.three_stage_opt;
    let wins = utofu.three_stage_parallel / utofu.p2p_parallel;
    finish(
        out,
        vec![("eq.mpi-p2p-loses", loses), ("eq.utofu-p2p-wins", wins)],
    )
}

/// Fig. 6 — ghost-exchange transmission time of the 65K workload through
/// five implementations (the paper times 10 k iterations); claims `fig06.*`.
pub(crate) fn fig06(o: &Opts) -> Report {
    let mut out = String::new();
    out += &format!(
        "Fig. 6 — message transmission time, 768 nodes, 65K atoms, {} iterations\n\n",
        o.iters
    );
    let (mut rows, mut t) = (Vec::new(), Vec::new());
    for variant in [
        CommVariant::Ref,
        CommVariant::MpiP2p,
        CommVariant::Utofu3Stage,
        CommVariant::Utofu4TniP2p,
        CommVariant::Opt,
    ] {
        let time = exchange_time(RunConfig::lj(65_536), variant, o);
        t.push(time);
        let name = match variant {
            CommVariant::Ref => "mpi-3stage",
            _ => variant.label(),
        };
        rows.push(vec![
            name.to_string(),
            fmt_time(time),
            format!("{:+.0}%", 100.0 * (time / t[0] - 1.0)),
        ]);
    }
    let headers = "implementation|exchange time|vs mpi-3stage";
    push_table(&mut out, headers, &rows);
    let others = claims::least(t[..4].iter().copied());
    let readings = vec![
        ("fig06.mpi-p2p-loses", t[1] / t[0]),
        ("fig06.pool-p2p-cut", 100.0 * (1.0 - t[4] / t[0])),
        ("fig06.pool-p2p-fastest", others / t[4]),
    ];
    finish(out, readings)
}

/// Fig. 7 — the two VCQ binding modes on a simulated node:
/// coarse-grained (each of the 4 ranks binds one VCQ on its own TNI) and
/// fine-grained (each rank creates 6 VCQs, one per TNI, claiming CQ slot r
/// on each) — and the 9-CQ-per-TNI exhaustion rule. A `Vcq` frees its CQ
/// on drop, so each section holds the VCQs it created until its rows are
/// read.
pub(crate) fn fig07(_: &Opts) -> Report {
    let net = Machine::fugaku().net;
    let node = || Arc::new(TofuNet::new(CellGrid::new([1, 1, 1]), net));
    let mut out = String::from("Fig. 7 — VCQ binding (simulated node)\n\n");

    out.push_str("== coarse-grained: 4 ranks x 1 VCQ on their own TNI ==\n");
    let net = node();
    let vcqs: Vec<Vcq> = (0..4u32).map(|r| vcq(&net, r as usize, r)).collect();
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
            let v = vcq(&net, tni, rank);
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
    out.into()
}

/// A VCQ for `rank` on `tni` of node 0.
fn vcq(net: &Arc<TofuNet>, tni: usize, rank: u32) -> Vcq {
    Vcq::create(net.clone(), 0, tni, rank)
        .unwrap_or_else(|e| panic!("VCQ for rank {rank} TNI {tni}: {e:?}"))
}

/// One node's 4 ranks send `msgs` messages of `size` bytes to a neighbor
/// node through `vcqs_per_rank` VCQs driven by `threads` virtual threads
/// per rank. Returns the virtual time for all messages to inject.
fn send_burst(size: usize, msgs: usize, vcqs_per_rank: usize, threads: usize) -> f64 {
    let p = Machine::fugaku().net;
    let net = Arc::new(TofuNet::new(CellGrid::new([1, 1, 1]), p));
    let (dst, _) = net.register_mem(1, size.max(1) * 4);
    let payload = vec![0u8; size];
    let put = Put {
        dst_node: 1,
        dst_stadd: dst,
        dst_offset: 0,
        src: PutSrc::Bytes(&payload),
        piggyback: 0,
        seq: 0,
        cache_injection: true,
    };
    let mut done: f64 = 0.0;
    for rank in 0..4u32 {
        // This rank's VCQs: its own TNI, or all six.
        let tnis = if vcqs_per_rank == 1 {
            rank as usize..rank as usize + 1
        } else {
            0..TNIS_PER_NODE
        };
        let mut vcqs: Vec<Vcq> = tnis.map(|t| vcq(&net, t, rank)).collect();
        // Virtual comm threads: thread t posts messages t, t+T, t+2T...
        let region = if threads > 1 {
            p.pool_region_overhead
        } else {
            p.vcq_drive_overhead * vcqs_per_rank as f64
        };
        for t in 0..threads {
            let mut now = region;
            for _ in (t..msgs).step_by(threads) {
                let r = vcqs[t % vcqs_per_rank].post_reliable(&mut now, &put);
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
pub(crate) fn fig08(o: &Opts) -> Report {
    let msgs = o.msgs;
    let mut out = String::new();
    out += &format!("Fig. 8 — one-node message rate vs size ({msgs} msgs/rank/config)\n\n");
    let (mut rows, mut ts) = (Vec::new(), Vec::new());
    for size in [
        8usize, 32, 128, 512, 1024, 4096, 16384, 65536, 262_144, 1_048_576,
    ] {
        let t4 = send_burst(size, msgs, 1, 1);
        let t6 = send_burst(size, msgs, 6, 1);
        let tp = send_burst(size, msgs, 6, 6);
        ts.push((size, t4, t6, tp));
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
    let slower = claims::least(ts.iter().map(|t| t.2 / t.1));
    let boost = claims::least(ts.iter().filter(|t| t.0 < 1024).map(|t| t.1 / t.3));
    finish(
        out,
        vec![("fig08.6tni-slower", slower), ("fig08.pool-boost", boost)],
    )
}

/// Fig. 11 — accuracy: pressure evolution under reference vs optimized
/// communication, both potentials (the paper: 65 K atoms, 50 K steps;
/// `--steps 50000 --atoms 65536` is that setting). The serial engine on
/// the cluster's own initial state is the reference trajectory.
pub(crate) fn fig11(o: &Opts) -> Report {
    let (steps, natoms) = (o.steps, o.atoms);
    let sample = (steps / 20).max(1);
    let mut out = String::new();
    out += &format!("Fig. 11 — pressure accuracy, {natoms} atoms, {steps} steps\n\n");
    let mut readings = Vec::new();
    for (pot, cfg, id) in [
        ("L-J", RunConfig::lj(natoms), "fig11.lj-agree"),
        ("EAM", RunConfig::eam(natoms), "fig11.eam-agree"),
    ] {
        let mut opt = Cluster::new(crate::PROXY_MESH, cfg, CommVariant::Opt);
        opt.set_driver_threads(o.threads());
        let mut serial = opt.serial_twin();
        let (mut rows, mut worst) = (Vec::new(), 0.0f64);
        let mut done = 0;
        while done < steps {
            let n = sample.min(steps - done);
            serial.run(n);
            opt.run(n);
            done += n;
            let p_ref = serial.snapshot().pressure;
            let p_opt = opt.thermo().pressure;
            let rel = (p_opt - p_ref).abs() / p_ref.abs().max(1e-12);
            worst = worst.max(rel);
            rows.push(vec![
                done.to_string(),
                format!("{p_ref:.6}"),
                format!("{p_opt:.6}"),
                format!("{rel:.2e}"),
            ]);
        }
        out += &format!("== {pot} ==\n");
        let headers = "step|pressure (ref)|pressure (opt)|rel diff";
        push_table(&mut out, headers, &rows);
        readings.push((id, worst));
    }
    finish(out, readings)
}

/// Fig. 12 — step-by-step performance of the optimizations on 768 nodes,
/// all three panels for the 65 K and 1.7 M systems and both potentials:
/// (a) total time per 99 steps and speedup over `ref`, (b) communication
/// time, (c) pair-stage time.
pub(crate) fn fig12(o: &Opts) -> Report {
    let steps = o.steps;
    let mut out = String::new();
    out += &format!("Fig. 12 — step-by-step optimization, 768 nodes, {steps} steps\n\n");
    let (mut panels, mut fastest) = (Vec::new(), f64::INFINITY); // opt's (speedup, [comm, pair] cut)
    for (label, natoms) in [("65K particles", 65_536), ("1.7M particles", 1_700_000)] {
        for (pot, cfg) in [
            ("L-J", RunConfig::lj(natoms)),
            ("EAM", RunConfig::eam(natoms)),
        ] {
            let mut rows = Vec::new();
            let (mut reference, mut others) = (StageBreakdown::default(), f64::INFINITY);
            for variant in CommVariant::STEP_BY_STEP {
                let b = run_proxy(MESH_768, cfg, variant, steps, o.threads()).breakdown();
                if variant == CommVariant::Ref {
                    reference = b;
                }
                let speedup = reference.total() / b.total();
                let cut = [b.comm / reference.comm, b.pair / reference.pair];
                let cut = cut.map(|r| 100.0 * (1.0 - r));
                if variant == CommVariant::Opt {
                    panels.push((speedup, cut));
                    fastest = fastest.min(others / b.total());
                }
                others = others.min(b.total());
                rows.push(vec![
                    variant.label().to_string(),
                    fmt_time(b.total() * steps as f64),
                    format!("{speedup:.2}x"),
                    fmt_time(b.comm * steps as f64),
                    format!("{:.0}%", cut[0]),
                    fmt_time(b.pair * steps as f64),
                    format!("{:.0}%", cut[1]),
                ]);
            }
            out += &format!("== {label}, {pot} ==\n");
            let headers = "variant|total/99stp|speedup|comm|comm cut|pair|pair cut";
            push_table(&mut out, headers, &rows);
        }
    }
    let readings = vec![
        ("fig12.65k-lj-speedup", panels[0].0),
        ("fig12.65k-eam-speedup", panels[1].0),
        ("fig12.1.7m-lj-speedup", panels[2].0),
        ("fig12.1.7m-eam-speedup", panels[3].0),
        ("fig12.65k-lj-comm-cut", panels[0].1[0]),
        ("fig12.65k-lj-pair-cut", panels[0].1[1]),
        ("fig12.65k-eam-pair-cut", panels[1].1[1]),
        ("fig12.opt-fastest", fastest),
    ];
    finish(out, readings)
}

/// Fig. 13 + headline numbers — strong scaling from 768 to 36,864 nodes
/// (LJ 4,194,304 particles, EAM 3,456,000): per-step times, parallel
/// efficiency relative to the 768-node point (13a), pair/comm stage times
/// (13b), speedup of `opt` over `ref`, and the tau/day / us/day headline
/// throughputs.
pub(crate) fn fig13(o: &Opts) -> Report {
    let steps = o.steps;
    let mut out = String::new();
    out += &format!("Fig. 13 — strong scaling, {steps} steps per point\n\n");
    let mut readings = Vec::new();
    for (pot, cfg, natoms) in [
        ("L-J", RunConfig::lj(4_194_304), 4_194_304usize),
        ("EAM", RunConfig::eam(3_456_000), 3_456_000),
    ] {
        let (mut rows, mut times) = (Vec::new(), Vec::new()); // (ref, opt) step time
        for (nodes, mesh) in STRONG_SCALING_MESHES {
            let run = |variant| {
                let c = run_proxy(mesh, cfg, variant, steps, o.threads());
                (c.step_time(), c.breakdown())
            };
            let ((t_ref, b_ref), (t_opt, b_opt)) = (run(CommVariant::Ref), run(CommVariant::Opt));
            times.push((t_ref, t_opt));
            let (base_nodes, base) = (STRONG_SCALING_MESHES[0].0, times[0]);
            let eff_ref = scaling::parallel_efficiency(base_nodes, base.0, nodes, t_ref);
            let eff_opt = scaling::parallel_efficiency(base_nodes, base.1, nodes, t_opt);
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
        let speedups: Vec<f64> = times.iter().map(|t| t.0 / t.1).collect();
        let (last, perf) = (speedups[4], scaling::units_per_day(0.005, times[4].1));
        if pot == "L-J" {
            let tau = perf / 1e6;
            out += &format!("opt throughput at 36,864 nodes: {tau:.2}M tau/day\n\n");
            let rises = claims::least(speedups.windows(2).map(|w| w[1] / w[0]));
            readings.push(("fig13.lj-speedup", last));
            readings.push(("fig13.lj-speedup-rises", rises));
            readings.push(("fig13.lj-throughput", tau));
        } else {
            let us = scaling::ps_to_us_per_day(perf);
            out += &format!("opt throughput at 36,864 nodes: {us:.2} us/day\n\n");
            readings.push(("fig13.eam-speedup", last));
            readings.push(("fig13.eam-throughput", us));
        }
    }
    finish(out, readings)
}

/// Table 3 — strong-scaling stage breakdown at the last point (36,864
/// nodes; LJ 4,194,304 atoms, EAM 3,456,000 atoms): per-stage times and
/// percentage shares for Origin (ref) and Opt beside the paper's
/// percentage rows.
pub(crate) fn table3(o: &Opts) -> Report {
    let steps = o.steps;
    let mesh = STRONG_SCALING_MESHES[4].1;
    let mut out = String::new();
    out += &format!(
        "Table 3 — breakdown at 36,864 nodes, {steps} steps (percentages: ours (paper))\n\n"
    );
    let (lj, eam) = (RunConfig::lj(4_194_304), RunConfig::eam(3_456_000));
    let (origin, opt) = (CommVariant::Ref, CommVariant::Opt);
    let runs = [(lj, origin), (lj, opt), (eam, origin), (eam, opt)];
    let names = ["Origin-L-J", "Opt-L-J", "Origin-EAM", "Opt-EAM"];
    let (mut rows, mut readings, shares) = (Vec::new(), Vec::new(), claims::of("Table 3"));
    for ((name, (cfg, variant)), paper) in names.into_iter().zip(runs).zip(shares.chunks(5)) {
        let b = run_proxy(mesh, cfg, variant, steps, o.threads()).breakdown();
        rows.push(
            std::iter::once(name.to_string())
                .chain(b.to_array().into_iter().chain([b.total()]).map(fmt_time))
                .collect(),
        );
        let pct = b.percentages();
        readings.extend(paper.iter().zip(pct).map(|(c, p)| (c.id, p)));
        rows.push(
            std::iter::once(format!("{name} %"))
                .chain((0..5).map(|i| format!("{:.1} ({:.1})", pct[i], paper[i].judge.paper())))
                .chain([String::new()])
                .collect(),
        );
    }
    let headers = format!("potential|{}|total/step", StageBreakdown::NAMES.join("|"));
    push_table(&mut out, &headers, &rows);
    finish(out, readings)
}

/// Fig. 14 — weak scaling from 768 to 20,736 nodes: 100 K atoms *per
/// core* for LJ and 72 K for EAM (1.2 M / 864 K per rank), 99 / 72 billion
/// atoms at the last point. Per-rank workloads of this size cannot be
/// instantiated with real atoms, so this report uses `tofumd-model`'s
/// analytic path (stage costs + pattern equations) — the regime is
/// overwhelmingly pair-dominated, which is exactly why the paper observes
/// near-linear scaling.
pub(crate) fn fig14(_: &Opts) -> Report {
    let m = Machine::fugaku();
    let mut out = String::from("Fig. 14 — weak scaling (opt variant, analytic path)\n\n");
    let mut readings = Vec::new();
    for (name, w, unit, ids) in [
        (
            "L-J (100K atoms/core)",
            AnalyticWorkload::lj(100_000.0 * 12.0),
            "tau",
            ["fig14.lj-atoms", "fig14.lj-efficiency"],
        ),
        (
            "EAM (72K atoms/core)",
            AnalyticWorkload::eam(72_000.0 * 12.0),
            "ps",
            ["fig14.eam-atoms", "fig14.eam-efficiency"],
        ),
    ] {
        let (mut rows, mut last) = (Vec::new(), [0.0; 2]); // atoms (billions), efficiency
        let base_ranks = 4.0 * WEAK_SCALING_MESHES[0].0 as f64;
        let base = opt_step_time(&w, base_ranks, &m).total();
        for (nodes, _) in WEAK_SCALING_MESHES {
            let ranks = 4.0 * nodes as f64;
            let t = opt_step_time(&w, ranks, &m).total();
            let total_atoms = w.n_local * ranks;
            rows.push(vec![
                nodes.to_string(),
                format!("{:.1}B", total_atoms / 1e9),
                format!("{:.1} ms", t * 1e3),
                format!("{:.2e} atom-steps/s", total_atoms / t),
                format!("{:.1}%", 100.0 * base / t),
                format!("{:.3} {unit}/day", scaling::units_per_day(0.005, t)),
            ]);
            last = [total_atoms / 1e9, base / t];
        }
        readings.extend(ids.into_iter().zip(last));
        out += &format!("== {name} ==\n");
        let headers = "nodes|atoms|step time|aggregate perf|efficiency|throughput";
        push_table(&mut out, headers, &rows);
    }
    finish(out, readings)
}

/// Fig. 15 — extended experiment: 26, 62 and 124 messages per exchange.
/// Potentials needing a full neighbor list exchange with all 26
/// neighbors; long-cutoff potentials whose cutoff exceeds the sub-box edge
/// need 62 (Newton on) or 124 (full list). Both sides run for real: the
/// p2p engines build multi-shell plans with exact slab classification,
/// and the staged engine relays ghosts across multiple swaps per
/// dimension.
pub(crate) fn fig15(o: &Opts) -> Report {
    let mut out = String::new();
    out += &format!(
        "Fig. 15 — 26/62/124-message exchanges, 768 nodes, {} iterations\n\n",
        o.iters
    );
    let long_cutoff = |full| PotentialKind::LjLongCutoff { cutoff: 5.0, full };
    let (mut rows, mut t) = (Vec::new(), Vec::new()); // (p2p, 3-stage)
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
        t.push((t_p2p, t_staged));
        rows.push(vec![
            label.to_string(),
            fmt_time(t_p2p),
            fmt_time(t_staged),
            winner.into(),
        ]);
    }
    let headers = "scenario|p2p (opt)|3-stage (utofu)|winner";
    push_table(&mut out, headers, &rows);
    let readings = vec![
        ("fig15.26-p2p-wins", t[0].1 / t[0].0),
        ("fig15.62-p2p-wins", t[1].1 / t[1].0),
        ("fig15.124-3stage-wins", t[2].0 / t[2].1),
    ];
    finish(out, readings)
}

/// Ablations of the paper's individual design choices (DESIGN.md §5):
/// Newton's 3rd law (13-neighbor half exchange vs 26-neighbor full), LPT
/// vs round-robin comm-thread assignment, pre-registration vs buffer
/// growth, message combine vs length + payload, and topology-aware vs
/// shuffled placement. (The border-bin classifier's host cost is the
/// benchmark's `core.border_classify_ns_per_atom`.)
pub(crate) fn ablations(o: &Opts) -> Report {
    let row = |name: &str, a: String, b: String| vec![name.to_string(), a, b];
    let p = Machine::fugaku().net;
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
        let c = run_proxy(MESH_768, RunConfig::lj(1_700_000), variant, 25, o.threads());
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
            .flat_map(|r| CommGraph::grid(r, m, &global, R_GHOST, PlanConfig::NEWTON).recv)
            .map(|e| p.wire_time(522, e.hops))
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
    out.into()
}

/// Calibration sensitivity: how the headline strong-scaling speedup (LJ,
/// 36,864 nodes) responds when each calibrated constant is swept around
/// its fitted value. The directions — not the absolute numbers — carry
/// the paper's conclusions; this shows they survive 2x miscalibration of
/// any single constant.
pub(crate) fn sensitivity(_: &Opts) -> Report {
    let m = Machine::fugaku();
    let base = headline_speedup(&m);
    let mut out = String::new();
    out += "Calibration sensitivity — LJ headline speedup at 36,864 nodes\n";
    let paper = claims::get("sensitivity.headline").judge.paper();
    out += &format!("(calibrated parameter set gives {base:.2}x; paper: {paper}x)\n\n");
    let factors = [0.25, 0.5, 1.0, 2.0, 4.0];
    let mut floor = f64::INFINITY; // least speedup at x0.5 or x2
    let rows: Vec<Vec<String>> = Knob::ALL
        .into_iter()
        .map(|knob| {
            let mut row = vec![
                knob.name().to_string(),
                format!("{:.2} us", knob.default_value(&m) * 1e6),
            ];
            let samples = sweep(knob, &factors, &m);
            floor = floor.min(samples[1].speedup).min(samples[3].speedup);
            row.extend(samples.iter().map(|s| format!("{:.2}x", s.speedup)));
            row
        })
        .collect();
    let headers = "knob|calibrated|x0.25|x0.5|x1|x2|x4";
    push_table(&mut out, headers, &rows);
    let (pool, omp) = (m.net.pool_region_overhead, m.net.omp_region_overhead);
    let readings = vec![
        ("sec33.pool-region", pool * 1e6),
        ("sec33.omp-region", omp * 1e6),
        ("sec33.pool-cheaper", omp / pool),
        ("sensitivity.headline", base),
        ("sensitivity.2x-floor", floor),
    ];
    finish(out, readings)
}

/// Extension: validating §3.1's "for small message sizes, we do not
/// consider message blocking in the network". Routes a whole 768-node
/// machine's 13-neighbor exchange through a wormhole link-congestion
/// model and compares arrivals against the contention-free model used
/// everywhere else — at the paper's 65K message size (~522 B) and at
/// deliberately inflated sizes where the assumption must break.
pub(crate) fn congestion(_: &Opts) -> Report {
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
    let p = Machine::fugaku().net;
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
    out.into()
}

/// Per-step virtual-time trace of a run — observability beyond the paper's
/// aggregate numbers: which steps spike (reneighbor), how stages vary, and
/// the rank-imbalance factor that gates bulk-synchronous execution.
pub(crate) fn trace(o: &Opts) -> Report {
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
    out.into()
}
