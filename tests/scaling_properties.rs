//! Integration: the paper's headline performance *shapes* hold in the
//! simulated runs — who wins, in which regime, by roughly what factor.

use tofumd::runtime::{Cluster, CommVariant, PotentialKind, RunConfig};

const PROXY: [u32; 3] = [2, 3, 2];

fn step_time(target: [u32; 3], cfg: RunConfig, variant: CommVariant, steps: u64) -> f64 {
    let mut c = Cluster::proxy(PROXY, target, cfg, variant);
    c.run(steps);
    c.step_time()
}

#[test]
fn opt_speedup_grows_with_node_count() {
    // Fig. 13: strong-scaling speedup of opt over ref increases from the
    // first point to the last.
    // The paper's real LJ workload: 4,194,304 atoms. (A scaled-down count
    // would push the 36,864-node point below the single-shell regime.)
    let cfg = RunConfig::lj(4_194_304);
    let s_small = {
        let r = step_time([8, 12, 8], cfg, CommVariant::Ref, 8);
        let o = step_time([8, 12, 8], cfg, CommVariant::Opt, 8);
        r / o
    };
    let s_large = {
        let r = step_time([32, 36, 32], cfg, CommVariant::Ref, 8);
        let o = step_time([32, 36, 32], cfg, CommVariant::Opt, 8);
        r / o
    };
    assert!(s_small > 1.0, "opt must beat ref at 768 nodes: {s_small}");
    assert!(
        s_large > s_small,
        "speedup must grow with scale: {s_small} -> {s_large}"
    );
    assert!(
        (1.5..6.0).contains(&s_large),
        "last-point speedup {s_large} far from the paper's ~2.9x band"
    );
}

#[test]
fn mpi_p2p_is_slower_than_mpi_3stage() {
    // §3.2's negative result for small messages.
    let cfg = RunConfig::lj(65_536);
    let mut ref3 = Cluster::proxy(PROXY, [8, 12, 8], cfg, CommVariant::Ref);
    let mut p2p = Cluster::proxy(PROXY, [8, 12, 8], cfg, CommVariant::MpiP2p);
    let t3 = ref3.bench_forward_exchange(200);
    let tp = p2p.bench_forward_exchange(200);
    assert!(
        tp > t3,
        "naive MPI p2p ({tp}) must lose to MPI 3-stage ({t3})"
    );
}

#[test]
fn utofu_flips_the_pattern_comparison() {
    // §3.2: uTofu's light injection makes p2p win.
    let cfg = RunConfig::lj(65_536);
    let mut staged = Cluster::proxy(PROXY, [8, 12, 8], cfg, CommVariant::Utofu3Stage);
    let mut pool = Cluster::proxy(PROXY, [8, 12, 8], cfg, CommVariant::Opt);
    let ts = staged.bench_forward_exchange(200);
    let tp = pool.bench_forward_exchange(200);
    assert!(tp < ts, "pool p2p ({tp}) must beat uTofu 3-stage ({ts})");
}

#[test]
fn comm_reduction_is_in_the_paper_band() {
    // Fig. 12b: parallel-p2p cuts communication by ~77% on the 65K system.
    let cfg = RunConfig::lj(65_536);
    let mut r = Cluster::proxy(PROXY, [8, 12, 8], cfg, CommVariant::Ref);
    let mut o = Cluster::proxy(PROXY, [8, 12, 8], cfg, CommVariant::Opt);
    r.run(25);
    o.run(25);
    let cut = 1.0 - o.breakdown().comm / r.breakdown().comm;
    assert!(
        (0.55..0.92).contains(&cut),
        "comm reduction {cut:.2} outside the paper's ~0.77 band"
    );
}

#[test]
fn six_tni_single_thread_is_an_antipattern() {
    // §4.2: 6 TNIs from one thread is slower than 4 TNIs (one per rank).
    let cfg = RunConfig::lj(65_536);
    let mut four = Cluster::proxy(PROXY, [8, 12, 8], cfg, CommVariant::Utofu4TniP2p);
    let mut six = Cluster::proxy(PROXY, [8, 12, 8], cfg, CommVariant::Utofu6TniP2p);
    let t4 = four.bench_forward_exchange(300);
    let t6 = six.bench_forward_exchange(300);
    assert!(
        t6 > t4,
        "6TNI single-thread ({t6}) must lose to 4TNI ({t4})"
    );
}

#[test]
fn p2p_loses_at_124_neighbors() {
    // Fig. 15's third scenario: full list + cutoff > sub-box. The p2p
    // exchange must degrade super-linearly in the neighbor count; compare
    // per-message efficiency against the 26-neighbor case.
    let base = RunConfig {
        kind: PotentialKind::LjFull,
        ..RunConfig::lj(65_536)
    };
    let long = RunConfig {
        kind: PotentialKind::LjLongCutoff {
            cutoff: 5.0,
            full: true,
        },
        ..RunConfig::lj(65_536)
    };
    let mut c26 = Cluster::proxy(PROXY, [8, 12, 8], base, CommVariant::Opt);
    let mut c124 = Cluster::proxy(PROXY, [8, 12, 8], long, CommVariant::Opt);
    let t26 = c26.bench_forward_exchange(100);
    let t124 = c124.bench_forward_exchange(100);
    // 124/26 ~ 4.8x the messages; the O(N^2) matching must push the time
    // ratio visibly above linear-in-messages would-be parity per message.
    assert!(
        t124 > 2.5 * t26,
        "124-neighbor exchange ({t124}) should cost much more than 26 ({t26})"
    );
}

#[test]
fn opt_setup_is_costlier_but_steps_never_reregister() {
    let cfg = RunConfig::lj(1_700_000);
    let mut opt = Cluster::proxy(PROXY, [8, 12, 8], cfg, CommVariant::Opt);
    let mut base = Cluster::proxy(PROXY, [8, 12, 8], cfg, CommVariant::Utofu4TniP2p);
    assert!(opt.setup_cost() > base.setup_cost());
    assert_eq!(base.growth_events(), 0, "a fresh cluster has grown nothing");
    opt.run(25);
    assert_eq!(opt.growth_events(), 0, "prereg must never grow buffers");
    base.run(25);
    assert!(
        base.growth_events() > 0,
        "baseline must pay dynamic growth during the run"
    );
}

#[test]
fn proxy_and_analytic_models_agree_on_magnitude() {
    // The closed-form model (used for weak scaling) and the proxy-torus
    // simulation must agree within a factor of two on the optimized
    // configuration's step time — they share constants but differ in
    // mechanism (analytic equations vs event-level fabric).
    use tofumd::model::analytic::{opt_step_time, AnalyticWorkload};
    use tofumd::model::Machine;
    let cfg = RunConfig::lj(4_194_304);
    let mut c = Cluster::proxy(PROXY, [8, 12, 8], cfg, CommVariant::Opt);
    c.run(20);
    let proxy = c.step_time();
    let n_local = cfg.natoms_target as f64 / (4.0 * 768.0);
    let w = AnalyticWorkload::lj(n_local);
    let analytic = opt_step_time(&w, 4.0 * 768.0, &Machine::fugaku()).total();
    let ratio = proxy / analytic;
    assert!(
        (0.5..2.0).contains(&ratio),
        "proxy {proxy} vs analytic {analytic}: ratio {ratio}"
    );
}

#[test]
fn rebuild_steps_dominate_trace_spikes() {
    // The per-step trace must show reneighbor steps as the expensive
    // outliers (exchange + border + list rebuild all land there).
    let mut c = Cluster::proxy(
        PROXY,
        [8, 12, 8],
        RunConfig::lj(1_700_000),
        CommVariant::Opt,
    );
    let trace = c.run_traced(25);
    let ratio = trace.rebuild_cost_ratio().expect("both step kinds present");
    assert!(
        ratio > 1.5,
        "rebuild steps should clearly exceed forward steps: {ratio}"
    );
}

#[test]
fn live_message_counts_match_table1() {
    // Table 1 in vivo: one forward exchange posts 13 messages per rank
    // under p2p (Newton half) and 6 under the staged pattern, and the
    // staged pattern moves ~2x the ghost payload (full vs half shell).
    let cfg = RunConfig::lj(65_536);
    let count = |variant: CommVariant| {
        let mut c = Cluster::proxy(PROXY, [8, 12, 8], cfg, variant);
        let before = c.op_stats().total();
        let _ = c.bench_forward_exchange(10);
        let after = c.op_stats().total();
        let per_rank_per_exchange =
            (after.messages - before.messages) as f64 / (10.0 * c.nranks() as f64);
        let bytes = (after.bytes - before.bytes) as f64 / (10.0 * c.nranks() as f64);
        (per_rank_per_exchange, bytes)
    };
    let (p2p_msgs, p2p_bytes) = count(CommVariant::Opt);
    let (staged_msgs, staged_bytes) = count(CommVariant::Utofu3Stage);
    assert!(
        (p2p_msgs - 13.0).abs() < 1e-9,
        "p2p posts 13 messages/exchange, got {p2p_msgs}"
    );
    assert!(
        (staged_msgs - 6.0).abs() < 1e-9,
        "3-stage posts 6 messages/exchange, got {staged_msgs}"
    );
    // Staged full shell ~ 2x the p2p half shell (frame headers and the
    // carry-forward structure blur it slightly).
    let ratio = staged_bytes / p2p_bytes;
    assert!(
        (1.6..2.4).contains(&ratio),
        "full/half shell byte ratio {ratio} (theory 2.0)"
    );
}
