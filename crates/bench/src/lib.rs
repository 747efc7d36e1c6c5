//! # tofumd-bench — harness regenerating the paper's tables and figures
//!
//! Each `src/bin/*` binary reproduces one table or figure from the
//! *modeled* (virtual) clock. Host speed of the simulator itself is
//! measured in one place only, `benchmark/run.sh` at the repo root. This
//! library holds the shared plumbing: proxy-mesh selection, run
//! orchestration and plain-text table rendering.

#![warn(missing_docs)]
// Panicking escape hatches are reserved for tests; report failures with a
// message naming the input instead (the bins inherit the same contract).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Dimension loops (`for d in 0..3`) index by physical dimension on fixed
// [f64; 3] vectors; the index is the semantics, so the iterator rewrite the
// lint suggests would be less clear.
#![allow(clippy::needless_range_loop)]

use std::sync::Arc;
use tofumd_runtime::{Cluster, CommVariant, RunConfig, StageBreakdown};
use tofumd_tofu::{CellGrid, NetParams, TofuNet, Vcq, CQS_PER_TNI, TNIS_PER_NODE};

/// The proxy torus used for large-target runs: 24 nodes (2 cells), 96
/// ranks on a 4 x 6 x 4 rank grid — large enough that every rank has
/// off-node neighbors in all directions, small enough to run thousands of
/// steps in seconds.
pub const PROXY_MESH: [u32; 3] = [4, 3, 2];

/// The paper's strong-scaling node meshes (§4.3.1).
pub const STRONG_SCALING_MESHES: [(usize, [u32; 3]); 5] = [
    (768, [8, 12, 8]),
    (2160, [12, 15, 12]),
    (6144, [16, 24, 16]),
    (18432, [24, 32, 24]),
    (36864, [32, 36, 32]),
];

/// Number of timed steps (the paper's runs report 99-step timings).
pub const PAPER_STEPS: u64 = 99;

/// Outcome of one proxy run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Mean virtual seconds per step (slowest-rank clock).
    pub step_time: f64,
    /// Mean per-step stage breakdown.
    pub breakdown: StageBreakdown,
}

/// Run `steps` timesteps of `cfg` on a proxy torus standing in for
/// `target_mesh`, under `variant`, driving ranks with `threads` host
/// workers; returns per-step timings. Results are bit-identical at any
/// thread count (the phase-executor determinism contract), so `threads`
/// only changes wall-clock time.
#[must_use]
pub fn run_proxy(
    target_mesh: [u32; 3],
    cfg: RunConfig,
    variant: CommVariant,
    steps: u64,
    threads: usize,
) -> RunResult {
    let mut cluster = Cluster::proxy(PROXY_MESH, target_mesh, cfg, variant);
    cluster.set_driver_threads(threads);
    cluster.run(steps);
    RunResult {
        step_time: cluster.step_time(),
        breakdown: cluster.breakdown(),
    }
}

/// Parse `--threads N` from the process args; defaults to the host's
/// available parallelism. Shared by every figure/table binary.
#[must_use]
pub fn threads_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
        .max(1)
}

/// Format seconds as an adaptive human unit.
#[must_use]
pub fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.2} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Render an aligned plain-text table.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {c:<w$} |"));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// The text of `--bin fig07` (`results/fig07.txt`): the two VCQ binding
/// modes on a simulated node — coarse-grained (each of the 4 ranks binds
/// one VCQ on its own TNI) and fine-grained (each rank creates 6 VCQs, one
/// per TNI, claiming CQ slot r on each) — and the 9-CQ-per-TNI exhaustion
/// rule. A `Vcq` frees its CQ on drop, so each section holds the VCQs it
/// created until its rows are read.
#[must_use]
pub fn fig07_report() -> String {
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
    out.push_str(&render_table(&["rank", "TNI", "CQ"], &rows));

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
    out.push_str(&render_table(
        &["rank", "TNI0", "TNI1", "TNI2", "TNI3", "TNI4", "TNI5"],
        &rows,
    ));
    out.push_str(&format!(
        "\n24 CQs in use (4 ranks x 6 TNIs); each TNI has {CQS_PER_TNI} CQs, so\n"
    ));

    // Exhaustion: how many more VCQs fit on TNI0 beside the four held?
    while let Ok(v) = Vcq::create(net.clone(), 0, 0, 99) {
        vcqs.push(v);
    }
    let extra = vcqs.len() - 4 * TNIS_PER_NODE;
    out.push_str(&format!(
        "{extra} additional VCQs fit on TNI0 before CQ exhaustion (9 - 4 = 5).\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `fig07` terminates (it once looped forever creating and dropping
    /// the same CQ) and prints the committed figure.
    #[test]
    fn fig07_report_returns_the_committed_text() {
        assert_eq!(fig07_report(), include_str!("../../../results/fig07.txt"));
    }

    #[test]
    fn proxy_mesh_folds() {
        assert!(tofumd_tofu::CellGrid::from_node_mesh(PROXY_MESH).is_some());
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        assert!(t.contains("| name      | value |"));
        assert!(t.contains("| long-name | 22    |"));
    }

    #[test]
    fn time_formatting_units() {
        assert_eq!(fmt_time(2.0), "2.000 s");
        assert_eq!(fmt_time(2.5e-3), "2.50 ms");
        assert_eq!(fmt_time(49.2e-6), "49.20 us");
        assert!(fmt_time(3e-9).ends_with("ns"));
    }

    #[test]
    fn smoke_proxy_run() {
        let r = run_proxy([8, 12, 8], RunConfig::lj(65_536), CommVariant::Opt, 3, 2);
        assert!(r.step_time > 0.0);
        assert!(r.breakdown.total() > 0.0);
    }
}
