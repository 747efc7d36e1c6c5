//! # tofumd-bench — the one program regenerating the paper's tables and figures
//!
//! `tofumd-bench <command>`: every table and figure is a report, a
//! `fn(&Opts) -> String` in `reports` printing quantities of the
//! *modeled* (virtual) clock only, so its text is a pure function of the
//! tree; `reproduce` writes each one to `results/<name>.txt`. [`cli`]
//! holds the command table and the one argument parser, `tools` the
//! commands that are not committed text (`bisect`, `overheads`,
//! `reproduce`). Host speed of the simulator itself is measured in one
//! place only, `benchmark/run.sh` at the repo root. This file holds the
//! shared plumbing: proxy-mesh selection, run orchestration and
//! plain-text table rendering.

#![warn(missing_docs)]
// Panicking escape hatches are reserved for tests; report failures with a
// message naming the input instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use tofumd_runtime::{Cluster, CommVariant, RunConfig};
use tofumd_tofu::PAPER_NODE_MESHES;

pub mod claims;
pub mod cli;
mod reports;
mod tools;

/// The proxy torus used for large-target runs: 24 nodes (2 cells), 96
/// ranks on a 4 x 6 x 4 rank grid — large enough that every rank has
/// off-node neighbors in all directions, small enough to run thousands of
/// steps in seconds.
pub const PROXY_MESH: [u32; 3] = [4, 3, 2];

/// The paper's strong-scaling node meshes (§4.3.1, Fig. 13): its machine
/// sizes without the weak-scaling 20,736-node point.
pub const STRONG_SCALING_MESHES: [(usize, [u32; 3]); 5] = {
    let m = PAPER_NODE_MESHES;
    [m[0], m[1], m[2], m[3], m[5]]
};

/// Fig. 14's weak-scaling node meshes: the paper's machine sizes up to the
/// 20,736-node point.
pub(crate) const WEAK_SCALING_MESHES: [(usize, [u32; 3]); 5] = {
    let m = PAPER_NODE_MESHES;
    [m[0], m[1], m[2], m[3], m[4]]
};

/// The paper's smallest machine (768 nodes), the target most proxy
/// figures stand in for.
pub(crate) const MESH_768: [u32; 3] = PAPER_NODE_MESHES[0].1;

/// Number of timed steps (the paper's runs report 99-step timings).
pub const PAPER_STEPS: u64 = 99;

/// A proxy torus standing in for `target_mesh` under `variant`, its ranks
/// driven by `threads` host workers. Results are bit-identical at any
/// thread count (the phase-executor determinism contract), so `threads`
/// only changes wall-clock time.
#[must_use]
pub(crate) fn proxy(
    target_mesh: [u32; 3],
    cfg: RunConfig,
    variant: CommVariant,
    threads: usize,
) -> Cluster {
    let mut cluster = Cluster::proxy(PROXY_MESH, target_mesh, cfg, variant);
    cluster.set_driver_threads(threads);
    cluster
}

/// `proxy` after `steps` timesteps, ready to be asked for its per-step
/// `step_time()` and `breakdown()`.
#[must_use]
pub fn run_proxy(
    target_mesh: [u32; 3],
    cfg: RunConfig,
    variant: CommVariant,
    steps: u64,
    threads: usize,
) -> Cluster {
    let mut cluster = proxy(target_mesh, cfg, variant, threads);
    cluster.run(steps);
    cluster
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

/// Render an aligned plain-text table under `|`-separated column `headers`.
#[must_use]
pub fn render_table(headers: &str, rows: &[Vec<String>]) -> String {
    let header_cells: Vec<String> = headers.split('|').map(String::from).collect();
    let mut widths: Vec<usize> = header_cells.iter().map(String::len).collect();
    for row in rows {
        assert_eq!(row.len(), widths.len(), "ragged table row");
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

/// Append [`render_table`] and the blank line the reports put after it.
pub(crate) fn push_table(out: &mut String, headers: &str, rows: &[Vec<String>]) {
    *out += &render_table(headers, rows);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::BTreeSet;

    /// `name`'s report at its defaults and the committed `results/` file.
    fn report_and_file(name: &str) -> (String, String) {
        let (command, report) = cli::reports()
            .find(|(c, _)| c.name == name)
            .unwrap_or_else(|| panic!("no report named {name}"));
        let path = tools::results_dir().join(format!("{name}.txt"));
        let file = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        (report(&command.defaults).text, file)
    }

    /// `fig07` terminates (it once looped forever creating and dropping
    /// the same CQ) and prints the committed figure.
    #[test]
    fn fig07_report_returns_the_committed_text() {
        let (text, file) = report_and_file("fig07");
        assert_eq!(text, file);
    }

    /// What CI checks for all fifteen through `reproduce`, here for the
    /// reports cheap enough for tier-1.
    #[test]
    fn cheap_reports_return_their_committed_texts() {
        for name in [
            "equations",
            "table1",
            "fig08",
            "fig14",
            "sensitivity",
            "congestion",
            "trace",
            "table3",
        ] {
            let (text, file) = report_and_file(name);
            assert_eq!(text, file, "{name}: run `tofumd-bench reproduce`");
        }
    }

    /// No orphan file, no unchecked report: `results/*.txt` is exactly
    /// what `reproduce` writes.
    #[test]
    fn results_dir_holds_exactly_the_reports() {
        let files: BTreeSet<String> = std::fs::read_dir(tools::results_dir())
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|file| file.ends_with(".txt"))
            .collect();
        let written: BTreeSet<String> = cli::reports()
            .map(|(c, _)| format!("{}.txt", c.name))
            .chain(["claims.txt".to_string()])
            .collect();
        assert_eq!(files, written);
    }

    /// `--threads` never reaches a report's text.
    #[test]
    fn a_report_is_the_same_text_at_any_thread_count() {
        let (command, report) = cli::reports().find(|(c, _)| c.name == "trace").unwrap();
        let at = |threads| {
            report(&cli::Opts {
                steps: 21, // one past the first reneighbor
                threads: Some(threads),
                ..command.defaults
            })
            .text
        };
        assert_eq!(at(1), at(2));
    }

    #[test]
    fn proxy_mesh_folds() {
        assert!(tofumd_tofu::CellGrid::from_node_mesh(PROXY_MESH).is_some());
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "name|value",
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
        assert!(r.step_time() > 0.0);
        assert!(r.breakdown().total() > 0.0);
    }
}
