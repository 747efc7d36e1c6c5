//! Per-step virtual-time tracing and load-imbalance statistics.
//!
//! The paper's strong-scaling regime leaves ~2 atoms per core, so the
//! slowest rank — not the mean — gates every stage. This module records a
//! per-step stage timeline from a [`crate::Cluster`] run and summarizes
//! stage shares, step-to-step variation (reneighbor steps stand out), and
//! the max/mean rank imbalance.

use crate::cluster::StageBreakdown;
use serde::{Deserialize, Serialize};
use tofumd_core::engine::{Op, OpKind, OpStats};
use tofumd_core::wire;

/// Payload f64s per atom record of each op (Exchange and Border records
/// also carry the tag and type; the small framing overhead is ignored).
fn record_f64s(op: Op) -> usize {
    match op.kind() {
        OpKind::Exchange => wire::EXCHANGE_RECORD_F64S,
        OpKind::Border => wire::BORDER_RECORD_F64S,
        OpKind::Ghost(g) => g.unit(),
    }
}

/// One op's aggregate comm counters over a traced run, normalized per
/// rank-step — the live counterpart of Table 1's `total_msg` /
/// `total_atom` columns.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpCommRow {
    /// Op label ("exchange", "border", ...).
    pub op: &'static str,
    /// Messages posted per rank per step.
    pub messages: f64,
    /// Atom records moved per rank per step (estimated from payload bytes).
    pub atoms: f64,
    /// Payload bytes per rank per step.
    pub bytes: f64,
    /// Largest single message observed anywhere (bytes).
    pub max_msg_bytes: u64,
    /// Remote-buffer growth events over the whole trace.
    pub growth_events: u64,
    /// Put retransmissions over the whole trace (fault-injection runs).
    pub retries: u64,
    /// Transport anomalies over the whole trace: reliable-stack fallback
    /// sends + duplicate deliveries dropped + overwrites detected.
    pub faults: u64,
    /// Send-side staging bytes per rank per step — 0.0 on the zero-copy
    /// registered-region wire path, `bytes` on fully staged transports.
    #[serde(default)]
    pub copied: f64,
}

/// Fold an [`OpStats`] delta into per-op rows normalized by `rank_steps`
/// (= ranks × steps). Ops that moved nothing and saw no faults are
/// omitted.
#[must_use]
pub fn comm_rows(stats: &OpStats, rank_steps: f64) -> Vec<OpCommRow> {
    let norm = rank_steps.max(1.0);
    Op::ALL
        .iter()
        .filter_map(|&op| {
            let t = stats.op_total(op);
            if t.messages == 0 && t.growth_events == 0 && t.retries == 0 && t.faults() == 0 {
                return None;
            }
            Some(OpCommRow {
                op: op.label(),
                messages: t.messages as f64 / norm,
                atoms: t.bytes as f64 / (8 * record_f64s(op)) as f64 / norm,
                bytes: t.bytes as f64 / norm,
                max_msg_bytes: t.max_msg_bytes,
                growth_events: t.growth_events,
                retries: t.retries,
                faults: t.faults(),
                copied: t.bytes_copied as f64 / norm,
            })
        })
        .collect()
}

/// One step's stage record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Timestep number.
    pub step: u64,
    /// Stage durations for this step (mean over ranks).
    pub stages: [f64; 5],
    /// Slowest-rank clock advance this step.
    pub max_clock_delta: f64,
    /// Whether a neighbor rebuild (exchange + border + list) ran.
    pub rebuilt: bool,
    /// Comm time hidden behind interior compute this step (mean over
    /// ranks); zero under the barrier plan or a non-overlapping variant.
    #[serde(default)]
    pub overlapped: f64,
}

/// A recorded run trace.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Per-step records in order.
    pub steps: Vec<StepRecord>,
    /// Per-op comm counters over the traced window (per rank-step).
    pub comm: Vec<OpCommRow>,
    /// Per-rank local atom counts at the end of the traced window — the
    /// load the decomposition handed each rank (RCB's win over the grid
    /// on skewed systems shows up here).
    #[serde(default)]
    pub atom_counts: Vec<usize>,
    /// Max/mean of `atom_counts` (1.0 = perfectly balanced).
    #[serde(default)]
    pub atom_imbalance: f64,
    /// Per-step `(step, max/mean imbalance)` history. The end-of-run
    /// `atom_counts` snapshot alone would let a mid-run rebalance
    /// masquerade as a run that was balanced throughout; the sample
    /// series is the actual evidence (each rebalance shows as a drop
    /// back toward 1.0).
    #[serde(default)]
    pub imbalance_samples: Vec<ImbalanceSample>,
    /// Steps at which a mid-run rebalance rebuilt the decomposition.
    #[serde(default)]
    pub rebalance_steps: Vec<u64>,
    /// Checkpoint and rank-death recovery counters of the traced run.
    #[serde(default)]
    pub recovery: RecoveryStats,
}

/// Checkpoint-cost and shrinking-recovery counters (Table 3's robustness
/// companion: what surviving a rank death cost in virtual time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Checkpoints taken (auto + manual).
    pub checkpoints: u64,
    /// Total virtual time charged for writing checkpoints (per rank).
    pub checkpoint_cost: f64,
    /// Rank-death recoveries performed.
    pub recoveries: u64,
    /// Timesteps rolled back and replayed across all recoveries.
    pub steps_lost: u64,
    /// Virtual time from each death to the end of its recovery, summed.
    pub recovery_time: f64,
}

impl RecoveryStats {
    /// Mean time to recovery in virtual seconds (0 when no recovery ran).
    #[must_use]
    pub fn mttr(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.recovery_time / self.recoveries as f64
        }
    }
}

/// Max-over-mean of a per-rank atom distribution; 1.0 when empty or
/// perfectly balanced.
#[must_use]
pub fn atom_imbalance(counts: &[usize]) -> f64 {
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
    if mean <= 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// Stage names in breakdown order.
pub const STAGE_NAMES: [&str; 5] = ["Pair", "Neigh", "Comm", "Modify", "Other"];

/// One `(step, max/mean atom imbalance)` point of the traced history.
pub type ImbalanceSample = (u64, f64);

impl Trace {
    /// Record count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when no steps were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Append a record.
    pub fn push(&mut self, rec: StepRecord) {
        self.steps.push(rec);
    }

    /// Record the per-rank atom distribution (and its max/mean
    /// imbalance) the traced run ended with.
    pub fn set_atom_counts(&mut self, counts: Vec<usize>) {
        self.atom_imbalance = atom_imbalance(&counts);
        self.atom_counts = counts;
    }

    /// Append one `(step, imbalance)` sample to the history.
    pub fn push_imbalance_sample(&mut self, step: u64, imbalance: f64) {
        self.imbalance_samples.push((step, imbalance));
    }

    /// Record that a rebalance rebuilt the decomposition at `step`.
    pub fn push_rebalance_step(&mut self, step: u64) {
        self.rebalance_steps.push(step);
    }

    /// (first, worst, final) of the imbalance history, each as a
    /// `(step, imbalance)` pair; `None` until a sample is recorded.
    #[must_use]
    pub fn imbalance_history(&self) -> Option<(ImbalanceSample, ImbalanceSample, ImbalanceSample)> {
        let first = *self.imbalance_samples.first()?;
        let last = *self.imbalance_samples.last()?;
        let worst =
            self.imbalance_samples
                .iter()
                .copied()
                .fold(first, |w, s| if s.1 > w.1 { s } else { w });
        Some((first, worst, last))
    }

    /// Mean breakdown over all recorded steps.
    #[must_use]
    pub fn mean(&self) -> StageBreakdown {
        let n = self.steps.len().max(1) as f64;
        let mut sum = [0.0; 5];
        for r in &self.steps {
            for (s, v) in sum.iter_mut().zip(&r.stages) {
                *s += v;
            }
        }
        StageBreakdown {
            pair: sum[0] / n,
            neigh: sum[1] / n,
            comm: sum[2] / n,
            modify: sum[3] / n,
            other: sum[4] / n,
        }
    }

    /// Per-stage (min, mean, max) across steps.
    #[must_use]
    pub fn stage_stats(&self) -> [(f64, f64, f64); 5] {
        let mut out = [(f64::INFINITY, 0.0, f64::NEG_INFINITY); 5];
        if self.steps.is_empty() {
            return [(0.0, 0.0, 0.0); 5];
        }
        for r in &self.steps {
            for (o, v) in out.iter_mut().zip(&r.stages) {
                o.0 = o.0.min(*v);
                o.1 += v;
                o.2 = o.2.max(*v);
            }
        }
        for o in &mut out {
            o.1 /= self.steps.len() as f64;
        }
        out
    }

    /// Ratio of the mean rebuild-step total to the mean plain-step total —
    /// how much a reneighbor step costs relative to a forward step.
    #[must_use]
    pub fn rebuild_cost_ratio(&self) -> Option<f64> {
        let total = |r: &StepRecord| r.stages.iter().sum::<f64>();
        let (mut rb, mut nrb, mut crb, mut cnrb) = (0.0, 0.0, 0u32, 0u32);
        for r in &self.steps {
            if r.rebuilt {
                rb += total(r);
                crb += 1;
            } else {
                nrb += total(r);
                cnrb += 1;
            }
        }
        if crb == 0 || cnrb == 0 {
            return None;
        }
        Some((rb / f64::from(crb)) / (nrb / f64::from(cnrb)))
    }

    /// Per-step (min, mean, max) of the overlapped comm time.
    #[must_use]
    pub fn overlap_stats(&self) -> (f64, f64, f64) {
        if self.steps.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let mut stats = (f64::INFINITY, 0.0, f64::NEG_INFINITY);
        for r in &self.steps {
            stats.0 = stats.0.min(r.overlapped);
            stats.1 += r.overlapped;
            stats.2 = stats.2.max(r.overlapped);
        }
        stats.1 /= self.steps.len() as f64;
        stats
    }

    /// Render a compact text report.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        let stats = self.stage_stats();
        out.push_str("stage   min        mean       max (per step)\n");
        for (name, (mn, mean, mx)) in STAGE_NAMES.iter().zip(stats) {
            out.push_str(&format!(
                "{name:<7} {:>8.2}us {:>8.2}us {:>8.2}us\n",
                mn * 1e6,
                mean * 1e6,
                mx * 1e6
            ));
        }
        let (omn, omean, omx) = self.overlap_stats();
        out.push_str(&format!(
            "Overlap {:>8.2}us {:>8.2}us {:>8.2}us (comm hidden behind interior compute)\n",
            omn * 1e6,
            omean * 1e6,
            omx * 1e6
        ));
        if let Some(ratio) = self.rebuild_cost_ratio() {
            out.push_str(&format!(
                "reneighbor steps cost {ratio:.2}x a forward step\n"
            ));
        }
        if !self.atom_counts.is_empty() {
            let min = self.atom_counts.iter().copied().min().unwrap_or(0);
            let max = self.atom_counts.iter().copied().max().unwrap_or(0);
            let mean =
                self.atom_counts.iter().sum::<usize>() as f64 / self.atom_counts.len() as f64;
            out.push_str(&format!(
                "atoms/rank min {min} mean {mean:.1} max {max}  imbalance {:.3} (max/mean)\n",
                self.atom_imbalance
            ));
        }
        if let Some(((fs, fi), (ws, wi), (ls, li))) = self.imbalance_history() {
            out.push_str(&format!(
                "imbalance history: first {fi:.3} @step {fs}, worst {wi:.3} @step {ws}, \
                 final {li:.3} @step {ls}\n"
            ));
            if !self.rebalance_steps.is_empty() {
                let steps: Vec<String> = self.rebalance_steps.iter().map(u64::to_string).collect();
                out.push_str(&format!("rebalanced at steps {}\n", steps.join(", ")));
            }
        }
        if self.recovery.checkpoints > 0 || self.recovery.recoveries > 0 {
            out.push_str(&format!(
                "checkpoints {} ({:.2}us charged/rank)\n",
                self.recovery.checkpoints,
                self.recovery.checkpoint_cost * 1e6
            ));
            out.push_str(&format!(
                "recoveries {}  steps lost {}  virtual-time MTTR {:.2}us\n",
                self.recovery.recoveries,
                self.recovery.steps_lost,
                self.recovery.mttr() * 1e6
            ));
        }
        if !self.comm.is_empty() {
            out.push_str(
                "op          msg/rank/step  atoms/rank/step  bytes/rank/step  copied/rank/step  \
                 max_msg  growth  retries  faults\n",
            );
            for r in &self.comm {
                out.push_str(&format!(
                    "{:<11} {:>13.2} {:>16.1} {:>16.1} {:>17.1} {:>8} {:>7} {:>8} {:>7}\n",
                    r.op,
                    r.messages,
                    r.atoms,
                    r.bytes,
                    r.copied,
                    r.max_msg_bytes,
                    r.growth_events,
                    r.retries,
                    r.faults
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(step: u64, comm: f64, rebuilt: bool) -> StepRecord {
        StepRecord {
            step,
            stages: [10e-6, if rebuilt { 5e-6 } else { 0.0 }, comm, 2e-6, 1e-6],
            max_clock_delta: 20e-6,
            rebuilt,
            overlapped: 0.5e-6,
        }
    }

    #[test]
    fn overlap_column_renders_and_folds() {
        let mut t = Trace::default();
        t.push(rec(1, 4e-6, false));
        t.push(StepRecord {
            overlapped: 1.5e-6,
            ..rec(2, 4e-6, false)
        });
        let (mn, mean, mx) = t.overlap_stats();
        assert_eq!(mn, 0.5e-6);
        assert_eq!(mx, 1.5e-6);
        assert!((mean - 1.0e-6).abs() < 1e-18);
        assert!(t.report().contains("Overlap"), "report misses the column");
        assert_eq!(Trace::default().overlap_stats(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn mean_over_steps() {
        let mut t = Trace::default();
        t.push(rec(1, 4e-6, false));
        t.push(rec(2, 8e-6, false));
        let m = t.mean();
        assert!((m.comm - 6e-6).abs() < 1e-18);
        assert!((m.pair - 10e-6).abs() < 1e-18);
    }

    #[test]
    fn stats_track_extremes() {
        let mut t = Trace::default();
        t.push(rec(1, 4e-6, false));
        t.push(rec(2, 8e-6, true));
        let s = t.stage_stats();
        assert_eq!(s[2].0, 4e-6);
        assert_eq!(s[2].2, 8e-6);
    }

    #[test]
    fn rebuild_ratio_requires_both_kinds() {
        let mut t = Trace::default();
        t.push(rec(1, 4e-6, false));
        assert!(t.rebuild_cost_ratio().is_none());
        t.push(rec(2, 4e-6, true));
        let r = t.rebuild_cost_ratio().unwrap();
        assert!(r > 1.0, "rebuild steps carry the Neigh cost: {r}");
    }

    #[test]
    fn report_renders_all_stages() {
        let mut t = Trace::default();
        t.push(rec(1, 4e-6, false));
        let rep = t.report();
        for name in STAGE_NAMES {
            assert!(rep.contains(name), "missing {name} in report");
        }
    }

    #[test]
    fn comm_rows_normalize_and_render() {
        let mut stats = OpStats::default();
        // 96 forward messages of 30 atoms (3 f64s each) over 2 rank-steps.
        for _ in 0..96 {
            stats.at(Op::Forward, 0).count(30 * 3 * 8);
        }
        stats.at(Op::Border, 0).growth_events += 1;
        stats.at(Op::Forward, 0).retries += 2;
        stats.at(Op::Forward, 0).fallback_sends += 1;
        stats.at(Op::Exchange, 0).dup_drops += 3;
        stats.at(Op::Forward, 0).copied(30 * 3 * 8);
        let rows = comm_rows(&stats, 2.0);
        assert_eq!(
            rows.len(),
            3,
            "exchange (faults only) + border (growth only) + forward"
        );
        let fwd = rows.iter().find(|r| r.op == "forward").unwrap();
        assert!((fwd.messages - 48.0).abs() < 1e-12);
        assert!((fwd.atoms - 48.0 * 30.0).abs() < 1e-9);
        assert_eq!(fwd.max_msg_bytes, 720);
        assert_eq!(fwd.retries, 2);
        assert_eq!(fwd.faults, 1, "fallback send counts as a fault");
        assert!(
            (fwd.copied - 360.0).abs() < 1e-12,
            "staged bytes normalize per rank-step"
        );
        let exch = rows.iter().find(|r| r.op == "exchange").unwrap();
        assert_eq!(exch.faults, 3, "duplicate drops count as faults");
        let mut t = Trace::default();
        t.push(rec(1, 4e-6, false));
        t.comm = rows;
        let rep = t.report();
        assert!(rep.contains("forward"), "per-op table missing: {rep}");
        assert!(rep.contains("msg/rank/step"));
        assert!(rep.contains("retries"), "retry column missing: {rep}");
        assert!(
            rep.contains("copied/rank/step"),
            "copied column missing: {rep}"
        );
    }

    #[test]
    fn atom_counts_render_with_imbalance() {
        let mut t = Trace::default();
        t.push(rec(1, 4e-6, false));
        t.set_atom_counts(vec![100, 100, 200]);
        assert!((t.atom_imbalance - 1.5).abs() < 1e-12);
        let rep = t.report();
        assert!(rep.contains("atoms/rank"), "{rep}");
        assert!(rep.contains("imbalance 1.500"), "{rep}");
        // Empty distribution stays silent and degenerates to balanced.
        assert_eq!(atom_imbalance(&[]), 1.0);
        assert!(!Trace::default().report().contains("atoms/rank"));
    }

    #[test]
    fn imbalance_history_reports_first_worst_final() {
        let mut t = Trace::default();
        assert!(t.imbalance_history().is_none());
        assert!(!t.report().contains("imbalance history"));
        t.push(rec(1, 4e-6, false));
        for (step, imb) in [(1, 1.10), (2, 1.34), (3, 1.02)] {
            t.push_imbalance_sample(step, imb);
        }
        t.push_rebalance_step(3);
        let ((fs, fi), (ws, wi), (ls, li)) = t.imbalance_history().unwrap();
        assert_eq!((fs, ws, ls), (1, 2, 3));
        assert_eq!((fi, wi, li), (1.10, 1.34, 1.02));
        let rep = t.report();
        assert!(rep.contains("first 1.100 @step 1"), "{rep}");
        assert!(rep.contains("worst 1.340 @step 2"), "{rep}");
        assert!(rep.contains("final 1.020 @step 3"), "{rep}");
        assert!(rep.contains("rebalanced at steps 3"), "{rep}");
    }

    #[test]
    fn recovery_stats_render_and_compute_mttr() {
        let mut t = Trace::default();
        t.push(rec(1, 4e-6, false));
        assert!(!t.report().contains("recoveries"), "silent when unused");
        t.recovery = RecoveryStats {
            checkpoints: 3,
            checkpoint_cost: 6e-6,
            recoveries: 2,
            steps_lost: 14,
            recovery_time: 8e-6,
        };
        assert!((t.recovery.mttr() - 4e-6).abs() < 1e-18);
        assert_eq!(RecoveryStats::default().mttr(), 0.0);
        let rep = t.report();
        assert!(rep.contains("checkpoints 3"), "{rep}");
        assert!(rep.contains("recoveries 2"), "{rep}");
        assert!(rep.contains("steps lost 14"), "{rep}");
        assert!(rep.contains("MTTR 4.00us"), "{rep}");
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.stage_stats(), [(0.0, 0.0, 0.0); 5]);
        assert_eq!(t.mean().total(), 0.0);
    }
}
