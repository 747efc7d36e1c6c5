//! `--compare A.json B.json`: one row per (workload, end-to-end metric)
//! with both medians, their ratio (base A), the metric's bound and a
//! verdict. Modeled metrics and per-layer counts are compared bitwise.

use crate::json::Value;
use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (bit-identical, for a modeled metric).
    Ok,
    /// A modeled metric whose bits differ, without being worse by more
    /// than the bound.
    Changed,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The repeat-to-repeat spread of a side is wider than the bound, so
    /// the pair can show neither "unchanged" nor "regressed".
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Changed => "changed",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub samples: Vec<f64>,
}

/// Share of A by which B is worse (negative when B is better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(m: &EndToEnd, a: &Reading, b: &Reading) -> Verdict {
    let worse = worse_by(m.better, a.value, b.value);
    if m.exact {
        return if a.value.to_bits() == b.value.to_bits() {
            Verdict::Ok
        } else if worse > m.bound {
            Verdict::Regressed
        } else {
            Verdict::Changed
        };
    }
    if spread(&a.samples).max(spread(&b.samples)) > m.bound {
        Verdict::Unresolved
    } else if worse > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn reading(workload: &Value, section: &str, name: &str) -> Option<Reading> {
    let m = workload.get(section)?.get(name)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        samples: m
            .get("samples")
            .and_then(Value::as_arr)
            .map(|s| s.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default(),
    })
}

fn workload_named<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

/// The comparison as printable lines plus the number of regressed rows.
/// Errors when a file lacks a workload or metric the other has.
pub fn compare(a: &Value, b: &Value) -> Result<(Vec<String>, usize), String> {
    let mut lines = vec![format!(
        "{:<12} {:<22} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    )];
    let mut regressed = 0;
    let mut exact_compared = 0;
    let mut exact_differ = Vec::new();
    let workloads = a
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("A has no workloads array")?;
    for wa in workloads {
        let name = wa
            .get("name")
            .and_then(Value::as_str)
            .ok_or("A has an unnamed workload")?;
        let wb = workload_named(b, name).ok_or(format!("B has no workload {name}"))?;
        for m in END_TO_END {
            let missing = |side| format!("{side} lacks {name}/{}", m.name);
            let ra = reading(wa, "end_to_end", m.name).ok_or_else(|| missing("A"))?;
            let rb = reading(wb, "end_to_end", m.name).ok_or_else(|| missing("B"))?;
            let verdict = judge(m, &ra, &rb);
            regressed += usize::from(verdict == Verdict::Regressed);
            lines.push(format!(
                "{:<12} {:<22} {:>14.6} {:>14.6} {:>9.4} {:>5.0}%  {}",
                name,
                format!("{} [{}]", m.name, m.unit),
                ra.value,
                rb.value,
                rb.value / ra.value,
                m.bound * 100.0,
                verdict.label()
            ));
        }
        // Counts and modeled per-layer values: present only when both
        // sides ran the traced pass.
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            if let (Some(ra), Some(rb)) = (
                reading(wa, "per_layer", m.name),
                reading(wb, "per_layer", m.name),
            ) {
                exact_compared += 1;
                if ra.value.to_bits() != rb.value.to_bits() {
                    exact_differ.push(format!("{name}/{}: {} vs {}", m.name, ra.value, rb.value));
                }
            }
        }
    }
    lines.push(format!(
        "exact per-layer metrics (counts, modeled times): {exact_compared} compared, {} differ",
        exact_differ.len()
    ));
    lines.extend(exact_differ.into_iter().map(|d| format!("  differs: {d}")));
    lines.push(format!("ratios are B/A (base A); {regressed} regressed"));
    Ok((lines, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn steady(v: f64) -> Reading {
        Reading {
            value: v,
            samples: vec![v * 0.995, v, v * 1.005],
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(Better::Lower, 10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 8.0) - 0.2).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 10.0, 12.0) < 0.0);
    }

    #[test]
    fn host_metrics_are_banded_and_spread_aware() {
        let m = metric("host_steps_per_s");
        assert_eq!(judge(m, &steady(100.0), &steady(99.0)), Verdict::Ok);
        assert_eq!(judge(m, &steady(100.0), &steady(140.0)), Verdict::Ok);
        assert_eq!(
            judge(m, &steady(100.0), &steady(100.0 * (1.0 - m.bound) - 1.0)),
            Verdict::Regressed
        );
        let noisy = Reading {
            value: 100.0,
            samples: vec![70.0, 100.0, 130.0],
        };
        assert_eq!(judge(m, &noisy, &steady(60.0)), Verdict::Unresolved);
        assert_eq!(judge(m, &steady(100.0), &noisy), Verdict::Unresolved);
    }

    #[test]
    fn modeled_metrics_compare_bitwise() {
        let m = metric("virt_comm_us");
        let r = |v: f64| Reading {
            value: v,
            samples: vec![v; 3],
        };
        assert_eq!(judge(m, &r(9.5422), &r(9.5422)), Verdict::Ok);
        assert_eq!(judge(m, &r(9.5422), &r(9.5422 + 1e-12)), Verdict::Changed);
        assert_eq!(judge(m, &r(9.5422), &r(9.0)), Verdict::Changed);
        assert_eq!(judge(m, &r(9.5422), &r(11.0)), Verdict::Regressed);
    }
}
