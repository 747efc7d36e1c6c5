//! The paper's claims: one row per number or ordering the paper's
//! evaluation states, and the one renderer that every report footer,
//! `results/claims.txt` and README's Fidelity block print them through.
//!
//! This file is the only non-test place a paper number is spelled. A
//! report computes its readings `(id, ours)` from values it already holds
//! and returns them beside its text ([`Report`]); each row is judged on
//! that one number:
//!
//! * a *shape* row is a ratio with a one-sided bound — an ordering the
//!   paper reports ([`Judge::Above`], [`Judge::Below`]);
//! * a *magnitude* row holds the paper's value and passes within
//!   [`TOLERANCE`] of it. Outside it the row must name its known deviation
//!   here; inside it the row must not (like an allowlist entry that is no
//!   longer needed).

use crate::render_table;

/// Relative tolerance of every magnitude row.
const TOLERANCE: f64 = 0.10;

/// How a row is judged on its reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Judge {
    /// Shape: the reading lies above the bound.
    Above(f64),
    /// Shape: the reading lies below the bound.
    Below(f64),
    /// Magnitude: the paper's value, and why the reading may lie outside
    /// [`TOLERANCE`] of it.
    Near(f64, Option<&'static str>),
}

/// What a reading makes of its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// A shape that holds, or a magnitude within [`TOLERANCE`].
    Holds,
    /// A magnitude outside [`TOLERANCE`] for the stated reason.
    Known(&'static str),
    /// A false shape, an unlisted deviation, or a listed one that no
    /// longer deviates.
    Fails,
}

impl Judge {
    fn verdict(self, ours: f64) -> Verdict {
        match self {
            Judge::Above(bound) if ours > bound => Verdict::Holds,
            Judge::Below(bound) if ours < bound => Verdict::Holds,
            Judge::Near(paper, why) => match ((ours / paper - 1.0).abs() <= TOLERANCE, why) {
                (true, None) => Verdict::Holds,
                (false, Some(why)) => Verdict::Known(why),
                _ => Verdict::Fails,
            },
            _ => Verdict::Fails,
        }
    }

    /// The paper's value, or the shape's bound.
    pub(crate) fn paper(self) -> f64 {
        match self {
            Judge::Above(v) | Judge::Below(v) | Judge::Near(v, _) => v,
        }
    }
}

/// One claim of the paper.
pub(crate) struct Claim {
    /// Stable name: `<report>.<what>`.
    pub id: &'static str,
    /// Where the paper states it.
    pub figure: &'static str,
    /// What the reading measures, with its unit.
    pub quantity: &'static str,
    /// How a reading of it is judged.
    pub judge: Judge,
}

/// A report's reading of one claim: `(id, ours)`.
pub(crate) type Reading = (&'static str, f64);

/// A report's committed text and the readings its footer printed.
pub struct Report {
    /// The text of `results/<name>.txt`.
    pub text: String,
    pub(crate) readings: Vec<Reading>,
}

impl From<String> for Report {
    fn from(text: String) -> Self {
        Report {
            text,
            readings: Vec::new(),
        }
    }
}

/// `out` with the footer of `readings` appended, and the readings.
pub(crate) fn finish(mut out: String, readings: Vec<Reading>) -> Report {
    out += "paper claims:\n";
    out += &render(&readings);
    Report {
        text: out,
        readings,
    }
}

/// The modeled network is kinder to tiny messages than Fugaku's software stack.
const NET: &str = "the virtual network is kinder to tiny messages than Fugaku's measured \
                   software stack, so modeled Comm is smaller";
/// A share moves with every other stage's.
const SHARE: &str = "a share of a step whose Comm is modeled small (see the Comm rows); \
                     the stage costs were fitted to absolute opt-row times, not to shares";
/// The modeled step is faster than the headline's.
const FAST: &str = "the modeled opt step is shorter than the paper's headline implies: \
                    modeled Comm is smaller (see table3.opt-lj.comm)";
/// EAM's allreduce is cut by no variant.
const EAM: &str = "EAM's Other stage (the every-5-step allreduce) is cut by no variant and \
                   weighs more in the modeled step than in Fugaku's (see table3.origin-eam.other)";
/// The 1.7M points entered no fit.
const BIG: &str = "the stage costs were fitted at 21-28 atoms per rank; the 1.7M runs \
                   (553 per rank) entered no fit";
/// The pool's pair gain is fitted elsewhere.
const POOL: &str = "the pool's pair-stage gain is fitted at the last strong-scaling point \
                    (Table 3), not at 768 nodes";

/// The paper's L-J speedup at 36,864 nodes, claimed by Fig. 13 and the
/// analytic model of the sensitivity study.
const LJ_SPEEDUP: f64 = 2.9;

const fn claim(
    id: &'static str,
    figure: &'static str,
    quantity: &'static str,
    judge: Judge,
) -> Claim {
    Claim {
        id,
        figure,
        quantity,
        judge,
    }
}

use Judge::{Above, Below, Near};

/// Every claim, in report order. Table 3's twenty rows are in its run
/// order (Origin-L-J, Opt-L-J, Origin-EAM, Opt-EAM), stages Pair, Neigh,
/// Comm, Modify, Other within a run.
#[rustfmt::skip]
pub(crate) const CLAIMS: &[Claim] = &[
    claim("table1.3stage-msgs", "Table 1", "3-stage messages per exchange", Near(6.0, None)),
    claim("table1.p2p-msgs", "Table 1", "p2p messages per exchange", Near(13.0, None)),
    claim("table1.p2p-max-bytes", "Table 1", "largest 65K p2p forward message (B)", Near(528.0, None)),
    claim("eq.mpi-p2p-loses", "Eqs. (4)/(5)", "MPI, 65K: naive p2p / opt 3-stage", Above(1.0)),
    claim("eq.utofu-p2p-wins", "Eqs. (7)/(8)", "uTofu, 65K: parallel 3-stage / parallel p2p", Above(1.0)),
    claim("fig06.mpi-p2p-loses", "Fig. 6", "mpi-p2p / mpi-3stage exchange time", Above(1.0)),
    claim("fig06.pool-p2p-cut", "Fig. 6", "parallel-p2p time cut vs mpi-3stage (%)", Near(79.0, None)),
    claim("fig06.pool-p2p-fastest", "Fig. 6", "fastest other / parallel-p2p exchange time", Above(1.0)),
    claim("fig08.6tni-slower", "Fig. 8", "single-4TNI / single-6TNI rate, least over sizes", Above(1.0)),
    claim("fig08.pool-boost", "Fig. 8", "parallel / single-4TNI rate below 1 KiB, least", Above(1.5)),
    claim("fig11.lj-agree", "Fig. 11", "L-J opt vs serial pressure, largest rel diff", Below(1e-9)),
    claim("fig11.eam-agree", "Fig. 11", "EAM opt vs serial pressure, largest rel diff", Below(1e-9)),
    claim("fig12.65k-lj-speedup", "Fig. 12", "65K L-J parallel-p2p speedup over ref", Near(3.01, None)),
    claim("fig12.65k-eam-speedup", "Fig. 12", "65K EAM parallel-p2p speedup over ref", Near(2.45, Some(EAM))),
    claim("fig12.1.7m-lj-speedup", "Fig. 12", "1.7M L-J parallel-p2p speedup over ref", Near(1.6, Some(BIG))),
    claim("fig12.1.7m-eam-speedup", "Fig. 12", "1.7M EAM parallel-p2p speedup over ref", Near(1.4, Some(BIG))),
    claim("fig12.65k-lj-comm-cut", "Fig. 12", "65K L-J parallel-p2p comm cut (%)", Near(77.0, None)),
    claim("fig12.65k-lj-pair-cut", "Fig. 12", "65K L-J parallel-p2p pair cut (%)", Near(43.0, Some(POOL))),
    claim("fig12.65k-eam-pair-cut", "Fig. 12", "65K EAM parallel-p2p pair cut (%)", Near(56.0, None)),
    claim("fig12.opt-fastest", "Fig. 12", "fastest other / parallel-p2p total, least of 4", Above(1.0)),
    claim("fig13.lj-speedup", "Fig. 13", "L-J opt speedup at 36,864 nodes", Near(LJ_SPEEDUP, None)),
    claim("fig13.eam-speedup", "Fig. 13", "EAM opt speedup at 36,864 nodes", Near(2.2, Some(EAM))),
    claim("fig13.lj-speedup-rises", "Fig. 13", "L-J speedup / the point before's, least", Above(1.0)),
    claim("fig13.lj-throughput", "Fig. 13", "L-J opt at 36,864 nodes (M tau/day)", Near(8.77, Some(FAST))),
    claim("fig13.eam-throughput", "Fig. 13", "EAM opt at 36,864 nodes (us/day)", Near(2.87, Some(FAST))),
    claim("table3.origin-lj.pair", "Table 3", "Origin-L-J Pair share (%)", Near(15.3, Some(SHARE))),
    claim("table3.origin-lj.neigh", "Table 3", "Origin-L-J Neigh share (%)", Near(1.5, None)),
    claim("table3.origin-lj.comm", "Table 3", "Origin-L-J Comm share (%)", Near(64.85, Some(NET))),
    claim("table3.origin-lj.modify", "Table 3", "Origin-L-J Modify share (%)", Near(9.36, Some(SHARE))),
    claim("table3.origin-lj.other", "Table 3", "Origin-L-J Other share (%)", Near(8.99, Some(SHARE))),
    claim("table3.opt-lj.pair", "Table 3", "Opt-L-J Pair share (%)", Near(26.71, Some(SHARE))),
    claim("table3.opt-lj.neigh", "Table 3", "Opt-L-J Neigh share (%)", Near(3.71, Some(SHARE))),
    claim("table3.opt-lj.comm", "Table 3", "Opt-L-J Comm share (%)", Near(43.67, Some(NET))),
    claim("table3.opt-lj.modify", "Table 3", "Opt-L-J Modify share (%)", Near(10.23, Some(SHARE))),
    claim("table3.opt-lj.other", "Table 3", "Opt-L-J Other share (%)", Near(15.68, Some(SHARE))),
    claim("table3.origin-eam.pair", "Table 3", "Origin-EAM Pair share (%)", Near(43.44, Some(SHARE))),
    claim("table3.origin-eam.neigh", "Table 3", "Origin-EAM Neigh share (%)", Near(2.3, Some(SHARE))),
    claim("table3.origin-eam.comm", "Table 3", "Origin-EAM Comm share (%)", Near(33.5, Some(NET))),
    claim("table3.origin-eam.modify", "Table 3", "Origin-EAM Modify share (%)", Near(3.85, Some(SHARE))),
    claim("table3.origin-eam.other", "Table 3", "Origin-EAM Other share (%)", Near(16.91, Some(SHARE))),
    claim("table3.opt-eam.pair", "Table 3", "Opt-EAM Pair share (%)", Near(40.85, Some(SHARE))),
    claim("table3.opt-eam.neigh", "Table 3", "Opt-EAM Neigh share (%)", Near(4.1, Some(SHARE))),
    claim("table3.opt-eam.comm", "Table 3", "Opt-EAM Comm share (%)", Near(20.02, Some(NET))),
    claim("table3.opt-eam.modify", "Table 3", "Opt-EAM Modify share (%)", Near(3.19, Some(SHARE))),
    claim("table3.opt-eam.other", "Table 3", "Opt-EAM Other share (%)", Near(31.84, Some(SHARE))),
    claim("fig14.lj-atoms", "Fig. 14", "L-J atoms at 20,736 nodes (billions)", Near(99.0, None)),
    claim("fig14.eam-atoms", "Fig. 14", "EAM atoms at 20,736 nodes (billions)", Near(72.0, None)),
    claim("fig14.lj-efficiency", "Fig. 14", "L-J weak-scaling efficiency at 20,736 nodes", Above(0.9)),
    claim("fig14.eam-efficiency", "Fig. 14", "EAM weak-scaling efficiency at 20,736 nodes", Above(0.9)),
    claim("fig15.26-p2p-wins", "Fig. 15", "26 messages: 3-stage / p2p exchange time", Above(1.0)),
    claim("fig15.62-p2p-wins", "Fig. 15", "62 messages: 3-stage / p2p exchange time", Above(1.0)),
    claim("fig15.124-3stage-wins", "Fig. 15", "124 messages: p2p / 3-stage exchange time", Above(1.0)),
    claim("sec33.pool-region", "§3.3", "pool region overhead (us)", Near(1.1, None)),
    claim("sec33.omp-region", "§3.3", "OpenMP region overhead (us)", Near(5.8, None)),
    claim("sec33.pool-cheaper", "§3.3", "OpenMP / pool region overhead", Above(1.0)),
    claim("sensitivity.headline", "Fig. 13", "analytic L-J speedup at 36,864 nodes", Near(LJ_SPEEDUP, None)),
    claim("sensitivity.2x-floor", "Fig. 13", "analytic speedup, least under one 2x miscalibration", Above(1.0)),
];

/// The row named `id`.
pub(crate) fn get(id: &str) -> &'static Claim {
    CLAIMS
        .iter()
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("no claim named {id}"))
}

/// The least of `ratios`: a shape that must hold at every point.
pub(crate) fn least(ratios: impl Iterator<Item = f64>) -> f64 {
    ratios.fold(f64::INFINITY, f64::min)
}

/// The rows of `figure`, in table order.
pub(crate) fn of(figure: &str) -> Vec<&'static Claim> {
    CLAIMS.iter().filter(|c| c.figure == figure).collect()
}

/// A reading as the claims print it: four significant digits.
fn number(x: f64) -> String {
    if x != 0.0 && !(1e-3..1e5).contains(&x.abs()) {
        format!("{x:.3e}")
    } else {
        let magnitude = if x == 0.0 {
            0
        } else {
            x.abs().log10().floor() as i32
        };
        format!("{x:.*}", (3 - magnitude).max(0) as usize)
    }
}

/// A reading as printed, and its verdict judged on the printed number.
fn judged(judge: Judge, ours: f64) -> (String, f64, Verdict) {
    let shown = number(ours);
    let read: f64 = shown.parse().unwrap_or(f64::NAN);
    (shown, read, judge.verdict(read))
}

/// The rows of `readings` as one table, each known deviation's reason
/// under it.
fn render(readings: &[Reading]) -> String {
    let mark = |k: usize| char::from(b'a' + k as u8);
    let mut notes: Vec<&str> = Vec::new();
    let rows: Vec<Vec<String>> = readings
        .iter()
        .map(|&(id, ours)| {
            let c = get(id);
            let (shown, read, verdict) = judged(c.judge, ours);
            let (paper, off) = match c.judge {
                Judge::Above(b) => (format!("> {b}"), String::new()),
                Judge::Below(b) => (format!("< {b:e}"), String::new()),
                Judge::Near(v, _) => (
                    v.to_string(),
                    format!(", {:+.1}%", 100.0 * (read / v - 1.0)),
                ),
            };
            let verdict = match verdict {
                Verdict::Holds => format!("holds{off}"),
                Verdict::Known(why) => {
                    let k = notes.iter().position(|n| *n == why).unwrap_or_else(|| {
                        notes.push(why);
                        notes.len() - 1
                    });
                    format!("deviation ({}){off}", mark(k))
                }
                Verdict::Fails => format!("FAILS{off}"),
            };
            vec![
                id.into(),
                c.figure.into(),
                c.quantity.into(),
                paper,
                shown,
                verdict,
            ]
        })
        .collect();
    let mut out = render_table("claim|figure|quantity|paper|ours|verdict", &rows);
    for (k, why) in notes.iter().enumerate() {
        out += &format!("{}- ({}) {why}\n", if k == 0 { "\n" } else { "" }, mark(k));
    }
    out
}

/// `results/claims.txt`: every row of [`CLAIMS`] with its one reading
/// among the `reports`', and how many hold.
pub(crate) fn file<'a>(reports: impl Iterator<Item = &'a Report>) -> String {
    let readings: Vec<Reading> = reports.flat_map(|r| r.readings.iter().copied()).collect();
    let ordered: Vec<Reading> = CLAIMS
        .iter()
        .map(|c| {
            let mut found = readings.iter().filter(|r| r.0 == c.id);
            match (found.next(), found.next()) {
                (Some(&reading), None) => reading,
                _ => panic!("claim {} needs exactly one reading", c.id),
            }
        })
        .collect();
    let (mut shapes, mut near, mut known, mut fails) = (0, 0, 0, 0);
    for &(id, ours) in &ordered {
        let judge = get(id).judge;
        match (judged(judge, ours).2, judge) {
            (Verdict::Fails, _) => fails += 1,
            (Verdict::Known(_), _) => known += 1,
            (Verdict::Holds, Judge::Near(..)) => near += 1,
            (Verdict::Holds, _) => shapes += 1,
        }
    }
    format!(
        "Paper claims — every number and ordering of the paper's evaluation against this tree\n\n\
         {}\n{} claims: {shapes} shape rows hold; {near} magnitude rows within {:.0}% of the paper, \
         {known} known deviations; {fails} fail.\n",
        render(&ordered),
        CLAIMS.len(),
        100.0 * TOLERANCE
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn committed() -> String {
        let path = crate::tools::results_dir().join("claims.txt");
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"))
    }

    /// The cells of every table row of a claims text: `[id, figure,
    /// quantity, paper, ours, verdict]`.
    fn rows(text: &str) -> Vec<Vec<&str>> {
        text.lines()
            .filter(|l| l.starts_with("| "))
            .map(|l| {
                l.split('|')
                    .map(str::trim)
                    .filter(|c| !c.is_empty())
                    .collect()
            })
            .filter(|cells: &Vec<&str>| cells[0] != "claim")
            .collect()
    }

    /// What is wrong with a claims text: every row of [`CLAIMS`] appears
    /// once and is judged on its printed reading (never on the verdict
    /// word), and no row names an unknown claim.
    fn problems(text: &str) -> Vec<String> {
        let rows = rows(text);
        let mut out = Vec::new();
        for c in CLAIMS {
            let found: Vec<&Vec<&str>> = rows.iter().filter(|r| r[0] == c.id).collect();
            let [row] = found[..] else {
                out.push(format!("{}: {} rows", c.id, found.len()));
                continue;
            };
            match row[4].parse::<f64>() {
                Ok(ours) if c.judge.verdict(ours) != Verdict::Fails => {}
                Ok(ours) => out.push(format!("{}: ours {ours} fails {:?}", c.id, c.judge)),
                Err(_) => out.push(format!("{}: unreadable reading {:?}", c.id, row[4])),
            }
        }
        let known: BTreeSet<&str> = CLAIMS.iter().map(|c| c.id).collect();
        let unknown = rows.iter().filter(|r| !known.contains(r[0]));
        out.extend(unknown.map(|r| format!("{}: no such claim", r[0])));
        out
    }

    /// `text` with the reading of claim `id` replaced by `ours`.
    fn with_reading(text: &str, id: &str, ours: &str) -> String {
        text.lines()
            .map(|l| {
                let mut cells: Vec<String> = l.split('|').map(String::from).collect();
                if cells.len() > 5 && cells[1].trim() == id {
                    cells[5] = format!(" {ours} ");
                }
                cells.join("|") + "\n"
            })
            .collect()
    }

    #[test]
    fn committed_claims_hold() {
        let problems = problems(&committed());
        assert!(
            problems.is_empty(),
            "results/claims.txt (run `tofumd-bench reproduce`):\n{}",
            problems.join("\n")
        );
    }

    /// The judge reads the number: a false shape, an unlisted deviation,
    /// a listed deviation that no longer deviates, a dropped row and an
    /// unreadable reading each fail the committed file.
    #[test]
    fn a_false_reading_fails_the_file() {
        let text = committed();
        for (id, ours) in [
            ("fig15.124-3stage-wins", "0.8620"),
            ("fig08.6tni-slower", "1.000"),
            ("fig11.lj-agree", "2.000e-3"),
            ("fig12.65k-lj-speedup", "2.000"),
            ("fig13.eam-speedup", "2.200"),
            ("sec33.pool-region", "5.800"),
            ("table1.p2p-msgs", "many"),
        ] {
            assert!(
                !problems(&with_reading(&text, id, ours)).is_empty(),
                "{id} = {ours}"
            );
        }
        let dropped: String = text
            .lines()
            .filter(|l| !l.contains("| fig13.lj-speedup "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(!problems(&dropped).is_empty());
    }

    /// README's Fidelity block is `results/claims.txt`, verbatim.
    #[test]
    fn readme_fidelity_block_is_the_claims_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(path).unwrap();
        let (_, rest) = readme.split_once("<!-- claims.txt -->\n").unwrap();
        let (block, _) = rest.split_once("<!-- /claims.txt -->").unwrap();
        assert_eq!(block, committed(), "copy results/claims.txt into README.md");
    }

    #[test]
    fn ids_are_unique_and_readings_print_four_digits() {
        for (i, c) in CLAIMS.iter().enumerate() {
            assert!(CLAIMS[..i].iter().all(|d| d.id != c.id), "{}", c.id);
        }
        assert_eq!(number(2.851_23), "2.851");
        assert_eq!(number(48.84), "48.84");
        assert_eq!(number(0.5), "0.5000");
        assert_eq!(number(11.08e6), "1.108e7");
        assert_eq!(number(7.1e-13), "7.100e-13");
        assert_eq!(number(0.0), "0.000");
    }

    #[test]
    fn a_deviation_is_listed_only_while_it_deviates() {
        let eam = get("fig13.eam-speedup").judge;
        assert_eq!(eam.verdict(1.92), Verdict::Known(EAM));
        assert_eq!(eam.verdict(2.1), Verdict::Fails);
        assert_eq!(get("fig13.lj-speedup").judge.verdict(2.85), Verdict::Holds);
        assert_eq!(Judge::Below(1e-9).verdict(1e-9), Verdict::Fails);
    }
}
