//! Lockstep divergence bisector: drive two [`Cluster`]s (or a cluster and
//! its serial twin) from identical initial states and find the *first*
//! communication op after which their physics disagrees.
//!
//! Cross-engine bugs in this codebase historically surfaced as a thermo
//! mismatch after 30 steps — an error signal that is 30 steps × ~10 ops ×
//! 48 ranks away from the defect. The bisector collapses that search: it
//! snapshots every rank's atoms after every completed communication round
//! (via [`Cluster::set_op_observer`]) and reports the exact `(step, op,
//! round, rank)` where the two runs first part ways, together with the
//! offending atom tags, their values on both sides, and the owner rank of
//! the first bad tag (the "suspected neighbor" — the rank whose outgoing
//! data went wrong).
//!
//! One driver steps side A (a cluster) against a second cluster, op by op,
//! or against the serial twin ([`Cluster::serial_twin`]), one rank at the
//! end of each step. A field table names what each op is checked on; each
//! field compares as a multiset of `(tag, value)`, every periodic image
//! included. Staged engines (`ref`, `utofu-3stage`) build the *full* ghost
//! shell and p2p engines the upper *half*, so across families a ghost field
//! compares one wrapped image per common tag. Rounds pair one for one only
//! between identical variants; otherwise ops compare at completion.

use crate::cluster::Cluster;
use crate::trace::{comm_rows, OpCommRow};
use std::cmp::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use tofumd_core::engine::{GhostEngine, Op, RankState};
use tofumd_md::atom::Atoms;
use tofumd_md::region::Box3;
use tofumd_md::serial::SerialSim;
use tofumd_tofu::TofuError;

/// Knobs for a bisect run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockstepOptions {
    /// Steps to drive both runs (stops early at the first divergence).
    pub steps: u64,
    /// Absolute per-component tolerance on positions/velocities/forces.
    /// Cross-engine runs accumulate fp summation noise, so exact equality
    /// is only expected between identical variants.
    pub tol: f64,
}

impl Default for LockstepOptions {
    fn default() -> Self {
        LockstepOptions {
            steps: 30,
            tol: 1e-7,
        }
    }
}

/// Worst per-atom deltas kept in a divergence.
const MAX_DELTAS: usize = 8;

/// One offending atom: its coordinates on both sides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomDelta {
    /// Global atom tag.
    pub tag: u64,
    /// Value on side A.
    pub a: [f64; 3],
    /// Value on side B.
    pub b: [f64; 3],
    /// Largest absolute per-component difference (min-image for positions).
    pub abs_delta: f64,
}

/// The first point where the two runs disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Timestep (1-based) of the divergence.
    pub step: u64,
    /// The communication op after which state first differed; `None` for
    /// an end-of-step (or serial-twin) comparison.
    pub op: Option<Op>,
    /// Round within the op (0-based).
    pub round: usize,
    /// Total rounds of that op on side A.
    pub rounds: usize,
    /// First rank whose state differs.
    pub rank: usize,
    /// Owner rank (on side A) of the first offending tag — the suspected
    /// source of the bad data when the divergence is in ghost state.
    pub neighbor: Option<usize>,
    /// Which field diverged ("ghost positions", "local forces", ...).
    pub field: String,
    /// Tags present on side A but not B (at `rank`).
    pub missing_tags: Vec<u64>,
    /// Tags present on side B but not A (at `rank`).
    pub extra_tags: Vec<u64>,
    /// Worst per-atom deltas, the largest eight.
    pub deltas: Vec<AtomDelta>,
}

/// Outcome of a bisect run.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceReport {
    /// Label of side A.
    pub a: String,
    /// Label of side B.
    pub b: String,
    /// Steps requested.
    pub steps_requested: u64,
    /// Steps actually driven (short on divergence).
    pub steps_run: u64,
    /// Tolerance in force.
    pub tol: f64,
    /// The first divergence, if any.
    pub divergence: Option<Divergence>,
    /// Per-op counters of side A, totalled over its ranks and steps.
    pub op_stats_a: Vec<OpCommRow>,
    /// Per-op counters of side B, totalled over its ranks and steps.
    pub op_stats_b: Vec<OpCommRow>,
}

impl DivergenceReport {
    /// True when the runs stayed in agreement for every compared op.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none()
    }

    /// Human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "lockstep bisect: {} vs {} — {} steps requested, {} run, tol {:.1e}\n",
            self.a, self.b, self.steps_requested, self.steps_run, self.tol
        ));
        match &self.divergence {
            None => out.push_str("no divergence detected\n"),
            Some(d) => {
                let op = d.op.map_or("end-of-step", Op::label);
                out.push_str(&format!(
                    "FIRST DIVERGENCE at step {}, op {} (round {}/{}), rank {}\n",
                    d.step,
                    op,
                    d.round + 1,
                    d.rounds.max(1),
                    d.rank
                ));
                if let Some(n) = d.neighbor {
                    out.push_str(&format!("  suspected source: rank {n}\n"));
                }
                out.push_str(&format!("  field: {}\n", d.field));
                if !d.missing_tags.is_empty() {
                    out.push_str(&format!("  tags only on A: {:?}\n", d.missing_tags));
                }
                if !d.extra_tags.is_empty() {
                    out.push_str(&format!("  tags only on B: {:?}\n", d.extra_tags));
                }
                for ad in &d.deltas {
                    out.push_str(&format!(
                        "  tag {:>6}: a=({:+.9e}, {:+.9e}, {:+.9e}) b=({:+.9e}, {:+.9e}, {:+.9e}) |d|={:.3e}\n",
                        ad.tag, ad.a[0], ad.a[1], ad.a[2], ad.b[0], ad.b[1], ad.b[2], ad.abs_delta
                    ));
                }
            }
        }
        for (label, rows) in [("A", &self.op_stats_a), ("B", &self.op_stats_b)] {
            if rows.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "per-op comm, side {label}:  op          messages        bytes  max_msg  growth\n"
            ));
            for r in rows {
                out.push_str(&format!(
                    "                       {:<11} {:>8.0} {:>12.0} {:>8} {:>7}\n",
                    r.op, r.messages, r.bytes, r.max_msg_bytes, r.growth_events
                ));
            }
        }
        out
    }
}

/// One compared quantity: a per-atom value of the locals or of the
/// ghosts. A scalar (EAM rho / F') rides in the first component.
/// Positions compare by minimum image, the rest by plain difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    LocalX,
    LocalV,
    LocalF,
    LocalScalar,
    GhostX,
    GhostScalar,
}

/// The field table: what a point of the step is checked on, each field
/// with its report label. `None` is the end of the step.
fn fields(op: Option<Op>, twin: bool) -> &'static [(Field, &'static str)] {
    use Field::*;
    match op {
        Some(Op::Exchange) => &[
            (LocalX, "local positions after migration"),
            (LocalV, "local velocities after migration"),
        ],
        Some(Op::Border) => &[(GhostX, "ghost positions after border")],
        Some(Op::Forward) => &[(GhostX, "ghost positions after forward")],
        Some(Op::Reverse) => &[(LocalF, "local forces after reverse")],
        Some(Op::ReverseScalar) => &[(LocalScalar, "local scalars after reverse")],
        Some(Op::ForwardScalar) => &[(GhostScalar, "ghost scalars after forward")],
        None if twin => &[
            (LocalX, "positions (vs serial)"),
            (LocalV, "velocities (vs serial)"),
        ],
        None => &[
            (LocalX, "end-of-step positions"),
            (LocalV, "end-of-step velocities"),
        ],
    }
}

/// One side's values of a field: `(tag, value)` sorted by tag, then by
/// value — the multiset the side holds, every periodic image of a ghost
/// included.
type Column = Vec<(u64, [f64; 3])>;

impl Field {
    fn ghost(self) -> bool {
        matches!(self, Field::GhostX | Field::GhostScalar)
    }

    /// This field of every `(atoms, scalar)` source, as one column. A
    /// scalar array that does not cover its atoms is not populated and
    /// contributes nothing.
    fn column<'s>(self, sources: impl IntoIterator<Item = (&'s Atoms, &'s [f64])>) -> Column {
        let mut col = Vec::new();
        for (at, scalar) in sources {
            let scalars = matches!(self, Field::LocalScalar | Field::GhostScalar);
            if scalars && scalar.len() != at.ntotal() {
                continue;
            }
            let mine = |&i: &usize| (i >= at.nlocal) == self.ghost();
            col.extend((0..at.ntotal()).filter(mine).map(|i| {
                let value = match self {
                    Field::LocalX | Field::GhostX => at.x[i],
                    Field::LocalV => at.v[i],
                    Field::LocalF => at.f[i],
                    Field::LocalScalar | Field::GhostScalar => [scalar[i], 0.0, 0.0],
                };
                (at.tag[i], value)
            }));
        }
        col.sort_unstable_by(|p, q| p.0.cmp(&q.0).then_with(|| total_cmp3(&p.1, &q.1)));
        col
    }
}

/// Each rank's columns of the table row `row`.
fn snap(states: &[RankState], row: &[(Field, &str)]) -> Vec<Vec<Column>> {
    states
        .iter()
        .map(|st| {
            row.iter()
                .map(|(f, _)| f.column([(&st.atoms, &st.scalar[..])]))
                .collect()
        })
        .collect()
}

/// Total lexicographic order on raw coordinates. Uses `f64::total_cmp` per
/// component so a NaN coordinate still sorts deterministically — the
/// bisector exists to diagnose bad numbers and must not panic on them;
/// the NaN itself is reported as a divergence by the field comparison.
fn total_cmp3(p: &[f64; 3], q: &[f64; 3]) -> Ordering {
    p.iter()
        .zip(q)
        .map(|(a, b)| a.total_cmp(b))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Largest per-component difference, by minimum image when asked. NaN
/// anywhere yields NaN (a plain `f64::max` fold would silently drop it,
/// hiding exactly the corruption the bisector hunts).
fn delta(global: &Box3, minimum_image: bool, a: &[f64; 3], b: &[f64; 3]) -> f64 {
    let d = if minimum_image {
        global.minimum_image(a, b)
    } else {
        [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
    };
    if d.iter().any(|c| c.is_nan()) {
        return f64::NAN;
    }
    d.iter().fold(0.0, |m, c| m.max(c.abs()))
}

/// All ranks' columns after round `round` of `op`.
#[derive(Debug)]
struct OpSnap {
    op: Op,
    round: usize,
    rounds: usize,
    ranks: Vec<Vec<Column>>,
}

/// Run one step of `cluster` capturing an [`OpSnap`] of the op's fields
/// after every round.
fn capture_step(cluster: &mut Cluster) -> Vec<OpSnap> {
    let sink: Arc<Mutex<Vec<OpSnap>>> = Arc::new(Mutex::new(Vec::new()));
    let tap = sink.clone();
    cluster.set_op_observer(Box::new(move |op, round, rounds, states| {
        let ranks = snap(states, fields(Some(op), false));
        tap.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(OpSnap {
                op,
                round,
                rounds,
                ranks,
            });
    }));
    cluster.run_step();
    cluster.clear_op_observer();
    let snaps = std::mem::take(&mut *sink.lock().unwrap_or_else(PoisonError::into_inner));
    snaps
}

/// Group a step's raw round snapshots into per-op occurrences (a new
/// occurrence starts at round 0).
fn occurrences(snaps: Vec<OpSnap>) -> Vec<Vec<OpSnap>> {
    let mut out: Vec<Vec<OpSnap>> = Vec::new();
    for s in snaps {
        match out.last_mut() {
            Some(cur) if s.round != 0 => cur.push(s),
            _ => out.push(vec![s]),
        }
    }
    out
}

impl Divergence {
    /// `field` differs on `rank`; the driver stamps the rest.
    fn on(rank: usize, field: String) -> Self {
        Divergence {
            step: 0,
            op: None,
            round: 0,
            rounds: 0,
            rank,
            neighbor: None,
            field,
            missing_tags: Vec::new(),
            extra_tags: Vec::new(),
            deltas: Vec::new(),
        }
    }

    /// Stamp `step` and name the owner on side A (`a`) of the first bad
    /// tag as the suspected source. Against the serial twin, whose one
    /// rank says nothing, that owner is the rank too.
    fn attributed(self, step: u64, a: &[RankState], twin: bool) -> Self {
        let first = (self.deltas.first().map(|x| x.tag))
            .or(self.missing_tags.first().copied())
            .or(self.extra_tags.first().copied());
        let owns = |st: &RankState, t| st.atoms.tag[..st.atoms.nlocal].contains(&t);
        let neighbor = first.and_then(|t| a.iter().position(|st| owns(st, t)));
        let rank = if twin {
            neighbor.unwrap_or(self.rank)
        } else {
            self.rank
        };
        Divergence {
            step,
            rank,
            neighbor,
            ..self
        }
    }
}

/// How two sides' columns are compared.
struct Ctx {
    global: Box3,
    tol: f64,
    /// Same engine family: ghost images must match one for one.
    same_family: bool,
    /// Same variant: rounds compare one for one, not only completed ops.
    same_variant: bool,
}

impl Ctx {
    /// The first rank and field of `row` on which `a` and `b` part ways.
    fn compare(
        &self,
        row: &[(Field, &str)],
        a: &[Vec<Column>],
        b: &[Vec<Column>],
    ) -> Option<Divergence> {
        a.iter().zip(b).enumerate().find_map(|(rank, (ra, rb))| {
            row.iter()
                .zip(ra.iter().zip(rb))
                .find_map(|(&(field, label), (ca, cb))| self.field(field, label, rank, ca, cb))
        })
    }

    /// Compare one field's multisets: within a tag the sorted values pair
    /// one for one, and an image one side lacks names its tag as missing
    /// or extra. Across engine families a ghost field is reduced to one
    /// wrapped value per tag and tag-set differences are forgiven — the
    /// one place cross-family masking happens.
    fn field(
        &self,
        field: Field,
        label: &str,
        rank: usize,
        a: &Column,
        b: &Column,
    ) -> Option<Divergence> {
        let masked = field.ghost() && !self.same_family;
        let reduced;
        let (a, b) = if masked {
            reduced = [a, b].map(|c| self.representatives(field, c));
            (&reduced[0], &reduced[1])
        } else {
            (a, b)
        };
        let mut d = Divergence::on(rank, label.to_string());
        // Walk both columns in tag order; an exhausted side sorts last.
        let key = |c: &Column, k: usize| c.get(k).map_or((1, 0), |e| (0, e.0));
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            match key(a, i).cmp(&key(b, j)) {
                Ordering::Less => {
                    d.missing_tags.push(a[i].0);
                    i += 1;
                }
                Ordering::Greater => {
                    d.extra_tags.push(b[j].0);
                    j += 1;
                }
                Ordering::Equal => {
                    let ((tag, va), (_, vb)) = (a[i], b[j]);
                    let by_image = matches!(field, Field::LocalX | Field::GhostX);
                    let abs_delta = delta(&self.global, by_image, &va, &vb);
                    // A NaN delta IS a divergence (`>` alone is false for NaN).
                    if abs_delta > self.tol || abs_delta.is_nan() {
                        d.deltas.push(AtomDelta {
                            tag,
                            a: va,
                            b: vb,
                            abs_delta,
                        });
                    }
                    (i, j) = (i + 1, j + 1);
                }
            }
        }
        // A tag with surplus images is named once.
        for tags in [&mut d.missing_tags, &mut d.extra_tags] {
            if masked {
                tags.clear();
            }
            tags.dedup();
        }
        if d.missing_tags.is_empty() && d.extra_tags.is_empty() && d.deltas.is_empty() {
            return None;
        }
        // Descending by total order: NaN deltas sort first, largest finite next.
        d.deltas.sort_by(|p, q| q.abs_delta.total_cmp(&p.abs_delta));
        d.deltas.truncate(MAX_DELTAS);
        Some(d)
    }

    /// One value per tag: the first image, wrapped into the box when it
    /// is a position.
    fn representatives(&self, field: Field, col: &Column) -> Column {
        let mut out = col.clone();
        out.dedup_by_key(|e| e.0);
        if field == Field::GhostX {
            for e in &mut out {
                e.1 = self.global.wrap(e.1).0;
            }
        }
        out
    }
}

/// Side B of a bisect.
enum SideB<'c> {
    /// A second cluster on the same mesh, compared after every op and at
    /// the end of every step.
    Cluster(&'c mut Cluster),
    /// The serial twin: one rank, compared at the end of every step.
    Twin(Box<SerialSim>),
}

/// The one lockstep driver: step `a` against `b` until the first
/// divergence or `opts.steps`.
fn lockstep(a: &mut Cluster, mut b: SideB<'_>, opts: &LockstepOptions) -> DivergenceReport {
    let (label, same_family, same_variant) = match &b {
        SideB::Cluster(c) => {
            assert_eq!(a.nranks(), c.nranks(), "clusters must share the rank grid");
            assert_eq!(a.natoms(), c.natoms(), "clusters must share the system");
            let same_family = a.variant.is_p2p() == c.variant.is_p2p();
            (c.variant.label(), same_family, a.variant == c.variant)
        }
        SideB::Twin(_) => ("serial", false, false),
    };
    let ctx = Ctx {
        global: a.global_box(),
        tol: opts.tol,
        same_family,
        same_variant,
    };
    let mut report = DivergenceReport {
        a: a.variant.label().to_string(),
        b: label.to_string(),
        steps_requested: opts.steps,
        steps_run: 0,
        tol: opts.tol,
        divergence: None,
        op_stats_a: Vec::new(),
        op_stats_b: Vec::new(),
    };
    for step in 1..=opts.steps {
        report.steps_run = step;
        if let Some(d) = step_divergence(a, &mut b, &ctx) {
            let twin = matches!(b, SideB::Twin(_));
            report.divergence = Some(d.attributed(step, a.states(), twin));
            break;
        }
    }
    report.op_stats_a = comm_rows(&a.op_stats(), 1.0);
    if let SideB::Cluster(c) = &b {
        report.op_stats_b = comm_rows(&c.op_stats(), 1.0);
    }
    report
}

/// Run one step on both sides and compare them: op by op when side B is
/// a cluster, then the locals at the end of the step (side A gathered
/// into one rank against the twin).
fn step_divergence(a: &mut Cluster, b: &mut SideB<'_>, ctx: &Ctx) -> Option<Divergence> {
    let end = fields(None, matches!(b, SideB::Twin(_)));
    let (end_a, end_b) = match b {
        SideB::Cluster(c) => {
            let occ_a = occurrences(capture_step(a));
            let occ_b = occurrences(capture_step(c));
            let seq_a: Vec<Op> = occ_a.iter().map(|o| o[0].op).collect();
            let seq_b: Vec<Op> = occ_b.iter().map(|o| o[0].op).collect();
            if seq_a != seq_b {
                let field = format!("op sequence: A ran {seq_a:?}, B ran {seq_b:?}");
                return Some(Divergence::on(0, field));
            }
            for (oa, ob) in occ_a.iter().zip(&occ_b) {
                // Same variant: identical round structure lets the
                // bisector localize mid-op rounds. Otherwise only the
                // completed op states are physically comparable
                // (occurrences are nonempty by construction).
                let pairs: Vec<(&OpSnap, &OpSnap)> = if ctx.same_variant && oa.len() == ob.len() {
                    oa.iter().zip(ob).collect()
                } else {
                    oa.last().zip(ob.last()).into_iter().collect()
                };
                for (sa, sb) in pairs {
                    let row = fields(Some(sa.op), false);
                    if let Some(d) = ctx.compare(row, &sa.ranks, &sb.ranks) {
                        let (op, round, rounds) = (Some(sa.op), sa.round, sa.rounds);
                        return Some(Divergence {
                            op,
                            round,
                            rounds,
                            ..d
                        });
                    }
                }
            }
            (snap(a.states(), end), snap(c.states(), end))
        }
        SideB::Twin(s) => {
            a.run_step();
            s.run_step();
            let all = a.states().iter().map(|st| (&st.atoms, &st.scalar[..]));
            let twin = [(&s.atoms, &[][..])];
            let gathered = |(f, _): &(Field, &str)| f.column(all.clone());
            let own = |(f, _): &(Field, &str)| f.column(twin);
            (
                vec![end.iter().map(gathered).collect()],
                vec![end.iter().map(own).collect()],
            )
        }
    };
    // End of step: locals must agree even on op-free steps.
    ctx.compare(end, &end_a, &end_b)
}

/// Drive two already-built clusters in lockstep and report the first
/// divergence. Both must be built on the same mesh and [`RunConfig`](crate::RunConfig).
pub fn bisect_clusters(
    a: &mut Cluster,
    b: &mut Cluster,
    opts: &LockstepOptions,
) -> DivergenceReport {
    lockstep(a, SideB::Cluster(b), opts)
}

/// Bisect an already-built cluster against its serial twin
/// ([`Cluster::serial_twin`], taken now). The twin has no per-op
/// structure, so comparison is per-step on the gathered locals
/// (positions by min-image, then velocities).
#[must_use]
pub fn bisect_cluster_against_serial(
    cluster: &mut Cluster,
    opts: &LockstepOptions,
) -> DivergenceReport {
    let twin = cluster.serial_twin();
    lockstep(cluster, SideB::Twin(Box::new(twin)), opts)
}

/// A [`GhostEngine`] shim that corrupts the data one rank puts on the
/// wire for the `nth` occurrence of `op`: every local coordinate is
/// perturbed before the inner engine packs its payloads and restored
/// right after, so the sender's own physics stays clean while every
/// neighbor receives wrong values. (Dropping the put instead would
/// deadlock the receiver's arrival wait — the simulated fabric, like the
/// real one, has no timeout.)
pub struct FaultInjector {
    inner: Box<dyn GhostEngine>,
    op: Op,
    nth: u64,
    seen: u64,
    bump: f64,
}

impl FaultInjector {
    /// Wrap `inner`, corrupting occurrence `nth` (0-based) of `op` by
    /// shifting every packed x-coordinate by `bump`.
    #[must_use]
    pub fn new(inner: Box<dyn GhostEngine>, op: Op, nth: u64, bump: f64) -> Self {
        FaultInjector {
            inner,
            op,
            nth,
            seen: 0,
            bump,
        }
    }
}

impl GhostEngine for FaultInjector {
    fn rounds(&self, op: Op) -> usize {
        self.inner.rounds(op)
    }

    fn barrier_between_rounds(&self) -> bool {
        self.inner.barrier_between_rounds()
    }

    fn setup_cost(&self) -> f64 {
        self.inner.setup_cost()
    }

    fn post(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        let fault = op == self.op && round == 0 && {
            let hit = self.seen == self.nth;
            self.seen += 1;
            hit
        };
        if fault {
            for i in 0..st.atoms.nlocal {
                st.atoms.x[i][0] += self.bump;
            }
            let r = self.inner.post(op, round, st);
            for i in 0..st.atoms.nlocal {
                st.atoms.x[i][0] -= self.bump;
            }
            r
        } else {
            self.inner.post(op, round, st)
        }
    }

    fn complete(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        self.inner.complete(op, round, st)
    }

    fn fallback_requested(&self) -> bool {
        self.inner.fallback_requested()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::variant::CommVariant;

    const MESH: [u32; 3] = [2, 3, 2]; // 12 nodes, 48 ranks

    fn lj(variant: CommVariant) -> Cluster {
        Cluster::new(MESH, RunConfig::lj(4000), variant)
    }

    #[test]
    fn identical_variants_never_diverge() {
        let opts = LockstepOptions { steps: 3, tol: 0.0 };
        let report = bisect_clusters(&mut lj(CommVariant::Opt), &mut lj(CommVariant::Opt), &opts);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.steps_run, 3);
        assert!(!report.op_stats_a.is_empty());
        assert_eq!(report.op_stats_a, report.op_stats_b);
    }

    #[test]
    fn cross_family_bisect_is_clean() {
        let opts = LockstepOptions {
            steps: 3,
            ..LockstepOptions::default()
        };
        let report = bisect_clusters(&mut lj(CommVariant::Ref), &mut lj(CommVariant::Opt), &opts);
        assert!(report.is_clean(), "{}", report.render());
    }

    /// Satellite regression for the `partial_cmp(..).expect(..)` panic:
    /// a NaN put on the wire must surface as a *reported divergence* with
    /// a NaN delta (sorted first by `total_cmp`), never as a bisector
    /// crash — the tool exists precisely to diagnose bad numbers.
    #[test]
    fn nan_on_the_wire_is_reported_as_divergence_not_a_panic() {
        let cfg = RunConfig::lj(4000);
        let mut a = Cluster::new(MESH, cfg, CommVariant::Opt);
        let mut b = Cluster::new(MESH, cfg, CommVariant::Opt);
        b.wrap_engine(7, |inner| {
            Box::new(FaultInjector::new(inner, Op::Forward, 0, f64::NAN))
        });
        let opts = LockstepOptions {
            steps: 3,
            ..LockstepOptions::default()
        };
        let report = bisect_clusters(&mut a, &mut b, &opts);
        let d = report.divergence.as_ref().unwrap_or_else(|| {
            panic!("NaN corruption must be detected:\n{}", report.render());
        });
        assert_eq!(d.step, 1, "{}", report.render());
        assert_eq!(d.op, Some(Op::Forward), "{}", report.render());
        assert!(
            d.deltas.iter().any(|ad| ad.abs_delta.is_nan()),
            "the NaN itself must appear among the reported deltas:\n{}",
            report.render()
        );
        // NaN deltas outrank every finite one in the report ordering.
        assert!(d.deltas[0].abs_delta.is_nan(), "{}", report.render());
        // And the human-readable rendering survives the NaN.
        assert!(!report.render().is_empty());
    }

    #[test]
    fn injected_forward_fault_is_named_exactly() {
        let cfg = RunConfig::lj(4000);
        let mut a = Cluster::new(MESH, cfg, CommVariant::Opt);
        let mut b = Cluster::new(MESH, cfg, CommVariant::Opt);
        let faulty_rank = 7;
        b.wrap_engine(faulty_rank, |inner| {
            Box::new(FaultInjector::new(inner, Op::Forward, 0, 1e-3))
        });
        let opts = LockstepOptions {
            steps: 5,
            ..LockstepOptions::default()
        };
        let report = bisect_clusters(&mut a, &mut b, &opts);
        let d = report.divergence.as_ref().unwrap_or_else(|| {
            panic!("fault must be detected:\n{}", report.render());
        });
        // LJ reneighbors every 20 steps, so step 1 runs Forward; the very
        // first corrupted put must be caught there, in the ghosts of a
        // receiving rank, and attributed to the faulty sender.
        assert_eq!(d.step, 1, "{}", report.render());
        assert_eq!(d.op, Some(Op::Forward), "{}", report.render());
        assert_eq!(d.neighbor, Some(faulty_rank), "{}", report.render());
        assert_ne!(d.rank, faulty_rank, "receiver diverges, not the sender");
        assert!(!d.deltas.is_empty());
        // All offending ghosts are atoms the faulty rank owns, and the
        // injected 1e-3 shift is what the deltas show.
        assert!(
            d.deltas.iter().all(|ad| (ad.abs_delta - 1e-3).abs() < 1e-6),
            "{}",
            report.render()
        );
    }

    #[test]
    fn serial_twin_bisect_is_clean() {
        let opts = LockstepOptions {
            steps: 5,
            ..LockstepOptions::default()
        };
        let report = bisect_cluster_against_serial(&mut lj(CommVariant::Opt), &opts);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.steps_run, 5);
    }

    /// Within a family a ghost field is a multiset per tag: every
    /// periodic image is compared, and an image one side lacks names its
    /// tag.
    #[test]
    fn every_ghost_image_is_compared() {
        let ctx = Ctx {
            global: Box3::from_lengths([5.0; 3]),
            tol: 1e-7,
            same_family: true,
            same_variant: true,
        };
        // One local (tag 1) and the images of ghost tag 9, with a scalar
        // per atom.
        let rank = |field: Field, images: &[([f64; 3], f64)]| {
            let mut at = Atoms::default();
            at.push_local([2.0; 3], [0.0; 3], 1, 1);
            let mut scalar = vec![0.0];
            for (x, s) in images {
                at.push_ghost(*x, 1, 9);
                scalar.push(*s);
            }
            vec![vec![field.column([(&at, &scalar[..])])]]
        };
        let (x0, x1) = ([1.0, 1.0, 1.0], [6.0, 1.0, 1.0]);
        let fwd = fields(Some(Op::Forward), false);
        let clean = rank(Field::GhostX, &[(x0, 0.0), (x1, 0.0)]);
        assert_eq!(ctx.compare(fwd, &clean, &clean), None);
        // A corrupted image that does not sort last.
        let bad = rank(Field::GhostX, &[([1.5, 1.0, 1.0], 0.0), (x1, 0.0)]);
        let d = ctx
            .compare(fwd, &clean, &bad)
            .expect("a corrupted image is reported");
        assert_eq!((d.deltas[0].tag, d.deltas[0].abs_delta), (9, 0.5));
        // A dropped image.
        let dropped = rank(Field::GhostX, &[(x1, 0.0)]);
        let d = ctx
            .compare(fwd, &clean, &dropped)
            .expect("a dropped image is reported");
        assert_eq!(d.missing_tags, vec![9]);
        // A differing second ghost-scalar image.
        let fwd_scalar = fields(Some(Op::ForwardScalar), false);
        let a = rank(Field::GhostScalar, &[(x0, 0.25), (x1, 0.5)]);
        let b = rank(Field::GhostScalar, &[(x0, 0.25), (x1, 0.75)]);
        let d = ctx
            .compare(fwd_scalar, &a, &b)
            .expect("a second scalar image is compared");
        assert_eq!((d.deltas[0].tag, d.deltas[0].abs_delta), (9, 0.25));
    }

    #[test]
    fn report_renders_both_outcomes() {
        let clean = DivergenceReport {
            a: "ref".into(),
            b: "parallel-p2p".into(),
            steps_requested: 30,
            steps_run: 30,
            tol: 1e-7,
            divergence: None,
            op_stats_a: Vec::new(),
            op_stats_b: Vec::new(),
        };
        assert!(clean.render().contains("no divergence"));
        let bad = DivergenceReport {
            divergence: Some(Divergence {
                step: 3,
                op: Some(Op::Forward),
                round: 0,
                rounds: 1,
                rank: 11,
                neighbor: Some(7),
                field: "ghost positions after forward".into(),
                missing_tags: vec![42],
                extra_tags: Vec::new(),
                deltas: vec![AtomDelta {
                    tag: 9,
                    a: [0.0; 3],
                    b: [1e-3, 0.0, 0.0],
                    abs_delta: 1e-3,
                }],
            }),
            ..clean
        };
        let r = bad.render();
        assert!(r.contains("step 3"));
        assert!(r.contains("op forward"));
        assert!(r.contains("rank 11"));
        assert!(r.contains("source: rank 7"));
    }
}
