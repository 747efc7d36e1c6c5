//! Lockstep divergence bisector: drive two [`Cluster`]s (or a cluster and
//! its serial twin) from identical initial states and find the *first*
//! communication op after which their physics disagrees.
//!
//! Cross-engine bugs in this codebase historically surfaced as a thermo
//! mismatch after 30 steps — an error signal that is 30 steps × ~10 ops ×
//! 48 ranks away from the defect. The bisector collapses that search: it
//! snapshots every rank's locals and ghosts after every completed
//! communication round (via [`Cluster::set_op_observer`]) and reports the
//! exact `(step, op, round, rank)` where the two runs first part ways,
//! together with the offending atom tags, their positions on both sides,
//! and the owner rank of the first bad tag (the "suspected neighbor" —
//! the rank whose outgoing data went wrong).
//!
//! Engine families are only partially comparable: the staged engines
//! (`ref`, `utofu-3stage`) build the *full* ghost shell while the p2p
//! engines build the upper *half* shell, so ghost tag-sets are compared
//! exactly only within a family, and across families the comparison is
//! restricted to the common tags' physical (wrapped) positions.
//! Round-for-round comparison applies only when both sides run the same
//! variant; otherwise ops are compared at completion.

use crate::cluster::Cluster;
use crate::config::RunConfig;
use crate::trace::{comm_rows, OpCommRow};
use crate::variant::CommVariant;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use tofumd_core::engine::{GhostEngine, Op, RankState};
use tofumd_md::atom::Atoms;
use tofumd_md::region::Box3;
use tofumd_md::serial::SerialSim;
use tofumd_tofu::TofuError;

/// Knobs for a bisect run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LockstepOptions {
    /// Steps to drive both runs (stops early at the first divergence).
    pub steps: u64,
    /// Absolute per-component tolerance on positions/velocities/forces.
    /// Cross-engine runs accumulate fp summation noise, so exact equality
    /// is only expected between identical variants.
    pub tol: f64,
    /// Cap on per-divergence atom deltas kept in the report.
    pub max_deltas: usize,
    /// Host threads for the phase driver on each side. Thread count never
    /// changes results (the determinism contract), so any value bisects
    /// identically — larger values just run faster on multicore hosts.
    pub driver_threads: usize,
}

impl Default for LockstepOptions {
    fn default() -> Self {
        LockstepOptions {
            steps: 30,
            tol: 1e-7,
            max_deltas: 8,
            driver_threads: 1,
        }
    }
}

/// One offending atom: its coordinates on both sides.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Worst per-atom deltas (capped at `max_deltas`).
    pub deltas: Vec<AtomDelta>,
}

/// Outcome of a bisect run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// One local atom in a snapshot: (tag, x, v, f).
type LocalSnap = (u64, [f64; 3], [f64; 3], [f64; 3]);

/// Per-rank state frozen after one communication round.
#[derive(Debug, Clone)]
struct RankSnap {
    /// Tag-sorted locals.
    locals: Vec<LocalSnap>,
    /// Ghost positions per tag (periodic images duplicate tags, so each
    /// tag maps to a sorted multiset of raw coordinates).
    ghosts: BTreeMap<u64, Vec<[f64; 3]>>,
    /// Tag-sorted local scalars (EAM rho / F'), when populated.
    local_scalars: Vec<(u64, f64)>,
    /// Ghost scalars per tag, sorted, when populated.
    ghost_scalars: BTreeMap<u64, Vec<f64>>,
}

/// Total lexicographic order on raw coordinates. Uses `f64::total_cmp` per
/// component so a NaN coordinate still sorts deterministically — the
/// bisector exists to diagnose bad numbers and must not panic on them;
/// the NaN itself is reported as a divergence by the field comparison.
fn total_cmp3(p: &[f64; 3], q: &[f64; 3]) -> std::cmp::Ordering {
    p.iter()
        .zip(q)
        .map(|(a, b)| a.total_cmp(b))
        .find(|o| o.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

impl RankSnap {
    fn capture(st: &RankState) -> Self {
        let at = &st.atoms;
        let mut locals: Vec<_> = (0..at.nlocal)
            .map(|i| (at.tag[i], at.x[i], at.v[i], at.f[i]))
            .collect();
        locals.sort_unstable_by_key(|e| e.0);
        let mut ghosts: BTreeMap<u64, Vec<[f64; 3]>> = BTreeMap::new();
        for i in at.nlocal..at.ntotal() {
            ghosts.entry(at.tag[i]).or_default().push(at.x[i]);
        }
        for v in ghosts.values_mut() {
            v.sort_by(total_cmp3);
        }
        let has_scalar = st.scalar.len() == at.ntotal() && at.ntotal() > 0;
        let mut local_scalars = Vec::new();
        let mut ghost_scalars: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        if has_scalar {
            local_scalars = (0..at.nlocal).map(|i| (at.tag[i], st.scalar[i])).collect();
            local_scalars.sort_unstable_by_key(|e| e.0);
            for i in at.nlocal..at.ntotal() {
                ghost_scalars
                    .entry(at.tag[i])
                    .or_default()
                    .push(st.scalar[i]);
            }
            for v in ghost_scalars.values_mut() {
                v.sort_by(f64::total_cmp);
            }
        }
        RankSnap {
            locals,
            ghosts,
            local_scalars,
            ghost_scalars,
        }
    }
}

/// All ranks frozen after round `round` of `op`.
#[derive(Debug, Clone)]
struct OpSnap {
    op: Op,
    round: usize,
    rounds: usize,
    ranks: Vec<RankSnap>,
}

/// Run one step of `cluster` capturing an [`OpSnap`] after every round.
fn capture_step(cluster: &mut Cluster) -> Vec<OpSnap> {
    let sink: Arc<Mutex<Vec<OpSnap>>> = Arc::new(Mutex::new(Vec::new()));
    let tap = sink.clone();
    cluster.set_op_observer(Box::new(move |op, round, rounds, states| {
        tap.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(OpSnap {
                op,
                round,
                rounds,
                ranks: states.iter().map(RankSnap::capture).collect(),
            });
    }));
    cluster.run_step();
    cluster.clear_op_observer();
    let snaps = std::mem::take(
        &mut *sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    snaps
}

/// Largest per-component min-image difference between two coordinates.
/// NaN anywhere yields NaN (a plain `f64::max` fold would silently drop
/// it, hiding exactly the corruption the bisector hunts).
fn mi_delta(global: &Box3, a: &[f64; 3], b: &[f64; 3]) -> f64 {
    let d = global.minimum_image(a, b);
    let mut m = 0.0f64;
    for c in d {
        if c.is_nan() {
            return f64::NAN;
        }
        m = m.max(c.abs());
    }
    m
}

/// Largest plain per-component difference; NaN anywhere yields NaN.
fn abs_delta(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    let mut m = 0.0f64;
    for d in 0..3 {
        let c = (a[d] - b[d]).abs();
        if c.is_nan() {
            return f64::NAN;
        }
        m = m.max(c);
    }
    m
}

struct CompareCtx<'c> {
    global: Box3,
    tol: f64,
    max_deltas: usize,
    /// Exact ghost tag-set equality expected (same engine family)?
    same_family: bool,
    /// Tag → owner rank on side A, for source attribution.
    owner: &'c BTreeMap<u64, usize>,
}

/// Compare one field across the two sides of one rank. Returns the
/// divergence skeleton (rank/neighbor/field/tags/deltas filled; position
/// fields use min-image distances).
#[allow(clippy::too_many_arguments)]
fn field_divergence(
    ctx: &CompareCtx<'_>,
    rank: usize,
    field: &str,
    minimum_image: bool,
    a: &[(u64, [f64; 3])],
    b: &[(u64, [f64; 3])],
) -> Option<Divergence> {
    let ta: BTreeMap<u64, &[f64; 3]> = a.iter().map(|(t, x)| (*t, x)).collect();
    let tb: BTreeMap<u64, &[f64; 3]> = b.iter().map(|(t, x)| (*t, x)).collect();
    let missing_tags: Vec<u64> = ta.keys().filter(|t| !tb.contains_key(t)).copied().collect();
    let extra_tags: Vec<u64> = tb.keys().filter(|t| !ta.contains_key(t)).copied().collect();
    let mut deltas = Vec::new();
    for (t, xa) in &ta {
        if let Some(xb) = tb.get(t) {
            let d = if minimum_image {
                mi_delta(&ctx.global, xa, xb)
            } else {
                abs_delta(xa, xb)
            };
            // A NaN delta IS a divergence (`>` alone is false for NaN).
            if d > ctx.tol || d.is_nan() {
                deltas.push(AtomDelta {
                    tag: *t,
                    a: **xa,
                    b: **xb,
                    abs_delta: d,
                });
            }
        }
    }
    if missing_tags.is_empty() && extra_tags.is_empty() && deltas.is_empty() {
        return None;
    }
    // Descending by total order: NaN deltas sort first, largest finite next.
    deltas.sort_by(|p, q| q.abs_delta.total_cmp(&p.abs_delta));
    deltas.truncate(ctx.max_deltas);
    let first_tag = deltas
        .first()
        .map(|d| d.tag)
        .or_else(|| missing_tags.first().copied())
        .or_else(|| extra_tags.first().copied());
    let neighbor = first_tag.and_then(|t| ctx.owner.get(&t).copied());
    Some(Divergence {
        step: 0,
        op: None,
        round: 0,
        rounds: 0,
        rank,
        neighbor,
        field: field.to_string(),
        missing_tags,
        extra_tags,
        deltas,
    })
}

/// Flatten a ghost multiset map to comparable (tag, position) pairs. In
/// same-family mode every image is compared pairwise (tag duplicated in
/// the output); across families only the wrapped physical position of one
/// representative image per common tag is compared.
fn ghost_pairs(
    ctx: &CompareCtx<'_>,
    ghosts: &BTreeMap<u64, Vec<[f64; 3]>>,
) -> Vec<(u64, [f64; 3])> {
    let mut out = Vec::new();
    for (t, images) in ghosts {
        if ctx.same_family {
            for x in images {
                out.push((*t, *x));
            }
        } else if let Some(x) = images.first() {
            out.push((*t, ctx.global.wrap(*x).0));
        }
    }
    out
}

/// Compare side-A vs side-B rank snapshots after `op`. Returns the first
/// diverging rank's record.
fn compare_op(ctx: &CompareCtx<'_>, op: Op, a: &[RankSnap], b: &[RankSnap]) -> Option<Divergence> {
    for (rank, (ra, rb)) in a.iter().zip(b).enumerate() {
        let div = match op {
            Op::Exchange => {
                let la: Vec<_> = ra.locals.iter().map(|e| (e.0, e.1)).collect();
                let lb: Vec<_> = rb.locals.iter().map(|e| (e.0, e.1)).collect();
                field_divergence(ctx, rank, "local positions after migration", true, &la, &lb)
                    .or_else(|| {
                        let va: Vec<_> = ra.locals.iter().map(|e| (e.0, e.2)).collect();
                        let vb: Vec<_> = rb.locals.iter().map(|e| (e.0, e.2)).collect();
                        field_divergence(
                            ctx,
                            rank,
                            "local velocities after migration",
                            false,
                            &va,
                            &vb,
                        )
                    })
            }
            Op::Border | Op::Forward => {
                let ga = ghost_pairs(ctx, &ra.ghosts);
                let gb = ghost_pairs(ctx, &rb.ghosts);
                let field = if op == Op::Border {
                    "ghost positions after border"
                } else {
                    "ghost positions after forward"
                };
                // Same family: exact tag multisets; across families the
                // helper has already reduced to common physical positions,
                // and tag-set differences are expected, so mask them.
                let mut d = field_divergence(ctx, rank, field, true, &ga, &gb);
                if !ctx.same_family {
                    if let Some(dd) = &mut d {
                        dd.missing_tags.clear();
                        dd.extra_tags.clear();
                        if dd.deltas.is_empty() {
                            d = None;
                        }
                    }
                }
                d
            }
            Op::Reverse => {
                let fa: Vec<_> = ra.locals.iter().map(|e| (e.0, e.3)).collect();
                let fb: Vec<_> = rb.locals.iter().map(|e| (e.0, e.3)).collect();
                field_divergence(ctx, rank, "local forces after reverse", false, &fa, &fb)
            }
            Op::ReverseScalar => {
                let sa: Vec<_> = ra
                    .local_scalars
                    .iter()
                    .map(|e| (e.0, [e.1, 0.0, 0.0]))
                    .collect();
                let sb: Vec<_> = rb
                    .local_scalars
                    .iter()
                    .map(|e| (e.0, [e.1, 0.0, 0.0]))
                    .collect();
                field_divergence(ctx, rank, "local scalars after reverse", false, &sa, &sb)
            }
            Op::ForwardScalar => {
                let flat = |m: &BTreeMap<u64, Vec<f64>>| -> Vec<(u64, [f64; 3])> {
                    m.iter()
                        .filter_map(|(t, v)| v.first().map(|s| (*t, [*s, 0.0, 0.0])))
                        .collect()
                };
                let (sa, sb) = (flat(&ra.ghost_scalars), flat(&rb.ghost_scalars));
                let mut d =
                    field_divergence(ctx, rank, "ghost scalars after forward", false, &sa, &sb);
                if !ctx.same_family {
                    if let Some(dd) = &mut d {
                        dd.missing_tags.clear();
                        dd.extra_tags.clear();
                        if dd.deltas.is_empty() {
                            d = None;
                        }
                    }
                }
                d
            }
        };
        if div.is_some() {
            return div;
        }
    }
    None
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

/// Map every tag to its owner rank, from side-A locals.
fn owner_map(ranks: &[RankSnap]) -> BTreeMap<u64, usize> {
    let mut m = BTreeMap::new();
    for (r, snap) in ranks.iter().enumerate() {
        for (tag, ..) in &snap.locals {
            m.insert(*tag, r);
        }
    }
    m
}

/// Drive two already-built clusters in lockstep and report the first
/// divergence. Both must be built on the same mesh and [`RunConfig`].
pub fn bisect_clusters(
    a: &mut Cluster,
    b: &mut Cluster,
    opts: &LockstepOptions,
) -> DivergenceReport {
    assert_eq!(a.nranks(), b.nranks(), "clusters must share the rank grid");
    assert_eq!(a.natoms(), b.natoms(), "clusters must share the system");
    let same_family = a.variant.is_p2p() == b.variant.is_p2p();
    let strict_rounds = a.variant == b.variant;
    let global = a.global_box();
    let mut report = DivergenceReport {
        a: a.variant.label().to_string(),
        b: b.variant.label().to_string(),
        steps_requested: opts.steps,
        steps_run: 0,
        tol: opts.tol,
        divergence: None,
        op_stats_a: Vec::new(),
        op_stats_b: Vec::new(),
    };
    'steps: for step in 1..=opts.steps {
        let occ_a = occurrences(capture_step(a));
        let occ_b = occurrences(capture_step(b));
        report.steps_run = step;
        let seq_a: Vec<Op> = occ_a.iter().map(|o| o[0].op).collect();
        let seq_b: Vec<Op> = occ_b.iter().map(|o| o[0].op).collect();
        if seq_a != seq_b {
            report.divergence = Some(Divergence {
                step,
                op: None,
                round: 0,
                rounds: 0,
                rank: 0,
                neighbor: None,
                field: format!("op sequence: A ran {seq_a:?}, B ran {seq_b:?}"),
                missing_tags: Vec::new(),
                extra_tags: Vec::new(),
                deltas: Vec::new(),
            });
            break 'steps;
        }
        for (oa, ob) in occ_a.iter().zip(&occ_b) {
            let op = oa[0].op;
            let owner = owner_map(&oa[0].ranks);
            let ctx = CompareCtx {
                global,
                tol: opts.tol,
                max_deltas: opts.max_deltas,
                same_family,
                owner: &owner,
            };
            // Same variant: identical round structure lets the bisector
            // localize mid-op rounds. Otherwise only the completed op
            // states are physically comparable.
            let pairs: Vec<(&OpSnap, &OpSnap)> = if strict_rounds && oa.len() == ob.len() {
                oa.iter().zip(ob.iter()).collect()
            } else {
                // Occurrences are nonempty by construction; compare the
                // completed-op states.
                oa.last().zip(ob.last()).into_iter().collect()
            };
            for (sa, sb) in pairs {
                if let Some(mut d) = compare_op(&ctx, op, &sa.ranks, &sb.ranks) {
                    d.step = step;
                    d.op = Some(op);
                    d.round = sa.round;
                    d.rounds = sa.rounds;
                    report.divergence = Some(d);
                    break 'steps;
                }
            }
        }
        // End-of-step: locals must agree even on op-free steps.
        let owner = owner_map(&a.states().iter().map(RankSnap::capture).collect::<Vec<_>>());
        let ctx = CompareCtx {
            global,
            tol: opts.tol,
            max_deltas: opts.max_deltas,
            same_family,
            owner: &owner,
        };
        for (rank, (ra, rb)) in a.states().iter().zip(b.states()).enumerate() {
            let (sa, sb) = (RankSnap::capture(ra), RankSnap::capture(rb));
            let xa: Vec<_> = sa.locals.iter().map(|e| (e.0, e.1)).collect();
            let xb: Vec<_> = sb.locals.iter().map(|e| (e.0, e.1)).collect();
            let va: Vec<_> = sa.locals.iter().map(|e| (e.0, e.2)).collect();
            let vb: Vec<_> = sb.locals.iter().map(|e| (e.0, e.2)).collect();
            let d = field_divergence(&ctx, rank, "end-of-step positions", true, &xa, &xb).or_else(
                || field_divergence(&ctx, rank, "end-of-step velocities", false, &va, &vb),
            );
            if let Some(mut d) = d {
                d.step = step;
                report.divergence = Some(d);
                break 'steps;
            }
        }
    }
    report.op_stats_a = comm_rows(&a.op_stats(), 1.0);
    report.op_stats_b = comm_rows(&b.op_stats(), 1.0);
    report
}

/// Build two clusters of `va` and `vb` on the same system and bisect.
#[must_use]
pub fn bisect_variants(
    mesh: [u32; 3],
    cfg: RunConfig,
    va: CommVariant,
    vb: CommVariant,
    opts: &LockstepOptions,
) -> DivergenceReport {
    let mut a = Cluster::new(mesh, cfg, va);
    let mut b = Cluster::new(mesh, cfg, vb);
    a.set_driver_threads(opts.driver_threads);
    b.set_driver_threads(opts.driver_threads);
    bisect_clusters(&mut a, &mut b, opts)
}

/// Bisect a cluster against its serial twin. The twin has no per-op
/// structure, so comparison is per-step on the gathered locals
/// (positions by min-image, then velocities).
#[must_use]
pub fn bisect_against_serial(
    mesh: [u32; 3],
    cfg: RunConfig,
    variant: CommVariant,
    opts: &LockstepOptions,
) -> DivergenceReport {
    let mut cluster = Cluster::new(mesh, cfg, variant);
    cluster.set_driver_threads(opts.driver_threads);
    bisect_cluster_against_serial(&mut cluster, opts)
}

/// [`bisect_against_serial`] over an already-built cluster — the entry
/// point for runs with non-default construction (installed fault plans,
/// custom placement) that still need the serial-twin oracle.
#[must_use]
pub fn bisect_cluster_against_serial(
    cluster: &mut Cluster,
    opts: &LockstepOptions,
) -> DivergenceReport {
    let cfg = cluster.cfg;
    let variant = cluster.variant;
    let global = cluster.global_box();

    // Gather the cluster's initial state into one tag-sorted serial system.
    let gather = |c: &Cluster| -> Vec<(u64, [f64; 3], [f64; 3])> {
        let mut out = Vec::new();
        for st in c.states() {
            for i in 0..st.atoms.nlocal {
                out.push((st.atoms.tag[i], st.atoms.x[i], st.atoms.v[i]));
            }
        }
        out.sort_unstable_by_key(|e| e.0);
        out
    };
    let g0 = gather(cluster);
    let mut atoms = Atoms::from_positions(g0.iter().map(|e| e.1).collect(), 1);
    for (i, e) in g0.iter().enumerate() {
        atoms.v[i] = e.2;
    }
    let mut serial = SerialSim::new(
        atoms,
        global,
        cfg.build_potential(),
        cfg.units(),
        cfg.skin(),
        cfg.policy(),
        cfg.timestep(),
        cfg.mass(),
    );

    let mut report = DivergenceReport {
        a: variant.label().to_string(),
        b: "serial".to_string(),
        steps_requested: opts.steps,
        steps_run: 0,
        tol: opts.tol,
        divergence: None,
        op_stats_a: Vec::new(),
        op_stats_b: Vec::new(),
    };
    'steps: for step in 1..=opts.steps {
        cluster.run_step();
        serial.run_step();
        report.steps_run = step;
        let gc = gather(cluster);
        let owner: BTreeMap<u64, usize> = cluster
            .states()
            .iter()
            .enumerate()
            .flat_map(|(r, st)| (0..st.atoms.nlocal).map(move |i| (st.atoms.tag[i], r)))
            .collect();
        let ctx = CompareCtx {
            global,
            tol: opts.tol,
            max_deltas: opts.max_deltas,
            same_family: false,
            owner: &owner,
        };
        let xa: Vec<_> = gc.iter().map(|e| (e.0, e.1)).collect();
        let xb: Vec<_> = serial
            .atoms
            .tag
            .iter()
            .take(serial.atoms.nlocal)
            .zip(&serial.atoms.x)
            .map(|(t, x)| (*t, *x))
            .collect();
        let va: Vec<_> = gc.iter().map(|e| (e.0, e.2)).collect();
        let vb: Vec<_> = serial
            .atoms
            .tag
            .iter()
            .take(serial.atoms.nlocal)
            .zip(&serial.atoms.v)
            .map(|(t, v)| (*t, *v))
            .collect();
        let d = field_divergence(&ctx, 0, "positions (vs serial)", true, &xa, &xb)
            .or_else(|| field_divergence(&ctx, 0, "velocities (vs serial)", false, &va, &vb));
        if let Some(mut d) = d {
            d.step = step;
            // The "rank" slot is meaningless against a serial twin; point
            // it at the owner of the first bad tag instead.
            if let Some(n) = d.neighbor {
                d.rank = n;
            }
            report.divergence = Some(d);
            break 'steps;
        }
    }
    report.op_stats_a = comm_rows(&cluster.op_stats(), 1.0);
    report
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

    const MESH: [u32; 3] = [2, 3, 2]; // 12 nodes, 48 ranks

    #[test]
    fn identical_variants_never_diverge() {
        let opts = LockstepOptions {
            steps: 3,
            tol: 0.0,
            ..LockstepOptions::default()
        };
        let report = bisect_variants(
            MESH,
            RunConfig::lj(4000),
            CommVariant::Opt,
            CommVariant::Opt,
            &opts,
        );
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
        let report = bisect_variants(
            MESH,
            RunConfig::lj(4000),
            CommVariant::Ref,
            CommVariant::Opt,
            &opts,
        );
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
        let report = bisect_against_serial(MESH, RunConfig::lj(4000), CommVariant::Opt, &opts);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.steps_run, 5);
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
