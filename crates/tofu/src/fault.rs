//! Deterministic fault injection for the simulated TofuD fabric.
//!
//! The paper's one-sided design (§3.4) has zero slack for an imperfect
//! fabric: a put lands directly in a pre-registered remote array with no
//! acknowledgement protocol above the hardware. To grow toward the
//! production-scale north star the simulator must be able to *model* an
//! imperfect fabric — reproducibly. This module provides a [`FaultPlan`]:
//! a set of explicit rules plus an optional seeded background process,
//! both keyed on `(step, op, src, dst, tni)`, whose every decision is a
//! **pure function** of the plan and the key. Replaying a plan therefore
//! yields the identical fault schedule regardless of wall-clock timing,
//! host thread count, or interleaving — determinism by construction, not
//! by locking.
//!
//! Fault decisions are consulted by [`crate::rdma::Vcq::try_post`],
//! `try_register_mem` and `allocate_cq`; the errors they produce are the
//! typed [`TofuError`] variants that replace the old panic paths.

use crate::net::CqExhausted;

/// The `op` value used for fault keys outside any engine operation
/// (cluster build: registrations and CQ allocations).
pub const OP_SETUP: u8 = 0xFF;

/// The coordinate a fault decision is keyed on. For puts, `src` is the
/// sender's global rank tag and `dst` the destination node id; for
/// registration and CQ faults both are the affected node id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultKey {
    /// Simulation step (0 during setup).
    pub step: u64,
    /// Engine operation index ([`OP_SETUP`] outside operations).
    pub op: u8,
    /// Sender rank tag (puts) or node id (registration/CQ).
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
    /// TNI involved (0 for registrations).
    pub tni: u8,
}

/// What a matching rule does to the operation.
///
/// `times`-gated kinds fault the first `times` attempts of every matching
/// operation and then let it through — `times: u32::MAX` makes the fault
/// permanent (unrecoverable by retry).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The put is injected (TNI occupancy is charged) but never delivered;
    /// the sender observes a TCQ error.
    Drop {
        /// How many attempts of each matching put to drop.
        times: u32,
    },
    /// The put is delivered, but arrival is `dt` seconds late.
    Delay {
        /// Extra arrival latency in seconds.
        dt: f64,
    },
    /// The put is delivered twice (two identical MRQ entries, same
    /// sequence number).
    Duplicate,
    /// Only the first `len` payload bytes are delivered; the sender
    /// observes a length error.
    Truncate {
        /// Bytes actually delivered.
        len: usize,
        /// How many attempts of each matching put to truncate.
        times: u32,
    },
    /// Memory registration on the matching node fails.
    FailRegistration {
        /// How many registration attempts per node to fail.
        times: u32,
    },
    /// CQ allocation on the matching `(node, tni)` is transiently
    /// rejected as if the TNI were out of control queues.
    ExhaustCq {
        /// How many allocation attempts per `(node, tni)` to reject.
        times: u32,
    },
    /// From the start of `step` on, `rank` is dead: it services no puts
    /// and posts none. Peers that wait on it observe a receive shortfall
    /// that escalates to [`TofuError::PeerDead`] instead of a deadlock.
    /// Rule key fields are ignored — the kind carries its own coordinates.
    KillRank {
        /// First step at which the rank is dead.
        step: u64,
        /// The rank that dies.
        rank: u32,
    },
}

/// One explicit fault rule: wildcard-matchable key plus a [`FaultKind`].
/// `None` components match anything. The *first* matching rule in a plan
/// decides the outcome of an operation; later rules are not consulted.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Match a specific step, or any.
    pub step: Option<u64>,
    /// Match a specific op, or any.
    pub op: Option<u8>,
    /// Match a specific source, or any.
    pub src: Option<u32>,
    /// Match a specific destination, or any.
    pub dst: Option<u32>,
    /// Match a specific TNI, or any.
    pub tni: Option<u8>,
    /// What to do on a match.
    pub kind: FaultKind,
}

impl FaultRule {
    /// A rule matching every key, with the given kind. Narrow it by
    /// setting key fields.
    #[must_use]
    pub fn any(kind: FaultKind) -> Self {
        FaultRule {
            step: None,
            op: None,
            src: None,
            dst: None,
            tni: None,
            kind,
        }
    }

    fn matches(&self, k: &FaultKey) -> bool {
        self.step.is_none_or(|v| v == k.step)
            && self.op.is_none_or(|v| v == k.op)
            && self.src.is_none_or(|v| v == k.src)
            && self.dst.is_none_or(|v| v == k.dst)
            && self.tni.is_none_or(|v| v == k.tni)
    }
}

/// Background fault probabilities for a seeded plan. Each put hashes its
/// key (plus message sequence number) with the seed into a uniform value
/// and compares against the cumulative rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability a put's first attempt is dropped.
    pub drop: f64,
    /// Probability a put is delayed by `delay_dt`.
    pub delay: f64,
    /// Probability a put is delivered twice.
    pub duplicate: f64,
    /// Probability a put's first attempt is length-truncated.
    pub truncate: f64,
    /// Arrival delay applied by delay faults, in seconds.
    pub delay_dt: f64,
}

impl FaultRates {
    /// A light mixed workload: 2% drops, 2% delays, 2% duplicates,
    /// 1% truncations, 2 us delay.
    #[must_use]
    pub fn light() -> Self {
        FaultRates {
            drop: 0.02,
            delay: 0.02,
            duplicate: 0.02,
            truncate: 0.01,
            delay_dt: 2.0e-6,
        }
    }
}

/// Seeded background fault process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seeded {
    /// Hash seed; two plans with equal seeds and rates are identical.
    pub seed: u64,
    /// Per-kind probabilities.
    pub rates: FaultRates,
}

/// A complete, replayable fault schedule: explicit rules (checked first,
/// in order) plus an optional seeded background process. Drop and
/// truncate faults produced by the *seeded* process only ever hit a put's
/// first attempt, so a seeded plan is always recoverable with a retry
/// budget of one or more; explicit rules may use `times` to exceed any
/// budget.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    seeded: Option<Seeded>,
}

/// The decision for one put attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Inject but do not deliver; sender sees [`TofuError::PutDropped`].
    Drop,
    /// Deliver, arriving the given seconds late.
    Delay(f64),
    /// Deliver twice.
    Duplicate,
    /// Deliver only this many payload bytes; sender sees
    /// [`TofuError::PutTruncated`].
    Truncate(usize),
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// A plan with only a seeded background process.
    #[must_use]
    pub fn seeded(seed: u64, rates: FaultRates) -> Self {
        FaultPlan {
            rules: Vec::new(),
            seeded: Some(Seeded { seed, rates }),
        }
    }

    /// Append an explicit rule (builder style).
    #[must_use]
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// True when the plan can never produce a fault.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.seeded.is_none()
    }

    /// Decide the fate of attempt `attempt` of a put with key `key`,
    /// message sequence `seq` and payload length `len`. Pure: equal
    /// arguments always produce the equal decision.
    #[must_use]
    pub fn decide_put(
        &self,
        key: &FaultKey,
        seq: u64,
        len: usize,
        attempt: u32,
    ) -> Option<FaultAction> {
        for rule in &self.rules {
            if !rule.matches(key) {
                continue;
            }
            // First matching *put-applicable* rule decides entirely.
            match rule.kind {
                FaultKind::Drop { times } => {
                    return (attempt < times).then_some(FaultAction::Drop);
                }
                FaultKind::Delay { dt } => return Some(FaultAction::Delay(dt)),
                FaultKind::Duplicate => return Some(FaultAction::Duplicate),
                FaultKind::Truncate { len: cut, times } => {
                    if attempt >= times {
                        return None;
                    }
                    // Truncating an empty (piggyback-only) put is
                    // indistinguishable from delivering it; model it as a
                    // drop so the sender still observes the error.
                    return Some(if len == 0 {
                        FaultAction::Drop
                    } else {
                        FaultAction::Truncate(cut.min(len))
                    });
                }
                FaultKind::FailRegistration { .. }
                | FaultKind::ExhaustCq { .. }
                | FaultKind::KillRank { .. } => continue,
            }
        }
        let s = self.seeded?;
        let u = unit_hash(s.seed, key, seq);
        let r = s.rates;
        let mut edge = r.drop;
        if u < edge {
            return (attempt == 0).then_some(FaultAction::Drop);
        }
        edge += r.delay;
        if u < edge {
            return Some(FaultAction::Delay(r.delay_dt));
        }
        edge += r.duplicate;
        if u < edge {
            return Some(FaultAction::Duplicate);
        }
        edge += r.truncate;
        if u < edge && attempt == 0 {
            return Some(if len == 0 {
                FaultAction::Drop
            } else {
                FaultAction::Truncate(len / 2)
            });
        }
        None
    }

    /// Should registration attempt `attempt` on the node identified by
    /// `key` fail? Only explicit [`FaultKind::FailRegistration`] rules
    /// apply; the seeded process never faults registrations.
    #[must_use]
    pub fn decide_registration(&self, key: &FaultKey, attempt: u32) -> bool {
        for rule in &self.rules {
            if !rule.matches(key) {
                continue;
            }
            if let FaultKind::FailRegistration { times } = rule.kind {
                return attempt < times;
            }
        }
        false
    }

    /// Should CQ-allocation attempt `attempt` on the `(node, tni)`
    /// identified by `key` be rejected? Only explicit
    /// [`FaultKind::ExhaustCq`] rules apply.
    #[must_use]
    pub fn decide_cq(&self, key: &FaultKey, attempt: u32) -> bool {
        for rule in &self.rules {
            if !rule.matches(key) {
                continue;
            }
            if let FaultKind::ExhaustCq { times } = rule.kind {
                return attempt < times;
            }
        }
        false
    }

    /// Ranks dead at `step`: every [`FaultKind::KillRank`] whose kill step
    /// has been reached. Sorted and deduplicated. Pure in (plan, step).
    #[must_use]
    pub fn dead_ranks(&self, step: u64) -> Vec<u32> {
        let mut dead: Vec<u32> = self
            .rules
            .iter()
            .filter_map(|r| match r.kind {
                FaultKind::KillRank { step: s, rank } if s <= step => Some(rank),
                _ => None,
            })
            .collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// True when the plan contains any [`FaultKind::KillRank`] rule,
    /// regardless of its kill step.
    #[must_use]
    pub fn has_kill_rules(&self) -> bool {
        self.rules
            .iter()
            .any(|r| matches!(r.kind, FaultKind::KillRank { .. }))
    }
}

/// splitmix64 finalizer — a well-mixed 64-bit permutation.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash `(seed, key, seq)` to a uniform value in `[0, 1)`.
fn unit_hash(seed: u64, key: &FaultKey, seq: u64) -> f64 {
    let mut h = splitmix64(seed);
    for v in [
        key.step,
        u64::from(key.op),
        u64::from(key.src),
        u64::from(key.dst),
        u64::from(key.tni),
        seq,
    ] {
        h = splitmix64(h ^ v);
    }
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Typed errors for fabric operations — the replacements for the panic /
/// `expect` paths the engines used to hit on any anomaly.
#[derive(Debug, Clone, PartialEq)]
pub enum TofuError {
    /// A put was injected but never delivered (TCQ error at the sender).
    PutDropped {
        /// The fault key of the failed put.
        key: FaultKey,
        /// Message sequence number.
        seq: u64,
        /// Which attempt failed (0-based).
        attempt: u32,
    },
    /// A put delivered fewer bytes than posted (length error).
    PutTruncated {
        /// The fault key of the failed put.
        key: FaultKey,
        /// Message sequence number.
        seq: u64,
        /// Which attempt failed (0-based).
        attempt: u32,
        /// Bytes actually delivered.
        delivered: usize,
        /// Bytes posted.
        expected: usize,
    },
    /// Memory registration failed (kernel refused to pin).
    RegistrationFailed {
        /// Node whose registration failed.
        node: usize,
        /// Requested region length.
        len: usize,
    },
    /// A TNI had no control queue to give out.
    CqExhausted(CqExhausted),
    /// A remote buffer address was needed before its owner published it.
    MissingBuffer {
        /// Rank whose buffer was looked up.
        rank: u32,
        /// Buffer family (engine-specific label).
        kind: &'static str,
        /// Link index within the family.
        link: usize,
        /// Round-robin slot index.
        slot: usize,
    },
    /// A receive stage found fewer arrivals than the protocol guarantees —
    /// a real run would deadlock here.
    Deadlock {
        /// The waiting node.
        node: usize,
        /// Arrivals the protocol expected.
        expected: usize,
        /// Arrivals actually queued.
        found: usize,
    },
    /// A receive stage came up short because a peer rank is dead — the
    /// recoverable escalation of what would otherwise be a deadlock.
    /// Survivors roll back to a checkpoint and rebuild over N−1 ranks.
    PeerDead {
        /// The waiting node.
        node: usize,
        /// The dead rank.
        rank: u32,
        /// The step at which the rank died.
        step: u64,
    },
    /// A physics phase ran before the per-rank state it consumes was built
    /// (e.g. a force pass before the neighbor list) — a driver sequencing
    /// bug, reported instead of panicking mid-phase.
    PhaseOrder {
        /// The rank whose state was missing.
        node: usize,
        /// The phase that ran out of order.
        phase: &'static str,
        /// The state it needed.
        missing: &'static str,
    },
    /// An arrival's descriptor names a halo edge the receiver does not
    /// have, or not the one owning the buffer it landed in — a forged or
    /// corrupt descriptor, rejected instead of indexing with it.
    BadDescriptor {
        /// The receiving node.
        node: usize,
        /// The edge index the descriptor carried.
        edge: u64,
        /// How many edges the receiver has.
        edges: usize,
    },
    /// A two-sided receive found a second queued message with its `(src,
    /// tag)`: one key names one message per round, and taking the first
    /// would leave the other for a later receive with the same tag.
    DuplicateMessage {
        /// The receiving node.
        node: usize,
        /// The sending rank.
        src: usize,
        /// The message tag.
        tag: u32,
    },
    /// An engine was asked to walk a graph it cannot: the staged sweeps
    /// and the uTofu buffer tables both need the uniform grid.
    UnsupportedGraph {
        /// The engine (communication-variant label).
        engine: &'static str,
        /// The kind of graph it was handed.
        graph: &'static str,
    },
}

impl std::fmt::Display for TofuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TofuError::PutDropped { key, seq, attempt } => write!(
                f,
                "put dropped (step {} op {} {}->{} tni {} seq {seq} attempt {attempt})",
                key.step, key.op, key.src, key.dst, key.tni
            ),
            TofuError::PutTruncated {
                key,
                seq,
                attempt,
                delivered,
                expected,
            } => write!(
                f,
                "put truncated to {delivered}/{expected} bytes (step {} op {} {}->{} tni {} \
                 seq {seq} attempt {attempt})",
                key.step, key.op, key.src, key.dst, key.tni
            ),
            TofuError::RegistrationFailed { node, len } => {
                write!(
                    f,
                    "memory registration of {len} bytes failed on node {node}"
                )
            }
            TofuError::CqExhausted(e) => e.fmt(f),
            TofuError::MissingBuffer {
                rank,
                kind,
                link,
                slot,
            } => write!(
                f,
                "no published {kind} buffer for rank {rank} link {link} slot {slot}"
            ),
            TofuError::Deadlock {
                node,
                expected,
                found,
            } => write!(
                f,
                "deadlock: node {node} expected {expected} arrivals, found {found}"
            ),
            TofuError::PeerDead { node, rank, step } => write!(
                f,
                "peer rank {rank} dead since step {step}: node {node} will never receive from it"
            ),
            TofuError::PhaseOrder {
                node,
                phase,
                missing,
            } => write!(
                f,
                "phase order violation: {phase} on node {node} ran without {missing}"
            ),
            TofuError::BadDescriptor { node, edge, edges } => write!(
                f,
                "bad descriptor on node {node}: edge index {edge} does not name the \
                 receiving buffer's edge (receiver has {edges})"
            ),
            TofuError::DuplicateMessage { node, src, tag } => write!(
                f,
                "duplicate message on node {node}: two queued from rank {src} with tag {tag}"
            ),
            TofuError::UnsupportedGraph { engine, graph } => write!(
                f,
                "engine {engine} does not support {graph} graphs: the staged sweeps and the \
                 uTofu buffer tables need the uniform grid"
            ),
        }
    }
}

impl std::error::Error for TofuError {}

impl TofuError {
    /// Name the engine of an [`TofuError::UnsupportedGraph`] in the
    /// caller's terms (the driver knows the variant label the user chose;
    /// the engine knows only its pattern or transport).
    #[must_use]
    pub fn for_engine(self, engine: &'static str) -> Self {
        match self {
            TofuError::UnsupportedGraph { graph, .. } => {
                TofuError::UnsupportedGraph { engine, graph }
            }
            e => e,
        }
    }
}

impl From<CqExhausted> for TofuError {
    fn from(e: CqExhausted) -> Self {
        TofuError::CqExhausted(e)
    }
}

/// Running totals of injected faults, readable from
/// [`crate::net::TofuNet::fault_counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Puts dropped.
    pub drops: u64,
    /// Puts delayed.
    pub delays: u64,
    /// Puts duplicated.
    pub duplicates: u64,
    /// Puts truncated.
    pub truncations: u64,
    /// Registrations failed.
    pub reg_failures: u64,
    /// CQ allocations rejected.
    pub cq_rejections: u64,
    /// Ranks killed (counted once per rank when its kill step arrives).
    pub kills: u64,
}

impl FaultCounters {
    /// Total faults of every kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.drops
            + self.delays
            + self.duplicates
            + self.truncations
            + self.reg_failures
            + self.cq_rejections
            + self.kills
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(step: u64, src: u32) -> FaultKey {
        FaultKey {
            step,
            op: 1,
            src,
            dst: 3,
            tni: 2,
        }
    }

    #[test]
    fn decisions_are_pure_functions() {
        let plan = FaultPlan::seeded(0xC0FFEE, FaultRates::light());
        for step in 0..50 {
            for src in 0..16 {
                for seq in 0..8 {
                    let k = key(step, src);
                    let a = plan.decide_put(&k, seq, 96, 0);
                    let b = plan.decide_put(&k, seq, 96, 0);
                    assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn seeded_rates_roughly_hold() {
        let plan = FaultPlan::seeded(7, FaultRates::light());
        let mut faults = 0usize;
        let n = 20_000;
        for i in 0..n {
            let k = key(i as u64 % 100, (i % 48) as u32);
            if plan.decide_put(&k, i as u64, 96, 0).is_some() {
                faults += 1;
            }
        }
        let rate = faults as f64 / n as f64;
        assert!((0.03..0.12).contains(&rate), "fault rate {rate} off target");
    }

    #[test]
    fn seeded_drops_only_hit_first_attempt() {
        let plan = FaultPlan::seeded(11, FaultRates::light());
        for i in 0..5_000u64 {
            let k = key(i, (i % 48) as u32);
            if let Some(FaultAction::Drop | FaultAction::Truncate(_)) =
                plan.decide_put(&k, i, 96, 0)
            {
                assert!(
                    !matches!(
                        plan.decide_put(&k, i, 96, 1),
                        Some(FaultAction::Drop | FaultAction::Truncate(_))
                    ),
                    "retry of a seeded drop must succeed"
                );
            }
        }
    }

    #[test]
    fn rule_wildcards_and_times_gate() {
        let plan = FaultPlan::new().with_rule(FaultRule {
            step: Some(2),
            src: Some(7),
            ..FaultRule::any(FaultKind::Drop { times: 2 })
        });
        let k = key(2, 7);
        assert_eq!(plan.decide_put(&k, 0, 96, 0), Some(FaultAction::Drop));
        assert_eq!(plan.decide_put(&k, 0, 96, 1), Some(FaultAction::Drop));
        assert_eq!(plan.decide_put(&k, 0, 96, 2), None);
        assert_eq!(plan.decide_put(&key(3, 7), 0, 96, 0), None);
        assert_eq!(plan.decide_put(&key(2, 8), 0, 96, 0), None);
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new()
            .with_rule(FaultRule::any(FaultKind::Delay { dt: 1e-6 }))
            .with_rule(FaultRule::any(FaultKind::Drop { times: u32::MAX }));
        assert_eq!(
            plan.decide_put(&key(0, 0), 0, 8, 0),
            Some(FaultAction::Delay(1e-6))
        );
    }

    #[test]
    fn registration_and_cq_rules_are_separate_namespaces() {
        let plan = FaultPlan::new()
            .with_rule(FaultRule::any(FaultKind::FailRegistration { times: 1 }))
            .with_rule(FaultRule::any(FaultKind::ExhaustCq { times: 2 }));
        let k = key(0, 0);
        // Put decisions skip registration/CQ rules.
        assert_eq!(plan.decide_put(&k, 0, 8, 0), None);
        assert!(plan.decide_registration(&k, 0));
        assert!(!plan.decide_registration(&k, 1));
        assert!(plan.decide_cq(&k, 1));
        assert!(!plan.decide_cq(&k, 2));
    }

    #[test]
    fn truncate_of_empty_put_becomes_drop() {
        let plan =
            FaultPlan::new().with_rule(FaultRule::any(FaultKind::Truncate { len: 4, times: 1 }));
        assert_eq!(
            plan.decide_put(&key(0, 0), 0, 0, 0),
            Some(FaultAction::Drop)
        );
        assert_eq!(
            plan.decide_put(&key(0, 0), 0, 64, 0),
            Some(FaultAction::Truncate(4))
        );
    }

    #[test]
    fn kill_rules_never_fault_puts_and_report_dead_ranks() {
        let plan = FaultPlan::new()
            .with_rule(FaultRule::any(FaultKind::KillRank { step: 5, rank: 3 }))
            .with_rule(FaultRule::any(FaultKind::KillRank { step: 9, rank: 1 }))
            .with_rule(FaultRule::any(FaultKind::KillRank { step: 9, rank: 1 }));
        // Kill rules are not put faults: the message path stays clean.
        assert_eq!(plan.decide_put(&key(5, 3), 0, 96, 0), None);
        assert!(!plan.decide_registration(&key(5, 3), 0));
        assert!(!plan.decide_cq(&key(5, 3), 0));
        assert!(plan.has_kill_rules());
        assert!(plan.dead_ranks(4).is_empty());
        assert_eq!(plan.dead_ranks(5), vec![3]);
        assert_eq!(plan.dead_ranks(9), vec![1, 3], "sorted and deduped");
        assert!(!FaultPlan::new().has_kill_rules());
    }

    #[test]
    fn error_display_is_informative() {
        let e = TofuError::MissingBuffer {
            rank: 5,
            kind: "ghost-in",
            link: 3,
            slot: 1,
        };
        assert!(e.to_string().contains("rank 5"));
        let e = TofuError::from(CqExhausted { node: 2, tni: 4 });
        assert!(e.to_string().contains("TNI 4"));
    }
}
