//! Replay determinism of the fault-injection layer: every decision a
//! [`FaultPlan`] makes is a pure function of `(plan, key, seq, attempt)`,
//! so executing the *same scripted operation sequence* against two fresh
//! fabrics carrying equal plans must produce bit-identical put results,
//! arrival queues and fault counters — the property the runtime's
//! thread-schedule-invariance guarantee is built on.

use proptest::prelude::*;
use std::sync::Arc;
use tofumd_tofu::{
    CellGrid, FaultKind, FaultPlan, FaultRates, FaultRule, NetParams, Put, PutResult, PutSrc,
    TofuError, TofuNet, Vcq,
};

/// One scripted put, fully derived from the case seed.
#[derive(Debug, Clone, PartialEq)]
struct ScriptedPut {
    step: u64,
    op: u8,
    src_rank: u32,
    dst_node: usize,
    tni: usize,
    seq: u64,
    len: usize,
    attempt: u32,
}

/// Deterministic script generator (splitmix-style stream over the seed).
fn script(seed: u64, nputs: usize, nnodes: usize, max_attempt: u32) -> Vec<ScriptedPut> {
    let mut x = seed;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 16
    };
    (0..nputs)
        .map(|i| ScriptedPut {
            step: next() % 6,
            op: (next() % 6) as u8,
            src_rank: (next() % 48) as u32,
            dst_node: 1 + (next() as usize % (nnodes - 1)),
            tni: next() as usize % 6,
            seq: i as u64,
            len: (next() % 257) as usize,
            attempt: (next() % u64::from(max_attempt + 1)) as u32,
        })
        .collect()
}

/// Execute `puts` on a fresh fabric under `plan`, each through
/// [`Vcq::try_post`] (the engines' faultable path) on a VCQ of its own
/// `(tni, src_rank)`, dropped after the put so no TNI runs out of CQs;
/// return everything observable: per-put outcomes, the drained arrival
/// queues of every node, and the fault totals.
#[allow(clippy::type_complexity)]
fn run_script(
    plan: &FaultPlan,
    puts: &[ScriptedPut],
) -> (
    Vec<Result<PutResult, TofuError>>,
    Vec<Vec<tofumd_tofu::Arrival>>,
    tofumd_tofu::FaultCounters,
) {
    let net = Arc::new(TofuNet::new(CellGrid::new([1, 1, 1]), NetParams::default()));
    net.set_fault_plan(plan.clone());
    let stadds: Vec<_> = (0..net.node_count())
        .map(|n| net.register_mem(n, 4096).0)
        .collect();
    let payload = vec![0xA5u8; 257];
    let mut results = Vec::with_capacity(puts.len());
    for p in puts {
        net.set_fault_context(p.step, p.op);
        let mut vcq = Vcq::create(net.clone(), 0, p.tni, p.src_rank).unwrap();
        let put = Put {
            dst_node: p.dst_node,
            dst_stadd: stadds[p.dst_node],
            dst_offset: 512 * (p.seq as usize % 7),
            src: PutSrc::Bytes(&payload[..p.len]),
            piggyback: p.seq,
            seq: p.seq,
            cache_injection: false,
        };
        results.push(vcq.try_post(&mut 0.0, &put, p.attempt));
    }
    let arrivals = (0..net.node_count())
        .map(|n| net.take_arrivals(n, |_| true))
        .collect();
    (results, arrivals, net.fault_counters())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two fabrics with equal plans replay a script identically — results,
    /// arrivals (times, sequence numbers, payload ranges) and counters.
    #[test]
    fn scripted_sequences_replay_identically(
        seed in 0u64..u64::MAX / 2,
        nputs in 1usize..120,
        max_attempt in 0u32..3,
    ) {
        let plan = FaultPlan::seeded(seed ^ 0xC0FFEE, FaultRates::light()).with_rule(FaultRule {
            step: Some(3),
            ..FaultRule::any(FaultKind::Delay { dt: 2.5e-6 })
        });
        let puts = script(seed, nputs, 12, max_attempt);
        let a = run_script(&plan, &puts);
        let b = run_script(&plan, &puts);
        prop_assert_eq!(&a.0, &b.0, "put outcomes must replay");
        prop_assert_eq!(&a.1, &b.1, "arrival queues must replay");
        prop_assert_eq!(a.2, b.2, "fault counters must replay");
    }

    /// A seeded plan is recoverable by construction: any put that fails at
    /// attempt 0 succeeds when re-posted as attempt 1 with the same key
    /// and sequence number.
    #[test]
    fn seeded_failures_vanish_on_first_retry(
        seed in 0u64..u64::MAX / 2,
        nputs in 1usize..120,
    ) {
        let plan = FaultPlan::seeded(seed, FaultRates::light());
        let puts = script(seed ^ 0x5EED, nputs, 12, 0);
        let (results, ..) = run_script(&plan, &puts);
        let retries: Vec<ScriptedPut> = puts
            .iter()
            .zip(&results)
            .filter(|(_, r)| r.is_err())
            .map(|(p, _)| ScriptedPut { attempt: 1, ..p.clone() })
            .collect();
        let (retried, ..) = run_script(&plan, &retries);
        for r in &retried {
            prop_assert!(r.is_ok(), "retry must clear a seeded fault: {r:?}");
        }
    }

    /// `times`-gated registration faults consume exactly `times` attempts
    /// per node, deterministically across fabrics.
    #[test]
    fn registration_faults_consume_times_attempts(times in 1u32..4, node in 0usize..12) {
        let plan = FaultPlan::new().with_rule(FaultRule::any(FaultKind::FailRegistration {
            times,
        }));
        let run = || {
            let net = TofuNet::new(CellGrid::new([1, 1, 1]), NetParams::default());
            net.set_fault_plan(plan.clone());
            let outcomes: Vec<bool> = (0..times + 2)
                .map(|_| net.try_register_mem(node, 1024).is_ok())
                .collect();
            (outcomes, net.fault_counters().reg_failures)
        };
        let (a, fa) = run();
        let (b, fb) = run();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(fa, fb);
        for (i, ok) in a.iter().enumerate() {
            prop_assert_eq!(*ok, i as u32 >= times, "attempt {} of {} gated", i, times);
        }
        prop_assert_eq!(fa, u64::from(times));
    }
}
