//! The uTofu-style user interface: VCQs and one-sided operations.
//!
//! Mirrors the structure of §3.3/Fig. 7: each TNI exposes 9 CQs; software
//! creates *virtual* control queues (VCQs) bound to one CQ each and posts
//! one-sided puts/gets through them. A CQ is **not thread-safe** — the
//! paper builds its fine-grained design around this constraint — which the
//! Rust API encodes by requiring `&mut Vcq` for every operation: ownership,
//! not locking, serializes access.

use crate::fault::TofuError;
use crate::mem::Stadd;
use crate::net::{Arrival, CqExhausted, PutRequest, PutResult, PutSrc, TofuNet};
use std::sync::Arc;

/// One logical message: the descriptor fields of a sequenced put —
/// everything a retransmission repeats.
#[derive(Debug, Clone, Copy)]
pub struct Put<'a> {
    /// Destination node.
    pub dst_node: usize,
    /// Destination registered region.
    pub dst_stadd: Stadd,
    /// Byte offset within the destination region.
    pub dst_offset: usize,
    /// The payload.
    pub src: PutSrc<'a>,
    /// 8-byte descriptor-embedded payload.
    pub piggyback: u64,
    /// Sequence stamp (see [`Arrival::seq`]); retransmissions reuse it.
    pub seq: u64,
    /// Use TofuD cache injection on the receive side.
    pub cache_injection: bool,
}

/// A virtual control queue bound to one hardware CQ of one TNI.
pub struct Vcq {
    net: Arc<TofuNet>,
    node: usize,
    tni: usize,
    cq: usize,
    /// Tag stamped on outgoing messages so receivers can identify the
    /// logical sender (we use global rank ids).
    rank_tag: u32,
}

impl Vcq {
    /// Create a VCQ on `(node, tni)`, allocating one of the TNI's 9 CQs.
    pub fn create(
        net: Arc<TofuNet>,
        node: usize,
        tni: usize,
        rank_tag: u32,
    ) -> Result<Self, CqExhausted> {
        let cq = net.allocate_cq(node, tni)?;
        Ok(Vcq {
            net,
            node,
            tni,
            cq,
            rank_tag,
        })
    }

    /// The TNI this VCQ injects through.
    #[must_use]
    pub fn tni(&self) -> usize {
        self.tni
    }

    /// The hardware CQ index backing this VCQ.
    #[must_use]
    pub fn cq(&self) -> usize {
        self.cq
    }

    /// Charge the descriptor-posting CPU cost and stamp `put` with this
    /// VCQ's injection point (its payload travels beside the request).
    fn lower(&self, now: &mut f64, put: &Put<'_>) -> PutRequest<'static> {
        *now += self.net.params().cpu_per_put_utofu;
        PutRequest {
            src_node: self.node,
            tni: self.tni,
            dst_node: put.dst_node,
            dst_stadd: put.dst_stadd,
            dst_offset: put.dst_offset,
            data: &[],
            piggyback: put.piggyback,
            src_rank: self.rank_tag,
            seq: put.seq,
            now: *now,
            cache_injection: put.cache_injection,
        }
    }

    /// Post attempt `attempt` of a sequenced message on the *faultable*
    /// path: subject to the fabric's active fault plan. The posting CPU
    /// cost is charged per attempt (`*now` advances even when the put
    /// fails).
    pub fn try_post(
        &mut self,
        now: &mut f64,
        put: &Put<'_>,
        attempt: u32,
    ) -> Result<PutResult, TofuError> {
        self.net
            .try_put_from(&self.lower(now, put), put.src, attempt)
    }

    /// Post a sequenced message on the reliable path — the escape hatch
    /// after a retry budget is exhausted (the payload is handed to the
    /// reliable software stack, modeled as never faulting). Reusing the
    /// message's sequence number lets the receiver's duplicate detection
    /// coalesce it with any truncated earlier delivery.
    pub fn post_reliable(&mut self, now: &mut f64, put: &Put<'_>) -> PutResult {
        self.net.put_from(&self.lower(now, put), put.src)
    }
}

/// A VCQ frees its CQ when it goes away, so a replaced engine returns its
/// control queues to the pool (capacity accounting; see
/// [`TofuNet::release_cq`]).
impl Drop for Vcq {
    fn drop(&mut self) {
        self.net.release_cq(self.node, self.tni);
    }
}

/// Take every arrival matching `pred` on `node` into `arrivals` (cleared
/// first, so a steady-state receive allocates nothing) and return the
/// advanced clock: the max of `now` and the latest arrival, since the
/// receiver spins on its MRQ until then. Fewer than `count` is
/// [`TofuError::Deadlock`] (in the lockstep driver every send of a stage
/// precedes its receives, so a real run would hang) — or
/// [`TofuError::PeerDead`] when the active fault plan has killed a rank at
/// the current step (the missing arrivals will never come; survivors can
/// shrink and recover).
pub fn try_wait_arrivals_into(
    net: &TofuNet,
    node: usize,
    now: f64,
    count: usize,
    pred: impl FnMut(&Arrival) -> bool,
    arrivals: &mut Vec<Arrival>,
) -> Result<f64, TofuError> {
    arrivals.clear();
    net.take_arrivals_into(node, pred, arrivals);
    if arrivals.len() < count {
        return Err(net.shortfall_error(node, count, arrivals.len()));
    }
    let latest = arrivals
        .iter()
        .map(|a| a.time)
        .fold(f64::NEG_INFINITY, f64::max);
    Ok(now.max(latest))
}

/// What [`dedupe_arrivals`] removed: anomalies a perfect fabric never
/// produces, counted so engines can report *detected* duplicate delivery
/// and buffer overwrites instead of silently unpacking corrupt ghosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliveryAnomalies {
    /// Arrivals discarded because an equal-sequence delivery to the same
    /// buffer range superseded them (duplicate delivery / retransmission).
    pub duplicates: u64,
    /// Arrivals discarded because a *newer-sequence* delivery landed on
    /// the same buffer range before this one was consumed (round-robin
    /// slot overwrite).
    pub overwrites: u64,
}

/// Canonicalize a batch of arrivals taken off the MRQ: sort them into a
/// deterministic, time-independent order and collapse deliveries that
/// landed on the same `(buffer, offset, sender)` range, keeping the
/// authoritative one (highest sequence, then longest — a full
/// retransmission supersedes a truncated first delivery — then latest).
///
/// Engines run this on *every* receive, faulted or not: the canonical
/// order makes unpack order independent of MRQ queue order, and under a
/// recoverable fault plan the surviving set is byte-identical to the
/// fault-free run's.
pub fn dedupe_arrivals(arrivals: &mut Vec<Arrival>) -> DeliveryAnomalies {
    // Unstable (in-place, allocation-free) is enough: arrivals that tie on
    // the whole key are copies of one delivery.
    arrivals.sort_unstable_by(|a, b| {
        (a.stadd.0, a.offset, a.src_rank, a.seq, a.len)
            .cmp(&(b.stadd.0, b.offset, b.src_rank, b.seq, b.len))
            .then(a.time.total_cmp(&b.time))
    });
    let mut anomalies = DeliveryAnomalies::default();
    // Within each (stadd, offset, src_rank) group the sort puts the
    // authoritative arrival last; discard the rest.
    let mut w = 0;
    for i in 0..arrivals.len() {
        let last_of_group = match arrivals.get(i + 1) {
            None => true,
            Some(n) => {
                (n.stadd, n.offset, n.src_rank)
                    != (arrivals[i].stadd, arrivals[i].offset, arrivals[i].src_rank)
            }
        };
        if last_of_group {
            arrivals[w] = arrivals[i];
            w += 1;
        } else if arrivals[i + 1].seq == arrivals[i].seq {
            anomalies.duplicates += 1;
        } else {
            anomalies.overwrites += 1;
        }
    }
    arrivals.truncate(w);
    anomalies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::NetParams;
    use crate::topology::CellGrid;

    fn net() -> Arc<TofuNet> {
        Arc::new(TofuNet::new(CellGrid::new([1, 1, 1]), NetParams::default()))
    }

    /// A bytes put of `data` to `(dst_node, dst_stadd)` at offset 0.
    fn bytes_put(dst_node: usize, dst_stadd: Stadd, data: &[u8], piggyback: u64) -> Put<'_> {
        Put {
            dst_node,
            dst_stadd,
            dst_offset: 0,
            src: PutSrc::Bytes(data),
            piggyback,
            seq: 0,
            cache_injection: false,
        }
    }

    #[test]
    fn vcq_put_charges_cpu_cost() {
        let net = net();
        let (dst, _) = net.register_mem(1, 16);
        let mut vcq = Vcq::create(net.clone(), 0, 0, 0).unwrap();
        let mut now = 0.0;
        let r = vcq.post_reliable(&mut now, &bytes_put(1, dst, &[1, 2, 3, 4], 0));
        assert!((now - net.params().cpu_per_put_utofu).abs() < 1e-15);
        assert!(r.remote_arrival > now);
        net.read_local_with(1, dst, 0, 4, |b| assert_eq!(b, [1, 2, 3, 4]));
    }

    /// A written put of `len` bytes that serializes with `write`.
    fn written<'a>(
        dst_node: usize,
        dst_stadd: Stadd,
        dst_offset: usize,
        len: usize,
        write: &'a dyn Fn(&mut [u8]),
        seq: u64,
    ) -> Put<'a> {
        Put {
            dst_node,
            dst_stadd,
            dst_offset,
            src: PutSrc::Write { len, write },
            piggyback: 0,
            seq,
            cache_injection: false,
        }
    }

    #[test]
    fn written_put_serializes_into_the_landing_range() {
        let net = net();
        let (dst, _) = net.register_mem(1, 16);
        let (own, _) = net.register_mem(0, 16);
        let mut vcq = Vcq::create(net.clone(), 0, 0, 0).unwrap();
        let mut now = 0.0;
        let four = |b: &mut [u8]| b.copy_from_slice(&[7, 8, 9, 10]);
        let r = vcq
            .try_post(&mut now, &written(1, dst, 0, 4, &four, 0), 0)
            .unwrap();
        assert!((now - net.params().cpu_per_put_utofu).abs() < 1e-15);
        assert!(r.remote_arrival > now);
        net.read_local_with(1, dst, 0, 4, |b| assert_eq!(b, [7, 8, 9, 10]));
        // The reliable variant lands the same bytes at another offset, and
        // a same-node put lands in the sender's own registry.
        vcq.post_reliable(&mut now, &written(1, dst, 12, 4, &four, 1));
        net.read_local_with(1, dst, 12, 4, |b| assert_eq!(b, [7, 8, 9, 10]));
        vcq.post_reliable(&mut now, &written(0, own, 8, 4, &four, 2));
        net.read_local_with(0, own, 8, 4, |b| assert_eq!(b, [7, 8, 9, 10]));
        let a = net.take_arrivals(0, |a| a.seq == 2);
        assert_eq!((a[0].stadd, a[0].offset, a[0].len), (own, 8, 4));
        // Only the landing ranges were ever backed: 16 bytes on node 1 (its
        // furthest end), 12 on node 0; nothing was staged on the sender.
        assert_eq!(net.registered_bytes(), (32, 28));
    }

    #[test]
    fn written_put_faults_like_a_bytes_put() {
        use crate::fault::{FaultKind, FaultPlan, FaultRule};
        use std::cell::Cell;
        let net = net();
        let (dst, _) = net.register_mem(1, 16);
        let drop_first = FaultRule {
            step: Some(0),
            ..FaultRule::any(FaultKind::Drop { times: 1 })
        };
        let cut = FaultRule::any(FaultKind::Truncate { len: 3, times: 2 });
        net.set_fault_plan(FaultPlan::new().with_rule(drop_first).with_rule(cut));
        let calls = Cell::new(0);
        let eight = |b: &mut [u8]| {
            calls.set(calls.get() + 1);
            b.copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        };
        let mut vcq = Vcq::create(net.clone(), 0, 0, 0).unwrap();
        let put = written(1, dst, 0, 8, &eight, 1);
        let mut now = 0.0;
        // A drop writes nothing.
        let err = vcq.try_post(&mut now, &put, 0).unwrap_err();
        assert!(matches!(err, TofuError::PutDropped { seq: 1, .. }), "{err}");
        assert_eq!((calls.get(), net.registered_bytes().1), (0, 0));
        // A truncation writes the payload whole, off to the side, and lands
        // only the cut prefix.
        net.set_fault_context(1, 0);
        let err = vcq.try_post(&mut now, &put, 1).unwrap_err();
        assert!(
            matches!(
                err,
                TofuError::PutTruncated {
                    attempt: 1,
                    delivered: 3,
                    expected: 8,
                    ..
                }
            ),
            "{err}"
        );
        net.read_local_with(1, dst, 0, 8, |b| assert_eq!(b, [1, 2, 3, 0, 0, 0, 0, 0]));
        // The retry calls the writer again, straight into the landing range.
        vcq.try_post(&mut now, &put, 2).unwrap();
        net.read_local_with(1, dst, 0, 8, |b| assert_eq!(b, [1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(calls.get(), 2);
        let c = net.fault_counters();
        assert_eq!((c.drops, c.truncations), (1, 1));
    }

    #[test]
    #[should_panic(expected = "RDMA write beyond registered region: 6 + 4 > 8")]
    fn written_put_past_its_region_faults() {
        let net = net();
        let (dst, _) = net.register_mem(1, 8);
        let mut vcq = Vcq::create(net.clone(), 0, 0, 0).unwrap();
        let zeros = |b: &mut [u8]| b.fill(0);
        vcq.post_reliable(&mut 0.0, &written(1, dst, 6, 4, &zeros, 0));
    }

    #[test]
    fn vcqs_bind_distinct_cqs() {
        let net = net();
        let a = Vcq::create(net.clone(), 0, 0, 0).unwrap();
        let b = Vcq::create(net.clone(), 0, 0, 0).unwrap();
        assert_ne!(a.cq(), b.cq());
        assert_eq!(a.tni(), b.tni());
    }

    #[test]
    fn six_vcq_binding_like_fig7() {
        // Fine-grained mode: one rank creates 6 VCQs, one per TNI; four
        // ranks on a node can all do so (uses CQ slots 0..4 on each TNI).
        // The VCQs must be held concurrently: dropping one releases its CQ.
        let net = net();
        let mut held = Vec::new();
        for rank in 0..4u32 {
            for tni in 0..6 {
                let v = Vcq::create(net.clone(), 0, tni, rank).unwrap();
                assert_eq!(v.cq(), rank as usize);
                held.push(v);
            }
        }
    }

    #[test]
    fn dropping_a_vcq_releases_its_cq() {
        let net = net();
        {
            let _v = Vcq::create(net.clone(), 0, 0, 0).unwrap();
        }
        // The slot freed by the drop is handed out again.
        let v = Vcq::create(net.clone(), 0, 0, 1).unwrap();
        assert_eq!(v.cq(), 0);
    }

    #[test]
    fn dedupe_keeps_authoritative_arrival_and_counts_anomalies() {
        let mk = |offset: usize, seq: u64, len: usize, time: f64| Arrival {
            time,
            src_node: 0,
            src_rank: 4,
            stadd: Stadd(7),
            offset,
            len,
            piggyback: 0,
            seq,
        };
        // A truncated first delivery + full retransmission (same seq), an
        // exact duplicate pair, and a stale slot overwritten by a newer
        // sequence — interleaved out of order.
        let mut arrivals = vec![
            mk(64, 3, 96, 5.0), // newer write to the 64-offset slot
            mk(0, 1, 48, 1.0),  // truncated first delivery
            mk(32, 2, 96, 2.0), // duplicate (a)
            mk(0, 1, 96, 3.0),  // full retransmission
            mk(64, 1, 96, 1.5), // stale slot content
            mk(32, 2, 96, 2.0), // duplicate (b)
        ];
        let an = dedupe_arrivals(&mut arrivals);
        assert_eq!(
            an,
            DeliveryAnomalies {
                duplicates: 2,
                overwrites: 1,
            }
        );
        let kept: Vec<_> = arrivals.iter().map(|a| (a.offset, a.seq, a.len)).collect();
        assert_eq!(kept, vec![(0, 1, 96), (32, 2, 96), (64, 3, 96)]);
    }

    #[test]
    fn dedupe_is_identity_on_distinct_buffers() {
        let mk = |stadd: u32, seq: u64| Arrival {
            time: 1.0,
            src_node: 0,
            src_rank: 1,
            stadd: Stadd(stadd),
            offset: 0,
            len: 8,
            piggyback: 0,
            seq,
        };
        let mut arrivals = vec![mk(3, 1), mk(1, 2), mk(2, 3)];
        let an = dedupe_arrivals(&mut arrivals);
        assert_eq!(an, DeliveryAnomalies::default());
        // Canonical order is by buffer, independent of arrival order.
        let stadds: Vec<_> = arrivals.iter().map(|a| a.stadd.0).collect();
        assert_eq!(stadds, vec![1, 2, 3]);
    }

    #[test]
    fn try_wait_reports_shortfall_as_typed_deadlock() {
        let net = net();
        let err = try_wait_arrivals_into(&net, 0, 0.0, 2, |_| true, &mut Vec::new()).unwrap_err();
        assert_eq!(
            err,
            TofuError::Deadlock {
                node: 0,
                expected: 2,
                found: 0
            }
        );
    }

    #[test]
    fn shortfall_with_a_dead_rank_escalates_to_peer_dead() {
        use crate::fault::{FaultKind, FaultPlan, FaultRule};
        let net = net();
        net.set_fault_plan(
            FaultPlan::new().with_rule(FaultRule::any(FaultKind::KillRank { step: 4, rank: 2 })),
        );
        // Before the kill step a shortfall is still a protocol bug.
        net.set_fault_context(3, 1);
        let err = try_wait_arrivals_into(&net, 0, 0.0, 1, |_| true, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, TofuError::Deadlock { .. }), "{err}");
        // From the kill step on, the same shortfall names the dead peer.
        net.set_fault_context(4, 1);
        let err = try_wait_arrivals_into(&net, 0, 0.0, 1, |_| true, &mut Vec::new()).unwrap_err();
        assert_eq!(
            err,
            TofuError::PeerDead {
                node: 0,
                rank: 2,
                step: 4
            }
        );
        assert_eq!(net.fault_counters().kills, 1, "kill counted once");
        net.set_fault_context(5, 2);
        assert_eq!(net.fault_counters().kills, 1, "not re-counted per step");
        assert_eq!(net.dead_ranks(), vec![2]);
    }

    #[test]
    fn wait_arrivals_advances_clock() {
        let net = net();
        let (dst, _) = net.register_mem(1, 8);
        let mut vcq = Vcq::create(net.clone(), 0, 0, 7).unwrap();
        let mut now = 0.0;
        vcq.post_reliable(&mut now, &bytes_put(1, dst, &[9], 0));
        let mut arr = Vec::new();
        let t = try_wait_arrivals_into(&net, 1, 0.0, 1, |a| a.src_rank == 7, &mut arr).unwrap();
        assert_eq!(arr.len(), 1);
        assert!(t >= arr[0].time);
    }

    #[test]
    fn piggyback_round_trip() {
        let net = net();
        let (dst, _) = net.register_mem(1, 8);
        let mut vcq = Vcq::create(net.clone(), 0, 3, 2).unwrap();
        let mut now = 0.0;
        vcq.post_reliable(&mut now, &bytes_put(1, dst, &[], 0x1234_5678_9ABC_DEF0));
        let arr = net.take_arrivals(1, |a| a.src_rank == 2);
        assert_eq!(arr[0].piggyback, 0x1234_5678_9ABC_DEF0);
    }

    /// One put of the oracle: payload, destination node, landing offset,
    /// and what the fault plan does to it — 0 nothing, 1 drop, 2 truncate
    /// at `cut % (len + 1)`, 3 duplicate, 4 delay, 5 the drop → truncate →
    /// success retry chain on the put's one `seq`.
    type Case = (Vec<u8>, usize, usize, u8, usize);

    /// Everything a run of puts leaves behind: each attempt's result, both
    /// landing regions' bytes and backing, the MRQ arrivals and the fault
    /// totals.
    type Trace = (
        Vec<Result<PutResult, TofuError>>,
        Vec<Vec<u8>>,
        (usize, usize),
        Vec<Arrival>,
        crate::fault::FaultCounters,
    );

    /// Post `cases` in order on a fresh fabric whose two 256-byte landing
    /// regions hold `prefill`, each payload as [`PutSrc::Bytes`] or, when
    /// `in_place`, written straight into its landing range.
    fn replay(cases: &[Case], prefill: &[u8], in_place: bool) -> Trace {
        use crate::fault::{FaultKind, FaultPlan, FaultRule};
        let net = net();
        let regions = [0, 1].map(|node| net.register_mem(node, 256).0);
        let mut vcq = Vcq::create(net.clone(), 0, 0, 7).unwrap();
        let mut now = 0.0;
        for (node, &stadd) in regions.iter().enumerate() {
            vcq.post_reliable(&mut now, &bytes_put(node, stadd, prefill, 0));
        }
        let mut results = Vec::new();
        for (i, (data, node, offset, action, cut)) in cases.iter().enumerate() {
            let (step, len) = (2 * i as u64, data.len());
            let kind = match action {
                1 => FaultKind::Drop { times: 1 },
                2 | 5 => FaultKind::Truncate {
                    len: cut % (len + 1),
                    times: if *action == 5 { 2 } else { 1 },
                },
                3 => FaultKind::Duplicate,
                _ => FaultKind::Delay { dt: 1e-6 },
            };
            let drop_first = FaultRule {
                step: Some(step),
                ..FaultRule::any(FaultKind::Drop { times: 1 })
            };
            let plan = match action {
                0 => FaultPlan::default(),
                5 => FaultPlan::new()
                    .with_rule(drop_first)
                    .with_rule(FaultRule::any(kind)),
                _ => FaultPlan::new().with_rule(FaultRule::any(kind)),
            };
            net.set_fault_plan(plan);
            net.set_fault_context(step, 1);
            let write = |b: &mut [u8]| b.copy_from_slice(data);
            let src = match in_place {
                true => PutSrc::Write { len, write: &write },
                false => PutSrc::Bytes(data),
            };
            let put = Put {
                src,
                dst_offset: *offset,
                seq: 1 + i as u64,
                ..bytes_put(*node, regions[*node], &[], i as u64)
            };
            for attempt in 0..if *action == 5 { 3 } else { 1 } {
                if attempt == 1 {
                    net.set_fault_context(step + 1, 1);
                }
                results.push(vcq.try_post(&mut now, &put, attempt));
            }
        }
        let bytes = [0, 1].map(|n| net.read_local_with(n, regions[n], 0, 256, <[u8]>::to_vec));
        let arrivals = [0, 1].map(|n| net.take_arrivals(n, |_| true)).concat();
        let backed = net.registered_bytes();
        (
            results,
            bytes.to_vec(),
            backed,
            arrivals,
            net.fault_counters(),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// A put written in place leaves exactly what a bytes put of the
        /// same payload leaves, under every fault action and the retry
        /// chain: the landing bytes (and how many are backed), the MRQ
        /// arrivals, each attempt's result or error, the fault totals.
        #[test]
        fn written_put_leaves_what_a_bytes_put_leaves(
            puts in proptest::collection::vec(
                (
                    proptest::collection::vec(0u8..=255, 0..96),
                    0usize..2,
                    0usize..256,
                    0u8..6,
                    0usize..128,
                ),
                1..8,
            ),
            prefill in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            let cases: Vec<Case> = puts
                .into_iter()
                .map(|(data, node, at, action, cut)| {
                    let offset = at % (257 - data.len());
                    (data, node, offset, action, cut)
                })
                .collect();
            proptest::prop_assert_eq!(replay(&cases, &prefill, true), replay(&cases, &prefill, false));
        }
    }
}
