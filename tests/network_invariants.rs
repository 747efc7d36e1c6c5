//! Property tests over the simulated fabric: delivery, timing monotonicity
//! and conservation invariants that every engine implicitly relies on.

use proptest::prelude::*;
use std::sync::Arc;
use tofumd::tofu::{try_wait_arrivals_into, CellGrid, NetParams, PutRequest, TofuNet};

fn net() -> Arc<TofuNet> {
    Arc::new(TofuNet::new(CellGrid::new([2, 2, 2]), NetParams::default()))
}

proptest! {
    /// Every put delivers exactly one arrival carrying its piggyback, and
    /// the destination bytes equal the payload.
    #[test]
    fn puts_deliver_exactly_once(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128), 1..20),
    ) {
        let net = net();
        let total: usize = payloads.iter().map(Vec::len).sum();
        let (dst, _) = net.register_mem(1, total.max(1));
        let mut offset = 0;
        for (i, p) in payloads.iter().enumerate() {
            net.put(PutRequest {
                src_node: 0,
                tni: i % 6,
                dst_node: 1,
                dst_stadd: dst,
                dst_offset: offset,
                data: p,
                piggyback: i as u64,
                src_rank: 0,
                seq: 0,
                now: 0.0,
                cache_injection: false,
            });
            offset += p.len();
        }
        let mut arrivals = Vec::new();
        try_wait_arrivals_into(&net, 1, 0.0, payloads.len(), |_| true, &mut arrivals).unwrap();
        prop_assert_eq!(arrivals.len(), payloads.len());
        // Each piggyback appears exactly once.
        let mut tags: Vec<u64> = arrivals.iter().map(|a| a.piggyback).collect();
        tags.sort_unstable();
        prop_assert_eq!(tags, (0..payloads.len() as u64).collect::<Vec<_>>());
        // Bytes landed contiguously and intact.
        let mut offset = 0;
        for p in &payloads {
            if !p.is_empty() {
                prop_assert_eq!(&net.read_local_with(1, dst, offset, p.len(), <[u8]>::to_vec), p);
            }
            offset += p.len();
        }
        prop_assert_eq!(net.pending_arrivals(1), 0, "queue fully drained");
    }

    /// Arrival times are monotone in departure time, payload size and hop
    /// count (the timing model is physically sane).
    #[test]
    fn arrival_monotonicity(
        bytes_a in 0usize..4096,
        bytes_b in 0usize..4096,
        t0 in 0.0f64..1e-3,
        dt in 0.0f64..1e-3,
    ) {
        let net = net();
        let (small, big) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        let (dst, _) = net.register_mem(1, big.max(1));
        let data_small = vec![0u8; small];
        let data_big = vec![0u8; big];
        let send = |tni: usize, data: &[u8], now: f64, dst_node: usize| {
            net.put(PutRequest {
                src_node: 0,
                tni,
                dst_node,
                dst_stadd: dst,
                dst_offset: 0,
                data,
                piggyback: 0,
                src_rank: 0,
                seq: 0,
                now,
                cache_injection: false,
            })
            .remote_arrival
        };
        // Bigger payload, same everything else: no earlier arrival.
        let a1 = send(0, &data_small, t0, 1);
        let a2 = send(1, &data_big, t0, 1);
        prop_assert!(a2 >= a1 - 1e-15);
        // Later departure: no earlier arrival (fresh TNIs).
        let b1 = send(2, &data_small, t0, 1);
        let b2 = send(3, &data_small, t0 + dt, 1);
        prop_assert!(b2 >= b1 - 1e-15);
        // Farther destination: no earlier arrival. Node 1 shares the cell;
        // pick a node several mesh steps away.
        let (far_dst, _) = net.register_mem(20, big.max(1));
        let _ = far_dst;
        let c1 = send(4, &data_small, t0, 1);
        let c2 = net.put(PutRequest {
            src_node: 0,
            tni: 5,
            dst_node: 20,
            dst_stadd: far_dst,
            dst_offset: 0,
            data: &data_small,
            piggyback: 0,
            src_rank: 0,
            seq: 0,
            now: t0,
            cache_injection: false,
        }).remote_arrival;
        prop_assert!(net.hops(0, 20) >= net.hops(0, 1));
        prop_assert!(c2 >= c1 - 1e-15);
    }

    /// One TNI serializes its injections: total occupancy is at least the
    /// sum of the per-message occupancies.
    #[test]
    fn tni_serialization_conserves_occupancy(
        sizes in prop::collection::vec(1usize..65_536, 2..12),
    ) {
        let net = net();
        let total: usize = sizes.iter().sum();
        let (dst, _) = net.register_mem(1, total);
        let p = *net.params();
        let mut offset = 0;
        let mut last_complete: f64 = 0.0;
        for s in &sizes {
            let r = net.put(PutRequest {
                src_node: 0,
                tni: 0,
                dst_node: 1,
                dst_stadd: dst,
                dst_offset: offset,
                data: &vec![0u8; *s],
                piggyback: 0,
                src_rank: 0,
                seq: 0,
                now: 0.0,
                cache_injection: false,
            });
            last_complete = last_complete.max(r.local_complete);
            offset += s;
        }
        let min_occupancy: f64 = sizes.iter().map(|&s| p.tni_occupancy(s)).sum();
        prop_assert!(
            last_complete >= min_occupancy - 1e-12,
            "injection finished at {last_complete}, occupancy sum {min_occupancy}"
        );
    }
}
