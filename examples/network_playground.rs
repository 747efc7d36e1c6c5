//! Raw uTofu-level API tour: registered memory, VCQs, one-sided puts with
//! piggyback data, MRQ polling, CQ exhaustion and the virtual-time model.
//!
//!     cargo run --release --example network_playground

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use tofumd::tofu::{
    try_wait_arrivals_into, CellGrid, NetParams, Put, PutSrc, TofuNet, Vcq, CQS_PER_TNI,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A single TofuD cell: 12 nodes in the 2x3x2 block.
    let net = Arc::new(TofuNet::new(CellGrid::new([1, 1, 1]), NetParams::default()));
    println!(
        "machine: {} nodes, folded mesh {:?}\n",
        net.node_count(),
        net.grid().node_mesh()
    );

    // Register a receive region on node 5 and publish its STADD.
    let (stadd, reg_cost) = net.register_mem(5, 4096);
    println!(
        "registered 4 KiB on node 5: {stadd:?} (modeled cost {:.2} us)",
        reg_cost * 1e6
    );

    // Create a VCQ on node 0, TNI 2, and put a payload with a piggyback.
    let mut vcq = Vcq::create(net.clone(), 0, 2, 0)?;
    let mut clock = 0.0;
    let payload: Vec<u8> = (0..64).collect();
    let small = Put {
        dst_node: 5,
        dst_stadd: stadd,
        dst_offset: 128,
        src: PutSrc::Bytes(&payload),
        piggyback: 0xC0FFEE,
        seq: 0,
        cache_injection: true,
    };
    let r = vcq.post_reliable(&mut clock, &small);
    println!(
        "put 64 B node0 -> node5 ({} hops): local complete {:.3} us, remote arrival {:.3} us",
        net.hops(0, 5),
        r.local_complete * 1e6,
        r.remote_arrival * 1e6
    );

    // The receiver polls its MRQ, advancing its own virtual clock.
    let mut arrivals = Vec::new();
    let now = try_wait_arrivals_into(&net, 5, 0.0, 1, |a| a.piggyback == 0xC0FFEE, &mut arrivals)?;
    let a = &arrivals[0];
    println!(
        "node 5 sees {} B at offset {} (piggyback {:#x}) at t = {:.3} us",
        a.len,
        a.offset,
        a.piggyback,
        now * 1e6
    );
    net.read_local_with(5, stadd, 128, 64, |bytes| assert_eq!(bytes, payload));
    println!("payload bytes verified in the registered region\n");

    // TNI injection serializes; different TNIs run in parallel.
    let (big_dst, _) = net.register_mem(1, 2 << 20);
    let big = vec![0u8; 1 << 20];
    let mut t = 0.0;
    let first_half = Put {
        dst_node: 1,
        dst_stadd: big_dst,
        dst_offset: 0,
        src: PutSrc::Bytes(&big),
        piggyback: 0,
        cache_injection: false,
        ..small
    };
    let first = vcq.post_reliable(&mut t, &first_half);
    let second = vcq.post_reliable(
        &mut t,
        &Put {
            dst_offset: 1 << 20,
            ..first_half
        },
    );
    println!(
        "two 1 MiB puts on one TNI serialize: arrivals {:.1} us then {:.1} us",
        first.remote_arrival * 1e6,
        second.remote_arrival * 1e6
    );

    // Each TNI exposes 9 CQs; the 10th VCQ fails (Fig. 7's constraint). A
    // VCQ frees its CQ when dropped, so the ones created are held.
    let mut held = vec![vcq];
    while let Ok(v) = Vcq::create(net.clone(), 0, 2, 9) {
        held.push(v);
    }
    let made = held.len();
    println!("TNI 2 CQ capacity: created {made} VCQs, limit {CQS_PER_TNI} — next create fails");
    Ok(())
}
