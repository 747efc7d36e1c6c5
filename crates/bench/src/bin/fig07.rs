//! Fig. 7 — TNI / CQ / VCQ binding schemes.
//!
//! Demonstrates the two binding modes on a simulated node: coarse-grained
//! (each of the 4 ranks binds one VCQ on its own TNI) and fine-grained
//! (each rank creates 6 VCQs, one per TNI, claiming CQ slot r on each),
//! and shows the 9-CQ-per-TNI exhaustion rule.
//!
//! Usage: `fig07`.

// The bins share the library crate's no-unwrap contract.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

fn main() {
    print!("{}", tofumd_bench::fig07_report());
}
