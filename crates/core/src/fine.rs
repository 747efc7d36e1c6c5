//! Load balancing of neighbor messages across communication threads (§3.3).
//!
//! Each rank has 6 communication threads (one VCQ per TNI) but 13 neighbor
//! messages of very different weights: face neighbors carry the largest
//! payloads over 1 hop, corner neighbors tiny payloads over 3 hops. The
//! paper "distributes the load appropriately for each thread ... based on
//! the size of the messages and the number of hops involved" (Fig. 10).
//! This module implements that assignment (longest-processing-time greedy)
//! plus a naive round-robin comparator for the ablation bench.

use tofumd_tofu::NetParams;

/// Modeled cost of handling one neighbor message on a comm thread:
/// packing + posting + the latency the thread later absorbs waiting for
/// the farthest of its messages.
#[must_use]
pub fn link_cost(bytes: usize, hops: u32, p: &NetParams) -> f64 {
    p.pack_cost(bytes) + p.cpu_per_put_utofu + p.wire_time(bytes, hops)
}

/// Assign links `0..n`, link `k` costing `cost(k)`, to one thread per
/// entry of `loads`, minimizing the maximum per-thread total (LPT greedy:
/// heaviest link first onto the lightest thread). `lanes` receives the
/// per-thread link lists and `loads` their totals, both reused, so once
/// the lists have grown re-balancing allocates nothing. A single thread
/// has nothing to balance and posts in link order.
pub fn balance_lpt(
    n: usize,
    cost: impl Fn(usize) -> f64,
    loads: &mut [f64],
    lanes: &mut Vec<Vec<usize>>,
) {
    loads.fill(0.0);
    lanes.resize_with(loads.len(), Vec::new);
    lanes.iter_mut().for_each(Vec::clear);
    let (first, rest) = lanes.split_at_mut(1);
    let queue = &mut first[0];
    queue.extend(0..n);
    if rest.is_empty() {
        return;
    }
    // Heaviest first, ties in link order (a stable sort's order, without
    // its scratch buffer), queued on lane 0 and dealt out from there.
    queue.sort_unstable_by(|&a, &b| cost(b).total_cmp(&cost(a)).then(a.cmp(&b)));
    let mut kept = 0;
    for j in 0..n {
        let idx = queue[j];
        // The lightest thread, the first of equals.
        let lightest = (0..loads.len()).min_by(|&a, &b| loads[a].total_cmp(&loads[b]));
        let t = lightest.unwrap_or(0);
        loads[t] += cost(idx);
        if t == 0 {
            queue[kept] = idx;
            kept += 1;
        } else {
            rest[t - 1].push(idx);
        }
    }
    queue.truncate(kept);
}

/// Round-robin assignment (the ablation baseline).
#[must_use]
pub fn balance_round_robin(n_links: usize, nthreads: usize) -> Vec<Vec<usize>> {
    assert!(nthreads >= 1);
    let mut out = vec![Vec::new(); nthreads];
    for i in 0..n_links {
        out[i % nthreads].push(i);
    }
    out
}

/// Maximum per-thread total cost of an assignment (the stage's critical
/// path through the comm threads).
#[must_use]
pub fn makespan(assignment: &[Vec<usize>], costs: &[f64]) -> f64 {
    assignment
        .iter()
        .map(|links| links.iter().map(|&i| costs[i]).sum::<f64>())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balance_lpt(costs: &[f64], nthreads: usize) -> Vec<Vec<usize>> {
        let mut lanes = Vec::new();
        super::balance_lpt(
            costs.len(),
            |k| costs[k],
            &mut vec![0.0; nthreads],
            &mut lanes,
        );
        lanes
    }

    #[test]
    fn covers_every_link_once() {
        let costs = vec![5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 2.5];
        let a = balance_lpt(&costs, 3);
        let mut seen: Vec<usize> = a.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn lpt_beats_or_ties_round_robin() {
        // Table-1-like weights: 3 heavy faces, 6 medium edges, 4 light
        // corners (sizes a^2 r : a r^2 : r^3 with a = 10, r = 2.5).
        let mut costs = Vec::new();
        costs.extend([250.0, 250.0, 250.0]);
        costs.extend([62.5; 6]);
        costs.extend([15.6; 4]);
        let lpt = makespan(&balance_lpt(&costs, 6), &costs);
        let rr = makespan(&balance_round_robin(costs.len(), 6), &costs);
        assert!(lpt <= rr, "LPT {lpt} must not exceed round-robin {rr}");
        // For this weight profile LPT is strictly better.
        assert!(lpt < rr, "LPT should strictly win here: {lpt} vs {rr}");
    }

    #[test]
    fn makespan_lower_bound() {
        let costs = vec![4.0, 3.0, 3.0, 2.0];
        let a = balance_lpt(&costs, 2);
        let ms = makespan(&a, &costs);
        // Optimal here is 6.0 = (4+2 | 3+3); LPT achieves it.
        assert_eq!(ms, 6.0);
    }

    #[test]
    fn more_threads_than_links() {
        let costs = vec![1.0, 2.0];
        let a = balance_lpt(&costs, 6);
        assert_eq!(a.iter().filter(|l| !l.is_empty()).count(), 2);
        assert_eq!(makespan(&a, &costs), 2.0);
    }

    #[test]
    fn link_cost_increases_with_bytes_and_hops() {
        let p = NetParams::default();
        assert!(link_cost(1000, 1, &p) > link_cost(100, 1, &p));
        assert!(link_cost(100, 3, &p) > link_cost(100, 1, &p));
    }

    #[test]
    fn single_thread_gets_everything() {
        let costs = vec![1.0; 13];
        let a = balance_lpt(&costs, 1);
        assert_eq!(a[0].len(), 13);
    }
}
