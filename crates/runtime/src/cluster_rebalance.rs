//! Mid-run dynamic domain rebalancing (LAMMPS `fix balance N <thresh>
//! rcb`). Child module of [`crate::cluster`].
//!
//! When the reneighbor check arms it (interval step, global atom imbalance
//! above the balance threshold), the Rebalance phase is re-cut → install
//! → migrate (see `cluster_build.rs`): an RCB cut from the *current*
//! wrapped positions, every rank's star forest swapped for one over the
//! new cuts, and atoms moved to their new owners in a single
//! owner-directed exchange over the new graph. Because an atom's new
//! owner can be any rank — not just a halo neighbor of the new graph —
//! the migration runs over a transient, symmetric migrate-peer set
//! computed from the actual destination matrix
//! ([`rebalance_migrate_peers`]); the halo-derived peer list is restored
//! afterwards for steady-state exchanges.
//!
//! Determinism: the phase is a barrier point (every rank swaps before any
//! rank exchanges), its inputs are rank-ordered position sweeps, and the
//! trigger is a pure function of (step, config, globally reduced
//! imbalance) — so runs are bit-identical at any `--threads`.

use super::Cluster;
use tofumd_core::engine::Op;
use tofumd_core::sf::rebalance_migrate_peers;

impl Cluster {
    /// Mid-run rebalances performed since construction.
    #[must_use]
    pub fn rebalance_count(&self) -> u64 {
        self.rebalance_count
    }

    /// The Rebalance phase body, listed only on a step whose reneighbor
    /// check armed it.
    ///
    /// # Panics
    ///
    /// Panics if any atom position has gone non-finite — a diverged
    /// integration cannot be decomposed, and silently keeping the old
    /// cuts would hide the corruption.
    pub(super) fn run_rebalance(&mut self) {
        let (wrapped, rcb) = self.recut(self.states.iter().map(|st| &st.atoms), "rebalance");
        let graphs = self.graphs(Some(&rcb));

        // Destination matrix under the new decomposition → the transient
        // migrate-peer set covering every actual move. Part p of the cut
        // sits on the p-th survivor, so owners go from part to rank space.
        let live = self.survivors();
        let needs: Vec<Vec<usize>> = wrapped
            .iter()
            .enumerate()
            .map(|(r, ws)| {
                let mut d: Vec<usize> = ws
                    .iter()
                    .map(|w| live[rcb.owner_of(w)])
                    .filter(|&owner| owner != r)
                    .collect();
                d.sort_unstable();
                d.dedup();
                d
            })
            .collect();
        let peers = rebalance_migrate_peers(&needs, &self.map);
        let migrating = graphs
            .iter()
            .zip(peers)
            .map(|(g, p)| g.clone().with_migrate_peers(p));
        self.install(migrating.collect(), false);

        // One owner-directed migration over the *new* graph. Runs through
        // the ordinary op path, so it is fault-injectable under
        // (step, Op::Exchange) and charged to Comm like any exchange.
        self.run_op(Op::Exchange);

        // Restore the halo-derived migrate peers for steady-state
        // exchanges; send/recv edges are identical, so the engines'
        // freshly rebuilt caches stand.
        for (st, graph) in self.states.iter_mut().zip(graphs) {
            st.graph = graph;
        }
        self.rebalance_count += 1;
    }
}
