//! Checkpoint/restart and shrinking rank-death recovery. Child module of
//! [`crate::cluster`].
//!
//! Three capabilities live here:
//!
//! * **Deterministic checkpoints** — [`Cluster::checkpoint_now`] seals the
//!   complete run state (per-rank atoms in on-rank order, decomposition,
//!   counters, clocks, thermo log) into the versioned container of
//!   [`crate::checkpoint`]. Dumps are only legal at a reneighbor boundary,
//!   where the neighbor lists are a pure function of the saved positions;
//!   that is what makes a restore *bit-identical* to the uninterrupted
//!   run (the lockstep bisector is the verifier).
//! * **Restore** — [`Cluster::restore_from_bytes`] is decode → assemble
//!   → settle (see `cluster_build.rs`): the restart's mesh is checked, the
//!   saved atoms are assembled on a fresh fabric over the *saved*
//!   decomposition's star forests, and one settle lands exactly where
//!   the original run stood. Nothing is generated and thrown away.
//! * **Shrinking recovery** — when a peer dies mid-step
//!   ([`TofuError::PeerDead`](tofumd_tofu::TofuError::PeerDead)), the
//!   survivors roll back to the last checkpoint and run re-cut → install
//!   → settle: the *whole* system cut over N−1 ranks with RCB, every
//!   lane on the irregular MPI p2p engine. The dead lane stays allocated
//!   but is skipped by every communication phase. Costs are tracked in
//!   [`RecoveryStats`] and surface in `Trace::report`.

use super::build::Deal;
use super::Cluster;
use crate::accounting;
use crate::checkpoint::{CheckpointData, CheckpointError, RankDump};
use crate::config::Decomp;
use crate::trace::RecoveryStats;
use crate::variant::CommVariant;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tofumd_md::atom::Atoms;
use tofumd_md::domain::RcbDecomposition;
use tofumd_tofu::CellGrid;

/// Fixed virtual-time cost of sealing one checkpoint, charged to every
/// live rank (the barrier + metadata write), before the per-byte term.
const CHECKPOINT_BASE_COST: f64 = 1.0e-3;

/// Virtual seconds per container byte — a ~1 GB/s parallel-filesystem
/// drain, amortized across ranks.
const CHECKPOINT_BYTE_COST: f64 = 1.0e-9;

impl Cluster {
    /// Enable auto-checkpointing every `every` steps (LAMMPS
    /// `restart N <file>` without the file). The dump lands at the first
    /// reneighbor step at or past each due step. 0 disables.
    pub fn set_checkpoint_every(&mut self, every: u64) {
        self.checkpoint_every = every;
        self.next_checkpoint = if every == 0 { 0 } else { self.step + every };
    }

    /// Also write every auto checkpoint to `path` (LAMMPS
    /// `restart N <file>`).
    pub fn set_checkpoint_path(&mut self, path: impl Into<PathBuf>) {
        self.checkpoint_path = Some(path.into());
    }

    /// The sealed container bytes of the most recent checkpoint, if any.
    #[must_use]
    pub fn last_checkpoint(&self) -> Option<&[u8]> {
        self.last_checkpoint.as_deref()
    }

    /// Checkpoint/recovery counters of this run so far.
    #[must_use]
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// The rank a shrinking recovery removed, if any.
    #[must_use]
    pub fn dead_rank(&self) -> Option<u32> {
        self.dead
    }

    /// The current step counter (rewinds to the checkpoint step during a
    /// shrinking recovery — pair with [`Cluster::run_to`]).
    #[must_use]
    pub fn current_step(&self) -> u64 {
        self.step
    }

    /// The RCB decomposition currently installed (from any live rank's
    /// graph — they all share one `Arc`), or `None` on a uniform grid.
    fn current_rcb(&self) -> Option<RcbDecomposition> {
        let live = self.survivors();
        live.first()
            .and_then(|&r| self.states[r].graph.rcb())
            .map(|arc| (**arc).clone())
    }

    /// Snapshot the complete run state into checkpoint data.
    fn dump(&self) -> CheckpointData {
        let ranks = self
            .states
            .iter()
            .map(|st| {
                let mut atoms = st.atoms.clone();
                atoms.clear_ghosts();
                RankDump {
                    atoms,
                    clock: st.clock,
                    stages: st.stages,
                }
            })
            .collect();
        CheckpointData {
            proxy_mesh: self.proxy_mesh,
            target_mesh: self.target_mesh,
            cfg: self.cfg,
            variant: self.variant,
            step: self.step,
            rebuild_count: self.rebuild_count,
            steps_run: self.steps_run,
            rebalance_count: self.rebalance_count,
            checkpoint_every: self.checkpoint_every,
            next_checkpoint: self.next_checkpoint,
            thermo_every: self.thermo_every,
            thermo_log: self.thermo_log.clone(),
            dead: self.dead,
            rcb: self.current_rcb(),
            ranks,
            recovery: self.recovery,
        }
    }

    /// Seal a checkpoint right now. Errors with
    /// [`CheckpointError::NotCheckpointable`] unless the cluster is at a
    /// reneighbor boundary (end of a rebuild step, or right after
    /// setup/restore/recovery) — mid-epoch dumps could not be restored
    /// bit-identically, so they are refused rather than silently wrong.
    ///
    /// Charges every live rank the modeled checkpoint cost (barrier +
    /// state drain) and returns the container size in bytes.
    pub fn checkpoint_now(&mut self) -> Result<usize, CheckpointError> {
        if !self.at_rebuild_boundary {
            return Err(CheckpointError::NotCheckpointable(format!(
                "step {} is mid-neighbor-epoch; checkpoints land at reneighbor steps",
                self.step
            )));
        }
        let bytes = self.dump().to_container();
        let size = bytes.len();
        if let Some(path) = &self.checkpoint_path {
            std::fs::write(path, &bytes)
                .map_err(|e| CheckpointError::Io(format!("write {}: {e}", path.display())))?;
        }
        // Synchronous cost model: every live rank stalls for the barrier
        // plus its share of the container drain.
        let cost = CHECKPOINT_BASE_COST + size as f64 * CHECKPOINT_BYTE_COST;
        let dead = self.dead;
        for (rank, st) in self.states.iter_mut().enumerate() {
            if Some(rank as u32) == dead {
                continue;
            }
            st.clock += cost;
            st.stages.other += cost;
        }
        self.recovery.checkpoints += 1;
        self.recovery.checkpoint_cost += cost;
        if self.checkpoint_every > 0 {
            self.next_checkpoint = self.step + self.checkpoint_every;
        }
        self.last_checkpoint = Some(bytes);
        Ok(size)
    }

    /// Auto-checkpoint hook called by `run_step` at due reneighbor steps.
    /// Failures here are I/O or logic errors the run cannot continue
    /// safely past (a later rank death would have no rollback target), so
    /// they surface as a panic with the typed context.
    pub(super) fn auto_checkpoint(&mut self) {
        if let Err(e) = self.checkpoint_now() {
            panic!("auto checkpoint at step {} failed: {e}", self.step);
        }
    }

    /// Run until the step counter reaches `target`. Unlike
    /// [`Cluster::run`], this is rollback-aware: a mid-run rank death
    /// rolls the counter back to the last checkpoint, and the loop
    /// replays the lost steps on the shrunken cluster.
    pub fn run_to(&mut self, target: u64) {
        while self.step < target {
            self.run_step();
        }
    }

    /// Rebuild a cluster from sealed container bytes: decode → assemble →
    /// settle. The restored run continues bit-identically to the run that
    /// took the checkpoint.
    pub fn restore_from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut data = CheckpointData::from_container(bytes)?;
        // Check the mesh before anything is assembled on it.
        let (mesh, n) = (data.proxy_mesh, data.ranks.len() as u128);
        let nodes: u128 = mesh.iter().map(|&d| u128::from(d)).product();
        let decode = |m: String| Err(CheckpointError::Decode(m));
        if 4 * nodes != n {
            return decode(format!(
                "checkpoint holds {n} ranks but mesh {mesh:?} builds {}",
                4 * nodes
            ));
        }
        let Some(grid) = CellGrid::from_node_mesh(mesh) else {
            return decode(format!("node mesh {mesh:?} does not fold onto TofuD cells"));
        };
        // The saved atoms (already in post-sort on-rank order — no
        // SpatialSort) on the *saved* decomposition.
        let atoms = data.ranks.iter_mut().map(|d| std::mem::take(&mut d.atoms));
        let deal = Deal {
            atoms: atoms.collect(),
            rcb: data.rcb.take().map(Arc::new),
            dead: data.dead,
        };
        let mut c = Cluster::assemble(grid, data.target_mesh, data.cfg, data.variant, None, deal);
        c.settle();
        // Clocks and stage times last: the settle charged virtual time that
        // the original run charged at its own rebuild step.
        for (st, dump) in c.states.iter_mut().zip(&data.ranks) {
            st.clock = dump.clock;
            st.stages = dump.stages;
        }
        c.net.reset_clocks();
        c.built_reg_calls = c.registration_calls();
        c.step = data.step;
        c.rebuild_count = data.rebuild_count;
        c.steps_run = data.steps_run;
        c.rebalance_count = data.rebalance_count;
        c.checkpoint_every = data.checkpoint_every;
        c.next_checkpoint = data.next_checkpoint;
        c.thermo_every = data.thermo_every;
        c.thermo_log = data.thermo_log;
        c.recovery = data.recovery;
        c.last_checkpoint = Some(bytes.to_vec());
        Ok(c)
    }

    /// Read a checkpoint file (LAMMPS `read_restart`) and rebuild the
    /// cluster from it.
    pub fn restore_from_file(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)
            .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
        Self::restore_from_bytes(&bytes)
    }

    /// Shrinking recovery from the death of physical rank `dead`: roll
    /// every survivor back to the last checkpoint, re-decompose the whole
    /// system over the N−1 survivors with RCB, swap every lane onto the
    /// irregular MPI p2p engine, and rebuild ghosts/lists/forces. The
    /// step counter rewinds to the checkpoint step; `run_to` replays the
    /// lost steps. Virtual time does *not* rewind — the gap between the
    /// death and the rebuilt state is the recovery's MTTR contribution.
    pub(super) fn recover_from_rank_death(&mut self, dead: u32) {
        if let Some(prev) = self.dead {
            panic!(
                "rank {dead} died at step {} but rank {prev} was already lost; \
                 surviving more than one rank death is unsupported",
                self.step
            );
        }
        let bytes = match self.last_checkpoint.clone() {
            Some(b) => b,
            None => panic!(
                "rank {dead} died at step {} with no checkpoint to roll back to \
                 (enable checkpoints with `restart N <file>` / set_checkpoint_every)",
                self.step
            ),
        };
        let data = match CheckpointData::from_container(&bytes) {
            Ok(d) => d,
            Err(e) => panic!(
                "rank {dead} died at step {} and the last checkpoint is unreadable: {e}",
                self.step
            ),
        };
        let step_at_death = self.step;
        let t_death = accounting::latest_clock(self.states.iter());
        // Drain everything in flight: puts from (or addressed to) the
        // dead rank must not leak into the replay.
        for node in 0..self.net.node_count() {
            let _ = self.net.take_arrivals(node, |_| true);
        }
        self.mpi.reset_mailboxes();

        // Re-cut the checkpointed system over the survivors. The
        // checkpoint is global state, so the dead rank's atoms are not
        // lost — they redistribute onto the new cuts like everyone
        // else's.
        self.dead = Some(dead);
        let (wrapped, rcb) = self.recut(data.ranks.iter().map(|d| &d.atoms), "recovery");
        // Deterministic redistribution: checkpoint (rank, slot) order.
        let mut per_part: Vec<Atoms> = (0..rcb.nranks()).map(|_| Atoms::default()).collect();
        for (d, ws) in data.ranks.iter().zip(&wrapped) {
            for (i, w) in ws.iter().enumerate() {
                let a = &d.atoms;
                per_part[rcb.owner_of(w)].push_local(a.x[i], a.v[i], a.typ[i], a.tag[i]);
            }
        }
        for st in &mut self.states {
            st.atoms = Atoms::default();
            st.scalar.clear();
        }
        for (rank, atoms) in self.survivors().into_iter().zip(per_part) {
            self.states[rank].atoms = atoms;
        }

        // Every lane moves to the MPI p2p engine — the one row of the
        // variant table that walks an irregular graph of N−1 parts. The
        // dead lane gets one too (over its stale graph) but is skipped by
        // every phase from here on. Clocks, stage times and counters stay
        // on the states, so the swap loses none of their history.
        self.cfg.comm.decomp = Decomp::Rcb;
        self.variant = CommVariant::MpiP2p;
        self.install(self.graphs(Some(&rcb)), true);
        // Rewind the run counters (not the clocks — elapsed virtual time
        // is real) and settle on the shrunken forest.
        self.step = data.step;
        self.steps_run = data.steps_run;
        self.rebalance_count = data.rebalance_count;
        self.thermo_log = data.thermo_log;
        self.rebuild = false;
        self.rebalance_now = false;
        self.force_rebuild = false;
        self.pending_peer_death = None;
        self.settle();
        self.rebuild_count = data.rebuild_count;
        let t_after = accounting::latest_clock(
            self.states
                .iter()
                .enumerate()
                .filter(|&(r, _)| r != dead as usize)
                .map(|(_, s)| s),
        );
        self.recovery.recoveries += 1;
        self.recovery.steps_lost += step_at_death - data.step;
        self.recovery.recovery_time += (t_after - t_death).max(0.0);
        // Reseal immediately: the pre-death checkpoint describes a world
        // with N ranks and must never be the rollback target again.
        if let Err(e) = self.checkpoint_now() {
            panic!("post-recovery checkpoint at step {} failed: {e}", self.step);
        }
    }
}
