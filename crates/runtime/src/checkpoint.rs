//! Deterministic checkpoint/restart of a [`Cluster`](crate::Cluster).
//!
//! A checkpoint captures everything a restore needs to continue
//! *bit-identically*: per-rank atoms (tags, positions, velocities) in
//! their on-rank order, the decomposition (uniform grid is derivable from
//! the config; RCB carries its cut tree), step counters, the virtual
//! clocks and stage accumulators, the thermo log, and the recovery
//! bookkeeping. Checkpoints are only taken at the end of *reneighbor*
//! steps: at that boundary the neighbor lists are a pure function of the
//! saved positions, so a restore replays Border + list build + forces
//! from the dump and lands on the exact state of the uninterrupted run.
//!
//! The wire format is the [`tofumd_md::wirefmt`] codec: every type here
//! carries an explicit `encode`/`decode` pair, so the bytes on disk are
//! spelled out in this file (fixed-width little-endian scalars, `u64`
//! length prefixes, `u8` option markers, `u32` enum tags) and wrapped in
//! a versioned container:
//!
//! ```text
//! magic "TMDCKPT\0" | version u32 | payload_len u64 | payload | fnv1a64
//! ```
//!
//! The checksum covers version, length and payload, so *every* single-byte
//! corruption is detected: a flip inside the magic surfaces as
//! [`CheckpointError::BadMagic`], anything else as
//! [`CheckpointError::ChecksumMismatch`] (or [`CheckpointError::Truncated`]
//! when the flip shortens the container) — never a panic, never a
//! silently-wrong restore. Truncation is caught by the explicit length.

use crate::config::{CommTuning, Decomp, PotentialKind, RunConfig};
use crate::trace::RecoveryStats;
use crate::variant::CommVariant;
use std::fmt;
use tofumd_core::engine::StageTimes;
use tofumd_core::wire::TAG_LIMIT;
use tofumd_md::atom::Atoms;
use tofumd_md::domain::RcbDecomposition;
use tofumd_md::kernels::KernelMode;
use tofumd_md::thermo::ThermoSnapshot;
use tofumd_md::wirefmt::{self, WireError, WireReader};

/// File magic: identifies a tofumd checkpoint container.
pub const MAGIC: [u8; 8] = *b"TMDCKPT\0";

/// Current container format version. Version 1 also carried a kernel
/// tag in the run configuration.
pub const VERSION: u32 = 2;

/// Container overhead: magic + version + payload length + checksum.
const HEADER_LEN: usize = 8 + 4 + 8;
const FOOTER_LEN: usize = 8;

/// Typed failure of a checkpoint write, read, or validation.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The container version is not the one this build reads.
    UnsupportedVersion(u32),
    /// The file ends before the declared payload and checksum.
    Truncated {
        /// Bytes the container declares.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The stored checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum recorded in the container.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// The payload failed to decode back into checkpoint data.
    Decode(String),
    /// The cluster is not at a checkpointable boundary (checkpoints are
    /// only consistent at the end of a reneighbor step).
    NotCheckpointable(String),
    /// Reading or writing the checkpoint file failed.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a tofumd checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {VERSION})"
                )
            }
            CheckpointError::Truncated { expected, found } => {
                write!(
                    f,
                    "truncated checkpoint: need {expected} bytes, found {found}"
                )
            }
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CheckpointError::Decode(m) => write!(f, "checkpoint decode failed: {m}"),
            CheckpointError::NotCheckpointable(m) => write!(f, "cannot checkpoint here: {m}"),
            CheckpointError::Io(m) => write!(f, "checkpoint I/O failed: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError::Decode(e.to_string())
    }
}

/// One rank's dumped state.
#[derive(Debug, Clone)]
pub struct RankDump {
    /// The rank's local atoms (ghosts trimmed), in on-rank order.
    pub atoms: Atoms,
    /// Virtual clock at the checkpoint.
    pub clock: f64,
    /// The clock's time by stage at the checkpoint.
    pub stages: StageTimes,
}

/// Everything a restore needs, decoded from a container payload.
#[derive(Debug, Clone)]
pub struct CheckpointData {
    /// Proxy torus mesh the cluster was built on.
    pub proxy_mesh: [u32; 3],
    /// Target mesh whose collective costs are modeled.
    pub target_mesh: [u32; 3],
    /// The run configuration in force.
    pub cfg: RunConfig,
    /// The communication variant in force at the checkpoint.
    pub variant: CommVariant,
    /// Completed timesteps.
    pub step: u64,
    /// Neighbor rebuilds performed (including setup).
    pub rebuild_count: u64,
    /// Steps run since the last timer reset.
    pub steps_run: u64,
    /// Mid-run rebalances performed.
    pub rebalance_count: u64,
    /// Auto-checkpoint cadence (0 = manual only).
    pub checkpoint_every: u64,
    /// First step at or after which the next auto checkpoint is due.
    pub next_checkpoint: u64,
    /// `thermo N` interval in force.
    pub thermo_every: u64,
    /// Thermo snapshots collected so far.
    pub thermo_log: Vec<ThermoSnapshot>,
    /// The rank a shrinking recovery removed, if any.
    pub dead: Option<u32>,
    /// RCB decomposition (None for uniform-grid runs). After a shrinking
    /// recovery this tree has one part per *survivor*.
    pub rcb: Option<RcbDecomposition>,
    /// Per-rank dumps, indexed by physical rank (a dead rank dumps an
    /// empty atom set).
    pub ranks: Vec<RankDump>,
    /// Recovery bookkeeping carried across restore, so a restored run's
    /// report still shows what the fault history cost.
    pub recovery: RecoveryStats,
}

// ---------------------------------------------------------------------------
// Per-type encode/decode pairs over the md wire format.
// ---------------------------------------------------------------------------

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => wirefmt::put_u8(out, 0),
        Some(x) => {
            wirefmt::put_u8(out, 1);
            wirefmt::put_f64(out, x);
        }
    }
}

fn get_opt_f64(r: &mut WireReader<'_>) -> Result<Option<f64>, WireError> {
    Ok(if r.bool_()? { Some(r.f64_()?) } else { None })
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => wirefmt::put_u8(out, 0),
        Some(x) => {
            wirefmt::put_u8(out, 1);
            wirefmt::put_u64(out, x);
        }
    }
}

fn get_opt_u64(r: &mut WireReader<'_>) -> Result<Option<u64>, WireError> {
    Ok(if r.bool_()? { Some(r.u64_()?) } else { None })
}

fn put_mesh(out: &mut Vec<u8>, m: &[u32; 3]) {
    for c in m {
        wirefmt::put_u32(out, *c);
    }
}

fn get_mesh(r: &mut WireReader<'_>) -> Result<[u32; 3], WireError> {
    Ok([r.u32_()?, r.u32_()?, r.u32_()?])
}

fn put_kind(out: &mut Vec<u8>, k: &PotentialKind) {
    match k {
        PotentialKind::Lj => wirefmt::put_u32(out, 0),
        PotentialKind::Eam => wirefmt::put_u32(out, 1),
        PotentialKind::LjFull => wirefmt::put_u32(out, 2),
        PotentialKind::LjLongCutoff { cutoff, full } => {
            wirefmt::put_u32(out, 3);
            wirefmt::put_f64(out, *cutoff);
            wirefmt::put_bool(out, *full);
        }
        PotentialKind::Sw => wirefmt::put_u32(out, 4),
        PotentialKind::LjBinary => wirefmt::put_u32(out, 5),
    }
}

fn get_kind(r: &mut WireReader<'_>) -> Result<PotentialKind, CheckpointError> {
    Ok(match r.u32_()? {
        0 => PotentialKind::Lj,
        1 => PotentialKind::Eam,
        2 => PotentialKind::LjFull,
        3 => PotentialKind::LjLongCutoff {
            cutoff: r.f64_()?,
            full: r.bool_()?,
        },
        4 => PotentialKind::Sw,
        5 => PotentialKind::LjBinary,
        t => {
            return Err(CheckpointError::Decode(format!(
                "unknown potential tag {t}"
            )))
        }
    })
}

fn put_comm(out: &mut Vec<u8>, c: &CommTuning) {
    wirefmt::put_u8(
        out,
        match c.decomp {
            Decomp::Grid => 0,
            Decomp::Rcb => 1,
        },
    );
    match c.shells {
        None => wirefmt::put_u8(out, 0),
        Some(s) => {
            wirefmt::put_u8(out, 1);
            wirefmt::put_usize(out, s);
        }
    }
    put_opt_f64(out, c.ghost_cutoff);
    wirefmt::put_f64(out, c.density_gradient);
    put_opt_f64(out, c.balance_thresh);
    put_opt_u64(out, c.rebalance_every);
}

fn get_comm(r: &mut WireReader<'_>) -> Result<CommTuning, CheckpointError> {
    let decomp = match r.u8_()? {
        0 => Decomp::Grid,
        1 => Decomp::Rcb,
        t => return Err(CheckpointError::Decode(format!("unknown decomp tag {t}"))),
    };
    let shells = if r.bool_()? {
        Some(r.usize_(false)?)
    } else {
        None
    };
    Ok(CommTuning {
        decomp,
        shells,
        ghost_cutoff: get_opt_f64(r)?,
        density_gradient: r.f64_()?,
        balance_thresh: get_opt_f64(r)?,
        rebalance_every: get_opt_u64(r)?,
    })
}

fn put_cfg(out: &mut Vec<u8>, cfg: &RunConfig) {
    put_kind(out, &cfg.kind);
    wirefmt::put_usize(out, cfg.natoms_target);
    wirefmt::put_f64(out, cfg.temperature);
    wirefmt::put_u64(out, cfg.seed);
    put_comm(out, &cfg.comm);
}

fn get_cfg(r: &mut WireReader<'_>) -> Result<RunConfig, CheckpointError> {
    Ok(RunConfig {
        kind: get_kind(r)?,
        natoms_target: r.usize_(false)?,
        temperature: r.f64_()?,
        seed: r.u64_()?,
        comm: get_comm(r)?,
        kernel: KernelMode,
    })
}

fn put_thermo(out: &mut Vec<u8>, t: &ThermoSnapshot) {
    wirefmt::put_u64(out, t.step);
    wirefmt::put_f64(out, t.pe);
    wirefmt::put_f64(out, t.ke);
    wirefmt::put_f64(out, t.temperature);
    wirefmt::put_f64(out, t.pressure);
}

fn get_thermo(r: &mut WireReader<'_>) -> Result<ThermoSnapshot, WireError> {
    Ok(ThermoSnapshot {
        step: r.u64_()?,
        pe: r.f64_()?,
        ke: r.f64_()?,
        temperature: r.f64_()?,
        pressure: r.f64_()?,
    })
}

fn put_recovery(out: &mut Vec<u8>, s: &RecoveryStats) {
    wirefmt::put_u64(out, s.checkpoints);
    wirefmt::put_f64(out, s.checkpoint_cost);
    wirefmt::put_u64(out, s.recoveries);
    wirefmt::put_u64(out, s.steps_lost);
    wirefmt::put_f64(out, s.recovery_time);
}

fn get_recovery(r: &mut WireReader<'_>) -> Result<RecoveryStats, WireError> {
    Ok(RecoveryStats {
        checkpoints: r.u64_()?,
        checkpoint_cost: r.f64_()?,
        recoveries: r.u64_()?,
        steps_lost: r.u64_()?,
        recovery_time: r.f64_()?,
    })
}

/// A rank's atoms, its clock, then its seven stage buckets in
/// [`StageTimes::buckets_mut`]'s order.
fn put_rank(out: &mut Vec<u8>, d: &RankDump) {
    d.atoms.wire_encode(out);
    wirefmt::put_f64(out, d.clock);
    for v in d.stages.buckets() {
        wirefmt::put_f64(out, v);
    }
}

fn get_rank(r: &mut WireReader<'_>) -> Result<RankDump, WireError> {
    let (atoms, clock) = (Atoms::wire_decode(r)?, r.f64_()?);
    let mut stages = StageTimes::default();
    for v in stages.buckets_mut() {
        *v = r.f64_()?;
    }
    Ok(RankDump {
        atoms,
        clock,
        stages,
    })
}

impl CheckpointData {
    /// Serialize the payload (no container framing).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_mesh(&mut out, &self.proxy_mesh);
        put_mesh(&mut out, &self.target_mesh);
        put_cfg(&mut out, &self.cfg);
        wirefmt::put_str(&mut out, self.variant.label());
        wirefmt::put_u64(&mut out, self.step);
        wirefmt::put_u64(&mut out, self.rebuild_count);
        wirefmt::put_u64(&mut out, self.steps_run);
        wirefmt::put_u64(&mut out, self.rebalance_count);
        wirefmt::put_u64(&mut out, self.checkpoint_every);
        wirefmt::put_u64(&mut out, self.next_checkpoint);
        wirefmt::put_u64(&mut out, self.thermo_every);
        wirefmt::put_usize(&mut out, self.thermo_log.len());
        for t in &self.thermo_log {
            put_thermo(&mut out, t);
        }
        match self.dead {
            None => wirefmt::put_u8(&mut out, 0),
            Some(rk) => {
                wirefmt::put_u8(&mut out, 1);
                wirefmt::put_u32(&mut out, rk);
            }
        }
        match &self.rcb {
            None => wirefmt::put_u8(&mut out, 0),
            Some(rcb) => {
                wirefmt::put_u8(&mut out, 1);
                rcb.wire_encode(&mut out);
            }
        }
        wirefmt::put_usize(&mut out, self.ranks.len());
        for d in &self.ranks {
            put_rank(&mut out, d);
        }
        put_recovery(&mut out, &self.recovery);
        out
    }

    /// Deserialize a payload written by [`CheckpointData::encode`],
    /// requiring every byte to be consumed.
    pub fn decode(payload: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = WireReader::new(payload);
        let proxy_mesh = get_mesh(&mut r)?;
        let target_mesh = get_mesh(&mut r)?;
        let cfg = get_cfg(&mut r)?;
        let label = r.str_()?.to_owned();
        let variant = CommVariant::from_label(&label)
            .ok_or_else(|| CheckpointError::Decode(format!("unknown comm variant {label:?}")))?;
        let step = r.u64_()?;
        let rebuild_count = r.u64_()?;
        let steps_run = r.u64_()?;
        let rebalance_count = r.u64_()?;
        let checkpoint_every = r.u64_()?;
        let next_checkpoint = r.u64_()?;
        let thermo_every = r.u64_()?;
        let nthermo = r.usize_(true)?;
        let mut thermo_log = Vec::with_capacity(nthermo);
        for _ in 0..nthermo {
            thermo_log.push(get_thermo(&mut r)?);
        }
        let dead = if r.bool_()? { Some(r.u32_()?) } else { None };
        let rcb = if r.bool_()? {
            Some(RcbDecomposition::wire_decode(&mut r)?)
        } else {
            None
        };
        let nranks = r.usize_(true)?;
        let mut ranks = Vec::with_capacity(nranks);
        for _ in 0..nranks {
            ranks.push(get_rank(&mut r)?);
        }
        let recovery = get_recovery(&mut r)?;
        r.finish()?;
        let data = CheckpointData {
            proxy_mesh,
            target_mesh,
            cfg,
            variant,
            step,
            rebuild_count,
            steps_run,
            rebalance_count,
            checkpoint_every,
            next_checkpoint,
            thermo_every,
            thermo_log,
            dead,
            rcb,
            ranks,
            recovery,
        };
        data.validate()?;
        Ok(data)
    }

    /// Structural sanity beyond byte-level decoding: cross-field
    /// invariants a hostile payload could violate while passing the
    /// per-type decoders.
    fn validate(&self) -> Result<(), CheckpointError> {
        let fail = |m: String| Err(CheckpointError::Decode(m));
        let nranks = self.ranks.len();
        if nranks == 0 {
            return fail("checkpoint has zero ranks".into());
        }
        if let Some(dead) = self.dead.filter(|&dead| dead as usize >= nranks) {
            return fail(format!("dead rank {dead} out of range for {nranks} ranks"));
        }
        // A shrinking recovery re-cut every atom over the survivors: the
        // restore routes them by that tree, and the dead rank owns none.
        if let Some(dead) = self.dead {
            if self.rcb.is_none() {
                return fail(format!("dead rank {dead} without the survivors' RCB tree"));
            }
            let held = self.ranks[dead as usize].atoms.nlocal;
            if held > 0 {
                return fail(format!("dead rank {dead} holds {held} atoms"));
            }
        }
        if let Some(rcb) = &self.rcb {
            let (parts, expected) = (rcb.nranks(), nranks - usize::from(self.dead.is_some()));
            if parts != expected {
                return fail(format!("RCB has {parts} parts but {expected} live ranks"));
            }
        }
        for (i, d) in self.ranks.iter().enumerate() {
            if !d.atoms.is_consistent() {
                return fail(format!("rank {i} atom arrays inconsistent"));
            }
            // Border packs every tag into a wire id, whose tag field ends
            // at the wire's limit.
            if let Some(tag) = d.atoms.tag.iter().find(|&&tag| tag >= TAG_LIMIT) {
                return fail(format!(
                    "rank {i} atom tag {tag} is past the wire's {TAG_LIMIT}"
                ));
            }
            // The force pass indexes its coefficients by type: a type the
            // run would not assign is a type the potential may not have.
            let mut types = d.atoms.tag.iter().zip(&d.atoms.typ);
            if let Some((&tag, &t)) = types.find(|&(&tag, &t)| t != self.cfg.type_of_tag(tag)) {
                let run = self.cfg.type_of_tag(tag);
                return fail(format!(
                    "rank {i} atom tag {tag} has type {t}, the run assigns {run}"
                ));
            }
        }
        Ok(())
    }

    /// Wrap the encoded payload in the versioned, checksummed container.
    #[must_use]
    pub fn to_container(&self) -> Vec<u8> {
        let payload = self.encode();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + FOOTER_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let sum = fnv1a64(&out[MAGIC.len()..]);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parse and validate a container: magic, length, checksum, version,
    /// then payload — in that order, so corruption is classified by its
    /// outermost symptom and a hostile length can never drive a huge
    /// allocation (all vector lengths are bounded by the bytes present).
    pub fn from_container(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let probe = bytes.len().min(MAGIC.len());
        if bytes[..probe] != MAGIC[..probe] {
            return Err(CheckpointError::BadMagic);
        }
        let min = HEADER_LEN + FOOTER_LEN;
        if bytes.len() < min {
            return Err(CheckpointError::Truncated {
                expected: min,
                found: bytes.len(),
            });
        }
        let mut vb = [0u8; 4];
        vb.copy_from_slice(&bytes[8..12]);
        let version = u32::from_le_bytes(vb);
        let mut lb = [0u8; 8];
        lb.copy_from_slice(&bytes[12..20]);
        let payload_len = u64::from_le_bytes(lb);
        let expected = (min as u64).saturating_add(payload_len);
        if (bytes.len() as u64) < expected {
            return Err(CheckpointError::Truncated {
                expected: usize::try_from(expected).unwrap_or(usize::MAX),
                found: bytes.len(),
            });
        }
        // Safe: expected <= bytes.len() here, so it fits in usize.
        let expected = usize::try_from(expected).unwrap_or(usize::MAX);
        let stored = {
            let mut sb = [0u8; 8];
            sb.copy_from_slice(&bytes[expected - FOOTER_LEN..expected]);
            u64::from_le_bytes(sb)
        };
        let computed = fnv1a64(&bytes[MAGIC.len()..expected - FOOTER_LEN]);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }
        if bytes.len() > expected {
            return Err(CheckpointError::Decode(format!(
                "{} trailing bytes after container",
                bytes.len() - expected
            )));
        }
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        Self::decode(&bytes[HEADER_LEN..expected - FOOTER_LEN])
    }
}

/// FNV-1a 64-bit over a byte slice — tiny, dependency-free, and plenty to
/// catch every single-byte corruption (it is not a cryptographic MAC and
/// does not claim tamper resistance).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofumd_md::region::Box3;

    fn sample() -> CheckpointData {
        let global = Box3::from_lengths([9.0; 3]);
        let pts: Vec<[f64; 3]> = (0..60)
            .map(|i| {
                let t = i as f64;
                [(t * 0.731) % 9.0, (t * 1.377) % 9.0, (t * 2.113) % 9.0]
            })
            .collect();
        let rcb = RcbDecomposition::build(3, &pts, &global);
        let mut cfg = RunConfig::lj(4_000);
        cfg.kind = PotentialKind::LjBinary;
        cfg.comm.decomp = Decomp::Rcb;
        cfg.comm.balance_thresh = Some(1.1);
        cfg.comm.rebalance_every = Some(25);
        let mut atoms = Atoms::from_positions(pts[..20].to_vec(), 1);
        atoms.v[3] = [0.25, -0.5, 1.75];
        for (t, &tag) in atoms.typ.iter_mut().zip(&atoms.tag) {
            *t = cfg.type_of_tag(tag);
        }
        let dump = |clock: f64| RankDump {
            atoms: atoms.clone(),
            clock,
            stages: StageTimes {
                comm: clock * 0.25,
                pair_comm: clock * 0.03125,
                pair: 1.0,
                neigh: 2.0,
                modify: 3.0,
                other: 4.0,
                overlapped: 5.0,
            },
        };
        let dead = RankDump {
            atoms: Atoms::default(),
            ..dump(0.0)
        };
        CheckpointData {
            proxy_mesh: [2, 2, 1],
            target_mesh: [2, 2, 1],
            cfg,
            variant: CommVariant::MpiP2p,
            step: 40,
            rebuild_count: 3,
            steps_run: 40,
            rebalance_count: 1,
            checkpoint_every: 20,
            next_checkpoint: 60,
            thermo_every: 10,
            thermo_log: vec![
                ThermoSnapshot {
                    step: 0,
                    pe: -6.77,
                    ke: 2.16,
                    temperature: 1.44,
                    pressure: -5.02,
                },
                ThermoSnapshot {
                    step: 10,
                    pe: -6.70,
                    ke: 2.09,
                    temperature: 1.39,
                    pressure: -4.80,
                },
            ],
            dead: Some(3),
            rcb: Some(rcb),
            ranks: vec![dump(1.5), dump(1.625), dump(1.75), dead],
            recovery: RecoveryStats {
                checkpoints: 2,
                checkpoint_cost: 3.5e-3,
                recoveries: 1,
                steps_lost: 7,
                recovery_time: 2.0e-3,
            },
        }
    }

    #[test]
    fn rank_stage_bytes_follow_the_documented_order() {
        // Every VERSION 2 file stores comm, pair_comm, pair, neigh, modify,
        // other, overlapped after a rank's atoms and clock; the round trips
        // cannot see a reorder, which would misread all of them.
        let atoms = Atoms::from_positions(vec![[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], 1);
        let dump = RankDump {
            atoms: atoms.clone(),
            clock: 0.5,
            stages: StageTimes {
                comm: 1.0,
                pair_comm: 2.0,
                pair: 3.0,
                neigh: 4.0,
                modify: 5.0,
                other: 6.0,
                overlapped: 7.0,
            },
        };
        let mut bytes = Vec::new();
        put_rank(&mut bytes, &dump);
        let mut head = Vec::new();
        atoms.wire_encode(&mut head);
        wirefmt::put_f64(&mut head, 0.5);
        assert_eq!(bytes[..head.len()], head[..], "atoms, then the clock");
        let stages: Vec<f64> = bytes[head.len()..]
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        assert_eq!(stages, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let back = get_rank(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(back.stages, dump.stages);
    }

    #[test]
    fn payload_round_trip_is_lossless() {
        let data = sample();
        let bytes = data.encode();
        let back = CheckpointData::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes, "re-encode must be byte-identical");
        assert_eq!(back.step, 40);
        assert_eq!(back.variant, CommVariant::MpiP2p);
        assert_eq!(back.cfg.comm.decomp, Decomp::Rcb);
        assert_eq!(back.cfg.comm.balance_thresh, Some(1.1));
        assert_eq!(back.dead, Some(3));
        assert_eq!(back.ranks.len(), 4);
        assert_eq!(back.ranks[1].atoms.v[3], [0.25, -0.5, 1.75]);
        assert_eq!(back.ranks[2].clock, 1.75);
        assert_eq!(back.thermo_log.len(), 2);
        assert_eq!(back.recovery.steps_lost, 7);
        let rcb = back.rcb.as_ref().unwrap();
        assert_eq!(rcb.nranks(), 3);
        assert_eq!(
            rcb.owner_of(&[4.0, 4.0, 4.0]),
            data.rcb.as_ref().unwrap().owner_of(&[4.0, 4.0, 4.0])
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = sample().to_container();
        let b = sample().to_container();
        assert_eq!(a, b);
    }

    #[test]
    fn container_round_trip_and_trailing_rejection() {
        let data = sample();
        let mut bytes = data.to_container();
        let back = CheckpointData::from_container(&bytes).unwrap();
        assert_eq!(back.encode(), data.encode());
        bytes.push(0);
        match CheckpointData::from_container(&bytes) {
            Err(CheckpointError::Decode(m)) => assert!(m.contains("trailing"), "{m}"),
            other => panic!("expected trailing-byte rejection, got {other:?}"),
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample().to_container();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let err = match CheckpointData::from_container(&bad) {
                Err(e) => e,
                Ok(_) => panic!("flip at byte {i} went undetected"),
            };
            if i < MAGIC.len() {
                assert!(
                    matches!(err, CheckpointError::BadMagic),
                    "flip at magic byte {i} gave {err:?}"
                );
            } else {
                assert!(
                    matches!(
                        err,
                        CheckpointError::ChecksumMismatch { .. }
                            | CheckpointError::Truncated { .. }
                    ),
                    "flip at byte {i} gave {err:?}"
                );
            }
        }
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = sample().to_container();
        for n in 0..bytes.len() {
            match CheckpointData::from_container(&bytes[..n]) {
                Err(CheckpointError::Truncated { found, .. }) => assert_eq!(found, n),
                other => panic!("truncation to {n} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn version_skew_is_typed() {
        // A newer container, and the version-1 one this format replaced.
        for skewed in [99u32, 1] {
            let mut bytes = sample().to_container();
            bytes[8..12].copy_from_slice(&skewed.to_le_bytes());
            // Re-seal so the version check (not the checksum) is what fires.
            let end = bytes.len() - FOOTER_LEN;
            let sum = fnv1a64(&bytes[MAGIC.len()..end]);
            bytes[end..].copy_from_slice(&sum.to_le_bytes());
            match CheckpointData::from_container(&bytes) {
                Err(CheckpointError::UnsupportedVersion(v)) => assert_eq!(v, skewed),
                other => panic!("expected version skew, got {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_length_prefix_cannot_overallocate() {
        let mut bytes = sample().to_container();
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        match CheckpointData::from_container(&bytes) {
            Err(CheckpointError::Truncated { .. }) => {}
            other => panic!("expected truncation from hostile length, got {other:?}"),
        }
    }

    #[test]
    fn structural_invariants_are_enforced() {
        // RCB part count must match the live-rank count.
        let mut data = sample();
        data.dead = None; // now 4 live ranks but a 3-part RCB
        match CheckpointData::decode(&data.encode()) {
            Err(CheckpointError::Decode(m)) => assert!(m.contains("live ranks"), "{m}"),
            other => panic!("expected part-count mismatch, got {other:?}"),
        }
        // Dead rank index must be in range.
        let mut data = sample();
        data.dead = Some(9);
        match CheckpointData::decode(&data.encode()) {
            Err(CheckpointError::Decode(m)) => assert!(m.contains("out of range"), "{m}"),
            other => panic!("expected dead-rank range error, got {other:?}"),
        }
    }

    #[test]
    fn errors_render_their_diagnosis() {
        let s = CheckpointError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        }
        .to_string();
        assert!(s.contains("checksum mismatch"), "{s}");
        let s = CheckpointError::Truncated {
            expected: 100,
            found: 7,
        }
        .to_string();
        assert!(s.contains("need 100") && s.contains("found 7"), "{s}");
        let s = CheckpointError::UnsupportedVersion(9).to_string();
        assert!(s.contains("version 9"), "{s}");
    }
}
