//! One workload in one process: the untraced pass that yields the
//! end-to-end metrics, and the traced pass that yields the per-layer
//! ones. Both drive the same `run_repeat`, so the traced trajectory is
//! the untraced one, step for step.

use crate::layers::{self, OpCounts, TwinSeed};
use crate::metrics::{Measured, END_TO_END, ENERGY_DRIFT_CEILING, PER_LAYER, TWIN_ENERGY_TOL};
use crate::stats::{
    classes_from_rebuilt, median, quantile, rate_from_classes, split_by_class, StepClass,
    STEP_QUANTILE,
};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Workload, TWIN_STEP, WARMUP_STEPS};
use std::time::Instant;
use tofumd::runtime::{Cluster, StepRecord};

/// Fewest repeats an untraced run makes whatever the window: `setup_s`
/// is the median of the set-ups after the first (cold) one.
const MIN_REPEATS: usize = 3;

/// Steps of the Ref-engine twin behind `model.virt_speedup_vs_ref`.
const SPEEDUP_STEPS: usize = 200;

/// Forward steps timed at one driver thread when the workload runs on
/// more, so the layer attribution has a 1-thread denominator.
const T1_STEPS: usize = 12;

/// What one build + warm-up + timed run of a workload produced.
pub struct Repeat {
    pub build_s: f64,
    pub warmup_s: f64,
    pub first_step_ms: f64,
    /// Wall of the timed loop.
    pub wall_s: f64,
    /// Host time of each timed `run_step` call, in call order.
    pub step_ms: Vec<f64>,
    pub classes: Vec<StepClass>,
    /// Host times of the steps in which a rebalance re-cut ran.
    pub rebalance_ms: Vec<f64>,
    pub e_twin_step: Option<f64>,
    pub e_start: f64,
    pub e_end: f64,
    pub virt_step_us: f64,
    pub virt_comm_us: f64,
    /// Checks this repeat failed (empty = all passed).
    pub failures: Vec<String>,
    /// Traced repeats only: one record per timed step and the exact comm
    /// counters over the timed loop.
    pub records: Vec<StepRecord>,
    pub ops: OpCounts,
    pub nranks: usize,
}

impl Repeat {
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.warmup_s
    }

    pub fn steps_per_s(&self) -> f64 {
        self.step_ms.len() as f64 / self.wall_s
    }

    pub fn energy_drift_rel(&self) -> f64 {
        (self.e_end - self.e_start).abs() / self.e_start.abs()
    }

    fn by_class(&self) -> [Vec<f64>; 3] {
        split_by_class(&self.classes, &self.step_ms)
    }

    /// Everything that must repeat bit-exactly for one seed.
    fn fingerprint(&self) -> (u64, u64, u64, &[StepClass]) {
        (
            self.virt_step_us.to_bits(),
            self.virt_comm_us.to_bits(),
            self.e_end.to_bits(),
            &self.classes,
        )
    }
}

/// Relative energy error against the twin, as a check result.
pub fn check_twin_energy(e_cluster: f64, e_twin: f64) -> Result<(), String> {
    let rel = (e_cluster - e_twin).abs() / e_twin.abs();
    if rel < TWIN_ENERGY_TOL {
        Ok(())
    } else {
        Err(format!(
            "total energy at step {TWIN_STEP} is {e_cluster} but the serial twin has {e_twin} \
             (rel {rel:.2e} >= {TWIN_ENERGY_TOL:e})"
        ))
    }
}

/// Refuse a thread count the host cannot run without oversubscribing:
/// a number measured that way is not a baseline.
pub fn check_threads(threads: usize, nproc: usize) -> Result<(), String> {
    if threads > nproc {
        Err(format!(
            "workload wants {threads} driver threads but the host has {nproc} cores"
        ))
    } else {
        Ok(())
    }
}

/// Build the workload's cluster, warm it up, and run it to its target
/// step, timing every `run_step`. With a tracer, each step runs as
/// `run_traced(1)` under a span. Returns the cluster for the probes.
fn run_repeat(
    w: &Workload,
    seed: u64,
    threads: usize,
    mut trace: Option<(&mut Tracer, SpanId)>,
    twin_seed: Option<&mut Option<TwinSeed>>,
) -> (Repeat, Cluster) {
    let t0 = Instant::now();
    let mut c = w.build(seed, threads);
    let build_s = t0.elapsed().as_secs_f64();
    let natoms = c.natoms();
    if let Some(slot) = twin_seed {
        *slot = Some(TwinSeed::capture(&c));
    }

    let t1 = Instant::now();
    c.run_step();
    let first_step_ms = t1.elapsed().as_secs_f64() * 1e3;
    c.run(WARMUP_STEPS - 1);
    let warmup_s = t1.elapsed().as_secs_f64();
    c.reset_timers();

    let traced = trace.is_some();
    let calls_hint = w.target_step as usize + 64;
    let mut rep = Repeat {
        build_s,
        warmup_s,
        first_step_ms,
        wall_s: 0.0,
        step_ms: Vec::with_capacity(calls_hint),
        classes: Vec::with_capacity(calls_hint),
        rebalance_ms: Vec::new(),
        e_twin_step: None,
        e_start: layers::total_energy(&c),
        e_end: 0.0,
        virt_step_us: 0.0,
        virt_comm_us: 0.0,
        failures: Vec::new(),
        records: Vec::with_capacity(if traced { calls_hint } else { 0 }),
        ops: OpCounts::default(),
        nranks: c.nranks(),
    };

    let loop_t0 = Instant::now();
    while c.current_step() < w.target_step {
        if rep.step_ms.len() > 4 * w.target_step as usize {
            rep.failures.push(format!(
                "step counter stuck at {} after {} calls",
                c.current_step(),
                rep.step_ms.len()
            ));
            break;
        }
        let rebuilds = c.rebuild_count;
        let recoveries = c.recovery_stats().recoveries;
        let rebalances = c.rebalance_count();
        let ops_before = traced.then(|| OpCounts::read(&c));
        let t = Instant::now();
        match trace.as_mut() {
            None => c.run_step(),
            Some((tr, parent)) => {
                let id = tr.open(
                    "runtime.run_step",
                    Some(c.current_step() + 1),
                    Some(*parent),
                );
                let mut one = c.run_traced(1);
                tr.close(id);
                rep.records.append(&mut one.steps);
            }
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(before) = ops_before {
            rep.ops.add_delta(&before, &OpCounts::read(&c));
        }
        let class = if c.recovery_stats().recoveries > recoveries {
            StepClass::Recovery
        } else if c.rebuild_count > rebuilds {
            StepClass::Rebuild
        } else {
            StepClass::Forward
        };
        if c.rebalance_count() > rebalances {
            rep.rebalance_ms.push(ms);
        }
        rep.step_ms.push(ms);
        rep.classes.push(class);
        if rep.e_twin_step.is_none() && c.current_step() == TWIN_STEP {
            rep.e_twin_step = Some(layers::total_energy(&c));
        }
    }
    rep.wall_s = loop_t0.elapsed().as_secs_f64();
    rep.e_end = layers::total_energy(&c);
    rep.virt_step_us = c.step_time() * 1e6;
    rep.virt_comm_us = c.breakdown().comm * 1e6;

    // Physics and recovery checks of this repeat.
    let drift = rep.energy_drift_rel();
    let fail = &mut rep.failures;
    if c.natoms() != natoms {
        fail.push(format!("atoms not conserved: {} -> {}", natoms, c.natoms()));
    }
    if drift.is_nan() || drift > ENERGY_DRIFT_CEILING {
        fail.push(format!(
            "energy drift {drift:.3e} over the timed run exceeds {ENERGY_DRIFT_CEILING:e}"
        ));
    }
    let counts = OpCounts::read(&c);
    match w.recovery {
        None => {
            if c.demoted() {
                fail.push("cluster demoted to the reference engine".into());
            }
            if c.dead_rank().is_some() || c.recovery_stats().recoveries != 0 {
                fail.push("a fault-free workload went through a recovery".into());
            }
            if counts.retries != 0 || counts.fallback_sends != 0 {
                fail.push(format!(
                    "{} retries / {} fallback sends on a fault-free workload",
                    counts.retries, counts.fallback_sends
                ));
            }
        }
        Some(expect) => {
            if c.dead_rank() != Some(expect.dead_rank) {
                fail.push(format!(
                    "dead rank is {:?}, expected {}",
                    c.dead_rank(),
                    expect.dead_rank
                ));
            }
            if c.recovery_stats().recoveries != 1 {
                fail.push(format!(
                    "{} recoveries, expected exactly 1",
                    c.recovery_stats().recoveries
                ));
            }
            if c.rebalance_count() < 1 {
                fail.push("no rebalance re-cut fired".into());
            }
        }
    }
    if traced {
        // The runtime's own per-step record must tell the same rebuild
        // story as the counter the untraced pass classifies by.
        let flags: Vec<bool> = rep.records.iter().map(|r| r.rebuilt).collect();
        let agree = classes_from_rebuilt(&flags)
            .iter()
            .zip(&rep.classes)
            .all(|(theirs, ours)| theirs == ours || *ours == StepClass::Recovery);
        if !agree || flags.len() != rep.classes.len() {
            fail.push("StepRecord::rebuilt disagrees with the rebuild counter".into());
        }
    }
    if w.zero_copy && counts.ghost_bytes_copied != 0 {
        fail.push(format!(
            "{} bytes staged by ghost ops on the zero-copy path",
            counts.ghost_bytes_copied
        ));
    }
    (rep, c)
}

/// The result of one process's pass over one workload.
pub struct Outcome {
    /// The metrics `BENCHMARK.json` lists for this pass.
    pub metrics: Vec<Measured>,
    /// Printed and stored beside them, never gated.
    pub extras: Vec<Measured>,
    /// Timed `run_step` calls.
    pub attempted: u64,
    /// Calls belonging to a repeat that failed a check.
    pub failed: u64,
    pub failures: Vec<String>,
    pub repeats: usize,
    pub threads: usize,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// A metric taken once per pass (no per-repeat samples).
fn scalar(name: &'static str, unit: &'static str, value: f64) -> Measured {
    Measured {
        name,
        unit,
        value,
        samples: Vec::new(),
    }
}

/// Checks that span repeats: bit-identity with the first repeat and the
/// serial-twin energy. Returns `(attempted, failed)` and appends messages.
fn judge(repeats: &[&Repeat], e_twin: f64, failures: &mut Vec<String>) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for (k, rep) in repeats.iter().enumerate() {
        let mut bad: Vec<String> = rep.failures.clone();
        match rep.e_twin_step {
            Some(e) => bad.extend(check_twin_energy(e, e_twin).err()),
            None => bad.push(format!("run never reached step {TWIN_STEP}")),
        }
        if rep.fingerprint() != repeats[0].fingerprint() {
            bad.push("modeled times, final energy or step classes differ from repeat 0".into());
        }
        attempted += rep.step_ms.len() as u64;
        if !bad.is_empty() {
            failed += rep.step_ms.len() as u64;
            failures.extend(bad.into_iter().map(|m| format!("repeat {k}: {m}")));
        }
    }
    (attempted, failed)
}

/// Host step times by class (indexed as `StepClass::ALL`), pooled over
/// `repeats`.
fn pooled_by_class(repeats: &[Repeat]) -> [Vec<f64>; 3] {
    let mut pooled: [Vec<f64>; 3] = Default::default();
    for r in repeats {
        for (all, mut one) in pooled.iter_mut().zip(r.by_class()) {
            all.append(&mut one);
        }
    }
    pooled
}

/// The reported host time of each class: its lower decile (see
/// `STEP_QUANTILE` for why not the median).
fn class_times(by_class: &[Vec<f64>; 3]) -> [f64; 3] {
    by_class.each_ref().map(|t| quantile(t, STEP_QUANTILE))
}

/// Steps per second of a run with this class mix when every step takes
/// its class's reported time — the end-to-end rate with the same
/// disturbance filter as the per-class times.
fn class_rate(by_class: &[Vec<f64>; 3]) -> f64 {
    rate_from_classes(&by_class.each_ref().map(Vec::len), &class_times(by_class))
}

/// High-water resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The untraced pass: repeats until the window is used, then the checks.
pub fn run_untraced(w: &Workload, seed: u64, seconds: f64, threads: usize) -> Outcome {
    let t0 = Instant::now();
    let mut repeats: Vec<Repeat> = Vec::new();
    let mut twin_seed = None;
    loop {
        let rep_t0 = Instant::now();
        let capture = repeats.is_empty().then_some(&mut twin_seed);
        // The cluster drops here, before the next build: the RSS peak is
        // one cluster's, not two.
        let (rep, _) = run_repeat(w, seed, threads, None, capture);
        repeats.push(rep);
        let next_end = t0.elapsed().as_secs_f64() + rep_t0.elapsed().as_secs_f64();
        if repeats.len() >= MIN_REPEATS && next_end > seconds {
            break;
        }
    }
    // Before the twin runs: it would add a whole serial system to the peak.
    let rss = peak_rss_mb();
    let mut failures = Vec::new();
    if rss.is_none() {
        failures.push("cannot read VmHWM from /proc/self/status".into());
    }
    let twin = twin_seed
        .as_ref()
        .unwrap_or_else(|| unreachable!("the first repeat captures the twin seed"))
        .run(TWIN_STEP);
    let refs: Vec<&Repeat> = repeats.iter().collect();
    let (attempted, failed) = judge(&refs, twin.energy, &mut failures);

    let per_repeat = |f: &dyn Fn(&Repeat) -> f64| repeats.iter().map(f).collect::<Vec<f64>>();
    let pooled = pooled_by_class(&repeats);
    let [fwd, rebuild, _] = class_times(&pooled);
    let setups: Vec<f64> = repeats[1..].iter().map(Repeat::setup_s).collect();
    let value_of = |name: &str| -> (f64, Vec<f64>) {
        match name {
            "host_steps_per_s" => (
                class_rate(&pooled),
                per_repeat(&|r| class_rate(&r.by_class())),
            ),
            "host_fwd_step_ms" => (fwd, per_repeat(&|r| class_times(&r.by_class())[0])),
            "host_rebuild_step_ms" => (rebuild, per_repeat(&|r| class_times(&r.by_class())[1])),
            "setup_s" => (median(&setups), setups.clone()),
            "peak_rss_mb" => (rss.unwrap_or(0.0), Vec::new()),
            "virt_step_us" => (repeats[0].virt_step_us, per_repeat(&|r| r.virt_step_us)),
            "virt_comm_us" => (repeats[0].virt_comm_us, per_repeat(&|r| r.virt_comm_us)),
            other => unreachable!("end-to-end metric {other} has no definition"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let (value, samples) = value_of(m.name);
            Measured {
                name: m.name,
                unit: m.unit,
                value,
                samples,
            }
        })
        .collect();
    // Beside the gated metrics: the plain wall-clock figures and counts.
    let rates = per_repeat(&Repeat::steps_per_s);
    let extras = vec![
        scalar("host_steps_per_s_wall", "steps/s", median(&rates)),
        scalar("host_fwd_step_ms_median", "ms", median(&pooled[0])),
        scalar("host_rebuild_step_ms_median", "ms", median(&pooled[1])),
        scalar("fwd_steps_pooled", "count", pooled[0].len() as f64),
        scalar("rebuild_steps_pooled", "count", pooled[1].len() as f64),
        scalar("recovery_steps_pooled", "count", pooled[2].len() as f64),
        scalar("setup_s_cold", "s", repeats[0].setup_s()),
        scalar("energy_drift_rel", "ratio", repeats[0].energy_drift_rel()),
    ];
    Outcome {
        metrics,
        extras,
        attempted,
        failed,
        failures,
        repeats: repeats.len(),
        threads,
    }
}

/// The traced pass: one cold repeat (page faults, first registration —
/// it only yields `runtime.cold_build_ms` and the twin seed), then
/// untraced/traced repeat pairs for half the window, then the layer
/// probes over the last traced cluster. Returns the outcome and the spans.
pub fn run_traced(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    threads: usize,
    pool_threads: usize,
) -> (Outcome, Tracer) {
    let mut tr = Tracer::new(w.name);
    let root = tr.open("run", None, None);
    let mut twin_seed = None;
    let id = tr.open("repeat.cold", None, Some(root));
    let cold = run_repeat(w, seed, threads, None, Some(&mut twin_seed)).0;
    tr.close(id);
    let t0 = Instant::now();
    let mut plain: Vec<Repeat> = Vec::new();
    let mut traced: Vec<Repeat> = Vec::new();
    let mut cluster: Option<Cluster> = None;
    loop {
        let pair_t0 = Instant::now();
        // Free the previous pair's cluster before building the next.
        drop(cluster.take());
        let id = tr.open("repeat.untraced", None, Some(root));
        plain.push(run_repeat(w, seed, threads, None, None).0);
        tr.close(id);
        let id = tr.open("repeat.traced", None, Some(root));
        let (rep, c) = run_repeat(w, seed, threads, Some((&mut tr, id)), None);
        tr.close(id);
        traced.push(rep);
        cluster = Some(c);
        let next_end = t0.elapsed().as_secs_f64() + pair_t0.elapsed().as_secs_f64();
        if next_end > 0.5 * seconds {
            break;
        }
    }
    let mut c = cluster.unwrap_or_else(|| unreachable!("the loop body runs at least once"));
    let mut failures = Vec::new();
    let mut v = layers::Values::new();
    let last = traced
        .last()
        .unwrap_or_else(|| unreachable!("one traced repeat ran"));

    // runtime: traced vs untraced step times.
    let plain_times = class_times(&pooled_by_class(&plain));
    let traced_pooled = pooled_by_class(&traced);
    let traced_times = class_times(&traced_pooled);
    let (fwd_plain, fwd_traced) = (plain_times[0], traced_times[0]);
    let reb_traced = &traced_pooled[1];
    v.insert("runtime.fwd_step_ms_traced", fwd_traced);
    v.insert("runtime.rebuild_step_ms_traced", traced_times[1]);
    v.insert(
        "runtime.trace_overhead_pct",
        100.0 * (fwd_traced - fwd_plain) / fwd_plain,
    );
    v.insert(
        "runtime.rebuild_steps",
        reb_traced.len() as f64 / traced.len() as f64,
    );
    let host_total: f64 = traced.iter().flat_map(|r| &r.step_ms).sum();
    v.insert(
        "runtime.rebuild_host_share",
        reb_traced.iter().sum::<f64>() / host_total,
    );

    // runtime: modeled stage means over the traced steps.
    let nrec = last.records.len().max(1) as f64;
    let stage = |k: usize| last.records.iter().map(|r| r.stages[k]).sum::<f64>() / nrec * 1e6;
    v.insert("runtime.virt_pair_us", stage(0));
    v.insert("runtime.virt_neigh_us", stage(1));
    v.insert("runtime.virt_modify_us", stage(3));
    v.insert("runtime.virt_other_us", stage(4));
    v.insert(
        "runtime.virt_overlap_us",
        last.records.iter().map(|r| r.overlapped).sum::<f64>() / nrec * 1e6,
    );

    // runtime: set-up.
    v.insert("runtime.cold_build_ms", cold.build_s * 1e3);
    v.insert(
        "runtime.cluster_build_ms",
        median(&traced.iter().map(|r| r.build_s * 1e3).collect::<Vec<_>>()),
    );
    v.insert(
        "runtime.first_step_ms",
        median(&traced.iter().map(|r| r.first_step_ms).collect::<Vec<_>>()),
    );

    // core: exact counters per rank-step of the traced loop.
    let rank_steps = (last.nranks * last.step_ms.len()).max(1) as f64;
    v.insert(
        "core.msgs_per_rank_step",
        last.ops.messages as f64 / rank_steps,
    );
    v.insert(
        "core.bytes_per_rank_step",
        last.ops.bytes as f64 / rank_steps,
    );
    v.insert(
        "core.bytes_copied_per_rank_step",
        last.ops.ghost_bytes_copied as f64 / rank_steps,
    );
    v.insert("core.max_msg_bytes", last.ops.max_msg_bytes as f64);
    v.insert("core.retries", last.ops.retries as f64);
    v.insert("core.fallback_sends", last.ops.fallback_sends as f64);
    v.insert("core.growth_events", last.ops.growth_events as f64);
    v.insert("energy_drift_rel", last.energy_drift_rel());

    // runtime: recovery path (zero where the workload has none).
    let stats = c.recovery_stats();
    v.insert("runtime.rebalance_step_ms", median(&last.rebalance_ms));
    v.insert("runtime.recovery_step_ms", median(&last.by_class()[2]));
    v.insert("runtime.virt_mttr_us", stats.mttr() * 1e6);
    v.insert("runtime.steps_lost", stats.steps_lost as f64);
    if w.recovery.is_some() {
        v.insert("runtime.atom_imbalance_final", c.atom_imbalance());
    }

    // model: the paper's headline ratio, where the workload has a Ref twin.
    if let Some(ref_twin) = w.ref_twin {
        let n = SPEEDUP_STEPS.min(last.records.len());
        let ours = last.records[..n]
            .iter()
            .map(|r| r.max_clock_delta)
            .sum::<f64>()
            / n as f64;
        let (theirs, _) = tr.time("model.ref_twin", Some(root), || {
            layers::virt_step_time(ref_twin(seed), WARMUP_STEPS, n as u64)
        });
        v.insert("model.virt_speedup_vs_ref", theirs / ours);
    }

    // A 1-thread forward step for the attribution, when the workload
    // itself runs on more.
    let fwd_t1 = if threads > 1 {
        c.set_driver_threads(1);
        let id = tr.open("runtime.t1_steps", None, Some(root));
        let mut fwd = Vec::with_capacity(T1_STEPS);
        while fwd.len() < T1_STEPS {
            let rebuilds = c.rebuild_count;
            let t = Instant::now();
            c.run_step();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if c.rebuild_count == rebuilds {
                fwd.push(ms);
            }
        }
        tr.close(id);
        c.set_driver_threads(threads);
        quantile(&fwd, STEP_QUANTILE)
    } else {
        fwd_plain
    };

    // Layer probes over every rank's data. After everything that reads
    // the cluster's virtual clocks: the forward-op probe resets them.
    if w.recovery.is_some() {
        let id = tr.open("probes.checkpoint", None, Some(root));
        match layers::probe_checkpoint(&mut c, &mut tr, id) {
            Ok((dump_ms, mb, restore_ms)) => {
                v.insert("runtime.checkpoint_dump_ms", dump_ms);
                v.insert("runtime.checkpoint_mb", mb);
                v.insert("runtime.restore_ms", restore_ms);
            }
            Err(e) => failures.push(format!("checkpoint probe: {e}")),
        }
        tr.close(id);
    }
    let id = tr.open("probes", None, Some(root));
    v.append(&mut layers::probe_layers(&mut c, pool_threads, &mut tr, id));
    tr.close(id);
    let cfg = c.cfg;
    drop(c);

    // runtime: how much of a forward step the probed layers account for.
    // Halo ops on a forward step: forward, reverse when ghost forces fold
    // back, and EAM's two mid-pair scalar ops.
    let ops_per_step =
        1.0 + f64::from(u8::from(cfg.needs_reverse())) + if cfg.is_eam() { 2.0 } else { 0.0 };
    let attributed = v["md.pair_ms_per_step"]
        + v["md.integrate_ms_per_step"]
        + ops_per_step * v["core.fwd_op_ms"];
    v.insert("runtime.attributed_share_fwd", attributed / fwd_t1);
    v.insert("runtime.unattributed_ms_per_step", fwd_t1 - attributed);

    // md: the serial twin, as oracle and as single-threaded baseline.
    let (twin, _) = tr.time("md.serial_twin", Some(root), || {
        twin_seed
            .as_ref()
            .unwrap_or_else(|| unreachable!("the first repeat captures the twin seed"))
            .run(TWIN_STEP)
    });
    v.insert("md.serial_ns_per_atom_step", twin.ns_per_atom_step);
    tr.close(root);

    let refs: Vec<&Repeat> = std::iter::once(&cold)
        .chain(&plain)
        .chain(&traced)
        .collect();
    let (attempted, failed) = judge(&refs, twin.energy, &mut failures);
    let metrics = PER_LAYER
        .iter()
        .map(|m| scalar(m.name, m.unit, v.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    let outcome = Outcome {
        metrics,
        extras: Vec::new(),
        attempted,
        failed,
        failures,
        repeats: refs.len(),
        threads,
    };
    (outcome, tr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twin_energy_check_accepts_noise_and_rejects_physics() {
        assert!(check_twin_energy(-1000.0, -1000.0 + 1e-5).is_ok());
        // One extra serial step moves pe+ke by far more than fp noise.
        let err = check_twin_energy(-1000.0, -1000.1).unwrap_err();
        assert!(err.contains("serial twin"), "{err}");
    }

    #[test]
    fn oversubscription_is_refused() {
        assert!(check_threads(2, 2).is_ok());
        assert!(check_threads(1, 8).is_ok());
        assert!(check_threads(8, 2).is_err());
    }
}
