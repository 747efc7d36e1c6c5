//! A parser for the subset of the LAMMPS input language the paper's
//! artifact uses (`in.threadpool.lj` / `in.threadpool.eam`).
//!
//! The artifact drives every experiment through standard LAMMPS benchmark
//! scripts; this module lets the same scripts drive the simulated cluster,
//! covering: `units`, `atom_style`, `lattice` (fcc, diamond),
//! `region ... block`, `create_box`, `create_atoms`, `mass`,
//! `velocity ... create`, `pair_style` (lj/cut, eam, sw), `pair_coeff`,
//! `neighbor`, `neigh_modify`, `comm_style` (brick, tiled),
//! `comm_modify cutoff`, `balance <thresh> rcb`, `fix ... nve`,
//! `fix ... balance N <thresh> rcb` (dynamic rebalancing), `timestep`,
//! `thermo`, `restart N <file>` (periodic checkpoint dumps),
//! `read_restart <file>` (resume from a checkpoint; the file's embedded
//! configuration governs, so the usual setup commands become optional),
//! and `run`.

use crate::config::{CommTuning, Decomp, PotentialKind, RunConfig};
use tofumd_md::neighbor::RebuildPolicy;

/// A parsed run: what to simulate and for how long.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptRun {
    /// The equivalent run configuration.
    pub config: RunConfig,
    /// Steps requested by the final `run` command.
    pub steps: u64,
    /// `thermo N` output interval (0 = never).
    pub thermo_every: u64,
    /// `restart N <file>`: dump a checkpoint to `<file>` at every
    /// reneighbor step at or past each multiple of `N`.
    pub restart: Option<(u64, String)>,
    /// `read_restart <file>`: resume from a checkpoint instead of
    /// building the system from the setup commands. When set, `config`
    /// holds only defaults — the file's embedded configuration governs.
    pub read_restart: Option<String>,
    /// Commands that were recognized but intentionally ignored
    /// (e.g. `atom_style atomic`), for diagnostics.
    pub ignored: Vec<String>,
}

/// Parse failure with a line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScriptError {}

fn err(line: usize, message: impl Into<String>) -> ScriptError {
    ScriptError {
        line,
        message: message.into(),
    }
}

/// A number a script argument may hold: a count, or a real that must
/// also be finite.
trait Number: std::str::FromStr {
    fn finite(&self) -> bool {
        true
    }
}

impl Number for u32 {}
impl Number for u64 {}
impl Number for f64 {
    fn finite(&self) -> bool {
        self.is_finite()
    }
}

/// Token `i` of `tokens` as a number: missing, malformed and non-finite
/// values are errors on line `lineno` naming `what`.
fn num<T: Number>(tokens: &[&str], i: usize, lineno: usize, what: &str) -> Result<T, ScriptError> {
    let tok = *tokens
        .get(i)
        .ok_or_else(|| err(lineno, format!("missing {what}")))?;
    let v: T = tok
        .parse()
        .map_err(|_| err(lineno, format!("bad {what} '{tok}'")))?;
    if !v.finite() {
        return Err(err(lineno, format!("{what} must be finite, got '{tok}'")));
    }
    Ok(v)
}

/// `|diff| <= tol`: a cross-check written so that a NaN cannot pass it.
fn within(diff: f64, tol: f64) -> bool {
    diff.abs() <= tol
}

/// The `<thresh>` token of `balance <thresh> rcb` / `fix ... balance N
/// <thresh> rcb`. Max/mean imbalance is >= 1 by definition, so anything
/// non-numeric, non-finite or <= 0 is a script error, not a
/// silently-dropped token.
fn balance_thresh(tokens: &[&str], i: usize, lineno: usize) -> Result<f64, ScriptError> {
    let thresh: f64 = num(tokens, i, lineno, "balance threshold")?;
    if thresh <= 0.0 {
        return Err(err(
            lineno,
            format!("balance threshold must be a positive finite number, got '{thresh}'"),
        ));
    }
    Ok(thresh)
}

/// Intermediate parse state.
#[derive(Debug, Default)]
struct State {
    units: Option<String>,
    lattice_style: Option<String>,
    lattice_value: Option<f64>,
    region_cells: Option<(usize, usize, usize)>,
    pair_style: Option<String>,
    pair_cutoff: Option<f64>,
    temperature: Option<f64>,
    seed: Option<u64>,
    skin: Option<f64>,
    neigh_every: Option<u32>,
    neigh_check: Option<bool>,
    timestep: Option<f64>,
    comm_style: Option<Decomp>,
    comm_cutoff: Option<f64>,
    balance_thresh: Option<f64>,
    rebalance_every: Option<u64>,
    fix_nve: bool,
    run_steps: Option<u64>,
    thermo_every: u64,
    restart: Option<(u64, String)>,
    read_restart: Option<String>,
    ignored: Vec<String>,
}

/// Parse a LAMMPS input script into a [`ScriptRun`].
pub fn parse_script(text: &str) -> Result<ScriptRun, ScriptError> {
    let mut st = State::default();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        // Strip comments; LAMMPS uses '#'.
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let cmd = tokens[0];
        match cmd {
            "units" => {
                let u = *tokens
                    .get(1)
                    .ok_or_else(|| err(lineno, "units needs an argument"))?;
                if u != "lj" && u != "metal" {
                    return Err(err(lineno, format!("unsupported units '{u}'")));
                }
                st.units = Some(u.to_string());
            }
            "atom_style" | "atom_modify" | "reset_timestep" | "log" | "echo" => {
                st.ignored.push(line.to_string());
            }
            "lattice" => {
                // lattice fcc|diamond <value>
                let style = *tokens
                    .get(1)
                    .ok_or_else(|| err(lineno, "lattice needs a style"))?;
                if style != "fcc" && style != "diamond" {
                    return Err(err(lineno, format!("unsupported lattice '{style}'")));
                }
                st.lattice_style = Some(style.to_string());
                st.lattice_value = Some(num(&tokens, 2, lineno, "lattice value")?);
            }
            "region" => {
                // region <id> block 0 nx 0 ny 0 nz
                if tokens.get(2) != Some(&"block") {
                    return Err(err(lineno, "only 'region ... block' supported"));
                }
                let nums = (3..9)
                    .map(|i| num(&tokens, i, lineno, "region bound"))
                    .collect::<Result<Vec<f64>, _>>()?;
                let dims = (
                    (nums[1] - nums[0]).round() as usize,
                    (nums[3] - nums[2]).round() as usize,
                    (nums[5] - nums[4]).round() as usize,
                );
                if dims.0 == 0 || dims.1 == 0 || dims.2 == 0 {
                    return Err(err(lineno, "region has zero extent"));
                }
                st.region_cells = Some(dims);
            }
            "create_box" | "create_atoms" => {
                // Geometry comes from region/lattice; nothing extra needed.
                st.ignored.push(line.to_string());
            }
            "mass" => {
                st.ignored.push(line.to_string()); // masses are implied by units
            }
            "velocity" => {
                // velocity all create <T> <seed> [...]
                if tokens.get(2) != Some(&"create") {
                    return Err(err(lineno, "only 'velocity all create' supported"));
                }
                let t: f64 = num(&tokens, 3, lineno, "temperature")?;
                if t < 0.0 {
                    return Err(err(lineno, format!("temperature must be >= 0, got {t}")));
                }
                st.temperature = Some(t);
                st.seed = Some(num(&tokens, 4, lineno, "seed")?);
            }
            "pair_style" => {
                let style = *tokens
                    .get(1)
                    .ok_or_else(|| err(lineno, "pair_style needs a style"))?;
                match style {
                    "lj/cut" => {
                        st.pair_style = Some("lj/cut".into());
                        st.pair_cutoff = Some(num(&tokens, 2, lineno, "lj/cut cutoff")?);
                    }
                    "eam" => {
                        st.pair_style = Some("eam".into());
                    }
                    "sw" => {
                        st.pair_style = Some("sw".into());
                    }
                    other => return Err(err(lineno, format!("unsupported pair_style '{other}'"))),
                }
            }
            "pair_coeff" => {
                st.ignored.push(line.to_string()); // Table-2 parameters are built in
            }
            "neighbor" => {
                st.skin = Some(num(&tokens, 1, lineno, "neighbor skin")?);
            }
            "neigh_modify" => {
                let mut i = 1;
                while i + 1 < tokens.len() + 1 {
                    match tokens.get(i) {
                        Some(&"every") => {
                            st.neigh_every = Some(num(&tokens, i + 1, lineno, "every")?);
                            i += 2;
                        }
                        Some(&"check") => {
                            st.neigh_check = Some(match tokens.get(i + 1) {
                                Some(&"yes") => true,
                                Some(&"no") => false,
                                _ => return Err(err(lineno, "check needs yes/no")),
                            });
                            i += 2;
                        }
                        Some(&"delay") => i += 2,
                        Some(other) => {
                            return Err(err(lineno, format!("unknown neigh_modify key '{other}'")))
                        }
                        None => break,
                    }
                }
            }
            "fix" => {
                // fix <id> <group> nve | fix <id> <group> balance N <thresh> rcb
                match tokens.get(3) {
                    Some(&"nve") => st.fix_nve = true,
                    Some(&"balance") => {
                        if tokens.last() != Some(&"rcb") {
                            return Err(err(lineno, "only 'fix ... balance ... rcb' supported"));
                        }
                        let every: u64 = num(&tokens, 4, lineno, "fix balance interval")?;
                        if every == 0 {
                            return Err(err(lineno, "fix balance interval must be positive"));
                        }
                        st.balance_thresh = Some(balance_thresh(&tokens, 5, lineno)?);
                        st.rebalance_every = Some(every);
                        st.comm_style = Some(Decomp::Rcb);
                    }
                    _ => {
                        return Err(err(
                            lineno,
                            "only 'fix ... nve' and 'fix ... balance' supported",
                        ))
                    }
                }
            }
            "timestep" => {
                st.timestep = Some(num(&tokens, 1, lineno, "timestep")?);
            }
            "thermo" => {
                st.thermo_every = num(&tokens, 1, lineno, "thermo interval")?;
            }
            "thermo_style" | "thermo_modify" => st.ignored.push(line.to_string()),
            "comm_style" => {
                st.comm_style = Some(match tokens.get(1) {
                    Some(&"brick") => Decomp::Grid,
                    Some(&"tiled") => Decomp::Rcb,
                    other => return Err(err(lineno, format!("unsupported comm_style {other:?}"))),
                });
            }
            "comm_modify" => {
                let mut i = 1;
                while i < tokens.len() {
                    match tokens.get(i) {
                        Some(&"cutoff") => {
                            st.comm_cutoff = Some(num(&tokens, i + 1, lineno, "comm cutoff")?);
                            i += 2;
                        }
                        Some(other) => {
                            return Err(err(lineno, format!("unknown comm_modify key '{other}'")))
                        }
                        None => break,
                    }
                }
            }
            "balance" => {
                // balance <thresh> rcb — pairs with comm_style tiled.
                if tokens.last() != Some(&"rcb") {
                    return Err(err(lineno, "only 'balance ... rcb' supported"));
                }
                st.balance_thresh = Some(balance_thresh(&tokens, 1, lineno)?);
                st.comm_style = Some(Decomp::Rcb);
            }
            "restart" => {
                // restart N <file>
                let every: u64 = num(&tokens, 1, lineno, "restart interval")?;
                if every == 0 {
                    return Err(err(lineno, "restart interval must be positive"));
                }
                let file = *tokens
                    .get(2)
                    .ok_or_else(|| err(lineno, "restart needs a file name"))?;
                st.restart = Some((every, file.to_string()));
            }
            "read_restart" => {
                let file = *tokens
                    .get(1)
                    .ok_or_else(|| err(lineno, "read_restart needs a file name"))?;
                st.read_restart = Some(file.to_string());
            }
            "run" => {
                st.run_steps = Some(num(&tokens, 1, lineno, "step count")?);
            }
            other => return Err(err(lineno, format!("unsupported command '{other}'"))),
        }
    }
    finalize(st)
}

fn finalize(st: State) -> Result<ScriptRun, ScriptError> {
    // A resumed run takes its system from the checkpoint file, so the
    // setup commands (units/region/pair_style/fix nve) become optional —
    // only `run` itself is still required.
    if let Some(file) = st.read_restart {
        return Ok(ScriptRun {
            config: RunConfig::lj(4_000),
            steps: st
                .run_steps
                .ok_or_else(|| err(0, "script never issued 'run'"))?,
            thermo_every: st.thermo_every,
            restart: st.restart,
            read_restart: Some(file),
            ignored: st.ignored,
        });
    }
    let units = st.units.ok_or_else(|| err(0, "script never set units"))?;
    let (nx, ny, nz) = st
        .region_cells
        .ok_or_else(|| err(0, "script never defined a region"))?;
    let atoms_per_cell = match st.lattice_style.as_deref() {
        Some("diamond") => 8,
        _ => 4,
    };
    let natoms = [nx, ny, nz]
        .into_iter()
        .try_fold(atoms_per_cell, usize::checked_mul)
        .ok_or_else(|| {
            err(
                0,
                format!("region of {nx} x {ny} x {nz} cells is too large"),
            )
        })?;
    let style = st
        .pair_style
        .ok_or_else(|| err(0, "script never set pair_style"))?;
    if !st.fix_nve {
        return Err(err(0, "script never set fix nve"));
    }
    let kind = match (units.as_str(), style.as_str()) {
        ("lj", "lj/cut") => {
            let cutoff = st.pair_cutoff.unwrap_or(2.5);
            if (cutoff - 2.5).abs() < 1e-12 {
                PotentialKind::Lj
            } else {
                PotentialKind::LjLongCutoff {
                    cutoff,
                    full: false,
                }
            }
        }
        ("metal", "eam") => PotentialKind::Eam,
        ("metal", "sw") => PotentialKind::Sw,
        (u, s) => {
            return Err(err(
                0,
                format!("units '{u}' with pair_style '{s}' unsupported"),
            ))
        }
    };
    let base = match kind {
        PotentialKind::Eam => RunConfig::eam(natoms),
        PotentialKind::Sw => RunConfig::sw(natoms),
        _ => RunConfig::lj(natoms),
    };
    let config = RunConfig {
        kind,
        natoms_target: natoms,
        temperature: st.temperature.unwrap_or(base.temperature),
        seed: st.seed.unwrap_or(base.seed),
        comm: CommTuning {
            decomp: st.comm_style.unwrap_or_default(),
            ghost_cutoff: st.comm_cutoff,
            balance_thresh: st.balance_thresh,
            rebalance_every: st.rebalance_every,
            ..CommTuning::default()
        },
        kernel: base.kernel,
    };
    // Cross-validate script values against the Table-2 constants baked
    // into RunConfig: the fidelity contract is that scripts *match* the
    // benchmarks, so mismatches are reported, not silently applied.
    let lattice = config.lattice();
    if let Some(style) = st.lattice_style {
        let want = if config.atoms_per_cell() == 8 {
            "diamond"
        } else {
            "fcc"
        };
        if style != want {
            return Err(err(
                0,
                format!("lattice {style} differs from the Table-2 lattice {want}"),
            ));
        }
    }
    if let Some(value) = st.lattice_value {
        // LAMMPS reads the value as a reduced density under `units lj` and
        // as the cell edge under `units metal`.
        let want = if units == "lj" {
            config.density()
        } else {
            lattice.cell
        };
        if !within(value - want, 1e-9) {
            return Err(err(
                0,
                format!("lattice value {value} differs from the Table-2 value {want}"),
            ));
        }
    }
    if let Some(skin) = st.skin {
        if !within(skin - config.skin(), 1e-9) {
            return Err(err(
                0,
                format!(
                    "skin {skin} differs from the Table-2 value {}",
                    config.skin()
                ),
            ));
        }
    }
    if let Some(ts) = st.timestep {
        if !within(ts - config.timestep(), 1e-12) {
            return Err(err(
                0,
                format!("timestep {ts} differs from Table 2's 0.005"),
            ));
        }
    }
    if let (Some(every), want) = (st.neigh_every, config.policy()) {
        let check = st.neigh_check.unwrap_or(want.check);
        let got = RebuildPolicy { every, check };
        if got != want {
            return Err(err(
                0,
                format!("neigh_modify {got:?} differs from the Table-2 policy {want:?}"),
            ));
        }
    }
    Ok(ScriptRun {
        config,
        steps: st
            .run_steps
            .ok_or_else(|| err(0, "script never issued 'run'"))?,
        thermo_every: st.thermo_every,
        restart: st.restart,
        read_restart: None,
        ignored: st.ignored,
    })
}

/// The artifact's LJ benchmark input (65K-atom scale: 16^3 FCC cells x 4
/// won't reach 65K, so the standard 32x32x16 block is used; pass other
/// region sizes for the 1.7M / 4.2M workloads).
pub const IN_THREADPOOL_LJ: &str = r"# 3d Lennard-Jones melt (paper artifact: in.threadpool.lj)
units           lj
atom_style      atomic
lattice         fcc 0.8442
region          box block 0 32 0 32 0 16
create_box      1 box
create_atoms    1 box
mass            1 1.0
velocity        all create 1.44 87287
pair_style      lj/cut 2.5
pair_coeff      1 1 1.0 1.0
neighbor        0.3 bin
neigh_modify    delay 0 every 20 check no
fix             1 all nve
thermo          100
timestep        0.005
run             99
";

/// The artifact's EAM benchmark input.
pub const IN_THREADPOOL_EAM: &str = r"# Cu EAM benchmark (paper artifact: in.threadpool.eam)
units           metal
atom_style      atomic
lattice         fcc 3.615
region          box block 0 32 0 32 0 16
create_box      1 box
create_atoms    1 box
pair_style      eam
pair_coeff      1 1 Cu_u3.eam
velocity        all create 1600 376847
neighbor        1.0 bin
neigh_modify    every 5 check yes
fix             1 all nve
thermo          100
timestep        0.005
run             99
";

#[cfg(test)]
mod tests {
    use super::*;
    use tofumd_md::units::UnitSystem;

    #[test]
    fn parses_the_artifact_lj_script() {
        let run = parse_script(IN_THREADPOOL_LJ).expect("parse");
        assert_eq!(run.config.kind, PotentialKind::Lj);
        assert_eq!(run.config.natoms_target, 4 * 32 * 32 * 16);
        assert_eq!(run.config.temperature, 1.44);
        assert_eq!(run.config.seed, 87287);
        assert_eq!(run.steps, 99);
        assert_eq!(run.thermo_every, 100);
        assert_eq!(run.config.units(), UnitSystem::Lj);
    }

    #[test]
    fn parses_the_artifact_eam_script() {
        let run = parse_script(IN_THREADPOOL_EAM).expect("parse");
        assert_eq!(run.config.kind, PotentialKind::Eam);
        assert_eq!(run.config.temperature, 1600.0);
        assert_eq!(run.config.units(), UnitSystem::Metal);
        assert_eq!(run.config.policy(), RebuildPolicy::EAM);
    }

    #[test]
    fn silicon_sw_script_parses() {
        let s = "units metal\nlattice diamond 5.431\nregion b block 0 4 0 4 0 4\ncreate_box 1 b\ncreate_atoms 1 b\npair_style sw\npair_coeff 1 1 Si.sw\nvelocity all create 1000 77\nneighbor 1.0 bin\nfix 1 all nve\ntimestep 0.005\nrun 50\n";
        let run = parse_script(s).expect("parse");
        assert_eq!(run.config.kind, PotentialKind::Sw);
        assert_eq!(run.config.natoms_target, 8 * 64, "diamond: 8 atoms/cell");
        assert_eq!(run.config.temperature, 1000.0);
        assert_eq!(run.steps, 50);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let s = "# a comment\n\nunits lj # trailing\nlattice fcc 0.8442\nregion b block 0 4 0 4 0 4\ncreate_box 1 b\ncreate_atoms 1 b\npair_style lj/cut 2.5\nfix 1 all nve\nrun 10\n";
        let run = parse_script(s).expect("parse");
        assert_eq!(run.config.natoms_target, 256);
        assert_eq!(run.steps, 10);
    }

    #[test]
    fn long_cutoff_maps_to_extended_regime() {
        let s = IN_THREADPOOL_LJ.replace("lj/cut 2.5", "lj/cut 5.0");
        let run = parse_script(&s).expect("parse");
        assert_eq!(
            run.config.kind,
            PotentialKind::LjLongCutoff {
                cutoff: 5.0,
                full: false
            }
        );
    }

    #[test]
    fn unknown_command_errors_with_line_number() {
        let e = parse_script("units lj\nmagic_wand now\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("magic_wand"));
    }

    #[test]
    fn missing_run_is_rejected() {
        let s = "units lj\nlattice fcc 0.8442\nregion b block 0 4 0 4 0 4\npair_style lj/cut 2.5\nfix 1 all nve\n";
        let e = parse_script(s).unwrap_err();
        assert!(e.message.contains("run"));
    }

    #[test]
    fn table2_mismatches_are_rejected() {
        let s = IN_THREADPOOL_LJ.replace("neighbor        0.3 bin", "neighbor 0.7 bin");
        let e = parse_script(&s).unwrap_err();
        assert!(e.message.contains("skin"), "{e}");
        let s = IN_THREADPOOL_LJ.replace("timestep        0.005", "timestep 0.01");
        let e = parse_script(&s).unwrap_err();
        assert!(e.message.contains("timestep"), "{e}");
    }

    #[test]
    fn balance_threshold_reaches_the_config() {
        let s = IN_THREADPOOL_LJ.replace(
            "fix             1 all nve",
            "comm_style tiled\nbalance 1.2 rcb\nfix 1 all nve",
        );
        let run = parse_script(&s).expect("parse");
        assert_eq!(run.config.comm.decomp, Decomp::Rcb);
        assert_eq!(run.config.comm.balance_thresh, Some(1.2));
        assert_eq!(run.config.comm.rebalance_every, None, "one-shot balance");
    }

    #[test]
    fn fix_balance_sets_interval_and_threshold() {
        let s = IN_THREADPOOL_LJ.replace(
            "fix             1 all nve",
            "fix 1 all nve\nfix 2 all balance 25 1.1 rcb",
        );
        let run = parse_script(&s).expect("parse");
        assert_eq!(run.config.comm.decomp, Decomp::Rcb);
        assert_eq!(run.config.comm.balance_thresh, Some(1.1));
        assert_eq!(run.config.comm.rebalance_every, Some(25));
    }

    #[test]
    fn bad_balance_thresholds_are_rejected_with_line_numbers() {
        // Non-numeric threshold: previously silently accepted.
        let e = parse_script("units lj\nbalance garbage rcb\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("garbage"), "{e}");
        // Non-positive and non-finite thresholds.
        for bad in ["0", "-1.5", "nan", "inf"] {
            let e = parse_script(&format!("units lj\nbalance {bad} rcb\n")).unwrap_err();
            assert_eq!(e.line, 2, "threshold '{bad}' must fail on its line");
            assert!(e.message.contains("balance threshold must be"), "{e}");
        }
        // A missing threshold (`balance rcb`) no longer slips through.
        let e = parse_script("units lj\nbalance rcb\n").unwrap_err();
        assert_eq!(e.line, 2);
        // fix balance validates its interval too.
        let e = parse_script("units lj\nfix 2 all balance 0 1.2 rcb\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("interval"), "{e}");
        let e = parse_script("units lj\nfix 2 all balance 10 bogus rcb\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"), "{e}");
    }

    #[test]
    fn restart_command_reaches_the_run() {
        let s = IN_THREADPOOL_LJ.replace(
            "fix             1 all nve",
            "restart 50 lj.restart\nfix 1 all nve",
        );
        let run = parse_script(&s).expect("parse");
        assert_eq!(run.restart, Some((50, "lj.restart".to_string())));
        assert_eq!(run.read_restart, None);
    }

    #[test]
    fn read_restart_needs_no_setup_commands() {
        let run = parse_script("read_restart lj.restart\nthermo 10\nrun 25\n").expect("parse");
        assert_eq!(run.read_restart, Some("lj.restart".to_string()));
        assert_eq!(run.steps, 25);
        assert_eq!(run.thermo_every, 10);
        // `run` stays mandatory even for a resumed script.
        let e = parse_script("read_restart lj.restart\n").unwrap_err();
        assert!(e.message.contains("run"), "{e}");
    }

    #[test]
    fn bad_restart_commands_fail_with_line_numbers() {
        let e = parse_script("units lj\nrestart 0 x.restart\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("positive"), "{e}");
        let e = parse_script("units lj\nrestart 50\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("file"), "{e}");
        let e = parse_script("units lj\nrestart soon x.restart\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("interval"), "{e}");
        let e = parse_script("units lj\nread_restart\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("file"), "{e}");
    }

    #[test]
    fn bad_pair_style_is_rejected() {
        let e = parse_script("units lj\npair_style reaxff\n").unwrap_err();
        assert!(e.message.contains("reaxff"));
    }

    #[test]
    fn the_committed_inputs_parse() {
        for text in [
            include_str!("../../../inputs/in.threadpool.lj"),
            include_str!("../../../inputs/in.threadpool.eam"),
            include_str!("../../../inputs/in.silicon.sw"),
        ] {
            parse_script(text).expect("a committed input parses");
        }
    }

    #[test]
    fn negative_temperature_is_rejected() {
        let s = IN_THREADPOOL_LJ.replace("create 1.44", "create -1.44");
        let e = parse_script(&s).unwrap_err();
        assert_eq!(e.line, 9);
        assert!(e.message.contains("temperature"), "{e}");
    }

    #[test]
    fn non_finite_numbers_are_rejected_with_line_numbers() {
        for (from, to, line) in [
            ("create 1.44", "create nan", 9),
            ("create 1.44", "create inf", 9),
            ("0.3 bin", "nan bin", 12),
            ("timestep        0.005", "timestep NaN", 16),
            ("lj/cut 2.5", "lj/cut -inf", 10),
        ] {
            let e = parse_script(&IN_THREADPOOL_LJ.replace(from, to)).unwrap_err();
            assert_eq!(e.line, line, "{to}: {e}");
            assert!(e.message.contains("finite"), "{e}");
        }
    }

    #[test]
    fn lattice_must_match_table2() {
        for (from, to) in [("fcc 0.8442", "fcc 0.5"), ("fcc 0.8442", "diamond 0.8442")] {
            let e = parse_script(&IN_THREADPOOL_LJ.replace(from, to)).unwrap_err();
            assert!(e.message.contains("lattice"), "{to}: {e}");
        }
        let e = parse_script(&IN_THREADPOOL_EAM.replace("fcc 3.615", "fcc 3.6")).unwrap_err();
        assert!(e.message.contains("lattice value"), "{e}");
    }

    #[test]
    fn huge_region_is_an_error_not_an_overflow() {
        let s = IN_THREADPOOL_LJ.replace("block 0 32 0 32 0 16", "block 0 1e30 0 1e30 0 1e30");
        let e = parse_script(&s).unwrap_err();
        assert!(e.message.contains("too large"), "{e}");
    }

    #[test]
    fn region_dims_define_atom_count() {
        let s = IN_THREADPOOL_LJ.replace("block 0 32 0 32 0 16", "block 0 64 0 64 0 64");
        let run = parse_script(&s).expect("parse");
        assert_eq!(run.config.natoms_target, 4 * 64 * 64 * 64);
    }
}
