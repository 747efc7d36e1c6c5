//! The command table and the one argument parser of `tofumd-bench`.
//!
//! Every command is one row of [`COMMANDS`]: its name, the flags it reads,
//! the values it runs at when a flag is absent, and what it runs.
//! [`parse`] is the only place an argument is interpreted: a flag nobody
//! knows, a flag the chosen command does not declare, a missing or a
//! malformed value are all a [`UsageError`], never a silent default.

use crate::{reports, tools};
use std::fmt;
use std::process::ExitCode;
use tofumd_runtime::CommVariant;

/// A command-line flag. These nine are the whole flag surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--steps N`: timesteps to run.
    Steps,
    /// `--iters N`: exchange (or parallel-region) iterations to time.
    Iters,
    /// `--atoms N`: global atom count.
    Atoms,
    /// `--msgs N`: messages per rank per size.
    Msgs,
    /// `--threads N`: host threads driving the simulated ranks.
    Threads,
    /// `--variant LABEL`: `bisect`'s side A.
    Variant,
    /// `--against ref|serial|LABEL`: `bisect`'s side B.
    Against,
    /// `--tol X`: `bisect`'s absolute per-component tolerance.
    Tol,
    /// `--fault-seed N`: seeded recoverable fault plan on `bisect`'s side A.
    FaultSeed,
}

use Flag::{Against, Atoms, FaultSeed, Iters, Msgs, Steps, Threads, Tol, Variant};
use Run::{Report, Tool};

impl Flag {
    const ALL: [Flag; 9] = [
        Steps, Iters, Atoms, Msgs, Threads, Variant, Against, Tol, FaultSeed,
    ];

    /// The flag as typed.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Steps => "--steps",
            Iters => "--iters",
            Atoms => "--atoms",
            Msgs => "--msgs",
            Threads => "--threads",
            Variant => "--variant",
            Against => "--against",
            Tol => "--tol",
            FaultSeed => "--fault-seed",
        }
    }
}

/// Typed arguments: a command's defaults overlaid with the flags given.
/// A field whose flag a command does not declare is never read by it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opts {
    /// Timesteps to run.
    pub steps: u64,
    /// Iterations to time.
    pub iters: u64,
    /// Global atom count.
    pub atoms: usize,
    /// Messages per rank per size.
    pub msgs: usize,
    /// Host threads driving the simulated ranks; `None` is every host
    /// core. Never changes what a report prints.
    pub threads: Option<usize>,
    /// `bisect`'s side A.
    pub variant: CommVariant,
    /// `bisect`'s side B; `None` is the serial twin.
    pub against: Option<CommVariant>,
    /// `bisect`'s tolerance.
    pub tol: f64,
    /// `bisect`'s fault-plan seed.
    pub fault_seed: Option<u64>,
}

/// What every command's defaults start from.
const BASE: Opts = Opts {
    steps: 0,
    iters: 0,
    atoms: 0,
    msgs: 0,
    threads: None,
    variant: CommVariant::Opt,
    against: Some(CommVariant::Ref),
    tol: 1e-7,
    fault_seed: None,
};

impl Opts {
    /// The host thread count to drive ranks with (at least 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
            .max(1)
    }

    fn set(&mut self, flag: Flag, value: &str) -> Result<(), UsageError> {
        const LABELS: &str = "one of ref, mpi-p2p, utofu-3stage, 4tni-p2p, 6tni-p2p, opt";
        fn num<T: std::str::FromStr>(flag: Flag, value: &str) -> Result<T, UsageError> {
            let bad = |_| UsageError::BadValue(flag, value.to_string(), "a valid number");
            value.parse().map_err(bad)
        }
        let label = || {
            let bad = || UsageError::BadValue(flag, value.to_string(), LABELS);
            CommVariant::from_label(value).ok_or_else(bad)
        };
        match flag {
            Steps => self.steps = num(flag, value)?,
            Iters => self.iters = num(flag, value)?,
            Atoms => self.atoms = num(flag, value)?,
            Msgs => self.msgs = num(flag, value)?,
            Threads => self.threads = Some(num(flag, value)?),
            Variant => self.variant = label()?,
            Against if value == "serial" => self.against = None,
            Against => self.against = Some(label()?),
            Tol => self.tol = num(flag, value)?,
            FaultSeed => self.fault_seed = Some(num(flag, value)?),
        }
        Ok(())
    }

    /// The value of `flag` as the usage text shows it.
    fn show(&self, flag: Flag) -> String {
        match flag {
            Steps => self.steps.to_string(),
            Iters => self.iters.to_string(),
            Atoms => self.atoms.to_string(),
            Msgs => self.msgs.to_string(),
            Threads => self.threads.map_or("cores".into(), |t| t.to_string()),
            Variant => self.variant.label().into(),
            Against => self.against.map_or("serial", CommVariant::label).into(),
            Tol => format!("{:e}", self.tol),
            FaultSeed => self.fault_seed.map_or("none".into(), |s| s.to_string()),
        }
    }
}

/// What a command runs.
#[derive(Clone, Copy)]
pub enum Run {
    /// A deterministic report: the text `reproduce` commits as
    /// `results/<name>.txt`, and its readings of the paper's claims.
    Report(fn(&Opts) -> crate::claims::Report),
    /// Anything else; prints for itself and returns the exit code.
    Tool(fn(&Opts) -> ExitCode),
}

/// One row of the command table.
pub struct Command {
    /// The subcommand as typed.
    pub name: &'static str,
    /// One line for the usage text.
    pub about: &'static str,
    /// The flags it reads; any other flag is a usage error.
    pub flags: &'static [Flag],
    /// The values it runs at when a flag is absent.
    pub defaults: Opts,
    /// What it runs.
    pub run: Run,
}

const fn cmd(
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    defaults: Opts,
    run: Run,
) -> Command {
    Command {
        name,
        about,
        flags,
        defaults,
        run,
    }
}

const STEPS_99: Opts = Opts {
    steps: crate::PAPER_STEPS,
    ..BASE
};

/// Every command of the program, reports in paper order.
#[rustfmt::skip]
pub const COMMANDS: [Command; 18] = [
    cmd("table1", "Table 1: communication pattern analysis", &[], BASE, Report(reports::table1)),
    cmd("equations", "Eqs. (3)-(8): analytic pattern times", &[], BASE, Report(reports::equations)),
    cmd("fig06", "Fig. 6: exchange transmission time, 768 nodes",
        &[Iters, Threads], Opts { iters: 2000, ..BASE }, Report(reports::fig06)),
    cmd("fig07", "Fig. 7: TNI / CQ / VCQ binding schemes", &[], BASE, Report(reports::fig07)),
    cmd("fig08", "Fig. 8: one-node message rate and bandwidth vs size",
        &[Msgs], Opts { msgs: 200, ..BASE }, Report(reports::fig08)),
    cmd("fig11", "Fig. 11: pressure accuracy, reference vs optimized",
        &[Steps, Atoms, Threads], Opts { steps: 400, atoms: 4000, ..BASE }, Report(reports::fig11)),
    cmd("fig12", "Fig. 12: step-by-step optimization, 768 nodes",
        &[Steps, Threads], STEPS_99, Report(reports::fig12)),
    cmd("fig13", "Fig. 13: strong scaling, 768 to 36,864 nodes",
        &[Steps, Threads], STEPS_99, Report(reports::fig13)),
    cmd("table3", "Table 3: stage breakdown at 36,864 nodes",
        &[Steps, Threads], STEPS_99, Report(reports::table3)),
    cmd("fig14", "Fig. 14: weak scaling (analytic path)", &[], BASE, Report(reports::fig14)),
    cmd("fig15", "Fig. 15: 26/62/124-message exchanges",
        &[Iters, Threads], Opts { iters: 500, ..BASE }, Report(reports::fig15)),
    cmd("ablations", "per-optimization ablations (DESIGN.md §5)",
        &[Iters, Threads], Opts { iters: 300, ..BASE }, Report(reports::ablations)),
    cmd("sensitivity", "headline speedup vs each calibrated constant", &[], BASE, Report(reports::sensitivity)),
    cmd("congestion", "§3.1 no-blocking assumption under link congestion", &[], BASE, Report(reports::congestion)),
    cmd("trace", "per-step virtual-time trace, ref vs opt",
        &[Steps, Threads], Opts { steps: 40, ..BASE }, Report(reports::trace)),
    cmd("overheads", "§3.3 region overheads and §3.4 registered bytes on this host (not committed)",
        &[Threads, Iters], Opts { threads: Some(4), iters: 2000, ..BASE }, Tool(tools::overheads)),
    cmd("bisect", "lockstep divergence bisector (exit 0 clean / 1 divergent)",
        &[Variant, Against, Steps, Atoms, Tol, Threads, FaultSeed],
        Opts { steps: 30, atoms: 6000, ..BASE }, Tool(tools::bisect)),
    cmd("reproduce", "write every report at its defaults to results/<name>.txt",
        &[Threads], BASE, Tool(tools::reproduce)),
];

/// The deterministic reports of [`COMMANDS`] — what `reproduce` writes.
pub fn reports() -> impl Iterator<Item = (&'static Command, fn(&Opts) -> crate::claims::Report)> {
    COMMANDS.iter().filter_map(|c| match c.run {
        Report(run) => Some((c, run)),
        Tool(_) => None,
    })
}

/// Why the arguments were rejected (exit code 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// No command was named.
    NoCommand,
    /// The first argument names no command.
    UnknownCommand(String),
    /// An argument is none of the nine flags.
    UnknownFlag(String),
    /// A flag the named command does not read.
    Undeclared(Flag, &'static str),
    /// A flag at the end of the line.
    MissingValue(Flag),
    /// A flag, the value given for it and what it should have been.
    BadValue(Flag, String, &'static str),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::NoCommand => write!(f, "no command given"),
            UsageError::UnknownCommand(c) => write!(f, "unknown command {c:?}"),
            UsageError::UnknownFlag(a) => write!(f, "unknown flag {a:?}"),
            UsageError::Undeclared(flag, command) => {
                write!(f, "{command} does not read {}", flag.name())
            }
            UsageError::MissingValue(flag) => write!(f, "{} requires a value", flag.name()),
            UsageError::BadValue(flag, value, want) => {
                write!(f, "{} {value:?} is not {want}", flag.name())
            }
        }
    }
}

/// Interpret the arguments after the program name: the command and its
/// defaults overlaid with every `--flag value` pair (the last one wins).
///
/// # Errors
/// Any argument that is not understood; nothing is ignored.
pub fn parse(args: &[String]) -> Result<(&'static Command, Opts), UsageError> {
    let (name, rest) = args.split_first().ok_or(UsageError::NoCommand)?;
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| UsageError::UnknownCommand(name.clone()))?;
    let mut opts = command.defaults;
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        let flag = Flag::ALL
            .into_iter()
            .find(|f| f.name() == arg)
            .ok_or_else(|| UsageError::UnknownFlag(arg.clone()))?;
        if !command.flags.contains(&flag) {
            return Err(UsageError::Undeclared(flag, command.name));
        }
        let value = rest.next().ok_or(UsageError::MissingValue(flag))?;
        opts.set(flag, value)?;
    }
    Ok((command, opts))
}

/// The usage text: every command with its flags at their defaults.
#[must_use]
pub fn usage() -> String {
    let mut out = String::from("usage: tofumd-bench <command> [--flag value]...\n\ncommands:\n");
    for c in &COMMANDS {
        out += &format!("  {:<12}{}\n", c.name, c.about);
        if !c.flags.is_empty() {
            let flags: Vec<String> = c
                .flags
                .iter()
                .map(|&f| format!("[{} {}]", f.name(), c.defaults.show(f)))
                .collect();
            out += &format!("  {:<12}  {}\n", "", flags.join(" "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<(&'static Command, Opts), UsageError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    fn defaults_of(name: &str) -> Opts {
        parse_line(name).unwrap().1
    }

    #[test]
    fn defaults_are_the_paper_runs() {
        assert_eq!(defaults_of("fig06").iters, 2000);
        assert_eq!(defaults_of("fig15").iters, 500);
        assert_eq!(defaults_of("ablations").iters, 300);
        for name in ["fig12", "fig13", "table3"] {
            assert_eq!(defaults_of(name).steps, 99);
        }
        assert_eq!(defaults_of("trace").steps, 40);
        assert_eq!(defaults_of("fig08").msgs, 200);
        let fig11 = defaults_of("fig11");
        assert_eq!((fig11.steps, fig11.atoms), (400, 4000));
        assert_eq!(defaults_of("overheads").threads, Some(4));
        let bisect = defaults_of("bisect");
        assert_eq!((bisect.steps, bisect.atoms, bisect.tol), (30, 6000, 1e-7));
        assert_eq!(bisect.variant, CommVariant::Opt);
        assert_eq!(bisect.against, Some(CommVariant::Ref));
        assert_eq!((bisect.fault_seed, bisect.threads), (None, None));
    }

    #[test]
    fn flags_overlay_the_defaults() {
        let (c, o) = parse_line(
            "bisect --variant 4tni-p2p --against serial --steps 8 --tol 0 --fault-seed 99 --threads 0",
        )
        .unwrap();
        assert_eq!(c.name, "bisect");
        assert_eq!(o.variant, CommVariant::Utofu4TniP2p);
        assert_eq!((o.against, o.steps, o.tol), (None, 8, 0.0));
        assert_eq!((o.fault_seed, o.atoms), (Some(99), 6000));
        assert_eq!(o.threads(), 1, "zero threads still drives the ranks");
        let (_, o) = parse_line("trace --steps 3 --steps 5").unwrap();
        assert_eq!(o.steps, 5);
    }

    #[test]
    fn nothing_is_silently_ignored() {
        use UsageError::*;
        assert_eq!(parse_line("").err(), Some(NoCommand));
        assert_eq!(
            parse_line("fig99").err(),
            Some(UnknownCommand("fig99".into()))
        );
        assert_eq!(
            parse_line("trace --step 5").err(),
            Some(UnknownFlag("--step".into()))
        );
        assert_eq!(parse_line("trace 5").err(), Some(UnknownFlag("5".into())));
        assert_eq!(parse_line("trace --steps").err(), Some(MissingValue(Steps)));
        for bad in ["abc", "-1", "1.5", ""] {
            let args = ["trace".to_string(), "--steps".to_string(), bad.to_string()];
            assert!(matches!(parse(&args), Err(BadValue(Steps, ..))), "{bad:?}");
        }
        assert!(matches!(
            parse_line("bisect --variant fastest"),
            Err(BadValue(Variant, ..))
        ));
        // A flag the parser knows but the command does not read.
        assert_eq!(
            parse_line("trace --iters 5").err(),
            Some(Undeclared(Iters, "trace"))
        );
        assert!(matches!(
            parse_line("equations --threads 2"),
            Err(Undeclared(Threads, _))
        ));
    }

    #[test]
    fn table_names_are_unique_and_usage_lists_them_all() {
        let text = usage();
        for (i, c) in COMMANDS.iter().enumerate() {
            assert!(COMMANDS[..i].iter().all(|d| d.name != c.name), "{}", c.name);
            assert!(text.contains(c.name));
        }
        assert!(text.contains("[--iters 2000] [--threads cores]"));
    }
}
