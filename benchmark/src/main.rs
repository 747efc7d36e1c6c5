//! The tofumd benchmark (see `README.md` beside this package and
//! `BENCHMARK.json` at the repo root).
//!
//! ```text
//! tofumd-benchmark --workload W --seed N --seconds S --trace 0|1
//!     One pass of one workload. --trace 0 measures the end-to-end
//!     metrics untraced; --trace 1 measures the per-layer ones. The last
//!     line of stdout is the result object BENCHMARK.json describes.
//! tofumd-benchmark [--seed N] [--seconds S] [--out FILE]
//!     Every workload, both passes, each in a fresh child process;
//!     writes one result file (default benchmark/out/result.json).
//! tofumd-benchmark --compare A.json B.json
//! tofumd-benchmark --list
//! ```

mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Value;
use metrics::{Measured, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

/// Where span files, per-pass details and the default result file go
/// (relative to the repo root, where `run.sh` starts the binary).
const OUT_DIR: &str = "benchmark/out";

/// The measuring window when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Exit code for a bad command line or an unusable host.
const EXIT_USAGE: u8 = 2;

/// What `--list` prints: every workload and metric name, in
/// `BENCHMARK.json` order.
pub fn list_lines() -> Vec<String> {
    let mut out: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("workload {}", w.name))
        .collect();
    out.extend(END_TO_END.iter().map(|m| {
        format!(
            "end_to_end {} {} {} {}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        )
    }));
    out.extend(
        PER_LAYER
            .iter()
            .map(|m| format!("per_layer {} {} {}", m.name, m.unit, m.better.label())),
    );
    out
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    list: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        compare: None,
        list: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--compare" => {
                let a = PathBuf::from(value("two files")?);
                let b = PathBuf::from(value("two files")?);
                args.compare = Some((a, b));
            }
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `{name: {value, unit[, samples]}}`; the contract's result line takes
/// the form without samples.
fn metrics_value(metrics: &[Measured], with_samples: bool) -> Value {
    Value::obj(metrics.iter().map(|m| {
        let mut fields = vec![("value", Value::Num(m.value)), ("unit", Value::str(m.unit))];
        if with_samples && !m.samples.is_empty() {
            fields.push((
                "samples",
                Value::Arr(m.samples.iter().map(|s| Value::Num(*s)).collect()),
            ));
        }
        (m.name, Value::obj(fields))
    }))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn detail_path(workload: &str, trace: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{workload}.trace{}.json", u8::from(trace)))
}

/// One pass of one workload in this process.
fn single(w: &'static Workload, args: &Args) -> ExitCode {
    let nproc = host::nproc();
    let threads = w.threads_on(nproc);
    if let Err(e) = run::check_threads(threads, nproc) {
        eprintln!("{}: {e}", w.name);
        return ExitCode::from(EXIT_USAGE);
    }
    let outcome = if args.trace {
        let pool_threads = w.pool_threads_on(nproc);
        let (outcome, spans) = run::run_traced(w, args.seed, args.seconds, threads, pool_threads);
        let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", w.name));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("{} spans -> {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        outcome
    } else {
        run::run_untraced(w, args.seed, args.seconds, threads)
    };

    println!(
        "{} seed {} threads {} repeats {} ops {} failed {}",
        w.name, args.seed, outcome.threads, outcome.repeats, outcome.attempted, outcome.failed
    );
    for m in &outcome.metrics {
        println!("  {:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.extras {
        println!("  ({:<34}) {:>18.6} {}", m.name, m.value, m.unit);
    }
    for f in &outcome.failures {
        eprintln!("CHECK FAILED {}: {f}", w.name);
    }

    let detail = Value::obj([
        ("workload", Value::str(w.name)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("threads", Value::Num(outcome.threads as f64)),
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("repeats", Value::Num(outcome.repeats as f64)),
        (
            "failures",
            Value::Arr(outcome.failures.iter().map(Value::str).collect()),
        ),
        ("metrics", metrics_value(&outcome.metrics, true)),
        ("extras", metrics_value(&outcome.extras, true)),
    ]);
    let path = detail_path(w.name, args.trace);
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, detail.to_pretty()))
    {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }

    // The contract's result object, last on stdout.
    let result = Value::obj([
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", metrics_value(&outcome.metrics, false)),
    ]);
    println!("{}", result.to_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, both passes, each in a fresh child process of this
/// binary; gathers the per-pass detail files into one result file.
fn all(args: &Args) -> ExitCode {
    let nproc = host::nproc();
    let threads: Vec<(&str, usize)> = WORKLOADS
        .iter()
        .map(|w| (w.name, w.threads_on(nproc)))
        .collect();
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_correct = true;
    let mut entries = Vec::new();
    for w in WORKLOADS {
        let mut passes = Vec::new();
        for trace in [false, true] {
            let status = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("{} --trace {}: {s}", w.name, u8::from(trace));
                    all_correct = false;
                    if s.code() == Some(i32::from(EXIT_USAGE)) {
                        // No number was emitted; there is nothing to gather.
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
                Err(e) => {
                    eprintln!("cannot start {}: {e}", exe.display());
                    return ExitCode::FAILURE;
                }
            }
            match read_json(&detail_path(w.name, trace)) {
                Ok(v) => passes.push(v),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let (plain, traced) = (&passes[0], &passes[1]);
        let field = |v: &Value, k: &str| v.get(k).cloned().unwrap_or(Value::Null);
        entries.push(Value::obj([
            ("name", Value::str(w.name)),
            ("why", Value::str(w.why)),
            ("threads", field(plain, "threads")),
            ("correct", field(plain, "correct")),
            ("ops_attempted", field(plain, "attempted")),
            ("ops_failed", field(plain, "failed")),
            ("repeats", field(plain, "repeats")),
            ("failures", field(plain, "failures")),
            ("end_to_end", field(plain, "metrics")),
            ("extras", field(plain, "extras")),
            (
                "traced",
                Value::obj([
                    ("correct", field(traced, "correct")),
                    ("ops_attempted", field(traced, "attempted")),
                    ("ops_failed", field(traced, "failed")),
                    ("failures", field(traced, "failures")),
                ]),
            ),
            ("per_layer", field(traced, "metrics")),
        ]));
    }
    let result = Value::obj([
        ("schema", Value::str("tofumd-benchmark-result/1")),
        ("host", host::header(&threads)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("workloads", Value::Arr(entries)),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("result.json"));
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, result.to_pretty()));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({})",
        out.display(),
        if all_correct {
            "every check passed"
        } else {
            "CHECKS FAILED"
        }
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(a: &Path, b: &Path) -> ExitCode {
    let outcome =
        read_json(a).and_then(|va| read_json(b).and_then(|vb| compare::compare(&va, &vb)));
    match outcome {
        Ok((lines, regressed)) => {
            println!("A = {}\nB = {}", a.display(), b.display());
            for l in lines {
                println!("{l}");
            }
            if regressed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nsee the usage at the top of benchmark/src/main.rs or benchmark/README.md"
            );
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if args.list {
        for l in list_lines() {
            println!("{l}");
        }
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return compare_files(a, b);
    }
    match &args.workload {
        None => all(&args),
        Some(name) => match workloads::find(name) {
            Some(w) => single(w, &args),
            None => {
                eprintln!("unknown workload {name:?}; --list names them");
                ExitCode::from(EXIT_USAGE)
            }
        },
    }
}
