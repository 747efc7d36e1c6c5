//! The host header of a result: what machine, toolchain and commit the
//! numbers belong to. A host-time number without it is not a baseline.

use crate::json::Value;
use std::process::Command;

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `-C target-cpu=…` out of the build's rustflags.
fn target_cpu(rustflags: &str) -> String {
    let mut words = rustflags.split_whitespace();
    while let Some(w) = words.next() {
        let arg = match w {
            "-C" => words.next().unwrap_or(""),
            w => w.strip_prefix("-C").unwrap_or(""),
        };
        if let Some(cpu) = arg.strip_prefix("target-cpu=") {
            return cpu.to_owned();
        }
    }
    "default".into()
}

/// The checked-out commit, or "unknown" outside a git work tree (the
/// acceptance driver runs from a plain copy of the files).
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_owned())
}

/// The header object; `driver_threads` maps workload name → threads.
pub fn header(driver_threads: &[(&str, usize)]) -> Value {
    let rustflags = env!("BENCH_RUSTFLAGS");
    Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::str(cpu_model())),
        ("rustc", Value::str(env!("BENCH_RUSTC_VERSION"))),
        ("rustflags", Value::str(rustflags)),
        ("target_cpu", Value::str(target_cpu(rustflags))),
        ("commit", Value::str(commit())),
        (
            "driver_threads",
            Value::obj(
                driver_threads
                    .iter()
                    .map(|(w, t)| (*w, Value::Num(*t as f64))),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_cpu_is_read_from_either_flag_spelling() {
        assert_eq!(target_cpu("-C target-cpu=x86-64-v3"), "x86-64-v3");
        assert_eq!(target_cpu("-Copt-level=3 -Ctarget-cpu=native"), "native");
        assert_eq!(target_cpu("-C debuginfo=1"), "default");
        assert_eq!(target_cpu(""), "default");
    }
}
