//! `tofumd-bench <command> [--flag value]...` — see `tofumd_bench::cli`.
//! Exit codes: 0 done (`bisect`: clean), 1 failed (`bisect`: divergent),
//! 2 usage error.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;
use tofumd_bench::cli::{self, Run};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Ok((command, opts)) => match command.run {
            Run::Report(report) => {
                print!("{}", report(&opts));
                ExitCode::SUCCESS
            }
            Run::Tool(tool) => tool(&opts),
        },
        Err(e) => {
            eprintln!("tofumd-bench: {e}\n\n{}", cli::usage());
            ExitCode::from(2)
        }
    }
}
