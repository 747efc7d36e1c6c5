//! The tree's structural rules, one row each in [`RULES`].
//!
//! The paper's design space (two patterns × two transports, §3.2–§3.4) is
//! written once, and these rules keep it so: names that must not come
//! back, structural counts, line caps, the `unsafe` ledger, the vendored
//! crates and the declared dependencies, the unwrap/expect lint line and
//! dead `pub` items. They read the tracked files (`git ls-files`), so the
//! plain `cargo test` that gates every change runs them.
//!
//! A row is a scope (file globs, exclusions, whole files or only the
//! non-test lines before a file's first `#[cfg(test)]`), a check with its
//! bound, a one-line reason and a minimal in-memory sample the check must
//! flag. `tree_rules_hold` prints every hit as `file:line: text` under its
//! row's reason; `every_rule_bites` runs each row on its sample alone.
//!
//! This file spells every refused name, so every scan skips it.

use std::collections::{BTreeSet, HashMap};
use std::ops::RangeInclusive;
use std::process::Command;

/// This file: it names everything it refuses.
const SELF: &str = "tests/tree_rules.rs";

/// The crate-root lint line of every library crate.
const LIB_LINT: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]";
/// The crate-root lint line of every binary and example.
const BIN_LINT: &str = "#![deny(clippy::unwrap_used, clippy::expect_used)]";

/// Which lines of a file a rule reads.
#[derive(Clone, Copy)]
enum Part {
    Whole,
    /// The lines before the file's first `#[cfg(test)]` at column 0.
    NonTest,
}

struct Scope {
    /// Globs over tracked paths; `*` matches any run of characters,
    /// `/` included.
    files: &'static [&'static str],
    skip: &'static [&'static str],
    part: Part,
}

enum Check {
    /// No line contains any of the names (a leading `^` anchors a name
    /// at the line's first non-blank character).
    Refuse(&'static [&'static str]),
    /// As `Refuse`, ignoring ASCII case (names written in lower case).
    RefuseAnyCase(&'static [&'static str]),
    /// The number of lines containing the pattern.
    Count(&'static str, RangeInclusive<usize>),
    /// At most this many lines in the scope.
    Cap(usize),
    /// Every `unsafe` line (comments aside) has a `SAFETY:` line, and
    /// there are at most this many.
    Unsafe(usize),
    /// Every file of the scope has this line.
    Require(&'static str),
    /// The names directly below the scope's directory are exactly these.
    Entries(&'static [&'static str]),
    /// Every `[dependencies]` entry of a manifest is named (`<crate>::` or
    /// `use <crate>`) in its package's `src/`; `[dev-dependencies]` may
    /// also be named in `tests/` or `examples/`.
    Deps,
    /// A `pub` item declared in the scope's non-test lines is dead when no
    /// other tracked `.rs` file names it and its own file names it only in
    /// the declaration or in tests. The list holds the dead items allowed
    /// to stay (oracles of their own tests); an entry that is no longer
    /// dead must go.
    DeadPub(&'static [&'static str]),
}

struct Rule {
    scope: Scope,
    check: Check,
    why: &'static str,
    /// Files the check must flag on their own (a `Cap` row repeats its one
    /// line `cap + 1` times).
    sample: &'static [(&'static str, &'static str)],
}

const fn scope(files: &'static [&'static str], skip: &'static [&'static str], part: Part) -> Scope {
    Scope { files, skip, part }
}

const RS: &[&str] = &["*.rs"];
const RUNTIME: &[&str] = &["crates/runtime/src/*.rs"];
const CORE: &[&str] = &["crates/core/src/*.rs"];
const NONE: &[&str] = &[];
const RUNTIME_SAMPLE: &str = "crates/runtime/src/fake.rs";

const RULES: &[Rule] = &[
    Rule {
        scope: scope(&["*.rs", "*.toml"], &["vendor/*", "benchmark/*"], Part::Whole),
        check: Check::Refuse(&["serde", "parking_lot", "bytes::", "BytesMut", "barrier_cost"]),
        why: "the deleted vendored stubs and the dead `barrier_cost` stay gone (benchmark/ until its refresh)",
        sample: &[("crates/x/src/lib.rs", "use serde::Serialize;\n")],
    },
    Rule {
        scope: scope(&["vendor/*"], NONE, Part::Whole),
        check: Check::Entries(&["proptest"]),
        why: "vendor/ holds `proptest` (tests) and nothing else: the velocity draw owns its generator",
        sample: &[("vendor/proptest/Cargo.toml", ""), ("vendor/rand/Cargo.toml", "")],
    },
    Rule {
        scope: scope(&["Cargo.toml", "crates/*/Cargo.toml"], NONE, Part::Whole),
        check: Check::Deps,
        why: "every declared dependency is named in its package's sources",
        sample: &[
            ("crates/x/Cargo.toml", "[dependencies]\nrand.workspace = true\n"),
            ("crates/x/src/lib.rs", "pub fn f() {}\n"),
        ],
    },
    Rule {
        scope: scope(RS, NONE, Part::Whole),
        check: Check::Refuse(&["bisect_variants", "bisect_against_serial", "max_deltas"]),
        why: "one lockstep bisector: no thin wrappers, no per-divergence delta-cap option",
        sample: &[("src/x.rs", "pub use lockstep::bisect_variants;\n")],
    },
    Rule {
        scope: scope(&["crates/runtime/src/*.rs", "crates/bench/src/*.rs"], NONE, Part::NonTest),
        check: Check::Refuse(&["from_positions("]),
        why: "the runtime and the reports renumber no atoms: the one serial twin, \
              `Cluster::serial_twin`, keeps every tag, type and velocity",
        sample: &[("crates/bench/src/reports.rs", "let a = Atoms::from_positions(&x);\n")],
    },
    Rule {
        scope: scope(&["crates/runtime/src/cluster_checkpoint.rs"], NONE, Part::NonTest),
        check: Check::Refuse(&["build(", "build_lattice", "create_velocities", "RcbDecomposition::build"]),
        why: "a restore builds no system to throw away",
        sample: &[("crates/runtime/src/cluster_checkpoint.rs", "let c = Cluster::build(mesh);\n")],
    },
    Rule {
        // The driver defines the slice and `step_plan` calls it.
        scope: scope(RUNTIME, &["crates/runtime/src/driver.rs"], Part::NonTest),
        check: Check::Count("halo_and_pair(", 1..=1),
        why: "one settle seats every decomposition, and it replays a slice of the step plan",
        sample: &[(RUNTIME_SAMPLE, "halo_and_pair(&mut a, true);\nhalo_and_pair(&mut b, true);\n")],
    },
    Rule {
        scope: scope(RUNTIME, NONE, Part::NonTest),
        check: Check::Count("from_rcb", 1..=1),
        why: "one RCB star-forest construction",
        sample: &[(RUNTIME_SAMPLE, "CommGraph::from_rcb(a);\nCommGraph::from_rcb_parts(b);\n")],
    },
    Rule {
        scope: scope(RUNTIME, NONE, Part::NonTest),
        check: Check::Count("wrap_for_exchange(", 1..=1),
        why: "one re-cut wraps atoms for the exchange",
        sample: &[(RUNTIME_SAMPLE, "a.wrap_for_exchange(&b);\nc.wrap_for_exchange(&d);\n")],
    },
    Rule {
        scope: scope(RUNTIME, NONE, Part::NonTest),
        check: Check::Count("SerialSim::new(", 1..=1),
        why: "one serial twin, `Cluster::serial_twin`",
        sample: &[(RUNTIME_SAMPLE, "SerialSim::new(a);\nSerialSim::new(b);\n")],
    },
    Rule {
        scope: scope(RS, &["benchmark/*"], Part::Whole),
        check: Check::Refuse(&[
            "NeighborLink",
            "recv_from",
            "CommPlan::build",
            "CommGraph::from_grid",
            "core::plan",
            "comm::plan",
        ]),
        why: "one plan type, the star forest (benchmark/ keeps its old spelling until its refresh)",
        sample: &[("crates/x/src/lib.rs", "let g = CommGraph::from_grid(p);\n")],
    },
    Rule {
        scope: scope(RS, NONE, Part::Whole),
        check: Check::Refuse(&["retry_budget"]),
        why: "one module-constant retry budget, none per config",
        sample: &[("crates/x/src/lib.rs", "cfg.retry_budget = 3;\n")],
    },
    Rule {
        scope: scope(RS, NONE, Part::Whole),
        check: Check::Refuse(&[
            "lane.scratch",
            "Phase::Interior",
            "struct MpiThreeStage",
            "struct UtofuThreeStage",
            "new_irregular",
            "fn send_pair",
            "fn recv_pair",
            "fn post_exchange",
            "fn complete_exchange",
            "fn staged_faces",
            "StageAcc",
            "retired_stats",
            "^fn op_stats(",
            "has_row_kernel",
            "fn post_planned",
            "fn post_listed",
            "fn recv_planned",
            "fn recv_listed",
            "set_pair",
            "cells_for_atoms",
            "fork_join_chunked",
            "JobAllocation",
        ]),
        why: "scratch follows the worker, one engine and one post/complete per transport, \
              one ledger per rank, one row body per potential; deleted dead items stay gone",
        sample: &[("crates/x/src/lib.rs", "    fn op_stats(&self) -> OpStats {\n")],
    },
    Rule {
        scope: scope(RS, NONE, Part::Whole),
        // `Pass::Pair`, the pairwise scatter pass, stays.
        check: Check::Refuse(&["fn compute_pair", "rebalance_now", "Phase::Pair", "Phase::ReneighborCheck"]),
        why: "one step plan: every ghost op a step runs is a plan entry, the reneighbor verdict \
              is a value, not a field, and settle runs a slice of the plan",
        sample: &[(RUNTIME_SAMPLE, "            Phase::Pair => self.compute_pair(&ctx),\n")],
    },
    Rule {
        scope: scope(&["crates/*/src/*.rs"], &["crates/core/src/engine.rs"], Part::NonTest),
        check: Check::Refuse(&[
            "clock +=",
            "stages.pair +=",
            "stages.pair_comm +=",
            "stages.neigh +=",
            "stages.comm +=",
            "stages.modify +=",
            "stages.other +=",
        ]),
        why: "the ledger has one writer: every charge is `RankState::charge(dt, stage)`; \
              the overlap credit and a clock's reset or restore are not charges",
        sample: &[("crates/runtime/src/physics.rs", "        st.clock += dt;\n        st.stages.neigh += dt;\n")],
    },
    Rule {
        // The tofu crate owns `NetParams` and its doc example.
        scope: scope(&["crates/*/src/*.rs"], &["crates/tofu/*", "crates/model/src/machine.rs"], Part::NonTest),
        check: Check::Refuse(&[
            "NetParams::default()",
            "StageCosts::default()",
            "CHECKPOINT_BASE_COST",
            "CHECKPOINT_BYTE_COST",
        ]),
        why: "one modeled machine: `Machine::fugaku()` is the only place the committed \
              virtual-time constants are put together, and every estimator takes that value",
        sample: &[("crates/bench/src/reports.rs", "    let p = NetParams::default();\n")],
    },
    Rule {
        scope: scope(RS, NONE, Part::Whole),
        // Spelled in halves, so that `git grep` for the gone names finds none.
        check: Check::Refuse(&[concat!("Analytic", "Breakdown"), concat!("Sync", "Bucket")]),
        why: "one Table 3 row type, `StageBreakdown`, and one stage type, `Stage`: their twins stay gone",
        sample: &[("crates/model/src/analytic.rs", concat!("pub struct Analytic", "Breakdown {\n"))],
    },
    Rule {
        scope: scope(RS, NONE, Part::Whole),
        // Spelled in halves, so that `git grep` for the gone names finds none.
        check: Check::Refuse(&[concat!("Border", "Bins"), concat!("border", "_bin")]),
        why: "one border selector, `SendSelector`, built the same way on every graph: \
              the grid's bin table and its exact fallback stay gone",
        sample: &[("crates/core/src/sf.rs", concat!("use crate::border", "_bin::Border", "Bins;\n"))],
    },
    Rule {
        scope: scope(RS, NONE, Part::Whole),
        // Spelled in halves, so that `git grep` for the gone names finds none.
        check: Check::Refuse(&[
            concat!("LjCut", "Multi"),
            concat!("lj", "_multi"),
            concat!("ManyBody", "Potential"),
        ]),
        why: "one implementation per pair style: `LjCut` holds the per-type-pair table, and EAM's \
              passes are `EamCu`'s own methods, not a trait with one implementor",
        sample: &[("crates/md/src/potential/mod.rs", concat!("pub use lj", "_multi::LjCut", "Multi;\n"))],
    },
    Rule {
        scope: scope(RS, NONE, Part::Whole),
        // Spelled in halves, so that `git grep` for the gone names finds none.
        check: Check::Refuse(&[concat!("PutSrc::", "Region"), concat!("write_local", "_with(")]),
        why: "a uTofu payload is written once, by the fabric, straight into its landing range \
              (`PutSrc::Write`): the frame built in the sender's send region and copied region to \
              region stays gone",
        sample: &[("crates/core/src/utofu_engine.rs", concat!("let src = PutSrc::", "Region { stadd, offset, len };\n"))],
    },
    Rule {
        scope: scope(RS, NONE, Part::Whole),
        // Spelled in halves, so that `git grep` for the gone names finds
        // none. `.put(&mut ` is the VCQ wrapper's call (`TofuNet::put`
        // takes a request); `try_put_from(`, `read_local_with(` and
        // `try_wait_arrivals_into(` are the entries that stay.
        check: Check::Refuse(&[
            concat!(".put(", "&mut "),
            concat!("try_", "put("),
            concat!("wait_", "arrivals("),
            concat!("read_", "local("),
            concat!("try_", "recv("),
            concat!("face_", "link"),
            concat!("from_rcb", "_mapped"),
        ]),
        why: "one spelling per substrate operation: puts post through `Vcq::{try_post, post_reliable}`, \
              receives wait through `try_wait_arrivals_into` and read through `read_local_with` / \
              `recv_with`, a grid's face edges are its send/recv edges, an RCB part's graph comes \
              from `from_rcb` or `from_rcb_parts`",
        sample: &[("crates/core/src/pattern.rs", concat!("let e = graph.face", "_link(0, 1);\n"))],
    },
    Rule {
        scope: scope(CORE, &["crates/core/src/wire.rs"], Part::NonTest),
        check: Check::Refuse(&[
            "parse_border_records(",
            "parse_exchange_records(",
            "parse_combined_into(",
            "decode_f64s(",
            "RecvMsg",
        ]),
        why: "deliveries read the landed bytes; the wire parsers are the tests' record-format oracles",
        sample: &[("crates/core/src/ghost.rs", "let v = wire::decode_f64s(&bytes);\n")],
    },
    Rule {
        scope: scope(CORE, NONE, Part::NonTest),
        check: Check::Refuse(&["Payload::Packed", "fn pack_exchange", "Vec<Vec<f64>>"]),
        why: "every payload streams from the ghost layout's send lists",
        sample: &[("crates/core/src/ghost.rs", "let packed: Vec<Vec<f64>> = Vec::new();\n")],
    },
    Rule {
        scope: scope(&["crates/tofu/src/mem.rs"], NONE, Part::Whole),
        check: Check::Refuse(&["vec![0u8; len]"]),
        why: "a registered region is backed by what was written, not zero-filled to its modeled length",
        sample: &[("crates/tofu/src/mem.rs", "let buf = vec![0u8; len];\n")],
    },
    Rule {
        scope: scope(CORE, NONE, Part::Whole),
        check: Check::Count("impl GhostEngine for", 0..=2),
        why: "one engine per transport, each holding a `Pattern` (DESIGN.md §16)",
        sample: &[(
            "crates/core/src/engine.rs",
            "impl GhostEngine for A {}\nimpl GhostEngine for B {}\nimpl GhostEngine for C {}\n",
        )],
    },
    Rule {
        scope: scope(CORE, NONE, Part::NonTest),
        check: Check::Refuse(&["thread_local!"]),
        why: "both transports write each payload once, straight into its landing range: no \
              per-thread staging buffer holds a message on the host",
        sample: &[("crates/core/src/mpi_engine.rs", "thread_local! {\n    static BYTES: RefCell<Vec<u8>>;\n}\n")],
    },
    Rule {
        scope: scope(CORE, NONE, Part::NonTest),
        check: Check::Cap(3582),
        why: "the core crate stays no larger than cutting a halo message's per-message host work \
              left it; the cap only moves down",
        sample: &[("crates/core/src/engine.rs", "let x = 1;\n")],
    },
    Rule {
        scope: scope(&["crates/md/src/*.rs", "crates/runtime/src/*.rs"], NONE, Part::NonTest),
        check: Check::Cap(9_919),
        why: "the MD and runtime crates stay no larger than one LJ pair style, a directly called \
              EAM and one modeled machine left them; the cap only moves down",
        sample: &[("crates/md/src/atom.rs", "let x = 1;\n")],
    },
    Rule {
        scope: scope(&["crates/*/src/*.rs", "src/*.rs"], NONE, Part::Whole),
        check: Check::Unsafe(10),
        why: "every `unsafe` site states its invariant in a `// SAFETY:` comment; all ten are in tofumd-threadpool",
        sample: &[("crates/x/src/lib.rs", "let v = unsafe { *p };\n")],
    },
    Rule {
        scope: scope(&["*.rs", "*.toml", "*.yml", "Cargo.lock"], &["benchmark/*"], Part::Whole),
        check: Check::RefuseAnyCase(&[
            "criterion",
            "bench_kernels",
            "bench_cluster",
            "blocked_row_hits",
            "eamhit",
            "gather_dx_r2",
            "rows::side",
            "merge_rows",
            "begin_row",
        ]),
        why: "one perf harness (benchmark/), one slab filter, one one-sided scatter log",
        sample: &[("Cargo.toml", "[dev-dependencies]\nCriterion = \"0.5\"\n")],
    },
    Rule {
        scope: scope(&["crates/*/src/*.rs", "examples/*.rs"], &["crates/bench/src/claims.rs"], Part::NonTest),
        check: Check::Refuse(&["paper anchor", "8.77", "3.01x", "2.45x", "2.9x", "-79%", "5.3x"]),
        why: "each paper number is written once, in `tofumd-bench`'s claims table; \
              a report footer prints its rows and results/claims.txt gathers them",
        sample: &[("examples/x.rs", "println!(\"paper anchors: 2.9x at 36,864 nodes\");\n")],
    },
    Rule {
        scope: scope(&["crates/bench/src/bin/*"], NONE, Part::Whole),
        check: Check::Entries(&[]),
        why: "one bench program: the per-figure bins stay gone",
        sample: &[("crates/bench/src/bin/fig07.rs", "fn main() {}\n")],
    },
    Rule {
        scope: scope(&["crates/*/src/lib.rs", "src/lib.rs"], NONE, Part::Whole),
        check: Check::Require(LIB_LINT),
        why: "library code never unwraps or expects outside tests; `cargo clippy --all-targets` enforces the line",
        sample: &[("crates/x/src/lib.rs", "//! x\n#![warn(missing_docs)]\n")],
    },
    Rule {
        scope: scope(&["crates/*/src/main.rs", "examples/*.rs"], NONE, Part::Whole),
        check: Check::Require(BIN_LINT),
        why: "binaries and examples never unwrap or expect; `cargo clippy --all-targets` enforces the line",
        sample: &[("examples/x.rs", "//! x\nfn main() {}\n")],
    },
    Rule {
        scope: scope(&["crates/*/src/*.rs"], NONE, Part::NonTest),
        check: Check::DeadPub(&["eval_deriv", "IN_THREADPOOL_EAM"]),
        why: "a `pub` item nothing else names is dead code; only oracles of their own tests may stay",
        sample: &[("crates/x/src/lib.rs", "pub fn orphan() {}\n")],
    },
];

/// `(path, text)` of every file a rule may read.
type Tree = Vec<(String, String)>;

/// The tracked files, as `git grep` reads them (working-tree contents).
fn tracked() -> Tree {
    let root = env!("CARGO_MANIFEST_DIR");
    let out = Command::new("git")
        .args(["-C", root, "ls-files", "-z"])
        .output()
        .expect("the tree rules read `git ls-files`");
    assert!(out.status.success(), "git ls-files failed in {root}");
    let listing = String::from_utf8(out.stdout).expect("tracked paths are UTF-8");
    listing
        .split('\0')
        .filter(|p| !p.is_empty() && *p != SELF)
        .filter_map(|p| {
            // A tracked file deleted from the working tree is not read.
            let bytes = std::fs::read(format!("{root}/{p}")).ok()?;
            Some((p.to_string(), String::from_utf8_lossy(&bytes).into_owned()))
        })
        .collect()
}

fn glob(pat: &str, s: &str) -> bool {
    match pat.split_once('*') {
        None => pat == s,
        Some((head, rest)) => {
            s.starts_with(head)
                && (head.len()..=s.len()).any(|i| s.is_char_boundary(i) && glob(rest, &s[i..]))
        }
    }
}

impl Scope {
    fn holds(&self, path: &str) -> bool {
        self.files.iter().any(|g| glob(g, path)) && !self.skip.iter().any(|g| glob(g, path))
    }
}

/// `(1-based line number, line)` of the part of `text` a scope reads.
fn lines(text: &str, part: Part) -> impl Iterator<Item = (usize, &str)> {
    let is_test = move |l: &&str| matches!(part, Part::NonTest) && l.starts_with("#[cfg(test)]");
    text.lines()
        .take_while(move |l| !is_test(l))
        .enumerate()
        .map(|(i, l)| (i + 1, l))
}

fn matches(line: &str, name: &str) -> bool {
    match name.strip_prefix('^') {
        Some(head) => line.trim_start().starts_with(head),
        None => line.contains(name),
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifiers of `line`, as the word boundaries of `grep -w` split it.
fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !is_ident(c))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// Does `line` name crate `id` as `<id>::` (not as a suffix of a longer
/// identifier) or `use <id>`?
fn names_crate(line: &str, id: &str) -> bool {
    let path = format!("{id}::");
    let as_path = line
        .match_indices(&path)
        .any(|(i, _)| !line[..i].ends_with(is_ident));
    let used = line
        .match_indices(&format!("use {id}"))
        .any(|(i, m)| !line[i + m.len()..].starts_with(is_ident));
    as_path || used
}

/// The violations of `rule` in `tree`, one line each.
fn violations(rule: &Rule, tree: &Tree) -> Vec<String> {
    let scoped: Vec<&(String, String)> = tree.iter().filter(|(p, _)| rule.scope.holds(p)).collect();
    let each_line = || {
        scoped
            .iter()
            .flat_map(|(p, t)| lines(t, rule.scope.part).map(move |(n, l)| (p.as_str(), n, l)))
    };
    let hit = |(p, n, l): (&str, usize, &str)| format!("{p}:{n}: {}", l.trim());
    let described = rule.scope.files.join(" ");
    match &rule.check {
        Check::Refuse(names) => each_line()
            .filter(|&(_, _, l)| names.iter().any(|n| matches(l, n)))
            .map(hit)
            .collect(),
        Check::RefuseAnyCase(names) => each_line()
            .filter(|&(_, _, l)| {
                let lower = l.to_ascii_lowercase();
                names.iter().any(|n| lower.contains(n))
            })
            .map(hit)
            .collect(),
        Check::Count(pattern, want) => {
            let found: Vec<String> = each_line()
                .filter(|&(_, _, l)| l.contains(pattern))
                .map(hit)
                .collect();
            if want.contains(&found.len()) {
                return Vec::new();
            }
            let mut v = vec![format!(
                "{described}: {} lines contain `{pattern}` (want {}..={})",
                found.len(),
                want.start(),
                want.end()
            )];
            v.extend(found);
            v
        }
        Check::Cap(cap) => {
            let n = each_line().count();
            if n <= *cap {
                return Vec::new();
            }
            vec![format!("{described}: {n} lines (cap {cap})")]
        }
        Check::Unsafe(cap) => {
            let sites: Vec<String> = each_line()
                .filter(|&(_, _, l)| {
                    !l.trim_start().starts_with("//") && idents(l).any(|w| w == "unsafe")
                })
                .map(hit)
                .collect();
            let stated = each_line()
                .filter(|&(_, _, l)| l.contains("SAFETY:"))
                .count();
            if sites.len() == stated && sites.len() <= *cap {
                return Vec::new();
            }
            let mut v = vec![format!(
                "{described}: {} `unsafe` sites, {stated} `SAFETY:` comments (want equal, at most {cap})",
                sites.len()
            )];
            v.extend(sites);
            v
        }
        Check::Require(line) => scoped
            .iter()
            .filter(|(_, t)| !t.lines().any(|l| l.trim() == *line))
            .map(|(p, _)| format!("{p}: lacks `{line}`"))
            .collect(),
        Check::Entries(want) => {
            let dir = rule.scope.files[0].trim_end_matches('*');
            let found: BTreeSet<&str> = scoped
                .iter()
                .filter_map(|(p, _)| p.strip_prefix(dir)?.split('/').next())
                .collect();
            let want: BTreeSet<&str> = want.iter().copied().collect();
            if found == want {
                return Vec::new();
            }
            vec![format!("{dir}: holds {found:?} (want {want:?})")]
        }
        Check::Deps => scoped
            .iter()
            .flat_map(|(manifest, text)| unused_deps(manifest, text, tree))
            .collect(),
        Check::DeadPub(allowed) => dead_pub(&scoped, tree, allowed),
    }
}

/// The `[dependencies]` / `[dev-dependencies]` entries of `manifest` that
/// its package's sources never name.
fn unused_deps(manifest: &str, text: &str, tree: &Tree) -> Vec<String> {
    let dir = manifest.strip_suffix("Cargo.toml").unwrap_or_default();
    let mut section = "";
    let mut out = Vec::new();
    for line in text.lines() {
        if line.starts_with('[') {
            section = line.trim();
            continue;
        }
        let dirs: &[&str] = match section {
            "[dependencies]" => &["src/"],
            "[dev-dependencies]" => &["src/", "tests/", "examples/"],
            _ => continue,
        };
        let name: String = line
            .chars()
            .take_while(|&c| is_ident(c) || c == '-')
            .collect();
        if name.is_empty() || !line[name.len()..].starts_with([' ', '.', '=']) {
            continue;
        }
        let id = name.replace('-', "_");
        let named = tree.iter().any(|(p, t)| {
            dirs.iter().any(|d| p.starts_with(&format!("{dir}{d}")))
                && t.lines().any(|l| names_crate(l, &id))
        });
        if !named {
            out.push(format!(
                "{manifest}: {section} {name} is never named in {dir}{}",
                dirs.join(" ")
            ));
        }
    }
    out
}

/// Dead `pub` items of `scoped`, indexed against every tracked `.rs` file.
fn dead_pub(scoped: &[&(String, String)], tree: &Tree, allowed: &[&str]) -> Vec<String> {
    // identifier -> one (file, in test code) entry per line naming it.
    let mut index: HashMap<&str, Vec<(&str, bool)>> = HashMap::new();
    for (path, text) in tree.iter().filter(|(p, _)| p.ends_with(".rs")) {
        let mut test = false;
        for line in text.lines() {
            test |= line.starts_with("#[cfg(test)]");
            let mut seen = BTreeSet::new();
            for w in idents(line).filter(|w| seen.insert(*w)) {
                index.entry(w).or_default().push((path.as_str(), test));
            }
        }
    }
    let mut out = Vec::new();
    let mut live = BTreeSet::new();
    for (path, text) in scoped {
        for (n, line) in lines(text, Part::NonTest) {
            let Some(name) = pub_item(line) else { continue };
            let uses = index.get(name).map_or(&[][..], Vec::as_slice);
            // The declaration itself is one non-test line of its own file.
            let named = uses
                .iter()
                .filter(|&&(p, test)| p != path.as_str() || !test);
            if named.count() > 1 {
                live.insert(name);
            } else if !allowed.contains(&name) {
                out.push(format!("{path}:{n}: {} (named nowhere else)", line.trim()));
            }
        }
    }
    for name in allowed.iter().filter(|n| live.contains(*n)) {
        out.push(format!(
            "`{name}` is allowed as dead but is used: drop it from the list"
        ));
    }
    out
}

/// The name a `pub` (not `pub(crate)`) item declaration on `line` declares.
fn pub_item(line: &str) -> Option<&str> {
    let words: Vec<&str> = idents(line.trim_start().strip_prefix("pub ")?)
        .take(3)
        .collect();
    match words[..] {
        ["const" | "unsafe" | "async", "fn", name, ..] | ["static", "mut", name, ..] => Some(name),
        [kind, name, ..]
            if [
                "fn", "struct", "enum", "const", "static", "trait", "type", "union", "mod",
            ]
            .contains(&kind) =>
        {
            Some(name)
        }
        _ => None,
    }
}

#[test]
fn tree_rules_hold() {
    let tree = tracked();
    let mut report = String::new();
    for rule in RULES {
        let v = violations(rule, &tree);
        if !v.is_empty() {
            report += &format!("\n{}\n  -> {}\n", v.join("\n"), rule.why);
        }
    }
    assert!(report.is_empty(), "tree rules broken:\n{report}");
}

#[test]
fn every_rule_bites() {
    for rule in RULES {
        let sample: Tree = rule
            .sample
            .iter()
            .map(|&(p, t)| {
                let text = match rule.check {
                    Check::Cap(cap) => t.repeat(cap + 1),
                    _ => t.to_string(),
                };
                (p.to_string(), text)
            })
            .collect();
        assert!(
            !violations(rule, &sample).is_empty(),
            "the rule \"{}\" lets its sample through",
            rule.why
        );
    }
}
