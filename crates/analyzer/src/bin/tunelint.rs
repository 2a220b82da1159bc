//! tunelint — the workspace's static-analysis gate.
//!
//! Usage: tunelint [--root DIR] [--list]
//!
//! Exit codes: 0 clean, 1 any finding, 2 usage or I/O error.

use analyzer::{analyze_tree, AnalysisConfig, ALLOW_IDS, LINT_DOCS};
use std::path::PathBuf;
use std::process::ExitCode;

const HELP: &str = "\
tunelint: workspace-level static analysis for the CDBTune workspace

USAGE: tunelint [--root DIR] [--list]

--root DIR   repo root to analyze (default: .)
--list       print the lints and exit
--help       print this help and exit

Every finding fails. Suppress a single one with an annotation on the same
line or the line above:  // lint:allow(<id>) reason=<why this is sound>
where <id> is one of: {ids}.

Every run also prints the call graph's nodes/edges/unresolved counts and
each lint's subject count.

Exit codes: 0 clean, 1 any finding, 2 usage/I-O error.";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root requires a directory"),
            },
            "--list" => {
                for (id, doc) in LINT_DOCS {
                    println!("{id:<18} {doc}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" => {
                println!("{}", HELP.replace("{ids}", &ALLOW_IDS.join(", ")));
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}` (see --help)")),
        }
    }

    let analysis = match analyze_tree(&root, &AnalysisConfig::default_for_repo()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tunelint: failed to analyze {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if analysis.files == 0 {
        return usage(&format!("no .rs files under {}/crates — wrong --root?", root.display()));
    }
    for f in &analysis.findings {
        println!("{f}");
    }
    eprintln!("tunelint: call graph: {}", analysis.graph_stats);
    eprintln!("tunelint: subjects: {}", analysis.subjects);
    let n = analysis.findings.len();
    println!(
        "tunelint: {} files, {n} finding{}",
        analysis.files,
        if n == 1 { "" } else { "s" }
    );
    if n == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("tunelint: {msg}");
    ExitCode::from(2)
}
