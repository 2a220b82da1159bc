//! tunelint — the workspace's static-analysis gate.
//!
//! Usage: tunelint [--root DIR] [--baseline FILE] [--fix-baseline]
//!                 [--list] [--verbose] [--graph-stats] [--format=json]
//!
//! Exit codes: 0 clean (or baselined-only), 1 new deny-level findings
//! or stale baseline entries, 2 usage or I/O error.

use analyzer::baseline::{self, Baseline};
use analyzer::{analyze_tree, AnalysisConfig, Finding, LINT_DOCS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    root: PathBuf,
    baseline: Option<PathBuf>,
    fix_baseline: bool,
    list: bool,
    verbose: bool,
    graph_stats: bool,
    json: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        baseline: None,
        fix_baseline: false,
        list: false,
        verbose: false,
        graph_stats: false,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => {
                opts.root = PathBuf::from(
                    args.next().ok_or_else(|| "--root requires a directory".to_string())?,
                );
            }
            "--baseline" => {
                opts.baseline = Some(PathBuf::from(
                    args.next().ok_or_else(|| "--baseline requires a file".to_string())?,
                ));
            }
            "--fix-baseline" => opts.fix_baseline = true,
            "--list" => opts.list = true,
            "--verbose" | "-v" => opts.verbose = true,
            "--graph-stats" => opts.graph_stats = true,
            "--format=json" => opts.json = true,
            "--format=text" => opts.json = false,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(opts)
}

fn print_help() {
    println!(
        "tunelint: workspace-level static analysis for the CDBTune workspace\n\
         \n\
         USAGE: tunelint [--root DIR] [--baseline FILE] [--fix-baseline] [--list]\n\
         \x20               [--verbose] [--graph-stats] [--format=json]\n\
         \n\
         --root DIR        repo root to analyze (default: .)\n\
         --baseline FILE   ratchet file (default: <root>/analyzer/baseline.json)\n\
         --fix-baseline    regenerate the baseline from current findings and exit 0\n\
         --list            print the lints and exit\n\
         --verbose, -v     also print baselined (legacy) findings\n\
         --graph-stats     print call-graph coverage (nodes/edges/unresolved)\n\
         --format=json     emit findings as a JSON array on stdout\n\
         \n\
         Suppress a single finding with an annotation on the same line or the\n\
         line above:  // lint:allow(<id>) reason=<why this is sound>\n\
         where <id> is one of: panic, determinism, lock-order, unsafe, reactor.\n\
         \n\
         Exit codes: 0 clean, 1 new deny-level findings or stale baseline\n\
         entries (rerun with --fix-baseline to lock ratchet gains in), 2\n\
         usage/I-O error."
    );
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding, status: &str) -> String {
    let chain = f
        .chain
        .iter()
        .map(|c| format!("\"{}\"", json_escape(c)))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "  {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"fn\": \"{}\", \
         \"tag\": \"{}\", \"severity\": \"{}\", \"status\": \"{}\", \
         \"message\": \"{}\", \"chain\": [{}]}}",
        json_escape(f.lint),
        json_escape(&f.file),
        f.line,
        json_escape(&f.fn_name),
        json_escape(&f.tag),
        f.severity,
        status,
        json_escape(&f.message),
        chain
    )
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tunelint: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.list {
        for (id, doc) in LINT_DOCS {
            println!("{id:<18} {doc}");
        }
        return ExitCode::SUCCESS;
    }

    let cfg = AnalysisConfig::default_for_repo();
    let analysis = match analyze_tree(&opts.root, &cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tunelint: failed to analyze {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };
    if analysis.files == 0 {
        eprintln!(
            "tunelint: no .rs files under {}/crates — wrong --root?",
            opts.root.display()
        );
        return ExitCode::from(2);
    }

    let bpath = opts
        .baseline
        .clone()
        .unwrap_or_else(|| opts.root.join("analyzer/baseline.json"));

    if opts.fix_baseline {
        let b = Baseline::from_findings(&analysis.findings);
        if let Err(e) = b.save(&bpath) {
            eprintln!("tunelint: failed to write {}: {e}", bpath.display());
            return ExitCode::from(2);
        }
        println!(
            "tunelint: wrote baseline with {} entr{} ({} finding{}) to {}",
            b.entries.len(),
            if b.entries.len() == 1 { "y" } else { "ies" },
            analysis.findings.len(),
            if analysis.findings.len() == 1 { "" } else { "s" },
            bpath.display()
        );
        return ExitCode::SUCCESS;
    }

    let base = match Baseline::load(&bpath) {
        Ok(Some(b)) => b,
        Ok(None) => Baseline::default(),
        Err(e) => {
            eprintln!("tunelint: failed to read baseline {}: {e}", bpath.display());
            return ExitCode::from(2);
        }
    };

    let r = baseline::apply(&base, analysis.findings);

    if opts.json {
        // Machine consumption: one array, new findings first.
        let mut rows: Vec<String> =
            r.new.iter().map(|f| finding_json(f, "new")).collect();
        rows.extend(r.baselined.iter().map(|f| finding_json(f, "baselined")));
        println!("[\n{}\n]", rows.join(",\n"));
    } else {
        if opts.verbose {
            for f in &r.baselined {
                println!("baselined: {f}");
            }
        }
        for f in &r.new {
            println!("{f}");
        }
    }
    for (k, n) in &r.stale {
        eprintln!("tunelint: stale baseline entry ({n} unused): {k} — run --fix-baseline");
    }
    if opts.graph_stats {
        eprintln!("tunelint: call graph: {}", analysis.graph_stats);
    }
    if !opts.json {
        println!(
            "tunelint: {} files, {} new finding{}, {} baselined, {} stale baseline entr{}",
            analysis.files,
            r.new.len(),
            if r.new.len() == 1 { "" } else { "s" },
            r.baselined.len(),
            r.stale.len(),
            if r.stale.len() == 1 { "y" } else { "ies" },
        );
    }
    // Stale entries fail the gate too: the debt went down, and the
    // committed ratchet must be regenerated to lock the gain in before
    // it can silently creep back.
    if r.failed() || !r.stale.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
