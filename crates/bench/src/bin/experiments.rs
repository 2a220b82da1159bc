//! The paper's evaluation, driven from `bench::experiments::table`.
//!
//! ```text
//! experiments run [id…]   run (all when none named), print the rows, write
//!                         results/<id>.json, check the shapes
//! experiments check       check the committed results/*.json, no rerun; fails
//!                         when a verdict disagrees with its `holds` mark
//! experiments report      the measured sections of EXPERIMENTS.md
//! experiments list        ids with the paper result each reproduces
//! ```
//! `results/` is under the current directory; `CDBTUNE_QUICK=1` is the smoke scale.

use bench::experiments::{table, Claim, Entry, Outcome, Shape};
use bench::report::{tables, write_json};
use cdbtune::jsonio::Json;
use std::process::ExitCode;

/// Decodes `results/<id>.json`.
fn load(e: &Entry) -> Result<Outcome, String> {
    let path = format!("results/{}.json", e.id);
    let text = std::fs::read_to_string(&path).map_err(|err| format!("{path}: {err}"))?;
    let json = Json::parse(&text).map_err(|err| format!("{path}: {err}"))?;
    (e.load)(&json).map_err(|err| format!("{path}: {err}"))
}

/// The committed outcome; an unreadable file fails its entry's checks, with why.
fn committed(e: &Entry) -> Outcome {
    load(e).unwrap_or_else(|why| {
        let (json, mut verdicts) = (e.load)(&Json::Null).expect("empty rows decode");
        verdicts.iter_mut().for_each(|v| v.1 = Err(why.clone()));
        (json, verdicts)
    })
}

/// Prints the PASS/FAIL lines; counts `(passed, failed, marks that disagree)`.
fn print_verdicts(verdicts: &[(Claim, Shape)], tally: &mut (u32, u32, u32)) {
    for (claim, shape) in verdicts {
        match shape {
            Ok(()) => {
                tally.0 += 1;
                println!("PASS  {}: {}", claim.name, claim.text);
            }
            Err(why) => {
                tally.1 += 1;
                println!("FAIL  {}: {}", claim.name, claim.text);
                println!("        {why}{}", if claim.holds { "" } else { " (marked open)" });
            }
        }
        if shape.is_ok() != claim.holds {
            tally.2 += 1;
            println!("        mark disagrees: set `holds` to {} for this check", !claim.holds);
        }
    }
}

fn run(ids: &[String]) -> Result<(), String> {
    let table = table();
    if let Some(unknown) = ids.iter().find(|id| table.iter().all(|e| e.id != **id)) {
        return Err(format!("unknown experiment `{unknown}` (see `experiments list`)"));
    }
    let mut tally = (0, 0, 0);
    for e in table.iter().filter(|e| ids.is_empty() || ids.iter().any(|id| id == e.id)) {
        println!("\n##### {} #####", e.id);
        let (json, verdicts) = (e.run)();
        tables(e.id, &json).iter().for_each(|t| t.print());
        write_json(e.id, &json).map_err(|err| format!("results/{}.json: {err}", e.id))?;
        // What `check` will read is what was just measured.
        if load(e)?.0 != json {
            return Err(format!("results/{}.json does not decode to the rows written", e.id));
        }
        print_verdicts(&verdicts, &mut tally);
    }
    println!("\n{} passed, {} failed", tally.0, tally.1);
    Ok(())
}

fn check() -> Result<(), String> {
    let mut tally = (0, 0, 0);
    table().iter().for_each(|e| print_verdicts(&committed(e).1, &mut tally));
    println!("\n{} passed, {} failed", tally.0, tally.1);
    match tally.2 {
        0 => Ok(()),
        n => Err(format!("{n} verdict(s) disagree with the `holds` marks in the table")),
    }
}

fn report() {
    for e in table() {
        let (json, verdicts) = committed(&e);
        println!("## `{}`\n\n**Paper.** {}\n", e.id, e.paper);
        tables(e.id, &json).iter().for_each(|t| println!("{}", t.markdown()));
        for (claim, shape) in &verdicts {
            match shape {
                Ok(()) => println!("- **PASS** — {}: {}", claim.name, claim.text),
                Err(why) => println!("- **FAIL** — {}: {} ({why})", claim.name, claim.text),
            }
        }
        println!();
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        Some(("run", ids)) => run(ids),
        Some(("check", [])) => check(),
        Some(("report", [])) => {
            report();
            Ok(())
        }
        Some(("list", [])) => {
            table().iter().for_each(|e| println!("{:<30} {}", e.id, e.paper));
            Ok(())
        }
        _ => Err("usage: experiments run [id…] | check | report | list".into()),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("experiments: {why}");
            ExitCode::FAILURE
        }
    }
}
