//! Regenerates the paper's artefacts: every entry of
//! [`centralium_bench::paper::ENTRIES`], or one.
//!
//! ```text
//! paper [--only NAME] [--tiny]
//! ```
//!
//! Each entry prints its deterministic block, then its host-time block.
//! `paper --only NAME > results/NAME.txt` refreshes one checkpoint
//! (`scripts/regen-results.sh` does all of them); `--tiny` runs every
//! entry at smoke scale.

use centralium_bench::paper::{Entry, ENTRIES};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!("usage: paper [--only NAME] [--tiny]");
    eprintln!("entries:");
    for entry in ENTRIES {
        eprintln!("  {}", entry.name);
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut only: Option<&Entry> = None;
    let mut tiny = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tiny" => tiny = true,
            "--only" => {
                let Some(name) = args.next() else {
                    return usage("--only requires an entry name");
                };
                match ENTRIES.iter().find(|e| e.name == name) {
                    Some(entry) => only = Some(entry),
                    None => return usage(&format!("unknown entry '{name}'")),
                }
            }
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    let selected = match only {
        Some(entry) => std::slice::from_ref(entry),
        None => ENTRIES,
    };
    for entry in selected {
        let artefact = (entry.run)(tiny);
        println!("=== {} ===", entry.name);
        print!("{}", artefact.deterministic);
        if !artefact.host_time.is_empty() {
            println!("--- host time (wall clock: differs per run and per host) ---");
            print!("{}", artefact.host_time);
        }
    }
    ExitCode::SUCCESS
}
