//! Every paper artefact's deterministic block, pinned at tiny scale.
//!
//! Each entry of `centralium_bench::paper::ENTRIES` runs with `tiny = true`
//! and its deterministic block (counts, simulated time, FIB- and
//! traffic-derived ratios, seeds) must equal `tests/golden/paper/NAME.txt`
//! byte for byte. On a mismatch the test writes the new block to
//! `target/paper_artefacts/NAME.actual` and prints the `cp` that re-blesses
//! it; a change that moves a golden says so and says why.

use centralium_bench::paper::ENTRIES;
use std::fs;
use std::path::Path;

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The first line where two texts differ, 1-based, with both sides.
fn first_difference(golden: &str, actual: &str) -> String {
    let (mut g, mut a) = (golden.lines(), actual.lines());
    for n in 1.. {
        match (g.next(), a.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (None, None) => return "trailing newline differs".into(),
            (x, y) => {
                return format!(
                    "line {n}:\n    golden: {}\n    actual: {}",
                    x.unwrap_or("<end>"),
                    y.unwrap_or("<end>")
                )
            }
        }
    }
    unreachable!()
}

#[test]
fn tiny_deterministic_blocks_match_their_goldens() {
    let actual_dir = repo().join("target/paper_artefacts");
    let mut failures = Vec::new();
    for entry in ENTRIES {
        let actual = (entry.run)(true).deterministic;
        let golden_rel = format!("tests/golden/paper/{}.txt", entry.name);
        let golden = fs::read_to_string(repo().join(&golden_rel)).unwrap_or_default();
        if actual == golden {
            continue;
        }
        fs::create_dir_all(&actual_dir).expect("create target/paper_artefacts");
        let actual_rel = format!("target/paper_artefacts/{}.actual", entry.name);
        fs::write(repo().join(&actual_rel), &actual).expect("write the actual block");
        failures.push(format!(
            "{}: deterministic block differs from {golden_rel} at {}\n  re-bless (from the repo root): cp {actual_rel} {golden_rel}",
            entry.name,
            first_difference(&golden, &actual),
        ));
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn entries_and_results_files_match_one_to_one() {
    let mut results: Vec<String> = fs::read_dir(repo().join("results"))
        .expect("results/ exists")
        .filter_map(|e| {
            let name = e.expect("dir entry").file_name().into_string().ok()?;
            name.strip_suffix(".txt").map(str::to_string)
        })
        .collect();
    results.sort();
    let mut entries: Vec<String> = ENTRIES.iter().map(|e| e.name.to_string()).collect();
    entries.sort();
    assert_eq!(entries, results, "ENTRIES vs results/*.txt");
}
