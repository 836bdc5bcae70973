//! The `repro` flag contract, end to end on the real binary: every flag a
//! registry entry does not accept — and every stray operand or machine
//! shape it cannot run — exits 2 before anything is written (no perf log,
//! journal, checkpoint, CSV or trace file).
//!
//! The entries and their accepted flags are read from `repro --help`,
//! which is generated from the registry, so a new entry or flag is covered
//! without editing this file.

use std::path::{Path, PathBuf};
use std::process::Output;

struct Entry {
    /// `repro` words naming the entry (`["learn", "train"]`).
    words: Vec<String>,
    /// One placeholder per required operand.
    operands: Vec<String>,
    /// Accepted flags with their usage value (`""` for a switch).
    flags: Vec<(String, String)>,
}

fn repro(dir: &Path, argv: &[String]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(argv)
        .current_dir(dir)
        .output()
        .expect("repro binary runs")
}

/// Parses the generated usage text: an entry starts at `  repro NAME`,
/// continuation lines carry more `[--flag VALUE]` words.
fn registry() -> Vec<Entry> {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro")).arg("--help").output();
    let help = String::from_utf8(out.expect("repro --help runs").stdout).unwrap();
    let mut entries: Vec<Entry> = Vec::new();
    for line in help.lines() {
        if let Some(rest) = line.strip_prefix("  repro ") {
            let head: Vec<&str> = rest.split(" [").next().unwrap().split(' ').collect();
            let (words, ops): (Vec<&str>, Vec<&str>) =
                head.into_iter().partition(|w| !w.starts_with('<'));
            entries.push(Entry {
                words: words.into_iter().map(String::from).collect(),
                operands: ops
                    .iter()
                    .map(|o| format!("missing-{}", o.trim_matches(['<', '>', '.'])))
                    .collect(),
                flags: Vec::new(),
            });
        }
        let Some(entry) = entries.last_mut() else { continue };
        if !line.starts_with("  repro ") && !line.starts_with("        ") {
            continue;
        }
        for word in line.split("[--").skip(1) {
            let word = word.split(']').next().unwrap();
            let (flag, value) = word.split_once(' ').unwrap_or((word, ""));
            entry.flags.push((format!("--{flag}"), value.to_string()));
        }
    }
    assert!(entries.len() >= 30, "--help lists {} entries", entries.len());
    entries
}

/// A well-formed value for a flag's usage placeholder.
fn sample(value: &str) -> Option<&'static str> {
    match value {
        "" => None,
        "N" | "S" => Some("3"),
        "F" => Some("0.5"),
        "MODE" => Some("transient"),
        "SxM" | "1x8" => Some("2x8"),
        "DIR" => Some("out-dir"),
        "CKPT" => Some("run.ckpt"),
        _ => Some("out.file"),
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `argv` in the empty `dir`: it must exit 2 with `why` on stderr and
/// leave `dir` empty.
fn refused(dir: &Path, argv: &[String], why: &str) {
    let out = repro(dir, argv);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {argv:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains(why), "repro {argv:?}: stderr {stderr:?} lacks {why:?}");
    let left: Vec<_> = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert!(left.is_empty(), "repro {argv:?} wrote {left:?} before refusing");
}

fn strings(argv: &[&str]) -> Vec<String> {
    argv.iter().map(|s| s.to_string()).collect()
}

#[test]
fn every_refused_flag_exits_2_before_any_write() {
    let entries = registry();
    let mut all_flags: Vec<(String, String)> = Vec::new();
    for (flag, value) in entries.iter().flat_map(|e| &e.flags) {
        if !all_flags.iter().any(|(f, _)| f == flag) {
            all_flags.push((flag.clone(), value.clone()));
        }
    }
    assert!(all_flags.len() >= 20, "only {} flags in --help", all_flags.len());
    let dir = scratch("refuse");
    let mut pairs = 0;
    for e in &entries {
        let accepts = |flag: &str| e.flags.iter().any(|(f, _)| f == flag);
        for (flag, value) in all_flags.iter().filter(|(f, _)| !accepts(f)) {
            let mut argv: Vec<String> = e.words.iter().chain(&e.operands).cloned().collect();
            // Keeps a wrongly accepted flag from starting a full-size run.
            if accepts("--quick") {
                argv.push("--quick".into());
            }
            argv.push(flag.clone());
            argv.extend(sample(value).map(String::from));
            refused(&dir, &argv, &format!("does not take {flag}"));
            pairs += 1;
        }
    }
    assert!(pairs > 200, "only {pairs} refused (entry, flag) pairs");
}

#[test]
fn machine_shapes_an_entry_cannot_run_exit_2() {
    let dir = scratch("topology");
    for e in registry() {
        let Some((_, shape)) = e.flags.iter().find(|(f, _)| f == "--topology") else { continue };
        let run = |topo: &str, why: &str| {
            let mut argv = e.words.clone();
            argv.extend(strings(&["--quick", "--topology", topo]));
            refused(&dir, &argv, why);
        };
        // Fewer cores than the 8-slot mixes, on one socket or several.
        run("1x4", "cannot hold the 8-slot mixes");
        run("2x2", "cannot hold the 8-slot mixes");
        if shape == "1x8" {
            run("2x8", "runs on one socket only");
            run("4x8@shared", "runs on one socket only");
        }
        if e.words != ["scale"] {
            run("1x16", "only as 1x8");
        }
    }
}

#[test]
fn measured_cases_exit_2_without_writing() {
    let dir = scratch("measured");
    let cases: [(&[&str], &str); 18] = [
        (&["table1", "--quick", "--topology", "2x8"], "runs on one socket only"),
        (&["fig1", "--topology", "4x8"], "runs on one socket only"),
        (&["all", "--quick", "--topology", "2x16"], "runs on one socket only"),
        (&["table1", "--seed", "5"], "does not take --seed"),
        (&["fig5", "--seed", "5"], "does not take --seed"),
        (&["ablate", "--seed", "5"], "does not take --seed"),
        (&["table1", "--quick", "--resume", "t1.ckpt"], "does not take --resume"),
        (&["fig5", "--mixes", "3", "--csv", "DIR", "--model", "x"], "does not take --mixes"),
        (&["fig7", "--noise", "0.5", "--scps-floor", "1", "--out", "x", "--ops", "5"], "--noise"),
        (&["journal-diff", "a", "a", "--quick", "--topology", "2x8", "--resume", "zz"], "--quick"),
        (&["fig7", "--seed", "abc"], "--seed needs a number"),
        (&["fig7", "--jobs"], "--jobs needs a number"),
        (&["fig7", "--quick", "--topology", "2x2"], "cannot hold the 8-slot mixes"),
        (&["scale", "--quick", "--topology", "1x4"], "cannot hold the 8-slot mixes"),
        (&["bogus", "--resume", "bogus.ckpt"], "unknown target bogus"),
        (&["fig7", "--quick", "junk", "--resume", "j.ckpt"], "takes no operands"),
        (&["fig7", "--quick", "--trace-dir", "t", "--seed", "5"], "has no effect with --trace-dir"),
        (&["all", "--quick", "--mixes", "2", "--trace-dir", "t"], "has no effect with --trace-dir"),
    ];
    for (argv, why) in cases {
        refused(&dir, &strings(argv), why);
    }
    for parallel in ["ablate", "extension", "scale", "fig1", "fig2", "fig3"] {
        for flag in [["--resume", "r.ckpt"], ["--attempts", "2"]] {
            refused(&dir, &strings(&[parallel, "--quick", flag[0], flag[1]]), "does not take");
        }
    }
}
