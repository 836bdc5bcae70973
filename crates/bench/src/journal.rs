//! Assembles the `cmm-journal/2` (single-socket) / `cmm-journal/3`
//! (multi-socket) / `cmm-journal/4` (MBA-capable) / `cmm-journal/5`
//! (governed) / `cmm-journal/6` (learned) run journal (see
//! [`cmm_core::telemetry`]) and pretty-prints it back
//! (`repro journal-summary`). The summary reader accepts
//! `cmm-journal/1` through `/6` — each schema only adds keys (`/3`: a
//! manifest `topology` and per-record `domain`; `/4`: per-trial and
//! applied `mba` levels; `/5`: a manifest `governor` flag and per-record
//! `governor` event arrays; `/6`: a manifest `learn` flag and per-record
//! `features` vectors and `action` labels).
//!
//! The journal is JSONL: one manifest line (schema, target, seed, git SHA,
//! host, config digest) followed by one line per controller profiling
//! epoch. Rendering delegates to [`cmm_core::telemetry`]; this module adds
//! the run-level context (git SHA discovery, host info), the deterministic
//! cell ordering for `evaluate` results, and the summary view.

use std::path::{Path, PathBuf};

use cmm_core::telemetry::{config_digest, EpochRecord, Manifest};

use crate::atomic::{salvage_jsonl, write_atomic};
use crate::figures::Evaluation;
use crate::json::{parse, Json};

/// What a harness knows about the run it is journaling.
#[derive(Debug, Clone)]
pub struct JournalMeta {
    /// Repro target (`"table1"`, `"fig7"`, `"all"`, …).
    pub target: String,
    /// Whether the `--quick` durations were used.
    pub quick: bool,
    /// Mix-construction seed.
    pub seed: u64,
    /// Canonical (Debug) rendering of the run's configuration; only its
    /// digest lands in the journal.
    pub config_debug: String,
    /// Topology label (`"2x16"`) on multi-socket runs; `None` keeps the
    /// journal at schema `/2`, byte-identical to pre-topology output.
    pub topology: Option<String>,
    /// Whether the run's mechanisms may program the MBA bandwidth knob;
    /// `true` declares schema `/4`. Legacy targets pass `false` and keep
    /// their /2 (or /3) journals byte-identical.
    pub mba: bool,
    /// Whether the run's driver carries the safety governor; `true`
    /// declares schema `/5`. Ungoverned targets pass `false` and keep
    /// their journals byte-identical.
    pub governor: bool,
    /// Whether the run's driver carries a learned controller; `true`
    /// declares schema `/6`. Unlearned targets pass `false` and keep
    /// their journals byte-identical.
    pub learn: bool,
}

/// Builds the manifest line's data from the meta plus the environment.
pub fn manifest(meta: &JournalMeta) -> Manifest {
    Manifest {
        target: meta.target.clone(),
        quick: meta.quick,
        seed: meta.seed,
        git_sha: git_sha().unwrap_or_else(|| "unknown".into()),
        host_os: std::env::consts::OS.to_string(),
        host_arch: std::env::consts::ARCH.to_string(),
        host_cpus: std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        config_digest: config_digest(&meta.config_debug),
        topology: meta.topology.clone(),
        mba: meta.mba,
        governor: meta.governor,
        learn: meta.learn,
    }
}

/// The commit SHA of the working tree, read straight from `.git` (no git
/// binary dependency): follows `HEAD` through one level of symref, falling
/// back to `packed-refs`. `None` when not in a git checkout.
pub fn git_sha() -> Option<String> {
    let mut dir: PathBuf = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git/HEAD");
        if head.is_file() {
            return resolve_head(&dir.join(".git"), &head);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn resolve_head(git_dir: &Path, head: &Path) -> Option<String> {
    let content = std::fs::read_to_string(head).ok()?;
    let content = content.trim();
    if let Some(refname) = content.strip_prefix("ref: ") {
        if let Ok(sha) = std::fs::read_to_string(git_dir.join(refname)) {
            return Some(sha.trim().to_string());
        }
        // Ref not loose — look it up in packed-refs.
        let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
        for line in packed.lines() {
            if let Some(sha) = line.strip_suffix(refname) {
                return Some(sha.trim().to_string());
            }
        }
        None
    } else {
        // Detached HEAD: the SHA itself.
        Some(content.to_string())
    }
}

/// Renders a complete journal: manifest first, then every cell's epochs in
/// the order given. Each `(run, epochs)` cell labels its records with the
/// run string (e.g. `"PrefAgg-00: CMM-a"`).
pub fn render(man: &Manifest, cells: &[(String, Vec<EpochRecord>)]) -> String {
    let mut out = String::new();
    out.push_str(&man.to_json_line());
    out.push('\n');
    for (run, epochs) in cells {
        for r in epochs {
            out.push_str(&r.to_json_line(run));
            out.push('\n');
        }
    }
    out
}

/// Writes the journal to `path` atomically (temp-then-rename, so a crash
/// mid-write can never leave a torn journal). Returns the epoch-line count.
pub fn write(
    path: &Path,
    man: &Manifest,
    cells: &[(String, Vec<EpochRecord>)],
) -> std::io::Result<usize> {
    write_atomic(path, render(man, cells).as_bytes())?;
    Ok(cells.iter().map(|(_, e)| e.len()).sum())
}

/// A loaded journal: parsed manifest plus parsed epoch records, with the
/// torn-tail salvage accounting every reader shares.
#[derive(Debug)]
pub struct JournalDoc {
    /// The manifest line, parsed.
    pub manifest: Json,
    /// Every `kind == "epoch"` record, parsed, in file order.
    pub epochs: Vec<Json>,
    /// Trailing partial lines dropped by torn-tail salvage (0 or 1).
    pub dropped: usize,
}

/// Parses a journal with torn-tail recovery: a final line torn by a crash
/// mid-write is dropped (and counted in [`JournalDoc::dropped`]) instead
/// of failing the whole file; mid-file garbage is still a proper error —
/// that is corruption, not an interrupted append.
pub fn load(text: &str) -> Result<JournalDoc, String> {
    let salvage = salvage_jsonl(text);
    let mut lines = salvage.lines.iter();
    let first = lines.next().ok_or("empty journal")?;
    let manifest = parse(first).map_err(|e| format!("line 1: {e}"))?;
    let schema = manifest.get("schema").and_then(Json::as_str).unwrap_or("");
    if !matches!(
        schema,
        "cmm-journal/1"
            | "cmm-journal/2"
            | "cmm-journal/3"
            | "cmm-journal/4"
            | "cmm-journal/5"
            | "cmm-journal/6"
    ) {
        return Err(format!("unsupported schema '{schema}' (want cmm-journal/1 through /6)"));
    }
    let mut epochs = Vec::new();
    for (i, line) in lines.enumerate() {
        let rec = parse(line).map_err(|e| format!("line {}: {e}", i + 2))?;
        if rec.get("kind").and_then(Json::as_str) == Some("epoch") {
            epochs.push(rec);
        }
    }
    Ok(JournalDoc { manifest, epochs, dropped: salvage.dropped })
}

/// Extracts the journal cells from an [`Evaluation`], in the harness's
/// canonical order: per mix, the baseline first, then the evaluation's
/// mechanism order — the same order `evaluate` ran (and prints) them, and
/// independent of `--jobs`.
pub fn eval_cells(eval: &Evaluation) -> Vec<(String, Vec<EpochRecord>)> {
    let mut cells = Vec::new();
    for w in &eval.workloads {
        cells.push((
            format!("{}: {}", w.mix.name, w.baseline.mechanism.label()),
            w.baseline.epochs.clone(),
        ));
        for m in &eval.mechanisms {
            cells.push((format!("{}: {}", w.mix.name, m.label()), w.managed[m].epochs.clone()));
        }
    }
    cells
}

/// Per-run accumulator for [`summarize`]. On `/3` journals each CAT
/// domain of a run gets its own row (`domain` is the grouping key's second
/// half); on `/1`–`/2` journals `domain` is always `None`.
struct RunStats {
    run: String,
    domain: Option<u64>,
    mechanism: String,
    epochs: u64,
    agg_epochs: u64,
    agg_core_sum: u64,
    trials: u64,
    winners: u64,
    faults: u64,
    degraded_epochs: u64,
    churn: u64,
    applied_sig: Option<String>,
    rollbacks: u64,
    quarantines: u64,
    breaker_trips: u64,
    last_throttled: usize,
    last_partitioned: usize,
}

/// Parses a journal and renders the human-readable summary: manifest
/// context plus one row per run (epoch count, how often aggressors were
/// detected, trials searched, final applied state).
pub fn summarize(text: &str) -> Result<String, String> {
    let doc = load(text)?;
    let man = doc.manifest;
    let mut runs: Vec<RunStats> = Vec::new();
    for rec in &doc.epochs {
        let run = rec.get("run").and_then(Json::as_str).unwrap_or("?").to_string();
        let domain = rec.get("domain").and_then(Json::as_u64);
        let stats = match runs.iter_mut().find(|r| r.run == run && r.domain == domain) {
            Some(s) => s,
            None => {
                runs.push(RunStats {
                    run: run.clone(),
                    domain,
                    mechanism: rec
                        .get("mechanism")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    epochs: 0,
                    agg_epochs: 0,
                    agg_core_sum: 0,
                    trials: 0,
                    winners: 0,
                    faults: 0,
                    degraded_epochs: 0,
                    churn: 0,
                    applied_sig: None,
                    rollbacks: 0,
                    quarantines: 0,
                    breaker_trips: 0,
                    last_throttled: 0,
                    last_partitioned: 0,
                });
                runs.last_mut().unwrap()
            }
        };
        stats.epochs += 1;
        let agg_len = rec.get("agg").and_then(Json::as_array).map(<[Json]>::len).unwrap_or(0);
        if agg_len > 0 {
            stats.agg_epochs += 1;
            stats.agg_core_sum += agg_len as u64;
        }
        stats.trials +=
            rec.get("trials").and_then(Json::as_array).map(<[Json]>::len).unwrap_or(0) as u64;
        if rec.get("winner").and_then(Json::as_u64).is_some() {
            stats.winners += 1;
        }
        // /2-only keys; absent (0) on /1 journals.
        stats.faults +=
            rec.get("faults").and_then(Json::as_array).map(<[Json]>::len).unwrap_or(0) as u64;
        if rec.get("degraded").and_then(Json::as_str).is_some() {
            stats.degraded_epochs += 1;
        }
        // /5-only key; absent on ungoverned journals.
        if let Some(events) = rec.get("governor").and_then(Json::as_array) {
            for ev in events {
                match ev.get("action").and_then(Json::as_str) {
                    Some("rollback") => stats.rollbacks += 1,
                    Some("quarantine") => stats.quarantines += 1,
                    Some("breaker_open") => stats.breaker_trips += 1,
                    _ => {}
                }
            }
        }
        if let Some(applied) = rec.get("applied") {
            stats.last_throttled = applied
                .get("prefetch")
                .and_then(Json::as_array)
                .map(|v| v.iter().filter(|p| p.as_bool() == Some(false)).count())
                .unwrap_or(0);
            // "Partitioned" = not every core shares one identical mask.
            stats.last_partitioned = applied
                .get("way_mask")
                .and_then(Json::as_array)
                .map(|v| {
                    let first = v.first().and_then(Json::as_u64);
                    if v.iter().all(|m| m.as_u64() == first) {
                        0
                    } else {
                        v.len()
                    }
                })
                .unwrap_or(0);
            // Decision churn: an epoch churns when its applied machine
            // state (CLOS/mask/prefetch/MBA images) differs from the run's
            // previous epoch. The msr_1a4 image subsumes the boolean
            // prefetch view; the elided-when-all-zero mba key renders as a
            // stable empty segment.
            let sig = ["clos", "way_mask", "msr_1a4", "mba"]
                .iter()
                .map(|k| {
                    applied
                        .get(k)
                        .and_then(Json::as_array)
                        .map(|v| {
                            v.iter()
                                .filter_map(Json::as_u64)
                                .map(|x| x.to_string())
                                .collect::<Vec<_>>()
                                .join(",")
                        })
                        .unwrap_or_default()
                })
                .collect::<Vec<_>>()
                .join(";");
            if stats.applied_sig.as_deref().is_some_and(|prev| prev != sig) {
                stats.churn += 1;
            }
            stats.applied_sig = Some(sig);
        }
    }

    let mut out = String::new();
    let field = |k: &str| man.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    let target = field("target");
    let quick = man.get("quick").and_then(Json::as_bool).unwrap_or(false);
    let seed = man.get("seed").and_then(Json::as_u64).unwrap_or(0);
    let host = man.get("host");
    let topology = man
        .get("topology")
        .and_then(Json::as_str)
        .map(|t| format!(" topology={t}"))
        .unwrap_or_default();
    out.push_str(&format!(
        "journal: target={target} quick={quick} seed={seed}{topology} git={} host={}/{} cpus={} {}\n",
        field("git_sha"),
        host.and_then(|h| h.get("os")).and_then(Json::as_str).unwrap_or("?"),
        host.and_then(|h| h.get("arch")).and_then(Json::as_str).unwrap_or("?"),
        host.and_then(|h| h.get("cpus")).and_then(Json::as_u64).unwrap_or(0),
        field("config_digest"),
    ));
    if doc.dropped > 0 {
        out.push_str(&format!(
            "note: torn tail — dropped {} partial line(s), salvaged {} epoch record(s)\n",
            doc.dropped,
            doc.epochs.len()
        ));
    }
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let mean_agg = if r.agg_epochs > 0 {
                format!("{:.1}", r.agg_core_sum as f64 / r.agg_epochs as f64)
            } else {
                "-".into()
            };
            vec![
                match r.domain {
                    Some(d) => format!("{} [d{d}]", r.run),
                    None => r.run.clone(),
                },
                r.mechanism.clone(),
                r.epochs.to_string(),
                format!("{}/{}", r.agg_epochs, r.epochs),
                mean_agg,
                r.trials.to_string(),
                r.winners.to_string(),
                r.faults.to_string(),
                r.degraded_epochs.to_string(),
                r.churn.to_string(),
                r.last_throttled.to_string(),
                if r.last_partitioned > 0 { "yes".into() } else { "no".into() },
            ]
        })
        .collect();
    out.push_str(&crate::report::table(
        &format!("journal-summary — {} runs, {} epochs", runs.len(), {
            runs.iter().map(|r| r.epochs).sum::<u64>()
        }),
        &[
            "run",
            "mechanism",
            "epochs",
            "agg-epochs",
            "mean|Agg|",
            "trials",
            "winners",
            "faults",
            "degraded",
            "churn",
            "throttled",
            "partitioned",
        ],
        &rows,
    ));
    // Resilience footer: only on runs where the harness actually absorbed
    // something, so clean-run summaries stay byte-identical.
    let eventful: Vec<&RunStats> = runs
        .iter()
        .filter(|r| {
            r.faults + r.degraded_epochs + r.rollbacks + r.quarantines + r.breaker_trips > 0
        })
        .collect();
    if !eventful.is_empty() {
        let sum = |f: fn(&RunStats) -> u64| eventful.iter().map(|r| f(r)).sum::<u64>();
        out.push_str(&format!(
            "resilience: faults={} degraded-epochs={} rollbacks={} quarantines={} \
             breaker-trips={}\n",
            sum(|r| r.faults),
            sum(|r| r.degraded_epochs),
            sum(|r| r.rollbacks),
            sum(|r| r.quarantines),
            sum(|r| r.breaker_trips),
        ));
        for r in eventful {
            out.push_str(&format!(
                "  {}: faults={} degraded-epochs={} rollbacks={} quarantines={} \
                 breaker-trips={}\n",
                match r.domain {
                    Some(d) => format!("{} [d{d}]", r.run),
                    None => r.run.clone(),
                },
                r.faults,
                r.degraded_epochs,
                r.rollbacks,
                r.quarantines,
                r.breaker_trips,
            ));
        }
    }
    Ok(out)
}

/// Renders the journal's per-epoch telemetry as a plottable CSV
/// (`journal-summary --csv`): one row per epoch record, with the
/// execution-epoch outcome fields the control loop is judged by. Empty
/// cells mean "not available this epoch" (e.g. `exec_hm_ipc` before the
/// first execution epoch completes).
pub fn epochs_csv(text: &str) -> Result<String, String> {
    let doc = load(text)?;
    // The domain column only appears on multi-socket (/3) journals, so
    // single-socket CSV output stays byte-identical to the /2 reader's.
    let with_domain = doc.epochs.iter().any(|r| r.get("domain").is_some());
    let mut out = if with_domain {
        String::from("run,domain,epoch,mechanism,exec_hm_ipc,exec_ipc_delta,faults,degraded\n")
    } else {
        String::from("run,epoch,mechanism,exec_hm_ipc,exec_ipc_delta,faults,degraded\n")
    };
    for rec in &doc.epochs {
        let run = rec.get("run").and_then(Json::as_str).unwrap_or("?");
        let epoch = rec.get("epoch").and_then(Json::as_u64).unwrap_or(0);
        let mech = rec.get("mechanism").and_then(Json::as_str).unwrap_or("?");
        let hm = rec
            .get("exec_hm_ipc")
            .and_then(Json::as_f64)
            .map(|v| format!("{v:.6}"))
            .unwrap_or_default();
        let delta = rec
            .get("exec_ipc_delta")
            .and_then(Json::as_f64)
            .map(|v| format!("{v:.6}"))
            .unwrap_or_default();
        let faults = rec.get("faults").and_then(Json::as_array).map(<[Json]>::len).unwrap_or(0);
        let degraded = rec.get("degraded").and_then(Json::as_str).unwrap_or("");
        let domain = if with_domain {
            format!(
                "{},",
                rec.get("domain").and_then(Json::as_u64).map(|d| d.to_string()).unwrap_or_default()
            )
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{},{domain}{},{},{},{},{},{}\n",
            csv_field(run),
            epoch,
            csv_field(mech),
            hm,
            delta,
            faults,
            csv_field(degraded)
        ));
    }
    Ok(out)
}

/// Quotes a CSV field when it contains a delimiter, quote or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// `repro journal-summary <journal.jsonl> [--csv PATH]`: prints the
/// summary and, with `csv`, also exports the journal's per-epoch telemetry
/// (epoch, mechanism, exec hm_ipc and delta, fault count, degraded flag)
/// as a plottable CSV. Exit 0; a read, parse or write error is returned for
/// the CLI to report with exit 2.
pub fn run_summary(path: &str, csv: Option<&Path>) -> Result<i32, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("journal-summary: read {path}: {e}"))?;
    let fail = |e: String| format!("journal-summary: {path}: {e}");
    print!("{}", summarize(&text).map_err(fail)?);
    if let Some(csv_path) = csv {
        let rows = epochs_csv(&text).map_err(fail)?;
        write_atomic(csv_path, rows.as_bytes())
            .map_err(|e| format!("journal-summary: write {}: {e}", csv_path.display()))?;
        eprintln!("[repro] wrote {} ({} epoch rows)", csv_path.display(), rows.lines().count() - 1);
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_core::frontend::Metrics;
    use cmm_core::telemetry::{CoreSample, Trial};
    use cmm_sim::system::CoreControl;

    fn record(epoch: u64, trials: usize) -> EpochRecord {
        EpochRecord {
            epoch,
            cycle: epoch * 100_000,
            mechanism: "CMM-a",
            domain: None,
            cores: vec![CoreSample {
                ipc: 1.0,
                metrics: Metrics {
                    l2_llc_traffic: 10,
                    l2_pf_miss_frac: 0.5,
                    l2_ptr: 0.01,
                    pga: 2.0,
                    l2_pmr: 0.7,
                    l2_ppm: 3.0,
                    llc_pt: 1.0,
                },
            }],
            agg: vec![0],
            friendly: vec![],
            unfriendly: vec![0],
            trials: (0..trials)
                .map(|i| Trial {
                    msr_1a4: vec![0xF * (i as u64 % 2)],
                    mba: vec![],
                    hm_ipc: 1.0 + i as f64,
                })
                .collect(),
            winner: if trials > 0 { Some(trials - 1) } else { None },
            exec_hm_ipc: if epoch > 1 { Some(1.0) } else { None },
            exec_ipc_delta: None,
            faults: Vec::new(),
            degraded: None,
            features: Vec::new(),
            action: None,
            governor: Vec::new(),
            applied: vec![
                CoreControl { clos: 1, way_mask: 0b11, msr_1a4: 0xF, mba_level: 0 },
                CoreControl { clos: 0, way_mask: 0xFFFFF, msr_1a4: 0x0, mba_level: 0 },
            ],
        }
    }

    fn meta() -> JournalMeta {
        JournalMeta {
            target: "test".into(),
            quick: true,
            seed: 3,
            config_debug: "cfg".into(),
            topology: None,
            mba: false,
            governor: false,
            learn: false,
        }
    }

    #[test]
    fn mba_journal_declares_schema_4_and_summarizes() {
        let man = manifest(&JournalMeta { mba: true, ..meta() });
        let mut r = record(1, 1);
        r.mechanism = "CBP";
        r.trials[0].mba = vec![40, 0];
        r.applied[0].mba_level = 40;
        let text = render(&man, &[("Mix-00: CBP".to_string(), vec![r])]);
        assert!(text.starts_with("{\"schema\":\"cmm-journal/4\""), "{text}");
        assert!(text.contains("\"mba\":[40,0]"), "{text}");
        let summary = summarize(&text).expect("summary");
        assert!(summary.contains("Mix-00: CBP"), "{summary}");
    }

    #[test]
    fn governed_journal_declares_schema_5_and_reports_resilience() {
        use cmm_core::telemetry::GovernorEvent;
        let man = manifest(&JournalMeta { mba: true, governor: true, ..meta() });
        let mut r = record(2, 1);
        r.mechanism = "CBP+gov";
        r.governor = vec![
            GovernorEvent { cycle: 200_000, action: "rollback", core: None, class: None },
            GovernorEvent { cycle: 200_000, action: "quarantine", core: Some(3), class: None },
            GovernorEvent {
                cycle: 200_000,
                action: "breaker_open",
                core: None,
                class: Some("mba"),
            },
            GovernorEvent {
                cycle: 200_000,
                action: "breaker_close",
                core: None,
                class: Some("mba"),
            },
        ];
        let text = render(&man, &[("Mix-00: CBP+gov".to_string(), vec![r])]);
        assert!(text.starts_with("{\"schema\":\"cmm-journal/5\""), "{text}");
        assert!(text.contains("\"governor\":true"), "{text}");
        assert!(text.contains("\"action\":\"rollback\""), "{text}");
        let summary = summarize(&text).expect("summary");
        assert!(
            summary.contains(
                "resilience: faults=0 degraded-epochs=0 rollbacks=1 quarantines=1 \
                 breaker-trips=1"
            ),
            "{summary}"
        );
        assert!(summary.contains("  Mix-00: CBP+gov: faults=0"), "{summary}");
        // The CSV header is pinned: governor events must not widen it.
        let csv = epochs_csv(&text).expect("csv");
        assert!(
            csv.starts_with("run,epoch,mechanism,exec_hm_ipc,exec_ipc_delta,faults,degraded\n"),
            "{csv}"
        );
    }

    #[test]
    fn learned_journal_declares_schema_6_and_counts_churn() {
        let man = manifest(&JournalMeta { mba: true, learn: true, ..meta() });
        let mut r1 = record(1, 0);
        r1.features = vec![1.25, 0.5];
        r1.action = Some("pf=0xf,cat=cmm,mba=0,stretch=1".into());
        let mut r2 = record(2, 0);
        r2.applied[0].way_mask = 0b1100; // re-planned differently: churn
        let mut r3 = record(3, 0);
        r3.applied[0].way_mask = 0b1100; // held steady: no churn
        for r in [&mut r1, &mut r2, &mut r3] {
            r.mechanism = "RL-CBP";
        }
        let text = render(&man, &[("Mix-00: RL-CBP".to_string(), vec![r1, r2, r3])]);
        assert!(text.starts_with("{\"schema\":\"cmm-journal/6\""), "{text}");
        assert!(text.contains("\"learn\":true"), "{text}");
        assert!(text.contains("\"features\":[1.250000,0.500000]"), "{text}");
        assert!(text.contains("\"action\":\"pf=0xf,cat=cmm,mba=0,stretch=1\""), "{text}");
        let summary = summarize(&text).expect("summary");
        let row = summary.lines().find(|l| l.contains("Mix-00: RL-CBP")).expect("run row");
        let cols: Vec<&str> = row.split_whitespace().collect();
        // Trailing columns: …, degraded, churn, throttled, partitioned.
        assert_eq!(cols[cols.len() - 3], "1", "one applied-state change in three epochs: {row}");
        // The CSV header is pinned: /6 keys must not widen it.
        let csv = epochs_csv(&text).expect("csv");
        assert!(
            csv.starts_with("run,epoch,mechanism,exec_hm_ipc,exec_ipc_delta,faults,degraded\n"),
            "{csv}"
        );
    }

    #[test]
    fn clean_summaries_have_no_resilience_footer() {
        let man = manifest(&meta());
        let text = render(&man, &[("Mix-00: CMM-a".to_string(), vec![record(1, 1)])]);
        let summary = summarize(&text).expect("summary");
        assert!(!summary.contains("resilience:"), "{summary}");
    }

    #[test]
    fn multi_socket_journal_groups_by_domain() {
        let man = manifest(&JournalMeta { topology: Some("2x2".into()), ..meta() });
        let mut d0 = record(1, 1);
        d0.domain = Some(0);
        let mut d1 = record(1, 2);
        d1.domain = Some(1);
        let text = render(&man, &[("Mix-00: CMM-a".to_string(), vec![d0, d1])]);
        assert!(text.starts_with("{\"schema\":\"cmm-journal/3\""), "{text}");
        let summary = summarize(&text).expect("summary");
        // One row per domain, plus the topology in the header.
        assert!(summary.contains("topology=2x2"), "{summary}");
        assert!(summary.contains("Mix-00: CMM-a [d0]"), "{summary}");
        assert!(summary.contains("Mix-00: CMM-a [d1]"), "{summary}");
        assert!(summary.contains("2 runs, 2 epochs"), "{summary}");
        let csv = epochs_csv(&text).expect("csv");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "run,domain,epoch,mechanism,exec_hm_ipc,exec_ipc_delta,faults,degraded"
        );
        assert!(lines[1].starts_with("Mix-00: CMM-a,0,1,"), "{csv}");
        assert!(lines[2].starts_with("Mix-00: CMM-a,1,1,"), "{csv}");
    }

    #[test]
    fn rendered_journal_round_trips_through_summarize() {
        let man = manifest(&meta());
        let cells = vec![
            ("Mix-00: Baseline".to_string(), vec![record(1, 0)]),
            ("Mix-00: CMM-a".to_string(), vec![record(1, 2), record(2, 3)]),
        ];
        let text = render(&man, &cells);
        assert_eq!(text.lines().count(), 4);
        let summary = summarize(&text).expect("summary");
        assert!(summary.contains("target=test"), "{summary}");
        assert!(summary.contains("Mix-00: CMM-a"), "{summary}");
        assert!(summary.contains("2 runs, 3 epochs"), "{summary}");
        // CMM row: 2 epochs, 5 trials, 2 winners, 1 throttled core,
        // partitioned.
        assert!(summary.contains('5'), "{summary}");
        assert!(summary.contains("yes"), "{summary}");
    }

    #[test]
    fn every_journal_line_is_valid_json() {
        let man = manifest(&meta());
        let text = render(&man, &[("r".to_string(), vec![record(1, 1)])]);
        for line in text.lines() {
            assert!(parse(line).is_ok(), "invalid journal line: {line}");
        }
    }

    #[test]
    fn load_recovers_a_torn_tail() {
        let man = manifest(&meta());
        let text = render(&man, &[("r".to_string(), vec![record(1, 1), record(2, 2)])]);
        // Tear the final epoch line as a crash mid-write would.
        let torn = &text[..text.len() - 25];
        let doc = load(torn).expect("torn tail must salvage, not error");
        assert_eq!(doc.dropped, 1);
        assert_eq!(doc.epochs.len(), 1, "only the intact epoch survives");
        let summary = summarize(torn).expect("summary of salvaged journal");
        assert!(summary.contains("torn tail"), "{summary}");
        assert!(summary.contains("1 runs, 1 epochs"), "{summary}");
    }

    #[test]
    fn load_still_rejects_mid_file_corruption() {
        let man = manifest(&meta());
        let text = render(&man, &[("r".to_string(), vec![record(1, 1), record(2, 2)])]);
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{definitely not json";
        let corrupted = format!("{}\n", lines.join("\n"));
        let err = load(&corrupted).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(summarize(&corrupted).is_err());
    }

    #[test]
    fn torn_manifest_is_an_error_not_a_panic() {
        // A journal whose only line is a torn manifest salvages to empty.
        let err = load("{\"schema\":\"cmm-jour").unwrap_err();
        assert!(err.contains("empty journal"), "{err}");
    }

    #[test]
    fn epochs_csv_exports_one_row_per_epoch() {
        let man = manifest(&meta());
        let cells = vec![
            ("Mix-00: Baseline".to_string(), vec![record(1, 0)]),
            ("Mix-00: CMM-a".to_string(), vec![record(1, 2), record(2, 3)]),
        ];
        let csv = epochs_csv(&render(&man, &cells)).expect("csv");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "run,epoch,mechanism,exec_hm_ipc,exec_ipc_delta,faults,degraded");
        assert_eq!(lines.len(), 4, "{csv}");
        assert!(lines[1].starts_with("Mix-00: Baseline,1,CMM-a,"), "{csv}");
        // Epoch 1 has no completed execution epoch: empty exec fields.
        assert!(lines[2].ends_with(",,,0,"), "{csv}");
        // Epoch 2 reports exec_hm_ipc at journal precision.
        assert!(lines[3].contains(",1.000000,"), "{csv}");
    }

    #[test]
    fn csv_fields_with_delimiters_are_quoted() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn manifest_reflects_environment() {
        let man = manifest(&meta());
        assert_eq!(man.host_os, std::env::consts::OS);
        assert!(man.host_cpus >= 1);
        assert!(man.config_digest.starts_with("fnv1a:"));
        // Running inside the repo's checkout, the SHA must resolve.
        assert_ne!(man.git_sha, "");
    }

    #[test]
    fn git_sha_resolves_in_this_checkout() {
        let sha = git_sha().expect("repo checkout");
        assert!(sha.len() >= 7, "sha {sha}");
        assert!(sha.chars().all(|c| c.is_ascii_hexdigit()), "sha {sha}");
    }

    #[test]
    fn summarize_rejects_garbage() {
        assert!(summarize("").is_err());
        assert!(summarize("{\"schema\":\"other\"}").is_err());
        assert!(summarize("not json").is_err());
    }

    #[test]
    fn write_reports_epoch_count() {
        let dir = std::env::temp_dir().join("cmm_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let man = manifest(&meta());
        let n = write(&path, &man, &[("r".to_string(), vec![record(1, 0), record(2, 1)])])
            .expect("write");
        assert_eq!(n, 2);
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back.lines().count(), 3);
        std::fs::remove_file(&path).ok();
    }
}
