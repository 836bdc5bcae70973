//! `repro journal-diff` — structural comparison of two run journals.
//!
//! A `cmm-journal/*` file is a pure function of (workload, seed,
//! configuration), so two journals of the same run must agree on every
//! *decision*: which cores each epoch put in the Agg set, which trial won,
//! and which way masks / throttle MSRs were applied afterwards. This
//! module reduces each journal to that per-run decision sequence and
//! reports the first divergence per run — a far more useful answer than
//! `cmp`'s byte offset when a refactor changes controller behaviour.
//!
//! Cosmetic fields (metric values, IPCs, fault timestamps) are ignored:
//! the diff asks "did the controller *decide* differently?", not "did the
//! floats format identically?".

use crate::json::{self, Json};

/// The decision content of one profiling epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// 1-based epoch index within the run.
    pub epoch: u64,
    /// Detected Agg set, as journaled.
    pub agg: Vec<u64>,
    /// Winning trial index, if a search ran.
    pub winner: Option<u64>,
    /// Per-core applied CAT way masks.
    pub way_mask: Vec<u64>,
    /// Per-core applied prefetch-throttle MSR images.
    pub msr_1a4: Vec<u64>,
    /// Per-core applied MBA delay levels (`/4` journals; empty when the
    /// epoch left every core unthrottled — the key is elided then).
    pub mba: Vec<u64>,
    /// Fallback mechanism the epoch degraded to, if any (`/2` journals).
    pub degraded: Option<String>,
}

/// One journal reduced to its decision sequences.
#[derive(Debug, Clone)]
pub struct Decisions {
    /// Manifest `schema` line (`cmm-journal/1`..`/4`). A `/4` journal
    /// records a third resource (MBA levels) that earlier schemas cannot
    /// express, so callers refuse cross-schema diffs the same way they
    /// refuse cross-topology ones.
    pub schema: String,
    /// Manifest `config_digest` (used for a mismatch *note*, not a
    /// divergence: comparing different configs is legitimate).
    pub config_digest: String,
    /// Manifest `topology` (`/3` journals). Comparing journals from
    /// different machine shapes is meaningless — per-domain decision
    /// sequences don't line up — so callers refuse the diff outright.
    pub topology: Option<String>,
    /// Per-run decision sequences, in first-appearance order. Multi-socket
    /// epochs key as `"<run> [d<domain>]"`, one sequence per CAT domain.
    pub runs: Vec<(String, Vec<Decision>)>,
}

fn u64s(v: Option<&Json>) -> Vec<u64> {
    v.and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_u64).collect())
        .unwrap_or_default()
}

/// Parses a journal into its [`Decisions`]. Accepts any `cmm-journal/*`
/// schema — the decision fields exist in `/1` and `/2` alike (`degraded`
/// is simply absent-as-`None` on `/1`). A final line torn by a crash
/// mid-write is dropped (torn-tail salvage) rather than failing the file.
pub fn parse_decisions(text: &str) -> Result<Decisions, String> {
    let salvage = crate::atomic::salvage_jsonl(text);
    let mut lines = salvage.lines.iter();
    let manifest =
        json::parse(lines.next().ok_or_else(|| "empty journal (no manifest)".to_string())?)
            .map_err(|e| format!("manifest: {e}"))?;
    let schema = manifest.get("schema").and_then(Json::as_str).unwrap_or("").to_string();
    if !schema.starts_with("cmm-journal/") {
        return Err(format!("not a cmm journal (schema '{schema}')"));
    }
    let config_digest =
        manifest.get("config_digest").and_then(Json::as_str).unwrap_or("").to_string();
    let topology = manifest.get("topology").and_then(Json::as_str).map(str::to_string);

    let mut runs: Vec<(String, Vec<Decision>)> = Vec::new();
    for (i, line) in lines.enumerate() {
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", i + 2))?;
        if rec.get("kind").and_then(Json::as_str) != Some("epoch") {
            continue;
        }
        let mut run = rec.get("run").and_then(Json::as_str).unwrap_or("?").to_string();
        if let Some(d) = rec.get("domain").and_then(Json::as_u64) {
            run.push_str(&format!(" [d{d}]"));
        }
        let applied = rec.get("applied");
        let d = Decision {
            epoch: rec.get("epoch").and_then(Json::as_u64).unwrap_or(0),
            agg: u64s(rec.get("agg")),
            winner: rec.get("winner").and_then(Json::as_u64),
            way_mask: u64s(applied.and_then(|a| a.get("way_mask"))),
            msr_1a4: u64s(applied.and_then(|a| a.get("msr_1a4"))),
            mba: u64s(applied.and_then(|a| a.get("mba"))),
            degraded: rec.get("degraded").and_then(Json::as_str).map(str::to_string),
        };
        match runs.iter_mut().find(|(name, _)| *name == run) {
            Some((_, seq)) => seq.push(d),
            None => runs.push((run, vec![d])),
        }
    }
    Ok(Decisions { schema, config_digest, topology, runs })
}

/// Outcome of comparing two journals' decision sequences.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Context that does not count as divergence (config-digest mismatch).
    pub notes: Vec<String>,
    /// Human-readable divergences; empty means the decisions are
    /// identical.
    pub divergences: Vec<String>,
}

impl DiffReport {
    /// True when no decision diverged.
    pub fn identical(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Renders the report for the terminal.
    pub fn render(&self, a_name: &str, b_name: &str) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        if self.identical() {
            out.push_str(&format!("journal-diff: decisions identical ({a_name} vs {b_name})\n"));
        } else {
            for d in &self.divergences {
                out.push_str(&format!("diverged: {d}\n"));
            }
            out.push_str(&format!(
                "journal-diff: {} divergence(s) ({a_name} vs {b_name})\n",
                self.divergences.len()
            ));
        }
        out
    }
}

fn describe(d: &Decision) -> String {
    format!(
        "agg={:?} winner={:?} way_mask={:?} msr_1a4={:?} mba={:?} degraded={:?}",
        d.agg, d.winner, d.way_mask, d.msr_1a4, d.mba, d.degraded
    )
}

/// Compares two decision sets run by run, reporting runs missing from one
/// side, epoch-count mismatches, and the first differing epoch per run.
pub fn diff(a: &Decisions, b: &Decisions) -> DiffReport {
    let mut rep = DiffReport::default();
    if a.config_digest != b.config_digest {
        rep.notes.push(format!(
            "config digests differ ({} vs {}); comparing decisions anyway",
            a.config_digest, b.config_digest
        ));
    }
    for (run, seq_a) in &a.runs {
        let Some((_, seq_b)) = b.runs.iter().find(|(name, _)| name == run) else {
            rep.divergences.push(format!("run '{run}' missing from second journal"));
            continue;
        };
        if let Some((da, db)) = seq_a.iter().zip(seq_b).find(|(da, db)| da != db) {
            rep.divergences.push(format!(
                "run '{run}' epoch {}: {} != {}",
                da.epoch,
                describe(da),
                describe(db)
            ));
            continue;
        }
        if seq_a.len() != seq_b.len() {
            rep.divergences.push(format!("run '{run}': {} epochs vs {}", seq_a.len(), seq_b.len()));
        }
    }
    for (run, _) in &b.runs {
        if !a.runs.iter().any(|(name, _)| name == run) {
            rep.divergences.push(format!("run '{run}' missing from first journal"));
        }
    }
    rep
}

/// `repro journal-diff <a> <b>`: exit 0 when the decision sequences are
/// identical, 1 on divergence; a read or parse error, or journals of
/// different topologies or schemas, are returned for the CLI to report
/// with exit 2.
pub fn run(a_path: &str, b_path: &str) -> Result<i32, String> {
    let load = |p: &str| -> Result<Decisions, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("journal-diff: read {p}: {e}"))?;
        parse_decisions(&text).map_err(|e| format!("journal-diff: {p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    // Different machine shapes produce per-domain decision sequences that
    // cannot line up; refuse rather than report spurious divergences.
    if a.topology != b.topology {
        let show = |t: &Option<String>| t.clone().unwrap_or_else(|| "single-socket".into());
        return Err(format!(
            "journal-diff: topology mismatch: {a_path} is {} but {b_path} is {}; \
             re-run both journals on the same --topology to compare decisions",
            show(&a.topology),
            show(&b.topology)
        ));
    }
    // A /4 journal records a third resource (MBA delay levels) that
    // earlier schemas cannot express; a same-schema journal with different
    // decisions is a real divergence, but a cross-schema pair would only
    // report the schema gap dressed up as decision drift. Refuse outright,
    // like the topology gate above.
    if a.schema != b.schema {
        return Err(format!(
            "journal-diff: schema mismatch: {a_path} is {} but {b_path} is {}; \
             re-record both journals under the same schema to compare decisions",
            a.schema, b.schema
        ));
    }
    let rep = diff(&a, &b);
    print!("{}", rep.render(a_path, b_path));
    Ok(i32::from(!rep.identical()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = "{\"schema\":\"cmm-journal/2\",\"kind\":\"manifest\",\
        \"target\":\"table1\",\"quick\":true,\"seed\":42,\"git_sha\":\"x\",\
        \"host\":{\"os\":\"linux\",\"arch\":\"x86_64\",\"cpus\":8},\
        \"config_digest\":\"fnv1a:1\"}";

    fn epoch_line(run: &str, epoch: u64, winner: &str, mask: u64) -> String {
        format!(
            "{{\"kind\":\"epoch\",\"run\":\"{run}\",\"mechanism\":\"CMM-a\",\
             \"epoch\":{epoch},\"cycle\":100,\"cores\":[],\"agg\":[0,2],\
             \"friendly\":[0],\"unfriendly\":[2],\"trials\":[],\
             \"winner\":{winner},\"exec_hm_ipc\":null,\"exec_ipc_delta\":null,\
             \"faults\":[],\"degraded\":null,\
             \"applied\":{{\"clos\":[0],\"way_mask\":[{mask}],\"msr_1a4\":[0],\
             \"prefetch\":[true]}}}}"
        )
    }

    fn journal(lines: &[String]) -> String {
        let mut s = String::from(MANIFEST);
        for l in lines {
            s.push('\n');
            s.push_str(l);
        }
        s.push('\n');
        s
    }

    #[test]
    fn identical_journals_have_no_divergence() {
        let j = journal(&[epoch_line("A: CMM-a", 1, "0", 3), epoch_line("A: CMM-a", 2, "1", 7)]);
        let a = parse_decisions(&j).unwrap();
        let b = parse_decisions(&j).unwrap();
        let rep = diff(&a, &b);
        assert!(rep.identical(), "{:?}", rep.divergences);
        assert!(rep.notes.is_empty());
        assert!(rep.render("a", "b").contains("identical"));
    }

    #[test]
    fn changed_decision_is_first_divergence() {
        let a = parse_decisions(&journal(&[
            epoch_line("A: CMM-a", 1, "0", 3),
            epoch_line("A: CMM-a", 2, "1", 7),
        ]))
        .unwrap();
        let b = parse_decisions(&journal(&[
            epoch_line("A: CMM-a", 1, "0", 3),
            epoch_line("A: CMM-a", 2, "null", 7),
        ]))
        .unwrap();
        let rep = diff(&a, &b);
        assert_eq!(rep.divergences.len(), 1);
        assert!(rep.divergences[0].contains("epoch 2"), "{}", rep.divergences[0]);
    }

    #[test]
    fn missing_runs_and_length_mismatch_diverge() {
        let a = parse_decisions(&journal(&[
            epoch_line("A: CMM-a", 1, "0", 3),
            epoch_line("A: CMM-a", 2, "0", 3),
            epoch_line("B: PT", 1, "0", 3),
        ]))
        .unwrap();
        let b = parse_decisions(&journal(&[
            epoch_line("A: CMM-a", 1, "0", 3),
            epoch_line("C: Dunn", 1, "0", 3),
        ]))
        .unwrap();
        let rep = diff(&a, &b);
        let text = rep.render("x", "y");
        assert!(text.contains("'A: CMM-a': 2 epochs vs 1"), "{text}");
        assert!(text.contains("'B: PT' missing from second"), "{text}");
        assert!(text.contains("'C: Dunn' missing from first"), "{text}");
    }

    #[test]
    fn config_digest_mismatch_is_a_note_not_a_divergence() {
        let a = parse_decisions(&journal(&[epoch_line("A: CMM-a", 1, "0", 3)])).unwrap();
        let mut b = a.clone();
        b.config_digest = "fnv1a:2".into();
        let rep = diff(&a, &b);
        assert!(rep.identical());
        assert_eq!(rep.notes.len(), 1);
    }

    #[test]
    fn torn_tail_is_salvaged_before_diffing() {
        let full = journal(&[epoch_line("A: CMM-a", 1, "0", 3), epoch_line("A: CMM-a", 2, "1", 7)]);
        let torn = &full[..full.len() - 20];
        let a = parse_decisions(torn).expect("torn tail salvages");
        assert_eq!(a.runs[0].1.len(), 1, "the torn epoch is dropped");
        let b = parse_decisions(&full).unwrap();
        let rep = diff(&a, &b);
        assert!(rep.render("torn", "full").contains("1 epochs vs 2"));
    }

    #[test]
    fn multi_socket_domains_key_separately_and_topology_parses() {
        let m3 = MANIFEST
            .replace("cmm-journal/2", "cmm-journal/3")
            .replace("\"seed\":42", "\"seed\":42,\"topology\":\"2x2\"");
        let line = |d: u64| {
            epoch_line("A: CMM-a", 1, "0", 3).replace(
                "\"mechanism\":\"CMM-a\"",
                &format!("\"mechanism\":\"CMM-a\",\"domain\":{d}"),
            )
        };
        let j = format!("{m3}\n{}\n{}\n", line(0), line(1));
        let d = parse_decisions(&j).unwrap();
        assert_eq!(d.topology.as_deref(), Some("2x2"));
        let names: Vec<&str> = d.runs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["A: CMM-a [d0]", "A: CMM-a [d1]"]);
        // Single-socket journals stay topology-less (the refusal gate in
        // `repro journal-diff` keys off this being `None`).
        let plain = parse_decisions(&journal(&[epoch_line("A: CMM-a", 1, "0", 3)])).unwrap();
        assert_eq!(plain.topology, None);
    }

    #[test]
    fn schema_is_captured_and_applied_mba_counts_as_a_decision() {
        let plain = parse_decisions(&journal(&[epoch_line("A: CMM-a", 1, "0", 3)])).unwrap();
        assert_eq!(plain.schema, "cmm-journal/2");
        let m4 = MANIFEST.replace("cmm-journal/2", "cmm-journal/4");
        let throttled = epoch_line("A: CBP", 1, "0", 3)
            .replace("\"prefetch\":[true]", "\"prefetch\":[true],\"mba\":[40]");
        let a = parse_decisions(&format!("{m4}\n{throttled}\n")).unwrap();
        assert_eq!(a.schema, "cmm-journal/4");
        assert_eq!(a.runs[0].1[0].mba, vec![40]);
        // Same epoch without the throttle: a real divergence, not cosmetic.
        let b = parse_decisions(&format!("{m4}\n{}\n", epoch_line("A: CBP", 1, "0", 3))).unwrap();
        let rep = diff(&a, &b);
        assert_eq!(rep.divergences.len(), 1);
        assert!(rep.divergences[0].contains("mba=[40]"), "{}", rep.divergences[0]);
    }

    #[test]
    fn rejects_non_journal_input() {
        assert!(parse_decisions("").is_err());
        assert!(parse_decisions("{\"schema\":\"other/1\"}").is_err());
        assert!(parse_decisions("not json").is_err());
        // A /1 journal (no degraded/faults keys) still parses.
        let v1 = MANIFEST.replace("cmm-journal/2", "cmm-journal/1");
        let line = epoch_line("A: PT", 1, "0", 3)
            .replace(",\"faults\":[],\"degraded\":null", "")
            .replace(",\"exec_hm_ipc\":null,\"exec_ipc_delta\":null", "");
        let d = parse_decisions(&format!("{v1}\n{line}\n")).unwrap();
        assert_eq!(d.runs.len(), 1);
        assert_eq!(d.runs[0].1[0].degraded, None);
    }
}
