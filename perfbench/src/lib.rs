//! End-to-end and per-layer benchmark of the CMM stack.
//!
//! A run builds one workload's (mix, mechanism) cells from the workload
//! seed, runs a *reference pass* over the traced path, then repeats timed
//! passes until the time budget is spent:
//!
//! * untraced (`--trace 0`): each pass calls the library's entry points
//!   (`run_mix_pooled`, `run_mix`, `run_mix_learned`, `run_mix_governed`)
//!   and yields the end-to-end metrics;
//! * traced (`--trace 1`): untraced passes alternate with traced passes,
//!   which run the same cells over the [`probe::Probe`] decorator with
//!   spans around each layer, and yield the per-layer metrics plus the
//!   tracing overhead.
//!
//! Every pass must reproduce the reference pass bit for bit, which checks
//! repeatability, `--jobs` invariance and that the traced path is a
//! pass-through. See `README.md` beside this crate for the metric
//! definitions and the layer-to-metric map.

pub mod cells;
pub mod plan;
pub mod probe;
pub mod stats;

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use cmm_bench::checkpoint::{decode_mix_result, encode_mix_result};
use cmm_bench::journal;
use cmm_bench::runner::{try_parallel_map, CellOutcome};
use cmm_core::experiment::{ExperimentConfig, MixResult, WarmupPool};
use cmm_core::policy::Mechanism;
use cmm_core::telemetry::{config_digest, EpochRecord, Manifest};
use cmm_learn::features::N_FEATURES;
use cmm_metrics::{geomean, median};

use cells::{run_traced, run_untraced, CellTrace, TracedPool};
use plan::{Entry, Plan, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 51;
/// Timed passes an untraced run makes at least, whatever the budget.
pub const MIN_PASSES: usize = 3;
/// (untraced, traced) pass pairs a traced run makes at least.
pub const MIN_TRACED_PAIRS: usize = 2;
/// Repetitions of the checkpoint and journal encodings.
const CODEC_REPS: usize = 5;

/// Worker threads of the reference pass: serial when the timed passes
/// fan out, `min(2, nproc)` when they run serially, so every run compares
/// the runner's serial and parallel paths.
pub fn reference_jobs(timed_jobs: usize) -> usize {
    if timed_jobs > 1 {
        1
    } else {
        cmm_bench::runner::default_jobs().min(2)
    }
}

/// One cell of one pass.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell's result, `None` when it panicked.
    pub result: Option<MixResult>,
    /// The panic message when it did.
    pub error: Option<String>,
    /// Host seconds the cell took.
    pub secs: f64,
    /// The traced path's record (traced passes only).
    pub trace: Option<CellTrace>,
}

/// One pass over every cell of a plan.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds from the first cell's start to the last cell's end.
    pub wall_s: f64,
    /// Worker threads the pass ran on.
    pub jobs: usize,
    /// Per cell, in plan order.
    pub cells: Vec<CellRun>,
}

fn run_pass(
    plan: &Plan,
    jobs: usize,
    f: impl Fn(&plan::Cell) -> (MixResult, Option<CellTrace>) + Sync,
) -> Pass {
    let t0 = Instant::now();
    let outcomes = try_parallel_map(&plan.cells, jobs, 1, |_, cell| {
        let c0 = Instant::now();
        let r = f(cell);
        (r, c0.elapsed().as_secs_f64())
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cells = outcomes
        .into_iter()
        .map(|o| match o {
            CellOutcome::Ok(((result, trace), secs)) => {
                CellRun { result: Some(result), error: None, secs, trace }
            }
            CellOutcome::Failed(f) => {
                CellRun { result: None, error: Some(f.panic_msg), secs: 0.0, trace: None }
            }
        })
        .collect();
    Pass { wall_s, jobs, cells }
}

/// A pass through the library's entry points, with one [`WarmupPool`].
pub fn untraced_pass(plan: &Plan, jobs: usize) -> Pass {
    let pool = WarmupPool::new();
    run_pass(plan, jobs, |cell| (run_untraced(plan, &pool, cell), None))
}

/// A pass through the traced path, with one [`TracedPool`].
pub fn traced_pass(plan: &Plan, jobs: usize) -> Pass {
    let pool = TracedPool::new(plan);
    run_pass(plan, jobs, |cell| {
        let (r, t) = run_traced(plan, &pool, cell);
        (r, Some(t))
    })
}

/// True when every per-core IPC is finite and positive.
pub fn ipcs_valid(r: &MixResult) -> bool {
    !r.ipcs.is_empty() && r.ipcs.iter().all(|x| x.is_finite() && *x > 0.0)
}

/// Whether `back`, decoded from `r`'s checkpoint encoding, reproduces `r`
/// to the codec's contract: every field bit for bit, except epoch-record
/// floats, which the codec keeps at journal precision, so those records
/// must render the same journal line and the payload must re-encode to
/// the same bytes.
pub fn round_trip_equal(r: &MixResult, back: &MixResult) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    back.mechanism == r.mechanism
        && back.mix_name == r.mix_name
        && back.benchmarks == r.benchmarks
        && bits(&back.ipcs) == bits(&r.ipcs)
        && back.pmu == r.pmu
        && back.mem_bytes == r.mem_bytes
        && back.stalls_l2 == r.stalls_l2
        && back.overhead_ratio.to_bits() == r.overhead_ratio.to_bits()
        && back.epochs.len() == r.epochs.len()
        && back.epochs.iter().zip(&r.epochs).all(|(a, b)| a.to_json_line("") == b.to_json_line(""))
        && encode_mix_result(back) == encode_mix_result(r)
}

/// The cycle-accounting invariants of one traced cell, as a list of
/// violations (empty when the accounting is honest):
///
/// * the window is the epochs plus the execution epochs, and covers at
///   least the configured measurement length;
/// * every window cycle went through the decorator;
/// * the machine clock ends at the warm-up plus the window, so the cell
///   counts no cycle it did not simulate and misses none it did.
pub fn accounting_errors(cfg: &ExperimentConfig, t: &CellTrace) -> Vec<String> {
    let mut errs = Vec::new();
    if t.window_cycles != t.profile_cycles + t.exec_cycles {
        errs.push(format!(
            "window {} != profiling {} + execution {}",
            t.window_cycles, t.profile_cycles, t.exec_cycles
        ));
    }
    if t.window_cycles < cfg.total_cycles {
        errs.push(format!("window {} < configured {}", t.window_cycles, cfg.total_cycles));
    }
    if t.probe_cycles != t.window_cycles {
        errs.push(format!("decorator saw {} cycles, window {}", t.probe_cycles, t.window_cycles));
    }
    if t.end_now != cfg.warmup_cycles + t.window_cycles {
        errs.push(format!(
            "clock ends at {}, warm-up {} + window {}",
            t.end_now, cfg.warmup_cycles, t.window_cycles
        ));
    }
    errs
}

/// Warm-ups a pass must simulate: one per mix with pooled cells, one per
/// cell that warms fresh.
pub fn expected_warmups(plan: &Plan) -> u64 {
    let pooled: BTreeSet<usize> =
        plan.cells.iter().filter(|c| c.entry == Entry::Pooled).map(|c| c.mix).collect();
    let fresh = plan.cells.iter().filter(|c| c.entry != Entry::Pooled).count();
    (pooled.len() + fresh) as u64
}

/// Core-cycles one pass simulates, from the reference pass's clock
/// deltas: each cell's window, plus each warm-up once.
pub fn pass_core_cycles(reference: &Pass) -> u64 {
    reference.cells.iter().filter_map(|c| c.trace.as_ref()).map(CellTrace::sim_core_cycles).sum()
}

/// Counts attempted and failed cells and keeps the reference results
/// every later pass is compared against.
pub struct Checker {
    reference: Vec<Option<(MixResult, String)>>,
    reference_jobs: usize,
    /// Cells attempted, over every pass.
    pub attempted: u64,
    /// Cells that panicked, produced an invalid IPC or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Checker {
    /// Checks the reference pass (validity and cycle accounting) and
    /// keeps its results.
    pub fn new(plan: &Plan, reference: &Pass) -> Checker {
        let mut chk = Checker {
            reference: Vec::new(),
            reference_jobs: reference.jobs,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        };
        let mut warmups = 0;
        for (cell, run) in plan.cells.iter().zip(&reference.cells) {
            chk.attempted += 1;
            let label = cell.label(plan);
            let mut errs = Vec::new();
            if let Some(e) = &run.error {
                errs.push(format!("panicked: {e}"));
            }
            if let Some(r) = &run.result {
                if !ipcs_valid(r) {
                    errs.push(format!("invalid IPCs {:?}", r.ipcs));
                }
            }
            if let Some(t) = &run.trace {
                warmups += t.warmups;
                errs.extend(accounting_errors(plan.cfg(cell), t));
            }
            let ok = errs.is_empty();
            chk.fail(&label, "reference", errs);
            chk.reference.push(match (&run.result, ok) {
                (Some(r), true) => Some((r.clone(), encode_mix_result(r))),
                _ => None,
            });
        }
        if warmups != expected_warmups(plan) {
            chk.fail(
                "pass",
                "reference",
                vec![format!("simulated {warmups} warm-ups, expected {}", expected_warmups(plan))],
            );
        }
        chk
    }

    fn fail(&mut self, label: &str, pass: &str, errs: Vec<String>) {
        if !errs.is_empty() {
            self.failed += 1;
            self.notes.push(format!("{pass} {label}: {}", errs.join("; ")));
        }
    }

    /// Checks a later pass cell by cell against the reference.
    pub fn compare(&mut self, plan: &Plan, pass: &Pass, what: &str) {
        let mut failures = Vec::new();
        for ((cell, run), reference) in plan.cells.iter().zip(&pass.cells).zip(&self.reference) {
            let mut errs = Vec::new();
            match (&run.result, reference) {
                (None, _) => errs.push(format!("panicked: {}", run.error.as_deref().unwrap_or(""))),
                (Some(_), None) => errs.push("no valid reference result".into()),
                (Some(r), Some((want, want_enc))) => {
                    if !ipcs_valid(r) {
                        errs.push(format!("invalid IPCs {:?}", r.ipcs));
                    }
                    let bits_equal = r
                        .ipcs
                        .iter()
                        .map(|x| x.to_bits())
                        .eq(want.ipcs.iter().map(|x| x.to_bits()));
                    if !bits_equal || r.epochs != want.epochs || encode_mix_result(r) != *want_enc {
                        errs.push(format!(
                            "differs from the traced reference (jobs {} vs {})",
                            pass.jobs, self.reference_jobs
                        ));
                    }
                }
            }
            failures.push((cell.label(plan), errs));
        }
        for (label, errs) in failures {
            self.attempted += 1;
            self.fail(&label, what, errs);
        }
    }

    /// The reference results in plan order (`None` for failed cells).
    pub fn results(&self) -> Vec<Option<&MixResult>> {
        self.reference.iter().map(|r| r.as_ref().map(|(m, _)| m)).collect()
    }
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Cells attempted over every pass.
    pub attempted: u64,
    /// Cells failed.
    pub failed: u64,
    /// The metrics of the run's mode, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Runs `workload` for about `seconds` of timed passes.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (plan, machines) = Plan::build(workload, seed)?;
        setup.push(t0.elapsed().as_secs_f64());
        drop(machines);
        built = Some(plan);
    }
    let plan = built.expect("at least one set-up repetition");
    let jobs = workload.jobs();
    let reference = traced_pass(&plan, reference_jobs(jobs));
    let mut chk = Checker::new(&plan, &reference);
    stats::release_free_memory();
    let codec = codec_round_trip(&plan, &mut chk);

    let mut budget = Budget::new(seconds);
    let pass = |kind: fn(&Plan, usize) -> Pass| {
        let p = kind(&plan, jobs);
        stats::release_free_memory();
        p
    };
    let mut notes = Vec::new();
    let metrics = if trace {
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        while budget.another(MIN_TRACED_PAIRS) {
            // Alternate which side goes first, so drift hits both alike.
            let traced_first = untraced.len() % 2 == 1;
            if traced_first {
                traced.push(pass(traced_pass));
            }
            untraced.push(pass(untraced_pass));
            if !traced_first {
                traced.push(pass(traced_pass));
            }
        }
        for p in &untraced {
            chk.compare(&plan, p, "untraced");
        }
        for p in &traced {
            chk.compare(&plan, p, "traced");
        }
        notes.push(format!("untraced pass walls (s): {}", walls_list(&untraced)));
        notes.push(format!("traced pass walls (s): {}", walls_list(&traced)));
        per_layer(&plan, &chk, &untraced, &traced, &codec)
    } else {
        let mut passes = Vec::new();
        while budget.another(MIN_PASSES) {
            passes.push(pass(untraced_pass));
        }
        for p in &passes {
            chk.compare(&plan, p, "untraced");
        }
        let (m, n) = end_to_end(&plan, &chk, &reference, &passes, &setup);
        notes.extend(n);
        m
    };
    notes.push(format!(
        "fail_ratio = {} ratio ({} of {} cells)",
        chk.failed as f64 / chk.attempted.max(1) as f64,
        chk.failed,
        chk.attempted
    ));
    notes.extend(chk.notes.iter().cloned());
    Ok(Outcome { attempted: chk.attempted, failed: chk.failed, metrics, notes })
}

/// The timed phase's clock. A run makes at least a minimum number of
/// rounds, then starts another only while it is expected to end less than
/// half a round past the budget, so a run measures `seconds` on average
/// instead of overshooting by up to a whole round.
struct Budget {
    seconds: f64,
    start: Instant,
    last: Option<Instant>,
    rounds: Vec<f64>,
}

impl Budget {
    fn new(seconds: u64) -> Budget {
        Budget { seconds: seconds as f64, start: Instant::now(), last: None, rounds: Vec::new() }
    }

    /// Whether to start another round, having made `rounds.len()` of at
    /// least `min`.
    fn another(&mut self, min: usize) -> bool {
        let now = Instant::now();
        if let Some(last) = self.last.replace(now) {
            self.rounds.push((now - last).as_secs_f64());
        }
        let elapsed = (now - self.start).as_secs_f64();
        self.rounds.len() < min || elapsed + median(&self.rounds) / 2.0 < self.seconds
    }
}

fn per_mechanism_medians(plan: &Plan, passes: &[Pass]) -> String {
    let mut labels: Vec<String> = Vec::new();
    for l in plan.cells.iter().map(plan::Cell::mechanism_label) {
        if !labels.contains(&l) {
            labels.push(l);
        }
    }
    labels
        .iter()
        .map(|mech| {
            let secs: Vec<f64> = passes
                .iter()
                .flat_map(|p| plan.cells.iter().zip(&p.cells))
                .filter(|(c, run)| run.result.is_some() && c.mechanism_label() == *mech)
                .map(|(_, run)| run.secs)
                .collect();
            format!("{mech}={:.3}", median(&secs))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn walls_list(passes: &[Pass]) -> String {
    passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect::<Vec<_>>().join(" ")
}

fn end_to_end(
    plan: &Plan,
    chk: &Checker,
    reference: &Pass,
    passes: &[Pass],
    setup: &[f64],
) -> (Vec<Metric>, Vec<String>) {
    let results = chk.results();
    let cycles = pass_core_cycles(reference) as f64;
    let instructions: u64 = reference
        .cells
        .iter()
        .map(|c| {
            let warm = c.trace.as_ref().map_or(0, |t| t.warmup_instructions);
            let window: u64 = c.result.iter().flat_map(|r| &r.pmu).map(|p| p.instructions).sum();
            warm + window
        })
        .sum();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cell_secs: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cells.iter().filter(|c| c.result.is_some()).map(|c| c.secs))
        .collect();
    // Each cell's median over the passes first, so one slow pass moves no
    // cell across the gaps between the mechanisms' cost levels.
    let per_cell: Vec<f64> = (0..plan.cells.len())
        .map(|i| {
            let v: Vec<f64> = passes
                .iter()
                .map(|p| &p.cells[i])
                .filter(|c| c.result.is_some())
                .map(|c| c.secs)
                .collect();
            median(&v)
        })
        .collect();
    let tail_pct = stats::tail_percentile(cell_secs.len()).unwrap_or(50);

    let mut ws = Vec::new();
    let mut worsts = Vec::new();
    let mut worst = f64::INFINITY;
    let mut worst_cell = String::new();
    for (cell, r) in plan.cells.iter().zip(&results) {
        let (Some(r), Some(b)) = (r, plan.baseline_of(cell.mix).and_then(|i| results[i])) else {
            continue;
        };
        if cell.mech == Mechanism::Baseline {
            continue;
        }
        ws.push(cmm_metrics::weighted_speedup(&r.ipcs, &b.ipcs) / r.ipcs.len() as f64);
        let w = cmm_metrics::worst_case_speedup(&r.ipcs, &b.ipcs);
        worsts.push(w);
        if w < worst {
            worst = w;
            worst_cell = cell.label(plan);
        }
    }
    let traces: Vec<&CellTrace> = reference.cells.iter().filter_map(|c| c.trace.as_ref()).collect();
    let profile: u64 = traces.iter().map(|t| t.profile_cycles * t.cores).sum();
    let window: u64 = traces.iter().map(|t| t.window_cycles * t.cores).sum();
    let wall = median(&walls);

    let metrics = vec![
        metric("wall_s", "s", wall),
        metric("setup_s", "s", median(setup)),
        metric("sim_mcycles_per_s", "Mcycles/s", cycles / wall / 1e6),
        metric("sim_mips", "MIPS", instructions as f64 / wall / 1e6),
        metric("cell_p50_s", "s", median(&per_cell)),
        metric("cell_tail_s", "s", stats::percentile(&cell_secs, tail_pct)),
        metric("peak_rss_mb", "MiB", stats::peak_rss_mb().unwrap_or(0.0)),
        metric("ws_geomean", "ratio", geomean(&ws)),
        metric("worst_speedup", "ratio", geomean(&worsts)),
        metric("profile_share", "ratio", profile as f64 / window.max(1) as f64),
    ];
    let notes = vec![
        format!(
            "{} timed passes of {} cells at jobs {}; wall_s is the median of: {}",
            passes.len(),
            plan.cells.len(),
            passes.first().map_or(0, |p| p.jobs),
            walls_list(passes)
        ),
        format!(
            "cell_tail_s is the p{tail_pct} of {} cell samples (at least ten beyond it)",
            cell_secs.len()
        ),
        format!(
            "simulated per pass: {cycles} core-cycles ({} warm-ups counted once each), {instructions} instructions",
            expected_warmups(plan)
        ),
        format!("lowest worst_case_speedup of any managed cell: {worst} ({worst_cell})"),
        format!("median cell seconds by mechanism: {}", per_mechanism_medians(plan, passes)),
    ];
    (metrics, notes)
}

/// Host seconds of the checkpoint and journal encodings of one pass's
/// results, and their sizes.
struct Codec {
    encode_s: f64,
    decode_s: f64,
    bytes: usize,
    render_s: f64,
    journal_bytes: usize,
}

/// Round-trips every reference result through the checkpoint codec
/// (a mismatch fails the cell) and renders the pass's journal, timing
/// both.
fn codec_round_trip(plan: &Plan, chk: &mut Checker) -> Codec {
    let cells: Vec<(String, MixResult)> = plan
        .cells
        .iter()
        .zip(chk.results())
        .filter_map(|(c, r)| r.map(|r| (c.label(plan), r.clone())))
        .collect();
    let (mut enc_t, mut dec_t, mut render_t) = (Vec::new(), Vec::new(), Vec::new());
    let mut encoded = Vec::new();
    let mut decoded = Vec::new();
    for _ in 0..CODEC_REPS {
        let t0 = Instant::now();
        encoded = cells.iter().map(|(_, r)| encode_mix_result(r)).collect::<Vec<_>>();
        enc_t.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        decoded = encoded
            .iter()
            .map(|s| cmm_bench::json::parse(s).and_then(|j| decode_mix_result(&j)))
            .collect::<Vec<_>>();
        dec_t.push(t0.elapsed().as_secs_f64());
    }
    for ((label, r), back) in cells.iter().zip(&decoded) {
        chk.attempted += 1;
        let err = match back {
            Ok(back) if round_trip_equal(r, back) => Vec::new(),
            Ok(_) => vec!["checkpoint round trip differs".to_string()],
            Err(e) => vec![format!("checkpoint decode failed: {e}")],
        };
        chk.fail(label, "codec", err);
    }

    let topology = plan.cfgs.iter().map(|c| c.sys.topology).find(|t| !t.is_single());
    let man = Manifest {
        target: format!("perfbench-{}", plan.workload.name()),
        quick: true,
        seed: plan.seed,
        git_sha: stats::git_sha(),
        host_os: std::env::consts::OS.to_string(),
        host_arch: std::env::consts::ARCH.to_string(),
        host_cpus: std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        config_digest: config_digest(&format!("{:?}", plan.cfgs)),
        topology: topology.map(|t| t.label()),
        mba: true,
        governor: plan.cells.iter().any(|c| c.entry == Entry::Governed),
        learn: plan.cells.iter().any(|c| matches!(c.entry, Entry::MlSel | Entry::RlCbp)),
    };
    let journal_cells: Vec<(String, Vec<EpochRecord>)> =
        cells.into_iter().map(|(label, r)| (label, r.epochs)).collect();
    let mut journal_bytes = 0;
    for _ in 0..CODEC_REPS {
        let t0 = Instant::now();
        let text = journal::render(&man, &journal_cells);
        render_t.push(t0.elapsed().as_secs_f64());
        journal_bytes = text.len();
    }
    Codec {
        encode_s: median(&enc_t),
        decode_s: median(&dec_t),
        bytes: encoded.iter().map(String::len).sum(),
        render_s: median(&render_t),
        journal_bytes,
    }
}

/// Host nanoseconds per `Model::predict` over the feature vectors the
/// learned controllers recorded; 0 when no cell recorded any.
fn infer_ns(plan: &Plan, results: &[Option<&MixResult>]) -> f64 {
    let xs: Vec<[f64; N_FEATURES]> = results
        .iter()
        .flatten()
        .flat_map(|r| &r.epochs)
        .filter_map(|e| <[f64; N_FEATURES]>::try_from(e.features.as_slice()).ok())
        .collect();
    if xs.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t0.elapsed() < Duration::from_millis(20) {
        for x in &xs {
            std::hint::black_box(plan.model.predict(std::hint::black_box(x)));
        }
        calls += xs.len() as u64;
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

fn per_layer(
    plan: &Plan,
    chk: &Checker,
    untraced: &[Pass],
    traced: &[Pass],
    codec: &Codec,
) -> Vec<Metric> {
    // Span totals: the median over traced passes of each pass's sum.
    let per_pass = |g: fn(&CellTrace) -> u64| -> f64 {
        let sums: Vec<f64> = traced
            .iter()
            .map(|p| p.cells.iter().filter_map(|c| c.trace.as_ref()).map(g).sum::<u64>() as f64)
            .collect();
        median(&sums)
    };
    let secs = |g: fn(&CellTrace) -> u64| per_pass(g) / 1e9;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // Modelled counts: measurement-window PMU deltas of the reference.
    let results = chk.results();
    let pmu: Vec<&cmm_sim::pmu::Pmu> = results.iter().flatten().flat_map(|r| &r.pmu).collect();
    let total = |g: fn(&cmm_sim::pmu::Pmu) -> u64| pmu.iter().map(|p| g(p)).sum::<u64>() as f64;
    let instr = total(|p| p.instructions);
    let epochs: Vec<&EpochRecord> = results.iter().flatten().flat_map(|r| &r.epochs).collect();
    let gov = |action: &str| {
        epochs.iter().flat_map(|e| &e.governor).filter(|g| g.action == action).count() as f64
    };
    let mlsel: Vec<&EpochRecord> = results
        .iter()
        .flatten()
        .filter(|r| r.mechanism == Mechanism::MlSel)
        .flat_map(|r| &r.epochs)
        .collect();
    let busy: Vec<f64> = untraced
        .iter()
        .map(|p| p.cells.iter().map(|c| c.secs).sum::<f64>() / (p.wall_s * p.jobs as f64))
        .collect();
    let walls = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let exec_s = secs(|t| t.exec_ns);
    let exec_cycles = per_pass(|t| t.exec_cycles * t.cores);

    vec![
        metric("sim.exec_s", "s", exec_s),
        metric("sim.exec_cycles", "count", exec_cycles),
        metric("sim.ns_per_core_cycle", "ns", ratio(exec_s * 1e9, exec_cycles)),
        metric("sim.warmup_s", "s", secs(|t| t.warmup_ns)),
        metric("sim.warmup_cycles", "count", per_pass(|t| t.warmup_cycles * t.cores)),
        metric("sim.snapshot_s", "s", secs(|t| t.snapshot_ns)),
        metric("sim.restore_s", "s", secs(|t| t.restore_ns)),
        metric("sim.restores", "count", per_pass(|t| t.restores)),
        metric(
            "l1d.miss_ratio",
            "ratio",
            ratio(total(|p| p.l1d_misses), total(|p| p.l1d_accesses)),
        ),
        metric("l2.dm_miss_ratio", "ratio", ratio(total(|p| p.l2_dm_miss), total(|p| p.l2_dm_req))),
        metric("l2.pf_req", "count", total(|p| p.l2_pf_req)),
        metric(
            "l2.pf_accuracy",
            "ratio",
            ratio(total(|p| p.pf_used), total(|p| p.pf_used) + total(|p| p.pf_wasted)),
        ),
        metric("llc.load_miss_pki", "1/kinstr", ratio(total(|p| p.l3_load_miss) * 1e3, instr)),
        metric("mem.bytes_pki", "B/kinstr", ratio(total(|p| p.mem_total_bytes()) * 1e3, instr)),
        metric("mem.prefetches_dropped", "count", per_pass(|t| t.prefetches_dropped)),
        metric(
            "core.stall_l2_share",
            "ratio",
            ratio(total(|p| p.stalls_l2_pending), total(|p| p.cycles)),
        ),
        metric("ctrl.epochs", "count", per_pass(|t| t.epochs)),
        metric("ctrl.epoch_s", "s", secs(|t| t.epoch_ns)),
        metric("ctrl.self_s", "s", secs(|t| t.epoch_ns.saturating_sub(t.epoch_run_ns))),
        metric("ctrl.profile_cycles", "count", per_pass(|t| t.profile_cycles * t.cores)),
        metric("ctrl.sample_runs", "count", per_pass(|t| t.sample_runs)),
        metric("ctrl.trials", "count", epochs.iter().map(|e| e.trials.len()).sum::<usize>() as f64),
        metric("ctrl.pmu_reads", "count", per_pass(|t| t.pmu_reads)),
        metric("ctrl.msr_writes", "count", per_pass(|t| t.msr_writes)),
        metric("ctrl.msr_s", "s", secs(|t| t.msr_ns)),
        metric("ctrl.msr_failed", "count", per_pass(|t| t.msr_failed)),
        metric(
            "ctrl.degraded_epochs",
            "count",
            epochs.iter().filter(|e| e.degraded.is_some()).count() as f64,
        ),
        metric("gov.rollbacks", "count", gov("rollback")),
        metric("gov.quarantines", "count", gov("quarantine")),
        metric("gov.breaker_trips", "count", gov("breaker_open")),
        metric("learn.infer_ns", "ns", infer_ns(plan, &results)),
        metric(
            "learn.zero_trial_share",
            "ratio",
            ratio(mlsel.iter().filter(|e| e.trials.is_empty()).count() as f64, mlsel.len() as f64),
        ),
        metric("runner.busy_share", "ratio", median(&busy)),
        metric("ckpt.encode_s", "s", codec.encode_s),
        metric("ckpt.decode_s", "s", codec.decode_s),
        metric("ckpt.bytes", "B", codec.bytes as f64),
        metric("journal.render_s", "s", codec.render_s),
        metric("journal.bytes", "B", codec.journal_bytes as f64),
        metric("trace_overhead", "s", walls(traced) - walls(untraced)),
    ]
}
