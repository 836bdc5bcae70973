//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [target] [flags]     (no target runs `all`)
//! repro --help               every target and subcommand with the flags it takes
//! ```
//!
//! **One target registry.** Every simulation target and every subcommand
//! (`learn train`, `trace record|convert|stat`, `bench-compare`,
//! `journal-summary` — which reads `cmm-journal/1` to `/6` — `journal-diff`,
//! `soak`) is one entry of [`TARGETS`]: its name and help line, the flags it
//! accepts, the `--topology` values it runs, whether `all` runs it, its
//! journal features and its run function. `main` looks the entry up and
//! refuses with exit 2 any flag the entry does not accept, a stray operand,
//! a `--topology` it cannot run, or `--seed`/`--mixes` next to `--trace-dir`
//! (whose traces replace the mixes they pick), before any trace loading, model
//! training, chaos arming, checkpoint or file write. It then builds the
//! config digest and journal manifest from the configuration that runs and
//! calls the entry. `--help` is generated from the table. `all` runs table1,
//! fig1–fig3, fig5 and the figure targets fig7–fig15/fairness/overhead
//! (which share one evaluation) — not ablate, extension, faults, governor,
//! bandwidth, learn or scale — and accepts a flag when one of those does.
//!
//! **Crash safety & resume.** The targets whose cells run through the
//! resumable runner (the figure targets, `bandwidth`, `faults`, `governor`,
//! `learn`, `all`) retry a panicking cell up to `--attempts` times without
//! aborting its siblings, report cells that exhaust the budget (exit 1),
//! and with `--resume PATH` keep a `cmm-ckpt/1` sidecar of completed cells
//! that a re-run splices into byte-identical output at any `--jobs`. The
//! chaos flags inject seeded panics, hangs or a hard kill into that runner;
//! `repro soak` drives them end-to-end.
//!
//! `--jobs N` fans independent simulations across N threads (default: the
//! host core count); output and journal are bit-identical for every N.
//!
//! `--topology SxM[@shared|@CYCLES]` runs the figure targets, `bandwidth`
//! and `scale` on S sockets × M cores (one LLC/CAT domain and CMM
//! controller per socket, mixes tiled round-robin). `1x8` is a complete
//! no-op. The single-socket targets (table1, fig1–fig3, fig5, ablate,
//! extension, faults, governor, learn, hence `all`) refuse a multi-socket
//! machine with exit 2; every target but `scale` refuses other one-socket
//! shapes, and every target refuses fewer cores than the 8-slot mixes.
//!
//! Every simulation writes a perf log to `BENCH_sim.json` (`--bench-json`)
//! and a JSONL decision journal to `JOURNAL_sim.jsonl` (`--journal`):
//! `cmm-journal/2`, or `/3` on multi-socket runs, `/4` with MBA levels
//! (`bandwidth`, `faults`), `/5` with governor events (`governor`) and `/6`
//! with learned features and actions (`learn`).

use cmm_bench::ablate;
use cmm_bench::chaos::{self, ChaosMode};
use cmm_bench::characterize::{
    prefetch_impact, profile_alone, way_sweep, ways_needed, CharacterizeConfig,
};
use cmm_bench::checkpoint::Checkpoint;
use cmm_bench::figures::{self, EvalConfig, Evaluation, FigureSeries};
use cmm_bench::perf::BenchLog;
use cmm_bench::runner::{default_jobs, parallel_map, CellFailure, Progress, DEFAULT_ATTEMPTS};
use cmm_bench::{compare, diff, faults, governor, journal, learn, report, soak, tracecmd};
use cmm_core::backend;
use cmm_core::experiment::{run_alone_ipcs, run_mix_pooled, ExperimentConfig, WarmupPool};
use cmm_core::frontend::{detect_agg, metrics, DetectorConfig};
use cmm_core::policy::{ControllerConfig, Mechanism};
use cmm_core::telemetry::EpochRecord;
use cmm_learn::{fnv1a, Model};
use cmm_metrics as met;
use cmm_sim::config::{SystemConfig, Topology};
use cmm_sim::System;
use cmm_workloads::spec::{self, thresholds, Benchmark};
use cmm_workloads::{build_mixes, Mix, TraceSet};
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

/// Every flag `repro` knows, with the value it takes in the usage text
/// (`""`: a switch).
const FLAGS: [(&str, &str); 21] = [
    ("--quick", ""),
    ("--mixes", "N"),
    ("--seed", "S"),
    ("--fault-seed", "S"),
    ("--jobs", "N"),
    ("--csv", "PATH"),
    ("--bench-json", "PATH"),
    ("--journal", "PATH"),
    ("--topology", "SxM"),
    ("--trace-dir", "DIR"),
    ("--model", "PATH"),
    ("--out", "PATH"),
    ("--resume", "CKPT"),
    ("--attempts", "N"),
    ("--chaos-seed", "S"),
    ("--chaos-rate", "F"),
    ("--chaos-mode", "MODE"),
    ("--chaos-kill", "N"),
    ("--ops", "N"),
    ("--noise", "F"),
    ("--scps-floor", "N"),
];

/// Flags of every simulation target: size, parallelism, output paths and
/// machine shape (`--jobs`, the paths and `--topology 1x8` are no-ops on
/// the output).
const RUN: &[&str] = &["--quick", "--jobs", "--bench-json", "--journal", "--topology"];
/// Flags of the targets whose cells run through the resumable runner:
/// retry budget, checkpoint sidecar and harness chaos.
const CRASH: &[&str] =
    &["--resume", "--attempts", "--chaos-seed", "--chaos-rate", "--chaos-mode", "--chaos-kill"];
/// Flags that pick the evaluation's mixes: the synthetic grid or traces.
const MIXES: &[&str] = &["--seed", "--mixes", "--trace-dir"];
/// Flags of the figure targets that print through [`emit`].
const FIGURE: &[&[&str]] = &[RUN, CRASH, MIXES, &["--csv"]];

/// Slots of every standard mix (and of a `--trace-dir` trace mix); no
/// machine may have fewer cores.
const MIX_CORES: usize = 8;

/// The seven paper mechanisms, and the partitioning (CP) and CMM trios.
const PAPER: [Mechanism; 7] = Mechanism::all_managed();
const CP: [Mechanism; 3] = [Mechanism::Dunn, Mechanism::PrefCp, Mechanism::PrefCp2];
const CMM: [Mechanism; 3] = [Mechanism::CmmA, Mechanism::CmmB, Mechanism::CmmC];

struct Args {
    target: String,
    /// Positional operands after the target (subcommand file paths).
    operands: Vec<String>,
    /// Every flag given, in order: what the entry must accept.
    given: Vec<&'static str>,
    help: bool,
    quick: bool,
    mixes: Option<usize>,
    seed: u64,
    fault_seed: u64,
    jobs: usize,
    csv: Option<PathBuf>,
    bench_json: PathBuf,
    journal: PathBuf,
    noise: f64,
    /// `bench-compare`: hard floor on each current target's
    /// `sim_cycles_per_s` (the CI `smoke_perf` gate).
    scps_floor: Option<f64>,
    resume: Option<PathBuf>,
    attempts: u32,
    trace_dir: Option<PathBuf>,
    /// `repro trace record`: ops captured per core.
    ops: usize,
    chaos_seed: u64,
    chaos_rate: f64,
    chaos_mode: ChaosMode,
    chaos_kill: Option<u64>,
    /// `--topology SxM[@shared|@cycles]`: sockets × cores/socket. `None`
    /// and `1x8` leave every output byte-identical to the historical
    /// single-socket runs.
    topology: Option<Topology>,
    /// `repro learn --model PATH`: load a `cmm-model/1` classifier instead
    /// of training one in-process (exit 2 on any format error).
    model: Option<PathBuf>,
    /// `repro learn train --out PATH`: where the fitted model is written.
    out: Option<PathBuf>,
}

/// Reads the value of `flag`; a missing or unparsable one is a usage error.
fn value<T: FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String>
where
    T::Err: Display,
{
    let v = it.next().ok_or_else(|| format!("{flag} needs {what}"))?;
    v.parse().map_err(|e| format!("{flag} needs {what}, got {v:?} ({e})"))
}

/// Parses the command line (without the program name). Pure: every error
/// is returned for `main` to report with exit 2.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        target: "all".into(),
        operands: Vec::new(),
        given: Vec::new(),
        help: false,
        quick: false,
        mixes: None,
        seed: 42,
        fault_seed: 7,
        jobs: default_jobs(),
        csv: None,
        bench_json: PathBuf::from("BENCH_sim.json"),
        journal: PathBuf::from("JOURNAL_sim.jsonl"),
        noise: compare::DEFAULT_NOISE,
        scps_floor: None,
        resume: None,
        attempts: DEFAULT_ATTEMPTS,
        trace_dir: None,
        ops: 50_000,
        chaos_seed: soak::SOAK_CHAOS_SEED,
        chaos_rate: 0.0,
        chaos_mode: ChaosMode::Transient,
        chaos_kill: None,
        topology: None,
        model: None,
        out: None,
    };
    let mut target = None;
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            match target {
                None => target = Some(arg),
                Some(_) => a.operands.push(arg),
            }
            continue;
        }
        if arg == "--help" || arg == "-h" {
            a.help = true;
            continue;
        }
        let Some(&(flag, _)) = FLAGS.iter().find(|(f, _)| *f == arg) else {
            return Err(format!("unknown flag {arg}; try --help"));
        };
        a.given.push(flag);
        let it = &mut it;
        match flag {
            "--quick" => a.quick = true,
            "--mixes" => a.mixes = Some(value(it, flag, "a number")?),
            "--seed" => a.seed = value(it, flag, "a number")?,
            "--fault-seed" => a.fault_seed = value(it, flag, "a number")?,
            "--jobs" => {
                a.jobs = Some(value(it, flag, "a number")?)
                    .filter(|&n| n > 0)
                    .unwrap_or_else(default_jobs)
            }
            "--csv" => a.csv = Some(value(it, flag, "a path")?),
            "--bench-json" => a.bench_json = value(it, flag, "a path")?,
            "--journal" => a.journal = value(it, flag, "a path")?,
            "--topology" => a.topology = Some(value(it, flag, "SxM[@shared|@CYCLES]")?),
            "--trace-dir" => a.trace_dir = Some(value(it, flag, "a directory")?),
            "--model" => a.model = Some(value(it, flag, "a cmm-model/1 path")?),
            "--out" => a.out = Some(value(it, flag, "a path")?),
            "--resume" => a.resume = Some(value(it, flag, "a checkpoint path")?),
            "--attempts" => a.attempts = value::<u32>(it, flag, "a number")?.max(1),
            "--chaos-seed" => a.chaos_seed = value(it, flag, "a number")?,
            "--chaos-rate" => a.chaos_rate = value(it, flag, "a fraction")?,
            "--chaos-mode" => a.chaos_mode = value(it, flag, "transient, persistent or hang")?,
            "--chaos-kill" => a.chaos_kill = Some(value(it, flag, "a number")?),
            "--ops" => a.ops = value::<usize>(it, flag, "a number")?.max(1),
            "--noise" => a.noise = value(it, flag, "a fraction")?,
            "--scps-floor" => a.scps_floor = Some(value(it, flag, "sim-cycles/s")?),
            _ => unreachable!("every FLAGS entry is parsed"),
        }
    }
    if let Some(t) = target {
        a.target = t;
    }
    Ok(a)
}

/// Which `--topology` values an entry runs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Sockets {
    /// Builds its own single-socket machines: only `1x8`, the identity.
    One,
    /// `1x8` or any multi-socket machine, onto which mixes are tiled.
    Many,
    /// `repro scale`: any machine, which narrows its sweep to that leg.
    Sweep,
}

impl Sockets {
    fn check(self, target: &str, topo: Topology) -> Result<(), String> {
        let cores = topo.total_cores();
        if cores < MIX_CORES {
            Err(format!(
                "--topology {topo}: {cores} cores cannot hold the {MIX_CORES}-slot mixes of \
                 repro {target}"
            ))
        } else if self == Sockets::One && !topo.is_single() {
            Err(format!("--topology {topo}: repro {target} runs on one socket only; drop the flag"))
        } else if self != Sockets::Sweep && topo.is_single() && cores != MIX_CORES {
            Err(format!(
                "--topology {topo}: repro {target} runs a one-socket machine only as \
                 1x{MIX_CORES}; repro scale runs other shapes"
            ))
        } else {
            Ok(())
        }
    }
}

/// Which journal schema features a target's records carry.
#[derive(Clone, Copy)]
struct Journal {
    /// Per-epoch MBA delay levels (`cmm-journal/4`).
    mba: bool,
    /// Per-epoch governor events (`cmm-journal/5`).
    governor: bool,
    /// Per-epoch learned features and actions (`cmm-journal/6`).
    learn: bool,
}

const PLAIN: Journal = Journal { mba: false, governor: false, learn: false };

/// One journal cell: a run label (`"table1: bwaves3d"`, `"PrefAgg-00:
/// CMM-a"`) and its recorded controller epochs.
type JournalCell = (String, Vec<EpochRecord>);

/// A simulation's journal cells and exit code (1: a gate missed or cells
/// exhausted their retry budget; the perf log and journal are still
/// written).
type Outcome = (Vec<JournalCell>, i32);

/// Prints one figure target's tables from the shared evaluation.
type Printer = fn(&Evaluation, &Option<PathBuf>);

type SimFn = fn(&Ctx, &mut BenchLog) -> Outcome;

/// How an entry runs.
enum Run {
    /// File processing, no simulation, no perf log or journal: the exit
    /// code, or an error reported with exit 2.
    Tool(fn(&Args) -> Result<i32, String>),
    /// A simulation target.
    Sim(SimFn),
    /// A figure of the (mix × mechanism) evaluation: the mechanisms it
    /// needs and the printer of its tables.
    Eval(&'static [Mechanism], Printer),
    /// Every entry marked `in_all`; the figure targets share one evaluation.
    All,
}

/// One registry entry: a simulation target or a subcommand.
struct Target {
    /// `repro <name>`; a two-word name takes its second word as the first
    /// operand (`repro learn train`).
    name: &'static str,
    /// Usage of the positional operands; empty: none allowed.
    operands: &'static str,
    help: &'static str,
    /// Accepted flags, in groups; every other flag is refused with exit 2.
    flags: &'static [&'static [&'static str]],
    sockets: Sockets,
    in_all: bool,
    journal: Journal,
    run: Run,
}

/// An entry with the defaults of a one-socket simulation target.
const fn entry(name: &'static str, help: &'static str, run: Run) -> Target {
    Target {
        name,
        operands: "",
        help,
        flags: &[RUN],
        sockets: Sockets::One,
        in_all: false,
        journal: PLAIN,
        run,
    }
}

const fn sim(name: &'static str, help: &'static str, run: SimFn) -> Target {
    entry(name, help, Run::Sim(run))
}

/// A paper table or figure outside the shared evaluation; `all` runs it.
const fn paper(name: &'static str, help: &'static str, run: SimFn) -> Target {
    Target { in_all: true, ..sim(name, help, run) }
}

const fn figure(
    name: &'static str,
    help: &'static str,
    mechs: &'static [Mechanism],
    print: Printer,
) -> Target {
    Target {
        flags: FIGURE,
        sockets: Sockets::Many,
        in_all: true,
        ..entry(name, help, Run::Eval(mechs, print))
    }
}

const fn tool(
    name: &'static str,
    operands: &'static str,
    help: &'static str,
    flags: &'static [&'static [&'static str]],
    run: fn(&Args) -> Result<i32, String>,
) -> Target {
    Target { operands, flags, ..entry(name, help, Run::Tool(run)) }
}

/// The registry: every target and subcommand, in `--help` and `all` order.
static TARGETS: &[Target] = &[
    paper("table1", "Table I metrics for every benchmark (run alone)", run_table1),
    paper("fig1", "Fig. 1: memory bandwidth with/without prefetching", run_fig1),
    paper("fig2", "Fig. 2: IPC speedup from prefetching", run_fig2),
    paper("fig3", "Fig. 3: IPC vs number of LLC ways (prefetchers on)", run_fig3),
    paper("fig5", "Fig. 5: Agg-set detector stages on a sample mix", run_fig5),
    figure("fig7", "Fig. 7: PT normalised HS and WS", &[Mechanism::Pt], |e, csv| {
        emit2(figures::fig7(e), csv)
    }),
    figure("fig8", "Fig. 8: PT lowest normalised IPC", &[Mechanism::Pt], |e, csv| {
        emit(&figures::fig8(e), csv)
    }),
    figure("fig9", "Fig. 9: CP normalised HS and WS", &CP, |e, csv| emit2(figures::fig9(e), csv)),
    figure("fig10", "Fig. 10: CP lowest normalised IPC", &CP, |e, csv| {
        emit(&figures::fig10(e), csv)
    }),
    figure("fig11", "Fig. 11: CMM-a/b/c normalised HS and WS", &CMM, |e, csv| {
        emit2(figures::fig11(e), csv)
    }),
    figure("fig12", "Fig. 12: CMM-a/b/c lowest normalised IPC", &CMM, |e, csv| {
        emit(&figures::fig12(e), csv)
    }),
    figure("fig13", "Fig. 13: all seven mechanisms, normalised HS", &PAPER, |e, csv| {
        emit(&figures::fig13(e), csv)
    }),
    figure("fig14", "Fig. 14: normalised memory bandwidth", &PAPER, |e, csv| {
        emit(&figures::fig14(e), csv)
    }),
    figure("fig15", "Fig. 15: normalised L2-pending stall cycles", &PAPER, |e, csv| {
        emit(&figures::fig15(e), csv)
    }),
    figure("fairness", "supplementary Gabor-fairness table", &PAPER, |e, csv| {
        emit(&figures::fairness(e), csv)
    }),
    Target {
        flags: &[RUN, CRASH, MIXES],
        ..figure("overhead", "controller overhead accounting (paper: <0.1 %)", &PAPER, |e, _| {
            print_overhead(e)
        })
    },
    Target {
        flags: &[RUN, &["--trace-dir"]],
        ..sim("ablate", "partition-scale / epoch-ratio / QBS sensitivity studies", run_ablations)
    },
    Target {
        flags: &[RUN, &["--seed"]],
        ..sim("extension", "PT vs PT-fine (per-engine throttling beyond the paper)", run_extension)
    },
    Target {
        flags: &[RUN, CRASH, &["--seed", "--fault-seed"]],
        journal: Journal { mba: true, ..PLAIN },
        ..sim(
            "faults",
            "fault-injection sweep: CMM-a, and CBP under MBA-register faults; exit 1 on a cliff",
            run_faults,
        )
    },
    Target {
        flags: &[RUN, CRASH, &["--seed", "--fault-seed"]],
        journal: Journal { mba: true, governor: true, ..PLAIN },
        ..sim(
            "governor",
            "CBP bare vs governed at rising fault rates; exit 1 unless governed >= bare",
            run_governor,
        )
    },
    Target {
        in_all: false,
        journal: Journal { mba: true, ..PLAIN },
        ..figure(
            "bandwidth",
            "CMM-a vs MBA vs CBP: per-mix hm_ipc and fairness",
            &figures::BANDWIDTH_MECHS,
            |e, csv| emit2(figures::bandwidth(e), csv),
        )
    },
    Target {
        flags: &[RUN, CRASH, &["--seed", "--model"]],
        journal: Journal { mba: true, learn: true, ..PLAIN },
        ..sim(
            "learn",
            "ML-Sel, RL-CBP vs CMM-a/CBP (trains unless --model); exit 1 on a gate miss",
            run_learn,
        )
    },
    Target {
        flags: &[RUN, &["--seed"]],
        sockets: Sockets::Sweep,
        ..sim(
            "scale",
            "topology sweep 1x8, 2x16, 4x32 (or one --topology), per-domain hm_ipc",
            run_scale,
        )
    },
    // Its flags and socket shape derive from its members.
    Target { flags: &[], ..entry("all", "runs, the figures on one shared evaluation:", Run::All) },
    tool(
        "learn train",
        "",
        "fit the phase classifier, write cmm-model/1 (default mlsel.model)",
        &[&["--quick", "--out"]],
        run_learn_train,
    ),
    tool(
        "trace record",
        "<dir> [mix-name]",
        "record every core of a mix (default PrefAgg-00) as cmm-trace/1",
        &[&["--seed", "--ops"]],
        run_trace,
    ),
    tool(
        "trace convert",
        "<in> <out>",
        "transcode text <-> binary (input sniffed, output by extension)",
        &[],
        run_trace,
    ),
    tool(
        "trace stat",
        "<file>...",
        "op counts, footprint and derived-MLP summary per trace file",
        &[],
        run_trace,
    ),
    tool(
        "bench-compare",
        "<baseline.json> <current.json>",
        "diff two BENCH_sim.json perf logs; exit 1 on regression",
        &[&["--noise", "--scps-floor"]],
        |a| compare::run(&a.operands[0], &a.operands[1], a.noise, a.scps_floor),
    ),
    tool(
        "journal-summary",
        "<journal.jsonl>",
        "pretty-print a cmm-journal/1../6 journal; --csv exports per-epoch rows",
        &[&["--csv"]],
        |a| journal::run_summary(&a.operands[0], a.csv.as_deref()),
    ),
    tool(
        "journal-diff",
        "<a.jsonl> <b.jsonl>",
        "diff per-epoch decisions; exit 1 on divergence, 2 across topologies/schemas",
        &[],
        |a| diff::run(&a.operands[0], &a.operands[1]),
    ),
    tool(
        "soak",
        "",
        "kill-and-resume chaos gate; exit 1 unless every output converges",
        &[&["--jobs"]],
        |a| Ok(soak::run(a.jobs)),
    ),
];

/// The entries `repro all` runs.
fn members() -> impl Iterator<Item = &'static Target> {
    TARGETS.iter().filter(|t| t.in_all)
}

impl Target {
    /// Finds the entry `a` names: a two-word entry (`learn train`) wins
    /// over its one-word prefix.
    fn lookup(a: &Args) -> Option<&'static Target> {
        let two = a.operands.first().map(|sub| format!("{} {sub}", a.target));
        TARGETS
            .iter()
            .find(|t| Some(t.name) == two.as_deref())
            .or_else(|| TARGETS.iter().find(|t| t.name == a.target))
    }

    fn accepts(&self, flag: &str) -> bool {
        match self.run {
            Run::All => members().any(|m| m.accepts(flag)),
            _ => self.flags.iter().any(|group| group.contains(&flag)),
        }
    }

    fn sockets(&self) -> Sockets {
        match self.run {
            Run::All => members().map(|m| m.sockets).min().unwrap_or(Sockets::One),
            _ => self.sockets,
        }
    }

    /// Refuses, before anything runs, a flag this entry does not accept,
    /// a flag `--trace-dir` overrides, a stray or missing operand, or a
    /// `--topology` it cannot run.
    fn check(&self, a: &Args) -> Result<(), String> {
        if let Some(flag) = a.given.iter().find(|f| !self.accepts(f)) {
            return Err(format!("repro {} does not take {flag}; see repro --help", self.name));
        }
        // --trace-dir replaces the synthetic mixes that --seed and --mixes pick.
        let picks = a.given.iter().find(|f| matches!(**f, "--seed" | "--mixes"));
        if let (Some(_), Some(flag)) = (&a.trace_dir, picks) {
            return Err(format!("repro {}: {flag} has no effect with --trace-dir", self.name));
        }
        // Operand usage: `<x>` required, `[x]` optional, a final `...`
        // repeats; a two-word name's second word is not an operand.
        let ops = &a.operands[self.name.split(' ').count() - 1..];
        let words = self.operands.split_whitespace();
        let need = words.clone().filter(|w| w.starts_with('<')).count();
        let most = if self.operands.ends_with("...") { usize::MAX } else { words.count() };
        if ops.len() < need || ops.len() > most {
            let want = if self.operands.is_empty() { "no operands" } else { self.operands };
            return Err(format!("repro {} takes {want}, got {ops:?}", self.name));
        }
        match a.topology {
            Some(topo) => self.sockets().check(self.name, topo),
            None => Ok(()),
        }
    }
}

/// The usage text, generated from [`TARGETS`].
fn usage() -> String {
    let mut s = String::from("usage: repro [target] [flags]   (no target runs `all`)\n");
    for t in TARGETS {
        let mut line = format!("  repro {}", t.name);
        if !t.operands.is_empty() {
            line = format!("{line} {}", t.operands);
        }
        for &(flag, meta) in FLAGS.iter().filter(|(f, _)| t.accepts(f)) {
            let meta = match (flag, t.sockets()) {
                ("--topology", Sockets::One) => "1x8",
                _ => meta,
            };
            let word =
                if meta.is_empty() { format!("[{flag}]") } else { format!("[{flag} {meta}]") };
            if line.len() + word.len() >= 79 {
                s.push_str(&line);
                s.push('\n');
                line = " ".repeat(8);
            }
            line = format!("{line} {word}");
        }
        let mut help = t.help.to_string();
        if let Run::All = t.run {
            members().for_each(|m| help = format!("{help} {}", m.name));
        }
        s.push_str(&format!("{line}\n      {help}\n"));
    }
    s + "\nA flag an entry does not list is refused with exit 2. --resume CKPT keeps a\n\
         cmm-ckpt/1 sidecar of completed cells; --attempts bounds per-cell retries;\n\
         the --chaos-* flags inject harness faults (see repro soak).\n"
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Everything a simulation target runs with.
struct Ctx {
    args: Args,
    log: Progress,
    /// `--trace-dir`: replaces the synthetic mixes.
    traces: Option<TraceSet>,
    /// `repro learn`'s classifier.
    model: Option<Model>,
    ckpt: Option<Checkpoint>,
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e));
    if args.help {
        print!("{}", usage());
        return;
    }
    let Some(t) = Target::lookup(&args) else {
        usage_error(&format!("unknown target {}; try --help", args.target))
    };
    if let Err(e) = t.check(&args) {
        usage_error(&e);
    }
    let code = match t.run {
        Run::Tool(run) => run(&args).unwrap_or_else(|e| {
            eprintln!("{e}");
            2
        }),
        _ => simulate(t, args),
    };
    if code != 0 {
        std::process::exit(code);
    }
}

/// Runs a simulation entry and writes its perf log and run journal.
fn simulate(t: &Target, args: Args) -> i32 {
    let traces = load_traces(&args);
    if args.chaos_rate > 0.0 || args.chaos_kill.is_some() {
        chaos::arm(chaos::ChaosConfig {
            seed: args.chaos_seed,
            rate: args.chaos_rate,
            mode: args.chaos_mode,
            kill_after: args.chaos_kill,
        });
        eprintln!(
            "[repro] chaos armed: seed={} rate={} mode={:?} kill_after={:?}",
            args.chaos_seed, args.chaos_rate, args.chaos_mode, args.chaos_kill
        );
    }
    let log = Progress::new(true);
    let mut bench = BenchLog::new(args.jobs, args.quick);
    let model = t.accepts("--model").then(|| resolve_learn_model(&args, &log));
    let meta = journal_meta(t, &args, traces.as_ref(), model.as_ref().map(|(_, d)| d.as_str()));
    let ckpt = args.resume.as_ref().map(|path| {
        open_checkpoint(path, &args.target, &cmm_core::telemetry::config_digest(&meta.config_debug))
    });
    let ctx = Ctx { args, log, traces, model: model.map(|(m, _)| m), ckpt };
    let (cells, code) = match t.run {
        Run::Sim(run) => run(&ctx, &mut bench),
        Run::Eval(mechs, print) => {
            evaluate(&ctx, &mut bench, t.name, mechs, |e| print(e, &ctx.args.csv))
        }
        Run::All => run_all(&ctx, &mut bench),
        Run::Tool(_) => unreachable!("tools never simulate"),
    };
    let a = &ctx.args;
    match bench.write(&a.bench_json) {
        Ok(()) => eprintln!("[repro] wrote {}", a.bench_json.display()),
        Err(e) => eprintln!("[repro] bench log failed: {e}"),
    }
    // The run journal: manifest + every recorded controller epoch. Targets
    // without a control loop (fig1–fig5, ablate, extension) still get the
    // manifest line, so downstream tooling can always read the file.
    match journal::write(&a.journal, &journal::manifest(&meta), &cells) {
        Ok(n) => eprintln!("[repro] wrote {} ({n} epochs)", a.journal.display()),
        Err(e) => eprintln!("[repro] journal failed: {e}"),
    }
    code
}

/// Trace-driven runs: the trace set replaces the synthetic mixes and its
/// checksums join the config digest, so `--resume` refuses to splice cells
/// recorded against a different trace set.
fn load_traces(a: &Args) -> Option<TraceSet> {
    let dir = a.trace_dir.as_ref()?;
    let set = TraceSet::load_dir(dir)
        .unwrap_or_else(|e| usage_error(&format!("[repro] --trace-dir: {e}")));
    eprintln!(
        "[repro] trace-dir {}: {} trace(s) -> {} mix(es)",
        dir.display(),
        set.files.len(),
        set.build_mixes(MIX_CORES).len()
    );
    Some(set)
}

/// The run identity shared by the journal manifest and the resume
/// checkpoint, built from what runs: refused flags never reach it.
/// Deliberately excludes --jobs, --attempts and the chaos flags: none of
/// them can change a deterministic run's results, so an interrupted run may
/// legitimately resume at a different parallelism.
fn journal_meta(
    t: &Target,
    a: &Args,
    traces: Option<&TraceSet>,
    model: Option<&str>,
) -> journal::JournalMeta {
    let mut config_debug = format!(
        "target={};quick={};seed={};fault_seed={};mixes={:?};exp={:?};char={:?};ctrl={:?}",
        a.target,
        a.quick,
        a.seed,
        a.fault_seed,
        a.mixes,
        exp_cfg(a.quick),
        char_cfg(a.quick).1,
        if a.quick { ControllerConfig::quick() } else { ControllerConfig::default() },
    );
    // Appended only for --trace-dir runs, so synthetic runs keep their
    // historical digests (old checkpoints stay resumable).
    if let Some(set) = traces {
        config_debug.push_str(&format!(";traces={}", set.digest()));
    }
    // Topology joins the digest only when it changes the run: multi-socket
    // anywhere, or any explicit --topology on the `scale` sweep (which it
    // restricts to one leg). Plain single-socket runs keep their
    // historical digests and cmm-journal/2 manifests.
    let sweep = t.sockets() == Sockets::Sweep;
    let topo_label = a.topology.filter(|topo| sweep || !topo.is_single()).map(|topo| topo.label());
    if let Some(label) = &topo_label {
        config_debug.push_str(&format!(";topology={label}"));
    }
    // The learned target folds its classifier's digest into the run
    // identity, so `--resume` refuses to splice cells evaluated under a
    // different model.
    if let Some(digest) = model {
        config_debug.push_str(&format!(";model={digest}"));
    }
    journal::JournalMeta {
        target: a.target.clone(),
        quick: a.quick,
        seed: a.seed,
        config_debug,
        topology: topo_label.or_else(|| sweep.then(|| SCALE_SWEEP.join("+"))),
        mba: t.journal.mba,
        governor: t.journal.governor,
        learn: t.journal.learn,
    }
}

/// Opens (or creates) the `--resume` sidecar; a sidecar of another target
/// or configuration is a usage error.
fn open_checkpoint(path: &std::path::Path, target: &str, digest: &str) -> Checkpoint {
    let (ck, info) = Checkpoint::open(path, target, digest)
        .unwrap_or_else(|e| usage_error(&format!("[repro] --resume: {e}")));
    if info.fresh {
        eprintln!("[repro] checkpointing to {} (new sidecar)", path.display());
    } else {
        eprintln!(
            "[repro] resuming from {}: {} completed cell(s){}",
            path.display(),
            info.cached,
            if info.dropped > 0 {
                format!(", dropped {} torn line(s)", info.dropped)
            } else {
                String::new()
            }
        );
    }
    // Post-mortem: failures a previous run recorded for cells that still
    // have no result (satisfied or superseded failures are filtered out by
    // the checkpoint reader).
    for f in ck.prior_failures() {
        eprintln!(
            "[repro] prior failure: cell '{}' exhausted {} attempt(s): {}",
            f.key, f.attempts, f.panic_msg
        );
    }
    ck
}

/// Settles a resumable sweep: `Ok` results go to `done` (journal cells
/// and the gate's exit code). Cells that exhausted their attempt budget are
/// reported — and recorded in the checkpoint, so a later `--resume` can
/// list what went wrong — and yield exit 1 with no journal cells.
fn settle<R>(
    ctx: &Ctx,
    label: &str,
    result: Result<R, Vec<CellFailure>>,
    done: impl FnOnce(R) -> Outcome,
) -> Outcome {
    let failures = match result {
        Ok(r) => return done(r),
        Err(failures) => failures,
    };
    eprintln!("[repro] {label}: {} cell(s) exhausted the retry budget:", failures.len());
    for f in &failures {
        eprintln!(
            "[repro]   cell '{}' failed after {} attempt(s): {}",
            f.key, f.attempts, f.panic_msg
        );
        if let Some(ck) = &ctx.ckpt {
            ck.record_failure(&f.key, f.attempts, &f.panic_msg);
        }
    }
    eprintln!(
        "[repro] every sibling cell completed; re-run with --resume to retry only the \
         failed cells"
    );
    (Vec::new(), 1)
}

/// Exit code of a pass/fail gate, reporting a miss.
fn gate(passed: bool, miss: &str) -> i32 {
    if !passed {
        eprintln!("[repro] {miss}");
    }
    i32::from(!passed)
}

fn exp_cfg(quick: bool) -> ExperimentConfig {
    if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    }
}

/// Simulated core-cycles of one run of the 8-core mix.
fn mix_cycles(quick: bool) -> u64 {
    let e = exp_cfg(quick);
    (e.warmup_cycles + e.total_cycles) * 8
}

fn char_cfg(quick: bool) -> (SystemConfig, CharacterizeConfig) {
    let sys = SystemConfig::scaled(1);
    let cfg = if quick { CharacterizeConfig::quick() } else { CharacterizeConfig::default() };
    (sys, cfg)
}

/// Prints a series and, when `--csv DIR` was given, also writes it there.
fn emit(series: &FigureSeries, csv: &Option<PathBuf>) {
    print!("{}", report::render(series));
    if let Some(dir) = csv {
        match cmm_bench::export::write_csv(dir, series) {
            Ok(path) => eprintln!("[repro] wrote {}", path.display()),
            Err(e) => eprintln!("[repro] csv export failed: {e}"),
        }
    }
}

fn emit2((a, b): (FigureSeries, FigureSeries), csv: &Option<PathBuf>) {
    emit(&a, csv);
    emit(&b, csv);
}

fn print_overhead(eval: &Evaluation) {
    let mut rows = Vec::new();
    for w in &eval.workloads {
        for (&m, r) in &w.managed {
            rows.push(vec![
                w.mix.name.clone(),
                m.label().to_string(),
                format!("{:.4}%", r.overhead_ratio * 100.0),
            ]);
        }
    }
    rows.sort();
    print!(
        "{}",
        report::table(
            "Controller overhead (paper reports <0.1%)",
            &["workload", "mechanism", "overhead"],
            &rows,
        )
    );
}

/// The evaluation the figure targets read: the synthetic mixes (or the
/// `--trace-dir` traces), tiled onto a multi-socket `--topology`.
fn eval_cfg(ctx: &Ctx) -> EvalConfig {
    let a = &ctx.args;
    let mut cfg = if a.quick { EvalConfig::quick() } else { EvalConfig::default() };
    if let Some(m) = a.mixes {
        cfg.mixes_per_category = m;
    }
    cfg.seed = a.seed;
    cfg.jobs = a.jobs;
    cfg.attempts = a.attempts;
    // Multi-socket runs keep the per-socket geometry and replicate it;
    // mixes are tiled to the machine inside `evaluate_resumable`. `1x8` is
    // the identity, keeping output byte-identical.
    if let Some(t) = a.topology.filter(|t| !t.is_single()) {
        cfg.exp.sys.set_topology(t);
    }
    cfg.trace_mixes = ctx.traces.as_ref().map(|set| set.build_mixes(MIX_CORES));
    cfg
}

/// Work volume (cells, simulated core-cycles) of one full evaluation.
fn eval_volume(cfg: &EvalConfig, mechanisms: &[Mechanism]) -> (u64, u64) {
    let mixes = match &cfg.trace_mixes {
        Some(m) => m.clone(),
        None => build_mixes(cfg.seed, cfg.mixes_per_category),
    };
    let mut distinct: Vec<String> = Vec::new();
    for mix in &mixes {
        for s in &mix.slots {
            if !distinct.iter().any(|n| n == s.name()) {
                distinct.push(s.name().to_string());
            }
        }
    }
    let per_mix = (cfg.exp.warmup_cycles + cfg.exp.total_cycles) * cfg.exp.sys.num_cores as u64;
    let per_alone = cfg.exp.warmup_cycles + cfg.exp.alone_cycles;
    let mix_cells = (mixes.len() * (1 + mechanisms.len())) as u64;
    let cells = mix_cells + distinct.len() as u64;
    let cycles = mix_cells * per_mix + distinct.len() as u64 * per_alone;
    (cells, cycles)
}

/// The figure targets' one runner: evaluates `mechs`, measured as BENCH
/// target `name`, and hands the evaluation to `print`.
fn evaluate(
    ctx: &Ctx,
    bench: &mut BenchLog,
    name: &str,
    mechs: &[Mechanism],
    print: impl FnOnce(&Evaluation),
) -> Outcome {
    let cfg = eval_cfg(ctx);
    let (n_cells, cycles) = eval_volume(&cfg, mechs);
    let eval = bench.measure(name, n_cells, cycles, || {
        figures::evaluate_resumable(mechs, &cfg, true, ctx.ckpt.as_ref())
    });
    settle(ctx, &ctx.args.target, eval, |eval| {
        print(&eval);
        (journal::eval_cells(&eval), 0)
    })
}

/// `repro all`: each member in registry order; the figure members share
/// one evaluation (BENCH target `evaluate`) over the union of their
/// mechanisms, printed after the other members.
fn run_all(ctx: &Ctx, bench: &mut BenchLog) -> Outcome {
    let (mut cells, mut code) = (Vec::new(), 0);
    let mut mechs: Vec<Mechanism> = Vec::new();
    let mut printers: Vec<Printer> = Vec::new();
    for t in members() {
        match t.run {
            Run::Sim(run) => {
                let (c, e) = run(ctx, bench);
                cells.extend(c);
                code = code.max(e);
            }
            Run::Eval(ms, print) => {
                for m in ms.iter().filter(|m| !mechs.contains(m)).collect::<Vec<_>>() {
                    mechs.push(*m);
                }
                printers.push(print);
            }
            Run::Tool(_) | Run::All => unreachable!("only simulations run in all"),
        }
    }
    let (c, e) = evaluate(ctx, bench, "evaluate", &mechs, |eval| {
        for print in printers {
            print(eval, &ctx.args.csv);
        }
    });
    cells.extend(c);
    (cells, code.max(e))
}

/// Runs `cell` once per roster benchmark on `--jobs` threads, each logged
/// as `"{name}: {benchmark}"`, measured as BENCH target `name` of `runs`
/// characterisation runs per benchmark.
fn over_roster<R: Send>(
    ctx: &Ctx,
    bench: &mut BenchLog,
    name: &str,
    runs: u64,
    cell: impl Fn(&Benchmark) -> R + Sync,
) -> Vec<R> {
    let n = runs * spec::roster().len() as u64;
    let cfg = char_cfg(ctx.args.quick).1;
    let log = &ctx.log;
    bench.measure(name, n, n * (cfg.warmup + cfg.measure), || {
        parallel_map(spec::roster(), ctx.args.jobs, |_, b: &Benchmark| {
            log.cell(&format!("{name}: {}", b.name), || cell(b))
        })
    })
}

fn yes(b: bool) -> String {
    if b { "yes" } else { "no" }.to_string()
}

/// Table I. Besides printing the metric table, every benchmark's run ends
/// with one real PT profiling epoch on the still-warm machine, so the
/// target journals genuine controller decisions (cascade, Agg verdict,
/// throttle trials, applied winner) without changing the printed numbers.
fn run_table1(ctx: &Ctx, bench: &mut BenchLog) -> Outcome {
    let (sys, cfg) = char_cfg(ctx.args.quick);
    let ctrl = if ctx.args.quick { ControllerConfig::quick() } else { ControllerConfig::default() };
    let results = over_roster(ctx, bench, "table1", 1, |b| {
        let (r, epochs) = profile_alone(b, &sys, &cfg, &ctrl);
        let m = r.metrics;
        let row = vec![
            b.name.to_string(),
            format!("{:.3}", r.ipc),
            format!("{}", m.l2_llc_traffic),
            format!("{:.2}", m.l2_pf_miss_frac),
            format!("{:.4}", m.l2_ptr),
            format!("{:.2}", m.pga),
            format!("{:.2}", m.l2_pmr),
            format!("{:.2}", m.l2_ppm),
            format!("{:.3}", m.llc_pt),
        ];
        (row, (format!("table1: {}", b.name), epochs))
    });
    let (rows, cells): (Vec<Vec<String>>, Vec<JournalCell>) = results.into_iter().unzip();
    print!(
        "{}",
        report::table(
            "Table I — per-benchmark metrics (run alone, prefetchers on)",
            &[
                "benchmark",
                "IPC",
                "M-1 L2-LLC",
                "M-2 frac",
                "M-3 PTR",
                "M-4 PGA",
                "M-5 PMR",
                "M-6 PPM",
                "M-7 LLC-PT"
            ],
            &rows,
        )
    );
    (cells, 0)
}

fn run_fig1(ctx: &Ctx, bench: &mut BenchLog) -> Outcome {
    let (sys, cfg) = char_cfg(ctx.args.quick);
    let rows = over_roster(ctx, bench, "fig1", 2, |b| {
        let imp = prefetch_impact(b, &sys, &cfg);
        let agg = imp.off.demand_bpc > thresholds::DEMAND_INTENSIVE_BPC
            && imp.bw_increase() > thresholds::AGGRESSIVE_BW_INCREASE;
        vec![
            b.name.to_string(),
            b.spec_alias.to_string(),
            format!("{:.3}", imp.off.total_bpc()),
            format!("{:.3}", imp.on.total_bpc()),
            format!("{:+.0}%", imp.bw_increase() * 100.0),
            yes(agg),
            yes(b.class.prefetch_aggressive),
        ]
    });
    print!(
        "{}",
        report::table(
            "Fig. 1 — memory bandwidth (bytes/cycle) without/with prefetching",
            &[
                "benchmark",
                "SPEC analogue",
                "BW off",
                "BW on",
                "increase",
                "aggressive?",
                "intended"
            ],
            &rows,
        )
    );
    (Vec::new(), 0)
}

fn run_fig2(ctx: &Ctx, bench: &mut BenchLog) -> Outcome {
    let (sys, cfg) = char_cfg(ctx.args.quick);
    let rows = over_roster(ctx, bench, "fig2", 2, |b| {
        let imp = prefetch_impact(b, &sys, &cfg);
        vec![
            b.name.to_string(),
            format!("{:.3}", imp.off.ipc),
            format!("{:.3}", imp.on.ipc),
            format!("{:+.0}%", imp.ipc_speedup() * 100.0),
            yes(imp.ipc_speedup() > thresholds::FRIENDLY_IPC_SPEEDUP),
            yes(b.class.prefetch_friendly),
        ]
    });
    print!(
        "{}",
        report::table(
            "Fig. 2 — IPC speedup from prefetching",
            &["benchmark", "IPC off", "IPC on", "speedup", "friendly?", "intended"],
            &rows,
        )
    );
    (Vec::new(), 0)
}

fn run_fig3(ctx: &Ctx, bench: &mut BenchLog) -> Outcome {
    let (sys, cfg) = char_cfg(ctx.args.quick);
    let header_ways: Vec<String> = (1..=sys.llc.ways).map(|w| format!("{w}w")).collect();
    let mut headers: Vec<&str> = vec!["benchmark", "needs", "sensitive?"];
    headers.extend(header_ways.iter().map(|s| s.as_str()));
    let rows = over_roster(ctx, bench, "fig3", sys.llc.ways as u64, |b| {
        // The roster is already fanned out across `jobs`; the sweep's
        // inner way loop stays serial to avoid oversubscription.
        let sweep = way_sweep(b, &sys, &cfg, 1);
        let needs = ways_needed(&sweep, thresholds::LLC_SENSITIVE_PERF);
        let mut row = vec![
            b.name.to_string(),
            format!("{needs}"),
            yes(needs >= thresholds::LLC_SENSITIVE_WAYS),
        ];
        let peak = sweep.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
        row.extend(sweep.iter().map(|&i| format!("{:.2}", i / peak)));
        row
    });
    print!(
        "{}",
        report::table(
            "Fig. 3 — IPC (relative to peak) vs LLC way count, prefetchers on",
            &headers,
            &rows,
        )
    );
    (Vec::new(), 0)
}

/// Fig. 5: the detector cascade on one Pref Agg mix.
fn run_fig5(ctx: &Ctx, bench: &mut BenchLog) -> Outcome {
    let quick = ctx.args.quick;
    let (warm, sample) = if quick { (300_000, 40_000) } else { (600_000, 100_000) };
    let mix: Mix = build_mixes(42, 1)[1].clone();
    let cycles = if quick { 340_000u64 } else { 700_000 } * 8;
    let deltas = bench.measure("fig5", 1, cycles, || {
        let mut sys_cfg = SystemConfig::scaled(8);
        sys_cfg.set_num_cores(mix.num_cores());
        let workloads = mix.instantiate(sys_cfg.llc.size_bytes);
        let mut sys = System::new(sys_cfg, workloads);
        sys.run(warm);
        backend::sample(&mut sys, sample)
    });
    let det_cfg = DetectorConfig::default();
    let agg = detect_agg(&deltas, &det_cfg);
    let rows: Vec<Vec<String>> = deltas
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let m = metrics(d);
            vec![
                format!("core {i}"),
                mix.slots[i].name().to_string(),
                format!("{:.2}", m.pga),
                format!("{:.2}", m.l2_pmr),
                format!("{:.4}", m.l2_ptr),
                format!("{}", if agg.contains(&i) { "AGG" } else { "-" }),
            ]
        })
        .collect();
    print!(
        "{}",
        report::table(
            &format!(
                "Fig. 5 — Agg-set detection on {} (PGA≥{}, PMR≥{}, PTR≥{})",
                mix.name, det_cfg.pga_floor, det_cfg.pmr_threshold, det_cfg.ptr_threshold
            ),
            &["core", "benchmark", "PGA", "PMR", "PTR", "verdict"],
            &rows,
        )
    );
    (Vec::new(), 0)
}

fn run_ablations(ctx: &Ctx, bench: &mut BenchLog) -> Outcome {
    let (a, log) = (&ctx.args, &ctx.log);
    let mut cfg = exp_cfg(a.quick);
    // 18 grid points, each ≈ one mix of alone runs + 2 mix runs.
    let per_point =
        8 * (cfg.warmup_cycles + cfg.alone_cycles) + 2 * (cfg.warmup_cycles + cfg.total_cycles) * 8;
    if a.quick {
        cfg.total_cycles = 1_000_000;
    }
    let mixes = match &ctx.traces {
        Some(set) => set.build_mixes(MIX_CORES),
        None => ablate::default_mixes(),
    };
    let cells = bench.measure("ablate", 18 * 10, 18 * per_point, || {
        let mut cells: Vec<JournalCell> = Vec::new();
        let mut dump = |title: &str, sweep: &str, pts: Vec<ablate::AblationPoint>| {
            let rows: Vec<Vec<String>> = pts
                .iter()
                .map(|p| vec![p.setting.clone(), p.mix.clone(), format!("{:.3}", p.norm_hs)])
                .collect();
            print!("{}", report::table(title, &["setting", "workload", "CMM-a norm. HS"], &rows));
            // The journal records the CMM-a decision telemetry of every
            // grid point, labelled by sweep and setting.
            for p in pts {
                cells.push((format!("{sweep}[{}] {}: CMM-a", p.setting, p.mix), p.epochs));
            }
        };
        log.note("ablation: partition scale");
        dump(
            "Ablation — partition sizing factor (paper: 1.5×)",
            "partition-scale",
            ablate::ablate_partition_scale(&cfg, &mixes, a.jobs),
        );
        log.note("ablation: epoch ratio");
        dump(
            "Ablation — execution-epoch : sampling-interval ratio (paper: 50:1)",
            "epoch-ratio",
            ablate::ablate_epoch_ratio(&cfg, &mixes, a.jobs),
        );
        log.note("ablation: QBS");
        dump(
            "Ablation — inclusive-LLC QBS victim selection",
            "qbs",
            ablate::ablate_qbs(&cfg, &mixes, a.jobs),
        );
        cells
    });
    (cells, 0)
}

fn run_extension(ctx: &Ctx, bench: &mut BenchLog) -> Outcome {
    let (a, log) = (&ctx.args, &ctx.log);
    let cfg = exp_cfg(a.quick);
    let per_mix =
        8 * (cfg.warmup_cycles + cfg.alone_cycles) + 3 * (cfg.warmup_cycles + cfg.total_cycles) * 8;
    let mixes: Vec<Mix> = build_mixes(a.seed, 2)
        .into_iter()
        .filter(|m| {
            matches!(
                m.category,
                cmm_workloads::Category::PrefUnfri | cmm_workloads::Category::PrefAgg
            )
        })
        .collect();
    let results: Vec<(Vec<String>, Vec<JournalCell>)> =
        bench.measure("extension", 4 * 11, 4 * per_mix, || {
            parallel_map(&mixes, a.jobs, |_, mix| {
                log.cell(&format!("extension: {}", mix.name), || {
                    let pool = WarmupPool::new();
                    let alone = run_alone_ipcs(mix, &cfg);
                    let base = run_mix_pooled(&pool, mix, Mechanism::Baseline, &cfg);
                    let hs_base = met::harmonic_speedup(&alone, &base.ipcs);
                    let mut row = vec![mix.name.clone()];
                    let mut cells = vec![(
                        format!("{}: {}", mix.name, Mechanism::Baseline.label()),
                        base.epochs,
                    )];
                    for mech in [Mechanism::Pt, Mechanism::PtFine] {
                        let r = run_mix_pooled(&pool, mix, mech, &cfg);
                        let hs = met::harmonic_speedup(&alone, &r.ipcs) / hs_base;
                        let wc = met::worst_case_speedup(&r.ipcs, &base.ipcs);
                        row.push(format!("{hs:.3}"));
                        row.push(format!("{wc:.3}"));
                        cells.push((format!("{}: {}", mix.name, mech.label()), r.epochs));
                    }
                    (row, cells)
                })
            })
        });
    let (rows, cells): (Vec<Vec<String>>, Vec<Vec<JournalCell>>) = results.into_iter().unzip();
    print!(
        "{}",
        report::table(
            "Extension — binary PT vs per-engine PT-fine (norm. HS / worst case)",
            &["workload", "PT HS", "PT wc", "PT-fine HS", "PT-fine wc"],
            &rows,
        )
    );
    (cells.into_iter().flatten().collect(), 0)
}

fn run_faults(ctx: &Ctx, bench: &mut BenchLog) -> Outcome {
    let a = &ctx.args;
    let n = faults::RATES.len() as u64;
    let sweep = |mba: bool| {
        let run = if mba { faults::sweep_mba_resumable } else { faults::sweep_resumable };
        run(a.quick, a.seed, a.fault_seed, a.jobs, a.attempts, &ctx.log, ctx.ckpt.as_ref())
    };
    let table = |title: &str, miss: &str, sweep: &[faults::FaultCell]| {
        let floor = format!("(floor {:.2}× fault-free)", faults::SMOOTHNESS_FLOOR);
        let headers = ["rate", "hm_ipc", "rel", "faults", "degraded epochs", "verdict"];
        print!("{}", report::table(&format!("{title} {floor}"), &headers, &faults::rows(sweep)));
        gate(faults::passes(sweep), &format!("faults: {miss} cliffed below the smoothness floor"))
    };
    let cmm = bench.measure("faults", n, n * mix_cycles(a.quick), || sweep(false));
    let (mut cells, code) = settle(ctx, "faults", cmm, |s| {
        let code =
            table("Fault-injection sweep — CMM-a, hm_ipc vs injected fault rate", "hm_ipc", &s);
        (faults::journal_cells(s), code)
    });
    // The MBA-register leg: CBP under faults confined to the MBA throttle
    // MSR, exercising the CBP -> CMM-a degradation rung.
    let mba = bench.measure("faults_mba", n, n * mix_cycles(a.quick), || sweep(true));
    let (mba_cells, mba_code) = settle(ctx, "faults (mba leg)", mba, |s| {
        let code = table("MBA-fault sweep — CBP, hm_ipc vs MBA-register fault rate", "MBA leg", &s);
        (faults::mba_journal_cells(s), code)
    });
    cells.extend(mba_cells);
    (cells, code.max(mba_code))
}

fn run_governor(ctx: &Ctx, bench: &mut BenchLog) -> Outcome {
    let a = &ctx.args;
    // Two legs (bare, governed) per swept rate.
    let n = 2 * governor::RATES.len() as u64;
    let sweep = bench.measure("governor", n, n * mix_cycles(a.quick), || {
        governor::sweep_resumable(
            a.quick,
            a.seed,
            a.fault_seed,
            a.jobs,
            a.attempts,
            &ctx.log,
            ctx.ckpt.as_ref(),
        )
    });
    settle(ctx, "governor", sweep, |sweep| {
        print!(
            "{}",
            report::table(
                "Safety-governor sweep — CBP bare vs governed, hm_ipc vs fault \
                 rate (gate: governed >= bare at every nonzero rate)",
                &[
                    "rate",
                    "hm bare",
                    "hm gov",
                    "delta",
                    "faults",
                    "rollbacks",
                    "quarantines",
                    "breaker trips",
                    "verdict"
                ],
                &governor::rows(&sweep),
            )
        );
        let code = gate(
            governor::passes(&sweep),
            "governor: governed CBP lost to bare CBP at a nonzero fault rate",
        );
        (governor::journal_cells(sweep), code)
    })
}

fn run_learn(ctx: &Ctx, bench: &mut BenchLog) -> Outcome {
    let a = &ctx.args;
    let model = ctx.model.as_ref().expect("learn resolves its model before running");
    // 4 standard mixes × 5 mechanisms (baseline, CMM-a, CBP and the two
    // learned controllers).
    let n = 4 * learn::MECHS.len() as u64;
    let eval = bench.measure("learn", n, n * mix_cycles(a.quick), || {
        learn::evaluate_resumable(
            a.quick,
            a.seed,
            a.jobs,
            a.attempts,
            &ctx.log,
            ctx.ckpt.as_ref(),
            model,
        )
    });
    settle(ctx, "learn", eval, |results| {
        print!(
            "{}",
            report::table(
                "Learned controllers — per-mix hm_ipc, fairness and decision \
                 churn vs CMM-a/CBP",
                &learn::EVAL_HEADERS,
                &learn::rows(&results),
            )
        );
        print!(
            "{}",
            report::table(
                "ML-Sel vs CMM-a decision diff — per-epoch 0x1A4 agreement",
                &learn::AGREEMENT_HEADERS,
                &learn::agreement_rows(&results),
            )
        );
        let vrows: Vec<Vec<String>> = learn::verdicts(&results)
            .iter()
            .map(|v| {
                vec![
                    v.mix.clone(),
                    format!("{:.3}", v.mlsel_ratio),
                    format!("{:.3}", v.rl_tail_ratio),
                    format!("{:.3}", v.rl_run_ratio),
                    if v.ok() { "ok" } else { "MISS" }.into(),
                ]
            })
            .collect();
        print!(
            "{}",
            report::table(
                &format!(
                    "Gate — ML-Sel >= {floor:.2}x CMM-a on every mix; RL-CBP \
                     converges to >= CMM-a (tail or whole-run)",
                    floor = learn::MLSEL_FLOOR_RATIO
                ),
                &["mix", "mlsel/cmm", "rl tail/cmm", "rl run/cmm", "verdict"],
                &vrows,
            )
        );
        let code = gate(
            learn::passes(&results),
            "learn: a learned controller missed its gate (ML-Sel floor or RL-CBP convergence)",
        );
        (learn::journal_cells(results), code)
    })
}

/// Topologies swept by `repro scale` when `--topology` doesn't narrow it
/// to one leg (the CI matrix does).
const SCALE_SWEEP: [&str; 3] = ["1x8", "2x16", "4x32"];

/// `repro scale`: Baseline and CMM-a on tiled mixes across the topology
/// sweep, reporting per-CAT-domain hm_ipc. Each leg is its own
/// `scale_<label>` perf-log target, so `bench-compare` gates many-core
/// throughput (wall, sim-cycles/s) separately from the 8-core targets.
fn run_scale(ctx: &Ctx, bench: &mut BenchLog) -> Outcome {
    let a = &ctx.args;
    let topos: Vec<Topology> = match a.topology {
        Some(t) => vec![t],
        None => SCALE_SWEEP.iter().map(|s| s.parse().expect("sweep labels parse")).collect(),
    };
    let mechs = [Mechanism::Baseline, Mechanism::CmmA];
    let mut cells: Vec<JournalCell> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for topo in topos {
        // The `--quick` eval durations are sized for 8 cores, so the
        // many-core legs (4x32 simulates 128 cores per cell) get a further
        // cut to stay inside the CI smoke budget.
        let mut cfg = exp_cfg(a.quick);
        if a.quick {
            cfg.warmup_cycles = 300_000;
            cfg.total_cycles = 600_000;
        }
        cfg.sys.set_topology(topo);
        let pairs: Vec<(Mix, Mechanism)> = build_mixes(a.seed, 1)
            .into_iter()
            .take(2)
            .map(|m| m.tiled(topo.total_cores()))
            .flat_map(|m| mechs.into_iter().map(move |mech| (m.clone(), mech)))
            .collect();
        let per_cell = (cfg.warmup_cycles + cfg.total_cycles) * topo.total_cores() as u64;
        let name = format!("scale_{}", topo.label());
        let results =
            bench.measure(&name, pairs.len() as u64, pairs.len() as u64 * per_cell, || {
                let pool = WarmupPool::new();
                parallel_map(&pairs, a.jobs, |_, (mix, mech)| {
                    ctx.log.cell(
                        &format!("scale {}: {} {}", topo.label(), mix.name, mech.label()),
                        || run_mix_pooled(&pool, mix, *mech, &cfg),
                    )
                })
            });
        let len = topo.cores_per_socket;
        for r in results {
            for d in 0..topo.sockets {
                rows.push(vec![
                    topo.label(),
                    r.mix_name.clone(),
                    r.mechanism.label().to_string(),
                    d.to_string(),
                    format!("{:.4}", met::hm_ipc(&r.ipcs[d * len..(d + 1) * len])),
                ]);
            }
            cells.push((
                format!("scale {}: {} {}", topo.label(), r.mix_name, r.mechanism.label()),
                r.epochs,
            ));
        }
    }
    print!(
        "{}",
        report::table(
            "Scale sweep — per-CAT-domain harmonic-mean IPC",
            &["topology", "mix", "mechanism", "domain", "hm_ipc"],
            &rows,
        )
    );
    (cells, 0)
}

/// Resolves the `repro learn` classifier: loads `--model` (exit 2 on any
/// `cmm-model/1` format error) or trains one in-process, printing the
/// training table. Returns the model plus its content digest (folded into
/// the run's config digest so `--resume` refuses a different model).
fn resolve_learn_model(args: &Args, log: &Progress) -> (Model, String) {
    let Some(path) = &args.model else {
        let t = learn::train_model(args.quick);
        print_training(&t);
        log.note(&format!(
            "trained phase classifier in-process: {} samples, accuracy {:.3}",
            t.samples, t.accuracy
        ));
        let digest = fnv1a(t.model.to_text().as_bytes());
        return (t.model, digest);
    };
    let fail =
        |e: &dyn Display| -> ! { usage_error(&format!("[repro] --model {}: {e}", path.display())) };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&e));
    let m = Model::from_text(&text).unwrap_or_else(|e| fail(&e));
    log.note(&format!(
        "loaded cmm-model/1 from {} ({} classes, digest {})",
        path.display(),
        m.labels.len(),
        fnv1a(text.as_bytes())
    ));
    (m, fnv1a(text.as_bytes()))
}

fn print_training(t: &learn::TrainReport) {
    print!(
        "{}",
        report::table(
            "Phase-classifier training corpus — run-alone IPC per 0x1A4 image",
            &learn::TRAIN_HEADERS,
            &t.rows,
        )
    );
}

/// `repro learn train`: fit the phase classifier from the roster corpus
/// and write it out as a `cmm-model/1` document. Exit 0 on success, 2 on
/// an unwritable output path.
fn run_learn_train(args: &Args) -> Result<i32, String> {
    let out = args.out.clone().unwrap_or_else(|| PathBuf::from("mlsel.model"));
    let t = learn::train_model(args.quick);
    print_training(&t);
    println!(
        "trained cmm-model/1: {} samples, {} classes, training accuracy {:.3}",
        t.samples,
        t.model.labels.len(),
        t.accuracy
    );
    let text = t.model.to_text();
    cmm_bench::atomic::write_atomic(&out, text.as_bytes())
        .map_err(|e| format!("[repro] learn train: cannot write {}: {e}", out.display()))?;
    println!("wrote {} ({} bytes, digest {})", out.display(), text.len(), fnv1a(text.as_bytes()));
    Ok(0)
}

/// `repro trace record|convert|stat`: the subcommand is the first operand.
fn run_trace(args: &Args) -> Result<i32, String> {
    Ok(tracecmd::run(&args.operands, args.seed, args.ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[String]) -> Args {
        parse_args(argv.iter().cloned()).expect("test argv parses")
    }

    /// The config digest `simulate` would journal and checkpoint for
    /// `argv`, computed the same way (traces loaded, model resolved).
    fn digest(argv: &[String]) -> String {
        let a = args(argv);
        let t = Target::lookup(&a).expect("known target");
        t.check(&a).unwrap_or_else(|e| panic!("{argv:?} is refused: {e}"));
        let traces = load_traces(&a);
        let model = t.accepts("--model").then(|| resolve_learn_model(&a, &Progress::new(false)));
        let meta = journal_meta(t, &a, traces.as_ref(), model.as_ref().map(|(_, d)| d.as_str()));
        cmm_core::telemetry::config_digest(&meta.config_debug)
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("repro-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn every_accepted_identity_flag_changes_the_digest_and_harness_flags_do_not() {
        let dir = scratch("digest");
        let traces = dir.join("traces");
        let argv = ["record".to_string(), traces.display().to_string()];
        assert_eq!(tracecmd::run(&argv, 42, 300), 0, "a small trace set records");
        let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmarks/fixtures/mlsel.model");
        let mut other = Model::from_text(&std::fs::read_to_string(fixture).unwrap()).unwrap();
        other.weights[0][0] += 0.5;
        let other_path = dir.join("other.model");
        std::fs::write(&other_path, other.to_text()).unwrap();
        let (traces, other_path) = (traces.display().to_string(), other_path.display().to_string());

        let identity = [
            ("--seed", "5"),
            ("--mixes", "3"),
            ("--fault-seed", "9"),
            ("--trace-dir", traces.as_str()),
            ("--model", other_path.as_str()),
            ("--topology", "2x16"),
        ];
        let harness = [
            ("--jobs", "3"),
            ("--attempts", "5"),
            ("--chaos-seed", "11"),
            ("--chaos-rate", "0.5"),
            ("--chaos-mode", "persistent"),
            ("--chaos-kill", "4"),
            ("--bench-json", "elsewhere.json"),
            ("--journal", "elsewhere.jsonl"),
        ];
        let mut checked = 0;
        for t in TARGETS.iter().filter(|t| !matches!(t.run, Run::Tool(_))) {
            let mut base: Vec<String> = t.name.split(' ').map(String::from).collect();
            base.push("--quick".into());
            if t.accepts("--model") {
                base.extend(["--model".to_string(), fixture.to_string()]);
            }
            let with = |flag: &str, value: &str| {
                let mut argv = base.clone();
                argv.extend([flag.to_string(), value.to_string()]);
                digest(&argv)
            };
            let plain = digest(&base);
            for (flag, value) in identity {
                let multi = flag != "--topology" || t.sockets() != Sockets::One;
                if t.accepts(flag) && multi {
                    assert_ne!(with(flag, value), plain, "repro {} {flag} {value}", t.name);
                    checked += 1;
                }
            }
            for (flag, value) in harness {
                if t.accepts(flag) {
                    assert_eq!(with(flag, value), plain, "repro {} {flag} {value}", t.name);
                    checked += 1;
                }
            }
            if t.sockets() != Sockets::Sweep {
                assert_eq!(with("--topology", "1x8"), plain, "repro {} --topology 1x8", t.name);
            }
        }
        assert!(checked > 100, "the table covered only {checked} (target, flag) pairs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_names_are_unique_and_every_flag_has_a_taker() {
        for (i, t) in TARGETS.iter().enumerate() {
            assert!(TARGETS[..i].iter().all(|u| u.name != t.name), "duplicate entry {}", t.name);
            for flag in t.flags.iter().flat_map(|group| group.iter()) {
                assert!(FLAGS.iter().any(|(f, _)| f == flag), "{} lists unknown {flag}", t.name);
            }
        }
        for (flag, _) in FLAGS {
            assert!(TARGETS.iter().any(|t| t.accepts(flag)), "no entry accepts {flag}");
        }
    }

    #[test]
    fn all_accepts_exactly_what_its_members_honour() {
        let all = TARGETS.iter().find(|t| matches!(t.run, Run::All)).unwrap();
        for (flag, _) in FLAGS {
            assert_eq!(all.accepts(flag), members().any(|m| m.accepts(flag)), "{flag}");
        }
        assert!(!all.accepts("--fault-seed") && !all.accepts("--model"));
        assert!(all.sockets() == Sockets::One, "table1 pins all to one socket");
    }
}
