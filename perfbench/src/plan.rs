//! The two workloads: which (mix, mechanism) cells each one runs, on
//! which machine and controller configuration, and the set-up that builds
//! their inputs from the workload seed.

use cmm_core::experiment::ExperimentConfig;
use cmm_core::fault::FaultConfig;
use cmm_core::policy::Mechanism;
use cmm_learn::model::Model;
use cmm_sim::config::Topology;
use cmm_sim::System;
use cmm_workloads::{build_mixes, Category, Mix};

/// The committed ML-Sel classifier the `ctrl-dense` workload loads.
pub const MODEL_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../benchmarks/fixtures/mlsel.model");

/// Seed of the mixes' benchmark composition: `repro`'s default seed, so
/// every workload runs `repro`'s standard mixes. The workload seed varies
/// each mix's instance seed (the synthetic address streams) instead, which
/// keeps one workload's host cost comparable across seeds.
pub const ROSTER_SEED: u64 = 42;

/// The standard mixes (one per category) with instance seeds derived from
/// `seed`; seed 0 leaves them exactly as `repro` builds them.
pub fn seeded_mixes(seed: u64) -> Vec<Mix> {
    build_mixes(ROSTER_SEED, 1)
        .into_iter()
        .map(|mut m| {
            m.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            m
        })
        .collect()
}

/// Per-operation fault rate of the governed CBP cells in `ctrl-dense`:
/// transient MSR rejections and PMU overflows, below the hard-fault
/// regime of `repro governor`.
pub const FAULT_RATE: f64 = 0.05;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's evaluation grid through one pooled warm-up per mix.
    PaperEval,
    /// Every controller path: controller-heavy single-domain cells at the
    /// short-epoch end of the epoch-ratio study, each warmed fresh, plus
    /// tiled mixes on 2 sockets x 16 cores (the multi-domain path).
    CtrlDense,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::PaperEval, Workload::CtrlDense];

    /// The workload's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEval => "paper-eval",
            Workload::CtrlDense => "ctrl-dense",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads for the timed passes: `paper-eval` fans out over
    /// the runner at `min(2, nproc)`, `ctrl-dense` runs serially.
    pub fn jobs(self) -> usize {
        match self {
            Workload::PaperEval => cmm_bench::runner::default_jobs().min(2),
            Workload::CtrlDense => 1,
        }
    }
}

/// The machine, controller and durations of `paper-eval`.
pub fn paper_config() -> ExperimentConfig {
    ExperimentConfig::quick()
}

/// The single-domain cells of `ctrl-dense`: 10:1, the short-epoch end of
/// `repro ablate`'s execution-epoch : sampling-interval sweep.
pub fn dense_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.ctrl.execution_epoch = cfg.ctrl.sampling_interval * 10;
    cfg
}

/// The multi-domain cells of `ctrl-dense`: 2 sockets x 16 cores.
pub fn scale_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.sys.set_topology(Topology::grid(2, 16));
    cfg.warmup_cycles = 300_000;
    cfg.total_cycles = 600_000;
    cfg
}

/// How a cell reaches the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `run_mix_pooled`: warm-up restored from the pass's pool.
    Pooled,
    /// `run_mix`: a fresh machine warmed for this cell alone.
    Fresh,
    /// `run_mix_learned` with the ML-Sel classifier.
    MlSel,
    /// `run_mix_learned` with the RL-CBP bandit.
    RlCbp,
    /// `run_mix_governed`: CBP with the safety governor on a faulty
    /// substrate.
    Governed,
}

/// One (mix, mechanism) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Index into [`Plan::mixes`].
    pub mix: usize,
    /// The mechanism the cell runs.
    pub mech: Mechanism,
    /// The entry point it runs through.
    pub entry: Entry,
}

impl Cell {
    /// The mechanism's label, `"+gov"` appended for governed cells.
    pub fn mechanism_label(&self) -> String {
        let gov = if self.entry == Entry::Governed { "+gov" } else { "" };
        format!("{}{gov}", self.mech.label())
    }

    /// A stable label, `"<mix>: <mechanism>"`.
    pub fn label(&self, plan: &Plan) -> String {
        format!("{}: {}", plan.mixes[self.mix].name, self.mechanism_label())
    }
}

/// Everything a pass needs, built from the workload seed.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Seed the mixes' instance seeds and the fault schedule derive from.
    pub seed: u64,
    /// The mixes, tiled to their machine's core count.
    pub mixes: Vec<Mix>,
    /// Machine, controller and durations, one per mix.
    pub cfgs: Vec<ExperimentConfig>,
    /// Cells in pass order.
    pub cells: Vec<Cell>,
    /// The ML-Sel classifier.
    pub model: Model,
    /// The governed cells' fault schedule.
    pub faults: FaultConfig,
}

/// The evaluation's seven managed mechanisms plus the baseline.
const PAPER_MECHS: [Mechanism; 8] = [
    Mechanism::Baseline,
    Mechanism::Pt,
    Mechanism::Dunn,
    Mechanism::PrefCp,
    Mechanism::PrefCp2,
    Mechanism::CmmA,
    Mechanism::CmmB,
    Mechanism::CmmC,
];

impl Plan {
    /// The set-up phase: builds the mixes, parses the model fixture and
    /// constructs one machine per mix. The machines are returned so the
    /// caller decides when their construction cost is paid back.
    pub fn build(workload: Workload, seed: u64) -> Result<(Plan, Vec<System>), String> {
        let text = std::fs::read_to_string(MODEL_FIXTURE)
            .map_err(|e| format!("reading {MODEL_FIXTURE}: {e}"))?;
        let model = Model::from_text(&text).map_err(|e| format!("parsing the model: {e:?}"))?;
        let all = seeded_mixes(seed);
        let mut plan = Plan {
            workload,
            seed,
            mixes: Vec::new(),
            cfgs: Vec::new(),
            cells: Vec::new(),
            model,
            faults: FaultConfig::uniform(seed ^ 0x5eed_fa17, FAULT_RATE),
        };
        match workload {
            Workload::PaperEval => {
                for m in all {
                    plan.add_mix(m, paper_config());
                }
                // Mechanism-major order: the first cell of every mix warms
                // the pool and every later cell of that mix is dispatched
                // only after other mixes' cells, so a mix is warmed once.
                for mech in PAPER_MECHS {
                    for mix in 0..plan.mixes.len() {
                        plan.cells.push(Cell { mix, mech, entry: Entry::Pooled });
                    }
                }
            }
            Workload::CtrlDense => {
                let dense = [
                    (Mechanism::Baseline, Entry::Fresh),
                    (Mechanism::PtFine, Entry::Fresh),
                    (Mechanism::Cbp, Entry::Fresh),
                    (Mechanism::MlSel, Entry::MlSel),
                    (Mechanism::RlCbp, Entry::RlCbp),
                    (Mechanism::Cbp, Entry::Governed),
                ];
                for m in all.iter().filter(|m| {
                    matches!(
                        m.category,
                        Category::PrefAgg | Category::PrefUnfri | Category::PrefNoAgg
                    )
                }) {
                    let mix = plan.add_mix(m.clone(), dense_config());
                    plan.cells.extend(dense.map(|(mech, entry)| Cell { mix, mech, entry }));
                }
                let scale = [
                    (Mechanism::Baseline, Entry::Pooled),
                    (Mechanism::CmmA, Entry::Pooled),
                    (Mechanism::Cbp, Entry::Pooled),
                    (Mechanism::RlCbp, Entry::RlCbp),
                ];
                let cfg = scale_config();
                let cores = cfg.sys.topology.total_cores();
                for m in all.iter().take(2) {
                    let mix = plan.add_mix(m.tiled(cores), cfg.clone());
                    plan.cells.extend(scale.map(|(mech, entry)| Cell { mix, mech, entry }));
                }
            }
        }
        let machines =
            plan.mixes.iter().zip(&plan.cfgs).map(|(m, cfg)| build_system(m, cfg)).collect();
        Ok((plan, machines))
    }

    fn add_mix(&mut self, mix: Mix, cfg: ExperimentConfig) -> usize {
        self.mixes.push(mix);
        self.cfgs.push(cfg);
        self.mixes.len() - 1
    }

    /// The configuration `cell` runs with.
    pub fn cfg(&self, cell: &Cell) -> &ExperimentConfig {
        &self.cfgs[cell.mix]
    }

    /// Indices of the cells that ran `mix`'s baseline.
    pub fn baseline_of(&self, mix: usize) -> Option<usize> {
        self.cells.iter().position(|c| c.mix == mix && c.mech == Mechanism::Baseline)
    }
}

/// A machine hosting `mix` under `cfg`, built the way the library's entry
/// points build theirs.
pub fn build_system(mix: &Mix, cfg: &ExperimentConfig) -> System {
    let mut sys_cfg = cfg.sys.clone();
    sys_cfg.set_num_cores(mix.num_cores());
    let workloads = mix.instantiate(sys_cfg.llc.size_bytes);
    System::new(sys_cfg, workloads)
}
