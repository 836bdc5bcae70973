//! Running one cell, untraced through the library's entry points or
//! traced through the same public pieces with spans around each layer.

use std::sync::Mutex;
use std::time::Instant;

use cmm_bench::learn::{CONFIDENCE_FLOOR, RL_EPSILON};
use cmm_core::backend;
use cmm_core::driver::Driver;
use cmm_core::experiment::{
    run_mix, run_mix_governed, run_mix_learned, run_mix_pooled, MixResult, WarmupPool,
};
use cmm_core::fault::FaultySubstrate;
use cmm_core::governor::GovernorConfig;
use cmm_core::learned::{Learner, RlPolicy};
use cmm_core::substrate::Substrate;
use cmm_sim::pmu::Pmu;
use cmm_sim::{System, SystemSnapshot};

use crate::plan::{build_system, Cell, Entry, Plan, ROSTER_SEED};
use crate::probe::{ns_since, Machine, Probe};

fn ml_learner(plan: &Plan) -> Learner {
    Learner::Ml { model: plan.model.clone(), floor: CONFIDENCE_FLOOR }
}

// The RL policy's exploration seed is part of the controller, not of its
// input, so it stays fixed (at `repro`'s default) while the workload seed
// varies the mixes.
fn rl_learner() -> Learner {
    Learner::Rl(RlPolicy::new(ROSTER_SEED, RL_EPSILON))
}

fn governor(plan: &Plan) -> GovernorConfig {
    GovernorConfig::new(plan.faults.seed)
}

/// Runs `cell` through the library's public entry point, untraced.
pub fn run_untraced(plan: &Plan, pool: &WarmupPool, cell: &Cell) -> MixResult {
    let mix = &plan.mixes[cell.mix];
    let cfg = plan.cfg(cell);
    match cell.entry {
        Entry::Pooled => run_mix_pooled(pool, mix, cell.mech, cfg),
        Entry::Fresh => run_mix(mix, cell.mech, cfg),
        Entry::MlSel => run_mix_learned(mix, cell.mech, cfg, Some(ml_learner(plan))),
        Entry::RlCbp => run_mix_learned(mix, cell.mech, cfg, Some(rl_learner())),
        Entry::Governed => run_mix_governed(mix, cell.mech, cfg, &plan.faults, governor(plan)),
    }
}

/// Everything the traced run records for one cell. Cycle counts are
/// machine cycles (multiply by `cores` for core-cycles); times are host
/// nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct CellTrace {
    /// Cores of the cell's machine.
    pub cores: u64,
    /// Warm-ups this cell simulated (0 when it restored a pooled one).
    pub warmups: u64,
    /// Host time of those warm-ups.
    pub warmup_ns: u64,
    /// Machine cycles those warm-ups advanced.
    pub warmup_cycles: u64,
    /// Instructions retired during those warm-ups, summed over cores.
    pub warmup_instructions: u64,
    /// Host time taking the pooled warm-up snapshot.
    pub snapshot_ns: u64,
    /// Restores from a pooled snapshot.
    pub restores: u64,
    /// Host time restoring.
    pub restore_ns: u64,
    /// `Driver::epoch` calls.
    pub epochs: u64,
    /// Host time inside `Driver::epoch`.
    pub epoch_ns: u64,
    /// Host time of the `run` calls made inside `Driver::epoch`.
    pub epoch_run_ns: u64,
    /// Machine cycles advanced inside `Driver::epoch`.
    pub profile_cycles: u64,
    /// `run` calls made inside `Driver::epoch` (sampling intervals).
    pub sample_runs: u64,
    /// `pmu_all` calls made inside `Driver::epoch`.
    pub pmu_reads: u64,
    /// `write_msr` calls made inside `Driver::epoch`.
    pub msr_writes: u64,
    /// Host time of those writes.
    pub msr_ns: u64,
    /// Those writes that returned `Err`.
    pub msr_failed: u64,
    /// Execution-epoch `run` calls' host time.
    pub exec_ns: u64,
    /// Machine cycles of the execution epochs.
    pub exec_cycles: u64,
    /// Machine cycles of the measurement window (epochs + execution).
    pub window_cycles: u64,
    /// Prefetch requests the memory controllers dropped in the window.
    pub prefetches_dropped: u64,
    /// Every machine cycle the cell's substrate advanced, as the decorator
    /// counted them (warm-up excluded when it ran outside the decorator).
    pub probe_cycles: u64,
    /// Machine clock when the cell finished.
    pub end_now: u64,
}

impl CellTrace {
    /// Core-cycles this cell simulated: its own warm-up (if any) plus its
    /// measurement window.
    pub fn sim_core_cycles(&self) -> u64 {
        (self.warmup_cycles + self.window_cycles) * self.cores
    }
}

/// The traced run's own warm-up pool: one snapshot per mix, taken under a
/// per-mix lock so each mix is warmed exactly once however cells are
/// scheduled.
pub struct TracedPool {
    slots: Vec<Mutex<Option<SystemSnapshot>>>,
}

impl TracedPool {
    /// An empty pool for `plan`'s mixes.
    pub fn new(plan: &Plan) -> Self {
        TracedPool { slots: plan.mixes.iter().map(|_| Mutex::new(None)).collect() }
    }

    fn warmed(&self, plan: &Plan, mix: usize, t: &mut CellTrace) -> System {
        let mut slot = self.slots[mix].lock().expect("a traced cell panicked holding its mix slot");
        if slot.is_none() {
            let sys = warm_fresh(plan, mix, t);
            let t0 = Instant::now();
            let snap = sys.snapshot().expect("synthetic workloads are cloneable");
            t.snapshot_ns += ns_since(t0);
            *slot = Some(snap);
        }
        let t0 = Instant::now();
        let sys = slot.as_ref().expect("filled above").restore();
        t.restore_ns += ns_since(t0);
        t.restores += 1;
        sys
    }
}

/// Builds `mix`'s machine and runs its warm-up under a span.
fn warm_fresh(plan: &Plan, mix: usize, t: &mut CellTrace) -> System {
    let cfg = &plan.cfgs[mix];
    let mut sys = build_system(&plan.mixes[mix], cfg);
    let t0 = Instant::now();
    let before = sys.now();
    if cfg.warmup_cycles > 0 {
        sys.run(cfg.warmup_cycles);
    }
    t.warmup_ns += ns_since(t0);
    t.warmup_cycles += sys.now() - before;
    t.warmup_instructions += sys.pmu_all().iter().map(|p| p.instructions).sum::<u64>();
    t.warmups += 1;
    sys
}

/// Runs `cell` over a [`Probe`]-wrapped machine with spans around warm-up,
/// snapshot/restore, each `Driver::epoch` and each execution-epoch `run`.
/// Mirrors the entry point [`run_untraced`] uses, so the result must equal
/// the untraced one bit for bit.
pub fn run_traced(plan: &Plan, pool: &TracedPool, cell: &Cell) -> (MixResult, CellTrace) {
    let mut t = CellTrace::default();
    let ctrl = plan.cfg(cell).ctrl.clone();
    let mech = cell.mech;
    let r = match cell.entry {
        Entry::Pooled => {
            let sys = pool.warmed(plan, cell.mix, &mut t);
            drive(Driver::new(Probe::new(sys), mech, ctrl), plan, cell, &mut t)
        }
        Entry::Fresh => {
            let sys = warm_fresh(plan, cell.mix, &mut t);
            drive(Driver::new(Probe::new(sys), mech, ctrl), plan, cell, &mut t)
        }
        Entry::MlSel | Entry::RlCbp => {
            let sys = warm_fresh(plan, cell.mix, &mut t);
            let learner = if cell.entry == Entry::MlSel { ml_learner(plan) } else { rl_learner() };
            let driver = Driver::new(Probe::new(sys), mech, ctrl).with_learner(learner);
            drive(driver, plan, cell, &mut t)
        }
        Entry::Governed => {
            // Warm-up draws no fault entropy, so warming before wrapping
            // is the same machine as warming through the fault layer.
            let sys = FaultySubstrate::new(warm_fresh(plan, cell.mix, &mut t), plan.faults.clone());
            let driver = Driver::new(Probe::new(sys), mech, ctrl).with_governor(governor(plan));
            drive(driver, plan, cell, &mut t)
        }
    };
    (r, t)
}

/// The measurement window of a warmed, wrapped machine: the library's
/// window bookkeeping with `Driver::run_total` unrolled into spans.
fn drive<S: Substrate + Machine>(
    mut driver: Driver<Probe<S>>,
    plan: &Plan,
    cell: &Cell,
    t: &mut CellTrace,
) -> MixResult {
    let mix = &plan.mixes[cell.mix];
    let cores = mix.num_cores();
    t.cores = cores as u64;
    let mut window_log = Vec::new();
    let before = backend::pmu_read_checked(driver.system_mut(), &mut window_log);
    let traffic_before: u64 = (0..cores).map(|c| driver.system().traffic(c).total_bytes()).sum();
    let dropped_before = driver.system().machine().prefetches_dropped();
    let start = driver.system().now();

    let cfg = plan.cfg(cell);
    let target = start + cfg.total_cycles;
    while driver.system().now() < target {
        let c0 = driver.system().counters();
        let n0 = driver.system().now();
        let t0 = Instant::now();
        driver.epoch();
        t.epoch_ns += ns_since(t0);
        let c = driver.system().counters().since(&c0);
        let now = driver.system().now();
        t.epochs += 1;
        t.epoch_run_ns += c.run_ns;
        t.profile_cycles += now - n0;
        t.sample_runs += c.run_calls;
        t.pmu_reads += c.pmu_reads;
        t.msr_writes += c.msr_writes;
        t.msr_ns += c.msr_ns;
        t.msr_failed += c.msr_failed;
        let exec = target.saturating_sub(now).min(cfg.ctrl.execution_epoch);
        if exec > 0 {
            let t1 = Instant::now();
            driver.system_mut().run(exec);
            t.exec_ns += ns_since(t1);
            t.exec_cycles += driver.system().now() - now;
        }
    }

    let after = backend::pmu_read_checked(driver.system_mut(), &mut window_log);
    let deltas: Vec<Pmu> = after.iter().zip(before).map(|(&a, b)| a - b).collect();
    let traffic_after: u64 = (0..cores).map(|c| driver.system().traffic(c).total_bytes()).sum();
    t.window_cycles = driver.system().now() - start;
    t.prefetches_dropped = driver.system().machine().prefetches_dropped() - dropped_before;
    t.probe_cycles = driver.system().counters().run_cycles;
    t.end_now = driver.system().now();

    MixResult {
        mechanism: cell.mech,
        mix_name: mix.name.clone(),
        benchmarks: mix.slots.iter().map(|s| s.name().to_string()).collect(),
        ipcs: deltas.iter().map(|d| d.ipc()).collect(),
        pmu: deltas.to_vec(),
        mem_bytes: traffic_after - traffic_before,
        stalls_l2: deltas.iter().map(|d| d.stalls_l2_pending).sum(),
        overhead_ratio: driver.overhead_ratio(),
        epochs: driver.take_records(),
    }
}
