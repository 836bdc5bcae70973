//! Honest cycle accounting: a cell counts exactly the cycles its machine
//! advanced, a pooled warm-up counts once per mix, and a cell that did
//! not run counts nothing. Also pins that the traced path reproduces the
//! library's entry points bit for bit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use cmm_perfbench::plan::{Entry, Plan, Workload};
use cmm_perfbench::{
    accounting_errors, expected_warmups, pass_core_cycles, traced_pass, untraced_pass, Checker,
};

/// `workload`'s plan with short windows and at most `max_cells` cells, so
/// the test stays quick while keeping the workload's entry points.
fn small_plan(workload: Workload, max_cells: usize) -> Plan {
    let (mut plan, _) = Plan::build(workload, 7).expect("the model fixture loads");
    for cfg in &mut plan.cfgs {
        cfg.warmup_cycles = 40_000;
        cfg.total_cycles = 80_000;
        cfg.ctrl.execution_epoch = 20_000;
        cfg.ctrl.sampling_interval = 2_000;
    }
    plan.cells.truncate(max_cells);
    plan
}

/// `ctrl-dense`'s plan cut down like [`small_plan`] to its multi-domain
/// cells only.
fn multi_domain_plan() -> Plan {
    let mut plan = small_plan(Workload::CtrlDense, usize::MAX);
    let cfgs = plan.cfgs.clone();
    plan.cells.retain(|c| !cfgs[c.mix].sys.topology.is_single());
    plan
}

#[test]
fn pooled_warmups_count_once_per_mix_and_windows_match_the_clock() {
    // Mechanism-major: 8 cells cover the Baseline and PT cells of 4 mixes.
    let plan = small_plan(Workload::PaperEval, 8);
    let pass = traced_pass(&plan, 1);
    let traces: Vec<_> = pass.cells.iter().map(|c| c.trace.clone().expect("traced")).collect();
    for t in &traces {
        assert_eq!(accounting_errors(&plan.cfgs[0], t), Vec::<String>::new());
    }
    assert_eq!(expected_warmups(&plan), 4);
    assert_eq!(traces.iter().map(|t| t.warmups).sum::<u64>(), 4);
    assert_eq!(traces.iter().map(|t| t.restores).sum::<u64>(), 8);
    // The pass total is every window plus one warm-up per mix, in
    // core-cycles, and nothing else.
    let cores = 8;
    let windows: u64 = traces.iter().map(|t| t.window_cycles * cores).sum();
    assert_eq!(pass_core_cycles(&pass), windows + 4 * plan.cfgs[0].warmup_cycles * cores);
}

#[test]
fn fresh_cells_count_their_own_warmup_including_learned_and_governed() {
    // One ctrl-dense mix: Baseline, PT-fine, CBP, ML-Sel, RL-CBP, governed CBP.
    let plan = small_plan(Workload::CtrlDense, 6);
    assert!(plan.cells.iter().any(|c| c.entry == Entry::Governed));
    let pass = traced_pass(&plan, 1);
    for (cell, run) in plan.cells.iter().zip(&pass.cells) {
        let t = run.trace.as_ref().expect("traced");
        assert_eq!(accounting_errors(plan.cfg(cell), t), Vec::<String>::new());
        assert_eq!(t.warmups, 1);
        assert_eq!(t.warmup_cycles, plan.cfg(cell).warmup_cycles);
        assert_eq!(t.sim_core_cycles(), (t.warmup_cycles + t.window_cycles) * 8);
    }
}

#[test]
fn multi_domain_cells_count_one_pooled_warmup_per_mix_and_their_own_for_rl() {
    // Two tiled mixes x {Baseline, CMM-a, CBP pooled; RL-CBP fresh}.
    let plan = multi_domain_plan();
    assert_eq!(plan.cells.len(), 8);
    assert_eq!(expected_warmups(&plan), 2 + 2);
    let pass = traced_pass(&plan, 2);
    let mut warmups = 0;
    for (cell, run) in plan.cells.iter().zip(&pass.cells) {
        let t = run.trace.as_ref().expect("traced");
        assert_eq!(accounting_errors(plan.cfg(cell), t), Vec::<String>::new());
        assert_eq!(t.cores, 32);
        warmups += t.warmups;
    }
    assert_eq!(warmups, expected_warmups(&plan));
}

#[test]
fn a_cell_that_did_not_run_counts_no_cycles() {
    let plan = small_plan(Workload::PaperEval, 4);
    let mut pass = traced_pass(&plan, 1);
    let full = pass_core_cycles(&pass);
    let lost = pass.cells[1].trace.take().expect("traced").sim_core_cycles();
    pass.cells[1].result = None;
    assert!(lost > 0);
    assert_eq!(pass_core_cycles(&pass), full - lost);
}

#[test]
fn traced_path_reproduces_the_entry_points_at_any_jobs() {
    let plans = [
        small_plan(Workload::PaperEval, 8),
        small_plan(Workload::CtrlDense, 6),
        multi_domain_plan(),
    ];
    for plan in plans {
        let cells = plan.cells.len();
        let reference = traced_pass(&plan, 1);
        let mut chk = Checker::new(&plan, &reference);
        chk.compare(&plan, &untraced_pass(&plan, 1), "untraced");
        chk.compare(&plan, &untraced_pass(&plan, 2), "untraced");
        chk.compare(&plan, &traced_pass(&plan, 2), "traced");
        assert_eq!(chk.failed, 0, "{:?}", chk.notes);
        assert_eq!(chk.attempted, 4 * cells as u64);
    }
}
