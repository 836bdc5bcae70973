//! Golden digests of the controller's journal stream.
//!
//! Every run below drives a small machine through `Driver::run_total` and
//! folds the rendered `EpochRecord::to_json_line` stream into one FNV-1a
//! digest. The digests were captured from the controller before its
//! single-socket and multi-socket epoch bodies were merged into one
//! per-domain epoch, so they pin that a 1-domain machine still runs the
//! exact algorithm the whole-machine controller ran (and that 2-domain
//! machines are unchanged), down to fault order and governor events.
//!
//! A deliberate change to controller behaviour must re-capture the
//! affected digest and name the change.

use cmm_core::driver::Driver;
use cmm_core::fault::{FaultConfig, FaultySubstrate};
use cmm_core::governor::GovernorConfig;
use cmm_core::learned::{Learner, RlPolicy};
use cmm_core::policy::{ControllerConfig, Mechanism};
use cmm_core::substrate::Substrate;
use cmm_core::telemetry::EpochRecord;
use cmm_sim::config::{SystemConfig, Topology};
use cmm_sim::workload::Workload;
use cmm_sim::System;
use cmm_workloads::spec;

/// One socket, four cores: two aggressors (a friendly stream and an
/// unfriendly random walker) next to an LLC chaser and a core-bound loop.
const MIX_1X4: [&str; 4] = ["bwaves3d", "rand_access", "mcf_refine", "povray_rt"];

/// Two sockets of four: socket 0 hosts `MIX_1X4`, socket 1 a second
/// aggressor pair with different traffic.
const MIX_2X4: [&str; 8] = [
    "bwaves3d",
    "rand_access",
    "mcf_refine",
    "povray_rt",
    "lbm_fluid",
    "rand_access2",
    "omnet_events",
    "gobmk_ai",
];

/// Cycles run uncontrolled before the driver starts (past the cold phase).
const WARMUP: u64 = 600_000;
/// Cycles the driver manages: five profiling epochs at the quick ratio.
const MANAGED: u64 = 1_000_000;

fn machine(names: &[&str], sockets: usize) -> System {
    let mut cfg = SystemConfig::scaled(names.len());
    if sockets > 1 {
        cfg.set_topology(Topology::grid(sockets, names.len() / sockets));
    }
    let llc = cfg.llc.size_bytes;
    let ws: Vec<Box<dyn Workload + Send>> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            Box::new(spec::by_name(n).unwrap().instantiate(llc, (i as u64 + 1) << 36, 11))
                as Box<dyn Workload + Send>
        })
        .collect();
    let mut sys = System::new(cfg, ws);
    sys.run(WARMUP);
    sys
}

fn one_socket() -> System {
    machine(&MIX_1X4, 1)
}

fn two_sockets() -> System {
    machine(&MIX_2X4, 2)
}

/// FNV-1a over the rendered journal lines, newline-separated.
fn digest(records: &[EpochRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        for b in r.to_json_line("golden").bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn run<S: Substrate>(mut drv: Driver<S>) -> Vec<EpochRecord> {
    drv.run_total(MANAGED);
    drv.take_records()
}

fn plain(sys: System, mech: Mechanism) -> Vec<EpochRecord> {
    run(Driver::new(sys, mech, ControllerConfig::quick()))
}

fn faulty(sys: System, mech: Mechanism, faults: FaultConfig) -> Vec<EpochRecord> {
    run(Driver::new(FaultySubstrate::new(sys, faults), mech, ControllerConfig::quick()))
}

/// The governed runs' fault schedule: transient MSR rejections (MBA
/// included) and PMU corruption at a rate high enough for retries to run
/// out, so every governor defense fires.
fn governed_faults() -> FaultConfig {
    FaultConfig { mba_reject_rate: 0.5, ..FaultConfig::uniform(1, 0.5) }
}

fn governed(sys: System, mech: Mechanism) -> Vec<EpochRecord> {
    let sys = FaultySubstrate::new(sys, governed_faults());
    run(Driver::new(sys, mech, ControllerConfig::quick()).with_governor(GovernorConfig::new(5)))
}

/// A single-class model: maximally confident, always "all engines on".
fn confident_model() -> Learner {
    Learner::Ml {
        model: cmm_learn::Model {
            labels: vec![0x0],
            weights: vec![vec![0.0; cmm_learn::N_FEATURES + 1]],
        },
        floor: 0.5,
    }
}

/// Two identical classes: every posterior is 0.5, below the 0.9 floor.
fn unsure_model() -> Learner {
    Learner::Ml {
        model: cmm_learn::Model {
            labels: vec![0x0, 0xF],
            weights: vec![vec![0.0; cmm_learn::N_FEATURES + 1]; 2],
        },
        floor: 0.9,
    }
}

fn learned(sys: System, mech: Mechanism, learner: Learner) -> Vec<EpochRecord> {
    run(Driver::new(sys, mech, ControllerConfig::quick()).with_learner(learner))
}

/// Every mechanism, in declaration order.
const MECHANISMS: [Mechanism; 13] = [
    Mechanism::Baseline,
    Mechanism::Pt,
    Mechanism::Dunn,
    Mechanism::PrefCp,
    Mechanism::PrefCp2,
    Mechanism::CmmA,
    Mechanism::CmmB,
    Mechanism::CmmC,
    Mechanism::PtFine,
    Mechanism::Mba,
    Mechanism::Cbp,
    Mechanism::MlSel,
    Mechanism::RlCbp,
];

/// Checks every `(label, records)` pair against its pinned digest and
/// reports all mismatches at once.
fn check(runs: Vec<(String, Vec<EpochRecord>)>, pinned: &[(&str, u64)]) {
    assert_eq!(runs.len(), pinned.len(), "one pinned digest per run");
    let mut bad = Vec::new();
    for ((label, recs), &(want_label, want)) in runs.iter().zip(pinned) {
        assert_eq!(label, want_label);
        assert!(!recs.is_empty(), "{label}: no epochs recorded");
        let got = digest(recs);
        if got != want {
            bad.push(format!("(\"{label}\", {got:#018x}),"));
        }
    }
    assert!(bad.is_empty(), "journal digests moved:\n{}", bad.join("\n"));
}

#[test]
fn one_socket_clean_runs_match_the_goldens() {
    let runs =
        MECHANISMS.iter().map(|&m| (m.label().to_string(), plain(one_socket(), m))).collect();
    check(runs, &ONE_SOCKET_CLEAN);
}

#[test]
fn one_socket_faulty_runs_match_the_goldens() {
    let faults = FaultConfig::uniform(17, 0.1);
    let runs = [Mechanism::CmmA, Mechanism::Cbp, Mechanism::Dunn]
        .iter()
        .map(|&m| (m.label().to_string(), faulty(one_socket(), m, faults.clone())))
        .collect();
    check(runs, &ONE_SOCKET_FAULTY);
}

#[test]
fn one_socket_governed_runs_match_the_goldens() {
    let mut runs = Vec::new();
    for m in [Mechanism::CmmA, Mechanism::Cbp] {
        let recs = governed(one_socket(), m);
        let events: Vec<&str> =
            recs.iter().flat_map(|r| r.governor.iter().map(|e| e.action)).collect();
        for want in ["rollback", "quarantine", "breaker_open"] {
            assert!(events.contains(&want), "{}: no {want} in {events:?}", m.label());
        }
        runs.push((m.label().to_string(), recs));
    }
    check(runs, &ONE_SOCKET_GOVERNED);
}

#[test]
fn one_socket_learned_runs_match_the_goldens() {
    let runs = vec![
        (
            "ML-Sel confident".to_string(),
            learned(one_socket(), Mechanism::MlSel, confident_model()),
        ),
        ("ML-Sel unsure".to_string(), learned(one_socket(), Mechanism::MlSel, unsure_model())),
        (
            "RL-CBP policy".to_string(),
            learned(one_socket(), Mechanism::RlCbp, Learner::Rl(RlPolicy::new(7, 0.3))),
        ),
    ];
    check(runs, &ONE_SOCKET_LEARNED);
}

#[test]
fn two_socket_clean_runs_match_the_goldens() {
    let runs = MECHANISMS
        .iter()
        .filter(|&&m| m != Mechanism::PtFine)
        .map(|&m| (m.label().to_string(), plain(two_sockets(), m)))
        .collect();
    check(runs, &TWO_SOCKET_CLEAN);
}

#[test]
fn two_socket_learned_runs_match_the_goldens() {
    let runs = vec![
        (
            "ML-Sel confident".to_string(),
            learned(two_sockets(), Mechanism::MlSel, confident_model()),
        ),
        (
            "RL-CBP policy".to_string(),
            learned(two_sockets(), Mechanism::RlCbp, Learner::Rl(RlPolicy::new(7, 0.3))),
        ),
    ];
    check(runs, &TWO_SOCKET_LEARNED);
}

const ONE_SOCKET_CLEAN: [(&str, u64); 13] = [
    ("Baseline", 0x2b15d2f6d424c3fc),
    ("PT", 0x6fc61f7f81d5eeee),
    ("Dunn", 0x1393077e9a39380c),
    ("Pref-CP", 0xf93a92bb16aa849d),
    ("Pref-CP2", 0xa1daf605d3148d5c),
    ("CMM-a", 0x42da06e1dd5d39be),
    ("CMM-b", 0x83cd35de18fad62f),
    ("CMM-c", 0x6f3dc5e8ea30e486),
    ("PT-fine", 0x92144704f517d602),
    ("MBA", 0x836b71a2e9195e28),
    ("CBP", 0xd74a28fe00c261aa),
    ("ML-Sel", 0xd253092c66ff713d),
    ("RL-CBP", 0x5101a48392e0bc5d),
];

const ONE_SOCKET_FAULTY: [(&str, u64); 3] =
    [("CMM-a", 0x7e8598861e75912e), ("CBP", 0x820e1de638fcf94a), ("Dunn", 0x480266abd50e677b)];

const ONE_SOCKET_GOVERNED: [(&str, u64); 2] =
    [("CMM-a", 0xd3f4c6d12c5756f1), ("CBP", 0x3114c6723488e397)];

const ONE_SOCKET_LEARNED: [(&str, u64); 3] = [
    ("ML-Sel confident", 0x642d03a64d5c6d22),
    ("ML-Sel unsure", 0xd253092c66ff713d),
    ("RL-CBP policy", 0x1ed140adcbc0a628),
];

const TWO_SOCKET_CLEAN: [(&str, u64); 12] = [
    ("Baseline", 0xc1adfc00ac32c046),
    ("PT", 0x8fe77de91aeb58d9),
    ("Dunn", 0xf158c39123d96a46),
    ("Pref-CP", 0x44861f022fb96b43),
    ("Pref-CP2", 0x649624f28233437f),
    ("CMM-a", 0xc1888871f85ffddb),
    ("CMM-b", 0xed5c040930c825a9),
    ("CMM-c", 0x2f76eb9f852c992a),
    ("MBA", 0x87509b581f1c5c97),
    ("CBP", 0xb4bf3627c4e662c5),
    ("ML-Sel", 0x78b49dd8d79ec6b9),
    ("RL-CBP", 0xc7ab2da669b37ba9),
];

const TWO_SOCKET_LEARNED: [(&str, u64); 2] =
    [("ML-Sel confident", 0x9d9116f9781f651e), ("RL-CBP policy", 0x1546688b7aa1a6c2)];
