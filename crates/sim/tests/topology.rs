//! Multi-socket topology invariants on a tiny 2x2 machine: the
//! cross-socket penalty of shared-controller layouts, per-socket CAT
//! isolation, snapshot/restore equality, and a 1xN-vs-Nx1 equivalence
//! property for non-interacting workloads. Golden digests on 2x4
//! machines pin concurrent per-socket stepping to the serial loop.

use cmm_sim::config::{SystemConfig, Topology};
use cmm_sim::msr::{IA32_L3_QOS_MASK_BASE, IA32_PQR_ASSOC};
use cmm_sim::workload::{Idle, Op, Workload};
use cmm_sim::System;
use proptest::prelude::*;

/// A dependent-chain pointer chase: one outstanding load at a time, each
/// to a fresh line far beyond any cache, so every access is a memory fill
/// of constant service time.
#[derive(Clone)]
struct Chase {
    line: u64,
    base: u64,
}

impl Workload for Chase {
    fn next(&mut self) -> Op {
        self.line = self.line.wrapping_add(97); // odd stride, defeats reuse
        Op::Load { addr: self.base + (self.line % (1 << 30)) * 64, pc: 0x400 }
    }
    fn mlp(&self) -> u32 {
        1
    }
    fn reset(&mut self) {
        self.line = 0;
    }
    fn name(&self) -> &str {
        "chase"
    }
    fn try_clone_box(&self) -> Option<Box<dyn Workload + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// A cache-resident sequential loop: `lines` contiguous lines at `base`,
/// touched round-robin. Small enough footprints never reach memory after
/// the first pass.
#[derive(Clone)]
struct Loop {
    base: u64,
    lines: u64,
    pos: u64,
    compute: u32,
    phase: bool,
}

impl Workload for Loop {
    fn next(&mut self) -> Op {
        if self.phase && self.compute > 0 {
            self.phase = false;
            return Op::Compute { cycles: self.compute };
        }
        self.phase = true;
        let a = self.base + self.pos * 64;
        self.pos = (self.pos + 1) % self.lines;
        Op::Load { addr: a, pc: 0x400 }
    }
    fn mlp(&self) -> u32 {
        2
    }
    fn reset(&mut self) {
        self.pos = 0;
    }
    fn name(&self) -> &str {
        "loop"
    }
    fn try_clone_box(&self) -> Option<Box<dyn Workload + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// 2 sockets × 1 core over one shared controller homed on socket 0, with
/// only core 1 (the *remote* socket) running a chase; `extra_latency` is
/// added to the memory controller's unloaded round trip. Returns the
/// remote core's whole-run PMU.
fn remote_chase_pmu(penalty: u64, extra_latency: u64, window: u64) -> cmm_sim::pmu::Pmu {
    let mut topo = Topology::grid(2, 1);
    topo.mem_per_socket = false;
    topo.cross_socket_penalty = penalty;
    let mut cfg = SystemConfig::tiny(2);
    cfg.set_topology(topo);
    cfg.memory.base_latency += extra_latency;
    let wl: Vec<Box<dyn Workload + Send>> =
        vec![Box::new(Idle), Box::new(Chase { line: 0, base: 1 << 36 })];
    let mut sys = System::new(cfg, wl);
    sys.run(window);
    sys.pmu(1)
}

#[test]
fn remote_access_penalty_applied_exactly_once_per_fill() {
    const WINDOW: u64 = 200_000;
    // A remote core paying penalty P is indistinguishable from one whose
    // memory is simply P cycles further away: the penalty lands on every
    // fill exactly once (demand and prefetch alike), never twice and
    // never on a subset. A double-applied penalty would match the +2P
    // machine instead.
    for p in [100u64, 250] {
        let penalized = remote_chase_pmu(p, 0, WINDOW);
        assert_eq!(penalized, remote_chase_pmu(0, p, WINDOW), "penalty {p} == +{p} latency");
        assert_ne!(penalized, remote_chase_pmu(0, 2 * p, WINDOW), "not applied twice");
    }
    // And with no penalty, the remote core matches the plain machine.
    assert_eq!(remote_chase_pmu(0, 0, WINDOW), remote_chase_pmu(0, 0, WINDOW));
    assert!(remote_chase_pmu(0, 0, WINDOW).instructions > 0, "the chase actually ran");
}

#[test]
fn clos_masks_are_isolated_per_socket() {
    let mut cfg = SystemConfig::tiny(4);
    cfg.set_topology(Topology::grid(2, 2));
    let mut sys = System::new(cfg, (0..4).map(|_| Box::new(Idle) as _).collect());
    // Program CLOS 1 differently on each socket, through a core of that
    // socket, then put one core per socket into CLOS 1.
    sys.write_msr(0, IA32_L3_QOS_MASK_BASE + 1, 0b0011).unwrap();
    sys.write_msr(2, IA32_L3_QOS_MASK_BASE + 1, 0b1100).unwrap();
    sys.write_msr(1, IA32_PQR_ASSOC, 1).unwrap();
    sys.write_msr(3, IA32_PQR_ASSOC, 1).unwrap();
    assert_eq!(sys.effective_mask(1), 0b0011, "socket 0's CLOS 1");
    assert_eq!(sys.effective_mask(3), 0b1100, "socket 1's CLOS 1");
    // Cores left in CLOS 0 keep the full default mask on both sockets.
    assert_eq!(sys.effective_mask(0), 0b1111);
    assert_eq!(sys.effective_mask(2), 0b1111);
    // Resetting one CAT domain must not disturb the other socket.
    sys.reset_cat_domain(0);
    assert_eq!(sys.effective_mask(1), 0b1111, "socket 0 back to default");
    assert_eq!(sys.effective_mask(3), 0b1100, "socket 1 untouched");
}

#[test]
fn snapshot_restore_is_exact_on_a_2x2_machine() {
    let mut cfg = SystemConfig::tiny(4);
    let mut topo = Topology::grid(2, 2);
    topo.mem_per_socket = false;
    topo.cross_socket_penalty = 50;
    cfg.set_topology(topo);
    let build = |i: usize| -> Box<dyn Workload + Send> {
        Box::new(Chase { line: i as u64 * 13, base: (i as u64 + 1) << 36 })
    };
    let mut sys = System::new(cfg, (0..4).map(build).collect());
    sys.write_msr(3, IA32_L3_QOS_MASK_BASE + 1, 0b0011).unwrap();
    sys.write_msr(3, IA32_PQR_ASSOC, 1).unwrap();
    sys.run(20_000);
    let snap = sys.snapshot().expect("chase workloads are cloneable");
    sys.run(20_000);
    let mut twin = snap.restore();
    twin.run(20_000);
    assert_eq!(sys.now(), twin.now());
    assert_eq!(sys.pmu_all(), twin.pmu_all(), "restored run must replay exactly");
    for core in 0..4 {
        assert_eq!(sys.effective_mask(core), twin.effective_mask(core));
    }
}

/// Machines where cores cannot interact must make the socket grouping
/// unobservable: N cache-resident loops with disjoint, set-disjoint
/// footprints behave identically on one N-core socket and on N one-core
/// sockets sharing a penalty-free controller.
fn pmu_after(
    sockets: usize,
    cores_per_socket: usize,
    seeds: &[u64],
    window: u64,
) -> Vec<cmm_sim::pmu::Pmu> {
    let n = sockets * cores_per_socket;
    let mut topo = Topology::grid(sockets, cores_per_socket);
    topo.mem_per_socket = false;
    topo.cross_socket_penalty = 0;
    let mut cfg = SystemConfig::tiny(n);
    cfg.set_topology(topo);
    // tiny() LLC: 32 KiB, 4-way, 64 B lines -> 128 sets. Each core loops
    // over 16 lines in its own quarter of the set index space (and its own
    // 64 GiB window), so the shared-LLC and private-LLC layouts see the
    // same hits and misses.
    let wl: Vec<Box<dyn Workload + Send>> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            Box::new(Loop {
                base: ((i as u64 + 1) << 36) + (i as u64 % 4) * 32 * 64,
                lines: 8 + seed % 8,
                pos: 0,
                compute: (seed % 5) as u32,
                phase: false,
            }) as _
        })
        .collect();
    let mut sys = System::new(cfg, wl);
    for c in 0..n {
        sys.set_prefetching(c, false);
    }
    sys.run(window);
    sys.pmu_all()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn flat_and_sharded_topologies_agree_without_interaction(
        n in 2usize..=4,
        seeds in proptest::collection::vec(0u64..1000, 4),
        window in 5_000u64..20_000,
    ) {
        let flat = pmu_after(1, n, &seeds[..n], window);
        let sharded = pmu_after(n, 1, &seeds[..n], window);
        prop_assert_eq!(flat, sharded);
    }
}

/// A store-heavy sequential walk over `lines` lines at `base`: every
/// fourth access is a store, so LLC victims carry dirty private copies
/// back through the memory controller.
#[derive(Clone)]
struct Stream {
    base: u64,
    lines: u64,
    pos: u64,
}

impl Workload for Stream {
    fn next(&mut self) -> Op {
        let addr = self.base + (self.pos % self.lines) * 64;
        self.pos += 1;
        if self.pos.is_multiple_of(4) {
            Op::Store { addr, pc: 0x500 }
        } else {
            Op::Load { addr, pc: 0x400 }
        }
    }
    fn mlp(&self) -> u32 {
        4
    }
    fn reset(&mut self) {
        self.pos = 0;
    }
    fn name(&self) -> &str {
        "stream"
    }
    fn try_clone_box(&self) -> Option<Box<dyn Workload + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// Byte address of core `i`'s private window in the golden machine.
fn window_of(i: usize) -> u64 {
    (i as u64 + 1) << 32
}

/// A 2x4 machine of mixed streams, chases and LLC-sized loops, with one
/// core per socket squeezed into a one-way CLOS (so QBS often finds every
/// usable way protected) and one core per socket with prefetching off.
fn golden_machine(topology: &str) -> System {
    let topo: Topology = topology.parse().expect("valid topology");
    let mut cfg = SystemConfig::tiny(topo.total_cores());
    cfg.set_topology(topo);
    let wl: Vec<Box<dyn Workload + Send>> = (0..8)
        .map(|i| -> Box<dyn Workload + Send> {
            let base = window_of(i);
            match i % 4 {
                0 => Box::new(Stream { base, lines: 4096, pos: 0 }),
                1 => Box::new(Chase { line: i as u64 * 31, base }),
                2 => Box::new(Loop { base, lines: 300, pos: 0, compute: 3, phase: false }),
                _ => Box::new(Stream { base, lines: 700, pos: 0 }),
            }
        })
        .collect();
    let mut sys = System::new(cfg, wl);
    for socket in 0..2 {
        let core = socket * 4;
        sys.write_msr(core, IA32_L3_QOS_MASK_BASE + 1, 0b0100).unwrap();
        sys.write_msr(core + 2, IA32_PQR_ASSOC, 1).unwrap();
        sys.set_prefetching(core + 1, false);
    }
    sys
}

/// FNV-1a over every core's PMU image and memory traffic, the machine
/// clock, and the presence holder masks of lines sampled from every
/// core's window on its own socket.
fn machine_digest(sys: &System) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(sys.now());
    for (core, p) in sys.pmu_all().iter().enumerate() {
        for v in [
            p.cycles,
            p.instructions,
            p.stall_cycles,
            p.stalls_l2_pending,
            p.l1d_accesses,
            p.l1d_misses,
            p.l2_dm_req,
            p.l2_dm_miss,
            p.l2_pf_req,
            p.l2_pf_miss,
            p.l3_load_miss,
            p.l1_pf_req,
            p.llc_pf_to_mem,
            p.pf_used,
            p.pf_wasted,
            p.mem_demand_bytes,
            p.mem_prefetch_bytes,
            p.mem_writeback_bytes,
        ] {
            mix(v);
        }
        let t = sys.traffic(core);
        mix(t.demand_bytes);
        mix(t.prefetch_bytes);
        mix(t.writeback_bytes);
        let first_line = window_of(core) / 64;
        for k in 0..1024u64 {
            mix(sys.presence_holders_in(core / 4, first_line + k * 3));
        }
    }
    h
}

/// Uneven `run` lengths: single cycles, partial quanta (the tiny
/// quantum is 200), exact quanta and long spans.
const GOLDEN_RUNS: [u64; 8] = [1, 199, 200, 3_333, 20_000, 7, 41_000, 12_345];

/// Runs the golden schedule, snapshotting after the fourth call, and
/// returns the digest after every call plus the digests of a twin
/// restored from the snapshot that replays the remaining calls.
fn golden_digests(topology: &str) -> (Vec<u64>, Vec<u64>) {
    let mut sys = golden_machine(topology);
    let mut snap = None;
    let mut digests = Vec::new();
    for (k, &cycles) in GOLDEN_RUNS.iter().enumerate() {
        sys.run(cycles);
        digests.push(machine_digest(&sys));
        if k == 3 {
            snap = Some(sys.snapshot().expect("golden workloads are cloneable"));
        }
    }
    let mut twin = snap.unwrap().restore();
    let replay = GOLDEN_RUNS[4..]
        .iter()
        .map(|&cycles| {
            twin.run(cycles);
            machine_digest(&twin)
        })
        .collect();
    (digests, replay)
}

/// Golden digests of the 2x4 machines after each call of
/// [`GOLDEN_RUNS`], captured from the serial socket loop. They pin the
/// concurrent per-socket stepping (`2x4`) and the serial shared-controller
/// path (`2x4@shared`) to it. A failure is a semantics change, not a
/// fixture to refresh.
const GOLDEN_2X4: [u64; 8] = [
    0xd714_ba91_95f1_bd66,
    0x83e7_779a_0488_b105,
    0x0f62_cfb1_1955_76fa,
    0xe3fe_1388_fa45_0e99,
    0x1b43_f2d8_e260_b951,
    0xf26e_f5b7_6362_a02d,
    0x2199_38fc_ae15_8c4b,
    0x256e_d49b_0fe4_2314,
];
const GOLDEN_2X4_SHARED: [u64; 8] = [
    0xd714_ba91_95f1_bd66,
    0xde50_4139_bda4_4b7f,
    0xfcbe_28fd_7dd0_41d9,
    0x42ac_f982_55d7_c9c6,
    0xa438_95e7_c279_b35c,
    0x4635_d040_4879_c149,
    0x42b0_1be0_873b_2774,
    0xbe03_2176_ddd3_d9cf,
];

#[test]
fn two_socket_runs_match_the_serial_golden_digests() {
    for (topology, golden) in [("2x4", GOLDEN_2X4), ("2x4@shared", GOLDEN_2X4_SHARED)] {
        let (digests, replay) = golden_digests(topology);
        assert_eq!(digests, golden, "{topology}: digests drifted");
        assert_eq!(replay, golden[4..], "{topology}: restored twin diverged");
    }
}
