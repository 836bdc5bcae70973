//! The timing [`Substrate`] decorator of the traced run.
//!
//! [`Probe`] wraps any substrate and forwards every call unchanged, so a
//! driver over `Probe<System>` makes the same decisions as a driver over
//! `System`. On the way through it records the three calls that carry the
//! controller's traffic with the machine: `run` (simulated time, counted
//! and timed), `pmu_all` (PMU snapshots, counted) and `write_msr`
//! (prefetch, CAT and MBA programming, counted and timed). The benchmark
//! reads [`Probe::counters`] at span boundaries and attributes the
//! differences to the span.

use std::time::Instant;

use cmm_core::fault::FaultySubstrate;
use cmm_core::substrate::Substrate;
use cmm_sim::config::SystemConfig;
use cmm_sim::memory::CoreMemTraffic;
use cmm_sim::pmu::Pmu;
use cmm_sim::system::{CoreControl, MsrError};
use cmm_sim::System;

/// Running totals of the calls a [`Probe`] has forwarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `run` calls.
    pub run_calls: u64,
    /// Host nanoseconds inside `run`.
    pub run_ns: u64,
    /// Machine cycles `run` advanced (`now()` after minus before).
    pub run_cycles: u64,
    /// `pmu_all` calls.
    pub pmu_reads: u64,
    /// `write_msr` calls.
    pub msr_writes: u64,
    /// Host nanoseconds inside `write_msr`.
    pub msr_ns: u64,
    /// `write_msr` calls that returned `Err`.
    pub msr_failed: u64,
}

impl Counters {
    /// The calls made since `earlier` was read.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            run_calls: self.run_calls - earlier.run_calls,
            run_ns: self.run_ns - earlier.run_ns,
            run_cycles: self.run_cycles - earlier.run_cycles,
            pmu_reads: self.pmu_reads - earlier.pmu_reads,
            msr_writes: self.msr_writes - earlier.msr_writes,
            msr_ns: self.msr_ns - earlier.msr_ns,
            msr_failed: self.msr_failed - earlier.msr_failed,
        }
    }
}

/// Host nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A pass-through substrate that counts `run`, `pmu_all` and `write_msr`
/// calls and times `run` and `write_msr`.
#[derive(Debug)]
pub struct Probe<S> {
    inner: S,
    counters: Counters,
}

impl<S: Substrate> Probe<S> {
    /// Wraps `inner` with all counters at zero.
    pub fn new(inner: S) -> Self {
        Probe { inner, counters: Counters::default() }
    }

    /// Totals since construction.
    pub fn counters(&self) -> Counters {
        self.counters
    }
}

/// Access to the simulated machine under any decorator stack, for
/// statistics the controller surface does not expose.
pub trait Machine {
    /// The simulator at the bottom of the stack.
    fn machine(&self) -> &System;
}

impl Machine for System {
    fn machine(&self) -> &System {
        self
    }
}

impl Machine for FaultySubstrate<System> {
    fn machine(&self) -> &System {
        self.inner()
    }
}

impl<S: Machine> Machine for Probe<S> {
    fn machine(&self) -> &System {
        self.inner.machine()
    }
}

impl<S: Substrate> Substrate for Probe<S> {
    fn num_cores(&self) -> usize {
        self.inner.num_cores()
    }

    fn llc_ways(&self) -> u32 {
        self.inner.llc_ways()
    }

    fn config(&self) -> &SystemConfig {
        self.inner.config()
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn run(&mut self, cycles: u64) {
        let before = self.inner.now();
        let t0 = Instant::now();
        self.inner.run(cycles);
        self.counters.run_ns += ns_since(t0);
        self.counters.run_calls += 1;
        self.counters.run_cycles += self.inner.now() - before;
    }

    fn pmu_all(&mut self) -> Vec<Pmu> {
        self.counters.pmu_reads += 1;
        self.inner.pmu_all()
    }

    fn traffic(&self, core: usize) -> CoreMemTraffic {
        self.inner.traffic(core)
    }

    fn write_msr(&mut self, core: usize, msr: u32, value: u64) -> Result<(), MsrError> {
        let t0 = Instant::now();
        let res = self.inner.write_msr(core, msr, value);
        self.counters.msr_ns += ns_since(t0);
        self.counters.msr_writes += 1;
        if res.is_err() {
            self.counters.msr_failed += 1;
        }
        res
    }

    fn read_msr(&self, core: usize, msr: u32) -> Result<u64, MsrError> {
        self.inner.read_msr(core, msr)
    }

    fn reset_cat(&mut self) {
        self.inner.reset_cat()
    }

    // Forwarded explicitly: the trait default would widen a per-domain
    // reset into a whole-machine one and change the run.
    fn reset_cat_domain(&mut self, socket: usize) {
        self.inner.reset_cat_domain(socket)
    }

    fn control_state(&self) -> Vec<CoreControl> {
        self.inner.control_state()
    }
}
