//! Prefetch Throttling (PT) back-end — Sec. III-B1.
//!
//! Every epoch: detect the `Agg` set (all-on interval), probe friendliness
//! (all-off interval), then search the on/off space over the `Agg` cores —
//! exhaustively while `2^|Agg|` is small, else over k-means traffic groups
//! — one sampling interval per setting, ranked by `hm_ipc`. The winning
//! setting runs for the next execution epoch. PT never touches CAT.
//!
//! The epoch itself runs in [`crate::driver::Driver`], per CAT domain, on
//! the shared plumbing in [`super`]; this module holds PT-fine's search
//! space.

/// The three MSR 0x1A4 levels the PT-fine extension searches: all engines
/// on, only the two L2 engines (streamer + adjacent) off, and all off.
pub const FINE_LEVELS: [u64; 3] = [0x0, 0x3, 0xF];

/// PT-fine's exhaustive limit: `Agg` sets of up to this many cores get
/// one throttle group per core.
pub const FINE_EXHAUSTIVE_LIMIT: usize = 2;

/// PT-fine's group cap: larger `Agg` sets are k-means clustered into at
/// most this many groups, so the search stays within
/// `FINE_LEVELS.len() ^ FINE_GROUPS` = 9 sampling intervals per domain.
pub const FINE_GROUPS: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use crate::policy::{ControllerConfig, Mechanism};
    use crate::telemetry::EpochRecord;
    use cmm_sim::config::SystemConfig;
    use cmm_sim::workload::Workload;
    use cmm_sim::System;
    use cmm_workloads::spec;

    fn system_with(names: &[&str]) -> System {
        let cfg = SystemConfig::scaled(names.len());
        let llc = cfg.llc.size_bytes;
        let ws: Vec<Box<dyn Workload + Send>> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Box::new(spec::by_name(n).unwrap().instantiate(llc, (i as u64 + 1) << 36, 7))
                    as Box<dyn Workload + Send>
            })
            .collect();
        System::new(cfg, ws)
    }

    /// One `mech` profiling epoch after `warm` uncontrolled cycles: the
    /// epoch's record and the machine cycles it spent.
    fn one_epoch(names: &[&str], warm: u64, mech: Mechanism) -> (EpochRecord, u64, Driver) {
        let mut sys = system_with(names);
        sys.run(warm);
        let before = sys.now();
        let mut drv = Driver::new(sys, mech, ControllerConfig::quick());
        drv.epoch();
        let spent = drv.system().now() - before;
        (drv.take_records().pop().unwrap(), spent, drv)
    }

    #[test]
    fn detects_stream_as_aggressive_and_friendly() {
        // Warm past the cache-resident benchmarks' cold phase.
        let (rec, _, _) =
            one_epoch(&["bwaves3d", "povray_rt", "gobmk_ai", "namd_md"], 600_000, Mechanism::Pt);
        assert_eq!(rec.agg, vec![0], "only the stream is aggressive");
        assert_eq!(rec.friendly, vec![0], "the stream profits from prefetching");
        assert!(rec.unfriendly.is_empty());
        // The chosen config must keep the friendly stream's prefetchers on:
        // throttling it would tank hm_ipc.
        assert!(rec.applied[0].prefetching());
    }

    #[test]
    fn throttles_the_random_access_aggressor() {
        let names = ["rand_access", "mcf_refine", "povray_rt", "omnet_events"];
        let (rec, _, _) = one_epoch(&names, 600_000, Mechanism::Pt);
        assert!(rec.agg.contains(&0), "burst-random must be detected as aggressive: {rec:?}");
        assert!(rec.unfriendly.contains(&0), "burst-random prefetching is useless: {rec:?}");
    }

    #[test]
    fn no_aggressor_means_no_throttling() {
        // Long warm-up: the L2-resident benchmarks legitimately look like
        // streams during their cold first pass.
        let names = ["povray_rt", "gobmk_ai", "namd_md", "hmmer_search"];
        let (rec, spent, _) = one_epoch(&names, 600_000, Mechanism::Pt);
        assert!(rec.agg.is_empty());
        assert!(rec.applied.iter().all(|c| c.prefetching()));
        // Only the mandatory all-on interval was needed.
        assert_eq!(spent, ControllerConfig::quick().sampling_interval);
    }

    #[test]
    fn fine_throttling_can_pick_the_middle_level() {
        // A burst-random aggressor: its L2 engines flood, its L1 engines
        // are nearly free. PT-fine must at least not do worse than binary
        // PT's options, and the chosen MSR must be one of the three levels.
        let names = ["rand_access", "mcf_refine", "povray_rt", "omnet_events"];
        let (rec, _, drv) = one_epoch(&names, 600_000, Mechanism::PtFine);
        for core in 0..4 {
            let msr = drv.system().read_msr(core, cmm_sim::msr::MSR_MISC_FEATURE_CONTROL).unwrap();
            assert!(FINE_LEVELS.contains(&msr), "core {core} msr {msr:#x}");
        }
        assert_eq!(rec.applied.len(), 4);
    }

    #[test]
    fn profiling_cycles_accounted() {
        let names = ["bwaves3d", "rand_access", "povray_rt", "mcf_refine"];
        let (rec, spent, _) = one_epoch(&names, 100_000, Mechanism::Pt);
        // The epoch's machine time is exactly its sampling intervals: the
        // detection (a second interval once aggressors exist) plus one
        // interval per trial.
        let detection = if rec.agg.is_empty() { 1 } else { 2 };
        let intervals = detection + rec.trials.len() as u64;
        assert_eq!(spent, intervals * ControllerConfig::quick().sampling_interval);
    }
}
