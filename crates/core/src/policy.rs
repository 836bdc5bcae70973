//! Mechanism selection and controller tuning knobs.

/// The resource-management mechanisms evaluated in the paper
/// (Sec. V, Fig. 13 compares all seven against the uncontrolled baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// All prefetchers on, no partitioning, no control (the paper's
    /// baseline).
    Baseline,
    /// Prefetch throttling only (Sec. III-B1).
    Pt,
    /// Clustering cache partitioning of Selfa et al. PACT'17 — the
    /// best-known prior CP algorithm the paper compares against.
    Dunn,
    /// Whole `Agg` set into one small partition (Sec. III-B2 plan 1).
    PrefCp,
    /// Friendly / unfriendly `Agg` subsets into two partitions (plan 2).
    PrefCp2,
    /// Coordinated: `Agg` set partitioned + unfriendly throttled
    /// (Fig. 6 (a)).
    CmmA,
    /// Coordinated: only friendly cores partitioned, unfriendly throttled
    /// (Fig. 6 (b)).
    CmmB,
    /// Coordinated: friendly and unfriendly in separate partitions,
    /// unfriendly throttled (Fig. 6 (c)).
    CmmC,
    /// **Extension beyond the paper**: fine-grained prefetch throttling.
    /// The paper's mechanisms treat the four engines as one on/off entity
    /// (noting Intel lacks POWER7's depth knob), but MSR 0x1A4 does expose
    /// the engines individually; this mechanism searches
    /// {all-on, L2-prefetchers-off, all-off} per throttle group — a middle
    /// setting that keeps the cheap L1 engines while silencing the
    /// LLC/memory-flooding L2 streamer and adjacent-line engines.
    PtFine,
    /// **Extension beyond the paper**: memory-bandwidth partitioning only
    /// (Intel MBA-style per-core delay levels), the bandwidth-axis
    /// ablation. Detects the `Agg` set like CMM, then searches MBA delay
    /// levels for the aggressor throttle groups with prefetchers untouched
    /// and the cache unpartitioned.
    Mba,
    /// **Extension beyond the paper**: CBP-style three-resource
    /// coordination (after Nejat et al.). Runs the full CMM-a plan
    /// (prefetch throttle search + Agg partition), then layers an MBA
    /// delay-level search for the aggressor groups on top of the winning
    /// prefetch configuration — the hierarchical (prefetch × CAT × MBA)
    /// search. Degrades CBP → CMM-a when the bandwidth knob is
    /// unavailable.
    Cbp,
    /// **Extension beyond the paper**: learned phase selection. An
    /// offline-trained multinomial-logistic phase classifier (`cmm-learn`,
    /// `cmm-model/1` format) maps each core's PMU feature vector straight
    /// to a prefetcher configuration every epoch — zero profiling trials.
    /// Partitioning follows the CMM-a plan. Below the classifier's
    /// confidence floor (or with no model loaded) the epoch degrades to
    /// the full CMM-a search, journaled as `fallback_cmm_a`.
    MlSel,
    /// **Extension beyond the paper**: online reinforcement learning over
    /// the discretized (prefetch × CAT-plan × MBA-level × epoch-stretch)
    /// action space. A seeded epsilon-greedy contextual bandit replaces
    /// the exhaustive per-epoch search; reward is the epoch-over-epoch
    /// `hm_ipc` delta, and epoch-length stretching is a learned knob.
    RlCbp,
}

impl Mechanism {
    /// The seven managed mechanisms, in the paper's Fig. 13 order.
    pub const fn all_managed() -> [Mechanism; 7] {
        [
            Mechanism::Pt,
            Mechanism::Dunn,
            Mechanism::PrefCp,
            Mechanism::PrefCp2,
            Mechanism::CmmA,
            Mechanism::CmmB,
            Mechanism::CmmC,
        ]
    }

    /// Label used in reports and figures.
    pub fn label(&self) -> &'static str {
        match self {
            Mechanism::Baseline => "Baseline",
            Mechanism::Pt => "PT",
            Mechanism::Dunn => "Dunn",
            Mechanism::PrefCp => "Pref-CP",
            Mechanism::PrefCp2 => "Pref-CP2",
            Mechanism::CmmA => "CMM-a",
            Mechanism::CmmB => "CMM-b",
            Mechanism::CmmC => "CMM-c",
            Mechanism::PtFine => "PT-fine",
            Mechanism::Mba => "MBA",
            Mechanism::Cbp => "CBP",
            Mechanism::MlSel => "ML-Sel",
            Mechanism::RlCbp => "RL-CBP",
        }
    }

    /// Inverse of [`label`](Self::label) — used when decoding checkpointed
    /// results back into typed form.
    pub fn from_label(label: &str) -> Option<Mechanism> {
        let all = [
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
        all.into_iter().find(|m| m.label() == label)
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Controller tuning. Defaults follow the paper scaled by the simulator's
/// 1000× cycle compression (Sec. IV-B: 5 B-cycle execution epochs,
/// 100 M-cycle sampling intervals, a 50:1 ratio the paper found robust).
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// Length of one execution epoch in cycles.
    pub execution_epoch: u64,
    /// Length of one sampling interval in cycles.
    pub sampling_interval: u64,
    /// L2 PMR above this keeps a core in the `Agg` candidate set
    /// (paper: "a threshold (say 70%)").
    pub pmr_threshold: f64,
    /// Minimum L2 prefetch-miss traffic rate (misses/cycle) for a core to
    /// pressure the LLC enough to matter.
    pub ptr_threshold: f64,
    /// Absolute PGA floor for the aggressiveness candidate stage
    /// (see [`crate::frontend::DetectorConfig::pga_floor`]).
    pub pga_floor: f64,
    /// IPC speedup from prefetching above which a core is *prefetch
    /// friendly*. The paper's Sec. III-B1 suggests "say 50%", but its own
    /// Sec. IV-B classification uses 30%; sampled speedups under
    /// contention sit well below run-alone speedups, so the lower bound is
    /// the robust choice.
    pub friendly_speedup: f64,
    /// Exhaustive throttling search is used up to this `Agg`-set size;
    /// beyond it, k-means group-level throttling.
    pub exhaustive_limit: usize,
    /// Number of k-means throttle groups (paper: "say 3" ⇒ ≤8 settings).
    pub throttle_groups: usize,
    /// Partition sizing factor: ways = ceil(factor × cores-in-partition)
    /// (paper: experimentally determined 1.5).
    pub partition_scale: f64,
    /// Cluster count for the Dunn baseline (Selfa et al. use 4 groups).
    pub dunn_clusters: usize,
    /// Simulated controller cost charged per profiling invocation, for the
    /// overhead accounting the paper reports (<0.1 %).
    pub overhead_cycles: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            execution_epoch: 2_000_000,
            sampling_interval: 40_000,
            pmr_threshold: 0.55,
            ptr_threshold: 0.003,
            pga_floor: 1.1,
            friendly_speedup: 0.3,
            exhaustive_limit: 3,
            throttle_groups: 3,
            partition_scale: 1.5,
            dunn_clusters: 4,
            overhead_cycles: 1_500,
        }
    }
}

impl ControllerConfig {
    /// A fast configuration for unit tests.
    pub fn quick() -> Self {
        ControllerConfig {
            execution_epoch: 200_000,
            sampling_interval: 10_000,
            ..ControllerConfig::default()
        }
    }

    /// Panics on inconsistent settings.
    pub fn validate(&self) {
        assert!(self.execution_epoch > 0 && self.sampling_interval > 0);
        assert!(
            self.execution_epoch >= self.sampling_interval,
            "execution epoch must dominate the sampling interval"
        );
        assert!(self.throttle_groups >= 1 && self.throttle_groups <= 6);
        assert!(self.partition_scale > 0.0);
        assert!(self.dunn_clusters >= 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ratio_matches_paper() {
        let c = ControllerConfig::default();
        c.validate();
        assert_eq!(c.execution_epoch / c.sampling_interval, 50, "paper's 50:1 ratio");
    }

    #[test]
    fn seven_managed_mechanisms() {
        let all = Mechanism::all_managed();
        assert_eq!(all.len(), 7);
        assert!(!all.contains(&Mechanism::Baseline));
        // The bandwidth extensions stay out of the paper's Fig. 13 set so
        // every legacy target keeps its exact mechanism roster.
        assert!(!all.contains(&Mechanism::Mba));
        assert!(!all.contains(&Mechanism::Cbp));
        assert!(!all.contains(&Mechanism::MlSel));
        assert!(!all.contains(&Mechanism::RlCbp));
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Mechanism::PrefCp.label(), "Pref-CP");
        assert_eq!(Mechanism::CmmA.to_string(), "CMM-a");
    }

    #[test]
    fn from_label_inverts_label() {
        for m in Mechanism::all_managed() {
            assert_eq!(Mechanism::from_label(m.label()), Some(m));
        }
        assert_eq!(Mechanism::from_label("Baseline"), Some(Mechanism::Baseline));
        assert_eq!(Mechanism::from_label("PT-fine"), Some(Mechanism::PtFine));
        assert_eq!(Mechanism::from_label("MBA"), Some(Mechanism::Mba));
        assert_eq!(Mechanism::from_label("CBP"), Some(Mechanism::Cbp));
        assert_eq!(Mechanism::from_label("ML-Sel"), Some(Mechanism::MlSel));
        assert_eq!(Mechanism::from_label("RL-CBP"), Some(Mechanism::RlCbp));
        assert_eq!(Mechanism::from_label("bogus"), None);
    }

    #[test]
    #[should_panic(expected = "dominate")]
    fn bad_ratio_panics() {
        ControllerConfig {
            execution_epoch: 10,
            sampling_interval: 100,
            ..ControllerConfig::default()
        }
        .validate();
    }
}
