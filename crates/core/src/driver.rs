//! The epoch/sampling scheduler (Fig. 4) — the analogue of the paper's
//! loadable kernel module.
//!
//! Execution is a sequence of *execution epochs*, each preceded by a
//! *profiling epoch* of short sampling intervals in which the front-end
//! detects the `Agg` set and the back-end trials candidate configurations.
//! The winning configuration is applied for the following execution epoch.
//!
//! The controller is per CAT domain (socket): every machine runs one
//! controller instance per domain, and a one-socket machine is simply one
//! domain. The detection intervals are shared by all domains; each domain
//! then plans, searches and applies against its own cores and CAT state.
//!
//! The controller's own work is charged as
//! [`ControllerConfig::overhead_cycles`] per invocation and reported by
//! [`Driver::overhead_ratio`] — the analogue of the paper's PMU-vs-TSC
//! overhead measurement (<0.1 %).
//!
//! The driver is generic over the [`Substrate`] it manages and **degrades
//! gracefully** when the substrate misbehaves: transiently rejected MSR
//! writes are retried (see [`backend::write_msr_logged`]), a CAT plan that
//! cannot be programmed makes the domain retreat CMM → Dunn → no-op
//! (always via the infallible [`Substrate::reset_cat_domain`] safe state
//! first), and every observed fault plus the chosen degradation lands in
//! the epoch's [`EpochRecord::faults`] / [`EpochRecord::degraded`]
//! telemetry.

use crate::backend::{self, cbp, cmm, cp, dunn, pt, Detection, PartitionPlan};
use crate::frontend::DetectorConfig;
use crate::governor::{self, Governor, GovernorConfig, RegClass};
use crate::learned::{self, Learner};
use crate::policy::{ControllerConfig, Mechanism};
use crate::substrate::Substrate;
use crate::telemetry::{CoreSample, EpochRecord, FaultRecord, GovernorEvent, Trial};
use cmm_sim::msr;
use cmm_sim::pmu::{Pmu, PmuDelta};
use cmm_sim::System;

/// The register images of an RL-CBP action held in force across stretched
/// execution epochs (the learned epoch-length knob), per CAT domain.
struct RlHold {
    /// Execution epochs the action still has to run before re-planning.
    skip: u64,
    /// Domain-local MSR 0x1A4 image to re-assert after a shared detection
    /// interval turned every prefetcher back on.
    pf_image: Vec<u64>,
    /// Domain-local MBA levels to re-assert.
    mba_image: Vec<u64>,
    /// The held action's journal label.
    label: String,
}

/// One CAT domain (socket): its index and its range of global core ids.
#[derive(Clone, Copy)]
struct Domain {
    d: usize,
    base: usize,
    len: usize,
}

impl Domain {
    fn cores(self) -> std::ops::Range<usize> {
        self.base..self.base + self.len
    }

    /// `faults` as the domain's governor sees them: core ids rebased to
    /// the domain, cores outside it dropped.
    fn local(self, faults: &[FaultRecord]) -> Vec<FaultRecord> {
        faults
            .iter()
            .map(|f| FaultRecord {
                core: f.core.and_then(|c| c.checked_sub(self.base)).filter(|&c| c < self.len),
                ..f.clone()
            })
            .collect()
    }
}

/// One domain's decision data, folded into its record at the end of the
/// epoch.
#[derive(Default)]
struct DomainDecision {
    cores: Vec<CoreSample>,
    agg: Vec<usize>,
    friendly: Vec<usize>,
    unfriendly: Vec<usize>,
    trials: Vec<Trial>,
    winner: Option<usize>,
    degraded: Option<&'static str>,
    features: Vec<f64>,
    action: Option<String>,
}

impl DomainDecision {
    /// Records a degradation decision in the domain's fault log and as
    /// [`EpochRecord::degraded`].
    fn degrade(&mut self, dlog: &mut Vec<FaultRecord>, cycle: u64, action: &'static str) {
        dlog.push(FaultRecord { cycle, kind: "degraded", core: None, msr: None, action });
        self.degraded = Some(match action {
            "fallback_cmm_a" => "CMM-a",
            "fallback_dunn" => "Dunn",
            "fallback_throttle" => "throttle-only",
            _ => "no-op",
        });
    }
}

/// Which register classes a domain's governor lets this epoch touch (all
/// of them when ungoverned).
#[derive(Clone, Copy)]
struct Gates {
    pf: bool,
    cat: bool,
    mba: bool,
}

/// Drives one [`Substrate`] under one [`Mechanism`].
pub struct Driver<S: Substrate = System> {
    sys: S,
    mechanism: Mechanism,
    ctrl: ControllerConfig,
    det_cfg: DetectorConfig,
    epochs: u64,
    overhead_cycles: u64,
    /// Agg-set size observed at each profiling epoch, summed over domains
    /// (diagnostics).
    agg_history: Vec<usize>,
    /// Full per-epoch decision telemetry (see [`crate::telemetry`]).
    records: Vec<EpochRecord>,
    /// `(cycle, pmus)` at the end of the previous `epoch()` call — the
    /// baseline the next epoch measures its execution-epoch IPC against.
    exec_anchor: Option<(u64, Vec<Pmu>)>,
    /// Each domain's last measured `exec_hm_ipc`, for the delta.
    prev_exec_hm_dom: Vec<Option<f64>>,
    /// One safety governor per CAT domain, when attached
    /// ([`Driver::with_governor`]). Empty leaves every epoch byte-identical
    /// to the ungoverned driver.
    governors: Vec<Governor>,
    /// The learned controller, when attached ([`Driver::with_learner`]).
    /// Without one, ML-Sel and RL-CBP degrade every epoch to the CMM-a
    /// search.
    learner: Option<Learner>,
    /// Per-domain stretched-action state for RL-CBP.
    rl_hold: Vec<Option<RlHold>>,
}

impl<S: Substrate> Driver<S> {
    /// Wraps a machine. The detector thresholds are taken from `ctrl`.
    pub fn new(sys: S, mechanism: Mechanism, ctrl: ControllerConfig) -> Self {
        ctrl.validate();
        let det_cfg = DetectorConfig {
            pmr_threshold: ctrl.pmr_threshold,
            ptr_threshold: ctrl.ptr_threshold,
            pga_floor: ctrl.pga_floor,
        };
        let domains = sys.config().topology.sockets;
        Driver {
            sys,
            mechanism,
            ctrl,
            det_cfg,
            epochs: 0,
            overhead_cycles: 0,
            agg_history: Vec::new(),
            records: Vec::new(),
            exec_anchor: None,
            prev_exec_hm_dom: vec![None; domains],
            governors: Vec::new(),
            learner: None,
            rl_hold: (0..domains).map(|_| None).collect(),
        }
    }

    /// Attaches one safety governor per CAT domain (see
    /// [`crate::governor`]), each over its domain's cores in domain-local
    /// ids: every subsequent epoch verifies each domain's applied plan
    /// against its last-known-good hm_ipc (rolling back on regression
    /// under faults), drops quarantined cores from classification, and
    /// consults the domain's circuit breakers before touching a register
    /// class. At fault rate zero none of the defenses ever fire and the
    /// run stays byte-identical to an ungoverned one.
    pub fn with_governor(mut self, cfg: GovernorConfig) -> Self {
        let topo = self.sys.config().topology;
        self.governors =
            (0..topo.sockets).map(|_| Governor::new(cfg.clone(), topo.cores_per_socket)).collect();
        self
    }

    /// The attached governors, one per CAT domain; empty when ungoverned.
    pub fn governors(&self) -> &[Governor] {
        &self.governors
    }

    /// Attaches a learned controller (see [`crate::learned`]): ML-Sel
    /// consults it as its phase classifier, RL-CBP as its bandit policy.
    /// Without a learner both mechanisms degrade every epoch to the CMM-a
    /// search, journaled as `fallback_cmm_a`.
    pub fn with_learner(mut self, learner: Learner) -> Self {
        self.learner = Some(learner);
        self
    }

    /// The attached learner, if any (tests and run summaries).
    pub fn learner(&self) -> Option<&Learner> {
        self.learner.as_ref()
    }

    /// The managed machine.
    pub fn system(&self) -> &S {
        &self.sys
    }

    /// Mutable access (tests and harnesses).
    pub fn system_mut(&mut self) -> &mut S {
        &mut self.sys
    }

    /// Consumes the driver, returning the machine.
    pub fn into_system(self) -> S {
        self.sys
    }

    /// Profiling epochs completed.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// `Agg`-set sizes per epoch, summed over domains (epochs that
    /// profiled nothing, e.g. the baseline's, add no entry).
    pub fn agg_history(&self) -> &[usize] {
        &self.agg_history
    }

    /// Per-epoch decision telemetry recorded so far, in epoch order.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Drains the recorded telemetry (harnesses call this once per run to
    /// move the records into the run journal).
    pub fn take_records(&mut self) -> Vec<EpochRecord> {
        std::mem::take(&mut self.records)
    }

    /// Fraction of machine time spent in the controller itself.
    pub fn overhead_ratio(&self) -> f64 {
        if self.sys.now() == 0 {
            0.0
        } else {
            self.overhead_cycles as f64 / self.sys.now() as f64
        }
    }

    /// Runs until the machine clock reaches (at least) `total_cycles`,
    /// alternating profiling and execution epochs.
    pub fn run_total(&mut self, total_cycles: u64) {
        let target = self.sys.now() + total_cycles;
        while self.sys.now() < target {
            self.epoch();
            let remaining = target.saturating_sub(self.sys.now());
            let exec = remaining.min(self.ctrl.execution_epoch);
            if exec > 0 {
                self.sys.run(exec);
            }
        }
    }

    /// Runs exactly one profiling epoch (decision + application), without
    /// the following execution epoch. Exposed for tests and examples.
    ///
    /// One controller instance per CAT domain runs "concurrently": the
    /// detection intervals are shared across domains (two machine-wide
    /// samples total, see [`backend::detect_domains_logged`]), then each
    /// domain makes and applies its own decision against its socket's CAT
    /// state and cores. Throttle-search trial intervals run per domain in
    /// sequence (each trial must measure its own domain undisturbed),
    /// which is also how independent per-socket daemons would interleave
    /// in wall-clock time.
    ///
    /// Appends one [`EpochRecord`] per domain, all stamped with this
    /// epoch's index and start cycle; only multi-domain records carry a
    /// `domain`. Faults are attributed to the domain whose controller
    /// section observed them; machine-wide faults with a core id are
    /// routed to that core's domain, core-less ones to domain 0, so each
    /// domain's list stays chronological.
    ///
    /// Never panics on substrate faults: unrecoverable CAT failures make
    /// the domain retreat CMM → Dunn → no-op (flat CAT via
    /// `reset_cat_domain`), recording the chosen degradation.
    pub fn epoch(&mut self) {
        self.epochs += 1;
        let epoch_start = self.sys.now();
        let topo = self.sys.config().topology;
        let (domains, len) = (topo.sockets, topo.cores_per_socket);
        let doms: Vec<Domain> = (0..domains).map(|d| Domain { d, base: d * len, len }).collect();
        let mut log: Vec<FaultRecord> = Vec::new();
        let mut dom_logs: Vec<Vec<FaultRecord>> = vec![Vec::new(); domains];
        // How did the execution epoch each domain just finished perform?
        let exec_hms: Vec<Option<f64>> = match self.exec_anchor.take() {
            Some((anchor_cycle, anchor)) if self.sys.now() > anchor_cycle => {
                let current = backend::pmu_read_stable(&mut self.sys, &mut log);
                let deltas: Vec<PmuDelta> =
                    current.iter().zip(anchor).map(|(&c, a)| c - a).collect();
                doms.iter().map(|dom| Some(backend::sample_hm_ipc(&deltas[dom.cores()]))).collect()
            }
            _ => vec![None; domains],
        };
        route_faults(&mut log, &mut dom_logs, len);
        let exec_deltas: Vec<Option<f64>> = exec_hms
            .iter()
            .zip(&self.prev_exec_hm_dom)
            .map(|(&cur, &prev)| Some(cur? - prev?))
            .collect();
        for (prev, cur) in self.prev_exec_hm_dom.iter_mut().zip(&exec_hms) {
            if cur.is_some() {
                *prev = *cur;
            }
        }
        // Governor defense 1 (apply-then-verify): the execution epoch that
        // just ran is the verification window of each domain's previously
        // applied plan. A regression past the bound — only ever while
        // substrate faults are active — restores the domain's pre-plan
        // snapshot and skips its profiling, letting the last-known-good
        // state run one more execution epoch instead of re-planning from
        // fault-tainted telemetry.
        let mut rolled_back = vec![false; domains];
        for (dom, g) in doms.iter().zip(self.governors.iter_mut()) {
            g.begin_epoch(epoch_start);
            match exec_hms[dom.d] {
                Some(hm) if g.should_roll_back(hm) => {
                    if let Some(snap) = g.snapshot() {
                        governor::restore(&mut self.sys, dom.base, snap);
                    }
                    g.log_rollback(epoch_start);
                    dom_logs[dom.d].push(FaultRecord {
                        cycle: epoch_start,
                        kind: "degraded",
                        core: None,
                        msr: None,
                        action: "kept_last_good",
                    });
                    rolled_back[dom.d] = true;
                }
                hm => {
                    if let Some(hm) = hm {
                        g.accept(hm);
                    }
                    g.note_snapshot(self.sys.control_state()[dom.cores()].to_vec());
                }
            }
        }
        if self.mechanism != Mechanism::Baseline {
            // One controller instance per domain does its own bookkeeping.
            self.overhead_cycles += self.ctrl.overhead_cycles * domains as u64;
        }
        if let (Mechanism::RlCbp, Some(Learner::Rl(rl))) = (self.mechanism, self.learner.as_mut()) {
            // Credit each domain's action in force with its execution
            // epoch's hm_ipc delta before picking the next one.
            for (d, delta) in exec_deltas.iter().enumerate() {
                if let (Some(delta), false) = (delta, rolled_back[d]) {
                    rl.bandit_mut(d).observe(*delta);
                }
            }
        }
        // A held domain keeps last epoch's state instead of re-planning: a
        // rolled-back one its restored snapshot, an RL-CBP one its
        // stretched action.
        let held: Vec<bool> = doms
            .iter()
            .map(|dom| {
                rolled_back[dom.d] || self.rl_hold[dom.d].as_ref().is_some_and(|h| h.skip > 0)
            })
            .collect();
        let mut outs: Vec<DomainDecision> =
            doms.iter().map(|_| DomainDecision::default()).collect();
        if held.iter().all(|&h| h) {
            // Nothing to re-plan: no profiling at all this epoch.
            for dom in &doms {
                self.hold(*dom, rolled_back[dom.d], false, &mut dom_logs[dom.d], &mut outs[dom.d]);
            }
        } else {
            let (dets, det_starts) = self.observe(&doms, &held, &mut log, &mut dom_logs);
            let mut agg_total = 0;
            for (dom, det) in doms.iter().copied().zip(dets) {
                let (dlog, out) = (&mut dom_logs[dom.d], &mut outs[dom.d]);
                if held[dom.d] {
                    agg_total += det.agg.len();
                    self.hold(dom, rolled_back[dom.d], true, dlog, out);
                } else {
                    *out = self.plan(dom, det, dlog, det_starts[dom.d]);
                    agg_total += out.agg.len();
                }
            }
            if self.mechanism != Mechanism::Baseline {
                self.agg_history.push(agg_total);
            }
        }
        // Anchor for the next epoch's execution-IPC measurement.
        let anchor = backend::pmu_read_stable(&mut self.sys, &mut log);
        self.exec_anchor = Some((self.sys.now(), anchor));
        route_faults(&mut log, &mut dom_logs, len);
        let now = self.sys.now();
        let applied = self.sys.control_state();
        for ((dom, out), faults) in doms.into_iter().zip(outs).zip(dom_logs) {
            let governor = self.govern_faults(dom, &faults, now);
            self.records.push(EpochRecord {
                epoch: self.epochs,
                cycle: epoch_start,
                mechanism: self.mechanism.label(),
                domain: (domains > 1).then_some(dom.d),
                cores: out.cores,
                agg: out.agg,
                friendly: out.friendly,
                unfriendly: out.unfriendly,
                trials: out.trials,
                winner: out.winner,
                exec_hm_ipc: exec_hms[dom.d],
                exec_ipc_delta: exec_deltas[dom.d],
                faults,
                degraded: out.degraded,
                governor,
                features: out.features,
                action: out.action,
                applied: applied[dom.cores()].to_vec(),
            });
        }
    }

    /// The shared prologue of every re-planning epoch: puts the
    /// re-planning domains in their observation state (held domains keep
    /// their partitions) and runs the machine-wide observation intervals.
    /// Returns one domain-local [`Detection`] per domain, plus where each
    /// domain's detection faults start in its log once routed there.
    fn observe(
        &mut self,
        doms: &[Domain],
        held: &[bool],
        log: &mut Vec<FaultRecord>,
        dom_logs: &mut [Vec<FaultRecord>],
    ) -> (Vec<Detection>, Vec<usize>) {
        let n = self.sys.num_cores();
        let ways = self.sys.llc_ways();
        let len = doms[0].len;
        if matches!(self.mechanism, Mechanism::Baseline | Mechanism::Dunn) {
            // Both observe the uncontrolled machine: prefetchers on.
            backend::apply_prefetch_logged(&mut self.sys, &vec![true; n], log);
            route_faults(log, dom_logs, len);
        }
        match self.mechanism {
            // No control: flat CAT, enforced once so a baseline run after a
            // managed run is truly uncontrolled.
            Mechanism::Baseline => self.sys.reset_cat(),
            // PT never touches CAT.
            Mechanism::Pt | Mechanism::PtFine => {}
            // Every partitioning mechanism re-plans from the flat cache.
            _ => {
                for dom in doms.iter().filter(|dom| !held[dom.d]) {
                    let flat = PartitionPlan::flat(len, ways).offset(dom.base);
                    if flat.apply_at(&mut self.sys, dom.base, &mut dom_logs[dom.d]).is_err() {
                        self.sys.reset_cat_domain(dom.d);
                    }
                }
            }
        }
        let dets: Vec<Detection> = match self.mechanism {
            Mechanism::Baseline => doms.iter().map(|_| unclassified(Vec::new())).collect(),
            // Dunn observes one all-on interval and clusters stalls.
            Mechanism::Dunn => {
                let d1 = backend::sample_logged(&mut self.sys, self.ctrl.sampling_interval, log);
                doms.iter().map(|dom| unclassified(d1[dom.cores()].to_vec())).collect()
            }
            _ => backend::detect_domains_logged(
                &mut self.sys,
                &self.ctrl,
                &self.det_cfg,
                log,
                doms.len(),
            ),
        };
        let det_starts = dom_logs.iter().map(Vec::len).collect();
        route_faults(log, dom_logs, len);
        (dets, det_starts)
    }

    /// Keeps a held domain's state in force for one more execution epoch:
    /// a rolled-back domain its restored snapshot, an RL-CBP domain its
    /// stretched action. With `reassert`, a shared detection interval just
    /// turned every prefetcher back on, so the held registers are written
    /// again.
    fn hold(
        &mut self,
        dom: Domain,
        rolled_back: bool,
        reassert: bool,
        dlog: &mut Vec<FaultRecord>,
        out: &mut DomainDecision,
    ) {
        if rolled_back {
            if let (true, Some(snap)) = (reassert, self.governors[dom.d].snapshot()) {
                governor::restore(&mut self.sys, dom.base, snap);
            }
            return;
        }
        let Some(mut h) = self.rl_hold[dom.d].take() else { return };
        if reassert {
            let gates = self.gates(dom.d);
            if gates.pf {
                self.write_image(dom, msr::MSR_MISC_FEATURE_CONTROL, &h.pf_image, dlog);
            }
            if gates.mba
                && h.mba_image.iter().any(|&l| l != 0)
                && cbp::mba_available(&mut self.sys, dom.base, dlog)
            {
                self.write_image(dom, msr::MSR_MBA_THROTTLE, &h.mba_image, dlog);
            }
        }
        h.skip -= 1;
        out.action = Some(format!("hold:{}", h.label));
        self.rl_hold[dom.d] = Some(h);
    }

    /// Domain `dom`'s decision from its (domain-local) detection: the
    /// mechanism's allocator, applied to the domain's cores and CAT state.
    /// `det_start` indexes the detection's first fault record in `dlog`.
    fn plan(
        &mut self,
        dom: Domain,
        mut det: Detection,
        dlog: &mut Vec<FaultRecord>,
        det_start: usize,
    ) -> DomainDecision {
        let mut out = DomainDecision::default();
        let ways = self.sys.llc_ways();
        let min_pc = backend::min_ways_per_core(self.sys.config());
        let scale = self.ctrl.partition_scale;
        match self.mechanism {
            Mechanism::Baseline => {}
            Mechanism::Pt => {
                // PT throttles the whole Agg set (friendly included).
                let groups = self.groups(dom, &det.agg, &det.interval1);
                let s = backend::search_throttle_in(
                    &mut self.sys,
                    &groups,
                    self.ctrl.sampling_interval,
                    dlog,
                    dom.base,
                    dom.len,
                );
                (out.trials, out.winner) = (s.trials, s.winner);
            }
            Mechanism::PtFine => {
                let groups = globalize(
                    backend::throttle_groups(
                        &det.agg,
                        &det.interval1,
                        pt::FINE_EXHAUSTIVE_LIMIT,
                        pt::FINE_GROUPS,
                    ),
                    dom.base,
                );
                let s = backend::search_throttle_levels_in(
                    &mut self.sys,
                    &groups,
                    &pt::FINE_LEVELS,
                    self.ctrl.sampling_interval,
                    dlog,
                    dom.base,
                    dom.len,
                );
                (out.trials, out.winner) = (s.trials, s.winner);
            }
            Mechanism::Dunn => {
                let plan = dunn::dunn_plan(&det.interval1, ways, self.ctrl.dunn_clusters);
                self.apply_or_noop(dom, plan, dlog, &mut out);
            }
            Mechanism::PrefCp | Mechanism::PrefCp2 => {
                let plan = if self.mechanism == Mechanism::PrefCp {
                    cp::pref_cp_plan(&det, dom.len, ways, scale, min_pc)
                } else {
                    cp::pref_cp2_plan(&det, dom.len, ways, scale, min_pc)
                };
                self.apply_or_noop(dom, plan, dlog, &mut out);
            }
            Mechanism::Mba => {
                // Bandwidth-only ablation: prefetchers on, flat CAT, MBA
                // delay-level search over the aggressor throttle groups.
                if cbp::mba_available(&mut self.sys, dom.base, dlog) {
                    let groups = self.groups(dom, &det.agg, &det.interval1);
                    let s = cbp::search_mba_levels_in(
                        &mut self.sys,
                        &groups,
                        &cbp::MBA_LEVELS,
                        &vec![0u64; dom.len],
                        self.ctrl.sampling_interval,
                        dlog,
                        dom.base,
                        dom.len,
                    );
                    (out.trials, out.winner) = (s.trials, s.winner);
                } else {
                    // No bandwidth knob: nothing left for the bandwidth-only
                    // mechanism to do.
                    out.degrade(dlog, self.sys.now(), "fallback_noop");
                }
            }
            Mechanism::CmmA | Mechanism::CmmB | Mechanism::CmmC | Mechanism::Cbp => {
                self.govern_detection(dom, &mut det, &dlog[det_start..]);
                let variant = match self.mechanism {
                    Mechanism::CmmB => cmm::Variant::B,
                    Mechanism::CmmC => cmm::Variant::C,
                    // CMM-a and CBP share the paper's plan (a); CBP layers
                    // the MBA search on top of it.
                    _ => cmm::Variant::A,
                };
                let with_mba = self.mechanism == Mechanism::Cbp;
                self.cmm_leg(dom, &det, variant, with_mba, dlog, &mut out);
            }
            Mechanism::MlSel => {
                self.govern_detection(dom, &mut det, &dlog[det_start..]);
                out.features = learned::mean_features(&det.interval1);
                let gates = self.gates(dom.d);
                // Classify every core; the epoch trusts the model only if
                // its *least* confident per-core posterior clears the floor.
                let image: Option<Vec<u64>> = match &self.learner {
                    Some(Learner::Ml { model, floor }) => {
                        let preds: Vec<_> = det
                            .interval1
                            .iter()
                            .map(|d| model.predict(&learned::core_features(d)))
                            .collect();
                        let min_conf =
                            preds.iter().map(|p| p.confidence).fold(f64::INFINITY, f64::min);
                        (min_conf >= *floor)
                            .then(|| preds.iter().map(|p| model.labels[p.class]).collect())
                    }
                    _ => None,
                };
                match image {
                    Some(image) => {
                        // The zero-trial epoch: CMM-a's partition plan plus
                        // the classifier's per-core prefetch image — no
                        // profiling search at all.
                        self.partition_cmm_a(dom, &det, dlog, &mut out);
                        if gates.pf {
                            self.write_image(dom, msr::MSR_MISC_FEATURE_CONTROL, &image, dlog);
                        }
                        out.action = Some(pf_label(&image));
                    }
                    None => {
                        // Below the confidence floor (or no model loaded):
                        // this epoch runs the full CMM-a search instead.
                        out.degrade(dlog, self.sys.now(), "fallback_cmm_a");
                        out.action = Some("fallback_cmm_a".into());
                        self.cmm_leg(dom, &det, cmm::Variant::A, false, dlog, &mut out);
                    }
                }
            }
            Mechanism::RlCbp => {
                self.govern_detection(dom, &mut det, &dlog[det_start..]);
                out.features = learned::mean_features(&det.interval1);
                let gates = self.gates(dom.d);
                let chosen = match self.learner.as_mut() {
                    Some(Learner::Rl(rl)) => {
                        let b = rl.bandit_mut(dom.d);
                        // A quiet domain gives the bandit nothing to
                        // throttle and no usable reward — exploit the
                        // incumbent instead of burning an exploration step
                        // it can never evaluate.
                        let state = learned::state_of(&det);
                        Some(if det.agg.is_empty() { b.exploit(state) } else { b.select(state) })
                    }
                    _ => None,
                };
                match chosen {
                    Some(a) => {
                        let act = learned::decode_action(a);
                        if act.cat_cmm {
                            self.partition_cmm_a(dom, &det, dlog, &mut out);
                        }
                        let mut pf_image = vec![0u64; dom.len];
                        for &c in &det.unfriendly {
                            pf_image[c] = act.pf;
                        }
                        if gates.pf {
                            self.write_image(dom, msr::MSR_MISC_FEATURE_CONTROL, &pf_image, dlog);
                        }
                        let mut mba_image = vec![0u64; dom.len];
                        for &c in &det.agg {
                            mba_image[c] = act.mba;
                        }
                        if gates.mba && cbp::mba_available(&mut self.sys, dom.base, dlog) {
                            self.write_image(dom, msr::MSR_MBA_THROTTLE, &mba_image, dlog);
                        }
                        let label = learned::action_label(&act);
                        out.action = Some(label.clone());
                        self.rl_hold[dom.d] =
                            Some(RlHold { skip: act.stretch - 1, pf_image, mba_image, label });
                    }
                    None => {
                        // No policy attached: the full CMM-a epoch.
                        out.degrade(dlog, self.sys.now(), "fallback_cmm_a");
                        out.action = Some("fallback_cmm_a".into());
                        self.cmm_leg(dom, &det, cmm::Variant::A, false, dlog, &mut out);
                    }
                }
            }
        }
        out.cores = samples_of(&det.interval1);
        out.agg = det.agg;
        out.friendly = det.friendly;
        out.unfriendly = det.unfriendly;
        out
    }

    /// The coordinated CMM epoch of one domain, in the paper's order:
    /// partition per `variant` (Fig. 6), then search throttle settings for
    /// the unfriendly cores inside the partitioned cache, then — with
    /// `with_mba` (CBP) — search MBA delay levels for the whole Agg set on
    /// top of the prefetch winner. Serves CMM-a/b/c, CBP and the learned
    /// mechanisms' CMM-a fallback.
    fn cmm_leg(
        &mut self,
        dom: Domain,
        det: &Detection,
        variant: cmm::Variant,
        with_mba: bool,
        dlog: &mut Vec<FaultRecord>,
        out: &mut DomainDecision,
    ) {
        let gates = self.gates(dom.d);
        let ways = self.sys.llc_ways();
        let min_pc = backend::min_ways_per_core(self.sys.config());
        if !gates.cat {
            // CAT's breaker is open: every partition plan is doomed, so
            // stop paying its per-epoch retry tax — but the prefetch and
            // MBA register classes may well be alive, and for a
            // prefetch-aggressive mix they carry most of the mechanism's
            // value. Pin a throttle-only degradation over the flat (reset)
            // cache until the breaker closes.
            self.sys.reset_cat_domain(dom.d);
            out.degrade(dlog, self.sys.now(), "fallback_throttle");
        } else {
            let clusters = self.ctrl.dunn_clusters;
            let dunn = || dunn::dunn_plan(&det.interval1, ways, clusters);
            match cmm::cmm_plan(variant, det, dom.len, ways, self.ctrl.partition_scale, min_pc) {
                Some(plan) => {
                    if plan.offset(dom.base).apply_at(&mut self.sys, dom.base, dlog).is_err() {
                        // The coordinated plan could not be programmed
                        // (e.g. CLOS exhaustion). Back out to the safe
                        // state, then retreat down the chain: try the less
                        // CLOS-hungry Dunn plan; if even that fails, stay
                        // flat (no-op). Throttle search is skipped —
                        // coordinated throttling without its partition is
                        // not the mechanism the paper evaluates.
                        self.sys.reset_cat_domain(dom.d);
                        out.degrade(dlog, self.sys.now(), "fallback_dunn");
                        self.apply_or_noop(dom, dunn(), dlog, out);
                        return;
                    }
                }
                None => {
                    // Fig. 6 (d): empty Agg set ⇒ Dunn partitioning,
                    // nothing to search.
                    self.apply_or_noop(dom, dunn(), dlog, out);
                    return;
                }
            }
        }
        // Detection leaves every prefetcher on; if the prefetch breaker is
        // open the search is skipped and that all-on image stands.
        let mut pf_image = vec![0u64; dom.len];
        if gates.pf {
            let groups = self.groups(dom, &det.unfriendly, &det.interval1);
            let s = backend::search_throttle_in(
                &mut self.sys,
                &groups,
                self.ctrl.sampling_interval,
                dlog,
                dom.base,
                dom.len,
            );
            pf_image = s.best.iter().map(|&on| if on { 0x0 } else { 0xF }).collect();
            (out.trials, out.winner) = (s.trials, s.winner);
        }
        if with_mba {
            if gates.mba && cbp::mba_available(&mut self.sys, dom.base, dlog) {
                let groups = self.groups(dom, &det.agg, &det.interval1);
                let s = cbp::search_mba_levels_in(
                    &mut self.sys,
                    &groups,
                    &cbp::MBA_LEVELS,
                    &pf_image,
                    self.ctrl.sampling_interval,
                    dlog,
                    dom.base,
                    dom.len,
                );
                if let Some(w) = s.winner {
                    out.winner = Some(out.trials.len() + w);
                }
                out.trials.extend(s.trials);
            } else if gates.cat {
                // Without the bandwidth knob CBP is exactly CMM-a.
                out.degrade(dlog, self.sys.now(), "fallback_cmm_a");
            }
        }
    }

    /// CMM-a's partition plan (Dunn's on an empty Agg set) with no search
    /// — the learned mechanisms' partition. Throttle-only over the flat
    /// cache while the CAT breaker is open.
    fn partition_cmm_a(
        &mut self,
        dom: Domain,
        det: &Detection,
        dlog: &mut Vec<FaultRecord>,
        out: &mut DomainDecision,
    ) {
        if !self.gates(dom.d).cat {
            self.sys.reset_cat_domain(dom.d);
            out.degrade(dlog, self.sys.now(), "fallback_throttle");
            return;
        }
        let ways = self.sys.llc_ways();
        let min_pc = backend::min_ways_per_core(self.sys.config());
        let plan =
            cmm::cmm_plan(cmm::Variant::A, det, dom.len, ways, self.ctrl.partition_scale, min_pc)
                .unwrap_or_else(|| dunn::dunn_plan(&det.interval1, ways, self.ctrl.dunn_clusters));
        self.apply_or_noop(dom, plan, dlog, out);
    }

    /// Programs the domain-local `plan` on `dom`. On failure the domain
    /// backs out to its flat safe state and `out` records a no-op
    /// degradation.
    fn apply_or_noop(
        &mut self,
        dom: Domain,
        plan: PartitionPlan,
        dlog: &mut Vec<FaultRecord>,
        out: &mut DomainDecision,
    ) {
        if plan.offset(dom.base).apply_at(&mut self.sys, dom.base, dlog).is_err() {
            self.sys.reset_cat_domain(dom.d);
            out.degrade(dlog, self.sys.now(), "fallback_noop");
        }
    }

    /// Writes a domain-local per-core register image. Per-core failures
    /// are journaled and tolerated, like every throttle write.
    fn write_image(&mut self, dom: Domain, msr: u32, image: &[u64], dlog: &mut Vec<FaultRecord>) {
        for (c, &v) in image.iter().enumerate() {
            let _ = backend::write_msr_logged(&mut self.sys, dom.base + c, msr, v, dlog);
        }
    }

    /// Throttle groups over the domain-local `cores`, in global core ids.
    fn groups(&self, dom: Domain, cores: &[usize], interval1: &[PmuDelta]) -> Vec<Vec<usize>> {
        let groups = backend::throttle_groups(
            cores,
            interval1,
            self.ctrl.exhaustive_limit,
            self.ctrl.throttle_groups,
        );
        globalize(groups, dom.base)
    }

    /// Feeds a domain's epoch fault stream through its governor's breaker
    /// and quarantine state machines and returns the interventions for
    /// the journal (none when ungoverned).
    fn govern_faults(
        &mut self,
        dom: Domain,
        faults: &[FaultRecord],
        cycle: u64,
    ) -> Vec<GovernorEvent> {
        match self.governors.get_mut(dom.d) {
            Some(g) => {
                g.observe_faults(&dom.local(faults), cycle);
                g.take_events()
            }
            None => Vec::new(),
        }
    }

    /// The domain's breaker verdicts.
    fn gates(&self, d: usize) -> Gates {
        let allow = |class| self.governors.get(d).is_none_or(|g| g.allow(class));
        Gates {
            pf: allow(RegClass::Prefetch),
            cat: allow(RegClass::Cat),
            mba: allow(RegClass::Mba),
        }
    }

    /// Governor defense 2: a core whose detection sample was flagged
    /// implausible (`det_faults`) is quarantined on the spot and keeps its
    /// last trusted classification, so one lying counter cannot steer
    /// this epoch's plan or the searches.
    fn govern_detection(&mut self, dom: Domain, det: &mut Detection, det_faults: &[FaultRecord]) {
        if let Some(g) = self.governors.get_mut(dom.d) {
            g.observe_detection(&dom.local(det_faults), self.sys.now());
            g.filter_detection(det);
        }
    }
}

/// The journal's `action` label for an ML-Sel per-core prefetch image.
fn pf_label(image: &[u64]) -> String {
    let imgs: Vec<String> = image.iter().map(|v| format!("{v:#x}")).collect();
    format!("pf=[{}]", imgs.join(","))
}

/// A [`Detection`] that classifies nothing: the observed interval of a
/// mechanism that only clusters stalls (Dunn), or none at all (the
/// baseline).
fn unclassified(interval1: Vec<PmuDelta>) -> Detection {
    Detection {
        interval1,
        agg: Vec::new(),
        friendly: Vec::new(),
        unfriendly: Vec::new(),
        profiling_cycles: 0,
    }
}

/// Moves faults from a machine-wide phase into the per-domain logs: faults
/// naming a core go to that core's domain, core-less ones to domain 0.
fn route_faults(log: &mut Vec<FaultRecord>, dom_logs: &mut [Vec<FaultRecord>], len: usize) {
    for f in log.drain(..) {
        let d = f.core.map_or(0, |c| (c / len).min(dom_logs.len() - 1));
        dom_logs[d].push(f);
    }
}

/// Lifts socket-local throttle groups to global core ids (`+ base`).
fn globalize(groups: Vec<Vec<usize>>, base: usize) -> Vec<Vec<usize>> {
    groups.into_iter().map(|g| g.into_iter().map(|c| c + base).collect()).collect()
}

/// Per-core [`CoreSample`]s (IPC + metric cascade) of one interval.
fn samples_of(deltas: &[PmuDelta]) -> Vec<CoreSample> {
    deltas
        .iter()
        .map(|d| CoreSample { ipc: d.ipc(), metrics: crate::frontend::metrics(d) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_sim::config::SystemConfig;
    use cmm_sim::system::CoreControl;
    use cmm_sim::workload::Workload;
    use cmm_workloads::spec;

    fn system_with(names: &[&str]) -> System {
        system_on(1, names)
    }

    /// `names` on `sockets` equal CAT domains.
    fn system_on(sockets: usize, names: &[&str]) -> System {
        let mut cfg = SystemConfig::scaled(names.len());
        cfg.set_topology(cmm_sim::config::Topology::grid(sockets, names.len() / sockets));
        let llc = cfg.llc.size_bytes;
        let ws: Vec<Box<dyn Workload + Send>> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Box::new(spec::by_name(n).unwrap().instantiate(llc, (i as u64 + 1) << 36, 11))
                    as Box<dyn Workload + Send>
            })
            .collect();
        System::new(cfg, ws)
    }

    #[test]
    fn baseline_driver_never_partitions_or_throttles() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::Baseline, ControllerConfig::quick());
        drv.run_total(500_000);
        let sys = drv.system();
        for c in 0..4 {
            assert!(sys.prefetching_enabled(c));
            assert_eq!(sys.effective_mask(c), (1 << sys.llc_ways()) - 1);
        }
    }

    #[test]
    fn pref_cp_partitions_the_aggressors() {
        let sys = system_with(&["bwaves3d", "lbm_fluid", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::PrefCp, ControllerConfig::quick());
        drv.run_total(800_000);
        let sys = drv.system();
        let full = (1u64 << sys.llc_ways()) - 1;
        // The two streams must sit in a small partition...
        assert!(sys.effective_mask(0).count_ones() < 20, "{:b}", sys.effective_mask(0));
        assert_eq!(sys.effective_mask(0), sys.effective_mask(1));
        // ...while the neutral cores keep the whole cache.
        assert_eq!(sys.effective_mask(2), full);
        assert_eq!(sys.effective_mask(3), full);
        // CP never throttles.
        assert!((0..4).all(|c| sys.prefetching_enabled(c)));
    }

    #[test]
    fn cmm_a_partitions_and_throttles_unfriendly() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::CmmA, ControllerConfig::quick());
        drv.run_total(1_200_000);
        let sys = drv.system();
        // Both aggressors (friendly stream + unfriendly random) partitioned.
        assert!(sys.effective_mask(0).count_ones() < 20);
        assert!(sys.effective_mask(1).count_ones() < 20);
        // The friendly stream's prefetchers must stay on — CMM only ever
        // throttles unfriendly cores.
        assert!(sys.prefetching_enabled(0));
        assert!(drv.agg_history().iter().any(|&a| a >= 2), "{:?}", drv.agg_history());
    }

    #[test]
    fn cmm_falls_back_to_dunn_on_empty_agg() {
        let sys = system_with(&["mcf_refine", "omnet_events", "povray_rt", "gobmk_ai"]);
        let mut drv = Driver::new(sys, Mechanism::CmmA, ControllerConfig::quick());
        drv.system_mut().run(400_000); // past the cold streaming phase
        drv.epoch();
        // No aggressor: Dunn's nested plan is in force; the most-stalled
        // core has the full mask, and nobody was throttled.
        let sys = drv.system();
        assert!((0..4).all(|c| sys.prefetching_enabled(c)));
        let full = (1u64 << sys.llc_ways()) - 1;
        assert!((0..4).any(|c| sys.effective_mask(c) == full));
    }

    #[test]
    fn overhead_is_small() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::CmmC, ControllerConfig::quick());
        drv.run_total(2_000_000);
        assert!(drv.overhead_ratio() < 0.01, "overhead {:.4}", drv.overhead_ratio());
        assert!(drv.epochs() >= 2);
    }

    #[test]
    fn run_total_reaches_target() {
        let sys = system_with(&["povray_rt", "gobmk_ai"]);
        let mut drv = Driver::new(sys, Mechanism::Pt, ControllerConfig::quick());
        drv.run_total(300_000);
        assert!(drv.system().now() >= 300_000);
    }

    #[test]
    fn cmm_records_trials_and_winner() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::CmmA, ControllerConfig::quick());
        drv.run_total(1_200_000);
        let recs = drv.records();
        assert_eq!(recs.len() as u64, drv.epochs());
        // Some epoch detected aggressors and searched throttle settings.
        let searched = recs.iter().find(|r| !r.trials.is_empty()).expect("no trials recorded");
        assert_eq!(searched.mechanism, "CMM-a");
        assert!(!searched.agg.is_empty());
        let w = searched.winner.expect("search must pick a winner");
        let best = searched.trials[w].hm_ipc;
        assert!(searched.trials.iter().all(|t| t.hm_ipc <= best), "winner must rank first");
        // Cascade samples cover every core, and the applied state matches
        // the machine.
        assert_eq!(searched.cores.len(), 4);
        let last = recs.last().unwrap();
        assert_eq!(last.applied.len(), 4);
        for c in 0..4 {
            assert_eq!(last.applied[c].way_mask, drv.system().effective_mask(c));
            assert_eq!(last.applied[c].prefetching(), drv.system().prefetching_enabled(c));
        }
    }

    #[test]
    fn baseline_records_epochs_without_decisions() {
        let sys = system_with(&["povray_rt", "gobmk_ai"]);
        let mut drv = Driver::new(sys, Mechanism::Baseline, ControllerConfig::quick());
        drv.run_total(500_000);
        assert!(!drv.records().is_empty());
        for r in drv.records() {
            assert!(r.cores.is_empty() && r.agg.is_empty() && r.trials.is_empty());
            assert_eq!(r.winner, None);
            assert_eq!(r.applied.len(), 2);
        }
    }

    #[test]
    fn take_records_drains() {
        let sys = system_with(&["povray_rt", "gobmk_ai"]);
        let mut drv = Driver::new(sys, Mechanism::Pt, ControllerConfig::quick());
        drv.epoch();
        let taken = drv.take_records();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].epoch, 1);
        assert!(drv.records().is_empty());
    }

    #[test]
    fn exec_ipc_is_tracked_across_epochs() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::CmmA, ControllerConfig::quick());
        drv.run_total(1_000_000);
        let recs = drv.records();
        assert!(recs.len() >= 3, "need several epochs: {}", recs.len());
        // First epoch has no completed execution epoch behind it.
        assert_eq!(recs[0].exec_hm_ipc, None);
        assert_eq!(recs[0].exec_ipc_delta, None);
        // From the second epoch on, the preceding execution epoch is
        // measured; from the third, the delta exists and is consistent.
        assert!(recs[1].exec_hm_ipc.unwrap() > 0.0);
        let (prev, cur) = (recs[1].exec_hm_ipc.unwrap(), recs[2].exec_hm_ipc.unwrap());
        let delta = recs[2].exec_ipc_delta.unwrap();
        assert!((delta - (cur - prev)).abs() < 1e-9);
        // A clean substrate records no faults and no degradation.
        for r in recs {
            assert!(r.faults.is_empty(), "{:?}", r.faults);
            assert_eq!(r.degraded, None);
        }
    }

    #[test]
    fn clos_exhaustion_walks_the_fallback_chain() {
        use crate::fault::{FaultConfig, FaultySubstrate};
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        // Only CLOS 0 exists: every partitioning plan (CMM and Dunn both
        // start at CLOS 1) is unprogrammable.
        let mut cfg = FaultConfig::none();
        cfg.clos_limit = Some(1);
        let faulty = FaultySubstrate::new(sys, cfg);
        let mut drv = Driver::new(faulty, Mechanism::CmmA, ControllerConfig::quick());
        drv.system_mut().run(600_000); // past the cold phase → nonempty Agg
        drv.epoch();
        let rec = drv.records().last().unwrap();
        assert!(!rec.agg.is_empty(), "mix must trigger the CMM plan: {rec:?}");
        let actions: Vec<&str> = rec.faults.iter().map(|f| f.action).collect();
        assert!(actions.contains(&"fallback_dunn"), "{actions:?}");
        assert!(actions.contains(&"fallback_noop"), "{actions:?}");
        assert_eq!(rec.degraded, Some("no-op"));
        assert!(rec.faults.iter().any(|f| f.kind == "clos_exhausted"));
        // The machine ends in the safe flat state, prefetchers on.
        let sys = drv.system();
        let full = (1u64 << sys.inner().llc_ways()) - 1;
        for c in 0..4 {
            assert_eq!(sys.inner().effective_mask(c), full);
        }
        // No throttle search ran without the partition.
        assert!(rec.trials.is_empty());
        assert_eq!(rec.winner, None);
    }

    #[test]
    fn cbp_layers_mba_trials_on_the_cmm_plan() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::Cbp, ControllerConfig::quick());
        drv.run_total(1_200_000);
        let recs = drv.records();
        // Some epoch ran the full three-stage search: prefetch trials
        // (no mba image) followed by MBA trials (mba image present).
        let layered = recs
            .iter()
            .find(|r| r.trials.iter().any(|t| !t.mba.is_empty()))
            .expect("no MBA trials recorded");
        assert_eq!(layered.mechanism, "CBP");
        // Search order is hierarchical: any prefetch trials precede every
        // MBA trial.
        let first_mba = layered.trials.iter().position(|t| !t.mba.is_empty()).unwrap();
        assert!(layered.trials[first_mba..].iter().all(|t| !t.mba.is_empty()));
        assert_eq!(layered.degraded, None);
        // MBA trials never program an invalid level.
        for t in &layered.trials {
            assert!(t.mba.iter().all(|&l| cmm_sim::msr::mba_level_valid(l)), "{:?}", t.mba);
        }
        // The winner indexes the combined trial list.
        let w = layered.winner.expect("search must pick a winner");
        assert!(w < layered.trials.len());
        // The applied read-back includes the MBA level in force.
        for (c, a) in recs.last().unwrap().applied.iter().enumerate() {
            assert_eq!(a.mba_level, Substrate::mba_throttle(drv.system(), c));
        }
    }

    #[test]
    fn cbp_without_the_mba_knob_degrades_to_cmm_a() {
        use crate::fault::{FaultConfig, FaultySubstrate};
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        // Every MBA write fails permanently after retries; everything else
        // is healthy — CBP must retreat to exact CMM-a behavior.
        let faulty = FaultySubstrate::new(sys, FaultConfig::mba_only(7, 1.0));
        let mut drv = Driver::new(faulty, Mechanism::Cbp, ControllerConfig::quick());
        drv.system_mut().run(600_000); // past the cold phase → nonempty Agg
        drv.epoch();
        let rec = drv.records().last().unwrap();
        assert!(!rec.agg.is_empty(), "mix must trigger the plan: {rec:?}");
        assert_eq!(rec.degraded, Some("CMM-a"));
        assert!(rec.faults.iter().any(|f| f.action == "fallback_cmm_a"), "{:?}", rec.faults);
        // The prefetch search still ran; no MBA trial exists and no MBA
        // level is in force.
        assert!(!rec.trials.is_empty());
        assert!(rec.trials.iter().all(|t| t.mba.is_empty()));
        assert!(rec.applied.iter().all(|a| a.mba_level == 0));
    }

    #[test]
    fn mba_only_mechanism_never_partitions_or_throttles_prefetchers() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::Mba, ControllerConfig::quick());
        drv.run_total(1_200_000);
        let sys = drv.system();
        let full = (1u64 << sys.llc_ways()) - 1;
        for c in 0..4 {
            assert!(sys.prefetching_enabled(c));
            assert_eq!(sys.effective_mask(c), full);
        }
        // Some epoch searched MBA levels for the aggressors.
        let searched =
            drv.records().iter().find(|r| !r.trials.is_empty()).expect("no MBA search recorded");
        assert!(searched.trials.iter().all(|t| !t.mba.is_empty()));
    }

    #[test]
    fn governed_clean_run_matches_ungoverned_byte_for_byte() {
        // The zero-fault invisibility contract: attaching a governor to a
        // healthy machine changes nothing — not timing, not decisions,
        // not the rendered journal.
        let mk = || system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut plain = Driver::new(mk(), Mechanism::Cbp, ControllerConfig::quick());
        let mut gov = Driver::new(mk(), Mechanism::Cbp, ControllerConfig::quick())
            .with_governor(GovernorConfig::new(9));
        plain.run_total(1_200_000);
        gov.run_total(1_200_000);
        let (ra, rb) = (plain.take_records(), gov.take_records());
        assert_eq!(ra.len(), rb.len());
        assert!(!ra.is_empty());
        for (a, b) in ra.iter().zip(&rb) {
            assert_eq!(a.to_json_line("cell"), b.to_json_line("cell"));
            assert!(b.governor.is_empty());
        }
    }

    #[test]
    fn governor_rollback_restores_last_good_and_skips_replanning() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::CmmA, ControllerConfig::quick())
            .with_governor(GovernorConfig::new(1));
        drv.run_total(900_000); // several epochs: snapshot + last-good exist
        let before = drv.records().len();
        // Arm the governor by hand: a fault was observed and the
        // last-known-good hm_ipc is implausibly high, so the next
        // measurement reads as a regression past the bound.
        let g = &mut drv.governors[0];
        g.accept(1e6);
        g.observe_faults(
            &[FaultRecord {
                cycle: 0,
                kind: "msr_rejected",
                core: Some(0),
                msr: Some(0x1A4),
                action: "retry_ok",
            }],
            0,
        );
        let snapshot = drv.governors[0].snapshot().unwrap().to_vec();
        drv.system_mut().run(100_000);
        drv.epoch();
        let rec = &drv.records()[before..].last().unwrap();
        assert!(rec.governor.iter().any(|e| e.action == "rollback"), "{:?}", rec.governor);
        assert!(rec.faults.iter().any(|f| f.action == "kept_last_good"), "{:?}", rec.faults);
        assert_eq!(drv.governors()[0].rollbacks(), 1);
        // The rollback epoch re-runs the restored state: no profiling, no
        // re-plan, and the applied read-back equals the snapshot.
        assert!(rec.cores.is_empty() && rec.trials.is_empty());
        assert_eq!(rec.winner, None);
        assert_eq!(rec.applied, snapshot);
    }

    #[test]
    fn quarantined_cores_are_dropped_from_classification() {
        let mk = || system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        // Reference: which cores does a healthy epoch classify as Agg?
        let mut reference = Driver::new(mk(), Mechanism::CmmA, ControllerConfig::quick());
        reference.system_mut().run(600_000);
        reference.epoch();
        let full_agg = reference.records().last().unwrap().agg.clone();
        assert!(!full_agg.is_empty(), "mix must produce aggressors");
        // Same machine, same point in time, but core agg[0]'s PMU stream
        // is quarantined: it must vanish from every detected set.
        let bad = full_agg[0];
        let mut drv = Driver::new(mk(), Mechanism::CmmA, ControllerConfig::quick())
            .with_governor(GovernorConfig::new(1));
        drv.system_mut().run(600_000);
        drv.governors[0].observe_faults(
            &[FaultRecord {
                cycle: 0,
                kind: "pmu_anomaly",
                core: Some(bad),
                msr: None,
                action: "zeroed_sample",
            }],
            0,
        );
        drv.epoch();
        let rec = drv.records().last().unwrap();
        assert!(!rec.agg.contains(&bad), "{:?}", rec.agg);
        assert!(!rec.friendly.contains(&bad));
        assert!(!rec.unfriendly.contains(&bad));
        assert!(rec.governor.iter().any(|e| e.action == "quarantine" && e.core == Some(bad)));
    }

    #[test]
    fn dead_mba_register_opens_the_breaker_and_pins_cmm_a() {
        use crate::fault::{FaultConfig, FaultySubstrate};
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let faulty = FaultySubstrate::new(sys, FaultConfig::mba_only(7, 1.0));
        let mut drv = Driver::new(faulty, Mechanism::Cbp, ControllerConfig::quick())
            .with_governor(GovernorConfig::new(3));
        drv.system_mut().run(600_000);
        for _ in 0..4 {
            drv.epoch();
            drv.system_mut().run(200_000);
        }
        let recs = drv.records();
        let open = recs
            .iter()
            .position(|r| r.governor.iter().any(|e| e.action == "breaker_open"))
            .expect("two consecutive hard MBA failures must open the breaker");
        assert_eq!(
            recs[open].governor.iter().find(|e| e.action == "breaker_open").unwrap().class,
            Some("mba")
        );
        // While the breaker is open the driver stops probing the dead
        // register (no MBA faults) but still degrades CBP to CMM-a.
        let after = &recs[open + 1];
        assert_eq!(after.degraded, Some("CMM-a"));
        assert!(
            after.faults.iter().all(|f| f.msr != Some(cmm_sim::msr::MSR_MBA_THROTTLE)),
            "{:?}",
            after.faults
        );
    }

    #[test]
    fn mlsel_without_a_model_journals_the_cmm_a_fallback() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::MlSel, ControllerConfig::quick());
        drv.system_mut().run(600_000);
        drv.epoch();
        let rec = drv.records().last().unwrap();
        // No learner attached: every epoch degrades to the CMM-a search,
        // and the degradation is journaled under the /6 keys.
        assert_eq!(rec.degraded, Some("CMM-a"));
        assert_eq!(rec.action.as_deref(), Some("fallback_cmm_a"));
        assert!(rec.faults.iter().any(|f| f.action == "fallback_cmm_a"));
        assert!(!rec.trials.is_empty(), "the fallback runs the full search");
        assert_eq!(rec.features.len(), cmm_learn::N_FEATURES);
        assert!(rec.features[0] > 0.0, "mean IPC feature must be positive");
    }

    #[test]
    fn mlsel_with_a_confident_model_plans_without_trials() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        // A degenerate single-class model is maximally confident (p = 1)
        // and always picks "all prefetchers on".
        let model = cmm_learn::Model {
            labels: vec![0x0],
            weights: vec![vec![0.0; cmm_learn::N_FEATURES + 1]],
        };
        let mut drv = Driver::new(sys, Mechanism::MlSel, ControllerConfig::quick())
            .with_learner(Learner::Ml { model, floor: 0.5 });
        drv.system_mut().run(600_000);
        drv.epoch();
        let rec = drv.records().last().unwrap();
        // Zero profiling trials, yet the CMM-a partition was applied.
        assert!(rec.trials.is_empty());
        assert_eq!(rec.winner, None);
        assert_eq!(rec.degraded, None);
        assert_eq!(rec.action.as_deref(), Some("pf=[0x0,0x0,0x0,0x0]"));
        assert!(!rec.agg.is_empty(), "mix must trigger the plan");
        let sys = drv.system();
        assert!(sys.effective_mask(rec.agg[0]).count_ones() < 20, "aggressor partitioned");
        assert!((0..4).all(|c| sys.prefetching_enabled(c)), "classifier chose all-on");
    }

    #[test]
    fn mlsel_below_the_confidence_floor_falls_back() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        // Two identical classes: every posterior is 0.5, below any floor
        // above one half — the fallback leg must run and be journaled.
        let model = cmm_learn::Model {
            labels: vec![0x0, 0xF],
            weights: vec![vec![0.0; cmm_learn::N_FEATURES + 1]; 2],
        };
        let mut drv = Driver::new(sys, Mechanism::MlSel, ControllerConfig::quick())
            .with_learner(Learner::Ml { model, floor: 0.9 });
        drv.system_mut().run(600_000);
        drv.epoch();
        let rec = drv.records().last().unwrap();
        assert_eq!(rec.degraded, Some("CMM-a"));
        assert_eq!(rec.action.as_deref(), Some("fallback_cmm_a"));
        assert!(!rec.trials.is_empty());
    }

    #[test]
    fn rlcbp_zero_epsilon_applies_the_cmm_prior_deterministically() {
        let mk = || system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let run = |seed: u64| {
            let mut drv = Driver::new(mk(), Mechanism::RlCbp, ControllerConfig::quick())
                .with_learner(Learner::Rl(crate::learned::RlPolicy::new(seed, 0.0)));
            drv.run_total(1_200_000);
            drv.take_records().iter().map(|r| r.to_json_line("cell")).collect::<Vec<_>>()
        };
        // With epsilon 0 the bandit draws no entropy: the seed must not
        // matter and the greedy policy starts at the CMM-like prior.
        let a = run(1);
        let b = run(999);
        assert_eq!(a, b);
        assert!(
            a.iter().any(|l| l.contains("\"action\":\"pf=0xf,cat=cmm,mba=0,stretch=1\"")),
            "greedy start must be the CMM prior"
        );
        // Zero-trial epochs: the bandit replaces the exhaustive search.
        assert!(a.iter().all(|l| l.contains("\"trials\":[]")));
    }

    #[test]
    fn rlcbp_stretch_holds_the_action_without_profiling() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::RlCbp, ControllerConfig::quick())
            .with_learner(Learner::Rl(crate::learned::RlPolicy::new(5, 0.0)));
        drv.system_mut().run(600_000);
        drv.epoch();
        // Force a stretch by hand: the held action must skip the next
        // epoch's profiling entirely.
        drv.rl_hold[0].as_mut().unwrap().skip = 1;
        drv.system_mut().run(200_000);
        drv.epoch();
        let rec = drv.records().last().unwrap();
        assert!(rec.action.as_deref().unwrap().starts_with("hold:"), "{:?}", rec.action);
        assert!(rec.cores.is_empty() && rec.trials.is_empty());
        assert!(rec.features.is_empty());
        // The epoch after the hold re-plans normally.
        drv.system_mut().run(200_000);
        drv.epoch();
        let rec = drv.records().last().unwrap();
        assert!(!rec.cores.is_empty());
    }

    #[test]
    fn rlcbp_without_a_policy_falls_back_to_cmm_a() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::RlCbp, ControllerConfig::quick());
        drv.system_mut().run(600_000);
        drv.epoch();
        let rec = drv.records().last().unwrap();
        assert_eq!(rec.degraded, Some("CMM-a"));
        assert_eq!(rec.action.as_deref(), Some("fallback_cmm_a"));
        assert!(!rec.trials.is_empty());
    }

    #[test]
    fn epoch_records_are_ordered_and_cycle_stamped() {
        let sys = system_with(&["bwaves3d", "rand_access", "mcf_refine", "povray_rt"]);
        let mut drv = Driver::new(sys, Mechanism::PrefCp, ControllerConfig::quick());
        drv.run_total(900_000);
        let recs = drv.records();
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.epoch, i as u64 + 1);
        }
        for pair in recs.windows(2) {
            assert!(pair[0].cycle < pair[1].cycle, "cycles must advance");
        }
    }

    /// Two domains of four: socket 0 hosts the usual aggressor pair next
    /// to a chaser and a core-bound loop, socket 1 a second pair.
    const TWO_BY_FOUR: [&str; 8] = [
        "bwaves3d",
        "rand_access",
        "mcf_refine",
        "povray_rt",
        "lbm_fluid",
        "rand_access2",
        "omnet_events",
        "gobmk_ai",
    ];

    #[test]
    fn governed_clean_two_domain_run_matches_ungoverned() {
        let mk = || system_on(2, &TWO_BY_FOUR);
        let mut plain = Driver::new(mk(), Mechanism::Cbp, ControllerConfig::quick());
        let mut gov = Driver::new(mk(), Mechanism::Cbp, ControllerConfig::quick())
            .with_governor(GovernorConfig::new(9));
        assert_eq!(gov.governors().len(), 2, "one governor per CAT domain");
        plain.run_total(1_200_000);
        gov.run_total(1_200_000);
        let (ra, rb) = (plain.take_records(), gov.take_records());
        assert_eq!(ra.len(), rb.len());
        assert!(rb.iter().any(|r| r.domain == Some(1)));
        for (a, b) in ra.iter().zip(&rb) {
            assert_eq!(a.to_json_line("cell"), b.to_json_line("cell"));
            assert!(b.governor.is_empty());
        }
    }

    #[test]
    fn rollback_on_one_domain_restores_only_that_domain() {
        let mut drv =
            Driver::new(system_on(2, &TWO_BY_FOUR), Mechanism::CmmA, ControllerConfig::quick())
                .with_governor(GovernorConfig::new(1));
        drv.run_total(900_000);
        // Arm domain 1's governor only: a fault was observed and its
        // last-known-good hm_ipc is implausibly high.
        let g = &mut drv.governors[1];
        g.accept(1e6);
        g.observe_faults(
            &[FaultRecord {
                cycle: 0,
                kind: "msr_rejected",
                core: Some(0),
                msr: Some(0x1A4),
                action: "retry_ok",
            }],
            0,
        );
        // A distinctive last-good state: flat cache, every prefetcher off.
        let full = (1u64 << drv.system().llc_ways()) - 1;
        let snapshot = vec![CoreControl { clos: 0, way_mask: full, msr_1a4: 0xF, mba_level: 0 }; 4];
        drv.governors[1].note_snapshot(snapshot.clone());
        drv.system_mut().run(100_000);
        drv.epoch();
        let recs = drv.records();
        let (d0, d1) = (&recs[recs.len() - 2], &recs[recs.len() - 1]);
        assert_eq!((d0.domain, d1.domain), (Some(0), Some(1)));
        // Domain 1 rolled back: no re-plan, its snapshot back in force.
        assert!(d1.governor.iter().any(|e| e.action == "rollback"), "{:?}", d1.governor);
        assert!(d1.faults.iter().any(|f| f.action == "kept_last_good"));
        assert!(d1.cores.is_empty() && d1.trials.is_empty());
        assert_eq!(d1.applied, snapshot);
        assert_eq!(drv.governors()[1].rollbacks(), 1);
        // Domain 0 re-planned from a fresh detection, and the restore did
        // not touch its cores or its socket's CLOS masks.
        assert!(d0.governor.is_empty(), "{:?}", d0.governor);
        assert_eq!(drv.governors()[0].rollbacks(), 0);
        assert_eq!(d0.cores.len(), 4);
        assert!(!d0.agg.is_empty());
        let sys = drv.system();
        assert_eq!(d0.applied, sys.control_state()[..4].to_vec());
        assert_eq!(d1.applied, sys.control_state()[4..].to_vec());
        assert!(d0.agg.iter().all(|&c| sys.effective_mask(c) != full), "aggressors partitioned");
    }

    #[test]
    fn pmu_anomaly_quarantines_the_core_in_its_own_domain_only() {
        let mk = || system_on(2, &TWO_BY_FOUR);
        let mut reference = Driver::new(mk(), Mechanism::CmmA, ControllerConfig::quick());
        reference.system_mut().run(600_000);
        reference.epoch();
        let agg_of = |recs: &[EpochRecord], d| {
            recs.iter().rev().find(|r| r.domain == Some(d)).unwrap().agg.clone()
        };
        // Local core 1 is an aggressor on both sockets.
        assert!(agg_of(reference.records(), 0).contains(&1));
        assert!(agg_of(reference.records(), 1).contains(&1));

        let mut drv = Driver::new(mk(), Mechanism::CmmA, ControllerConfig::quick())
            .with_governor(GovernorConfig::new(1));
        drv.system_mut().run(600_000);
        // A machine-wide fault stream naming global core 5, routed and fed
        // to the governors the way the epoch does.
        let mut log = vec![FaultRecord {
            cycle: 0,
            kind: "pmu_anomaly",
            core: Some(5),
            msr: None,
            action: "zeroed_sample",
        }];
        let mut dom_logs = vec![Vec::new(); 2];
        route_faults(&mut log, &mut dom_logs, 4);
        let events: Vec<Vec<GovernorEvent>> = (0..2)
            .map(|d| drv.govern_faults(Domain { d, base: d * 4, len: 4 }, &dom_logs[d], 0))
            .collect();
        assert!(events[0].is_empty(), "{:?}", events[0]);
        assert_eq!(events[1].len(), 1);
        assert_eq!((events[1][0].action, events[1][0].core), ("quarantine", Some(1)));
        assert!(drv.governors()[1].quarantined(1));
        assert!((0..4).all(|c| !drv.governors()[0].quarantined(c)));
        // Next epoch: domain 1's local core 1 keeps its last trusted
        // (empty) classification, domain 0's core 1 is classified afresh.
        drv.epoch();
        assert!(agg_of(drv.records(), 0).contains(&1));
        assert!(!agg_of(drv.records(), 1).contains(&1));
    }

    #[test]
    fn pt_fine_caps_every_domain_at_nine_trials() {
        // Socket 1 runs three streams next to a random walker, so its Agg
        // set outgrows PT-fine's per-core grouping.
        let names = [
            "bwaves3d",
            "rand_access",
            "mcf_refine",
            "povray_rt",
            "lbm_fluid",
            "libq_stream",
            "bwaves3d",
            "rand_access2",
        ];
        let mut drv =
            Driver::new(system_on(2, &names), Mechanism::PtFine, ControllerConfig::quick());
        drv.system_mut().run(600_000);
        drv.run_total(600_000);
        let recs = drv.records();
        assert!(
            recs.iter().any(|r| r.agg.len() >= 3),
            "some domain must detect 3+ aggressors: {:?}",
            recs.iter().map(|r| r.agg.clone()).collect::<Vec<_>>()
        );
        for r in recs {
            assert!(r.trials.len() <= 9, "domain {:?}: {} trials", r.domain, r.trials.len());
        }
    }
}
