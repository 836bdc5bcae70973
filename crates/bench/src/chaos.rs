//! Seeded chaos injection for the run harness itself.
//!
//! PR 3 made the *simulated machine* faulty; this module makes the
//! *harness* faulty on demand, so `repro soak` and CI can prove the cell
//! runner's panic isolation, retry budget, and checkpoint/resume actually
//! work. Two failure modes:
//!
//! * **Injected panics** — [`maybe_panic`] panics inside a cell's
//!   `catch_unwind` scope when the cell's key is selected by the seeded
//!   schedule. `Transient` panics fail only the first attempt (the retry
//!   budget must heal them); `Persistent` panics fail every attempt (the
//!   run must complete with an explicit per-cell failure report).
//! * **Injected hangs** — [`maybe_hang`] stalls a selected cell's first
//!   attempt past the runner's watchdog deadline (`Hang` mode), proving
//!   the hang watchdog converts a stuck cell into a retryable failure.
//! * **Process kills** — [`on_cell_complete`] hard-exits the process after
//!   N cells have completed, emulating a mid-run `kill -9` with a valid
//!   checkpoint tail behind it.
//!
//! Selection hashes the cell *key* (not its schedule slot), so the same
//! cells fail at any `--jobs`, keeping chaos runs deterministic. Chaos is
//! armed once from the CLI and is completely inert — zero branches beyond
//! one relaxed load — when unarmed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Whether an injected panic repeats across retry attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Fail only a cell's first attempt; retries succeed.
    Transient,
    /// Fail every attempt; the cell exhausts its retry budget.
    Persistent,
    /// Stall a cell's first attempt past the watchdog deadline; the
    /// watchdog must convert the hang into a retryable failure.
    Hang,
}

impl std::str::FromStr for ChaosMode {
    type Err = String;

    /// Parses the `--chaos-mode` value: `transient`, `persistent` or `hang`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "transient" => Ok(ChaosMode::Transient),
            "persistent" => Ok(ChaosMode::Persistent),
            "hang" => Ok(ChaosMode::Hang),
            other => Err(format!("unknown chaos mode '{other}'")),
        }
    }
}

/// An armed chaos schedule.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Schedule seed (mixed into every cell-key hash).
    pub seed: u64,
    /// Fraction of cells selected to panic, in `[0, 1]`.
    pub rate: f64,
    /// Panic persistence across retries.
    pub mode: ChaosMode,
    /// Hard-exit the process after this many completed cells.
    pub kill_after: Option<u64>,
}

static CHAOS: OnceLock<ChaosConfig> = OnceLock::new();
static COMPLETED: AtomicU64 = AtomicU64::new(0);

/// Exit code used by the injected process kill — distinguishable from
/// ordinary failures in CI logs (mirrors a SIGKILLed process's 137).
pub const KILL_EXIT_CODE: i32 = 137;

/// Arms the chaos schedule for this process. Later calls are ignored
/// (first armer wins), matching one CLI parse per run.
pub fn arm(cfg: ChaosConfig) {
    let _ = CHAOS.set(cfg);
}

/// FNV-1a over the key, then a splitmix64 finalizer mixing in the seed —
/// a stable, jobs-independent per-cell coin.
fn cell_hash(seed: u64, key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// True when the armed schedule is in `Hang` mode — the cell runner
/// shortens its watchdog deadline so injected stalls trip the alarm.
pub fn hang_mode() -> bool {
    CHAOS.get().is_some_and(|cfg| cfg.mode == ChaosMode::Hang)
}

/// True when the armed schedule selects `key` to panic.
pub fn selects(key: &str) -> bool {
    let Some(cfg) = CHAOS.get() else { return false };
    cfg.rate > 0.0 && (cell_hash(cfg.seed, key) as f64 / u64::MAX as f64) < cfg.rate
}

/// Panics iff the armed schedule selects this cell for this attempt.
/// Called by the cell runner *inside* its `catch_unwind` scope. Inert
/// under `Hang` mode — stalls are injected by [`maybe_hang`] instead.
pub fn maybe_panic(key: &str, attempt: u32) {
    let Some(cfg) = CHAOS.get() else { return };
    if cfg.mode == ChaosMode::Hang || !selects(key) {
        return;
    }
    if cfg.mode == ChaosMode::Persistent || attempt == 1 {
        panic!("chaos: injected panic in '{key}' (attempt {attempt})");
    }
}

/// Stalls past `deadline_ms` iff the armed schedule is in `Hang` mode and
/// selects this cell's first attempt, then panics on the watchdog's
/// behalf. Called by the cell runner *inside* its `catch_unwind` scope
/// alongside its own deadline check, so even a hang the runner cannot
/// preempt is converted into a retryable cell failure.
pub fn maybe_hang(key: &str, attempt: u32, deadline_ms: u64) {
    let Some(cfg) = CHAOS.get() else { return };
    if cfg.mode != ChaosMode::Hang || attempt != 1 || !selects(key) {
        return;
    }
    eprintln!("[chaos] injected hang in '{key}' (deadline {deadline_ms} ms)");
    std::thread::sleep(std::time::Duration::from_millis(deadline_ms.saturating_mul(2)));
    panic!("chaos: watchdog deadline ({deadline_ms} ms) exceeded in '{key}' (attempt {attempt})");
}

/// Records one completed (and checkpointed) cell; hard-exits the process
/// when the armed kill threshold is reached.
pub fn on_cell_complete() {
    let Some(cfg) = CHAOS.get() else { return };
    let Some(kill_after) = cfg.kill_after else { return };
    let done = COMPLETED.fetch_add(1, Ordering::Relaxed) + 1;
    if done >= kill_after {
        eprintln!("[chaos] killing process after {done} completed cells");
        std::process::exit(KILL_EXIT_CODE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: `arm` is process-global, so these tests only exercise the
    // pure parts; the armed behavior is covered end-to-end by `repro soak`
    // and the runner's injected-closure tests.

    #[test]
    fn unarmed_chaos_is_inert() {
        assert!(!selects("anything"));
        maybe_panic("anything", 1);
        maybe_hang("anything", 1, 1);
        on_cell_complete();
    }

    #[test]
    fn cell_hash_is_stable_and_seed_sensitive() {
        assert_eq!(cell_hash(7, "PrefAgg-00: CMM-a"), cell_hash(7, "PrefAgg-00: CMM-a"));
        assert_ne!(cell_hash(7, "PrefAgg-00: CMM-a"), cell_hash(8, "PrefAgg-00: CMM-a"));
        assert_ne!(cell_hash(7, "a"), cell_hash(7, "b"));
    }

    #[test]
    fn hash_fractions_cover_the_unit_interval() {
        // With 200 keys, a 0.35 rate should select a sane fraction — this
        // guards against a broken mixer that maps everything to one side.
        let selected = (0..200)
            .filter(|i| (cell_hash(1, &format!("cell-{i}")) as f64 / u64::MAX as f64) < 0.35)
            .count();
        assert!((30..=110).contains(&selected), "selected {selected}/200");
    }
}
