//! Parallel Monte-Carlo trial execution.
//!
//! High-probability claims ("job `j` succeeds with probability at least
//! `1 − 1/w^Θ(λ)`") are validated empirically by running many independent
//! trials. [`run_trials`] fans trials out over OS threads with
//! `crossbeam::scope`; each trial derives its own seed from the batch master
//! seed, so results are independent of thread count and scheduling.
//!
//! ## Engine reuse
//!
//! Workers run many trials back to back on one OS thread, and
//! [`crate::engine::Engine::new`] drains a thread-local arena of cleared
//! allocations donated by the previous trial's engine (see the trial-arena
//! notes in [`crate::engine`]). A trial closure that simply constructs a
//! fresh `Engine` therefore pays for job-table, scratch, and probe buffers
//! once per *worker*, not once per *trial* — no pooling plumbing is needed
//! in the closure, and results stay bit-identical to unpooled construction.
//!
//! ## Thread count
//!
//! Workers default to the machine's available parallelism; a process-wide
//! override ([`set_worker_override`]) pins the count for reproducible
//! benchmarking on heterogeneous CI machines.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::engine::{Engine, EngineConfig, Protocol};
use crate::jamming::AdversarySpec;
use crate::job::JobSpec;
use crate::metrics::SimReport;
use crate::rng::SeedSeq;
use serde::{Deserialize, Serialize};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Typed failure of a trial batch (see [`run_trials_ctl`]).
///
/// Historically a worker panic died inside the runner via
/// `expect("monte-carlo worker panicked")`, which lost the panic payload
/// and — for long-lived callers such as `dcr-server` — aborted the whole
/// process on one bad trial. The payload is now captured and surfaced
/// here so callers can map it to a failed-run status instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A worker thread panicked while executing a trial. `payload` is the
    /// panic message when it was a `&str`/`String` (the overwhelmingly
    /// common case: `panic!`, `assert!`, `expect`), or a placeholder for
    /// exotic payload types.
    Panicked {
        /// Captured panic payload text.
        payload: String,
    },
    /// The batch observed its [`CancelToken`] and stopped early; no
    /// result vector exists because not every trial ran.
    Cancelled {
        /// Trials that had completed when the batch wound down.
        completed: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Panicked { payload } => {
                write!(f, "monte-carlo worker panicked: {payload}")
            }
            RunError::Cancelled { completed } => {
                write!(f, "trial batch cancelled after {completed} trials")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Extract a human-readable message from a panic payload.
fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Cooperative cancellation handle for a trial batch.
///
/// Cloning shares the flag; any clone may [`cancel`](CancelToken::cancel).
/// Workers observe the flag between trials (a running trial is never
/// interrupted mid-flight), so cancellation latency is one trial's
/// duration per worker.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Process-wide worker-count override; 0 means "auto" (available
/// parallelism).
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pin the number of worker threads every subsequent trial batch uses
/// (`None` restores the default: the machine's available parallelism).
/// Process-wide; intended to be set once at startup from a `--threads`
/// flag. Trial *results* never depend on the worker count — only wall
/// clock does.
pub fn set_worker_override(workers: Option<usize>) {
    WORKER_OVERRIDE.store(workers.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count a batch of `trials` trials would use right now.
pub fn configured_workers(trials: u64) -> usize {
    worker_count(trials)
}

/// One trial's result paired with the trial index and its derived seed
/// (so an interesting trial can be re-run in isolation).
#[derive(Debug, Clone)]
pub struct TrialOutcome<T> {
    /// Index of the trial in `0..trials`.
    pub trial: u64,
    /// The master seed that governed the trial.
    pub seed: u64,
    /// The trial function's output.
    pub value: T,
}

/// Number of worker threads to use: the machine's available parallelism,
/// capped by the number of trials.
fn worker_count(trials: u64) -> usize {
    let hw = match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    };
    hw.min(trials.max(1) as usize)
}

/// Completed trials between forced progress flushes (see
/// [`run_trials_ctl`]): a worker publishes its local count every
/// `PROGRESS_BATCH` trials or [`PROGRESS_INTERVAL`], whichever first.
const PROGRESS_BATCH: u64 = 64;

/// Maximum staleness of a worker's published progress.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(100);

/// Timing instrumentation for one [`run_trials_ctl`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Wall-clock time of the whole batch (fan-out to join).
    pub wall: Duration,
    /// Trials executed.
    pub trials: u64,
    /// Worker threads used.
    pub workers: usize,
}

impl RunStats {
    /// Mean wall-clock time per trial (zero for an empty batch).
    pub fn per_trial(&self) -> Duration {
        if self.trials == 0 {
            Duration::ZERO
        } else {
            self.wall / self.trials.min(u64::from(u32::MAX)) as u32
        }
    }

    /// Trial throughput in trials per second (0.0 for an instant batch).
    pub fn trials_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.trials as f64 / secs
        } else {
            0.0
        }
    }
}

/// Run `trials` independent trials of `f` in parallel.
///
/// `f` receives `(trial_index, trial_seed)` and must be deterministic given
/// those. Results are returned sorted by trial index regardless of
/// completion order.
///
/// ```
/// use dcr_sim::runner::run_trials;
/// let results = run_trials(100, 42, |trial, seed| (trial, seed % 2));
/// assert_eq!(results.len(), 100);
/// assert_eq!(results[7].trial, 7);
/// ```
pub fn run_trials<T, F>(trials: u64, master_seed: u64, f: F) -> Vec<TrialOutcome<T>>
where
    T: Send,
    F: Fn(u64, u64) -> T + Sync,
{
    // A fresh token is never cancelled, so the only possible error is a
    // worker panic — re-raised here with its payload preserved, keeping
    // the panic contract for batch CLI callers. Long-lived callers (the
    // experiment server) use `run_trials_ctl` and get a typed error.
    match run_trials_ctl(trials, master_seed, f, |_, _| {}, &CancelToken::new()) {
        Ok((out, _)) => out,
        Err(e) => panic!("{e}"),
    }
}

/// [`run_trials`] with full control: batch [`RunStats`], progress
/// callbacks, cooperative cancellation via a [`CancelToken`], and typed
/// errors instead of panics.
///
/// `progress(completed, total)` is **batched**: each worker publishes its
/// completions to the shared counter (and invokes the callback) every
/// `PROGRESS_BATCH` trials or every `PROGRESS_INTERVAL` of wall clock,
/// whichever comes first, plus once at worker exit — so short-trial
/// batches do not serialize on an atomic + callback per trial. The
/// callback sees a monotonically non-decreasing completion count that is
/// guaranteed to *reach* `total`, but not every intermediate value; it may
/// be called concurrently from different workers (hence `Sync`); and it
/// must not assume trial-index order. Timing covers the whole batch
/// including thread fan-out and join, so `RunStats::wall` is an upper
/// bound on the sum of per-trial compute divided by effective parallelism.
///
/// Returns [`RunError::Cancelled`] if the token fires before the batch
/// completes (workers stop claiming new trials; in-flight trials finish),
/// and [`RunError::Panicked`] — with the captured panic payload — if any
/// trial closure panics. On error no partial result vector is returned:
/// trial outcomes are only meaningful as a complete, index-dense batch.
pub fn run_trials_ctl<T, F, P>(
    trials: u64,
    master_seed: u64,
    f: F,
    progress: P,
    cancel: &CancelToken,
) -> Result<(Vec<TrialOutcome<T>>, RunStats), RunError>
where
    T: Send,
    F: Fn(u64, u64) -> T + Sync,
    P: Fn(u64, u64) + Sync,
{
    let started = Instant::now();
    let seeds = SeedSeq::new(master_seed);
    let next = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let workers = worker_count(trials);
    crate::telemetry::TRIALS_STARTED.add(trials);

    // Each worker accumulates its outcomes privately; they are merged by
    // trial index into a pre-sized table at join. No lock on the trial
    // hot path, and no final sort.
    let mut slots: Vec<Option<TrialOutcome<T>>> = Vec::new();
    slots.resize_with(trials as usize, || None);
    // First captured worker panic payload, if any.
    let mut panicked: Option<String> = None;

    let scope_result = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|_| {
                    // Work-stealing via a shared atomic counter: trials can
                    // have very uneven durations (window sizes span
                    // decades), so static striping would leave threads idle.
                    let mut mine = Vec::new();
                    // Locally buffered completions, flushed in batches (see
                    // the progress contract above).
                    let mut unflushed = 0u64;
                    let mut last_flush = Instant::now();
                    loop {
                        if cancel.is_cancelled() {
                            break;
                        }
                        let trial = next.fetch_add(1, Ordering::Relaxed);
                        if trial >= trials {
                            break;
                        }
                        let seed = seeds.trial(trial).master();
                        let value = f(trial, seed);
                        mine.push(TrialOutcome { trial, seed, value });
                        unflushed += 1;
                        if unflushed >= PROGRESS_BATCH || last_flush.elapsed() >= PROGRESS_INTERVAL
                        {
                            let done =
                                completed.fetch_add(unflushed, Ordering::Relaxed) + unflushed;
                            crate::telemetry::TRIALS_COMPLETED.add(unflushed);
                            unflushed = 0;
                            last_flush = Instant::now();
                            progress(done, trials);
                        }
                    }
                    if unflushed > 0 {
                        let done = completed.fetch_add(unflushed, Ordering::Relaxed) + unflushed;
                        crate::telemetry::TRIALS_COMPLETED.add(unflushed);
                        progress(done, trials);
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(outcomes) => {
                    for outcome in outcomes {
                        let idx = outcome.trial as usize;
                        debug_assert!(slots[idx].is_none(), "trial {idx} ran twice");
                        slots[idx] = Some(outcome);
                    }
                }
                Err(payload) => {
                    // Capture the first payload; keep joining the rest so
                    // the scope winds down cleanly either way.
                    if panicked.is_none() {
                        panicked = Some(payload_text(payload.as_ref()));
                    }
                }
            }
        }
    });
    // The closure above joins every handle itself, so the scope can only
    // fail if the *closure* panicked — which it does not. Still, treat a
    // scope-level payload like a worker panic rather than unwrapping.
    if let Err(payload) = scope_result {
        if panicked.is_none() {
            panicked = Some(payload_text(payload.as_ref()));
        }
    }

    if let Some(payload) = panicked {
        crate::telemetry::TRIALS_PANICKED.inc();
        return Err(RunError::Panicked { payload });
    }
    // A token that fired only after every trial had already completed
    // loses the race benignly: the batch is whole, so return it.
    if cancel.is_cancelled() && slots.iter().any(Option::is_none) {
        let done = completed.load(Ordering::Relaxed);
        crate::telemetry::TRIALS_CANCELLED.add(trials.saturating_sub(done));
        return Err(RunError::Cancelled { completed: done });
    }

    let out: Vec<TrialOutcome<T>> = slots
        .into_iter()
        .map(|s| s.expect("every claimed trial completes"))
        .collect();
    let stats = RunStats {
        wall: started.elapsed(),
        trials,
        workers,
    };
    Ok((out, stats))
}

/// Run trials and count how many satisfy `pred`. Returns `(hits, trials)`.
pub fn count_trials<F>(trials: u64, master_seed: u64, f: F) -> (u64, u64)
where
    F: Fn(u64, u64) -> bool + Sync,
{
    let hits = run_trials(trials, master_seed, f)
        .into_iter()
        .filter(|t| t.value)
        .count() as u64;
    (hits, trials)
}

/// One branch of a checkpointed sweep: the adversary the restored suffix
/// runs under (see [`run_branched`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BranchSpec {
    /// Human-readable branch label (travels into lineage records).
    pub label: String,
    /// The perturbed adversary for this branch's suffix.
    pub adversary: AdversarySpec,
    /// Jam success probability for the perturbed adversary.
    pub p_jam: f64,
}

/// The result of [`run_branched`]: the shared-prefix checkpoint plus one
/// finished report per branch.
#[derive(Debug)]
pub struct BranchedRun {
    /// The checkpoint every branch was forked from.
    pub checkpoint: Checkpoint,
    /// The slot boundary the prefix actually paused at. May exceed the
    /// requested prefix length: the boundary check is a soft target an
    /// O(1) gap skip can overshoot (see [`Engine::run_to`]).
    pub prefix_slot: u64,
    /// One completed report per branch, in branch order.
    pub reports: Vec<SimReport>,
}

/// Simulate a shared prefix once, then fan the suffix out across `k`
/// adversary perturbations in parallel.
///
/// The prefix engine is built from `(config, seed, jobs, factory)` with
/// the base adversary installed, run to the `prefix_slots` boundary, and
/// snapshotted. Each branch then rebuilds the same engine, restores the
/// checkpoint, swaps in its perturbed adversary via
/// [`Engine::swap_adversary`], and runs to completion — so a sweep of `k`
/// branches costs one prefix plus `k` suffixes instead of `k` full runs.
///
/// **Bit-identity contract:** each branch's report is byte-identical to an
/// uninterrupted run that calls `run_to(prefix_slots)`, swaps to the same
/// adversary, and finishes (modulo wall-clock `engine_nanos`); the
/// checkpoint equivalence suite enforces this. The engine must satisfy the
/// [`Engine::snapshot`] requirements: no trace, no probes, and live
/// protocols that implement state capture.
///
/// Branches run on the Monte-Carlo worker pool (work-stealing, same
/// thread-count rules as [`run_trials`]). A branch-worker panic is
/// propagated; a restore refusal (which indicates a bug or a
/// non-checkpointable feature, never a data race) is returned as the
/// first error encountered in branch order.
#[allow(clippy::too_many_arguments)] // one flat call is the whole API; a builder would obscure it
pub fn run_branched<F>(
    config: &EngineConfig,
    seed: u64,
    jobs: &[JobSpec],
    factory: F,
    base_adversary: &AdversarySpec,
    base_p_jam: f64,
    prefix_slots: u64,
    branches: &[BranchSpec],
) -> Result<BranchedRun, CheckpointError>
where
    F: Fn(&JobSpec) -> Box<dyn Protocol> + Sync,
{
    // Shared prefix: simulated exactly once.
    let mut prefix = Engine::new(config.clone(), seed);
    prefix.add_jobs(jobs, |s| factory(s));
    prefix.set_jammer(base_adversary.jammer(base_p_jam));
    let prefix_slot = prefix.run_to(prefix_slots);
    let checkpoint = prefix.snapshot()?;
    drop(prefix);

    // Suffix fan-out: work-stealing over branch indices, like
    // `run_trials_ctl` (branch suffixes share the same uneven-duration
    // concern once adversaries diverge).
    let workers = worker_count(branches.len() as u64);
    let next = AtomicU64::new(0);
    let slots: Mutex<Vec<Option<Result<SimReport, CheckpointError>>>> =
        Mutex::new((0..branches.len()).map(|_| None).collect());
    crossbeam::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= branches.len() {
                    break;
                }
                let spec = &branches[i];
                // Rebuild the prefix engine's exact inputs, then replay
                // the checkpoint over them and perturb the future.
                let mut e = Engine::new(config.clone(), seed);
                e.add_jobs(jobs, |s| factory(s));
                e.set_jammer(base_adversary.jammer(base_p_jam));
                let out = e.restore(&checkpoint).map(|()| {
                    e.swap_adversary(spec.adversary.adversary(), spec.p_jam);
                    let report = e.finish();
                    crate::telemetry::BRANCH_RUNS.add(1);
                    report
                });
                slots.lock().expect("branch slots poisoned")[i] = Some(out);
            });
        }
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));

    let mut reports = Vec::with_capacity(branches.len());
    for out in slots.into_inner().expect("branch slots poisoned") {
        reports.push(out.expect("every branch index is claimed exactly once")?);
    }
    Ok(BranchedRun {
        checkpoint,
        prefix_slot,
        reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn results_sorted_and_complete() {
        let r = run_trials(257, 9, |t, _| t * 2);
        assert_eq!(r.len(), 257);
        for (i, out) in r.iter().enumerate() {
            assert_eq!(out.trial, i as u64);
            assert_eq!(out.value, (i as u64) * 2);
        }
    }

    #[test]
    fn seeds_are_deterministic_across_runs() {
        let a = run_trials(32, 7, |_, seed| seed);
        let b = run_trials(32, 7, |_, seed| seed);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.value, y.value);
        }
    }

    #[test]
    fn seeds_differ_across_trials() {
        let r = run_trials(64, 7, |_, seed| seed);
        let mut seen = std::collections::HashSet::new();
        for out in r {
            assert!(seen.insert(out.value));
        }
    }

    #[test]
    fn parallel_equals_sequential_semantics() {
        // Each trial's output depends only on its seed; parallelism must not
        // change anything.
        let f = |_t: u64, seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.gen_range(0..1000u32)
        };
        let a: Vec<u32> = run_trials(100, 3, f).into_iter().map(|t| t.value).collect();
        let b: Vec<u32> = run_trials(100, 3, f).into_iter().map(|t| t.value).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn count_trials_counts() {
        let (hits, total) = count_trials(100, 11, |t, _| t % 4 == 0);
        assert_eq!(total, 100);
        assert_eq!(hits, 25);
    }

    #[test]
    fn zero_trials_is_empty() {
        let r = run_trials(0, 1, |_, _| ());
        assert!(r.is_empty());
    }

    #[test]
    fn instrumented_run_reports_stats_and_progress() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let max_seen = AtomicU64::new(0);
        let calls = AtomicU64::new(0);
        let (out, stats) = run_trials_ctl(
            64,
            5,
            |t, _| t,
            |done, total| {
                assert_eq!(total, 64);
                assert!(done >= 1 && done <= total);
                max_seen.fetch_max(done, Ordering::Relaxed);
                calls.fetch_add(1, Ordering::Relaxed);
            },
            &CancelToken::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 64);
        assert_eq!(stats.trials, 64);
        assert!(stats.workers >= 1);
        // Progress is batched: fewer callbacks than trials (at most one
        // per trial even degenerately), but the published count must reach
        // the total by the final flush.
        let n_calls = calls.load(Ordering::Relaxed);
        assert!((1..=64).contains(&n_calls), "calls={n_calls}");
        assert_eq!(max_seen.load(Ordering::Relaxed), 64);
        // Wall-clock is nonzero (the batch did real work) and per-trial
        // time is consistent with it.
        assert!(stats.wall > Duration::ZERO);
        assert!(stats.per_trial() <= stats.wall);
    }

    #[test]
    fn progress_batches_but_reaches_total() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // 200 instant trials: with batching at 64, a lone worker would
        // flush at 64, 128, 192, and exit — far fewer than 200 callbacks,
        // yet the last one must still report 200/200.
        let calls = AtomicU64::new(0);
        let max_seen = AtomicU64::new(0);
        let (out, _) = run_trials_ctl(
            200,
            23,
            |t, _| t,
            |done, total| {
                assert_eq!(total, 200);
                calls.fetch_add(1, Ordering::Relaxed);
                max_seen.fetch_max(done, Ordering::Relaxed);
            },
            &CancelToken::new(),
        )
        .unwrap();
        assert_eq!(out.len(), 200);
        assert_eq!(max_seen.load(Ordering::Relaxed), 200);
        // Strictly fewer callbacks than trials unless 100ms elapses per
        // trial or >50 workers each exit-flush — neither happens for
        // no-op closures on any plausible machine.
        assert!(calls.load(Ordering::Relaxed) < 200);
    }

    #[test]
    fn worker_override_is_respected() {
        // The override is process-wide state; this test owns it briefly
        // and restores the default before returning.
        set_worker_override(Some(3));
        assert_eq!(configured_workers(1000), 3);
        assert_eq!(configured_workers(2), 2); // still capped by trials
        let (_, stats) = run_trials_ctl(100, 31, |t, _| t, |_, _| {}, &CancelToken::new()).unwrap();
        set_worker_override(None);
        assert_eq!(stats.workers, 3);
        assert!(configured_workers(1000) >= 1);
    }

    #[test]
    fn worker_panic_is_captured_as_typed_error() {
        let err = run_trials_ctl(
            8,
            3,
            |t, _| {
                if t == 5 {
                    panic!("trial 5 exploded: bad window");
                }
                t
            },
            |_, _| {},
            &CancelToken::new(),
        )
        .unwrap_err();
        match err {
            RunError::Panicked { payload } => {
                assert!(
                    payload.contains("trial 5 exploded"),
                    "payload lost: {payload:?}"
                );
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "trial 2 exploded")]
    fn legacy_entry_point_panics_with_payload() {
        // The panicking wrapper must re-raise with the payload text, not
        // a generic "worker panicked" message.
        let _ = run_trials(4, 3, |t, _| {
            if t == 2 {
                panic!("trial 2 exploded");
            }
            t
        });
    }

    #[test]
    fn cancellation_stops_the_batch() {
        let token = CancelToken::new();
        let t2 = token.clone();
        // Cancel from inside trial 0; workers observe the flag between
        // trials, so far fewer than the full 10_000 run.
        let err = run_trials_ctl(
            10_000,
            7,
            move |_, _| {
                t2.cancel();
                std::thread::sleep(Duration::from_millis(1));
            },
            |_, _| {},
            &token,
        )
        .unwrap_err();
        match err {
            RunError::Cancelled { completed } => {
                assert!(completed < 10_000, "cancel ignored: {completed} trials ran");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(token.is_cancelled());
    }

    #[test]
    fn late_cancel_still_returns_full_batch() {
        // The token fires during the final (only) trial: every slot is
        // filled by wind-down, so the whole batch is preferred over the
        // cancellation error.
        let token = CancelToken::new();
        let t2 = token.clone();
        let run = move |t: u64, _seed: u64| {
            t2.cancel();
            t
        };
        let (out, _) = run_trials_ctl(1, 11, run, |_, _| {}, &token)
            .expect("complete batch must win over a late cancel");
        assert_eq!(out.len(), 1);
        assert!(token.is_cancelled());
    }

    #[test]
    fn ctl_matches_plain_results() {
        let f = |_t: u64, seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.gen_range(0..1_000_000u64)
        };
        let plain: Vec<u64> = run_trials(50, 17, f).into_iter().map(|t| t.value).collect();
        let (ctl, _) = run_trials_ctl(50, 17, f, |_, _| {}, &CancelToken::new()).unwrap();
        let ctl: Vec<u64> = ctl.into_iter().map(|t| t.value).collect();
        assert_eq!(plain, ctl);
    }

    #[test]
    fn empty_batch_stats() {
        let (out, stats) = run_trials_ctl(0, 1, |_, _| (), |_, _| {}, &CancelToken::new()).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.trials, 0);
        assert_eq!(stats.per_trial(), Duration::ZERO);
    }

    mod branched {
        use super::super::*;
        use crate::checkpoint::{StatePack, StateReader};
        use crate::engine::{Action, JobCtx};
        use crate::jamming::JamPolicy;
        use crate::message::Payload;
        use crate::slot::Feedback;
        use rand::RngCore;

        /// Persistent ALOHA with checkpoint support: transmit with
        /// probability `p` every slot until delivered.
        struct Aloha {
            p: f64,
            succeeded: bool,
        }
        impl Aloha {
            fn new() -> Self {
                Self {
                    p: 0.1,
                    succeeded: false,
                }
            }
        }
        impl crate::engine::Protocol for Aloha {
            fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
                if !self.succeeded && rand::Rng::gen_bool(rng, self.p) {
                    Action::Transmit(Payload::Data(ctx.id))
                } else {
                    Action::Sleep
                }
            }
            fn on_feedback(&mut self, ctx: &JobCtx, fb: &Feedback, _rng: &mut dyn RngCore) {
                if let Feedback::Success { src, payload } = fb {
                    if *src == ctx.id && payload.is_data() {
                        self.succeeded = true;
                    }
                }
            }
            fn is_done(&self) -> bool {
                self.succeeded
            }
            fn save_state(&self) -> Option<Vec<u64>> {
                let mut p = StatePack::new();
                p.flag(self.succeeded);
                Some(p.finish())
            }
            fn restore_state(&mut self, state: &[u64]) -> bool {
                let mut r = StateReader::new(state);
                let Some(s) = r.flag() else { return false };
                if !r.done() {
                    return false;
                }
                self.succeeded = s;
                true
            }
        }

        fn jobs() -> Vec<JobSpec> {
            // Releases straddle the slot-500 branch point so the prefix
            // pauses with live, pending, and retired jobs all present.
            (0..24u32)
                .map(|i| {
                    let release = u64::from(i) * 60;
                    JobSpec::new(i, release, release + 600)
                })
                .collect()
        }

        #[test]
        fn branches_match_uninterrupted_runs() {
            let base = AdversarySpec::Policy(JamPolicy::Never);
            let branches: Vec<BranchSpec> = [0.0, 0.3, 0.7]
                .iter()
                .map(|&p_jam| BranchSpec {
                    label: format!("p{p_jam}"),
                    adversary: AdversarySpec::Policy(JamPolicy::AllSuccesses),
                    p_jam,
                })
                .collect();
            let jobs = jobs();
            let config = EngineConfig::default();
            let out = run_branched(
                &config,
                99,
                &jobs,
                |_s| Box::new(Aloha::new()),
                &base,
                0.0,
                500,
                &branches,
            )
            .expect("branched run");
            assert_eq!(out.reports.len(), branches.len());
            assert!(out.prefix_slot >= 500);
            // Reference: uninterrupted run with the same swap at the same
            // slot must agree bit-for-bit (modulo wall-clock nanos).
            for (spec, got) in branches.iter().zip(&out.reports) {
                let mut e = Engine::new(config.clone(), 99);
                e.add_jobs(&jobs, |_s| Box::new(Aloha::new()));
                e.set_jammer(base.jammer(0.0));
                let paused = e.run_to(500);
                assert_eq!(paused, out.prefix_slot);
                e.swap_adversary(spec.adversary.adversary(), spec.p_jam);
                let mut want = e.finish();
                want.engine_nanos = 0;
                let mut got = got.clone();
                got.engine_nanos = 0;
                assert_eq!(
                    serde_json::to_string(&want).unwrap(),
                    serde_json::to_string(&got).unwrap(),
                    "branch {}",
                    spec.label
                );
            }
            // Branch 0 keeps p_jam = 0: identical channel to a plain
            // uninterrupted run with the base adversary throughout.
            let mut e = Engine::new(config, 99);
            e.add_jobs(&jobs, |_s| Box::new(Aloha::new()));
            e.set_jammer(base.jammer(0.0));
            let plain = e.run();
            assert_eq!(plain.outcomes(), out.reports[0].outcomes());
        }

        #[test]
        fn branch_spec_roundtrips_through_serde() {
            let spec = BranchSpec {
                label: "ge-hot".into(),
                adversary: AdversarySpec::Bursty {
                    p_enter: 0.05,
                    p_exit: 0.2,
                },
                p_jam: 0.8,
            };
            let text = serde_json::to_string(&spec).unwrap();
            let back: BranchSpec = serde_json::from_str(&text).unwrap();
            assert_eq!(spec, back);
        }
    }
}
