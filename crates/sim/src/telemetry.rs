//! Simulator-side telemetry: process-lifetime counters exported through
//! the workspace metrics registry (`dcr-telemetry`).
//!
//! Every counter here is a [`LazyCounter`]: a disarmed process (no
//! [`dcr_telemetry::install`] call, e.g. a batch CLI run) pays one
//! relaxed atomic load per *flush site* — never per slot or per trial —
//! and the counted hot paths execute the exact pre-telemetry instruction
//! stream. The flush sites are deliberately coarse:
//!
//! - trials started: once per [`run_trials_ctl`] batch entry (the
//!   suffixes of a `run_branched` sweep are one such batch);
//! - trials completed: at the runner's existing batched progress
//!   flushes (so telemetry piggybacks on work the runner already does);
//! - trials panicked / cancelled: once, on the error return path;
//! - slots simulated: once per slot-loop call (each `run_to` pause and
//!   `finish`), next to the [`slots_executed_total`] process counter.
//!
//! [`run_trials_ctl`]: crate::runner::run_trials_ctl
//! [`slots_executed_total`]: crate::engine::slots_executed_total

use dcr_telemetry::LazyCounter;

/// Trials handed to the parallel runner (counted at batch entry, before
/// any worker starts; a cancelled batch still "started" all its trials).
pub static TRIALS_STARTED: LazyCounter = LazyCounter::new(
    "dcr_sim_trials_started_total",
    "Monte-Carlo trials submitted to the parallel runner.",
);

/// Trials whose closure ran to completion (flushed in the runner's
/// progress batches, so briefly lags `started` during a batch).
pub static TRIALS_COMPLETED: LazyCounter = LazyCounter::new(
    "dcr_sim_trials_completed_total",
    "Monte-Carlo trials completed by the parallel runner.",
);

/// Batches aborted by a trial-closure panic.
pub static TRIALS_PANICKED: LazyCounter = LazyCounter::new(
    "dcr_sim_trials_panicked_total",
    "Monte-Carlo trials lost to a panicking trial closure.",
);

/// Trials never run because their batch was cancelled.
pub static TRIALS_CANCELLED: LazyCounter = LazyCounter::new(
    "dcr_sim_trials_cancelled_total",
    "Monte-Carlo trials abandoned by cooperative cancellation.",
);

/// Channel slots executed across every engine run (flushed at each
/// `run_to` pause and at `finish` — the registry mirror of
/// `engine::slots_executed_total`).
pub static SLOTS_SIMULATED: LazyCounter = LazyCounter::new(
    "dcr_sim_slots_simulated_total",
    "Channel slots executed across all engine runs.",
);

/// Checkpoints captured by `Engine::snapshot` (once per successful
/// snapshot — a refused snapshot counts nothing).
pub static CHECKPOINTS_SAVED: LazyCounter = LazyCounter::new(
    "dcr_sim_checkpoints_saved_total",
    "Engine checkpoints captured by snapshot().",
);

/// Checkpoints replayed onto fresh engines by `Engine::restore` (once per
/// successful restore).
pub static CHECKPOINTS_RESTORED: LazyCounter = LazyCounter::new(
    "dcr_sim_checkpoints_restored_total",
    "Engine checkpoints replayed by restore().",
);

/// Branch runs executed by `runner::run_branched` (one per branch suffix,
/// counted as each branch completes).
pub static BRANCH_RUNS: LazyCounter = LazyCounter::new(
    "dcr_sim_branch_runs_total",
    "Checkpoint-branched suffix runs completed.",
);
