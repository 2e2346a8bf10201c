//! # dcr-sim — a slotted multiple-access channel simulator
//!
//! This crate implements the communication substrate assumed by
//! *Contention Resolution with Message Deadlines* (Agrawal, Bender, Fineman,
//! Gilbert, Young — SPAA 2020): a synchronized, slotted multiple-access
//! channel with **collision detection** and trinary feedback.
//!
//! ## Model
//!
//! Time is a sequence of synchronized **slots**. In each slot every live job
//! either transmits a message, listens, or sleeps. The channel resolves the
//! slot as follows:
//!
//! * **zero** transmissions → the slot is [`slot::Feedback::Silent`];
//! * **exactly one** transmission → the slot is a [`slot::Feedback::Success`] and
//!   every listener (including the transmitter) receives the message content;
//! * **two or more** transmissions → a collision: the slot is
//!   [`slot::Feedback::Noise`] and *all* transmissions in the slot fail.
//!
//! A pluggable [`jamming`] adversary may additionally convert a slot into
//! noise; following the paper (Section 3, "Jamming") the adversary may
//! inspect the slot — even message contents — before deciding, and a jamming
//! attempt succeeds with a constant probability `p_jam`.
//!
//! ## Jobs and windows
//!
//! A [`job::JobSpec`] is a unit-length message with a release slot `r` and a
//! deadline `d`; its **window** is the half-open slot interval `[r, d)` of
//! size `w = d - r`. The job may only interact with the channel during its
//! window. Jobs have no IDs visible to each other and no global clock: the
//! [`engine::JobCtx`] handed to a [`engine::Protocol`] exposes only the
//! job's *local* age and window size. (For the power-of-2-aligned special
//! case of Section 3 of the paper, the engine can be configured to expose an
//! aligned global clock — alignment is exactly the assumption that makes one
//! implicitly available.)
//!
//! ## Determinism
//!
//! Every seed derives from a single master seed ([`rng::SeedSeq`]), so any
//! run — including parallel Monte-Carlo batches in [`runner`] — is exactly
//! replayable. Inside a run every draw — each job's, class's and cohort's
//! coins and the jammer's — comes from a counter-based generator
//! ([`crng::CounterRng`]) positioned at `(key, slot, phase)`: a pure
//! function of its position, so no generator state outlives a slot and a
//! checkpoint carries none.
//!
//! ## Quick example
//!
//! ```
//! use dcr_sim::prelude::*;
//!
//! /// A trivial protocol: transmit the data message in the first slot.
//! struct FirstSlot;
//! impl Protocol for FirstSlot {
//!     fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn rand::RngCore) -> Action {
//!         if ctx.local_time == 0 {
//!             Action::Transmit(Payload::Data(ctx.id))
//!         } else {
//!             Action::Listen
//!         }
//!     }
//! }
//!
//! let jobs = vec![JobSpec::new(0, 0, 4)];
//! let mut engine = Engine::new(EngineConfig::default(), 42);
//! engine.add_job(jobs[0], Box::new(FirstSlot));
//! let report = engine.run();
//! assert!(report.outcome(0).is_success());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod classes;
pub mod cohort;
pub mod crng;
pub mod duty;
pub mod engine;
pub mod gantt;
pub mod jamming;
pub mod job;
pub(crate) mod kernel;
pub mod message;
pub mod metrics;
pub mod probe;
pub mod rng;
pub mod runner;
pub mod sched;
pub mod slot;
pub mod telemetry;
pub mod trace;

// The serializable run-description types, re-exported at the crate root
// so service layers (the experiment server, the `--spec` CLI path) can
// name a full run as data without reaching into submodules.
pub use engine::{EngineConfig, Fidelity, Scheduling};
pub use jamming::AdversarySpec;
pub use probe::{ProbeSpec, SinkSpec};
pub use runner::{CancelToken, RunError};

/// Convenient glob-import of the simulator surface.
pub mod prelude {
    pub use crate::checkpoint::{Checkpoint, CheckpointError};
    pub use crate::classes::{ClassCtx, ClassDriver, ClassEvent, ClassSlot};
    pub use crate::engine::{Action, Engine, EngineConfig, JobCtx, Protocol, Scheduling};
    pub use crate::jamming::{
        Adversary, AdversarySpec, BudgetedJammer, GilbertElliott, JamPolicy, Jammer,
        ReactiveJammer, SlotView,
    };
    pub use crate::job::{JobId, JobSpec};
    pub use crate::message::{ControlMsg, Payload};
    pub use crate::metrics::{JamStats, JobOutcome, SchedStats, SimReport, SlotCounts};
    pub use crate::probe::{
        EventBuf, ProbeEvent, ProbeOutput, ProbeRecord, ProbeReport, ProbeSink, ProbeSpec, SinkSpec,
    };
    pub use crate::rng::SeedSeq;
    pub use crate::runner::{
        run_branched, run_trials, BranchSpec, BranchedRun, CancelToken, RunError, TrialOutcome,
    };
    pub use crate::slot::Feedback;
    pub use crate::trace::{SlotOutcome, SlotRecord};
}
