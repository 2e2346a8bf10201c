//! Declarative experiment specs and the one spec→run code path.
//!
//! An [`ExperimentSpec`] names a complete Monte-Carlo run as plain data:
//! protocol, workload, fidelity, scheduling, adversary, probe
//! configuration, master seed, and trial count. [`run_spec`] executes it
//! on the trial arena and produces an [`ExperimentReport`] whose
//! deterministic view is a pure function of the spec — which is what lets
//! the experiment server content-address finished results ([`cache_key`])
//! and serve repeated submissions from cache, and what makes the server's
//! answer byte-identical to an in-process run of the same spec.
//!
//! Both the `experiments --spec FILE` CLI path and `dcr-server` call into
//! this module; neither carries its own spec→engine plumbing.

use dcr_baselines::{BinaryExponentialBackoff, FixedProbability, Sawtooth};
use dcr_core::punctual::PunctualParams;
use dcr_core::uniform::Uniform;
use dcr_core::{AlignedParams, AlignedProtocol, PunctualProtocol};
use dcr_sim::engine::Protocol;
use dcr_sim::prelude::*;
use dcr_sim::runner::{run_trials_ctl, CancelToken, RunError, RunStats, TrialOutcome};
use dcr_sim::{AdversarySpec, EngineConfig, Fidelity, ProbeSpec, Scheduling, SinkSpec};
use dcr_stats::{content_hash, ExperimentReport, Proportion, Summary};
use dcr_workloads::{generators, Instance};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::config::ExpConfig;
use crate::report::ReportBuilder;

/// Which contention-resolution protocol every job in the run executes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProtocolSpec {
    /// `attempts` uniformly random transmission slots in the window
    /// (Section 2 baseline; `attempts = 1` is the classic single shot).
    Uniform {
        /// Number of uniformly chosen transmission attempts (≥ 1).
        attempts: u64,
    },
    /// The Section 3 ALIGNED protocol. Requires a power-of-2-aligned
    /// workload; the engine exposes the shared slot clock.
    Aligned {
        /// Batch-count slack multiplier (≥ 1).
        lambda: u64,
        /// Estimation confirmation threshold (power of two, ≥ 2).
        tau: u64,
        /// Smallest window class the schedule descends to (≥ 1).
        min_class: u32,
    },
    /// The Section 4 PUNCTUAL protocol (laptop-scale parameters). Runs
    /// without any shared clock.
    Punctual,
    /// Slotted-ALOHA baseline: transmit with fixed probability `p`.
    Aloha {
        /// Per-slot transmission probability, in `(0, 1]`.
        p: f64,
    },
    /// Binary exponential backoff baseline.
    Beb,
    /// Sawtooth backoff-backon baseline.
    Sawtooth,
}

/// Which arrival pattern the run simulates (maps onto
/// [`dcr_workloads::generators`]; the instance is built once per spec and
/// shared by every trial).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// `n` jobs all released at slot 0 with window `w` (one-shot batch).
    Batch {
        /// Number of jobs (≥ 1).
        n: u64,
        /// Window size in slots (≥ 1).
        w: u64,
    },
    /// `n` jobs released every `stride` slots, each with window `w`.
    Staggered {
        /// Number of jobs (≥ 1).
        n: u64,
        /// Release spacing in slots (≥ 1).
        stride: u64,
        /// Window size in slots (≥ 1).
        w: u64,
    },
    /// Harmonic window spread: job `j` gets window `j / gamma`.
    Harmonic {
        /// Number of jobs (≥ 1).
        n: u64,
        /// Inverse density parameter `1/gamma` (≥ 1).
        inv_gamma: u64,
    },
    /// Poisson arrivals at `rate` jobs/slot over `horizon` slots, window
    /// drawn uniformly from `windows`. Sampled deterministically from the
    /// spec seed.
    Poisson {
        /// Arrival rate in jobs per slot, in `(0, 1]`.
        rate: f64,
        /// Arrival horizon in slots (≥ 1).
        horizon: u64,
        /// Candidate window sizes (non-empty, each ≥ 1).
        windows: Vec<u64>,
    },
    /// `bursts` bursts of `burst_size` simultaneous jobs, one every
    /// `period` slots, each job with window `w`.
    Bursty {
        /// Jobs per burst (≥ 1).
        burst_size: u64,
        /// Slots between burst releases (≥ 1).
        period: u64,
        /// Window size in slots (≥ 1).
        w: u64,
        /// Number of bursts (≥ 1).
        bursts: u64,
    },
}

/// A spec's fidelity field: [`dcr_sim::Fidelity`] under its spec name.
pub use dcr_sim::Fidelity as FidelitySpec;
/// A spec's scheduling field: [`dcr_sim::Scheduling`] under its spec name.
pub use dcr_sim::Scheduling as SchedulingSpec;

/// An adversary plus the constant jam success probability of the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdversaryCell {
    /// Which jamming strategy to instantiate (fresh per trial).
    pub spec: AdversarySpec,
    /// Probability a jamming attempt converts the slot to noise, `[0, 1]`.
    pub p_jam: f64,
}

/// A complete, self-contained description of one Monte-Carlo experiment.
///
/// Everything that influences the measured numbers is in here; the
/// deterministic part of the resulting report is a pure function of this
/// struct (plus the code version), which is the contract the server's
/// content-addressed cache relies on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Protocol every job runs.
    pub protocol: ProtocolSpec,
    /// Arrival pattern.
    pub workload: WorkloadSpec,
    /// Simulation fidelity tier.
    pub fidelity: Fidelity,
    /// Slot-loop scheduling strategy.
    pub scheduling: Scheduling,
    /// Optional jamming adversary.
    pub adversary: Option<AdversaryCell>,
    /// Optional probe sinks, attached to trial 0 only (the probe layer is
    /// physics-neutral, so probed and unprobed trials agree bit-for-bit).
    pub probe: Option<ProbeSpec>,
    /// Optional hard cap on simulated slots per trial.
    pub max_slots: Option<u64>,
    /// Master seed; trial `t` derives its own seed from this.
    pub seed: u64,
    /// Monte-Carlo trial count (≥ 1).
    pub trials: u64,
}

/// A spec that names an impossible or out-of-range run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid experiment spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// Everything that can go wrong between a parsed spec and its report.
#[derive(Debug, Clone, PartialEq)]
pub enum RunSpecError {
    /// The spec failed validation before any slot was simulated.
    Invalid(SpecError),
    /// The Monte-Carlo batch did not complete (worker panic or cancel).
    Run(RunError),
}

impl std::fmt::Display for RunSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunSpecError::Invalid(e) => e.fmt(f),
            RunSpecError::Run(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RunSpecError {}

impl From<SpecError> for RunSpecError {
    fn from(e: SpecError) -> Self {
        RunSpecError::Invalid(e)
    }
}

impl From<RunError> for RunSpecError {
    fn from(e: RunError) -> Self {
        RunSpecError::Run(e)
    }
}

/// Output of one spec run: the structured report, the probe event stream
/// captured from trial 0 (empty unless the spec configured a probe), and
/// a short human-readable summary.
#[derive(Debug, Clone)]
pub struct SpecOutput {
    /// The structured artifact; `report.deterministic_view()` is a pure
    /// function of the spec.
    pub report: ExperimentReport,
    /// Probe events observed in trial 0 (the SSE stream's payload).
    pub events: Vec<ProbeRecord>,
    /// Rendered one-screen summary.
    pub text: String,
}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

impl ExperimentSpec {
    /// Check every range constraint the protocol/workload constructors
    /// would otherwise `assert!` on, so a bad spec is a typed error — not
    /// a worker panic — by the time it reaches the engine.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.trials == 0 {
            return Err(err("trials must be >= 1"));
        }
        match &self.protocol {
            ProtocolSpec::Uniform { attempts } if *attempts == 0 => {
                return Err(err("Uniform.attempts must be >= 1"));
            }
            ProtocolSpec::Aligned {
                lambda,
                tau,
                min_class,
            } => {
                if *lambda == 0 {
                    return Err(err("Aligned.lambda must be >= 1"));
                }
                if *tau < 2 || !tau.is_power_of_two() {
                    return Err(err("Aligned.tau must be a power of two >= 2"));
                }
                if *min_class == 0 {
                    return Err(err("Aligned.min_class must be >= 1"));
                }
            }
            ProtocolSpec::Aloha { p } if !(*p > 0.0 && *p <= 1.0) => {
                return Err(err("Aloha.p must be in (0, 1]"));
            }
            _ => {}
        }
        match &self.workload {
            WorkloadSpec::Batch { n, w } => {
                if *n == 0 || *w == 0 {
                    return Err(err("Batch.n and Batch.w must be >= 1"));
                }
            }
            WorkloadSpec::Staggered { n, stride, w } => {
                if *n == 0 || *stride == 0 || *w == 0 {
                    return Err(err("Staggered.n, .stride and .w must be >= 1"));
                }
            }
            WorkloadSpec::Harmonic { n, inv_gamma } => {
                if *n == 0 || *inv_gamma == 0 {
                    return Err(err("Harmonic.n and Harmonic.inv_gamma must be >= 1"));
                }
            }
            WorkloadSpec::Poisson {
                rate,
                horizon,
                windows,
            } => {
                if !(*rate > 0.0 && *rate <= 1.0) {
                    return Err(err("Poisson.rate must be in (0, 1] jobs/slot"));
                }
                if *horizon == 0 {
                    return Err(err("Poisson.horizon must be >= 1"));
                }
                if windows.is_empty() || windows.contains(&0) {
                    return Err(err("Poisson.windows must be non-empty with entries >= 1"));
                }
            }
            WorkloadSpec::Bursty {
                burst_size,
                period,
                w,
                bursts,
            } => {
                if *burst_size == 0 || *period == 0 || *w == 0 || *bursts == 0 {
                    return Err(err("Bursty fields must all be >= 1"));
                }
            }
        }
        if let Some(adv) = &self.adversary {
            if !(0.0..=1.0).contains(&adv.p_jam) {
                return Err(err("adversary.p_jam must be in [0, 1]"));
            }
        }
        for sink in self.probe.iter().flat_map(|p| &p.sinks) {
            match sink {
                SinkSpec::Ring { capacity: 0 } => {
                    return Err(err("probe Ring.capacity must be >= 1"));
                }
                SinkSpec::Sample { period: 0 } => {
                    return Err(err("probe Sample.period must be >= 1"));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Build the (trial-independent) job instance this spec describes.
    /// Poisson sampling is seeded from the spec seed, so the instance is
    /// a pure function of the spec.
    pub fn instance(&self) -> Instance {
        match &self.workload {
            WorkloadSpec::Batch { n, w } => generators::batch(*n as usize, *w),
            WorkloadSpec::Staggered { n, stride, w } => {
                generators::staggered(*n as usize, *stride, *w)
            }
            WorkloadSpec::Harmonic { n, inv_gamma } => {
                generators::harmonic(*n as usize, *inv_gamma)
            }
            WorkloadSpec::Poisson {
                rate,
                horizon,
                windows,
            } => {
                let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
                generators::poisson(*rate, *horizon, windows, &mut rng)
            }
            WorkloadSpec::Bursty {
                burst_size,
                period,
                w,
                bursts,
            } => generators::bursty(*burst_size as usize, *period, *w, *bursts as usize),
        }
    }

    /// The engine configuration this spec maps to (without the probe,
    /// which is attached to trial 0 only by [`run_spec_with`]).
    fn engine_config(&self) -> EngineConfig {
        let mut cfg = match self.protocol {
            // ALIGNED is the one protocol whose model grants a shared
            // slot clock; every other protocol must run without it.
            ProtocolSpec::Aligned { .. } => EngineConfig::aligned(),
            _ => EngineConfig::default(),
        };
        cfg.max_slots = self.max_slots;
        cfg.scheduling = self.scheduling;
        cfg.fidelity = self.fidelity;
        cfg
    }

    /// One boxed protocol instance for one job.
    fn protocol_instance(&self) -> Box<dyn Protocol> {
        match self.protocol {
            ProtocolSpec::Uniform { attempts } => Box::new(Uniform::new(attempts as usize)),
            ProtocolSpec::Aligned {
                lambda,
                tau,
                min_class,
            } => Box::new(AlignedProtocol::new(AlignedParams::new(
                lambda, tau, min_class,
            ))),
            ProtocolSpec::Punctual => Box::new(PunctualProtocol::new(PunctualParams::laptop())),
            ProtocolSpec::Aloha { p } => Box::new(FixedProbability::new(p)),
            ProtocolSpec::Beb => Box::new(BinaryExponentialBackoff::new()),
            ProtocolSpec::Sawtooth => Box::new(Sawtooth::new()),
        }
    }

    /// A short label for report titles and log lines.
    pub fn label(&self) -> String {
        let proto = match &self.protocol {
            ProtocolSpec::Uniform { attempts } => format!("UNIFORM(k={attempts})"),
            ProtocolSpec::Aligned {
                lambda,
                tau,
                min_class,
            } => format!("ALIGNED(λ={lambda},τ={tau},c₀={min_class})"),
            ProtocolSpec::Punctual => "PUNCTUAL".to_string(),
            ProtocolSpec::Aloha { p } => format!("ALOHA(p={p})"),
            ProtocolSpec::Beb => "BEB".to_string(),
            ProtocolSpec::Sawtooth => "SAWTOOTH".to_string(),
        };
        format!("{proto} on {}", self.instance().name)
    }
}

/// The code-version component of the cache key: a hash of every source
/// file compiled into the server and of the compiler that built it,
/// computed by `build.rs` at compile time. Any edit, committed or not,
/// changes it on the next build, and it needs neither `git` nor a
/// checkout at run time.
pub fn code_version() -> &'static str {
    env!("DCR_CODE_VERSION")
}

/// Content-address a spec under a code version: SHA-256 over the
/// canonical JSON of `{code_version, spec}`. The spec is re-serialized
/// from its typed form and the canonical renderer sorts keys, so two JSON
/// submissions that differ only in field order produce the same key;
/// changing any semantic field — or the code version — changes it.
pub fn cache_key(spec: &ExperimentSpec, code_version: &str) -> String {
    let envelope = serde::Value::Object(vec![
        (
            "code_version".to_string(),
            serde::Value::String(code_version.to_string()),
        ),
        ("spec".to_string(), spec.to_value()),
    ]);
    content_hash(&envelope)
}

/// Per-trial aggregate the spec runner folds over.
struct TrialStat {
    successes: u64,
    jobs: u64,
    slots: u64,
    success_fraction: f64,
    latency_sum: u64,
    latency_n: u64,
    accesses_sum: f64,
    events: Vec<ProbeRecord>,
}

/// Full submission-time validation: range checks plus workload
/// construction and the protocol/workload compatibility constraints —
/// everything [`run_spec_with`] verifies before simulating a slot.
/// Returns the built instance so the caller (or the runner) doesn't pay
/// for it twice.
pub fn check(spec: &ExperimentSpec) -> Result<Instance, SpecError> {
    spec.validate()?;
    let instance = spec.instance();
    if let ProtocolSpec::Aligned { min_class, .. } = spec.protocol {
        if !instance.is_aligned() {
            return Err(err(
                "Aligned protocol requires a power-of-2-aligned workload \
                 (every window a power of two, every release a multiple of it)",
            ));
        }
        // A window below 2^min_class has no class the protocol can run.
        if let Some(j) = instance
            .jobs
            .iter()
            .find(|j| j.window().checked_shr(min_class).unwrap_or(0) == 0)
        {
            return Err(err(format!(
                "Aligned.min_class {min_class} exceeds the workload: job {} has window {} < 2^{min_class}",
                j.id,
                j.window()
            )));
        }
    }
    Ok(instance)
}

/// Run a spec with default hooks (no progress, no cancellation).
pub fn run_spec(spec: &ExperimentSpec) -> Result<SpecOutput, RunSpecError> {
    run_spec_with(spec, |_, _| {}, &CancelToken::new())
}

/// Run the trial-0 instance of `spec` to a checkpoint at `prefix_slots`,
/// then fan the suffix across `branches` — one perturbed adversary per
/// branch, all amortizing a single shared prefix simulation.
///
/// This is the engine behind the server's `POST /experiments/:id/branch`.
/// Branch reports are single-run [`dcr_sim::prelude::SimReport`]s from
/// the spec's trial-0 seed, not Monte-Carlo aggregates; each is
/// bit-identical to an uninterrupted run that swapped adversaries at the
/// same slot. Probed specs are rejected (checkpoints exclude observer
/// state), as are specs whose protocol does not implement state capture
/// (the checkpoint layer reports those as unsupported).
pub fn branch_spec(
    spec: &ExperimentSpec,
    prefix_slots: u64,
    branches: &[AdversaryCell],
) -> Result<BranchedRun, RunSpecError> {
    let instance = check(spec)?;
    if branches.is_empty() {
        return Err(err("branch request needs at least one branch").into());
    }
    for (i, cell) in branches.iter().enumerate() {
        if !(0.0..=1.0).contains(&cell.p_jam) {
            return Err(err(format!("branch {i}: p_jam must be in [0, 1]")).into());
        }
    }
    if spec.probe.is_some() {
        return Err(err("probed specs cannot be checkpoint-branched").into());
    }
    let (base_adv, base_p_jam) = match &spec.adversary {
        Some(cell) => (cell.spec, cell.p_jam),
        None => (AdversarySpec::Policy(JamPolicy::Never), 0.0),
    };
    let specs: Vec<BranchSpec> = branches
        .iter()
        .enumerate()
        .map(|(i, cell)| BranchSpec {
            label: format!("branch{i}"),
            adversary: cell.spec,
            p_jam: cell.p_jam,
        })
        .collect();
    // The same per-trial seed derivation the Monte-Carlo arena uses, so
    // branch reports correspond exactly to the cached run's trial 0.
    let seed0 = SeedSeq::new(spec.seed).trial(0).master();
    run_branched(
        &spec.engine_config(),
        seed0,
        &instance.jobs,
        |_| spec.protocol_instance(),
        &base_adv,
        base_p_jam,
        prefix_slots,
        &specs,
    )
    .map_err(|e| RunSpecError::Invalid(err(format!("checkpoint branch: {e}"))))
}

/// Run a spec on the trial arena with progress and cancellation hooks —
/// the single spec→run code path shared by the `--spec` CLI mode and the
/// experiment server's worker pool.
///
/// `progress(done, total)` fires on the runner's batched cadence. The
/// report's deterministic view depends only on the spec (timing and
/// provenance are volatile by design).
pub fn run_spec_with<P>(
    spec: &ExperimentSpec,
    progress: P,
    cancel: &CancelToken,
) -> Result<SpecOutput, RunSpecError>
where
    P: Fn(u64, u64) + Sync,
{
    run_spec_timed(spec, progress, cancel).map(|(out, _)| out)
}

/// [`run_spec_with`], also returning the trial batch's [`RunStats`].
fn run_spec_timed<P>(
    spec: &ExperimentSpec,
    progress: P,
    cancel: &CancelToken,
) -> Result<(SpecOutput, RunStats), RunSpecError>
where
    P: Fn(u64, u64) + Sync,
{
    let instance = check(spec)?;
    let cfg = ExpConfig {
        seed: spec.seed,
        trials: spec.trials,
        quick: false,
        probe_dir: None,
    };
    // Built before the trials run, so its timing and slot count cover them.
    let b = ReportBuilder::new("spec", spec.label(), &cfg);

    // Trial 0 carries the probe sinks; an event-log sink is appended when
    // missing so the server always has a record stream to serve. The
    // probe layer is physics-neutral, so this changes no measured number.
    let probed_config = spec.probe.as_ref().map(|p| {
        let mut cfg = spec.engine_config();
        let mut sinks = p.sinks.clone();
        if !sinks.iter().any(|s| matches!(s, SinkSpec::Events)) {
            sinks.push(SinkSpec::Events);
        }
        cfg.probe = Some(ProbeSpec { sinks });
        cfg
    });
    let base_config = spec.engine_config();

    let trial = |t: u64, seed: u64| -> TrialStat {
        let config = match (&probed_config, t) {
            (Some(cfg), 0) => cfg.clone(),
            _ => base_config.clone(),
        };
        let mut engine = Engine::new(config, seed);
        if let Some(adv) = &spec.adversary {
            engine.set_jammer(adv.spec.jammer(adv.p_jam));
        }
        engine.add_jobs(&instance.jobs, |_| spec.protocol_instance());
        let report = engine.run();
        let latencies = report.latencies();
        let events = report
            .probes
            .as_ref()
            .and_then(|p| p.events())
            .map(<[ProbeRecord]>::to_vec)
            .unwrap_or_default();
        let mean_accesses = report.mean_accesses();
        TrialStat {
            successes: report.successes() as u64,
            jobs: instance.jobs.len() as u64,
            slots: report.slots_run,
            success_fraction: report.success_fraction(),
            latency_sum: latencies.iter().sum(),
            latency_n: latencies.len() as u64,
            accesses_sum: if mean_accesses.is_finite() {
                mean_accesses * instance.jobs.len() as f64
            } else {
                0.0
            },
            events,
        }
    };

    let (outcomes, stats): (Vec<TrialOutcome<TrialStat>>, RunStats) =
        run_trials_ctl(spec.trials, spec.seed, trial, progress, cancel)?;

    Ok((assemble_output(b, spec, &instance, outcomes, stats), stats))
}

fn assemble_output(
    mut b: ReportBuilder,
    spec: &ExperimentSpec,
    instance: &Instance,
    outcomes: Vec<TrialOutcome<TrialStat>>,
    stats: RunStats,
) -> SpecOutput {
    b.param("protocol", format!("{:?}", spec.protocol))
        .param("workload", format!("{:?}", spec.workload))
        .param("fidelity", format!("{:?}", spec.fidelity))
        .param("scheduling", format!("{:?}", spec.scheduling))
        .param(
            "adversary",
            spec.adversary
                .as_ref()
                .map(|a| format!("{:?} p_jam={}", a.spec, a.p_jam))
                .unwrap_or_else(|| "none".to_string()),
        )
        .param("jobs", instance.jobs.len())
        .param("trials", spec.trials);

    let mut successes = 0u64;
    let mut jobs = 0u64;
    let mut slots = 0u64;
    let mut latency_sum = 0u64;
    let mut latency_n = 0u64;
    let mut accesses_sum = 0.0f64;
    let mut fractions = Summary::new();
    let mut events = Vec::new();
    for o in &outcomes {
        successes += o.value.successes;
        jobs += o.value.jobs;
        slots += o.value.slots;
        latency_sum += o.value.latency_sum;
        latency_n += o.value.latency_n;
        accesses_sum += o.value.accesses_sum;
        fractions.push(o.value.success_fraction);
        if o.trial == 0 {
            events = o.value.events.clone();
        }
    }

    let pooled = Proportion::new(successes, jobs);
    b.prop("all", "job_success_rate", &pooled)
        .row("all", "mean_success_fraction", fractions.mean())
        .row("all", "slots_per_trial", slots as f64 / spec.trials as f64);
    if fractions.n() > 1 {
        b.row("all", "sd_success_fraction", fractions.std_dev());
    }
    if latency_n > 0 {
        b.row(
            "all",
            "mean_latency_slots",
            latency_sum as f64 / latency_n as f64,
        );
    }
    if jobs > 0 {
        b.row("all", "mean_accesses", accesses_sum / jobs as f64);
    }
    b.add_trials(spec.trials);

    let text = format!(
        "{label}\n\
         trials            {trials}\n\
         jobs/trial        {jobs_per}\n\
         job success rate  {rate:.4} (Wilson95 [{lo:.4}, {hi:.4}])\n\
         mean latency      {latency}\n\
         slots/trial       {spt:.1}\n\
         wall              {wall:.2?} ({workers} workers)\n",
        label = spec.label(),
        trials = spec.trials,
        jobs_per = instance.jobs.len(),
        rate = pooled.estimate(),
        lo = pooled.wilson95().0,
        hi = pooled.wilson95().1,
        latency = if latency_n > 0 {
            format!("{:.1} slots", latency_sum as f64 / latency_n as f64)
        } else {
            "n/a (no deliveries)".to_string()
        },
        spt = slots as f64 / spec.trials as f64,
        wall = stats.wall,
        workers = stats.workers,
    );

    let out = b.finish(text);
    SpecOutput {
        report: out.report,
        events,
        text: out.text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> ExperimentSpec {
        ExperimentSpec {
            protocol: ProtocolSpec::Aligned {
                lambda: 1,
                tau: 2,
                min_class: 6,
            },
            workload: WorkloadSpec::Batch { n: 8, w: 64 },
            fidelity: Fidelity::Exact,
            scheduling: Scheduling::EventDriven,
            adversary: Some(AdversaryCell {
                spec: AdversarySpec::Policy(JamPolicy::Never),
                p_jam: 0.0,
            }),
            probe: Some(ProbeSpec {
                sinks: vec![SinkSpec::Events],
            }),
            max_slots: Some(100_000),
            seed: 7,
            trials: 4,
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = quick_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn cache_key_ignores_json_field_order() {
        // The same run described twice with object fields in different
        // orders must parse to equal specs and hash to equal keys.
        let a = r#"{
            "protocol": {"Uniform": {"attempts": 1}},
            "workload": {"Batch": {"n": 4, "w": 16}},
            "fidelity": "Exact",
            "scheduling": "EventDriven",
            "adversary": null,
            "probe": null,
            "max_slots": null,
            "seed": 42,
            "trials": 10
        }"#;
        let b = r#"{
            "trials": 10,
            "seed": 42,
            "max_slots": null,
            "probe": null,
            "adversary": null,
            "scheduling": "EventDriven",
            "fidelity": "Exact",
            "workload": {"Batch": {"w": 16, "n": 4}},
            "protocol": {"Uniform": {"attempts": 1}}
        }"#;
        let sa: ExperimentSpec = serde_json::from_str(a).unwrap();
        let sb: ExperimentSpec = serde_json::from_str(b).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(cache_key(&sa, "v1"), cache_key(&sb, "v1"));
    }

    #[test]
    fn spec_missing_a_protocol_parameter_is_refused_at_parse() {
        // A dropped key is a decode error naming the field, not a NaN left
        // for the range check; absent `Option` fields still read as None.
        let spec = r#"{
            "protocol": {"Aloha": {}},
            "workload": {"Batch": {"n": 4, "w": 16}},
            "fidelity": "Exact",
            "scheduling": "EventDriven",
            "seed": 42,
            "trials": 10
        }"#;
        let err = serde_json::from_str::<ExperimentSpec>(spec).unwrap_err();
        assert!(err.to_string().contains("missing field `p`"), "{err}");
        let with_p = spec.replace(r#"{"Aloha": {}}"#, r#"{"Aloha": {"p": 0.5}}"#);
        let parsed: ExperimentSpec = serde_json::from_str(&with_p).unwrap();
        assert_eq!(parsed.protocol, ProtocolSpec::Aloha { p: 0.5 });
        assert_eq!(
            (parsed.adversary, parsed.probe, parsed.max_slots),
            (None, None, None)
        );
    }

    #[test]
    fn cache_key_tracks_semantic_fields_and_code_version() {
        let base = quick_spec();
        let key = cache_key(&base, "v1");

        let mut seed = base.clone();
        seed.seed += 1;
        assert_ne!(cache_key(&seed, "v1"), key, "seed must be semantic");

        let mut jam = base.clone();
        jam.adversary.as_mut().unwrap().p_jam = 0.25;
        assert_ne!(cache_key(&jam, "v1"), key, "p_jam must be semantic");

        let mut fid = base.clone();
        fid.fidelity = Fidelity::Cohort;
        assert_ne!(cache_key(&fid, "v1"), key, "fidelity must be semantic");

        assert_ne!(cache_key(&base, "v2"), key, "code version must invalidate");
    }

    #[test]
    fn cache_key_fixture_is_pinned() {
        // Regression pin: a change here means every existing on-disk
        // cache silently invalidates. Bump deliberately, not by accident.
        let spec = ExperimentSpec {
            protocol: ProtocolSpec::Uniform { attempts: 1 },
            workload: WorkloadSpec::Batch { n: 4, w: 16 },
            fidelity: Fidelity::Exact,
            scheduling: Scheduling::EventDriven,
            adversary: None,
            probe: None,
            max_slots: None,
            seed: 42,
            trials: 10,
        };
        assert_eq!(
            cache_key(&spec, "fixture"),
            "2fdd4da5b233ba3fb343a3691d69ce6fe30eee3e6d6216cb431ee08371a620d2"
        );
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        let mut s = quick_spec();
        s.trials = 0;
        assert!(s.validate().is_err());

        let mut s = quick_spec();
        s.protocol = ProtocolSpec::Aligned {
            lambda: 1,
            tau: 3,
            min_class: 1,
        };
        assert!(s.validate().is_err(), "non-power-of-two tau");

        let mut s = quick_spec();
        s.protocol = ProtocolSpec::Aloha { p: 1.5 };
        assert!(s.validate().is_err());

        // Zero-sized probe sinks would panic a worker at sink build time.
        for sink in [
            SinkSpec::Ring { capacity: 0 },
            SinkSpec::Sample { period: 0 },
        ] {
            let mut s = quick_spec();
            s.probe = Some(ProbeSpec {
                sinks: vec![sink.clone()],
            });
            assert!(s.validate().is_err(), "{sink:?}");
            assert!(
                matches!(run_spec(&s), Err(RunSpecError::Invalid(_))),
                "{sink:?}"
            );
        }

        // Aligned on an unaligned workload fails at run time with a typed
        // error, not a panic.
        let mut s = quick_spec();
        s.workload = WorkloadSpec::Batch { n: 4, w: 12 };
        match run_spec(&s) {
            Err(RunSpecError::Invalid(_)) => {}
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn min_class_above_the_workload_is_a_typed_error() {
        for (min_class, n, w) in [(12, 4, 128), (60, 8, 64)] {
            let spec = ExperimentSpec {
                protocol: ProtocolSpec::Aligned {
                    lambda: 1,
                    tau: 2,
                    min_class,
                },
                workload: WorkloadSpec::Batch { n, w },
                ..quick_spec()
            };
            let e = check(&spec).expect_err("window below 2^min_class");
            assert!(e.0.contains("min_class"), "{e}");
            assert!(matches!(run_spec(&spec), Err(RunSpecError::Invalid(_))));
        }
        // A window of exactly 2^min_class runs.
        let spec = ExperimentSpec {
            workload: WorkloadSpec::Batch { n: 4, w: 64 },
            ..quick_spec()
        };
        assert!(check(&spec).is_ok());
    }

    #[test]
    fn spec_timing_covers_the_trials() {
        let spec = ExperimentSpec {
            trials: 16,
            ..quick_spec()
        };
        let (out, stats) = run_spec_timed(&spec, |_, _| {}, &CancelToken::new()).unwrap();
        let timing = &out.report.timing;
        assert!(
            timing.wall_secs >= stats.wall.as_secs_f64(),
            "{timing:?} vs {stats:?}"
        );
        let per_trial = out.report.row("all", "slots_per_trial").unwrap().value;
        let slots_run = (per_trial * spec.trials as f64).round() as u64;
        assert!(slots_run > 0);
        assert_eq!(timing.slots_simulated, slots_run);
    }

    #[test]
    fn run_spec_is_deterministic_and_emits_events() {
        let spec = quick_spec();
        let a = run_spec(&spec).unwrap();
        let b = run_spec(&spec).unwrap();
        assert_eq!(
            serde_json::to_string(&a.report.deterministic_view()).unwrap(),
            serde_json::to_string(&b.report.deterministic_view()).unwrap(),
            "deterministic view must be a pure function of the spec"
        );
        assert!(
            !a.events.is_empty(),
            "probe-configured spec must yield trial-0 events"
        );
        assert!(a.report.rows.iter().any(|r| r.metric == "job_success_rate"));
    }

    #[test]
    fn cancellation_surfaces_as_run_error() {
        let spec = ExperimentSpec {
            trials: 64,
            ..quick_spec()
        };
        let cancel = CancelToken::new();
        cancel.cancel();
        match run_spec_with(&spec, |_, _| {}, &cancel) {
            Err(RunSpecError::Run(RunError::Cancelled { .. })) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }
}
