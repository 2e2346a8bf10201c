//! **E21 — breakdown-frontier bisection on shared prefixes**: where does
//! delivery cross ½, found with checkpoint/branch-and-replay instead of
//! independent full runs.
//!
//! E18 mapped the jamming breakdown curve on a fixed grid; E21 *searches*
//! it. Each bisection level asks "at which `p_jam` does per-job delivery
//! cross θ = ½?" by fanning [`run_branched`] across seven candidate
//! intensities: the contention history *before* the measured cohort
//! arrives — three windows of draining ALOHA background traffic — is
//! simulated once, snapshotted, and every candidate replays only the
//! suffix with its own adversary swapped in. Seven candidates per level
//! narrow the bracket 8× per level, and a level costs one prefix plus
//! seven suffixes instead of seven full runs.
//!
//! The measured cohort (ALIGNED or PUNCTUAL) is *released after the
//! branch point*, so at snapshot time those jobs are still pending and
//! the checkpoint's factory-rebuild contract covers them exactly — the
//! frontier of a protocol with unserializable state is still searchable,
//! because only checkpointable traffic (ALOHA + persistent probes) is
//! ever live at the boundary.
//!
//! Two channels per protocol: i.i.d. all-successes jamming (the paper's
//! Section 3 adversary) and a Gilbert–Elliott bursty channel at 25%
//! outage duty with mean burst length 32. The experiment also reports the
//! measured amortization priced deterministically in simulated slots
//! (wall-clock is machine noise and would break the artifact's same-seed
//! byte-identity contract; the single-threaded wall-clock gain is the
//! slotloop `branch` row's job). Every level-0 suffix is additionally
//! re-run independently and must be byte-identical to its branched twin.

use crate::config::ExpConfig;
use crate::experiments::util::PersistentP;
use crate::report::{ExpOutput, ReportBuilder};
use dcr_baselines::FixedProbability;
use dcr_core::aligned::params::AlignedParams;
use dcr_core::aligned::protocol::AlignedProtocol;
use dcr_core::punctual::PunctualParams;
use dcr_core::PunctualProtocol;
use dcr_sim::engine::{Engine, EngineConfig, Protocol};
use dcr_sim::jamming::{AdversarySpec, JamPolicy};
use dcr_sim::job::JobSpec;
use dcr_sim::metrics::SimReport;
use dcr_sim::runner::{run_branched, BranchSpec};
use dcr_stats::Table;

/// Measured-cohort class: windows of `2^CLASS` slots.
const CLASS: u32 = 11;
/// Window length of the measured cohort.
const W: u64 = 1 << CLASS;
/// Release slot of the measured cohort — an aligned class boundary, and
/// strictly *after* the branch point so measured jobs are pending (hence
/// factory-rebuilt, hence checkpointable) when the prefix is snapshotted.
const R_MEASURED: u64 = 3 * W;
/// Requested prefix length: just short of the measured release.
const PREFIX: u64 = R_MEASURED - 64;
/// Last deadline in the instance (sentinels pin the run to this length).
const HORIZON: u64 = R_MEASURED + W;
/// Background ALOHA stations that make the shared prefix cost something.
const N_BG: u32 = 40;
/// Background per-slot transmit probability.
const P_BG: f64 = 0.015;
/// Persistent control probes alive for the whole horizon: they keep the
/// scheduler dense (so `run_to` pauses exactly at `PREFIX`, never
/// gap-skipping into the measured release) at negligible channel load.
const N_SENTINEL: u32 = 2;
/// Sentinel per-slot control-transmit probability.
const P_SENTINEL: f64 = 0.002;
/// Jobs whose delivery defines the frontier.
const N_MEASURED: u32 = 12;
/// Candidate `p_jam` values per bisection level (branches per prefix).
const BRANCH_FAN: usize = 7;
/// Delivery threshold the frontier is the crossing of.
const THETA: f64 = 0.5;

/// λ=2 margin, same as E11/E18: the regime Theorem 14 analyzes.
fn aligned_params() -> AlignedParams {
    AlignedParams::new(2, 2, CLASS)
}

/// The shared instance: background ids `0..N_BG` (drain before the branch
/// point), sentinel ids `N_BG..N_BG+N_SENTINEL` (whole horizon), measured
/// ids from `N_BG+N_SENTINEL` (window `[R_MEASURED, HORIZON)`).
fn jobs() -> Vec<JobSpec> {
    let mut v = Vec::with_capacity((N_BG + N_SENTINEL + N_MEASURED) as usize);
    for i in 0..N_BG {
        v.push(JobSpec::new(i, 0, PREFIX));
    }
    for i in 0..N_SENTINEL {
        v.push(JobSpec::new(N_BG + i, 0, HORIZON));
    }
    for i in 0..N_MEASURED {
        v.push(JobSpec::new(N_BG + N_SENTINEL + i, R_MEASURED, HORIZON));
    }
    v
}

/// Per-job protocol dispatch: background ALOHA, persistent probes, and
/// the measured protocol under test.
fn e21_factory(proto: &'static str) -> impl Fn(&JobSpec) -> Box<dyn Protocol> + Sync {
    let aligned = aligned_params();
    let punctual = PunctualParams::laptop();
    move |spec: &JobSpec| -> Box<dyn Protocol> {
        if spec.id < N_BG {
            Box::new(FixedProbability::new(P_BG))
        } else if spec.id < N_BG + N_SENTINEL {
            Box::new(PersistentP(P_SENTINEL))
        } else {
            match proto {
                "aligned" => Box::new(AlignedProtocol::new(aligned)),
                "punctual" => Box::new(PunctualProtocol::new(punctual)),
                _ => unreachable!("unknown protocol {proto}"),
            }
        }
    }
}

/// Measured-cohort deliveries in one report.
fn measured_delivered(r: &SimReport) -> u64 {
    let start = (N_BG + N_SENTINEL) as usize;
    r.outcomes()[start..]
        .iter()
        .filter(|o| o.is_success())
        .count() as u64
}

/// Canonical bytes for byte-identity comparison: everything in a report
/// is a pure function of instance and seed except the wall-clock field.
fn report_bytes(r: &SimReport) -> String {
    let mut canon = r.clone();
    canon.engine_nanos = 0;
    serde_json::to_string(&canon).expect("reports serialize")
}

/// One bisection step: shrink `[lo, hi]` onto the first candidate whose
/// mean delivery fell below `theta` (candidates ascending, delivery
/// non-increasing in `p_jam` up to noise). Returns the new bracket plus
/// the straddling deliveries when both endpoints came from this level.
fn narrow(
    lo: f64,
    hi: f64,
    cands: &[f64],
    means: &[f64],
    theta: f64,
) -> (f64, f64, Option<(f64, f64)>) {
    match means.iter().position(|&m| m < theta) {
        Some(0) => (lo, cands[0], None),
        Some(j) => (cands[j - 1], cands[j], Some((means[j - 1], means[j]))),
        None => (cands[cands.len() - 1], hi, None),
    }
}

/// Cost and fidelity accounting shared across every frontier search.
#[derive(Default)]
struct Shared {
    /// Branched replicas byte-identical to their independent twins.
    equiv_ok: u64,
    equiv_total: u64,
    /// Slots actually simulated by the branched path (prefix + suffixes).
    branched_slots: u64,
    /// Slots the same sweeps would cost as independent full runs.
    independent_slots: u64,
    trials: u64,
    prefix_slot_min: u64,
    prefix_slot_max: u64,
}

/// A located breakdown frontier.
struct Frontier {
    /// Midpoint of the final bracket.
    frontier: f64,
    lo: f64,
    hi: f64,
    /// Mean deliveries at the final bracket's endpoints, when both were
    /// probed in the last level.
    straddle: Option<(f64, f64)>,
}

/// Bisect the delivery-θ crossing for one protocol × channel cell.
fn measure_frontier(
    cfg: &ExpConfig,
    proto: &'static str,
    channel: &AdversarySpec,
    salt: u64,
    shared: &mut Shared,
) -> Frontier {
    let config = if proto == "aligned" {
        EngineConfig::aligned()
    } else {
        EngineConfig::default()
    };
    let factory = e21_factory(proto);
    let jobs = jobs();
    let (levels, rounds) = if cfg.quick { (2u64, 2u64) } else { (3, 6) };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    let mut straddle = None;
    for level in 0..levels {
        let cands: Vec<f64> = (1..=BRANCH_FAN)
            .map(|i| lo + (hi - lo) * i as f64 / (BRANCH_FAN + 1) as f64)
            .collect();
        let branches: Vec<BranchSpec> = cands
            .iter()
            .map(|&p| BranchSpec {
                label: format!("p_jam={p:.4}"),
                adversary: *channel,
                p_jam: p,
            })
            .collect();
        let mut delivered = [0u64; BRANCH_FAN];
        for round in 0..rounds {
            let seed = cfg.seed ^ 0x00E2_1000 ^ salt ^ (level << 20) ^ (round << 12);
            let out = run_branched(
                &config,
                seed,
                &jobs,
                |s| factory(s),
                channel,
                0.0,
                PREFIX,
                &branches,
            )
            .expect("E21 populations are checkpointable at the branch boundary");
            assert!(
                out.prefix_slot < R_MEASURED,
                "prefix overshot into the measured release ({} >= {R_MEASURED})",
                out.prefix_slot
            );
            shared.prefix_slot_min = shared.prefix_slot_min.min(out.prefix_slot);
            shared.prefix_slot_max = shared.prefix_slot_max.max(out.prefix_slot);
            shared.branched_slots += out.prefix_slot;
            shared.trials += out.reports.len() as u64;
            for (i, r) in out.reports.iter().enumerate() {
                delivered[i] += measured_delivered(r);
                shared.branched_slots += r.slots_run - out.prefix_slot;
                shared.independent_slots += r.slots_run;
            }
            if level == 0 {
                // Independent twins: same seed, same engine, no shared
                // prefix — every suffix must land byte-identical.
                for (i, b) in branches.iter().enumerate() {
                    let mut e = Engine::new(config.clone(), seed);
                    e.add_jobs(&jobs, |s| factory(s));
                    e.set_jammer(channel.jammer(0.0));
                    e.run_to(PREFIX);
                    e.swap_adversary(b.adversary.adversary(), b.p_jam);
                    let r = e.finish();
                    shared.equiv_total += 1;
                    if report_bytes(&r) == report_bytes(&out.reports[i]) {
                        shared.equiv_ok += 1;
                    }
                }
            }
        }
        let denom = (rounds * u64::from(N_MEASURED)) as f64;
        let means: Vec<f64> = delivered.iter().map(|&d| d as f64 / denom).collect();
        (lo, hi, straddle) = narrow(lo, hi, &cands, &means, THETA);
    }
    Frontier {
        frontier: (lo + hi) / 2.0,
        lo,
        hi,
        straddle,
    }
}

/// Run E21.
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let channels: [(&str, AdversarySpec); 2] = [
        ("iid", AdversarySpec::Policy(JamPolicy::AllSuccesses)),
        (
            "ge",
            // 25% outage duty, mean burst 32 slots.
            AdversarySpec::Bursty {
                p_enter: 1.0 / 96.0,
                p_exit: 1.0 / 32.0,
            },
        ),
    ];
    let protos = ["aligned", "punctual"];
    let (levels, rounds) = if cfg.quick { (2u64, 2u64) } else { (3, 6) };

    let mut rb = ReportBuilder::new(
        "e21",
        "E21: breakdown-frontier bisection on checkpoint-shared prefixes",
        cfg,
    );
    rb.param("class", CLASS)
        .param("n_measured", N_MEASURED)
        .param("n_background", N_BG)
        .param("prefix_slots", PREFIX)
        .param("horizon", HORIZON)
        .param("branch_fan", BRANCH_FAN)
        .param("theta", THETA)
        .param("levels", levels)
        .param("rounds_per_level", rounds);

    let mut shared = Shared {
        prefix_slot_min: u64::MAX,
        ..Shared::default()
    };
    let mut t = Table::new(vec![
        "protocol",
        "channel",
        "frontier p*",
        "bracket",
        "delivery straddle",
    ])
    .with_title(format!(
        "E21: p_jam where measured delivery crosses θ = {THETA}, located by \
         {BRANCH_FAN}-way branched bisection ({levels} levels × {rounds} rounds), seed {}",
        cfg.seed
    ));
    let mut frontiers: Vec<(String, f64)> = Vec::new();
    for (pi, proto) in protos.iter().enumerate() {
        for (ci, (chan, spec)) in channels.iter().enumerate() {
            let salt = ((pi as u64) << 32) | ((ci as u64) << 28);
            let f = measure_frontier(cfg, proto, spec, salt, &mut shared);
            let cell = format!("{proto},{chan}");
            rb.row(&cell, "frontier_p_jam", f.frontier)
                .row(&cell, "bracket_lo", f.lo)
                .row(&cell, "bracket_hi", f.hi);
            if let Some((above, below)) = f.straddle {
                rb.row(&cell, "delivery_at_bracket_lo", above).row(
                    &cell,
                    "delivery_at_bracket_hi",
                    below,
                );
            }
            t.row(vec![
                proto.to_string(),
                chan.to_string(),
                format!("{:.3}", f.frontier),
                format!("[{:.3}, {:.3}]", f.lo, f.hi),
                match f.straddle {
                    Some((a, b)) => format!("{a:.2} → {b:.2}"),
                    None => "at edge".to_string(),
                },
            ]);
            frontiers.push((cell, f.frontier));
        }
    }
    let mut out = t.render();

    // ── Amortization accounting ──────────────────────────────────────────
    let amort = shared.independent_slots as f64 / shared.branched_slots as f64;
    let prefix_fraction = shared.prefix_slot_max as f64 / HORIZON as f64;
    out.push_str(&format!(
        "\nprefix amortization: {} independent-run slots priced as {} branched \
         slots ({amort:.2}x, prefix fraction {prefix_fraction:.2}; slot-priced — \
         the wall-clock gain is the slotloop branch row)\n",
        shared.independent_slots, shared.branched_slots,
    ));
    out.push_str(&format!(
        "byte-identity: {}/{} branched suffixes matched their independent twins\n",
        shared.equiv_ok, shared.equiv_total
    ));
    rb.row("all", "slot_amortization", amort)
        .row("all", "prefix_fraction", prefix_fraction)
        .add_trials(shared.trials);

    // ── Claim checks ─────────────────────────────────────────────────────
    rb.check(
        "branches_match_uninterrupted_runs",
        shared.equiv_total > 0 && shared.equiv_ok == shared.equiv_total,
        format!(
            "{}/{} branched reports byte-identical to independent replays",
            shared.equiv_ok, shared.equiv_total
        ),
    )
    .check(
        "prefix_amortization_exceeds_2x",
        amort >= 2.0,
        format!(
            "{BRANCH_FAN} branches over a {prefix_fraction:.2}-fraction prefix \
             cost {amort:.2}x fewer slots than independent runs"
        ),
    )
    .check(
        "prefix_pauses_before_measured_release",
        shared.prefix_slot_min >= PREFIX && shared.prefix_slot_max < R_MEASURED,
        format!(
            "every prefix paused in [{}, {}] ⊂ [{PREFIX}, {R_MEASURED})",
            shared.prefix_slot_min, shared.prefix_slot_max
        ),
    );
    let get = |cell: &str| {
        frontiers
            .iter()
            .find(|(c, _)| c == cell)
            .map(|&(_, f)| f)
            .unwrap_or(f64::NAN)
    };
    let aligned_iid = get("aligned,iid");
    rb.check(
        "aligned_iid_frontier_past_half",
        aligned_iid >= 0.5,
        format!("ALIGNED (λ=2) i.i.d.-jamming frontier at p_jam = {aligned_iid:.3}"),
    );
    let mut duty_discount = true;
    for proto in protos {
        let iid = get(&format!("{proto},iid"));
        let ge = get(&format!("{proto},ge"));
        duty_discount &= ge >= iid - 0.1;
        rb.row(proto, "ge_minus_iid_frontier", ge - iid);
    }
    rb.check(
        "bursty_duty_discounts_jamming",
        duty_discount,
        "at 25% outage duty the GE frontier sits at or above the i.i.d. one \
         for both protocols",
    );
    rb.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_moves_the_bracket() {
        let cands = [0.25, 0.5, 0.75];
        // Crossing between candidates: bracket lands on the straddle.
        let (lo, hi, s) = narrow(0.0, 1.0, &cands, &[0.9, 0.6, 0.2], 0.5);
        assert_eq!((lo, hi), (0.5, 0.75));
        assert_eq!(s, Some((0.6, 0.2)));
        // Everything already below θ: keep the old lo.
        let (lo, hi, s) = narrow(0.0, 1.0, &cands, &[0.1, 0.0, 0.0], 0.5);
        assert_eq!((lo, hi), (0.0, 0.25));
        assert!(s.is_none());
        // Nothing below θ: the crossing is past the last candidate.
        let (lo, hi, s) = narrow(0.0, 1.0, &cands, &[0.9, 0.9, 0.8], 0.5);
        assert_eq!((lo, hi), (0.75, 1.0));
        assert!(s.is_none());
    }

    #[test]
    fn instance_layout_keeps_measured_jobs_pending_at_the_branch() {
        let jobs = jobs();
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id as usize, i, "outcome indexing relies on id order");
        }
        for j in &jobs[(N_BG + N_SENTINEL) as usize..] {
            assert!(
                j.release > PREFIX,
                "measured jobs must outlive the snapshot"
            );
            assert_eq!(j.deadline - j.release, W, "measured class must be {CLASS}");
        }
    }

    #[test]
    fn branched_suffixes_are_byte_identical_here_too() {
        // The checkpoint test suite proves this across the protocol grid;
        // this pins it for E21's exact mixed population and branch point.
        let factory = e21_factory("punctual");
        let jobs = jobs();
        let channel = AdversarySpec::Policy(JamPolicy::AllSuccesses);
        let branches: Vec<BranchSpec> = [0.25, 0.9]
            .iter()
            .map(|&p| BranchSpec {
                label: format!("p_jam={p}"),
                adversary: channel,
                p_jam: p,
            })
            .collect();
        let out = run_branched(
            &EngineConfig::default(),
            0xE21,
            &jobs,
            |s| factory(s),
            &channel,
            0.0,
            PREFIX,
            &branches,
        )
        .expect("population is checkpointable");
        assert_eq!(out.prefix_slot, PREFIX, "sentinels keep the schedule dense");
        for (i, b) in branches.iter().enumerate() {
            let mut e = Engine::new(EngineConfig::default(), 0xE21);
            e.add_jobs(&jobs, |s| factory(s));
            e.set_jammer(channel.jammer(0.0));
            e.run_to(PREFIX);
            e.swap_adversary(b.adversary.adversary(), b.p_jam);
            assert_eq!(
                report_bytes(&e.finish()),
                report_bytes(&out.reports[i]),
                "branch {i}"
            );
        }
    }

    #[test]
    fn quick_run_produces_passing_artifact() {
        let out = run(&ExpConfig::quick());
        assert!(out.report.all_checks_passed(), "{}", out.text);
        assert!(out.report.rows.len() >= 15);
    }
}
