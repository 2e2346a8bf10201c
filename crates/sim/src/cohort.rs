//! Cohorts: the [`Fidelity::Cohort`] owner of memoryless jobs.
//!
//! Jobs whose protocol reports a [`CohortTx::Constant`] or
//! [`CohortTx::OneShot`] profile are grouped by `(model, deadline)`. Each
//! slot a cohort contributes one binomial transmitter count instead of one
//! Bernoulli draw per member; an individual member is materialized only
//! when the cohort holds the slot's sole transmission, and a collision
//! charges its count to distinct members. All draws come from the cohort
//! stream ([`StreamLabel::Cohort`](crate::rng::StreamLabel::Cohort)), in
//! cohort order, so the set's RNG position plus its member order is the
//! whole of its state — which is what a checkpoint carries.
//!
//! [`Fidelity::Cohort`]: crate::engine::Fidelity::Cohort
//! [`CohortTx::Constant`]: crate::engine::CohortTx::Constant
//! [`CohortTx::OneShot`]: crate::engine::CohortTx::OneShot

use crate::checkpoint::CheckpointError;
use crate::engine::CohortTx;
use crate::metrics::AccessCounts;
use crate::rng::sample_binomial;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A cohort's sampling model — also its grouping key, alongside the
/// deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum CohortModel {
    /// Bernoulli(`p`) per slot; keyed by the exact bit pattern of `p`
    /// (no epsilon — distinct floats are distinct cohorts).
    Constant {
        /// `p.to_bits()`.
        p_bits: u64,
    },
    /// One attempt at a slot uniform over the window (hazard
    /// `1/(deadline − t)` among not-yet-attempted members).
    OneShot,
}

/// One group of cohort-managed jobs: same model, same deadline, simulated
/// in aggregate. Opaque outside the engine: a checkpoint carries it
/// verbatim, **member order included** (winner selection is a uniform
/// index draw, and `fresh` splits the member list positionally).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cohort {
    model: CohortModel,
    deadline: u64,
    /// Live member job indices. Members are exchangeable by construction,
    /// so removal is `swap_remove` and winner selection is a uniform index
    /// draw.
    members: Vec<u32>,
    /// `OneShot` only: `members[..fresh]` have not yet spent their single
    /// attempt; spent members sit behind `fresh` awaiting their Missed
    /// outcome at the deadline. (Which *particular* members are spent is
    /// never decided unless one must be materialized — exchangeability
    /// makes the prefix split sufficient.)
    fresh: usize,
}

impl Cohort {
    /// Members eligible to transmit this slot and their probability.
    fn law(&self, slot: u64) -> (u64, f64) {
        match self.model {
            CohortModel::Constant { p_bits } => (self.members.len() as u64, f64::from_bits(p_bits)),
            // One-shot hazard among not-yet-attempted members; live
            // cohorts always have slot < deadline, and at deadline − 1 the
            // hazard reaches 1 (everyone left must attempt now or never).
            CohortModel::OneShot => (self.fresh as u64, 1.0 / (self.deadline - slot) as f64),
        }
    }

    /// Move the member at `pos` behind the fresh prefix (one-shot only):
    /// its single attempt is spent.
    fn spend(&mut self, pos: usize) {
        if self.model == CohortModel::OneShot {
            self.members.swap(pos, self.fresh - 1);
            self.fresh -= 1;
        }
    }
}

/// All cohorts of one run, with the cohort stream they draw from.
#[derive(Default)]
pub(crate) struct CohortSet {
    cohorts: Vec<Cohort>,
    /// Total live members across all cohorts.
    total: usize,
    /// The cohort stream; `Some` iff the run's fidelity is cohort.
    rng: Option<ChaCha8Rng>,
    /// This slot's draws: `(cohort index, transmitter count)`.
    hits: Vec<(u32, u64)>,
    /// This slot's materialized lone transmitter: `(cohort, position)`.
    winner: Option<(usize, usize)>,
}

impl CohortSet {
    /// Reset for a run drawing from `rng` (`None` outside cohort fidelity).
    pub fn prepare(&mut self, rng: Option<ChaCha8Rng>) {
        self.clear();
        self.rng = rng;
    }

    pub fn clear(&mut self) {
        self.cohorts.clear();
        self.total = 0;
        self.rng = None;
        self.hits.clear();
        self.winner = None;
    }

    /// Live members (the engine's liveness accounting).
    pub fn live(&self) -> usize {
        self.total
    }

    /// Admit an activating job (profile `Constant` or `OneShot`).
    pub fn insert(&mut self, profile: CohortTx, deadline: u64, idx: u32) {
        let model = match profile {
            CohortTx::Constant { p } => CohortModel::Constant {
                p_bits: p.to_bits(),
            },
            CohortTx::OneShot => CohortModel::OneShot,
            CohortTx::Class { .. } => {
                unreachable!("class profiles are routed to ClassSet, never to CohortSet")
            }
        };
        match self
            .cohorts
            .iter_mut()
            .find(|c| c.model == model && c.deadline == deadline)
        {
            Some(c) => {
                c.members.push(idx);
                if c.model == CohortModel::OneShot {
                    // Keep the new member inside the fresh prefix.
                    let last = c.members.len() - 1;
                    c.members.swap(c.fresh, last);
                    c.fresh += 1;
                }
            }
            None => self.cohorts.push(Cohort {
                model,
                deadline,
                members: vec![idx],
                fresh: 1,
            }),
        }
        self.total += 1;
    }

    /// Open `slot`: one binomial per cohort decides how many members
    /// transmit. Adds the cohorts' declared contention to `declared` and
    /// returns the slot's cohort transmitter count.
    pub fn draw(&mut self, slot: u64, declared: &mut f64) -> u64 {
        self.hits.clear();
        self.winner = None;
        let Some(rng) = self.rng.as_mut() else {
            return 0;
        };
        let mut n = 0;
        for (c_idx, cohort) in self.cohorts.iter().enumerate() {
            let (m, p) = cohort.law(slot);
            let t = sample_binomial(m, p, rng);
            if t > 0 {
                self.hits.push((c_idx as u32, t));
                n += t;
            }
            *declared += m as f64 * p;
        }
        n
    }

    /// The cohorts hold the slot's only transmission: name the member,
    /// uniformly among those eligible (members are exchangeable).
    pub fn materialize(&mut self) -> u32 {
        let (c_idx, _) = self.hits[0];
        let cohort = &self.cohorts[c_idx as usize];
        let rng = self
            .rng
            .as_mut()
            .expect("a cohort hit implies the cohort stream");
        // One-shot attempts come from the fresh prefix only.
        let pool = match cohort.model {
            CohortModel::Constant { .. } => cohort.members.len(),
            CohortModel::OneShot => cohort.fresh,
        };
        let pos = rng.gen_range(0..pool);
        self.winner = Some((c_idx as usize, pos));
        cohort.members[pos]
    }

    /// The slot collided: charge each hit cohort's transmission count to
    /// distinct members (partial Fisher–Yates; order in the member list is
    /// meaningless).
    pub fn charge(&mut self, accesses: &mut [AccessCounts]) {
        let Some(rng) = self.rng.as_mut() else {
            return;
        };
        for &(c_idx, t) in &self.hits {
            let cohort = &mut self.cohorts[c_idx as usize];
            match cohort.model {
                CohortModel::Constant { .. } => {
                    let members = &mut cohort.members;
                    let t = (t as usize).min(members.len());
                    for i in 0..t {
                        let j = rng.gen_range(i..members.len());
                        members.swap(i, j);
                        accesses[members[i] as usize].transmissions += 1;
                    }
                }
                CohortModel::OneShot => {
                    // Draw the attempters from the fresh prefix, parking
                    // each at its end so the prefix shrinks over the spent
                    // ones.
                    let t = (t as usize).min(cohort.fresh);
                    for i in 0..t {
                        let lim = cohort.fresh - i;
                        let j = rng.gen_range(0..lim);
                        cohort.members.swap(j, lim - 1);
                        accesses[cohort.members[lim - 1] as usize].transmissions += 1;
                    }
                    cohort.fresh -= t;
                }
            }
        }
    }

    /// Settle the materialized winner, if any, once the slot resolved: a
    /// delivered member leaves its cohort; a jammed one retries (memoryless)
    /// or has spent its attempt (one-shot).
    pub fn settle(&mut self, delivered: bool) {
        let Some((c_idx, pos)) = self.winner.take() else {
            return;
        };
        let cohort = &mut self.cohorts[c_idx];
        if delivered {
            // Retire via the end of the fresh prefix, so no spent member is
            // pulled into it.
            let last = match cohort.model {
                CohortModel::Constant { .. } => pos,
                CohortModel::OneShot => cohort.fresh - 1,
            };
            cohort.spend(pos);
            cohort.members.swap_remove(last);
            self.total -= 1;
        } else {
            cohort.spend(pos);
        }
    }

    /// Cohorts whose deadline arrived (or that emptied) dissolve after
    /// `slot`; remaining members' outcomes default to Missed at the end.
    pub fn dissolve(&mut self, slot: u64) {
        let mut c = 0;
        while c < self.cohorts.len() {
            let cohort = &self.cohorts[c];
            if slot + 1 >= cohort.deadline || cohort.members.is_empty() {
                self.total -= cohort.members.len();
                self.cohorts.swap_remove(c);
                continue;
            }
            c += 1;
        }
    }

    /// The cohorts, verbatim, and the cohort stream's word position.
    pub fn save(&self) -> (Vec<Cohort>, Option<u64>) {
        (
            self.cohorts.clone(),
            self.rng.as_ref().map(ChaCha8Rng::get_word_pos),
        )
    }

    /// Transplant saved cohorts into a set [`prepare`](Self::prepare)d for
    /// the run, paused before `slot`, over `n` jobs.
    pub fn load(
        &mut self,
        cohorts: &[Cohort],
        word_pos: Option<u64>,
        slot: u64,
        n: usize,
    ) -> Result<(), CheckpointError> {
        let mismatch = |what: &str| Err(CheckpointError::Mismatch(what.into()));
        match (self.rng.as_mut(), word_pos) {
            (Some(rng), Some(pos)) => rng.set_word_pos(pos),
            (None, None) => {}
            _ => return mismatch("cohort stream presence differs from the checkpoint"),
        }
        for c in cohorts {
            if c.fresh > c.members.len() {
                return mismatch("cohort fresh prefix exceeds member count");
            }
            // A live cohort always has a slot left before its deadline
            // (it dissolves at the end of its last one).
            if c.deadline <= slot {
                return mismatch("cohort deadline precedes the checkpoint slot");
            }
            if c.members.iter().any(|&j| j as usize >= n) {
                return mismatch("job index out of range");
            }
            self.total += c.members.len();
        }
        self.cohorts = cohorts.to_vec();
        Ok(())
    }
}
