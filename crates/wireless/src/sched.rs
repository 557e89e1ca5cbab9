//! Worst-case asynchronous delivery scheduling.
//!
//! The paper's adversary (§III-A2) may delay and reorder honest-to-honest
//! messages arbitrarily, subject only to eventual delivery. [`adversary`]
//! models the *stochastic* corner of that power (loss "weather", fixed
//! targeted delays); this module models the *scheduling* corner: an active
//! adversary that looks at each deliverable frame and decides, per
//! delivery, how long to sit on it — up to a hard per-delivery budget the
//! simulator enforces regardless of what the scheduler returns, so the
//! eventual-delivery assumption holds *by construction*.
//!
//! A scheduler is installed with [`Simulator::set_scheduler`] and consulted
//! once per (transmission, receiver) pair after the loss roll: it sees the
//! frame ([`Delivery`]) and returns extra receive delay. Schedulers own
//! their RNG (seeded from [`SchedConfig::seed`], independent of the
//! simulation stream), so installing one never perturbs the rest of the
//! run's randomness — an unscheduled run is byte-identical to the same run
//! before this module existed.
//!
//! Content-agnostic policies ([`SchedPolicy::Reorder`],
//! [`SchedPolicy::Victim`]) are built here via
//! [`SchedConfig::build_generic`]. Protocol-aware policies — e.g. delaying
//! the quorum-completing coin share of an ABA round — need to decode
//! envelopes, which this crate cannot (it sits below `wbft-net`), so the
//! consensus layer builds those from the same declarative config
//! (`wbft_consensus::fuzz::build_scheduler`).
//!
//! [`adversary`]: crate::adversary
//! [`Simulator::set_scheduler`]: crate::sim::Simulator::set_scheduler

use crate::time::{SimDuration, SimTime};
use crate::topology::{ChannelId, NodeId};
use bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// One deliverable frame, as shown to a [`DeliveryScheduler`]: everything
/// the adversary of the model can observe about a delivery it controls.
#[derive(Debug)]
pub struct Delivery<'a> {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Channel the frame was heard on.
    pub channel: ChannelId,
    /// The frame payload (the adversary reads traffic; it cannot forge —
    /// envelopes are signed at the protocol layer).
    pub payload: &'a Bytes,
    /// Nominal wire length in bytes.
    pub nominal_len: usize,
    /// Simulated time the airtime ended.
    pub now: SimTime,
}

/// An adversarial delivery scheduler. Consulted once per delivery; the
/// simulator clamps whatever [`DeliveryScheduler::delay`] returns to
/// [`DeliveryScheduler::budget`], so no implementation can break the
/// bounded-delay (eventual delivery) model.
pub trait DeliveryScheduler {
    /// Extra receive delay to impose on this delivery.
    fn delay(&mut self, d: &Delivery<'_>) -> SimDuration;

    /// The hard per-delivery delay cap the simulator enforces.
    fn budget(&self) -> SimDuration;
}

/// Counters the simulator keeps about an installed scheduler — separate
/// from [`Metrics`](crate::metrics::Metrics) so report schemas (and their
/// golden fixtures) are untouched by scheduled runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Deliveries the scheduler was consulted on.
    pub considered: u64,
    /// Deliveries it delayed by a non-zero amount.
    pub delayed: u64,
    /// Sum of imposed extra delays (µs, post-clamp).
    pub total_extra_us: u64,
}

/// Declarative, serializable description of a scheduling attack — what a
/// fuzz case carries and a fixture replays.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedConfig {
    /// Scheduler RNG seed (independent of the simulation seed).
    pub seed: u64,
    /// Hard per-delivery delay budget; every policy is clamped to it.
    pub budget: SimDuration,
    /// The attack.
    pub policy: SchedPolicy,
}

/// The scheduling attacks the testbed knows how to mount.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedPolicy {
    /// Adversarial reorder: each delivery independently delayed by a
    /// uniform draw in `[0, budget]` with probability `p` — maximal
    /// content-blind reordering within the budget.
    Reorder {
        /// Probability a delivery is delayed, in `[0, 1]`.
        p: f64,
    },
    /// Starve a victim set: every delivery *to* a victim is held back by
    /// the full budget (deliveries between non-victims flow normally).
    Victim {
        /// The starved receivers.
        victims: Vec<NodeId>,
    },
    /// Protocol-aware coin starvation: per receiver and ABA round, let the
    /// first `pass` coin shares through promptly and hold every later one
    /// (the quorum-completing `pass+1`-th, typically `f+1`-th) for the full
    /// budget. Built by the consensus layer, which can decode envelopes.
    CoinStarve {
        /// Shares per (receiver, round) delivered without delay.
        pass: u32,
    },
}

impl SchedConfig {
    /// Validates the config at scenario build time: the budget must be a
    /// positive finite bound (a zero budget is a misconfigured no-op, an
    /// unbounded one would violate eventual delivery) and probabilities
    /// must be proper.
    pub fn validate(&self) -> Result<(), String> {
        if self.budget.as_micros() == 0 {
            return Err("scheduler budget must be positive".into());
        }
        match &self.policy {
            SchedPolicy::Reorder { p } => {
                if !p.is_finite() || !(0.0..=1.0).contains(p) {
                    return Err(format!("reorder probability {p} outside [0, 1]"));
                }
            }
            SchedPolicy::Victim { victims } => {
                if victims.is_empty() {
                    return Err("victim policy needs at least one victim".into());
                }
            }
            SchedPolicy::CoinStarve { .. } => {}
        }
        Ok(())
    }

    /// Builds the scheduler for content-agnostic policies. Returns `None`
    /// for protocol-aware policies ([`SchedPolicy::CoinStarve`]), which
    /// only a layer that can decode envelopes can construct.
    pub fn build_generic(&self) -> Option<Box<dyn DeliveryScheduler>> {
        match &self.policy {
            SchedPolicy::Reorder { p } => Some(Box::new(ReorderScheduler {
                p: *p,
                budget: self.budget,
                rng: ChaCha12Rng::seed_from_u64(self.seed),
            })),
            SchedPolicy::Victim { victims } => Some(Box::new(VictimScheduler {
                victims: victims.clone(),
                budget: self.budget,
            })),
            SchedPolicy::CoinStarve { .. } => None,
        }
    }
}

/// See [`SchedPolicy::Reorder`].
pub struct ReorderScheduler {
    p: f64,
    budget: SimDuration,
    rng: ChaCha12Rng,
}

impl DeliveryScheduler for ReorderScheduler {
    fn delay(&mut self, _d: &Delivery<'_>) -> SimDuration {
        if self.p > 0.0 && self.rng.random_bool(self.p.min(1.0)) {
            SimDuration::from_micros(self.rng.random_range(0..=self.budget.as_micros()))
        } else {
            SimDuration::ZERO
        }
    }

    fn budget(&self) -> SimDuration {
        self.budget
    }
}

/// See [`SchedPolicy::Victim`].
pub struct VictimScheduler {
    victims: Vec<NodeId>,
    budget: SimDuration,
}

impl DeliveryScheduler for VictimScheduler {
    fn delay(&mut self, d: &Delivery<'_>) -> SimDuration {
        if self.victims.contains(&d.dst) {
            self.budget
        } else {
            SimDuration::ZERO
        }
    }

    fn budget(&self) -> SimDuration {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivery(payload: &Bytes, dst: u16) -> Delivery<'_> {
        Delivery {
            src: NodeId(0),
            dst: NodeId(dst),
            channel: ChannelId(0),
            payload,
            nominal_len: payload.len(),
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn reorder_delays_stay_inside_budget_and_are_deterministic() {
        let cfg = SchedConfig {
            seed: 9,
            budget: SimDuration::from_secs(5),
            policy: SchedPolicy::Reorder { p: 0.7 },
        };
        cfg.validate().unwrap();
        let payload = Bytes::from_static(&[1, 2, 3]);
        let run = || {
            let mut s = cfg.build_generic().expect("generic policy");
            (0..200).map(|i| s.delay(&delivery(&payload, i % 4)).as_micros()).collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same schedule");
        assert!(a.iter().all(|&d| d <= 5_000_000));
        assert!(a.iter().any(|&d| d > 0), "p=0.7 must delay something");
        assert!(a.contains(&0), "p=0.7 must pass something");
    }

    #[test]
    fn victim_policy_starves_only_victims() {
        let cfg = SchedConfig {
            seed: 0,
            budget: SimDuration::from_secs(2),
            policy: SchedPolicy::Victim { victims: vec![NodeId(2)] },
        };
        cfg.validate().unwrap();
        let mut s = cfg.build_generic().expect("generic policy");
        let payload = Bytes::from_static(&[0; 4]);
        assert_eq!(s.delay(&delivery(&payload, 2)), SimDuration::from_secs(2));
        assert_eq!(s.delay(&delivery(&payload, 1)), SimDuration::ZERO);
    }

    #[test]
    fn validation_rejects_broken_configs() {
        let bad_budget = SchedConfig {
            seed: 0,
            budget: SimDuration::ZERO,
            policy: SchedPolicy::Reorder { p: 0.5 },
        };
        assert!(bad_budget.validate().is_err());
        let bad_p = SchedConfig {
            seed: 0,
            budget: SimDuration::from_secs(1),
            policy: SchedPolicy::Reorder { p: 1.5 },
        };
        assert!(bad_p.validate().is_err());
        let no_victims = SchedConfig {
            seed: 0,
            budget: SimDuration::from_secs(1),
            policy: SchedPolicy::Victim { victims: vec![] },
        };
        assert!(no_victims.validate().is_err());
    }

    #[test]
    fn coin_starve_is_not_buildable_at_this_layer() {
        let cfg = SchedConfig {
            seed: 0,
            budget: SimDuration::from_secs(1),
            policy: SchedPolicy::CoinStarve { pass: 1 },
        };
        cfg.validate().unwrap();
        assert!(cfg.build_generic().is_none(), "needs envelope decoding upstream");
    }
}
