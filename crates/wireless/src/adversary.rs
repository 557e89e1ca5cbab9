//! Channel-level adversary and loss models.
//!
//! The asynchronous adversary of the paper (§III-A2) may delay messages
//! between any two nodes arbitrarily and reorder delivery, subject to the
//! standing assumption that messages between honest nodes are *eventually*
//! delivered. The simulator realizes this as (a) stochastic frame loss —
//! recovery is the NACK layer's job, so a lost frame is a bounded delay, not
//! a violation — and (b) targeted extra receive delays, clamped to a hard
//! per-delivery bound so the eventual-delivery assumption is *enforced*,
//! not merely documented. *Byzantine node behaviour* (equivocation, vote
//! flipping, silence) is implemented at the protocol layer, where the
//! protocol state lives. Adaptive worst-case scheduling lives in
//! [`sched`](crate::sched).

use crate::time::SimDuration;
use crate::topology::NodeId;
use rand::Rng;

/// Stochastic frame-loss model applied per (sender, receiver) delivery.
#[derive(Clone, Debug)]
#[derive(Default)]
pub enum LossModel {
    /// No losses beyond collisions.
    #[default]
    None,
    /// Every delivery independently lost with probability `p`.
    Uniform {
        /// Loss probability in `[0, 1)`.
        p: f64,
    },
    /// Asymmetric per-receiver loss (e.g. one node behind an obstacle).
    PerReceiver {
        /// `rates[node] = p` for that receiver; missing entries mean 0.
        rates: Vec<(NodeId, f64)>,
    },
}

/// Highest loss rate a *scenario* may configure. `p = 1.0` severs an
/// honest link permanently — no retransmission ever lands — which violates
/// the eventual-delivery assumption the protocols' liveness proofs rest
/// on; rates this close to 1 are already indistinguishable from that in
/// any finite run.
pub const MAX_SCENARIO_LOSS: f64 = 0.95;

impl LossModel {
    /// Rolls whether a delivery from `src` to `dst` is lost.
    pub fn is_lost(&self, _src: NodeId, dst: NodeId, rng: &mut impl Rng) -> bool {
        match self {
            LossModel::None => false,
            LossModel::Uniform { p } => rng.random_bool(*p),
            LossModel::PerReceiver { rates } => rates
                .iter()
                .find(|(n, _)| *n == dst)
                .map(|(_, p)| rng.random_bool(*p))
                .unwrap_or(false),
        }
    }

    /// Checks that every configured rate respects the model: finite,
    /// non-negative, and below [`MAX_SCENARIO_LOSS`] (strictly below 1, so
    /// every honest link eventually delivers). Scenario builders
    /// (`wbft_consensus::testbed::run`, sweep expansion) call this at
    /// build time and reject violating configs loudly instead of running a
    /// simulation whose correctness claims are vacuous.
    pub fn validate(&self) -> Result<(), String> {
        let check = |p: f64, what: &str| {
            if !p.is_finite() || !(0.0..=MAX_SCENARIO_LOSS).contains(&p) {
                Err(format!(
                    "{what} loss rate {p} outside [0, {MAX_SCENARIO_LOSS}] — \
                     rates at or near 1 sever the link and break eventual delivery"
                ))
            } else {
                Ok(())
            }
        };
        match self {
            LossModel::None => Ok(()),
            LossModel::Uniform { p } => check(*p, "uniform"),
            LossModel::PerReceiver { rates } => {
                for (node, p) in rates {
                    check(*p, &format!("per-receiver ({node})"))?;
                }
                Ok(())
            }
        }
    }
}

/// Default hard cap on the aggregate extra delay of one delivery when the
/// config doesn't set its own: comfortably above every stock jitter and
/// targeted-delay setting, far below run deadlines.
pub const DEFAULT_DELAY_BOUND: SimDuration = SimDuration::from_secs(30);

/// Adversarial scheduling of honest-to-honest deliveries: extra receive
/// delays, clamped to [`AdversaryConfig::delay_bound`] so that eventual
/// delivery holds whatever `jitter`/`targeted` are set to.
#[derive(Clone, Debug, Default)]
pub struct AdversaryConfig {
    /// Random extra delay in `[0, max)` added to every delivery —
    /// asynchrony "weather".
    pub jitter: Option<SimDuration>,
    /// Targeted slow-down: deliveries *to* these nodes get the extra delay
    /// (modelling an adversary throttling specific victims).
    pub targeted: Vec<(NodeId, SimDuration)>,
    /// Hard cap on the aggregate extra delay of one delivery; `None` means
    /// [`DEFAULT_DELAY_BOUND`]. [`AdversaryConfig::extra_delay`] clamps to
    /// it unconditionally — a config cannot opt out of bounded delays.
    pub bound: Option<SimDuration>,
}

impl AdversaryConfig {
    /// No adversarial scheduling.
    pub fn benign() -> Self {
        AdversaryConfig::default()
    }

    /// Uniform random delivery jitter up to `max`.
    pub fn with_jitter(max: SimDuration) -> Self {
        AdversaryConfig { jitter: Some(max), targeted: Vec::new(), bound: None }
    }

    /// The enforced per-delivery delay cap.
    pub fn delay_bound(&self) -> SimDuration {
        self.bound.unwrap_or(DEFAULT_DELAY_BOUND)
    }

    /// Checks the config is honest about its delays: the bound must be
    /// positive and no configured component may exceed it (a `targeted`
    /// entry above the bound would silently clamp, making the config lie
    /// about the delay it imposes). Scenario builders call this at build
    /// time.
    pub fn validate(&self) -> Result<(), String> {
        let bound = self.delay_bound();
        if bound.as_micros() == 0 {
            return Err("adversary delay bound must be positive".into());
        }
        if let Some(j) = self.jitter {
            if j > bound {
                return Err(format!(
                    "jitter {}µs exceeds the delay bound {}µs",
                    j.as_micros(),
                    bound.as_micros()
                ));
            }
        }
        for (node, d) in &self.targeted {
            if *d > bound {
                return Err(format!(
                    "targeted delay {}µs for {node} exceeds the delay bound {}µs",
                    d.as_micros(),
                    bound.as_micros()
                ));
            }
        }
        Ok(())
    }

    /// The extra delay for one delivery, clamped to
    /// [`AdversaryConfig::delay_bound`].
    pub fn extra_delay(&self, _src: NodeId, dst: NodeId, rng: &mut impl Rng) -> SimDuration {
        let mut extra = SimDuration::ZERO;
        if let Some(max) = self.jitter {
            if max.as_micros() > 0 {
                extra += SimDuration::from_micros(rng.random_range(0..max.as_micros()));
            }
        }
        if let Some((_, d)) = self.targeted.iter().find(|(n, _)| *n == dst) {
            extra += *d;
        }
        extra.min(self.delay_bound())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand_chacha::ChaCha12Rng {
        rand_chacha::ChaCha12Rng::seed_from_u64(1)
    }

    #[test]
    fn none_never_loses() {
        let mut r = rng();
        for _ in 0..100 {
            assert!(!LossModel::None.is_lost(NodeId(0), NodeId(1), &mut r));
        }
    }

    #[test]
    fn uniform_loss_rate_is_plausible() {
        let mut r = rng();
        let m = LossModel::Uniform { p: 0.3 };
        let lost = (0..10_000).filter(|_| m.is_lost(NodeId(0), NodeId(1), &mut r)).count();
        assert!((2_700..3_300).contains(&lost), "lost {lost}/10000");
    }

    #[test]
    fn per_receiver_only_affects_victim() {
        let mut r = rng();
        let m = LossModel::PerReceiver { rates: vec![(NodeId(2), 0.9)] };
        let victim =
            (0..1_000).filter(|_| m.is_lost(NodeId(0), NodeId(2), &mut r)).count();
        let other =
            (0..1_000).filter(|_| m.is_lost(NodeId(0), NodeId(1), &mut r)).count();
        assert!((850..=950).contains(&victim), "victim lost {victim}/1000");
        assert_eq!(other, 0, "non-victim must never roll a loss");
    }

    #[test]
    fn loss_validation_enforces_eventual_delivery() {
        assert!(LossModel::None.validate().is_ok());
        assert!(LossModel::Uniform { p: 0.3 }.validate().is_ok());
        assert!(LossModel::Uniform { p: MAX_SCENARIO_LOSS }.validate().is_ok());
        // The bug this guards against: p = 1.0 permanently severs links.
        assert!(LossModel::Uniform { p: 1.0 }.validate().is_err());
        assert!(LossModel::Uniform { p: 0.97 }.validate().is_err());
        assert!(LossModel::Uniform { p: -0.1 }.validate().is_err());
        assert!(LossModel::Uniform { p: f64::NAN }.validate().is_err());
        assert!(LossModel::PerReceiver { rates: vec![(NodeId(1), 0.5)] }.validate().is_ok());
        assert!(LossModel::PerReceiver { rates: vec![(NodeId(1), 1.0)] }
            .validate()
            .is_err());
    }

    #[test]
    fn benign_adversary_adds_no_delay() {
        let mut r = rng();
        let a = AdversaryConfig::benign();
        assert_eq!(a.extra_delay(NodeId(0), NodeId(1), &mut r), SimDuration::ZERO);
    }

    #[test]
    fn jitter_is_bounded() {
        let mut r = rng();
        let a = AdversaryConfig::with_jitter(SimDuration::from_millis(10));
        for _ in 0..100 {
            let d = a.extra_delay(NodeId(0), NodeId(1), &mut r);
            assert!(d < SimDuration::from_millis(10));
        }
    }

    #[test]
    fn targeted_delay_stacks_on_jitter() {
        let mut r = rng();
        let a = AdversaryConfig {
            jitter: None,
            targeted: vec![(NodeId(3), SimDuration::from_secs(1))],
            bound: None,
        };
        assert_eq!(a.extra_delay(NodeId(0), NodeId(3), &mut r), SimDuration::from_secs(1));
        assert_eq!(a.extra_delay(NodeId(0), NodeId(2), &mut r), SimDuration::ZERO);
    }

    #[test]
    fn aggregate_delay_is_clamped_to_the_bound() {
        let mut r = rng();
        // The bug this guards against: `targeted` used to be unchecked, so
        // a config could impose unbounded delay while claiming eventual
        // delivery. Now even a delay far above the bound is clamped.
        let a = AdversaryConfig {
            jitter: Some(SimDuration::from_secs(2)),
            targeted: vec![(NodeId(1), SimDuration::from_secs(3_600))],
            bound: Some(SimDuration::from_secs(4)),
        };
        for _ in 0..50 {
            let d = a.extra_delay(NodeId(0), NodeId(1), &mut r);
            assert_eq!(d, SimDuration::from_secs(4), "aggregate must clamp to the bound");
        }
        // Unset bound falls back to the named default.
        let b = AdversaryConfig {
            jitter: None,
            targeted: vec![(NodeId(1), SimDuration::from_secs(10_000))],
            bound: None,
        };
        assert_eq!(b.extra_delay(NodeId(0), NodeId(1), &mut r), DEFAULT_DELAY_BOUND);
    }

    #[test]
    fn adversary_validation_rejects_dishonest_configs() {
        assert!(AdversaryConfig::benign().validate().is_ok());
        assert!(AdversaryConfig::with_jitter(SimDuration::from_millis(10)).validate().is_ok());
        let over_jitter = AdversaryConfig {
            jitter: Some(SimDuration::from_secs(5)),
            targeted: Vec::new(),
            bound: Some(SimDuration::from_secs(1)),
        };
        assert!(over_jitter.validate().is_err());
        let over_target = AdversaryConfig {
            jitter: None,
            targeted: vec![(NodeId(0), SimDuration::from_secs(120))],
            bound: None,
        };
        assert!(over_target.validate().is_err(), "target above the default bound");
        let zero_bound = AdversaryConfig {
            jitter: None,
            targeted: Vec::new(),
            bound: Some(SimDuration::ZERO),
        };
        assert!(zero_bound.validate().is_err());
    }
}
