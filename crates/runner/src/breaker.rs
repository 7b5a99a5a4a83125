//! A circuit breaker for the simulation oracle.
//!
//! When a backend is sick — hung simulator, corrupted install, a
//! fault-injection period that fails everything — retrying every job
//! against it converts one failure into `jobs × max_attempts` slow
//! failures. The breaker watches consecutive failures and, once
//! tripped, short-circuits jobs away from the oracle (the engine
//! degrades them to calibrated analytic backfill) until a cooldown has
//! passed; then it lets probe jobs through (half-open) and closes again
//! only after enough probes succeed.
//!
//! The breaker is deliberately clock-free: `Open → HalfOpen` advances
//! after a *count* of short-circuited jobs rather than a wall-time
//! cooldown, so its whole trajectory is a pure function of the
//! admit/success/failure sequence — which is what lets a resumed run
//! replay the journal through a fresh breaker and land in exactly the
//! state the interrupted run was in.

use crate::{Error, Result};

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive oracle failures that trip the breaker open.
    pub trip_threshold: usize,
    /// Jobs short-circuited while open before probing (half-open).
    pub cooldown: usize,
    /// Consecutive probe successes required to close again.
    pub probes: usize,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            trip_threshold: 5,
            cooldown: 3,
            probes: 2,
        }
    }
}

impl BreakerPolicy {
    /// Validate the policy's parameters.
    pub fn validate(&self) -> Result<()> {
        if self.trip_threshold == 0 {
            return Err(Error::InvalidConfig(
                "breaker trip_threshold must be positive",
            ));
        }
        if self.probes == 0 {
            return Err(Error::InvalidConfig("breaker probes must be positive"));
        }
        // cooldown == 0 is legal: the breaker trips and immediately
        // probes, never sacrificing a job — a pure retry-limiter.
        Ok(())
    }
}

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every job is admitted.
    Closed,
    /// Tripped: jobs are short-circuited to analytic backfill.
    Open,
    /// Probing: jobs are admitted; failures re-open immediately.
    HalfOpen,
}

impl BreakerState {
    /// Stable lower-case name, used in trace events and metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }

    /// Inverse of [`BreakerState::as_str`], used when loading journal
    /// checkpoint records.
    pub fn parse(name: &str) -> Option<BreakerState> {
        match name {
            "closed" => Some(BreakerState::Closed),
            "open" => Some(BreakerState::Open),
            "half-open" => Some(BreakerState::HalfOpen),
            _ => None,
        }
    }

    /// Small integer encoding for the `engine_breaker_state` gauge
    /// (0 = closed, 1 = open, 2 = half-open).
    pub fn as_gauge(&self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::Open => 1.0,
            BreakerState::HalfOpen => 2.0,
        }
    }
}

/// One observed breaker state change, drained via
/// [`CircuitBreaker::take_transition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// State before the change.
    pub from: BreakerState,
    /// State after the change.
    pub to: BreakerState,
}

/// What the breaker decided for a job about to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run the oracle.
    Admit,
    /// Do not run the oracle; degrade the job to backfill.
    ShortCircuit,
}

/// The breaker itself. Drive it with [`CircuitBreaker::admit`] before
/// each oracle attempt and [`CircuitBreaker::on_success`] /
/// [`CircuitBreaker::on_failure`] after.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    consecutive_failures: usize,
    shorted_while_open: usize,
    probe_successes: usize,
    trips: usize,
    short_circuits: usize,
    last_transition: Option<Transition>,
}

impl CircuitBreaker {
    /// Build a breaker under `policy`.
    pub fn new(policy: BreakerPolicy) -> Result<Self> {
        policy.validate()?;
        Ok(CircuitBreaker {
            policy,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            shorted_while_open: 0,
            probe_successes: 0,
            trips: 0,
            short_circuits: 0,
            last_transition: None,
        })
    }

    /// Move to `to`, recording the transition for
    /// [`CircuitBreaker::take_transition`].
    fn set_state(&mut self, to: BreakerState) {
        if self.state != to {
            self.last_transition = Some(Transition {
                from: self.state,
                to,
            });
        }
        self.state = to;
    }

    /// Drain the most recent state transition, if one happened since
    /// the last drain. The engine calls this after every
    /// `admit`/`on_success`/`on_failure` to turn state changes into
    /// trace events; each of those calls changes state at most once, so
    /// a single slot loses nothing.
    pub fn take_transition(&mut self) -> Option<Transition> {
        self.last_transition.take()
    }

    /// Decide whether the next oracle attempt may run. Must be called
    /// exactly once per attempt (it advances the open-state cooldown).
    pub fn admit(&mut self) -> Admission {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => Admission::Admit,
            BreakerState::Open => {
                if self.shorted_while_open < self.policy.cooldown {
                    self.shorted_while_open += 1;
                    self.short_circuits += 1;
                    Admission::ShortCircuit
                } else {
                    self.set_state(BreakerState::HalfOpen);
                    self.probe_successes = 0;
                    Admission::Admit
                }
            }
        }
    }

    /// Record a successful oracle attempt.
    pub fn on_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.probe_successes += 1;
                if self.probe_successes >= self.policy.probes {
                    self.set_state(BreakerState::Closed);
                    self.consecutive_failures = 0;
                }
            }
            // A success reported while open carries no health signal:
            // only an admitted attempt may report one.
            BreakerState::Open => {}
        }
    }

    /// Record a failed (or timed-out) oracle attempt.
    pub fn on_failure(&mut self) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.policy.trip_threshold {
                    self.trip();
                }
            }
            BreakerState::HalfOpen => self.trip(),
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self) {
        self.set_state(BreakerState::Open);
        self.trips += 1;
        self.shorted_while_open = 0;
        self.probe_successes = 0;
        self.consecutive_failures = 0;
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times the breaker has tripped open.
    pub fn trips(&self) -> usize {
        self.trips
    }

    /// Total jobs short-circuited away from the oracle.
    pub fn short_circuits(&self) -> usize {
        self.short_circuits
    }

    /// Capture the breaker's full mutable state. Together with the
    /// policy, the snapshot reconstructs a breaker byte-for-byte: the
    /// journal's checkpoint records persist one per shard so a resume
    /// can restore breaker state without replaying the whole journal.
    pub fn snapshot(&self) -> BreakerSnapshot {
        BreakerSnapshot {
            state: self.state,
            consecutive_failures: self.consecutive_failures,
            shorted_while_open: self.shorted_while_open,
            probe_successes: self.probe_successes,
            trips: self.trips,
            short_circuits: self.short_circuits,
        }
    }

    /// Rebuild a breaker from a [`BreakerSnapshot`] under `policy`.
    /// The pending-transition slot starts empty: a restored breaker has
    /// no undrained history.
    pub fn from_snapshot(policy: BreakerPolicy, snap: BreakerSnapshot) -> Result<Self> {
        policy.validate()?;
        Ok(CircuitBreaker {
            policy,
            state: snap.state,
            consecutive_failures: snap.consecutive_failures,
            shorted_while_open: snap.shorted_while_open,
            probe_successes: snap.probe_successes,
            trips: snap.trips,
            short_circuits: snap.short_circuits,
            last_transition: None,
        })
    }
}

/// A serializable snapshot of a breaker's mutable state (everything
/// except the policy, which the run configuration already carries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// Breaker state at the snapshot.
    pub state: BreakerState,
    /// Closed-state consecutive failure streak.
    pub consecutive_failures: usize,
    /// Jobs short-circuited in the current open period.
    pub shorted_while_open: usize,
    /// Consecutive probe successes in the current half-open period.
    pub probe_successes: usize,
    /// Lifetime trip count.
    pub trips: usize,
    /// Lifetime short-circuit count.
    pub short_circuits: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(trip: usize, cooldown: usize, probes: usize) -> CircuitBreaker {
        CircuitBreaker::new(BreakerPolicy {
            trip_threshold: trip,
            cooldown,
            probes,
        })
        .unwrap()
    }

    #[test]
    fn trips_after_k_consecutive_failures_only() {
        let mut b = breaker(3, 2, 1);
        for _ in 0..2 {
            assert_eq!(b.admit(), Admission::Admit);
            b.on_failure();
        }
        // A success resets the streak.
        assert_eq!(b.admit(), Admission::Admit);
        b.on_success();
        for _ in 0..2 {
            assert_eq!(b.admit(), Admission::Admit);
            b.on_failure();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(), Admission::Admit);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn open_short_circuits_for_cooldown_then_probes() {
        let mut b = breaker(1, 2, 1);
        b.admit();
        b.on_failure(); // trips
        assert_eq!(b.admit(), Admission::ShortCircuit);
        assert_eq!(b.admit(), Admission::ShortCircuit);
        assert_eq!(b.short_circuits(), 2);
        // Cooldown spent: next job is a probe.
        assert_eq!(b.admit(), Admission::Admit);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_failure_reopens() {
        let mut b = breaker(1, 0, 2);
        b.admit();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // cooldown = 0: probes immediately.
        assert_eq!(b.admit(), Admission::Admit);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // Needs `probes` consecutive successes to close.
        b.admit();
        b.on_success();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.admit();
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn stale_reports_while_open_are_ignored() {
        let mut b = breaker(1, 5, 1);
        b.admit();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        b.on_success();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn half_open_to_closed_recovery_emits_transitions() {
        // trip → cooldown → probe twice → closed, draining the
        // transition slot at every step to check the emitted sequence.
        let mut b = breaker(1, 1, 2);
        assert_eq!(b.take_transition(), None, "fresh breaker has no history");
        b.admit();
        b.on_failure();
        assert_eq!(
            b.take_transition(),
            Some(Transition {
                from: BreakerState::Closed,
                to: BreakerState::Open,
            })
        );
        assert_eq!(b.admit(), Admission::ShortCircuit);
        assert_eq!(b.take_transition(), None, "cooldown burn is not a change");
        assert_eq!(b.admit(), Admission::Admit);
        assert_eq!(
            b.take_transition(),
            Some(Transition {
                from: BreakerState::Open,
                to: BreakerState::HalfOpen,
            })
        );
        b.on_success();
        assert_eq!(b.take_transition(), None, "first probe is not enough");
        b.admit();
        b.on_success();
        assert_eq!(
            b.take_transition(),
            Some(Transition {
                from: BreakerState::HalfOpen,
                to: BreakerState::Closed,
            }),
            "second probe success closes the breaker"
        );
        assert_eq!(b.state(), BreakerState::Closed);
        // Recovery is real: the next failure streak starts from zero.
        b.admit();
        b.on_failure();
        assert_eq!(b.trips(), 2, "threshold 1 re-trips on the next failure");
    }

    #[test]
    fn half_open_to_open_retrip_emits_transitions() {
        let mut b = breaker(2, 0, 1);
        b.admit();
        b.on_failure();
        b.admit();
        b.on_failure(); // second consecutive failure trips
        assert_eq!(
            b.take_transition(),
            Some(Transition {
                from: BreakerState::Closed,
                to: BreakerState::Open,
            })
        );
        // cooldown = 0: the next admit probes immediately.
        assert_eq!(b.admit(), Admission::Admit);
        assert_eq!(
            b.take_transition(),
            Some(Transition {
                from: BreakerState::Open,
                to: BreakerState::HalfOpen,
            })
        );
        b.on_failure();
        assert_eq!(
            b.take_transition(),
            Some(Transition {
                from: BreakerState::HalfOpen,
                to: BreakerState::Open,
            }),
            "a half-open failure re-trips immediately"
        );
        assert_eq!(b.trips(), 2);
        // A re-trip resets the cooldown: the path back is probe again.
        assert_eq!(b.admit(), Admission::Admit);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(
            b.take_transition().map(|t| t.to),
            Some(BreakerState::Closed)
        );
    }

    #[test]
    fn state_names_are_stable() {
        assert_eq!(BreakerState::Closed.as_str(), "closed");
        assert_eq!(BreakerState::Open.as_str(), "open");
        assert_eq!(BreakerState::HalfOpen.as_str(), "half-open");
        assert_eq!(BreakerState::Closed.as_gauge(), 0.0);
        assert_eq!(BreakerState::Open.as_gauge(), 1.0);
        assert_eq!(BreakerState::HalfOpen.as_gauge(), 2.0);
    }

    #[test]
    fn snapshot_round_trips_mid_trajectory() {
        // Drive a breaker into a nontrivial state (open, mid-cooldown,
        // with history), snapshot it, restore, and require both copies
        // to walk identical trajectories from there on.
        let mut b = breaker(2, 2, 2);
        b.admit();
        b.on_failure();
        b.admit();
        b.on_failure(); // trips open
        assert_eq!(b.admit(), Admission::ShortCircuit); // one cooldown burn
        let snap = b.snapshot();
        assert_eq!(snap.state, BreakerState::Open);
        assert_eq!(snap.trips, 1);
        assert_eq!(snap.shorted_while_open, 1);
        let mut restored = CircuitBreaker::from_snapshot(
            BreakerPolicy {
                trip_threshold: 2,
                cooldown: 2,
                probes: 2,
            },
            snap,
        )
        .unwrap();
        let _ = b.take_transition();
        assert_eq!(restored.take_transition(), None, "restored history empty");
        // Identical continuations.
        for _ in 0..6 {
            assert_eq!(restored.admit(), b.admit());
            restored.on_success();
            b.on_success();
            assert_eq!(restored.snapshot(), b.snapshot());
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn snapshot_restore_rejects_invalid_policy() {
        let snap = breaker(1, 1, 1).snapshot();
        assert!(CircuitBreaker::from_snapshot(
            BreakerPolicy {
                trip_threshold: 0,
                cooldown: 1,
                probes: 1,
            },
            snap,
        )
        .is_err());
    }

    #[test]
    fn state_parse_inverts_as_str() {
        for s in [
            BreakerState::Closed,
            BreakerState::Open,
            BreakerState::HalfOpen,
        ] {
            assert_eq!(BreakerState::parse(s.as_str()), Some(s));
        }
        assert_eq!(BreakerState::parse("ajar"), None);
    }

    #[test]
    fn invalid_policies_are_rejected() {
        assert!(CircuitBreaker::new(BreakerPolicy {
            trip_threshold: 0,
            cooldown: 1,
            probes: 1,
        })
        .is_err());
        assert!(CircuitBreaker::new(BreakerPolicy {
            trip_threshold: 1,
            cooldown: 0,
            probes: 0,
        })
        .is_err());
    }
}
