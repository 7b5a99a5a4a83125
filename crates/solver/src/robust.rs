//! A resilient fallback cascade around [`newton_system`].
//!
//! The paper's APS flow assumes the analysis stage always produces a
//! usable skeleton, but real design-space sweeps hit ill-conditioned
//! corners: singular KKT Jacobians on plateaus of the objective,
//! residuals that go non-finite outside the physical domain, and
//! line-search stalls at the finite-difference precision floor. This
//! module turns those hard failures into graceful degradation:
//!
//! 1. **Nominal Newton** — damped Newton from the caller's start;
//! 2. **Perturbed restarts** — bounded retries from deterministically
//!    perturbed starts (an escalating, seeded low-discrepancy jitter:
//!    identical inputs always walk the same restart sequence);
//! 3. **Derivative-free fallback** — coarse grid seeding of ‖F‖²
//!    (reusing [`crate::grid`]), golden-section refinement for 1-D
//!    systems (reusing [`crate::golden`]) or Nelder–Mead otherwise,
//!    with a final Newton polish when the seeded start permits one.
//!
//! Every stage is recorded in a [`SolveReport`], so callers can
//! distinguish a clean solve from a degraded one instead of receiving a
//! bare `Ok`/`Err`.

use crate::golden::golden_section;
use crate::grid::{grid_minimize, GridSpec};
use crate::linalg::norm2;
use crate::nelder::{nelder_mead, NelderMeadOptions};
use crate::newton::{newton_system, newton_system_in, NewtonOptions, NewtonSolution};
use crate::{Error, Result};
use c2_obs::{MetricsSink, NullSink};

/// Which cascade stage produced the accepted solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStrategy {
    /// Damped Newton from the caller's starting point.
    NominalNewton,
    /// Newton restarted from a deterministically perturbed start.
    PerturbedNewton {
        /// 1-based index of the restart that succeeded.
        attempt: usize,
    },
    /// Grid-seeded golden-section / Nelder–Mead minimization of ‖F‖².
    DerivativeFree,
}

impl std::fmt::Display for SolveStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveStrategy::NominalNewton => write!(f, "nominal-newton"),
            SolveStrategy::PerturbedNewton { attempt } => {
                write!(f, "perturbed-newton(restart {attempt})")
            }
            SolveStrategy::DerivativeFree => write!(f, "derivative-free"),
        }
    }
}

/// How trustworthy the accepted solution is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveQuality {
    /// Residual at or below the Newton tolerance.
    Clean,
    /// Residual above the Newton tolerance but within
    /// [`RobustOptions::degraded_tol`]: usable, flagged for the caller.
    Degraded,
}

impl SolveQuality {
    /// Stable lower-case name, used in trace events.
    pub fn as_str(&self) -> &'static str {
        match self {
            SolveQuality::Clean => "clean",
            SolveQuality::Degraded => "degraded",
        }
    }
}

/// One cascade stage that was attempted before success (or total
/// failure): which strategy ran and why it was rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// The stage that ran.
    pub strategy: SolveStrategy,
    /// The error that ended it.
    pub error: Error,
}

/// Options for [`solve_robust`].
#[derive(Debug, Clone, Copy)]
pub struct RobustOptions {
    /// Options for each Newton attempt (stages 1 and 2, and the polish
    /// of stage 3).
    pub newton: NewtonOptions,
    /// Maximum perturbed restarts (stage 2). 0 skips straight from the
    /// nominal attempt to the derivative-free fallback.
    pub max_restarts: usize,
    /// Relative scale of the first restart's perturbation; escalates by
    /// 1.5× per restart.
    pub perturbation: f64,
    /// Seed for the deterministic restart jitter.
    pub seed: u64,
    /// Half-span of the fallback grid around the start, as a multiple
    /// of `max(|x0_i|, 1)` per dimension.
    pub grid_span: f64,
    /// Grid steps per dimension (total points capped at ~20 000 by
    /// shrinking this automatically for high-dimensional systems).
    pub grid_steps: usize,
    /// Residual bound for accepting a *degraded* solution from the
    /// derivative-free stage.
    pub degraded_tol: f64,
}

impl Default for RobustOptions {
    fn default() -> Self {
        RobustOptions {
            newton: NewtonOptions::default(),
            max_restarts: 6,
            perturbation: 0.25,
            seed: 0xC2B0_07D5,
            grid_span: 4.0,
            grid_steps: 9,
            degraded_tol: 1e-6,
        }
    }
}

/// The structured result of [`solve_robust`]: the solution plus the
/// full story of how it was obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// The accepted solution (point, residual, iterations of the
    /// winning stage).
    pub solution: NewtonSolution,
    /// The stage that produced it.
    pub strategy: SolveStrategy,
    /// Perturbed restarts consumed before success (0 for a nominal
    /// win; equals `max_restarts` when the fallback had to run).
    pub retries: usize,
    /// Clean (at Newton tolerance) or degraded (within
    /// [`RobustOptions::degraded_tol`] only).
    pub quality: SolveQuality,
    /// Every failed stage, in order, with the error that ended it.
    pub attempts: Vec<AttemptRecord>,
}

impl SolveReport {
    /// `true` when the winning stage met the full Newton tolerance.
    pub fn is_clean(&self) -> bool {
        self.quality == SolveQuality::Clean
    }
}

/// One SplitMix64 step — the deterministic jitter source for restarts.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map 64 random bits to `[-1, 1)`.
fn unit_signed(bits: u64) -> f64 {
    (bits >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
}

fn quality_of(residual: f64, tol: f64) -> SolveQuality {
    if residual <= tol {
        SolveQuality::Clean
    } else {
        SolveQuality::Degraded
    }
}

/// Solve `F(x) = 0` with the fallback cascade. `f(x, out)` writes the
/// residual into `out` (same length as `x`), exactly as for
/// [`newton_system`].
///
/// On success the [`SolveReport`] names the winning strategy, the
/// restarts consumed, and whether the solve was clean or degraded; on
/// failure the error is [`Error::DidNotConverge`] carrying the best
/// residual any stage achieved.
pub fn solve_robust<F>(f: F, x0: &[f64], opts: &RobustOptions) -> Result<SolveReport>
where
    F: Fn(&[f64], &mut [f64]),
{
    solve_robust_observed(f, x0, opts, &NullSink)
}

/// Histogram ladder for Newton iteration counts.
const ITERATION_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
/// Histogram ladder for accepted-solution residuals.
const RESIDUAL_BOUNDS: &[f64] = &[1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1.0];

/// Emit the acceptance record for a finished cascade.
fn emit_accepted(sink: &dyn MetricsSink, report: &SolveReport) {
    sink.counter_add("solver_solves_total", 1);
    sink.observe(
        "solver_newton_iterations",
        ITERATION_BOUNDS,
        report.solution.iterations as f64,
    );
    sink.observe("solver_residual", RESIDUAL_BOUNDS, report.solution.residual);
    sink.event(
        "solver",
        "cascade.accepted",
        &[
            ("rung", report.strategy.to_string().into()),
            ("retries", report.retries.into()),
            ("quality", report.quality.as_str().into()),
            ("iterations", report.solution.iterations.into()),
            ("residual", report.solution.residual.into()),
        ],
    );
}

/// Emit the failure record for one cascade rung.
fn emit_rung_failed(sink: &dyn MetricsSink, strategy: SolveStrategy, error: &Error) {
    sink.counter_add("solver_rung_failures_total", 1);
    sink.event(
        "solver",
        "cascade.rung_failed",
        &[
            ("rung", strategy.to_string().into()),
            ("error", error.to_string().into()),
        ],
    );
}

/// The cascade's first rung: one damped Newton attempt from `x0`,
/// confined to `in_domain` (see [`newton_system_in`]), with its rung
/// entry and its acceptance or failure reported to `sink`.
pub(crate) fn nominal_rung<F, D>(
    f: F,
    x0: &[f64],
    newton: &NewtonOptions,
    in_domain: D,
    sink: &dyn MetricsSink,
) -> Result<SolveReport>
where
    F: Fn(&[f64], &mut [f64]),
    D: Fn(&[f64]) -> bool,
{
    sink.event(
        "solver",
        "cascade.rung",
        &[("rung", SolveStrategy::NominalNewton.to_string().into())],
    );
    match newton_system_in(f, x0, newton, in_domain) {
        Ok(solution) => {
            let report = SolveReport {
                quality: quality_of(solution.residual, newton.tol),
                solution,
                strategy: SolveStrategy::NominalNewton,
                retries: 0,
                attempts: Vec::new(),
            };
            emit_accepted(sink, &report);
            Ok(report)
        }
        Err(e) => {
            emit_rung_failed(sink, SolveStrategy::NominalNewton, &e);
            Err(e)
        }
    }
}

/// [`solve_robust`] with the cascade instrumented: every rung entry,
/// rung failure and the final acceptance (or exhaustion) is reported
/// to `sink` under the `solver` scope. The plain entry point is this
/// function with a [`NullSink`].
pub fn solve_robust_observed<F>(
    f: F,
    x0: &[f64],
    opts: &RobustOptions,
    sink: &dyn MetricsSink,
) -> Result<SolveReport>
where
    F: Fn(&[f64], &mut [f64]),
{
    if x0.is_empty() {
        return Err(Error::InvalidParameter("empty system"));
    }
    if !(opts.perturbation > 0.0) {
        return Err(Error::InvalidParameter("perturbation must be positive"));
    }
    if !(opts.grid_span > 0.0) || opts.grid_steps < 2 {
        return Err(Error::InvalidParameter(
            "grid_span must be positive and grid_steps at least 2",
        ));
    }
    let mut attempts = Vec::new();

    // Stage 1: nominal Newton.
    match nominal_rung(&f, x0, &opts.newton, |_| true, sink) {
        Ok(report) => return Ok(report),
        Err(e) => attempts.push(AttemptRecord {
            strategy: SolveStrategy::NominalNewton,
            error: e,
        }),
    }

    // Stage 2: bounded restarts from deterministically perturbed starts.
    let mut rng_state = opts.seed;
    for attempt in 1..=opts.max_restarts {
        let scale = opts.perturbation * 1.5f64.powi(attempt as i32 - 1);
        let start: Vec<f64> = x0
            .iter()
            .map(|&xi| xi + scale * xi.abs().max(1.0) * unit_signed(splitmix64(&mut rng_state)))
            .collect();
        sink.event(
            "solver",
            "cascade.rung",
            &[(
                "rung",
                SolveStrategy::PerturbedNewton { attempt }
                    .to_string()
                    .into(),
            )],
        );
        match newton_system(&f, &start, &opts.newton) {
            Ok(solution) => {
                let quality = quality_of(solution.residual, opts.newton.tol);
                let report = SolveReport {
                    solution,
                    strategy: SolveStrategy::PerturbedNewton { attempt },
                    retries: attempt,
                    quality,
                    attempts,
                };
                emit_accepted(sink, &report);
                return Ok(report);
            }
            Err(e) => {
                emit_rung_failed(sink, SolveStrategy::PerturbedNewton { attempt }, &e);
                attempts.push(AttemptRecord {
                    strategy: SolveStrategy::PerturbedNewton { attempt },
                    error: e,
                });
            }
        }
    }

    // Stage 3: derivative-free fallback on the merit ‖F(x)‖₂.
    sink.event(
        "solver",
        "cascade.rung",
        &[("rung", SolveStrategy::DerivativeFree.to_string().into())],
    );
    let n = x0.len();
    let mut buf = vec![0.0; n];
    let merit = |x: &[f64]| -> f64 {
        let mut out = vec![0.0; x.len()];
        f(x, &mut out);
        if out.iter().all(|v| v.is_finite()) {
            norm2(&out)
        } else {
            // Large-but-finite so the simplex can still move off it.
            1e30
        }
    };

    // Coarse grid seed around the start, with the per-dimension step
    // count shrunk so the total stays bounded in high dimensions.
    let mut steps = opts.grid_steps;
    const MAX_GRID_POINTS: f64 = 20_000.0;
    while steps > 2 && (steps as f64).powi(n as i32) > MAX_GRID_POINTS {
        steps -= 1;
    }
    let axes: Vec<GridSpec> = x0
        .iter()
        .map(|&xi| {
            let half = opts.grid_span * xi.abs().max(1.0);
            GridSpec::linear(xi - half, xi + half, steps)
        })
        .collect();
    let seeded = grid_minimize(&axes, |p| {
        let m = merit(p);
        if m >= 1e30 {
            f64::NAN // let the grid skip poisoned regions
        } else {
            m
        }
    });
    let (mut best_x, mut best_m) = match seeded {
        Ok(s) => s,
        Err(e) => {
            emit_rung_failed(sink, SolveStrategy::DerivativeFree, &e);
            sink.counter_add("solver_solve_failures_total", 1);
            attempts.push(AttemptRecord {
                strategy: SolveStrategy::DerivativeFree,
                error: e.clone(),
            });
            return Err(finalize_failure(e, &attempts));
        }
    };

    // Newton polish from the seed: if the basin is smooth this recovers
    // a clean solve and the report still (honestly) credits the
    // derivative-free stage that found the basin.
    if let Ok(polished) = newton_system(&f, &best_x, &opts.newton) {
        let quality = quality_of(polished.residual, opts.newton.tol);
        let report = SolveReport {
            solution: polished,
            strategy: SolveStrategy::DerivativeFree,
            retries: opts.max_restarts,
            quality,
            attempts,
        };
        emit_accepted(sink, &report);
        return Ok(report);
    }

    // Refine without derivatives: golden section for 1-D, Nelder–Mead
    // otherwise.
    if n == 1 {
        let spacing = (axes[0].hi - axes[0].lo) / (steps - 1) as f64;
        if let Ok((x, m)) = golden_section(
            |x| merit(&[x]),
            best_x[0] - spacing,
            best_x[0] + spacing,
            1e-12,
        ) {
            if m < best_m {
                best_x = vec![x];
                best_m = m;
            }
        }
    } else if let Ok((x, m)) = nelder_mead(
        merit,
        &best_x,
        &NelderMeadOptions {
            max_iters: 4000,
            tol: 1e-14,
            ..NelderMeadOptions::default()
        },
    ) {
        if m < best_m {
            best_x = x;
            best_m = m;
        }
    }

    if best_m <= opts.degraded_tol {
        f(&best_x, &mut buf);
        let residual = norm2(&buf);
        let quality = quality_of(residual, opts.newton.tol);
        let report = SolveReport {
            solution: NewtonSolution {
                x: best_x,
                residual,
                iterations: 0,
            },
            strategy: SolveStrategy::DerivativeFree,
            retries: opts.max_restarts,
            quality,
            attempts,
        };
        emit_accepted(sink, &report);
        return Ok(report);
    }
    let err = Error::DidNotConverge {
        iterations: opts.newton.max_iters,
        residual: best_m,
    };
    emit_rung_failed(sink, SolveStrategy::DerivativeFree, &err);
    sink.counter_add("solver_solve_failures_total", 1);
    attempts.push(AttemptRecord {
        strategy: SolveStrategy::DerivativeFree,
        error: err.clone(),
    });
    Err(finalize_failure(err, &attempts))
}

/// Collapse a failed cascade into the most informative single error:
/// prefer the smallest recorded residual so the caller sees how close
/// the cascade got.
fn finalize_failure(last: Error, attempts: &[AttemptRecord]) -> Error {
    attempts
        .iter()
        .filter_map(|a| match &a.error {
            Error::DidNotConverge {
                iterations,
                residual,
            } => Some((*iterations, *residual)),
            _ => None,
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(iterations, residual)| Error::DidNotConverge {
            iterations,
            residual,
        })
        .unwrap_or(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_posed_system_solves_nominally() {
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] * x[0] + x[1] * x[1] - 2.0;
            out[1] = x[0] - x[1];
        };
        let r = solve_robust(f, &[2.0, 0.5], &RobustOptions::default()).unwrap();
        assert_eq!(r.strategy, SolveStrategy::NominalNewton);
        assert_eq!(r.retries, 0);
        assert!(r.is_clean());
        assert!(r.attempts.is_empty());
        assert!((r.solution.x[0] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn singular_start_recovers_via_perturbed_restart() {
        // J(0) = 0 for F(x) = x^2 - 1: nominal Newton dies on a singular
        // matrix; any perturbed start converges.
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] * x[0] - 1.0;
        };
        let r = solve_robust(f, &[0.0], &RobustOptions::default()).unwrap();
        assert!(matches!(r.strategy, SolveStrategy::PerturbedNewton { .. }));
        assert!(r.retries >= 1);
        assert!(r.is_clean());
        assert!((r.solution.x[0].abs() - 1.0).abs() < 1e-8);
        assert!(!r.attempts.is_empty());
        assert_eq!(r.attempts[0].strategy, SolveStrategy::NominalNewton);
    }

    #[test]
    fn restart_sequence_is_deterministic() {
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] * x[0] - 1.0;
        };
        let a = solve_robust(f, &[0.0], &RobustOptions::default()).unwrap();
        let b = solve_robust(f, &[0.0], &RobustOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rank_deficient_system_degrades_to_derivative_free() {
        // Jacobian is singular *everywhere* (row 2 = 2 × row 1): every
        // Newton attempt fails, but the merit minimum is a genuine root.
        let f = |x: &[f64], out: &mut [f64]| {
            let g = x[0] + x[1] - 2.0;
            out[0] = g;
            out[1] = 2.0 * g;
        };
        let r = solve_robust(f, &[5.0, -1.0], &RobustOptions::default()).unwrap();
        assert_eq!(r.strategy, SolveStrategy::DerivativeFree);
        assert_eq!(r.retries, RobustOptions::default().max_restarts);
        assert!(
            (r.solution.x[0] + r.solution.x[1] - 2.0).abs() < 1e-5,
            "{:?}",
            r.solution.x
        );
        // The failed Newton stages are all on the record.
        assert!(r.attempts.len() > RobustOptions::default().max_restarts);
    }

    #[test]
    fn one_dimensional_fallback_uses_golden_refinement() {
        // |x - 3|^1.5 has a root at 3 but a derivative that vanishes
        // there, stalling Newton's line search far from tolerance.
        let f = |x: &[f64], out: &mut [f64]| {
            let d = x[0] - 3.0;
            out[0] = d.abs().powf(1.5) * d.signum();
        };
        let opts = RobustOptions {
            degraded_tol: 1e-4,
            ..RobustOptions::default()
        };
        let r = solve_robust(f, &[50.0], &opts).unwrap();
        assert!((r.solution.x[0] - 3.0).abs() < 0.05, "{:?}", r.solution.x);
        assert!(r.solution.residual <= 1e-4);
    }

    #[test]
    fn rootless_system_reports_best_residual() {
        let f = |_: &[f64], out: &mut [f64]| {
            out[0] = 1.0;
        };
        let err = solve_robust(f, &[0.0], &RobustOptions::default()).unwrap_err();
        match err {
            Error::DidNotConverge { residual, .. } => {
                assert!((residual - 1.0).abs() < 1e-9, "residual {residual}")
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn solution_is_always_finite() {
        // A residual that poisons half the domain with NaN.
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = if x[0] < 0.0 { f64::NAN } else { x[0] - 2.0 };
        };
        let r = solve_robust(f, &[4.0], &RobustOptions::default()).unwrap();
        assert!(r.solution.x.iter().all(|v| v.is_finite()));
        assert!(r.solution.residual.is_finite());
        assert!((r.solution.x[0] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn invalid_options_rejected() {
        let f = |x: &[f64], out: &mut [f64]| out[0] = x[0];
        assert!(solve_robust(f, &[], &RobustOptions::default()).is_err());
        let bad = RobustOptions {
            perturbation: 0.0,
            ..RobustOptions::default()
        };
        assert!(matches!(
            solve_robust(f, &[1.0], &bad),
            Err(Error::InvalidParameter(_))
        ));
        let bad = RobustOptions {
            grid_steps: 1,
            ..RobustOptions::default()
        };
        assert!(matches!(
            solve_robust(f, &[1.0], &bad),
            Err(Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn strategy_display_names() {
        assert_eq!(SolveStrategy::NominalNewton.to_string(), "nominal-newton");
        assert_eq!(
            SolveStrategy::PerturbedNewton { attempt: 3 }.to_string(),
            "perturbed-newton(restart 3)"
        );
        assert_eq!(SolveStrategy::DerivativeFree.to_string(), "derivative-free");
    }
}
