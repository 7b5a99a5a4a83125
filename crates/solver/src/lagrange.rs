//! Equality-constrained minimization via Lagrange multipliers (Eq. 13).
//!
//! The paper forms `L(A1, A2, λ, N) = J_D + λ [N(A0+A1+A2) + Ac − A]`
//! and differentiates to obtain a nonlinear equation set. This module
//! does the same for a generic objective `f(x)` with equality constraints
//! `g_i(x) = 0`: the KKT residual
//!
//! ```text
//! F(x, λ) = [ ∇f(x) + Σ λ_i ∇g_i(x) ;  g(x) ]
//! ```
//!
//! is assembled with central finite differences and handed to the damped
//! Newton solver. An optional lower bound on the primal components stops
//! that solve once an accepted Newton iterate leaves the domain.

use crate::newton::{newton_system_in, NewtonOptions, NewtonSolution};
use crate::robust::{nominal_rung, solve_robust_observed, RobustOptions, SolveReport};
use crate::{Error, Result};

/// A boxed scalar function of a design vector.
type ScalarFn<'a> = Box<dyn Fn(&[f64]) -> f64 + 'a>;

/// An equality-constrained minimization problem.
pub struct EqualityConstrained<'a> {
    objective: ScalarFn<'a>,
    constraints: Vec<ScalarFn<'a>>,
    fd_step: f64,
    lower_bound: Option<f64>,
}

impl<'a> std::fmt::Debug for EqualityConstrained<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EqualityConstrained")
            .field("constraints", &self.constraints.len())
            .field("fd_step", &self.fd_step)
            .field("lower_bound", &self.lower_bound)
            .finish()
    }
}

impl<'a> EqualityConstrained<'a> {
    /// Build a problem from an objective.
    pub fn new<F>(objective: F) -> Self
    where
        F: Fn(&[f64]) -> f64 + 'a,
    {
        EqualityConstrained {
            objective: Box::new(objective),
            constraints: Vec::new(),
            fd_step: 1e-6,
            lower_bound: None,
        }
    }

    /// Add an equality constraint `g(x) = 0`.
    pub fn constraint<G>(mut self, g: G) -> Self
    where
        G: Fn(&[f64]) -> f64 + 'a,
    {
        self.constraints.push(Box::new(g));
        self
    }

    /// Override the finite-difference step.
    pub fn fd_step(mut self, h: f64) -> Self {
        self.fd_step = h;
        self
    }

    /// Confine the solve to `x_i >= lb` for every primal component: a
    /// solve stops with [`Error::LeftDomain`] once an accepted Newton
    /// iterate has a component below `lb`. Only accepted iterates are
    /// checked, so a solve that stays inside is unchanged by the bound.
    /// The fallback cascade restarts outside any domain by design and
    /// refuses a bounded problem.
    pub fn lower_bound(mut self, lb: f64) -> Self {
        self.lower_bound = Some(lb);
        self
    }

    /// Whether the stacked point `z = [x ; λ]` (`n` primal components)
    /// lies inside the lower bound, if any.
    fn in_domain(&self, n: usize, z: &[f64]) -> bool {
        self.lower_bound
            .is_none_or(|lb| z[..n].iter().all(|&x| x >= lb))
    }

    fn grad<F>(&self, f: &F, x: &[f64], out: &mut [f64])
    where
        F: Fn(&[f64]) -> f64 + ?Sized,
    {
        let mut xp = x.to_vec();
        for i in 0..x.len() {
            let h = self.fd_step * x[i].abs().max(self.fd_step);
            let orig = xp[i];
            xp[i] = orig + h;
            let fp = f(&xp);
            xp[i] = orig - h;
            let fm = f(&xp);
            xp[i] = orig;
            out[i] = (fp - fm) / (2.0 * h);
        }
    }

    /// Evaluate the KKT residual `[∇f + Σ λ_i ∇g_i ; g]` at the stacked
    /// point `z = [x ; λ]` (`n` primal components).
    fn kkt_residual(&self, n: usize, z: &[f64], out: &mut [f64]) {
        let (x, lambda) = z.split_at(n);
        // ∇f
        let mut grad_f = vec![0.0; n];
        self.grad(self.objective.as_ref(), x, &mut grad_f);
        // + Σ λ_i ∇g_i
        let mut grad_g = vec![0.0; n];
        for (i, g) in self.constraints.iter().enumerate() {
            self.grad(g.as_ref(), x, &mut grad_g);
            for (gf, gg) in grad_f.iter_mut().zip(&grad_g) {
                *gf += lambda[i] * gg;
            }
        }
        out[..n].copy_from_slice(&grad_f);
        for (i, g) in self.constraints.iter().enumerate() {
            out[n + i] = g(x);
        }
    }

    /// Build the stacked starting point `[x0 ; λ0]`. Each multiplier is
    /// seeded with its least-squares estimate
    /// λ_i ≈ −(∇f·∇g_i)/(∇g_i·∇g_i) at x0: zero multipliers make the
    /// KKT Jacobian's primal block vanish for objectives whose Hessian
    /// is zero along the constraint normal (singular first step).
    fn initial_kkt_point(&self, x0: &[f64]) -> Vec<f64> {
        let n = x0.len();
        let mut grad_f0 = vec![0.0; n];
        self.grad(self.objective.as_ref(), x0, &mut grad_f0);
        let mut lambda0 = Vec::with_capacity(self.constraints.len());
        let mut grad_g0 = vec![0.0; n];
        for g in &self.constraints {
            self.grad(g.as_ref(), x0, &mut grad_g0);
            let num: f64 = grad_f0.iter().zip(&grad_g0).map(|(a, b)| a * b).sum();
            let den: f64 = grad_g0.iter().map(|b| b * b).sum();
            lambda0.push(if den > 1e-12 { -num / den } else { 0.0 });
        }
        let mut z0 = x0.to_vec();
        z0.extend(lambda0);
        z0
    }

    fn unpack(&self, n: usize, sol: &NewtonSolution) -> KktSolution {
        let (x, lambda) = sol.x.split_at(n);
        KktSolution {
            x: x.to_vec(),
            multipliers: lambda.to_vec(),
            objective: (self.objective)(x),
            newton: sol.clone(),
        }
    }

    /// Solve the KKT system from starting point `x0` (primal) and
    /// least-squares multipliers. Returns the primal solution, the
    /// multipliers, and the Newton diagnostics.
    pub fn solve(&self, x0: &[f64], opts: &NewtonOptions) -> Result<KktSolution> {
        let n = x0.len();
        if n == 0 {
            return Err(Error::InvalidParameter("empty primal space"));
        }
        let z0 = self.initial_kkt_point(x0);
        let sol = newton_system_in(
            |z, out| self.kkt_residual(n, z, out),
            &z0,
            opts,
            |z| self.in_domain(n, z),
        )?;
        Ok(self.unpack(n, &sol))
    }

    /// [`EqualityConstrained::solve`] reported like the cascade's
    /// nominal rung: the attempt's entry, its acceptance or failure go
    /// to `sink` under the `solver` scope (a failed attempt is also a
    /// failed solve), and the returned [`SolveReport`] says whether the
    /// solve was clean or degraded.
    pub fn solve_observed(
        &self,
        x0: &[f64],
        opts: &NewtonOptions,
        sink: &dyn c2_obs::MetricsSink,
    ) -> Result<RobustKktSolution> {
        let n = x0.len();
        if n == 0 {
            return Err(Error::InvalidParameter("empty primal space"));
        }
        let z0 = self.initial_kkt_point(x0);
        let report = nominal_rung(
            |z, out| self.kkt_residual(n, z, out),
            &z0,
            opts,
            |z| self.in_domain(n, z),
            sink,
        )
        .inspect_err(|_| sink.counter_add("solver_solve_failures_total", 1))?;
        Ok(RobustKktSolution {
            kkt: self.unpack(n, &report.solution),
            report,
        })
    }

    /// Like [`EqualityConstrained::solve`], but routed through the
    /// [`solve_robust`] fallback cascade: a singular or divergent KKT
    /// system is retried from perturbed starts and, failing that, handed
    /// to the derivative-free stage. The returned [`SolveReport`] names
    /// the winning strategy and whether the solve was degraded.
    pub fn solve_cascade(&self, x0: &[f64], opts: &RobustOptions) -> Result<RobustKktSolution> {
        self.solve_cascade_observed(x0, opts, &c2_obs::NullSink)
    }

    /// [`EqualityConstrained::solve_cascade`] with the underlying
    /// cascade instrumented: rung entries, rung failures and the final
    /// acceptance are reported to `sink` under the `solver` scope.
    pub fn solve_cascade_observed(
        &self,
        x0: &[f64],
        opts: &RobustOptions,
        sink: &dyn c2_obs::MetricsSink,
    ) -> Result<RobustKktSolution> {
        let n = x0.len();
        if n == 0 {
            return Err(Error::InvalidParameter("empty primal space"));
        }
        if self.lower_bound.is_some() {
            return Err(Error::InvalidParameter(
                "the fallback cascade does not support a lower bound",
            ));
        }
        let z0 = self.initial_kkt_point(x0);
        let report = solve_robust_observed(|z, out| self.kkt_residual(n, z, out), &z0, opts, sink)?;
        Ok(RobustKktSolution {
            kkt: self.unpack(n, &report.solution),
            report,
        })
    }
}

/// Solution of a KKT system obtained through the fallback cascade or a
/// reported single attempt: the solution itself plus the
/// [`SolveReport`] telling the caller how it was obtained (and how much
/// to trust it).
#[derive(Debug, Clone, PartialEq)]
pub struct RobustKktSolution {
    /// The KKT solution (primal point, multipliers, objective).
    pub kkt: KktSolution,
    /// Cascade diagnostics: winning strategy, retries, quality.
    pub report: SolveReport,
}

/// Solution of a KKT system.
#[derive(Debug, Clone, PartialEq)]
pub struct KktSolution {
    /// Primal solution.
    pub x: Vec<f64>,
    /// Lagrange multipliers, one per constraint.
    pub multipliers: Vec<f64>,
    /// Objective value at the solution.
    pub objective: f64,
    /// Raw Newton diagnostics.
    pub newton: NewtonSolution,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimize_distance_on_line() {
        // min x^2 + y^2 s.t. x + y = 2 -> (1, 1), lambda = -2.
        let p = EqualityConstrained::new(|x: &[f64]| x[0] * x[0] + x[1] * x[1])
            .constraint(|x: &[f64]| x[0] + x[1] - 2.0);
        let s = p.solve(&[0.5, 0.3], &NewtonOptions::default()).unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-6, "{:?}", s.x);
        assert!((s.x[1] - 1.0).abs() < 1e-6, "{:?}", s.x);
        assert!((s.multipliers[0] + 2.0).abs() < 1e-5, "{:?}", s.multipliers);
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn minimize_on_circle() {
        // min x + y s.t. x^2 + y^2 = 2 -> (-1, -1).
        let p = EqualityConstrained::new(|x: &[f64]| x[0] + x[1])
            .constraint(|x: &[f64]| x[0] * x[0] + x[1] * x[1] - 2.0);
        let s = p.solve(&[-0.5, -1.4], &NewtonOptions::default()).unwrap();
        assert!((s.x[0] + 1.0).abs() < 1e-6, "{:?}", s.x);
        assert!((s.x[1] + 1.0).abs() < 1e-6, "{:?}", s.x);
    }

    #[test]
    fn two_constraints() {
        // min x^2+y^2+z^2 s.t. x+y+z=3, x-y=0 -> (1,1,1).
        let p = EqualityConstrained::new(|x: &[f64]| x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
            .constraint(|x: &[f64]| x[0] + x[1] + x[2] - 3.0)
            .constraint(|x: &[f64]| x[0] - x[1]);
        let s = p
            .solve(&[0.9, 1.2, 0.8], &NewtonOptions::default())
            .unwrap();
        for (i, &xi) in s.x.iter().enumerate() {
            assert!((xi - 1.0).abs() < 1e-6, "x[{i}] = {xi}");
        }
    }

    #[test]
    fn area_constraint_shape_like_eq13() {
        // A miniature of Eq. 13: minimize (k/sqrt(a0) + c) * t(a1) subject
        // to n*(a0 + a1) = A, with t decreasing in a1. n fixed at 4.
        let n = 4.0;
        let area = 40.0;
        let p = EqualityConstrained::new(move |x: &[f64]| {
            let (a0, a1) = (x[0], x[1]);
            (2.0 / a0.sqrt() + 0.5) * (1.0 + 8.0 / a1)
        })
        .constraint(move |x: &[f64]| n * (x[0] + x[1]) - area);
        let s = p.solve(&[5.0, 5.0], &NewtonOptions::default()).unwrap();
        // Constraint satisfied.
        assert!((n * (s.x[0] + s.x[1]) - area).abs() < 1e-6);
        // Both areas positive and interior.
        assert!(s.x[0] > 0.0 && s.x[1] > 0.0);
        // The solution beats a few perturbed feasible points.
        let obj = |a0: f64, a1: f64| (2.0 / a0.sqrt() + 0.5) * (1.0 + 8.0 / a1);
        let total = area / n;
        for d in [-1.0, -0.5, 0.5, 1.0] {
            let a0 = s.x[0] + d;
            let a1 = total - a0;
            if a0 > 0.1 && a1 > 0.1 {
                assert!(s.objective <= obj(a0, a1) + 1e-9);
            }
        }
    }

    #[test]
    fn empty_primal_is_error() {
        let p = EqualityConstrained::new(|_: &[f64]| 0.0);
        assert!(p.solve(&[], &NewtonOptions::default()).is_err());
        assert!(p.solve_cascade(&[], &RobustOptions::default()).is_err());
    }

    /// min (x + 1)² + (y − 3)² s.t. x + y = 2: the optimum (−1, 3)
    /// lies outside x ≥ 0.
    fn outside_optimum() -> EqualityConstrained<'static> {
        EqualityConstrained::new(|x: &[f64]| (x[0] + 1.0).powi(2) + (x[1] - 3.0).powi(2))
            .constraint(|x: &[f64]| x[0] + x[1] - 2.0)
    }

    #[test]
    fn lower_bound_stops_the_solve_that_leaves_it() {
        let opts = NewtonOptions::default();
        let free = outside_optimum().solve(&[1.0, 1.0], &opts).unwrap();
        assert!((free.x[0] + 1.0).abs() < 1e-6, "{:?}", free.x);
        let bounded = outside_optimum().lower_bound(0.0);
        assert_eq!(
            bounded.solve(&[1.0, 1.0], &opts),
            Err(Error::LeftDomain { iterations: 1 })
        );
        // The cascade would restart outside the bound: it refuses.
        assert!(matches!(
            bounded.solve_cascade(&[1.0, 1.0], &RobustOptions::default()),
            Err(Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn lower_bound_that_holds_leaves_the_solve_bit_identical() {
        let make = || {
            EqualityConstrained::new(|x: &[f64]| x[0] * x[0] + x[1] * x[1])
                .constraint(|x: &[f64]| x[0] + x[1] - 2.0)
        };
        let opts = NewtonOptions::default();
        let free = make().solve(&[0.5, 0.3], &opts).unwrap();
        let bounded = make().lower_bound(0.25).solve(&[0.5, 0.3], &opts).unwrap();
        assert_eq!(bounded, free);
        let observed = make()
            .lower_bound(0.25)
            .solve_observed(&[0.5, 0.3], &opts, &c2_obs::NullSink)
            .unwrap();
        assert_eq!(observed.kkt, free);
    }

    #[test]
    fn observed_solve_reports_one_nominal_attempt() {
        let opts = NewtonOptions::default();
        let names = |r: &c2_obs::Recorder| -> Vec<String> {
            r.report().events.iter().map(|e| e.name.clone()).collect()
        };

        let ok = c2_obs::Recorder::new();
        let r = outside_optimum()
            .solve_observed(&[1.0, 1.0], &opts, &ok)
            .unwrap();
        assert_eq!(
            r.report.strategy,
            crate::robust::SolveStrategy::NominalNewton
        );
        assert_eq!(names(&ok), ["cascade.rung", "cascade.accepted"]);
        assert_eq!(ok.report().registry.counter("solver_solves_total"), 1);

        let stopped = c2_obs::Recorder::new();
        let e = outside_optimum()
            .lower_bound(0.0)
            .solve_observed(&[1.0, 1.0], &opts, &stopped)
            .unwrap_err();
        assert_eq!(e, Error::LeftDomain { iterations: 1 });
        assert_eq!(names(&stopped), ["cascade.rung", "cascade.rung_failed"]);
        let registry = stopped.report().registry;
        assert_eq!(registry.counter("solver_rung_failures_total"), 1);
        assert_eq!(registry.counter("solver_solve_failures_total"), 1);
        assert_eq!(registry.counter("solver_solves_total"), 0);
    }

    #[test]
    fn cascade_matches_plain_solve_on_well_posed_problem() {
        let p = EqualityConstrained::new(|x: &[f64]| x[0] * x[0] + x[1] * x[1])
            .constraint(|x: &[f64]| x[0] + x[1] - 2.0);
        let plain = p.solve(&[0.5, 0.3], &NewtonOptions::default()).unwrap();
        let robust = p
            .solve_cascade(&[0.5, 0.3], &RobustOptions::default())
            .unwrap();
        assert_eq!(
            robust.report.strategy,
            crate::robust::SolveStrategy::NominalNewton
        );
        assert!(robust.report.is_clean());
        for (a, b) in plain.x.iter().zip(&robust.kkt.x) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn cascade_recovers_from_pathological_start() {
        // min x^4 s.t. x + y = 2: at x0 = (0, 2) the objective's
        // curvature vanishes and the plain KKT Newton stalls far from
        // tolerance; the cascade still lands on the constrained optimum.
        let p = EqualityConstrained::new(|x: &[f64]| x[0] * x[0] * x[0] * x[0])
            .constraint(|x: &[f64]| x[0] + x[1] - 2.0);
        let r = p
            .solve_cascade(&[0.0, 2.0], &RobustOptions::default())
            .unwrap();
        assert!(
            (r.kkt.x[0] + r.kkt.x[1] - 2.0).abs() < 1e-5,
            "{:?}",
            r.kkt.x
        );
        assert!(r.kkt.x[0].abs() < 0.1, "{:?}", r.kkt.x);
    }
}
