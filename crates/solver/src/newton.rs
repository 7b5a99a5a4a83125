//! Damped multivariate Newton with numerical Jacobian.
//!
//! This is the engine behind the paper's "efficient solver for the
//! nonlinear equation set" (§III.D): the KKT conditions of the Lagrangian
//! Eq. 13 form a small nonlinear system `F(x) = 0`, solved here by
//! Newton iteration with a finite-difference Jacobian, LU linear solves,
//! and a backtracking (residual-halving) line search for global behaviour.

use crate::linalg::{norm2, Matrix};
use crate::{Error, Result};

/// Options for [`newton_system`].
#[derive(Debug, Clone, Copy)]
pub struct NewtonOptions {
    /// Residual 2-norm convergence tolerance.
    pub tol: f64,
    /// Maximum Newton iterations.
    pub max_iters: usize,
    /// Relative finite-difference step for the Jacobian.
    pub fd_step: f64,
    /// Maximum backtracking halvings per iteration.
    pub max_backtracks: usize,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            // A forward-difference Jacobian with step ~1e-7 limits the
            // reliably reachable residual to ~1e-9.
            tol: 1e-9,
            max_iters: 100,
            fd_step: 1e-7,
            max_backtracks: 30,
        }
    }
}

/// Result of a successful Newton solve.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Residual 2-norm at the solution.
    pub residual: f64,
    /// Iterations used.
    pub iterations: usize,
}

/// Solve `F(x) = 0` for a system `F: R^n -> R^n`.
///
/// `f(x, out)` must write the residual into `out` (same length as `x`).
pub fn newton_system<F>(f: F, x0: &[f64], opts: &NewtonOptions) -> Result<NewtonSolution>
where
    F: Fn(&[f64], &mut [f64]),
{
    newton_system_in(f, x0, opts, |_| true)
}

/// [`newton_system`] confined to a domain: the solve stops with
/// [`Error::LeftDomain`] as soon as an accepted iterate fails
/// `in_domain`. Line-search trials and finite-difference probes are not
/// checked, so a solve whose iterates all stay inside returns exactly
/// what [`newton_system`] returns.
pub(crate) fn newton_system_in<F, D>(
    f: F,
    x0: &[f64],
    opts: &NewtonOptions,
    in_domain: D,
) -> Result<NewtonSolution>
where
    F: Fn(&[f64], &mut [f64]),
    D: Fn(&[f64]) -> bool,
{
    let n = x0.len();
    if n == 0 {
        return Err(Error::InvalidParameter("empty system"));
    }
    let mut x = x0.to_vec();
    let mut fx = vec![0.0; n];
    let mut fx_trial = vec![0.0; n];
    let mut x_pert = vec![0.0; n];
    let mut f_pert = vec![0.0; n];

    f(&x, &mut fx);
    if fx.iter().any(|v| !v.is_finite()) {
        return Err(Error::NonFiniteValue);
    }
    let mut res = norm2(&fx);

    for it in 0..opts.max_iters {
        if res < opts.tol {
            return Ok(NewtonSolution {
                x,
                residual: res,
                iterations: it,
            });
        }
        // Numerical Jacobian, one column per forward difference.
        let mut jac = Matrix::zeros(n, n);
        for j in 0..n {
            let h = opts.fd_step * x[j].abs().max(opts.fd_step);
            x_pert.copy_from_slice(&x);
            x_pert[j] += h;
            f(&x_pert, &mut f_pert);
            if f_pert.iter().any(|v| !v.is_finite()) {
                return Err(Error::NonFiniteValue);
            }
            for i in 0..n {
                jac[(i, j)] = (f_pert[i] - fx[i]) / h;
            }
        }
        // Newton step: J dx = -F.
        let rhs: Vec<f64> = fx.iter().map(|v| -v).collect();
        let dx = jac.solve(&rhs)?;
        // Backtracking line search on the residual norm.
        let mut alpha = 1.0;
        let mut accepted = false;
        for _ in 0..=opts.max_backtracks {
            let trial: Vec<f64> = x.iter().zip(&dx).map(|(xi, di)| xi + alpha * di).collect();
            f(&trial, &mut fx_trial);
            let finite = fx_trial.iter().all(|v| v.is_finite());
            if finite {
                let trial_res = norm2(&fx_trial);
                if trial_res < res || trial_res < opts.tol {
                    if !in_domain(&trial) {
                        return Err(Error::LeftDomain { iterations: it + 1 });
                    }
                    x = trial;
                    fx.copy_from_slice(&fx_trial);
                    res = trial_res;
                    accepted = true;
                    break;
                }
            }
            alpha *= 0.5;
        }
        if !accepted {
            // The finite-difference Jacobian has hit its precision floor;
            // accept a residual that is within two decades of the target.
            if res < opts.tol * 100.0 {
                return Ok(NewtonSolution {
                    x,
                    residual: res,
                    iterations: it,
                });
            }
            return Err(Error::DidNotConverge {
                iterations: it,
                residual: res,
            });
        }
    }
    if res < opts.tol {
        Ok(NewtonSolution {
            x,
            residual: res,
            iterations: opts.max_iters,
        })
    } else {
        Err(Error::DidNotConverge {
            iterations: opts.max_iters,
            residual: res,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_linear_system() {
        // 2x + y = 3; x + 3y = 5
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = 2.0 * x[0] + x[1] - 3.0;
            out[1] = x[0] + 3.0 * x[1] - 5.0;
        };
        let s = newton_system(f, &[0.0, 0.0], &NewtonOptions::default()).unwrap();
        assert!((s.x[0] - 0.8).abs() < 1e-9);
        assert!((s.x[1] - 1.4).abs() < 1e-9);
        assert!(s.iterations <= 3);
    }

    #[test]
    fn solves_circle_line_intersection() {
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] * x[0] + x[1] * x[1] - 2.0;
            out[1] = x[0] - x[1];
        };
        let s = newton_system(f, &[2.0, 0.5], &NewtonOptions::default()).unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-8);
        assert!((s.x[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn solves_rosenbrock_gradient() {
        // grad of Rosenbrock = 0 at (1, 1); a classic stiff system.
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]);
            out[1] = 200.0 * (x[1] - x[0] * x[0]);
        };
        let s = newton_system(
            f,
            &[-1.2, 1.0],
            &NewtonOptions {
                max_iters: 500,
                ..NewtonOptions::default()
            },
        )
        .unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-6, "{:?}", s.x);
        assert!((s.x[1] - 1.0).abs() < 1e-6, "{:?}", s.x);
    }

    #[test]
    fn three_dimensional_system() {
        // x + y + z = 6; x*y*z = 6; z - x = 2 -> simple root at (1, 2, 3).
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] + x[1] + x[2] - 6.0;
            out[1] = x[0] * x[1] * x[2] - 6.0;
            out[2] = x[2] - x[0] - 2.0;
        };
        let s = newton_system(f, &[0.9, 2.2, 2.8], &NewtonOptions::default()).unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-8);
        assert!((s.x[1] - 2.0).abs() < 1e-8);
        assert!((s.x[2] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn reports_nonconvergence() {
        // F(x) = 1 has no root.
        let f = |_: &[f64], out: &mut [f64]| {
            out[0] = 1.0;
        };
        let r = newton_system(f, &[0.0], &NewtonOptions::default());
        assert!(matches!(
            r,
            Err(Error::DidNotConverge { .. }) | Err(Error::SingularMatrix)
        ));
    }

    #[test]
    fn rejects_empty_system() {
        let f = |_: &[f64], _: &mut [f64]| {};
        assert!(matches!(
            newton_system(f, &[], &NewtonOptions::default()),
            Err(Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn domain_stop_fires_on_the_accepted_iterate_that_leaves() {
        // Newton on x² = 4 from 10 accepts 5.2, 2.98 and then 2.16: the
        // third iterate is the first below 2.5.
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] * x[0] - 4.0;
        };
        let checked = std::cell::Cell::new(0);
        let r = newton_system_in(f, &[10.0], &NewtonOptions::default(), |x| {
            checked.set(checked.get() + 1);
            x[0] >= 2.5
        });
        assert_eq!(r, Err(Error::LeftDomain { iterations: 3 }));
        // Only accepted iterates are checked: no probe, no trial step.
        assert_eq!(checked.get(), 3);
    }

    #[test]
    fn solve_inside_the_domain_is_bit_identical_to_the_unbounded_solve() {
        let square = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] * x[0] - 4.0;
        };
        let circle = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] * x[0] + x[1] * x[1] - 2.0;
            out[1] = x[0] - x[1];
        };
        let opts = NewtonOptions::default();
        let bounded = newton_system_in(square, &[10.0], &opts, |x| x[0] >= 1.0).unwrap();
        assert_eq!(bounded, newton_system(square, &[10.0], &opts).unwrap());
        let inside = |x: &[f64]| x.iter().all(|&v| v >= 0.5);
        let bounded = newton_system_in(circle, &[2.0, 0.5], &opts, inside).unwrap();
        assert_eq!(bounded, newton_system(circle, &[2.0, 0.5], &opts).unwrap());
    }

    #[test]
    fn already_converged_start_returns_immediately() {
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] - 5.0;
        };
        let s = newton_system(f, &[5.0], &NewtonOptions::default()).unwrap();
        assert_eq!(s.iterations, 0);
        assert!(s.residual < 1e-10);
    }
}
