"""Constraint-matrix recovery for the plain linear forward problem.

Gap minimization hands each row's subproblem over the flattened matrix
to `model.gap_values`; strong duality is closed form via projections of
the prior rows.
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import verify
from .errors import DimensionError, ZeroObservationError
from .geometry import dual_norm, dual_norm_maximizer, row_dots
from .model import (
    ForwardProblem,
    InverseSolution,
    ModelKind,
    Prior,
    PriorEpsilon,
    RhsEpsilon,
    Status,
    UncertaintyStructure,
    WeightBoost,
    canonicalize_omega,
    check_inputs,
    gap_solution,
    gap_values,
    param_keys,
    sd_solution,
)


def solve_nlo_dg(problem, x_hat, omega):
    """Impute the constraint matrix minimizing the duality gap at the observation.

    Per constraint i: minimize row i's surplus subject to the side
    constraints and feasibility of every row, x . a_k >= b_k
    (`model.gap_values`).  The gap equals the smallest achievable surplus;
    the cost vector is the winning row.  An observation whose products
    with omega's bounds overflow raises DimensionError naming x_hat.
    """
    structure = UncertaintyStructure.nominal()
    x = check_inputs(ModelKind.NLO_DG, problem, x_hat, structure, omega=omega)
    keys = param_keys(ModelKind.NLO_DG, problem, structure)
    canon = canonicalize_omega(omega, keys)
    if not canon.feasible:
        return InverseSolution.infeasible(ModelKind.NLO_DG, "side constraints are contradictory")
    # row i's value shifts b_i by a_i . x at a_i's finite bounds: beyond the floats none is finite
    edges = np.abs(np.vstack([canon.lower, canon.upper]))
    reach = keys.block(np.where(edges < np.inf, edges, 0.0).sum(axis=0))
    with np.errstate(over="ignore"):
        finite = np.isfinite(reach @ np.abs(x) + np.abs(problem.b))
    if not finite.all():
        raise DimensionError("x_hat", f"a_i . x_hat overflows at omega's bounds on constraint {np.argmin(finite) + 1}")
    infeasible = ("no matrix in the side constraints keeps the observation feasible "
                  "(phase-one infeasibility {infeasibility:g})")
    found = gap_values(ModelKind.NLO_DG, canon, keys, x[keys.cols], problem.b, infeasible)
    if isinstance(found, InverseSolution):
        return found
    values, imputed = found
    return gap_solution(ModelKind.NLO_DG, problem, structure, x, -problem.b, values, imputed)


def solve_nlo_sd(problem, x_hat, prior):
    """Closest matrix to the prior making the observation exactly optimal.

    Per row, the prior vector is projected onto the hyperplane that makes
    the row active at the observation (cost f_i, weighted); keeping the row
    feasible costs g_i = 0 when the prior row fits (a_hat_i . x >= b_i) and
    f_i otherwise.  The row with the smallest t_i = f_i + sum(g) - g_i is
    made active (`model.sd_solution`); the cost vector is that row.
    """
    structure = UncertaintyStructure.nominal()
    x = check_inputs(ModelKind.NLO_SD, problem, x_hat, structure, prior=prior)
    if not np.any(x != 0.0):
        raise ZeroObservationError("strong-duality recovery needs a nonzero observation")
    w = prior.weights(problem.m)
    a_hat = np.asarray(prior.estimates, dtype=float)
    # every row's projection onto its hyperplane a . x = b_i moves it along the one maximizer v
    dn, v = dual_norm(x, prior.norm), dual_norm_maximizer(x, prior.norm)
    dots = row_dots(a_hat, x)  # each row's own dot, as geometry.project_hyperplane takes it
    t = (dots - problem.b) / dn
    moved, f, fits = a_hat - t[:, None] * v, w * np.abs(t), dots >= problem.b
    solution = sd_solution(
        ModelKind.NLO_SD, problem, structure, x, f, fits, moved, a_hat,
        "no constraint can be made active at the observation",
    )
    if solution.status == Status.TRIVIAL_DETECTED:
        hints = verify.diagnose_trivial(solution, problem, structure, prior=prior, x_hat=x)
        solution = replace(solution, remediations=tuple(hints))
    return solution


@dataclass(frozen=True)
class PerturbedSolve:
    """A perturbation applied to escape a trivial output, plus the re-solve."""

    problem: ForwardProblem
    prior: Prior
    solution: InverseSolution


def _is_index(value):
    """An integer, but not a bool, which numpy would read as a mask."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def perturb_and_resolve(problem, x_hat, prior, strategy):
    """Apply one escape perturbation and re-run the strong-duality solve.

    Strategies: nudge the right-hand side of a row, nudge one prior
    coefficient, or boost a row's weight so a different row is activated.
    The inputs are checked as the solve checks them, and a row or column
    that is not an integer index into the problem (a bool is not one)
    raises DimensionError naming it.
    """
    check_inputs(ModelKind.NLO_SD, problem, x_hat, UncertaintyStructure.nominal(), prior=prior)
    if not isinstance(strategy, (RhsEpsilon, PriorEpsilon, WeightBoost)):
        raise TypeError(f"unknown perturbation strategy {strategy!r}")
    if not (_is_index(strategy.row) and 0 <= strategy.row < problem.m):
        raise DimensionError("strategy.row", f"{strategy.row!r} is not an index in 0..{problem.m - 1}")
    if isinstance(strategy, PriorEpsilon) and not (_is_index(strategy.col) and 0 <= strategy.col < problem.n):
        raise DimensionError("strategy.col", f"{strategy.col!r} is not an index in 0..{problem.n - 1}")
    b = np.asarray(problem.b, dtype=float).copy()
    est = np.asarray(prior.estimates, dtype=float).copy()
    xi = prior.weights(problem.m).copy()
    if isinstance(strategy, RhsEpsilon):
        b[strategy.row] += strategy.delta
    elif isinstance(strategy, PriorEpsilon):
        est[strategy.row, strategy.col] += strategy.delta
    else:
        xi[strategy.row] = strategy.weight
    new_problem = ForwardProblem(A=problem.A, b=b)
    new_prior = Prior(estimates=est, xi=xi, norm=prior.norm)
    return PerturbedSolve(
        problem=new_problem,
        prior=new_prior,
        solution=solve_nlo_sd(new_problem, x_hat, new_prior),
    )
