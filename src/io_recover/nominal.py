"""Constraint-matrix recovery for the plain linear forward problem.

Gap minimization solves one LP per constraint over the flattened matrix;
strong duality is closed form via projections of the prior rows.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import verify
from .errors import ZeroObservationError
from .geometry import project_halfspace, project_hyperplane
from .lp import LinearProgram, LpRow, LpStatus, solve_lp_batch
from .model import (
    ZERO_TOL,
    ForwardProblem,
    InverseSolution,
    ModelKind,
    Prior,
    PriorEpsilon,
    RhsEpsilon,
    Status,
    UncertaintyStructure,
    WeightBoost,
    active_solution,
    canonicalize_omega,
    observed_x,
    param_keys,
    raise_on_failure,
)


@dataclass(frozen=True)
class NloDgSubresult:
    """Minimum surplus of one row and the matrix attaining it."""

    t_i: float
    A_i: np.ndarray


def _has_zero_row(matrix):
    return bool(np.any(np.max(np.abs(matrix), axis=1) <= ZERO_TOL))


def solve_nlo_dg(problem, x_hat, omega):
    """Impute the constraint matrix minimizing the duality gap at the observation.

    One LP per constraint over the flattened matrix: minimize that row's
    surplus subject to the side constraints and feasibility of every row.
    The gap equals the smallest achievable surplus; the cost vector is the
    winning row.
    """
    x = observed_x(x_hat, problem)
    m, n = problem.m, problem.n
    structure = UncertaintyStructure.nominal()
    keys = param_keys(ModelKind.NLO_DG, problem, structure)
    canon = canonicalize_omega(omega, keys)
    if not canon.feasible:
        return InverseSolution(
            model=ModelKind.NLO_DG,
            status=Status.INFEASIBLE,
            message="side constraints are contradictory",
        )

    bounds = tuple(zip(canon.lower, canon.upper))
    rows = []
    for i in range(m):
        coeffs = np.zeros(len(keys))
        coeffs[i * n : (i + 1) * n] = x
        rows.append(LpRow(coeffs, ">=", problem.b[i]))
    for r in range(canon.G.shape[0]):
        rows.append(LpRow(canon.G[r], "<=", canon.h[r]))
    rows = tuple(rows)

    lps = []
    for i in range(m):
        objective = np.zeros(len(keys))
        objective[i * n : (i + 1) * n] = x
        lps.append(LinearProgram(objective=objective, rows=rows, bounds=bounds))
    outcomes = raise_on_failure(solve_lp_batch(lps))

    for i, out in enumerate(outcomes):
        if out.status == LpStatus.UNBOUNDED:
            return InverseSolution(
                model=ModelKind.NLO_DG,
                status=Status.UNBOUNDED_GAP,
                active_index=i + 1,
                ray=out.ray.reshape(m, n),
                message=f"surplus of constraint {i + 1} is unbounded below",
            )
    if outcomes[0].status == LpStatus.INFEASIBLE:
        return InverseSolution(
            model=ModelKind.NLO_DG,
            status=Status.INFEASIBLE,
            message=(
                "no matrix in the side constraints keeps the observation feasible "
                f"(phase-one infeasibility {outcomes[0].infeasibility:g})"
            ),
        )

    t = np.array([out.value - problem.b[i] for i, out in enumerate(outcomes)])
    subresults = tuple(
        NloDgSubresult(t_i=float(t[i]), A_i=outcomes[i].solution.reshape(m, n))
        for i in range(m)
    )
    i_star = int(np.argmin(t))
    A_star = subresults[i_star].A_i
    return active_solution(
        ModelKind.NLO_DG, i_star, A_star, A_star[i_star].copy(), t[i_star],
        {"t": t}, subresults, _has_zero_row(A_star),
    )


def solve_nlo_sd(problem, x_hat, prior):
    """Closest matrix to the prior making the observation exactly optimal.

    Per row, the prior vector is projected onto the hyperplane that makes
    the row active at the observation (cost f_i, weighted) and onto the
    halfspace that makes it feasible (cost g_i); the row with the smallest
    activation premium f_i - g_i is made active, every other row is made
    feasible, and the cost vector is the active row.
    """
    x = observed_x(x_hat, problem)
    if not np.any(x != 0.0):
        raise ZeroObservationError("strong-duality recovery needs a nonzero observation")
    m = problem.m
    w = prior.weights(m)
    a_hat = np.asarray(prior.estimates, dtype=float)

    f = np.zeros(m)
    g = np.zeros(m)
    rows_f = []
    rows_g = []
    for i in range(m):
        a_f, dist = project_hyperplane(a_hat[i], x, problem.b[i], prior.norm)
        a_g, dist_g = project_halfspace(a_hat[i], x, problem.b[i], prior.norm)
        rows_f.append(a_f)
        rows_g.append(a_g)
        f[i] = w[i] * dist
        g[i] = w[i] * dist_g

    i_star = int(np.argmin(f - g))
    A = np.vstack([rows_f[i] if i == i_star else rows_g[i] for i in range(m)])
    solution = active_solution(
        ModelKind.NLO_SD, i_star, A, A[i_star].copy(), f[i_star] + np.sum(g) - g[i_star],
        {"f": f, "g": g}, None, _has_zero_row(A),
    )
    if solution.status == Status.TRIVIAL_DETECTED:
        hints = verify.diagnose_trivial(
            solution, problem, UncertaintyStructure.nominal(), prior=prior, x_hat=x
        )
        solution = replace(solution, remediations=tuple(hints))
    return solution


@dataclass(frozen=True)
class PerturbedSolve:
    """A perturbation applied to escape a trivial output, plus the re-solve."""

    problem: ForwardProblem
    prior: Prior
    solution: InverseSolution


def perturb_and_resolve(problem, x_hat, prior, strategy):
    """Apply one escape perturbation and re-run the strong-duality solve.

    Strategies: nudge the right-hand side of a row, nudge one prior
    coefficient, or boost a row's weight so a different row is activated.
    """
    b = np.asarray(problem.b, dtype=float).copy()
    est = np.asarray(prior.estimates, dtype=float).copy()
    xi = prior.weights(problem.m).copy()
    if isinstance(strategy, RhsEpsilon):
        b[strategy.row] += strategy.delta
    elif isinstance(strategy, PriorEpsilon):
        est[strategy.row, strategy.col] += strategy.delta
    elif isinstance(strategy, WeightBoost):
        xi[strategy.row] = strategy.weight
    else:
        raise TypeError(f"unknown perturbation strategy {strategy!r}")
    new_problem = ForwardProblem(A=problem.A, b=b)
    new_prior = Prior(estimates=est, xi=xi, norm=prior.norm)
    return PerturbedSolve(
        problem=new_problem,
        prior=new_prior,
        solution=solve_nlo_sd(new_problem, x_hat, new_prior),
    )
