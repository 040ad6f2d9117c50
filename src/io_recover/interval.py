"""Recovery of interval-uncertainty magnitudes.

Both models solve one LP per constraint over nonnegative deviation
magnitudes.  The gap model's LP for row i spans the flattened magnitudes
of every row: it maximizes row i's protection subject to robust
feasibility of every row and the side constraints, which may couple rows.
The strong-duality model separates by forward row, since its objective
sum_i w_i ||alpha_i - alpha_hat_i|| and its constraints do: the LP for row
i covers only row i's uncertain columns and finds f_i, the cheapest move
making the row robust-active; the cost g_i of keeping the row
robust-feasible follows from it (0 when the prior row fits, f_i
otherwise), and the objective with row i active is f_i + sum(g) - g_i.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, UnsupportedNormError
from .geometry import NormKind, realized_row_interval
from .lp import LinearProgram, LpRow, LpStatus, solve_lp_batch
from .model import (
    InverseSolution,
    ModelKind,
    Status,
    Variant,
    active_solution,
    as_observed,
    canonicalize_omega,
    check_magnitude_prior,
    param_keys,
    raise_on_failure,
)


@dataclass(frozen=True)
class IuSubresult:
    """Robust surplus of one row and the full magnitudes attaining it."""

    t_i: float
    alpha_full: np.ndarray


def _setup(problem, x_hat, structure):
    if structure.variant != Variant.INTERVAL:
        raise PreconditionError("interval models need an interval structure")
    empty = [i for i in range(problem.m) if not structure.sets[i]]
    if empty:
        raise PreconditionError(
            f"constraint {empty[0] + 1} has no uncertain coefficients"
        )
    x = as_observed(x_hat).x
    return x, problem.surplus(x)


def _alpha_matrix(problem, keys, values):
    alpha = np.zeros((problem.m, problem.n))
    for k, (_, i, j) in enumerate(keys):
        alpha[i, j] = max(values[k], 0.0)
    return alpha


def solve_rlo_iu_dg(problem, x_hat, structure, omega):
    """Impute deviation magnitudes minimizing the duality gap.

    Per candidate row: maximize that row's protection subject to robust
    feasibility of every row, nonnegativity, and the side constraints.
    The cost vector is the realized active row in the observation's orthant.
    """
    x, surplus = _setup(problem, x_hat, structure)
    m = problem.m
    keys = param_keys(ModelKind.RLO_IU_DG, problem, structure)
    p = len(keys)
    canon = canonicalize_omega(omega, keys, lower_floor=np.zeros(p))
    if not canon.feasible:
        return InverseSolution(
            model=ModelKind.RLO_IU_DG,
            status=Status.INFEASIBLE,
            message="side constraints are contradictory",
        )
    bounds = tuple(zip(canon.lower, canon.upper))
    weight = np.array([abs(x[j]) for (_, _, j) in keys])
    rows = []
    for i in range(m):
        coeffs = np.array([weight[k] if keys[k][1] == i else 0.0 for k in range(p)])
        rows.append(LpRow(coeffs, "<=", surplus[i]))
    for r in range(canon.G.shape[0]):
        rows.append(LpRow(canon.G[r], "<=", canon.h[r]))
    rows = tuple(rows)

    lps = []
    for i in range(m):
        objective = np.array([-weight[k] if keys[k][1] == i else 0.0 for k in range(p)])
        lps.append(LinearProgram(objective=objective, rows=rows, bounds=bounds))
    outcomes = raise_on_failure(solve_lp_batch(lps))
    if outcomes[0].status == LpStatus.INFEASIBLE:
        return InverseSolution(
            model=ModelKind.RLO_IU_DG,
            status=Status.INFEASIBLE,
            message="no nonnegative magnitudes in the side constraints keep the observation robust-feasible",
        )

    t = np.array([surplus[i] + out.value for i, out in enumerate(outcomes)])
    subresults = tuple(
        IuSubresult(t_i=float(t[i]), alpha_full=_alpha_matrix(problem, keys, outcomes[i].solution))
        for i in range(m)
    )
    i_star = int(np.argmin(t))
    alpha = subresults[i_star].alpha_full
    cost = realized_row_interval(problem.A[i_star], alpha[i_star], structure.sets[i_star], x)
    return active_solution(ModelKind.RLO_IU_DG, i_star, alpha, cost, t[i_star], {"t": t}, subresults, False)


def _activation_lp(load, center, target, weight, norm):
    """Cheapest weighted move of one row's magnitudes that makes the row robust-active.

    Columns: the row's magnitudes, then the deviation bounds (one per
    magnitude for l1, one shared for linf); rows: two deviation bounds per
    magnitude and the activeness equality load . alpha = target.
    """
    k = load.size
    dev = -np.eye(k) if norm == NormKind.L1 else -np.ones((k, 1))
    up = np.hstack([np.eye(k), dev])
    down = np.hstack([-np.eye(k), dev])
    rows = []
    for j in range(k):
        rows.append(LpRow(up[j], "<=", center[j]))
        rows.append(LpRow(down[j], "<=", -center[j]))
    rows.append(LpRow(np.concatenate([load, np.zeros(dev.shape[1])]), "=", target))
    objective = np.concatenate([np.zeros(k), np.full(dev.shape[1], weight)])
    return LinearProgram(objective=objective, rows=tuple(rows), bounds=((0.0, None),) * objective.size)


def solve_rlo_iu_sd(problem, x_hat, structure, prior):
    """Smallest weighted perturbation of prior magnitudes achieving exact optimality.

    Feasible exactly when the observation satisfies the nominal
    constraints; the norm must be l1 or linf so the per-row subproblems
    stay linear, and the prior magnitudes must be nonnegative.  One LP per
    row over that row's magnitudes gives f_i, the cheapest move making row
    i robust-active.  Keeping row i robust-feasible costs g_i = 0 when its
    prior row fits (load <= surplus) and g_i = f_i otherwise: any feasible
    row can be pulled toward the prior until it is active, staying
    nonnegative and no farther away, so the f-optimum is also the
    cheapest feasible row.  The row with the smallest premium f_i - g_i is
    made active (ties to the lowest index), with objective f_i + sum(g) - g_i.
    """
    x, surplus = _setup(problem, x_hat, structure)
    if prior.norm not in (NormKind.L1, NormKind.LINF):
        raise UnsupportedNormError(
            "deviation recovery under strong duality supports l1 and linf priors only"
        )
    check_magnitude_prior(prior, problem, structure)
    m = problem.m
    worst = int(np.argmin(surplus))
    if surplus[worst] < -1e-9:
        return InverseSolution(
            model=ModelKind.RLO_IU_SD,
            status=Status.INFEASIBLE,
            message=(
                f"observation is nominal-infeasible on constraint {worst + 1} "
                f"(violation {-surplus[worst]:g}); no magnitudes can restore feasibility"
            ),
        )
    w = prior.weights(m)
    cols = [list(s) for s in structure.sets]
    centers = [prior.estimates[i, cols[i]] for i in range(m)]
    loads = [np.abs(x[cols[i]]) for i in range(m)]
    fits = np.array([float(loads[i] @ centers[i]) <= surplus[i] for i in range(m)])
    lps = [_activation_lp(loads[i], centers[i], surplus[i], w[i], prior.norm) for i in range(m)]
    outcomes = raise_on_failure(solve_lp_batch(lps))

    f = np.array([out.value if out.status == LpStatus.OPTIMAL else np.inf for out in outcomes])
    g = np.where(fits, 0.0, f)
    if not np.all(np.isfinite(g)) or not np.any(np.isfinite(f)):
        return InverseSolution(
            model=ModelKind.RLO_IU_SD,
            status=Status.INFEASIBLE,
            message="no constraint can be made robust-active at the observation",
        )

    i_star = int(np.argmin(f - g))
    t = f + np.sum(g) - g
    alpha = np.zeros((m, problem.n))
    for i in range(m):
        moved = i == i_star or not fits[i]
        alpha[i, cols[i]] = np.maximum(outcomes[i].solution[: len(cols[i])], 0.0) if moved else centers[i]
    cost = realized_row_interval(problem.A[i_star], alpha[i_star], structure.sets[i_star], x)
    return active_solution(
        ModelKind.RLO_IU_SD, i_star, alpha, cost, t[i_star], {"f": f, "g": g, "t": t}, None, False
    )
