"""Recovery of interval-uncertainty magnitudes.

Both models solve one LP per constraint over the flattened nonnegative
deviation magnitudes: the gap model minimizes one row's robust surplus,
the strong-duality model minimizes the weighted l1/linf distance to the
prior magnitudes subject to making that row robust-active.
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
    bounds = tuple(
        (canon.lower[k], None if not np.isfinite(canon.upper[k]) else canon.upper[k])
        for k in range(p)
    )
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


def solve_rlo_iu_sd(problem, x_hat, structure, prior):
    """Smallest weighted perturbation of prior magnitudes achieving exact optimality.

    Feasible exactly when the observation satisfies the nominal
    constraints; the norm must be l1 or linf so the per-row subproblems
    stay linear.
    """
    x, surplus = _setup(problem, x_hat, structure)
    if prior.norm not in (NormKind.L1, NormKind.LINF):
        raise UnsupportedNormError(
            "deviation recovery under strong duality supports l1 and linf priors only"
        )
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
    keys = param_keys(ModelKind.RLO_IU_SD, problem, structure)
    p = len(keys)
    alpha_hat = np.array([prior.estimates[i, j] for (_, i, j) in keys])
    weight = np.array([abs(x[j]) for (_, _, j) in keys])

    # Columns: p magnitudes, then the epigraph block (one deviation bound
    # per parameter for l1, one per row for linf).
    epi = p if prior.norm == NormKind.L1 else m
    total = p + epi
    bounds = tuple([(0.0, None)] * p + [(0.0, None)] * epi)
    objective = np.zeros(total)
    if prior.norm == NormKind.L1:
        for k, (_, i, _) in enumerate(keys):
            objective[p + k] = w[i]
    else:
        for i in range(m):
            objective[p + i] = w[i]

    base_rows = []
    for k, (_, i, _) in enumerate(keys):
        dev_col = p + k if prior.norm == NormKind.L1 else p + i
        up = np.zeros(total)
        up[k] = 1.0
        up[dev_col] = -1.0
        base_rows.append(LpRow(up, "<=", alpha_hat[k]))
        down = np.zeros(total)
        down[k] = -1.0
        down[dev_col] = -1.0
        base_rows.append(LpRow(down, "<=", -alpha_hat[k]))

    lps = []
    for i_hat in range(m):
        rows = list(base_rows)
        for i in range(m):
            coeffs = np.zeros(total)
            for k in range(p):
                if keys[k][1] == i:
                    coeffs[k] = weight[k]
            rows.append(LpRow(coeffs, "=" if i == i_hat else "<=", surplus[i]))
        lps.append(LinearProgram(objective=objective, rows=tuple(rows), bounds=bounds))
    outcomes = raise_on_failure(solve_lp_batch(lps))

    t = np.array([out.value if out.status == LpStatus.OPTIMAL else np.inf for out in outcomes])
    if not np.any(np.isfinite(t)):
        return InverseSolution(
            model=ModelKind.RLO_IU_SD,
            status=Status.INFEASIBLE,
            message="no constraint can be made robust-active at the observation",
        )

    i_star = int(np.argmin(t))
    alpha = _alpha_matrix(problem, keys, outcomes[i_star].solution[: len(keys)])
    cost = realized_row_interval(problem.A[i_star], alpha[i_star], structure.sets[i_star], x)
    return active_solution(ModelKind.RLO_IU_SD, i_star, alpha, cost, t[i_star], {"t": t}, None, False)
