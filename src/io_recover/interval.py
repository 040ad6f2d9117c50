"""Recovery of interval-uncertainty magnitudes.

Both models solve one LP per constraint over nonnegative deviation
magnitudes.  The gap model's LP for row i maximizes row i's protection
subject to robust feasibility of every row and the side constraints.
When a side constraint couples parameters, every LP spans the flattened
magnitudes of every row, and the m LPs share one equality form.  When the
side constraints fold into bounds, LP i covers only row i's |J_i|
magnitudes and the single row of its robust feasibility; every other row
keeps its lower bound, which is feasible whenever that row's own LP is,
since the loads |x_j| are nonnegative.
The strong-duality model separates by forward row, since its objective
sum_i w_i ||alpha_i - alpha_hat_i|| and its constraints do: the LP for row
i covers only row i's uncertain columns and finds f_i, the cheapest move
making the row robust-active; the cost g_i of keeping the row
robust-feasible follows from it (0 when the prior row fits, f_i
otherwise), and the objective with row i active is f_i + sum(g) - g_i.
"""

import numpy as np

from .errors import PreconditionError, UnsupportedNormError
from .geometry import NormKind, realized_row_interval
from .lp import Constraints, LinearProgram, LpStatus, solve_lp_batch
from .model import (
    InverseSolution,
    ModelKind,
    active_row,
    active_solution,
    canonicalize_omega,
    check_inputs,
    gap_solution,
    param_keys,
)


def _surplus(problem, x, structure):
    """The nominal surplus at the observation; every row needs an uncertain column."""
    empty = [i for i in range(problem.m) if not structure.sets[i]]
    if empty:
        raise PreconditionError(
            f"constraint {empty[0] + 1} has no uncertain coefficients"
        )
    return problem.surplus(x)


def _alpha_matrix(problem, key_rows, key_cols, values):
    alpha = np.zeros((problem.m, problem.n))
    alpha[key_rows, key_cols] = np.maximum(values, 0.0)
    return alpha


def solve_rlo_iu_dg(problem, x_hat, structure, omega):
    """Impute deviation magnitudes minimizing the duality gap.

    Per candidate row: maximize that row's protection subject to robust
    feasibility of every row, nonnegativity, and the side constraints.
    With a coupling side constraint each LP spans all rows' magnitudes;
    when the side constraints fold into bounds, LP i has row i's |J_i|
    magnitudes and one row, and the other rows take their lower bounds.
    The problem is infeasible iff some row's LP is.  The cost vector is
    the realized active row in the observation's orthant.
    """
    x = check_inputs(ModelKind.RLO_IU_DG, problem, x_hat, structure, omega=omega)
    surplus = _surplus(problem, x, structure)
    m = problem.m
    keys = param_keys(ModelKind.RLO_IU_DG, problem, structure)
    p = len(keys)
    canon = canonicalize_omega(omega, keys, lower_floor=np.zeros(p))
    if not canon.feasible:
        return InverseSolution.infeasible(ModelKind.RLO_IU_DG, "side constraints are contradictory")
    key_rows = np.array([i for _, i, _ in keys], dtype=np.intp)
    key_cols = np.array([j for _, _, j in keys], dtype=np.intp)
    weight = np.abs(x[key_cols])
    own = key_rows == np.arange(m)[:, None]  # own[i, k]: key k is a magnitude of row i
    if canon.G.shape[0]:
        constraints = Constraints(
            np.vstack([np.where(own, weight, 0.0), canon.G]), ("<=",) * (m + canon.G.shape[0]),
            np.concatenate([surplus, canon.h]), canon.lower, canon.upper,
        )
        lps = [LinearProgram(np.where(own[i], -weight, 0.0), constraints) for i in range(m)]
        blocks = [slice(None)] * m
    else:
        blocks = own
        lps = [
            LinearProgram(
                -weight[b], Constraints(weight[None, b], ("<=",), surplus[[i]], canon.lower[b], canon.upper[b])
            )
            for i, b in enumerate(own)
        ]
    return gap_solution(
        ModelKind.RLO_IU_DG, solve_lp_batch(lps), surplus, canon.lower, blocks,
        lambda values: _alpha_matrix(problem, key_rows, key_cols, values),
        lambda i, alpha: realized_row_interval(problem.A[i], alpha[i], structure.sets[i], x),
        "no nonnegative magnitudes in the side constraints keep the observation robust-feasible",
    )


def _activation_lp(load, center, target, weight, norm):
    """Cheapest weighted move of one row's magnitudes that makes the row robust-active.

    Columns: the row's magnitudes, then the deviation bounds (one per
    magnitude for l1, one shared for linf); rows: two deviation bounds per
    magnitude and the activeness equality load . alpha = target.
    """
    k = load.size
    dev = -np.eye(k) if norm == NormKind.L1 else -np.ones((k, 1))
    bands = np.stack([np.hstack([np.eye(k), dev]), np.hstack([-np.eye(k), dev])], axis=1)  # up_j, down_j
    A = np.vstack([bands.reshape(2 * k, -1), np.concatenate([load, np.zeros(dev.shape[1])])])
    rhs = np.append(np.column_stack([center, -center]), target)
    objective = np.concatenate([np.zeros(k), np.full(dev.shape[1], weight)])
    return LinearProgram(objective, Constraints(A, ("<=",) * (2 * k) + ("=",), rhs, np.zeros(objective.size)))


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
    cheapest feasible row.  The row with the smallest objective
    t_i = f_i + sum(g) - g_i is made active (`active_row`).
    """
    x = check_inputs(ModelKind.RLO_IU_SD, problem, x_hat, structure, prior=prior)
    surplus = _surplus(problem, x, structure)
    if prior.norm not in (NormKind.L1, NormKind.LINF):
        raise UnsupportedNormError(
            "deviation recovery under strong duality supports l1 and linf priors only"
        )
    m = problem.m
    worst = int(np.argmin(surplus))
    if surplus[worst] < -1e-9:
        return InverseSolution.infeasible(
            ModelKind.RLO_IU_SD,
            f"observation is nominal-infeasible on constraint {worst + 1} "
            f"(violation {-surplus[worst]:g}); no magnitudes can restore feasibility",
        )
    w = prior.weights(m)
    cols = [list(s) for s in structure.sets]
    centers = [prior.estimates[i, cols[i]] for i in range(m)]
    loads = [np.abs(x[cols[i]]) for i in range(m)]
    fits = np.array([float(loads[i] @ centers[i]) <= surplus[i] for i in range(m)])
    lps = [_activation_lp(loads[i], centers[i], surplus[i], w[i], prior.norm) for i in range(m)]
    outcomes = solve_lp_batch(lps)

    f = np.array([out.value if out.status == LpStatus.OPTIMAL else np.inf for out in outcomes])
    g = np.where(fits, 0.0, f)
    if not np.all(np.isfinite(g)) or not np.any(np.isfinite(f)):
        return InverseSolution.infeasible(
            ModelKind.RLO_IU_SD, "no constraint can be made robust-active at the observation"
        )

    t = f + np.sum(g) - g
    i_star = active_row(t, f + np.sum(g))
    alpha = np.zeros((m, problem.n))
    for i in range(m):
        moved = i == i_star or not fits[i]
        alpha[i, cols[i]] = np.maximum(outcomes[i].solution[: len(cols[i])], 0.0) if moved else centers[i]
    cost = realized_row_interval(problem.A[i_star], alpha[i_star], structure.sets[i_star], x)
    return active_solution(
        ModelKind.RLO_IU_SD, i_star, alpha, cost, t[i_star], {"f": f, "g": g, "t": t}, False
    )
