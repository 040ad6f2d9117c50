"""Recovery of interval-uncertainty magnitudes.

The gap model maximizes row i's protection, per row i, subject to robust
feasibility of every row and the side constraints; while they keep a
coupling row, `model.gap_values` solves that subproblem over every row's
magnitudes.  When the side constraints fold into bounds, the rows
separate: row i's subproblem is one constraint over a box, a continuous
knapsack solved in closed form here (`_fill`), and every other row keeps
its lower bounds, which are feasible whenever that row's own subproblem
is, since the loads |x_j| are nonnegative.
The strong-duality model runs no LP: its objective and constraints
separate by row, and each row's move is a projection in closed form.
Both models hand their per-row results to `model`'s one tail, which picks
the active row and realizes the cost vector in the observation's orthant.
"""

import math
import sys

import numpy as np

from .errors import PreconditionError
from .geometry import NormKind, dual_norm, dual_norm_maximizer, norm_value
from .model import (
    ZERO_TOL,
    InverseSolution,
    ModelKind,
    canonicalize_omega,
    check_inputs,
    gap_solution,
    gap_values,
    param_keys,
    sd_solution,
)


def _surplus(problem, x, structure):
    """The nominal surplus at the observation; every row needs an uncertain column."""
    empty = np.fromiter(map(len, structure.sets), np.intp, problem.m) == 0
    if empty.any():
        raise PreconditionError(f"constraint {np.argmax(empty) + 1} has no uncertain coefficients")
    return problem.surplus(x)


def _fill(load, lower, upper, target):
    """Row magnitudes from `lower` toward `upper` reaching load . alpha =
    `target`: the loaded columns rise in turn, largest load first (lowest
    column on ties), each until the target is met (every loaded column
    reaches `upper` when that falls short).  Zero-load columns keep
    `lower`."""
    alpha = lower.copy()
    on = load > 0.0
    ell, lo, up = load[on], lower[on], upper[on]
    if ell @ up <= target:
        alpha[on] = up
        return alpha
    order = np.argsort(-ell, kind="stable")
    ahead = np.zeros(ell.size)  # the load added by the columns ahead of each one
    ahead[order] = np.concatenate(([0.0], np.cumsum((ell * (up - lo))[order])))[:-1]
    alpha[on] = np.minimum(up, lo + np.maximum(target - ell @ lo - ahead, 0.0) / ell)
    return alpha


def solve_rlo_iu_dg(problem, x_hat, structure, omega):
    """Impute deviation magnitudes minimizing the duality gap.

    Per candidate row: maximize that row's protection subject to robust
    feasibility of every row, -w . alpha_k >= -surplus_k with loads w =
    |x_J|, nonnegativity, and the side constraints (`model.gap_values`
    while they keep a coupling row).  When the side constraints fold into
    bounds the rows separate: with row i's box
    [lower, upper], row i's protection is min(surplus_i, w . upper),
    reached from the lower bounds by `_fill`, and every other row keeps
    its lower bounds.  The problem is infeasible iff some row's least
    protection w . lower exceeds its surplus (by more than ZERO_TOL
    (1 + |surplus_i|) in the closed forms).
    The cost vector is the realized active row in the observation's orthant.
    """
    x = check_inputs(ModelKind.RLO_IU_DG, problem, x_hat, structure, omega=omega)
    surplus = _surplus(problem, x, structure)
    m = problem.m
    keys = param_keys(ModelKind.RLO_IU_DG, problem, structure)
    p = len(keys)
    canon = canonicalize_omega(omega, keys, lower_floor=np.zeros(p))
    if not canon.feasible:
        return InverseSolution.infeasible(ModelKind.RLO_IU_DG, "side constraints are contradictory")
    weight = np.abs(x[keys.cols])
    infeasible = "no nonnegative magnitudes in the side constraints keep the observation robust-feasible"
    if canon.G.shape[0]:
        found = gap_values(ModelKind.RLO_IU_DG, canon, keys, -weight, -surplus, infeasible)
        if isinstance(found, InverseSolution):
            return found
        values, imputed = found
        return gap_solution(
            ModelKind.RLO_IU_DG, problem, structure, x, surplus, values, lambda i: np.maximum(imputed(i), 0.0)
        )
    least = np.bincount(keys.rows, weight * canon.lower, m)
    if np.any(least > surplus + ZERO_TOL * (1.0 + np.abs(surplus))):
        return InverseSolution.infeasible(ModelKind.RLO_IU_DG, infeasible)
    most = np.bincount(keys.rows, weight * np.where(weight > 0.0, canon.upper, 0.0), m)  # no 0 * inf

    def imputed(i):
        own = keys.rows == i
        values = canon.lower.copy()
        values[own] = _fill(weight[own], canon.lower[own], canon.upper[own], surplus[i])
        return np.maximum(keys.block(values), 0.0)

    return gap_solution(ModelKind.RLO_IU_DG, problem, structure, x, surplus, -np.minimum(surplus, most), imputed)


def _activation(load, center, target, norm):
    """The point of {alpha >= 0 : load . alpha = target} closest to `center`
    in `norm`, and its distance (inf when the load must change and no column
    is loaded, or must rise past the floats).  Zero-load columns keep their
    centre.  A raise moves along the loads' dual-norm maximizer, which is
    nonnegative.  A cut takes l1's columns to 0 by decreasing load, lowest
    index first (`_fill` of the amounts cut), and sets alpha = max(0, center -
    d * step) for l2 (step = load) and linf (step = 1), with d from one
    sweep over the breakpoints center / step (Held, Wolfe and Crowder
    1974; Duchi et al. 2008)."""
    alpha = np.array(center, dtype=float)
    on = load > 0.0
    gap = target - float(load @ alpha)
    if gap == 0.0 or not on.any():
        return alpha, 0.0 if gap == 0.0 else math.inf
    ell, c = load[on], alpha[on]
    if gap > 0.0:
        dual = dual_norm(ell, norm)  # a Python float, so dual * max reads inf, unwarned, when dual > 1
        if gap >= dual * sys.float_info.max:  # loads too small for any float move to reach the target
            return alpha, math.inf
        move = gap / dual * dual_norm_maximizer(ell, norm)
    elif norm == NormKind.L1:
        move = -_fill(ell, np.zeros(ell.size), c, -gap)
    else:
        step = ell if norm == NormKind.L2 else np.ones(ell.size)
        order = np.argsort(c / step, kind="stable")
        # with d between breakpoints k - 1 and k, load = rest[k] - d * slope[k]
        rest = np.cumsum((ell * c)[order][::-1])[::-1]
        slope = np.cumsum((ell * step)[order][::-1])[::-1]
        k = min(int(np.sum(rest - (c / step)[order] * slope > target)), ell.size - 1)
        move = -np.minimum(c, (rest[k] - target) / slope[k] * step)
    alpha[on] = c + move
    return alpha, norm_value(move, norm)


def solve_rlo_iu_sd(problem, x_hat, structure, prior):
    """Smallest weighted perturbation of prior magnitudes achieving exact optimality.

    Feasible exactly when the observation is nominal-feasible.  Row i's
    cheapest move to robust-active, f_i, is a projection (`_activation`).
    Keeping row i robust-feasible costs 0 when its prior row fits, else f_i:
    the norm being convex, a feasible row pulled to active comes no closer.
    """
    x = check_inputs(ModelKind.RLO_IU_SD, problem, x_hat, structure, prior=prior)
    surplus = _surplus(problem, x, structure)
    m = problem.m
    worst = int(np.argmin(surplus))
    if surplus[worst] < -1e-9:
        return InverseSolution.infeasible(
            ModelKind.RLO_IU_SD,
            f"observation is nominal-infeasible on constraint {worst + 1} "
            f"(violation {-surplus[worst]:g}); no magnitudes can restore feasibility",
        )
    w = prior.weights(m)
    f, fits = np.zeros(m), np.zeros(m, dtype=bool)
    centers, moved = np.zeros((m, problem.n)), np.zeros((m, problem.n))
    for i, cols in enumerate(map(list, structure.sets)):
        load, center = np.abs(x[cols]), prior.estimates[i, cols]
        centers[i, cols] = center
        fits[i] = float(load @ center) <= surplus[i]
        moved[i, cols], distance = _activation(load, center, surplus[i], prior.norm)
        f[i] = w[i] * distance if distance < math.inf else math.inf  # a zero weight keeps inf, not NaN
    return sd_solution(
        ModelKind.RLO_IU_SD, problem, structure, x, f, fits, moved, centers,
        "no constraint can be made robust-active at the observation",
    )
