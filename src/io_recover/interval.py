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
separate by row, and each row's move is a projection in closed form,
made for every row in one pass over the m x n block of loads and prior
magnitudes (`_activations`; `_activation` is its one-row view).
Both models hand their per-row results to `model`'s one tail, which picks
the active row and realizes the cost vector in the observation's orthant.
"""

import sys

import numpy as np

from .errors import PreconditionError
from .geometry import NormKind, dual_kind, row_dots, row_norms
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
    empty = np.bincount(structure.entries[0], minlength=problem.m) == 0
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


def _raised(load, gap, norm):
    """The moves of rows whose centres fall short by `gap` > 0 along the
    loads' dual-norm maximizer, which is nonnegative: l1's largest load
    (lowest column on ties), l2's loads over their norm, linf's loaded
    columns.  Returns which rows a float move reaches, and their moves."""
    dual = row_norms(load, dual_kind(norm))
    with np.errstate(over="ignore"):  # a move past the floats reads inf: the loads are too small for it
        amount = gap / dual
        if norm == NormKind.L1:
            step = (np.arange(load.shape[1]) == load.argmax(axis=1)[:, None]).astype(float)
        elif norm == NormKind.L2:
            step = load / dual[:, None]
            # as dual_norm_maximizer: where load . load under- or overflows, the loads rescaled by their
            # largest, and the move priced in those units, not by their norm rounded back (subnormal
            # loads lose digits); gap / big can pass the floats where the move does not
            plain = np.sqrt(row_dots(load, load))
            odd = np.flatnonzero((plain < 1e-150) | (plain == np.inf))
            big = np.max(load[odd], axis=1)
            scaled = load[odd] / big[:, None]
            unit = np.sqrt(row_dots(scaled, scaled))
            step[odd] = scaled / unit[:, None]
            per = gap[odd] / big
            amount[odd] = np.where(per < np.inf, per / unit, gap[odd] / unit / big)
        else:
            step = (load > 0.0).astype(float)
    reach = amount < np.inf
    return reach, amount[reach, None] * step[reach]


def _lowered(load, center, target, dots, norm):
    """The moves of rows whose centres overshoot `target`: load . center =
    `dots` > target.  l1 takes columns to 0 by decreasing load, lowest
    index first (`_fill` toward 0 of the amounts cut); l2 (step = load,
    rescaled where its square would under- or overflow) and linf (step =
    1) set alpha = max(0, center - d * step), with d from one sweep over
    the breakpoints center / step (Held, Wolfe and Crowder 1974; Duchi et
    al. 2008).  Either way one stable argsort orders every row's columns,
    and cumulative sums along it price them; a move past the floats takes
    its column to 0."""
    live = load > 0.0
    rows = np.arange(load.shape[0])[:, None]
    if norm == NormKind.L1:
        order = rows, np.argsort(np.where(live, -load, np.inf), axis=1, kind="stable")
        before, ahead = np.zeros(load.shape), np.empty(load.shape)  # ahead: the load of the columns cut first
        np.cumsum((load * center)[order][:, :-1], axis=1, out=before[:, 1:])
        ahead[order] = before
        excess = dots - target
        cut = np.zeros(load.shape)
        with np.errstate(over="ignore"):  # a cut past the floats reads inf: the column goes to 0
            np.divide(np.maximum(excess[:, None] - ahead, 0.0), load, out=cut, where=live)
        return -np.where(live & (dots <= excess)[:, None], center, np.minimum(center, cut))
    if norm == NormKind.L2:  # any positive multiple of the loads: one that keeps load . step in the floats
        big = np.max(load, axis=1)
        step = load / np.where((big < 1e-150) | (big > 1e150), big, 1.0)[:, None]
    else:
        step = live.astype(float)
    ratio = np.full(load.shape, np.inf)  # the breakpoints, at inf for an unloaded column or a step of 0
    with np.errstate(over="ignore"):  # a breakpoint past the floats reads inf: it goes first, as it should
        np.divide(center, step, out=ratio, where=step > 0.0)
    order = rows, np.argsort(ratio, axis=1, kind="stable")[:, ::-1]  # the largest breakpoint first
    # with d between breakpoints k + 1 and k in that order, load = rest[k] - d * slope[k]
    rest = np.cumsum((load * center)[order], axis=1)
    slope = np.cumsum((load * step)[order], axis=1)
    live, ratio = live[order], ratio[order]
    # is the load still above target when d reaches column k's breakpoint?  Never at an infinite
    # one (unloaded, or past the floats), where d * slope would read NaN for a zero slope
    finite = ratio < np.inf
    above = finite & (rest - np.where(finite, ratio, 0.0) * slope > target[:, None])
    k = load.shape[1] - 1 - np.minimum(above.sum(axis=1), live.sum(axis=1) - 1)
    # d is in a segment holding no less than the target, where the tests above lose their precision too
    k = rows, np.maximum(k, np.argmax(rest >= target[:, None], axis=1))[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a d past the floats cuts to 0
        d = np.fmin((rest[k] - target[:, None]) / slope[k], sys.float_info.max)
        return -np.minimum(center, d * step)


def _activations(load, center, target, norm):
    """Every row's point of {alpha >= 0 : load . alpha = target} closest to
    its centre in `norm`, from m x n blocks of loads and centres (0 off the
    row's columns) and the m targets (`_raised`, `_lowered`).  Returns the
    points, their distances (inf when the load must change and no column
    is loaded, or must rise past the floats) and whether each centre fits
    (load . center <= target).  Zero-load columns keep their centre."""
    on = load > 0.0
    dots = row_dots(load, center)
    gap = target - dots
    alpha, distance = center.copy(), np.where(gap == 0.0, 0.0, np.inf)

    def place(rows, move):
        start = center[rows]
        alpha[rows] = np.where(on[rows], start + move, start)
        distance[rows] = row_norms(move, norm)  # move is 0 or -0 off the loaded columns

    loaded = on.any(axis=1)
    rise, cut = np.flatnonzero((gap > 0.0) & loaded), np.flatnonzero((gap < 0.0) & loaded)
    if rise.size:
        reach, move = _raised(load[rise], gap[rise], norm)
        place(rise[reach], move)
    if cut.size:
        place(cut, _lowered(load[cut], center[cut], target[cut], dots[cut], norm))
    return alpha, distance, dots <= target


def _activation(load, center, target, norm):
    """One row's `_activations`: its point and distance."""
    alpha, distance, _ = _activations(
        np.asarray(load, dtype=float)[None], np.asarray(center, dtype=float)[None], np.array([target], dtype=float),
        norm,
    )
    return alpha[0], float(distance[0])


def solve_rlo_iu_sd(problem, x_hat, structure, prior):
    """Smallest weighted perturbation of prior magnitudes achieving exact optimality.

    Feasible exactly when the observation is nominal-feasible.  Row i's
    cheapest move to robust-active, f_i, is a projection; `_activations`
    makes every row's in one pass over the m x n block.  Keeping row i
    robust-feasible costs 0 when its prior row fits, else f_i: the norm
    being convex, a feasible row pulled to active comes no closer.
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
    mask = structure.mask(problem.n)
    centers = np.where(mask, prior.estimates, 0.0)
    moved, distance, fits = _activations(np.where(mask, np.abs(x), 0.0), centers, surplus, prior.norm)
    f = np.full(m, np.inf)
    np.multiply(prior.weights(m), distance, out=f, where=distance < np.inf)  # a zero weight keeps inf, not NaN
    return sd_solution(
        ModelKind.RLO_IU_SD, problem, structure, x, f, fits, moved, centers,
        "no constraint can be made robust-active at the observation",
    )
