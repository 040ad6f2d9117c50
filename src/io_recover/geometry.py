"""Closed-form geometric kernel shared by every solver.

Norms and their maximizers, point-to-hyperplane/halfspace projections,
realized robust constraint rows, the budget kernel: one ranking of
every row's products alpha_ij |x_j| serves the deviation shares, the
protection values and the activation budgets of all m rows at once, and
the box knapsack that prices the gap models' one coupling side row for
all m rows at once.

Sign convention: sgn(0) = +1 throughout.  At a zero component the
deviation term multiplies zero, so the convention never changes a value.
"""

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

from .errors import NumericalFailureError, PreconditionError, ZeroVectorError

_VALUE_TOL = 1e-12
_ACTIVE_TOL = 1e-9


class NormKind(str, Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


def sgn(x):
    """Componentwise sign with sgn(0) = +1."""
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, -1.0)


def _plain_l2(x):
    """np.linalg.norm(x), computed the same way (x.ravel(order="K") dotted
    with itself) but by np.vdot, which returns inf on overflow without a
    warning."""
    v = x.ravel(order="K")
    return math.sqrt(np.vdot(v, v))


def _l2_norm(x):
    """||x||_2, rescaled by the largest |x_k| when x . x underflows or overflows."""
    nv = _plain_l2(x)
    if nv < 1e-150 or nv == math.inf:
        big = float(np.max(np.abs(x), initial=0.0))
        if 0.0 < big < math.inf:
            nv = big * _plain_l2(x / big)
    return nv


def dual_kind(norm):
    """The dual of `norm`: l1 and linf are each other's, l2 is its own (an
    unknown norm passes through to norm_value's error)."""
    return NormKind.LINF if norm == NormKind.L1 else NormKind.L1 if norm == NormKind.LINF else norm


def dual_norm(x, norm):
    """max over ||v|| = 1 of x'v: L1 -> max|x_k|, L2 -> ||x||_2, Linf -> sum|x_k|."""
    return norm_value(x, dual_kind(norm))


def norm_value(x, norm):
    """||x|| for the given norm kind."""
    x = np.asarray(x, dtype=float)
    if norm == NormKind.L1:
        return float(np.sum(np.abs(x)))
    if norm == NormKind.L2:
        return _l2_norm(x)
    if norm == NormKind.LINF:
        return float(np.max(np.abs(x))) if x.size else 0.0
    raise PreconditionError(f"unknown norm {norm!r}")


def row_dots(a, b):
    """a_i . b for each row of the m x n block a and the vector b, or a_i .
    b_i for each row of the m x n blocks a and b, by one einsum reduction.
    Each row is reduced on its own, so a one-row view a[i:i+1] gives row
    i's bits; `tests/oracle.py` holds every row within Higham's bound
    gamma_n sum_j |a_ij b_j| of the exact dot, plus n least subnormals for
    products that underflow.  einsum adds the products into a zeroed
    output, so a one-column dot of -0.0 reads 0.0, as a sum from 0 does.
    An overflow reads inf without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.einsum("ij,j->i" if b.ndim == 1 else "ij,ij->i", a, b)


def row_norms(x, norm):
    """norm_value of each row of the m x n block x; a row's l2 norm is
    rescaled as `_l2_norm` rescales it."""
    if norm == NormKind.L1:
        return np.sum(np.abs(x), axis=1)
    if norm == NormKind.LINF:
        return np.max(np.abs(x), axis=1, initial=0.0)
    if norm != NormKind.L2:
        raise PreconditionError(f"unknown norm {norm!r}")
    nv = np.sqrt(row_dots(x, x))
    odd = np.flatnonzero((nv < 1e-150) | (nv == np.inf))
    if odd.size:
        big = np.max(np.abs(x[odd]), axis=1, initial=0.0)
        keep = (big > 0.0) & (big < np.inf)
        odd, big = odd[keep], big[keep]
        scaled = x[odd] / big[:, None]
        with np.errstate(over="ignore"):  # a norm past the largest float reads inf
            nv[odd] = big * np.sqrt(row_dots(scaled, scaled))
    return nv


def dual_norm_maximizer(x, norm):
    """A unit-norm v attaining x'v = dual_norm(x, norm).

    L2: x/||x||_2.  L1: sign(x_k) e_k at the largest |x_k| (lowest index
    on ties).  Linf: the componentwise sign vector.
    """
    x = np.asarray(x, dtype=float)
    odd = np.flatnonzero(~np.isfinite(x))
    if odd.size:  # no rescale brings an infinite l2 norm back into the floats
        raise PreconditionError(f"dual_norm_maximizer requires finite entries: x[{odd[0]}] = {x.flat[odd[0]]}")
    if not np.any(x != 0.0):
        raise ZeroVectorError("dual_norm_maximizer requires a nonzero vector")
    if norm == NormKind.L2:  # where x . x under- or overflows, x rescaled by its largest entry is normalized
        y = x if 1e-150 <= _plain_l2(x) < math.inf else x / np.max(np.abs(x))
        return y / _plain_l2(y)
    if norm == NormKind.L1:
        k = int(np.argmax(np.abs(x)))
        v = np.zeros_like(x)
        v[k] = 1.0 if x[k] >= 0.0 else -1.0
        return v
    if norm == NormKind.LINF:
        return sgn(x)
    raise PreconditionError(f"unknown norm {norm!r}")


def project_hyperplane(a_hat, x_hat, b, norm):
    """Project a_hat onto {a : a'x_hat = b}, minimizing ||a - a_hat||.

    Returns (a_f, f) where f is the unweighted distance |a_hat'x_hat - b|
    divided by the dual norm of x_hat; a_f'x_hat = b exactly.
    """
    a_hat = np.asarray(a_hat, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    dn = dual_norm(x_hat, norm)
    if dn == 0.0:
        raise ZeroVectorError("projection requires a nonzero observed point")
    v = dual_norm_maximizer(x_hat, norm)
    t = (float(row_dots(a_hat[None], x_hat)[0]) - float(b)) / dn  # as solve_nlo_sd takes each row's dot
    return a_hat - t * v, abs(t)


def project_halfspace(a_hat, x_hat, b, norm):
    """Project a_hat onto {a : a'x_hat >= b}; identity when already inside."""
    a_hat = np.asarray(a_hat, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if not np.any(x_hat != 0.0):
        raise ZeroVectorError("projection requires a nonzero observed point")
    if float(row_dots(a_hat[None], x_hat)[0]) >= float(b):
        return a_hat.copy(), 0.0
    return project_hyperplane(a_hat, x_hat, b, norm)


def _check_alpha(alpha_i, cols):
    alpha_i = np.asarray(alpha_i, dtype=float)
    cols = list(cols)  # indexes as one column at a time did: one that is not an integer raises IndexError
    negative = np.flatnonzero(alpha_i[cols] < 0.0)
    if negative.size:  # the first in `cols` order is named
        raise PreconditionError(f"deviation magnitude alpha[{cols[negative[0]]}] is negative")
    return alpha_i


def realized_row_interval(a_i, alpha_i, cols, x):
    """Effective row under full interval deviation at x.

    Component j in cols becomes a_ij - sgn(x_j) * alpha_ij; other
    components stay nominal, so (realized row)'x = a_i'x - sum alpha|x|.
    """
    a_i = np.asarray(a_i, dtype=float)
    x = np.asarray(x, dtype=float)
    alpha_i = _check_alpha(alpha_i, cols)
    cols = np.asarray(cols, dtype=np.intp)  # integers: _check_alpha indexed with them
    row = a_i.copy()
    np.subtract.at(row, cols, np.where(x[cols] >= 0.0, 1.0, -1.0) * alpha_i[cols])  # a repeated column twice
    return row


# Budget uncertainty, every row at once: row i deviates the columns of J_i
# (row i of an m x n `mask`) in order of the products alpha_ij |x_j|, a
# continuous knapsack (Bertsimas and Sim 2004).  The functions below the
# kernel are its one-row views.

def products(alpha, mask, x):
    """alpha_ij |x_j| on the uncertain columns, 0 elsewhere (m x n)."""
    return np.where(mask, alpha, 0.0) * np.abs(x)


def ranked(alpha, mask, x):
    """Every row's columns by alpha_ij |x_j| descending, by one stable
    argsort: ties go to the lower column and the columns outside J_i last.
    Returns (order, values): the columns in rank order and the products in
    that order (0 past |J_i|)."""
    values = products(alpha, mask, x)
    order = np.argsort(np.where(mask, -values, np.inf), axis=1, kind="stable")
    return order, values[np.arange(order.shape[0])[:, None], order]


def _split(budget, mask):
    """Per row, the number of fully deviated columns and the fractional part
    (0 below 1e-12) of a budget clamped into [0, |J_i|]."""
    budget = np.minimum(np.maximum(budget, 0.0), mask.sum(axis=1))
    full = np.floor(budget + _VALUE_TOL)
    frac = budget - full
    return full, np.where(frac < _VALUE_TOL, 0.0, frac)


def budget_share(alpha, mask, x, budget, order=None):
    """The share of each column's deviation in force (m x n) when row i
    deviates by budget[i]: 1 on its floor(budget[i]) highest-ranked
    columns, the fractional part on the next, 0 elsewhere.  `order` is
    these rows' ranking from `ranked`, taken here when not given."""
    if order is None:
        order = ranked(alpha, mask, x)[0]
    full, frac = _split(budget, mask)
    rank = np.empty_like(order)  # each column's place in its row's ranking
    rank[np.arange(order.shape[0])[:, None], order] = np.arange(order.shape[1])
    return np.where(rank < full[:, None], 1.0, np.where(rank == full[:, None], frac[:, None], 0.0))


def _sums(values):
    """sums[:, k]: the sum of each row's k largest products, added in rank order."""
    sums = np.zeros((values.shape[0], values.shape[1] + 1))
    sums[:, 1:] = values
    return np.cumsum(sums, axis=1, out=sums)


def knapsack(values, mask, budget):
    """Each row's continuous knapsack of its ranked products `values` (from
    `ranked`) with capacity budget[i], summed in rank order."""
    full, frac = _split(budget, mask)
    i, k = np.arange(full.size), full.astype(np.intp)
    following = np.zeros((full.size, values.shape[1] + 1))  # the product of rank k, 0 past the last
    following[:, :-1] = values
    return _sums(values)[i, k] + frac * np.where(frac > 0.0, following[i, k], 0.0)


def protection(alpha, mask, x, budget):
    """Each row's worst-case surplus loss at its budget: the continuous
    knapsack of its products with capacity budget[i]."""
    return knapsack(ranked(alpha, mask, x)[1], mask, budget)


@dataclass(frozen=True)
class BoxKnapsack:
    """`box_knapsack`'s answer, one entry or row per row of its blocks.

    `value` is the minimum (-inf where unbounded), `point` an optimal point
    or, where the value is -inf, a feasible point from which `ray` (0 on
    the other rows) is a direction of the box along which c . z falls
    without bound and the row stays feasible.  `shortfall` is d - max r . z
    over the box: the row is infeasible where it is positive.
    """

    value: np.ndarray
    point: np.ndarray
    ray: np.ndarray
    shortfall: np.ndarray


def box_knapsack(c, r, d, lower, upper):
    """Each row's continuous knapsack min c . z s.t. r . z >= d, lower <= z
    <= upper, for m x n blocks c, r, lower, upper (bounds may be infinite)
    and d of length m (-inf leaves a row's constraint out); one
    multiplier prices the row (Dantzig 1957; Everett 1963).

    Every coordinate starts at its preferred bound: the cheaper one, or,
    at zero cost, the one r favours; where that bound is infinite (or r_j
    = 0 too), at the box point nearest 0.  Moving toward the bound r
    favours adds resource r_j z_j at the ratio c_j / r_j.  A seller is a
    coordinate of positive ratio whose cheaper bound is infinite: it can
    hand back resource without limit, so the multiplier is at least the
    largest seller ratio (0 without sellers), and every coordinate below
    that floor fills up.  The rest fill by lowest ratio first, lowest
    column on ties (one stable argsort of the m x n block, cumulative
    sums along each row), until r . z reaches d; a surplus goes back
    through the lowest-column seller at the floor.  A row is unbounded
    when a coordinate outside r has an infinite cheaper bound, a filling
    coordinate below the floor has no limit, or a seller meets d = -inf;
    its point is then the zero-cost knapsack's.
    """
    c, r, lower, upper = (np.asarray(a, dtype=float) for a in (c, r, lower, upper))
    d = np.asarray(d, dtype=float)
    rows = np.arange(c.shape[0])
    item = r != 0.0
    near = np.minimum(np.maximum(lower, 0.0), upper)
    lean = np.where(c != 0.0, c, -r)  # the preferred bound: upper below 0, lower above, else near
    preferred = np.where(lean < 0.0, upper, np.where(lean > 0.0, lower, near))
    endless_side = np.isinf(preferred)
    anchor = np.where(endless_side, near, preferred)
    most = np.where(r > 0.0, upper, lower)  # the bound r favours
    # the resource a coordinate can add from its anchor, and its ratio: 0 outside r, with no 0 * inf
    cap, ratio, step = np.zeros(c.shape), np.zeros(c.shape), np.zeros(c.shape)
    with np.errstate(over="ignore"):
        np.multiply(np.abs(r), np.abs(most - anchor), out=cap, where=item)
        np.divide(c, r, out=ratio, where=item)
        short = d - (r * anchor).sum(axis=1)
    seller = (ratio > 0.0) & endless_side
    floor = np.where(seller, ratio, 0.0).max(axis=1)
    room = cap > 0.0
    forced = room & (ratio < floor[:, None])
    moved = np.where(forced, cap, 0.0)
    short -= moved.sum(axis=1)
    fill = room & ~forced
    grid = rows[:, None], np.where(fill, ratio, np.inf).argsort(axis=1, kind="stable")
    caps = np.where(fill, cap, 0.0)[grid]
    before = np.zeros(c.shape)  # the resource of the fills ahead, with no inf - inf
    caps[:, :-1].cumsum(axis=1, out=before[:, 1:])
    moved[grid] += np.minimum(np.maximum(short[:, None] - before, 0.0), caps)
    first = seller & (ratio == floor[:, None])
    back, giver = first.any(axis=1) & (short < 0.0), first.argmax(axis=1)
    moved[rows, giver] += np.where(back, short, 0.0)
    free = ~item & endless_side  # outside r only a nonzero cost picks an infinite bound
    endless = forced & (cap == np.inf)
    unbounded = (free | endless).any(axis=1) | (back & (short == -np.inf))
    with np.errstate(over="ignore"):
        np.divide(moved, r, out=step, where=item)
        point = np.where(room & (moved >= cap), most, anchor + step) + 0.0
    beyond = ~(np.isfinite(point).all(axis=1) | unbounded)
    if beyond.any():
        raise NumericalFailureError(f"the knapsack of constraint {beyond.argmax() + 1} lies beyond the floats")
    ray = np.zeros(c.shape)
    if unbounded.any():
        k = np.flatnonzero(unbounded)
        point[k] = box_knapsack(np.zeros((k.size, c.shape[1])), r[k], d[k], lower[k], upper[k]).point
        # a free coordinate; else an endless fill, alone at a negative ratio, else
        # traded against the giving seller; else that seller alone
        j, e = free.argmax(axis=1), endless.argmax(axis=1)
        lone = free.any(axis=1)
        ray[rows[lone], j[lone]] = -np.sign(c[rows[lone], j[lone]])
        fills = unbounded & ~lone & endless.any(axis=1)
        ray[rows[fills], e[fills]] = 1.0 / r[rows[fills], e[fills]]
        gives = unbounded & ~lone & ~(fills & (ratio[rows, e] < 0.0))
        ray[rows[gives], giver[gives]] -= 1.0 / r[rows[gives], giver[gives]]
    value = np.where(unbounded, -np.inf, (c * point).sum(axis=1))
    return BoxKnapsack(value=value, point=point, ray=ray, shortfall=short - before[:, -1] - caps[:, -1])


def activation(surplus, mask, values):
    """`activation_budgets` from each row's nominal surplus and its ranked
    products `values` (from `ranked`).  Each row is computed on its own, so
    any subset of the rows gets the bits it gets among all m."""
    sums = _sums(values)
    s, total = np.maximum(surplus, 0.0), sums[:, -1]
    # below the full protection: the first rank whose product the surplus reaches, and its share of it
    i = np.arange(s.size)
    r = np.argmax(sums[:, 1:] >= (s - _VALUE_TOL)[:, None], axis=1)
    value = values[i, r]
    share = np.maximum(s - sums[i, r], 0.0) / np.maximum(value, _VALUE_TOL)
    partial = np.where(value > _VALUE_TOL, r + share, r)
    whole = s >= total - _ACTIVE_TOL
    lower = np.where(whole, np.sum(values > _VALUE_TOL, axis=1), partial)
    upper = np.where(whole, mask.sum(axis=1), partial)
    out = (surplus < -_ACTIVE_TOL) | (s > total + _ACTIVE_TOL)
    return np.where(out, np.nan, lower), np.where(out, np.nan, upper)


def activation_budgets(A, b, alpha, mask, x, rows=slice(None)):
    """Each row's activation budgets: the least and the largest budget at
    which its protection equals its nominal surplus a_i . x - b_i (0 when
    the surplus is in (-1e-9, 0)).  They differ only when the surplus is the
    full protection and some product is 0: then every budget from the count
    of positive products to |J_i| works.  NaN where no budget does (a
    surplus below -1e-9 or above the full protection).  `rows` picks the
    rows computed, all by default; their surpluses come from the dots of
    all of A, since A's memory layout can move a dot's bits."""
    return activation((row_dots(A, x) - b)[rows], mask[rows], ranked(alpha[rows], mask[rows], x)[1])


def _one_row(alpha_i, cols, x):
    """alpha_i and the mask of `cols` as 1 x n blocks, and x as a vector."""
    x = np.asarray(x, dtype=float)
    mask = np.zeros((1, x.size), dtype=bool)
    mask[0, list(cols)] = True
    return np.asarray(alpha_i, dtype=float)[None], mask, x


def _budget(budget, cols):
    if budget < -_ACTIVE_TOL or budget > len(cols) + _ACTIVE_TOL:
        raise PreconditionError(f"budget {budget} outside [0, {len(cols)}]")
    return np.array([float(budget)])


def realized_row_cardinality(a_i, alpha_i, budget, cols, x):
    """Effective row when at most `budget` coefficients deviate (one fractionally).

    The top floor(budget) columns in sorted alpha|x| order deviate fully,
    the next deviates by the fractional part, the rest stay nominal.  This
    is the one-row view for callers outside; a budget solve realizes its
    active row by `budget_row` from the ranking of all m rows.
    """
    return budget_row(a_i, _check_alpha(alpha_i, cols), _budget(budget, cols), cols, x)


def budget_row(a_i, alpha_i, budget, cols, x, order=None):
    """`realized_row_cardinality` of a checked row: alpha_i >= 0 on `cols`,
    and `budget` a one-entry array in [0, |cols|].  `order` is the row's
    ranking as a 1 x n block from `ranked` (of this row alone or among
    others, which ranks it alike), taken here when not given."""
    a_i = np.asarray(a_i, dtype=float)
    alpha, mask, x = _one_row(alpha_i, cols, x)
    share = budget_share(alpha, mask, x, budget, order)[0]
    return np.where(share > 0.0, a_i - sgn(x) * alpha[0] * share, a_i)


@dataclass(frozen=True)
class GammaBarResult:
    """Minimal budget making a row active at the observed point.

    kind is "unique" (lower == upper), "interval" (any budget in
    [lower, upper] works), or "not_applicable" (the row cannot be made
    active; see reason).
    """

    kind: str
    lower: float = None
    upper: float = None
    reason: str = None


def gamma_bar(problem, alpha_i, cols, x_hat, row):
    """Smallest budget at which the protection value equals the row's
    nominal surplus (`activation_budgets` of row `row`); when the surplus
    equals the full protection and some alpha_ij |x_j| = 0, every budget in
    [lower, |cols|] is active, reported as an interval.
    """
    alpha, mask, x = _one_row(_check_alpha(alpha_i, cols), cols, x_hat)
    A = np.asarray(problem.A, dtype=float)[row : row + 1]
    b = np.asarray(problem.b, dtype=float)[row : row + 1]
    lower, upper = (float(v[0]) for v in activation_budgets(A, b, alpha, mask, x))
    if not math.isnan(lower):
        return GammaBarResult(kind="interval" if lower < upper else "unique", lower=lower, upper=upper)
    surplus = float(row_dots(A, x)[0]) - float(b[0])
    if surplus < -_ACTIVE_TOL:
        reason = f"constraint {row + 1} is nominal-infeasible (surplus {surplus:g})"
    else:
        total = float(protection(alpha, mask, x, mask.sum(axis=1))[0])
        reason = f"surplus {surplus:g} exceeds the full protection {total:g}"
    return GammaBarResult(kind="not_applicable", reason=reason)


def aux_optimum(alpha_i, budget, cols, x_hat):
    """Cheapest auxiliary block certifying one row's protection value.

    Returns dense (u, y, z): u_j = alpha_ij |x_j|, z = the smallest value
    in force at the budget (the largest value when budget = 0), and
    y_j = max(u_j - z, 0); then sum(y) + budget * z is the row's protection.
    """
    alpha, mask, x = _one_row(_check_alpha(alpha_i, cols), cols, x_hat)
    share = budget_share(alpha, mask, x, _budget(budget, cols))[0]
    u = products(alpha, mask, x)[0]
    if not cols:
        return u, np.zeros(x.size), 0.0
    z = float(np.min(u[share > 0.0])) if np.any(share > 0.0) else float(np.max(u[mask[0]]))
    return u, np.where(mask[0], np.maximum(u - z, 0.0), 0.0), z
