"""Closed-form geometric kernel shared by every solver.

Norms and their maximizers, point-to-hyperplane/halfspace projections,
realized robust constraint rows, protection values, and the minimal
activation budget of a row.

Sign convention: sgn(0) = +1 throughout.  At a zero component the
deviation term multiplies zero, so the convention never changes a value.
"""

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

from .errors import PreconditionError, ZeroVectorError

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
    """||x||_2, rescaled by the largest |x_k| when x . x overflows."""
    nv = _plain_l2(x)
    if nv == math.inf:
        big = float(np.max(np.abs(x)))
        if big < math.inf:
            nv = big * _plain_l2(x / big)
    return nv


def dual_norm(x, norm):
    """max over ||v|| = 1 of x'v: L1 -> max|x_k|, L2 -> ||x||_2, Linf -> sum|x_k|."""
    # l1 and linf are each other's dual, l2 is its own; an unknown norm reaches norm_value's error
    dual = NormKind.LINF if norm == NormKind.L1 else NormKind.L1 if norm == NormKind.LINF else norm
    return norm_value(x, dual)


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


def dual_norm_maximizer(x, norm):
    """A unit-norm v attaining x'v = dual_norm(x, norm).

    L2: x/||x||_2.  L1: sign(x_k) e_k at the largest |x_k| (lowest index
    on ties).  Linf: the componentwise sign vector.
    """
    x = np.asarray(x, dtype=float)
    if not np.any(x != 0.0):
        raise ZeroVectorError("dual_norm_maximizer requires a nonzero vector")
    if norm == NormKind.L2:
        nv = _plain_l2(x)
        if nv < 1e-150 or nv == math.inf:  # x . x underflows or overflows: rescale by the largest entry first
            x = x / np.max(np.abs(x))
            nv = _plain_l2(x)
        return x / nv
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
    t = (float(a_hat @ x_hat) - float(b)) / dn
    return a_hat - t * v, abs(t)


def project_halfspace(a_hat, x_hat, b, norm):
    """Project a_hat onto {a : a'x_hat >= b}; identity when already inside."""
    a_hat = np.asarray(a_hat, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if not np.any(x_hat != 0.0):
        raise ZeroVectorError("projection requires a nonzero observed point")
    if float(a_hat @ x_hat) >= float(b):
        return a_hat.copy(), 0.0
    return project_hyperplane(a_hat, x_hat, b, norm)


def _check_alpha(alpha_i, cols):
    alpha_i = np.asarray(alpha_i, dtype=float)
    for j in cols:
        if alpha_i[j] < 0.0:
            raise PreconditionError(f"deviation magnitude alpha[{j}] is negative")
    return alpha_i


def realized_row_interval(a_i, alpha_i, cols, x):
    """Effective row under full interval deviation at x.

    Component j in cols becomes a_ij - sgn(x_j) * alpha_ij; other
    components stay nominal, so (realized row)'x = a_i'x - sum alpha|x|.
    """
    a_i = np.asarray(a_i, dtype=float)
    x = np.asarray(x, dtype=float)
    alpha_i = _check_alpha(alpha_i, cols)
    row = a_i.astype(float).copy()
    for j in cols:
        row[j] -= (1.0 if x[j] >= 0.0 else -1.0) * alpha_i[j]
    return row


@dataclass(frozen=True)
class SortedUncertainty:
    """Columns of one row ordered by alpha_ij |x_j| descending (ties: lower column first)."""

    order: tuple
    values: np.ndarray


def sorted_uncertainty(alpha_i, cols, x):
    alpha_i = np.asarray(alpha_i, dtype=float)
    x = np.asarray(x, dtype=float)
    pairs = sorted(((j, alpha_i[j] * abs(x[j])) for j in cols), key=lambda p: (-p[1], p[0]))
    order = tuple(j for j, _ in pairs)
    values = np.array([v for _, v in pairs], dtype=float)
    return SortedUncertainty(order=order, values=values)


def _split_budget(budget, size):
    """(full, frac): number of fully deviated items and the fractional part."""
    if budget < -_ACTIVE_TOL or budget > size + _ACTIVE_TOL:
        raise PreconditionError(f"budget {budget} outside [0, {size}]")
    budget = min(max(float(budget), 0.0), float(size))
    full = int(math.floor(budget + _VALUE_TOL))
    frac = budget - full
    if frac < _VALUE_TOL:
        frac = 0.0
    if full > size:
        full, frac = size, 0.0
    return full, frac


def realized_row_cardinality(a_i, alpha_i, budget, cols, x):
    """Effective row when at most `budget` coefficients deviate (one fractionally).

    The top floor(budget) columns in sorted alpha|x| order deviate fully,
    the next deviates by the fractional part, the rest stay nominal.
    """
    a_i = np.asarray(a_i, dtype=float)
    x = np.asarray(x, dtype=float)
    alpha_i = _check_alpha(alpha_i, cols)
    su = sorted_uncertainty(alpha_i, cols, x)
    full, frac = _split_budget(budget, len(su.order))
    row = a_i.astype(float).copy()
    for rank, j in enumerate(su.order):
        if rank < full:
            dev = 1.0
        elif rank == full and frac > 0.0:
            dev = frac
        else:
            break
        row[j] -= (1.0 if x[j] >= 0.0 else -1.0) * alpha_i[j] * dev
    return row


def protection_value(alpha_i, budget, cols, x):
    """Worst-case surplus loss of one row for a deviation budget.

    Equals the continuous-knapsack optimum of the values alpha_ij |x_j|
    with capacity `budget`: sum of the floor(budget) largest values plus
    the fractional part times the next one.
    """
    alpha_i = _check_alpha(alpha_i, cols)
    su = sorted_uncertainty(alpha_i, cols, x)
    full, frac = _split_budget(budget, len(su.order))
    total = float(np.sum(su.values[:full]))
    if frac > 0.0 and full < len(su.order):
        total += frac * float(su.values[full])
    return total


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
    """Smallest budget at which the protection value equals the row's nominal surplus.

    Greedy inversion of the sorted cumulative sums; when the surplus equals
    the full protection and some alpha_ij |x_j| = 0, every budget in
    [lower, |cols|] is active, reported as an interval.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    alpha_i = _check_alpha(alpha_i, cols)
    a_i = np.asarray(problem.A, dtype=float)[row]
    surplus = float(a_i @ x_hat) - float(problem.b[row])
    if surplus < -_ACTIVE_TOL:
        return GammaBarResult(
            kind="not_applicable",
            reason=f"constraint {row + 1} is nominal-infeasible (surplus {surplus:g})",
        )
    surplus = max(surplus, 0.0)
    su = sorted_uncertainty(alpha_i, cols, x_hat)
    total = float(np.sum(su.values))
    size = len(su.order)
    if surplus > total + _ACTIVE_TOL:
        return GammaBarResult(
            kind="not_applicable",
            reason=f"surplus {surplus:g} exceeds the full protection {total:g}",
        )
    if surplus >= total - _ACTIVE_TOL:
        positive = int(np.sum(su.values > _VALUE_TOL))
        if positive < size:
            return GammaBarResult(kind="interval", lower=float(positive), upper=float(size))
        return GammaBarResult(kind="unique", lower=float(size), upper=float(size))
    cum = 0.0
    for rank in range(size):
        value = float(su.values[rank])
        if cum + value >= surplus - _VALUE_TOL:
            if value <= _VALUE_TOL:
                gb = float(rank)
            else:
                gb = rank + max(surplus - cum, 0.0) / value
            return GammaBarResult(kind="unique", lower=gb, upper=gb)
        cum += value
    return GammaBarResult(kind="unique", lower=float(size), upper=float(size))


def aux_optimum(alpha_i, budget, cols, x_hat):
    """Cheapest auxiliary block certifying one row's protection value.

    Returns dense (u, y, z): u_j = alpha_ij |x_j|, z = the sorted value at
    position ceil(budget) (the largest value when budget = 0), and
    y_j = max(u_j - z, 0); then sum(y) + budget * z = protection_value.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    alpha_i = _check_alpha(alpha_i, cols)
    su = sorted_uncertainty(alpha_i, cols, x_hat)
    full, frac = _split_budget(budget, len(su.order))
    n = x_hat.size
    u = np.zeros(n, dtype=float)
    y = np.zeros(n, dtype=float)
    for j in cols:
        u[j] = alpha_i[j] * abs(x_hat[j])
    if not su.order:
        return u, y, 0.0
    pos = full if frac > 0.0 else max(full - 1, 0)
    z = float(su.values[min(pos, len(su.order) - 1)])
    for j in cols:
        y[j] = max(u[j] - z, 0.0)
    return u, y, z
