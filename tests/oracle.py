"""Brute-force grid oracles for the six inverse models.

Each oracle re-evaluates a model's objective directly from the geometric
definitions over a lattice of parameter values; it shares no code path with
the solvers it cross-checks.  `brute_force_min` gives the grid minimum and
`oracle_tolerance` the step times a per-instance Lipschitz bound within
which a solver's optimum must agree with it.

The module also keeps the earlier forms of array steps that were rewritten
for speed with the same arithmetic (the `*_by_*` functions at the end): the
rewritten steps must reproduce them bit for bit.  The row dots and norms,
whose summation order is the reduction's own, are held instead to their
exact values (`exact_dot`, `exact_l2`) within a stated bound.
"""

import math
import numbers
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from conftest import knapsack_protection
from io_recover.errors import InverseLpError, PreconditionError
from io_recover.geometry import NormKind, _split, activation_budgets, dual_norm, products, row_dots, sgn
from io_recover.model import (
    CanonicalOmega,
    ModelKind,
    PriorEpsilon,
    RhsEpsilon,
    Status,
    ValidationEntry,
    WeightBoost,
    block_shapes,
    canonicalize_omega,
    check_inputs,
    clamp_budget_prior,
    param_keys,
    read_block,
)
from io_recover.verify import REPORT_TOL, UNIT_FREE, CertificateReport

GRID_CAP = 10_000_000
_CHUNK = 262_144


class GridTooLargeError(InverseLpError):
    """The requested brute-force grid exceeds the evaluation cap."""


@dataclass(frozen=True)
class GridOracleSpec:
    """Exhaustive-search request: per-parameter boxes (natural flattening
    order) and a common step."""

    parameter_box: tuple
    step: float
    model: ModelKind

    def __post_init__(self):
        if self.step <= 0.0:
            raise PreconditionError("grid step must be positive")
        for lo, hi in self.parameter_box:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise PreconditionError("grid boxes must be finite")


def _axis(lo, hi, step):
    if hi < lo - 1e-12:
        raise PreconditionError(f"empty grid box [{lo}, {hi}]")
    count = int(math.floor((hi - lo) / step + 1e-9))
    vals = lo + step * np.arange(count + 1)
    if vals.size == 0 or vals[-1] < hi - 1e-9:
        vals = np.append(vals, hi)
    return vals


def _grid_size(axes):
    total = 1
    for a in axes:
        total *= len(a)
    return total


def _check_cap(total):
    if total > GRID_CAP:
        raise GridTooLargeError(f"grid has {total} points (cap {GRID_CAP})")


def _iter_grid(axes):
    sizes = [len(a) for a in axes]
    total = _grid_size(axes)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total))
        coords = np.unravel_index(idx, sizes)
        yield np.stack([axes[d][coords[d]] for d in range(len(axes))], axis=1)


def _row_axes(spec, keys, row, lower=None, upper=None):
    axes = []
    for k in _row_key_positions(keys, row):
        lo, hi = spec.parameter_box[k]
        if lower is not None:
            lo = max(lo, lower[k])
        if upper is not None:
            hi = min(hi, upper[k])
        axes.append(_axis(lo, hi, spec.step))
    return axes


def _row_key_positions(keys, row):
    return np.flatnonzero(keys.rows == row).tolist()


def _min_over(values, mask):
    if not np.any(mask):
        return np.inf, None
    masked = np.where(mask, values, np.inf)
    k = int(np.argmin(masked))
    return float(masked[k]), k


def brute_force_min(model, problem, x_hat, structure, omega_or_prior, spec):
    """Exhaustive minimum of a model's objective over a parameter grid.

    Gap models scan parameters against feasibility and take the smallest
    per-row surplus; strong-duality models scan parameters against a
    feasibility band around activeness per candidate row.  Returns
    (value, argmin parameter vector); (inf, None) when no grid point is
    feasible.  Evaluation uses the geometric definitions only.
    """
    model = ModelKind(model)
    if model != spec.model:
        raise PreconditionError("oracle spec is for a different model")
    x = np.asarray(x_hat, dtype=float)
    surplus = problem.surplus(x)
    m = problem.m
    keys = param_keys(model, problem, structure)
    if len(spec.parameter_box) != len(keys):
        raise PreconditionError(
            f"oracle box has {len(spec.parameter_box)} entries for {len(keys)} parameters"
        )

    if model in (ModelKind.NLO_DG, ModelKind.RLO_IU_DG, ModelKind.RLO_CCU_DG):
        omega = omega_or_prior
        floor = None if model == ModelKind.NLO_DG else np.zeros(len(keys))
        cap = None
        if model == ModelKind.RLO_CCU_DG:
            cap = np.array([float(len(structure.sets[i])) for i in range(m)])
        canon = canonicalize_omega(omega, keys, lower_floor=floor, upper_cap=cap)
        if not canon.feasible:
            return np.inf, None
        if canon.couples:
            return _dg_product(model, problem, structure, x, surplus, keys, canon, spec)
        return _dg_separable(model, problem, structure, x, surplus, keys, canon, spec)

    prior = omega_or_prior
    if model == ModelKind.NLO_SD:
        return _nlo_sd_oracle(problem, x, surplus, keys, prior, spec)
    if model == ModelKind.RLO_IU_SD:
        return _iu_sd_oracle(problem, structure, x, surplus, keys, prior, spec)
    return _ccu_sd_oracle(problem, structure, x, surplus, keys, prior, spec)


def _dg_separable(model, problem, structure, x, surplus, keys, canon, spec):
    m = problem.m
    best_t = np.full(m, np.inf)
    best_active = [None] * m
    safe_point = [None] * m
    for i in range(m):
        axes = _row_axes(spec, keys, i, canon.lower, canon.upper)
        positions = _row_key_positions(keys, i)
        if not axes:
            # No parameters on this row (possible only for budget/deviation
            # models with empty sets); the row is fixed at its surplus.
            best_t[i] = surplus[i] if surplus[i] >= -1e-9 else np.inf
            safe_point[i] = np.zeros(0)
            best_active[i] = np.zeros(0)
            continue
        _check_cap(_grid_size(axes))
        t_i = np.inf
        arg_i = None
        safe_i = None
        safe_margin = -np.inf
        for grid in _iter_grid(axes):
            if model == ModelKind.NLO_DG:
                s = grid @ x[keys.cols[positions]] - problem.b[i]
                feas = s >= -1e-9
                val, k = _min_over(s, feas)
                if val < t_i:
                    t_i, arg_i = val, grid[k].copy()
                margins = np.where(feas, s, -np.inf)
            else:
                if model == ModelKind.RLO_CCU_DG:
                    prot = np.array(
                        [
                            knapsack_protection(structure.alpha[i], g[0], structure.sets[i], x)
                            for g in grid
                        ]
                    )
                else:
                    w = np.abs(x[keys.cols[positions]])
                    prot = grid @ w
                feas = prot <= surplus[i] + 1e-9
                val, k = _min_over(surplus[i] - prot, feas)
                if val < t_i:
                    t_i, arg_i = val, grid[k].copy()
                margins = np.where(feas, surplus[i] - prot, -np.inf)
            k_safe = int(np.argmax(margins))
            if margins[k_safe] > safe_margin:
                safe_margin = margins[k_safe]
                safe_i = grid[k_safe].copy()
        if arg_i is None:
            return np.inf, None
        best_t[i] = t_i
        best_active[i] = arg_i
        safe_point[i] = safe_i
    i_star = int(np.argmin(best_t))
    argmin = np.zeros(len(keys))
    for i in range(m):
        point = best_active[i] if i == i_star else safe_point[i]
        for pos, k in enumerate(_row_key_positions(keys, i)):
            argmin[k] = point[pos]
    return float(best_t[i_star]), argmin


def _dg_product(model, problem, structure, x, surplus, keys, canon, spec):
    axes = []
    for k in range(len(keys)):
        lo, hi = spec.parameter_box[k]
        lo = max(lo, canon.lower[k])
        hi = min(hi, canon.upper[k])
        axes.append(_axis(lo, hi, spec.step))
    _check_cap(_grid_size(axes))
    m = problem.m
    positions = [np.array(_row_key_positions(keys, i), dtype=int) for i in range(m)]
    best = np.inf
    arg = None
    for grid in _iter_grid(axes):
        P = grid.shape[0]
        gaps = np.full((P, m), np.inf)
        feasible = np.ones(P, dtype=bool)
        for i in range(m):
            pos = positions[i]
            if model == ModelKind.NLO_DG:
                s = grid[:, pos] @ x[keys.cols[pos]] - problem.b[i]
                feasible &= s >= -1e-9
                gaps[:, i] = s
            elif model == ModelKind.RLO_IU_DG:
                w = np.abs(x[keys.cols[pos]])
                prot = grid[:, pos] @ w
                feasible &= prot <= surplus[i] + 1e-9
                gaps[:, i] = surplus[i] - prot
            else:
                axis_i = axes[pos[0]]
                table = np.array(
                    [
                        knapsack_protection(structure.alpha[i], v, structure.sets[i], x)
                        for v in axis_i
                    ]
                )
                idx = np.clip(
                    np.rint((grid[:, pos[0]] - axis_i[0]) / spec.step).astype(int),
                    0,
                    len(axis_i) - 1,
                )
                # rounding is exact on the lattice; the appended endpoint is
                # looked up directly
                exact = np.isclose(axis_i[idx], grid[:, pos[0]], atol=1e-9)
                if not np.all(exact):
                    idx = np.searchsorted(axis_i, grid[:, pos[0]] - 1e-12)
                    idx = np.clip(idx, 0, len(axis_i) - 1)
                prot = table[idx]
                feasible &= prot <= surplus[i] + 1e-9
                gaps[:, i] = surplus[i] - prot
        if canon.G.shape[0]:
            feasible &= np.all(grid @ canon.G.T <= canon.h + 1e-9, axis=1)
        obj = gaps.min(axis=1)
        val, k = _min_over(obj, feasible)
        if val < best:
            best, arg = val, grid[k].copy()
    if arg is None:
        return np.inf, None
    return float(best), arg


def _norm_cost(grid, center, norm):
    diff = grid - center
    if norm == NormKind.L1:
        return np.sum(np.abs(diff), axis=1)
    if norm == NormKind.L2:
        return np.sqrt(np.sum(diff * diff, axis=1))
    return np.max(np.abs(diff), axis=1)


def _sd_row_scan(axes, center, norm, weight, measure, target, band):
    """Min weighted distance to `center` over {measure <= target} (g) and
    {|measure - target| <= band} (f)."""
    g_best, g_arg = np.inf, None
    f_best, f_arg = np.inf, None
    for grid in _iter_grid(axes):
        cost = weight * _norm_cost(grid, center, norm)
        meas = measure(grid)
        feas = meas <= target + 1e-9
        val, k = _min_over(cost, feas)
        if val < g_best:
            g_best, g_arg = val, grid[k].copy()
        act = np.abs(meas - target) <= band
        val, k = _min_over(cost, act)
        if val < f_best:
            f_best, f_arg = val, grid[k].copy()
    return (g_best, g_arg), (f_best, f_arg)


def _assemble(keys, m, row_points):
    argmin = np.zeros(len(keys))
    for i in range(m):
        for pos, k in enumerate(_row_key_positions(keys, i)):
            argmin[k] = row_points[i][pos]
    return argmin


def _nlo_sd_oracle(problem, x, surplus_hat, keys, prior, spec):
    m = problem.m
    w = prior.weights(m)
    band = 0.5 * spec.step * float(np.sum(np.abs(x))) + 1e-9
    g = np.full(m, np.inf)
    f = np.full(m, np.inf)
    g_pts = [None] * m
    f_pts = [None] * m
    for i in range(m):
        axes = _row_axes(spec, keys, i)
        _check_cap(_grid_size(axes))
        measure = lambda grid: -(grid @ x)  # noqa: E731 - feasibility is a'x >= b
        (g[i], g_pts[i]), (f[i], f_pts[i]) = _sd_row_scan(
            axes, prior.estimates[i], prior.norm, w[i], measure, -problem.b[i], band
        )
    if not np.all(np.isfinite(g)):
        return np.inf, None
    totals = np.array(
        [f[i] + float(np.sum(g)) - g[i] if np.isfinite(f[i]) else np.inf for i in range(m)]
    )
    i_star = int(np.argmin(totals))
    if not np.isfinite(totals[i_star]):
        return np.inf, None
    points = [f_pts[i] if i == i_star else g_pts[i] for i in range(m)]
    return float(totals[i_star]), _assemble(keys, m, points)


def _iu_sd_oracle(problem, structure, x, surplus, keys, prior, spec):
    m = problem.m
    w = prior.weights(m)
    if np.min(surplus) < -1e-9:
        return np.inf, None
    g = np.full(m, np.inf)
    f = np.full(m, np.inf)
    g_pts = [None] * m
    f_pts = [None] * m
    for i in range(m):
        positions = _row_key_positions(keys, i)
        axes = _row_axes(spec, keys, i, lower=np.zeros(len(keys)))
        _check_cap(_grid_size(axes))
        weights = np.abs(x[keys.cols[positions]])
        center = prior.estimates[keys.rows[positions], keys.cols[positions]]
        band = 0.5 * spec.step * float(np.sum(weights)) + 1e-9
        measure = lambda grid, wv=weights: grid @ wv  # noqa: E731
        (g[i], g_pts[i]), (f[i], f_pts[i]) = _sd_row_scan(
            axes, center, prior.norm, w[i], measure, surplus[i], band
        )
    if not np.all(np.isfinite(g)):
        return np.inf, None
    totals = np.array(
        [f[i] + float(np.sum(g)) - g[i] if np.isfinite(f[i]) else np.inf for i in range(m)]
    )
    i_star = int(np.argmin(totals))
    if not np.isfinite(totals[i_star]):
        return np.inf, None
    points = [f_pts[i] if i == i_star else g_pts[i] for i in range(m)]
    return float(totals[i_star]), _assemble(keys, m, points)


def _ccu_sd_oracle(problem, structure, x, surplus, keys, prior, spec):
    m = problem.m
    if np.min(surplus) < -1e-9:
        return np.inf, None
    gamma_hat = clamp_budget_prior(prior, structure)
    axes = []
    tables = []
    for i in range(m):
        lo, hi = spec.parameter_box[i]
        lo = max(lo, 0.0)
        hi = min(hi, float(len(structure.sets[i])))
        axis = _axis(lo, hi, spec.step)
        axes.append(axis)
        tables.append(
            np.array(
                [knapsack_protection(structure.alpha[i], v, structure.sets[i], x) for v in axis]
            )
        )
    _check_cap(_grid_size(axes))
    bands = np.zeros(m)
    for i in range(m):
        vals = [structure.alpha[i, j] * abs(x[j]) for j in structure.sets[i]]
        bands[i] = 0.5 * spec.step * (max(vals) if vals else 0.0) + 1e-9
    best, arg = np.inf, None
    for grid in _iter_grid(axes):
        P = grid.shape[0]
        feas = np.zeros((m, P), dtype=bool)
        act = np.zeros((m, P), dtype=bool)
        for i in range(m):
            idx = np.searchsorted(axes[i], grid[:, i] - 1e-12)
            idx = np.clip(idx, 0, len(axes[i]) - 1)
            prot = tables[i][idx]
            feas[i] = prot <= surplus[i] + 1e-9
            act[i] = np.abs(prot - surplus[i]) <= bands[i]
        infeasible_rows = np.sum(~feas, axis=0)
        # a point qualifies when some row is within the activeness band and
        # every other row is feasible; the active row itself may straddle
        # its exact-equality target by the band
        qualified = np.zeros(P, dtype=bool)
        for i in range(m):
            qualified |= act[i] & (infeasible_rows - (~feas[i]).astype(int) == 0)
        cost = _norm_cost(grid, gamma_hat, prior.norm)
        val, k = _min_over(cost, qualified)
        if val < best:
            best, arg = val, grid[k].copy()
    if arg is None:
        return np.inf, None
    return float(best), arg


def _norm_step_factor(norm, dim):
    if norm == NormKind.L1:
        return float(dim)
    if norm == NormKind.L2:
        return math.sqrt(dim)
    return 1.0


def oracle_tolerance(model, problem, x_hat, structure, spec, prior=None):
    """step * (per-instance Lipschitz bound) for comparing a solver optimum
    against brute_force_min on the same grid."""
    model = ModelKind(model)
    x = np.asarray(x_hat, dtype=float)
    absx = np.abs(x)
    step = spec.step
    m, n = problem.m, problem.n
    if model == ModelKind.NLO_DG:
        return step * float(np.sum(absx)) + 1e-9
    if model == ModelKind.RLO_IU_DG:
        best = max(float(np.sum(absx[list(structure.sets[i])])) for i in range(m))
        return step * best + 1e-9
    if model == ModelKind.RLO_CCU_DG:
        vals = [
            structure.alpha[i, j] * absx[j] for i in range(m) for j in structure.sets[i]
        ]
        return step * (max(vals) if vals else 0.0) + 1e-9
    w = prior.weights(m)
    if model == ModelKind.NLO_SD:
        quant = float(np.sum(w)) * _norm_step_factor(prior.norm, n)
        under = float(np.max(w)) * float(np.sum(absx)) / (2.0 * dual_norm(x, prior.norm))
        return step * (quant + under) + 1e-9
    if model == ModelKind.RLO_IU_SD:
        quant = sum(w[i] * _norm_step_factor(prior.norm, len(structure.sets[i])) for i in range(m))
        under = 0.0
        for i in range(m):
            wvals = [absx[j] for j in structure.sets[i] if absx[j] > 1e-12]
            if wvals:
                total = sum(absx[j] for j in structure.sets[i])
                under = max(under, w[i] * total / (2.0 * max(wvals)))
        return step * (quant + under) + 1e-9
    quant = _norm_step_factor(prior.norm, m)
    under = 0.0
    for i in range(m):
        vals = [structure.alpha[i, j] * absx[j] for j in structure.sets[i]]
        pos = [v for v in vals if v > 1e-12]
        if pos:
            under = max(under, max(vals) / (2.0 * min(pos)))
    return step * (quant + under) + 1e-9


# Exact row dots and l2 norms, and the bounds a float evaluation keeps to
# (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.1).

UNIT_ROUNDOFF = Fraction(1, 2**53)
LEAST_SUBNORMAL = Fraction(1, 2**1074)
DECIMAL_DIGITS = 60


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u): any order of n - 1 additions of n
    rounded products (fused or not) errs by at most gamma_n times their
    absolute sum, while nothing underflows."""
    return n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF)


def exact_dot(a, b):
    """sum_j a_j b_j of two float vectors, exactly."""
    return sum((Fraction(float(u)) * Fraction(float(v)) for u, v in zip(a, b)), Fraction(0))


def absolute_dot(a, b):
    """sum_j |a_j b_j|, exactly."""
    return sum((abs(Fraction(float(u)) * Fraction(float(v))) for u, v in zip(a, b)), Fraction(0))


def dot_bound(a, b):
    """The error bound of a float dot of n terms: gamma_n sum_j |a_j b_j|,
    plus one least subnormal per product, which can lose up to half of one
    when it underflows (a sum that underflows is exact)."""
    return gamma(len(a)) * absolute_dot(a, b) + len(a) * LEAST_SUBNORMAL


def _decimal(q):
    """The fraction q to DECIMAL_DIGITS significant digits."""
    return Decimal(q.numerator) / Decimal(q.denominator)


def exact_l2(x):
    """||x||_2 to DECIMAL_DIGITS significant digits: the sum of squares
    exactly, its square root in `decimal`."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return _decimal(sum((Fraction(float(v)) ** 2 for v in x), Fraction(0))).sqrt()


def exact_l2_raise(load, gap):
    """The point of {alpha : load . alpha = gap} closest to 0 in l2, and its
    distance, to DECIMAL_DIGITS significant digits: alpha = gap load /
    ||load||^2, at gap / ||load||."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        size = exact_l2(load)
        per = Decimal(float(gap)) / size
        return [per * Decimal(float(v)) / size for v in load], per


def l2_bound(x):
    """The error bound of `geometry.row_norms`' l2 norm of x's n entries:
    gamma_{n+5} ||x||_2 plus one least subnormal.  The sum of squares errs
    by gamma_n relatively, and by less than one more u for the squares that
    underflow while the sum stays above 1e-300; the square root halves
    that.  The rescale by the largest entry, taken when the sum leaves
    [1e-300, inf), rounds each entry (2u on its square), the root and the
    product; a subnormal norm rounds to within half a least subnormal."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return _decimal(gamma(len(x) + 5)) * exact_l2(x) + _decimal(LEAST_SUBNORMAL)


# Earlier forms of rewritten array steps: the same arithmetic in the same
# order, so the rewritten steps in geometry, verify and model match them bit for bit.

def row_dots_by_row(a, b):
    """geometry.row_dots one row at a time, each on a one-row view: a
    reduction that treats every row alone gives the m-row call's bits."""
    if np.ndim(b) == 1:
        return np.array([row_dots(a[i : i + 1], b)[0] for i in range(len(a))], dtype=float)
    return np.array([row_dots(a[i : i + 1], b[i : i + 1])[0] for i in range(len(a))], dtype=float)


def row_dots_by_ddot(a, b):
    """geometry.row_dots before it was one reduction: one BLAS dot per row
    (a_i . b, or np.vdot of each row pair), plus 0.0 for a vector b."""
    if np.ndim(b) == 1:
        return np.fromiter(map(b.dot, a), float, len(a)) + 0.0
    return np.fromiter(map(np.vdot, a, b), float, len(a))


def ranked_by_take(alpha, mask, x):
    """geometry.ranked, gathering the products by np.take_along_axis."""
    values = products(alpha, mask, x)
    order = np.argsort(np.where(mask, -values, np.inf), axis=1, kind="stable")
    return order, np.take_along_axis(values, order, axis=1)


def budget_share_by_argsort(alpha, mask, x, budget):
    """geometry.budget_share, ranking the columns by a second argsort."""
    order, _ = ranked_by_take(alpha, mask, x)
    full, frac = _split(budget, mask)
    rank = np.argsort(order, axis=1)
    return np.where(rank < full[:, None], 1.0, np.where(rank == full[:, None], frac[:, None], 0.0))


def sums_by_pad(values):
    """geometry._sums, padding the leading zero column by np.pad."""
    return np.cumsum(np.pad(values, ((0, 0), (1, 0))), axis=1)


def knapsack_by_pad(values, mask, budget):
    """geometry.knapsack, padding the trailing zero column by np.pad."""
    full, frac = _split(budget, mask)
    i, k = np.arange(full.size), full.astype(np.intp)
    following = np.pad(values, ((0, 0), (0, 1)))[i, k]
    return sums_by_pad(values)[i, k] + frac * np.where(frac > 0.0, following, 0.0)


def cost_match_by_row(model, problem, x, structure, solution):
    """check_certificate's "dual.cost_match" for a robust solution, its
    deviation terms added to A' pi - c one row at a time."""
    pi, c = (np.asarray(v, dtype=float) for v in (solution.dual_pi, solution.cost))
    alpha, _, strict_share = deviation_block_by_parts(
        model, structure, structure.mask(problem.n), np.asarray(solution.imputed, dtype=float), x
    )
    phi = pi[:, None] * strict_share
    lam = np.where(x < 0.0, phi, 0.0)
    mu = np.where(x < 0.0, 0.0, phi)
    cost_eq = problem.A.T @ pi - c
    for i in range(problem.m):
        cost_eq += alpha[i] * (lam[i] - mu[i])
    return float(np.max(np.abs(cost_eq)))


def a8_by_every_row(problem, x, structure):
    """model.validate's A8 entry, ranking every row's products: the rows
    whose activation budgets differ, none at a nominally infeasible point."""
    ambiguous = np.zeros(problem.m, dtype=bool)
    if not (problem.surplus(x) < -1e-9).any():
        lower, upper = activation_budgets(problem.A, problem.b, structure.alpha, structure.mask(problem.n), x)
        ambiguous = lower < upper
    if not ambiguous.any():
        return ValidationEntry("A8", "pass")
    return ValidationEntry("A8", "warn", tuple((np.flatnonzero(ambiguous) + 1).tolist()),
                           "a range of budgets activates this row; both endpoints are reported")


def nontriviality_by_every_row(model, problem, structure, mask, solution):
    """verify._nontriviality for a robust family, forming every row's
    deviation at the all-plus point."""
    cost_ok = solution.cost is not None and float(np.max(np.abs(solution.cost))) > 1e-9
    plus = np.ones(problem.n)
    alpha, share, _ = deviation_block_by_parts(model, structure, mask, np.asarray(solution.imputed, dtype=float), plus)
    row = problem.A - alpha * share  # sgn(plus) = +1
    dev = problem.A - row
    rows_ok = not np.any(np.abs(np.abs(problem.A) - dev).max(axis=1) <= 1e-9)
    return {"cost_nonzero": cost_ok, "rows_nonzero_all_orthants": rows_ok, "orthants_checked": 2**problem.n}


def canonicalize_by_product(omega, keys, lower_floor=None, upper_cap=None):
    """model.canonicalize_omega scanning the whole of G, by one product of
    its nonzero pattern with [1, column]: each row's count of parameters
    and the column of a single one."""
    p = len(keys)
    lo = np.full(p, -np.inf)
    hi = np.full(p, np.inf)
    if lower_floor is not None:
        lo = np.maximum(lo, np.asarray(lower_floor, dtype=float))
    if upper_cap is not None:
        hi = np.minimum(hi, np.asarray(upper_cap, dtype=float))
    G, h = (np.zeros((0, p)), np.zeros(0)) if omega is None else (omega.G, omega.h)
    count, at = ((G != 0.0) @ np.stack([np.ones(p), np.arange(p)], axis=1)).T
    single = np.flatnonzero(count == 1)
    col = at[single].astype(np.intp)
    g = G[single, col]
    bound = h[single] / g
    np.minimum.at(hi, col[g > 0], bound[g > 0])
    np.maximum.at(lo, col[g < 0], bound[g < 0])
    feasible = not (np.any(h[count == 0] < -1e-9) or np.any(lo > hi + 1e-9))
    kept = count > 1
    touched = G[kept] != 0.0
    # a kept row couples when it touches a forward row below the last one it touches
    last = np.max(np.where(touched, keys.rows, -1), axis=1, initial=-1)
    couples = bool(np.any(touched & (keys.rows != last[:, None])))
    return CanonicalOmega(lower=lo, upper=hi, G=G[kept], h=h[kept], feasible=feasible, couples=couples)


def _excess_by_parts(values):
    """verify._excess through the np.max wrapper, for arrays and numbers alike."""
    top = float(np.max(values, initial=0.0))
    return math.inf if math.isnan(top) else max(0.0, top)


def deviation_block_by_parts(model, structure, mask, imputed, point, rows=slice(None)):
    """(alpha, share, strict_share) of the rows `rows` at `point`, as
    check_certificate formed them for all m rows at once: the magnitudes
    on the mask (0 off it), the share of each column's deviation in force
    (`budget_share_by_argsort`, or 1 on every uncertain column under
    interval uncertainty), and that share where it is > 1e-12."""
    mask, imputed = mask[rows], imputed[rows]
    if model.family == "iu":
        fully = mask * 1.0
        return np.where(mask, imputed, 0.0), fully, fully
    alpha = structure.alpha[rows]
    share = budget_share_by_argsort(alpha, mask, point, imputed)
    return np.where(mask, alpha, 0.0), share, np.where(share > 1e-12, share, 0.0)


def _nontriviality_by_parts(model, problem, structure, mask, solution):
    cost_ok = solution.cost is not None and float(np.max(np.abs(solution.cost))) > 1e-9
    if model.family == "nlo":
        rows_ok = bool(np.all(np.abs(solution.imputed).max(axis=1) > 1e-9))
        return {"cost_nonzero": cost_ok, "rows_nonzero_all_orthants": rows_ok, "orthants_checked": 1}
    A, imputed = problem.A, np.asarray(solution.imputed, dtype=float)
    full = A - (A - np.where(mask, imputed if model.family == "iu" else structure.alpha, 0.0))
    rows = np.flatnonzero((np.abs(A) - full <= 1e-9).all(axis=1))
    rows_ok = True
    if rows.size:
        alpha, share, _ = deviation_block_by_parts(model, structure, mask, imputed, np.ones(problem.n), rows)
        dev = A[rows] - (A[rows] - alpha * share)
        rows_ok = not np.any(np.abs(np.abs(A[rows]) - dev).max(axis=1) <= 1e-9)
    return {"cost_nonzero": cost_ok, "rows_nonzero_all_orthants": rows_ok, "orthants_checked": 2**problem.n}


@np.errstate(over="ignore", invalid="ignore")
def certificate_by_parts(model, problem, x_hat, structure, solution):
    """verify.check_certificate as it was built from its parts: every
    residual over the whole m x n block, masked residuals gathered by the
    mask, the realized rows formed for all m rows, and the nontriviality
    read from the solution's raw fields."""
    model = ModelKind(model)
    if solution.status not in (Status.OPTIMAL, Status.TRIVIAL_DETECTED):
        raise PreconditionError("certificates apply to optimal or trivial-detected solutions only")
    x = check_inputs(ModelKind(model.value.replace("-sd", "-dg")), problem, x_hat, structure)
    shapes = block_shapes(model, problem.m, problem.n)
    read = {name: read_block(getattr(solution, name), shape) for name, shape in shapes.items()}
    reasons = [f"{name}: {reason}" for name, (_, reason) in read.items() if reason]
    fields = {name: array for name, (array, _) in read.items() if array is not None}
    fields |= {name: np.asarray(getattr(solution, name), dtype=float) for name in ("duality_gap", "objective_value")
               if getattr(solution, name) is not None}
    reasons += [f"{name}: non-finite entry" for name, value in fields.items() if not np.isfinite(value).all()]
    active = solution.active_index
    if active is not None and not (isinstance(active, numbers.Integral) and 1 <= active <= problem.m):
        reasons.append(f"active_index: {active!r} outside 1..{problem.m}")
    if reasons:
        return CertificateReport(residuals={}, aux={}, dual_aux={}, nontriviality={}, verdict="invalid",
                                 reason=reasons[0])
    c, pi, imputed = (fields[name] for name in shapes)
    primal, dual, consistency, aux, dual_aux = {}, {}, {}, {}, {}
    normalization = abs(float(np.sum(pi)) - 1.0)
    dual["pi_nonneg"] = _excess_by_parts(-pi)
    mask = structure.mask(problem.n)
    if model.family == "nlo":
        realized = imputed
        primal["feasibility"] = _excess_by_parts(problem.b - imputed @ x)
        dual["cost_match"] = float(np.max(np.abs(imputed.T @ pi - c)))
    else:
        alpha, share, strict_share = deviation_block_by_parts(model, structure, mask, imputed, x)
        realized = problem.A - sgn(x) * alpha * share
        u = alpha * np.abs(x)
        phi = pi[:, None] * strict_share
        lam = np.where(x < 0.0, phi, 0.0)
        mu = np.where(x < 0.0, 0.0, phi)
        cost_eq = np.cumsum(np.vstack((problem.A.T @ pi - c, alpha * (lam - mu))), axis=0)[-1]
        primal["deviation_bound_lo"] = _excess_by_parts(-(alpha * x + u)[mask])
        primal["deviation_bound_hi"] = _excess_by_parts(-(-alpha * x + u)[mask])
        dual["cost_match"] = float(np.max(np.abs(cost_eq)))
        pairing = _excess_by_parts(np.abs(phi - lam - mu)[mask])
        if model.family == "iu":
            robust = problem.A @ x - u.sum(axis=1) - problem.b
            primal["robust_feasibility"] = _excess_by_parts(-robust)
            primal["alpha_nonneg"] = _excess_by_parts(-alpha[mask])
            dual["multiplier_pairing"] = pairing
            aux["u"] = u
        else:
            gamma = imputed
            z = np.where(share > 0.0, u, np.inf).min(axis=1)
            z = np.where(np.isinf(z), u.max(axis=1), z)
            y = np.where(mask, np.maximum(u - z[:, None], 0.0), 0.0)
            robust = problem.A @ x - y.sum(axis=1) - gamma * z - problem.b
            primal["aux_cover"] = _excess_by_parts((u - y - z[:, None])[mask])
            primal["robust_feasibility"] = _excess_by_parts(-robust)
            primal["aux_nonneg"] = _excess_by_parts(-np.append(y, z))
            primal["budget_range"] = _excess_by_parts(np.maximum(-gamma, gamma - mask.sum(axis=1)))
            dual["allocation_cap"] = _excess_by_parts((phi - pi[:, None])[mask])
            dual["multiplier_pairing"] = pairing
            dual["budget_cap"] = _excess_by_parts(phi.sum(axis=1) - gamma * pi)
            aux["u"], aux["y"], aux["z"] = u, y, z
            dual_aux["phi"] = phi
        dual_aux["lambda"] = lam
        dual_aux["mu"] = mu
    gap_value = float(c @ x) - float(problem.b @ pi)
    strong_duality = None
    duality_gap = None
    if model.is_sd:
        strong_duality = abs(gap_value)
        if solution.objective_value is not None:
            consistency["objective_nonneg"] = _excess_by_parts(-solution.objective_value)
    else:
        duality_gap = gap_value
        consistency["gap_nonneg"] = _excess_by_parts(-gap_value)
        if solution.duality_gap is not None:
            consistency["gap_consistency"] = abs(gap_value - float(solution.duality_gap))
    if solution.active_index is not None:
        k = solution.active_index - 1
        consistency["cost_is_active_row"] = float(np.max(np.abs(realized[k] - c)))
    residuals = {
        f"{group}.{name}": val
        for group, values in (("primal", primal), ("dual", dual), ("consistency", consistency))
        for name, val in values.items()
    }
    residuals["normalization"] = normalization
    if strong_duality is not None:
        residuals["strong_duality"] = strong_duality
    scale = max(float(np.max(np.abs(arr), initial=0.0)) for arr in (problem.A, problem.b, x, c, imputed))
    failed = next((name for name, val in residuals.items()
                   if not val <= (REPORT_TOL if name in UNIT_FREE else REPORT_TOL * (1.0 + scale))), None)
    verdict, reason = ("valid", None) if failed is None else ("invalid", f"{failed} = {residuals[failed]:g}")
    return CertificateReport(
        residuals=residuals, aux=aux, dual_aux=dual_aux, duality_gap=duality_gap,
        nontriviality=_nontriviality_by_parts(model, problem, structure, mask, solution),
        verdict=verdict, reason=reason,
    )


def diagnose_trivial_by_row(solution, problem, structure, prior=None, x_hat=None):
    """verify.diagnose_trivial finding the trivialized rows, and the other
    rows' premiums, one row at a time."""
    if solution.status != Status.TRIVIAL_DETECTED:
        return []
    if solution.model != ModelKind.NLO_SD or solution.imputed is None:
        return []
    model = ModelKind.NLO_DG if prior is None else ModelKind.NLO_SD
    x = None if x_hat is None else check_inputs(model, problem, x_hat, structure, prior=prior)
    suggestions = []
    f = solution.per_constraint.get("f")
    g = solution.per_constraint.get("g")
    rows = [i for i in range(problem.m) if float(np.max(np.abs(np.asarray(solution.imputed)[i]))) <= 1e-9]
    for i in rows:
        scale = 0.1 * max(1.0, abs(float(problem.b[i])))
        sign = 1.0
        if prior is not None and x is not None:
            sign = 1.0 if float(prior.estimates[i] @ x) >= 0.0 else -1.0
        suggestions.append(RhsEpsilon(row=i, delta=sign * scale, note="perturb the right-hand side"))
        suggestions.append(PriorEpsilon(row=i, col=0, delta=scale, heuristic=True,
                                        note="perturb the prior estimate (heuristic: first coordinate)"))
        if f is not None and g is not None and solution.active_index == i + 1 and g[i] <= 1e-12:
            premium = f[i] - g[i]
            others = [f[k] - g[k] for k in range(problem.m) if k != i]
            if premium > 1e-12 and others:
                ratio = min(others) / premium
                suggestions.append(WeightBoost(row=i, weight=max(10.0, 2.0 * ratio),
                                               note="activate a different constraint"))
    return suggestions
