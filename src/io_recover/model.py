"""Shared domain types, dimension/assumption validation, and the solution model,
with the one tail of all six solvers (`row_solution`): it picks the active
row, realizes the cost vector from it (`realized_row`) and reports the
solution.  `gap_values` finds the gap models' row values, in closed form or
by the m LPs (this module is the library's one client of the LP engine),
and `sd_solution` takes the strong-duality moves of nlo-sd and rlo-iu-sd.

Constraint sense is fixed: minimize c'x subject to Ax >= b.  Callers with
<=/maximize problems must pre-negate.  Library indices are 0-based; the
`active_index` field of InverseSolution and all rendered reports are
1-based, matching the usual presentation of small worked instances.
"""

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np

from .errors import DimensionError, NumericalFailureError, PreconditionError
from .geometry import (
    NormKind,
    activation,
    box_knapsack,
    budget_row,
    products,
    ranked,
    realized_row_interval,
    row_dots,
)
from .lp import Constraints, LinearProgram, LpStatus, solve_lp_batch

ZERO_TOL = 1e-9


class Variant(str, Enum):
    NOMINAL = "nominal"
    INTERVAL = "interval"
    CARDINALITY = "cardinality"


class ModelKind(str, Enum):
    """A model by its name.  Each member holds what its name says, set once:
    `family` ("nlo", "iu" or "ccu"), `variant` (the uncertainty its rows
    are realized under), and `is_dg` / `is_sd`."""

    NLO_DG = "nlo-dg"
    NLO_SD = "nlo-sd"
    RLO_IU_DG = "rlo-iu-dg"
    RLO_IU_SD = "rlo-iu-sd"
    RLO_CCU_DG = "rlo-ccu-dg"
    RLO_CCU_SD = "rlo-ccu-sd"

    def __init__(self, value):
        self.family = value.split("-")[-2]  # "nlo-dg" -> "nlo", "rlo-iu-sd" -> "iu"
        self.variant = {"nlo": Variant.NOMINAL, "iu": Variant.INTERVAL, "ccu": Variant.CARDINALITY}[self.family]
        self.is_dg, self.is_sd = value.endswith("-dg"), value.endswith("-sd")


class Status(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    TRIVIAL_DETECTED = "trivial-detected"


def _freeze(arr):
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _require_finite(name, arr):
    if not np.isfinite(arr).all():
        raise DimensionError(name, "entries must be finite")


@dataclass(frozen=True, eq=False)
class ForwardProblem:
    """Nominal data of the forward problem: minimize c'x s.t. Ax >= b.

    A float array passed as A or b is frozen in place: it is made
    read-only, not copied, so the caller's array can no longer be written.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2:
            raise DimensionError("A", "must be a matrix")
        if b.ndim != 1:
            raise DimensionError("b", "must be a vector")
        if A.shape[0] != b.size:
            raise DimensionError("b", f"length {b.size} does not match {A.shape[0]} rows of A")
        if A.shape[0] < 1 or A.shape[1] < 1:
            raise DimensionError("A", "needs at least one row and one column")
        _require_finite("A", A)
        _require_finite("b", b)
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "b", _freeze(b))

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]

    def surplus(self, x):
        """Per-row slack A x - b at a point."""
        return self.A @ np.asarray(x, dtype=float) - self.b

    def __eq__(self, other):
        return (
            isinstance(other, ForwardProblem)
            and np.array_equal(self.A, other.A)
            and np.array_equal(self.b, other.b)
        )


def _entries(sets):
    """The (row, column) index arrays of the uncertain entries of `sets`, in row-major order."""
    return np.repeat(np.arange(len(sets)), [len(s) for s in sets]), np.fromiter(chain.from_iterable(sets), np.intp)


@dataclass(frozen=True, eq=False)
class UncertaintyStructure:
    """Which coefficients of each row are uncertain, and how.

    For the interval variant the per-row magnitudes are the quantity being
    imputed, so `alpha` stays None.  For the cardinality variant `alpha`
    holds the fixed magnitudes (dense m x n; entries outside the column
    sets are ignored).  `entries` holds the (row, column) index arrays of
    the uncertain entries in row-major order, built once.  A float array
    passed as alpha is frozen in place (made read-only, not copied).
    `nominal()` returns one structure, built at import.
    """

    variant: Variant
    sets: tuple = ()
    alpha: np.ndarray = None

    def __post_init__(self):
        listed = [list(s) for s in self.sets]
        kinds = set(map(type, chain.from_iterable(listed)))  # a bool is an int, but not a column index
        bad = {kind for kind in kinds if kind is bool or not issubclass(kind, (int, np.integer))}
        if bad:
            i, j = next((i, j) for i, s in enumerate(listed) for j in s if type(j) in bad)
            raise DimensionError("uncertain_columns", f"row {i + 1} has column index {j!r}, not an integer")
        # every row's columns sorted and each kept once, in one pass over the (row, column) pairs
        rows, cols = _entries(listed)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        first = np.ones(rows.size, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        rows, cols = rows[first], cols[first]
        if np.any(cols < 0):
            raise DimensionError("uncertain_columns", f"row {rows[np.argmax(cols < 0)] + 1} has negative column index")
        flat, ends = cols.tolist(), np.cumsum(np.bincount(rows, minlength=len(listed))).tolist()
        object.__setattr__(self, "sets", tuple(tuple(flat[a:b]) for a, b in zip([0] + ends, ends)))
        rows.setflags(write=False)
        cols.setflags(write=False)
        object.__setattr__(self, "entries", (rows, cols))
        if self.alpha is not None:
            alpha = np.asarray(self.alpha, dtype=float)
            if alpha.ndim != 2:
                raise DimensionError("alpha", "must be a matrix")
            _require_finite("alpha", alpha)
            # the first uncertain entry outside alpha, then the first negative one, in row-major order
            outside = (rows >= alpha.shape[0]) | (cols >= alpha.shape[1])
            if outside.any():
                k = np.argmax(outside)
                raise DimensionError("alpha", f"shape {alpha.shape} has no entry [{rows[k] + 1}][{cols[k] + 1}]")
            negative = alpha[rows, cols] < 0.0
            if negative.any():
                k = np.argmax(negative)
                raise DimensionError("alpha", f"alpha[{rows[k] + 1}][{cols[k] + 1}] is negative")
            object.__setattr__(self, "alpha", _freeze(alpha))

    @classmethod
    def nominal(cls):
        return _NOMINAL

    @classmethod
    def interval(cls, sets):
        return cls(variant=Variant.INTERVAL, sets=tuple(sets))

    @classmethod
    def cardinality(cls, sets, alpha):
        return cls(variant=Variant.CARDINALITY, sets=tuple(sets), alpha=alpha)

    def mask(self, n):
        """The m x n uncertain-column mask: entry (i, j) is True when j is in J_i."""
        mask = np.zeros((len(self.sets), n), dtype=bool)
        mask[self.entries] = True
        return mask

    def check_against(self, problem):
        if self.variant == Variant.NOMINAL:
            return
        if len(self.sets) != problem.m:
            raise DimensionError("uncertain_columns", f"{len(self.sets)} rows for m = {problem.m}")
        n = problem.n
        rows, cols = self.entries
        past = cols >= n
        if past.any():  # the first in row-major order: the first row's least column past n
            k = np.argmax(past)
            raise DimensionError("uncertain_columns", f"row {rows[k] + 1} references column {cols[k] + 1} > n = {n}")
        if self.variant == Variant.CARDINALITY:
            if self.alpha is None:
                raise DimensionError("alpha", "cardinality structure needs fixed deviation magnitudes")
            if self.alpha.shape != (problem.m, problem.n):
                raise DimensionError("alpha", f"shape {self.alpha.shape} != ({problem.m}, {problem.n})")

    def __eq__(self, other):
        if not isinstance(other, UncertaintyStructure):
            return False
        if self.variant != other.variant or self.sets != other.sets:
            return False
        if (self.alpha is None) != (other.alpha is None):
            return False
        return self.alpha is None or np.array_equal(self.alpha, other.alpha)


_NOMINAL = UncertaintyStructure(variant=Variant.NOMINAL)


class ParamKeys:
    """A model's imputed parameters in natural flattening order: a_ij or
    alpha_ij row by row, or gamma_i.  `rows` and `cols` give each
    parameter's forward row and column as index arrays (`cols` is None for
    the budgets), and `shape` the block the parameters lay out in
    (`block`): m x n, or m x 1 for the budgets."""

    def __init__(self, shape, rows, cols=None):
        self.shape, self.rows, self.cols = shape, rows, cols

    def block(self, values):
        """`values` over the parameters as the `shape` block, one row per
        constraint, 0 where a row has no parameter."""
        out = np.zeros(self.shape)
        out[self.rows, 0 if self.cols is None else self.cols] = values
        return out

    def places(self, rows, cols=None):
        """The places in the natural order of the parameters named by 0-based
        `rows` and `cols` (None for the budgets), by their codes i n + j (or
        i) among the parameters' own; None unless each is named once."""
        m, n = self.shape
        inside = (rows >= 0) & (rows < m)
        if cols is not None:
            inside &= (cols >= 0) & (cols < n)  # else a[i][n + 1] would read as a[i + 1][1]
        if rows.size != len(self) or not inside.all():
            return None
        codes = self.rows if self.cols is None else self.rows * n + self.cols
        named = rows if cols is None else rows * n + cols
        place = np.searchsorted(codes, named)
        found = np.array_equal(codes[np.minimum(place, len(self) - 1)], named)
        return place if found and np.unique(place).size == place.size else None

    def __len__(self):
        return self.rows.size


def param_keys(model, problem, structure):
    """Natural flattening order of the imputed parameters for a model."""
    m, n = problem.m, problem.n
    if model.family == "nlo":
        return ParamKeys((m, n), *np.divmod(np.arange(m * n), n))
    if model.family == "iu":
        return ParamKeys((m, n), *structure.entries)
    return ParamKeys((m, 1), np.arange(m))


@dataclass(frozen=True, eq=False)
class SideConstraints:
    """Polyhedron {z : G z <= h} over the flattened imputed parameters,
    G's columns in their natural order (`param_keys`).

    `entries` holds the (row, column) index arrays of G's nonzeros in
    row-major order, read once at construction.  The split that
    `canonicalize_omega` makes of the rows is derived from them then too,
    as far as it depends on omega alone: the tightest bound each row on a
    single parameter puts on it, whether an empty row has h < -1e-9, and
    the indices of the kept rows (two or more nonzeros) with their
    nonzeros' (row, column) pairs.  The kept rows themselves are not
    copied.  All of it is read-only, and right because G cannot change: a
    float array passed as G or h is frozen in place (made read-only, not
    copied), as the other constructors do.
    """

    G: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        h = np.asarray(self.h, dtype=float)
        if G.ndim != 2:
            raise DimensionError("omega.G", "must be a matrix")
        if h.ndim != 1 or h.size != G.shape[0]:
            raise DimensionError("omega.h", f"length {h.size} does not match {G.shape[0]} rows of G")
        _require_finite("omega.G", G)
        _require_finite("omega.h", h)
        object.__setattr__(self, "G", _freeze(G))
        object.__setattr__(self, "h", _freeze(h))
        rows, cols = np.divmod(np.flatnonzero(G != 0.0), max(G.shape[1], 1))  # flatnonzero(G) is far slower
        count = np.bincount(rows, minlength=h.size)
        single = np.flatnonzero(count == 1)
        col = cols[(np.cumsum(count) - count)[single]]  # the parameter of each single row's one nonzero
        g = G[single, col]
        bound = h[single] / g
        lower, upper = np.full(G.shape[1], -np.inf), np.full(G.shape[1], np.inf)
        np.minimum.at(upper, col[g > 0], bound[g > 0])
        np.maximum.at(lower, col[g < 0], bound[g < 0])
        kept = np.flatnonzero(count > 1)
        on_kept = (count > 1)[rows]
        kept_rows, kept_cols = rows[on_kept], cols[on_kept]
        for arr in (rows, cols, lower, upper, kept, kept_rows, kept_cols):
            arr.setflags(write=False)
        object.__setattr__(self, "entries", (rows, cols))
        object.__setattr__(self, "_bounds", (lower, upper))
        object.__setattr__(self, "_empty_infeasible", bool(np.any(h[count == 0] < -1e-9)))
        object.__setattr__(self, "_kept", kept)
        object.__setattr__(self, "_kept_entries", (kept_rows, kept_cols))

    @property
    def p(self):
        return self.G.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, SideConstraints)
            and np.array_equal(self.G, other.G)
            and np.array_equal(self.h, other.h)
        )


@dataclass(frozen=True)
class CanonicalOmega:
    """Side constraints split into per-parameter bounds plus coupled rows;
    `couples`: some coupled row ties parameters of different forward rows."""

    lower: np.ndarray
    upper: np.ndarray
    G: np.ndarray
    h: np.ndarray
    feasible: bool
    couples: bool


def canonicalize_omega(omega, keys, lower_floor=None, upper_cap=None):
    """Merge single-parameter rows of omega into bounds; keep the rest.

    `keys` is the model's `ParamKeys`.  lower_floor/upper_cap are
    model-intrinsic bounds (e.g. deviations >= 0, budgets within the
    per-row column count) merged in as well.  The split that depends on
    omega alone was made when omega was built (`SideConstraints`), so a
    call reads no nonzero of G: it merges the floor and the cap into
    omega's bounds in O(p), gathers the kept rows of G and tests whether a
    kept row couples on those rows' nonzeros alone.
    """
    p = len(keys)
    if omega is None:
        lo, hi, kept_rows, kept_h = np.full(p, -np.inf), np.full(p, np.inf), np.zeros((0, p)), np.zeros(0)
        infeasible = couples = False
    else:
        (lo, hi), (rows, cols) = omega._bounds, omega._kept_entries
        kept_rows, kept_h, infeasible = omega.G[omega._kept], omega.h[omega._kept], omega._empty_infeasible
        # a kept row couples when two of its consecutive nonzeros lie on different forward rows
        forward = keys.rows[cols]
        couples = bool(np.any((rows[1:] == rows[:-1]) & (forward[1:] != forward[:-1])))
    # the floor and cap go first, since a tie returns the first argument: a zero keeps the sign it has
    # when they are merged before omega's rows
    lo = lo.copy() if lower_floor is None else np.maximum(np.asarray(lower_floor, dtype=float), lo)
    hi = hi.copy() if upper_cap is None else np.minimum(np.asarray(upper_cap, dtype=float), hi)
    feasible = not (infeasible or np.any(lo > hi + 1e-9))
    return CanonicalOmega(lower=lo, upper=hi, G=kept_rows, h=kept_h, feasible=feasible, couples=couples)


@dataclass(frozen=True, eq=False)
class Prior:
    """Prior estimates of the imputed parameters with per-row weights.

    estimates is m x n (per-row vectors) for matrix/deviation recovery and
    length m for budget recovery.  Weights default to all ones.  A float
    array passed as estimates or xi is frozen in place (made read-only,
    not copied).
    """

    estimates: np.ndarray
    xi: np.ndarray = None
    norm: NormKind = NormKind.L2

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=float)
        _require_finite("prior.estimates", est)
        object.__setattr__(self, "estimates", _freeze(est))
        if self.xi is not None:
            xi = np.asarray(self.xi, dtype=float)
            if xi.ndim != 1:
                raise DimensionError("prior.xi", "must be a vector")
            _require_finite("prior.xi", xi)
            if np.any(xi < 0.0):
                raise DimensionError("prior.xi", "weights must be nonnegative")
            object.__setattr__(self, "xi", _freeze(xi))
        object.__setattr__(self, "norm", NormKind(self.norm))

    def weights(self, m):
        if self.xi is None:
            return np.ones(m)
        if self.xi.size != m:
            raise DimensionError("prior.xi", f"length {self.xi.size} != m = {m}")
        return np.asarray(self.xi, dtype=float)

    def __eq__(self, other):
        if not isinstance(other, Prior):
            return False
        if self.norm != other.norm:
            return False
        if not np.array_equal(self.estimates, other.estimates):
            return False
        a, b = self.xi, other.xi
        if a is None and b is None:
            return True
        if a is None:
            return bool(np.all(b == 1.0))
        if b is None:
            return bool(np.all(a == 1.0))
        return np.array_equal(a, b)


@dataclass(frozen=True)
class RhsEpsilon:
    """Perturb b[row] by delta before re-solving."""

    row: int
    delta: float
    note: str = ""


@dataclass(frozen=True)
class PriorEpsilon:
    """Perturb the prior estimate at (row, col) by delta; heuristic suggestion."""

    row: int
    col: int
    delta: float
    heuristic: bool = True
    note: str = ""


@dataclass(frozen=True)
class WeightBoost:
    """Set the weight of `row` to `weight` so another row becomes the active one."""

    row: int
    weight: float
    note: str = ""


@dataclass(frozen=True, eq=False)
class InverseSolution:
    """Result of one inverse solve.

    `active_index` is 1-based.  `duality_gap` is the minimized gap for the
    gap models and 0 for the strong-duality models; `objective_value` is
    the gap or the prior deviation respectively.  `per_constraint` holds
    the per-row diagnostics: t (objective with the row active) for the gap
    models, f and g (cost of making the row active, of keeping it
    feasible) for nlo-sd and rlo-ccu-sd, all three for rlo-iu-sd.
    """

    model: ModelKind
    status: Status
    imputed: np.ndarray = None
    cost: np.ndarray = None
    dual_pi: np.ndarray = None
    duality_gap: float = None
    active_index: int = None
    objective_value: float = None
    per_constraint: dict = field(default_factory=dict)
    remediations: tuple = ()
    message: str = None

    @classmethod
    def infeasible(cls, model, message):
        """The solution of an input no parameters can make optimal: the one
        way a solver reports an infeasible model."""
        return cls(model=model, status=Status.INFEASIBLE, message=message)


def block_shapes(model, m, n):
    """The shape of each block of a solution to an m x n problem: n costs,
    m duals, and the imputed m x n matrix, or m budgets for rlo-ccu."""
    return {"cost": (n,), "dual_pi": (m,), "imputed": (m,) if model.family == "ccu" else (m, n)}


def read_block(value, shape):
    """A solution block as a float array of `shape` (`block_shapes`), read
    one way for every caller: returns (array, None), or (None, reason)
    when the block is missing or not an array of numbers of that shape (a
    ragged nest has none).  A None entry reads as NaN."""
    if value is None:
        return None, "missing"
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return None, f"not an array of numbers of shape {shape}"
    if array.shape != shape:
        return None, f"shape {array.shape} is not {shape}"
    return array, None


def active_row(t, scale):
    """The active row: the lowest i with t_i <= t_j + ZERO_TOL * (1 + s_i + s_j),
    where j = argmin t and s = `scale`.

    `t` holds each row's objective with that row active (inf where it
    cannot be, and such a row is never picked), and `scale` the magnitude
    of the terms each t_i is computed from.  So rounding noise in near-equal
    t does not pick the row, whatever the data's scale, and a row far from
    active widens no other row's band.
    """
    j = int(np.argmin(t))
    return int(np.argmax(np.isfinite(t) & (t <= t[j] + ZERO_TOL * (1.0 + scale + scale[j]))))


def realized_row(variant, problem, structure, params, i, x, order=None):
    """Row i of the constraint as realized at x under `variant`'s
    uncertainty, with the model's parameters `params` (the matrix, the
    magnitudes or the budgets, one row or entry per constraint): the row
    itself for the nominal variant, and the row under full or budgeted
    deviation (a budget clamped into [0, |J_i|]) for the robust ones.  A
    budget row is realized from `order`, the ranking of every row by
    `geometry.ranked`, or from its own ranking when none is given."""
    params = np.asarray(params, dtype=float)
    if variant == Variant.NOMINAL:
        return params[i].copy()
    if variant == Variant.INTERVAL:
        return realized_row_interval(problem.A[i], params[i], structure.sets[i], x)
    cols = structure.sets[i]
    budget = np.array([min(max(float(params[i]), 0.0), float(len(cols)))])
    return budget_row(problem.A[i], structure.alpha[i], budget, cols, x, None if order is None else order[i : i + 1])


def row_solution(model, problem, structure, x, t, scale, imputed, per_constraint, order=None):
    """The one tail of every solver: make row i* = `active_row(t, scale)`
    active.  The imputed block is `imputed(i*)`, the cost vector row i* of
    it realized at the observation x (a budget model passes its ranking of
    every row as `order`), the dual the unit vector on i*, the objective
    t_i*, and the duality gap t_i* for the gap models and 0 under strong
    duality.  The status is trivial-detected when the cost vanishes, or for
    the nlo family when any imputed row does.
    """
    i_star = active_row(t, scale)
    block = imputed(i_star)
    cost = realized_row(model.variant, problem, structure, block, i_star, x, order)
    pi = (np.arange(problem.m) == i_star).astype(float)
    objective = float(t[i_star])
    rows = block if model.family == "nlo" else cost[None]
    trivial = bool(np.any(np.max(np.abs(rows), axis=1) <= ZERO_TOL))
    return InverseSolution(
        model=model,
        status=Status.TRIVIAL_DETECTED if trivial else Status.OPTIMAL,
        imputed=block,
        cost=cost,
        dual_pi=pi,
        duality_gap=0.0 if model.is_sd else objective,
        active_index=i_star + 1,
        objective_value=objective,
        per_constraint=per_constraint,
    )


def gap_solution(model, problem, structure, x, offset, values, imputed, order=None):
    """Solution of a gap model from each row's subproblem value:
    t_i = offset[i] + values[i] at scale |offset| + |values|, reported as
    `t`; `imputed` and `order` are as in `row_solution`."""
    t = offset + values
    return row_solution(model, problem, structure, x, t, np.abs(offset) + np.abs(values), imputed, {"t": t}, order)


def _descend(point, direction, c, target):
    """Each row of `point` moved along `direction`, along which c . z falls,
    until c . z is at most `target`."""
    excess = np.sum(c * point, axis=-1) - target
    step = np.divide(excess, -np.sum(c * direction, axis=-1), out=np.zeros_like(excess), where=excess > 0.0)
    return point + step[..., None] * direction


def knapsack_values(model, canon, keys, q, d, infeasible_message):
    """`gap_values` in closed form, when the side constraints `canon` keep
    at most one coupling row `g . z <= h` (g = 0 and h = 0 when they keep
    none).

    Row k's parameters z_k range over the box, and row k != i only has to
    stay feasible on the least of the coupling row it can use, u_k = min
    g_k . z_k (a `geometry.box_knapsack`).  That leaves row i the budget
    H_i = h - sum of the other u_k, and LP i's value is max(d_i, min q_i .
    z_i s.t. g_i . z_i <= H_i), one more knapsack: the set holds a point on
    each side of d_i when d_i binds, so it holds one on it.  The model is
    infeasible when some row's own knapsack falls short (its deficit is
    the `{infeasibility}`) or sum(u) > h (by sum(u) - h).

    In the block, rows k != i take their least-use point; a row whose least
    use is unbounded moves along its ray until it uses an equal share of
    what the others leave.  Row i takes its knapsack point, and where d_i
    binds, the point between it and its least-use point with q_i . z_i = d_i.
    """
    q, lower, upper = keys.block(q), keys.block(canon.lower), keys.block(canon.upper)
    g, h = (keys.block(canon.G[0]), float(canon.h[0])) if canon.G.shape[0] else (np.zeros_like(q), 0.0)
    least = box_knapsack(g, q, d, lower, upper)
    failing = least.shortfall > ZERO_TOL * (1.0 + np.abs(d))
    if failing.any():
        return InverseSolution.infeasible(
            model, infeasible_message.format(infeasibility=least.shortfall[np.argmax(failing)])
        )
    lost = least.value == -np.inf
    used = np.where(lost, 0.0, least.value)  # no -inf in the sums
    total = float(np.sum(used))
    if not lost.any() and total - h > ZERO_TOL * (1.0 + abs(h) + float(np.sum(np.abs(used)))):
        return InverseSolution.infeasible(model, infeasible_message.format(infeasibility=total - h))
    others = np.sum(np.where(np.eye(used.size, dtype=bool), 0.0, used), axis=1)  # sum over k != i
    budget = np.where(lost.sum() > lost, np.inf, h - others)
    best = box_knapsack(q, -g, -budget, lower, upper)

    def imputed(i):
        z = least.point.copy()
        own = _descend(least.point[i], least.ray[i], g[i], budget[i]) if lost[i] else least.point[i]
        if best.value[i] >= d[i]:
            z[i] = best.point[i]
        else:
            toward = best.ray[i] if best.value[i] == -np.inf else best.point[i] - own
            z[i] = _descend(own, toward, q[i], d[i])
        rest = lost & (np.arange(lost.size) != i)
        if rest.any():
            share = (h - float(g[i] @ z[i]) - others[i]) / rest.sum()
            z[rest] = _descend(least.point[rest], least.ray[rest], g[rest], share)
        return z

    return np.maximum(d, best.value), imputed


def gap_values(model, canon, keys, q, d, infeasible_message):
    """Each gap model's row values, the one place that decides how they are
    found.  LP i minimizes q_i . z_i subject to every row's own q_k . z_k >=
    d_k (none where d_k = -inf), the side constraints `canon` and their box,
    with `q` one coefficient per parameter and z_k row k's parameters.

    At most one coupling row left, the LPs are knapsacks in closed form
    (`knapsack_values`); with more, the m LPs share one `Constraints`, and
    so one equality form and one phase 1.  Returns (values, imputed) with
    imputed(i) LP i's point as a `keys.block`, or the model's infeasible
    solution with `infeasible_message` (which may cite the
    `{infeasibility}`).  An unbounded LP raises NumericalFailureError.
    """
    if canon.G.shape[0] <= 1:
        return knapsack_values(model, canon, keys, q, d, infeasible_message)
    loads = np.where(keys.rows == np.arange(d.size)[:, None], q, 0.0)  # loads[i] . z = q_i . z_i
    own = d > -np.inf
    constraints = Constraints(
        np.vstack([loads[own], canon.G]), (">=",) * int(own.sum()) + ("<=",) * canon.G.shape[0],
        np.concatenate([d[own], canon.h]), canon.lower, canon.upper,
    )
    outcomes = solve_lp_batch([LinearProgram(load, constraints) for load in loads])
    # LP i holds row i's own constraint or a box, which bounds its objective
    # below (nlo-dg: x . a_i >= b_i; rlo-iu-dg: |x_J| . alpha_i <= surplus_i;
    # rlo-ccu-dg: each budget within [0, |J_i|]), so in exact arithmetic no
    # gap LP is unbounded: an engine that says otherwise has failed numerically
    for i, out in enumerate(outcomes):
        if out.status == LpStatus.UNBOUNDED:
            raise NumericalFailureError(f"the gap LP of constraint {i + 1} reported unbounded")
        if out.status == LpStatus.INFEASIBLE:
            return InverseSolution.infeasible(model, infeasible_message.format(infeasibility=out.infeasibility))
    return np.array([out.value for out in outcomes]), lambda i: keys.block(outcomes[i].solution)


def sd_solution(model, problem, structure, x, f, fits, moved, prior, infeasible_message):
    """Solution of nlo-sd and rlo-iu-sd: `moved[i]` makes row i active at
    cost f_i (inf if no move does), and keeping row i costs g_i = 0 if its
    `prior` row `fits`, else f_i.  The row of least t = f + sum(g) - g is
    made active; it and the rows that do not fit move.  nlo-sd reports f
    and g, rlo-iu-sd t too.
    """
    g = np.where(fits, 0.0, f)
    if not np.all(np.isfinite(g)) or not np.any(np.isfinite(f)):
        return InverseSolution.infeasible(model, infeasible_message)
    t = f + np.sum(g) - g
    per_constraint = {"f": f, "g": g, "t": t} if model.family == "iu" else {"f": f, "g": g}
    return row_solution(
        model, problem, structure, x, t, f + np.sum(g),
        lambda i: np.where((fits & (np.arange(f.size) != i))[:, None], prior, moved), per_constraint,
    )


# Assumption checks.  Levels: "pass", "warn" (documented circumvention or
# not certifiable), "fail" (formally violated).

@dataclass(frozen=True)
class ValidationEntry:
    check: str
    level: str
    rows: tuple = ()
    message: str = ""


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple

    @property
    def ok(self):
        return not any(e.level == "fail" for e in self.entries)

    def level(self, check):
        worst = "pass"
        for e in self.entries:
            if e.check == check:
                if e.level == "fail":
                    return "fail"
                if e.level == "warn":
                    worst = "warn"
        return worst

    def failures(self):
        return tuple(e for e in self.entries if e.level == "fail")

    def warnings(self):
        return tuple(e for e in self.entries if e.level == "warn")


def check_inputs(model, problem, x_hat, structure, omega=None, prior=None):
    """Check one solve input and return the observation as a frozen vector.

    This is the whole rule for a valid (problem, x_hat, structure, omega |
    prior) tuple, and every public entry that takes one calls it: the
    observation is a finite vector with one entry per column of A, the
    robust families hold a structure of their variant (else
    PreconditionError) fitting the problem, omega covers the model's
    imputed parameters, and the prior has the model's shape (its weights
    one per row, a budget prior one entry per row, the others m x n with
    no negative magnitude on an uncertain column for rlo-iu-sd).  A
    strong-duality model needs a prior and takes no omega; a gap model
    takes no prior.  A wrong-shaped, missing or unused field raises
    DimensionError naming it, and so does an observation at which the rows
    the model builds on (A for the robust families, the prior for nlo-sd)
    have a surplus beyond the floats, or rlo-iu-sd's prior magnitudes a
    load |x_J| . alpha_i beyond them, naming x_hat.
    """
    x = np.array(x_hat, dtype=float)
    if x.ndim != 1:
        raise DimensionError("x_hat", "must be a vector")
    _require_finite("x_hat", x)
    if x.size != problem.n:
        raise DimensionError("x_hat", f"length {x.size} != n = {problem.n}")
    if model.family == "iu" and structure.variant != Variant.INTERVAL:
        raise PreconditionError("interval models need an interval structure")
    if model.family == "ccu" and structure.variant != Variant.CARDINALITY:
        raise PreconditionError("budget models need a cardinality structure")
    structure.check_against(problem)
    if omega is not None:
        # the count of `param_keys`: a_ij for every entry, alpha_ij on J_i, or one gamma_i per row
        m, n = problem.m, problem.n
        p = m * n if model.family == "nlo" else m if model.family == "ccu" else structure.entries[0].size
        if omega.p != p:
            raise DimensionError("omega.G", f"{omega.p} columns for {p} parameters")
    if prior is not None:
        if prior.xi is not None:  # the weights' length; absent, they are all ones
            prior.weights(problem.m)
        est = prior.estimates
        if model == ModelKind.RLO_CCU_SD:
            if est.ndim != 1 or est.size != problem.m:
                raise DimensionError("prior.estimates", f"budget prior must have length m = {problem.m}")
        elif model.is_sd:
            if est.shape != (problem.m, problem.n):
                raise DimensionError("prior.estimates", f"shape {est.shape} != ({problem.m}, {problem.n})")
            if model == ModelKind.RLO_IU_SD and (est < 0.0).any():
                # the first negative entry on an uncertain column, in row-major order, is reported
                negative = (est < 0.0) & structure.mask(problem.n)
                if negative.any():
                    i, j = divmod(int(np.argmax(negative)), problem.n)
                    raise DimensionError("prior.estimates", f"alpha[{i + 1}][{j + 1}] = {est[i, j]:g} is negative")
    if model.is_sd and prior is None:
        raise DimensionError("prior", f"required by model {model.value}")
    if model.is_sd and omega is not None:
        raise DimensionError("omega", f"not used by model {model.value}")
    if model.is_dg and prior is not None:
        raise DimensionError("prior", f"not used by model {model.value}")
    if model != ModelKind.NLO_DG:
        # the rows the model builds on at x: A for the robust families, the prior for nlo-sd
        name, rows = ("prior.estimates", prior.estimates) if model == ModelKind.NLO_SD else ("A", problem.A)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(rows @ x - problem.b)
        if not finite.all():
            raise DimensionError("x_hat", f"{name} x_hat - b overflows on constraint {int(np.argmin(finite)) + 1}")
    if model == ModelKind.RLO_IU_SD:
        # and rlo-iu-sd's prior load |x_J| . alpha_i, which bounds every sum of its terms the solver makes
        with np.errstate(over="ignore"):
            finite = np.isfinite(np.where(structure.mask(problem.n), prior.estimates, 0.0) @ np.abs(x))
        if not finite.all():
            raise DimensionError("x_hat", f"prior.estimates |x_hat| overflows on constraint {np.argmin(finite) + 1}")
    return _freeze(x)


def validate(problem, x_hat, structure, model, omega=None, prior=None):
    """Check dimensions (hard errors) and the model's standing assumptions.

    Returns per-assumption pass/warn/fail entries.  A zero right-hand side
    under strong duality is a warn, not an error: the solve still runs and
    trivial outputs are detected and remediated downstream.  The input is
    checked by `check_inputs`, so a strong-duality model without a prior
    raises, as its solver does.  Each assumption is one boolean test over
    the rows, and `flag` reports it.
    """
    model = ModelKind(model)
    x = check_inputs(model, problem, x_hat, structure, omega, prior)
    m, n, A, b = problem.m, problem.n, problem.A, problem.b
    mask = structure.mask(n)
    entries = []

    def flag(check, rows, message, level="fail"):
        """`level` on the rows set in the boolean vector `rows` (a scalar tests
        the whole input and lists no row), or one pass when none is set."""
        if not rows.any():
            entries.append(ValidationEntry(check, "pass"))
        else:
            listed = tuple((np.flatnonzero(rows) + 1).tolist()) if rows.ndim else ()
            entries.append(ValidationEntry(check, level, listed, message))

    if model == ModelKind.NLO_DG:
        canon = canonicalize_omega(omega, param_keys(model, problem, structure))
        if canon.couples:
            flag("A1", b <= 0,
                 "coupled side constraints: zero-row exclusion checked a-posteriori on the solution", "warn")
        else:
            # uncoupled: a side row on row i's parameters reads no other row, so a_i = 0 meets it iff h >= 0;
            # the parameters are ("a", i, j) in natural order
            within = (canon.G.reshape(-1, m, n) != 0.0).any(axis=2)
            zero_allowed = (
                (canon.lower.reshape(m, n) <= 1e-12).all(axis=1) & (canon.upper.reshape(m, n) >= -1e-12).all(axis=1)
                & ~(within & (canon.h < -1e-12)[:, None]).any(axis=0)
            )
            flag("A1", (b <= 0) & zero_allowed, "a zero row is admissible: b <= 0 and the side constraints allow it")

    if model == ModelKind.NLO_SD:
        flag("A2", b == 0.0, "zero right-hand side: trivial output possible; perturbation paths apply", "warn")
        zero_rows = ~(prior.estimates != 0.0).any(axis=1)
        if zero_rows.any():  # no pass entry: the pass above stands for A2
            flag("A2", zero_rows, "prior row is the zero vector")
        flag("A3", ~(x != 0.0).any(), "observed point is the zero vector")

    if model.family == "iu":
        flag("A4", ~mask.any(axis=1), "row has no uncertain coefficients")
        flag("A5", (b <= 0) & ~((A != 0.0) & ~mask).any(axis=1), "no certainly nonzero coefficient and b <= 0")
        if model == ModelKind.RLO_IU_SD:
            flag("A6", ~(mask & (x != 0.0)).any(), "every uncertain column is zero at the observed point")

    if model.family == "ccu":
        surplus = row_dots(A, x) - b  # as the budget solvers take it, for A7 and A8 alike
        violated = surplus < -1e-9
        flag("A7", violated, "observed point violates the nominal constraint")
        ambiguous = np.zeros(m, dtype=bool)
        if not violated.any():  # the activation budgets are read only at a nominally feasible point
            # a row's budgets can differ only when some product alpha_ij |x_j| on J_i is <= 1e-12
            # (`geometry.activation`), and each row is ranked on its own, so only those rows are ranked
            rows = np.flatnonzero((mask & (products(structure.alpha, mask, x) <= 1e-12)).any(axis=1))
            if rows.size:
                lower, upper = activation(surplus[rows], mask[rows], ranked(structure.alpha[rows], mask[rows], x)[1])
                ambiguous[rows] = lower < upper
        flag("A8", ambiguous, "a range of budgets activates this row; both endpoints are reported", "warn")
        if model == ModelKind.RLO_CCU_SD:
            est = prior.estimates
            flag("A9", (est < 0.0) | (est > mask.sum(axis=1)),
                 "budget prior outside [0, |J_i|]; clamped to the nearest endpoint", "warn")
            weighted = prior.weights(m) != 1.0
            if weighted.any():  # no pass entry
                flag("xi", weighted, "budget recovery ignores prior weights; all are taken as 1", "warn")
        # a coefficient stays nonzero under deviation: |a_ij| > alpha_ij on J_i, or a_ij != 0 off it
        flag("A10", ~np.where(mask, np.abs(A) > structure.alpha, A != 0.0).any(axis=1),
             "every coefficient can be deviated to zero")

    return ValidationReport(entries=tuple(entries))


def clamp_budget_prior(prior, structure):
    """Budget priors clamped into [0, |J_i|] per row (a warn, not an error)."""
    caps = np.bincount(structure.entries[0], minlength=len(structure.sets)).astype(float)
    est = np.asarray(prior.estimates, dtype=float)
    return np.minimum(np.maximum(est, 0.0), caps)
