"""Self-contained dense two-phase simplex.

Dantzig pricing with a fall-back to Bland's rule after a run of
degenerate pivots; fixed tie-breaking throughout, so identical inputs
give bit-identical outcomes.  The equality form comes from one column
map: a variable with a lower bound is shifted onto one nonnegative
column, one with only an upper bound is mirrored onto one, a free one is
split into a nonnegative pair, and a two-sided bound adds one range row.
The same map builds the rows and the cost and maps solutions and rays
back.  One pivot routine serves both phases and the drive-out of
artificial columns.

Tolerances: feasibility 1e-9, reduced cost 1e-9, pivot floor 1e-12.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionError, NumericalFailureError
from .instrument import bump

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-12
RATIO_TOL = 1e-10
MAX_PIVOTS = 10_000

GE, LE, EQ = ">=", "<=", "="
_SENSES = (GE, LE, EQ)
_FLIPPED = {GE: LE, LE: GE, EQ: EQ}


@dataclass(frozen=True)
class LpRow:
    coeffs: np.ndarray
    sense: str
    rhs: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "rhs", float(self.rhs))
        if self.sense not in _SENSES:
            raise DimensionError("sense", f"unknown row sense {self.sense!r}")
        if not np.all(np.isfinite(self.coeffs)) or not math.isfinite(self.rhs):
            raise DimensionError("rows", "row coefficients must be finite")


@dataclass(frozen=True)
class LinearProgram:
    """Minimize objective . x subject to the rows and per-variable bounds.

    bounds is a sequence of (lower, upper) with None (or -inf / +inf) for
    absent; default is free variables.  They are stored as floats or None.
    """

    objective: np.ndarray
    rows: tuple
    bounds: tuple = None

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        if obj.ndim != 1:
            raise DimensionError("objective", "must be a vector")
        if not np.all(np.isfinite(obj)):
            raise DimensionError("objective", "must be finite")
        object.__setattr__(self, "objective", obj)
        rows = tuple(r if isinstance(r, LpRow) else LpRow(*r) for r in self.rows)
        for k, r in enumerate(rows):
            if r.coeffs.shape != obj.shape:
                raise DimensionError("rows", f"row {k} has {r.coeffs.size} coefficients, expected {obj.size}")
        object.__setattr__(self, "rows", rows)
        if self.bounds is not None:
            bounds = tuple(self.bounds)
            if len(bounds) != obj.size:
                raise DimensionError("bounds", f"{len(bounds)} bound pairs for {obj.size} variables")
            object.__setattr__(self, "bounds", tuple(_bound_pair(k, lo, hi) for k, (lo, hi) in enumerate(bounds)))

    @property
    def num_vars(self):
        return self.objective.size


def _bound_pair(k, lo, hi):
    lo = -math.inf if lo is None else float(lo)
    hi = math.inf if hi is None else float(hi)
    if not (lo < math.inf and hi > -math.inf):
        raise DimensionError("bounds", f"variable {k} has bounds ({lo}, {hi}): NaN or an infinity on the wrong side")
    if lo > hi + FEAS_TOL:
        raise DimensionError("bounds", f"variable {k} has lower {lo} > upper {hi}")
    return (lo if lo > -math.inf else None), (hi if hi < math.inf else None)


class LpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    FAILED = "failed"


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    solution: np.ndarray = None
    value: float = None
    dual: np.ndarray = None
    infeasibility: float = None
    ray: np.ndarray = None
    kkt_residuals: dict = field(default_factory=dict)
    error: str = None


class _Std:
    """Equality form of an LP, built from one column map.

    Variable column c belongs to variable owner[c] with sign[c]: +1 for a
    shifted column and for u+, -1 for a mirrored column and for u-.
    offset[k] is variable k's lower bound (shifted), its upper bound
    (mirrored) or 0 (split), so x = offset + bincount(owner, sign * u).
    The LP's rows come first, negated where their shifted right-hand side
    is negative (row_sign), then one range row per two-sided bound.  The
    slack, surplus and artificial columns follow the variable columns in
    row order; `structural` marks every column but the artificials.
    """

    def __init__(self, lp):
        p = lp.num_vars
        bounds = lp.bounds if lp.bounds is not None else ((None, None),) * p
        owner, sign, range_col, range_cap = [], [], [], []
        self.offset = np.zeros(p)
        for k, (lo, hi) in enumerate(bounds):
            if lo is None and hi is None:
                owner += [k, k]
                sign += [1.0, -1.0]
                continue
            if hi is not None and lo is not None:
                range_col.append(len(owner))
                range_cap.append(hi - lo)
            owner.append(k)
            sign.append(1.0 if lo is not None else -1.0)
            self.offset[k] = lo if lo is not None else hi
        self.owner = np.array(owner, dtype=np.intp)
        self.sign = np.array(sign)
        nvar = self.owner.size

        R = np.array([r.coeffs for r in lp.rows]).reshape(len(lp.rows), p)
        # Summed left to right as a scalar loop would; a BLAS dot can change
        # the last bits of b and with them the pivots.
        shift = np.add.accumulate(R * self.offset, axis=1)[:, -1] if p else 0.0
        b = np.array([r.rhs for r in lp.rows]) - shift
        self.row_sign = np.where(b < 0.0, -1.0, 1.0)
        senses = [_FLIPPED[r.sense] if s < 0.0 else r.sense for r, s in zip(lp.rows, self.row_sign)]
        senses += [LE] * len(range_col)

        extra_row, extra_val, self.basis = [], [], []
        for i, sense in enumerate(senses):
            if sense == GE:
                extra_row.append(i)  # surplus
                extra_val.append(-1.0)
            self.basis.append(nvar + len(extra_row))
            extra_row.append(i)  # slack for <=, artificial for >= and =
            extra_val.append(1.0)
        self.m = len(senses)
        self.ncols = nvar + len(extra_row)
        # BLAS sums in an order that depends on the memory layout, so the
        # layout is part of every outcome: column-major for a single
        # variable column, row-major otherwise.
        self.A = np.zeros((self.m, self.ncols), order="F" if nvar == 1 else "C")
        self.A[: len(R), :nvar] = R[:, self.owner] * self.sign * self.row_sign[:, None]
        self.A[len(R) + np.arange(len(range_col)), range_col] = 1.0
        self.A[extra_row, np.arange(nvar, self.ncols)] = extra_val
        self.b = np.concatenate([b * self.row_sign, range_cap])
        self.structural = np.ones(self.ncols, dtype=bool)
        self.structural[[j for j, s in zip(self.basis, senses) if s != LE]] = False
        self.cost = np.zeros(self.ncols)
        self.cost[:nvar] = lp.objective[self.owner] * self.sign

    def direction_to_original(self, d):
        return np.bincount(self.owner, self.sign * d[: self.owner.size], minlength=self.offset.size)

    def to_original(self, u):
        return self.offset + self.direction_to_original(u)


def _pivot(T, i, j):
    """Make column j basic in row i: scale row i, then eliminate column j
    from every other row where it is nonzero."""
    T[i] /= T[i, j]
    rows = T[:, j].nonzero()[0]
    rows = rows[rows != i]
    T[rows] -= T[rows, j, None] * T[i]


def _simplex(T, basis, cost, allowed, degen_limit):
    """Run simplex pivots on tableau T (m x n+1) in place, entering only
    allowed columns.

    Returns ("optimal", None) or ("unbounded", entering column).
    """
    degenerate = 0
    bland = False
    for _ in range(MAX_PIVOTS):
        red = (cost - cost[basis] @ T[:, :-1]).tolist()
        candidates = [j for j, r in enumerate(red) if r < -OPT_TOL and allowed[j]]
        if not candidates:
            return "optimal", None
        if bland or degenerate > degen_limit:
            bland = True
            j = candidates[0]
        else:
            j = min(candidates, key=lambda j: (red[j], j))
        rhs = T[:, -1].tolist()
        ratios = [(rhs[i] / c, i) for i, c in enumerate(T[:, j].tolist()) if c > RATIO_TOL]
        if not ratios:
            return "unbounded", j
        ratio, i = min(ratios)
        degenerate = degenerate + 1 if ratio <= RATIO_TOL else 0
        _pivot(T, i, j)
        basis[i] = j
    raise NumericalFailureError(f"simplex did not terminate within {MAX_PIVOTS} pivots")


def solve_lp(lp):
    """Solve one dense LP; deterministic for identical inputs."""
    bump("lp_solve")
    std = _Std(lp)
    T = np.hstack([std.A, std.b.reshape(-1, 1)])
    basis = list(std.basis)
    kept = np.arange(std.m)
    degen_limit = 10 * (std.ncols + std.m)

    cost1 = (~std.structural).astype(float)
    if cost1.any():
        status, _ = _simplex(T, basis, cost1, np.ones(std.ncols, dtype=bool), degen_limit)
        if status != "optimal":
            raise NumericalFailureError("phase one reported unbounded")
        value1 = float(cost1[basis] @ T[:, -1])
        if value1 > FEAS_TOL * (1.0 + float(np.max(np.abs(std.b), initial=0.0))):
            return LpOutcome(status=LpStatus.INFEASIBLE, infeasibility=value1)
        # Drive leftover artificials out of the basis; all-zero rows are redundant.
        keep = np.ones(std.m, dtype=bool)
        for i in range(std.m):
            if not std.structural[basis[i]]:
                cols = np.flatnonzero(std.structural & (np.abs(T[i, :-1]) >= PIVOT_TOL))
                if cols.size:
                    _pivot(T, i, cols[0])
                    basis[i] = int(cols[0])
                else:
                    keep[i] = False
        if not keep.all():
            T, kept = T[keep], kept[keep]
            basis = [j for j, k in zip(basis, keep) if k]

    status, enter = _simplex(T, basis, std.cost, std.structural, degen_limit)
    if status == "unbounded":
        d = np.zeros(std.ncols)
        d[enter] = 1.0
        d[basis] = -T[:, enter]
        return LpOutcome(status=LpStatus.UNBOUNDED, ray=std.direction_to_original(d))

    u = np.zeros(std.ncols)
    u[basis] = T[:, -1]
    x = std.to_original(u)

    # Dual certificate on the equality form: y = B^{-T} c_B over the kept
    # rows; reduced costs must be nonnegative and vanish on the basis.
    kkt = {}
    try:
        Akept = std.A[kept]
        y = np.zeros(std.m)
        y[kept] = np.linalg.solve(Akept[:, basis].T, std.cost[basis])
        red = std.cost - y @ std.A
        kkt = {
            "dual_feasibility": max(0.0, -float(np.min(red[std.structural], initial=0.0))),
            "basic_reduced": float(np.max(np.abs(red[basis]), initial=0.0)),
            "primal_equality": float(np.max(np.abs(Akept @ u - std.b[kept]), initial=0.0)),
            "comp_slackness": float(np.max(np.abs(red * u), initial=0.0)),
            "strong_duality": abs(float(std.cost @ u) - float(y @ std.b)),
        }
        dual = std.row_sign * y[: len(lp.rows)]
    except np.linalg.LinAlgError:
        dual = None

    return LpOutcome(
        status=LpStatus.OPTIMAL,
        solution=x,
        value=float(lp.objective @ x),
        dual=dual,
        kkt_residuals=kkt,
    )


def _solve_guarded(lp):
    try:
        return solve_lp(lp)
    except NumericalFailureError as exc:
        return LpOutcome(status=LpStatus.FAILED, error=str(exc))


def solve_lp_batch(lps):
    """Solve a list of LPs, outcomes in input order; one failure never aborts the rest."""
    return [_solve_guarded(lp) for lp in lps]
