"""Self-contained dense two-phase simplex.

Dantzig pricing with a fall-back to Bland's rule after a run of
degenerate pivots; fixed tie-breaking throughout, so identical inputs
give bit-identical outcomes.  Free variables are split into a
nonnegative pair; finite bounds are absorbed by shifting (or mirroring,
for upper-bound-only variables), with two-sided bounds adding one range
row.

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

    bounds is a sequence of (lower, upper) with None for absent; default
    is free variables.
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
            bounds = tuple((lo, hi) for lo, hi in self.bounds)
            if len(bounds) != obj.size:
                raise DimensionError("bounds", f"{len(bounds)} bound pairs for {obj.size} variables")
            for k, (lo, hi) in enumerate(bounds):
                if lo is not None and hi is not None and lo > hi + FEAS_TOL:
                    raise DimensionError("bounds", f"variable {k} has lower {lo} > upper {hi}")
            object.__setattr__(self, "bounds", bounds)

    @property
    def num_vars(self):
        return self.objective.size


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
    """Equality-form rewrite: columns for shifted/mirrored/split variables,
    then slack/surplus/artificial columns per row."""

    def __init__(self, lp):
        p = lp.num_vars
        bounds = lp.bounds if lp.bounds is not None else ((None, None),) * p
        # var k maps to std columns: ("shift", col, lo) x = lo + u
        #                            ("mirror", col, hi) x = hi - u
        #                            ("split", c+, c-)   x = u+ - u-
        self.var_map = []
        ncols = 0
        range_rows = []  # (col, cap) for two-sided bounds
        for k, (lo, hi) in enumerate(bounds):
            if lo is None and hi is None:
                self.var_map.append(("split", ncols, ncols + 1))
                ncols += 2
            elif lo is not None:
                self.var_map.append(("shift", ncols, float(lo)))
                if hi is not None:
                    range_rows.append((ncols, float(hi) - float(lo)))
                ncols += 1
            else:
                self.var_map.append(("mirror", ncols, float(hi)))
                ncols += 1

        rows = []
        rhs = []
        senses = []
        self.orig_row_pos = []  # (std row index, sign) per original row
        for r in lp.rows:
            coeffs = np.zeros(ncols)
            shift = 0.0
            for k in range(p):
                c = r.coeffs[k]
                if c == 0.0:
                    continue
                kind = self.var_map[k]
                if kind[0] == "split":
                    coeffs[kind[1]] += c
                    coeffs[kind[2]] -= c
                elif kind[0] == "shift":
                    coeffs[kind[1]] += c
                    shift += c * kind[2]
                else:
                    coeffs[kind[1]] -= c
                    shift += c * kind[2]
            b = r.rhs - shift
            sign = 1.0
            sense = r.sense
            if b < 0.0:
                coeffs, b, sign = -coeffs, -b, -1.0
                sense = {GE: LE, LE: GE, EQ: EQ}[sense]
            self.orig_row_pos.append((len(rows), sign))
            rows.append(coeffs)
            rhs.append(b)
            senses.append(sense)
        for col, cap in range_rows:
            coeffs = np.zeros(ncols)
            coeffs[col] = 1.0
            rows.append(coeffs)
            rhs.append(cap)
            senses.append(LE)

        m = len(rows)
        A = np.array(rows) if rows else np.zeros((0, ncols))
        extra = []
        self.basis = []
        self.artificial = []
        for i, sense in enumerate(senses):
            col = np.zeros(m)
            if sense == LE:
                col[i] = 1.0
                extra.append(col)
                self.basis.append(ncols + len(extra) - 1)
            elif sense == GE:
                col[i] = -1.0
                extra.append(col)
                art = np.zeros(m)
                art[i] = 1.0
                extra.append(art)
                self.basis.append(ncols + len(extra) - 1)
                self.artificial.append(ncols + len(extra) - 1)
            else:
                art = np.zeros(m)
                art[i] = 1.0
                extra.append(art)
                self.basis.append(ncols + len(extra) - 1)
                self.artificial.append(ncols + len(extra) - 1)
        self.A = np.hstack([A, np.array(extra).T]) if extra else A
        self.b = np.array(rhs)
        self.ncols_struct = ncols
        self.ncols = self.A.shape[1] if m else ncols
        self.m = m

        cost = np.zeros(self.ncols)
        shift = 0.0
        for k in range(p):
            c = lp.objective[k]
            if c == 0.0:
                continue
            kind = self.var_map[k]
            if kind[0] == "split":
                cost[kind[1]] += c
                cost[kind[2]] -= c
            elif kind[0] == "shift":
                cost[kind[1]] += c
                shift += c * kind[2]
            else:
                cost[kind[1]] -= c
                shift += c * kind[2]
        self.cost = cost
        self.cost_shift = shift

    def to_original(self, u):
        x = np.zeros(len(self.var_map))
        for k, kind in enumerate(self.var_map):
            if kind[0] == "split":
                x[k] = u[kind[1]] - u[kind[2]]
            elif kind[0] == "shift":
                x[k] = kind[2] + u[kind[1]]
            else:
                x[k] = kind[2] - u[kind[1]]
        return x

    def direction_to_original(self, d):
        x = np.zeros(len(self.var_map))
        for k, kind in enumerate(self.var_map):
            if kind[0] == "split":
                x[k] = d[kind[1]] - d[kind[2]]
            elif kind[0] == "shift":
                x[k] = d[kind[1]]
            else:
                x[k] = -d[kind[1]]
        return x


def _simplex(T, basis, cost, allowed, degen_limit):
    """Run simplex pivots on tableau T (m x n+1) in place.

    Returns ("optimal", None) or ("unbounded", entering column).
    """
    m = T.shape[0]
    degenerate = 0
    bland = False
    for _ in range(MAX_PIVOTS):
        cb = cost[basis]
        red = cost - cb @ T[:, :-1]
        candidates = [j for j in range(T.shape[1] - 1) if allowed[j] and red[j] < -OPT_TOL]
        if not candidates:
            return "optimal", None
        if bland or degenerate > degen_limit:
            bland = True
            candidates.sort()
        else:
            candidates.sort(key=lambda j: (red[j], j))
        entered = False
        for j in candidates:
            col = T[:, j]
            ratios = [
                (T[i, -1] / col[i], i)
                for i in range(m)
                if col[i] > RATIO_TOL and abs(col[i]) >= PIVOT_TOL
            ]
            if not ratios:
                if np.all(col <= RATIO_TOL):
                    return "unbounded", j
                continue  # only tiny pivots available in this column
            ratios.sort(key=lambda t: (t[0], t[1]))
            ratio, i = ratios[0]
            if ratio <= RATIO_TOL:
                degenerate += 1
            else:
                degenerate = 0
            piv = T[i, j]
            T[i, :] /= piv
            for r in range(m):
                if r != i and T[r, j] != 0.0:
                    T[r, :] -= T[r, j] * T[i, :]
            basis[i] = j
            entered = True
            break
        if not entered:
            raise NumericalFailureError("no admissible pivot above the magnitude floor")
    raise NumericalFailureError(f"simplex did not terminate within {MAX_PIVOTS} pivots")


def solve_lp(lp):
    """Solve one dense LP; deterministic for identical inputs."""
    bump("lp_solve")
    std = _Std(lp)
    m, ncols = std.m, std.ncols
    if m == 0:
        # No rows: optimum is at the bound corner unless a split/negative
        # direction makes the objective unbounded.
        x = std.to_original(np.zeros(std.ncols_struct))
        if np.any(std.cost < -OPT_TOL):
            j = int(np.argmin(std.cost))
            d = np.zeros(std.ncols_struct)
            d[j] = 1.0
            return LpOutcome(status=LpStatus.UNBOUNDED, ray=std.direction_to_original(d))
        return LpOutcome(
            status=LpStatus.OPTIMAL,
            solution=x,
            value=float(lp.objective @ x),
            dual=np.zeros(len(lp.rows)),
        )

    T = np.hstack([std.A, std.b.reshape(-1, 1)]).astype(float)
    basis = list(std.basis)
    kept_rows = list(range(m))
    degen_limit = 10 * (ncols + m)

    art_set = set(std.artificial)
    if art_set:
        cost1 = np.zeros(ncols)
        for j in std.artificial:
            cost1[j] = 1.0
        allowed = np.ones(ncols, dtype=bool)
        status, _ = _simplex(T, basis, cost1, allowed, degen_limit)
        if status != "optimal":
            raise NumericalFailureError("phase one reported unbounded")
        value1 = float(cost1[basis] @ T[:, -1])
        if value1 > FEAS_TOL * (1.0 + float(np.max(np.abs(std.b), initial=0.0))):
            return LpOutcome(status=LpStatus.INFEASIBLE, infeasibility=value1)
        # Drive leftover artificials out of the basis; all-zero rows are redundant.
        keep = np.ones(T.shape[0], dtype=bool)
        for i in range(T.shape[0]):
            if basis[i] in art_set:
                pivot_col = None
                for j in range(ncols):
                    if j not in art_set and abs(T[i, j]) >= PIVOT_TOL:
                        pivot_col = j
                        break
                if pivot_col is None:
                    keep[i] = False
                    continue
                piv = T[i, pivot_col]
                T[i, :] /= piv
                for r in range(T.shape[0]):
                    if r != i and T[r, pivot_col] != 0.0:
                        T[r, :] -= T[r, pivot_col] * T[i, :]
                basis[i] = pivot_col
        if not np.all(keep):
            T = T[keep]
            basis = [b for b, k in zip(basis, keep) if k]
            kept_rows = [r for r, k in zip(kept_rows, keep) if k]

    allowed = np.ones(ncols, dtype=bool)
    for j in std.artificial:
        allowed[j] = False
    status, enter = _simplex(T, basis, std.cost, allowed, degen_limit)
    if status == "unbounded":
        d = np.zeros(ncols)
        d[enter] = 1.0
        col = T[:, enter]
        for i, bcol in enumerate(basis):
            d[bcol] = -col[i]
        return LpOutcome(status=LpStatus.UNBOUNDED, ray=std.direction_to_original(d[: std.ncols_struct]))

    u = np.zeros(ncols)
    for i, bcol in enumerate(basis):
        u[bcol] = T[i, -1]
    x = std.to_original(u[: std.ncols_struct])
    value = float(lp.objective @ x)

    # Dual certificate on the equality form: y = B^{-T} c_B over the kept
    # rows; reduced costs must be nonnegative and vanish on the basis.
    kkt = {}
    dual = np.zeros(len(lp.rows))
    try:
        Akept = std.A[kept_rows]
        y_kept = np.linalg.solve(Akept[:, basis].T, std.cost[basis])
        y = np.zeros(std.m)
        y[kept_rows] = y_kept
        red = std.cost - y @ std.A
        struct_mask = np.ones(ncols, dtype=bool)
        for j in std.artificial:
            struct_mask[j] = False
        kkt["dual_feasibility"] = float(max(0.0, -float(np.min(red[struct_mask], initial=0.0))))
        kkt["basic_reduced"] = float(np.max(np.abs(red[basis]), initial=0.0))
        kkt["primal_equality"] = float(np.max(np.abs(Akept @ u - std.b[kept_rows]), initial=0.0))
        kkt["comp_slackness"] = float(np.max(np.abs(red * u), initial=0.0))
        kkt["strong_duality"] = abs(float(std.cost @ u) - float(y @ std.b))
        for r, (pos, sign) in enumerate(std.orig_row_pos):
            dual[r] = sign * y[pos]
    except np.linalg.LinAlgError:
        dual = None

    return LpOutcome(
        status=LpStatus.OPTIMAL,
        solution=x,
        value=value,
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
