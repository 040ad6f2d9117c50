"""Self-contained dense two-phase simplex.

Dantzig pricing with a fall-back to Bland's rule after a run of
degenerate pivots; fixed tie-breaking throughout, so identical inputs
give bit-identical outcomes.  The equality form comes from one column
map: a variable with a lower bound is shifted onto one nonnegative
column, one with only an upper bound is mirrored onto one, and a free
one is split into a nonnegative pair.  The same map builds the rows and
the cost and maps solutions back.  A two-sided bound adds no row: it
caps its column, and the ratio test keeps the cap (the upper-bounding
technique; Dantzig, Econometrica 1955; Chvatal, Linear Programming,
ch. 8).  A nonbasic column at its cap is complemented (u' = cap - u), so
every nonbasic column sits at 0 and one pivot routine serves both phases
and the drive-out of artificial columns.

Phase 1 and the drive-out never read the objective, so LPs that share
one `Constraints` object share a start: a batch runs them once per run
of consecutive LPs over that object, and each LP's phase 2 starts from a
copy of that tableau (reoptimization after an objective change).

Tolerances: feasibility 1e-9, reduced cost 1e-9, pivot floor 1e-12.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, NumericalFailureError

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-12
RATIO_TOL = 1e-10
MAX_PIVOTS = 10_000

GE, LE, EQ = ">=", "<=", "="
_SENSES = (GE, LE, EQ)
_FLIPPED = {GE: LE, LE: GE, EQ: EQ}


@dataclass(frozen=True, eq=False)
class Constraints:
    """The feasible set of an LP: A x (sense) rhs and lower <= x <= upper.

    A is k x p (k may be 0) and sense holds one of ">=", "<=", "=" per
    row.  lower and upper are length-p vectors in which -inf / +inf mean
    absent; None stands for a vector of them.  LPs that hold the same
    object share one start in `solve_lp_batch`, so its arrays must not
    change once it is built.
    """

    A: np.ndarray
    sense: tuple
    rhs: np.ndarray
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2:
            raise DimensionError("A", f"must be a k x p matrix, got shape {A.shape}")
        k, p = A.shape
        lower = np.full(p, -np.inf) if self.lower is None else np.asarray(self.lower, dtype=float)
        upper = np.full(p, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float)
        rhs, sense = np.asarray(self.rhs, dtype=float), tuple(self.sense)
        for name, value in (("A", A), ("sense", sense), ("rhs", rhs), ("lower", lower), ("upper", upper)):
            object.__setattr__(self, name, value)
        if len(sense) != k or not set(sense) <= set(_SENSES):
            raise DimensionError("sense", f"needs one of {_SENSES} for each of {k} rows, got {sense!r}")
        if rhs.shape != (k,) or not (np.isfinite(A).all() and np.isfinite(rhs).all()):
            raise DimensionError("rows", f"needs finite coefficients and {k} finite right-hand sides")
        if lower.shape != (p,) or upper.shape != (p,):
            raise DimensionError("bounds", f"needs {p} lower and {p} upper bounds")
        ok = (lower < np.inf) & (upper > -np.inf) & (lower <= upper + FEAS_TOL)
        if not ok.all():
            j = int(ok.argmin())
            reason = "crossed, NaN or an infinity on the wrong side"
            raise DimensionError("bounds", f"variable {j} has bounds ({lower[j]}, {upper[j]}): {reason}")

    @property
    def num_vars(self):
        return self.A.shape[1]


@dataclass(frozen=True)
class LinearProgram:
    """Minimize objective . x over a feasible set (`Constraints`)."""

    objective: np.ndarray
    constraints: Constraints

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        if obj.shape != (self.constraints.num_vars,):
            raise DimensionError("objective", f"must be a vector of {self.constraints.num_vars} coefficients")
        if not np.isfinite(obj).all():
            raise DimensionError("objective", "must be finite")
        object.__setattr__(self, "objective", obj)

    @property
    def num_vars(self):
        return self.objective.size


class LpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    solution: np.ndarray = None
    value: float = None
    infeasibility: float = None


class _Std:
    """Equality form of an LP, built from one column map.

    Variable column c belongs to variable owner[c] with sign[c]: +1 for a
    shifted column and for u+, -1 for a mirrored column and for u-.
    offset[k] is variable k's lower bound (shifted), its upper bound
    (mirrored) or 0 (split), so x = offset + bincount(owner, sign * u).
    cap[c] is hi - lo for the column of a two-sided variable and inf for
    every other column.  The rows are the LP's, negated where their
    shifted right-hand side is negative.  The slack, surplus and
    artificial columns follow the variable columns in row order;
    `structural` marks every column but the artificials.  The initial
    basis (one slack or artificial per row) is a +1 identity.  The form
    reads no objective, so it serves every LP over the same constraints;
    `cost` maps each LP's objective onto its columns.
    """

    def __init__(self, cons):
        p = cons.num_vars
        owner, sign, offset, cap = [], [], [], []
        for k, (lo, hi) in enumerate(zip(cons.lower.tolist(), cons.upper.tolist())):
            if lo == -math.inf and hi == math.inf:
                owner += [k, k]
                sign += [1.0, -1.0]
                cap += [math.inf, math.inf]
                offset.append(0.0)
                continue
            owner.append(k)
            sign.append(1.0 if lo > -math.inf else -1.0)
            offset.append(lo if lo > -math.inf else hi)
            cap.append(hi - lo)  # inf unless both bounds are finite
        self.owner = np.array(owner, dtype=np.intp)
        self.sign = np.array(sign)
        self.offset = np.array(offset)
        nvar = self.owner.size

        R = cons.A
        # Summed left to right as a scalar loop would; a BLAS dot can change
        # the last bits of b and with them the pivots.
        shift = np.add.accumulate(R * self.offset, axis=1)[:, -1] if p else 0.0
        b = cons.rhs - shift
        row_sign = np.where(b < 0.0, -1.0, 1.0)
        senses = [_FLIPPED[sense] if s < 0.0 else sense for sense, s in zip(cons.sense, row_sign)]

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
        self.A = np.zeros((self.m, self.ncols))
        self.A[:, :nvar] = R[:, self.owner] * self.sign * row_sign[:, None]
        self.A[extra_row, np.arange(nvar, self.ncols)] = extra_val
        self.b = b * row_sign
        self.cap = np.full(self.ncols, np.inf)
        self.cap[:nvar] = cap
        self.structural = np.ones(self.ncols, dtype=bool)
        self.structural[[j for j, s in zip(self.basis, senses) if s != LE]] = False
        self.barred = np.where(self.structural, 0.0, np.inf)  # phase 2 enters no artificial

    def cost(self, objective):
        """The cost vector of the equality form for an objective over x."""
        cost = np.zeros(self.ncols)
        cost[: self.owner.size] = objective[self.owner] * self.sign
        return cost

    def to_original(self, u):
        x = np.bincount(self.owner, self.sign * u[: self.owner.size], minlength=self.offset.size)
        return self.offset + x


def _pivot(T, i, j):
    """Make column j basic in row i: scale row i, then eliminate column j
    from every other row where it is nonzero."""
    T[i] /= T[i, j]
    rows = T[:, j].nonzero()[0]
    rows = rows[rows != i]
    T[rows] -= T[rows, j, None] * T[i]


def _complement(T, j, cap):
    """Replace column j's variable u by cap - u: the right-hand side moves
    by cap times the column, and the column changes sign."""
    T[:, -1] -= cap * T[:, j]
    T[:, j] *= -1.0


def _simplex(T, basis, cost, flip, cap, barred, degen_limit):
    """Run simplex steps on tableau T (m x n+1) in place; `barred` is inf
    on the columns that may not enter and 0 elsewhere.

    Every nonbasic column sits at 0: flip marks the complemented columns,
    whose cost is negated in `cost`.  The entering column moves until a
    basic variable falls to 0, a basic variable rises to its cap (it leaves
    and is complemented) or it reaches its own cap (it is complemented, a
    bound flip with no pivot); on a tie the lowest row pivots, and a flip
    comes after every row.  Returns "optimal" or "unbounded".
    """
    if not cost.size:
        return "optimal"  # no column to enter
    degenerate = 0
    bland = False
    m = len(basis)
    caps = cap.tolist()
    for _ in range(MAX_PIVOTS):
        red = cost - cost[basis] @ T[:, :-1] + barred
        j = int(red.argmin())  # the most negative, the lowest column on a tie
        if red[j] >= -OPT_TOL:
            return "optimal"
        if bland or degenerate > degen_limit:
            bland = True
            j = int((red < -OPT_TOL).argmax())  # the lowest column that improves
        step, i, at_cap = math.inf, m, False
        for r, (a, value, k) in enumerate(zip(T[:, j].tolist(), T[:, -1].tolist(), basis)):
            if a > RATIO_TOL:
                ratio, rises = value / a, False
            elif a < -RATIO_TOL and caps[k] < math.inf:
                ratio, rises = (caps[k] - value) / -a, True
            else:
                continue
            if ratio < step:
                step, i, at_cap = ratio, r, rises
        if caps[j] < step:
            step, i = caps[j], m
        if step == math.inf:
            return "unbounded"
        degenerate = degenerate + 1 if step <= RATIO_TOL else 0
        if i == m:
            leaving = j
        else:
            leaving = basis[i]
            _pivot(T, i, j)
            basis[i] = j
            if not at_cap:
                continue
        _complement(T, leaving, caps[leaving])
        flip[leaving] = not flip[leaving]
        cost[leaving] = -cost[leaving]
    raise NumericalFailureError(f"simplex did not terminate within {MAX_PIVOTS} pivots")


class _Start:
    """The objective-free start of a solve, shared by every LP over the
    same constraints: the equality form, phase 1 and the drive-out of
    leftover artificials.  The tableau T has one row per LP row (fewer
    once the drive-out drops redundant ones), and flip marks the columns
    phase 1 left complemented at their caps.  The artificial columns stay
    in T: phase 2 never enters them, and dropping them gives the same
    outcomes, but gathering the kept columns once per start costs what the
    smaller phase 2 saves.
    """

    def __init__(self, constraints):
        std = self.std = _Std(constraints)
        T = np.hstack([std.A, std.b.reshape(-1, 1)])
        basis = list(std.basis)
        flip = np.zeros(std.ncols, dtype=bool)
        self.degen_limit = min(10 * (std.ncols + std.m), MAX_PIVOTS // 2)  # Bland gets pivots to run
        self.infeasibility = None

        cost1 = (~std.structural).astype(float)
        if cost1.any():
            if _simplex(T, basis, cost1, flip, std.cap, np.zeros(std.ncols), self.degen_limit) != "optimal":
                raise NumericalFailureError("phase one reported unbounded")
            value1 = float(cost1[basis] @ T[:, -1])
            # scaled by the rows phase 1 must satisfy: a slack row's bound loosens no other row's test
            artificial = ~std.structural[std.basis]
            if value1 > FEAS_TOL * (1.0 + float(np.max(np.abs(std.b[artificial]), initial=0.0))):
                self.infeasibility = value1
                return
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
                T = T[keep]
                basis = [j for j, k in zip(basis, keep) if k]
        self.T, self.basis, self.flip = T, basis, flip


def _phase_two(start, lp):
    """Solve lp, whose constraints are those start was built from."""
    if start.infeasibility is not None:
        return LpOutcome(status=LpStatus.INFEASIBLE, infeasibility=start.infeasibility)
    std = start.std
    flip = start.flip.copy()
    cost = std.cost(lp.objective)
    np.negative(cost, out=cost, where=flip)
    T = start.T.copy()
    basis = list(start.basis)
    if _simplex(T, basis, cost, flip, std.cap, std.barred, start.degen_limit) == "unbounded":
        return LpOutcome(status=LpStatus.UNBOUNDED)
    u = np.zeros(std.ncols)
    u[basis] = T[:, -1]
    x = std.to_original(np.where(flip, std.cap - u, u))  # complemented columns back to u
    return LpOutcome(status=LpStatus.OPTIMAL, solution=x, value=float(lp.objective @ x))


def solve_lp(lp):
    """Solve one dense LP; deterministic for identical inputs."""
    return _phase_two(_Start(lp.constraints), lp)


def solve_lp_batch(lps):
    """Solve a list of LPs, outcomes in input order.

    Each run of consecutive LPs that hold the same `Constraints` object
    shares one start (equality form, phase 1, drive-out).  A numerical
    failure raises NumericalFailureError and ends the batch.
    """
    outcomes, shared = [], None
    for lp in lps:
        if lp.constraints is not shared:
            shared = lp.constraints
            start = _Start(shared)
        outcomes.append(_phase_two(start, lp))
    return outcomes
