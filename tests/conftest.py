import itertools
import sys
from collections import Counter

import numpy as np
import pytest

from io_recover import geometry
from io_recover import lp as lp_mod

_acceptance_lines = []


def assert_same_bits(ours, theirs):
    """Two arrays of one dtype and shape holding the same bytes: -0.0 is not 0.0."""
    assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
    assert ours.tobytes() == theirs.tobytes()


def record_acceptance(line):
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.line(line)


@pytest.fixture
def calls(monkeypatch):
    """Counts of the LPs solved ("lp_solve"), of the activation-budget
    rankings ("activation_budgets") and of the rows whose products are
    ranked ("ranked_rows") made through the library during the test.

    solve_lp_batch (one count per LP in the batch), through which every
    solver solves its LPs, geometry.activation (one count per call,
    whatever its row count), through which geometry.activation_budgets,
    validate and the budget solvers compute activation budgets, and
    geometry.ranked (one count per row handed to it), through which every
    budget share, protection and activation budget is ranked, are wrapped
    wherever a loaded io_recover module binds them, so the names the
    solver modules import, and geometry's own calls, are counted too.
    `calls.clear()` starts the counts again.
    """
    counts = Counter()

    def counting(fn, key, size):
        def wrapper(*args, **kwargs):
            counts[key] += size(args[0])
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {
        id(lp_mod.solve_lp_batch): counting(lp_mod.solve_lp_batch, "lp_solve", len),
        id(geometry.activation): counting(geometry.activation, "activation_budgets", lambda surplus: 1),
        id(geometry.ranked): counting(geometry.ranked, "ranked_rows", len),
    }
    for key, mod in list(sys.modules.items()):
        if key == "io_recover" or key.startswith("io_recover."):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[id(value)])
    return counts


@pytest.fixture
def std_builds(monkeypatch):
    """The Constraints the engine builds an equality form (lp._Std) from, in order."""
    built = []
    real = lp_mod._Std

    def counting(constraints):
        built.append(constraints)
        return real(constraints)

    monkeypatch.setattr(lp_mod, "_Std", counting)
    return built


def ragged(block):
    """`block` as nested lists with its second entry cut to one item (a row)
    or doubled (a budget): a nest of no shape, as [[1, 2], [3], [1, 1]]."""
    rows = np.asarray(block).tolist()
    rows[1] = rows[1][:1] if isinstance(rows[1], list) else [rows[1], rows[1]]
    return rows


def holding_none(block):
    """`block` as nested lists with None as its first entry."""
    rows = np.asarray(block).astype(object)
    rows.flat[0] = None
    return rows.tolist()


def knapsack_continuous(values, capacity):
    """Greedy fractional fill of items in descending value order.

    Returns (phi, total) with phi in input order, each in [0, 1],
    sum(phi) <= capacity, and total = values . phi maximal: the reference
    for a row's protected loss at a given budget.
    """
    values = np.asarray(values, dtype=float)
    if capacity < 0.0:
        raise ValueError("knapsack capacity must be nonnegative")
    order = sorted(range(values.size), key=lambda k: (-values[k], k))
    phi = np.zeros(values.size, dtype=float)
    remaining = float(capacity)
    for k in order:
        if remaining <= 0.0:
            break
        take = min(1.0, remaining)
        phi[k] = take
        remaining -= take
    return phi, float(values @ phi)


def laid_out(a, layout):
    """`a` in C order ("C"), in Fortran order ("F"), or as a view striding
    through a larger array ("strided")."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    big = np.zeros((2 * a.shape[0], 3 * a.shape[1]), dtype=a.dtype)
    big[::2, ::3] = a
    return big[::2, ::3]


def knapsack_protection(alpha_i, budget, cols, x):
    """One row's protection at `budget`, the reference for geometry.protection:
    the knapsack of its products alpha_ij |x_j| over the columns `cols`."""
    alpha_i, x = np.asarray(alpha_i, dtype=float), np.asarray(x, dtype=float)
    return knapsack_continuous([alpha_i[j] * abs(x[j]) for j in cols], budget)[1]


def vertex_enumeration_min(objective, rows):
    """Independent LP oracle: scan all basic solutions of the row system.

    rows: list of (coeffs, sense, rhs) covering every constraint, including
    any box rows; variables are otherwise free, so the feasible set must be
    a polytope for the result to be meaningful.  Returns (value, point) or
    (None, None) when no feasible basic solution exists.
    """
    objective = np.asarray(objective, dtype=float)
    n = objective.size
    mats = [np.asarray(c, dtype=float) for c, _, _ in rows]
    best = None
    best_x = None
    for combo in itertools.combinations(range(len(rows)), n):
        A = np.vstack([mats[k] for k in combo])
        rhs = np.array([rows[k][2] for k in combo], dtype=float)
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, rhs)
        feasible = True
        for coeffs, sense, r in rows:
            val = float(np.asarray(coeffs) @ x)
            if sense == ">=" and val < r - 1e-8:
                feasible = False
            elif sense == "<=" and val > r + 1e-8:
                feasible = False
            elif sense == "=" and abs(val - r) > 1e-8:
                feasible = False
            if not feasible:
                break
        if not feasible:
            continue
        value = float(objective @ x)
        if best is None or value < best - 1e-12:
            best = value
            best_x = x
    return best, best_x
