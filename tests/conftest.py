import itertools

import numpy as np
import pytest

from io_recover import instrument
from io_recover import lp as lp_mod

_acceptance_lines = []


def record_acceptance(line):
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.line(line)


@pytest.fixture(autouse=True)
def _reset_counters():
    instrument.reset_counters()
    yield


@pytest.fixture
def std_builds(monkeypatch):
    """The LPs the engine builds an equality form (lp._Std) from, in order."""
    built = []
    real = lp_mod._Std

    def counting(lp):
        built.append(lp)
        return real(lp)

    monkeypatch.setattr(lp_mod, "_Std", counting)
    return built


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
