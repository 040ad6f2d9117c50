"""Built-in demonstration instances with known solutions.

Eight cases, one per solver behavior worth demonstrating: gap and
strong-duality recovery of the constraint matrix (1, 2), of interval
magnitudes (3, 4), of deviation budgets (5, 6), and the trivial-output
escape paths (7, 8).  Each instance is a problem document shipped with
the package, examples/example<number>.json.  Each case carries the
checks the demo command asserts; values marked as 2-decimal are compared
at printed precision, the rest at 1e-6.
"""

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import solve
from .cardinality import compute_gamma_bounds
from .model import PriorEpsilon, RhsEpsilon, WeightBoost
from .nominal import perturb_and_resolve
from .problem_io import parse_problem

DERIVED_TOL = 1e-6
PRINTED_TOL = 5e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    computed: object
    expected: object
    tol: float
    ok: bool


TITLES = {
    1: "matrix recovery, minimum duality gap",
    2: "matrix recovery, strong duality (euclidean prior)",
    3: "interval magnitudes, minimum duality gap",
    4: "interval magnitudes, strong duality (l1 prior)",
    5: "deviation budgets, minimum duality gap",
    6: "deviation budgets, strong duality (l1 prior)",
    7: "trivial cost vector escape (zero right-hand side)",
    8: "trivialized constraint escape (infeasible prior row)",
}


def example_case(number):
    """The ProblemBundle of demo case `number`, parsed from the package's examples/example<number>.json."""
    if number not in TITLES:
        raise KeyError(f"no demo example {number}; choose 1..8")
    text = resources.files(__package__).joinpath("examples", f"example{number}.json").read_text("utf-8")
    return parse_problem(json.loads(text))


def all_examples():
    return tuple(example_case(n) for n in sorted(TITLES))


def solve_case(case):
    return solve(
        case.model,
        case.problem,
        case.x_hat,
        structure=case.structure,
        omega=case.omega,
        prior=case.prior,
    )


def _close(computed, expected, tol):
    return bool(np.all(np.abs(np.asarray(computed, dtype=float) - np.asarray(expected, dtype=float)) <= tol))


def _check(name, computed, expected, tol=DERIVED_TOL):
    if isinstance(expected, str):
        ok = str(computed) == expected
    else:
        ok = _close(computed, expected, tol)
    return CheckResult(name=name, computed=computed, expected=expected, tol=tol, ok=ok)


def evaluate_example(number):
    """Solve one demo case and compare every reported quantity to its known value."""
    case = example_case(number)
    solution = solve_case(case)
    checks = []
    add = checks.append
    n = number

    if n == 1:
        add(_check("t", solution.per_constraint["t"], (3.0, 18.0, 2.0)))
        add(_check("active constraint", solution.active_index, 3, 0))
        add(_check("duality gap", solution.duality_gap, 2.0))
        add(_check("cost vector", solution.cost, (-2.0, -2.0)))
        add(_check("imputed rows", solution.imputed, ((1.0, 0.0), (0.0, 2.0), (-2.0, -2.0))))
    elif n == 2:
        f = solution.per_constraint["f"]
        add(_check("f (2 dp)", f, (0.63, 1.90, 1.26), PRINTED_TOL))
        add(_check("f", f, (0.6324555320336759, 1.8973665961010275, 1.2649110640673518)))
        add(_check("active constraint", solution.active_index, 1, 0))
        add(_check("active row", solution.imputed[0], (1.2, -0.6)))
        add(_check("active row residual", float(solution.imputed[0] @ case.x_hat) - case.problem.b[0], 0.0, 1e-9))
        add(_check("deviation objective", solution.objective_value, 0.6324555320336759))
    elif n == 3:
        add(_check("t", solution.per_constraint["t"], (2.0, 6.0, 1.0)))
        add(_check("active constraint", solution.active_index, 3, 0))
        add(_check("magnitudes row 3", solution.imputed[2], (0.5, 1.0)))
        add(_check("magnitude a11", solution.imputed[0, 0], 0.5))
        add(_check("magnitude a22", solution.imputed[1, 1], 0.5))
        add(_check("cost vector", solution.cost, (-1.5, -2.0)))
        add(_check("duality gap", solution.duality_gap, 1.0))
    elif n == 4:
        add(_check("t", solution.per_constraint["t"], (1.5, 1.5, 1.0)))
        add(_check("active constraint", solution.active_index, 3, 0))
        add(_check("magnitudes row 3", solution.imputed[2], (1.0, 1.0)))
        add(_check("magnitude a11", solution.imputed[0, 0], 0.5))
        add(_check("magnitude a22", solution.imputed[1, 1], 0.5))
        add(_check("cost vector", solution.cost, (-1.0, -2.0)))
        add(_check("deviation objective", solution.objective_value, 1.0))
    elif n == 5:
        gb = compute_gamma_bounds(case.problem, case.structure, case.x_hat)
        add(_check("activatable rows", tuple(i + 1 for i in gb.i_hat), (1, 3), 0))
        add(_check("activation budget row 1", gb.gamma_lower[0], 0.8))
        add(_check("activation budget row 3", gb.gamma_lower[2], 1.5))
        add(_check("t", solution.per_constraint["t"], (1.0, 10.2, 4.4)))
        add(_check("active constraint", solution.active_index, 1, 0))
        add(_check("budgets", solution.imputed, (0.6, 0.2, 0.2)))
        add(_check("cost vector", solution.cost, (2.5, 0.0)))
        add(_check("duality gap", solution.duality_gap, 1.0))
    elif n == 6:
        gb = compute_gamma_bounds(case.problem, case.structure, case.x_hat)
        add(_check("activatable rows", tuple(i + 1 for i in gb.i_hat), (1, 3), 0))
        add(_check("activation budget row 1", gb.gamma_lower[0], 0.8))
        add(_check("activation budget row 3", gb.gamma_lower[2], 1.5))
        add(_check("activation premium row 3", solution.per_constraint["f"][2], 0.5))
        add(_check("active constraint", solution.active_index, 3, 0))
        add(_check("deviation objective", solution.objective_value, 0.5))
        add(_check("budget row 3", solution.imputed[2], 1.5))
        add(_check("budgets", solution.imputed, (0.2, 1.0, 1.5)))
        add(_check("cost vector", solution.cost, (-1.0, -2.0)))
    elif n == 7:
        add(_check("status", solution.status.value, "trivial-detected"))
        add(_check("f (2 dp)", solution.per_constraint["f"], (1.77, 1.77, 1.41, 2.12), PRINTED_TOL))
        add(_check("active constraint", solution.active_index, 3, 0))
        add(_check("imputed row 3", solution.imputed[2], (0.0, 0.0), 1e-9))
        add(_check("cost vector", solution.cost, (0.0, 0.0), 1e-9))
        kinds = tuple(type(r).__name__ for r in solution.remediations)
        add(_check("suggested escapes", kinds, "('RhsEpsilon', 'PriorEpsilon', 'WeightBoost')"))
        rhs = perturb_and_resolve(case.problem, case.x_hat, case.prior, RhsEpsilon(row=2, delta=0.1))
        add(_check("rhs +0.1: row 3", rhs.solution.imputed[2], (0.025, 0.025)))
        add(_check("rhs +0.1: cost", rhs.solution.cost, (0.025, 0.025)))
        pri = perturb_and_resolve(case.problem, case.x_hat, case.prior, PriorEpsilon(row=2, col=0, delta=0.01))
        add(_check("prior +0.01: row 3", pri.solution.imputed[2], (0.005, -0.005)))
        pri_big = perturb_and_resolve(case.problem, case.x_hat, case.prior, PriorEpsilon(row=2, col=0, delta=0.1))
        add(_check("prior +0.1: row 3", pri_big.solution.imputed[2], (0.05, -0.05)))
        wgt = perturb_and_resolve(case.problem, case.x_hat, case.prior, WeightBoost(row=2, weight=10.0))
        add(_check("weight 10: active constraint", wgt.solution.active_index, 1, 0))
        add(_check("weight 10: row 1", wgt.solution.imputed[0], (-0.25, -1.25)))
    elif n == 8:
        add(_check("status", solution.status.value, "trivial-detected"))
        add(_check("active constraint", solution.active_index, 1, 0))
        add(_check("cost vector", solution.cost, (1.0, 0.0)))
        add(_check("imputed row 3", solution.imputed[2], (0.0, 0.0), 1e-9))
        kinds = tuple(type(r).__name__ for r in solution.remediations)
        add(_check("suggested escapes (no weight boost)", kinds, "('RhsEpsilon', 'PriorEpsilon')"))
        rhs_delta = [r.delta for r in solution.remediations if isinstance(r, RhsEpsilon)]
        add(_check("rhs suggestion sign", rhs_delta[0], -0.1))
        rhs = perturb_and_resolve(case.problem, case.x_hat, case.prior, RhsEpsilon(row=2, delta=-0.1))
        add(_check("rhs -0.1: row 3", rhs.solution.imputed[2], (-0.025, -0.025)))
        pri = perturb_and_resolve(case.problem, case.x_hat, case.prior, PriorEpsilon(row=2, col=0, delta=0.1))
        add(_check("prior +0.1: row 3", pri.solution.imputed[2], (0.05, -0.05)))
    return case, solution, checks
