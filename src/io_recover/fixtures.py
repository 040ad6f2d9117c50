"""Built-in demonstration instances with known solutions.

Eight cases, one per solver behavior worth demonstrating: gap and
strong-duality recovery of the constraint matrix (1, 2), of interval
magnitudes (3, 4), of deviation budgets (5, 6), and the trivial-output
escape paths (7, 8).  Each case carries the checks the demo command
asserts; values marked as 2-decimal are compared at printed precision,
the rest at 1e-6.
"""

from dataclasses import dataclass

import numpy as np

from . import solve
from .cardinality import compute_gamma_bounds
from .geometry import NormKind
from .model import (
    ForwardProblem,
    ModelKind,
    Prior,
    PriorEpsilon,
    RhsEpsilon,
    SideConstraints,
    UncertaintyStructure,
    WeightBoost,
)
from .nominal import perturb_and_resolve

DERIVED_TOL = 1e-6
PRINTED_TOL = 5e-3


@dataclass(frozen=True)
class DemoCase:
    number: int
    title: str
    model: ModelKind
    problem: ForwardProblem
    x_hat: np.ndarray
    structure: UncertaintyStructure
    omega: SideConstraints = None
    prior: Prior = None


@dataclass(frozen=True)
class CheckResult:
    name: str
    computed: object
    expected: object
    tol: float
    ok: bool


_BASE_A = np.array([[1.0, 0.0], [0.0, 1.0], [-2.0, -1.0]])
_BASE_B = np.array([-6.0, -6.0, -10.0])
_BASE_X = np.array([-2.0, 6.0])
_BASE_SETS = ((0,), (1,), (0, 1))


def _case_1():
    # params: a11 a12 a21 a22 a31 a32
    G = np.array(
        [
            [-1, 0, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, -1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, -1, 0, 0, 0],
            [0, 0, 0, -1, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, -1],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 2, 1, 0],
        ],
        dtype=float,
    )
    h = np.array([-1.0, 1.5, 0.0, 0.0, 0.0, 0.0, -2.0, 3.0, -2.0, 2.0, -0.5, 2.0])
    return DemoCase(
        number=1,
        title="matrix recovery, minimum duality gap",
        model=ModelKind.NLO_DG,
        problem=ForwardProblem(A=_BASE_A, b=_BASE_B),
        x_hat=_BASE_X,
        structure=UncertaintyStructure.nominal(),
        omega=SideConstraints(G=G, h=h),
    )


def _case_2():
    return DemoCase(
        number=2,
        title="matrix recovery, strong duality (euclidean prior)",
        model=ModelKind.NLO_SD,
        problem=ForwardProblem(A=_BASE_A, b=_BASE_B),
        x_hat=_BASE_X,
        structure=UncertaintyStructure.nominal(),
        prior=Prior(estimates=_BASE_A, norm=NormKind.L2),
    )


def _interval_omega():
    # params: alpha11 alpha22 alpha31 alpha32; each >= 0.5, sum <= 2.5
    G = np.vstack([-np.eye(4), np.ones((1, 4))])
    h = np.array([-0.5, -0.5, -0.5, -0.5, 2.5])
    return SideConstraints(G=G, h=h)


def _case_3():
    return DemoCase(
        number=3,
        title="interval magnitudes, minimum duality gap",
        model=ModelKind.RLO_IU_DG,
        problem=ForwardProblem(A=_BASE_A, b=_BASE_B),
        x_hat=_BASE_X,
        structure=UncertaintyStructure.interval(_BASE_SETS),
        omega=_interval_omega(),
    )


def _case_4():
    est = np.zeros((3, 2))
    est[0, 0] = 0.5
    est[1, 1] = 0.5
    est[2] = (1.0, 0.0)
    return DemoCase(
        number=4,
        title="interval magnitudes, strong duality (l1 prior)",
        model=ModelKind.RLO_IU_SD,
        problem=ForwardProblem(A=_BASE_A, b=_BASE_B),
        x_hat=_BASE_X,
        structure=UncertaintyStructure.interval(_BASE_SETS),
        prior=Prior(estimates=est, norm=NormKind.L1),
    )


def _ccu_alpha():
    alpha = np.zeros((3, 2))
    alpha[0, 0] = 2.5
    alpha[1, 1] = 0.5
    alpha[2] = (2.0, 1.0)
    return alpha


def _case_5():
    G = np.vstack([-np.eye(3), np.ones((1, 3))])
    h = np.array([-0.2, -0.2, -0.2, 1.0])
    return DemoCase(
        number=5,
        title="deviation budgets, minimum duality gap",
        model=ModelKind.RLO_CCU_DG,
        problem=ForwardProblem(A=_BASE_A, b=_BASE_B),
        x_hat=_BASE_X,
        structure=UncertaintyStructure.cardinality(_BASE_SETS, _ccu_alpha()),
        omega=SideConstraints(G=G, h=h),
    )


def _case_6():
    return DemoCase(
        number=6,
        title="deviation budgets, strong duality (l1 prior)",
        model=ModelKind.RLO_CCU_SD,
        problem=ForwardProblem(A=_BASE_A, b=_BASE_B),
        x_hat=_BASE_X,
        structure=UncertaintyStructure.cardinality(_BASE_SETS, _ccu_alpha()),
        prior=Prior(estimates=np.array([0.2, 1.0, 1.0]), norm=NormKind.L1),
    )


def _case_7():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
    return DemoCase(
        number=7,
        title="trivial cost vector escape (zero right-hand side)",
        model=ModelKind.NLO_SD,
        problem=ForwardProblem(A=A, b=np.array([-3.0, -3.0, 0.0, -10.0])),
        x_hat=np.array([2.0, 2.0]),
        structure=UncertaintyStructure.nominal(),
        prior=Prior(estimates=A, norm=NormKind.L2),
    )


def _case_8():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    return DemoCase(
        number=8,
        title="trivialized constraint escape (infeasible prior row)",
        model=ModelKind.NLO_SD,
        problem=ForwardProblem(A=A, b=np.array([2.0, -4.0, 0.0])),
        x_hat=np.array([2.0, 2.0]),
        structure=UncertaintyStructure.nominal(),
        prior=Prior(estimates=A, norm=NormKind.L2),
    )


_CASES = {1: _case_1, 2: _case_2, 3: _case_3, 4: _case_4, 5: _case_5, 6: _case_6, 7: _case_7, 8: _case_8}


def example_case(number):
    if number not in _CASES:
        raise KeyError(f"no demo example {number}; choose 1..8")
    return _CASES[number]()


def all_examples():
    return tuple(example_case(n) for n in sorted(_CASES))


def case_bundle(case):
    from .problem_io import ProblemBundle

    return ProblemBundle(
        model=case.model,
        problem=case.problem,
        x_hat=case.x_hat,
        structure=case.structure,
        omega=case.omega,
        prior=case.prior,
    )


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
