"""Box-only side constraints: each row's closed form against the joint LPs.

When the side constraints of rlo-iu-dg or rlo-ccu-dg fold into bounds, row
i's subproblem covers row i's parameters only, solved in closed form, and
every other row takes its lower bound.  Appending two all-ones rows that
never bind (`gen.couple_rows`, then `gen.two_couplings`) keeps the same
feasible set but leaves two coupling rows, so the solver takes the joint
LPs; both answers must agree.  rlo-ccu-dg's joint LPs find the budget
caps only, and both paths take the knapsack at them, so
`test_cardinality.py` also checks its LPs against the joint
budget-and-allocation LPs.
"""

import warnings

import numpy as np
import pytest

import gen
from io_recover import (
    ForwardProblem,
    ModelKind,
    SideConstraints,
    Status,
    UncertaintyStructure,
    check_certificate,
    solve_rlo_ccu_dg,
    solve_rlo_iu_dg,
)
from io_recover.model import canonicalize_omega, param_keys

MAKERS = {ModelKind.RLO_IU_DG: gen.make_iu_dg, ModelKind.RLO_CCU_DG: gen.make_ccu_dg}
SOLVERS = {ModelKind.RLO_IU_DG: solve_rlo_iu_dg, ModelKind.RLO_CCU_DG: solve_rlo_ccu_dg}


def _corpus(model):
    for seed in range(200):
        problem, x, structure, omega, _ = MAKERS[model](seed)
        yield f"gen {seed}", problem, x, structure, omega
    for m, n in ((20, 10), (40, 10)):
        for seed in range(3):
            for floor in (False, True):
                yield f"{m}x{n} {seed} {floor}", *gen.make_dg_box(model, m, n, seed, floor)


def _lower_rows(model, problem, structure, omega):
    """Each forward row's parameters at their lower bounds, one row per constraint."""
    keys = param_keys(model, problem, structure)
    lower = canonicalize_omega(omega, keys, lower_floor=np.zeros(len(keys))).lower
    if model == ModelKind.RLO_CCU_DG:
        return lower
    rows = np.zeros((problem.m, problem.n))
    rows[keys.rows, keys.cols] = lower
    return rows


def _agree(model, label, problem, x, structure, omega, joint_omega=None):
    """Solve box-only (no RuntimeWarning) and on the joint LPs, assert the
    answers agree, and return whether the model was feasible.  The joint
    LPs take `joint_omega`, by default `omega` coupled twice by
    `gen.couple_rows` and `gen.two_couplings`."""
    solve = SOLVERS[model]
    if joint_omega is None:
        p = len(param_keys(model, problem, structure))
        joint_omega = gen.two_couplings(gen.couple_rows(omega or SideConstraints(G=np.zeros((0, p)), h=np.zeros(0))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        per_row = solve(problem, x, structure, omega)
    joint = solve(problem, x, structure, joint_omega)
    assert per_row.status == joint.status, label
    if joint.status == Status.INFEASIBLE:
        assert per_row.message == joint.message, label
        return False
    t, t_joint = per_row.per_constraint["t"], joint.per_constraint["t"]
    tol = 1e-12 * (1.0 + np.abs(t_joint))
    assert np.all(np.abs(t - t_joint) <= tol), (label, np.max(np.abs(t - t_joint)))
    assert abs(per_row.duality_gap - joint.duality_gap) <= 1e-12 * (1.0 + abs(joint.duality_gap)), label
    tied = np.flatnonzero(t_joint - t_joint.min() <= 1e-12 * (1.0 + abs(t_joint.min())))
    if tied.size == 1:
        assert per_row.active_index == joint.active_index, label
    else:
        assert per_row.active_index - 1 in tied, label

    others = np.arange(problem.m) != per_row.active_index - 1
    lower = _lower_rows(model, problem, structure, omega)
    assert np.array_equal(per_row.imputed[others], lower[others]), label
    report = check_certificate(model, problem, x, structure, per_row)
    assert report.verdict == "valid", (label, report.reason)
    return True


@pytest.mark.parametrize("model", list(SOLVERS), ids=lambda m: m.value)
def test_per_row_lps_match_the_joint_lps(model):
    solved = sum(_agree(model, label, *case) for label, *case in _corpus(model))
    assert solved >= 150


@pytest.mark.parametrize("model", list(SOLVERS), ids=lambda m: m.value)
def test_no_side_constraints_match_the_joint_lps(model):
    # rlo-iu-dg's magnitudes have no upper bound, rlo-ccu-dg's budgets only their caps
    solved = sum(_agree(model, label, problem, x, structure, None) for label, problem, x, structure, _ in _corpus(model))
    assert solved >= 150


@pytest.mark.parametrize("model", list(SOLVERS), ids=lambda m: m.value)
def test_zero_observation_column_matches_the_joint_lps(model):
    solved = 0
    for seed in range(20):
        problem, x, structure, omega = gen.make_dg_box(model, 6, 4, seed, floor=seed % 2 == 1)
        surplus = problem.surplus(x)
        x = x.copy()
        x[seed % 4] = 0.0  # a load of 0 against an upper bound of inf without omega
        problem = ForwardProblem(A=problem.A, b=problem.A @ x - surplus)  # the same surplus
        for side in (omega, None):
            solved += _agree(model, f"{seed} {side is None}", problem, x, structure, side)
    assert solved >= 20


@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
def test_least_load_at_the_surplus_matches_the_joint_lps(above):
    # row r's lower bounds load it with surplus_r (1 +- 1e-6): infeasible just above
    problem = ForwardProblem(A=[[1.0, 2.0, 0.5], [2.0, -1.0, 1.0], [0.5, 1.0, 2.0]], b=[0.0, 1.0, 1.5])
    x = np.array([1.0, -0.5, 2.0])
    structure = UncertaintyStructure.interval(((0, 1, 2),) * 3)
    surplus = problem.surplus(x)
    for r in range(3):
        lower = np.zeros((3, 3))
        lower[r] = surplus[r] * (1.0 + (1e-6 if above else -1e-6)) / np.abs(x).sum()
        omega = gen._box_omega(lower.ravel(), np.full(9, 3.0))
        feasible = _agree(ModelKind.RLO_IU_DG, r, problem, x, structure, omega)
        assert feasible != above, r


def test_infeasible_when_a_later_row_lp_is():
    # row 1's LP is feasible; row 2's floor alone overloads its surplus
    problem = ForwardProblem(A=[[1.0, 0.0], [0.0, 1.0]], b=[0.0, 0.5])
    structure = UncertaintyStructure.interval(((0,), (1,)))
    omega = SideConstraints(G=[[0.0, -1.0]], h=[-2.0])  # alpha_22 >= 2
    per_row = solve_rlo_iu_dg(problem, [1.0, 1.0], structure, omega)
    joint = solve_rlo_iu_dg(problem, [1.0, 1.0], structure, gen.two_couplings(gen.couple_rows(omega)))
    assert per_row.status == joint.status == Status.INFEASIBLE
    assert per_row.message == joint.message
