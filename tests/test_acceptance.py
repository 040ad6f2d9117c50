"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion pass/fail
lines are printed in the terminal summary.
"""

import functools
import time
from dataclasses import replace

import numpy as np
import pytest

import gen
from conftest import record_acceptance
from io_recover import (
    ForwardProblem,
    Constraints,
    LinearProgram,
    NormKind,
    Prior,
    Status,
    check_certificate,
    dual_norm,
    dual_norm_maximizer,
    gamma_bar,
    project_hyperplane,
    realized_row_cardinality,
    realized_row_interval,
    solve_lp,
    solve_nlo_dg,
    solve_nlo_sd,
    solve_rlo_ccu_dg,
    solve_rlo_ccu_sd,
    solve_rlo_iu_dg,
    solve_rlo_iu_sd,
)
from io_recover.fixtures import evaluate_example, example_case, solve_case
from io_recover.geometry import norm_value, protection
from io_recover.verify import REPORT_TOL
from oracle import brute_force_min, oracle_tolerance


def _criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)  # pytest reads fn's fixtures through __wrapped__
        def run(**fixtures):
            try:
                detail = fn(**fixtures)
            except BaseException as exc:
                record_acceptance(f"criterion {number:>2}: FAIL  {description} ({exc})")
                raise
            note = f"  [{detail}]" if detail else ""
            record_acceptance(f"criterion {number:>2}: PASS  {description}{note}")

        run.__name__ = f"test_criterion_{number:02d}"
        run.__doc__ = description
        return run

    return wrap


def _assert_checks(number):
    _, solution, checks = evaluate_example(number)
    for chk in checks:
        assert chk.ok, (chk.name, chk.computed, chk.expected, chk.tol)
    return solution


@_criterion(1, "matrix gap recovery reproduces example 1 in under 50 ms")
def test_criterion_01():
    case = example_case(1)
    solve_nlo_dg(case.problem, case.x_hat, case.omega)  # warm-up
    start = time.perf_counter()
    solution = solve_nlo_dg(case.problem, case.x_hat, case.omega)
    elapsed_ms = 1e3 * (time.perf_counter() - start)
    assert solution.per_constraint["t"] == pytest.approx([3.0, 18.0, 2.0], abs=1e-6)
    assert solution.active_index == 3
    assert solution.duality_gap == pytest.approx(2.0, abs=1e-6)
    assert solution.cost == pytest.approx([-2.0, -2.0], abs=1e-6)
    assert solution.imputed == pytest.approx(
        np.array([[1.0, 0.0], [0.0, 2.0], [-2.0, -2.0]]), abs=1e-6
    )
    assert elapsed_ms < 50.0
    _assert_checks(1)
    return f"{elapsed_ms:.2f} ms"


@_criterion(2, "matrix strong-duality recovery reproduces example 2 in under 10 ms")
def test_criterion_02():
    case = example_case(2)
    solve_nlo_sd(case.problem, case.x_hat, case.prior)  # warm-up
    start = time.perf_counter()
    solution = solve_nlo_sd(case.problem, case.x_hat, case.prior)
    elapsed_ms = 1e3 * (time.perf_counter() - start)
    f = solution.per_constraint["f"]
    assert f == pytest.approx([0.6324555320336759, 1.8973665961010275, 1.2649110640673518], abs=1e-6)
    assert f == pytest.approx([0.63, 1.90, 1.26], abs=5e-3)
    assert solution.active_index == 1
    assert solution.imputed[0] == pytest.approx([1.2, -0.6], abs=1e-6)
    assert float(solution.imputed[0] @ case.x_hat) == pytest.approx(-6.0, abs=1e-9)
    assert elapsed_ms < 10.0
    _assert_checks(2)
    return f"{elapsed_ms:.2f} ms; printed (1.2, -6) asserted as derived (1.2, -0.6)"


@_criterion(3, "interval-magnitude gap recovery reproduces example 3")
def test_criterion_03():
    solution = _assert_checks(3)
    assert solution.per_constraint["t"] == pytest.approx([2.0, 6.0, 1.0], abs=1e-6)
    assert solution.active_index == 3
    assert solution.imputed[2] == pytest.approx([0.5, 1.0], abs=1e-6)
    assert solution.cost == pytest.approx([-1.5, -2.0], abs=1e-6)


@_criterion(4, "interval-magnitude strong-duality recovery reproduces example 4")
def test_criterion_04():
    solution = _assert_checks(4)
    assert solution.per_constraint["t"] == pytest.approx([1.5, 1.5, 1.0], abs=1e-6)
    assert solution.active_index == 3
    assert solution.imputed[2] == pytest.approx([1.0, 1.0], abs=1e-6)
    assert solution.cost == pytest.approx([-1.0, -2.0], abs=1e-6)


@_criterion(5, "budget gap recovery reproduces example 5")
def test_criterion_05():
    solution = _assert_checks(5)
    assert solution.per_constraint["t"] == pytest.approx([1.0, 10.2, 4.4], abs=1e-6)
    assert solution.active_index == 1
    assert solution.imputed == pytest.approx([0.6, 0.2, 0.2], abs=1e-6)
    assert solution.cost == pytest.approx([2.5, 0.0], abs=1e-6)


@_criterion(6, "budget strong-duality recovery reproduces example 6")
def test_criterion_06():
    solution = _assert_checks(6)
    assert solution.active_index == 3
    assert solution.objective_value == pytest.approx(0.5, abs=1e-6)
    assert solution.imputed[2] == pytest.approx(1.5, abs=1e-6)
    assert solution.cost == pytest.approx([-1.0, -2.0], abs=1e-6)


@_criterion(7, "trivial detection and all three escape paths reproduce example 7")
def test_criterion_07():
    solution = _assert_checks(7)
    assert solution.status == Status.TRIVIAL_DETECTED
    assert solution.cost == pytest.approx([0.0, 0.0], abs=1e-9)
    return "printed prior-nudge row (0.005, -0.005) reproduced with delta 0.01; delta 0.1 gives (0.05, -0.05)"


@_criterion(8, "nontrivial cost with trivialized row reproduces example 8")
def test_criterion_08():
    solution = _assert_checks(8)
    assert solution.status == Status.TRIVIAL_DETECTED
    assert solution.cost == pytest.approx([1.0, 0.0], abs=1e-6)


@_criterion(
    9,
    "complexity contract: each gap model runs m LPs when its side constraints keep two or more coupling rows "
    "after canonicalize_omega, none otherwise; the strong-duality models none; one activation-budget ranking "
    "per budget solve",
)
def test_criterion_09(calls):
    rng = np.random.default_rng(90210)
    checked = 0
    # the gap instances' side constraints: box-only, one coupling row, two coupling rows (the LPs)
    forms = (lambda omega: omega, gen.couple_rows, lambda omega: gen.two_couplings(gen.couple_rows(omega)))
    counted = {"nlo": set(), "iu": set(), "ccu": set()}  # the forms whose LPs were counted
    for seed in rng.integers(0, 100_000, size=9):
        seed = int(seed)
        form = checked % 3
        couple, lps = forms[form], form == 2
        problem, x, structure, omega, _ = gen.make_nlo_dg(seed)
        calls.clear()
        solve_nlo_dg(problem, x, couple(omega))
        assert calls["lp_solve"] == (problem.m if lps else 0)
        counted["nlo"].add(form)

        problem, x, structure, prior, _ = gen.make_nlo_sd(seed)
        calls.clear()
        solve_nlo_sd(problem, x, prior)
        assert calls["lp_solve"] == 0

        problem, x, structure, omega, _ = gen.make_iu_dg(seed)
        calls.clear()
        solve_rlo_iu_dg(problem, x, structure, couple(omega))
        assert calls["lp_solve"] == (problem.m if lps else 0)
        counted["iu"].add(form)

        problem, x, structure, prior, _ = gen.make_iu_sd(seed)
        calls.clear()
        sol = solve_rlo_iu_sd(problem, x, structure, prior)
        assert sol.status == Status.OPTIMAL
        assert calls["lp_solve"] == 0

        problem, x, structure, omega, _ = gen.make_ccu_dg(seed)
        calls.clear()
        sol = solve_rlo_ccu_dg(problem, x, structure, couple(omega))
        if sol.status == Status.OPTIMAL:
            assert calls["lp_solve"] == (problem.m if lps else 0)
            counted["ccu"].add(form)
        assert calls["activation_budgets"] == 1

        problem, x, structure, prior, _ = gen.make_ccu_sd(seed)
        calls.clear()
        solve_rlo_ccu_sd(problem, x, structure, prior)
        assert calls["lp_solve"] == 0
        assert calls["activation_budgets"] == 1
        checked += 1
    assert checked == 9
    assert counted == {"nlo": {0, 1, 2}, "iu": {0, 1, 2}, "ccu": {0, 1, 2}}
    return "9 random instances per model; gap models box-only and with one and two coupling rows"


def make_iu_sd_l2(seed):
    """`gen.make_iu_sd`'s instance with an l2 prior on the same magnitudes."""
    problem, x, structure, prior, spec = gen.make_iu_sd(seed)
    return problem, x, structure, Prior(prior.estimates, norm=NormKind.L2), spec


@_criterion(10, "oracle equivalence: 200 random desk-scale instances per model at step 0.05")
def test_criterion_10():
    start = time.perf_counter()
    counts = {}

    def run(name, maker, solver, is_dg):
        agree = 0
        for seed in range(200):
            problem, x, structure, side, spec = maker(seed)
            solution = solver(problem, x, structure, side)
            value, _ = brute_force_min(spec.model, problem, x, structure, side, spec)
            if solution.status == Status.INFEASIBLE:
                assert not np.isfinite(value), (name, seed)
                agree += 1
                continue
            reported = solution.duality_gap if is_dg else solution.objective_value
            tol = oracle_tolerance(
                spec.model, problem, x, structure, spec,
                prior=None if is_dg else side,
            )
            assert abs(reported - value) <= tol, (name, seed, reported, value, tol)
            agree += 1
        counts[name] = agree

    run("nlo-dg", gen.make_nlo_dg, lambda p, x, s, o: solve_nlo_dg(p, x, o), True)
    run("nlo-sd", gen.make_nlo_sd, lambda p, x, s, pr: solve_nlo_sd(p, x, pr), False)
    run("rlo-iu-dg", gen.make_iu_dg, lambda p, x, s, o: solve_rlo_iu_dg(p, x, s, o), True)
    run("rlo-iu-sd", gen.make_iu_sd, lambda p, x, s, pr: solve_rlo_iu_sd(p, x, s, pr), False)
    run("rlo-iu-sd l2", make_iu_sd_l2, lambda p, x, s, pr: solve_rlo_iu_sd(p, x, s, pr), False)
    run("rlo-ccu-dg", gen.make_ccu_dg, lambda p, x, s, o: solve_rlo_ccu_dg(p, x, s, o), True)
    run("rlo-ccu-sd", gen.make_ccu_sd, lambda p, x, s, pr: solve_rlo_ccu_sd(p, x, s, pr), False)

    elapsed = time.perf_counter() - start
    assert all(v == 200 for v in counts.values()), counts
    assert elapsed < 300.0
    return f"6 x 200 instances, rlo-iu-sd's again with l2 priors, in {elapsed:.1f} s"


@_criterion(11, "certificates: all fixture solutions valid at 1e-7; corruption flips the verdict")
def test_criterion_11():
    for number in range(1, 9):
        case = example_case(number)
        sol = solve_case(case)
        assert sol.status in (Status.OPTIMAL, Status.TRIVIAL_DETECTED)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, sol)
        assert report.verdict == "valid", (number, report.reason)
        for name, value in report.residuals.items():
            assert value <= REPORT_TOL, (number, name, value)
    # corruption of each certificate group is exercised in test_verify.py;
    # repeat the normalization flip here as the gate's canary
    case = example_case(5)
    sol = solve_case(case)
    bad = replace(sol, dual_pi=np.array(sol.dual_pi) * (1.0 + 1e-3))
    report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
    assert report.verdict == "invalid"
    return "8 fixtures x full residual set"


@_criterion(12, "geometry suite: 1000 randomized trials per property, zero failures")
def test_criterion_12():
    rng = np.random.default_rng(1234)
    norms = (NormKind.L1, NormKind.L2, NormKind.LINF)

    # Hoelder inequality with equality at the maximizer
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        x = rng.normal(size=n)
        norm = norms[int(rng.integers(0, 3))]
        dn = dual_norm(x, norm)
        v = rng.normal(size=n)
        nv = norm_value(v, norm)
        if nv > 1e-12:
            assert float(x @ (v / nv)) <= dn + 1e-9
        if dn > 0:
            v_star = dual_norm_maximizer(x, norm)
            assert float(x @ v_star) == pytest.approx(dn, abs=1e-9)

    # projection optimality against sampled points on the hyperplane
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        x = rng.normal(size=n)
        if np.max(np.abs(x)) < 0.2:
            continue
        a_hat = rng.normal(size=n)
        b = float(rng.normal()) + 0.15
        norm = norms[int(rng.integers(0, 3))]
        a_f, f = project_hyperplane(a_hat, x, b, norm)
        assert float(a_f @ x) == pytest.approx(b, abs=1e-9)
        d = rng.normal(size=(100, n))
        d -= np.outer(d @ x, x) / float(x @ x)
        candidates = a_f + d
        dev = candidates - a_hat
        costs = {
            NormKind.L1: np.sum(np.abs(dev), axis=1),
            NormKind.L2: np.linalg.norm(dev, axis=1),
            NormKind.LINF: np.max(np.abs(dev), axis=1),
        }[norm]
        assert np.all(costs >= f - 1e-9)

    # protection value: nondecreasing, concave, breakpoints only at integers
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        alpha = np.abs(rng.normal(size=k)) + 0.05
        x = rng.normal(size=k) + 0.1
        grid = np.linspace(0.0, k, 2 * k + 1)  # half-integer sampling, one row per budget
        vals = protection(np.tile(alpha, (grid.size, 1)), np.ones((grid.size, k), dtype=bool), x, grid)
        assert np.all(np.diff(vals) >= -1e-9)
        slopes = np.diff(vals) / np.diff(grid)
        assert np.all(np.diff(slopes) <= 1e-9)
        for t in range(k):  # linear inside each unit cell
            assert slopes[2 * t] == pytest.approx(slopes[2 * t + 1], abs=1e-9)

    # greedy activation budget equals its LP characterization
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        a = rng.normal(size=n)
        x = rng.normal(size=n)
        alpha = np.abs(rng.normal(size=n)) + 0.05
        values = alpha * np.abs(x)
        total = float(np.sum(values))
        surplus = float(rng.uniform(0, total)) if total > 0 else 0.0
        prob = ForwardProblem(A=a.reshape(1, -1), b=[float(a @ x) - surplus])
        res = gamma_bar(prob, alpha, tuple(range(n)), x, 0)
        lp = LinearProgram(np.ones(n), Constraints([values], ("=",), [surplus], np.zeros(n), np.ones(n)))
        out = solve_lp(lp)
        assert res.lower == pytest.approx(out.value, abs=1e-7)

    # full-budget realization degenerates to the interval realization
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=n)
        alpha = np.abs(rng.normal(size=n))
        x = rng.normal(size=n)
        size = int(rng.integers(1, n + 1))
        cols = tuple(int(c) for c in np.sort(rng.choice(n, size=size, replace=False)))
        full = realized_row_cardinality(a, alpha, float(len(cols)), cols, x)
        assert full == pytest.approx(realized_row_interval(a, alpha, cols, x), abs=1e-12)

    return "5 properties x 1000 trials"
