import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from conftest import assert_same_bits, knapsack_continuous, knapsack_protection
from io_recover import (
    ForwardProblem,
    ModelKind,
    NominalInfeasibleError,
    NormKind,
    Prior,
    SideConstraints,
    Status,
    UncertaintyStructure,
    check_certificate,
    compute_gamma_bounds,
    realized_row_cardinality,
    solve_rlo_ccu_dg,
    solve_rlo_ccu_sd,
    solve_rlo_iu_sd,
)
from io_recover import cardinality, model
from io_recover.fixtures import evaluate_example, example_case
from io_recover.geometry import norm_value, products
from io_recover.lp import Constraints, LinearProgram, LpStatus, solve_lp_batch
from io_recover.model import InverseSolution, canonicalize_omega, gap_solution, param_keys
from oracle import brute_force_min, oracle_tolerance


def test_example_5_checks():
    _, solution, checks = evaluate_example(5)
    assert solution.status == Status.OPTIMAL
    for chk in checks:
        assert chk.ok, (chk.name, chk.computed, chk.expected)


def test_example_6_checks():
    _, solution, checks = evaluate_example(6)
    assert solution.status == Status.OPTIMAL
    for chk in checks:
        assert chk.ok, (chk.name, chk.computed, chk.expected)


class TestGammaBounds:
    def test_example_bounds(self):
        case = example_case(5)
        gb = compute_gamma_bounds(case.problem, case.structure, case.x_hat)
        assert gb.i_hat == (0, 2)
        assert gb.gamma_lower[0] == pytest.approx(0.8)
        assert gb.gamma_lower[2] == pytest.approx(1.5)
        assert np.isnan(gb.gamma_lower[1])
        assert gb.theta_upper == pytest.approx([0.8, 1.0, 1.5])

    def test_nominal_infeasible_raises_with_row(self):
        case = example_case(5)
        with pytest.raises(NominalInfeasibleError) as err:
            compute_gamma_bounds(case.problem, case.structure, [9.0, 9.0])
        assert err.value.row == 2

    def test_all_rows_out_of_reach(self):
        prob = ForwardProblem(A=[[2.0, 0.0], [0.0, 2.0]], b=[-10.0, -10.0])
        structure = UncertaintyStructure.cardinality(
            ((0,), (1,)), [[0.1, 0.0], [0.0, 0.1]]
        )
        gb = compute_gamma_bounds(prob, structure, [1.0, 1.0])
        assert gb.i_hat == ()
        assert gb.theta_upper == pytest.approx([1.0, 1.0])

    def test_interval_case_reported(self):
        # one zero product and surplus equal to the full protection
        prob = ForwardProblem(A=[[1.0, 1.0]], b=[0.0])
        structure = UncertaintyStructure.cardinality(((0, 1),), [[1.0, 5.0]])
        gb = compute_gamma_bounds(prob, structure, [2.0, 0.0])
        assert gb.i_hat == (0,)
        assert gb.gamma_lower[0] == pytest.approx(1.0)
        assert gb.gamma_upper[0] == pytest.approx(2.0)

    def test_one_ranking_per_solve(self, calls):
        case = example_case(5)
        compute_gamma_bounds(case.problem, case.structure, case.x_hat)
        assert calls["activation_budgets"] == 1

    def test_theta_soundness(self):
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 500:
            seed = int(rng.integers(0, 10_000))
            problem, x, structure, _, lo, hi = gen.make_ccu(seed, with_omega=False)
            gb = compute_gamma_bounds(problem, structure, x)
            surplus = problem.surplus(x)
            for _ in range(5):
                i = int(rng.integers(0, problem.m))
                g = float(rng.uniform(0, len(structure.sets[i])))
                in_theta = g <= gb.theta_upper[i] + 1e-9
                prot = knapsack_protection(structure.alpha[i], g, structure.sets[i], x)
                assert in_theta == (prot <= surplus[i] + 1e-9), (seed, i, g)
                checked += 1

    def test_activation_budget_makes_row_active(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            seed = int(rng.integers(0, 10_000))
            problem, x, structure, _, lo, hi = gen.make_ccu(seed, with_omega=False)
            gb = compute_gamma_bounds(problem, structure, x)
            surplus = problem.surplus(x)
            for i in gb.i_hat:
                prot = knapsack_protection(
                    structure.alpha[i], gb.gamma_lower[i], structure.sets[i], x
                )
                assert prot == pytest.approx(surplus[i], abs=1e-9)


class TestCcuDg:
    def test_lp_and_ranking_counts(self, calls):
        # fixture 5's one coupling row, twice: the m LPs; once: the closed form
        case = example_case(5)
        solve_rlo_ccu_dg(case.problem, case.x_hat, case.structure, gen.two_couplings(case.omega))
        assert calls["lp_solve"] == case.problem.m
        assert calls["activation_budgets"] == 1
        calls.clear()
        solve_rlo_ccu_dg(case.problem, case.x_hat, case.structure, case.omega)
        # the m rows ranked once; the active row is realized from that ranking
        assert calls == {"activation_budgets": 1, "ranked_rows": case.problem.m}

    def test_one_equality_form_serves_all_m_lps(self, std_builds, calls):
        # LP i maximizes budget i over one set: the budget box and omega's k coupled rows
        case = example_case(5)
        sol = solve_rlo_ccu_dg(case.problem, case.x_hat, case.structure, gen.two_couplings(case.omega))
        assert sol.status == Status.OPTIMAL
        assert calls["lp_solve"] == case.problem.m
        (constraints,) = std_builds
        assert constraints.A.shape == (2, case.problem.m)

    def test_box_only_omega_runs_no_lp(self, std_builds, calls, monkeypatch):
        monkeypatch.setattr(model, "Constraints", None)  # building one would raise
        for seed in range(5):
            problem, x, structure, omega, _ = gen.make_ccu_dg(seed)
            sol = solve_rlo_ccu_dg(problem, x, structure, omega)
            assert sol.status in (Status.OPTIMAL, Status.TRIVIAL_DETECTED)
        assert calls["lp_solve"] == 0
        assert std_builds == []

    def test_box_only_solve_ranks_once(self, calls, monkeypatch):
        # one mask, one ranking of all m rows and one nominal surplus, taken
        # by row_dots alone, serve the whole box-only solve: the infeasibility
        # test, the activation budgets, the protection at the caps and the tail
        counts = Counter()

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(cardinality, "ranked")
        counted(UncertaintyStructure, "mask")
        counted(ForwardProblem, "surplus")
        counted(cardinality, "row_dots")
        counted(model, "row_dots")
        for seed in range(5):
            counts.clear()
            calls.clear()
            problem, x, structure, omega, _ = gen.make_ccu_dg(seed)
            solve_rlo_ccu_dg(problem, x, structure, omega)
            assert counts == {"ranked": 1, "mask": 1, "row_dots": 1}, seed
            # the m rows once, the active row's realization included
            assert calls == {"activation_budgets": 1, "ranked_rows": problem.m}, seed
            # validate's A7 and A8 read one surplus too, the one the solve takes
            counts.clear()
            model.validate(problem, x, structure, ModelKind.RLO_CCU_DG, omega=omega)
            assert (counts["row_dots"], counts["surplus"]) == (1, 0), seed

    def test_zero_budgets_give_min_surplus(self):
        case = example_case(5)
        omega = SideConstraints(G=np.vstack([np.eye(3), -np.eye(3)]), h=np.zeros(6))
        sol = solve_rlo_ccu_dg(case.problem, case.x_hat, case.structure, omega)
        assert sol.duality_gap == pytest.approx(
            float(np.min(case.problem.surplus(case.x_hat))), abs=1e-9
        )

    def test_nominal_infeasible_status(self):
        case = example_case(5)
        sol = solve_rlo_ccu_dg(case.problem, [9.0, 9.0], case.structure, case.omega)
        assert sol.status == Status.INFEASIBLE
        assert "nominal-infeasible" in sol.message

    def test_empty_theta_omega_status(self):
        case = example_case(5)
        # budgets forced above the feasibility box upper bound of row 1 (0.8)
        omega = SideConstraints(G=[[-1.0, 0.0, 0.0]], h=[-0.9])
        sol = solve_rlo_ccu_dg(case.problem, case.x_hat, case.structure, omega)
        assert sol.status == Status.INFEASIBLE

    def test_allocation_matches_knapsack(self):
        case = example_case(5)
        sol = solve_rlo_ccu_dg(case.problem, case.x_hat, case.structure, case.omega)
        absx = np.abs(case.x_hat)
        k = sol.active_index - 1
        values = np.array([case.structure.alpha[k, j] * absx[j] for j in case.structure.sets[k]])
        _, best = knapsack_continuous(values, sol.imputed[k])
        surplus = case.problem.surplus(case.x_hat)[k]
        assert sol.per_constraint["t"][k] == pytest.approx(surplus - best, abs=1e-9)

    def test_realized_cost_identity(self):
        case = example_case(5)
        sol = solve_rlo_ccu_dg(case.problem, case.x_hat, case.structure, case.omega)
        k = sol.active_index - 1
        assert float(sol.cost @ case.x_hat) - case.problem.b[k] == pytest.approx(
            sol.duality_gap, abs=1e-9
        )

    def test_oracle_agreement_random_boxes(self):
        for seed in range(30):
            problem, x, structure, omega, spec = gen.make_ccu_dg(seed)
            sol = solve_rlo_ccu_dg(problem, x, structure, omega)
            value, _ = brute_force_min(
                ModelKind.RLO_CCU_DG, problem, x, structure, omega, spec
            )
            if sol.status == Status.INFEASIBLE:
                assert not np.isfinite(value)
                continue
            tol = oracle_tolerance(ModelKind.RLO_CCU_DG, problem, x, structure, spec)
            assert abs(sol.duality_gap - value) <= tol, (seed, sol.duality_gap, value, tol)


def _joint_lp_solve(problem, x, structure, omega):
    """The reference for coupled rlo-ccu-dg: LP i ranges over all m budgets
    and row i's |J_i| allocations phi in [0, 1], and maximizes row i's
    protected loss values . phi subject to sum(phi) <= gamma_i, the budget
    box and omega's coupled rows.  The solver's LPs range over the budgets
    alone and take the loss from the knapsack at LP i's largest gamma_i."""
    m = problem.m
    x = np.asarray(x, dtype=float)
    infeasible = "no budgets satisfy both the feasibility box and the side constraints"
    theta = compute_gamma_bounds(problem, structure, x).theta_upper
    keys = param_keys(ModelKind.RLO_CCU_DG, problem, structure)
    canon = canonicalize_omega(omega, keys, lower_floor=np.zeros(m), upper_cap=theta)
    if not canon.feasible:
        return None
    mask = structure.mask(problem.n)
    loads = products(structure.alpha, mask, x)
    rhs = np.append(0.0, canon.h)  # the budget row, then the side constraints
    lps = []
    for i in range(m):
        values = loads[i, mask[i]]
        objective = np.concatenate([np.zeros(m), -values])
        A = np.zeros((rhs.size, objective.size))
        A[0, m:] = 1.0
        A[0, i] = -1.0
        A[1:, :m] = canon.G
        lower = np.concatenate([canon.lower, np.zeros(values.size)])
        upper = np.concatenate([canon.upper, np.ones(values.size)])
        lps.append(LinearProgram(objective, Constraints(A, ("<=",) * rhs.size, rhs, lower, upper)))
    outcomes = solve_lp_batch(lps)
    assert LpStatus.UNBOUNDED not in [out.status for out in outcomes]  # each LP's box bounds it
    if LpStatus.INFEASIBLE in [out.status for out in outcomes]:
        return InverseSolution.infeasible(ModelKind.RLO_CCU_DG, infeasible)
    values = np.array([out.value for out in outcomes])
    return gap_solution(
        ModelKind.RLO_CCU_DG, problem, structure, x, problem.surplus(x), values, lambda i: outcomes[i].solution[:m]
    )


def _bind_rows(omega, structure, seed, mixed):
    """omega plus one or two random rows through a random point of the
    budget box, pulled in by up to 0.3: nonnegative coefficients, or
    coefficients of either sign with `mixed`."""
    rng = np.random.default_rng([seed, int(mixed)])
    m = len(structure.sets)
    k = int(rng.integers(1, 3))
    G = rng.uniform(-1.0, 1.0, (k, m)) if mixed else rng.uniform(0.1, 1.0, (k, m))
    point = rng.uniform(0.0, 1.0, m) * np.array([min(2.0, len(s)) for s in structure.sets])
    h = G @ point - rng.uniform(0.0, 0.3, k)
    return SideConstraints(G=np.vstack([omega.G, G]), h=np.append(omega.h, h))


def _coupled_corpus():
    case = example_case(5)
    yield "fixture 5", case.problem, case.x_hat, case.structure, case.omega
    for seed in range(100):
        problem, x, structure, omega, _ = gen.make_ccu_dg(seed)
        yield f"{seed} couple_rows", problem, x, structure, gen.couple_rows(omega)
        for mixed in (False, True):
            yield f"{seed} mixed={mixed}", problem, x, structure, _bind_rows(omega, structure, seed, mixed)


class TestCcuDgMatchesJointLp:
    """Coupled rlo-ccu-dg's budget-only LPs against the joint budget-and-allocation LPs."""

    def test_coupled_corpus(self):
        solved = infeasible = 0
        for label, problem, x, structure, omega in _coupled_corpus():
            sol = solve_rlo_ccu_dg(problem, x, structure, omega)
            ref = _joint_lp_solve(problem, x, structure, omega)
            if ref is None or ref.status == Status.INFEASIBLE:
                assert sol.status == Status.INFEASIBLE, label
                infeasible += 1
                continue
            assert sol.status == ref.status, label
            t, t_ref = sol.per_constraint["t"], ref.per_constraint["t"]
            assert np.all(np.abs(t - t_ref) <= 1e-12 * (1.0 + np.abs(t_ref))), (label, t, t_ref)
            band = np.flatnonzero(t_ref - t_ref.min() <= 1e-12 * (1.0 + abs(t_ref.min())))
            assert sol.active_index == ref.active_index or sol.active_index - 1 in band, label
            gamma = sol.imputed
            theta = compute_gamma_bounds(problem, structure, x).theta_upper
            assert np.all(omega.G @ gamma <= omega.h + 1e-9 * (1.0 + np.abs(omega.h))), label
            assert np.all((gamma >= -1e-9) & (gamma <= theta + 1e-9)), label
            report = check_certificate(ModelKind.RLO_CCU_DG, problem, x, structure, sol)
            assert report.verdict == "valid", (label, report.reason)
            solved += 1
        assert solved >= 150 and infeasible >= 10, (solved, infeasible)


class TestCcuSd:
    def test_zero_lp_invocations(self, calls):
        case = example_case(6)
        solve_rlo_ccu_sd(case.problem, case.x_hat, case.structure, case.prior)
        assert calls["lp_solve"] == 0
        assert calls["activation_budgets"] == 1

    def test_solve_ranks_the_rows_once(self, calls):
        # one ranking of the m rows serves the activation budgets and the active row's realization
        for seed in range(5):
            problem, x, structure, prior, _ = gen.make_ccu_sd(seed)
            calls.clear()
            sol = solve_rlo_ccu_sd(problem, x, structure, prior)
            assert sol.status in (Status.OPTIMAL, Status.TRIVIAL_DETECTED), seed
            assert calls == {"activation_budgets": 1, "ranked_rows": problem.m}, seed

    def test_prior_admitting_active_row_is_free(self):
        case = example_case(6)
        gb = compute_gamma_bounds(case.problem, case.structure, case.x_hat)
        est = np.array([gb.gamma_lower[0], 0.5, 1.0])  # row 1 already active
        sol = solve_rlo_ccu_sd(case.problem, case.x_hat, case.structure,
                               Prior(estimates=est, norm=NormKind.L1))
        assert sol.objective_value == pytest.approx(0.0, abs=1e-12)
        assert sol.imputed == pytest.approx(est)

    def test_clamping_never_changes_solution(self):
        case = example_case(6)
        sizes = [len(s) for s in case.structure.sets]
        over = Prior(
            estimates=np.array([float(sizes[0]) + 5.0, 1.0, 1.0]), norm=NormKind.L1
        )
        at_cap = Prior(estimates=np.array([float(sizes[0]), 1.0, 1.0]), norm=NormKind.L1)
        a = solve_rlo_ccu_sd(case.problem, case.x_hat, case.structure, over)
        b = solve_rlo_ccu_sd(case.problem, case.x_hat, case.structure, at_cap)
        assert a.active_index == b.active_index
        assert a.objective_value == pytest.approx(b.objective_value, abs=1e-12)
        assert np.allclose(a.imputed, b.imputed)
        assert np.allclose(a.cost, b.cost)

    def test_infeasible_when_no_row_reachable(self):
        prob = ForwardProblem(A=[[2.0, 0.0], [0.0, 2.0]], b=[-10.0, -10.0])
        structure = UncertaintyStructure.cardinality(((0,), (1,)), [[0.1, 0.0], [0.0, 0.1]])
        sol = solve_rlo_ccu_sd(prob, [1.0, 1.0], structure, Prior(estimates=[0.5, 0.5], norm=NormKind.L1))
        assert sol.status == Status.INFEASIBLE

    def test_nominal_infeasible_status(self):
        case = example_case(6)
        sol = solve_rlo_ccu_sd(case.problem, [9.0, 9.0], case.structure, case.prior)
        assert sol.status == Status.INFEASIBLE

    def test_activeness_of_returned_budgets(self):
        for seed in range(40):
            problem, x, structure, prior, _ = gen.make_ccu_sd(seed)
            sol = solve_rlo_ccu_sd(problem, x, structure, prior)
            if sol.status != Status.OPTIMAL:
                continue
            k = sol.active_index - 1
            prot = knapsack_protection(structure.alpha[k], sol.imputed[k], structure.sets[k], x)
            assert prot == pytest.approx(problem.surplus(x)[k], abs=1e-9)

    def test_budget_cap_agrees_with_interval_activation(self):
        # when every activation budget sits at the column count, the budget
        # model and the magnitude model activate the same row
        A = np.array([[1.0, 1.0], [0.0, 2.0]])
        x = np.array([1.0, 1.0])
        alpha = np.array([[0.5, 0.5], [0.0, 0.5]])
        sets = ((0, 1), (1,))
        full0 = 0.5 + 0.5
        full1 = 0.5
        b = np.array([float(A[0] @ x) - full0, float(A[1] @ x) - full1])
        problem = ForwardProblem(A=A, b=b)
        structure = UncertaintyStructure.cardinality(sets, alpha)
        gb = compute_gamma_bounds(problem, structure, x)
        assert gb.gamma_lower[0] == pytest.approx(2.0)
        assert gb.gamma_lower[1] == pytest.approx(1.0)
        ccu = solve_rlo_ccu_sd(
            problem, x, structure, Prior(estimates=[2.0, 1.0], norm=NormKind.L1)
        )
        iu = solve_rlo_iu_sd(
            problem,
            x,
            UncertaintyStructure.interval(sets),
            Prior(estimates=alpha, norm=NormKind.L1),
        )
        assert ccu.objective_value == pytest.approx(0.0, abs=1e-9)
        assert iu.objective_value == pytest.approx(0.0, abs=1e-9)
        assert ccu.active_index == iu.active_index

    def test_realized_rows_nonzero_in_all_orthants_under_a10(self):
        rng = np.random.default_rng(21)
        count = 0
        for seed in range(200):
            problem, x, structure, prior, _ = gen.make_ccu_sd(seed)
            # keep instances satisfying the nontriviality precondition
            ok = all(
                any(abs(problem.A[i, j]) > structure.alpha[i, j] for j in structure.sets[i])
                or any(
                    problem.A[i, j] != 0.0
                    for j in range(problem.n)
                    if j not in structure.sets[i]
                )
                for i in range(problem.m)
            )
            if not ok:
                continue
            sol = solve_rlo_ccu_sd(problem, x, structure, prior)
            if sol.status != Status.OPTIMAL:
                continue
            count += 1
            for signs in np.ndindex(*(2,) * problem.n):
                pt = np.where(np.array(signs) == 0, 1.0, -1.0)
                for i in range(problem.m):
                    row = realized_row_cardinality(
                        problem.A[i], structure.alpha[i], sol.imputed[i], structure.sets[i], pt
                    )
                    assert np.max(np.abs(row)) > 1e-9
        assert count >= 50

    def test_oracle_agreement_random(self):
        for seed in range(30):
            problem, x, structure, prior, spec = gen.make_ccu_sd(seed)
            sol = solve_rlo_ccu_sd(problem, x, structure, prior)
            value, _ = brute_force_min(
                ModelKind.RLO_CCU_SD, problem, x, structure, prior, spec
            )
            if sol.status != Status.OPTIMAL:
                assert not np.isfinite(value)
                continue
            tol = oracle_tolerance(
                ModelKind.RLO_CCU_SD, problem, x, structure, spec, prior=prior
            )
            assert abs(sol.objective_value - value) <= tol, (
                seed,
                sol.objective_value,
                value,
                tol,
            )


class TestCcuSdScale:
    def test_memory_stays_linear_in_m(self):
        # row i's deviation norm comes from the norm of g and its own entry, with no m x m
        # matrix of deviation vectors: at m = 2000 that matrix alone would take 32 MB
        rng = np.random.default_rng(3)
        m, n = 2000, 3
        x = rng.uniform(0.5, 2.0, n)
        A = rng.uniform(0.5, 2.0, (m, n))
        alpha = rng.uniform(0.2, 0.9, (m, n)) * A
        b = A @ x - rng.uniform(0.1, 0.9, m) * (alpha @ x)
        structure = UncertaintyStructure.cardinality(tuple((0, 1, 2) for _ in range(m)), alpha)
        problem = ForwardProblem(A=A, b=b)
        for norm in NormKind:
            prior = Prior(estimates=rng.uniform(0.0, 3.0, m), norm=norm)
            tracemalloc.start()
            try:
                sol = solve_rlo_ccu_sd(problem, x, structure, prior)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sol.status == Status.OPTIMAL
            assert peak < 4_000_000, (norm, peak)


def _ccu_sd_draw(seed, norm):
    """A random rlo-ccu-sd instance: partial column sets, some x_j = 0, most
    rows within reach of their protection."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 9)), int(rng.integers(2, 7))
    x = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(-2.0, 2.0, n))
    A = rng.uniform(-2.0, 2.0, (m, n))
    alpha = rng.uniform(0.2, 0.9, (m, n)) * np.abs(A)
    sets = tuple(tuple(int(j) for j in np.flatnonzero(rng.random(n) < 0.7)) or (int(rng.integers(n)),)
                 for _ in range(m))
    full = np.array([alpha[i, list(cols)] @ np.abs(x[list(cols)]) for i, cols in enumerate(sets)])
    problem = ForwardProblem(A=A, b=A @ x - rng.uniform(0.0, 1.2, m) * full)
    prior = Prior(estimates=rng.uniform(0.0, 0.15 * float(n), m), norm=norm)
    return problem, x, UncertaintyStructure.cardinality(sets, alpha), prior


def _ccu_t(sol, structure, problem, x, norm):
    """Each row's objective with it active: the norm of g with entry i set to f_i."""
    f, g = sol.per_constraint["f"], sol.per_constraint["g"]
    reach = np.zeros(f.size, dtype=bool)
    reach[list(compute_gamma_bounds(problem, structure, x).i_hat)] = True
    return np.array([norm_value(np.where(np.arange(f.size) == i, f, g), norm) if reach[i] else np.inf
                     for i in range(f.size)])


def _separated(t, i):
    others = np.delete(t, i)
    return not others.size or bool(np.min(others) > t[i] + 1e-9 * (1.0 + abs(t[i])))


class TestCcuSdMetamorphic:
    """Relabelling rows or columns relabels rlo-ccu-sd's answer."""

    @given(seed=st.integers(0, 2**32 - 1), norm=st.sampled_from(list(NormKind)), data=st.data())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_permuting_rows(self, seed, norm, data):
        problem, x, structure, prior = _ccu_sd_draw(seed, norm)
        perm = np.array(data.draw(st.permutations(range(problem.m))))
        moved = solve_rlo_ccu_sd(
            ForwardProblem(A=problem.A[perm], b=problem.b[perm]), x,
            UncertaintyStructure.cardinality(tuple(structure.sets[i] for i in perm), structure.alpha[perm]),
            Prior(estimates=prior.estimates[perm], norm=norm),
        )
        sol = solve_rlo_ccu_sd(problem, x, structure, prior)
        assert moved.status == sol.status
        if sol.status != Status.OPTIMAL:
            return
        pc, moved_pc = sol.per_constraint, moved.per_constraint
        assert moved_pc["f"].tobytes() == pc["f"][perm].tobytes()
        assert moved_pc["g"].tobytes() == pc["g"][perm].tobytes()
        assert moved.objective_value == pytest.approx(sol.objective_value, rel=1e-12, abs=1e-15)
        if _separated(_ccu_t(sol, structure, problem, x, norm), sol.active_index - 1):
            assert perm[moved.active_index - 1] == sol.active_index - 1
            assert moved.imputed.tobytes() == sol.imputed[perm].tobytes()
            assert moved.cost.tobytes() == sol.cost.tobytes()

    @given(seed=st.integers(0, 2**32 - 1), norm=st.sampled_from(list(NormKind)), data=st.data())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_permuting_columns(self, seed, norm, data):
        problem, x, structure, prior = _ccu_sd_draw(seed, norm)
        perm = np.array(data.draw(st.permutations(range(problem.n))))
        label = np.argsort(perm)  # old column j is new column label[j]
        moved = solve_rlo_ccu_sd(
            ForwardProblem(A=problem.A[:, perm], b=problem.b), x[perm],
            UncertaintyStructure.cardinality(tuple(tuple(label[list(cols)].tolist()) for cols in structure.sets),
                                             structure.alpha[:, perm]),
            prior,
        )
        sol = solve_rlo_ccu_sd(problem, x, structure, prior)
        assert moved.status == sol.status
        if sol.status != Status.OPTIMAL:
            return
        assert moved.per_constraint["f"] == pytest.approx(sol.per_constraint["f"], rel=1e-9, abs=1e-12)
        if _separated(_ccu_t(sol, structure, problem, x, norm), sol.active_index - 1):
            assert moved.active_index == sol.active_index
            assert moved.imputed == pytest.approx(sol.imputed, rel=1e-9, abs=1e-12)
            assert moved.cost == pytest.approx(sol.cost[perm], rel=1e-9, abs=1e-12)


def _ccu_dg_draw(seed):
    """A random rlo-ccu-dg instance: `_ccu_sd_draw`'s rows, with each
    budget in a box inside [0, |J_i|] (most floors 0, caps often short of
    the activation budget, so that t is not 0 on every row), coupled on
    odd seeds by one all-ones row (`gen.couple_rows`)."""
    problem, x, structure, _ = _ccu_sd_draw(seed, NormKind.L1)
    rng = np.random.default_rng([seed, 1])
    size = structure.mask(problem.n).sum(axis=1)
    lower = np.where(rng.random(problem.m) < 0.3, rng.uniform(0.0, 0.3, problem.m) * size, 0.0)
    omega = gen._box_omega(lower, lower + rng.uniform(0.0, 0.6, problem.m) * (size - lower))
    return problem, x, structure, gen.couple_rows(omega) if seed % 2 else omega


def _t_scale(sol, problem, x):
    """Each row's |surplus| + |knapsack|, the size of the terms its t is the difference of."""
    surplus = problem.surplus(x)
    return np.abs(surplus) + np.abs(sol.per_constraint["t"] - surplus)


def _gap_separated(sol, problem, x):
    """The active row's t is below every other row's by more than the
    solver's tie band (`model.active_row`) could reach, with room to spare."""
    t, i = sol.per_constraint["t"], sol.active_index - 1
    return bool(np.all(np.delete(t, i) > t[i] + 1e-6 * (1.0 + _t_scale(sol, problem, x).max())))


def _untied(sol, structure, x):
    """No two of the active row's products alpha_ij |x_j| on J_i are equal:
    a tie deviates the lower column first, so relabelling columns can move
    a budget's share between tied columns (the cost, not its value at x)."""
    i = sol.active_index - 1
    values = structure.alpha[i, list(structure.sets[i])] * np.abs(x[list(structure.sets[i])])
    return np.unique(values).size == values.size


class TestCcuDgMetamorphic:
    """Rescaling the data, or relabelling rows or columns, relabels
    rlo-ccu-dg's answer.  Ties go to the lowest row, so the active row is
    compared only where it is separated from the others."""

    @given(seed=st.integers(0, 2**32 - 1), factor=st.sampled_from([1e-3, 0.37, 3.1, 1e3]))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_scaling_the_data(self, seed, factor):
        # the magnitudes alpha are in A's units, so they scale with (A, b); the budgets carry no units
        problem, x, structure, omega = _ccu_dg_draw(seed)
        scaled = solve_rlo_ccu_dg(
            ForwardProblem(A=factor * problem.A, b=factor * problem.b), x,
            UncertaintyStructure.cardinality(structure.sets, factor * structure.alpha), omega,
        )
        sol = solve_rlo_ccu_dg(problem, x, structure, omega)
        assert scaled.status == sol.status
        if sol.status != Status.OPTIMAL:
            return
        # t is a difference of terms of size `_t_scale`: it scales up to their rounding
        noise = 1e-12 * factor * (1.0 + _t_scale(sol, problem, x))
        assert np.all(np.abs(scaled.per_constraint["t"] - factor * sol.per_constraint["t"]) <= noise)
        assert abs(scaled.objective_value - factor * sol.objective_value) <= noise.max()
        if _gap_separated(sol, problem, x):
            assert scaled.active_index == sol.active_index
            assert scaled.imputed == pytest.approx(sol.imputed, rel=1e-9, abs=1e-12)
            assert scaled.cost == pytest.approx(factor * sol.cost, rel=1e-9, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_permuting_rows(self, seed, data):
        problem, x, structure, omega = _ccu_dg_draw(seed)
        perm = np.array(data.draw(st.permutations(range(problem.m))))
        moved = solve_rlo_ccu_dg(
            ForwardProblem(A=problem.A[perm], b=problem.b[perm]), x,
            UncertaintyStructure.cardinality(tuple(structure.sets[i] for i in perm), structure.alpha[perm]),
            SideConstraints(G=omega.G[:, perm], h=omega.h),  # new budget k is old budget perm[k]
        )
        sol = solve_rlo_ccu_dg(problem, x, structure, omega)
        assert moved.status == sol.status
        if sol.status != Status.OPTIMAL:
            return
        assert moved.per_constraint["t"] == pytest.approx(sol.per_constraint["t"][perm], rel=1e-12, abs=1e-15)
        if _gap_separated(sol, problem, x):
            assert perm[moved.active_index - 1] == sol.active_index - 1
            assert moved.imputed == pytest.approx(sol.imputed[perm], rel=1e-12, abs=1e-15)
            assert moved.cost == pytest.approx(sol.cost, rel=1e-12, abs=1e-15)

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_permuting_columns(self, seed, data):
        problem, x, structure, omega = _ccu_dg_draw(seed)
        perm = np.array(data.draw(st.permutations(range(problem.n))))
        label = np.argsort(perm)  # old column j is new column label[j]
        moved = solve_rlo_ccu_dg(
            ForwardProblem(A=problem.A[:, perm], b=problem.b), x[perm],
            UncertaintyStructure.cardinality(tuple(tuple(label[list(cols)].tolist()) for cols in structure.sets),
                                             structure.alpha[:, perm]),
            omega,
        )
        sol = solve_rlo_ccu_dg(problem, x, structure, omega)
        assert moved.status == sol.status
        if sol.status != Status.OPTIMAL:
            return
        assert moved.per_constraint["t"] == pytest.approx(sol.per_constraint["t"], rel=1e-9, abs=1e-12)
        if _gap_separated(sol, problem, x):
            assert moved.active_index == sol.active_index
            assert moved.imputed == pytest.approx(sol.imputed, rel=1e-9, abs=1e-12)
            assert moved.cost @ x[perm] == pytest.approx(sol.cost @ x, rel=1e-9, abs=1e-12)
            if _untied(sol, structure, x):
                assert moved.cost == pytest.approx(sol.cost[perm], rel=1e-9, abs=1e-12)


def _lattice_ties(rng):
    """Rows whose products alpha_ij |x_j| tie often: magnitudes and |x_j| on a lattice."""
    m, n = int(rng.integers(1, 7)), int(rng.integers(1, 6))
    x = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], n)
    sets = tuple(tuple(np.flatnonzero(rng.random(n) < 0.7).tolist()) for _ in range(m))
    alpha = rng.choice([0.0, 0.5, 1.0, 2.0], (m, n))
    A = rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], (m, n))
    # each row's surplus a share of its full protection, so that many rows can be made active
    mask = np.zeros((m, n), dtype=bool)
    for i, cols in enumerate(sets):
        mask[i, list(cols)] = True
    full = (np.where(mask, alpha, 0.0) * np.abs(x)).sum(axis=1)
    b = A @ x - rng.choice([0.0, 0.5, 1.0], m) * full
    return ForwardProblem(A=A, b=b), x, UncertaintyStructure.cardinality(sets, alpha)


class TestActiveRowRealization:
    """A budget solve realizes its active row from the ranking of all m rows;
    the cost it reports is the one-row view `realized_row_cardinality` of
    that row at its clamped budget, bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1), source=st.sampled_from(["edge", "ties", "gen"]),
           norm=st.sampled_from(list(NormKind)))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_cost_is_the_one_row_view(self, seed, source, norm):
        rng = np.random.default_rng(seed)
        if source == "edge":  # products across the floats, zero and underflowing ones (`gen.edge_rows`)
            _, problem, x, structure, _ = gen.edge_rows(seed % 100_000, "ccu")
        elif source == "ties":
            problem, x, structure = _lattice_ties(rng)
        else:
            problem, x, structure, _, _, _ = gen.make_ccu(seed % 100_000, with_omega=False)
        m = problem.m
        size = np.array([len(cols) for cols in structure.sets], dtype=float)
        inside = rng.uniform(0.0, size)
        # budgets of 0, |J_i|, fractional and integral in between: the gap model's box tops, the prior
        budgets = np.choose(rng.integers(0, 4, m), [np.zeros(m), size, inside, np.floor(inside)])
        box = SideConstraints(G=np.vstack([np.eye(m), -np.eye(m)]), h=np.concatenate([budgets, np.zeros(m)]))
        solutions = (solve_rlo_ccu_dg(problem, x, structure, box),
                     solve_rlo_ccu_sd(problem, x, structure, Prior(estimates=budgets, norm=norm)))
        for sol in solutions:
            if sol.status == Status.INFEASIBLE:
                continue
            i = sol.active_index - 1
            cols = structure.sets[i]
            budget = min(max(float(sol.imputed[i]), 0.0), float(len(cols)))
            assert_same_bits(sol.cost, realized_row_cardinality(problem.A[i], structure.alpha[i], budget, cols, x))
