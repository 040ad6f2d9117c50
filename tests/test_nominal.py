import numpy as np
import pytest

import gen
from io_recover import (
    DimensionError,
    ForwardProblem,
    ModelKind,
    NormKind,
    NumericalFailureError,
    Prior,
    PriorEpsilon,
    RhsEpsilon,
    SideConstraints,
    Status,
    WeightBoost,
    ZeroObservationError,
    check_certificate,
    perturb_and_resolve,
    project_halfspace,
    project_hyperplane,
    solve_nlo_dg,
    solve_nlo_sd,
)
from io_recover.fixtures import evaluate_example, example_case
from oracle import brute_force_min, oracle_tolerance


def test_example_1_checks():
    _, solution, checks = evaluate_example(1)
    assert solution.status == Status.OPTIMAL
    for chk in checks:
        assert chk.ok, (chk.name, chk.computed, chk.expected)


def test_example_2_checks():
    _, solution, checks = evaluate_example(2)
    assert solution.status == Status.OPTIMAL
    for chk in checks:
        assert chk.ok, (chk.name, chk.computed, chk.expected)


class TestDgBehavior:
    def test_lp_call_count_is_m(self, calls):
        # fixture 1's one coupling row, twice: the m LPs; once: the closed form
        case = example_case(1)
        solve_nlo_dg(case.problem, case.x_hat, gen.two_couplings(case.omega))
        assert calls["lp_solve"] == case.problem.m
        calls.clear()
        solve_nlo_dg(case.problem, case.x_hat, case.omega)
        assert calls["lp_solve"] == 0

    def test_one_equality_form_serves_all_m_lps(self, std_builds, calls):
        rng = np.random.default_rng(3)
        A = rng.uniform(-2.0, 2.0, (5, 3))
        x = np.array([1.0, -0.5, 2.0])
        b = A @ x - 0.5
        G = np.vstack([np.eye(15), -np.eye(15), np.ones((1, 15))])
        h = np.concatenate([np.full(30, 3.0), [15.0]])
        sol = solve_nlo_dg(ForwardProblem(A=A, b=b), x, gen.two_couplings(SideConstraints(G=G, h=h)))
        assert sol.status == Status.OPTIMAL
        assert calls["lp_solve"] == 5
        assert len(std_builds) == 1

    def test_infeasible_shared_phase_one(self, std_builds):
        # with every a_ij in [0, 1], row 2 cannot reach b = 5 at x = (1, 1)
        p = 6
        G = np.vstack([np.eye(p), -np.eye(p)])
        h = np.concatenate([np.ones(p), np.zeros(p)])
        problem = ForwardProblem(A=np.ones((3, 2)), b=[1.0, 5.0, 1.0])
        omega = gen.two_couplings(gen.couple_rows(SideConstraints(G=G, h=h)))
        sol = solve_nlo_dg(problem, np.array([1.0, 1.0]), omega)
        assert sol.status == Status.INFEASIBLE
        assert "phase-one infeasibility" in sol.message
        assert len(std_builds) == 1

    def test_contradictory_side_constraints(self, calls):
        case = example_case(1)
        G = np.zeros((2, case.problem.m * case.problem.n))
        G[0, 0], G[1, 0] = 1.0, -1.0
        omega = SideConstraints(G=G, h=np.array([0.0, -1.0]))  # a_11 <= 0 and a_11 >= 1
        sol = solve_nlo_dg(case.problem, case.x_hat, omega)
        assert sol.status == Status.INFEASIBLE
        assert sol.message == "side constraints are contradictory"
        assert calls["lp_solve"] == 0

    def test_solution_invariants(self):
        case = example_case(1)
        sol = solve_nlo_dg(case.problem, case.x_hat, case.omega)
        x = case.x_hat
        assert np.all(sol.imputed @ x >= case.problem.b - 1e-9)
        k = sol.active_index - 1
        gap = float(sol.imputed[k] @ x) - case.problem.b[k]
        assert gap == pytest.approx(sol.duality_gap, abs=1e-9)
        assert np.allclose(sol.cost, sol.imputed[k])
        assert float(np.sum(sol.dual_pi)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(sol.dual_pi >= 0.0)

    def test_gap_recomputed_from_scratch(self):
        case = example_case(1)
        sol = solve_nlo_dg(case.problem, case.x_hat, case.omega)
        recomputed = float(sol.cost @ case.x_hat) - float(case.problem.b @ sol.dual_pi)
        assert recomputed == pytest.approx(sol.per_constraint["t"][sol.active_index - 1], abs=1e-9)

    def test_already_optimal_observation_gives_zero_gap(self):
        # pin the matrix to the prior with a row active at the observation
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        x = np.array([1.0, 1.0])
        b = np.array([2.0, 0.0])
        p = 4
        G = np.vstack([np.eye(p), -np.eye(p)])
        h = np.concatenate([A.ravel(), -A.ravel()])
        sol = solve_nlo_dg(ForwardProblem(A=A, b=b), x, SideConstraints(G=G, h=h))
        assert sol.status == Status.OPTIMAL
        assert sol.duality_gap == pytest.approx(0.0, abs=1e-9)
        assert sol.cost == pytest.approx(A[0])

    def test_infeasible_side_constraints(self):
        A = np.array([[1.0, 0.0]])
        x = np.array([1.0, 0.0])
        # a11 pinned to -5 makes a11 * 1 >= 1 impossible
        G = np.array([[1.0, 0.0], [-1.0, 0.0]])
        h = np.array([-5.0, 5.0])
        sol = solve_nlo_dg(ForwardProblem(A=A, b=[1.0]), x, SideConstraints(G=G, h=h))
        assert sol.status == Status.INFEASIBLE
        assert "infeasib" in sol.message

    def test_trivial_flagged_a_posteriori(self):
        # side constraints pin the row to zero; b = 0 keeps that feasible
        A = np.array([[1.0, 1.0]])
        x = np.array([1.0, 1.0])
        G = np.vstack([np.eye(2), -np.eye(2)])
        h = np.zeros(4)
        sol = solve_nlo_dg(ForwardProblem(A=A, b=[0.0]), x, SideConstraints(G=G, h=h))
        assert sol.status == Status.TRIVIAL_DETECTED
        assert sol.duality_gap == pytest.approx(0.0, abs=1e-9)

    def test_oracle_agreement_random_boxes(self):
        for seed in range(30):
            problem, x, structure, omega, spec = gen.make_nlo_dg(seed)
            sol = solve_nlo_dg(problem, x, omega)
            assert sol.status in (Status.OPTIMAL, Status.TRIVIAL_DETECTED)
            value, arg = brute_force_min(
                ModelKind.NLO_DG, problem, x, structure, omega, spec
            )
            tol = oracle_tolerance(ModelKind.NLO_DG, problem, x, structure, spec)
            assert abs(sol.duality_gap - value) <= tol, (seed, sol.duality_gap, value, tol)
            assert arg is not None


class TestSdBehavior:
    def test_zero_observation_raises(self):
        case = example_case(2)
        with pytest.raises(ZeroObservationError):
            solve_nlo_sd(case.problem, [0.0, 0.0], case.prior)

    def test_zero_lp_invocations(self, calls):
        case = example_case(2)
        solve_nlo_sd(case.problem, case.x_hat, case.prior)
        assert calls["lp_solve"] == 0

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_huge_observation_keeps_the_active_row(self, scale):
        # ||x_hat||_2 overflows a plain x . x past ~1.3e154
        case = example_case(2)
        problem = ForwardProblem(A=case.problem.A, b=np.asarray(case.problem.b) * scale)
        x = np.asarray(case.x_hat) * scale
        sol = solve_nlo_sd(problem, x, case.prior)
        assert sol.status == Status.OPTIMAL and sol.active_index == 1
        assert sol.imputed[0] == pytest.approx([1.2, -0.6], rel=1e-12)
        assert sol.objective_value == pytest.approx(0.6324555320336759, rel=1e-12)
        assert check_certificate(case.model, problem, x, case.structure, sol).verdict == "valid"

    def test_solution_invariants(self):
        case = example_case(2)
        sol = solve_nlo_sd(case.problem, case.x_hat, case.prior)
        x = case.x_hat
        assert np.all(sol.imputed @ x >= case.problem.b - 1e-9)
        k = sol.active_index - 1
        assert float(sol.imputed[k] @ x) == pytest.approx(case.problem.b[k], abs=1e-9)
        assert np.allclose(sol.cost, sol.imputed[k])
        assert sol.duality_gap == 0.0

    def test_rows_match_the_per_row_projection(self):
        # projecting all rows in one pass gives, bit for bit, what project_hyperplane gives row by row
        rng = np.random.default_rng(5)
        for trial in range(90):
            m, n = int(rng.integers(1, 40)), int(rng.integers(1, 12))
            A = rng.normal(size=(m, n))
            x = rng.normal(size=n)
            b = A @ x - rng.uniform(-1.0, 1.0, m)
            prior = Prior(estimates=A + rng.normal(scale=0.3, size=A.shape), xi=rng.uniform(0.5, 2.0, m),
                          norm=list(NormKind)[trial % 3])
            sol = solve_nlo_sd(ForwardProblem(A=A, b=b), x, prior)
            moved, dist = zip(*(project_hyperplane(a, x, b_i, prior.norm) for a, b_i in zip(prior.estimates, b)))
            fits = np.array([float(a @ x) >= b_i for a, b_i in zip(prior.estimates, b)])
            assert np.array_equal(sol.per_constraint["f"], prior.weights(m) * np.array(dist)), trial
            keep = fits & (np.arange(m) != sol.active_index - 1)
            assert np.array_equal(sol.imputed, np.where(keep[:, None], prior.estimates, np.array(moved))), trial

    def test_feasible_prior_with_active_row_is_free(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        x = np.array([1.0, 1.0])
        b = np.array([2.0, 0.0])  # row 1 active at x, row 2 slack
        sol = solve_nlo_sd(ForwardProblem(A=A, b=b), x, Prior(estimates=A, norm=NormKind.L2))
        assert sol.objective_value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.imputed, A)
        assert sol.cost == pytest.approx(A[0])

    def test_weight_scaling_leaves_argmin(self):
        case = example_case(2)
        base = solve_nlo_sd(case.problem, case.x_hat, case.prior)
        scaled_prior = Prior(
            estimates=case.prior.estimates, xi=np.full(case.problem.m, 3.5), norm=NormKind.L2
        )
        scaled = solve_nlo_sd(case.problem, case.x_hat, scaled_prior)
        assert scaled.active_index == base.active_index
        assert np.allclose(scaled.imputed, base.imputed)
        assert np.allclose(scaled.cost, base.cost)
        assert scaled.objective_value == pytest.approx(3.5 * base.objective_value, abs=1e-9)

    def test_objective_lower_bounds_feasible_candidates(self):
        # every matrix with one active row and all rows feasible costs at
        # least the reported optimum
        rng = np.random.default_rng(77)
        checked = 0
        for seed in range(60):
            problem, x, structure, prior, _ = gen.make_nlo_sd(seed)
            sol = solve_nlo_sd(problem, x, prior)
            w = prior.weights(problem.m)
            for _ in range(10):
                raw = prior.estimates + rng.normal(scale=0.7, size=prior.estimates.shape)
                active = int(rng.integers(0, problem.m))
                rows = []
                for i in range(problem.m):
                    if i == active:
                        row, _ = project_hyperplane(raw[i], x, problem.b[i], prior.norm)
                    else:
                        row, _ = project_halfspace(raw[i], x, problem.b[i], prior.norm)
                    rows.append(row)
                candidate = np.vstack(rows)
                cost = sum(
                    w[i]
                    * {
                        NormKind.L1: np.sum(np.abs(candidate[i] - prior.estimates[i])),
                        NormKind.L2: np.linalg.norm(candidate[i] - prior.estimates[i]),
                        NormKind.LINF: np.max(np.abs(candidate[i] - prior.estimates[i])),
                    }[prior.norm]
                    for i in range(problem.m)
                )
                assert sol.objective_value <= cost + 1e-9
                checked += 1
        assert checked >= 500

    def test_oracle_agreement_random(self):
        for seed in range(30):
            problem, x, structure, prior, spec = gen.make_nlo_sd(seed)
            sol = solve_nlo_sd(problem, x, prior)
            value, arg = brute_force_min(
                ModelKind.NLO_SD, problem, x, structure, prior, spec
            )
            tol = oracle_tolerance(
                ModelKind.NLO_SD, problem, x, structure, spec, prior=prior
            )
            assert abs(sol.objective_value - value) <= tol, (
                seed,
                sol.objective_value,
                value,
                tol,
            )


class TestEdgePolicies:
    def test_zero_weight_row_is_allowed_and_wins_argmin(self):
        # a zero weight makes that row's activation free, so it is selected
        case = example_case(2)
        prior = Prior(
            estimates=case.prior.estimates, xi=np.array([1.0, 0.0, 1.0]), norm=NormKind.L2
        )
        sol = solve_nlo_sd(case.problem, case.x_hat, prior)
        assert sol.active_index == 2
        assert sol.objective_value == pytest.approx(0.0, abs=1e-12)
        assert float(sol.imputed[1] @ case.x_hat) == pytest.approx(case.problem.b[1], abs=1e-9)

    def test_unbounded_gap_lp_is_a_numerical_failure(self, monkeypatch):
        # each gap LP bounds its own objective, so only a failing engine reports one unbounded
        import io_recover.model as model_mod
        from io_recover.lp import LpOutcome, LpStatus

        case = example_case(1)
        monkeypatch.setattr(
            model_mod, "solve_lp_batch", lambda lps: [LpOutcome(status=LpStatus.UNBOUNDED) for _ in lps]
        )
        with pytest.raises(NumericalFailureError, match="constraint 1 reported unbounded"):
            solve_nlo_dg(case.problem, case.x_hat, gen.two_couplings(case.omega))


class TestTrivialEscapes:
    def test_example_7_checks(self):
        _, solution, checks = evaluate_example(7)
        assert solution.status == Status.TRIVIAL_DETECTED
        for chk in checks:
            assert chk.ok, (chk.name, chk.computed, chk.expected)

    def test_example_8_checks(self):
        _, solution, checks = evaluate_example(8)
        assert solution.status == Status.TRIVIAL_DETECTED
        for chk in checks:
            assert chk.ok, (chk.name, chk.computed, chk.expected)

    def test_perturbation_returns_both_data_and_solution(self):
        case = example_case(7)
        res = perturb_and_resolve(case.problem, case.x_hat, case.prior, RhsEpsilon(row=2, delta=0.1))
        assert res.problem.b[2] == pytest.approx(0.1)
        assert res.prior == case.prior
        assert res.solution.status == Status.OPTIMAL
        res2 = perturb_and_resolve(
            case.problem, case.x_hat, case.prior, PriorEpsilon(row=2, col=0, delta=0.1)
        )
        assert res2.prior.estimates[2, 0] == pytest.approx(1.1)
        res3 = perturb_and_resolve(
            case.problem, case.x_hat, case.prior, WeightBoost(row=2, weight=10.0)
        )
        assert res3.prior.weights(4)[2] == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "strategy, field",
        [
            (RhsEpsilon(row=9, delta=0.1), "strategy.row"),
            (PriorEpsilon(row=0, col=7, delta=0.1), "strategy.col"),
            (WeightBoost(row=-1, weight=2.0), "strategy.row"),  # would boost the last row
            (RhsEpsilon(row=1.5, delta=0.1), "strategy.row"),
            (PriorEpsilon(row=0, col=0.5, delta=0.1), "strategy.col"),
            (RhsEpsilon(row=True, delta=0.1), "strategy.row"),  # numpy would shift every b
            (PriorEpsilon(row=2, col=True, delta=0.1), "strategy.col"),  # ... the whole prior row
            (WeightBoost(row=False, weight=10.0), "strategy.row"),  # ... and boost no weight
        ],
        ids=["rhs row", "prior column", "negative weight row", "fractional row", "fractional column",
             "bool row", "bool column", "bool weight row"],
    )
    def test_perturbation_outside_the_problem_names_the_field(self, strategy, field):
        case = example_case(2)
        with pytest.raises(DimensionError) as err:
            perturb_and_resolve(case.problem, case.x_hat, case.prior, strategy)
        assert err.value.field == field
