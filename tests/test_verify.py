import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen
import io_recover
from conftest import holding_none, laid_out, ragged
from io_recover import (
    ForwardProblem,
    InverseSolution,
    ModelKind,
    PreconditionError,
    PriorEpsilon,
    RhsEpsilon,
    SideConstraints,
    Status,
    UncertaintyStructure,
    WeightBoost,
    check_certificate,
    diagnose_trivial,
    solve_nlo_sd,
    solve_rlo_iu_dg,
)
from io_recover.fixtures import all_examples, example_case, solve_case
from io_recover.geometry import aux_optimum, realized_row_cardinality, realized_row_interval
from io_recover.verify import REPORT_TOL, UNIT_FREE, _nontriviality
from oracle import GridOracleSpec, GridTooLargeError, brute_force_min, cost_match_by_row, nontriviality_by_every_row


def _solved(number):
    case = example_case(number)
    return case, solve_case(case)


class TestCertificateCorpus:
    @pytest.mark.parametrize("number", range(1, 9))
    def test_fixture_certificates_valid(self, number):
        case, sol = _solved(number)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, sol)
        assert report.verdict == "valid", report.reason
        for name, value in report.residuals.items():
            assert value <= REPORT_TOL, (name, value)

    def test_example1_gap_reported(self):
        case, sol = _solved(1)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, sol)
        assert report.duality_gap == pytest.approx(2.0, abs=1e-9)
        assert "strong_duality" not in report.residuals

    def test_sd_strong_duality_residual(self):
        for number in (2, 4, 6):
            case, sol = _solved(number)
            report = check_certificate(case.model, case.problem, case.x_hat, case.structure, sol)
            assert report.residuals["strong_duality"] <= 1e-9

    def test_trivial_solutions_flagged_not_invalid(self):
        case, sol = _solved(7)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, sol)
        assert report.verdict == "valid"
        assert not report.nontriviality["cost_nonzero"]
        assert not report.nontriviality["rows_nonzero_all_orthants"]

    def test_row_zero_in_one_orthant_of_many_is_flagged(self):
        # n = 8: the realized row 1 vanishes only in the orthant x >= 0
        n = 8
        problem = ForwardProblem(A=np.vstack([np.ones(n), 2.0 * np.ones(n)]), b=[-10.0, 1.0])
        x = np.array([1.0] * 7 + [-1.0])
        structure = UncertaintyStructure.interval([tuple(range(n))] * 2)
        lo = np.concatenate([np.ones(n), np.zeros(n)])
        omega = SideConstraints(G=np.vstack([-np.eye(2 * n), np.eye(2 * n)]),
                                h=np.concatenate([-lo, np.ones(2 * n)]))
        sol = solve_rlo_iu_dg(problem, x, structure, omega)
        assert np.array_equal(sol.imputed[0], np.ones(n))
        report = check_certificate(ModelKind.RLO_IU_DG, problem, x, structure, sol)
        assert report.nontriviality == {
            "cost_nonzero": True, "rows_nonzero_all_orthants": False, "orthants_checked": 2**n,
        }

    def test_requires_solved_status(self):
        case, sol = _solved(3)
        bad = replace(sol, status=Status.INFEASIBLE)
        with pytest.raises(PreconditionError):
            check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)


class TestScaledData:
    SCALE = 1e8

    def _scaled(self, seed):
        A, b, x, prior = gen.make_baseline_nlo_sd(20, 10, seed)
        problem = ForwardProblem(A=A * self.SCALE, b=b * self.SCALE)
        prior = replace(prior, estimates=prior.estimates * self.SCALE)
        return problem, x, solve_nlo_sd(problem, x, prior)

    def test_correct_solutions_stay_valid_at_scale(self):
        # residuals in data units grow with the data; an absolute 1e-7
        # called some of these 50 correct solutions invalid
        for seed in range(50):
            problem, x, sol = self._scaled(seed)
            report = check_certificate(ModelKind.NLO_SD, problem, x, UncertaintyStructure.nominal(), sol)
            assert report.verdict == "valid", (seed, report.reason)

    def test_unit_free_residuals_stay_absolute_at_scale(self):
        # pi puts 1e-6 on a row whose imputed row and right-hand side are 0:
        # only the normalization residual moves, and it is not scaled
        S = self.SCALE
        problem = ForwardProblem(A=[[S, 0.0], [0.0, S]], b=[S, 0.0])
        imputed = np.array([[S, 0.0], [0.0, 0.0]])
        sol = InverseSolution(
            model=ModelKind.NLO_SD, status=Status.TRIVIAL_DETECTED, imputed=imputed,
            cost=imputed[0].copy(), dual_pi=np.array([1.0, 1e-6]), duality_gap=0.0,
            active_index=1, objective_value=0.0,
        )
        report = check_certificate(ModelKind.NLO_SD, problem, [1.0, 1.0], UncertaintyStructure.nominal(), sol)
        assert report.verdict == "invalid"
        assert report.reason == "normalization = 1e-06"

    def test_data_unit_residuals_scale_with_the_data(self):
        problem, x, sol = self._scaled(0)
        cost = np.array(sol.cost)
        for shift, verdict in ((1.0, "valid"), (1e3, "invalid")):
            bad = replace(sol, cost=cost + shift)
            report = check_certificate(ModelKind.NLO_SD, problem, x, UncertaintyStructure.nominal(), bad)
            assert report.verdict == verdict, (shift, report.reason)


class TestFaultInjection:
    def test_primal_feasibility_flip(self):
        case, sol = _solved(2)
        imputed = np.array(sol.imputed)
        k = sol.active_index - 1
        other = (k + 1) % case.problem.m
        # rescale the slack row so its surplus becomes exactly -1e-3
        target = case.problem.b[other] - 1e-3
        imputed[other] *= target / float(imputed[other] @ case.x_hat)
        bad = replace(sol, imputed=imputed)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert report.verdict == "invalid"
        assert report.residuals["primal.feasibility"] == pytest.approx(1e-3, abs=1e-9)

    def test_dual_cost_match_flip(self):
        case, sol = _solved(1)
        bad = replace(sol, cost=np.array(sol.cost) + 1e-3)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert report.verdict == "invalid"
        assert report.residuals["dual.cost_match"] > REPORT_TOL

    def test_normalization_flip(self):
        case, sol = _solved(3)
        bad = replace(sol, dual_pi=np.array(sol.dual_pi) * (1.0 + 1e-3))
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert report.verdict == "invalid"
        assert report.residuals["normalization"] > REPORT_TOL

    def test_pi_nonnegativity_flip(self):
        case, sol = _solved(3)
        pi = np.array(sol.dual_pi)
        k = sol.active_index - 1
        other = (k + 1) % case.problem.m
        pi[other] = -1e-3
        pi[k] = 1.0 + 1e-3  # keep the normalization intact
        bad = replace(sol, dual_pi=pi)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert report.verdict == "invalid"
        assert report.residuals["dual.pi_nonneg"] > REPORT_TOL

    def test_strong_duality_flip(self):
        case, sol = _solved(4)
        pi = np.zeros(case.problem.m)
        pi[0] = 1.0  # row 1 is slack at the observation, so b' pi changes
        bad = replace(sol, dual_pi=pi)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert report.verdict == "invalid"
        assert "strong_duality" in report.residuals
        assert report.residuals["strong_duality"] > REPORT_TOL

    def test_gap_consistency_flip(self):
        case, sol = _solved(5)
        bad = replace(sol, duality_gap=sol.duality_gap + 1e-3)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert report.verdict == "invalid"
        assert report.residuals["consistency.gap_consistency"] > REPORT_TOL

    def test_negative_magnitude_reported(self):
        # a negative imputed magnitude fails the certificate instead of raising
        case, sol = _solved(3)
        imputed = np.array(sol.imputed)
        imputed[0, 0] = -0.5
        bad = replace(sol, imputed=imputed)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert report.verdict == "invalid"
        assert report.residuals["primal.alpha_nonneg"] == 0.5

    @pytest.mark.parametrize("field", ["cost", "dual_pi", "imputed", "duality_gap", "objective_value"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_entry_is_invalid(self, field, value):
        # NaN passes every `<= tol` test it fails, and inf * 0 in the cost equation is NaN
        case, sol = _solved(1)
        entry = np.array(getattr(sol, field), dtype=float)
        entry.flat[-1] = value
        bad = replace(sol, **{field: entry if entry.ndim else float(entry)})
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert (report.verdict, report.reason) == ("invalid", f"{field}: non-finite entry")

    @pytest.mark.parametrize("number", [1, 3, 5])
    @pytest.mark.parametrize("field, cut", [
        ("imputed", lambda v: v[:1]),  # one row (nlo, iu) or one budget (ccu)
        ("imputed", lambda v: v[..., None]),
        ("imputed", lambda v: None),
        ("imputed", ragged),
        ("imputed", holding_none),
        ("cost", lambda v: v[:-1]),
        ("cost", lambda v: None),
        ("dual_pi", lambda v: np.append(v, 0.0)),
        ("dual_pi", lambda v: None),
    ], ids=["imputed row", "imputed extra axis", "imputed missing", "imputed ragged", "imputed holding None",
            "cost short", "cost missing", "dual_pi long", "dual_pi missing"])
    def test_missing_or_wrong_shaped_block_is_invalid(self, number, field, cut):
        # a wrong shape would broadcast, or raise from numpy, rather than fail a residual;
        # a ragged block has no shape, and None reads as a non-finite entry
        case, sol = _solved(number)
        bad = replace(sol, **{field: cut(np.array(getattr(sol, field)))})
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert (report.verdict, report.residuals) == ("invalid", {})
        assert report.reason.startswith(f"{field}: "), report.reason

    def test_fixture_5_with_one_budget_is_invalid(self):
        case, sol = _solved(5)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, replace(sol, imputed=[0.6]))
        assert (report.verdict, report.reason) == ("invalid", "imputed: shape (1,) is not (3,)")

    @pytest.mark.parametrize("active", [0, -2, 4])
    def test_active_index_outside_the_rows_is_invalid(self, active):
        # row 0 would read the last row, and row m + 1 none
        case, sol = _solved(1)
        bad = replace(sol, active_index=active)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert (report.verdict, report.residuals) == ("invalid", {})
        assert report.reason == f"active_index: {active} outside 1..3"

    def test_overflowing_residual_reads_inf(self):
        # at x_1 = -2 both products of alpha x + u overflow, to -inf and inf,
        # and their sum is NaN: the bound it checks is broken, so it reads inf, not 0
        case, sol = _solved(3)
        imputed = np.array(sol.imputed)
        imputed[0, 0] = 1e308
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, replace(sol, imputed=imputed))
        assert report.verdict == "invalid"
        assert report.residuals["primal.deviation_bound_lo"] == math.inf

    def test_active_row_consistency_flip(self):
        case, sol = _solved(6)
        bad = replace(sol, active_index=1)  # row 1 realization differs from the cost
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert report.verdict == "invalid"
        assert report.residuals["consistency.cost_is_active_row"] > REPORT_TOL


class TestBruteForce:
    def test_example3_grid_hits_exact_optimum(self):
        case = example_case(3)
        spec = GridOracleSpec(
            parameter_box=((0.5, 1.0),) * 4, step=0.05, model=ModelKind.RLO_IU_DG
        )
        value, arg = brute_force_min(
            ModelKind.RLO_IU_DG, case.problem, case.x_hat, case.structure, case.omega, spec
        )
        assert value == pytest.approx(1.0, abs=1e-9)
        assert arg == pytest.approx([0.5, 0.5, 0.5, 1.0], abs=1e-9)

    def test_example5_grid_hits_exact_optimum(self):
        case = example_case(5)
        spec = GridOracleSpec(
            parameter_box=((0.2, 0.8), (0.2, 1.0), (0.2, 1.5)),
            step=0.05,
            model=ModelKind.RLO_CCU_DG,
        )
        value, arg = brute_force_min(
            ModelKind.RLO_CCU_DG, case.problem, case.x_hat, case.structure, case.omega, spec
        )
        assert value == pytest.approx(1.0, abs=1e-9)
        assert arg == pytest.approx([0.6, 0.2, 0.2], abs=1e-9)

    def test_single_point_grid(self):
        problem = ForwardProblem(A=[[0.0]], b=[1.0])
        spec = GridOracleSpec(parameter_box=((2.0, 2.0),), step=0.5, model=ModelKind.NLO_DG)
        omega = SideConstraints(G=np.zeros((0, 1)), h=np.zeros(0))
        value, arg = brute_force_min(
            ModelKind.NLO_DG, problem, [1.0], UncertaintyStructure.nominal(), omega, spec
        )
        assert value == pytest.approx(1.0, abs=1e-12)
        assert arg == pytest.approx([2.0])

    def test_grid_too_large(self):
        case = example_case(1)
        spec = GridOracleSpec(
            parameter_box=((-100.0, 100.0),) * 6, step=1e-3, model=ModelKind.NLO_DG
        )
        with pytest.raises(GridTooLargeError):
            brute_force_min(
                ModelKind.NLO_DG, case.problem, case.x_hat, case.structure, case.omega, spec
            )

    def test_infeasible_grid_returns_inf(self):
        problem = ForwardProblem(A=[[0.0]], b=[5.0])
        omega = SideConstraints(G=np.zeros((0, 1)), h=np.zeros(0))
        spec = GridOracleSpec(parameter_box=((0.0, 1.0),), step=0.5, model=ModelKind.NLO_DG)
        value, arg = brute_force_min(
            ModelKind.NLO_DG, problem, [0.5], UncertaintyStructure.nominal(), omega, spec
        )
        assert not np.isfinite(value)
        assert arg is None

    def test_spec_model_mismatch_rejected(self):
        case = example_case(3)
        spec = GridOracleSpec(parameter_box=((0.0, 1.0),) * 4, step=0.1, model=ModelKind.NLO_DG)
        with pytest.raises(PreconditionError):
            brute_force_min(
                ModelKind.RLO_IU_DG, case.problem, case.x_hat, case.structure, case.omega, spec
            )


class TestDiagnose:
    def test_example7_suggestions(self):
        case, sol = _solved(7)
        hints = diagnose_trivial(sol, case.problem, case.structure, prior=case.prior, x_hat=case.x_hat)
        rhs = [h for h in hints if isinstance(h, RhsEpsilon)]
        assert rhs and rhs[0].row == 2 and rhs[0].delta == pytest.approx(0.1)
        assert any(isinstance(h, PriorEpsilon) and h.heuristic for h in hints)
        assert any(isinstance(h, WeightBoost) for h in hints)

    def test_example8_excludes_weight_boost(self):
        case, sol = _solved(8)
        hints = diagnose_trivial(sol, case.problem, case.structure, prior=case.prior, x_hat=case.x_hat)
        rhs = [h for h in hints if isinstance(h, RhsEpsilon)]
        assert rhs and rhs[0].delta == pytest.approx(-0.1)
        assert not any(isinstance(h, WeightBoost) for h in hints)

    def test_nontrivial_solution_gives_no_suggestions(self):
        case, sol = _solved(2)
        assert diagnose_trivial(sol, case.problem, case.structure, prior=case.prior) == []


def test_every_optimal_fixture_certificate_is_valid():
    for number, case in enumerate(all_examples(), start=1):
        sol = solve_case(case)
        if sol.status not in (Status.OPTIMAL, Status.TRIVIAL_DETECTED):
            continue
        assert float(np.sum(sol.dual_pi)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(sol.dual_pi >= 0.0)
        assert sol.duality_gap >= -1e-9
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, sol)
        assert report.verdict == "valid", (number, report.reason)


def _sign_split(pi_i, xj):
    # multiplier pair with lam - mu = -sgn(xj) * pi_i and lam + mu = pi_i
    if xj >= 0.0:
        return 0.0, pi_i
    return pi_i, 0.0


def _loop_certificate(model, problem, x_hat, structure, solution):
    """The interval and budget certificates computed entry by entry with the
    geometry kernel: the reference the deviation block of check_certificate
    must reproduce bit for bit."""
    model = ModelKind(model)
    x = np.asarray(x_hat, dtype=float)
    m, n = problem.m, problem.n
    pi = np.asarray(solution.dual_pi, dtype=float)
    c = np.asarray(solution.cost, dtype=float)
    primal, dual, consistency, aux, dual_aux = {}, {}, {}, {}, {}
    normalization = abs(float(np.sum(pi)) - 1.0)
    dual["pi_nonneg"] = float(max(0.0, -float(np.min(pi))))
    if model.family == "iu":
        alpha = np.asarray(solution.imputed, dtype=float)
        u = np.zeros((m, n))
        lam = np.zeros((m, n))
        mu = np.zeros((m, n))
        p1 = p2 = p4 = 0.0
        d_pair = 0.0
        for i in range(m):
            for j in structure.sets[i]:
                u[i, j] = alpha[i, j] * abs(x[j])
                lam[i, j], mu[i, j] = _sign_split(pi[i], x[j])
                p1 = max(p1, -(alpha[i, j] * x[j] + u[i, j]))
                p2 = max(p2, -(-alpha[i, j] * x[j] + u[i, j]))
                p4 = max(p4, -alpha[i, j])
                d_pair = max(d_pair, abs(pi[i] - lam[i, j] - mu[i, j]))
        robust = problem.A @ x - u.sum(axis=1) - problem.b
        primal["deviation_bound_lo"] = float(max(p1, 0.0))
        primal["deviation_bound_hi"] = float(max(p2, 0.0))
        primal["robust_feasibility"] = float(max(0.0, -float(np.min(robust))))
        primal["alpha_nonneg"] = float(max(p4, 0.0))
        cost_eq = problem.A.T @ pi - c
        for i in range(m):
            for j in structure.sets[i]:
                cost_eq[j] += alpha[i, j] * (lam[i, j] - mu[i, j])
        dual["cost_match"] = float(np.max(np.abs(cost_eq)))
        dual["multiplier_pairing"] = float(d_pair)
        aux["u"] = u
        dual_aux["lambda"] = lam
        dual_aux["mu"] = mu
    else:
        gamma = np.asarray(solution.imputed, dtype=float)
        alpha = structure.alpha
        u = np.zeros((m, n))
        y = np.zeros((m, n))
        z = np.zeros(m)
        phi = np.zeros((m, n))
        lam = np.zeros((m, n))
        mu = np.zeros((m, n))
        range_res = 0.0
        for i in range(m):
            size = len(structure.sets[i])
            range_res = max(range_res, -gamma[i], gamma[i] - size)
            budget = min(max(float(gamma[i]), 0.0), float(size))
            u[i], y[i], z[i] = aux_optimum(alpha[i], budget, structure.sets[i], x)
            order = sorted(structure.sets[i], key=lambda j: (-alpha[i, j] * abs(x[j]), j))
            full = int(math.floor(budget + 1e-12))
            frac = budget - full
            for rank, j in enumerate(order):
                if rank < full:
                    phi[i, j] = pi[i]
                elif rank == full and frac > 1e-12:
                    phi[i, j] = frac * pi[i]
            for j in structure.sets[i]:
                lam[i, j], mu[i, j] = _sign_split(phi[i, j], x[j])
        p1 = p2 = p3 = 0.0
        d_cap = d_pair = d_budget = 0.0
        for i in range(m):
            for j in structure.sets[i]:
                p1 = max(p1, -(alpha[i, j] * x[j] + u[i, j]))
                p2 = max(p2, -(-alpha[i, j] * x[j] + u[i, j]))
                p3 = max(p3, u[i, j] - y[i, j] - z[i])
                d_cap = max(d_cap, phi[i, j] - pi[i])
                d_pair = max(d_pair, abs(phi[i, j] - lam[i, j] - mu[i, j]))
            d_budget = max(d_budget, float(np.sum(phi[i])) - gamma[i] * pi[i])
        robust = problem.A @ x - y.sum(axis=1) - gamma * z - problem.b
        primal["deviation_bound_lo"] = float(max(p1, 0.0))
        primal["deviation_bound_hi"] = float(max(p2, 0.0))
        primal["aux_cover"] = float(max(p3, 0.0))
        primal["robust_feasibility"] = float(max(0.0, -float(np.min(robust))))
        primal["aux_nonneg"] = float(max(0.0, -min(float(np.min(y)), float(np.min(z)))))
        primal["budget_range"] = float(max(range_res, 0.0))
        cost_eq = problem.A.T @ pi - c
        for i in range(m):
            for j in structure.sets[i]:
                cost_eq[j] += alpha[i, j] * (lam[i, j] - mu[i, j])
        dual["cost_match"] = float(np.max(np.abs(cost_eq)))
        dual["allocation_cap"] = float(max(d_cap, 0.0))
        dual["multiplier_pairing"] = float(d_pair)
        dual["budget_cap"] = float(max(d_budget, 0.0))
        aux["u"], aux["y"], aux["z"] = u, y, z
        dual_aux["phi"] = phi
        dual_aux["lambda"] = lam
        dual_aux["mu"] = mu

    def realized(k, point):
        if model.family == "iu":
            return realized_row_interval(problem.A[k], solution.imputed[k], structure.sets[k], point)
        budget = min(max(float(solution.imputed[k]), 0.0), float(len(structure.sets[k])))
        return realized_row_cardinality(problem.A[k], structure.alpha[k], budget, structure.sets[k], point)

    gap_value = float(c @ x) - float(problem.b @ pi)
    strong_duality = duality_gap = None
    if model.is_sd:
        strong_duality = abs(gap_value)
        if solution.objective_value is not None:
            consistency["objective_nonneg"] = float(max(0.0, -solution.objective_value))
    else:
        duality_gap = gap_value
        consistency["gap_nonneg"] = float(max(0.0, -gap_value))
        if solution.duality_gap is not None:
            consistency["gap_consistency"] = abs(gap_value - float(solution.duality_gap))
    if solution.active_index is not None:
        k = solution.active_index - 1
        consistency["cost_is_active_row"] = float(np.max(np.abs(realized(k, x) - c)))
    residuals = {f"primal.{k}": v for k, v in primal.items()}
    residuals.update({f"dual.{k}": v for k, v in dual.items()})
    residuals.update({f"consistency.{k}": v for k, v in consistency.items()})
    residuals["normalization"] = normalization
    if strong_duality is not None:
        residuals["strong_duality"] = strong_duality
    scale = max(float(np.max(np.abs(arr), initial=0.0))
                for arr in (problem.A, problem.b, x, c, np.asarray(solution.imputed, dtype=float)))
    verdict, reason = "valid", None
    for name, val in residuals.items():
        if val > (REPORT_TOL if name in UNIT_FREE else REPORT_TOL * (1.0 + scale)):
            verdict, reason = "invalid", f"{name} = {val:g}"
            break
    plus = np.ones(n)
    rows_ok = True
    for i in range(m):
        dev = problem.A[i] - realized(i, plus)
        if float(np.max(np.abs(np.abs(problem.A[i]) - dev))) <= 1e-9:
            rows_ok = False
    cost_ok = solution.cost is not None and float(np.max(np.abs(solution.cost))) > 1e-9
    return {
        "residuals": residuals, "aux": aux, "dual_aux": dual_aux, "verdict": verdict,
        "reason": reason, "duality_gap": duality_gap,
        "nontriviality": {
            "cost_nonzero": cost_ok, "rows_nonzero_all_orthants": rows_ok, "orthants_checked": 2**n,
        },
    }


def _assert_same_report(report, ref):
    assert list(report.residuals.items()) == list(ref["residuals"].items())
    for ours, theirs in ((report.aux, ref["aux"]), (report.dual_aux, ref["dual_aux"])):
        assert list(ours) == list(theirs)
        assert all(np.array_equal(ours[k], theirs[k]) for k in ours)
    assert (report.verdict, report.reason) == (ref["verdict"], ref["reason"])
    assert report.nontriviality == ref["nontriviality"]
    assert report.duality_gap == ref["duality_gap"]


ROBUST_MAKERS = (
    (ModelKind.RLO_IU_DG, gen.make_iu_dg),
    (ModelKind.RLO_IU_SD, gen.make_iu_sd),
    (ModelKind.RLO_CCU_DG, gen.make_ccu_dg),
    (ModelKind.RLO_CCU_SD, gen.make_ccu_sd),
)


def _solved_robust_corpus():
    for number in (3, 4, 5, 6):
        case, sol = _solved(number)
        yield case.model, case.problem, case.x_hat, case.structure, sol
    for model, make in ROBUST_MAKERS:
        for seed in range(200):
            problem, x, structure, data, _ = make(seed)
            if model.is_sd:
                sol = io_recover.solve(model, problem, x, structure, prior=data)
            else:
                sol = io_recover.solve(model, problem, x, structure, omega=data)
            if sol.status in (Status.OPTIMAL, Status.TRIVIAL_DETECTED):
                yield model, problem, x, structure, sol


def _synthetic_robust_solution(rng, rows=6, cols=6):
    """A seeded solution that need not be optimal, with fewer than `rows`
    rows and `cols` columns: ties in alpha |x|, zero coordinates, empty
    uncertain sets, budgets on, near and off the integers and outside
    [0, |J_i|], negative multipliers."""
    model = list(ModelKind)[2 + int(rng.integers(0, 4))]
    m, n = int(rng.integers(1, rows)), int(rng.integers(1, cols))
    x = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], n)
    A = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 1.5], (m, n))
    sets = [tuple(int(j) for j in np.flatnonzero(rng.random(n) < 0.6)) for _ in range(m)]
    alpha = rng.choice([0.0, 0.25, 0.5, 1.0], (m, n))
    if model.family == "iu":
        structure = UncertaintyStructure.interval(sets)
        imputed = alpha + rng.choice([0.0, 3.0], (m, n))  # entries off the sets are ignored
    else:
        structure = UncertaintyStructure.cardinality(sets, alpha)
        size = np.array([len(s) for s in sets], dtype=float)
        whole = np.floor(rng.uniform(0.0, size + 1.0))
        shift = rng.choice([0.0, 1e-13, -1e-13, 1e-11, -1e-11, 1e-12, 0.37, -0.6, 1.4], m)
        imputed = np.where(rng.random(m) < 0.15, size, whole + shift)
    pi = rng.choice([0.0, 0.0, 0.25, 0.5, 1.0, -0.25], m)
    return model, ForwardProblem(A=A, b=rng.uniform(-2.0, 2.0, m)), x, structure, InverseSolution(
        model=model, status=Status.OPTIMAL, imputed=imputed, cost=rng.choice([-1.0, 0.0, 0.5, 2.0], n),
        dual_pi=pi, duality_gap=float(rng.uniform(-1.0, 1.0)) if rng.random() < 0.8 else None,
        active_index=int(rng.integers(1, m + 1)) if rng.random() < 0.9 else None,
        objective_value=float(rng.uniform(-1.0, 1.0)),
    )


class TestDeviationBlock:
    """check_certificate's one deviation block against the entry-by-entry reference."""

    def test_solved_corpus_matches_reference(self):
        count = 0
        for model, problem, x, structure, sol in _solved_robust_corpus():
            report = check_certificate(model, problem, x, structure, sol)
            _assert_same_report(report, _loop_certificate(model, problem, x, structure, sol))
            count += 1
        assert count > 700

    def test_synthetic_corpus_matches_reference(self):
        rng = np.random.default_rng(20)
        for _ in range(600):
            model, problem, x, structure, sol = _synthetic_robust_solution(rng)
            report = check_certificate(model, problem, x, structure, sol)
            _assert_same_report(report, _loop_certificate(model, problem, x, structure, sol))

    def test_empty_set_and_full_budget(self):
        # row 1 has no uncertain column, row 2 a budget of exactly |J_2| = 2
        problem = ForwardProblem(A=[[1.0, 2.0, 0.0], [1.0, -1.0, 3.0]], b=[0.5, -1.0])
        alpha = np.array([[0.5, 0.5, 0.5], [0.5, 1.0, 0.25]])
        structure = UncertaintyStructure.cardinality(((), (0, 2)), alpha)
        x = np.array([1.0, 0.0, -2.0])
        sol = InverseSolution(
            model=ModelKind.RLO_CCU_SD, status=Status.OPTIMAL, imputed=np.array([0.0, 2.0]),
            cost=np.array([0.5, -1.0, 3.25]), dual_pi=np.array([0.0, 1.0]), duality_gap=0.0,
            active_index=2, objective_value=0.0,
        )
        report = check_certificate(ModelKind.RLO_CCU_SD, problem, x, structure, sol)
        _assert_same_report(report, _loop_certificate(ModelKind.RLO_CCU_SD, problem, x, structure, sol))
        assert report.aux["z"][0] == 0.0
        assert np.array_equal(report.dual_aux["phi"], [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
        assert report.residuals["consistency.cost_is_active_row"] == 0.0


class TestCostEquation:
    """The cost equation's residual against its row-by-row loop
    (`oracle.cost_match_by_row`), bit for bit: a cumulative sum over the rows
    adds them in the same order."""

    @given(seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 5), layout=st.sampled_from(["C", "F", "strided"]))
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_matches_the_row_by_row_loop(self, seed, pick, layout):
        # the four robust models' solves, or a synthetic solution (n from 1, empty sets, tied
        # products, budgets of 0, |J_i|, fractional and out of range), small or tall: with one
        # column and more than 8 rows, numpy's sum over axis 0 would add the rows pairwise.
        # A is in the drawn layout
        if pick >= 4:
            sizes = {"rows": 40, "cols": 3} if pick == 5 else {}
            model, problem, x, structure, sol = _synthetic_robust_solution(np.random.default_rng(seed), **sizes)
            problem = ForwardProblem(A=laid_out(problem.A, layout), b=problem.b)
        else:
            model, make = ROBUST_MAKERS[pick]
            problem, x, structure, data, _ = make(seed)
            problem = ForwardProblem(A=laid_out(problem.A, layout), b=problem.b)
            sol = io_recover.solve(model, problem, x, structure, **{"prior" if model.is_sd else "omega": data})
            if sol.status not in (Status.OPTIMAL, Status.TRIVIAL_DETECTED):
                return
        got = check_certificate(model, problem, x, structure, sol).residuals["dual.cost_match"]
        assert got.hex() == cost_match_by_row(model, problem, np.asarray(x, dtype=float), structure, sol).hex()


class TestOnlyRowsThatCanVanishAreFormed:
    """The all-orthant test forms the deviation of only the rows whose
    coefficients all pass |a_ij| - (a_ij - (a_ij - alpha_ij)) <= 1e-9, and
    reports what forming every row reports (`oracle.nontriviality_by_every_row`)."""

    @given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["iu", "ccu"]),
           layout=st.sampled_from(["C", "F", "strided"]))
    @settings(derandomize=True, max_examples=600, deadline=None)
    @example(seed=141, family="iu", layout="C")  # kills a filter of |a_ij| - alpha_ij <= 1e-9
    @example(seed=655, family="iu", layout="C")  # kills a strict < 1e-9
    def test_matches_forming_every_row(self, seed, family, layout):
        # rows built to vanish at the all-plus point and moved a few ulps, off-J_i entries at and
        # next to 1e-9, zero products, magnitudes across the floats (`gen.edge_rows`)
        model, problem, _, structure, sol = gen.edge_rows(seed, family)
        problem = ForwardProblem(A=laid_out(problem.A, layout), b=problem.b)
        mask = structure.mask(problem.n)
        assert (_nontriviality(model, problem, structure, mask, sol)
                == nontriviality_by_every_row(model, problem, structure, mask, sol))

    def test_a_certificate_ranks_the_rows_once(self, calls):
        problem, x, structure, omega = gen.make_dg_box(ModelKind.RLO_CCU_DG, 20, 5, 3)
        sol = io_recover.solve(ModelKind.RLO_CCU_DG, problem, x, structure, omega=omega)
        calls.clear()
        report = check_certificate(ModelKind.RLO_CCU_DG, problem, x, structure, sol)
        assert report.nontriviality["rows_nonzero_all_orthants"]
        assert calls["ranked_rows"] == problem.m  # the deviation block at x, nothing at the all-plus point

    def test_a_row_that_can_vanish_is_ranked_at_the_all_plus_point(self, calls):
        # row 3 is its magnitudes, so at the full budget it vanishes in the orthant x >= 0
        problem, x, structure, omega = gen.make_dg_box(ModelKind.RLO_CCU_DG, 20, 5, 3)
        sol = io_recover.solve(ModelKind.RLO_CCU_DG, problem, x, structure, omega=omega)
        A = np.array(problem.A)
        A[2] = structure.alpha[2]
        calls.clear()
        report = check_certificate(ModelKind.RLO_CCU_DG, ForwardProblem(A=A, b=problem.b), x, structure,
                                   replace(sol, imputed=np.where(np.arange(20) == 2, 5.0, sol.imputed)))
        assert not report.nontriviality["rows_nonzero_all_orthants"]
        assert calls["ranked_rows"] == problem.m + 1
