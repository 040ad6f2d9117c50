from dataclasses import replace

import numpy as np
import pytest

import gen
from io_recover import (
    ForwardProblem,
    GridOracleSpec,
    GridTooLargeError,
    InverseSolution,
    ModelKind,
    PreconditionError,
    PriorEpsilon,
    RhsEpsilon,
    SideConstraints,
    Status,
    UncertaintyStructure,
    WeightBoost,
    brute_force_min,
    check_certificate,
    diagnose_trivial,
    solve_nlo_sd,
    solve_rlo_iu_dg,
)
from io_recover.fixtures import all_examples, example_case, solve_case
from io_recover.verify import REPORT_TOL


def _solved(number):
    case = example_case(number)
    return case, solve_case(case)


class TestCertificateCorpus:
    @pytest.mark.parametrize("number", range(1, 9))
    def test_fixture_certificates_valid(self, number):
        case, sol = _solved(number)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, sol)
        assert report.verdict == "valid", report.reason
        for name, value in report.certificate.residuals.items():
            assert value <= REPORT_TOL, (name, value)

    def test_example1_gap_reported(self):
        case, sol = _solved(1)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, sol)
        assert report.duality_gap == pytest.approx(2.0, abs=1e-9)
        assert report.strong_duality_residual is None

    def test_sd_strong_duality_residual(self):
        for number in (2, 4, 6):
            case, sol = _solved(number)
            report = check_certificate(case.model, case.problem, case.x_hat, case.structure, sol)
            assert report.strong_duality_residual <= 1e-9

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
        assert report.primal_residuals["feasibility"] == pytest.approx(1e-3, abs=1e-9)

    def test_dual_cost_match_flip(self):
        case, sol = _solved(1)
        bad = replace(sol, cost=np.array(sol.cost) + 1e-3)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert report.verdict == "invalid"
        assert report.dual_residuals["cost_match"] > REPORT_TOL

    def test_normalization_flip(self):
        case, sol = _solved(3)
        bad = replace(sol, dual_pi=np.array(sol.dual_pi) * (1.0 + 1e-3))
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert report.verdict == "invalid"
        assert report.normalization_residual > REPORT_TOL

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
        assert report.dual_residuals["pi_nonneg"] > REPORT_TOL

    def test_strong_duality_flip(self):
        case, sol = _solved(4)
        pi = np.zeros(case.problem.m)
        pi[0] = 1.0  # row 1 is slack at the observation, so b' pi changes
        bad = replace(sol, dual_pi=pi)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert report.verdict == "invalid"
        assert "strong_duality" in report.certificate.residuals
        assert report.certificate.residuals["strong_duality"] > REPORT_TOL

    def test_gap_consistency_flip(self):
        case, sol = _solved(5)
        bad = replace(sol, duality_gap=sol.duality_gap + 1e-3)
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert report.verdict == "invalid"
        assert report.consistency_residuals["gap_consistency"] > REPORT_TOL

    def test_active_row_consistency_flip(self):
        case, sol = _solved(6)
        bad = replace(sol, active_index=1)  # row 1 realization differs from the cost
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, bad)
        assert report.verdict == "invalid"
        assert report.consistency_residuals["cost_is_active_row"] > REPORT_TOL


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
    for case in all_examples():
        sol = solve_case(case)
        if sol.status not in (Status.OPTIMAL, Status.TRIVIAL_DETECTED):
            continue
        assert float(np.sum(sol.dual_pi)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(sol.dual_pi >= 0.0)
        assert sol.duality_gap >= -1e-9
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, sol)
        assert report.verdict == "valid", (case.number, report.reason)
