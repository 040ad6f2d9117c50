import importlib.util
import math
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen
from io_recover import (
    DimensionError,
    ForwardProblem,
    Constraints,
    LinearProgram,
    LpStatus,
    ModelKind,
    NormKind,
    PreconditionError,
    Prior,
    SideConstraints,
    Status,
    UncertaintyStructure,
    check_certificate,
    realized_row_interval,
    solve_lp,
    solve_lp_batch,
    solve_rlo_iu_dg,
    solve_rlo_iu_sd,
    validate,
)
from io_recover import interval, model
from io_recover.geometry import dual_kind, dual_norm_maximizer, norm_value, row_dots, row_norms
from io_recover.fixtures import evaluate_example, example_case
from oracle import LEAST_SUBNORMAL, brute_force_min, exact_l2_raise, gamma, oracle_tolerance


def joint_t(problem, x, structure, prior):
    """Per-candidate-row optima of the joint strong-duality LP: every row's
    magnitudes at once, row `target` robust-active and the others
    robust-feasible.  The reference the per-row LPs must reproduce."""
    m = problem.m
    keys = [(i, j) for i in range(m) for j in structure.sets[i]]
    p = len(keys)
    l1 = prior.norm == NormKind.L1
    epi = p if l1 else m
    w = prior.weights(m)
    objective = np.concatenate([np.zeros(p), [w[i] for i, _ in keys] if l1 else w])
    base = []
    for k, (i, j) in enumerate(keys):
        for sign in (1.0, -1.0):
            row = np.zeros(p + epi)
            row[k] = sign
            row[p + (k if l1 else i)] = -1.0
            base.append((row, sign * prior.estimates[i, j]))
    load = np.zeros((m, p + epi))
    for k, (i, j) in enumerate(keys):
        load[i, k] = abs(x[j])
    surplus = problem.surplus(x)
    A = np.vstack([row for row, _ in base] + [load])
    rhs = [r for _, r in base] + list(surplus)
    t = np.full(m, np.inf)
    for target in range(m):
        sense = ("<=",) * len(base) + tuple("=" if i == target else "<=" for i in range(m))
        out = solve_lp(LinearProgram(objective, Constraints(A, sense, rhs, np.zeros(p + epi))))
        if out.status == LpStatus.OPTIMAL:
            t[target] = out.value
    return t


def _deviation(sol, structure, prior):
    """Weighted distance of the imputed magnitudes from the prior."""
    w = prior.weights(len(structure.sets))
    total = 0.0
    for i, cols in enumerate(structure.sets):
        d = np.abs(sol.imputed[i, list(cols)] - prior.estimates[i, list(cols)])
        total += w[i] * (d.sum() if prior.norm == NormKind.L1 else d.max())
    return total


def _all_uncertain_10x5(seed=5):
    rng = np.random.default_rng(seed)
    m, n = 10, 5
    x = rng.uniform(0.5, 2.0, n) * np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    A = rng.uniform(-2.0, 2.0, (m, n))
    A *= np.where(A @ x < 0.0, -1.0, 1.0)[:, None]
    ax = A @ x
    b = ax - rng.uniform(0.1, 0.9, m) * ax
    structure = UncertaintyStructure.interval([tuple(range(n))] * m)
    prior = Prior(estimates=rng.uniform(0.0, 0.5, (m, n)) * np.abs(A), norm=NormKind.L1)
    return ForwardProblem(A=A, b=b), x, structure, prior


def test_example_3_checks():
    _, solution, checks = evaluate_example(3)
    assert solution.status == Status.OPTIMAL
    for chk in checks:
        assert chk.ok, (chk.name, chk.computed, chk.expected)


def test_example_4_checks():
    _, solution, checks = evaluate_example(4)
    assert solution.status == Status.OPTIMAL
    for chk in checks:
        assert chk.ok, (chk.name, chk.computed, chk.expected)


class TestIuDg:
    def test_lp_call_count_is_m(self, calls):
        # fixture 3's one coupling row, twice: the m LPs; once: the closed form
        case = example_case(3)
        solve_rlo_iu_dg(case.problem, case.x_hat, case.structure, gen.two_couplings(case.omega))
        assert calls["lp_solve"] == case.problem.m
        calls.clear()
        solve_rlo_iu_dg(case.problem, case.x_hat, case.structure, case.omega)
        assert calls["lp_solve"] == 0

    def test_one_equality_form_serves_all_m_lps(self, std_builds, calls):
        # the all-ones rows never bind but couple the rows, so every LP
        # spans every row's magnitudes
        problem, x, structure, _ = _all_uncertain_10x5()
        omega = gen.two_couplings(gen.couple_rows(SideConstraints(G=np.eye(50), h=np.full(50, 3.0))))
        sol = solve_rlo_iu_dg(problem, x, structure, omega)
        assert sol.status == Status.OPTIMAL
        assert calls["lp_solve"] == problem.m
        assert len(std_builds) == 1

    def test_box_only_omega_runs_no_lp(self, std_builds, calls, monkeypatch):
        monkeypatch.setattr(model, "Constraints", None)  # building one would raise
        for seed in range(5):
            problem, x, structure, omega, _ = gen.make_iu_dg(seed)
            sol = solve_rlo_iu_dg(problem, x, structure, omega)
            assert sol.status in (Status.OPTIMAL, Status.TRIVIAL_DETECTED)
        assert calls["lp_solve"] == 0
        assert std_builds == []

    def test_box_only_fill_takes_the_largest_load_first(self):
        # surplus 3, box [0.1, 1]: columns 2 and 3 tie on the largest load, so column 2
        # rises to 1 and column 3 takes the rest; column 4 (load 0) keeps 0.1
        prob = ForwardProblem(A=[[1.0, 1.0, 1.0, 1.0]], b=[-2.0])
        x = [1.0, -2.0, 2.0, 0.0]
        structure = UncertaintyStructure.interval(((0, 1, 2, 3),))
        omega = SideConstraints(G=np.vstack([np.eye(4), -np.eye(4)]), h=[1.0] * 4 + [-0.1] * 4)
        sol = solve_rlo_iu_dg(prob, x, structure, omega)
        assert sol.imputed[0] == pytest.approx([0.1, 1.0, 0.45, 0.1], abs=1e-12)
        assert sol.duality_gap == 0.0

    def test_empty_uncertain_set_rejected(self):
        prob = ForwardProblem(A=[[1.0, 0.0], [0.0, 1.0]], b=[0.0, 0.0])
        structure = UncertaintyStructure.interval(((0,), ()))
        with pytest.raises(PreconditionError):
            solve_rlo_iu_dg(prob, [1.0, 1.0], structure, None)

    def test_zero_magnitudes_forced_gives_min_nominal_surplus(self):
        case = example_case(3)
        p = 4
        omega = SideConstraints(G=np.vstack([np.eye(p), -np.eye(p)]), h=np.zeros(2 * p))
        sol = solve_rlo_iu_dg(case.problem, case.x_hat, case.structure, omega)
        surpluses = case.problem.surplus(case.x_hat)
        assert sol.duality_gap == pytest.approx(float(np.min(surpluses)), abs=1e-9)

    def test_infeasible_when_omega_blocks_robust_feasibility(self):
        # forcing a large magnitude on a tight row drives the robust surplus negative
        prob = ForwardProblem(A=[[1.0, 0.0]], b=[0.5])
        structure = UncertaintyStructure.interval(((0,),))
        omega = SideConstraints(G=[[-1.0]], h=[-3.0])  # alpha >= 3
        sol = solve_rlo_iu_dg(prob, [1.0, 1.0], structure, omega)
        assert sol.status == Status.INFEASIBLE

    def test_realized_cost_identity(self):
        case = example_case(3)
        sol = solve_rlo_iu_dg(case.problem, case.x_hat, case.structure, case.omega)
        k = sol.active_index - 1
        assert float(sol.cost @ case.x_hat) - case.problem.b[k] == pytest.approx(
            sol.duality_gap, abs=1e-9
        )

    def test_unconstrained_magnitudes_close_the_gap(self):
        # with no side constraints the winning row's protection absorbs the
        # whole surplus
        case = example_case(3)
        sol = solve_rlo_iu_dg(case.problem, case.x_hat, case.structure, None)
        assert sol.status == Status.OPTIMAL
        assert sol.duality_gap == pytest.approx(0.0, abs=1e-9)

    def test_robust_feasibility_of_the_imputed_magnitudes(self):
        case = example_case(3)
        sol = solve_rlo_iu_dg(case.problem, case.x_hat, case.structure, case.omega)
        absx = np.abs(case.x_hat)
        for i in range(case.problem.m):
            prot = float(sol.imputed[i] @ absx)
            assert case.problem.surplus(case.x_hat)[i] - prot >= -1e-9

    def test_oracle_agreement_random_boxes(self):
        for seed in range(30):
            problem, x, structure, omega, spec = gen.make_iu_dg(seed)
            sol = solve_rlo_iu_dg(problem, x, structure, omega)
            assert sol.status in (Status.OPTIMAL, Status.TRIVIAL_DETECTED)
            value, _ = brute_force_min(
                ModelKind.RLO_IU_DG, problem, x, structure, omega, spec
            )
            tol = oracle_tolerance(ModelKind.RLO_IU_DG, problem, x, structure, spec)
            assert abs(sol.duality_gap - value) <= tol, (seed, sol.duality_gap, value, tol)


    def test_contradictory_side_constraints(self, calls):
        case = example_case(3)
        p = sum(len(s) for s in case.structure.sets)
        G = np.zeros((1, p))
        G[0, 0] = 1.0
        omega = SideConstraints(G=G, h=np.array([-1.0]))  # a magnitude <= -1, below its floor 0
        sol = solve_rlo_iu_dg(case.problem, case.x_hat, case.structure, omega)
        assert sol.status == Status.INFEASIBLE
        assert sol.message == "side constraints are contradictory"
        assert calls["lp_solve"] == 0


class TestIuSd:
    def test_lp_call_count_is_m(self, calls):
        # the rows are projections in closed form: no LP, whatever the norm
        case = example_case(4)
        for norm in NormKind:
            sol = solve_rlo_iu_sd(case.problem, case.x_hat, case.structure, Prior(case.prior.estimates, norm=norm))
            assert sol.status == Status.OPTIMAL
        assert calls["lp_solve"] == 0

    def test_l2_prior_validates_and_certifies(self):
        case = example_case(4)
        prior = Prior(case.prior.estimates, norm=NormKind.L2)
        # the norm adds no validation entry
        report = validate(case.problem, case.x_hat, case.structure, case.model, prior=prior)
        assert report == validate(case.problem, case.x_hat, case.structure, case.model, prior=case.prior)
        sol = solve_rlo_iu_sd(case.problem, case.x_hat, case.structure, prior)
        assert sol.status == Status.OPTIMAL
        report = check_certificate(case.model, case.problem, case.x_hat, case.structure, sol)
        assert report.verdict == "valid"

    def test_no_row_can_be_made_robust_active(self, calls):
        # the observation is 0 on every uncertain column, so no magnitude
        # moves a row, and every row keeps a positive surplus
        problem = ForwardProblem(A=[[1.0, 1.0], [2.0, 1.0]], b=[0.0, 0.5])
        structure = UncertaintyStructure.interval(((0,), (0,)))
        prior = Prior(estimates=[[0.5, 0.0], [0.2, 0.0]], norm=NormKind.L1)
        sol = solve_rlo_iu_sd(problem, [0.0, 1.0], structure, prior)
        assert sol.status == Status.INFEASIBLE
        assert sol.message == "no constraint can be made robust-active at the observation"
        assert calls["lp_solve"] == 0

    def test_infeasible_iff_nominal_infeasible(self):
        case = example_case(4)
        rng = np.random.default_rng(4)
        for _ in range(60):
            x = rng.uniform(-8, 8, size=2)
            sol = solve_rlo_iu_sd(case.problem, x, case.structure, case.prior)
            nominal_ok = bool(np.min(case.problem.surplus(x)) >= -1e-9)
            assert (sol.status != Status.INFEASIBLE) == nominal_ok

    def test_infeasible_message_names_violated_row(self):
        case = example_case(4)
        sol = solve_rlo_iu_sd(case.problem, [9.0, 9.0], case.structure, case.prior)
        assert sol.status == Status.INFEASIBLE
        assert "constraint 3" in sol.message

    def test_active_prior_row_needs_no_perturbation(self):
        prob = ForwardProblem(A=[[1.0, 1.0], [0.0, 1.0]], b=[2.0, 0.0])
        structure = UncertaintyStructure.interval(((0,), (1,)))
        prior = Prior(estimates=np.zeros((2, 2)), norm=NormKind.L1)
        sol = solve_rlo_iu_sd(prob, [1.0, 1.0], structure, prior)
        assert sol.objective_value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(sol.imputed, 0.0, atol=1e-9)

    def test_shrinkage_sampled(self):
        case = example_case(4)
        sol = solve_rlo_iu_sd(case.problem, case.x_hat, case.structure, case.prior)
        rng = np.random.default_rng(10)
        A, b = case.problem.A, case.problem.b
        for _ in range(1000):
            pt = rng.uniform(-10, 10, size=2)
            robust_ok = all(
                float(
                    realized_row_interval(A[i], sol.imputed[i], case.structure.sets[i], pt) @ pt
                )
                >= b[i] - 1e-9
                for i in range(3)
            )
            nominal_ok = bool(np.min(A @ pt - b) >= -1e-9)
            assert not (robust_ok and not nominal_ok)

    def test_certificate_residuals(self):
        case = example_case(4)
        sol = solve_rlo_iu_sd(case.problem, case.x_hat, case.structure, case.prior)
        report = check_certificate(
            ModelKind.RLO_IU_SD, case.problem, case.x_hat, case.structure, sol
        )
        assert report.verdict == "valid"
        assert report.residuals["strong_duality"] <= 1e-9
        for val in report.residuals.values():
            assert val <= 1e-9

    def test_realized_cost_identity(self):
        case = example_case(4)
        sol = solve_rlo_iu_sd(case.problem, case.x_hat, case.structure, case.prior)
        k = sol.active_index - 1
        assert float(sol.cost @ case.x_hat) - case.problem.b[k] == pytest.approx(0.0, abs=1e-9)

    def test_oracle_agreement_random(self):
        for seed in range(25):
            problem, x, structure, prior, spec = gen.make_iu_sd(seed)
            sol = solve_rlo_iu_sd(problem, x, structure, prior)
            assert sol.status == Status.OPTIMAL
            value, _ = brute_force_min(
                ModelKind.RLO_IU_SD, problem, x, structure, prior, spec
            )
            tol = oracle_tolerance(
                ModelKind.RLO_IU_SD, problem, x, structure, spec, prior=prior
            )
            assert abs(sol.objective_value - value) <= tol, (
                seed,
                sol.objective_value,
                value,
                tol,
            )

    def test_per_constraint_reports_f_and_g(self):
        case = example_case(4)
        sol = solve_rlo_iu_sd(case.problem, case.x_hat, case.structure, case.prior)
        pc = sol.per_constraint
        assert pc["f"] == pytest.approx([1.5, 1.5, 1.0], abs=1e-12)
        assert pc["g"] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        assert pc["t"] == pytest.approx([1.5, 1.5, 1.0], abs=1e-12)
        assert sol.active_index == 3

    @pytest.mark.parametrize("norm", list(NormKind))
    def test_zero_weight_keeps_an_unreachable_row_at_inf(self, norm):
        # row 1 must rise, but x_0 = 0 loads none of its columns: its distance is inf,
        # and its zero weight keeps f = inf (0 * inf would read NaN)
        problem = ForwardProblem(A=[[1.0, 0.0], [0.0, 1.0]], b=[-1.0, 0.5])
        structure = UncertaintyStructure.interval(((0,), (1,)))
        prior = Prior(estimates=[[0.2, 0.0], [0.0, 0.1]], xi=[0.0, 1.0], norm=norm)
        sol = solve_rlo_iu_sd(problem, [0.0, 1.0], structure, prior)
        assert sol.status == Status.OPTIMAL
        assert sol.per_constraint["f"][0] == np.inf
        assert sol.per_constraint["f"][1] == pytest.approx(0.4, abs=1e-15)
        assert sol.active_index == 2

    @pytest.mark.parametrize("variant", ["plain", "l1-weights", "linf-weights"])
    def test_matches_joint_lp(self, variant):
        rng = np.random.default_rng({"plain": 0, "l1-weights": 1, "linf-weights": 2}[variant])
        for seed in range(25):
            problem, x, structure, prior, _ = gen.make_iu_sd(seed)
            if variant != "plain":
                xi = rng.uniform(0.1, 3.0, problem.m)
                prior = Prior(prior.estimates, xi=xi, norm=variant.split("-")[0])
            sol = solve_rlo_iu_sd(problem, x, structure, prior)
            t_ref = joint_t(problem, x, structure, prior)
            t = sol.per_constraint["t"]
            tol = 1e-9 * (1.0 + np.abs(np.where(np.isfinite(t_ref), t_ref, 0.0)))
            assert np.array_equal(np.isfinite(t), np.isfinite(t_ref)), seed
            finite = np.isfinite(t_ref)
            assert np.all(np.abs(t[finite] - t_ref[finite]) <= tol[finite]), (seed, t, t_ref)
            best = float(np.min(t_ref))
            assert abs(sol.objective_value - best) <= 1e-9 * (1.0 + abs(best)), seed
            assert t[sol.active_index - 1] <= float(np.min(t)) + 1e-9 * (1.0 + abs(best)), seed
            # the imputed magnitudes attain the objective and keep every row
            # robust-feasible, with the active row robust-active
            assert _deviation(sol, structure, prior) == pytest.approx(sol.objective_value, abs=1e-9)
            protection = sol.imputed @ np.abs(x)
            slack = problem.surplus(x) - protection
            assert np.all(slack >= -1e-9), seed
            assert slack[sol.active_index - 1] == pytest.approx(0.0, abs=1e-9)

    def test_tied_rows_activate_the_lower_index(self):
        # rows 2 and 3 have prior rows that do not fit, so both premiums
        # f - g are exactly 0; row 1 fits and has a positive premium
        x = np.array([1.3, -0.7])
        problem = ForwardProblem(A=[[2.0, 0.5], [2.0, 0.5], [2.0, 0.5]], b=[1.0, 1.0, 1.0])
        structure = UncertaintyStructure.interval(((0, 1),) * 3)
        est = np.array([[0.1, 0.2], [0.7, 0.9], [0.6, 0.8]])
        for norm in (NormKind.L1, NormKind.LINF):
            prior = Prior(estimates=est, norm=norm)
            first = solve_rlo_iu_sd(problem, x, structure, prior)
            f, g = first.per_constraint["f"], first.per_constraint["g"]
            assert g[0] == 0.0 and f[0] > 0.0
            assert f[1] == g[1] > 0.0 and f[2] == g[2] > 0.0
            assert first.active_index == 2
            for _ in range(5):
                again = solve_rlo_iu_sd(problem, x, structure, prior)
                assert again.active_index == 2
                assert np.array_equal(again.imputed, first.imputed)
                assert again.objective_value == first.objective_value


class TestIuSdNegativePrior:
    """A negative prior magnitude is rejected before any row is solved: the
    per-row rule g_i = 0 or f_i holds only for nonnegative priors."""

    problem = ForwardProblem(A=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 1.0])
    structure = UncertaintyStructure.interval(((0, 1), (0, 1)))
    x = np.array([2.0, 1.0])
    prior = Prior(estimates=[[-0.5, 0.2], [0.1, 0.1]], norm=NormKind.L1)

    def test_joint_optimum_differs_from_the_row_rule(self):
        # the joint LP's optimum is 1.35; the row rule would report 0.85
        assert float(np.min(joint_t(self.problem, self.x, self.structure, self.prior))) == pytest.approx(1.35)

    def test_solver_rejects(self, calls):
        with pytest.raises(DimensionError) as err:
            solve_rlo_iu_sd(self.problem, self.x, self.structure, self.prior)
        assert err.value.field == "prior.estimates"
        assert "alpha[1][1]" in str(err.value)
        assert calls["lp_solve"] == 0

    def test_validate_rejects(self):
        with pytest.raises(DimensionError) as err:
            validate(self.problem, self.x, self.structure, ModelKind.RLO_IU_SD, prior=self.prior)
        assert err.value.field == "prior.estimates"

    def test_negative_entry_off_the_uncertain_columns_is_ignored(self):
        structure = UncertaintyStructure.interval(((1,), (0, 1)))
        sol = solve_rlo_iu_sd(self.problem, self.x, structure, self.prior)
        assert sol.status == Status.OPTIMAL


def activation_lp(load, center, target, norm):
    """The LP the closed form replaced: the cheapest move of one row's
    magnitudes making the row robust-active, over the magnitudes and their
    deviation bounds (one per magnitude for l1, one shared for linf)."""
    k = load.size
    dev = -np.eye(k) if norm == NormKind.L1 else -np.ones((k, 1))
    bands = np.stack([np.hstack([np.eye(k), dev]), np.hstack([-np.eye(k), dev])], axis=1)  # up_j, down_j
    A = np.vstack([bands.reshape(2 * k, -1), np.concatenate([load, np.zeros(dev.shape[1])])])
    rhs = np.append(np.column_stack([center, -center]), target)
    objective = np.concatenate([np.zeros(k), np.ones(dev.shape[1])])
    return LinearProgram(objective, Constraints(A, ("<=",) * (2 * k) + ("=",), rhs, np.zeros(objective.size)))


def l2_activation_by_bisection(load, center, target):
    """alpha(lam) = max(0, center + lam * load) with load . alpha(lam) = target,
    lam found by bisection: the l2 projection's optimality condition."""
    def reach(lam):
        return float(load @ np.maximum(0.0, center + lam * load))

    lo, hi = -1.0, 1.0
    while reach(lo) > target:
        lo *= 2.0
    while reach(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if reach(mid) < target else (lo, mid)
    alpha = np.maximum(0.0, center + 0.5 * (lo + hi) * load)
    return alpha, float(np.linalg.norm(alpha - center))


def _bench_instances():
    spec = importlib.util.spec_from_file_location(
        "bench_instances", Path(__file__).resolve().parent.parent / "bench" / "instances.py"
    )
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    return instances


def activation_rows():
    """(load, center, target) of every row of the rlo-iu-sd draws of
    `gen.make_iu_sd` (seeds 0-199) and of the benchmark's draws at 10 x 5,
    20 x 10 and 40 x 10 (seeds 1-3, both tilts)."""
    rows = []
    for seed in range(200):
        problem, x, structure, prior, _ = gen.make_iu_sd(seed)
        surplus = problem.surplus(x)
        for i, cols in enumerate(structure.sets):
            rows.append((np.abs(x[list(cols)]), prior.estimates[i, list(cols)], surplus[i]))
    instances = _bench_instances()
    for m, n in ((10, 5), (20, 10), (40, 10)):
        for seed in (1, 2, 3):
            for tilt in (1.0, -1.0):
                inst = instances.generate("rlo-iu-sd", m, n, seed, 1, tilt, "l1")
                surplus = inst.A @ inst.x - inst.b
                rows += [(np.abs(inst.x), inst.alpha[i], surplus[i]) for i in range(m)]
    return rows


class TestActivation:
    """`interval._activation`, the closed form of rlo-iu-sd's row subproblem."""

    def _check_feasible(self, alpha, load, target):
        assert np.all(alpha >= 0.0)
        assert abs(float(load @ alpha) - target) <= 1e-9 * (1.0 + abs(target))

    @pytest.mark.parametrize("norm", [NormKind.L1, NormKind.LINF])
    def test_matches_the_row_lp(self, norm):
        rows = activation_rows()
        outcomes = solve_lp_batch([activation_lp(load, center, target, norm) for load, center, target in rows])
        for (load, center, target), out in zip(rows, outcomes):
            assert out.status == LpStatus.OPTIMAL
            alpha, distance = interval._activation(load, center, target, norm)
            assert abs(distance - out.value) <= 1e-12 * (1.0 + abs(out.value))
            self._check_feasible(alpha, load, target)
            assert norm_value(alpha - center, norm) == pytest.approx(distance, rel=1e-12, abs=1e-15)

    def test_l2_matches_bisection(self):
        for load, center, target in activation_rows():
            alpha, distance = interval._activation(load, center, target, NormKind.L2)
            self._check_feasible(alpha, load, target)
            ref_alpha, ref_distance = l2_activation_by_bisection(load, center, target)
            assert abs(distance - ref_distance) <= 1e-12 * (1.0 + ref_distance)
            assert np.allclose(alpha, ref_alpha, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("norm", list(NormKind))
    def test_zero_loads_keep_their_centre(self, norm):
        load = np.array([0.0, 2.0, 0.0, 1.0])
        center = np.array([0.3, 0.1, 0.7, 0.2])
        for target in (0.0, 0.3, 5.0):
            alpha, _ = interval._activation(load, center, target, norm)
            assert alpha[[0, 2]] == pytest.approx(center[[0, 2]], abs=0.0)
            self._check_feasible(alpha, load, target)
        zero = np.zeros(4)
        assert interval._activation(zero, center, 0.0, norm) == (pytest.approx(center, abs=0.0), 0.0)
        assert interval._activation(zero, center, 0.5, norm)[1] == np.inf

    def test_l2_raise_with_tiny_loads_is_finite(self):
        # load . load underflows: the loads' l2 norm is rescaled, not read as 0
        load = np.array([1e-300, 1e-301])
        alpha, distance = interval._activation(load, np.zeros(2), 3.0, NormKind.L2)
        assert distance == pytest.approx(3.0 / (1e-300 * 1.01**0.5), rel=1e-12)
        assert float(load @ alpha) == pytest.approx(3.0, rel=1e-12)

    def test_l2_cut_with_a_breakpoint_past_the_floats(self):
        # 1e10 / 1e-300 overflows: that breakpoint reads inf and goes first, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha, distance = interval._activation([1e-300, 1.0], [1e10, 1.0], 0.5, NormKind.L2)
        assert (alpha.tolist(), distance) == ([1e10, 0.5], 0.5)

    def test_l1_ties_move_the_lowest_index(self):
        load = np.array([1.0, 2.0, 2.0, 1.0])
        center = np.array([0.5, 0.25, 0.25, 0.5])  # load . center = 2
        alpha, distance = interval._activation(load, center, 3.0, NormKind.L1)
        assert alpha == pytest.approx([0.5, 0.75, 0.25, 0.5], abs=1e-15)
        assert distance == pytest.approx(0.5, abs=1e-15)
        # lowering by 1.25: both load-2 columns go to 0 (1.0), then column 0 gives 0.25
        alpha, distance = interval._activation(load, center, 0.75, NormKind.L1)
        assert alpha == pytest.approx([0.25, 0.0, 0.0, 0.5], abs=1e-15)
        assert distance == pytest.approx(0.75, abs=1e-15)


def activation_by_row(load, center, target, norm):
    """One row's activation, swept over its loaded columns alone: the
    reference `interval._activations` is pinned to.  Its dot and norms are
    the geometry's row kernels on the whole row as a one-row view, unloaded
    columns included, as the m-row kernel takes them; an l2 raise is priced
    in units of the largest load where load . load under- or overflows."""
    alpha = np.array(center, dtype=float)
    on = load > 0.0
    dots = float(row_dots(load[None], alpha)[0])
    gap = target - dots
    if gap == 0.0 or not on.any():
        return alpha, 0.0 if gap == 0.0 else math.inf
    ell, c = load[on], alpha[on]
    if gap > 0.0:
        if norm == NormKind.L2:
            big = 1.0 if 1e-150 <= math.sqrt(row_dots(load[None], load)[0]) < math.inf else float(ell.max())
            unit = float(row_norms(load[None] / big, norm)[0])
            per = float(gap) / big
            amount, v = per / unit if per < math.inf else float(gap) / unit / big, ell / big / unit
        else:
            amount, v = float(gap) / float(row_norms(load[None], dual_kind(norm))[0]), dual_norm_maximizer(ell, norm)
        if amount == math.inf:  # no float move reaches the target
            return alpha, math.inf
        move = amount * v
    elif norm == NormKind.L1:  # every loaded column to 0 when the row's dot says that is not too far
        move = -c if dots <= -gap else -interval._fill(ell, np.zeros(ell.size), c, -gap)
    else:
        step = ell if norm == NormKind.L2 else np.ones(ell.size)
        order = np.argsort(c / step, kind="stable")
        rest = np.cumsum((ell * c)[order][::-1])[::-1]
        slope = np.cumsum((ell * step)[order][::-1])[::-1]
        k = min(int(np.sum(rest - (c / step)[order] * slope > target)), ell.size - 1)
        move = -np.minimum(c, (rest[k] - target) / slope[k] * step)
    alpha[on] = c + move
    whole = np.zeros(load.size)
    whole[on] = move
    return alpha, float(row_norms(whole[None], norm)[0])


def _edge_block():
    """Rows at the kernel's edges, on four columns: zero loads (x_j = 0 on an
    uncertain column) with the centre fitting, short and exact; gap == 0;
    loads of 1e-300 and 1e-301; partial column sets; l1 ties."""
    rows = [  # (columns, loads, centres, target)
        ((0, 1, 2, 3), (0.0, 2.0, 0.0, 1.0), (0.3, 0.1, 0.7, 0.2), 0.0),
        ((0, 1, 2, 3), (0.0, 2.0, 0.0, 1.0), (0.3, 0.1, 0.7, 0.2), 0.3),
        ((0, 1, 2, 3), (0.0, 2.0, 0.0, 1.0), (0.3, 0.1, 0.7, 0.2), 5.0),
        ((0, 1, 2, 3), (0.0, 0.0, 0.0, 0.0), (0.3, 0.1, 0.7, 0.2), 0.0),
        ((0, 1, 2, 3), (0.0, 0.0, 0.0, 0.0), (0.3, 0.1, 0.7, 0.2), 0.5),
        ((1, 3), (0.0, 0.0, 0.0, 0.0), (0.0, 0.4, 0.0, 0.2), -1e-10),
        ((0, 1, 2), (1.0, 2.0, 0.5, 0.0), (0.2, 0.3, 0.4, 0.0), 1.0),  # gap == 0: 0.2 + 0.6 + 0.2
        ((0, 1), (1e-300, 1e-301, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), 3.0),
        ((0, 1), (1e-300, 1e-301, 0.0, 0.0), (0.5, 0.25, 0.0, 0.0), 3.0),
        ((0, 1), (1e-300, 1e-301, 0.0, 0.0), (0.5, 0.25, 0.0, 0.0), 0.0),
        ((0, 1), (1e-300, 1e-301, 0.0, 0.0), (0.5, 0.25, 0.0, 0.0), 2e-301),
        ((0, 2), (1.5, 0.0, 0.5, 0.0), (0.4, 0.0, 0.8, 0.0), 0.2),
        ((2,), (0.0, 0.0, 3.0, 0.0), (0.0, 0.0, 0.1, 0.0), 0.9),
        ((0, 1, 2, 3), (1.0, 2.0, 2.0, 1.0), (0.5, 0.25, 0.25, 0.5), 3.0),
        ((0, 1, 2, 3), (1.0, 2.0, 2.0, 1.0), (0.5, 0.25, 0.25, 0.5), 0.75),
        ((0, 1, 2, 3), (1.0, 2.0, 2.0, 1.0), (0.5, 0.25, 0.25, 0.5), 0.0),
        ((1, 2, 3), (0.0, 1.0, 1.0, 1.0), (0.0, 0.3, 0.1, 0.2), 0.3),
    ]
    mask = np.zeros((len(rows), 4), dtype=bool)
    for i, (cols, *_) in enumerate(rows):
        mask[i, list(cols)] = True
    load, center, target = (np.array([row[k] for row in rows], dtype=float) for k in (1, 2, 3))
    return mask, np.where(mask, load, 0.0), np.where(mask, center, 0.0), target


def activation_blocks():
    """(mask, load, center, target) blocks as rlo-iu-sd hands them to
    `interval._activations`: every draw of `gen.make_iu_sd` (seeds 0-199);
    the benchmark's draws at 3 x 2 to 40 x 10 (seeds 1-3, both tilts) with
    every column uncertain, and again on random partial column sets with
    some x_j = 0; and `_edge_block`."""
    blocks = []
    for seed in range(200):
        problem, x, structure, prior, _ = gen.make_iu_sd(seed)
        mask = structure.mask(problem.n)
        blocks.append((mask, np.where(mask, np.abs(x), 0.0), np.where(mask, prior.estimates, 0.0), problem.surplus(x)))
    instances = _bench_instances()
    rng = np.random.default_rng(0)
    for m, n in ((3, 2), (6, 3), (10, 5), (20, 10), (40, 10)):
        for seed in (1, 2, 3):
            for tilt in (1.0, -1.0):
                inst = instances.generate("rlo-iu-sd", m, n, seed, 1, tilt, "l1")
                partial = rng.random((m, n)) < 0.6
                partial[np.arange(m), rng.integers(0, n, m)] = True
                for mask, x in ((np.ones((m, n), dtype=bool), inst.x),
                                (partial, np.where(rng.random(n) < 0.3, 0.0, inst.x))):
                    surplus = np.maximum(inst.A @ x - inst.b, 0.0)
                    blocks.append((mask, np.where(mask, np.abs(x), 0.0), np.where(mask, inst.alpha, 0.0), surplus))
    return blocks + [_edge_block()]


class TestActivationsKernel:
    """`interval._activations`, every row at once, against `activation_by_row`."""

    @pytest.mark.parametrize("norm", list(NormKind))
    def test_matches_the_row_by_row_form(self, norm):
        # Bit for bit: the row-by-row form takes its dot and norms over the whole row, as the
        # kernel does.  An l2 cut on loads below 1e-150 squares them past the floats row by row;
        # the kernel rescales them, and is held to the row-by-row form on loads and target
        # rescaled alike.
        for mask, load, center, target in activation_blocks():
            alpha, distance, fits = interval._activations(load, center, target, norm)
            for i, cols in enumerate(mask):
                assert np.all(alpha[i, ~cols] == 0.0)
                assert fits[i] == (load[i, cols] @ center[i, cols] <= target[i])
                big = np.max(load[i])
                if norm == NormKind.L2 and 0.0 < big < 1e-150 and not fits[i]:
                    ref_alpha, ref_distance = activation_by_row(load[i] / big, center[i], target[i] / big, norm)
                    assert alpha[i] == pytest.approx(ref_alpha, rel=1e-12, abs=1e-15)
                    assert distance[i] == pytest.approx(ref_distance, rel=1e-12)
                    continue
                ref_alpha, ref_distance = activation_by_row(load[i], center[i], target[i], norm)
                assert alpha[i].tobytes() == ref_alpha.tobytes() and distance[i] == ref_distance

    def test_one_row_view(self):
        mask, load, center, target = _edge_block()
        for norm in NormKind:
            alpha, distance, _ = interval._activations(load, center, target, norm)
            for i in range(target.size):
                row_alpha, row_distance = interval._activation(load[i], center[i], target[i], norm)
                assert row_alpha.tobytes() == alpha[i].tobytes() and row_distance == distance[i]


def _scattered_block(rng, m, n):
    """m rows of loads, centres and targets of 10^U(-320, 300), each row's load . centre in the
    floats: beyond them `check_inputs` rejects the observation."""
    load, center = 10.0 ** rng.uniform(-320.0, 300.0, (2, m, n))
    target = 10.0 ** rng.uniform(-320.0, 300.0, m)
    with np.errstate(over="ignore"):
        kept = np.isfinite(np.einsum("ij,ij->i", load, center))
    return load[kept], center[kept], target[kept]


class TestRaisedAgainstTheExactOracle:
    """An l2 raise from centres at 0 against its exact point gap load / ||load||^2.  Each
    coordinate keeps within gamma_{4n+30} of its exact value: the norm (gamma_{n+5}, or its
    rescaled form), the length gap / ||load||, the step load_j / ||load|| and their product
    each round.  A load below the floats' reach of the largest one rounds as a subnormal in
    the rescaled step, which costs each coordinate up to one least subnormal of the move's
    length; the distance, one more norm, keeps within gamma_{5n+35} of gap / ||load||."""

    @given(load=st.lists(st.floats(-320.0, 300.0).map(lambda e: 10.0 ** e), min_size=1, max_size=6),
           gap=st.floats(-320.0, 300.0).map(lambda e: 10.0 ** e))
    @example(load=[5e-324, 5e-324], gap=1e-16)  # the point read 1.41x too far when gap / ||load|| was rounded
    @example(load=[1e-320, 3e-321], gap=1e-16)
    @example(load=[5e-324, 5e-324], gap=1e-15)  # ||load|| rounds to 5e-324, under which no float move reached
    @example(load=[1e-300, 1e-300, 1e-300], gap=2e8)  # gap / largest load passes the floats, the move does not
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_l2_raise(self, load, gap):
        n = len(load)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha, distance = interval._activation(load, np.zeros(n), gap, NormKind.L2)
        point, length = exact_l2_raise(load, gap)
        if distance == math.inf:  # only a move at the largest float's edge, or past it, is out of reach
            assert length * (1 + Decimal(float(gamma(4 * n + 30)))) > Decimal(np.finfo(float).max)
            return
        tiny = Decimal(float(LEAST_SUBNORMAL)) * (1 + length)
        for got, exact in zip(alpha, point):
            assert abs(Decimal(float(got)) - exact) <= Decimal(float(gamma(4 * n + 30))) * exact + tiny
        assert abs(Decimal(distance) - length) <= Decimal(float(gamma(5 * n + 35))) * length + tiny


class TestActivationsAcrossTheFloats:
    """`interval._activations` on rows whose loads and centres span the float range."""

    def test_no_warning_and_no_nan(self):
        # Where the row-by-row form runs without a warning too, the answers agree bit for bit, except
        # on the l2 cuts the kernel rescales (largest load outside [1e-150, 1e150]).  There the
        # row-by-row form works in other units, and over this range it loses the target on some rows
        # even rescaled alike: loads (7.6e297, 1.3e-27), centres (4.2e-173, 4.1e203) and target
        # 1.1e-303 leave its second column at 4.1e203, a load of 5.5e176.
        compared = 0
        for seed in range(100):
            rng = np.random.default_rng([seed, 30])
            load, center, target = _scattered_block(rng, 40, int(rng.integers(1, 5)))
            for norm in NormKind:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    alpha, distance, fits = interval._activations(load, center, target, norm)
                assert np.all(np.isfinite(alpha)) and not np.isnan(distance).any(), (seed, norm)
                big = np.max(load, axis=1)
                rescaled = (norm == NormKind.L2) & ~fits & ((big < 1e-150) | (big > 1e150))
                for i in np.flatnonzero(~rescaled):
                    try:
                        with warnings.catch_warnings():
                            warnings.simplefilter("error")
                            ref_alpha, ref_distance = activation_by_row(load[i], center[i], target[i], norm)
                    except RuntimeWarning:
                        continue
                    if not fits[i] and np.any(ref_alpha > center[i]):
                        continue
                    assert alpha[i].tobytes() == ref_alpha.tobytes() and distance[i] == ref_distance, (seed, norm, i)
                    compared += 1
        assert compared > 7000

    @pytest.mark.parametrize(
        "load, center, target, norm",
        [([2.4e53, 5e276, 6.4e-276], [1.0, 1.0, 1.0], 0.5, NormKind.L2),  # a rescaled step underflows to 0
         ([3.6e-121, 2.9e48, 3.2e-111, 6.4e-78], [1.2e277, 3.7e176, 2.4e-22, 2.5e184], 1.7e124, NormKind.L2),
         ([3.7e38, 2.3e-200, 1.4e6, 3.4e4], [1.1e102, 8.0e198, 5.1e149, 3.9e108], 1.3e-160, NormKind.L1)],
        ids=["step underflows", "d past the floats", "cut past the floats"],
    )
    def test_seen_warnings(self, load, center, target, norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha, distance = interval._activation(load, center, target, norm)
        assert np.all(np.isfinite(alpha)) and np.all(alpha >= 0.0) and math.isfinite(distance)

    def test_a_segment_below_the_target_is_passed_by(self):
        # the breakpoint test at column 4 cancels to noise beside 6.4e272 and puts d among the columns
        # whose load * step underflows: the sweep goes on to the segment that holds the target
        load = [6.979773137858915e133, 8.154796134377304e60, 3.859458455346724e-303, 8.246300421790866e125]
        center = [2.2079185491801812e-103, 1.079674421915712e-214, 6.892482330398049e-78, 7.780252946531268e146]
        alpha, distance = interval._activation(load, center, 1.2396222409448405e-252, NormKind.L2)
        assert alpha.tolist() == [0.0, 0.0, center[2], 0.0] and distance == pytest.approx(center[3], rel=1e-12)

    def test_overflowing_prior_load_names_x_hat(self):
        # |x_J| . alpha_i = 1e400: the solver would multiply past the floats
        problem = ForwardProblem(A=[[1.0, 1.0]], b=[0.0])
        prior = Prior(estimates=[[1e200, 1.0]], norm=NormKind.L1)
        with pytest.raises(DimensionError) as err:
            solve_rlo_iu_sd(problem, [1e200, 1.0], UncertaintyStructure.interval([(0, 1)]), prior)
        assert str(err.value) == "x_hat: prior.estimates |x_hat| overflows on constraint 1"


def _iu_sd_draw(seed, norm):
    """A random rlo-iu-sd instance: partial column sets, some x_j = 0, some
    rows fitting their prior and some not."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 9)), int(rng.integers(2, 7))
    x = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(-2.0, 2.0, n))
    A = rng.uniform(-2.0, 2.0, (m, n))
    b = A @ x - rng.uniform(0.0, 2.0, m)
    sets = tuple(tuple(int(j) for j in np.flatnonzero(rng.random(n) < 0.6)) or (int(rng.integers(n)),)
                 for _ in range(m))
    prior = Prior(estimates=rng.uniform(0.0, 0.4, (m, n)), xi=rng.uniform(0.5, 2.0, m), norm=norm)
    return ForwardProblem(A=A, b=b), x, UncertaintyStructure.interval(sets), prior


def _separated(t, i):
    """Whether row i's t is below every other row's by a clear margin."""
    others = np.delete(t, i)
    return not others.size or bool(np.min(others) > t[i] + 1e-9 * (1.0 + abs(t[i])))


class TestIuSdMetamorphic:
    """Relabelling rows or columns relabels rlo-iu-sd's answer: this catches
    ordering slips in the vectorised sweeps."""

    @given(seed=st.integers(0, 2**32 - 1), norm=st.sampled_from(list(NormKind)), data=st.data())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_permuting_rows(self, seed, norm, data):
        problem, x, structure, prior = _iu_sd_draw(seed, norm)
        perm = np.array(data.draw(st.permutations(range(problem.m))))
        moved = solve_rlo_iu_sd(
            ForwardProblem(A=problem.A[perm], b=problem.b[perm]), x,
            UncertaintyStructure.interval(tuple(structure.sets[i] for i in perm)),
            Prior(estimates=prior.estimates[perm], xi=prior.xi[perm], norm=norm),
        )
        sol = solve_rlo_iu_sd(problem, x, structure, prior)
        assert moved.status == sol.status
        if sol.status != Status.OPTIMAL:  # no row's loads reach its surplus
            return
        pc, moved_pc = sol.per_constraint, moved.per_constraint
        assert moved_pc["f"].tobytes() == pc["f"][perm].tobytes()  # each row's f is its own
        assert moved_pc["g"].tobytes() == pc["g"][perm].tobytes()
        assert moved_pc["t"] == pytest.approx(pc["t"][perm], rel=1e-12)  # t sums g in another order
        if _separated(pc["t"], sol.active_index - 1):
            assert perm[moved.active_index - 1] == sol.active_index - 1
            assert moved.imputed.tobytes() == sol.imputed[perm].tobytes()

    @given(seed=st.integers(0, 2**32 - 1), norm=st.sampled_from(list(NormKind)), data=st.data())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_permuting_columns(self, seed, norm, data):
        problem, x, structure, prior = _iu_sd_draw(seed, norm)
        perm = np.array(data.draw(st.permutations(range(problem.n))))
        label = np.argsort(perm)  # old column j is new column label[j]
        moved = solve_rlo_iu_sd(
            ForwardProblem(A=problem.A[:, perm], b=problem.b), x[perm],
            UncertaintyStructure.interval(tuple(tuple(label[list(cols)].tolist()) for cols in structure.sets)),
            Prior(estimates=prior.estimates[:, perm], xi=prior.xi, norm=norm),
        )
        sol = solve_rlo_iu_sd(problem, x, structure, prior)
        assert moved.status == sol.status
        if sol.status != Status.OPTIMAL:  # no row's loads reach its surplus
            return
        assert moved.per_constraint["f"] == pytest.approx(sol.per_constraint["f"], rel=1e-12)
        if _separated(sol.per_constraint["t"], sol.active_index - 1):
            assert moved.active_index == sol.active_index
            assert moved.imputed == pytest.approx(sol.imputed[:, perm], rel=1e-12, abs=1e-15)
            assert moved.cost == pytest.approx(sol.cost[perm], rel=1e-12, abs=1e-15)
