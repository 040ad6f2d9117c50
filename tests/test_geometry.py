import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from conftest import assert_same_bits, knapsack_continuous, knapsack_protection, laid_out
from oracle import (
    absolute_dot,
    budget_share_by_argsort,
    dot_bound,
    exact_dot,
    exact_l2,
    gamma,
    knapsack_by_pad,
    l2_bound,
    ranked_by_take,
    row_dots_by_ddot,
    row_dots_by_row,
    sums_by_pad,
)
from io_recover import (
    ForwardProblem,
    Constraints,
    LinearProgram,
    NormKind,
    PreconditionError,
    ZeroVectorError,
    aux_optimum,
    dual_norm,
    dual_norm_maximizer,
    gamma_bar,
    project_halfspace,
    project_hyperplane,
    realized_row_cardinality,
    realized_row_interval,
    solve_lp,
)
from io_recover.geometry import (
    _sums,
    activation_budgets,
    box_knapsack,
    budget_share,
    knapsack,
    norm_value,
    products,
    protection,
    ranked,
    row_dots,
    row_norms,
)

NORMS = (NormKind.L1, NormKind.L2, NormKind.LINF)

finite_floats = st.floats(min_value=-10, max_value=10, allow_nan=False)
vectors = st.lists(finite_floats, min_size=1, max_size=5).map(np.array)


class TestDualNorm:
    def test_euclidean_example(self):
        assert dual_norm([-2.0, 6.0], NormKind.L2) == pytest.approx(math.sqrt(40.0))

    def test_zero_vector(self):
        for norm in NORMS:
            assert dual_norm([0.0, 0.0], norm) == 0.0

    def test_l1_gives_max_abs(self):
        assert dual_norm([3.0, -4.0], NormKind.L1) == pytest.approx(4.0)

    def test_maximizer_examples(self):
        v = dual_norm_maximizer([-2.0, 6.0], NormKind.L2)
        assert v == pytest.approx(np.array([-2.0, 6.0]) / math.sqrt(40.0))
        assert dual_norm_maximizer([0.0, 5.0], NormKind.L1) == pytest.approx([0.0, 1.0])
        assert dual_norm_maximizer([1.0, -1.0], NormKind.LINF) == pytest.approx([1.0, -1.0])

    def test_maximizer_tie_takes_lowest_index(self):
        assert dual_norm_maximizer([2.0, -2.0], NormKind.L1) == pytest.approx([1.0, 0.0])

    def test_maximizer_zero_raises(self):
        with pytest.raises(ZeroVectorError):
            dual_norm_maximizer([0.0, 0.0], NormKind.L2)

    def test_maximizer_of_tiny_vector_has_unit_norm(self):
        # x . x underflows into the subnormal range, where the plain norm loses digits
        for x in ([9.70243983e-160], [1e-200, -3e-201], [5e-324, 0.0]):
            v = dual_norm_maximizer(x, NormKind.L2)
            assert norm_value(v, NormKind.L2) == pytest.approx(1.0, abs=1e-15)
            assert np.all(np.sign(v) == np.sign(x))

    def test_l2_of_huge_vector_is_finite(self):
        # x . x overflows past ~1.3e154, where the plain norm reads inf
        for scale in (1e160, 1e200, 1e300):
            x = np.array([3.0, -4.0]) * scale
            assert dual_norm(x, NormKind.L2) == pytest.approx(5.0 * scale, rel=1e-15)
            assert norm_value(x, NormKind.L2) == pytest.approx(5.0 * scale, rel=1e-15)
            assert dual_norm_maximizer(x, NormKind.L2) == pytest.approx([0.6, -0.8], rel=1e-15)

    def test_l2_of_tiny_vector_is_nonzero(self):
        # x . x underflows below ~1e-162, where the plain norm reads 0
        for scale in (1e-160, 1e-200, 1e-300):
            x = np.array([3.0, -4.0]) * scale
            assert dual_norm(x, NormKind.L2) == pytest.approx(5.0 * scale, rel=1e-15)
            assert norm_value(x, NormKind.L2) == pytest.approx(5.0 * scale, rel=1e-15)
        assert norm_value(np.zeros(3), NormKind.L2) == 0.0
        assert norm_value(np.zeros(0), NormKind.L2) == 0.0

    def test_maximizer_past_the_floats_has_unit_norm(self):
        # ||x||_2 itself exceeds the largest float
        v = dual_norm_maximizer([1.5e308, -1.5e308], NormKind.L2)
        assert v == pytest.approx([math.sqrt(0.5), -math.sqrt(0.5)], rel=1e-15)

    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_maximizer_names_a_non_finite_entry(self, norm, bad):
        # an infinite l2 norm stays infinite however often x is halved
        with pytest.raises(PreconditionError, match=rf"x\[0\] = {bad}"):
            dual_norm_maximizer([bad, 1.0], norm)

    @given(x=vectors, pick=st.integers(0, 2))
    @example(x=np.array([5e-324, 5e-324]), pick=1)  # subnormal: rescaled, x / (big * ||x / big||) had norm sqrt 2
    @settings(max_examples=200, deadline=None)
    def test_holder_inequality(self, x, pick):
        norm = NORMS[pick]
        dn = dual_norm(x, norm)
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.normal(size=x.size)
            nv = norm_value(v, norm)
            if nv < 1e-9:
                continue
            v = v / nv
            assert float(x @ v) <= dn + 1e-9
        if dn > 0.0:
            v_star = dual_norm_maximizer(x, norm)
            assert norm_value(v_star, norm) == pytest.approx(1.0, abs=1e-9)
            assert float(x @ v_star) == pytest.approx(dn, abs=1e-9)


class TestProjection:
    def test_hyperplane_example(self):
        a_f, f = project_hyperplane([1.0, 0.0], [-2.0, 6.0], -6.0, NormKind.L2)
        assert f == pytest.approx(4.0 / math.sqrt(40.0), abs=1e-12)
        assert a_f == pytest.approx([1.2, -0.6], abs=1e-12)
        assert float(a_f @ np.array([-2.0, 6.0])) == pytest.approx(-6.0, abs=1e-9)

    def test_point_already_on_hyperplane(self):
        a_f, f = project_hyperplane([3.0, 0.0], [-2.0, 6.0], -6.0, NormKind.L2)
        assert f == pytest.approx(0.0, abs=1e-12)
        assert a_f == pytest.approx([3.0, 0.0])

    def test_halfspace_feasible_untouched(self):
        a_g, g = project_halfspace([0.0, 1.0], [-2.0, 6.0], -6.0, NormKind.L2)
        assert g == 0.0
        assert a_g == pytest.approx([0.0, 1.0])

    def test_halfspace_trivializing_row(self):
        a_g, g = project_halfspace([-1.0, -1.0], [2.0, 2.0], 0.0, NormKind.L2)
        assert a_g == pytest.approx([0.0, 0.0], abs=1e-12)
        assert g == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_zero_observation_raises(self):
        with pytest.raises(ZeroVectorError):
            project_hyperplane([1.0, 1.0], [0.0, 0.0], 1.0, NormKind.L2)

    def test_projection_beats_random_hyperplane_points(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = rng.integers(2, 4)
            a_hat = rng.normal(size=n)
            x = rng.normal(size=n)
            if np.max(np.abs(x)) < 0.3:
                continue
            b = float(rng.normal()) + 0.1
            for norm in NORMS:
                a_f, f = project_hyperplane(a_hat, x, b, norm)
                assert float(a_f @ x) == pytest.approx(b, abs=1e-9)
                assert norm_value(a_f - a_hat, norm) == pytest.approx(f, abs=1e-9)
                for _ in range(5):
                    d = rng.normal(size=n)
                    d -= x * float(d @ x) / float(x @ x)  # stay on the hyperplane
                    other = a_f + d
                    assert norm_value(other - a_hat, norm) >= f - 1e-9

    def test_halfspace_projection_lands_on_boundary(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 4))
            a_hat = rng.normal(size=n)
            x = rng.normal(size=n) + 0.1
            b = float(a_hat @ x) + abs(rng.normal()) + 0.1  # force infeasibility
            for norm in NORMS:
                a_g, g = project_halfspace(a_hat, x, b, norm)
                assert float(a_g @ x) >= b - 1e-9
                assert float(a_g @ x) == pytest.approx(b, abs=1e-9)
                assert g > 0.0


class TestRealizations:
    def test_interval_example_row3(self):
        row = realized_row_interval([-2.0, -1.0], [0.5, 1.0], (0, 1), [-2.0, 6.0])
        assert row == pytest.approx([-1.5, -2.0])

    def test_interval_zero_alpha(self):
        row = realized_row_interval([3.0, -1.0], [0.0, 0.0], (0, 1), [1.0, 1.0])
        assert row == pytest.approx([3.0, -1.0])

    def test_interval_negative_alpha_rejected(self):
        with pytest.raises(PreconditionError):
            realized_row_interval([1.0], [-0.5], (0,), [1.0])

    @given(
        a=st.lists(finite_floats, min_size=2, max_size=4),
        alpha_raw=st.lists(st.floats(0, 5, allow_nan=False), min_size=2, max_size=4),
        x=st.lists(finite_floats, min_size=2, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_interval_product_identity(self, a, alpha_raw, x):
        n = min(len(a), len(alpha_raw), len(x))
        a, alpha, x = np.array(a[:n]), np.array(alpha_raw[:n]), np.array(x[:n])
        cols = tuple(range(n))
        row = realized_row_interval(a, alpha, cols, x)
        lhs = float(row @ x)
        rhs = float(a @ x) - float(alpha @ np.abs(x))
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_cardinality_example_row3(self):
        row = realized_row_cardinality([-2.0, -1.0], [2.0, 1.0], 1.5, (0, 1), [-2.0, 6.0])
        assert row == pytest.approx([-1.0, -2.0])

    def test_cardinality_zero_budget(self):
        row = realized_row_cardinality([-2.0, -1.0], [2.0, 1.0], 0.0, (0, 1), [-2.0, 6.0])
        assert row == pytest.approx([-2.0, -1.0])

    def test_cardinality_full_budget_equals_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=n)
            alpha = np.abs(rng.normal(size=n))
            x = rng.normal(size=n)
            cols = tuple(np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False)))
            full = realized_row_cardinality(a, alpha, float(len(cols)), cols, x)
            interval = realized_row_interval(a, alpha, cols, x)
            assert full == pytest.approx(interval, abs=1e-12)

    def test_budget_out_of_range(self):
        with pytest.raises(PreconditionError):
            realized_row_cardinality([1.0, 1.0], [1.0, 1.0], 2.5, (0, 1), [1.0, 1.0])

    def test_ranked_tie_break(self):
        # equal products keep column order; a column outside J_i ranks last with product 0
        order, values = ranked(np.array([[1.0, 2.0, 1.0, 9.0]]), np.array([[True, True, True, False]]),
                               np.array([2.0, 1.0, 2.0, 1.0]))
        assert order.tolist() == [[0, 1, 2, 3]]
        assert values.tolist() == [[2.0, 2.0, 2.0, 0.0]]

    def test_sign_convention_at_zero_never_changes_products(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = 3
            a = rng.normal(size=n)
            alpha = np.abs(rng.normal(size=n))
            x = rng.normal(size=n)
            x[rng.integers(0, n)] = 0.0
            cols = (0, 1, 2)
            row = realized_row_interval(a, alpha, cols, x)
            assert float(row @ x) == pytest.approx(
                float(a @ x) - float(alpha @ np.abs(x)), abs=1e-9
            )


def _one_row_protection(alpha_i, x, budgets):
    """geometry.protection of one row of budget uncertainty over all its
    columns, at each budget in `budgets` (one kernel row per budget)."""
    alpha_i = np.asarray(alpha_i, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    rows = (budgets.size, alpha_i.size)
    return protection(np.broadcast_to(alpha_i, rows), np.ones(rows, dtype=bool), np.asarray(x, dtype=float), budgets)


class TestProtectionAndKnapsack:
    def test_example_row3_budget(self):
        assert _one_row_protection([2.0, 1.0], [-2.0, 6.0], [1.5]) == pytest.approx([8.0])

    def test_zero_budget(self):
        assert _one_row_protection([2.0, 1.0], [-2.0, 6.0], [0.0]).tolist() == [0.0]

    def test_protection_equals_knapsack_lp(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            k = int(rng.integers(1, 5))
            alpha = np.abs(rng.normal(size=k)) + 0.01
            x = rng.normal(size=k)
            budget = float(rng.uniform(0, k))
            direct = _one_row_protection(alpha, x, [budget])[0]
            values = alpha * np.abs(x)
            lp = LinearProgram(-values, Constraints([np.ones(k)], ("<=",), [budget], np.zeros(k), np.ones(k)))
            out = solve_lp(lp)
            assert direct == pytest.approx(-out.value, abs=1e-8)

    def test_protection_monotone_concave_integer_breakpoints(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            alpha = np.abs(rng.normal(size=k)) + 0.05
            x = rng.normal(size=k) + 0.1
            grid = np.linspace(0.0, k, 4 * k + 1)
            vals = _one_row_protection(alpha, x, grid)
            diffs = np.diff(vals)
            assert np.all(diffs >= -1e-9)  # nondecreasing
            slopes = diffs / np.diff(grid)
            assert np.all(np.diff(slopes) <= 1e-9)  # concave
            # piecewise linear between integers: quarter-step slopes match
            for t in range(k):
                seg = slopes[4 * t : 4 * t + 4]
                assert np.max(seg) - np.min(seg) <= 1e-9

    def test_knapsack_examples(self):
        phi, total = knapsack_continuous([6.0, 4.0], 1.5)
        assert phi == pytest.approx([1.0, 0.5])
        assert total == pytest.approx(8.0)
        phi, total = knapsack_continuous([3.0, 2.0], 0.0)
        assert phi == pytest.approx([0.0, 0.0])
        assert total == 0.0
        phi, total = knapsack_continuous([3.0, 2.0, 1.0], 7.0)
        assert phi == pytest.approx([1.0, 1.0, 1.0])
        assert total == pytest.approx(6.0)

    @given(
        values=st.lists(st.floats(0, 9, allow_nan=False), min_size=1, max_size=5),
        capacity=st.floats(0, 6, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_knapsack_is_optimal(self, values, capacity):
        phi, total = knapsack_continuous(values, capacity)
        assert np.all((phi >= -1e-12) & (phi <= 1.0 + 1e-12))
        assert float(np.sum(phi)) <= capacity + 1e-9
        rng = np.random.default_rng(1)
        arr = np.array(values)
        for _ in range(20):
            trial = rng.uniform(0, 1, size=arr.size)
            s = float(np.sum(trial))
            if s > capacity:
                trial *= capacity / s
            assert float(arr @ trial) <= total + 1e-9


class TestGammaBar:
    def _problem(self):
        return ForwardProblem(A=[[1, 0], [0, 1], [-2, -1]], b=[-6, -6, -10])

    def test_example_rows(self):
        prob = self._problem()
        x = [-2.0, 6.0]
        r1 = gamma_bar(prob, [2.5, 0.0], (0,), x, 0)
        assert r1.kind == "unique" and r1.lower == pytest.approx(0.8)
        r2 = gamma_bar(prob, [0.0, 0.5], (1,), x, 1)
        assert r2.kind == "not_applicable"
        r3 = gamma_bar(prob, [2.0, 1.0], (0, 1), x, 2)
        assert r3.kind == "unique" and r3.lower == pytest.approx(1.5)

    def test_zero_surplus(self):
        prob = ForwardProblem(A=[[1.0, 0.0]], b=[1.0])
        res = gamma_bar(prob, [1.0, 0.0], (0,), [1.0, 0.0], 0)
        assert res.kind == "unique" and res.lower == pytest.approx(0.0)

    def test_interval_when_zero_products_and_full_protection(self):
        # surplus equals full protection while one product is zero
        prob = ForwardProblem(A=[[1.0, 1.0]], b=[0.0])
        res = gamma_bar(prob, [1.0, 5.0], (0, 1), [2.0, 0.0], 0)
        assert res.kind == "interval"
        assert res.lower == pytest.approx(1.0)
        assert res.upper == pytest.approx(2.0)
        for g in (res.lower, res.upper):
            assert knapsack_protection([1.0, 5.0], g, (0, 1), [2.0, 0.0]) == pytest.approx(2.0)

    def test_greedy_matches_lp_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            a = rng.normal(size=n)
            x = rng.normal(size=n)
            alpha = np.abs(rng.normal(size=n)) + 0.05
            cols = tuple(range(n))
            values = alpha * np.abs(x)
            total = float(np.sum(values))
            surplus = float(rng.uniform(0, total)) if total > 0 else 0.0
            b = float(a @ x) - surplus
            prob = ForwardProblem(A=a.reshape(1, -1), b=[b])
            res = gamma_bar(prob, alpha, cols, x, 0)
            assert res.kind in ("unique", "interval")
            lp = LinearProgram(np.ones(n), Constraints([values], ("=",), [surplus], np.zeros(n), np.ones(n)))
            out = solve_lp(lp)
            assert out.status.value == "optimal"
            assert res.lower == pytest.approx(out.value, abs=1e-7)
            assert knapsack_protection(alpha, res.lower, cols, x) == pytest.approx(surplus, abs=1e-9)

    def test_nominal_infeasible_reason(self):
        prob = ForwardProblem(A=[[1.0]], b=[2.0])
        res = gamma_bar(prob, [1.0], (0,), [1.0], 0)
        assert res.kind == "not_applicable"
        assert "infeasible" in res.reason


class TestAuxOptimum:
    def test_zero_budget(self):
        u, y, z = aux_optimum([2.0, 1.0], 0.0, (0, 1), [-2.0, 6.0])
        assert z == pytest.approx(6.0)  # largest product
        assert y == pytest.approx([0.0, 0.0])
        assert float(np.sum(y)) + 0.0 * z == pytest.approx(0.0)

    def test_example_budget(self):
        u, y, z = aux_optimum([2.0, 1.0], 1.5, (0, 1), [-2.0, 6.0])
        assert z == pytest.approx(4.0)
        assert y[1] == pytest.approx(2.0)
        assert float(np.sum(y)) + 1.5 * z == pytest.approx(8.0)
        # grid search over z confirms minimality of the aux objective
        values = np.array([4.0, 6.0])
        best = min(
            float(np.sum(np.maximum(values - zz, 0.0))) + 1.5 * zz
            for zz in np.linspace(0, 8, 1601)
        )
        assert best == pytest.approx(8.0, abs=1e-2)

    def test_identity_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            alpha = np.abs(rng.normal(size=k))
            x = rng.normal(size=k)
            budget = float(rng.uniform(0, k))
            u, y, z = aux_optimum(alpha, budget, tuple(range(k)), x)
            direct = knapsack_protection(alpha, budget, tuple(range(k)), x)
            assert float(np.sum(y)) + budget * z == pytest.approx(direct, abs=1e-9)
            assert np.all(y >= -1e-12) and z >= -1e-12


def _kernel_blocks(count, seed):
    """Random m x n budget blocks (alpha, mask, x): small integer magnitudes
    and observations give tied and zero products, and some rows have no
    uncertain column."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        alpha = rng.choice([0.0, 0.5, 1.0, 2.0, 3.7], size=(m, n))
        x = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 1.3], size=n)
        mask = rng.random((m, n)) < 0.7
        mask[rng.random(m) < 0.15] = False
        yield rng, alpha, mask, x


def _near_integer_budgets(rng, size):
    """Budgets in [0, |J_i|]: uniform, integer, or within 1e-12 of an integer."""
    base = np.floor(rng.uniform(0.0, size + 1.0))
    nudge = rng.choice([0.0, 1e-13, -1e-13, 5e-13, -5e-13, 2e-12])
    budget = np.where(rng.random(size.shape) < 0.5, base + nudge, rng.uniform(0.0, size))
    return np.minimum(np.maximum(budget, 0.0), size)


class TestBudgetKernel:
    """The m-row kernel against the row LPs it solves in closed form."""

    def test_protection_equals_the_knapsack_lp_row_by_row(self):
        for rng, alpha, mask, x in _kernel_blocks(150, 41):
            size = mask.sum(axis=1)
            budget = _near_integer_budgets(rng, size)
            values = products(alpha, mask, x)
            got = protection(alpha, mask, x, budget)
            share = budget_share(alpha, mask, x, budget)
            assert np.all((share >= 0.0) & (share <= 1.0)) and not np.any(share[~mask])
            assert share.sum(axis=1) == pytest.approx(budget, abs=1e-11)
            near = np.abs(budget - np.round(budget)) < 1e-12  # deviates whole columns only
            assert np.all(np.isin(share[near], (0.0, 1.0)))
            assert got == pytest.approx((share * values).sum(axis=1), abs=1e-12)
            for i in range(alpha.shape[0]):
                v = values[i, mask[i]]
                if not v.size:
                    assert got[i] == 0.0
                    continue
                lp = LinearProgram(-v, Constraints([np.ones(v.size)], ("<=",), [budget[i]], np.zeros(v.size), np.ones(v.size)))
                assert got[i] == pytest.approx(-solve_lp(lp).value, abs=1e-9)
                assert got[i] == pytest.approx(knapsack_protection(alpha[i], budget[i], np.flatnonzero(mask[i]), x), abs=1e-10)

    def test_activation_budgets_match_the_lp_characterization(self):
        # lower: the least sum(phi) with v . phi = surplus, 0 <= phi <= 1; upper: the
        # largest budget whose protection stays at the surplus; NaN iff that LP is infeasible
        seen = set()
        for rng, alpha, mask, x in _kernel_blocks(150, 43):
            m, n = alpha.shape
            values = products(alpha, mask, x)
            total = values.sum(axis=1)
            kind = rng.integers(0, 5, m)  # inside, the full protection, above it, slightly or far below 0
            surplus = np.choose(kind, [rng.uniform(0.0, 1.0, m) * total, total, total + 0.5, np.full(m, -5e-10), np.full(m, -1.0)])
            A = rng.uniform(-2.0, 2.0, (m, n))
            b = np.array([a @ x for a in A]) - surplus
            lower, upper = activation_budgets(A, b, alpha, mask, x)
            size = mask.sum(axis=1)
            for i in range(m):
                s = float(A[i] @ x - b[i])
                v = values[i, mask[i]]
                if s < -1e-9 or max(s, 0.0) > total[i] + 1e-9:
                    assert np.isnan(lower[i]) and np.isnan(upper[i])
                    seen.add("out")
                    continue
                s = max(s, 0.0)
                cols = tuple(np.flatnonzero(mask[i]))
                if v.size:
                    lp = LinearProgram(np.ones(v.size), Constraints([v], ("=",), [s], np.zeros(v.size), np.ones(v.size)))
                    assert lower[i] == pytest.approx(solve_lp(lp).value, abs=1e-7)
                else:
                    assert lower[i] == 0.0
                assert lower[i] <= upper[i] <= size[i]
                assert knapsack_protection(alpha[i], upper[i], cols, x) == pytest.approx(s, abs=1e-9)
                if upper[i] < size[i]:
                    assert knapsack_protection(alpha[i], min(upper[i] + 1e-6, size[i]), cols, x) > s
                seen.add("interval" if lower[i] < upper[i] else "unique")
                res = gamma_bar(ForwardProblem(A=A, b=b), alpha[i], cols, x, i)
                assert (res.lower, res.upper) == (lower[i], upper[i])
        assert seen == {"out", "unique", "interval"}


class TestBoxKnapsack:
    """geometry.box_knapsack: min c . z s.t. r . z >= d over a box, every row at once."""

    def test_fills_by_lowest_ratio_then_lowest_column(self):
        # ratios 1, 0.5, 0.5, 2 from the lower bounds 0: the tied columns 2 and 3 fill first, in turn
        out = box_knapsack([[1.0, 1.0, 1.0, 2.0]], [[1.0, 2.0, 2.0, 1.0]], [5.0], np.zeros((1, 4)), np.ones((1, 4)))
        assert out.point.tolist() == [[1.0, 1.0, 1.0, 0.0]]
        assert out.value.tolist() == [3.0] and out.shortfall[0] == -1.0

    def test_zero_cost_coordinates_sit_where_the_row_favours(self):
        # c = 0: r > 0 at the upper bound, r < 0 at the lower, r = 0 at the box point nearest 0
        out = box_knapsack([[0.0, 0.0, 0.0]], [[1.0, -1.0, 0.0]], [-10.0], [[-1.0, -2.0, 1.0]], [[2.0, 3.0, 4.0]])
        assert out.point.tolist() == [[2.0, -2.0, 1.0]] and out.value.tolist() == [0.0]

    def test_a_seller_hands_back_the_surplus(self):
        # z_0 has no lower bound and ratio 1: it falls until r . z = d
        out = box_knapsack([[1.0, 0.0]], [[1.0, 1.0]], [0.5], [[-np.inf, 0.0]], [[5.0, 2.0]])
        assert out.point.tolist() == [[-1.5, 2.0]] and out.value.tolist() == [-1.5]

    def test_unbounded_rows_give_a_point_and_a_ray(self):
        # row 1: a free coordinate outside r; row 2: a filling coordinate without limit at a
        # negative ratio; row 3: the seller of a row with no constraint
        inf = np.inf
        out = box_knapsack(
            [[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]], [1.0, 0.0, -inf],
            [[-inf, 0.0], [0.0, 0.0], [-inf, 0.0]], [[0.0, 2.0], [inf, 0.0], [0.0, 0.0]],
        )
        assert out.value.tolist() == [-inf, -inf, -inf]
        assert out.ray.tolist() == [[-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]
        assert np.all(np.isfinite(out.point))

    def test_agrees_with_highs_on_infinite_boxes(self):
        rng = np.random.default_rng(2024)
        seen = set()
        for trial in range(150):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            c, r = (rng.integers(-2, 3, (m, n)).astype(float) for _ in range(2))
            lower = rng.integers(-3, 2, (m, n)).astype(float)
            upper = lower + rng.integers(0, 4, (m, n))
            lower[rng.random((m, n)) < 0.25] = -np.inf
            upper[rng.random((m, n)) < 0.25] = np.inf
            d = rng.integers(-4, 5, m).astype(float)
            d[rng.random(m) < 0.1] = -np.inf
            out = box_knapsack(c, r, d, lower, upper)
            for i in range(m):
                label = (trial, i)
                bounds = [(None if lo == -np.inf else lo, None if hi == np.inf else hi) for lo, hi in zip(lower[i], upper[i])]
                if d[i] == -np.inf:
                    ref = linprog(c[i], bounds=bounds, method="highs")
                else:
                    ref = linprog(c[i], A_ub=-r[i][None], b_ub=[-d[i]], bounds=bounds, method="highs")
                if ref.status == 2:
                    assert out.shortfall[i] > 0.0, label
                    seen.add("infeasible")
                    continue
                z = out.point[i]
                assert out.shortfall[i] <= 1e-12 and np.all(np.isfinite(z)), label
                assert np.all(z >= lower[i]) and np.all(z <= upper[i]) and r[i] @ z >= d[i] - 1e-12, label
                if ref.status == 3:
                    ray = out.ray[i]
                    assert out.value[i] == -np.inf and c[i] @ ray < 0.0, label
                    assert d[i] == -np.inf or r[i] @ ray >= 0.0, label
                    assert np.all((ray <= 0.0) | (upper[i] == np.inf)) and np.all((ray >= 0.0) | (lower[i] == -np.inf)), label
                    seen.add("unbounded")
                else:
                    assert out.value[i] == pytest.approx(ref.fun, abs=1e-12) and c[i] @ z == pytest.approx(out.value[i], abs=1e-12), label
                    assert not out.ray[i].any(), label
                    seen.add("optimal")
        assert seen == {"optimal", "unbounded", "infeasible"}


LAYOUTS = st.sampled_from(["C", "F", "strided"])


@st.composite
def budget_blocks(draw):
    """(alpha, mask, x, budget) in a drawn layout: n from 1, tied and zero
    products (magnitudes and observations from short lists, signed zeros
    among them), rows with no uncertain column, and budgets of 0, |J_i|,
    whole, fractional, within 1e-12 of a whole number, or outside [0, |J_i|]."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    alpha = draw(arrays(float, (m, n), elements=st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 9.0)))
    x = draw(arrays(float, n, elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0]) | st.floats(-5.0, 5.0)))
    mask = draw(arrays(bool, (m, n)))
    mask[draw(arrays(bool, m))] = False
    size = mask.sum(axis=1).astype(float)
    frac = draw(arrays(float, m, elements=st.floats(0.0, 1.0)))
    nudge = draw(arrays(float, m, elements=st.sampled_from([0.0, 1e-13, -1e-13, 5e-13, 2e-12])))
    kind = draw(arrays(np.intp, m, elements=st.integers(0, 5)))
    budget = np.choose(kind, [np.zeros(m), size, frac * size, np.floor(frac * size) + nudge, size + 0.5, -frac])
    return laid_out(alpha, draw(LAYOUTS)), laid_out(mask, draw(LAYOUTS)), x, budget


class TestRewrittenSteps:
    """The budget kernel's steps against their earlier forms (`oracle`), bit
    for bit: the rewrites keep each sum's order.  row_dots, one reduction
    whose order is its own, gives each row the bits of its one-row view and
    stays within the exact oracle's bound."""

    @given(block=budget_blocks(), layout=LAYOUTS)
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_budget_kernel(self, block, layout):
        alpha, mask, x, budget = block
        for ours, theirs in zip(ranked(alpha, mask, x), ranked_by_take(alpha, mask, x)):
            assert_same_bits(ours, theirs)
        assert_same_bits(budget_share(alpha, mask, x, budget), budget_share_by_argsort(alpha, mask, x, budget))
        values = laid_out(ranked(alpha, mask, x)[1], layout)
        assert_same_bits(_sums(values), sums_by_pad(values))
        assert_same_bits(knapsack(values, mask, budget), knapsack_by_pad(values, mask, budget))

    @given(data=st.data(), m=st.integers(1, 12), n=st.integers(1, 40), layouts=st.tuples(LAYOUTS, LAYOUTS))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_row_dots(self, data, m, n, layouts):
        # up to 40 columns: a reduction may sum long rows in several accumulators, short ones in one
        entries = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1]) | st.floats(-1e3, 1e3)
        a = laid_out(data.draw(arrays(float, (m, n), elements=entries)), layouts[0])
        b = laid_out(data.draw(arrays(float, (m, n), elements=entries)), layouts[1])
        x = data.draw(arrays(float, n, elements=entries))
        for vector in (x, b[0]):  # a row of a block as the vector
            assert_same_bits(row_dots(a, vector), row_dots_by_row(a, vector))
            assert_within_dot_bound(row_dots(a, vector), a, vector)
        assert_same_bits(row_dots(a, b), row_dots_by_row(a, b))
        assert_within_dot_bound(row_dots(a, b), a, b)

    def test_one_column_dot_is_a_sum_from_zero(self):
        # a one-column reduction is the bare product 0 * -0 = -0.0; a row's dot adds it to 0.0
        for a, x, dots in (([[0.0]], [-0.0], [0.0]), ([[-1e-200]], [1e-200], [0.0]), ([[2.0], [-0.0]], [3.0], [6.0, 0.0])):
            a, x = np.array(a), np.array(x)
            assert_same_bits(row_dots(a, x), np.array(dots))
            assert_same_bits(row_dots(a, x), row_dots_by_row(a, x))


def _across_the_floats(shape):
    """Arrays of +-10^U(-320, 300), zeros among them: products from past the floats down to below
    the least subnormal."""
    magnitude = st.floats(-320.0, 300.0).map(lambda e: 10.0 ** e)
    return arrays(float, shape, elements=st.just(0.0) | magnitude | magnitude.map(lambda v: -v))


def _may_pass_the_floats(absolute, n):
    """Whether a float evaluation of n terms whose exact absolute sum is `absolute` can pass the
    largest float on the way (gamma_n bounds every partial sum's growth)."""
    return absolute * (1 + gamma(n)) > Fraction(sys.float_info.max)


def assert_within_dot_bound(dots, a, b):
    """Each row's dot within `oracle.dot_bound` of its exact value; inf or NaN only where the
    evaluation can pass the largest float."""
    for i, value in enumerate(dots):
        u, v = a[i], b[i] if b.ndim == 2 else b
        if math.isfinite(value):
            assert abs(Fraction(float(value)) - exact_dot(u, v)) <= dot_bound(u, v), i
        else:
            assert _may_pass_the_floats(absolute_dot(u, v), len(u)), i


class TestRowKernelsAgainstTheExactOracle:
    """row_dots and row_norms' l2 norm against the exact oracle, over entries
    across the float range: the bound is Higham's, not fitted to a kernel,
    and the earlier one-BLAS-dot-per-row form keeps to it as well."""

    @given(data=st.data(), m=st.integers(1, 6), n=st.integers(1, 12), layouts=st.tuples(LAYOUTS, LAYOUTS))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_row_dots_across_the_floats(self, data, m, n, layouts):
        a = laid_out(data.draw(_across_the_floats((m, n))), layouts[0])
        b = laid_out(data.draw(_across_the_floats((m, n))), layouts[1])
        x = data.draw(_across_the_floats(n))
        for theirs in (row_dots, row_dots_by_ddot):
            with np.errstate(over="ignore", invalid="ignore"):  # the BLAS form warns on nothing either
                assert_within_dot_bound(theirs(a, x), a, x)
                assert_within_dot_bound(theirs(a, b), a, b)
        assert_same_bits(row_dots(a, x), row_dots_by_row(a, x))
        assert_same_bits(row_dots(a, b), row_dots_by_row(a, b))

    @given(data=st.data(), m=st.integers(1, 6), n=st.integers(1, 12), layout=LAYOUTS)
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_row_norms_across_the_floats(self, data, m, n, layout):
        x = laid_out(data.draw(_across_the_floats((m, n))), layout)
        norms = row_norms(x, NormKind.L2)
        for i, value in enumerate(norms):
            exact = exact_l2(x[i])
            if math.isfinite(value):
                assert abs(Decimal(float(value)) - exact) <= l2_bound(x[i]), i
            else:  # the norm, or the norm with its error, passes the largest float
                assert exact + l2_bound(x[i]) > Decimal(sys.float_info.max), i
            assert_same_bits(norms[i : i + 1], row_norms(x[i : i + 1], NormKind.L2))

    @pytest.mark.parametrize("x", [[5e-324, 5e-324], [1e-320, 3e-321], [1e200, 1e200, 1e-200], [3e-160, 4e-160]])
    def test_rescaled_row_norms(self, x):
        x = np.array([x])
        assert abs(Decimal(float(row_norms(x, NormKind.L2)[0])) - exact_l2(x[0])) <= l2_bound(x[0])
