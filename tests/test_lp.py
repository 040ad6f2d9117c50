import numpy as np
import pytest

import io_recover.lp as lp_mod
from io_recover import (
    LinearProgram,
    LpRow,
    LpStatus,
    NumericalFailureError,
    counters,
    solve_lp,
    solve_lp_batch,
)
from conftest import vertex_enumeration_min


def simple(objective, rows, bounds=None):
    return LinearProgram(objective=np.asarray(objective, float), rows=tuple(rows), bounds=bounds)


class TestBasics:
    def test_single_bound(self):
        out = solve_lp(simple([1.0], [([1.0], ">=", 1.0)]))
        assert out.status == LpStatus.OPTIMAL
        assert out.solution == pytest.approx([1.0], abs=1e-9)
        assert out.value == pytest.approx(1.0, abs=1e-9)

    def test_mixed_senses(self):
        # min -x - y st x + y <= 4, x - y = 1, y >= 0.5
        out = solve_lp(
            simple(
                [-1.0, -1.0],
                [([1, 1], "<=", 4.0), ([1, -1], "=", 1.0), ([0, 1], ">=", 0.5)],
            )
        )
        assert out.status == LpStatus.OPTIMAL
        assert out.solution == pytest.approx([2.5, 1.5], abs=1e-9)

    def test_bounded_variables(self):
        out = solve_lp(
            simple([1.0, -2.0], [([1, 1], ">=", 0.0)], bounds=((-3.0, 5.0), (None, 2.0)))
        )
        assert out.status == LpStatus.OPTIMAL
        assert out.solution == pytest.approx([-2.0, 2.0], abs=1e-9)

    def test_infeasible_reports_phase_one_witness(self):
        out = solve_lp(simple([1.0], [([1.0], ">=", 2.0), ([1.0], "<=", 1.0)]))
        assert out.status == LpStatus.INFEASIBLE
        assert out.infeasibility > 0.5

    def test_unbounded_gives_ray(self):
        out = solve_lp(simple([-1.0, 0.0], [([0, 1], ">=", 0.0)]))
        assert out.status == LpStatus.UNBOUNDED
        ray = out.ray
        assert ray is not None
        assert float(np.array([-1.0, 0.0]) @ ray) < 0

    def test_equality_only(self):
        out = solve_lp(simple([1.0, 1.0], [([1, 2], "=", 4.0)], bounds=((0, None), (0, None))))
        assert out.status == LpStatus.OPTIMAL
        assert out.value == pytest.approx(2.0, abs=1e-9)


class TestPaperSubproblems:
    # the three per-constraint LPs behind demo example 1 (values 3, 18, 2)
    def _example1_lps(self):
        x = np.array([-2.0, 6.0])
        b = np.array([-6.0, -6.0, -10.0])
        rows = []
        for i in range(3):
            coeffs = np.zeros(6)
            coeffs[2 * i : 2 * i + 2] = x
            rows.append(LpRow(coeffs, ">=", b[i]))
        rows.append(LpRow([0, 0, 0, 2, 1, 0], "<=", 2.0))
        bounds = ((1.0, 1.5), (0.0, 0.0), (0.0, 0.0), (2.0, 3.0), (None, -2.0), (-2.0, -0.5))
        lps = []
        for i in range(3):
            objective = np.zeros(6)
            objective[2 * i : 2 * i + 2] = x
            lps.append(LinearProgram(objective=objective, rows=tuple(rows), bounds=bounds))
        return lps, b

    def test_example1_values(self):
        lps, b = self._example1_lps()
        values = [solve_lp(lp).value - b[i] for i, lp in enumerate(lps)]
        assert values == pytest.approx([3.0, 18.0, 2.0], abs=1e-9)

    def test_example3_values_via_batch(self):
        x = np.array([-2.0, 6.0])
        surplus = np.array([4.0, 12.0, 8.0])
        w = np.array([2.0, 6.0, 2.0, 6.0])  # |x| per param a11,a22,a31,a32
        owner = np.array([0, 1, 2, 2])
        rows = []
        for i in range(3):
            coeffs = np.where(owner == i, w, 0.0)
            rows.append(LpRow(coeffs, "<=", surplus[i]))
        rows.append(LpRow([1, 1, 1, 1], "<=", 2.5))
        bounds = ((0.5, None),) * 4
        lps = []
        for i in range(3):
            objective = -np.where(owner == i, w, 0.0)
            lps.append(LinearProgram(objective=objective, rows=tuple(rows), bounds=bounds))
        outs = solve_lp_batch(lps)
        values = [surplus[i] + out.value for i, out in enumerate(outs)]
        assert values == pytest.approx([2.0, 6.0, 1.0], abs=1e-9)


class TestOracle:
    def _random_bounded_lp(self, rng):
        n = 3
        objective = rng.integers(-4, 5, size=n).astype(float)
        rows = []
        for _ in range(rng.integers(2, 5)):
            coeffs = rng.integers(-3, 4, size=n).astype(float)
            if not np.any(coeffs):
                coeffs[rng.integers(0, n)] = 1.0
            rhs = float(rng.integers(-6, 3))
            rows.append((coeffs, ">=", rhs))
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1.0
            rows.append((e.copy(), "<=", 6.0))
            rows.append((e.copy(), ">=", -6.0))
        return objective, rows

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(20240211)
        solved = 0
        for _ in range(120):
            objective, rows = self._random_bounded_lp(rng)
            expected, _ = vertex_enumeration_min(objective, rows)
            out = solve_lp(simple(objective, [LpRow(*r) for r in rows]))
            if expected is None:
                assert out.status == LpStatus.INFEASIBLE
            else:
                assert out.status == LpStatus.OPTIMAL
                assert out.value == pytest.approx(expected, abs=1e-7)
                for coeffs, sense, rhs in rows:
                    val = float(np.asarray(coeffs) @ out.solution)
                    if sense == ">=":
                        assert val >= rhs - 1e-9
                    elif sense == "<=":
                        assert val <= rhs + 1e-9
                    else:
                        assert val == pytest.approx(rhs, abs=1e-9)
                solved += 1
        assert solved > 60  # the generator must exercise the optimal path

    def test_kkt_residuals_small(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            objective, rows = self._random_bounded_lp(rng)
            out = solve_lp(simple(objective, [LpRow(*r) for r in rows]))
            if out.status == LpStatus.OPTIMAL:
                for name, value in out.kkt_residuals.items():
                    assert value <= 1e-7, (name, value)


class TestDeterminismAndBatch:
    def test_bit_identical_resolve(self):
        lp = simple(
            [1.0, 2.0, -1.0],
            [([1, 1, 1], ">=", 1.0), ([1, -1, 0], "<=", 2.0), ([0, 1, 3], "<=", 9.0)],
            bounds=((0, 4), (0, 4), (0, 4)),
        )
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.value == b.value
        assert np.array_equal(a.solution, b.solution)

    def test_batch_matches_elementwise_and_counts(self):
        lps = [
            simple([1.0], [([1.0], ">=", float(k))]) for k in range(4)
        ]
        before = counters()["lp_solve"]
        outs = solve_lp_batch(lps)
        assert counters()["lp_solve"] - before == 4
        for k, out in enumerate(outs):
            assert out.value == pytest.approx(float(k), abs=1e-9)

    def test_empty_batch(self):
        assert solve_lp_batch([]) == []

    def test_singleton_batch_consistency(self):
        lp = simple([2.0, 1.0], [([1, 1], ">=", 3.0)], bounds=((0, None), (0, None)))
        single = solve_lp(lp)
        batched = solve_lp_batch([lp])[0]
        assert batched.value == single.value
        assert np.array_equal(batched.solution, single.solution)

    def test_batch_isolates_failures(self, monkeypatch):
        lp = simple([1.0], [([1.0], ">=", 1.0)])
        real = lp_mod.solve_lp
        calls = {"k": 0}

        def flaky(arg):
            calls["k"] += 1
            if calls["k"] == 2:
                raise NumericalFailureError("synthetic failure")
            return real(arg)

        monkeypatch.setattr(lp_mod, "solve_lp", flaky)
        outs = lp_mod.solve_lp_batch([lp, lp, lp])
        assert [o.status for o in outs] == [LpStatus.OPTIMAL, LpStatus.FAILED, LpStatus.OPTIMAL]
        assert outs[1].error == "synthetic failure"

    def test_batch_order(self):
        lps = [simple([1.0], [([1.0], ">=", float(k))]) for k in range(8)]
        outs = solve_lp_batch(lps)
        assert [o.value for o in outs] == pytest.approx(list(range(8)), abs=1e-12)


class TestDegenerate:
    def test_degenerate_cycling_guard(self):
        # classic cycling-prone instance (degenerate basic solutions)
        lp = simple(
            [-0.75, 150.0, -0.02, 6.0],
            [
                ([0.25, -60.0, -0.04, 9.0], "<=", 0.0),
                ([0.5, -90.0, -0.02, 3.0], "<=", 0.0),
                ([0.0, 0.0, 1.0, 0.0], "<=", 1.0),
            ],
            bounds=((0, None),) * 4,
        )
        out = solve_lp(lp)
        assert out.status == LpStatus.OPTIMAL
        assert out.value == pytest.approx(-0.05, abs=1e-9)
