import numpy as np
import pytest

import io_recover.lp as lp_mod
from io_recover import (
    DimensionError,
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


def random_lp(rng, integer):
    """(objective, rows, bounds) over free, lower-only, upper-only, two-sided
    and fixed bounds and all three senses; some have no rows."""
    p = int(rng.integers(1, 7))

    def draw():
        if integer:
            return rng.integers(-3, 4, p).astype(float)
        return np.where(rng.random(p) < 0.3, 0.0, rng.uniform(-3.0, 3.0, p))

    # integer right-hand sides, often 0, keep many vertices degenerate
    rows = [(draw(), str(rng.choice([">=", "<=", "="])), float(rng.integers(-4, 5)))
            for _ in range(int(rng.integers(0, 7)))]
    bounds = []
    for kind in rng.integers(0, 5, p):
        lo = float(rng.integers(-3, 3))
        hi = lo + float(rng.integers(0, 4))
        bounds.append(((None, None), (lo, None), (None, hi), (lo, hi), (lo, lo))[kind])
    return draw(), rows, tuple(bounds)


def scalar_equality_form(lp):
    """Rows, right-hand sides and cost of the equality form, and the map back
    to x, one variable and one coefficient at a time: the reference for the
    column map of lp._Std."""
    bounds = lp.bounds or ((None, None),) * lp.num_vars
    columns, ncols = [], 0  # per variable: (first column, kind, offset)
    for lo, hi in bounds:
        kind = "split" if lo is None and hi is None else ("shift" if lo is not None else "mirror")
        columns.append((ncols, kind, {"split": 0.0, "shift": lo, "mirror": hi}[kind]))
        ncols += 2 if kind == "split" else 1

    def mapped(coeffs):
        out, shift = np.zeros(ncols), 0.0
        for c, (col, kind, offset) in zip(coeffs, columns):
            if c == 0.0:
                continue
            out[col] += -c if kind == "mirror" else c
            if kind == "split":
                out[col + 1] -= c
            else:
                shift += c * offset
        return out, shift

    rows, rhs = [], []
    for r in lp.rows:
        coeffs, shift = mapped(r.coeffs)
        b = r.rhs - shift
        rows.append(-coeffs if b < 0.0 else coeffs)
        rhs.append(-b if b < 0.0 else b)
    for (lo, hi), (col, _, _) in zip(bounds, columns):
        if lo is not None and hi is not None:
            rows.append(np.eye(ncols)[col])
            rhs.append(hi - lo)

    def to_original(u):
        x = []
        for col, kind, offset in columns:
            x.append(u[col] - u[col + 1] if kind == "split" else offset + (u[col] if kind == "shift" else -u[col]))
        return np.array(x)

    return np.array(rows).reshape(len(rows), ncols), np.array(rhs), mapped(lp.objective)[0], to_original


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


class TestNoRows:
    # rows=() and no two-sided bound: the equality form has no rows at all
    def test_bounded_optimum_is_the_bound_corner(self):
        out = solve_lp(simple([1.0, -2.0, 0.0], [], bounds=((1.0, None), (None, 3.0), (None, None))))
        assert out.status == LpStatus.OPTIMAL
        assert np.array_equal(out.solution, [1.0, 3.0, 0.0])
        assert out.value == -5.0
        assert out.dual.shape == (0,)
        assert out.kkt_residuals and max(out.kkt_residuals.values()) == 0.0

    @pytest.mark.parametrize(
        "objective, bounds, ray",
        [
            ([0.0, 2.0], ((0.0, None), (None, None)), [0.0, -1.0]),  # free variable
            ([-1.0, 0.5], ((2.0, None), (0.0, None)), [1.0, 0.0]),  # negative cost, lower bound only
            ([1.0, -3.0], ((None, 4.0), (-1.0, None)), [0.0, 1.0]),  # most negative cost column wins
        ],
    )
    def test_unbounded_along_a_unit_coordinate(self, objective, bounds, ray):
        out = solve_lp(simple(objective, [], bounds=bounds))
        assert out.status == LpStatus.UNBOUNDED
        assert np.array_equal(out.ray, ray)
        assert float(np.asarray(objective) @ out.ray) < 0.0


class TestBoundValues:
    @pytest.mark.parametrize("bound", [(-np.inf, np.inf), (None, np.inf), (-np.inf, None), (None, None)])
    def test_infinite_bound_means_absent(self, bound):
        lp = simple([1.0], [([1.0], ">=", 1.0)], bounds=(bound,))
        assert lp.bounds == ((None, None),)
        out = solve_lp(lp)
        assert out.status == LpStatus.OPTIMAL
        assert out.value == 1.0
        assert np.array_equal(out.solution, [1.0])

    @pytest.mark.parametrize("bound", [(np.nan, None), (None, np.nan), (np.inf, None), (None, -np.inf), (np.inf, np.inf)])
    def test_nan_or_wrong_side_infinity_is_rejected(self, bound):
        with pytest.raises(DimensionError) as info:
            simple([1.0], [([1.0], ">=", 1.0)], bounds=(bound,))
        assert info.value.field == "bounds"

    def test_finite_bounds_are_stored_as_floats(self):
        lp = simple([1.0, 1.0], [], bounds=((np.float64(-1.0), 2), (0, None)))
        assert lp.bounds == ((-1.0, 2.0), (0.0, None))
        assert all(type(v) is float for pair in lp.bounds for v in pair if v is not None)


class TestColumnMap:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        for trial in range(300):
            lp = simple(*random_lp(rng, integer=trial % 2 == 0))
            rows, rhs, cost, to_original = scalar_equality_form(lp)
            std = lp_mod._Std(lp)
            nvar = cost.size
            assert np.array_equal(std.A[:, :nvar], rows), trial
            assert np.array_equal(std.b, rhs), trial
            assert np.array_equal(std.cost[:nvar], cost), trial
            assert not np.any(std.cost[nvar:])
            u = rng.uniform(0.0, 5.0, std.ncols)
            assert np.array_equal(std.to_original(u), to_original(u)), trial


class TestAgainstHighs:
    """Differential check of solve_lp against HiGHS (scipy.optimize.linprog)."""

    @staticmethod
    def _highs(linprog, objective, rows, bounds):
        A_ub = [c if s == "<=" else -c for c, s, _ in rows if s != "="]
        b_ub = [r if s == "<=" else -r for _, s, r in rows if s != "="]
        A_eq = [c for c, s, _ in rows if s == "="]
        b_eq = [r for _, s, r in rows if s == "="]
        return linprog(objective, A_ub=A_ub or None, b_ub=b_ub or None, A_eq=A_eq or None,
                       b_eq=b_eq or None, bounds=list(bounds), method="highs")

    def test_status_and_value_match(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(20261018)
        seen = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0, LpStatus.UNBOUNDED: 0}
        no_rows = 0
        for trial in range(600):
            objective, rows, bounds = random_lp(rng, integer=trial % 2 == 0)
            out = solve_lp(simple(objective, rows, bounds=bounds))
            res = self._highs(linprog, objective, rows, bounds)
            status = res.status
            # HiGHS's presolve can call a feasible unbounded LP infeasible;
            # on a zero objective it settles feasibility alone.
            if status == 2 and self._highs(linprog, np.zeros_like(objective), rows, bounds).status == 0:
                status = 3
            expected = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}[status]
            assert out.status == expected, (trial, out.status, res.message)
            if expected == LpStatus.OPTIMAL:
                assert abs(out.value - res.fun) <= 1e-7 * (1.0 + abs(res.fun)), (trial, out.value, res.fun)
            elif expected == LpStatus.UNBOUNDED:
                assert float(objective @ out.ray) < 0.0, trial
            seen[expected] += 1
            no_rows += not rows
        assert min(seen.values()) >= 100, seen
        assert no_rows >= 50
