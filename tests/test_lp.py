from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

import gen
import io_recover.lp as lp_mod
from io_recover import (
    Constraints,
    DimensionError,
    ForwardProblem,
    LinearProgram,
    LpStatus,
    ModelKind,
    NumericalFailureError,
    SideConstraints,
    solve,
    solve_lp,
    solve_lp_batch,
)
from io_recover.fixtures import example_case, solve_case
from conftest import vertex_enumeration_min


def constraints(p, rows, bounds=None):
    """Constraints over p variables from (coeffs, sense, rhs) rows and
    (lower, upper) bound pairs with None for absent."""
    A = np.array([coeffs for coeffs, _, _ in rows], dtype=float).reshape(len(rows), p)
    bounds = ((None, None),) * p if bounds is None else bounds
    lower = [-np.inf if lo is None else lo for lo, _ in bounds]
    upper = [np.inf if hi is None else hi for _, hi in bounds]
    return Constraints(A, [sense for _, sense, _ in rows], [rhs for _, _, rhs in rows], lower, upper)


def simple(objective, rows, bounds=None):
    objective = np.asarray(objective, float)
    return LinearProgram(objective, constraints(objective.size, rows, bounds))


def random_lp(rng, integer):
    """(objective, Constraints) over free, lower-only, upper-only, two-sided
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
    return draw(), constraints(p, rows, bounds)


def nlo_dg_shaped(rng, p, shift):
    """(objective, Constraints) shaped like one nlo-dg LP: p two-sided
    variables in blocks, one >= row per block over its own variables, and
    one all-ones <= row.  shift = +1 draws every >= row's right-hand side
    above its value at the lower bounds, -1 below it, so the shifted rows
    keep their sense or flip."""
    blocks = int(rng.integers(2, 6))
    owner = np.sort(rng.integers(0, blocks, p))
    lower = rng.choice([-3.0, -1.5, 0.0, 0.5], p)
    upper = lower + rng.choice([0.5, 1.0, 3.0, 6.0], p)
    loads = np.where(owner == np.arange(blocks)[:, None], rng.uniform(-2.0, 2.0, p), 0.0)
    at_lower = loads @ lower
    reach = np.maximum(loads, 0.0) @ (upper - lower)  # the most a row can rise from the lower bounds
    rhs = at_lower + shift * rng.uniform(0.05, 0.5, blocks) * reach
    total = float(lower.sum() + rng.uniform(0.1, 1.0) * (upper - lower).sum())
    cons = Constraints(np.vstack([loads, np.ones(p)]), (">=",) * blocks + ("<=",),
                       np.append(rhs, total), lower, upper)
    return loads[int(rng.integers(0, blocks))] + rng.choice([0.0, 0.1], p), cons


def assert_feasible(x, cons, label=None):
    """x satisfies every row of cons by its sense within 1e-9 * (1 + |rhs|)
    and every bound within 1e-9 * (1 + |bound|): checked against the input,
    not against anything the engine reports."""
    lhs = cons.A @ x
    for k, (sense, rhs) in enumerate(zip(cons.sense, cons.rhs)):
        tol = 1e-9 * (1.0 + abs(rhs))
        ok = {">=": lhs[k] >= rhs - tol, "<=": lhs[k] <= rhs + tol, "=": abs(lhs[k] - rhs) <= tol}[sense]
        assert ok, (label, "row", k, sense, lhs[k], rhs)
    for j, (lo, hi) in enumerate(zip(cons.lower, cons.upper)):
        assert lo == -np.inf or x[j] >= lo - 1e-9 * (1.0 + abs(lo)), (label, "lower", j, x[j], lo)
        assert hi == np.inf or x[j] <= hi + 1e-9 * (1.0 + abs(hi)), (label, "upper", j, x[j], hi)


@pytest.fixture
def steps(monkeypatch):
    """The engine's steps, in order: ("pivot", column) for each pivot and
    ("complement", column) for each column complemented at its cap."""
    log = []
    pivot, complement = lp_mod._pivot, lp_mod._complement

    def logged_pivot(T, i, j):
        log.append(("pivot", int(j)))
        pivot(T, i, j)

    def logged_complement(T, j, cap):
        log.append(("complement", int(j)))
        complement(T, j, cap)

    monkeypatch.setattr(lp_mod, "_pivot", logged_pivot)
    monkeypatch.setattr(lp_mod, "_complement", logged_complement)
    return log


def scalar_equality_form(lp):
    """Rows, right-hand sides, column caps and cost of the equality form, and
    the map back to x, one variable and one coefficient at a time: the
    reference for the column map of lp._Std.  The rows are the LP's alone:
    a two-sided bound caps its column at hi - lo."""
    cons = lp.constraints
    bounds = [(lo if lo > -np.inf else None, hi if hi < np.inf else None) for lo, hi in zip(cons.lower, cons.upper)]
    columns, caps = [], []  # per variable: (first column, kind, offset); per column: its cap
    for lo, hi in bounds:
        kind = "split" if lo is None and hi is None else ("shift" if lo is not None else "mirror")
        columns.append((len(caps), kind, {"split": 0.0, "shift": lo, "mirror": hi}[kind]))
        caps += [hi - lo if lo is not None and hi is not None else np.inf] * (2 if kind == "split" else 1)
    ncols = len(caps)

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
    for row, rhs_k in zip(cons.A, cons.rhs):
        coeffs, shift = mapped(row)
        b = rhs_k - shift
        rows.append(-coeffs if b < 0.0 else coeffs)
        rhs.append(-b if b < 0.0 else b)

    def to_original(u):
        x = []
        for col, kind, offset in columns:
            x.append(u[col] - u[col + 1] if kind == "split" else offset + (u[col] if kind == "shift" else -u[col]))
        return np.array(x)

    rows = np.array(rows).reshape(len(rows), ncols)
    return rows, np.array(rhs), np.array(caps), mapped(lp.objective)[0], to_original


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

    def test_unbounded_is_reported(self):
        out = solve_lp(simple([-1.0, 0.0], [([0, 1], ">=", 0.0)]))
        assert out.status == LpStatus.UNBOUNDED
        assert out.solution is None and out.value is None

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
            rows.append((coeffs, ">=", b[i]))
        rows.append(([0, 0, 0, 2, 1, 0], "<=", 2.0))
        bounds = ((1.0, 1.5), (0.0, 0.0), (0.0, 0.0), (2.0, 3.0), (None, -2.0), (-2.0, -0.5))
        shared = constraints(6, rows, bounds)
        lps = []
        for i in range(3):
            objective = np.zeros(6)
            objective[2 * i : 2 * i + 2] = x
            lps.append(LinearProgram(objective, shared))
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
            rows.append((coeffs, "<=", surplus[i]))
        rows.append(([1, 1, 1, 1], "<=", 2.5))
        shared = constraints(4, rows, ((0.5, None),) * 4)
        lps = []
        for i in range(3):
            objective = -np.where(owner == i, w, 0.0)
            lps.append(LinearProgram(objective, shared))
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
            out = solve_lp(simple(objective, rows))
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
        outs = solve_lp_batch(lps)
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

    @pytest.mark.parametrize("step", ["_Start", "_phase_two"])
    def test_numerical_failure_raises_and_ends_the_batch(self, monkeypatch, step):
        # a failure in the shared start (phase 1) or in an LP's phase 2 raises
        # from the batch, and no LP after it is solved
        first = simple([1.0], [([1.0], ">=", 1.0)])
        second = simple([2.0], [([1.0], ">=", 3.0)])
        real = getattr(lp_mod, step)
        calls = {"k": 0}

        def flaky(*args):
            calls["k"] += 1
            if calls["k"] == 2:
                raise NumericalFailureError("synthetic failure")
            return real(*args)

        monkeypatch.setattr(lp_mod, step, flaky)
        with pytest.raises(NumericalFailureError, match="^synthetic failure$"):
            lp_mod.solve_lp_batch([first, first, second, second])
        assert calls["k"] == 2

    @pytest.mark.parametrize("step", ["_Start", "_phase_two"])
    @pytest.mark.parametrize("number", [1, 3, 4, 5])
    def test_numerical_failure_raises_from_solve(self, monkeypatch, step, number, calls):
        # fixtures 1, 3 and 5 are the gap models nlo-dg, rlo-iu-dg and rlo-ccu-dg:
        # with their one coupling row twice, they run the LP engine.  Fixture
        # 4's rlo-iu-sd solves its rows in closed form, so a failing engine
        # does not reach it
        def failing(*args):
            raise NumericalFailureError("synthetic failure")

        monkeypatch.setattr(lp_mod, step, failing)
        case = example_case(number)
        if number == 4:
            assert solve_case(case).active_index == 3
            assert calls["lp_solve"] == 0
            return
        with pytest.raises(NumericalFailureError, match="^synthetic failure$"):
            solve_case(replace(case, omega=gen.two_couplings(case.omega)))

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

    def test_bland_starts_before_the_pivot_cap_on_wide_lps(self):
        # the cycling instance with 1000 zero columns: 10 (ncols + m) degenerate
        # steps would outlast MAX_PIVOTS, so Bland's rule starts at MAX_PIVOTS // 2
        pad = [0.0] * 1000
        lp = simple(
            [-0.75, 150.0, -0.02, 6.0] + pad,
            [
                ([0.25, -60.0, -0.04, 9.0] + pad, "<=", 0.0),
                ([0.5, -90.0, -0.02, 3.0] + pad, "<=", 0.0),
                ([0.0, 0.0, 1.0, 0.0] + pad, "<=", 1.0),
            ],
            bounds=((0, None),) * 1004,
        )
        out = solve_lp(lp)
        assert out.status == LpStatus.OPTIMAL
        assert out.value == pytest.approx(-0.05, abs=1e-9)
        assert out.solution == pytest.approx([0.04, 0.0, 1.0, 0.0] + pad, abs=1e-9)

    def test_bland_with_complemented_columns(self, monkeypatch, steps):
        # the same instance with every variable in [0, 1]: x3 = 1 meets its
        # cap and row 3 at once.  Bland's rule runs from the first degenerate
        # step (limit 0), and columns are complemented at their caps
        cons = constraints(4, [
            ([0.25, -60.0, -0.04, 9.0], "<=", 0.0),
            ([0.5, -90.0, -0.02, 3.0], "<=", 0.0),
            ([0.0, 0.0, 1.0, 0.0], "<=", 1.0),
        ], bounds=((0, 1),) * 4)
        objective = np.array([-0.75, 150.0, -0.02, 6.0])
        simplex = lp_mod._simplex
        monkeypatch.setattr(lp_mod, "_simplex", lambda *args: simplex(*args[:-1], 0))
        out = solve_lp(LinearProgram(objective, cons))
        assert ("complement", 2) in steps
        assert out.status == LpStatus.OPTIMAL
        assert out.value == pytest.approx(-0.05, abs=1e-9)
        assert out.solution == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-9)
        TestAgainstHighs()._check(out, objective, cons, "bland")


class TestBoundedVariables:
    """Two-sided bounds are column caps kept by the ratio test, not rows."""

    def test_entering_variable_flips_to_its_cap(self, steps):
        # min -x1 - x2 with x1 + x2 <= 10, x1 in [0, 2], x2 in [0, 3]: each
        # entering variable reaches its own cap before the row binds, so both
        # are bound flips and no pivot is made
        cons = constraints(2, [([1.0, 1.0], "<=", 10.0)], bounds=((0, 2), (0, 3)))
        out = solve_lp(LinearProgram(np.array([-1.0, -1.0]), cons))
        assert steps == [("complement", 0), ("complement", 1)]
        assert out.status == LpStatus.OPTIMAL
        assert np.array_equal(out.solution, [2.0, 3.0])
        assert out.value == -5.0

    def test_basic_variable_leaves_at_its_cap(self, steps):
        # min -2 x1 - x2 with x1 - x2 <= 0.5, x1 + x2 <= 10, x1 in [0, 1],
        # x2 in [0, 4].  x1 enters at row 1 (x1 = 0.5); x2 enters next and
        # raises the basic x1 to its cap 1 first, so x1 leaves at its cap.
        # Hand optimum: x = (1, 4), value -6
        cons = constraints(2, [([1.0, -1.0], "<=", 0.5), ([1.0, 1.0], "<=", 10.0)], bounds=((0, 1), (0, 4)))
        objective = np.array([-2.0, -1.0])
        out = solve_lp(LinearProgram(objective, cons))
        assert steps[:3] == [("pivot", 0), ("pivot", 1), ("complement", 0)]
        assert out.status == LpStatus.OPTIMAL
        assert out.solution == pytest.approx([1.0, 4.0], abs=1e-12)
        assert out.value == pytest.approx(-6.0, abs=1e-12)
        TestAgainstHighs()._check(out, objective, cons, "leaves at cap")

    def test_resolve_with_complemented_columns_is_bit_identical(self, steps):
        rng = np.random.default_rng(3)
        lp = LinearProgram(*nlo_dg_shaped(rng, 40, shift=1.0))
        first = solve_lp(lp)
        assert first.status == LpStatus.OPTIMAL
        assert any(kind == "complement" for kind, _ in steps)
        flipped = len(steps)
        for _ in range(3):
            again = solve_lp(lp)
            assert outcomes_equal(first, again)
            assert np.array_equal(first.solution, again.solution)
        assert steps == steps[:flipped] * 4

    def test_rows_are_the_lps_own(self):
        # no row restates a bound: the equality form has one row per LP row
        rng = np.random.default_rng(8)
        for trial in range(200):
            _, cons = random_lp(rng, integer=trial % 2 == 0)
            std = lp_mod._Std(cons)
            assert std.A.shape[0] == cons.A.shape[0], trial
            assert np.array_equal(np.isfinite(std.cap[: std.owner.size]),
                                  np.isfinite(cons.lower[std.owner]) & np.isfinite(cons.upper[std.owner])), trial

    def test_nlo_dg_tableau_has_one_row_per_lp_row(self, std_builds):
        # nlo-dg at 20 x 10: 20 feasibility rows and two coupling rows over 200
        # coefficients in [-3, 3], and no row for the box
        rng = np.random.default_rng(20)
        m, n = 20, 10
        x = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        A = rng.uniform(-2.0, 2.0, (m, n))
        A *= np.where(A @ x < 0.0, -1.0, 1.0)[:, None]
        problem = ForwardProblem(A=A, b=A @ x * rng.uniform(0.1, 0.9, m))
        p = m * n
        omega = SideConstraints(G=np.vstack([np.eye(p), -np.eye(p), np.ones((1, p))]),
                                h=np.concatenate([np.full(2 * p, 3.0), [float(p)]]))
        solution = solve(ModelKind.NLO_DG, problem, x, omega=gen.two_couplings(omega))
        assert solution.active_index is not None
        (cons,) = std_builds
        assert cons.A.shape == (22, 200)
        assert lp_mod._Std(cons).A.shape[0] == 22
        assert lp_mod._Start(cons).T.shape[0] == 22


class TestNoRows:
    # rows=() and no two-sided bound: the equality form has no rows at all
    def test_bounded_optimum_is_the_bound_corner(self):
        out = solve_lp(simple([1.0, -2.0, 0.0], [], bounds=((1.0, None), (None, 3.0), (None, None))))
        assert out.status == LpStatus.OPTIMAL
        assert np.array_equal(out.solution, [1.0, 3.0, 0.0])
        assert out.value == -5.0

    @pytest.mark.parametrize(
        "objective, bounds",
        [
            ([0.0, 2.0], ((0.0, None), (None, None))),  # free variable
            ([-1.0, 0.5], ((2.0, None), (0.0, None))),  # negative cost, lower bound only
            ([1.0, -3.0], ((None, 4.0), (-1.0, None))),  # two descent columns
        ],
    )
    def test_unbounded_along_a_unit_coordinate(self, objective, bounds):
        out = solve_lp(simple(objective, [], bounds=bounds))
        assert out.status == LpStatus.UNBOUNDED

    @pytest.mark.parametrize("rows, status", [
        (0, LpStatus.OPTIMAL), ([(">=", 1.0)], LpStatus.INFEASIBLE), ([("<=", 1.0)], LpStatus.OPTIMAL),
    ])
    def test_no_variables(self, rows, status):
        # an LP over no variables: no column can enter, and a row is feasible iff 0 meets it
        rows = rows or []
        cons = Constraints(np.zeros((len(rows), 0)), [s for s, _ in rows], [r for _, r in rows])
        out = solve_lp(LinearProgram(np.zeros(0), cons))
        assert out.status == status
        if status == LpStatus.OPTIMAL:
            assert out.solution.shape == (0,) and out.value == 0.0


class TestBoundValues:
    @pytest.mark.parametrize("bound", [(-np.inf, np.inf), (None, np.inf), (-np.inf, None), (None, None)])
    def test_infinite_bound_means_absent(self, bound):
        lp = simple([1.0], [([1.0], ">=", 1.0)], bounds=(bound,))
        assert (lp.constraints.lower.tolist(), lp.constraints.upper.tolist()) == ([-np.inf], [np.inf])
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
        assert (lp.constraints.lower.tolist(), lp.constraints.upper.tolist()) == ([-1.0, 0.0], [2.0, np.inf])
        assert lp.constraints.lower.dtype == lp.constraints.upper.dtype == np.float64


class TestConstraints:
    @pytest.mark.parametrize(
        "args, field",
        [
            (([1.0, 2.0], [">="], [1.0]), "A"),  # A is not a matrix
            (([[1.0, 2.0]], [">"], [1.0]), "sense"),
            (([[1.0, 2.0]], [">=", "<="], [1.0]), "sense"),
            (([[1.0, 2.0]], [">="], [1.0, 2.0]), "rows"),
            (([[1.0, np.nan]], [">="], [1.0]), "rows"),
            (([[1.0, 2.0]], [">="], [np.inf]), "rows"),
            (([[1.0, 2.0]], [">="], [1.0], [0.0]), "bounds"),
            (([[1.0, 2.0]], [">="], [1.0], None, [1.0, 2.0, 3.0]), "bounds"),
            (([[1.0, 2.0]], [">="], [1.0], [0.0, 2.0], [1.0, 1.0]), "bounds"),
        ],
    )
    def test_malformed_is_rejected(self, args, field):
        with pytest.raises(DimensionError) as info:
            Constraints(*args)
        assert info.value.field == field

    def test_objective_must_match_the_variables(self):
        with pytest.raises(DimensionError) as info:
            LinearProgram([1.0], constraints(2, [([1.0, 1.0], ">=", 1.0)]))
        assert info.value.field == "objective"


class TestColumnMap:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        for trial in range(300):
            lp = LinearProgram(*random_lp(rng, integer=trial % 2 == 0))
            rows, rhs, caps, cost, to_original = scalar_equality_form(lp)
            std = lp_mod._Std(lp.constraints)
            nvar = cost.size
            assert np.array_equal(std.A[:, :nvar], rows), trial
            assert np.array_equal(std.b, rhs), trial
            assert np.array_equal(std.cap[:nvar], caps), trial
            assert np.all(std.cap[nvar:] == np.inf), trial
            full_cost = std.cost(lp.objective)
            assert np.array_equal(full_cost[:nvar], cost), trial
            assert not np.any(full_cost[nvar:])
            u = rng.uniform(0.0, 5.0, std.ncols)
            assert np.array_equal(std.to_original(u), to_original(u)), trial


def outcomes_equal(a, b):
    return (
        a.status == b.status
        and np.array_equal(a.solution, b.solution)
        and a.value == b.value
        and a.infeasibility == b.infeasibility
    )


class TestSharedStart:
    """LPs that hold the same Constraints share one equality form and one phase 1."""

    ROWS_A = (([1.0, 1.0, 0.0], ">=", 1.0), ([1.0, -1.0, 2.0], "=", 0.5))
    ROWS_B = (([0.0, 1.0, 1.0], ">=", 2.0),)
    BOUNDS = ((0.0, 3.0), (-1.0, None), (None, 2.0))

    def test_runs_share_one_equality_form(self, std_builds):
        objectives = [[1.0, 2.0, -1.0], [-1.0, 0.5, 0.0], [2.0, -1.0, 1.0], [0.0, 1.0, -3.0]]
        set_a, set_b = constraints(3, self.ROWS_A, self.BOUNDS), constraints(3, self.ROWS_B, self.BOUNDS)
        sets = [set_a, set_a, set_b, set_a]
        lps = [LinearProgram(np.array(c), s) for c, s in zip(objectives, sets)]
        outs = solve_lp_batch(lps)
        assert len(std_builds) == 3
        alone = [solve_lp(lp) for lp in lps]
        assert all(outcomes_equal(a, b) for a, b in zip(outs, alone))
        assert {o.status for o in outs} == {LpStatus.OPTIMAL, LpStatus.UNBOUNDED}

    def test_constraints_match_by_identity(self, std_builds):
        # LPs share a start iff they hold the same Constraints object: an
        # equal but distinct object, or the same one after another, starts a
        # new run
        set_a = constraints(3, self.ROWS_A, self.BOUNDS)
        copy_a = constraints(3, self.ROWS_A, self.BOUNDS)
        objective = np.array([1.0, 1.0, 1.0])
        lps = [
            LinearProgram(objective, set_a),
            LinearProgram(-objective, set_a),
            LinearProgram(objective, copy_a),
            LinearProgram(objective, copy_a),
            LinearProgram(objective, constraints(3, self.ROWS_A, ((0.0, 1.0),) + self.BOUNDS[1:])),
            LinearProgram(-objective, set_a),
        ]
        outs = solve_lp_batch(lps)
        built = [set_a, copy_a, lps[4].constraints, set_a]
        assert len(std_builds) == len(built) and all(c is d for c, d in zip(std_builds, built))
        assert all(outcomes_equal(a, solve_lp(lp)) for a, lp in zip(outs, lps))

    def test_no_rows_and_free_bounds_still_split_by_size(self, std_builds):
        outs = solve_lp_batch([simple([0.0], []), simple([0.0, 0.0], [])])
        assert len(std_builds) == 2
        assert [o.solution.size for o in outs] == [1, 2]

    def test_infeasible_start_is_shared(self, std_builds):
        shared = constraints(2, (([1.0, 1.0], ">=", 5.0), ([1.0, 0.0], "<=", 1.0)), ((None, 2.0), (None, 2.0)))
        lps = [LinearProgram(np.array(c), shared) for c in ([1.0, 0.0], [0.0, -1.0], [3.0, 2.0])]
        outs = solve_lp_batch(lps)
        assert len(std_builds) == 1
        assert [o.status for o in outs] == [LpStatus.INFEASIBLE] * 3
        assert outs[0].infeasibility > 0.5
        assert {o.infeasibility for o in outs} == {outs[0].infeasibility}
        assert outs[0].infeasibility == solve_lp(lps[1]).infeasibility

    def test_drive_out_drops_redundant_rows(self):
        # equality rows plus a combination of them: phase 1 leaves one
        # all-zero row, which the drive-out drops; the optimum is that of
        # the same polyhedron without the combination row
        rng = np.random.default_rng(11)
        dropped = 0
        for trial in range(60):
            p = int(rng.integers(3, 6))
            base = rng.integers(-3, 4, (int(rng.integers(1, p)), p)).astype(float)
            point = rng.integers(0, 3, p).astype(float)
            mix = rng.integers(1, 3, base.shape[0]).astype(float)
            R = np.vstack([base, mix @ base])
            lower, upper = np.zeros(p), np.full(p, 4.0)
            shared = Constraints(R, ("=",) * len(R), R @ point, lower, upper)
            reduced = Constraints(base, ("=",) * len(base), base @ point, lower, upper)
            lps = [LinearProgram(rng.integers(-3, 4, p).astype(float), shared) for _ in range(4)]
            start = lp_mod._Start(shared)
            dropped += start.T.shape[0] < start.std.m
            for lp, out in zip(lps, solve_lp_batch(lps)):
                assert out.status == LpStatus.OPTIMAL, trial
                assert_feasible(out.solution, shared, trial)
                v = solve_lp(LinearProgram(lp.objective, reduced)).value
                assert abs(out.value - v) <= 1e-9 * (1.0 + abs(v)), (trial, out.value, v)
        assert dropped >= 40, dropped


class TestAgainstHighs:
    """Differential check of solve_lp against HiGHS (scipy.optimize.linprog)."""

    @staticmethod
    def _highs(objective, cons):
        rows = list(zip(cons.A, cons.sense, cons.rhs))
        A_ub = [c if s == "<=" else -c for c, s, _ in rows if s != "="]
        b_ub = [r if s == "<=" else -r for _, s, r in rows if s != "="]
        A_eq = [c for c, s, _ in rows if s == "="]
        b_eq = [r for _, s, r in rows if s == "="]
        return linprog(objective, A_ub=A_ub or None, b_ub=b_ub or None, A_eq=A_eq or None,
                       b_eq=b_eq or None, bounds=list(zip(cons.lower, cons.upper)), method="highs")

    def _check(self, out, objective, cons, label):
        res = self._highs(objective, cons)
        status = res.status
        # HiGHS's presolve can call a feasible unbounded LP infeasible;
        # on a zero objective it settles feasibility alone.
        if status == 2 and self._highs(np.zeros_like(objective), cons).status == 0:
            status = 3
        expected = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}[status]
        assert out.status == expected, (label, out.status, res.message)
        if expected == LpStatus.OPTIMAL:
            # a feasible point with HiGHS's optimal value is optimal
            assert abs(out.value - res.fun) <= 1e-7 * (1.0 + abs(res.fun)), (label, out.value, res.fun)
            assert_feasible(out.solution, cons, label)
        return expected

    def test_status_and_value_match(self):
        rng = np.random.default_rng(20261018)
        seen = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0, LpStatus.UNBOUNDED: 0}
        no_rows = 0
        for trial in range(600):
            objective, cons = random_lp(rng, integer=trial % 2 == 0)
            out = solve_lp(LinearProgram(objective, cons))
            seen[self._check(out, objective, cons, trial)] += 1
            no_rows += not cons.A.shape[0]
        assert min(seen.values()) >= 100, seen
        assert no_rows >= 50

    def test_shared_start_batches_match(self, std_builds):
        # four objectives over each row set, solved from one shared start
        rng = np.random.default_rng(20261019)
        seen = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0, LpStatus.UNBOUNDED: 0}
        trials = 150
        for trial in range(trials):
            integer = trial % 2 == 0
            objective, shared = random_lp(rng, integer)
            p = objective.size
            objectives = [objective] + [
                rng.integers(-3, 4, p).astype(float) if integer else rng.uniform(-3.0, 3.0, p) for _ in range(3)
            ]
            lps = [LinearProgram(c, shared) for c in objectives]
            for k, (c, out) in enumerate(zip(objectives, solve_lp_batch(lps))):
                seen[self._check(out, c, shared, (trial, k))] += 1
        assert len(std_builds) == trials
        assert min(seen.values()) >= 100, seen

    def test_nlo_dg_shaped_batches_match(self, std_builds):
        # 120 shared starts of 10 to 60 two-sided variables, a few >= rows and
        # one all-ones <= row, each solved for its rows' objectives; even
        # trials keep every >= row's sense after the shift, odd ones flip it
        rng = np.random.default_rng(20261020)
        seen = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0, LpStatus.UNBOUNDED: 0}
        trials = 120
        for trial in range(trials):
            p = int(rng.integers(10, 61))
            _, shared = nlo_dg_shaped(rng, p, shift=1.0 if trial % 2 == 0 else -1.0)
            objectives = list(shared.A[:-1]) + [rng.uniform(-1.0, 1.0, p)]
            lps = [LinearProgram(c, shared) for c in objectives]
            for k, (c, out) in enumerate(zip(objectives, solve_lp_batch(lps))):
                seen[self._check(out, c, shared, (trial, k))] += 1
        assert len(std_builds) == trials
        assert seen[LpStatus.OPTIMAL] >= 400 and not seen[LpStatus.UNBOUNDED], seen
