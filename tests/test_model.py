import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gen
import io_recover
from conftest import assert_same_bits, laid_out
from oracle import a8_by_every_row, canonicalize_by_product
from io_recover import (
    DimensionError,
    ForwardProblem,
    ModelKind,
    NormKind,
    PreconditionError,
    Prior,
    SideConstraints,
    UncertaintyStructure,
    solve_rlo_ccu_sd,
    validate,
)
from io_recover.fixtures import example_case
from io_recover.geometry import norm_value
from io_recover.model import (
    Status,
    ParamKeys,
    Variant,
    ValidationEntry,
    ValidationReport,
    canonicalize_omega,
    check_inputs,
    clamp_budget_prior,
    param_keys,
)


class TestTypes:
    def test_forward_problem_shapes(self):
        with pytest.raises(DimensionError) as err:
            ForwardProblem(A=[[1.0, 2.0]], b=[1.0, 2.0])
        assert err.value.field == "b"

    def test_forward_problem_finite(self):
        with pytest.raises(DimensionError):
            ForwardProblem(A=[[np.inf, 1.0]], b=[0.0])

    def test_immutable_arrays(self):
        prob = ForwardProblem(A=[[1.0, 0.0]], b=[0.0])
        with pytest.raises(ValueError):
            prob.A[0, 0] = 5.0

    def test_constructors_freeze_the_callers_float_arrays(self):
        # a float array is kept as passed, not copied, and made read-only: the caller can no longer write it
        A, b, alpha, G, h, est, xi = (np.ones(shape) for shape in [(2, 2), 2, (2, 2), (1, 4), 1, (2, 2), 2])
        built = [
            (ForwardProblem(A=A, b=b), {"A": A, "b": b}),
            (UncertaintyStructure.cardinality([(0,), (1,)], alpha), {"alpha": alpha}),
            (SideConstraints(G=G, h=h), {"G": G, "h": h}),
            (Prior(estimates=est, xi=xi), {"estimates": est, "xi": xi}),
        ]
        for obj, arrays_passed in built:
            for name, arr in arrays_passed.items():
                assert getattr(obj, name) is arr and not arr.flags.writeable, name
        with pytest.raises(ValueError):
            A[0, 0] = 5.0
        # other inputs are converted into a new array, and the caller's own is left as it was
        ints = np.ones((2, 2), dtype=int)
        assert ForwardProblem(A=ints, b=[1.0, 1.0]).A is not ints and ints.flags.writeable

    def test_nominal_structure_is_built_once(self):
        nominal = UncertaintyStructure.nominal()
        assert nominal is UncertaintyStructure.nominal()
        assert nominal.variant == Variant.NOMINAL and nominal.sets == () and nominal.alpha is None
        for arr in nominal.entries:
            with pytest.raises(ValueError):
                arr[...] = 0

    @given(G=arrays(float, st.tuples(st.integers(0, 5), st.integers(0, 4)),
                    elements=st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300])))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_side_constraints_read_the_nonzeros_once(self, G):
        omega = SideConstraints(G=G, h=np.zeros(G.shape[0]))
        for ours, theirs in zip(omega.entries, np.nonzero(G)):
            assert_same_bits(ours, theirs)
            with pytest.raises(ValueError):
                ours[...] = 0

    def test_observed_point_must_be_vector(self):
        problem = ForwardProblem(A=[[1.0]], b=[0.0])
        with pytest.raises(DimensionError):
            check_inputs(ModelKind.NLO_DG, problem, [[1.0]], UncertaintyStructure.nominal())

    def test_structure_alpha_nonneg(self):
        with pytest.raises(DimensionError):
            UncertaintyStructure.cardinality(((0,),), [[-1.0]])

    @pytest.mark.parametrize("sets", [((5,),), ((0,), (1,))], ids=["column past alpha", "row past alpha"])
    def test_structure_entry_outside_alpha_names_alpha(self, sets):
        with pytest.raises(DimensionError) as err:
            UncertaintyStructure.cardinality(sets, np.zeros((1, 2)))
        assert err.value.field == "alpha"

    @pytest.mark.parametrize("column", [1.5, 1.0, True, np.bool_(True), "1", math.nan, 1e30],
                             ids=["fraction", "whole float", "bool", "numpy bool", "string", "nan", "1e30"])
    def test_column_index_that_is_not_an_integer_names_uncertain_columns(self, column):
        # int() would truncate 1.5 and 1.0, read True and "1" as column 1, and raise on nan and 1e30
        with pytest.raises(DimensionError) as err:
            UncertaintyStructure.interval([(0,), (column, 0)])
        assert err.value.field == "uncertain_columns"
        assert "row 2" in str(err.value)

    def test_python_and_numpy_integer_columns_are_accepted(self):
        sets = [(np.int64(1), 0), np.array([1], dtype=np.int32), range(2)]
        assert UncertaintyStructure.interval(sets).sets == ((0, 1), (1,), (0, 1))

    @given(st.lists(st.lists(st.integers(-1, 6), max_size=6), max_size=5))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_each_row_keeps_its_columns_sorted_and_once(self, sets):
        negative = [i for i, s in enumerate(sets) if any(j < 0 for j in s)]
        if negative:
            with pytest.raises(DimensionError, match=f"row {negative[0] + 1} has negative column index"):
                UncertaintyStructure.interval(sets)
            return
        structure = UncertaintyStructure.interval(sets)
        expected = tuple(tuple(sorted(set(s))) for s in sets)
        assert structure.sets == expected
        rows, cols = structure.entries
        assert list(zip(rows.tolist(), cols.tolist())) == [(i, j) for i, s in enumerate(expected) for j in s]

    def test_prior_weights_nonneg(self):
        with pytest.raises(DimensionError):
            Prior(estimates=[[1.0]], xi=[-1.0])

    def test_equality_semantics(self):
        a = ForwardProblem(A=[[1.0, 0.0]], b=[1.0])
        b = ForwardProblem(A=[[1.0, 0.0]], b=[1.0])
        c = ForwardProblem(A=[[1.0, 0.0]], b=[2.0])
        assert a == b and a != c


MAKERS = {
    ModelKind.NLO_DG: gen.make_nlo_dg,
    ModelKind.NLO_SD: gen.make_nlo_sd,
    ModelKind.RLO_IU_DG: gen.make_iu_dg,
    ModelKind.RLO_IU_SD: gen.make_iu_sd,
    ModelKind.RLO_CCU_DG: gen.make_ccu_dg,
    ModelKind.RLO_CCU_SD: gen.make_ccu_sd,
}


DEFECTS = (
    [(model, "long x_hat") for model in MAKERS]
    + [(model, defect) for model in (ModelKind.RLO_IU_DG, ModelKind.RLO_IU_SD)
       for defect in ("column out of range", "too few sets")]
    + [(ModelKind.NLO_SD, shape) for shape in ("prior (1, n)", "prior (n,)")]
    + [(ModelKind.RLO_CCU_SD, shape) for shape in ("prior (1,)", "prior (1, m)", "prior (m, n)")]
    + [(model, "long xi") for model in MAKERS if model.is_sd]
    + [(model, "extra omega column") for model in MAKERS if model.is_dg]
    + [(model, "wrong variant") for model in MAKERS if model.family != "nlo"]
    + [(model, "missing prior") for model in MAKERS if model.is_sd]
)
WRONG_SHAPES = pytest.mark.parametrize("model, defect", DEFECTS)
# solve and the solvers pass on only the data their model takes, so only
# validate sees the other: a well-shaped omega on a -sd model, a prior on a -dg one
UNREAD = [(model, "omega on -sd") for model in MAKERS if model.is_sd] + [
    (model, "prior on -dg") for model in MAKERS if model.is_dg
]


def _wrong_shaped(model, defect):
    """A generated instance with one defect, and the error it should raise:
    (type, the field it names, None for a PreconditionError)."""
    problem, x, structure, data, _ = MAKERS[model](0)
    m, n = problem.m, problem.n
    error = (DimensionError, "x_hat")
    if defect == "long x_hat":
        x = np.append(x, 1.0)
    elif defect == "missing prior":
        error = (DimensionError, "prior")
        data = None
    elif defect == "omega on -sd":
        error = (DimensionError, "omega")
    elif defect == "prior on -dg":
        error = (DimensionError, "prior")
    elif defect.startswith("prior"):
        error = (DimensionError, "prior.estimates")
        shape = {"prior (1, n)": (1, n), "prior (n,)": (n,), "prior (1,)": (1,),
                 "prior (1, m)": (1, m), "prior (m, n)": (m, n)}[defect]
        data = Prior(estimates=np.full(shape, 0.5), norm=data.norm)
    elif defect == "long xi":
        error = (DimensionError, "prior.xi")
        data = Prior(estimates=data.estimates, xi=np.ones(m + 1), norm=data.norm)
    elif defect == "extra omega column":
        error = (DimensionError, "omega.G")
        data = SideConstraints(G=np.hstack([data.G, np.zeros((data.G.shape[0], 1))]), h=data.h)
    elif defect == "wrong variant":
        error = (PreconditionError, None)
        sets = (tuple(range(n)),) * m
        structure = (
            UncertaintyStructure.cardinality(sets, np.ones((m, n)))
            if model.family == "iu"
            else UncertaintyStructure.interval(sets)
        )
    else:
        error = (DimensionError, "uncertain_columns")
        sets = structure.sets[:-1]
        if defect == "column out of range":
            sets = (structure.sets[0] + (n,),) + structure.sets[1:]
        structure = UncertaintyStructure.interval(sets)
    return (problem, x, structure, data), error


def _call_solver(model, problem, x, structure, data):
    solver = getattr(io_recover, "solve_" + model.value.replace("-", "_"))
    return solver(problem, x, data) if model.family == "nlo" else solver(problem, x, structure, data)


def _raises(error, call, *args, **kwargs):
    kind, field = error
    with pytest.raises(kind) as err:
        call(*args, **kwargs)
    assert type(err.value) is kind and getattr(err.value, "field", None) == field


@WRONG_SHAPES
def test_solve_names_the_wrong_shaped_field(model, defect):
    (problem, x, structure, data), error = _wrong_shaped(model, defect)
    _raises(error, io_recover.solve, model, problem, x, structure, omega=data, prior=data)


@WRONG_SHAPES
def test_solver_names_the_wrong_shaped_field(model, defect):
    """The solver functions check their inputs themselves, as io_recover.solve does."""
    args, error = _wrong_shaped(model, defect)
    _raises(error, _call_solver, model, *args)


@pytest.mark.parametrize("model, defect", DEFECTS + UNREAD)
def test_validate_names_the_wrong_shaped_field(model, defect):
    (problem, x, structure, data), error = _wrong_shaped(model, defect)
    data = {"prior": data} if model.is_sd else {"omega": data}
    if defect == "omega on -sd":
        data["omega"] = SideConstraints(G=np.zeros((1, len(param_keys(model, problem, structure)))), h=[1.0])
    elif defect == "prior on -dg":
        data["prior"] = Prior(estimates=np.ones((problem.m, problem.n)))
    _raises(error, validate, problem, x, structure, model, **data)


@pytest.mark.parametrize("number", range(1, 9))
def test_certificate_names_a_long_observation(number):
    case = example_case(number)
    solution = io_recover.solve(case.model, case.problem, case.x_hat, case.structure, case.omega, case.prior)
    long_x = np.append(case.x_hat, 1.0)
    _raises((DimensionError, "x_hat"), io_recover.check_certificate, case.model, case.problem, long_x,
            case.structure, solution)


@pytest.mark.parametrize("estimates, sets, message", [
    ([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]], ((0,), (1, 4, 3, 6)), "row 2 references column 4 > n = 3"),
    ([[0.1, -0.2, -0.3], [-0.4, 0.2, -0.5]], ((0, 2), (1, 2)), "alpha[1][3] = -0.3 is negative"),
    ([[0.1, -0.2, 0.3], [-0.4, 0.2, -0.5]], ((0, 2), (1, 2)), "alpha[2][3] = -0.5 is negative"),
], ids=["column past n", "negative prior", "negative prior off the first columns"])
def test_check_inputs_names_the_first_offender(estimates, sets, message):
    problem = ForwardProblem(A=np.ones((2, 3)), b=[0.0, 0.0])
    prior = Prior(estimates=estimates, norm=NormKind.L1)
    with pytest.raises(DimensionError) as err:
        check_inputs(ModelKind.RLO_IU_SD, problem, [1.0, 1.0, 1.0], UncertaintyStructure.interval(sets), prior=prior)
    assert str(err.value).endswith(message)


@pytest.mark.parametrize("model", [m for m in MAKERS if m.family != "nlo"], ids=lambda m: m.value)
def test_solver_rejects_the_wrong_variant(model):
    problem, x, _, data, _ = MAKERS[model](0)
    sets = (tuple(range(problem.n)),) * problem.m
    other = (
        UncertaintyStructure.cardinality(sets, np.ones((problem.m, problem.n)))
        if model.family == "iu"
        else UncertaintyStructure.interval(sets)
    )
    with pytest.raises(PreconditionError):
        _call_solver(model, problem, x, other, data)


class TestOmega:
    def test_single_variable_rows_become_bounds(self):
        G = np.array([[2.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        h = np.array([6.0, -1.0, 2.0, 3.5])
        omega = SideConstraints(G=G, h=h)
        keys = ParamKeys((2, 1), np.arange(2))
        canon = canonicalize_omega(omega, keys)
        assert canon.lower == pytest.approx([1.0, -np.inf])
        assert canon.upper == pytest.approx([3.0, 2.0])
        assert canon.G.shape == (1, 2)
        assert canon.feasible

    def test_crossed_bounds_flagged_infeasible(self):
        omega = SideConstraints(G=[[1.0], [-1.0]], h=[1.0, -2.0])
        canon = canonicalize_omega(omega, ParamKeys((1, 1), np.arange(1)))
        assert not canon.feasible

    def test_variable_order_permutes_columns(self):
        # names (row, column) find their places in the natural order, for every kind of parameter
        keys = ParamKeys((2, 1), np.arange(2))
        assert keys.places(np.array([1, 0])).tolist() == [1, 0]
        nlo = ParamKeys((2, 3), np.repeat(np.arange(2), 3), np.tile(np.arange(3), 2))
        assert nlo.places(np.array([1, 0, 0, 1, 0, 1]), np.array([2, 0, 2, 0, 1, 1])).tolist() == [5, 0, 2, 3, 1, 4]
        iu = ParamKeys((3, 3), np.array([0, 0, 2]), np.array([1, 2, 0]))  # the uncertain entries alone
        assert iu.places(np.array([2, 0, 0]), np.array([0, 2, 1])).tolist() == [2, 1, 0]
        # G read under the names [gamma[2], gamma[1]] and put into the natural order, as a document is
        omega = SideConstraints(G=np.take([[1.0, 0.0], [1.0, 2.0]], np.argsort(keys.places(np.array([1, 0]))), axis=1),
                                h=[5.0, 6.0])
        canon = canonicalize_omega(omega, keys)
        assert np.array_equal(canon.upper, [np.inf, 5.0])
        assert np.array_equal(canon.G, [[2.0, 1.0]])

    def test_variable_order_must_cover_all(self):
        keys = ParamKeys((2, 3), np.array([0, 1]), np.array([0, 0]))  # a[1][1] and a[2][1]
        faults = {
            "repeated": ([1, 1], [0, 0]), "missing": ([0], [0]), "extra": ([0, 1, 0], [0, 0, 1]),
            "negative row": ([0, -1], [0, 0]), "row past m": ([0, 2], [0, 0]), "not a parameter": ([0, 1], [0, 2]),
            "column past n": ([0, 0], [0, 3]),  # a[1][4] would read as a[2][1] by its code i n + j alone
        }
        for label, (rows, cols) in faults.items():
            assert keys.places(np.array(rows), np.array(cols)) is None, label

    def test_coupling_detection(self):
        case = example_case(1)
        keys = param_keys(ModelKind.NLO_DG, case.problem, case.structure)
        assert canonicalize_omega(case.omega, keys).couples
        case3 = example_case(3)
        keys3 = param_keys(ModelKind.RLO_IU_DG, case3.problem, case3.structure)
        assert canonicalize_omega(case3.omega, keys3).couples
        box = SideConstraints(G=-np.eye(4), h=np.zeros(4))
        assert not canonicalize_omega(box, keys3).couples


def _loop_canonical(omega, keys, lower_floor, upper_cap):
    """canonicalize_omega written row by row: the reference for the masked
    version."""
    p = len(keys)
    lo = np.full(p, -np.inf) if lower_floor is None else np.maximum(np.full(p, -np.inf), lower_floor)
    hi = np.full(p, np.inf) if upper_cap is None else np.minimum(np.full(p, np.inf), upper_cap)
    G, h = omega.G, omega.h
    coupled, coupled_rhs, feasible, couples = [], [], True, False
    for r in range(G.shape[0]):
        nz = np.flatnonzero(G[r])
        if nz.size == 0:
            feasible = feasible and not h[r] < -1e-9
        elif nz.size == 1:
            j = int(nz[0])
            if G[r, j] > 0:
                hi[j] = min(hi[j], h[r] / G[r, j])
            else:
                lo[j] = max(lo[j], h[r] / G[r, j])
        else:
            coupled.append(G[r])
            coupled_rhs.append(h[r])
            couples = couples or np.unique(keys.rows[nz]).size > 1
    feasible = feasible and not np.any(lo > hi + 1e-9)
    G = np.array(coupled) if coupled else np.zeros((0, p))
    h = np.array(coupled_rhs) if coupled_rhs else np.zeros(0)
    return lo, hi, G, h, feasible, couples


def test_masked_omega_matches_row_loop():
    rng = np.random.default_rng(11)
    for trial in range(400):
        m, n = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        keys = ParamKeys((m, n), np.repeat(np.arange(m), n), np.tile(np.arange(n), m))
        p = len(keys)
        G = rng.choice([0.0, 0.0, 0.0, 1.0, -1.0, 2.0, -0.5], (int(rng.integers(0, 8)), p))
        h = rng.choice([0.0, 1.0, -1.0, -1e-10, -1e-8, 3.0], G.shape[0])
        if trial % 3 == 0:  # G read in a permuted column order, then put into the natural one
            perm = rng.permutation(p)
            G = G.take(np.argsort(keys.places(keys.rows[perm], keys.cols[perm])), axis=1)
        omega = SideConstraints(G=G, h=h)
        floor = np.zeros(p) if trial % 2 else None
        cap = rng.uniform(0.0, 2.0, p) if trial % 4 == 1 else None
        lo, hi, Gc, hc, feasible, couples = _loop_canonical(omega, keys, floor, cap)
        canon = canonicalize_omega(omega, keys, floor, cap)
        assert np.array_equal(canon.lower, lo) and np.array_equal(canon.upper, hi), trial
        assert np.array_equal(canon.G, Gc) and canon.G.shape == Gc.shape, trial
        assert np.array_equal(canon.h, hc) and canon.feasible == feasible, trial
        assert canon.couples == couples, trial


@st.composite
def side_constraints(draw):
    """(omega, keys, floor, cap) over one gap model's parameters: rows that
    are zero, single, within one forward row, dense or sparse, zeros of
    either sign, right-hand sides on both sides of -1e-9, a permuted
    `variable_order`, and floors and caps that may cross; omega is None
    now and then."""
    family = draw(st.sampled_from(["a", "alpha", "gamma"]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    if family == "a":
        keys = ParamKeys((m, n), np.repeat(np.arange(m), n), np.tile(np.arange(n), m))
    elif family == "alpha":
        keys = ParamKeys((m, n), *np.nonzero(draw(arrays(bool, (m, n)))))  # no column at all: p = 0
    else:
        keys = ParamKeys((m, 1), np.arange(m))
    p = len(keys)
    values = st.sampled_from([1.0, -1.0, 2.0, -0.5, 3.25, 1e-300])
    kinds = draw(st.lists(st.sampled_from(["zero", "single", "within", "dense", "sparse"]), max_size=8))
    G = np.zeros((len(kinds), p))
    for r, kind in enumerate(kinds):
        if p and kind == "single":
            G[r, draw(st.integers(0, p - 1))] = draw(values)
        elif p and kind == "within":
            cols = np.flatnonzero(keys.rows == keys.rows[draw(st.integers(0, p - 1))])
            G[r, cols] = draw(arrays(float, cols.size, elements=values))
        elif kind in ("dense", "sparse"):
            G[r] = draw(arrays(float, p, elements=values if kind == "dense" else values | st.just(0.0)))
    G = np.where(draw(arrays(bool, G.shape)), -G, G)  # -0.0 where a zero is negated
    h = draw(arrays(float, len(kinds), elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, -1e-10, -1e-8, 0.7])))
    perm = np.array(draw(st.permutations(range(p))), dtype=np.intp)
    if draw(st.booleans()):  # G read under a permuted `variable_order`, then put into the natural order
        cols = None if keys.cols is None else keys.cols[perm]
        G = G[:, perm].take(np.argsort(keys.places(keys.rows[perm], cols)), axis=1)
    omega = SideConstraints(G=G, h=h)
    bounds = arrays(float, p, elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, np.inf]))
    floor = draw(st.none() | st.just(np.zeros(p)) | bounds)
    cap = draw(st.none() | bounds)
    return None if draw(st.integers(0, 9)) == 0 else omega, keys, floor, cap


@given(case=side_constraints())
@settings(derandomize=True, max_examples=500, deadline=None)
def test_canonical_omega_matches_the_product_scan(case):
    # read from the nonzeros listed at construction, every field is as the whole-G scan made it
    ours, theirs = canonicalize_omega(*case), canonicalize_by_product(*case)
    for name in ("lower", "upper", "G", "h"):
        assert_same_bits(getattr(ours, name), getattr(theirs, name))
    assert ours.G.flags.c_contiguous
    for name in ("feasible", "couples"):
        assert type(getattr(ours, name)) is bool and getattr(ours, name) == getattr(theirs, name)


GAP_MAKERS = {ModelKind.NLO_DG: gen.make_nlo_dg, ModelKind.RLO_IU_DG: gen.make_iu_dg,
              ModelKind.RLO_CCU_DG: gen.make_ccu_dg}
OMEGA_FORMS = {"as drawn": lambda omega: omega, "couple_rows": gen.couple_rows,
               "two_couplings": lambda omega: gen.two_couplings(gen.couple_rows(omega))}


@given(model=st.sampled_from(sorted(GAP_MAKERS)), seed=st.integers(0, 299), form=st.sampled_from(sorted(OMEGA_FORMS)),
       data=st.data())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_the_split_made_at_construction_leaks_into_no_call(model, seed, form, data):
    # one omega canonicalized under a floor and a cap, then under none, then under others, with its model's
    # validate and solve in between: each call matches the whole-G scan of its own inputs, byte for byte,
    # even after the caller wrote into what the earlier calls returned; the split omega holds is read-only
    problem, x, structure, omega, _ = GAP_MAKERS[model](seed)
    omega = OMEGA_FORMS[form](omega)
    keys = param_keys(model, problem, structure)
    bounds = arrays(float, len(keys), elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, np.inf]))
    calls = [(data.draw(bounds), data.draw(bounds)), (None, None),
             (data.draw(st.none() | bounds), data.draw(st.none() | bounds))]
    for floor, cap in calls:
        ours, theirs = canonicalize_omega(omega, keys, floor, cap), canonicalize_by_product(omega, keys, floor, cap)
        for name in ("lower", "upper", "G", "h"):
            assert_same_bits(getattr(ours, name), getattr(theirs, name))
            getattr(ours, name)[...] = 7.0
        assert (ours.feasible, ours.couples) == (theirs.feasible, theirs.couples)
        validate(problem, x, structure, model, omega=omega)
        io_recover.solve(model, problem, x, structure, omega=omega)
    for arr in (*omega._bounds, omega._kept, *omega._kept_entries):
        with pytest.raises(ValueError):
            arr[...] = 0


class TestValidate:
    def test_example2_all_pass(self):
        case = example_case(2)
        report = validate(
            case.problem, case.x_hat, case.structure, case.model, prior=case.prior
        )
        assert report.ok
        assert all(e.level == "pass" for e in report.entries)

    def test_zero_observation_fails_a3(self):
        case = example_case(2)
        report = validate(
            case.problem, [0.0, 0.0], case.structure, case.model, prior=case.prior
        )
        assert report.level("A3") == "fail"

    def test_zero_rhs_warns_a2_on_row3(self):
        case = example_case(7)
        report = validate(
            case.problem, case.x_hat, case.structure, case.model, prior=case.prior
        )
        assert report.level("A2") == "warn"
        warn = [e for e in report.entries if e.check == "A2" and e.level == "warn"][0]
        assert warn.rows == (3,)

    def test_dimension_mismatch_names_field(self):
        case = example_case(2)
        with pytest.raises(DimensionError) as err:
            validate(case.problem, [1.0, 2.0, 3.0], case.structure, case.model)
        assert err.value.field == "x_hat"

    def test_pure_function(self):
        case = example_case(6)
        r1 = validate(case.problem, case.x_hat, case.structure, case.model, prior=case.prior)
        r2 = validate(case.problem, case.x_hat, case.structure, case.model, prior=case.prior)
        assert r1 == r2

    def test_interval_empty_set_fails_a4(self):
        prob = ForwardProblem(A=[[1.0, 0.0], [0.0, 1.0]], b=[0.5, 0.5])
        structure = UncertaintyStructure.interval(((0,), ()))
        report = validate(prob, [1.0, 1.0], structure, ModelKind.RLO_IU_DG)
        assert report.level("A4") == "fail"

    def test_ccu_nominal_infeasible_fails_a7(self):
        case = example_case(5)
        report = validate(case.problem, [9.0, 9.0], case.structure, case.model)
        assert report.level("A7") == "fail"

    def test_ccu_prior_clamp_warns_a9(self):
        case = example_case(6)
        prior = Prior(estimates=[0.2, 1.0, 7.0], norm=NormKind.L1)
        report = validate(case.problem, case.x_hat, case.structure, case.model, prior=prior)
        assert report.level("A9") == "warn"
        clamped = clamp_budget_prior(prior, case.structure)
        assert clamped == pytest.approx([0.2, 1.0, 2.0])

    def test_ccu_sd_weights_warn_and_are_ignored(self):
        case = example_case(6)
        weighted = Prior(estimates=case.prior.estimates, xi=[1.0, 2.0, 1.0], norm=NormKind.L1)
        report = validate(case.problem, case.x_hat, case.structure, case.model, prior=weighted)
        assert report.level("xi") == "warn"
        assert [e.rows for e in report.warnings() if e.check == "xi"] == [(2,)]
        unweighted = validate(case.problem, case.x_hat, case.structure, case.model, prior=case.prior)
        assert unweighted.level("xi") == "pass"
        plain = solve_rlo_ccu_sd(case.problem, case.x_hat, case.structure, case.prior)
        sol = solve_rlo_ccu_sd(case.problem, case.x_hat, case.structure, weighted)
        assert sol.active_index == plain.active_index
        assert sol.objective_value == plain.objective_value
        assert np.array_equal(sol.imputed, plain.imputed)

    def test_a1_certified_by_boxes(self):
        case = example_case(1)
        report = validate(case.problem, case.x_hat, case.structure, case.model, omega=case.omega)
        # the coupled row blocks certification, so A1 is a warn, not a pass
        assert report.level("A1") == "warn"
        box_omega = SideConstraints(
            G=np.vstack([-np.eye(6), np.eye(6)]),
            h=np.array([-1.0, 0.0, 0.0, -2.0, 2.5, 2.0] + [1.5, 0.0, 0.0, 3.0, -2.0, -0.5]),
        )
        report2 = validate(case.problem, case.x_hat, case.structure, case.model, omega=box_omega)
        assert report2.level("A1") == "pass"

    @pytest.mark.parametrize("h, rows", [(-1.0, (2,)), (1.0, (1, 2))])
    def test_a1_reads_side_rows_within_a_row(self, h, rows):
        # -a11 - a12 <= h: with h = -1 row 1 cannot be zero, with h = 1 it can
        prob = ForwardProblem(A=[[1.0, 1.0], [1.0, -1.0]], b=[0.0, -1.0])
        omega = SideConstraints(G=[[-1.0, -1.0, 0.0, 0.0]], h=[h])
        report = validate(prob, [1.0, 1.0], UncertaintyStructure.nominal(), ModelKind.NLO_DG, omega=omega)
        assert [e.rows for e in report.failures()] == [rows]

    def test_a1_fails_without_side_constraints(self):
        prob = ForwardProblem(A=[[1.0, 0.0]], b=[-1.0])
        report = validate(prob, [1.0, 0.0], UncertaintyStructure.nominal(), ModelKind.NLO_DG)
        assert report.level("A1") == "fail"


def _loop_entry(check, level, rows=(), message=""):
    return ValidationEntry(check=check, level=level, rows=tuple(int(r) + 1 for r in rows), message=message)


def _loop_validate(problem, x_hat, structure, model, omega=None, prior=None):
    """The standing assumptions checked row by row, with one pass/fail/warn
    branch per check: the reference `validate` must reproduce entry for entry."""
    model = ModelKind(model)
    x = check_inputs(model, problem, x_hat, structure, omega, prior)
    entries = []
    m, n = problem.m, problem.n
    if model == ModelKind.NLO_DG:
        bad, uncertifiable = [], []
        canon = canonicalize_omega(omega, param_keys(model, problem, structure))
        for i in range(m):
            if problem.b[i] > 0:
                continue
            if omega is None:
                bad.append(i)
                continue
            if canon.couples:
                uncertifiable.append(i)
                continue
            cols = slice(i * n, (i + 1) * n)
            within = np.any(canon.G[:, cols] != 0.0, axis=1)
            zero_allowed = (
                np.all(canon.lower[cols] <= 1e-12) and np.all(canon.upper[cols] >= -1e-12)
                and np.all(canon.h[within] >= -1e-12)
            )
            if zero_allowed and problem.b[i] <= 1e-12:
                bad.append(i)
        if bad:
            entries.append(
                _loop_entry("A1", "fail", bad, "a zero row is admissible: b <= 0 and the side constraints allow it")
            )
        if uncertifiable:
            entries.append(_loop_entry(
                "A1", "warn", uncertifiable,
                "coupled side constraints: zero-row exclusion checked a-posteriori on the solution",
            ))
        if not bad and not uncertifiable:
            entries.append(_loop_entry("A1", "pass"))
    if model == ModelKind.NLO_SD:
        zero_b = [i for i in range(m) if problem.b[i] == 0.0]
        if zero_b:
            entries.append(_loop_entry(
                "A2", "warn", zero_b, "zero right-hand side: trivial output possible; perturbation paths apply"
            ))
        else:
            entries.append(_loop_entry("A2", "pass"))
        zero_rows = [i for i in range(m) if not np.any(prior.estimates[i] != 0.0)]
        if zero_rows:
            entries.append(_loop_entry("A2", "fail", zero_rows, "prior row is the zero vector"))
        if np.any(x != 0.0):
            entries.append(_loop_entry("A3", "pass"))
        else:
            entries.append(_loop_entry("A3", "fail", (), "observed point is the zero vector"))
    mask = structure.mask(n)
    if model.family == "iu":
        empty = [i for i in range(m) if not structure.sets[i]]
        if empty:
            entries.append(_loop_entry("A4", "fail", empty, "row has no uncertain coefficients"))
        else:
            entries.append(_loop_entry("A4", "pass"))
        bad5 = np.flatnonzero((problem.b <= 0) & ~np.any((problem.A != 0.0) & ~mask, axis=1))
        entries.append(
            _loop_entry("A5", "fail", bad5, "no certainly nonzero coefficient and b <= 0")
            if bad5.size else _loop_entry("A5", "pass")
        )
        if model == ModelKind.RLO_IU_SD:
            entries.append(
                _loop_entry("A6", "pass") if np.any(mask & (x != 0.0))
                else _loop_entry("A6", "fail", (), "every uncertain column is zero at the observed point")
            )
    if model.family == "ccu":
        surplus = problem.surplus(x)
        bad7 = [i for i in range(m) if surplus[i] < -1e-9]
        entries.append(
            _loop_entry("A7", "fail", bad7, "observed point violates the nominal constraint")
            if bad7 else _loop_entry("A7", "pass")
        )
        entries.append(a8_by_every_row(problem, x, structure))
        if model == ModelKind.RLO_CCU_SD:
            off = [i for i in range(m) if prior.estimates[i] < 0.0 or prior.estimates[i] > len(structure.sets[i])]
            if off:
                entries.append(_loop_entry(
                    "A9", "warn", off, "budget prior outside [0, |J_i|]; clamped to the nearest endpoint"
                ))
            else:
                entries.append(_loop_entry("A9", "pass"))
            weighted = np.flatnonzero(prior.weights(m) != 1.0)
            if weighted.size:
                entries.append(_loop_entry(
                    "xi", "warn", weighted, "budget recovery ignores prior weights; all are taken as 1"
                ))
        bad10 = np.flatnonzero(~np.any(np.where(mask, np.abs(problem.A) > structure.alpha, problem.A != 0.0), axis=1))
        entries.append(
            _loop_entry("A10", "fail", bad10, "every coefficient can be deviated to zero")
            if bad10.size else _loop_entry("A10", "pass")
        )
    return ValidationReport(entries=tuple(entries))


def _validation_corpus(model):
    """The model's generated instances, seeds 0-199: b as drawn and with row
    seed % m set to 0, -1 or 1e-13, each at the drawn x and at x = 0.  A gap
    model's omega is as drawn, absent or coupled by `gen.couple_rows`, by seed % 3."""
    for seed in range(200):
        problem, x, structure, data, _ = MAKERS[model](seed)
        if model.is_dg:
            data = (data, None, None if data is None else gen.couple_rows(data))[seed % 3]
        for value in (None, 0.0, -1.0, 1e-13):
            b = np.array(problem.b)
            if value is not None:
                b[seed % problem.m] = value
            for point in (x, np.zeros_like(x)):
                yield model, ForwardProblem(A=problem.A, b=b), point, structure, data


def _assert_same_validation(model, problem, x, structure, data):
    kwargs = {"prior": data} if model.is_sd else {"omega": data}
    report = validate(problem, x, structure, model, **kwargs)
    assert report == _loop_validate(problem, x, structure, model, **kwargs)
    return report


def _made_by_hand():
    """Instances for the branches the generators do not reach."""
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    zero_prior_row = Prior(estimates=[[0.0, 0.0], [1.0, -1.0]])
    nominal = UncertaintyStructure.nominal()
    yield ModelKind.NLO_SD, ForwardProblem(A=A, b=[1.0, 0.5]), [1.0, 1.0], nominal, zero_prior_row
    interval = UncertaintyStructure.interval(((0,), ()))
    yield ModelKind.RLO_IU_DG, ForwardProblem(A=A, b=[0.5, -0.5]), [1.0, 1.0], interval, None
    ccu = UncertaintyStructure.cardinality(((0, 1), (1,)), [[1.0, 1.0], [0.0, 0.5]])
    ccu_problem = ForwardProblem(A=A, b=[-1.0, -1.0])
    yield ModelKind.RLO_CCU_SD, ccu_problem, [1.0, 1.0], ccu, Prior(estimates=[2.5, -0.5], norm=NormKind.L1)
    yield ModelKind.RLO_CCU_SD, ccu_problem, [1.0, 1.0], ccu, Prior(estimates=[1.0, 1.0], xi=[1.0, 3.0])
    yield ModelKind.RLO_CCU_DG, ccu_problem, [-9.0, 1.0], ccu, None
    # row 1: -a11 - a12 <= -1 rules its zero row out; row 2 may be zero
    omega = SideConstraints(G=[[-1.0, -1.0, 0.0, 0.0]], h=[-1.0])
    yield ModelKind.NLO_DG, ForwardProblem(A=A, b=[0.0, -1.0]), [1.0, 1.0], nominal, omega


class TestValidateMatchesRowLoop:
    """validate's one array test per assumption against the row-by-row reference."""

    @pytest.mark.parametrize("model", list(MAKERS), ids=lambda m: m.value)
    def test_generated_corpus(self, model):
        seen = set()
        count = 0
        for case in _validation_corpus(model):
            seen |= {(e.check, e.level) for e in _assert_same_validation(*case).entries}
            count += 1
        assert count == 1600
        assert {level for _, level in seen} >= {"pass", "fail"}

    def test_branches_made_by_hand(self):
        seen = set()
        for case in _made_by_hand():
            seen |= {(e.check, e.level) for e in _assert_same_validation(*case).entries}
        assert seen >= {("A2", "fail"), ("A4", "fail"), ("A9", "warn"), ("xi", "warn"), ("A10", "fail"),
                        ("A7", "fail"), ("A8", "pass"), ("A1", "fail")}


class TestA8RanksOnlyRowsWithAZeroProduct:
    """A8 ranks only the rows with a product alpha_ij |x_j| <= 1e-12 on J_i,
    the rows whose activation budgets can differ, and reports what ranking
    every row reports (`oracle.a8_by_every_row`)."""

    @given(seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(["C", "F", "strided"]))
    @settings(derandomize=True, max_examples=500, deadline=None)
    @example(seed=278740, layout="C")  # kills a filter of products < 1e-12
    def test_matches_ranking_every_row(self, seed, layout):
        # zero and 1e-12 products, surpluses at the full protection, magnitudes across the floats
        # (`gen.edge_rows`); A in the drawn layout, on which a dot's bits can depend
        model, problem, x, structure, _ = gen.edge_rows(seed, "ccu")
        _assert_same_validation(model, ForwardProblem(A=laid_out(problem.A, layout), b=problem.b), x, structure,
                                None)

    def test_positive_products_rank_no_row(self, calls):
        problem, x, structure, omega = gen.make_dg_box(ModelKind.RLO_CCU_DG, 20, 5, 3)
        report = validate(problem, x, structure, ModelKind.RLO_CCU_DG, omega=omega)
        assert report.level("A8") == "pass"
        assert (calls["ranked_rows"], calls["activation_budgets"]) == (0, 0)

    def test_rows_with_a_zero_product_are_ranked(self, calls):
        problem, x, structure, omega = gen.make_dg_box(ModelKind.RLO_CCU_DG, 20, 5, 3)
        alpha = np.array(structure.alpha)
        alpha[[4, 11], 2] = 0.0
        # row 12's surplus is its full protection, so every budget from 4 to 5 activates it
        b = np.array(problem.b)
        b[11] = problem.A[11] @ x - alpha[11] @ np.abs(x)
        problem = ForwardProblem(A=problem.A, b=b)
        structure = UncertaintyStructure.cardinality(structure.sets, alpha)
        report = validate(problem, x, structure, ModelKind.RLO_CCU_DG, omega=omega)
        assert [e.rows for e in report.entries if e.check == "A8"] == [(12,)]
        assert (calls["ranked_rows"], calls["activation_budgets"]) == (2, 1)


# The gap models' shared tail: per-row values (LP outcomes or closed forms) to t, the active row and the solution.

def _near_tie(model, scale=1.0):
    """A gap instance whose least t is shared, up to rounding, by several rows,
    with A, b and every parameter in data units multiplied by `scale`."""
    if model == ModelKind.NLO_DG:
        # box-only: row 1's least a . x is 0.1 + 0.2 and row 2's 0.3, so t_1 = t_2 up to rounding
        problem, x = ForwardProblem(A=np.zeros((2, 2)), b=[0.0, 0.0]), np.ones(2)
        structure = UncertaintyStructure.nominal()
        omega = gen._box_omega(np.array([0.1, 0.2, 0.3, 0.0]), np.ones(4))
    elif model == ModelKind.RLO_IU_DG:
        # box-only: row 2 is row 1 times c, its box short of its surplus and
        # wider on column 1 by (c - 1) * surplus_1, so t_2 = t_1 = 0.8 up to rounding
        c, x = 1.4, np.array([1.0, 2.0, -1.0])
        a, b, upper = np.array([1.0, 1.5, 0.5]), 2.0, np.array([0.2, 0.1, 0.3])
        problem = ForwardProblem(A=np.vstack([a, c * a]), b=[b, c * b])
        structure = UncertaintyStructure.interval(((0, 1, 2),) * 2)
        omega = gen._box_omega(np.zeros(6), np.concatenate([upper, upper + [(c - 1.0) * 1.5, 0.0, 0.0]]))
    else:
        problem, x, structure, omega, _ = gen.make_ccu_dg(1)
        structure = UncertaintyStructure.cardinality(structure.sets, structure.alpha * scale)
    if model != ModelKind.RLO_CCU_DG:  # budgets carry no units
        omega = SideConstraints(G=omega.G, h=omega.h * scale)
    return ForwardProblem(A=problem.A * scale, b=problem.b * scale), x, structure, omega


GAP_MODELS = pytest.mark.parametrize(
    "model", [ModelKind.NLO_DG, ModelKind.RLO_IU_DG, ModelKind.RLO_CCU_DG], ids=lambda m: m.value
)


@GAP_MODELS
def test_gap_tie_picks_the_lowest_near_minimal_row(model):
    problem, x, structure, omega = _near_tie(model)
    sol = io_recover.solve(model, problem, x, structure=structure, omega=omega)
    t = sol.per_constraint["t"]
    near = np.flatnonzero(t - t.min() <= 1e-12 * (1.0 + np.max(np.abs(t))))
    assert near[0] < np.argmin(t)  # rounding puts the least t on a later row
    assert sol.active_index == near[0] + 1
    problem, x, structure, omega = _near_tie(model, 1e6)
    scaled = io_recover.solve(model, problem, x, structure=structure, omega=omega)
    assert scaled.active_index == sol.active_index


def _sd_near_tie(model, scale=1.0):
    """A strong-duality instance whose two rows tie up to rounding: row 2 is
    row 1 times c (A, b and the magnitudes; weight 1/c), and the prior
    keeps both feasible, so g = 0 and t = f.  Everything in data units is
    multiplied by `scale`."""
    if model == ModelKind.RLO_CCU_SD:
        # budgets near 40 on 48 columns: one rounding step in t exceeds 1e-15.  At c = 1.04 that
        # step puts row 2 below row 1 whether a row's surplus is one einsum reduction or a BLAS dot
        n, c = 48, 1.04
        x = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        alpha = np.round(np.linspace(0.1, 0.4, n), 3)
        v = np.sort(alpha)[::-1]
        a, b = x.copy(), n - float(v[:40].sum() + 0.5 * v[40])  # activation budget 40.5
        structure = UncertaintyStructure.cardinality(
            (tuple(range(n)),) * 2, np.vstack([alpha, c * alpha]) * scale
        )
        prior = Prior(estimates=[0.0, 0.0], norm=NormKind.L1)
    else:
        x = np.array([1.0, 2.0, -1.0])
        a, b = np.array([1.0, 1.5, 0.5]), 2.0
        if model == ModelKind.NLO_SD:
            c = 6.621
            structure = UncertaintyStructure.nominal()
            estimates, norm = np.vstack([a, c * a]), NormKind.L2
        else:
            c = 5.511
            structure = UncertaintyStructure.interval(((0, 1, 2),) * 2)
            magnitudes = np.array([0.2, 0.1, 0.3])
            estimates, norm = np.vstack([magnitudes, c * magnitudes]), NormKind.L1
        prior = Prior(estimates=estimates * scale, xi=[1.0, 1.0 / c], norm=norm)
    problem = ForwardProblem(A=np.vstack([a, c * a]) * scale, b=np.array([b, c * b]) * scale)
    return problem, x, structure, prior


SD_MODELS = pytest.mark.parametrize(
    "model", [ModelKind.NLO_SD, ModelKind.RLO_IU_SD, ModelKind.RLO_CCU_SD], ids=lambda m: m.value
)


@SD_MODELS
def test_sd_tie_picks_the_lowest_near_minimal_row(model):
    problem, x, structure, prior = _sd_near_tie(model)
    sol = io_recover.solve(model, problem, x, structure=structure, prior=prior)
    f, g = sol.per_constraint["f"], sol.per_constraint["g"]
    assert np.all(g == 0.0)  # so t = f
    assert f[1] < f[0] <= f[1] * (1.0 + 1e-12)  # rounding puts the least t on row 2
    assert sol.active_index == 1
    problem, x, structure, prior = _sd_near_tie(model, 1e6)
    scaled = io_recover.solve(model, problem, x, structure=structure, prior=prior)
    assert scaled.active_index == 1


def _big_m(model):
    """Three copies of the row x >= b at x_hat = 1: row 2 is nearest to
    active, row 1 less so, and row 3 is redundant by a surplus of 1e9."""
    x = np.array([1.0])
    ones = ((0,),) * 3

    def box(lo, hi):
        return {"omega": SideConstraints(G=np.vstack([np.eye(3), -np.eye(3)]), h=np.repeat([hi, -lo], 3))}

    structure, b, data = {
        ModelKind.NLO_DG: (UncertaintyStructure.nominal(), [0.5, 0.999], box(1.0, 2.0)),
        ModelKind.RLO_IU_DG: (UncertaintyStructure.interval(ones), [0.5, 0.95], box(0.0, 0.049)),
        ModelKind.RLO_CCU_DG: (
            UncertaintyStructure.cardinality(ones, np.full((3, 1), 0.01)), [0.5, 0.98], box(0.0, 1.0)
        ),
        ModelKind.NLO_SD: (
            UncertaintyStructure.nominal(), [0.5, 0.999],
            {"prior": Prior(estimates=np.ones((3, 1)), norm=NormKind.L2)},
        ),
        ModelKind.RLO_IU_SD: (
            UncertaintyStructure.interval(ones), [0.5, 0.999],
            {"prior": Prior(estimates=np.zeros((3, 1)), norm=NormKind.L1)},
        ),
        # budgets carry no units: row 3 is out of reach (t = inf), not far
        ModelKind.RLO_CCU_SD: (
            UncertaintyStructure.cardinality(ones, np.full((3, 1), 0.6)), [0.4, 0.45],
            {"prior": Prior(estimates=np.zeros(3), norm=NormKind.L1)},
        ),
    }[model]
    return ForwardProblem(A=np.ones((3, 1)), b=np.array(b + [-1e9])), x, structure, data


@pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
def test_far_row_does_not_widen_the_tie_band(model):
    problem, x, structure, data = _big_m(model)
    sol = io_recover.solve(model, problem, x, structure=structure, **data)
    t = sol.per_constraint["t" if "t" in sol.per_constraint else "f"]  # g = 0 here
    assert t[1] < t[0] - 0.03
    assert sol.active_index == 2


# Row order carries no meaning: permuting the rows permutes the answer.

def _permuted(model, problem, structure, data, perm):
    """The instance with row k := row perm[k]; Omega's columns renamed from
    parameter (i, ...) to (inv[i], ...) and put into the new natural order."""
    inv = np.argsort(perm)
    if model.family == "nlo":
        moved = structure
    elif model.family == "iu":
        moved = UncertaintyStructure.interval([structure.sets[i] for i in perm])
    else:
        moved = UncertaintyStructure.cardinality([structure.sets[i] for i in perm], structure.alpha[perm])
    if model.is_dg:
        keys = param_keys(model, problem, structure)
        place = param_keys(model, problem, moved).places(inv[keys.rows], keys.cols)
        data = SideConstraints(G=data.G.take(np.argsort(place), axis=1), h=data.h)
    else:
        xi = None if data.xi is None else data.xi[perm]
        data = Prior(estimates=data.estimates[perm], xi=xi, norm=data.norm)
    return ForwardProblem(A=problem.A[perm], b=problem.b[perm]), moved, data


def _row_objectives(model, sol, problem, x, structure, prior):
    """Each row's objective with that row active, from the per-row diagnostics."""
    per_row = sol.per_constraint
    if "t" in per_row:
        return per_row["t"]
    f, g = per_row["f"], per_row["g"]
    if model == ModelKind.NLO_SD:
        return f + g.sum() - g
    t = np.full(problem.m, np.inf)
    for i in io_recover.compute_gamma_bounds(problem, structure, x).i_hat:
        vec = g.copy()
        vec[i] = f[i]
        t[i] = norm_value(vec, prior.norm)
    return t


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    same_inf = np.isinf(a) & (a == b)
    return bool(np.all(same_inf | (np.abs(a - b) <= 1e-9 * (1.0 + np.abs(b)))))


@pytest.mark.parametrize("model", list(MAKERS), ids=lambda m: m.value)
def test_permuting_rows_permutes_the_answer(model):
    solved = 0
    for seed in range(200):
        problem, x, structure, data, _ = MAKERS[model](seed)
        rng = np.random.default_rng([seed, 17])
        perm = rng.permutation(problem.m)
        while np.array_equal(perm, np.arange(problem.m)):
            perm = rng.permutation(problem.m)
        side = {"omega" if model.is_dg else "prior": data}
        sol = io_recover.solve(model, problem, x, structure=structure, **side)
        problem2, structure2, data2 = _permuted(model, problem, structure, data, perm)
        side2 = {"omega" if model.is_dg else "prior": data2}
        sol2 = io_recover.solve(model, problem2, x, structure=structure2, **side2)
        assert sol2.status == sol.status, seed
        assert sol2.per_constraint.keys() == sol.per_constraint.keys(), seed
        for name, v in sol.per_constraint.items():
            assert _close(sol2.per_constraint[name], v[perm]), (seed, name)
        if sol.active_index is None:
            continue
        assert _close(sol2.objective_value, sol.objective_value), seed
        t = _row_objectives(model, sol, problem, x, structure, data)
        near = np.flatnonzero(t <= t.min() + 1e-9)
        moved = int(perm[sol2.active_index - 1])
        if near.size > 1:
            assert moved in near, (seed, moved, near)
        else:
            assert moved == sol.active_index - 1, seed
            if model.is_sd:
                assert np.allclose(sol2.imputed, sol.imputed[perm], rtol=0.0, atol=1e-9), seed
        if sol2.status == Status.OPTIMAL:
            report = io_recover.check_certificate(model, problem2, x, structure2, sol2)
            assert report.verdict == "valid", (seed, report.reason)
            solved += 1
    assert solved >= 100, solved
