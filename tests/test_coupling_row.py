"""One coupling row: each gap model's closed form against its m LPs.

When the side constraints keep one coupling row after `canonicalize_omega`,
`model.gap_values` prices it in closed form (`model.knapsack_values`).
Repeating that row at twice the scale (`gen.two_couplings`) keeps the same
polyhedron but leaves two coupling rows, so it takes the m LPs;
both answers must agree on feasibility, every row's t and the active row,
and the closed form's imputed block must satisfy the side constraints and
every row's own constraint and carry a valid certificate.  (Whether a
solution is optimal or trivial-detected depends on the block, whose rows
k != i the LPs and the closed form each pick by their own rule.)

The corpus: `tests/gen.py`'s instances coupled by `gen.couple_rows` and by
one random row of either sign, for rlo-iu-dg again with the observation on
some rows' nominal boundary (their LP rows hold with equality), fixtures
1, 3 and 5, and a family with integer data whose boxes leave about a
fifth of their bounds infinite and whose observations hold zeros.
"""

import numpy as np
import pytest

import gen
from io_recover import (
    ForwardProblem,
    ModelKind,
    SideConstraints,
    Status,
    UncertaintyStructure,
    check_certificate,
    compute_gamma_bounds,
    solve_nlo_dg,
    solve_rlo_ccu_dg,
    solve_rlo_iu_dg,
)
from io_recover.fixtures import example_case
from io_recover.model import param_keys

MODELS = (ModelKind.NLO_DG, ModelKind.RLO_IU_DG, ModelKind.RLO_CCU_DG)
MAKERS = {ModelKind.NLO_DG: gen.make_nlo_dg, ModelKind.RLO_IU_DG: gen.make_iu_dg, ModelKind.RLO_CCU_DG: gen.make_ccu_dg}
FIXTURES = {ModelKind.NLO_DG: 1, ModelKind.RLO_IU_DG: 3, ModelKind.RLO_CCU_DG: 5}
TOL = 1e-9


def _solve(model, problem, x, structure, omega):
    if model == ModelKind.NLO_DG:
        return solve_nlo_dg(problem, x, omega)
    return (solve_rlo_iu_dg if model == ModelKind.RLO_IU_DG else solve_rlo_ccu_dg)(problem, x, structure, omega)


def _random_row(omega, seed):
    """omega plus one row of either sign over every parameter, through a
    random point of omega's box pulled in by up to 0.3 (or pushed out)."""
    rng = np.random.default_rng([seed, 17])
    p = omega.G.shape[1]
    lo, hi = -omega.h[:p], omega.h[p:]  # gen's boxes: -I rows, then I rows
    g = rng.uniform(-1.0, 1.0, p)
    h = g @ rng.uniform(lo, hi) - rng.uniform(-0.1, 0.3)
    return SideConstraints(G=np.vstack([omega.G, g]), h=np.append(omega.h, h))


def _wide_box(rng, p, floor=None):
    """Integer bounds, each infinite with probability 0.2 (a free parameter
    now and then), as the rows of a side constraint."""
    lower = rng.integers(-3, 2, p).astype(float) if floor is None else rng.integers(floor, floor + 2, p).astype(float)
    upper = lower + rng.integers(0, 4, p)
    if floor is None:
        lower[rng.random(p) < 0.2] = -np.inf
    upper[rng.random(p) < 0.2] = np.inf
    rows = [(-e, -lo) for e, lo in zip(np.eye(p), lower) if lo > -np.inf]
    rows += [(e, hi) for e, hi in zip(np.eye(p), upper) if hi < np.inf]
    return [g for g, _ in rows], [h for _, h in rows]


def _wide(model, seed):
    """The infinite-bound family: integer data, observations holding zeros,
    and one integer coupling row over at least two parameters, h in [-3, 5]."""
    rng = np.random.default_rng([seed, MODELS.index(model), 29])
    m, n = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    x = rng.integers(-2, 3, n).astype(float)
    A = rng.integers(-2, 3, (m, n)).astype(float)
    b = A @ x - rng.integers(-1, 5, m)
    if model == ModelKind.NLO_DG:
        structure = UncertaintyStructure.nominal()
        b = rng.integers(-3, 4, m).astype(float)
        p, floor = m * n, None
    elif model == ModelKind.RLO_IU_DG:
        sets = [tuple(np.flatnonzero(rng.random(n) < 0.7).tolist()) or (0,) for _ in range(m)]
        structure = UncertaintyStructure.interval(sets)
        p, floor = sum(map(len, sets)), 0
    else:
        sets = [tuple(np.flatnonzero(rng.random(n) < 0.7).tolist()) or (0,) for _ in range(m)]
        structure = UncertaintyStructure.cardinality(sets, rng.integers(0, 3, (m, n)).astype(float))
        b = np.minimum(b, A @ x)  # the observation is nominal-feasible
        p, floor = m, 0
    G, h = _wide_box(rng, p, floor)
    g = np.zeros(p)
    while np.count_nonzero(g) < 2:
        g = rng.integers(-2, 3, p).astype(float)
    G.append(g)
    h.append(float(rng.integers(-3, 6)))
    return ForwardProblem(A=A, b=b), x, structure, SideConstraints(G=np.array(G), h=np.array(h))


def _on_boundary(seed):
    """`gen.make_iu_dg`'s draw with the observation on the nominal boundary
    of about half the rows, one at least (b_i = a_i . x, a zero surplus):
    the LPs' own rows -w . alpha_i >= -surplus_i then hold with equality
    at the zero floor."""
    problem, x, structure, omega, _ = gen.make_iu_dg(seed)
    rng = np.random.default_rng([seed, 31])
    on = rng.random(problem.m) < 0.5
    on[rng.integers(problem.m)] = True
    return ForwardProblem(A=problem.A, b=np.where(on, problem.A @ x, problem.b)), x, structure, omega


def corpus(model):
    case = example_case(FIXTURES[model])
    yield f"fixture {FIXTURES[model]}", case.problem, case.x_hat, case.structure, case.omega
    for seed in range(150):
        problem, x, structure, omega, _ = MAKERS[model](seed)
        yield f"gen {seed}", problem, x, structure, gen.couple_rows(omega)
        yield f"gen {seed} random row", problem, x, structure, _random_row(omega, seed)
        if model == ModelKind.RLO_IU_DG:
            problem, x, structure, omega = _on_boundary(seed)
            assert not problem.surplus(x).all()
            yield f"gen {seed} on the boundary", problem, x, structure, gen.couple_rows(omega)
            yield f"gen {seed} on the boundary, random row", problem, x, structure, _random_row(omega, seed)
    for seed in range(400 if model == ModelKind.NLO_DG else 200):
        yield f"wide {seed}", *_wide(model, seed)


def _own_rows_hold(model, problem, x, structure, imputed):
    """Every row's own constraint at the imputed block, to TOL."""
    if model == ModelKind.NLO_DG:
        return np.all(imputed @ x >= problem.b - TOL * (1.0 + np.abs(problem.b)))
    surplus = problem.surplus(x)
    if model == ModelKind.RLO_IU_DG:
        return np.all(imputed @ np.abs(x) <= surplus + TOL * (1.0 + np.abs(surplus)))
    return np.all(imputed <= compute_gamma_bounds(problem, structure, x).theta_upper + TOL)


def _agree(model, label, problem, x, structure, omega, calls):
    calls.clear()
    closed = _solve(model, problem, x, structure, omega)
    assert calls["lp_solve"] == 0, label
    joint = _solve(model, problem, x, structure, gen.two_couplings(omega))
    # optimal and trivial-detected differ only in the block, whose rows k != i each path picks by its own rule
    assert (closed.status == Status.INFEASIBLE) == (joint.status == Status.INFEASIBLE), (label, closed.message)
    if joint.status == Status.INFEASIBLE:
        return "infeasible"
    assert calls["lp_solve"] == problem.m, label  # the joint answer came from the m LPs
    t, t_joint = closed.per_constraint["t"], joint.per_constraint["t"]
    assert np.all(np.abs(t - t_joint) <= 1e-12 * (1.0 + np.abs(t_joint))), (label, t, t_joint)
    tied = np.flatnonzero(t_joint - t_joint.min() <= 1e-12 * (1.0 + abs(t_joint.min())))
    assert closed.active_index - 1 in tied, (label, closed.active_index, tied)
    if tied.size == 1:
        assert closed.active_index == joint.active_index, label
    imputed = np.asarray(closed.imputed, dtype=float)
    flat = imputed[structure.mask(problem.n)] if model == ModelKind.RLO_IU_DG else imputed.ravel()
    G, h = omega.G, omega.h
    assert np.all(np.isfinite(flat)), label
    assert np.all(G @ flat <= h + TOL * (1.0 + np.abs(G) @ np.abs(flat) + np.abs(h))), label
    assert _own_rows_hold(model, problem, x, structure, imputed), label
    report = check_certificate(model, problem, x, structure, closed)
    assert report.verdict == "valid", (label, report.reason)
    return "solved"


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
def test_closed_form_matches_the_lps(model, calls):
    seen = [_agree(model, label, *case, calls) for label, *case in corpus(model)]
    assert seen.count("solved") >= 250 and seen.count("infeasible") >= 20, (seen.count("solved"), len(seen))


NLO_INFEASIBLE = "no matrix in the side constraints keeps the observation feasible (phase-one infeasibility {:g})"


@pytest.mark.parametrize(
    "b, h, shortfall",
    [([1.0, 5.0, 1.0], 6.0, 3.0), ([1.0, 1.0, 1.0], 2.5, 0.5)],
    ids=["row deficit", "coupling row"],
)
def test_nlo_infeasible_message_cites_the_shortfall(b, h, shortfall, calls):
    # every a_ij in [0, 1] at x = (1, 1): row i reaches at most 2, and uses at least b_i of sum(a) <= h
    p = 6
    G, bounds = np.vstack([np.eye(p), -np.eye(p), np.ones(p)]), np.concatenate([np.ones(p), np.zeros(p)])
    omega = SideConstraints(G=G, h=np.append(bounds, h))
    problem = ForwardProblem(A=np.ones((3, 2)), b=b)
    closed = solve_nlo_dg(problem, np.ones(2), omega)
    assert closed.status == Status.INFEASIBLE
    assert closed.message == NLO_INFEASIBLE.format(shortfall)
    assert calls["lp_solve"] == 0
    joint = solve_nlo_dg(problem, np.ones(2), gen.two_couplings(omega))  # the LPs cite phase 1's figure
    assert joint.status == Status.INFEASIBLE and joint.message.split("(")[0] == closed.message.split("(")[0]


@pytest.mark.parametrize("b, h", [(0.0, 20.0), (-10.0, 1.5)], ids=["row deficit", "coupling row"])
def test_iu_infeasible_message(b, h, calls):
    # magnitudes at least 1 on both columns of x = (1, 2): at b = 0 row 1's least load 3
    # exceeds its surplus 2; at b = -10 every row fits, but the floors' sum 4 exceeds h
    problem = ForwardProblem(A=[[1.0, 0.5], [1.0, 2.0]], b=[b, b])
    structure = UncertaintyStructure.interval(((0, 1),) * 2)
    omega = SideConstraints(G=np.vstack([-np.eye(4), np.ones(4)]), h=np.append(-np.ones(4), h))
    closed = solve_rlo_iu_dg(problem, [1.0, 2.0], structure, omega)
    assert calls["lp_solve"] == 0
    joint = solve_rlo_iu_dg(problem, [1.0, 2.0], structure, gen.two_couplings(omega))
    message = "no nonnegative magnitudes in the side constraints keep the observation robust-feasible"
    assert closed.status == joint.status == Status.INFEASIBLE
    assert closed.message == joint.message == message


def test_ccu_infeasible_message(calls):
    # fixture 5's budgets are at least 0.2 each, so sum(gamma) <= 0.5 leaves none
    case = example_case(5)
    omega = SideConstraints(G=case.omega.G, h=np.append(case.omega.h[:-1], 0.5))
    closed = solve_rlo_ccu_dg(case.problem, case.x_hat, case.structure, omega)
    joint = solve_rlo_ccu_dg(case.problem, case.x_hat, case.structure, gen.two_couplings(omega))
    message = "no budgets satisfy both the feasibility box and the side constraints"
    assert closed.status == joint.status == Status.INFEASIBLE
    assert closed.message == joint.message == message
    assert calls["lp_solve"] == case.problem.m  # the joint solve's LPs; the closed form ran none
