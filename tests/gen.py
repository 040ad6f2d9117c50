"""Deterministic random desk-scale instances for oracle-agreement tests.

Instances are built on the oracle's 0.05 lattice: box endpoints, prior
estimates, and right-hand sides all sit on grid points so the exhaustive
search brackets the true optimum within the per-instance step tolerance.
"""

import numpy as np

from io_recover import (
    ForwardProblem,
    InverseSolution,
    ModelKind,
    NormKind,
    Prior,
    SideConstraints,
    Status,
    UncertaintyStructure,
    compute_gamma_bounds,
)
from io_recover.geometry import budget_share, protection, row_dots
from oracle import GridOracleSpec

STEP = 0.05


def lattice(rng, lo, hi):
    lo_k = round(lo / STEP)
    hi_k = round(hi / STEP)
    return STEP * int(rng.integers(lo_k, hi_k + 1))


def _x_hat(rng, n):
    vals = np.array([-2.0, -1.0, 1.0, 2.0])
    return rng.choice(vals, size=n)


def _box_omega(lo, hi):
    p = lo.size
    G = np.vstack([-np.eye(p), np.eye(p)])
    h = np.concatenate([-lo, hi])
    return SideConstraints(G=G, h=h)


def couple_rows(omega):
    """omega plus an all-ones row at 1e6, beyond the sum of any of these
    instances' bounded parameters: the same polyhedron, but a side
    constraint that couples every row."""
    p = omega.G.shape[1]
    return SideConstraints(G=np.vstack([omega.G, np.ones((1, p))]), h=np.append(omega.h, 1e6))


def two_couplings(omega):
    """omega with its last row repeated at twice the scale: the same
    polyhedron.  When that row couples parameters, as the fixtures' last
    rows and `couple_rows`' row do, two coupling rows are left after
    `canonicalize_omega`, and the gap solvers take their m LPs in place of
    the closed form for one."""
    return SideConstraints(
        G=np.vstack([omega.G, 2.0 * omega.G[-1:]]), h=np.append(omega.h, 2.0 * omega.h[-1])
    )


def make_nlo_dg(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    n = int(rng.integers(2, 4))
    x = _x_hat(rng, n)
    lo = np.zeros(m * n)
    hi = np.zeros(m * n)
    for k in range(m * n):
        lo[k] = lattice(rng, 0.0, 0.5)
        hi[k] = lo[k] + lattice(rng, 0.5, 1.5)
    hi = np.minimum(hi, 2.0)
    b = np.zeros(m)
    for i in range(m):
        cmin = sum(
            (lo if x[j] > 0 else hi)[i * n + j] * x[j] for j in range(n)
        )
        cmax = sum(
            (hi if x[j] > 0 else lo)[i * n + j] * x[j] for j in range(n)
        )
        if rng.random() < 0.5:
            b[i] = cmin - lattice(rng, 0.0, 0.5)
        else:
            width = max(cmax - cmin, 0.0)
            b[i] = cmin + min(lattice(rng, 0.0, 0.4), 0.5 * width)
    problem = ForwardProblem(A=np.zeros((m, n)), b=b)
    omega = _box_omega(lo, hi)
    spec = GridOracleSpec(
        parameter_box=tuple(zip(lo, hi)), step=STEP, model=ModelKind.NLO_DG
    )
    return problem, x, UncertaintyStructure.nominal(), omega, spec


def make_nlo_sd(seed, norm=None):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    n = int(rng.integers(2, 4))
    x = _x_hat(rng, n)
    a_hat = np.array([[lattice(rng, 0.5, 1.5) for _ in range(n)] for _ in range(m)])
    b = np.zeros(m)
    for i in range(m):
        offset = lattice(rng, 0.0, 0.4)
        b[i] = float(a_hat[i] @ x) + (offset if rng.random() < 0.4 else -offset)
    norm = norm if norm is not None else list(NormKind)[int(rng.integers(0, 3))]
    prior = Prior(estimates=a_hat, norm=NormKind(norm))
    problem = ForwardProblem(A=a_hat, b=b)
    lo = np.maximum(a_hat.ravel() - 0.5, 0.0)
    hi = np.minimum(a_hat.ravel() + 0.5, 2.0)
    spec = GridOracleSpec(
        parameter_box=tuple(zip(lo, hi)), step=STEP, model=ModelKind.NLO_SD
    )
    return problem, x, UncertaintyStructure.nominal(), prior, spec


def _random_sets(rng, m, n):
    sets = []
    for _ in range(m):
        size = int(rng.integers(1, n + 1))
        cols = np.sort(rng.choice(n, size=size, replace=False))
        sets.append(tuple(int(c) for c in cols))
    return tuple(sets)


def make_iu_dg(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    n = int(rng.integers(2, 4))
    x = _x_hat(rng, n)
    sets = _random_sets(rng, m, n)
    A = np.array([[lattice(rng, 0.5, 2.0) for _ in range(n)] for _ in range(m)])
    b = np.array([float(A[i] @ x) - lattice(rng, 0.2, 1.2) for i in range(m)])
    problem = ForwardProblem(A=A, b=b)
    structure = UncertaintyStructure.interval(sets)
    p = sum(len(s) for s in sets)
    lo = np.zeros(p)
    hi = np.array([lattice(rng, 0.5, 2.0) for _ in range(p)])
    omega = _box_omega(lo, hi)
    spec = GridOracleSpec(
        parameter_box=tuple(zip(lo, hi)), step=STEP, model=ModelKind.RLO_IU_DG
    )
    return problem, x, structure, omega, spec


def make_iu_sd(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    n = int(rng.integers(2, 4))
    x = _x_hat(rng, n)
    sets = _random_sets(rng, m, n)
    A = np.array([[lattice(rng, 0.5, 2.0) for _ in range(n)] for _ in range(m)])
    b = np.array([float(A[i] @ x) - lattice(rng, 0.2, 1.0) for i in range(m)])
    problem = ForwardProblem(A=A, b=b)
    structure = UncertaintyStructure.interval(sets)
    est = np.zeros((m, n))
    for i, s in enumerate(sets):
        for j in s:
            est[i, j] = lattice(rng, 0.0, 0.6)
    norm = NormKind.L1 if rng.random() < 0.5 else NormKind.LINF
    prior = Prior(estimates=est, norm=norm)
    p = sum(len(s) for s in sets)
    spec = GridOracleSpec(
        parameter_box=((0.0, 2.0),) * p, step=STEP, model=ModelKind.RLO_IU_SD
    )
    return problem, x, structure, prior, spec


def make_ccu(seed, with_omega):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    n = int(rng.integers(2, 4))
    x = _x_hat(rng, n)
    # budgets live in [0, |J_i|]; keeping |J_i| <= 2 keeps them inside the
    # oracle's [0, 2] parameter box
    sets = []
    for _ in range(m):
        size = int(rng.integers(1, 3))
        cols = np.sort(rng.choice(n, size=size, replace=False))
        sets.append(tuple(int(c) for c in cols))
    sets = tuple(sets)
    A = np.array([[lattice(rng, 0.5, 2.0) for _ in range(n)] for _ in range(m)])
    alpha = np.zeros((m, n))
    for i, s in enumerate(sets):
        for j in s:
            alpha[i, j] = lattice(rng, 0.3, 1.5)
    b = np.zeros(m)
    for i in range(m):
        full = float(sum(alpha[i, j] * abs(x[j]) for j in sets[i]))
        b[i] = float(A[i] @ x) - min(lattice(rng, 0.1, 2.0), full + 0.5)
        b[i] = min(b[i], float(A[i] @ x))  # keep the observation feasible
    problem = ForwardProblem(A=A, b=b)
    structure = UncertaintyStructure.cardinality(sets, alpha)
    caps = np.array([min(2.0, float(len(s))) for s in sets])
    omega = None
    lo = np.zeros(m)
    hi = caps.copy()
    if with_omega:
        for i in range(m):
            lo[i] = min(lattice(rng, 0.0, 0.2), caps[i])
            hi[i] = max(lo[i], min(caps[i], lattice(rng, 0.4, 2.0)))
        omega = _box_omega(lo, hi)
    return problem, x, structure, omega, lo, hi


def make_ccu_dg(seed):
    problem, x, structure, omega, lo, hi = make_ccu(seed, with_omega=True)
    spec = GridOracleSpec(
        parameter_box=tuple(zip(lo, hi)), step=STEP, model=ModelKind.RLO_CCU_DG
    )
    return problem, x, structure, omega, spec


def make_ccu_sd(seed):
    rng = np.random.default_rng(seed + 991)
    problem, x, structure, _, lo, hi = make_ccu(seed, with_omega=False)
    m = problem.m
    est = np.array(
        [lattice(rng, 0.0, min(2.0, float(len(structure.sets[i])))) for i in range(m)]
    )
    prior = Prior(estimates=est, norm=list(NormKind)[int(rng.integers(0, 3))])
    spec = GridOracleSpec(
        parameter_box=tuple(zip(lo, hi)), step=STEP, model=ModelKind.RLO_CCU_SD
    )
    return problem, x, structure, prior, spec


def make_dg_box(model, m, n, seed, floor=False):
    """Box-only rlo-iu-dg or rlo-ccu-dg instance at ladder scale.

    Every column is uncertain and every parameter lies in [lower, 3]: lower
    is 0, or with `floor` a random share of what keeps the row feasible (a
    quarter of the row's surplus for magnitudes, a quarter of the largest
    feasible budget for budgets).  A ~ U[-2, 2] with rows signed so
    a_i'x > 0, slack U[0.1, 0.9] * a_i'x.
    """
    rng = np.random.default_rng([seed, m, n, int(floor)])
    x = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    A = rng.uniform(-2.0, 2.0, (m, n))
    A *= np.where(A @ x < 0.0, -1.0, 1.0)[:, None]
    ax = A @ x
    slack = rng.uniform(0.1, 0.9, m) * ax
    problem = ForwardProblem(A=A, b=ax - slack)
    sets = (tuple(range(n)),) * m
    if model == ModelKind.RLO_IU_DG:
        structure = UncertaintyStructure.interval(sets)
        share = rng.uniform(0.0, 0.25, (m, n)) if floor else np.zeros((m, n))
        lo = (share * (slack / np.abs(x).sum())[:, None]).ravel()
    else:
        alpha = rng.uniform(0.2, 0.9, (m, n)) * np.abs(A)
        structure = UncertaintyStructure.cardinality(sets, alpha)
        lo = np.zeros(m)
        if floor:
            theta = compute_gamma_bounds(problem, structure, x).theta_upper
            lo = rng.uniform(0.0, 0.25, m) * np.minimum(theta, 3.0)
    omega = _box_omega(lo, np.full(lo.size, 3.0))
    return problem, x, structure, omega


def make_baseline_nlo_sd(m, n, seed, norm=NormKind.L2):
    """nlo-sd instance of the benchmark's baseline family (`bench/instances.py`,
    stream 0, positive tilt), drawn identically: A ~ U[-2, 2] with rows
    signed so a_i'x >= 0.5, slack U[0.1, 0.9] * a_i'x, prior A + U[-0.5, 0.5]."""
    rng = np.random.default_rng([seed, 1, 0])
    while True:
        signs = np.array([1.0, -1.0] * (n // 2) + [1.0] * (n % 2))
        rng.shuffle(signs)
        x = rng.uniform(0.5, 2.0, n) * signs
        x += (1.0 - x.sum()) / n
        if np.min(np.abs(x)) >= 0.1:
            break
    A = np.empty((m, n))
    for i in range(m):
        while True:
            a = rng.uniform(-2.0, 2.0, n)
            if a @ x < 0.0:
                a = -a
            if a @ x >= 0.5:
                A[i] = a
                break
    ax = A @ x
    b = ax - rng.uniform(0.1, 0.9, m) * ax
    rng.uniform(0.2, 0.9, A.shape)  # the family's fixed magnitudes, unused by nlo-sd
    estimates = A + rng.uniform(-0.5, 0.5, A.shape)
    return A, b, x, Prior(estimates=estimates, norm=norm)


def edge_rows(seed, family):
    """A robust family's rows at the edges of validate's A8 test and the
    certificate's all-orthant test, with a solution that need not be
    optimal: (model, problem, x, structure, solution).

    Magnitudes are 0, 1e-12 or 10^U(-300, 300), so products alpha_ij
    |x_j| are 0, 1e-12 (at x_j = +-1), underflow, or span the floats; x_j
    is 0, +-1 or +-10^U(-300, 0).  A row's surplus is its full protection,
    a share of it, or (rarely) negative.  About half the rows are built to
    vanish in some orthant: |a_ij| is the deviation alpha_ij * share_ij in
    force at the all-plus point (the budgets' shares, or 1 under interval
    uncertainty), moved 0-2 ulps either way, and a_ij off J_i is 0, +-1e-9
    or a float next to it.  Budgets are 0, |J_i|, fractional or integral
    in between; interval magnitudes are sometimes negative.
    """
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    mask = rng.random((m, n)) < 0.7
    sets = tuple(tuple(np.flatnonzero(row).tolist()) for row in mask)

    def wide(shape):
        return 10.0 ** rng.uniform(-300.0, 300.0, shape)

    alpha = np.select([rng.random((m, n)) < p for p in (0.15, 0.25)], [0.0, 1e-12], wide((m, n)))
    x = np.select([rng.random(n) < p for p in (0.2, 0.5)], [0.0, 1.0], 10.0 ** rng.uniform(-300.0, 0.0, n))
    x *= rng.choice([-1.0, 1.0], n)
    size = mask.sum(axis=1).astype(float)
    if family == "iu":
        model, structure = ModelKind.RLO_IU_DG, UncertaintyStructure.interval(sets)
        imputed = np.where(rng.random((m, n)) < 0.1, -alpha, alpha)
        deviation = imputed
    else:
        model, structure = ModelKind.RLO_CCU_DG, UncertaintyStructure.cardinality(sets, alpha)
        inside = rng.uniform(0.0, size)
        imputed = np.choose(rng.integers(0, 4, m), [np.zeros(m), size, inside, np.floor(inside)])
        deviation = alpha * budget_share(alpha, mask, np.ones(n), imputed)
    vanishing = np.abs(np.where(mask, deviation, 0.0))
    steps = np.where(rng.random((m, n)) < 0.5, 0, rng.integers(-2, 3, (m, n)))
    for _ in range(2):  # up to two ulps either way
        vanishing = np.where(steps > 0, np.nextafter(vanishing, np.inf), vanishing)
        vanishing = np.where(steps < 0, np.nextafter(vanishing, 0.0), vanishing)
        steps -= np.sign(steps)
    edge = np.array([0.0, 0.0, 1e-9, np.nextafter(1e-9, 0.0), np.nextafter(1e-9, 1.0)])
    vanishing = np.where(mask, vanishing, rng.choice(edge, (m, n)))
    A = np.where(rng.random((m, 1)) < 0.5, vanishing, np.where(rng.random((m, n)) < 0.2, 0.0, wide((m, n))))
    A *= rng.choice([-1.0, 1.0], (m, n))
    total = protection(alpha, mask, x, size)
    cut = np.select([rng.random(m) < p for p in (0.5, 0.95)], [1.0, rng.uniform(0.0, 1.0, m)], -1.0)
    b = row_dots(A, x) - cut * total - (cut < 0.0)
    problem = ForwardProblem(A=A, b=b)
    solution = InverseSolution(model=model, status=Status.OPTIMAL, imputed=imputed,
                               cost=rng.choice([0.0, 1e-9, 1.0], n))
    return model, problem, x, structure, solution
