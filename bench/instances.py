"""Benchmark inputs: seeded instance generation, problem documents, and the
conversion into the library's argument objects.

An `Instance` holds plain arrays in the model's natural parameter order, so
the reference checks in `reference.py` read the same inputs as the program
without going through its parsing or validation code.
"""

import json
from dataclasses import dataclass

import numpy as np

MODELS = ("nlo-dg", "nlo-sd", "rlo-iu-dg", "rlo-iu-sd", "rlo-ccu-dg", "rlo-ccu-sd")
BOX = 3.0  # side-constraint box of the gap models: |a_ij| <= 3, alpha_ij <= 3, gamma_i <= 3


@dataclass
class Instance:
    """One inverse problem.  Indices are 0-based; `sets` lists the uncertain
    columns per row; `alpha` is dense m x n (fixed magnitudes for the budget
    models, prior magnitudes for rlo-iu-sd); `G z <= h` is over the imputed
    parameters in natural order (row-major a, alpha over `sets`, gamma)."""

    label: str
    model: str
    A: np.ndarray
    b: np.ndarray
    x: np.ndarray
    sets: tuple = None
    alpha: np.ndarray = None
    G: np.ndarray = None
    h: np.ndarray = None
    estimates: np.ndarray = None
    xi: np.ndarray = None
    norm: str = None

    @property
    def family(self):
        return "nlo" if self.model.startswith("nlo") else ("iu" if "-iu-" in self.model else "ccu")

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]

    def keys(self):
        """Imputed parameters in natural order, as (row, column) pairs (column None for gamma)."""
        if self.family == "nlo":
            return [(i, j) for i in range(self.m) for j in range(self.n)]
        if self.family == "iu":
            return [(i, j) for i in range(self.m) for j in self.sets[i]]
        return [(i, None) for i in range(self.m)]


def _observation(rng, n, tilt):
    # Balanced signs, magnitudes in [0.5, 2], then shifted so sum(x) == tilt.
    # The sign of sum(x) decides whether the simplex's shift to the lower
    # bound -3 leaves the nlo-dg feasibility rows infeasible (every row
    # needs phase 1) or not; left free it alone moves nlo-dg at 40 x 10
    # between 1 s and 5 s, so every rung carries one instance of each sign.
    while True:
        signs = np.array([1.0, -1.0] * (n // 2) + [1.0] * (n % 2))
        rng.shuffle(signs)
        x = rng.uniform(0.5, 2.0, n) * signs
        x += (tilt - x.sum()) / n
        if np.min(np.abs(x)) >= 0.1:
            return x


def _rows(rng, m, x):
    # A ~ U[-2, 2] with each row's sign chosen so a_i'x >= 0.5; with every
    # column uncertain, validation needs b > 0 (assumption A5).
    A = np.empty((m, x.size))
    for i in range(m):
        while True:
            a = rng.uniform(-2.0, 2.0, x.size)
            if a @ x < 0.0:
                a = -a
            if a @ x >= 0.5:
                A[i] = a
                break
    return A


def generate(model, m, n, seed, stream, tilt, norm=None):
    """Draw one instance; `stream` separates the instances of one seed and model."""
    rng = np.random.default_rng([seed, MODELS.index(model), stream])
    while True:
        x = _observation(rng, n, tilt)
        A = _rows(rng, m, x)
        ax = A @ x
        slack = rng.uniform(0.1, 0.9, m) * ax
        b = ax - slack  # strictly feasible, b > 0
        alpha = rng.uniform(0.2, 0.9, A.shape) * np.abs(A)
        # budget models need some row whose full protection reaches its slack
        if not model.startswith("rlo-ccu") or np.any(alpha @ np.abs(x) >= slack):
            break
    label = f"{model} {m}x{n} {norm or 'box'} {'+' if tilt > 0 else '-'}"
    every = tuple(tuple(range(n)) for _ in range(m))
    inst = Instance(label=label, model=model, A=A, b=b, x=x, norm=norm)
    if model == "nlo-dg":
        p = m * n
        inst.G = np.vstack([np.eye(p), -np.eye(p), np.ones((1, p))])
        inst.h = np.concatenate([np.full(2 * p, BOX), [float(p)]])
    elif model == "nlo-sd":
        inst.estimates = A + rng.uniform(-0.5, 0.5, A.shape)
    elif model == "rlo-iu-dg":
        inst.sets = every
        inst.G, inst.h = np.eye(m * n), np.full(m * n, BOX)
    elif model == "rlo-iu-sd":
        inst.sets = every
        inst.alpha = rng.uniform(0.0, 0.5, A.shape) * np.abs(A)
    else:
        inst.sets = every
        inst.alpha = alpha  # alpha_ij < |a_ij| keeps every row nonzero under deviation (A10)
        if model == "rlo-ccu-dg":
            inst.G, inst.h = np.eye(m), np.full(m, BOX)
        else:
            inst.estimates = rng.uniform(0.0, float(n), m)
    return inst


# Problem documents (schema "1", see the repository README).

def to_document(inst):
    doc = {
        "schema_version": "1",
        "model": inst.model,
        "A": inst.A.tolist(),
        "b": inst.b.tolist(),
        "x_hat": inst.x.tolist(),
    }
    if inst.sets is not None:
        doc["uncertain_columns"] = [[j + 1 for j in s] for s in inst.sets]
    if inst.alpha is not None:
        doc["alpha"] = [[float(inst.alpha[i, j]) for j in s] for i, s in enumerate(inst.sets)]
    if inst.G is not None:
        doc["omega"] = {"G": inst.G.tolist(), "h": inst.h.tolist()}
    if inst.norm is not None:
        prior = {"norm": inst.norm}
        if inst.estimates is not None:
            prior["estimates"] = inst.estimates.tolist()
        if inst.xi is not None:
            prior["xi"] = inst.xi.tolist()
        doc["prior"] = prior
    return doc


def _param_name(name):
    # "a[i][j]" / "alpha[i][j]" / "gamma[i]", 1-based -> (row, column or None)
    parts = [int(p) - 1 for p in name.replace("]", "").split("[")[1:]]
    return (parts[0], parts[1] if len(parts) > 1 else None)


def from_document(doc, label):
    """Read a problem document into an Instance (no program code involved)."""
    model = doc["model"]
    A = np.array(doc["A"], dtype=float)
    m, n = A.shape
    inst = Instance(label=label, model=model, A=A, b=np.array(doc["b"], dtype=float),
                    x=np.array(doc["x_hat"], dtype=float))
    if "uncertain_columns" in doc:
        inst.sets = tuple(tuple(sorted(j - 1 for j in row)) for row in doc["uncertain_columns"])
    if "alpha" in doc:
        inst.alpha = np.zeros((m, n))
        for i, row in enumerate(doc["uncertain_columns"]):
            for j, val in zip(row, doc["alpha"][i]):
                inst.alpha[i, j - 1] = float(val)
    if "omega" in doc:
        G = np.array(doc["omega"]["G"], dtype=float)
        names = doc["omega"].get("variable_order")
        if names is not None:
            position = {key: k for k, key in enumerate(inst.keys())}
            natural = np.zeros_like(G)
            natural[:, [position[_param_name(s)] for s in names]] = G
            G = natural
        inst.G, inst.h = G, np.array(doc["omega"]["h"], dtype=float)
    prior = doc.get("prior")
    if prior is not None:
        inst.norm = prior.get("norm", "l2")
        if "estimates" in prior:
            inst.estimates = np.array(prior["estimates"], dtype=float)
        elif model == "nlo-sd":
            inst.estimates = A.copy()
        if "xi" in prior:
            inst.xi = np.array(prior["xi"], dtype=float)
    return inst


def read_document(path, label):
    with open(path, encoding="utf-8") as fp:
        return from_document(json.load(fp), label)


def write_document(inst, path):
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(to_document(inst), fp)


# Library arguments.

def library_args(io, inst):
    """(model, problem, x, structure, omega, prior) for io_recover.solve and validate."""
    problem = io.ForwardProblem(A=inst.A, b=inst.b)
    if inst.family == "nlo":
        structure = io.UncertaintyStructure.nominal()
    elif inst.family == "iu":
        structure = io.UncertaintyStructure.interval(inst.sets)
    else:
        structure = io.UncertaintyStructure.cardinality(inst.sets, inst.alpha)
    omega = None if inst.G is None else io.SideConstraints(G=inst.G, h=inst.h)
    prior = None
    if inst.model == "rlo-iu-sd":
        prior = io.Prior(estimates=inst.alpha, xi=inst.xi, norm=inst.norm)
    elif inst.norm is not None:
        prior = io.Prior(estimates=inst.estimates, xi=inst.xi, norm=inst.norm)
    return io.ModelKind(inst.model), problem, inst.x, structure, omega, prior
