"""Checks every certified solve against its reference and the method's properties.

The properties are tested from the model definitions, never against stored
output: side constraints hold, the observation is (robust-)feasible, the
dual is the unit vector of the active row, the cost is the realized active
row, c'x - b'pi is the reported gap (at least 0) for the gap models and 0
for the strong-duality models, the gap or prior deviation matches the
independent reference (`reference.py`), and a repeated solve is
bit-identical to the first.  Nothing here imports the program or scipy.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-6


class Mismatch(Exception):
    """The program's answer disagrees with the reference or a method property."""


@dataclass
class Answer:
    """The fields of a solution that the checks read, from either path."""

    status: str
    active: int  # 1-based
    gap: float
    objective: float
    cost: np.ndarray
    pi: np.ndarray
    imputed: np.ndarray
    t: np.ndarray  # per-row surplus minima of the gap models, else None
    verdict: str

    def fingerprint(self):
        digest = hashlib.sha256(repr((self.status, self.active, self.gap, self.objective)).encode())
        for arr in (self.cost, self.pi, self.imputed, self.t):
            if arr is not None:
                digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        return digest.hexdigest()


@dataclass
class Reference:
    t: np.ndarray = None  # gap models: per-row minimum surplus
    objective: float = None  # strong-duality models: minimum prior deviation
    scale: float = 1.0  # 1 + largest |entry| of A, b and x; scales the tolerances

    def to_json(self):
        return {"t": None if self.t is None else self.t.tolist(),
                "objective": self.objective, "scale": self.scale}

    @classmethod
    def from_json(cls, doc):
        t = doc["t"]
        return cls(t=None if t is None else np.array(t), objective=doc["objective"], scale=doc["scale"])


def weights(inst):
    return np.ones(inst.m) if inst.xi is None else inst.xi


def norm(v, kind):
    v = np.abs(np.asarray(v, dtype=float))
    return float({"l1": np.sum(v), "l2": np.sqrt(np.sum(v * v)), "linf": np.max(v, initial=0.0)}[kind])


def protection(values, budget):
    """Worst-case loss when `budget` of the values deviate (one fractionally)."""
    v = np.sort(np.asarray(values, dtype=float))[::-1]
    full = min(int(np.floor(budget)), v.size)
    total = float(np.sum(v[:full]))
    if full < v.size:
        total += (budget - full) * v[full]
    return total


def deviation_values(inst, i):
    return np.array([inst.alpha[i, j] * abs(inst.x[j]) for j in inst.sets[i]])


def budget_caps(inst):
    return np.array([len(s) for s in inst.sets], dtype=float)


def realized_row(inst, k, imputed):
    """Row k of the constraint at the observation's worst-case deviation."""
    x = inst.x
    if inst.family == "nlo":
        return np.asarray(imputed[k], dtype=float)
    row = inst.A[k].copy()
    if inst.family == "iu":
        shares = {j: 1.0 for j in inst.sets[k]}
        magnitude = imputed[k]
    else:
        # the largest alpha|x| deviate first (ties: lower column), the last one fractionally
        budget = min(max(float(imputed[k]), 0.0), float(len(inst.sets[k])))
        order = sorted(inst.sets[k], key=lambda j: (-inst.alpha[k, j] * abs(x[j]), j))
        shares = {j: min(max(budget - rank, 0.0), 1.0) for rank, j in enumerate(order)}
        magnitude = inst.alpha[k]
    for j, share in shares.items():
        row[j] -= (1.0 if x[j] >= 0.0 else -1.0) * magnitude[j] * share
    return row


def _robust_surplus(inst, imputed):
    x = inst.x
    if inst.family == "nlo":
        return imputed @ x - inst.b
    if inst.family == "iu":
        loss = [sum(imputed[i, j] * abs(x[j]) for j in inst.sets[i]) for i in range(inst.m)]
    else:
        caps = budget_caps(inst)
        loss = [protection(deviation_values(inst, i), min(max(imputed[i], 0.0), caps[i]))
                for i in range(inst.m)]
    return inst.A @ x - np.array(loss) - inst.b


def _flat(inst, imputed):
    if inst.family == "ccu":
        return np.asarray(imputed, dtype=float)
    return np.array([imputed[i, j] for i, j in inst.keys()])


def _deviation(inst, imputed):
    """Weighted distance of the imputed parameters from the prior."""
    w = weights(inst)
    if inst.family == "nlo":
        return sum(w[i] * norm(imputed[i] - inst.estimates[i], inst.norm) for i in range(inst.m))
    if inst.family == "iu":
        return sum(w[i] * norm([imputed[i, j] - inst.alpha[i, j] for j in inst.sets[i]], inst.norm)
                   for i in range(inst.m))
    return norm(w * (imputed - np.clip(inst.estimates, 0.0, budget_caps(inst))), inst.norm)


def _is_trivial(inst, ans):
    if np.max(np.abs(ans.cost)) <= 1e-9:
        return True
    return inst.family == "nlo" and bool(np.any(np.max(np.abs(ans.imputed), axis=1) <= 1e-9))


def check(inst, ans, ref, first=None):
    """Raise Mismatch unless `ans` is a correct certified solve of `inst`."""
    tol = REL_TOL * ref.scale

    def expect(ok, what):
        if not ok:
            raise Mismatch(f"{inst.label}: {what}")

    def close(a, b, what):
        expect(a is not None and abs(a - b) <= REL_TOL * (1.0 + abs(b)), f"{what}: {a!r} != {b!r}")

    expect(ans.status == ("trivial-detected" if _is_trivial(inst, ans) else "optimal"),
           f"status {ans.status}")
    expect(ans.verdict == "valid", f"certificate verdict {ans.verdict}")
    imputed = np.asarray(ans.imputed, dtype=float)
    if inst.G is not None:
        expect(np.all(inst.G @ _flat(inst, imputed) <= inst.h + tol), "side constraints violated")
    if inst.family == "iu":
        expect(np.all(_flat(inst, imputed) >= -tol), "negative deviation magnitude")
    if inst.family == "ccu":
        expect(np.all(imputed >= -tol) and np.all(imputed <= budget_caps(inst) + tol),
               "budget outside [0, |J_i|]")
    expect(np.all(_robust_surplus(inst, imputed) >= -tol), "observation is not (robust-)feasible")
    k = ans.active - 1
    pi = np.asarray(ans.pi, dtype=float)
    expect(np.all(pi >= -tol) and abs(pi.sum() - 1.0) <= tol and abs(pi[k] - 1.0) <= tol,
           "dual is not the unit vector of the active row")
    expect(np.max(np.abs(realized_row(inst, k, imputed) - ans.cost)) <= tol,
           f"cost is not the realized row {ans.active}")
    gap = float(ans.cost @ inst.x - inst.b @ pi)
    if ref.t is not None:
        expect(gap >= -tol, f"negative duality gap {gap}")
        close(ans.gap, gap, "reported gap vs c'x - b'pi")
        close(ans.gap, float(np.min(ref.t)), "duality gap vs reference")
        expect(ans.t is not None and np.allclose(ans.t, ref.t, rtol=REL_TOL, atol=tol),
               "per-row surplus minima differ from the reference")
    else:
        expect(abs(gap) <= tol, f"strong duality fails: c'x - b'pi = {gap}")
        close(ans.objective, ref.objective, "prior deviation vs reference")
        close(_deviation(inst, imputed), ref.objective, "deviation of the imputed parameters")
    if first is not None:
        expect(ans.fingerprint() == first, "repeated solve is not bit-identical")
