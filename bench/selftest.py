"""Shows that the checks fire: solves one small instance per model, confirms
the clean answer passes, then feeds three corrupted copies (a shifted gap or
deviation, one nudged imputed entry of the active row, a wrong active row)
and requires `checks.check` to reject each.  Runs at the start of every
benchmark run."""

import dataclasses

import numpy as np

from checks import Mismatch, budget_caps, check
from instances import MODELS, generate

_SHIFT = 1e-3


def instances(seed):
    out = []
    for model in MODELS:
        m, n = (8, 4) if model == "rlo-iu-sd" else (10, 5)
        norm = {"nlo-sd": "l2", "rlo-iu-sd": "l1", "rlo-ccu-sd": "linf"}.get(model)
        inst = generate(model, m, n, seed, 0, 1.0, norm)
        inst.label = f"selftest {inst.label}"
        out.append(inst)
    return out


def _corruptions(inst, ans):
    k = ans.active - 1
    shifted = dataclasses.replace(
        ans, gap=None if ans.gap is None else ans.gap + _SHIFT, objective=ans.objective + _SHIFT)
    imputed = np.array(ans.imputed, dtype=float)
    if inst.family == "ccu":
        imputed[k] += _SHIFT if imputed[k] < budget_caps(inst)[k] / 2 else -_SHIFT
    else:
        imputed[k, inst.sets[k][0] if inst.sets else 0] += _SHIFT
    nudged = dataclasses.replace(ans, imputed=imputed)
    wrong_row = dataclasses.replace(ans, active=(k + 1) % inst.m + 1)
    return {"shifted gap": shifted, "nudged imputed entry": nudged, "wrong active row": wrong_row}


def run(solve, refs, seed):
    """`solve(inst)` returns an Answer; raises Mismatch if a check fails to fire."""
    fired = 0
    for inst in instances(seed):
        ref = refs[inst.label]
        ans = solve(inst)
        check(inst, ans, ref)
        for name, bad in _corruptions(inst, ans).items():
            try:
                check(inst, bad, ref)
            except Mismatch:
                fired += 1
                continue
            raise Mismatch(f"{inst.label}: the checks accept a {name}")
    return fired
