"""Independent reference values, computed from the model definitions.

Gap models: each row's minimum surplus is an LP written out in full from
the definition and solved by HiGHS (`scipy.optimize.linprog`); the gap is the
minimum over rows.  rlo-iu-sd: the weighted l1/linf distance LP per
candidate row, also by HiGHS.  nlo-sd: the dual-norm closed form.
rlo-ccu-sd: activation budgets by bisection on `checks.protection`, then the
closed form in those budgets.

Run as a script, it computes the references of one workload in a process of
its own, so the benchmark process never imports scipy or this module:

    python3 bench/reference.py --workload dg-ladder --seed 1 --out refs.json
"""

import argparse
import json
import os

import numpy as np
from scipy.optimize import linprog

import selftest
import workloads
from checks import Reference, budget_caps, deviation_values, norm, protection, weights

_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(None, None)):
    """Optimal value of min c'z, or None when infeasible."""
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options=_HIGHS)
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return float(res.fun)


def _bisect(pred, lo, hi):
    """Boundary of a monotone predicate with pred(lo) True and pred(hi) False."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        lo, hi = (mid, hi) if pred(mid) else (lo, mid)


def activation_budgets(inst):
    """Per row, the (lowest, highest) budget whose protection equals the surplus,
    or None when no budget reaches it."""
    surplus = np.maximum(inst.A @ inst.x - inst.b, 0.0)
    out = []
    for i, size in enumerate(budget_caps(inst)):
        v, s = deviation_values(inst, i), float(surplus[i])
        tol = 1e-12 * (1.0 + s)
        if protection(v, size) < s - tol:
            out.append(None)
            continue
        lower = 0.0 if s <= tol else _bisect(lambda g: protection(v, g) < s - tol, 0.0, size)[1]
        upper = size
        if protection(v, size) > s + tol:
            upper = _bisect(lambda g: protection(v, g) <= s + tol, 0.0, size)[0]
        out.append((lower, upper))
    return out


def _with_side(rows, rhs, inst, pad=0):
    if inst.G is None:
        return rows, rhs
    G = np.hstack([inst.G, np.zeros((inst.G.shape[0], pad))])
    return np.vstack([rows, G]), np.concatenate([rhs, inst.h])


def _nlo_dg(inst):
    # min a_i'x - b_i over the whole matrix: a_k'x >= b_k for every k, G vec(A) <= h
    m, n = inst.m, inst.n
    load = np.zeros((m, m * n))
    for k in range(m):
        load[k, k * n:(k + 1) * n] = inst.x
    A_ub, b_ub = _with_side(-load, -inst.b, inst)
    return Reference(t=np.array([_lp(load[i], A_ub, b_ub) - inst.b[i] for i in range(m)]))


def _iu_dg(inst):
    # s_i - max sum_j |x_j| alpha_ij: alpha >= 0, sum_j |x_j| alpha_kj <= s_k, G alpha <= h
    surplus = inst.A @ inst.x - inst.b
    keys = inst.keys()
    load = np.zeros((inst.m, len(keys)))
    for k, (i, j) in enumerate(keys):
        load[i, k] = abs(inst.x[j])
    A_ub, b_ub = _with_side(load, surplus, inst)
    return Reference(t=np.array([surplus[i] + _lp(-load[i], A_ub, b_ub, bounds=(0, None))
                                 for i in range(inst.m)]))


def _ccu_dg(inst):
    # s_i - max over budgets of row i's protection, with every row robust-feasible
    # (gamma_k at most its highest activation budget) and G gamma <= h
    m = inst.m
    surplus = inst.A @ inst.x - inst.b
    caps = budget_caps(inst)
    feasible = [caps[k] if bb is None else bb[1] for k, bb in enumerate(activation_budgets(inst))]
    t = np.empty(m)
    for i in range(m):
        v = deviation_values(inst, i)
        allot = np.concatenate([-np.eye(m)[i], np.ones(v.size)])  # sum(phi) <= gamma_i
        A_ub, b_ub = _with_side(allot[None, :], np.zeros(1), inst, pad=v.size)
        bounds = [(0.0, feasible[k]) for k in range(m)] + [(0.0, 1.0)] * v.size
        t[i] = surplus[i] + _lp(np.concatenate([np.zeros(m), -v]), A_ub, b_ub, bounds=bounds)
    return Reference(t=t)


def _nlo_sd(inst):
    # distance of a prior row to {a : a'x = b_i} is |a_hat'x - b_i| / ||x||_dual
    dual = {"l1": "linf", "l2": "l2", "linf": "l1"}[inst.norm]
    w, dn = weights(inst), norm(inst.x, dual)
    lhs = inst.estimates @ inst.x - inst.b
    f = w * np.abs(lhs) / dn
    g = w * np.maximum(-lhs, 0.0) / dn
    return Reference(objective=float(np.min(f - g) + np.sum(g)))


def _iu_sd(inst):
    # per candidate row: min sum_i w_i ||alpha_i - alpha_hat_i|| with that row
    # robust-active and every other row robust-feasible
    keys = inst.keys()
    p, m = len(keys), inst.m
    w = weights(inst)
    l1 = inst.norm == "l1"
    epi = p if l1 else m
    c = np.concatenate([np.zeros(p), w[[i for i, _ in keys]] if l1 else w])
    rows, rhs = [], []
    for k, (i, j) in enumerate(keys):
        for sign in (1.0, -1.0):  # |alpha - alpha_hat| <= d
            row = np.zeros(p + epi)
            row[k], row[p + (k if l1 else i)] = sign, -1.0
            rows.append(row)
            rhs.append(sign * inst.alpha[i, j])
    load = np.zeros((m, p + epi))
    for k, (i, j) in enumerate(keys):
        load[i, k] = abs(inst.x[j])
    surplus = inst.A @ inst.x - inst.b
    best = np.inf
    for target in range(m):
        others = [k for k in range(m) if k != target]
        value = _lp(c, np.vstack([rows, load[others]]), np.concatenate([rhs, surplus[others]]),
                    load[[target]], surplus[[target]], bounds=(0, None))
        if value is not None:
            best = min(best, value)
    return Reference(objective=best)


def _ccu_sd(inst):
    # activate one row at the budget nearest its prior; cap the others at feasibility
    prior = np.clip(inst.estimates, 0.0, budget_caps(inst))
    w = weights(inst)
    budgets = activation_budgets(inst)
    capped = np.array([0.0 if bb is None else min(prior[k], bb[1]) - prior[k]
                       for k, bb in enumerate(budgets)])
    best = np.inf
    for i, bb in enumerate(budgets):
        if bb is not None:
            move = capped.copy()
            move[i] = min(max(prior[i], bb[0]), bb[1]) - prior[i]
            best = min(best, norm(w * move, inst.norm))
    return Reference(objective=best)


_MODELS = {"nlo-dg": _nlo_dg, "rlo-iu-dg": _iu_dg, "rlo-ccu-dg": _ccu_dg,
           "nlo-sd": _nlo_sd, "rlo-iu-sd": _iu_sd, "rlo-ccu-sd": _ccu_sd}


def reference(inst):
    ref = _MODELS[inst.model](inst)
    ref.scale = 1.0 + float(max(np.max(np.abs(inst.A)), np.max(np.abs(inst.b)), np.max(np.abs(inst.x))))
    return ref


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    insts = [op.inst for op in workloads.build(args.workload, args.seed, root, None)]
    insts += selftest.instances(args.seed)
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump({inst.label: reference(inst).to_json() for inst in insts}, fp)


if __name__ == "__main__":
    main()
