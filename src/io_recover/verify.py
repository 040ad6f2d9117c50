"""Independent checking: optimality certificates and diagnostics for
trivial (vacuous) imputations.

The certificates of the two robust families share one deviation block,
built for all rows at once: interval uncertainty is budget uncertainty
with the full budget |J_i|, so in both, row i's deviation multipliers are
pi_i times the share of each column's deviation in force.  The budget
family adds only its auxiliary (y, z) block.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .geometry import budget_share, sgn
from .model import (
    ModelKind,
    PriorEpsilon,
    RhsEpsilon,
    Status,
    WeightBoost,
    block_shapes,
    check_inputs,
    read_block,
)

REPORT_TOL = 1e-7
# Residuals of multipliers, budgets and the dual normalization: compared
# against REPORT_TOL as they stand, whatever the scale of the data.
UNIT_FREE = frozenset({
    "normalization",
    "dual.pi_nonneg",
    "dual.multiplier_pairing",
    "dual.allocation_cap",
    "dual.budget_cap",
    "primal.budget_range",
})


@dataclass(frozen=True)
class CertificateReport:
    """Residuals of the optimality system for a returned solution.

    `residuals` maps each residual's name to its value: the "primal.*",
    "dual.*" and "consistency.*" ones, then "normalization", then
    "strong_duality" for the strong-duality models.  `aux` and `dual_aux`
    hold the reconstructed auxiliary primal and dual blocks.  The verdict
    is "valid" exactly when every residual is at or below its tolerance:
    REPORT_TOL for the unit-free residuals (UNIT_FREE), and
    REPORT_TOL * (1 + scale) for those in data units, where scale is the
    largest |entry| of A, b, the observation, the cost and the imputed
    block.  A solution missing a block or holding one of the wrong shape
    (`model.block_shapes`), holding a non-finite number, or with an
    `active_index` outside 1..m, is "invalid", with no residuals, its
    reason naming the field.  A residual that overflows reads inf, with
    no numpy warning.  The gap value c'x - b'pi (gap models only) is not a residual.
    """

    residuals: dict
    aux: dict
    dual_aux: dict
    duality_gap: float = None
    nontriviality: dict = None
    verdict: str = "valid"
    reason: str = None


def _excess(values):
    # largest entry above zero, 0 when none is (or there are no entries), inf when one is NaN
    top = float(np.max(values, initial=0.0))
    return math.inf if math.isnan(top) else max(0.0, top)


def _deviation_block(model, structure, mask, imputed, point, rows=slice(None)):
    """Masked magnitudes and deviation shares of the rows `rows` (all by
    default) at `point`.

    Returns (alpha, share, strict_share): the magnitudes on the m x n
    uncertain-column `mask` (the imputed ones for interval uncertainty, the
    fixed ones for a budget; 0 off the mask), and the part of each column's
    deviation in force.  Interval uncertainty is the full-budget
    case: every uncertain column deviates fully.  A budget deviates the
    columns as `geometry.budget_share` ranks them; `share` takes a
    fractional part >= 1e-12 (the realized rows) and `strict_share` one
    > 1e-12 (the multipliers).  Each row is ranked on its own, so a subset
    of the rows gets the bits it gets among all m.
    """
    mask, imputed = mask[rows], imputed[rows]
    if model.family == "iu":
        fully = mask * 1.0
        return np.where(mask, imputed, 0.0), fully, fully
    alpha = structure.alpha[rows]
    share = budget_share(alpha, mask, point, imputed)
    return np.where(mask, alpha, 0.0), share, np.where(share > 1e-12, share, 0.0)


def _nontriviality(model, problem, structure, mask, solution):
    """Whether the cost is nonzero and no realized row vanishes in any orthant.

    In the orthant of signs s, coordinate j of a robust family's realized
    row is a_j - s_j * dev_j, with dev_j = a_j - (a_j - alpha_j * share_j)
    independent of s (a budget ranks the columns by alpha_j |s_j| =
    alpha_j).  So the row vanishes in some orthant exactly when
    | |a_j| - dev_j | <= 1e-9 for every j.  Only the rows with
    |a_j| - full_j <= 1e-9 for every j are ranked and tested, where full_j
    = a_j - (a_j - alpha_j) is the deviation at share 1, rounded as dev_j
    is.  A budget's alpha_j is >= 0 and share_j <= 1, and rounding is
    monotone, so alpha_j * share_j <= alpha_j, dev_j <= full_j and |a_j| -
    dev_j >= |a_j| - full_j after rounding: no row left out can vanish.
    An interval row's share is 1, so there dev_j = full_j.  This is A10
    with the rounding of full_j as its margin; a constant margin
    alpha_j (1 + c u) does not bound dev_j, since where |a_j| is far above
    alpha_j, a_j - alpha_j rounds by up to half an ulp of a_j.
    """
    cost_ok = solution.cost is not None and float(np.max(np.abs(solution.cost))) > 1e-9
    if model.family == "nlo":
        rows_ok = bool(np.all(np.abs(solution.imputed).max(axis=1) > 1e-9))
        return {"cost_nonzero": cost_ok, "rows_nonzero_all_orthants": rows_ok, "orthants_checked": 1}
    A, imputed = problem.A, np.asarray(solution.imputed, dtype=float)
    full = A - (A - np.where(mask, imputed if model.family == "iu" else structure.alpha, 0.0))
    rows = np.flatnonzero((np.abs(A) - full <= 1e-9).all(axis=1))
    rows_ok = True
    if rows.size:
        alpha, share, _ = _deviation_block(model, structure, mask, imputed, np.ones(problem.n), rows)
        dev = A[rows] - (A[rows] - alpha * share)  # the realized row at s = +1 subtracted from a
        rows_ok = not np.any(np.abs(np.abs(A[rows]) - dev).max(axis=1) <= 1e-9)
    return {"cost_nonzero": cost_ok, "rows_nonzero_all_orthants": rows_ok, "orthants_checked": 2**problem.n}


@np.errstate(over="ignore", invalid="ignore")
def check_certificate(model, problem, x_hat, structure, solution):
    """Rebuild the auxiliary and dual blocks for a solution and report residuals.

    Auxiliary variables and multipliers are reconstructed from the returned
    (parameters, cost, duals) alone, so agreement is evidence independent of
    the solver's internal path.  Both robust families are checked through
    one deviation block: row i's deviation multipliers are pi_i times the
    share of each column's deviation in force, which is 1 on every
    uncertain column under interval uncertainty (the full-budget case) and
    the continuous-knapsack share of the budget otherwise; the budget
    family adds the auxiliary (y, z) block and its budget residuals.
    """
    model = ModelKind(model)
    if solution.status not in (Status.OPTIMAL, Status.TRIVIAL_DETECTED):
        raise PreconditionError("certificates apply to optimal or trivial-detected solutions only")
    # checked against the family's gap model: a certificate reads no omega or prior
    x = check_inputs(ModelKind(model.value.replace("-sd", "-dg")), problem, x_hat, structure)
    shapes = block_shapes(model, problem.m, problem.n)
    read = {name: read_block(getattr(solution, name), shape) for name, shape in shapes.items()}
    reasons = [f"{name}: {reason}" for name, (_, reason) in read.items() if reason]
    fields = {name: array for name, (array, _) in read.items() if array is not None}
    fields |= {name: np.asarray(getattr(solution, name), dtype=float) for name in ("duality_gap", "objective_value")
               if getattr(solution, name) is not None}
    reasons += [f"{name}: non-finite entry" for name, value in fields.items() if not np.isfinite(value).all()]
    active = solution.active_index
    if active is not None and not (isinstance(active, numbers.Integral) and 1 <= active <= problem.m):
        reasons.append(f"active_index: {active!r} outside 1..{problem.m}")
    if reasons:
        return CertificateReport(residuals={}, aux={}, dual_aux={}, nontriviality={}, verdict="invalid",
                                 reason=reasons[0])
    c, pi, imputed = (fields[name] for name in shapes)

    primal = {}
    dual = {}
    consistency = {}
    aux = {}
    dual_aux = {}
    normalization = abs(float(np.sum(pi)) - 1.0)
    dual["pi_nonneg"] = _excess(-pi)
    mask = structure.mask(problem.n)

    if model.family == "nlo":
        realized = imputed
        primal["feasibility"] = _excess(problem.b - imputed @ x)
        dual["cost_match"] = float(np.max(np.abs(imputed.T @ pi - c)))
    else:
        alpha, share, strict_share = _deviation_block(model, structure, mask, imputed, x)
        realized = problem.A - sgn(x) * alpha * share
        u = alpha * np.abs(x)
        phi = pi[:, None] * strict_share
        lam = np.where(x < 0.0, phi, 0.0)
        mu = np.where(x < 0.0, 0.0, phi)
        # A' pi - c plus each row's deviation term, added in row order: a cumulative sum keeps
        # that order, where a reduction over axis 0 would round differently
        cost_eq = np.cumsum(np.vstack((problem.A.T @ pi - c, alpha * (lam - mu))), axis=0)[-1]
        primal["deviation_bound_lo"] = _excess(-(alpha * x + u)[mask])
        primal["deviation_bound_hi"] = _excess(-(-alpha * x + u)[mask])
        dual["cost_match"] = float(np.max(np.abs(cost_eq)))
        pairing = _excess(np.abs(phi - lam - mu)[mask])
        if model.family == "iu":
            robust = problem.A @ x - u.sum(axis=1) - problem.b
            primal["robust_feasibility"] = _excess(-robust)
            primal["alpha_nonneg"] = _excess(-alpha[mask])
            dual["multiplier_pairing"] = pairing
            aux["u"] = u
        else:
            gamma = imputed
            # z is the smallest value alpha |x| in force, the largest when none is
            z = np.where(share > 0.0, u, np.inf).min(axis=1)
            z = np.where(np.isinf(z), u.max(axis=1), z)
            y = np.where(mask, np.maximum(u - z[:, None], 0.0), 0.0)
            robust = problem.A @ x - y.sum(axis=1) - gamma * z - problem.b
            primal["aux_cover"] = _excess((u - y - z[:, None])[mask])
            primal["robust_feasibility"] = _excess(-robust)
            primal["aux_nonneg"] = _excess(-np.append(y, z))
            primal["budget_range"] = _excess(np.maximum(-gamma, gamma - mask.sum(axis=1)))
            dual["allocation_cap"] = _excess((phi - pi[:, None])[mask])
            dual["multiplier_pairing"] = pairing
            dual["budget_cap"] = _excess(phi.sum(axis=1) - gamma * pi)
            aux["u"], aux["y"], aux["z"] = u, y, z
            dual_aux["phi"] = phi
        dual_aux["lambda"] = lam
        dual_aux["mu"] = mu

    gap_value = float(c @ x) - float(problem.b @ pi)
    strong_duality = None
    duality_gap = None
    if model.is_sd:
        strong_duality = abs(gap_value)
        if solution.objective_value is not None:
            consistency["objective_nonneg"] = _excess(-solution.objective_value)
    else:
        duality_gap = gap_value
        consistency["gap_nonneg"] = _excess(-gap_value)
        if solution.duality_gap is not None:
            consistency["gap_consistency"] = abs(gap_value - float(solution.duality_gap))
    if solution.active_index is not None:
        k = solution.active_index - 1
        consistency["cost_is_active_row"] = float(np.max(np.abs(realized[k] - c)))

    residuals = {
        f"{group}.{name}": val
        for group, values in (("primal", primal), ("dual", dual), ("consistency", consistency))
        for name, val in values.items()
    }
    residuals["normalization"] = normalization
    if strong_duality is not None:
        residuals["strong_duality"] = strong_duality

    scale = max(float(np.max(np.abs(arr), initial=0.0))
                for arr in (problem.A, problem.b, x, c, imputed))
    failed = next((name for name, val in residuals.items()  # the first over its tolerance; NaN fails
                   if not val <= (REPORT_TOL if name in UNIT_FREE else REPORT_TOL * (1.0 + scale))), None)
    verdict, reason = ("valid", None) if failed is None else ("invalid", f"{failed} = {residuals[failed]:g}")

    return CertificateReport(
        residuals=residuals,
        aux=aux,
        dual_aux=dual_aux,
        duality_gap=duality_gap,
        nontriviality=_nontriviality(model, problem, structure, mask, solution),
        verdict=verdict,
        reason=reason,
    )


def diagnose_trivial(solution, problem, structure, prior=None, x_hat=None):
    """Escape suggestions for a trivial strong-duality imputation.

    Per trivialized row: a signed right-hand-side nudge (sign chosen so the
    re-imputed row points along the prior rather than against it), a
    heuristic prior nudge on the first coordinate, and, when the row was
    trivialized by activation rather than by infeasibility repair, a weight
    boost that moves the activation to another row.
    """
    if solution.status != Status.TRIVIAL_DETECTED:
        return []
    if solution.model != ModelKind.NLO_SD or solution.imputed is None:
        return []
    model = ModelKind.NLO_DG if prior is None else ModelKind.NLO_SD  # the prior is optional here
    x = None if x_hat is None else check_inputs(model, problem, x_hat, structure, prior=prior)
    suggestions = []
    f = solution.per_constraint.get("f")
    g = solution.per_constraint.get("g")
    rows = [
        i
        for i in range(problem.m)
        if float(np.max(np.abs(np.asarray(solution.imputed)[i]))) <= 1e-9
    ]
    for i in rows:
        scale = 0.1 * max(1.0, abs(float(problem.b[i])))
        sign = 1.0
        if prior is not None and x is not None:
            # Moving b toward the prior's side of the hyperplane keeps the
            # re-imputed row pointing the same way as the prior.
            direction = float(prior.estimates[i] @ x)
            sign = 1.0 if direction >= 0.0 else -1.0
        suggestions.append(RhsEpsilon(row=i, delta=sign * scale, note="perturb the right-hand side"))
        suggestions.append(
            PriorEpsilon(
                row=i,
                col=0,
                delta=scale,
                heuristic=True,
                note="perturb the prior estimate (heuristic: first coordinate)",
            )
        )
        if f is not None and g is not None and solution.active_index == i + 1 and g[i] <= 1e-12:
            premium = f[i] - g[i]
            others = [f[k] - g[k] for k in range(problem.m) if k != i]
            if premium > 1e-12 and others:
                ratio = min(others) / premium
                weight = max(10.0, 2.0 * ratio)
                suggestions.append(
                    WeightBoost(row=i, weight=weight, note="activate a different constraint")
                )
    return suggestions
