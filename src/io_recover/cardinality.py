"""Recovery of per-row deviation budgets under cardinality-constrained uncertainty.

The activation budgets of all rows (the budgets whose protection value
equals the nominal surplus) come from one ranking of the products
alpha_ij |x_j| (`geometry.ranked`), and cap each row's feasible budget;
the same ranking gives the protection at those caps.  The strong-duality
model is closed form in those budgets: row i's objective is the norm of
the budget moves with row i active, and one norm of the m moves gives it
for every row, in memory linear in m.  The gap model's row i takes the
continuous knapsack at its largest feasible budget: the box's upper bound
once the side constraints fold into bounds, else `model.gap_values`'
largest budget i over the m budgets alone.  Both models hand
their per-row results to `model`'s one tail, which picks the active row
and realizes the cost vector under its budget.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NominalInfeasibleError
from .geometry import NormKind, activation, knapsack, norm_value, ranked, row_dots
from .model import (
    InverseSolution,
    ModelKind,
    canonicalize_omega,
    check_inputs,
    clamp_budget_prior,
    gap_solution,
    gap_values,
    param_keys,
    row_solution,
)


@dataclass(frozen=True)
class GammaBounds:
    """Activation budgets and the feasibility box they induce.

    i_hat lists (0-based) the rows whose nominal surplus is within reach of
    the protection function.  gamma_lower/gamma_upper bracket each such
    row's activating budgets (equal unless several budgets activate the
    row); theta_upper caps the feasible budget per row: the activation
    bracket's top for rows in i_hat, the column count otherwise.
    """

    i_hat: tuple
    gamma_lower: np.ndarray
    gamma_upper: np.ndarray
    theta_upper: np.ndarray


def compute_gamma_bounds(problem, structure, x_hat):
    """Per-row activation budgets; raises when the observation is nominal-infeasible."""
    # the input rule of either budget model: neither omega nor a prior is read here
    return _budget_rows(problem, structure, check_inputs(ModelKind.RLO_CCU_DG, problem, x_hat, structure))[0]


def _budget_rows(problem, structure, x):
    """What a budget solve reads of its rows, at an observation its caller
    has checked: (GammaBounds, nominal surplus, uncertain-column mask,
    ranking, ranked products).  One ranking serves the activation budgets,
    the protection at the caps and the active row's realization."""
    surplus = row_dots(problem.A, x) - problem.b  # one surplus for infeasibility, the budgets and t's offset
    worst = int(np.argmin(surplus))
    if surplus[worst] < -1e-9:
        raise NominalInfeasibleError(worst, float(-surplus[worst]))
    mask = structure.mask(problem.n)
    order, values = ranked(structure.alpha, mask, x)
    lower, upper = activation(surplus, mask, values)
    reach = ~np.isnan(lower)
    bounds = GammaBounds(
        i_hat=tuple(np.flatnonzero(reach).tolist()), gamma_lower=lower, gamma_upper=upper,
        theta_upper=np.where(reach, upper, mask.sum(axis=1)),
    )
    return bounds, surplus, mask, order, values


def solve_rlo_ccu_dg(problem, x_hat, structure, omega):
    """Impute budgets minimizing the duality gap.

    Row i's protected loss is the continuous knapsack of its products
    (`geometry.knapsack`), which never decreases as its budget grows, so
    its optimum is the knapsack at its cap: the largest budget i in the
    feasibility box and the side constraints.  Box-only, the cap is the
    upper bound, and every other budget takes its lower bound.  With a
    coupling row left, LP i maximizes budget i over the m budgets, with no
    own row (`model.gap_values`), and its budgets are row i's block.
    """
    x = check_inputs(ModelKind.RLO_CCU_DG, problem, x_hat, structure, omega=omega)
    m = problem.m
    try:
        gb, surplus, mask, order, values = _budget_rows(problem, structure, x)
    except NominalInfeasibleError as exc:
        return InverseSolution.infeasible(ModelKind.RLO_CCU_DG, str(exc))
    keys = param_keys(ModelKind.RLO_CCU_DG, problem, structure)
    canon = canonicalize_omega(omega, keys, lower_floor=np.zeros(m), upper_cap=gb.theta_upper)
    infeasible = "no budgets satisfy both the feasibility box and the side constraints"
    if not canon.feasible:
        return InverseSolution.infeasible(ModelKind.RLO_CCU_DG, infeasible)
    cap, imputed = canon.upper, lambda i: np.where(np.arange(m) == i, canon.upper, canon.lower)
    if canon.G.shape[0]:
        found = gap_values(ModelKind.RLO_CCU_DG, canon, keys, -np.ones(m), np.full(m, -np.inf), infeasible)
        if isinstance(found, InverseSolution):
            return found
        cap, block = found
        cap, imputed = -cap, lambda i: block(i)[:, 0]
    return gap_solution(
        ModelKind.RLO_CCU_DG, problem, structure, x, surplus, -knapsack(values, mask, cap), imputed, order
    )


def solve_rlo_ccu_sd(problem, x_hat, structure, prior):
    """Closest budgets to the prior achieving exact optimality; closed form.

    Per activatable row the activation premium is the signed budget move
    onto its activation bracket; the row minimizing the norm of the full
    deviation vector is activated (`model.row_solution`) and takes its
    moved budget, the other activatable rows are capped at feasibility,
    and the rest keep their prior budgets.
    """
    x = check_inputs(ModelKind.RLO_CCU_SD, problem, x_hat, structure, prior=prior)
    m = problem.m
    try:
        gb, _, _, order, _ = _budget_rows(problem, structure, x)
    except NominalInfeasibleError as exc:
        return InverseSolution.infeasible(ModelKind.RLO_CCU_SD, str(exc))
    if not gb.i_hat:
        return InverseSolution.infeasible(
            ModelKind.RLO_CCU_SD, "no constraint's surplus is within reach of its protection function"
        )
    gamma_hat = clamp_budget_prior(prior, structure)
    rows = list(gb.i_hat)
    moved, kept = gamma_hat.copy(), gamma_hat.copy()  # row i's budget when it is active, when it is not
    moved[rows] = np.minimum(np.maximum(gamma_hat[rows], gb.gamma_lower[rows]), gb.gamma_upper[rows])
    kept[rows] = np.minimum(gamma_hat[rows], gb.gamma_upper[rows])
    f = moved - gamma_hat
    g = np.minimum(f, 0.0)
    # row i's deviation vector is g with entry i set to f_i: g itself where f_i <= 0, and where
    # f_i > 0, g with the rise f_i on its entry i, which g holds at 0
    base, rise = norm_value(g, prior.norm), np.maximum(f, 0.0)
    if prior.norm == NormKind.L1:
        own = base + rise
    elif prior.norm == NormKind.L2:
        own = np.hypot(base, rise)
    else:
        own = np.maximum(base, rise)
    t = np.full(m, np.inf)
    t[rows] = own[rows]
    return row_solution(
        ModelKind.RLO_CCU_SD, problem, structure, x, t, t,
        lambda i: np.where(np.arange(m) == i, moved, kept), {"f": f, "g": g}, order,
    )
