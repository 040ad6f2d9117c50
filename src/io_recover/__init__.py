"""Inverse solvers that recover constraint and uncertainty-set parameters
from an observed decision of a linear program (minimize c'x s.t. Ax >= b).

Six models: constraint-matrix, interval-magnitude, and budget recovery,
each minimizing the duality gap or enforcing strong duality against a
prior.  The gap models' subproblems are stated once, in `model.gap_values`:
a closed form while the side constraints keep at most one coupling row
(continuous knapsacks, `geometry.box_knapsack`), and otherwise one small
LP per constraint with the built-in dense simplex, the m LPs over one
feasible set (for rlo-ccu-dg the m budgets alone).  The three
strong-duality models run no LP, only closed forms.
"""

from .cardinality import GammaBounds, compute_gamma_bounds, solve_rlo_ccu_dg, solve_rlo_ccu_sd
from .errors import (
    DimensionError,
    InverseLpError,
    NominalInfeasibleError,
    NumericalFailureError,
    PreconditionError,
    ProblemFileError,
    ZeroObservationError,
    ZeroVectorError,
)
from .geometry import (
    GammaBarResult,
    NormKind,
    aux_optimum,
    dual_norm,
    dual_norm_maximizer,
    gamma_bar,
    project_halfspace,
    project_hyperplane,
    realized_row_cardinality,
    realized_row_interval,
)
from .interval import solve_rlo_iu_dg, solve_rlo_iu_sd
from .lp import Constraints, LinearProgram, LpOutcome, LpStatus, solve_lp, solve_lp_batch
from .model import (
    ForwardProblem,
    InverseSolution,
    ModelKind,
    Prior,
    PriorEpsilon,
    RhsEpsilon,
    SideConstraints,
    Status,
    UncertaintyStructure,
    ValidationReport,
    Variant,
    WeightBoost,
    validate,
)
from .nominal import PerturbedSolve, perturb_and_resolve, solve_nlo_dg, solve_nlo_sd
from .verify import CertificateReport, check_certificate, diagnose_trivial

__version__ = "0.1.0"


def solve(model, problem, x_hat, structure=None, omega=None, prior=None):
    """Run the solver for `model`; the one mapping from ModelKind to solver.

    The robust families take `structure`; the strong-duality models take
    `prior`, the gap models `omega`.  Only that one is passed on, so an
    omega given here to a -sd model, or a prior to a -dg model, is not
    read (`validate` rejects either).  Each solver checks its inputs
    (`model.check_inputs`), so calling a solver function directly checks
    them exactly as this does: a wrong-shaped or missing input raises
    DimensionError naming the field, a structure of the wrong variant
    PreconditionError.
    A numerical failure of the LP engine raises NumericalFailureError.  The
    solver is looked up by name at call time, so rebinding a solver in this
    module redirects every caller.
    """
    model = ModelKind(model)
    structure = structure if structure is not None else UncertaintyStructure.nominal()
    solver = globals()["solve_" + model.value.replace("-", "_")]
    data = prior if model.is_sd else omega
    if model.family == "nlo":
        return solver(problem, x_hat, data)
    return solver(problem, x_hat, structure, data)
