"""Verification laboratory for pairs of diagonal cubic/quadratic equations.

Exact moment counts, circle-method local and archimedean factors, integer
solution search, and comparison of exact counts against the predicted
asymptotic growth.
"""

from .budget import DEFAULT_LEDGER_BUDGET, BudgetError, check_budget
from .systems import (
    ConditionReport,
    DiagonalSystem,
    SystemClass,
    check_conditions,
    classify,
    format_system,
    load_system,
    parse_system,
    phi_indefinite,
)
from .expsums import BoxSumSpec, SumValue, block_sums, box_sum
from .ledger import Ledger
from .moments import (
    I2Classification,
    MomentResult,
    classify_I2,
    count_J1,
    fit_exponent,
    mixed_moment,
    moment_I,
    moment_J,
    moment_T,
    moment_T_shifted,
)
from .smooth import c_eta, dickman_rho, smooth_mask, smooth_set
from .arcs import (
    ArcFamily,
    ArcMembership,
    RationalApproximation,
    dirichlet_approx,
    membership,
    minor_arc_weyl_check,
    transfer_bound_check,
    transfer_grid,
    transfer_lambda,
)
from .local import (
    ChiPartial,
    CompleteSum,
    CongruenceCount,
    LocalFactor,
    PadicWitness,
    chi_p_partial,
    complete_sum,
    count_congruences,
    padic_witness,
    singular_series,
)
from .archimedean import (
    OscillatoryValue,
    StarApprox,
    extrapolate_ladder,
    oscillatory_v,
    singular_integral,
    star_approx,
    unit_singular_integral,
    volume_constant,
)
from .solver import (
    AnchorError,
    RealAnchor,
    SolutionCount,
    count_solutions,
    find_real_anchor,
    predict_and_compare,
    search_witness,
    verify_solution,
)

__version__ = "0.1.0"
