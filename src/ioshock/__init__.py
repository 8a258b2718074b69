"""Propagation of simultaneous supply and demand shocks through
input-output production networks.

Best-case feasible allocations come from one linear program with two
objectives; realistic bottom-up allocations from four rationing fixed
points; the mixed endogenous/exogenous block solve is included with
diagnostics showing where it breaks. Sweep experiments vary shock
magnitude and network density across all methods.
"""

__version__ = "0.1.0"

from .economy import (
    Economy,
    EconomyMetrics,
    LeontiefOperator,
    build_economy,
    coefficients,
    metrics,
    remove_links,
    smallest_links,
    total_demand,
)
from .experiments import (
    ALL_METHODS,
    SweepRecord,
    SweepSpec,
    SweepSummary,
    run_method,
    summarize,
    sweep_density,
    sweep_scale,
)
from .fileio import (
    file_digest,
    parse_economy_csv,
    parse_shocks_csv,
    write_economy_csv,
    write_results,
)
from .lp import (
    LinearProgram,
    LpSolution,
    build_max_output_lp,
    optimal_allocation,
    solve,
)
from .meem import MeemSolution, check_feasibility, classify, solve_meem
from .rationing import (
    ration_largest_first,
    ration_mixed,
    ration_proportional,
    ration_random,
)
from .shocks import (
    Allocation,
    Constraints,
    ShockScenario,
    aggregate_shocks,
    allocation_is_feasible,
    direct_allocation,
    make_constraints,
    supply_shock,
)
