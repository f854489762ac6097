"""Reconstruction of per-appellation, per-county vineyard surfaces from open
aggregate statistics, and conversion into expected harvest values."""

from .model import (
    AppellationRecord,
    Category,
    CountyRecord,
    PriceEntry,
    ProductionMode,
)
from .allocator import (
    AllocationMatrix,
    AllocationProblem,
    build_problem,
    multi_start_average,
    random_init,
    solve,
)
from .linkage import LabelMatch, edit_distance, match_labels, normalize_label
from .validate import ComparisonReport, compare_aggregates, compare_solutions, kendall_tau
from .valuation import HarvestValueRecord, build_portfolio, harvest_value
from .yields import ExpectedYield, expected_yield, olympic_average

__version__ = "0.1.0"

__all__ = [
    "AllocationMatrix",
    "AllocationProblem",
    "AppellationRecord",
    "Category",
    "ComparisonReport",
    "CountyRecord",
    "ExpectedYield",
    "HarvestValueRecord",
    "LabelMatch",
    "PriceEntry",
    "ProductionMode",
    "__version__",
    "build_portfolio",
    "build_problem",
    "compare_aggregates",
    "compare_solutions",
    "edit_distance",
    "expected_yield",
    "harvest_value",
    "kendall_tau",
    "match_labels",
    "multi_start_average",
    "normalize_label",
    "olympic_average",
    "random_init",
    "solve",
]
