"""Rank-correlation checks between solutions and against external
aggregates.

Kendall's tau-b is computed here with exact integer pair counting
(concordant minus discordant via a merge-sort inversion count, ties
corrected), so hand-derivable cases come out exact instead of accumulating
float noise.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .model import Category, Cell, department_of_insee


@dataclass
class ComparisonReport:
    """Rank agreement between two value sets (or across solution pairs).

    ``pair_count`` is the number of compared items. Pairwise comparisons
    report both the mean and the conservative minimum tau. ``restricted_tau``
    covers only items above the size threshold; it is None when fewer than
    two such items exist or when ranks degenerate.
    """

    pair_count: int
    kendall_tau: float
    kendall_tau_min: float | None = None
    restricted_tau: float | None = None
    restricted_tau_min: float | None = None
    restricted_count: int = 0
    scatter_rows: list[tuple[str, float, float]] = field(default_factory=list)
    notes: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "pair_count": self.pair_count,
            "kendall_tau": self.kendall_tau,
            "kendall_tau_min": self.kendall_tau_min,
            "restricted_tau": self.restricted_tau,
            "restricted_tau_min": self.restricted_tau_min,
            "restricted_count": self.restricted_count,
            "notes": dict(sorted(self.notes.items())),
        }
        return json.dumps(payload, sort_keys=True)


def _tie_pairs(sorted_values) -> int:
    pairs = 0
    run = 1
    for i in range(1, len(sorted_values)):
        if sorted_values[i] == sorted_values[i - 1]:
            run += 1
        else:
            pairs += run * (run - 1) // 2
            run = 1
    return pairs + run * (run - 1) // 2


def _count_inversions(values: list) -> int:
    """Strict inversions (i < j with a[i] > a[j]) by bottom-up merge sort."""
    a = list(values)
    n = len(a)
    buffer = [a[0]] * n if n else []
    inversions = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if a[i] <= a[j]:
                    buffer[k] = a[i]
                    i += 1
                else:
                    buffer[k] = a[j]
                    j += 1
                    inversions += mid - i
                k += 1
            while i < mid:
                buffer[k] = a[i]
                i += 1
                k += 1
            while j < hi:
                buffer[k] = a[j]
                j += 1
                k += 1
        a, buffer = buffer, a
        width *= 2
    return inversions


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-corrected Kendall rank correlation (tau-b) in [-1, 1].

    Raises ValueError on length mismatch, fewer than two points, or when
    either side is entirely tied (tau undefined).
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise ValueError("kendall tau needs at least two points")
    pairs = sorted(zip(x, y))
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    n0 = n * (n - 1) // 2
    ties_x = _tie_pairs(xs)
    ties_joint = _tie_pairs(pairs)
    ties_y = _tie_pairs(sorted(ys))
    if ties_x == n0 or ties_y == n0:
        raise ValueError("kendall tau undefined: one side is entirely tied")
    discordant = _count_inversions(ys)
    con_minus_dis = n0 - ties_x - ties_y + ties_joint - 2 * discordant
    return con_minus_dis / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def _pairwise_taus(vectors: list[list[float]]) -> list[float]:
    taus = []
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            # Identical vectors agree perfectly even when tau is otherwise
            # undefined (tiny or fully tied supports).
            if vectors[i] == vectors[j]:
                taus.append(1.0)
                continue
            try:
                taus.append(kendall_tau(vectors[i], vectors[j]))
            except ValueError:
                continue
    return taus


def compare_solutions(
    solutions: Sequence[Mapping[Cell, float]],
    restrict_min_hectares: float = 100.0,
) -> ComparisonReport:
    """Mean and minimum pairwise tau across solutions over the union support
    (cells missing from a solution count as zero), plus the same restricted
    to cells whose maximum across solutions reaches the threshold."""
    if len(solutions) < 2:
        raise ValueError("need at least two solutions to compare")
    support = sorted(set().union(*solutions))
    vectors = [[s.get(cell, 0.0) for cell in support] for s in solutions]
    taus = _pairwise_taus(vectors)
    if not taus:
        raise ValueError("pairwise tau undefined for every solution pair")
    maxima = [max(v[k] for v in vectors) for k in range(len(support))]
    keep = [k for k, mx in enumerate(maxima) if mx >= restrict_min_hectares]
    restricted = _pairwise_taus([[v[k] for k in keep] for v in vectors]) if keep else []
    return ComparisonReport(
        pair_count=len(support),
        kendall_tau=math.fsum(taus) / len(taus),
        kendall_tau_min=min(taus),
        restricted_tau=math.fsum(restricted) / len(restricted) if restricted else None,
        restricted_tau_min=min(restricted) if restricted else None,
        restricted_count=len(keep),
        notes={"solution_count": len(solutions), "tau_pairs": len(taus)},
    )


def aggregate_allocation(
    cells: Mapping[Cell, float],
    categories_by_code: Mapping[str, Category],
) -> dict[tuple[str, str], float]:
    """Aggregate cell surfaces to (department, wine type). Pseudo
    non-PGI appellations count as non-PGI."""
    sums: dict[tuple[str, str], list[float]] = {}
    for (code, insee), value in cells.items():
        category = categories_by_code.get(code, Category.NON_PGI)
        if category is Category.PSEUDO_NON_PGI:
            category = Category.NON_PGI
        key = (department_of_insee(insee), category.value)
        sums.setdefault(key, []).append(value)
    return {key: math.fsum(values) for key, values in sums.items()}


def compare_aggregates(
    cells: Mapping[Cell, float],
    categories_by_code: Mapping[str, Category],
    reference: Mapping[tuple[str, str], float],
    restrict_min_hectares: float = 1000.0,
) -> ComparisonReport:
    """Tau between the model aggregated to (department, wine type) and an
    independent reference table over the same keys. Keys present on one side
    only enter with zero on the other and are counted."""
    model = aggregate_allocation(cells, categories_by_code)
    keys = sorted(set(model) | set(reference))
    if len(keys) < 2:
        raise ValueError("need at least two aggregate keys to compare")
    model_values = [model.get(key, 0.0) for key in keys]
    reference_values = [reference.get(key, 0.0) for key in keys]
    tau = kendall_tau(model_values, reference_values)
    keep = [k for k, key in enumerate(keys) if reference.get(key, 0.0) >= restrict_min_hectares]
    restricted = None
    if len(keep) >= 2:
        try:
            restricted = kendall_tau(
                [model_values[k] for k in keep], [reference_values[k] for k in keep]
            )
        except ValueError:
            restricted = None
    return ComparisonReport(
        pair_count=len(keys),
        kendall_tau=tau,
        restricted_tau=restricted,
        restricted_count=len(keep),
        scatter_rows=[
            (f"{dept}|{wtype}", model.get((dept, wtype), 0.0), reference.get((dept, wtype), 0.0))
            for dept, wtype in keys
        ],
        notes={
            "model_only_keys": sum(1 for key in keys if key not in reference),
            "reference_only_keys": sum(1 for key in keys if key not in model),
        },
    )


def load_reference_aggregates(path: str | Path, delimiter: str = ";") -> dict[tuple[str, str], float]:
    """Reference CSV: department; wine_type; surface_ha."""
    out: dict[tuple[str, str], float] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        next(reader)
        for row in reader:
            out[(row[0], row[1])] = float(row[2])
    return out


def write_scatter_csv(report: ComparisonReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=";")
        writer.writerow(["key", "model_value", "reference_value"])
        for key, model_value, reference_value in report.scatter_rows:
            writer.writerow([key, repr(model_value), repr(reference_value)])
