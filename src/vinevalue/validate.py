"""Rank-correlation checks between solutions and against external
aggregates.

Every statistic lays its value sets out as rows of one array with
:func:`align`, and one numpy kernel scores row pairs with Kendall's tau-b
from exact integer pair counts (ties from run lengths, discordant pairs from
a bottom-up merge over integer ranks), so hand-derivable cases come out
exact instead of accumulating float noise.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .model import Category, Cell, InputError, department_of_insee, exact_sums, reporting_category
from .model import write_rows


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

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "scatter_rows"}


def align(mappings: Sequence[Mapping]) -> tuple[list, np.ndarray]:
    """The sorted union of the mappings' keys, and a ``(k, n)`` array of
    each mapping's values over it (zero where a key is absent)."""
    keys = sorted(set().union(*mappings))
    position = {key: j for j, key in enumerate(keys)}
    values = np.zeros((len(mappings), len(keys)))
    for row, mapping in zip(values, mappings):
        row[[position[key] for key in mapping]] = list(mapping.values())
    return keys, values


def _runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat index of the first element and length of each run of equal
    neighbours along the rows of a 2-D array, and the runs in each row."""
    starts = np.ones(rows.shape, dtype=bool)
    np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[:, 1:])
    first = np.flatnonzero(starts)
    return first, np.diff(first, append=rows.size), starts.sum(axis=-1)


def _discordant(sequences: np.ndarray) -> list[int]:
    """Strict inversions (``i < j`` with ``s[i] > s[j]``) in each row of a
    2-D array of nonnegative integers.

    A run of equal neighbours holds no inversion, so it enters as one value
    weighted by its length. A bottom-up merge sort of all rows then sorts
    each pair of adjacent blocks as one, the right block flagged so that
    ties put left values first: the left weight after a right value is the
    weight of the left values greater than it."""
    r, n = sequences.shape
    first, length, runs = _runs(sequences)
    size = 1 << int(runs.max() - 1).bit_length()
    shift = n.bit_length()
    flag = 1 << shift
    # One sortable key per run: value, right-block flag, length; padding weighs 0.
    keys = np.zeros((r, size), dtype=np.int64)
    column = np.arange(first.size) - np.repeat(np.cumsum(runs) - runs, runs)
    keys[first // n, column] = (sequences.ravel()[first] << (shift + 1)) | length
    discordant = np.zeros(r, dtype=np.int64)
    width = 1
    while width < size:
        keys.reshape(-1, 2, width)[:, 1] |= flag
        keys = np.sort(keys.reshape(-1, 2 * width), axis=-1)
        weight = keys & (flag - 1)
        right_weight = weight * ((keys >> shift) & 1)
        left_before = np.cumsum(weight - right_weight).reshape(keys.shape)
        left_after = (left_before[:, -1:] - left_before) * right_weight
        discordant += left_after.reshape(r, -1).sum(axis=-1)
        keys &= ~flag
        width *= 2
    return discordant.tolist()


#: Rank cells held by one batch of pairs in :func:`_taus` (one pair at least).
_BATCH_CELLS = 1 << 18


def _taus(values: np.ndarray, first: np.ndarray, second: np.ndarray) -> list[float | None]:
    """Tau-b of rows ``first[p]`` and ``second[p]`` of a ``(k, n)`` array for
    each ``p`` (None where a side is entirely tied), from exact int counts.
    Sorting the joint rank key ``x << bits | y`` orders a pair by x, then y:
    equal keys are the joint ties, and the y ranks in that order hold one
    inversion per discordant pair (Knight, 1966)."""
    n = values.shape[1]
    if n < 2:
        return [None] * len(first)
    ranks = np.empty(values.shape, dtype=np.int64)
    ties = []
    for row, row_ranks in zip(values, ranks):
        _, row_ranks[:], counts = np.unique(row, return_inverse=True, return_counts=True)
        ties.append(int((counts * (counts - 1) // 2).sum()))
    shift = n.bit_length()
    n0 = n * (n - 1) // 2
    batch = max(1, _BATCH_CELLS // n)
    taus: list[float | None] = []
    for lo in range(0, len(first), batch):
        i, j = first[lo:lo + batch], second[lo:lo + batch]
        joint = np.sort(ranks[i] << shift | ranks[j], axis=-1)
        _, length, runs = _runs(joint)
        joint_ties = np.add.reduceat(length * (length - 1) // 2, np.cumsum(runs) - runs)
        counts = zip(i, j, joint_ties.tolist(), _discordant(joint & ((1 << shift) - 1)))
        taus += [
            None if ties[a] == n0 or ties[b] == n0 else
            (n0 - ties[a] - ties[b] + txy - 2 * dis) / math.sqrt((n0 - ties[a]) * (n0 - ties[b]))
            for a, b, txy, dis in counts
        ]
    return taus


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-corrected Kendall rank correlation (tau-b) in [-1, 1]. Raises
    ValueError on length mismatch, and :class:`InputError` on fewer than two
    points or when either side is entirely tied (tau undefined)."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    tau = _taus(np.array([x, y], dtype=float), [0], [1])[0]
    if tau is None:
        raise InputError("kendall tau undefined: fewer than two points or a side entirely tied")
    return tau


def _pairwise_taus(values: np.ndarray) -> list[float]:
    """Tau-b of every pair of rows. Identical rows agree perfectly even when
    tau is otherwise undefined (tiny or fully tied supports); other
    undefined pairs are skipped."""
    first, second = np.triu_indices(len(values), 1)
    taus = [1.0 if np.array_equal(values[a], values[b]) else tau
            for a, b, tau in zip(first, second, _taus(values, first, second))]
    return [tau for tau in taus if tau is not None]


def compare_solutions(
    solutions: Sequence[Mapping[Cell, float]],
    restrict_min_hectares: float = 100.0,
) -> ComparisonReport:
    """Mean and minimum pairwise tau across solutions over the union support
    (cells missing from a solution count as zero), plus the same restricted
    to cells whose maximum across solutions reaches the threshold."""
    if len(solutions) < 2:
        raise InputError("need at least two solutions to compare")
    support, values = align(solutions)
    taus = _pairwise_taus(values)
    if not taus:
        raise InputError("pairwise tau undefined for every solution pair")
    keep = values.max(axis=0) >= restrict_min_hectares
    restricted = _pairwise_taus(values[:, keep]) if keep.any() else []
    return ComparisonReport(
        pair_count=len(support),
        kendall_tau=math.fsum(taus) / len(taus),
        kendall_tau_min=min(taus),
        restricted_tau=math.fsum(restricted) / len(restricted) if restricted else None,
        restricted_tau_min=min(restricted) if restricted else None,
        restricted_count=int(keep.sum()),
        notes={"solution_count": len(solutions), "tau_pairs": len(taus)},
    )


def aggregate_allocation(
    cells: Mapping[Cell, float],
    categories_by_code: Mapping[str, Category],
) -> dict[tuple[str, str], float]:
    """Aggregate cell surfaces to (department, wine type). Pseudo
    non-PGI appellations count as non-PGI."""
    return exact_sums(
        ((department_of_insee(insee), reporting_category(categories_by_code.get(code)).value), v)
        for (code, insee), v in cells.items()
    )


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
    keys, values = align([model, reference])
    if len(keys) < 2:
        raise InputError("need at least two aggregate keys to compare")
    keep = values[1] >= restrict_min_hectares
    return ComparisonReport(
        pair_count=len(keys),
        kendall_tau=kendall_tau(*values),
        restricted_tau=_taus(values[:, keep], [0], [1])[0],
        restricted_count=int(keep.sum()),
        scatter_rows=[
            (f"{dept}|{wtype}", model_value, reference_value)
            for (dept, wtype), model_value, reference_value in zip(keys, *values.tolist())
        ],
        notes={"model_only_keys": len(model.keys() - reference.keys()),
               "reference_only_keys": len(reference.keys() - model.keys())},
    )


def write_scatter_csv(report: ComparisonReport, path: str | Path) -> None:
    write_rows(
        path, ["key", "model_value", "reference_value"],
        ([key, repr(model_value), repr(reference_value)]
         for key, model_value, reference_value in report.scatter_rows),
    )
