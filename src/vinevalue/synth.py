"""Synthetic ground-truth instances for measuring recovery quality.

The real register is confidential, so recovery quality is scored on
generated instances instead: draw a sparse true surface matrix and publish
only its exact marginals plus an authorization mask that covers the support.
The ``synth`` command scores the allocator's estimate against the truth with
:mod:`vinevalue.validate`.

Appellations are geographically localized the way real ones are: each gets a
home department, and its authorized counties concentrate there (category
controls the spread: protected designations are nearly intra-departmental,
non-PGI pseudo-appellations are strictly departmental).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import allocator
from .allocator import AllocationMatrix, AllocationProblem
from .model import AppellationRecord, Category, CountyRecord, DEFAULT_WEIGHTS, InputError
from .model import exact_sums

#: Out-of-home-department sampling weight per category (home weight is 1).
SPREAD: Mapping[Category, float] = {
    Category.AOP: 0.01,
    Category.AOP_BRANDY: 0.01,
    Category.PGI: 0.15,
    Category.NON_PGI: 0.0,
    Category.PSEUDO_NON_PGI: 0.0,
}

#: Share of the appellations drawn in each category.
CATEGORY_MIX: Mapping[Category, float] = {
    Category.AOP: 0.5,
    Category.PGI: 0.3,
    Category.NON_PGI: 0.2,
}


@dataclass(eq=False)
class SyntheticInstance:
    truth: AllocationMatrix
    problem: AllocationProblem
    categories: dict[str, Category]


def generate(
    shape: tuple[int, int, float],
    seed: int = 0,
    *,
    extra_mask_factor: float = 0.5,
    counties_per_department: int = 20,
    weights: Mapping[Category, float] = DEFAULT_WEIGHTS,
) -> SyntheticInstance:
    """Generate an instance with known truth.

    ``shape`` is (appellations, counties, support density). Categories are
    drawn with ``CATEGORY_MIX``. Cell sizes are log-normal with mu 2 and
    sigma 1 (heavy-tailed, like real surfaces). The mask is the truth
    support plus ``extra_mask_factor`` times as many authorized-but-unused
    cells, sampled with the same geographic locality. Marginals are exact
    sums of the truth, so the truth is exactly feasible. County codes are
    ``<department><index>``: more than 96 departments, or more than 999
    counties in one department, is an :class:`InputError`.
    """
    n_appellations, n_counties, density = shape
    if n_appellations < 1 or n_counties < 1 or not 0 < density <= 1:
        raise InputError(f"degenerate shape {shape!r}")
    rng = np.random.default_rng(int(seed))

    mix_categories = sorted(CATEGORY_MIX, key=lambda c: c.value)
    mix_weights = np.array([CATEGORY_MIX[c] for c in mix_categories], dtype=float)
    mix_weights = mix_weights / mix_weights.sum()
    categories = rng.choice(len(mix_categories), size=n_appellations, p=mix_weights)

    appellation_codes = [f"A{i:03d}" for i in range(n_appellations)]
    n_departments = max(1, n_counties // counties_per_department)
    if n_departments > 96:
        raise InputError(f"{n_departments} departments; from 97 on a code reads as overseas 97x")
    # The last department takes the remainder, so it is the largest.
    largest = n_counties - (n_departments - 1) * counties_per_department
    if largest > 999:
        raise InputError(f"{largest} counties in one department with counties_per_department = "
                         f"{counties_per_department}; a county index has 3 digits")
    department_of = np.minimum(
        np.arange(n_counties) // counties_per_department, n_departments - 1
    )
    insee_codes = [f"{d + 1:02d}{c - d * counties_per_department + 1:03d}"
                   for c, d in enumerate(department_of.tolist())]

    home = rng.integers(0, n_departments, size=n_appellations)
    per_appellation = max(1, int(round(density * n_counties)))

    # One county distribution, with its normalized CDF, per (home department,
    # spread). A draw is ``searchsorted`` of one ``rng.random()`` in the CDF,
    # which is exactly how ``rng.choice(n, p=p)`` draws.
    distributions: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}

    def county_distribution(app: int) -> tuple[np.ndarray, np.ndarray]:
        key = (int(home[app]), SPREAD[mix_categories[categories[app]]])
        if key not in distributions:
            w = np.where(department_of == key[0], 1.0, key[1])
            p = w / w.sum()
            cdf = p.cumsum()
            distributions[key] = p, cdf / cdf[-1]
        return distributions[key]

    support: set[tuple[int, int]] = set()
    for a in range(n_appellations):
        if density >= 1.0:
            chosen = range(n_counties)
        else:
            p, _ = county_distribution(a)
            available = int((p > 0).sum())
            count = int(min(available, max(1, rng.poisson(per_appellation))))
            chosen = rng.choice(n_counties, size=count, replace=False, p=p)
        for c in chosen:
            support.add((a, int(c)))
    support_list = sorted(support)
    sizes = np.exp(rng.normal(2.0, 1.0, size=len(support_list)))

    truth_cells = {
        (appellation_codes[a], insee_codes[c]): float(v)
        for (a, c), v in zip(support_list, sizes)
    }

    extras: set[tuple[int, int]] = set()
    target_extras = int(round(extra_mask_factor * len(support_list)))
    attempts = 0
    while len(extras) < target_extras and attempts < 50 * max(target_extras, 1):
        a = int(rng.integers(0, n_appellations))
        _, cdf = county_distribution(a)
        c = int(cdf.searchsorted(rng.random(), side="right"))
        if (a, c) not in support:
            extras.add((a, c))
        attempts += 1

    mask_cells = {
        (appellation_codes[a], insee_codes[c]) for a, c in sorted(support | extras)
    }

    row_sums = exact_sums((code, v) for (code, _), v in truth_cells.items())
    col_sums = exact_sums((insee, v) for (_, insee), v in truth_cells.items())
    categories_by_code = dict(zip(appellation_codes, (mix_categories[k] for k in categories)))
    problem = allocator.build_problem(
        [AppellationRecord(code, category=category, marginal_surface=row_sums.get(code, 0.0))
         for code, category in categories_by_code.items()],
        [CountyRecord(insee, marginal_surface=col_sums.get(insee, 0.0)) for insee in insee_codes],
        mask_cells, category_weights=weights,
    )
    return SyntheticInstance(
        truth=AllocationMatrix(truth_cells),
        problem=problem,
        categories=categories_by_code,
    )
