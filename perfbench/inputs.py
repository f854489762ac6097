"""Input writer: turns a synthetic instance into the pipeline's CSV inputs.

The files follow the layout of the Alsace fixture (semicolon CSV, one
configuration file) so the program under test sees ordinary inputs and
nothing of the generator. The writer keeps the instance intact through
ingest: every appellation gets a CVI code with its own prefix, a category
column carries the PGI / non-PGI priorities, and surfaces are written with
``repr`` so they parse back bit for bit. :func:`reference_problem` is the
synthetic problem renamed to the written codes; the pipeline's dumped
problem must equal it.

Everything except the instance itself (names, yields, price labels, prices,
the solver seed) is drawn from the workload seed.
"""
from __future__ import annotations

import csv
import time
import unicodedata
from pathlib import Path

import numpy as np

from vinevalue import synth, validate
from vinevalue.model import Category

from checks import Problem

#: Category column values; the ingest aliases map them back to categories.
CATEGORY_LABELS = {Category.AOP: "AOP", Category.PGI: "IGP", Category.NON_PGI: "VSIG"}

YIELD_YEARS = (2018, 2019, 2020, 2021, 2022)
HARVEST_YEAR = 2023

#: Share of appellations with one yield year left blank (category fallback).
YIELD_GAP_SHARE = 0.02
#: Share of price labels naming no appellation at all.
UNMATCHED_LABEL_SHARE = 0.1

_HEADS = (
    "Côtes", "Coteaux", "Clos", "Château", "Vallée", "Terrasses", "Mont",
    "Val", "Haut", "Grand", "Pays", "Crus", "Saint", "Sainte", "Domaine",
)
_LINKS = ("de", "du", "des", "de la", "d'", "")
_SYLLABLES = (
    "bel", "rou", "lan", "gne", "mont", "vil", "lac", "sar", "tour", "bour",
    "cha", "ber", "gar", "ros", "mar", "pey", "fon", "lau", "cas", "tel",
    "ré", "gné", "beau", "vin", "cor", "nac", "san", "ven", "pré", "lys",
)
_TAILS = ("", "", "", "", "", " Villages", " Supérieur", " Blanc", " Rouge", " Rosé")


def generate(shape: tuple[int, int, float], seed: int, counties_per_department: int):
    """The synthetic instance and the seconds ``synth.generate`` took."""
    start = time.perf_counter()
    instance = synth.generate(shape, seed=seed, counties_per_department=counties_per_department)
    return instance, time.perf_counter() - start


def cvi_code(synthetic_code: str) -> str:
    """Appellation-level prefix for a synthetic code. The generator's codes
    (``A000``) all share the prefix ``A`` under the default letter rule, so
    a trailing letter makes each one its own prefix."""
    return f"{synthetic_code}V"


def _place(rng: np.random.Generator) -> str:
    parts = rng.choice(len(_SYLLABLES), size=int(rng.integers(2, 4)))
    return "".join(_SYLLABLES[int(k)] for k in parts).capitalize()


def appellation_names(count: int, rng: np.random.Generator) -> list[str]:
    """Distinct, French-looking names of about twenty letters."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        head = _HEADS[int(rng.integers(len(_HEADS)))]
        link = _LINKS[int(rng.integers(len(_LINKS)))]
        place = _place(rng)
        tail = _TAILS[int(rng.integers(len(_TAILS)))]
        if not link:
            name = f"{head} {place}{tail}"
        elif link.endswith("'"):
            name = f"{head} {link}{place}{tail}"
        else:
            name = f"{head} {link} {place}{tail}"
        key = _fold(name)
        if key not in seen:
            seen.add(key)
            names.append(name)
    return names


def _fold(text: str) -> str:
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch)).upper()


def perturb_label(name: str, rng: np.random.Generator) -> str:
    """A price-scale spelling of ``name``: accents dropped or case changed,
    then at most one typo or adjacent transposition, then an optional
    production-mode suffix."""
    label = name
    roll = rng.random()
    if roll < 0.3:
        label = _fold(label)
    elif roll < 0.5:
        label = label.lower()
    letters = [k for k, ch in enumerate(label) if ch.isalpha()]
    edit = rng.random()
    if edit < 0.25 and len(letters) > 2:
        k = letters[int(rng.integers(len(letters)))]
        label = label[:k] + "xq"[int(rng.integers(2))] + label[k + 1:]
    elif edit < 0.5:
        pairs = [k for k in letters[:-1] if label[k + 1].isalpha()]
        if pairs:
            k = pairs[int(rng.integers(len(pairs)))]
            label = label[:k] + label[k + 1] + label[k] + label[k + 2:]
    mode = rng.random()
    if mode < 0.4:
        label += " C"
    elif mode < 0.5:
        label += " B"
    return label


def _write_rows(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=";")
        writer.writerow(header)
        writer.writerows(rows)


def write_inputs(instance, directory: Path, *, seed: int, n_labels: int, k_starts: int) -> Path:
    """Write the five input files and ``pipeline.ini`` for ``instance``;
    returns the configuration path."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x1FE])
    problem = instance.problem
    codes = sorted(problem.appellation_caps)
    names = dict(zip(codes, appellation_names(len(codes), rng)))

    app_rows = []
    for code in codes:
        history = [f"{v:.3f}" for v in rng.uniform(30.0, 90.0, size=len(YIELD_YEARS))]
        if rng.random() < YIELD_GAP_SHARE:
            history[int(rng.integers(len(history)))] = ""
        app_rows.append(
            [f"{cvi_code(code)}01", names[code], CATEGORY_LABELS[instance.categories[code]],
             repr(problem.appellation_caps[code]), *history]
        )
    _write_rows(
        directory / "appellations.csv",
        ["cvi", "name", "category", "surface_ha", *(f"y{y}" for y in YIELD_YEARS)],
        app_rows,
    )
    _write_rows(
        directory / "counties.csv", ["insee", "surface_ha"],
        ([insee, repr(cap)] for insee, cap in sorted(problem.county_caps.items())),
    )
    _write_rows(
        directory / "inao.csv", ["appellation", "insee"],
        ([cvi_code(code), insee] for code, insee in problem.cells),
    )

    unmatched = int(round(UNMATCHED_LABEL_SHARE * n_labels))
    picked = rng.choice(len(codes), size=n_labels - unmatched, replace=False)
    labels = [perturb_label(names[codes[int(k)]], rng) for k in picked]
    labels += [f"{name} Réserve" for name in appellation_names(unmatched, rng)]
    prices = rng.uniform(50.0, 600.0, size=len(labels))
    _write_rows(
        directory / "prices.csv", ["label", "price_eur_hl"],
        ([label, f"{price:.2f}"] for label, price in zip(labels, prices)),
    )

    categories = {cvi_code(code): cat for code, cat in instance.categories.items()}
    truth = {(cvi_code(code), insee): v for (code, insee), v in instance.truth.cells.items()}
    reference = validate.aggregate_allocation(truth, categories)
    _write_rows(
        directory / "reference.csv", ["department", "wine_type", "surface_ha"],
        ([dept, wtype, repr(value)] for (dept, wtype), value in sorted(reference.items())),
    )

    solver_seed = int(rng.integers(1, 2**31 - 1))
    config = directory / "pipeline.ini"
    config.write_text(
        "[inputs]\n"
        "customs_by_appellation = appellations.csv\n"
        "customs_by_county = counties.csv\n"
        "inao_authorizations = inao.csv\n"
        "price_scale = prices.csv\n"
        "reference_aggregates = reference.csv\n\n"
        "[columns.appellations]\n"
        "code = cvi\nsurface = surface_ha\nname = name\ncategory = category\n"
        + "".join(f"yield.{y} = y{y}\n" for y in YIELD_YEARS)
        + "\n[columns.counties]\ninsee = insee\nsurface = surface_ha\n\n"
        "[columns.mask]\nappellation = appellation\ninsee = insee\n\n"
        "[columns.prices]\nlabel = label\nprice = price_eur_hl\n\n"
        f"[yields]\nharvest_year = {HARVEST_YEAR}\n\n"
        f"[solver]\nk_starts = {k_starts}\nseed = {solver_seed}\n\n"
        "[output]\ndirectory = out\n",
        encoding="utf-8",
    )
    return config


def reference_problem(instance) -> Problem:
    """The synthetic problem under the written codes."""
    problem = instance.problem
    return Problem(
        appellation_caps={cvi_code(c): cap for c, cap in problem.appellation_caps.items()},
        county_caps=dict(problem.county_caps),
        weights={cvi_code(c): w for c, w in problem.weights.items()},
        cells=frozenset((cvi_code(c), insee) for c, insee in problem.cells),
    )
