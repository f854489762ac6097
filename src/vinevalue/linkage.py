"""Label normalization and fuzzy matching between the insurance price scale
and the appellation nomenclature.

The two nomenclatures share no key, so price labels are matched to
appellation names by unit-cost Damerau-Levenshtein distance after a cleaning
pass (accents stripped, acronyms expanded, French filler words removed).
"""
from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ingest import open_source
from .model import AppellationRecord, ConfigError, PriceEntry, ProductionMode, finite_float
from .model import read_rows, write_rows

#: Recurring French words that carry no meaning in a nomenclature merge.
DEFAULT_STOPWORDS = frozenset({"ET", "DE", "DU", "DES", "D", "LA", "LE", "LES"})

#: Contractions rewritten to their explicit form before matching. Expansion
#: values must not themselves contain acronym keys (normalization is a
#: single pass and must be idempotent); :func:`load_acronyms` refuses such
#: tables.
DEFAULT_ACRONYMS: Mapping[str, str] = {"CDR": "COTE DU RHONE"}

_TOKEN_SPLIT = re.compile(r"[^0-9A-Z]+")
_QUOTED = re.compile(r"[`'‘’“”\"]([^`'‘’“”\"]+)[`'‘’“”\"]")


def strip_accents(text: str) -> str:
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def normalize_label(
    raw: str,
    *,
    acronyms: Mapping[str, str] | None = None,
    stopwords: frozenset[str] | set[str] | None = None,
) -> str:
    """Canonical uppercase form of a wine label for matching.

    Accents and special characters are removed, acronym tokens are expanded,
    stopword tokens dropped and whitespace collapsed. Idempotent for the
    default dictionaries and for any table :func:`load_acronyms` accepts.
    """
    if acronyms is None:
        acronyms = DEFAULT_ACRONYMS
    if stopwords is None:
        stopwords = DEFAULT_STOPWORDS
    text = strip_accents(raw).upper()
    tokens: list[str] = []
    for token in _TOKEN_SPLIT.split(text):
        if not token:
            continue
        if token in acronyms:
            tokens.extend(t for t in _TOKEN_SPLIT.split(acronyms[token].upper()) if t)
        else:
            tokens.append(token)
    return " ".join(t for t in tokens if t not in stopwords)


def edit_distance(a: str, b: str, limit: float = math.inf) -> float:
    """Unrestricted Damerau-Levenshtein distance: the fewest insertions,
    deletions, substitutions and transpositions of adjacent characters that
    turn ``a`` into ``b``.

    The result is exact when it is at most ``limit``; otherwise it is some
    value above ``limit``.
    """
    if a == b:
        return 0.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return float(la + lb)
    inf = float("inf")
    # Cell (i, j) is at least |i - j|, so with a finite limit only the band
    # |i - j| <= limit is computed (Ukkonen); the cells outside stay inf.
    band = int(limit) if limit < max(la, lb) else max(la, lb)
    # Lowrance-Wagner: d has two sentinel rows/columns so the transposition
    # lookup d[i1-1][j1-1] is always in range.
    d = [[inf] * (lb + 2) for _ in range(la + 2)]
    d[1][1] = 0.0
    for i in range(1, la + 1):
        d[i + 1][1] = float(i)
    for j in range(1, lb + 1):
        d[1][j + 1] = float(j)
    last_row: dict[str, int] = {}
    for i in range(1, la + 1):
        ai = a[i - 1]
        prev, cur = d[i], d[i + 1]
        row_min = cur[1]
        last_col = 0
        for j in range(max(1, i - band), min(lb, i + band) + 1):
            bj = b[j - 1]
            best = prev[j]
            if ai == bj:
                # A match on the diagonal is never beaten: neighbouring cells
                # differ by at most one, and a transposition here costs more.
                last_col = j
            else:
                if prev[j + 1] < best:
                    best = prev[j + 1]
                if cur[j] < best:
                    best = cur[j]
                best += 1.0
                if last_col:
                    i1 = last_row.get(bj, 0)
                    if i1:
                        trans = d[i1][last_col] + (i - i1 - 1) + 1.0 + (j - last_col - 1)
                        if trans < best:
                            best = trans
            cur[j + 1] = best
            if best < row_min:
                row_min = best
        # Every row holds a cell no larger than the distance: a transposition
        # charges the rows it skips as deletions.
        if row_min > limit:
            return inf
        last_row[ai] = i
    return d[la + 1][lb + 1]


@dataclass(frozen=True)
class LabelMatch:
    """Best appellation candidate for one price-scale label, priced by that label's row."""

    source_label: str
    target_code: str
    distance: float
    accepted: bool
    price: float
    production_mode: ProductionMode


def expand_price_entries(entries: Iterable[PriceEntry]) -> list[PriceEntry]:
    """Split price rows whose label lists several quoted appellation names
    into one row per name, replicating the rest of the row. Rows without
    multiple quoted segments pass through unchanged."""
    quote_chars = "`'‘’“”\""
    out: list[PriceEntry] = []
    for entry in entries:
        segments = [s.strip() for s in _QUOTED.findall(entry.label) if s.strip()]
        # Possessive apostrophes inside ordinary labels must not trigger a
        # split, so expansion requires the label to open with a quote.
        if len(segments) < 2 or not entry.label.lstrip().startswith(tuple(quote_chars)):
            out.append(entry)
            continue
        out.extend(replace(entry, label=segment) for segment in segments)
    return out


def match_labels(
    prices: Sequence[PriceEntry],
    appellations: Sequence[AppellationRecord],
    *,
    threshold_fraction: float = 0.10,
    region_filter: Mapping[str, str] | None = None,
    acronyms: Mapping[str, str] | None = None,
    stopwords: frozenset[str] | set[str] | None = None,
) -> list[LabelMatch]:
    """Match every price label to its minimum-distance appellation.

    Labels are split by :func:`expand_price_entries` and normalized here. A
    label that normalizes to nothing is never accepted; any other match is
    accepted when the distance is at or below ``threshold_fraction`` of the
    longer normalized string and, when ``region_filter`` maps the
    appellation to a region, the price row's region hint does not contradict
    it. Ties on distance break to the lexicographically smallest appellation
    code so results are reproducible.

    The result is that of scoring every pair with :func:`edit_distance`, but
    a target is scored only while its character-count lower bound
    (:func:`_bag_bounds`) could still beat or tie the best so far, and only
    up to that best distance.
    """
    norm_kwargs = {"acronyms": acronyms, "stopwords": stopwords}
    targets = sorted(
        (app.code, normalize_label(app.name, **norm_kwargs)) for app in appellations
    )
    entries = expand_price_entries(prices)
    sources = [normalize_label(e.label, **norm_kwargs) for e in entries]
    names = [name for _, name in targets]
    columns = {ch: c for c, ch in enumerate(sorted(set("".join(names + sources))))}
    # Shaped so that no appellations leaves every label unmatched.
    bags = np.array([_bag(name, columns) for name in names]).reshape(len(names), len(columns))
    matches: list[LabelMatch] = []
    for entry, source in zip(entries, sources):
        bounds = _bag_bounds(_bag(source, columns), bags)
        # Visit targets by (bound, index). Once a bound reaches the best
        # (distance, index) so far, that target and every later one can
        # neither beat it nor tie it at a lower index.
        best_dist, best = float("inf"), -1
        for k in np.argsort(bounds, kind="stable").tolist():
            if (bounds[k], k) > (best_dist, best):
                break
            # Exact up to the best so far; above it, some larger value that loses.
            dist = edit_distance(source, names[k], best_dist)
            if (dist, k) < (best_dist, best):
                best_dist, best = dist, k
        best_code, best_name = targets[best] if best >= 0 else ("", "")
        limit = threshold_fraction * max(len(source), len(best_name))
        accepted = bool(source) and best_dist <= limit
        if accepted and region_filter is not None:
            expected = region_filter.get(best_code)
            if expected is not None and entry.region_hint is not None:
                accepted = expected == entry.region_hint
        matches.append(LabelMatch(entry.label, best_code, best_dist, accepted,
                                  entry.price, entry.production_mode))
    return matches


def _bag(text: str, columns: Mapping[str, int]) -> np.ndarray:
    """Character counts of ``text``, one entry per column."""
    indices = np.array([columns[ch] for ch in text], dtype=np.intp)
    return np.bincount(indices, minlength=len(columns))


def _bag_bounds(source: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Lower bound on ``edit_distance`` from the source to every target, from
    character counts alone (Bartolini, Ciaccia & Patella, SPIRE 2002).

    With ``p`` characters of the source missing from a target and ``q`` of
    the target missing from the source, counted as multisets, an insert,
    delete or substitution lowers ``p`` or ``q`` by at most one each and a
    transposition lowers neither, so at least ``max(p, q)`` edits are needed.
    """
    p = np.maximum(source - targets, 0).sum(axis=1)
    q = np.maximum(targets - source, 0).sum(axis=1)
    return np.maximum(p, q)


def _token(word: str, path: str | Path, number: int, what: str) -> str:
    """``word``, if it is one token of letters and digits: labels are split
    into such tokens before any lookup, so no other entry could ever apply."""
    if not word or _TOKEN_SPLIT.search(word):
        raise ConfigError(f"{Path(path).name}: line {number}: {what} {word!r} is not one "
                          "token of letters and digits, so no label token can equal it")
    return word


def load_wordlist(path: str | Path) -> frozenset[str]:
    """Stopword file: one entry per line, blank lines ignored, each entry one
    token of letters and digits (else a :class:`ConfigError`). Word lists are
    decoded like the input tables (UTF-8, else Latin-1)."""
    lines = enumerate(open_source(path).read().splitlines(), 1)
    return frozenset(_token(strip_accents(line.strip()).upper(), path, number, "stopword")
                     for number, line in lines if line.strip())


def load_acronyms(path: str | Path) -> dict[str, str]:
    """Acronym file: one ``SHORT=Long form`` entry per line; blank lines are
    skipped. A :class:`ConfigError` is any other line without ``=``, an
    acronym that is not one token of letters and digits, one that repeats an
    acronym, or a long form that contains an acronym, since that would make
    :func:`normalize_label` expand the text again on a second pass."""
    name = Path(path).name
    acronyms: dict[str, str] = {}
    numbers: dict[str, int] = {}
    for number, line in enumerate(open_source(path).read().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{name}: line {number} is not SHORT=Long form: {line!r}")
        short, long_form = (strip_accents(part).strip().upper() for part in line.split("=", 1))
        _token(short, path, number, "acronym")
        if short in acronyms:
            raise ConfigError(f"{name}: repeated acronym {short!r} at line {number}")
        acronyms[short] = long_form
        numbers[short] = number
    for short, long_form in acronyms.items():
        for token in filter(None, _TOKEN_SPLIT.split(long_form)):
            if token in acronyms:
                raise ConfigError(f"{name}: line {numbers[short]} expands {short!r} to "
                                  f"{long_form!r}, which contains the acronym {token!r}")
    return acronyms


MATCHES_HEADER = ("label", "code", "distance", "accepted", "price_eur_hl", "production_mode")


def write_match_report(matches: Iterable[LabelMatch], path: str | Path) -> None:
    write_rows(
        path, MATCHES_HEADER,
        ([m.source_label, m.target_code, repr(m.distance), int(m.accepted),
          repr(m.price), m.production_mode.value] for m in matches),
    )


def read_match_report(path: str | Path) -> list[LabelMatch]:
    def row(label: str, code: str, distance: str, accepted: str, price: str,
            mode: str) -> LabelMatch:
        # A label with no appellation to match is at distance inf.
        return LabelMatch(label, code, math.inf if distance == "inf" else finite_float(distance),
                          bool(int(accepted)), finite_float(price), ProductionMode(mode))

    return list(read_rows(path, MATCHES_HEADER, row))
