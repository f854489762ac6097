"""Spans around the program's public functions, recorded from outside.

:func:`install` replaces module attributes of the ``vinevalue`` package with
wrappers that record a span (name, start, end, parent) per call, plus a few
counts taken from results. Call sites inside the package look
the functions up as module globals, so they go through the wrappers too.
Spans stay in memory; :func:`layer_metrics` turns them into per-module
numbers. A function that no longer exists is listed in ``Tracer.missing``
and the metrics that depend on it are reported as missing.
"""
from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    missing: set[str] = field(default_factory=set)

    def span(self, name: str, fn, *args, **kwargs):
        span = Span(len(self.spans), name, self.stack[-1] if self.stack else None,
                    time.perf_counter())
        self.spans.append(span)
        self.stack.append(span.id)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
        span.attrs = _attributes(name, result)
        return result

    def wrap(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(name)
            return

        def wrapper(*args, **kwargs):
            return self.span(name, original, *args, **kwargs)

        setattr(module, attr, wrapper)

    def count(self, module, attr: str, name: str) -> None:
        """Count calls without a span, for functions called per pair."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(name)
            return
        self.counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        setattr(module, attr, wrapper)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, "attrs": s.attrs}) + "\n")


#: Functions wrapped with a span named ``<module>.<attribute>``, by module.
WRAPPED = {
    "ingest": ("parse_customs_by_appellation", "parse_customs_by_county",
               "parse_inao_authorizations", "parse_price_scale",
               "write_appellations", "write_counties", "write_mask", "write_prices",
               "write_reports_jsonl",
               "read_appellations", "read_counties", "read_mask", "read_prices"),
    "linkage": ("match_labels",),
    "yields": ("expected_yield_table",),
    "allocator": ("build_problem", "optimal_value", "solve", "multi_start_average",
                  "assert_feasible", "write_solution", "dump_problem",
                  "read_solution", "load_problem", "linprog"),
    "validate": ("compare_solutions", "compare_aggregates"),
    "valuation": ("build_portfolio", "summarize_by_category", "summarize_by_region",
                  "write_portfolio", "write_category_summary", "write_region_summary"),
}
#: Functions whose calls are only counted, by module.
COUNTED = {"linkage": ("edit_distance",)}


def install() -> Tracer:
    import importlib

    tracer = Tracer()
    for module_name, attrs in WRAPPED.items():
        module = importlib.import_module(f"vinevalue.{module_name}")
        for attr in attrs:
            tracer.wrap(module, attr, f"{module_name}.{attr}")
    for module_name, attrs in COUNTED.items():
        module = importlib.import_module(f"vinevalue.{module_name}")
        for attr in attrs:
            tracer.count(module, attr, f"{module_name}.{attr}")
    return tracer


def _attributes(name: str, result) -> dict:
    """Counts read from a call's result. A result whose shape changed yields
    no attributes rather than an error."""
    try:
        if name.startswith("ingest.parse_"):
            report = result[1]
            return {"rows_read": report.rows_read, "row_errors": len(report.row_errors)}
        if name == "linkage.match_labels":
            return {"labels": len(result), "accepted": sum(1 for m in result if m.accepted)}
        if name == "yields.expected_yield_table":
            return {"fallbacks": sum(1 for ey in result.values()
                                     if ey.provenance.value != "APPELLATION_OLYMPIC")}
        if name == "allocator.build_problem":
            return {"n_cells": result.n_cells}
        if name == "allocator.linprog":
            return {"nit": int(result.nit)}
        if name == "allocator.multi_start_average":
            return {"starts": len(result.solutions) + len(result.failures),
                    "failed": len(result.failures),
                    "support": [len(s.cells) for s in result.solutions]}
        if name == "validate.compare_solutions":
            return {"tau_pairs": int(result.notes.get("tau_pairs", 0)),
                    "union_cells": result.pair_count}
        if name == "valuation.build_portfolio":
            return {"records": result[1].records, "price_fallbacks": result[1].price_fallbacks}
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return {"unreadable": True}
    return {}


#: The pipeline stages, in order; ``cli.stage_<name>`` runs each.
STAGES = ("ingest", "link", "yields", "solve", "validate", "value")


def layer_metrics(spans: list[Span], counts: dict[str, int], missing: set[str],
                  runs: int) -> dict[str, tuple[float | None, str]]:
    """Per-run values of every per-layer metric, from the spans of ``runs``
    pipeline runs. A metric whose spans cannot exist is None."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    by_id = {s.id: s for s in spans}

    def total(*names: str) -> float | None:
        if any(n in missing for n in names):
            return None
        return sum(s.end - s.start for n in names for s in by_name.get(n, ())) / runs

    def attr_sum(name: str, key: str) -> float | None:
        if name in missing:
            return None
        values = [s.attrs[key] for s in by_name.get(name, ()) if key in s.attrs]
        return sum(values) / runs

    def under(span: Span, ancestor: str) -> bool:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == ancestor:
                return True
        return False

    def ratio(num, den):
        return None if num is None or not den else num / den

    out: dict[str, tuple[float | None, str]] = {}
    for stage in STAGES:
        out[f"cli.{stage}_s"] = (total(f"cli.stage_{stage}"), "s")

    out["ingest.parse_s"] = (total("ingest.parse_customs_by_appellation",
                                   "ingest.parse_customs_by_county",
                                   "ingest.parse_inao_authorizations",
                                   "ingest.parse_price_scale"), "s")
    out["ingest.write_s"] = (total("ingest.write_appellations", "ingest.write_counties",
                                   "ingest.write_mask", "ingest.write_prices",
                                   "ingest.write_reports_jsonl"), "s")
    out["ingest.read_s"] = (total("ingest.read_appellations", "ingest.read_counties",
                                  "ingest.read_mask", "ingest.read_prices"), "s")
    parses = [n for n in by_name if n.startswith("ingest.parse_")]
    out["ingest.rows_read"] = (sum(attr_sum(n, "rows_read") or 0 for n in parses), "count")
    out["ingest.row_errors"] = (sum(attr_sum(n, "row_errors") or 0 for n in parses), "count")

    match_s = total("linkage.match_labels")
    labels = attr_sum("linkage.match_labels", "labels")
    accepted = attr_sum("linkage.match_labels", "accepted")
    pairs = None if "linkage.edit_distance" in missing else \
        counts.get("linkage.edit_distance", 0) / runs
    out["linkage.match_s"] = (match_s, "s")
    out["linkage.labels"] = (labels, "count")
    out["linkage.pairs"] = (pairs, "count")
    us = ratio(match_s, pairs)
    out["linkage.us_per_pair"] = (None if us is None else us * 1e6, "us")
    out["linkage.accepted_ratio"] = (ratio(accepted, labels), "ratio")

    out["yields.table_s"] = (total("yields.expected_yield_table"), "s")
    out["yields.fallbacks"] = (attr_sum("yields.expected_yield_table", "fallbacks"), "count")

    lp = by_name.get("allocator.linprog", ())
    lp_missing = "allocator.linprog" in missing
    phase1_nit = sum(s.attrs.get("nit", 0) for s in lp if under(s, "allocator.optimal_value"))
    phase2_nit = sum(s.attrs.get("nit", 0) for s in lp if under(s, "allocator.solve"))
    starts = attr_sum("allocator.multi_start_average", "starts")
    phase2_s = total("allocator.solve")
    out["allocator.build_s"] = (total("allocator.build_problem"), "s")
    out["allocator.phase1_s"] = (total("allocator.optimal_value"), "s")
    out["allocator.phase1_nit"] = (None if lp_missing else phase1_nit / runs, "count")
    out["allocator.phase2_s"] = (phase2_s, "s")
    out["allocator.phase2_s_per_start"] = (ratio(phase2_s, starts), "s")
    out["allocator.phase2_nit"] = (None if lp_missing else ratio(phase2_nit / runs, starts),
                                   "count")
    averages = by_name.get("allocator.multi_start_average", ())
    self_time = 0.0
    for avg in averages:
        children = [s for s in spans if s.parent == avg.id]
        self_time += (avg.end - avg.start) - sum(s.end - s.start for s in children)
    out["allocator.average_self_s"] = (
        None if "allocator.multi_start_average" in missing else self_time / runs, "s")
    out["allocator.feasibility_s"] = (total("allocator.assert_feasible"), "s")
    out["allocator.write_s"] = (total("allocator.write_solution", "allocator.dump_problem"), "s")
    out["allocator.read_s"] = (total("allocator.read_solution", "allocator.load_problem"), "s")
    out["allocator.n_cells"] = (attr_sum("allocator.build_problem", "n_cells"), "count")
    out["allocator.starts"] = (starts, "count")
    out["allocator.starts_failed"] = (attr_sum("allocator.multi_start_average", "failed"),
                                      "count")
    support = [n for s in averages for n in s.attrs.get("support", ())]
    out["allocator.support_cells_mean"] = (
        statistics.fmean(support) if support else None, "count")

    out["validate.compare_solutions_s"] = (total("validate.compare_solutions"), "s")
    out["validate.compare_solutions_calls"] = (
        None if "validate.compare_solutions" in missing
        else len(by_name.get("validate.compare_solutions", ())) / runs, "count")
    out["validate.tau_pairs"] = (attr_sum("validate.compare_solutions", "tau_pairs"), "count")
    union = [s.attrs["union_cells"] for s in by_name.get("validate.compare_solutions", ())
             if "union_cells" in s.attrs]
    out["validate.union_cells"] = (max(union) if union else 0, "count")
    out["validate.compare_aggregates_s"] = (total("validate.compare_aggregates"), "s")

    out["valuation.portfolio_s"] = (total("valuation.build_portfolio"), "s")
    out["valuation.summaries_s"] = (total("valuation.summarize_by_category",
                                          "valuation.summarize_by_region"), "s")
    out["valuation.write_s"] = (total("valuation.write_portfolio",
                                      "valuation.write_category_summary",
                                      "valuation.write_region_summary"), "s")
    out["valuation.records"] = (attr_sum("valuation.build_portfolio", "records"), "count")
    out["valuation.price_fallbacks"] = (attr_sum("valuation.build_portfolio",
                                                 "price_fallbacks"), "count")
    return out
