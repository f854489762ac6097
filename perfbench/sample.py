"""One sample: a child process that runs the whole pipeline ``runs`` times.

Usage: ``python3 perfbench/sample.py SPEC.json RESULT.json``

The spec names the configuration, the output root, the number of
back-to-back runs, configuration overrides and whether to trace. Each run
calls the public ``vinevalue.cli`` stage functions in order into its own
output directory. The result holds each run's wall time and error, the
process's CPU time and peak RSS, the time its imports were done and, when
traced, the per-layer metrics. Imports happen before timing starts.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from vinevalue import cli  # noqa: E402
from vinevalue.config import load_config  # noqa: E402

import tracing  # noqa: E402

#: Wall-clock time at which the imports are done; the parent subtracts the
#: time it started this process to get the program's start-up time.
READY_AT = time.time()

STAGES = tuple((name, getattr(cli, f"stage_{name}")) for name in tracing.STAGES)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_once(config: Path, out: Path, overrides: dict, tracer) -> tuple[float, str | None]:
    start = time.perf_counter()
    try:
        cfg = load_config(config, overrides={**overrides, "output.directory": str(out)})
        cfg.validate()
        for name, stage in STAGES:
            if tracer is None:
                stage(cfg)
            else:
                tracer.span(f"cli.stage_{name}", stage, cfg)
    except Exception:  # a failed run is counted, and the sample goes on
        return time.perf_counter() - start, traceback.format_exc()
    return time.perf_counter() - start, None


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    config = Path(spec["config"])
    out_root = Path(spec["out_root"])
    tracer = tracing.install() if spec["trace"] else None

    cpu_before = _cpu_seconds()
    runs = []
    for j in range(spec["runs"]):
        out = out_root / f"run_{j:03d}"
        wall, error = run_once(config, out, spec.get("overrides", {}), tracer)
        runs.append({"out": str(out), "wall_s": wall, "error": error})
    cpu = _cpu_seconds() - cpu_before

    result = {
        "runs": runs,
        "ready_at": READY_AT,
        "cpu_s": cpu,
        # Work handed to child processes counts: the peak is the larger of
        # this process and its largest child.
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss
                           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0,
    }
    if tracer is not None:
        tracer.write(Path(spec["spans"]))
        result["layers"] = tracing.layer_metrics(
            tracer.spans, tracer.counts, tracer.missing, len(runs))
        result["missing"] = sorted(tracer.missing)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
