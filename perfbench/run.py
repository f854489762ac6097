"""vinevalue benchmark: whole-pipeline runs on generated inputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload national --seed 1 --seconds 10 --trace 0

The run sets up the workload's inputs from ``--seed``, then takes samples
for about ``--seconds`` (always at least one whole sample). A
sample is one child process that runs the pipeline ``ingest -> link ->
yields -> solve -> validate -> value`` through the ``vinevalue.cli`` stage
functions, one or more times back to back; samples run one at a time.
Every run's outputs are checked (``checks.py``) and compared byte for byte
with the first run of the same workload, seed and code.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of traced samples (``tracing.py``), and an untraced sample is also taken
when time allows, to measure the tracing overhead. See README.md for the
workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402  (needs no vinevalue import)

#: Scratch space inside the checkout; listed in .gitignore.
WORK_DIR = ROOT / ".bench_work"

#: The full-scale recipe: about 1,100 appellations x 8,300 counties and
#: 131,651 active mask cells. The instance is fixed; the workload seed
#: draws everything around it (names, labels, prices, yields, solver seed).
NATIONAL_SHAPE = (1100, 8300, 0.0096)
#: The same appellations over 900 counties (14,797 cells): linkage cost
#: depends on the appellation count only, and the solve stays small.
LABELS_SHAPE = (1100, 900, 0.0096)
INSTANCE_SEED = 7
COUNTIES_PER_DEPARTMENT = 90

#: Set-up is repeated until this much time is spent (at most
#: SETUP_MAX_REPS times, at least once) and the median is reported.
SETUP_BUDGET_S = 2.0
SETUP_MAX_REPS = 9
#: A run must end within 180 s; stop starting samples that would not fit.
TIME_LIMIT_S = 165.0
MAX_SAMPLES = 50
#: No sample is started that would likely end after this multiple of --seconds.
OVERRUN = 1.5


@dataclass(frozen=True)
class Workload:
    name: str
    runs_per_sample: int
    shape: tuple[int, int, float] | None = None
    n_labels: int = 0
    k_starts: int = 0
    fixture: str | None = None


WORKLOADS = {
    "national": Workload("national", 1, NATIONAL_SHAPE, n_labels=10, k_starts=4),
    "labels": Workload("labels", 1, LABELS_SHAPE, n_labels=80, k_starts=1),
    "alsace": Workload("alsace", 25, fixture="tests/fixtures/alsace"),
}


@dataclass
class Setup:
    config: Path
    overrides: dict
    reference: checks.Problem | None
    times: list[float]
    generate_times: list[float]


@dataclass
class Sample:
    traced: bool
    runs: int
    wall_s: float = 0.0
    run_walls: list[float] = field(default_factory=list)
    startup_s: float | None = None
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    taus: list[float] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    duration_s: float = 0.0


def set_up(wl: Workload, seed: int, work: Path) -> Setup:
    """Prepare the inputs, repeatedly; the last repetition is used."""
    import inputs

    times: list[float] = []
    generate_times: list[float] = []
    spent = 0.0
    while not times or (spent < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPS):
        directory = work / f"inputs_{len(times)}"
        start = time.perf_counter()
        if wl.fixture:
            shutil.copytree(ROOT / wl.fixture, directory)
            config, instance = directory / "pipeline.ini", None
        else:
            instance, generate_s = inputs.generate(wl.shape, INSTANCE_SEED,
                                                   COUNTIES_PER_DEPARTMENT)
            config = inputs.write_inputs(instance, directory, seed=seed,
                                         n_labels=wl.n_labels, k_starts=wl.k_starts)
            generate_times.append(generate_s)
        times.append(time.perf_counter() - start)
        spent += times[-1]
    if wl.fixture:
        return Setup(config, {"solver.seed": str(seed)}, None, times, [0.0])
    return Setup(config, {}, inputs.reference_problem(instance), times, generate_times)


def code_digest() -> str:
    """Digest of the program and benchmark sources, so stored output
    digests are compared only against the same code."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class DigestStore:
    """Output digests of earlier runs with the same workload, seed and code,
    kept across benchmark invocations."""

    def __init__(self, wl: Workload, seed: int):
        self.path = WORK_DIR / "digests" / f"{wl.name}-{seed}-{code_digest()}.sha256"
        self.expected = self.path.read_text().strip() if self.path.exists() else None

    def check(self, digest: str) -> str | None:
        if self.expected is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(digest + "\n")
            self.expected = digest
        if digest != self.expected:
            return f"outputs differ from the first run of this seed ({digest[:12]} != " \
                   f"{self.expected[:12]})"
        return None


def run_sample(index: int, wl: Workload, setup: Setup, traced: bool, work: Path,
               store: DigestStore, spans_path: Path, time_left: float) -> Sample:
    started = time.perf_counter()
    out_root = work / f"sample_{index:02d}"
    spec_path = work / f"sample_{index:02d}.spec.json"
    result_path = work / f"sample_{index:02d}.result.json"
    spec_path.write_text(json.dumps({
        "config": str(setup.config), "out_root": str(out_root), "runs": wl.runs_per_sample,
        "overrides": setup.overrides, "trace": traced, "spans": str(spans_path),
    }), encoding="utf-8")
    sample = Sample(traced=traced, runs=wl.runs_per_sample, failed=wl.runs_per_sample)
    spawned_at = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), str(spec_path), str(result_path)],
            stdout=sys.stderr, timeout=time_left, check=False,
        )
    except subprocess.TimeoutExpired:
        sample.failures.append(f"sample timed out after {time_left:.0f} s")
        return sample
    if proc.returncode != 0:
        sample.failures.append(f"sample process exited with {proc.returncode}")
        return sample
    result = json.loads(result_path.read_text(encoding="utf-8"))
    sample.run_walls = [run["wall_s"] for run in result["runs"]]
    sample.wall_s = sum(sample.run_walls)
    sample.startup_s = result["ready_at"] - spawned_at
    sample.cpu_s = result["cpu_s"]
    sample.peak_rss_mb = result["peak_rss_mb"]
    sample.layers = result.get("layers", {})
    sample.failed = 0
    for run in result["runs"]:
        out = Path(run["out"])
        if run["error"]:
            failures = [run["error"]]
        else:
            failures, tau = checks.check_run(out, setup.reference)
            mismatch = store.check(checks.directory_digest(out))
            failures += [mismatch] if mismatch else []
            if tau is not None:
                sample.taus.append(tau)
        sample.failed += bool(failures)
        sample.failures += [f"{out.name}: {message}" for message in failures]
    shutil.rmtree(out_root, ignore_errors=True)
    sample.duration_s = time.perf_counter() - started
    return sample


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core as highs
        highs_version = (f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}."
                         f"{highs.HIGHS_VERSION_PATCH}")
    except (ImportError, AttributeError):
        highs_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs_version,
        "git_sha": git_sha(),
        "source_digest": code_digest(),
        "seed": seed,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read without running git; None outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _run_s(samples: list[Sample]) -> float | None:
    """Wall time per pipeline run: the summed time of the samples' runs
    divided by their number. The VM's CPU speed flips between a fast and a
    slow state every few seconds, so the times of the short ``alsace`` runs
    are bimodal; their median jumps between the two modes from one
    invocation to the next, while the mean follows the mix of the two."""
    walls = [w for s in samples for w in s.run_walls]
    return math.fsum(walls) / len(walls) if walls else None


def end_to_end(setup: Setup, samples: list[Sample]) -> dict:
    timed = [s for s in samples if not s.traced and s.wall_s > 0]
    startup = _median(s.startup_s for s in samples)
    return {
        "setup_s": (statistics.median(setup.times) + (startup or 0.0), "s"),
        "run_s": (_run_s(timed), "s"),
        "peak_rss_mb": (_median(s.peak_rss_mb for s in timed), "MB"),
    }


def per_layer(setup: Setup, samples: list[Sample], attempted: int, failed: int) -> dict:
    traced = [s for s in samples if s.traced and s.layers]
    untraced = [s for s in samples if not s.traced and s.wall_s > 0]
    traced_run = _run_s(traced)
    untraced_run = _run_s(untraced)
    out = {
        "cli.run_s": (traced_run, "s"),
        "cli.trace_overhead_s": (
            None if traced_run is None or untraced_run is None else traced_run - untraced_run,
            "s"),
        "cli.cpu_s": (_median(s.cpu_s / s.runs for s in traced), "s"),
        "cli.samples": (len(traced), "count"),
        "fail_share": (failed / attempted, "ratio"),
        "synth.generate_s": (statistics.median(setup.generate_times), "s"),
    }
    names = traced[0].layers if traced else {}
    for name in names:
        unit = traced[0].layers[name][1]
        out[name] = (_median(s.layers[name][0] for s in traced), unit)
    return out


def measure(wl: Workload, seed: int, seconds: float, trace: bool, work: Path,
            started: float) -> int:
    setup = set_up(wl, seed, work)
    store = DigestStore(wl, seed)
    spans_path = WORK_DIR / "spans" / f"{wl.name}-{seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)

    samples: list[Sample] = []
    measure_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        traced = trace and len(samples) % 2 == 0
        if samples:
            kinds = {s.traced for s in samples}
            elapsed = now - measure_start
            next_s = max(s.duration_s for s in samples) * 1.25
            # A run lasts about --seconds whatever the length of its samples.
            done = (elapsed >= seconds or elapsed + next_s > OVERRUN * seconds) and \
                (not trace or len(kinds) == 2)
            if done or len(samples) >= MAX_SAMPLES or \
                    now - started + next_s > TIME_LIMIT_S or samples[-1].wall_s == 0:
                break
        time_left = TIME_LIMIT_S - (now - started)
        samples.append(run_sample(len(samples), wl, setup, traced, work, store,
                                  spans_path, time_left))

    attempted = sum(s.runs for s in samples)
    failed = sum(s.failed for s in samples)
    failures = [f for s in samples for f in s.failures]
    metrics = per_layer(setup, samples, attempted, failed) if trace else \
        end_to_end(setup, samples)

    print(json.dumps({"machine": machine_facts(seed)}))
    for s in samples:
        print(f"sample traced={int(s.traced)} run_s={s.wall_s / s.runs:.4f} "
              f"startup_s={s.startup_s or 0:.3f} "
              f"rss_mb={s.peak_rss_mb:.1f} duration_s={s.duration_s:.2f}", file=sys.stderr)
    print(f"setup_s each: {' '.join(f'{t:.4g}' for t in setup.times)}", file=sys.stderr)
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    taus = [t for s in samples for t in s.taus]
    print(f"workload {wl.name}: {len(samples)} sample(s), {attempted} run(s), {failed} failed"
          + (f", aggregate tau {statistics.median(taus):.4f}" if taus else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    needed = [ROOT / "src" / "vinevalue"] + ([ROOT / wl.fixture] if wl.fixture else [])
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print(f"perfbench: {', '.join(absent)} not found; run from the root of a "
              "vinevalue checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    work = WORK_DIR / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(wl, args.seed, args.seconds, bool(args.trace), work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
