#!/usr/bin/env python3
"""Benchmark of gamma3lab: end-to-end metrics, or per-layer metrics traced.

Usage (from the repository root):

    python3 bench/run.py --workload certify|oracle|search --seed N \
        --seconds S --trace 0|1 [--fast]

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs a third of the time untraced, then the rest with
the cross-layer wrappers of :mod:`bench.tracer` installed, and reports
the per-layer metrics.  Either way it first runs one untimed warm-up
round, then whole rounds until the operations have taken ``--seconds``;
each stretch runs at least one round.  ``--fast`` runs a single round on tiny inputs
(the self-test's mode).  Every operation's output is checked; an
operation fails if its check fails or the program raises, and any
failure makes ``correct`` false.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
record of the run goes to ``.bench_out/`` at the repository root, a
summary to stderr.

Operation times are scaled to a reference machine speed.  A shared
host's speed drifts by up to 1.7x over seconds to minutes, so a fixed
calibration kernel (benchmark code, never program code) that resembles
the workload's hot loop is timed between operations, at least every
``CAL_EVERY_S`` of operation time and for ``CAL_SHARE`` of the operation
time since the last calibration, and each operation's wall time is
multiplied by the kernel's nominal time over the mean of the two
calibrations that bracket it.  ``setup_s`` is scaled likewise, by the
time a fresh interpreter takes to import a fixed set of standard-library
modules, timed next to each program import.  The raw times are kept in
the run record.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: Pairs of fresh-interpreter imports timed for setup_s, spread over the run.
SETUP_SAMPLES = 15
_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import gamma3lab; print(time.perf_counter() - t)"
)
#: Standard-library modules that ``import gamma3lab`` does not load.  The
#: time a fresh interpreter takes to import them is the reference that
#: setup_s is scaled by, as the calibration kernels scale op_ms.
_REFERENCE_TIMER = (
    "import time; t = time.perf_counter(); "
    "import asyncio, calendar, concurrent.futures, csv, decimal, difflib, "
    "email.mime.multipart, http.server, logging, multiprocessing, sqlite3, "
    "tarfile, unittest, urllib.request, uuid, xml.dom.minidom, xml.etree.ElementTree; "
    "print(time.perf_counter() - t)"
)
#: The reference imports' time at the reference speed.
REFERENCE_IMPORT_S = 0.1
#: Longest operation time between two calibrations.
CAL_EVERY_S = 0.02
#: Fewest kernel calls per calibration; their median is the calibration time.
CAL_REPS = 3
#: Time spent on a calibration, as a share of the operation time since the
#: last one: a seconds-long search is bracketed by a long window, not a spot.
CAL_SHARE = 0.1
#: Time spent on the calibration before a run's first operation.
CAL_FIRST_S = 0.05
#: Values kept per timing sample before it is thinned to every other one.
SAMPLE_CAP = 1 << 15


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> None:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    cap = nproc()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cap:
            os.environ[var] = str(cap)


def _time_child(code: str, *args: str) -> float:
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout)


def time_import() -> tuple[float, float]:
    """Seconds to ``import gamma3lab`` (numpy included) in a fresh
    interpreter, then to import the reference modules in another."""
    return _time_child(_IMPORT_TIMER, str(SRC)), _time_child(_REFERENCE_TIMER)


def _python_kernel() -> None:
    """Six Cauchy products of length-12 complex lists, like the series layer."""
    a = [complex(0.1 * k, -0.05 * k) for k in range(12)]
    s = 0j
    for _ in range(6):
        for k in range(12):
            for i in range(k + 1):
                s += a[i] * a[k - i]


@dataclass(frozen=True)
class _Product:
    zeros: tuple
    rotation: complex

    def __post_init__(self) -> None:
        if not all(abs(z) < 1.0 for z in self.zeros):
            raise ValueError("zero outside the disk")


def _sampling_kernel() -> None:
    """Eight seeded random products expanded to order 3, like one search
    evaluation each: a fresh generator, a frozen record, short Cauchy
    products of complex tuples."""
    for seed in range(8):
        rng = random.Random(seed * 0x9E3779B97F4A7C15 % (1 << 63))
        zeros = tuple(cmath.rect(math.sqrt(rng.random()), 2 * math.pi * rng.random()) for _ in range(3))
        b = _Product(zeros, cmath.exp(2j * math.pi * rng.random()))
        tail = (1 + 0j, 0j, 0j)
        for a in b.zeros:
            factor = (-a, 1 - abs(a) ** 2, (1 - abs(a) ** 2) * a.conjugate())
            tail = tuple(sum(tail[i] * factor[k - i] for i in range(k + 1)) for k in range(3))
        w = tuple(b.rotation * c for c in tail)
        abs(w[0] + 2 * w[1] + w[2] * w[0] + w[0] ** 3)


class Calibrator:
    """Times a fixed kernel (benchmark code) whose speed tracks a workload's.

    ``nominal`` is the kernel's time at the reference speed, about this
    machine's when unloaded; an operation's scaled time is its wall time
    times ``nominal`` over the measured kernel time.
    """

    def __init__(self, kind: str) -> None:
        if kind == "grid":
            import numpy as np

            def kernel() -> None:
                # the dense grid's sweep on a coarser lattice over E, with
                # fresh arrays, then pure Python at about certify's share
                xs = np.arange(0.0, 1.0005, 0.002)
                xg, yg = np.meshgrid(xs, xs, indexing="ij")
                inside = yg <= 1.0 - xg * xg
                x, y = xg[inside], yg[inside]
                np.max(3 + 2 * x + 4 * y + 12 * (1 - x * x - y * y / (1 + x)) + 8 * x * y + 4 * x ** 3)
                for _ in range(16):
                    _python_kernel()

            self.kernel, self.nominal = kernel, 5e-3
        elif kind == "sampling":
            self.kernel, self.nominal = _sampling_kernel, 150e-6
        else:
            self.kernel, self.nominal = _python_kernel, 50e-6

    def __call__(self, window: float) -> float:
        """Median kernel time over at least ``window`` seconds of calls."""
        times = []
        end = perf_counter() + window
        while len(times) < CAL_REPS or perf_counter() < end:
            start = perf_counter()
            self.kernel()
            times.append(perf_counter() - start)
        return statistics.median(times)


class Sample:
    """Every ``stride``-th value added; the stride doubles whenever the cap is hit.

    The buffer is filled in full up front and thinned in place, so that
    peak_rss_mb does not depend on how many operations a run completes:
    a growing array, copied on each thinning, moved the peak by 0.7 MB
    between runs of ``oracle`` that thinned once and twice.
    """

    def __init__(self) -> None:
        self.buffer = array("d", [0.0]) * SAMPLE_CAP
        self.n = 0
        self.stride = 1
        self.seen = 0

    def add(self, value: float) -> None:
        if self.seen % self.stride == 0:
            self.buffer[self.n] = value
            self.n += 1
            if self.n == SAMPLE_CAP:
                for i in range(SAMPLE_CAP // 2):
                    self.buffer[i] = self.buffer[2 * i]
                self.n = SAMPLE_CAP // 2
                self.stride *= 2
        self.seen += 1

    @property
    def values(self) -> array:
        return self.buffer[: self.n]


class Tally:
    """Operations attempted and failed; times and ratios of the measured ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.measured = 0
        self.scaled_sum = 0.0
        self.ratio_sum = 0.0
        self.wall = Sample()     # raw seconds per operation
        self.scaled = Sample()   # seconds at the reference speed

    def fail(self, op: int, messages: list[str]) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.extend(f"op {op}: {m}" for m in messages)

    def add(self, wall: float, scaled: float, ratio: float) -> None:
        self.measured += 1
        self.scaled_sum += scaled
        self.ratio_sum += ratio
        self.wall.add(wall)
        self.scaled.add(scaled)


class SetupTimer:
    """``SETUP_SAMPLES`` pairs of imports, due at even marks over a stretch."""

    def __init__(self, seconds: float) -> None:
        self.start = perf_counter()
        self.marks = [seconds * i / SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
        self.times: list[tuple[float, float]] = []

    def poll(self) -> None:
        """Take every sample whose mark has passed."""
        while len(self.times) < SETUP_SAMPLES and perf_counter() - self.start >= self.marks[len(self.times)]:
            self.times.append(time_import())

    def finish(self) -> list[tuple[float, float]]:
        while len(self.times) < SETUP_SAMPLES:
            self.times.append(time_import())
        return self.times


def run_rounds(workload, tally: Tally, seconds: float, calibrate: Calibrator,
               tracer=None, timed: bool = True, between=None) -> None:
    """Run whole rounds of operations until they have taken ``seconds``.

    Only operation time counts, not the calibrations and imports between
    operations, so that what those cost takes no time from the operations.
    With ``timed`` false, run the workload's warm-up round once instead.
    Operations are scaled by the mean of the two calibrations that
    bracket them in time.  ``between`` is called after every operation.
    """
    spent = 0.0
    cal = calibrate(CAL_FIRST_S)
    pending: list[tuple[float, float]] = []  # (wall seconds, ratio) since ``cal``
    since_cal = 0.0
    while True:
        for spec in workload.round() if timed else workload.warm_up():
            op = tally.attempted
            tally.attempted += 1
            if tracer is not None:
                tracer.begin_op(op)
            bad = None
            start = perf_counter()
            try:
                output = workload.execute(spec)
            except Exception:  # a program error, its own invariant checks included
                bad = [traceback.format_exc(limit=3)]
            finally:
                elapsed = perf_counter() - start
                if tracer is not None:
                    tracer.end_op()
            if bad is None:
                try:
                    bad, ratio = workload.check(spec, output)
                except Exception:  # malformed output counts as a wrong answer
                    bad = [traceback.format_exc(limit=3)]
            if bad:
                tally.fail(op, bad)
            elif timed:
                pending.append((elapsed, ratio))
            since_cal += elapsed
            spent += elapsed
            if since_cal >= CAL_EVERY_S:
                cal = _flush(tally, pending, calibrate, cal, since_cal)
                since_cal = 0.0
            if between is not None:
                between()
        if not timed or spent >= seconds:
            _flush(tally, pending, calibrate, cal, since_cal)
            return


def _flush(tally: Tally, pending: list, calibrate: Calibrator, before: float, since: float) -> float:
    after = calibrate(CAL_SHARE * since)
    scale = calibrate.nominal / (0.5 * (before + after))
    for elapsed, ratio in pending:
        tally.add(elapsed, elapsed * scale, ratio)
    pending.clear()
    return after


def timing(sample: Sample) -> dict:
    """Median, and the highest of p90/p99/p99.9 with ten samples beyond it, in ms."""
    values = sample.values
    n = len(values)
    out = {"samples": n, "of": sample.seen, "p50_ms": 1e3 * statistics.median(values) if n else None}
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            out[f"p{p:g}_ms"] = 1e3 * statistics.quantiles(values, n=1000)[round(p * 10) - 1]
            break
    return out


def commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(workload, seconds: float) -> tuple[Tally, dict, dict]:
    """Measured rounds, with fresh-interpreter imports between operations
    at even marks over ``seconds``, so set-up is sampled across the run."""
    calibrate = Calibrator(workload.KERNEL)
    time_import()  # compiles the bytecode caches once, untimed
    tally = Tally()
    run_rounds(workload, tally, 0.0, calibrate, timed=False)
    timer = SetupTimer(seconds)
    timer.poll()
    run_rounds(workload, tally, seconds, calibrate, between=timer.poll)
    peak = peak_rss_mb()  # before the metrics below copy the samples
    setup = timer.finish()
    if not tally.measured:
        return tally, {}, {}
    program, reference = zip(*setup)
    metrics = {
        "setup_s": (statistics.median(program) * REFERENCE_IMPORT_S / statistics.median(reference), "s"),
        "op_ms": (1e3 * statistics.median(tally.scaled.values), "ms"),
        "ops_per_s": (tally.measured / tally.scaled_sum, "1/s"),
        "bracket_ratio": (tally.ratio_sum / tally.measured, "1"),
        "peak_rss_mb": (peak, "MB"),
    }
    extra = {"scaled": timing(tally.scaled), "wall": timing(tally.wall),
             "import_s": program, "reference_import_s": reference}
    return tally, metrics, extra


def per_layer(workload, seconds: float, spans_path: Path) -> tuple[Tally, dict, dict]:
    """A third of the time untraced, then the rest traced; per-layer metrics."""
    import importlib

    from bench import tracer, workloads

    importers = [importlib.import_module(f"gamma3lab.{name}") for name in tracer.LAYERS]
    importers.append(workloads)
    calibrate = Calibrator(workload.KERNEL)
    tally = Tally()
    run_rounds(workload, tally, 0.0, calibrate, timed=False)
    run_rounds(workload, tally, seconds / 3, calibrate)
    untraced, tally.scaled = tally.scaled, Sample()
    t = tracer.Tracer()
    with tracer.traced(t, importers):
        run_rounds(workload, tally, 2 * seconds / 3, calibrate, tracer=t)
    with open(spans_path, "w") as f:
        for span in t.kept:
            f.write(json.dumps(span) + "\n")
    extra = {
        "traced_ops": t.ops,
        "untraced": timing(untraced),
        "traced": timing(tally.scaled),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return tally, tracer.layer_metrics(t), extra


def main(argv: list[str] | None = None) -> int:
    from bench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true", help="one round on tiny inputs")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if args.fast:
        args.seconds = 0.0

    workload = WORKLOADS[args.workload](args.seed, fast=args.fast)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tally, metrics, extra = per_layer(workload, args.seconds, OUT / f"spans-{stem}.jsonl")
    else:
        tally, metrics, extra = end_to_end(workload, args.seconds)
    for message in tally.failures:
        print(f"FAILED {message}", file=sys.stderr)
    if not tally.measured:
        print("error: no operation completed", file=sys.stderr)
        return 1

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fast": args.fast,
        **result,
        "failures": tally.failures,
        **extra,
        "environment": environment(),
    }
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>8} {name:<28} {value:>14.6g} {unit}", file=sys.stderr)
    if args.trace:
        print(f"{args.workload:>8} tracing overhead: median op {extra['untraced']['p50_ms']:.4g} ms "
              f"untraced, {extra['traced']['p50_ms']:.4g} ms traced (reference speed)", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "gamma3lab" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'gamma3lab'}; run from a full checkout")
    pin_threads()
    sys.path[:0] = [str(SRC), str(ROOT)]
    import gamma3lab

    if Path(gamma3lab.__file__).resolve().parent != SRC / "gamma3lab":
        sys.exit(f"error: imported gamma3lab from {gamma3lab.__file__}, not from {SRC}")
    sys.exit(main())
