"""Self-test of the benchmark: fast runs end to end, and checks that bite.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from gamma3lab import cli, families, schwarz, search  # noqa: E402

from bench import checks, tracer, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def _stdout_of(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- fast mode: every workload, traced and untraced, to its end ------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_fast_mode_runs_to_its_end(workload, trace):
    out = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--fast")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "certify":
        assert values["series.calls"] == 0 and values["schwarz.triple_calls"] == 0
        assert values["optimize.bound_calls"] == 3
    elif workload == "oracle":
        assert values["optimize.bound_calls"] == 0 and values["schwarz.triple_calls"] == 1
    else:
        assert values["search.bound_calls"] == 1
        assert values["search.global_evals"] == 0.7 * workloads.FAST_BUDGET
        assert 0 < values["search.refine_evals"] <= 0.3 * workloads.FAST_BUDGET
        assert values["series.calls"] > 2 * workloads.FAST_BUDGET  # multiply and from_polynomial


def test_sample_keeps_every_stride_th_value(monkeypatch):
    from bench import run

    monkeypatch.setattr(run, "SAMPLE_CAP", 8)
    sample = run.Sample()
    for v in range(40):
        sample.add(float(v))
    assert sample.seen == 40 and sample.stride == 8
    assert list(sample.values) == [float(v) for v in range(0, 40, 8)]


class _Raising(workloads.Oracle):
    """Oracle whose program call raises on one product of every round."""

    def execute(self, product):
        if len(product[0]) == 2:
            raise ValueError("search value exceeds the proved bound")
        return super().execute(product)


def test_a_raising_operation_makes_the_run_incorrect(monkeypatch, capsys):
    from bench import run

    monkeypatch.setitem(workloads.WORKLOADS, "oracle", _Raising)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    assert run.main(["--workload", "oracle", "--seed", "3", "--fast"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 2 and result["attempted"] == 12


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


# -- the independent expectations -----------------------------------------

def test_own_objective_is_exact_at_the_critical_points():
    quarter, y = Fraction(1, 4), Fraction(5, 16)
    assert checks.objective("F1", quarter, y) == Fraction(63, 4)
    assert checks.objective("F3", quarter, y) == Fraction(71, 4)
    for tag, ((x0, y0), vmax, _) in checks.EXACT.items():
        assert math.isclose(checks.objective(tag, x0, y0), vmax, abs_tol=1e-13)
        h = 1e-6
        dx = checks.objective(tag, x0 + h, y0) - checks.objective(tag, x0 - h, y0)
        dy = checks.objective(tag, x0, y0 + h) - checks.objective(tag, x0, y0 - h)
        assert abs(dx) / (2 * h) < 1e-7 and abs(dy) / (2 * h) < 1e-7


# -- each check rejects a perturbed value ----------------------------------

def _bound_json(tag: str) -> dict:
    code, text = _stdout_of(["bound", tag.lower(), "--format", "json"])
    assert code == 0
    return json.loads(text)


@pytest.mark.parametrize("tag", ["F1", "F2", "F3"])
def test_certify_check_accepts_the_program_and_rejects_perturbations(tag):
    report = _bound_json(tag)
    assert checks.check_bound_report(tag, json.dumps(report)) == []
    for key, path in [("gamma3_bound", ()), ("global_max", ()), ("x", ("interior_points", 0)),
                      ("value", ("interior_points", 0))]:
        bad = json.loads(json.dumps(report))
        node = bad
        for step in path:
            node = node[step]
        node[key] += 1e-6
        assert checks.check_bound_report(tag, json.dumps(bad)), key
    bad = dict(report, grid_max=report["global_max"] + 1e-6)
    assert checks.check_bound_report(tag, json.dumps(bad))


def test_stdout_check_rejects_one_changed_byte():
    _, text = _stdout_of(["bound", "f2", "--format", "json"])
    assert checks.check_same_stdout(text, text) == []
    i = text.index("3.10518")
    changed = text[:i] + "4" + text[i + 1:]
    assert checks.check_same_stdout(text, changed) == [f"stdout differs from the first round at byte {i}"]


def test_oracle_checks_reject_perturbations():
    assert checks.check_oracle("F1", 0.3 + 0.1j, 0.3 + 0.1j) == []
    assert checks.check_oracle("F1", 0.3 + 0.1j, 0.3 + 0.1j + 1e-6)
    assert checks.check_oracle("F1", checks.PAPER_BOUND["F1"] + 1e-6, checks.PAPER_BOUND["F1"] + 1e-6)
    assert checks.check_slacks((0.0, 0.5, 1.0)) == []
    assert checks.check_slacks((0.0, 0.5, -1e-6))


@pytest.mark.parametrize("real_only", [False, True])
def test_search_check_accepts_the_program_and_rejects_perturbations(real_only):
    family = families.F2
    result = search.search_lower_bound(family, 300, 7, real_only)
    zeros, rotation = result.witness.zeros, result.witness.rotation

    def replay(zs, rot):
        return abs(workloads.series_gamma3(family, zs, rot))

    def verdict(best=result.best_value, upper=result.upper_bound, zs=zeros):
        return checks.check_search("F2", real_only, best, upper, zs, rotation, replay)

    assert verdict() == []
    assert verdict(upper=result.upper_bound + 1e-6)
    assert verdict(best=checks.PAPER_BOUND["F2"] + 1e-6)
    moved = (zeros[0] + 1e-6,) + zeros[1:]
    assert verdict(zs=moved)
    assert verdict(zs=(1.0 + 0j,) + zeros[1:])
    if real_only:
        assert verdict(best=checks.REAL_A2_VALUE["F2"] + 2e-6)


# -- tracing leaves the program's stdout byte-identical ---------------------

COMMANDS = [
    ["bound", "f2", "--format", "json"],
    ["bound", "f3"],
    ["gamma", "f3", "--c1=0.2+0.1j", "--c2", "0.3", "--format", "json"],
    ["verify-carlson", "--samples", "300", "--seed", "4"],
    ["search", "f1", "--iterations", "300", "--seed", "2", "--format", "json"],
    ["milin", "--n", "4"],
]


def _namespaces(modules) -> dict:
    spaces = {m.__name__: dict(vars(m)) for m in modules}
    for m in modules:
        for cls in vars(m).values():
            if isinstance(cls, type) and cls.__module__ == m.__name__:
                spaces[f"{m.__name__}.{cls.__name__}"] = dict(vars(cls))
    return spaces


def test_traced_commands_print_the_same_bytes_and_names_are_restored():
    importers = [importlib.import_module(f"gamma3lab.{name}") for name in tracer.LAYERS]
    before = _namespaces(importers)
    plain = [_stdout_of(argv) for argv in COMMANDS]
    t = tracer.Tracer()
    with tracer.traced(t, importers + [sys.modules[__name__]]):
        assert sys.modules["gamma3lab.cli"].optimize is not before["gamma3lab.cli"]["optimize"]
        traced = []
        for op, argv in enumerate(COMMANDS):
            t.begin_op(op)
            traced.append(_stdout_of(argv))
            t.end_op()
    assert traced == plain
    assert t.calls["cli.main"] == len(COMMANDS)
    assert t.crossings["families.TruncatedSeries.truncate"] > 0
    assert t.crossings["families.TruncatedSeries.__add__"] > 0
    assert t.crossings["schwarz.TruncatedSeries.from_polynomial"] > 0
    assert t.crossings["cli.TruncatedSeries.from_polynomial"] == 1  # the gamma command
    assert not any(name.startswith("series.") for name in t.crossings)
    assert _namespaces(importers) == before
    assert search.triple_of_blaschke is schwarz.triple_of_blaschke


def test_global_bound_splits_into_its_phases():
    t = tracer.Tracer()
    importers = [importlib.import_module(f"gamma3lab.{name}") for name in ("cli", "optimize")]
    with tracer.traced(t, importers + [workloads]):
        t.begin_op(0)
        workloads.Certify(0).execute(None)
        t.end_op()
    assert t.calls["optimize.global_bound"] == 3
    assert t.calls["optimize.interior_critical_points"] == 3
    assert t.calls["optimize.edge_maximum"] == 9
    parts = t.own["optimize.global_bound"] + t.total["optimize.interior_critical_points"] + t.total["optimize.edge_maximum"]
    assert math.isclose(parts, t.total["optimize.global_bound"], rel_tol=1e-9)
