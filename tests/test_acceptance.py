"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output); the heavy sample streams are module-scoped so the oracle
and compliance criteria share them.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from gamma3lab import (
    F1,
    F2,
    F3,
    BlaschkeProduct,
    carlson_check,
    gamma3_closed_form,
    gamma_sequence,
    global_bound,
    identity_series,
    interior_critical_points,
    koebe_series,
    member_series,
    milin_functional,
    sample_blocks,
    search_lower_bound,
    taylor_of_blaschke,
    triple_of_blaschke,
    value_xy,
)
from gamma3lab.cli import main as cli_main
from gamma3lab.search import REMARK_VALUES

from conftest import sampled_product
from reference import gradient_xy, hessian_xy, is_negative_definite, row

ALL_FAMILIES = (F1, F2, F3)
ORACLE_SAMPLES_PER_FAMILY = 10_000
FUZZ_SAMPLES = 100_000


def report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def family_products():
    """10^4 seeded Blaschke products per family, degrees cycling 1..4."""
    out = {}
    for offset, family in enumerate(ALL_FAMILIES):
        blocks = sample_blocks(1_000_000 * (offset + 1), ORACLE_SAMPLES_PER_FAMILY, 4)
        out[family.tag] = [row(batch, j) for batch in blocks for j in range(len(batch.rotation))]
    return out


@pytest.fixture(scope="module")
def fuzz_triples():
    """10^5 seeded Schwarz triples across degrees 1..6, one triple of arrays per batch."""
    return [triple_of_blaschke(batch) for batch in sample_blocks(0, FUZZ_SAMPLES, 6)]


@pytest.fixture(scope="module")
def bound_reports():
    return {family.tag: global_bound(family) for family in ALL_FAMILIES}


def test_criterion_1_first_family_bound(capsys):
    start = time.perf_counter()
    code = cli_main(["bound", "f1", "--format", "json"])
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    (pt,) = doc["interior_points"]
    checks = [
        math.hypot(pt["x"] - 0.25, pt["y"] - 0.3125) <= 1e-9,
        abs(pt["value"] - 15.75) <= 1e-9,
        elapsed < 5.0,
    ]
    targets = {"bottom": 15.08580, "left": 46 / 3, "top": 15.304035}
    for entry in doc["edge_maxima"]:
        checks.append(abs(entry["value"] - targets[entry["edge"]]) <= 1e-4)
    checks.append(f"{doc['gamma3_bound']:.12g}" == "0.328125")
    with capsys.disabled():
        report(
            1,
            all(checks),
            f"interior ({pt['x']}, {pt['y']}) value {pt['value']}, "
            f"bound {doc['gamma3_bound']}, runtime {elapsed:.2f}s",
        )


def test_criterion_2_second_family_bound(bound_reports, capsys):
    r = bound_reports["F2"]
    x2 = (4 - math.sqrt(7)) / 6
    y2 = (47 - 14 * math.sqrt(7)) / 108
    ((x, y, v),) = r.interior_points
    edge_targets = {
        "bottom": 2 + 4 * math.sqrt(6) / 9,
        "left": 3.0,
        "top": 2 * math.sqrt(2),
    }
    checks = [
        math.hypot(x - x2, y - y2) <= 1e-9,
        abs(v - 3.10518) <= 1e-5,
        abs(r.gamma3_bound - 0.258765) <= 1e-6,
    ]
    for edge, _, value in r.edge_maxima:
        checks.append(abs(value - edge_targets[edge]) <= 1e-9)
    with capsys.disabled():
        report(
            2,
            all(checks),
            f"interior ({x:.9f}, {y:.9f}) value {v:.7f}, bound {r.gamma3_bound:.9f}",
        )


def test_criterion_3_third_family_bound(bound_reports, capsys):
    r = bound_reports["F3"]
    ((_, _, v),) = r.interior_points
    # independent oracle for the substituted top edge 9 + 22x - 4x^2 - 16x^3:
    # its derivative's positive root is (sqrt(67) - 1)/12
    x_star = (math.sqrt(67) - 1) / 12
    top_expected = 9 + 22 * x_star - 4 * x_star**2 - 16 * x_star**3
    top_value = dict((e, val) for e, _, val in r.edge_maxima)["top"]
    note = r.notes[0] if r.notes else ""
    checks = [
        abs(v - 17.75) <= 1e-9,
        abs(r.gamma3_bound - 17.75 / 48) <= 1e-9,
        abs(top_value - top_expected) <= 1e-9,
        "16x^3" in note and "20x^3" in note,
        "16.56455" in note,
        max(val for _, _, val in r.edge_maxima) < 17.75,
    ]
    with capsys.disabled():
        report(
            3,
            all(checks),
            f"interior {v:.6f}, bound {r.gamma3_bound:.9f}, "
            f"top edge {top_value:.9f} (documented discrepancy in notes)",
        )


def test_criterion_4_oracle_equivalence(family_products, capsys):
    worst = 0.0
    failures = 0
    for family in ALL_FAMILIES:
        for b in family_products[family.tag]:
            closed = gamma3_closed_form(family, triple_of_blaschke(b))
            w = taylor_of_blaschke(b, 6)
            f = member_series(family, w, 6)
            series = gamma_sequence(f, 3)[2]
            delta = abs(closed - series)
            worst = max(worst, delta)
            if delta > 1e-9:
                failures += 1
    with capsys.disabled():
        report(
            4,
            failures == 0,
            f"{3 * ORACLE_SAMPLES_PER_FAMILY} samples, worst delta {worst:.3e}, "
            f"{failures} failures",
        )


def test_criterion_5_carlson_fuzz(fuzz_triples, capsys):
    worst = (math.inf, math.inf, math.inf)
    for c in fuzz_triples:
        slacks = carlson_check(c)
        worst = tuple(min(w, float(s.min())) for w, s in zip(worst, slacks))
    count = sum(len(c.c1) for c in fuzz_triples)
    equality_case = carlson_check(triple_of_blaschke(BlaschkeProduct((0.5,), 1.0)))
    checks = [
        all(s >= -1e-9 for s in worst),
        abs(equality_case[0] - 0.5) <= 1e-12,
        abs(equality_case[1]) <= 1e-12,
        abs(equality_case[2]) <= 1e-12,
    ]
    with capsys.disabled():
        report(
            5,
            all(checks),
            f"{count} samples, worst slacks "
            f"({worst[0]:.3e}, {worst[1]:.3e}, {worst[2]:.3e}), "
            f"equality case {tuple(round(s, 15) for s in equality_case)}",
        )


def test_criterion_6_bound_compliance(
    family_products, fuzz_triples, bound_reports, capsys
):
    worst_excess = -math.inf
    count = 0
    for family in ALL_FAMILIES:
        bound = bound_reports[family.tag].gamma3_bound
        triples = [
            triple_of_blaschke(b) for b in family_products[family.tag]
        ] + fuzz_triples
        for c in triples:
            excess = abs(gamma3_closed_form(family, c)) - bound
            worst_excess = max(worst_excess, float(np.max(excess)))
            count += np.size(excess)
    with capsys.disabled():
        report(
            6,
            worst_excess <= 1e-9,
            f"{count} evaluations, worst excess over bound {worst_excess:.3e}",
        )


def test_criterion_7_restricted_sharpness_probe(capsys):
    lower_edges = {tag: value - 1e-9 for tag, value in REMARK_VALUES.items()}
    details = []
    ok = True
    for family in ALL_FAMILIES:
        start = time.perf_counter()
        result = search_lower_bound(family, iterations=100_000, seed=1, real_only=True)
        elapsed = time.perf_counter() - start
        target = REMARK_VALUES[family.tag]
        ok = ok and (
            lower_edges[family.tag] <= result.best_value <= target + 1e-6
            and elapsed < 60.0
        )
        details.append(
            f"{family.tag} best {result.best_value:.10f} in "
            f"[{target:.10f}-1e-9, {target:.10f}+1e-6] ({elapsed:.1f}s)"
        )
    with capsys.disabled():
        report(7, ok, "; ".join(details))


def test_criterion_8_gradient_and_hessian(capsys):
    rng = random.Random(1234)
    worst_rel = 0.0
    worst_hess_rel = 0.0
    h = 1e-6
    for family in ALL_FAMILIES:
        for _ in range(1000):
            x = rng.random()
            y = rng.random() * (1.0 - x * x)
            gx, gy = gradient_xy(family, x, y)
            fx = (value_xy(family, x + h, y) - value_xy(family, x - h, y)) / (2 * h)
            fy = (value_xy(family, x, y + h) - value_xy(family, x, y - h)) / (2 * h)
            rel = math.hypot(gx - fx, gy - fy) / max(1.0, math.hypot(gx, gy))
            worst_rel = max(worst_rel, rel)
            (hxx, hxy), (hyx, hyy) = hessian_xy(family, x, y)
            gxp, gxm = gradient_xy(family, x + h, y), gradient_xy(family, x - h, y)
            gyp, gym = gradient_xy(family, x, y + h), gradient_xy(family, x, y - h)
            fd = [(p - m) / (2 * h) for p, m in zip(gxp + gyp, gxm + gym)]
            errors = (hxx - fd[0], hxy - fd[1], hyx - fd[2], hyy - fd[3])
            scale = max(1.0, math.hypot(hxx, hxy, hyx, hyy))
            worst_hess_rel = max(worst_hess_rel, math.hypot(*errors) / scale)
    definite = []
    for family in ALL_FAMILIES:
        ((x, y, _),) = interior_critical_points(family)
        definite.append(is_negative_definite(hessian_xy(family, x, y)))
    with capsys.disabled():
        report(
            8,
            worst_rel <= 1e-6 and worst_hess_rel <= 1e-6 and all(definite),
            f"3000 points, worst relative gradient error {worst_rel:.3e}, "
            f"Hessian error {worst_hess_rel:.3e}, "
            f"Hessians negative-definite: {definite}",
        )


def test_criterion_9_milin_checks(capsys):
    koebe = koebe_series(8)
    koebe_ok = all(abs(milin_functional(koebe, n)) <= 1e-12 for n in range(1, 6))
    identity_value = milin_functional(identity_series(8), 3)
    identity_ok = abs(identity_value - (-13 / 3)) <= 1e-12
    worst = -math.inf
    per_family = 334
    for offset, family in enumerate(ALL_FAMILIES):
        base = 7_000_000 * (offset + 1)
        for i in range(per_family):
            w = taylor_of_blaschke(sampled_product(base + i, 1 + i % 4), 8)
            f = member_series(family, w, 8)
            worst = max(worst, milin_functional(f, 3))
    members_ok = worst <= 1e-9
    with capsys.disabled():
        report(
            9,
            koebe_ok and identity_ok and members_ok,
            f"koebe <= 1e-12 for n<=5: {koebe_ok}; identity at n=3 = "
            f"{identity_value:.12f}; worst member functional {worst:.3e}",
        )
