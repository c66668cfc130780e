"""The benchmark's three workloads: certify, oracle and search.

Each workload is a stream of operations grouped in rounds.  ``round()``
draws the next round's inputs from the workload's own seeded stream;
``warm_up()`` gives the inputs of the untimed round that precedes them;
``execute`` makes only calls into the program and is the timed part;
``check`` compares the outputs with the independent expectations of
:mod:`bench.checks` and returns the failures and the operation's bracket
ratio (a witnessed or sampled value over the bound it brackets).
``KERNEL`` names the calibration kernel whose speed tracks the
workload's hot loop (see ``bench/run.py``).

The program is reached only through its modules' public names, looked up
at call time, so a traced run can swap the modules for wrapped copies.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random

from gamma3lab import cli, config, families, schwarz, search

from . import checks

#: Evaluation budget of one search: the default of ``search_lower_bound``,
#: of ``gamma3lab search`` and of ``scripts/run_search.py``.  70% goes to
#: global samples; refinement may stop short of the other 30%.
SEARCH_BUDGET = 100_000
#: Budget of the warm-up searches, and of every search in fast mode.
FAST_BUDGET = 2_000
#: Blaschke degrees of one oracle round (the pinned zero at 0 counts).
ORACLE_DEGREES = (1, 2, 3, 4, 5, 6)


def _family(tag: str):
    return families.FAMILIES[tag.lower()]


def series_gamma3(family, zeros, rotation: complex) -> complex:
    """gamma_3 of a Blaschke product by the series-logarithm route."""
    order = config.DEFAULT_ORDER
    w = schwarz.taylor_of_blaschke(schwarz.BlaschkeProduct(tuple(zeros), rotation), order)
    return families.gamma_sequence(families.member_series(family, w, order), 3)[2]


class Certify:
    """One round of ``gamma3lab bound f1/f2/f3 --format json`` through ``cli.main``.

    The inputs are fixed, so the seed changes nothing; the first round's
    stdout is the reference every later round must repeat byte for byte.
    """

    TAGS = ("f1", "f2", "f3")
    #: Calibration kernel like the hot loop: mostly the dense grid, some Newton.
    KERNEL = "grid"

    def __init__(self, seed: int, fast: bool = False) -> None:
        self.first: str | None = None

    def round(self) -> list:
        return [None]

    warm_up = round

    def execute(self, _) -> list[tuple[int, str]]:
        outputs = []
        for tag in self.TAGS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["bound", tag, "--format", "json"])
            outputs.append((code, buf.getvalue()))
        return outputs

    def check(self, _, outputs) -> tuple[list[str], float | None]:
        bad = []
        for tag, (code, text) in zip(self.TAGS, outputs):
            if code != 0:
                bad.append(f"bound {tag} exited with {code}")
            bad += checks.check_bound_report(tag.upper(), text)
        stdout = "".join(text for _, text in outputs)
        if self.first is None:
            self.first = stdout
        bad += checks.check_same_stdout(self.first, stdout)
        if bad:
            return bad, None
        reports = [json.loads(text) for _, text in outputs]
        return bad, sum(r["grid_max"] / r["global_max"] for r in reports) / len(reports)


class Oracle:
    """One seeded Blaschke product checked by both gamma_3 routes, all families.

    Degrees cycle through ``ORACLE_DEGREES``; the free zeros are
    area-uniform on the open disk and the rotation uniform on the circle.
    """

    KERNEL = "python"

    def __init__(self, seed: int, fast: bool = False) -> None:
        self.rng = random.Random(f"oracle/{seed}")

    def round(self) -> list:
        rng = self.rng
        products = []
        for degree in ORACLE_DEGREES:
            zeros = tuple(
                cmath.rect(math.sqrt(rng.random()), 2.0 * math.pi * rng.random())
                for _ in range(degree - 1)
            )
            products.append((zeros, cmath.exp(2j * math.pi * rng.random())))
        return products

    warm_up = round

    def execute(self, product):
        zeros, rotation = product
        order = config.DEFAULT_ORDER
        b = schwarz.BlaschkeProduct(zeros, rotation)
        triple = schwarz.triple_of_blaschke(b)
        slacks = schwarz.carlson_check(triple)
        w = schwarz.taylor_of_blaschke(b, order)
        values = []
        for tag in checks.PAPER_BOUND:
            family = _family(tag)
            closed = families.gamma3_closed_form(family, triple)
            series = families.gamma_sequence(families.member_series(family, w, order), 3)[2]
            values.append((tag, closed, series))
        return slacks, values

    def check(self, _, output) -> tuple[list[str], float | None]:
        slacks, values = output
        bad = checks.check_slacks(slacks)
        for tag, closed, series in values:
            bad += checks.check_oracle(tag, closed, series)
        if bad:
            return bad, None
        return bad, sum(abs(c) / checks.PAPER_BOUND[t] for t, c, _ in values) / len(values)


class Search:
    """One ``search_lower_bound`` at ``SEARCH_BUDGET`` evaluations.

    A round cycles F1-F3 x {complex, real-only}; each search's seed is
    drawn from the workload's own stream.  The warm-up round, and every
    round in fast mode, searches at ``FAST_BUDGET``.
    """

    CYCLE = tuple((tag, real_only) for tag in ("F1", "F2", "F3") for real_only in (False, True))
    #: Calibration kernel like one evaluation: seeded sampling, then an expansion.
    KERNEL = "sampling"

    def __init__(self, seed: int, fast: bool = False) -> None:
        self.rng = random.Random(f"search/{seed}")
        self.budget = FAST_BUDGET if fast else SEARCH_BUDGET

    def _round(self, budget: int) -> list:
        return [(tag, real_only, self.rng.getrandbits(62), budget) for tag, real_only in self.CYCLE]

    def round(self) -> list:
        return self._round(self.budget)

    def warm_up(self) -> list:
        return self._round(FAST_BUDGET)

    def execute(self, spec):
        tag, real_only, seed, budget = spec
        return search.search_lower_bound(_family(tag), budget, seed, real_only)

    def check(self, spec, result) -> tuple[list[str], float | None]:
        tag, real_only, _, _ = spec
        family = _family(tag)
        bad = checks.check_search(
            tag, real_only, result.best_value, result.upper_bound,
            result.witness.zeros, result.witness.rotation,
            lambda zeros, rotation: abs(series_gamma3(family, zeros, rotation)),
        )
        if bad:
            return bad, None
        return bad, result.best_value / checks.PAPER_BOUND[tag]


WORKLOADS = {"certify": Certify, "oracle": Oracle, "search": Search}
