"""Command-line front end; every verification is a reproducible command.

Subcommands
    bound <family>            certified maximization report
    gamma <family> --c1 ...   closed-form vs series-oracle gamma_3
    verify-carlson            coefficient-bound fuzzing over random products
    search <family>           randomized lower-bound search + gap record
    milin                     Milin functional of a reference function

Each command declares its own options, each once, with its default and
its range; out-of-range values are usage errors reported by the parser.
Output is UTF-8 text (default), a single JSON object, or CSV (grid dumps,
offered by ``bound`` only).  Numbers print with 12 significant digits so
comparison against published decimals is direct.  All randomness flows
from ``--seed``; identical configuration gives byte-identical output.

Exit status: 0 on success, 1 on usage errors, 2 when a verification
fails.  Any other error is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import families as fam
from . import optimize, search, schwarz
from .objective import value_xy
from .series import TruncatedSeries
from .config import DEFAULT_ITERATIONS, DEFAULT_ORDER, DEFAULT_SEED, TOL, VerificationFailed


class _UsageError(Exception):
    pass


class _ParserExit(Exception):
    """argparse ended the run itself (``--help``), with this exit status."""


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message: str):
        raise _UsageError(message)

    # --help ends in a status that main returns, like every other outcome, not in sys.exit
    def exit(self, status: int = 0, message: str | None = None):
        if message:
            sys.stderr.write(message)
        raise _ParserExit(status)


class _ScriptParser(argparse.ArgumentParser):
    """The parser of the experiment scripts: a usage error exits 1, as :func:`main` returns it."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: Products of ``verify-carlson`` cycle through the degrees 1..CARLSON_MAX_DEGREE.
CARLSON_MAX_DEGREE = 6


def _ranged(kind, low, high=math.inf):
    """An argparse ``type`` reading a ``kind`` in [low, high].  It keeps
    ``kind``'s name, so unreadable text still reads ``invalid int value: 'x'``."""

    def convert(text):
        value = kind(text)
        if not low <= value <= high:  # also rejects nan
            span = f"be >= {low:g}" if high == math.inf else f"lie in [{low:g}, {high:g}]"
            raise argparse.ArgumentTypeError(f"must {span}")
        return value

    convert.__name__ = kind.__name__
    return convert


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _json_complex(z: complex) -> dict:
    return {"re": _round12(z.real), "im": _round12(z.imag)}


def _emit_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _bound_json(report: optimize.BoundReport) -> dict:
    return {
        "family": report.family.tag,
        "interior_points": [
            {"x": _round12(x), "y": _round12(y), "value": _round12(v)}
            for x, y, v in report.interior_points
        ],
        "edge_maxima": [
            {"edge": e, "argmax": _round12(t), "value": _round12(v)}
            for e, t, v in report.edge_maxima
        ],
        "global_max": _round12(report.global_max),
        "gamma3_bound": _round12(report.gamma3_bound),
        "grid_max": _round12(report.grid_max),
        "notes": list(report.notes),
    }


def _cmd_bound(args: argparse.Namespace) -> int:
    report = optimize.global_bound(args.family)
    if args.format == "json":
        _emit_json(_bound_json(report))
    elif args.format == "csv":
        print("x,y,value")
        columns = optimize._lattice_columns(args.grid_step)
        xs, ticks, counts, tops = (a.tolist() for a in columns)
        tick_text = [_fmt(y) for y in ticks]
        # column by column, one value at a time: numpy's x ** 3 can differ
        # from Python's in the last bit
        for x, k, top in zip(xs, counts, tops):
            head = f"{_fmt(x)},"
            rows = [f"{head}{t},{_fmt(value_xy(args.family, x, y))}\n"
                    for y, t in zip(ticks[:k], tick_text)]
            rows.append(f"{head}{_fmt(top)},{_fmt(value_xy(args.family, x, top))}\n")
            sys.stdout.write("".join(rows))
    else:
        print(f"family {report.family.tag}")
        for x, y, v in report.interior_points:
            print(f"  interior critical point ({_fmt(x)}, {_fmt(y)})  value {_fmt(v)}")
        for e, t, v in report.edge_maxima:
            print(f"  edge {e:<6} argmax {_fmt(t)}  value {_fmt(v)}")
        print(f"  global max   {_fmt(report.global_max)}")
        print(f"  grid check   {_fmt(report.grid_max)}")
        print(f"  gamma3 bound {_fmt(report.gamma3_bound)}")
        for note in report.notes:
            print(f"  note: {note}")
    return 0


def _cmd_gamma(args: argparse.Namespace) -> int:
    triple = schwarz.SchwarzTriple(args.c1, args.c2, args.c3)
    # near 1e308 the body's arithmetic overflows; below 2 the body's slack decides
    bounded = all(abs(c.real) <= 2.0 and abs(c.imag) <= 2.0 for c in (args.c1, args.c2, args.c3))
    if not (bounded and schwarz.in_body(triple)):
        raise _UsageError("--c1, --c2 and --c3 must be a finite Schwarz triple "
                          "(Schur parameters |a|, |b|, |eta| <= 1)")
    closed = fam.gamma3_closed_form(args.family, triple)
    # gamma_3 reads f up to z^(3 + 1), which reads w up to z^3
    w = TruncatedSeries.from_polynomial((0.0, args.c1, args.c2, args.c3), 3)
    f = fam.member_series(args.family, w, 3 + 1)
    oracle = fam.gamma_sequence(f, 3)[2]
    delta = abs(closed - oracle)
    ok = delta <= TOL.bound_compliance
    if args.format == "json":
        _emit_json(
            {
                "family": args.family.tag,
                "c1": _json_complex(args.c1),
                "c2": _json_complex(args.c2),
                "c3": _json_complex(args.c3),
                "closed_form": _json_complex(closed),
                "series_oracle": _json_complex(oracle),
                "delta": _round12(delta),
                "status": "pass" if ok else "fail",
            }
        )
    else:
        print(f"family {args.family.tag}")
        print(f"  closed_form   {_fmt(closed.real)} {closed.imag:+.12g}i")
        print(f"  series_oracle {_fmt(oracle.real)} {oracle.imag:+.12g}i")
        print(f"  delta         {_fmt(delta)}")
        print(f"  {'pass' if ok else 'fail'}")
    return 0 if ok else 2


def _cmd_verify_carlson(args: argparse.Namespace) -> int:
    worst = [math.inf] * 3
    degrees = set()
    for batch in schwarz.sample_blocks(args.seed, args.samples, CARLSON_MAX_DEGREE, args.real_only):
        degrees.add(batch.degree)
        slacks = schwarz.carlson_check(schwarz.triple_of_blaschke(batch))
        worst = [min(w, float(s.min(initial=math.inf))) for w, s in zip(worst, slacks)]
    ok = all(s >= -TOL.carlson_slack for s in worst)
    if args.format == "json":
        _emit_json(
            {
                "samples": args.samples,
                "seed": args.seed,
                "degrees": sorted(degrees),
                "worst_slacks": [_round12(s) for s in worst],
                "status": "pass" if ok else "fail",
            }
        )
    else:
        print(f"{'pass' if ok else 'fail'}  worst slacks "
              f"({_fmt(worst[0])}, {_fmt(worst[1])}, {_fmt(worst[2])})")
    return 0 if ok else 2


def _cmd_search(args: argparse.Namespace) -> int:
    result = search.search_lower_bound(args.family, args.iterations, args.seed, args.real_only)
    if args.format == "json":
        _emit_json(
            {
                "family": result.family.tag,
                "best_value": _round12(result.best_value),
                "witness": {
                    "degree": result.witness.degree,
                    "zeros": [_json_complex(z) for z in result.witness.zeros],
                    "rotation": _json_complex(result.witness.rotation),
                },
                "iterations": result.iterations,
                "real_only": result.real_only,
                "upper_bound": _round12(result.upper_bound),
                "remark_value": (
                    None if result.remark_value is None else _round12(result.remark_value)
                ),
                "gap": _round12(result.gap),
                "relative_gap": _round12(result.relative_gap),
            }
        )
    else:
        print(f"family {result.family.tag}  (real_only={str(result.real_only).lower()})")
        print(f"  best |gamma3|  {_fmt(result.best_value)}")
        print(f"  upper bound    {_fmt(result.upper_bound)}")
        if result.remark_value is not None:
            print(f"  sharp real-a2  {_fmt(result.remark_value)}")
        print(f"  gap            {_fmt(result.gap)}  (relative {_fmt(result.relative_gap)})")
        zeros = ", ".join(f"{_fmt(z.real)}{z.imag:+.12g}i" for z in result.witness.zeros)
        rotation = result.witness.rotation
        print(f"  witness degree {result.witness.degree}  zeros [{zeros}]")
        print(f"  witness rotation {_fmt(rotation.real)}{rotation.imag:+.12g}i")
    return 0


def _cmd_milin(args: argparse.Namespace) -> int:
    f = fam.koebe_series(DEFAULT_ORDER) if args.function == "koebe" else fam.identity_series(DEFAULT_ORDER)
    value = fam.milin_functional(f, args.n)
    if args.format == "json":
        _emit_json({"function": args.function, "n": args.n, "value": _round12(value)})
    else:
        print(f"milin functional of {args.function} at n={args.n}: {_fmt(value)}")
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process and shared.

    Building it takes milliseconds, a sizeable share of an in-process
    ``bound``, so every :func:`main` call reuses it.  It must not be
    mutated: parsing leaves it as it is, and :class:`_Parser` raises on a
    usage error instead of exiting.
    """
    parser = _Parser(prog="gamma3lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, summary, handler, family=True, csv=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if family:
            p.add_argument("family", choices=["f1", "f2", "f3"])
        formats = ["text", "json", "csv"] if csv else ["text", "json"]
        p.add_argument("--format", choices=formats, default="text")
        return p

    p_bound = add_command("bound", "certified maximization report", _cmd_bound, csv=True)
    p_bound.add_argument("--grid-step", type=_ranged(float, optimize.GRID_STEP, 0.1),
                         default=0.05, help="lattice step of the csv dump")

    p_gamma = add_command("gamma", "closed form vs series oracle", _cmd_gamma)
    for name in ("--c1", "--c2", "--c3"):
        p_gamma.add_argument(name, type=complex, default=0j)

    p_carlson = add_command("verify-carlson", "coefficient-bound fuzzing", _cmd_verify_carlson,
                            family=False)
    p_carlson.add_argument("--samples", type=_ranged(int, 1), default=100_000)
    p_carlson.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_carlson.add_argument("--real-only", action="store_true")

    p_search = add_command("search", "extremal lower-bound search", _cmd_search)
    p_search.add_argument("--iterations", type=_ranged(int, 1), default=DEFAULT_ITERATIONS)
    p_search.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_search.add_argument("--real-only", action="store_true")

    p_milin = add_command("milin", "Milin functional of a reference function", _cmd_milin,
                          family=False)
    p_milin.add_argument("--function", choices=["koebe", "identity"], default="koebe")
    p_milin.add_argument("--n", type=int, choices=range(1, DEFAULT_ORDER), default=3)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "family" in args:
            args.family = fam.family_by_tag(args.family)
        return args.handler(args)
    except _ParserExit as exc:
        return exc.args[0]
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 1
    except VerificationFailed as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
