#!/usr/bin/env python3
"""Bracket each bound from below with the Schur-coordinate extremal search.

Runs both the unrestricted and the real-coefficient searches and prints
the gap to the proved upper bound (and to the sharp real-a2 value where
one exists).  Exits as ``gamma3lab`` does: 1 on a usage error, 2 when a
search fails its verification.

Usage: python scripts/run_search.py [--iterations 100000] [--seed 1]
"""

import sys

from gamma3lab import FAMILIES, search_lower_bound
from gamma3lab.cli import _Parser, _ranged, run
from gamma3lab.config import DEFAULT_ITERATIONS, DEFAULT_SEED


def searches(args) -> int:
    for tag in ("f1", "f2", "f3"):
        family = FAMILIES[tag]
        for real_only in (False, True):
            result = search_lower_bound(
                family, iterations=args.iterations, seed=args.seed, real_only=real_only
            )
            label = "real-only" if real_only else "complex  "
            line = (
                f"{family.tag} {label}  best {result.best_value:.10f}"
                f"  upper {result.upper_bound:.10f}  gap {result.gap:.6f}"
            )
            if result.remark_value is not None:
                line += f"  sharp-real-a2 {result.remark_value:.10f}"
            print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--iterations", type=_ranged(int, 1), default=DEFAULT_ITERATIONS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return run(parser, searches, argv)


if __name__ == "__main__":
    sys.exit(main())
