#!/usr/bin/env python3
"""Reproduce the three |gamma_3| bound derivations and print a summary table.

Usage: python scripts/run_bounds.py
"""

from gamma3lab import FAMILIES, global_bound
from gamma3lab.cli import _ScriptParser


def main() -> None:
    _ScriptParser(description=__doc__).parse_args()

    header = f"{'family':<8}{'interior max':>16}{'best edge':>14}{'grid check':>14}{'|gamma3| bound':>17}"
    print(header)
    print("-" * len(header))
    for tag in ("f1", "f2", "f3"):
        report = global_bound(FAMILIES[tag])
        interior = max(v for _, _, v in report.interior_points)
        best_edge = max(v for _, _, v in report.edge_maxima)
        print(
            f"{report.family.tag:<8}{interior:>16.10f}{best_edge:>14.8f}"
            f"{report.grid_max:>14.8f}{report.gamma3_bound:>17.12f}"
        )
        for note in report.notes:
            print(f"    note: {note}")


if __name__ == "__main__":
    main()
