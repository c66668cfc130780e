"""Central numeric configuration.

All tolerance constants live in one frozen record so that every module
compares against the same numbers.  Values are chosen for plain
double-precision arithmetic with coefficients of moderate magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default truncation order for Taylor data.  Eight terms cover the first
#: four logarithmic coefficients with guard terms to spare.
DEFAULT_ORDER = 8

#: The search's evaluation budget and every seeded run's seed, by default.
DEFAULT_ITERATIONS = 100_000
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Tolerances:
    # series
    normalized: float = 1e-12          # slack on f(0)=0, f'(0)=1, w(0)=0
    # Schwarz data
    rotation_unimodular: float = 1e-14
    carlson_slack: float = 1e-12       # feasibility threshold on Lemma slacks
    # optimizer
    tie_break: float = 1e-12           # values within this count as equal
    certification: float = 1e-9        # dense grid may not exceed max by this
    # search and the gamma command
    bound_compliance: float = 1e-9     # |gamma3| over a bound or sharp value; closed form vs series


TOL = Tolerances()


class VerificationFailed(Exception):
    """A computed quantity failed its check against an independent route.

    This is the one failure class that the command line reports with exit
    status 2; any other exception is a programming error.
    """
