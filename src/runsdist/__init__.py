"""Waiting-time distribution of success runs in Bernoulli trials.

Cross-verified engines for the pmf and the factorial, raw, and central
moments of the waiting time for r success runs of length >= k, covering the
nonoverlapping, failure-separated, ell-overlapping, and minimum-gap counting
families, in double precision or exact rational arithmetic.

The package exports the names the README documents and the types their
signatures take; every engine, route and primitive stays reachable through
its module (``runsdist.pmf``, ``runsdist.moments``, ``runsdist.roots``,
``runsdist.oracle``, ``runsdist.special``). The identity-only reference forms
live in ``runsdist.reference``, which is not re-exported.
"""

__version__ = "0.1.0"

from .core import IndexScheme, MomentKind, MomentSet, PmfTable, RunParams, VariantSpec
from .moments import MomentRoute, central_moments, mean, moments_via_route, variance
from .oracle import (CountingMode, CountingSemantics, MonteCarloResult, brute_force_pmf,
                     dp_waiting_time_pmf, monte_carlo)
from .pmf import PmfEngine, TermCounter, pmf_table
