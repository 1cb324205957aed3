"""Truthful cardinal mechanisms for one-sided matching.

A library plus CLI for randomized one-sided matching markets: a certified
Nash-social-welfare solver over the doubly-substochastic polytope, the
partial allocation and randomized partial improvement mechanisms alongside
the ordinal baselines (random serial dictatorship, probabilistic serial),
the Nash bargaining benchmark with per-agent approximation ratios, utility
monotonicity measurement, and adversarial instance generators with exact
equilibrium certificates.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    DimensionMismatch,
    FractionalAssignment,
    Infeasible,
    Instance,
    MatchingError,
    MechanismReport,
    NegativeValue,
    NoConvergence,
    NonFiniteValue,
    NotDecomposable,
    NotOptimal,
    ParseError,
    SupplyUnderflow,
    TooLargeForExact,
    instance_hash,
    load_instance,
    load_report,
    save_instance,
    save_report,
    uniform_disagreement,
    utilities,
    validate_instance,
)
from .nsw import Duals, NswProblem, NswSolution, kkt_check, recover_duals, renormalize, solve  # noqa: F401
