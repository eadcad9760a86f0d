"""certreal: a certified desk-scale real-analysis toolkit.

Exact rational arithmetic end to end.  Every numeric claim is either an
exact rational identity or a two-sided enclosure [lo, hi] with lo <= hi
guaranteed to contain the true real value.  Empirical (uncertified)
results are always flagged as such.
"""

from certreal.core import (
    Enclosure,
    FnDescriptor,
    Rational,
    Status,
    Verdict,
    approx_real,
    poly_descriptor,
    sqrt_enclosure,
    to_rational,
)

__all__ = [
    "Enclosure",
    "FnDescriptor",
    "Rational",
    "Status",
    "Verdict",
    "approx_real",
    "poly_descriptor",
    "sqrt_enclosure",
    "to_rational",
]

__version__ = "0.1.0"
