"""What `geg analyze` reports: group cardinalities and singularity statistics.

This is the one module allowed to hold arbitrary-precision integers: group
cardinalities reach 10**600 at d=16.  Nothing here sits on a protocol path.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .field import RandomSource, validate_prime
from .linalg import MatrixFp, det_stack


def order_gl(d: int, p: int) -> int:
    """|GL(d, F_p)|: the product over i < d of (p**d - p**i), exact."""
    validate_prime(p)
    if d < 1:
        raise ValueError("d >= 1 required")
    out = 1
    for i in range(d):
        out *= p**d - p**i
    return out


class AmbientCounts(NamedTuple):
    total: int      # all d-by-d matrices: p**(d*d)
    nilpotent: int  # p**(d*d - d)


def ambient_counts(d: int, p: int) -> AmbientCounts:
    validate_prime(p)
    if d < 1:
        raise ValueError("d >= 1 required")
    return AmbientCounts(p ** (d * d), p ** (d * d - d))


class SubgroupOrders(NamedTuple):
    """Both published conventions for the commuting-subgroup cardinality.

    excluding_zero counts ordered tuples of distinct eigenvalues drawn from
    the p-1 nonzero residues: (p-1)(p-2)...(p-d).  excluding_zero_one
    additionally reserves the value 1 and starts the product at p-2; this is
    the figure quoted for the 64-bit security level at d=8, p=251.  Neither
    convention affects protocol correctness; both are reported.
    """

    excluding_zero_one: int
    excluding_zero: int


def subgroup_orders(d: int, p: int) -> SubgroupOrders:
    validate_prime(p)
    if not 1 <= d <= p - 1:
        raise ValueError("d cannot exceed the number of nonzero residues")
    a = b = 1
    for i in range(d):
        a *= p - 2 - i
        b *= p - 1 - i
    return SubgroupOrders(a, b)


def singular_probability_closed(d: int, p: int) -> float:
    """Probability a uniform d-by-d matrix over F_p is singular, exact form."""
    validate_prime(p)
    if d < 1:
        raise ValueError("d >= 1 required")
    prod = Fraction(1)
    for i in range(1, d + 1):
        prod *= 1 - Fraction(1, p**i)
    return float(1 - prod)


class SingularEstimate(NamedTuple):
    monte_carlo: float
    closed_form: float


def singular_probability(
    d: int, p: int, trials: int, rng: RandomSource
) -> SingularEstimate:
    """Monte-Carlo singular fraction over `trials` uniform draws, with the
    closed form alongside."""
    if trials < 1:
        raise ValueError("trials >= 1 required")
    hits = 0
    for start in range(0, trials, 256):  # bounded memory at any trial count
        stack = [MatrixFp.random(rng, d, p) for _ in range(min(256, trials - start))]
        hits += int((det_stack(stack, p) == 0).sum())
    return SingularEstimate(hits / trials, singular_probability_closed(d, p))
