"""Cardinality formulas, singularity statistics, and the decomposition-problem
oracle that ties the hardness assumption to concrete protocol runs.

This is the one module allowed to hold arbitrary-precision integers: group
cardinalities reach 10**600 at d=16.  Nothing here sits on a protocol path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .commuting import CommutingContext, DiagonalSpec
from .field import RandomSource, validate_prime
from .linalg import MatrixFp, det_stack
from .protocol import Entity


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


# -- decomposition-problem oracle ---------------------------------------------


@dataclass(frozen=True)
class GsdpInstance:
    """One decomposition challenge: find z in the commuting subgroup with
    z**m @ x @ z**n == y.

    The exponent pair is present for the stated (verifiable) problem and
    None for the blind variant, where exponents are part of the search.
    """

    context: CommutingContext
    x: MatrixFp
    y: MatrixFp
    exp_left: int | None = None
    exp_right: int | None = None

    @property
    def d(self) -> int:
        return self.x.d

    @property
    def p(self) -> int:
        return self.x.p


def relation_holds(x: MatrixFp, y: MatrixFp, z: MatrixFp, m: int, n: int) -> bool:
    return z.pow(m) @ x @ z.pow(n) == y


def gsdp_verify(inst: GsdpInstance, z: MatrixFp) -> bool:
    """True iff z lies in the instance's commuting subgroup and satisfies the
    decomposition relation with the instance's exponents."""
    if inst.exp_left is None or inst.exp_right is None:
        raise ValueError("instance carries no exponents; use the blind solver")
    if not inst.context.is_member(z):
        return False
    return relation_holds(inst.x, inst.y, z, inst.exp_left, inst.exp_right)


def make_instance(
    rng: RandomSource, d: int, p: int, max_exp: int
) -> tuple[GsdpInstance, tuple[MatrixFp, int, int]]:
    """Generate a solvable instance plus the construction witness."""
    context = CommutingContext.random(rng, d, p)
    x = MatrixFp.random_invertible(rng, d, p)
    z = context.random_element(rng)
    m = 1 + rng.randbelow(max_exp)
    n = 1 + rng.randbelow(max_exp)
    y = z.pow(m) @ x @ z.pow(n)
    return GsdpInstance(context, x, y, m, n), (z, m, n)


def instance_from_exchange(entity: Entity) -> GsdpInstance:
    """The challenge an eavesdropper faces after watching this entity's setup.

    Call right after key derivation: x is the peer's public token, y the
    derived key, and the entity's own private element with its initial
    exponents is a witness.
    """
    if entity.peer_token is None or entity.session_key is None:
        raise ValueError("entity has not completed a key derivation")
    if entity.initial_exponents is None:
        raise ValueError("entity carries no initial exponents (restored state?)")
    k1, k2 = entity.initial_exponents
    return GsdpInstance(entity.context, entity.peer_token, entity.session_key, k1, k2)


MAX_BRUTE_D = 2
MAX_BRUTE_P = 7


def bgsdp_bruteforce(
    inst: GsdpInstance, max_exp: int
) -> tuple[MatrixFp, int, int] | None:
    """Exhaustive blind-variant solver, desk scale only.

    Enumerates every ordered distinct-nonzero eigenvalue pair conjugated by
    the instance basis and every exponent pair in [1, max_exp]; returns the
    first witness in lexicographic (eigenvalues, m, n) order, so the result
    is deterministic, or None.  Cost is |S| * max_exp**2 relation checks,
    which is why parameters are capped.
    """
    d, p = inst.d, inst.p
    if d != MAX_BRUTE_D or p > MAX_BRUTE_P:
        raise ValueError(
            f"brute force capped at d={MAX_BRUTE_D}, p<={MAX_BRUTE_P} (cost guard)"
        )
    if max_exp < 1:
        raise ValueError("max_exp >= 1 required")
    for v1 in range(1, p):
        for v2 in range(1, p):
            if v1 == v2:
                continue
            z = inst.context.conjugate(DiagonalSpec((v1, v2), p))
            powers = [z.pow(e) for e in range(max_exp + 1)]
            for m in range(1, max_exp + 1):
                left = powers[m] @ inst.x
                for n in range(1, max_exp + 1):
                    if left @ powers[n] == inst.y:
                        return z, m, n
    return None
