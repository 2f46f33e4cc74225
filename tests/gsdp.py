"""The decomposition-problem oracle: the hardness assumption tied to
concrete protocol runs, checked at desk scale.  A test oracle; no `geg`
process runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from geg.commuting import CommutingContext, DiagonalSpec
from geg.field import RandomSource
from geg.linalg import MatrixFp
from geg.protocol import Entity


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


def is_member(context: CommutingContext, z: MatrixFp) -> bool:
    """True iff z is an invertible conjugated diagonal of `context`."""
    if z.d != context.d or z.p != context.p:
        return False
    inner = context.to_eigenbasis(z)
    # every nonzero entry on the diagonal, and all d of them nonzero
    return np.count_nonzero(inner) == np.count_nonzero(np.diagonal(inner)) == context.d


def gsdp_verify(inst: GsdpInstance, z: MatrixFp) -> bool:
    """True iff z lies in the instance's commuting subgroup and satisfies the
    decomposition relation with the instance's exponents."""
    if inst.exp_left is None or inst.exp_right is None:
        raise ValueError("instance carries no exponents; use the blind solver")
    if not is_member(inst.context, z):
        return False
    return relation_holds(inst.x, inst.y, z, inst.exp_left, inst.exp_right)


def make_instance(
    rng: RandomSource, d: int, p: int, max_exp: int
) -> tuple[GsdpInstance, tuple[MatrixFp, int, int]]:
    """Generate a solvable instance plus the construction witness."""
    basis = MatrixFp.random_invertible(rng, d, p)
    x = MatrixFp.random_invertible(rng, d, p)
    context = CommutingContext(basis, x)
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
