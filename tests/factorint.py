"""Integer factorization for the group-order computations of `gfpoly`, a
test oracle.

Trial division up to a fixed bound, then Brent-variant Pollard rho, with the
package's one primality test (`geg.field.is_probable_prime`) on the cofactors.
Deterministic: rho sweeps a fixed parameter sequence, so results are
reproducible.  Sized for 64-bit inputs (the shipped default needs 251**8 - 1).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from geg.field import is_probable_prime

TRIAL_LIMIT = 1_000_000


def pollard_rho(n: int) -> int:
    """A non-trivial factor of composite n (Brent's cycle variant).

    Raises ValueError for n < 4 and for prime n, which have no such factor.
    """
    if n < 4 or is_probable_prime(n):
        raise ValueError(f"a composite n >= 4 required, got {n}")
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


@lru_cache(maxsize=256)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    if n <= 1:
        return ()
    factors: dict[int, int] = {}
    rem = n
    for f in (2, 3, 5):
        while rem % f == 0:
            factors[f] = factors.get(f, 0) + 1
            rem //= f
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)  # steps between numbers coprime to 30
    w = 0
    while f <= TRIAL_LIMIT and f * f <= rem:
        while rem % f == 0:
            factors[f] = factors.get(f, 0) + 1
            rem //= f
        f += wheel[w]
        w = (w + 1) % 8
    if rem > 1:
        if f * f > rem or is_probable_prime(rem):
            factors[rem] = factors.get(rem, 0) + 1
        else:
            stack = [rem]
            while stack:
                m = stack.pop()
                if is_probable_prime(m):
                    factors[m] = factors.get(m, 0) + 1
                    continue
                d = pollard_rho(m)
                stack.extend((d, m // d))
    return tuple(sorted(factors.items()))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: multiplicity}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    return dict(_factorize(n))

