"""Monic polynomials over GF(p): irreducibility, random generation, counting,
and multiplicative-order computation.  A test oracle: criteria 08 and 09 and
the companion-matrix tests use it; no `geg` process does.

`PolyFp` only holds coefficients: the arithmetic runs on companion matrices
(`companion_matrix`) in the matrix layer, so p <= 251, and a polynomial over
a larger prime is refused before it is built or drawn.  The irreducibility
test is the deterministic gcd tower (not trial division); per candidate it
costs d matrix powers U -> U**p on int64 residue arrays, about
1.5 d log2(p) products of d-by-d matrices or O(d**4 log p) field
operations, and one batched determinant.  A random monic degree-d
candidate is irreducible with probability about 1/d, so random generation
takes about d trials.
"""

from __future__ import annotations

import numpy as np

from geg.errors import SingularMatrixError
from geg.field import DEFAULT_PRIME, RandomSource, power, validate_prime
from geg.linalg import MatrixFp, det_stack

from factorint import factorize

ORDER_LIMIT = 1 << 64


def _check_modulus(p: int) -> int:
    """The matrix layer's p <= 251, checked before a polynomial is built or drawn."""
    validate_prime(p)
    if p > DEFAULT_PRIME:
        raise ValueError(f"matrix layer supports byte-sized primes (p <= {DEFAULT_PRIME}), got {p}")
    return p


class PolyFp:
    """Polynomial over GF(p), coefficients low degree first, canonical form."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int = DEFAULT_PRIME):
        _check_modulus(p)
        c = []
        for v in coeffs:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"integer coefficients required, got {v!r}")
            c.append(int(v) % p)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)
        self.p = p

    # -- constructors --------------------------------------------------------

    @classmethod
    def random_monic(cls, rng: RandomSource, degree: int, p: int = DEFAULT_PRIME) -> "PolyFp":
        if degree < 1:
            raise ValueError("degree >= 1 required")
        _check_modulus(p)  # before the first draw
        return cls([rng.randbelow(p) for _ in range(degree)] + [1], p)

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1


def companion_matrix(poly: PolyFp) -> MatrixFp:
    """Companion matrix of a monic polynomial (degree >= 2).

    Ones on the subdiagonal, negated coefficients down the last column with
    the constant term in row one; its characteristic polynomial equals the
    input, so for irreducible input it generates a cyclic subgroup of
    GL(d, F_p).
    """
    if not poly.is_monic:
        raise ValueError("companion matrix requires a monic polynomial")
    if poly.degree < 2:
        raise ValueError("companion matrix requires degree >= 2")
    return MatrixFp(_companion(poly), poly.p)


def _companion(poly: PolyFp) -> np.ndarray:
    m = np.eye(poly.degree, k=-1, dtype=np.int64)
    m[:, -1] = [(-c) % poly.p for c in poly.coeffs[:-1]]
    return m


def is_irreducible(f: PolyFp) -> bool:
    """Deterministic gcd-tower irreducibility test for monic f, degree >= 1.

    f of degree d is irreducible iff x**(p**d) == x mod f and, for every
    prime q | d, gcd(x**(p**(d/q)) - x, f) == 1.  On C = companion_matrix(f),
    whose minimal polynomial is f, these read C**(p**d) == C and
    det(C**(p**(d/q)) - C) != 0.
    """
    d, p = f.degree, f.p
    if d < 1:
        return False
    if not f.is_monic:
        raise ValueError("irreducibility test requires a monic polynomial")
    if d == 1:
        return True
    # int64 residue arrays, not MatrixFp: at desk-scale d constructing a
    # MatrixFp per tower step costs more than its product
    c = _companion(f)
    mul, one = (lambda a, b: a @ b % p), np.eye(d, dtype=np.int64)
    proper = {d // q for q in factorize(d)}
    u = c
    towers = []  # C**(p**(d/q)) - C for each prime q | d
    for j in range(1, d + 1):
        u = power(u, p, mul, one)
        if j in proper:
            towers.append(u - c)
    return bool((u == c).all() and det_stack(towers, p).all())


def rand_irreducible_counted(
    rng: RandomSource, degree: int, p: int = DEFAULT_PRIME
) -> tuple[PolyFp, int]:
    """Random monic irreducible of the given degree, plus the trial count."""
    if degree < 2:
        raise ValueError("degree >= 2 required")
    trials = 0
    while True:
        trials += 1
        f = PolyFp.random_monic(rng, degree, p)
        if is_irreducible(f):
            return f, trials


def rand_irreducible(rng: RandomSource, degree: int, p: int = DEFAULT_PRIME) -> PolyFp:
    return rand_irreducible_counted(rng, degree, p)[0]


def _mobius(n: int) -> int:
    mu = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def count_monic_nontrivial(degree: int, p: int = DEFAULT_PRIME) -> int:
    """Monic degree-d polynomials excluding the two trivial ones: p**d - 2."""
    validate_prime(p)
    if degree < 1:
        raise ValueError("degree >= 1 required")
    return p**degree - 2


def count_irreducible_monic(degree: int, p: int = DEFAULT_PRIME) -> int:
    """Number of monic irreducible degree-d polynomials over GF(p).

    The necklace formula (1/d) * sum over r | d of mu(r) * p**(d/r).  Exact
    arbitrary-precision arithmetic; exhaustive small-case scans pin it down
    in the tests.
    """
    validate_prime(p)
    if degree < 1:
        raise ValueError("degree >= 1 required")
    total = 0
    for r in range(1, degree + 1):
        if degree % r == 0:
            total += _mobius(r) * p ** (degree // r)
    if total % degree:
        raise ArithmeticError(f"necklace sum {total} is not divisible by degree {degree}")
    return total // degree


def element_order(a: MatrixFp) -> int:
    """Multiplicative order of an invertible d-by-d matrix over GF(p).

    The order must divide p**d - 1 (true for companions of irreducibles and
    for conjugated nonzero diagonals); computed by factoring p**d - 1 and
    stripping prime factors.  Limited to p**d - 1 < 2**64, which covers the
    shipped default p=251, d=8.
    """
    if not isinstance(a, MatrixFp):
        raise TypeError("MatrixFp required")
    if a.det() == 0:
        raise SingularMatrixError("order of a singular matrix is undefined")
    n = a.p**a.d - 1
    if n >= ORDER_LIMIT:
        raise ValueError("order computation limited to p**d - 1 < 2**64")
    identity = MatrixFp.identity(a.d, a.p)
    for q in factorize(n):
        while n % q == 0 and a.pow(n // q) == identity:
            n //= q
    if a.pow(n) != identity:
        raise ValueError("element order does not divide p**d - 1")
    return n
