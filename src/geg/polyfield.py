"""Monic polynomials over GF(p): irreducibility, random generation, counting,
and multiplicative-order computation.

The irreducibility test is the deterministic gcd tower (not trial division):
f of degree d is irreducible iff x**(p**d) == x mod f and, for every prime q
dividing d, gcd(x**(p**(d/q)) - x, f) = 1.  Cost per candidate is
O(d**3 log p) coefficient operations, and a random monic degree-d candidate
is irreducible with probability about 1/d, so random generation takes about
d trials.
"""

from __future__ import annotations

from .errors import SingularMatrixError
from .factorint import factorize
from .field import DEFAULT_PRIME, RandomSource, power, validate_prime
from .linalg import MatrixFp

ORDER_LIMIT = 1 << 64


class PolyFp:
    """Polynomial over GF(p), coefficients low degree first, canonical form."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int = DEFAULT_PRIME):
        validate_prime(p)
        c = [int(v) % p for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)
        self.p = p

    # -- constructors --------------------------------------------------------

    @classmethod
    def x(cls, p: int = DEFAULT_PRIME) -> "PolyFp":
        return cls((0, 1), p)

    @classmethod
    def one(cls, p: int = DEFAULT_PRIME) -> "PolyFp":
        return cls((1,), p)

    @classmethod
    def random_monic(cls, rng: RandomSource, degree: int, p: int = DEFAULT_PRIME) -> "PolyFp":
        if degree < 1:
            raise ValueError("degree >= 1 required")
        return cls([rng.randbelow(p) for _ in range(degree)] + [1], p)

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "PolyFp":
        if self.is_zero or self.is_monic:
            return self
        scale = pow(self.coeffs[-1], -1, self.p)
        return PolyFp([c * scale for c in self.coeffs], self.p)

    def _check(self, other: "PolyFp") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, v in enumerate(b):
            summed[i] = (summed[i] + v) % self.p
        return PolyFp(summed, self.p)

    def __sub__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        diff = [
            ((self.coeffs[i] if i < len(self.coeffs) else 0)
             - (other.coeffs[i] if i < len(other.coeffs) else 0)) % self.p
            for i in range(n)
        ]
        return PolyFp(diff, self.p)

    def __mul__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        if self.is_zero or other.is_zero:
            return PolyFp((), self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        p = self.p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % p
        return PolyFp(out, p)

    def __divmod__(self, other: "PolyFp") -> tuple["PolyFp", "PolyFp"]:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        den = other.coeffs
        if len(rem) < len(den):
            return PolyFp((), p), PolyFp(rem, p)
        lead_inv = pow(den[-1], -1, p)
        quot = [0] * (len(rem) - len(den) + 1)
        for shift in range(len(rem) - len(den), -1, -1):
            q = rem[shift + len(den) - 1] * lead_inv % p
            if q:
                quot[shift] = q
                for i, c in enumerate(den):
                    rem[shift + i] = (rem[shift + i] - q * c) % p
        return PolyFp(quot, p), PolyFp(rem, p)

    def __mod__(self, other: "PolyFp") -> "PolyFp":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "PolyFp") -> "PolyFp":
        return divmod(self, other)[0]

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * value + c) % self.p
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyFp):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs, self.p))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"PolyFp(0, p={self.p})"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                base = "x" if i == 1 else f"x^{i}"
                terms.append(base if c == 1 else f"{c}{base}")
        return f"PolyFp({' + '.join(terms)}, p={self.p})"


def poly_gcd(a: PolyFp, b: PolyFp) -> PolyFp:
    """Monic greatest common divisor."""
    a._check(b)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def pow_mod(base: PolyFp, e: int, modulus: PolyFp) -> PolyFp:
    """base**e reduced mod `modulus`, by square and multiply."""
    return power(base % modulus, e, lambda a, b: a * b % modulus, PolyFp.one(base.p))


def is_irreducible(f: PolyFp) -> bool:
    """Deterministic gcd-tower irreducibility test for monic f, degree >= 1."""
    d = f.degree
    if d < 1:
        return False
    if not f.is_monic:
        raise ValueError("irreducibility test requires a monic polynomial")
    if d == 1:
        return True
    p = f.p
    proper = {d // q for q in factorize(d)}
    x = PolyFp.x(p)
    u = x
    for j in range(1, d + 1):
        u = pow_mod(u, p, f)
        if j in proper and poly_gcd(u - x, f).degree != 0:
            return False
    return u == x


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
    if degree < 1:
        raise ValueError("degree >= 1 required")
    return p**degree - 2


def count_irreducible_monic(degree: int, p: int = DEFAULT_PRIME) -> int:
    """Number of monic irreducible degree-d polynomials over GF(p).

    The necklace formula (1/d) * sum over r | d of mu(r) * p**(d/r).  Exact
    arbitrary-precision arithmetic; exhaustive small-case scans pin it down
    in the tests.
    """
    if degree < 1:
        raise ValueError("degree >= 1 required")
    total = 0
    for r in range(1, degree + 1):
        if degree % r == 0:
            total += _mobius(r) * p ** (degree // r)
    if total % degree:
        raise ArithmeticError(f"necklace sum {total} is not divisible by degree {degree}")
    return total // degree


def _order_via(n: int, powers, identity) -> int:
    if n >= ORDER_LIMIT:
        raise ValueError("order computation limited to p**d - 1 < 2**64")
    for q in factorize(n):
        while n % q == 0 and powers(n // q) == identity:
            n //= q
    if powers(n) != identity:
        raise ValueError("element order does not divide the expected group order")
    return n


def element_order(a: "MatrixFp | PolyFp", d: int | None = None) -> int:
    """Multiplicative order of an invertible matrix, or of x mod a monic poly.

    The order must divide p**d - 1 (true for companions of irreducibles and
    for conjugated nonzero diagonals); computed by factoring p**d - 1 and
    stripping prime factors.  Limited to p**d - 1 < 2**64, which covers the
    shipped default p=251, d=8.
    """
    if isinstance(a, PolyFp):
        if not a.is_monic or a.degree < 1:
            raise ValueError("order of x requires a monic modulus of degree >= 1")
        if a.coeffs[0] == 0:
            raise SingularMatrixError("x is not invertible modulo a multiple of x")
        if d is None:
            d = a.degree
        x = PolyFp.x(a.p)
        return _order_via(a.p**d - 1, lambda e: pow_mod(x, e, a), PolyFp.one(a.p))
    if d is None:
        d = a.d
    if a.det() == 0:
        raise SingularMatrixError("order of a singular matrix is undefined")
    return _order_via(a.p**d - 1, a.pow, MatrixFp.identity(a.d, a.p))
