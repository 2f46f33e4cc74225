"""Dense d-by-d matrix algebra over a prime field.

This is the carrier of the non-commutative group GL(d, F_p).  Entries are
canonical byte residues stored in numpy uint8 arrays.  Single matrices and
elimination upcast to int64, reduce mod p and narrow back; chains of stacked
products go through `product_mod`, which multiplies in float64 where every
sum is an exact integer.  Every operation stays in fixed-width machine
arithmetic.  d is a runtime parameter (8 and 16 are the shipped
protocol sizes, anything >= 2 works for analysis).
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError
from .field import DEFAULT_PRIME, RandomSource, power, power_table, validate_prime

def _check_modulus(p: int) -> int:
    validate_prime(p)
    if p > DEFAULT_PRIME:
        raise ValueError(f"matrix layer supports byte-sized primes (p <= {DEFAULT_PRIME}), got {p}")
    return p


def _residues(entries, p: int, ndim: int) -> np.ndarray:
    """A fresh int64 array of residues mod p, of `ndim` dimensions ending in a
    square.  Unsigned entries reduce in uint64 and signed ones in int64, so
    none wraps; floats, strings and booleans raise ValueError, not truncate."""
    a = np.asarray(entries)
    if a.dtype.kind not in "iu":
        raise ValueError(f"integer entries required, got dtype {a.dtype}")
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{ndim}-d array of square matrices required, got shape {a.shape}")
    a = a.astype(np.uint64 if a.dtype.kind == "u" else np.int64, copy=False) % p
    return a.astype(np.int64, copy=False)


class MatrixFp:
    """Immutable d-by-d matrix over GF(p); may be singular, GL membership is checked not assumed."""

    __slots__ = ("_a", "p")
    # numpy defers every ufunc and operator to MatrixFp, so `ndarray @ m`
    # raises TypeError rather than returning unreduced integers
    __array_ufunc__ = None

    def __init__(self, entries, p: int = DEFAULT_PRIME):
        _check_modulus(p)
        a = _residues(entries, p, 2)
        if a.shape[0] < 2:
            raise ValueError("dimension must be at least 2")
        self._a = a.astype(np.uint8)
        self._a.setflags(write=False)
        self.p = p

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, d: int, p: int = DEFAULT_PRIME) -> "MatrixFp":
        return cls(np.eye(d, dtype=np.int64), p)

    @classmethod
    def random(cls, rng: RandomSource, d: int, p: int = DEFAULT_PRIME) -> "MatrixFp":
        return cls(rng.array_mod(d * d, p).reshape(d, d), p)

    @classmethod
    def random_invertible(cls, rng: RandomSource, d: int, p: int = DEFAULT_PRIME) -> "MatrixFp":
        """Uniform over GL(d, F_p) by rejection on det == 0 (about 0.4% at p=251, d=8)."""
        while True:
            m = cls.random(rng, d, p)
            if m.det() != 0:
                return m

    # -- views -------------------------------------------------------------

    @property
    def d(self) -> int:
        return self._a.shape[0]

    @property
    def array(self) -> np.ndarray:
        """Read-only uint8 view, row-major."""
        return self._a

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The entries for numpy: a MatrixFp, or a list of them, is an array-like."""
        return np.array(self._a, dtype=dtype, copy=copy)

    def tolist(self) -> list[list[int]]:
        return self._a.astype(int).tolist()

    def __getitem__(self, idx: tuple[int, int]) -> int:
        return int(self._a[idx])

    # -- arithmetic --------------------------------------------------------

    def _compat(self, other: "MatrixFp") -> None:
        if not isinstance(other, MatrixFp):
            raise TypeError("MatrixFp required")
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")
        if self.d != other.d:
            raise ValueError(f"dimension mismatch: {self.d} vs {other.d}")

    def __matmul__(self, other: "MatrixFp") -> "MatrixFp":
        self._compat(other)
        prod = (self._a.astype(np.int64) @ other._a.astype(np.int64)) % self.p
        return MatrixFp(prod, self.p)

    def pow(self, e: int) -> "MatrixFp":
        """Square-and-multiply power; e == 0 gives the identity."""
        p = self.p
        result = power(self._a.astype(np.int64), e, lambda a, b: a @ b % p,
                       np.eye(self.d, dtype=np.int64))
        return MatrixFp(result, p)

    __pow__ = pow

    def det(self) -> int:
        """Determinant mod p.  The N=1 case of det_stack."""
        return int(det_stack(self._a[np.newaxis], self.p)[0])

    def inv(self) -> "MatrixFp":
        """Inverse; raises SingularMatrixError if det == 0.  The N=1 case of inv_stack."""
        return MatrixFp(inv_stack(self._a[np.newaxis], self.p)[0], self.p)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixFp):
            return NotImplemented
        return self.p == other.p and self._a.shape == other._a.shape and bool(
            (self._a == other._a).all()
        )

    def __hash__(self) -> int:
        return hash((self.p, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"MatrixFp(d={self.d}, p={self.p})"


# float64 holds every integer below 2**53 exactly
_EXACT = 2.0**53


def product_mod(factors, p: int = DEFAULT_PRIME) -> np.ndarray:
    """The product of a chain of two or more residue matrices or (N, d, d)
    stacks mod p, as int64 residues; leading axes broadcast as for `@`.

    The products run in float64, exact while every partial sum stays below
    2**53.  Entries of a product of k residue factors of width d stay below
    d**(k-1) * (p-1)**k, so the running product is reduced, with
    t - p * floor(t / p), only before a factor that could take it past that
    (at d <= 16 and p = 251, never within four factors).  ValueError if even
    the product of two residue factors of this width would not be exact.
    """
    factors = [np.asarray(f) for f in factors]
    top = p - 1
    width = max(f.shape[-1] for f in factors[:-1])
    if width * top * top >= _EXACT:
        raise ValueError(f"a product of width {width} mod {p} is not exact in float64")
    product, bound = factors[0].astype(np.float64, copy=False), top
    for factor in factors[1:]:
        width = product.shape[-1]
        if bound * width * top >= _EXACT:
            product, bound = _reduce(product, p), top
        product = product @ factor.astype(np.float64, copy=False)
        bound *= width * top
    return _reduce(product, p).astype(np.int64)


def _reduce(t: np.ndarray, p: int) -> np.ndarray:
    """t mod p for float64 integers t below 2**53.  The rounded t / p is off
    by less than 1/p, and the true quotient is an integer or at least 1/p
    from one, so its floor is exact."""
    q = t / p
    np.floor(q, out=q)
    q *= p
    return np.subtract(t, q, out=q)


def _eliminate(aug: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan mod p on the first d columns of an (N, d, w) int64 stack
    of residues, in place, pivoting on the first nonzero entry at or below the
    diagonal; returns the N determinants of the d-by-d blocks.  The rows of a
    block whose determinant is 0 are left partly reduced and mean nothing."""
    n, d = aug.shape[0], aug.shape[1]
    inverse = power_table(p - 2, p)  # v**-1 for nonzero v, p prime
    rows = np.arange(n)
    det = np.ones(n, dtype=np.int64)
    for col in range(d):
        pivot = col + (aug[:, col:, col] != 0).argmax(axis=1)
        swapped = pivot != col
        if swapped.any():
            top = aug[:, col].copy()
            aug[:, col] = aug[rows, pivot]
            aug[rows, pivot] = top
            det[swapped] = p - det[swapped]  # a row swap negates the determinant
        lead = aug[:, col, col]  # 0 exactly where the column has no pivot
        det = det * lead % p
        aug[:, col] = aug[:, col] * inverse[lead][:, np.newaxis] % p
        # clear the column in every other row; entries stay below p**2
        factors = aug[:, :, col].copy()
        factors[:, col] = 0
        aug -= factors[:, :, np.newaxis] * aug[:, np.newaxis, col]
        aug %= p
    return det


def det_stack(stack, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Determinants mod p of an (N, d, d) stack of matrices, as int64 residues."""
    return _eliminate(_residues(stack, p, 3), p)


def inv_stack(stack, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Inverses mod p of an (N, d, d) stack of matrices, as int64 residues.

    Gauss-Jordan on [A | I] for all N matrices at once.  Raises
    SingularMatrixError naming the lowest index of a singular matrix.
    """
    a = _residues(stack, p, 3)
    d = a.shape[1]
    aug = np.concatenate([a, np.broadcast_to(np.eye(d, dtype=np.int64), a.shape)], axis=2)
    singular = np.flatnonzero(_eliminate(aug, p) == 0)
    if singular.size:
        index = int(singular[0])
        raise SingularMatrixError(f"matrix {index} of the stack has no inverse mod {p}", index)
    return aug[:, :, d:]
