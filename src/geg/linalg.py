"""Dense d-by-d matrix algebra over a prime field.

This is the carrier of the non-commutative group GL(d, F_p).  Entries are
canonical byte residues stored in numpy uint8 arrays; products upcast to
int64, reduce mod p and narrow back, so every operation stays in fixed-width
machine arithmetic.  d is a runtime parameter (8 and 16 are the shipped
protocol sizes, anything >= 2 works for analysis).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import SingularMatrixError
from .field import DEFAULT_PRIME, RandomSource, power, power_table, validate_prime

def _check_modulus(p: int) -> int:
    validate_prime(p)
    if p > DEFAULT_PRIME:
        raise ValueError(f"matrix layer supports byte-sized primes (p <= {DEFAULT_PRIME}), got {p}")
    return p


class MatrixFp:
    """Immutable d-by-d matrix over GF(p); may be singular, GL membership is checked not assumed."""

    __slots__ = ("_a", "p")
    # numpy defers every ufunc and operator to MatrixFp, so `ndarray @ m`
    # raises TypeError rather than returning unreduced integers
    __array_ufunc__ = None

    def __init__(self, entries, p: int = DEFAULT_PRIME):
        _check_modulus(p)
        a = np.asarray(entries)
        if a.dtype.kind not in "iu":
            raise ValueError(f"integer entries required, got dtype {a.dtype}")
        a = a.astype(np.int64, copy=False)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"square matrix required, got shape {a.shape}")
        if a.shape[0] < 2:
            raise ValueError("dimension must be at least 2")
        if ((a < 0) | (a >= p)).any():
            a = a % p
        self._a = a.astype(np.uint8)
        self._a.setflags(write=False)
        self.p = p

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, d: int, p: int = DEFAULT_PRIME) -> "MatrixFp":
        return cls(np.eye(d, dtype=np.int64), p)

    @classmethod
    def diagonal(cls, values, p: int = DEFAULT_PRIME) -> "MatrixFp":
        return cls(np.diag(np.asarray(list(values), dtype=np.int64)), p)

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


def _square_stack(stack, p: int) -> np.ndarray:
    # a fresh int64 array of residues, safe to reduce in place
    a = np.asarray(stack, dtype=np.int64) % p
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"stack of square matrices required, got shape {a.shape}")
    return a


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
    return _eliminate(_square_stack(stack, p), p)


def inv_stack(stack, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Inverses mod p of an (N, d, d) stack of matrices, as int64 residues.

    Gauss-Jordan on [A | I] for all N matrices at once.  Raises
    SingularMatrixError naming the lowest index of a singular matrix.
    """
    a = _square_stack(stack, p)
    d = a.shape[1]
    aug = np.concatenate([a, np.broadcast_to(np.eye(d, dtype=np.int64), a.shape)], axis=2)
    singular = np.flatnonzero(_eliminate(aug, p) == 0)
    if singular.size:
        raise SingularMatrixError(f"matrix {singular[0]} of the stack has no inverse mod {p}")
    return aug[:, :, d:]


def companion_matrix(poly) -> MatrixFp:
    """Companion matrix of a monic polynomial (degree >= 2).

    Ones on the subdiagonal, negated coefficients down the last column with
    the constant term in row one; its characteristic polynomial equals the
    input, so for irreducible input it generates a cyclic subgroup of
    GL(d, F_p).
    """
    coeffs = tuple(poly.coeffs)
    p = poly.p
    if not coeffs or coeffs[-1] != 1:
        raise ValueError("companion matrix requires a monic polynomial")
    d = len(coeffs) - 1
    if d < 2:
        raise ValueError("companion matrix requires degree >= 2")
    m = np.zeros((d, d), dtype=np.int64)
    m[np.arange(1, d), np.arange(d - 1)] = 1
    m[:, d - 1] = [(-c) % p for c in coeffs[:-1]]
    return MatrixFp(m, p)


def all_matrices(d: int, p: int) -> Iterator[MatrixFp]:
    """Every d-by-d matrix over GF(p), for exhaustive desk-scale checks."""
    total = d * d
    for code in range(p**total):
        entries = []
        v = code
        for _ in range(total):
            entries.append(v % p)
            v //= p
        yield MatrixFp(np.asarray(entries, dtype=np.int64).reshape(d, d), p)
