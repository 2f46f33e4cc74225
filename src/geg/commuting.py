"""The hidden commutative subgroup inside GL(d, F_p).

Two diagonalizable matrices commute exactly when they share an eigenbasis, so
conjugating diagonal matrices by one fixed invertible basis matrix yields a
commutative subgroup whose members are indistinguishable from generic group
elements.  Every element built from the same context commutes with every
other one; that property is what makes the key agreement close.  The
protocol reaches the subgroup only through a context's `sandwich`; the
membership test belongs to the decomposition oracle in the test tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GegError, SingularMatrixError
from .field import DEFAULT_PRIME, RandomSource, power_table
from .linalg import MatrixFp


@dataclass(frozen=True)
class DiagonalSpec:
    """Eigenvalue list for a subgroup element: nonzero and pairwise distinct.

    Nonzero keeps the element invertible; distinctness pins down the
    commutant (nothing outside the shared-basis family commutes with it).
    """

    values: tuple[int, ...]
    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if len(self.values) < 2:
            raise ValueError("at least two eigenvalues required")
        if np.asarray(self.values).dtype.kind not in "iu":
            raise ValueError("eigenvalues must be integers")
        vals = tuple(int(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(not 0 < v < self.p for v in vals):
            raise ValueError("eigenvalues must lie in [1, p-1]")
        if len(set(vals)) != len(vals):
            raise ValueError("eigenvalues must be pairwise distinct")

    @classmethod
    def random(cls, rng: RandomSource, d: int, p: int = DEFAULT_PRIME) -> "DiagonalSpec":
        return cls(tuple(rng.distinct_nonzero(d, p)), p)

    @property
    def d(self) -> int:
        return len(self.values)


class CommutingContext:
    """A fixed invertible basis matrix with its cached inverse.

    Immutable: a protocol session update builds a fresh context.  The cached
    inverse is re-derived on construction and checked, because a stale
    inverse silently breaks every later commutation.
    """

    __slots__ = ("basis", "basis_inv")

    def __init__(self, basis: MatrixFp):
        self.basis = basis
        try:
            self.basis_inv = basis.inv()
        except SingularMatrixError as exc:
            raise SingularMatrixError("basis is singular") from exc
        if self.basis @ self.basis_inv != MatrixFp.identity(basis.d, basis.p):
            raise GegError("cached basis inverse does not invert the basis")

    @property
    def d(self) -> int:
        return self.basis.d

    @property
    def p(self) -> int:
        return self.basis.p

    def conjugate(self, spec: DiagonalSpec) -> MatrixFp:
        """basis @ diag(spec) @ basis**-1: the subgroup element with
        eigenvalues `spec`.  Powers act on the eigenvalues alone; `sandwich`
        applies them without building the element."""
        if spec.d != self.d or spec.p != self.p:
            raise ValueError("diagonal spec does not match context parameters")
        return MatrixFp(self._from_eigenbasis(np.diag(spec.values)), self.p)

    def sandwich(self, x, exponents: tuple[int, int], eigenvalues) -> np.ndarray:
        """Z^e1 x Z^e2 as int64 residues, for a matrix or an (..., d, d) stack x
        and each eigenvalue list λ on the last axis of `eigenvalues`, where
        Z = P diag(λ) P^-1 for this context's basis P and (e1, e2) = exponents.

        Z^e1 x Z^e2 = P (outer(λ^e1, λ^e2) ∘ x~) P^-1 with x~ = P^-1 x P, so a
        sandwich costs no matrix power.  Leading axes broadcast.
        """
        p, eigenvalues = self.p, np.asarray(eigenvalues)
        left, right = (power_table(e, p)[eigenvalues] for e in exponents)
        weights = left[..., :, np.newaxis] * right[..., np.newaxis, :] % p
        return self._from_eigenbasis(weights * self.to_eigenbasis(x) % p)

    def to_eigenbasis(self, x) -> np.ndarray:
        """basis**-1 @ x @ basis for a matrix or an (N, d, d) stack, as int64
        residues: a subgroup element becomes diagonal here."""
        return self._change_basis(self.basis_inv, x, self.basis)

    def _from_eigenbasis(self, x) -> np.ndarray:
        """basis @ x @ basis**-1, the inverse of to_eigenbasis."""
        return self._change_basis(self.basis, x, self.basis_inv)

    def _change_basis(self, left: MatrixFp, x, right: MatrixFp) -> np.ndarray:
        # entries stay below d**2 * p**3 < 2**63, so one reduction suffices
        product = left.array.astype(np.int64) @ np.asarray(x, dtype=np.int64)
        return product @ right.array.astype(np.int64) % self.p

    def random_element(self, rng: RandomSource) -> MatrixFp:
        """Fresh subgroup member; commutes with everything from this context."""
        return self.conjugate(DiagonalSpec.random(rng, self.d, self.p))
