"""The hidden commutative subgroup inside GL(d, F_p).

Two diagonalizable matrices commute exactly when they share an eigenbasis, so
conjugating diagonal matrices by one fixed invertible basis matrix yields a
commutative subgroup whose members are indistinguishable from generic group
elements.  Every element built from the same context commutes with every
other one; that property is what makes the key agreement close.  The
protocol reaches the subgroup only through a context: it builds every
matrix by `compose`, and `read_weights` and `unmask` read a received one.
The membership test belongs to the decomposition oracle in the test tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GegError, MalformedMatrixError, SingularMatrixError
from .field import DEFAULT_PRIME, RandomSource, power_table
from .linalg import MatrixFp, inv_stack, product_mod


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
    """A session's public pair, invertible basis P and generator G, with P^-1,
    G~ = P^-1 G P and G~^-1 = P^-1 G^-1 P cached from one elimination, and
    the spanning forest of G~'s support that `read_weights` reads along.

    Immutable: a protocol session update builds a fresh context.  The cached
    P^-1 is checked, because a stale inverse silently breaks every later
    commutation."""

    __slots__ = ("basis", "basis_inv", "generator", "_generator", "_generator_inv", "_forest")

    def __init__(self, basis: MatrixFp, generator: MatrixFp):
        if generator.d != basis.d or generator.p != basis.p:
            raise ValueError(f"generator is not a {basis.d}x{basis.d} matrix over F_{basis.p}")
        try:
            basis_inv, generator_inv = inv_stack([basis, generator], basis.p)
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"{('basis', 'generator')[exc.index]} is singular",
                                      exc.index) from exc
        self.basis, self.basis_inv = basis, MatrixFp(basis_inv, basis.p)
        if self.basis @ self.basis_inv != MatrixFp.identity(basis.d, basis.p):
            raise GegError("cached basis inverse does not invert the basis")
        self.generator, self._generator = generator, self.to_eigenbasis(generator)
        self._generator_inv = self.to_eigenbasis(generator_inv)
        self._forest = _forest_levels(self._generator != 0)

    @property
    def d(self) -> int:
        return self.basis.d

    @property
    def p(self) -> int:
        return self.basis.p

    def conjugate(self, spec: DiagonalSpec) -> MatrixFp:
        """basis @ diag(spec) @ basis**-1: the subgroup element with
        eigenvalues `spec`.  Powers act on the eigenvalues alone; `compose`
        applies them without building the element."""
        if spec.d != self.d or spec.p != self.p:
            raise ValueError("diagonal spec does not match context parameters")
        return MatrixFp(self._from_eigenbasis(np.diag(spec.values)), self.p)

    def compose(self, *pairs) -> np.ndarray:
        """P (outer(u, v) ∘ G~) P^-1 as int64 residues, the inverse of
        `read_weights`, for (u, v) the entrywise product of the weight pairs
        `pairs` (d residues on the last axis; leading axes broadcast).  So
        Z^e1 T Z^e2 is compose(weights((e1, e2), λ), (u, v)) for T read as
        (u, v), and compose(weights((e1, e2), λ)) for T = G: no power is taken."""
        p = self.p
        u, v = pairs[0]
        for left, right in pairs[1:]:
            u, v = u * left % p, v * right % p
        return self._from_eigenbasis(_weigh(u, v, self._generator, p))

    def weights(self, exponents: tuple[int, int], eigenvalues) -> tuple[np.ndarray, np.ndarray]:
        """(λ^e1, λ^e2) for each eigenvalue list λ on the last axis of
        `eigenvalues`: the weight pair of Z^e1 G Z^e2 for Z = P diag(λ) P^-1."""
        eigenvalues = np.asarray(eigenvalues)
        return tuple(power_table(e, self.p)[eigenvalues] for e in exponents)

    def read_weights(self, stack) -> tuple[np.ndarray, np.ndarray]:
        """The inverse of `compose`: two (N, d) arrays (u, v) of nonzero
        residues with P^-1 stack[k] P = outer(u[k], v[k]) ∘ G~ for an
        (N, d, d) stack, where G~ = P^-1 G P.  Each connected component
        of G~'s support fixes its part of (u, v) up to one scale, and the first
        row of each component reads 1.  Raises MalformedMatrixError for the
        lowest matrix of the stack that is no such sandwich."""
        u, v, fits = read_outer(self.to_eigenbasis(stack), self._generator, self._forest, self.p)
        invertible = (u != 0).all(axis=1) & (v != 0).all(axis=1)
        bad = np.flatnonzero(~(fits & invertible))
        if bad.size:
            # outer(u, v) ∘ G~ with a zero weight is diag(u) G~ diag(v): singular
            raise MalformedMatrixError(int(bad[0]), bool(fits[bad[0]]))
        return u, v

    def unmask(self, y1, y2, token_weights) -> np.ndarray:
        """y2 mask^-1 for each block of (N, d, d) stacks, as int64 residues.

        y1 = J^e1 G J^e2 is a sandwich of the generator by an element J of
        this context, and the mask is J^e1 T J^e2 for a token T with
        T~ = outer(w1, w2) ∘ G~, where (w1, w2) = `token_weights` (see
        `weights`).  With (u, v) read off y1 by `read_weights`, the mask is
        P diag(a) G~ diag(b) P^-1 for a = u w1 and b = v w2, so
        mask^-1 = P (G~^-1 ∘ outer(1/b, 1/a)) P^-1, with the context's G~^-1:
        no inverse is taken.  Raises MalformedMatrixError as `read_weights` does.
        """
        p = self.p
        u, v = self.read_weights(y1)
        inverse = power_table(p - 2, p)
        w1, w2 = token_weights
        a, b = inverse[u * w1 % p], inverse[v * w2 % p]
        middle = _weigh(b, a, self._generator_inv, p)
        return product_mod([y2, self.basis, middle, self.basis_inv], p)

    def to_eigenbasis(self, x) -> np.ndarray:
        """basis**-1 @ x @ basis for a matrix or an (N, d, d) stack, as int64
        residues: a subgroup element becomes diagonal here."""
        return product_mod([self.basis_inv, x, self.basis], self.p)

    def _from_eigenbasis(self, x) -> np.ndarray:
        """basis @ x @ basis**-1, the inverse of to_eigenbasis."""
        return product_mod([self.basis, x, self.basis_inv], self.p)

    def random_element(self, rng: RandomSource) -> MatrixFp:
        """Fresh subgroup member; commutes with everything from this context."""
        return self.conjugate(DiagonalSpec.random(rng, self.d, self.p))


def _weigh(u: np.ndarray, v: np.ndarray, m: np.ndarray, p: int) -> np.ndarray:
    """outer(u, v) ∘ m mod p = diag(u) m diag(v), for u and v on the last axis."""
    return u[..., :, np.newaxis] * v[..., np.newaxis, :] * m % p


def read_outer(x: np.ndarray, g: np.ndarray, forest, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, fits) for an (N, d, d) stack x and a d-by-d matrix g of residues.

    u and v are (N, d) residues read off x ∘ g^{∘-1} along `forest`, the
    `_forest_levels(g != 0)` spanning forest of the bipartite graph that joins
    row i to column j where g[i, j] != 0, with u = 1 at the first row of each
    component.  fits[k] says whether x[k] == outer(u[k], v[k]) ∘ g; where it
    holds, every pair that fits is (u[k], v[k]) rescaled by one factor per
    component.  u or v holds a zero where x has a zero on an edge of the forest.
    """
    inverse = power_table(p - 2, p)  # v**-1 for nonzero v, and 0 for 0
    u = np.ones((x.shape[0], g.shape[0]), dtype=np.int64)
    v = np.ones_like(u)
    for rows, cols, to_cols in forest:
        ratio = x[:, rows, cols] * inverse[g[rows, cols]] % p
        if to_cols:
            v[:, cols] = ratio * inverse[u[:, rows]] % p
        else:
            u[:, rows] = ratio * inverse[v[:, cols]] % p
    fits = (x == _weigh(u, v, g, p)).all(axis=(1, 2))
    return u, v, fits


def _forest_levels(support: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """The edges of a breadth-first spanning forest of the bipartite graph
    with an edge (row i, column j) wherever support[i, j], one level at a
    time: (rows, cols, to_cols), where to_cols says that the level reaches
    the columns from rows seen before it, and not the rows from columns.
    Each component is rooted at its first row; a node joins the forest
    through the first node of the level before that reaches it."""
    d = support.shape[0]
    row_seen, col_seen = np.zeros(d, dtype=bool), np.zeros(d, dtype=bool)
    levels = []
    for root in range(d):
        if row_seen[root]:
            continue
        row_seen[root] = True
        frontier, to_cols = np.array([root]), True
        while frontier.size:
            lines, seen = (support[frontier], col_seen) if to_cols else (support[:, frontier].T, row_seen)
            links = lines & ~seen  # links[k, j]: frontier[k] reaches the unseen node j
            reached = np.flatnonzero(links.any(axis=0))
            if reached.size:
                parents = frontier[links[:, reached].argmax(axis=0)]
                seen[reached] = True
                levels.append((parents, reached, True) if to_cols else (reached, parents, False))
            frontier, to_cols = reached, not to_cols
    return levels
