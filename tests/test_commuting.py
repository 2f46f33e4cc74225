from itertools import product

import numpy as np
import pytest

from geg import commuting
from geg.commuting import CommutingContext, DiagonalSpec, _forest_levels, read_outer
from geg.errors import GegError, ProtocolError, SingularMatrixError
from geg.field import RandomSource
from geg.linalg import MatrixFp
from geg.protocol import handshake, setup_shared, start_session

from gsdp import is_member
from oracles import all_square_matrices, naive_matmul, naive_matpow


def subgroup(rng, d, p=251):
    """A context for tests of the subgroup alone: its generator is the identity."""
    return CommutingContext(MatrixFp.random_invertible(rng, d, p), MatrixFp.identity(d, p))


class TestDiagonalSpec:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            DiagonalSpec((1, 0, 3), 5)

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            DiagonalSpec((2, 2), 5)

    def test_rejects_single_eigenvalue(self):
        with pytest.raises(ValueError, match="at least two eigenvalues"):
            DiagonalSpec((3,), 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DiagonalSpec((1, 7), 5)

    @pytest.mark.parametrize("values", [(1.7, 2.2, 3), ("1", "2"), (b"\x01", b"\x02")])
    def test_rejects_non_integers(self, values):
        with pytest.raises(ValueError, match="integers"):
            DiagonalSpec(values, 251)

    def test_random_contract(self):
        rng = RandomSource.deterministic(0)
        spec = DiagonalSpec.random(rng, 8, 251)
        assert spec.d == 8
        assert len(set(spec.values)) == 8
        assert all(1 <= v <= 250 for v in spec.values)


class TestContext:
    def test_singular_basis_rejected(self):
        with pytest.raises(SingularMatrixError, match="basis is singular") as caught:
            CommutingContext(MatrixFp([[1, 1], [1, 1]], 5), MatrixFp.identity(2, 5))
        assert caught.value.index == 0

    @pytest.mark.parametrize("basis, name", [
        ([[1, 1], [0, 1]], "generator"),
        ([[1, 1], [1, 1]], "basis"),  # both singular: the first of the pair is named
    ])
    def test_singular_generator_rejected_by_name(self, basis, name):
        with pytest.raises(SingularMatrixError, match=f"^{name} is singular$") as caught:
            CommutingContext(MatrixFp(basis, 5), MatrixFp([[2, 4], [1, 2]], 5))
        assert caught.value.index == ("basis", "generator").index(name)

    @pytest.mark.parametrize("d, p", [(4, 251), (8, 7)])
    def test_generator_of_another_size_or_field_rejected(self, d, p):
        basis = MatrixFp.random_invertible(RandomSource.deterministic(0), 8, 251)
        with pytest.raises(ValueError, match="^generator is not a 8x8 matrix over F_251$"):
            CommutingContext(basis, MatrixFp.identity(d, p))

    def test_generator_cached_in_the_eigenbasis_with_its_inverse(self):
        rng = RandomSource.deterministic(1)
        basis, generator = (MatrixFp.random_invertible(rng, 8, 251) for _ in range(2))
        ctx = CommutingContext(basis, generator)
        assert ctx.generator is generator
        assert np.array_equal(ctx._generator, (ctx.basis_inv @ generator @ basis).array)
        assert np.array_equal(ctx._generator_inv, (ctx.basis_inv @ generator.inv() @ basis).array)

    def test_cached_inverse_valid(self):
        rng = RandomSource.deterministic(1)
        ctx = subgroup(rng, 8)
        assert ctx.basis @ ctx.basis_inv == MatrixFp.identity(8, 251)

    def test_wrong_inverse_raises_without_assert(self, monkeypatch):
        # an explicit check, so it still runs under `python -O`
        basis = MatrixFp([[1, 1], [0, 1]], 5)
        monkeypatch.setattr(commuting, "inv_stack", lambda stack, p: np.asarray(stack))
        with pytest.raises(GegError, match="inverse"):
            CommutingContext(basis, MatrixFp.identity(2, 5))

    def test_conjugate_preserves_det_and_trace(self):
        rng = RandomSource.deterministic(2)
        ctx = subgroup(rng, 8)
        for _ in range(100):
            spec = DiagonalSpec.random(rng, 8, 251)
            m = ctx.conjugate(spec)
            det = 1
            for v in spec.values:
                det = det * v % 251
            assert m.det() == det
            assert int(np.diagonal(m.array).sum()) % 251 == sum(spec.values) % 251

    @pytest.mark.parametrize("d", [8, 16])
    def test_conjugate_power_matches_naive_matpow(self, d):
        # at e = 125 every eigenvalue maps to its quadratic character, +1 or -1
        rng = RandomSource.deterministic(bytes([d]))
        ctx = subgroup(rng, d)
        spec = DiagonalSpec.random(rng, d, 251)
        element = ctx.conjugate(spec)
        for e in (0, 1, 2, 125, 249, 250, 251, 1000):
            assert element.pow(e).tolist() == naive_matpow(element.tolist(), e, 251)
        assert {pow(v, 125, 251) for v in spec.values} == {1, 250}

    @pytest.mark.parametrize("d", [8, 16])
    def test_compose_matches_matrix_powers(self, d):
        # as the cipher calls it: a token B' = B^r1 G B^r2, then a stack of
        # eigenvalue lists, block i using the i-th, for y1 = J^m G J^n and
        # the mask J^m B' J^n from B''s read weights
        rng = RandomSource.deterministic(bytes([d, 1]))
        ctx = CommutingContext(*(MatrixFp.random_invertible(rng, d, 251) for _ in range(2)))
        peer, specs = DiagonalSpec.random(rng, d, 251), [DiagonalSpec.random(rng, d, 251) for _ in range(3)]
        (r1, r2), (m, n) = (3, 2), (2, 4)  # small: the oracle multiplies e times

        def sandwich(z, x, e1, e2):
            z = z.tolist()
            return naive_matmul(naive_matmul(naive_matpow(z, e1, 251), x, 251), naive_matpow(z, e2, 251), 251)

        token = ctx.compose(ctx.weights((r1, r2), peer.values))
        assert token.tolist() == sandwich(ctx.conjugate(peer), ctx.generator.tolist(), r1, r2)
        ephemeral = ctx.weights((m, n), [s.values for s in specs])
        y1, mask = ctx.compose(ephemeral), ctx.compose(ephemeral, ctx.read_weights(token[np.newaxis]))
        assert y1.shape == mask.shape == (3, d, d)
        for spec, got_y1, got_mask in zip(specs, y1, mask):
            z = ctx.conjugate(spec)
            assert got_y1.tolist() == sandwich(z, ctx.generator.tolist(), m, n)
            assert got_mask.tolist() == sandwich(z, token.tolist(), m, n)

    def test_conjugate_dimension_mismatch(self):
        rng = RandomSource.deterministic(3)
        ctx = subgroup(rng, 4)
        with pytest.raises(ValueError):
            ctx.conjugate(DiagonalSpec((1, 2), 251))

    def test_random_elements_differ_across_seeds(self):
        basis = MatrixFp.random_invertible(RandomSource.deterministic(4), 8, 251)
        ctx = CommutingContext(basis, MatrixFp.identity(8, 251))
        a = ctx.random_element(RandomSource.deterministic(5))
        b = ctx.random_element(RandomSource.deterministic(6))
        assert a != b

    def test_random_element_invertible(self):
        rng = RandomSource.deterministic(7)
        ctx = subgroup(rng, 8)
        for _ in range(50):
            assert ctx.random_element(rng).det() != 0


class TestCommutation:
    def test_same_context_pairs_commute(self):
        rng = RandomSource.deterministic(8)
        ctx = subgroup(rng, 8)
        for _ in range(200):
            a = ctx.random_element(rng)
            b = ctx.random_element(rng)
            assert a @ b == b @ a

    def test_identity_commutes_with_anything(self):
        rng = RandomSource.deterministic(9)
        x = MatrixFp.random(rng, 8, 251)
        i = MatrixFp.identity(8, 251)
        assert x @ i == i @ x

    def test_random_outsider_rarely_commutes(self):
        rng = RandomSource.deterministic(10)
        ctx = subgroup(rng, 8)
        failures = 0
        for _ in range(100):
            a = ctx.random_element(rng)
            g = MatrixFp.random_invertible(rng, 8, 251)
            if a @ g != g @ a:
                failures += 1
        assert failures >= 99

    def test_products_stay_inside(self):
        rng = RandomSource.deterministic(11)
        ctx = subgroup(rng, 8)
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        ab, c = a @ b, ctx.random_element(rng)
        assert ab @ a == a @ ab
        assert ab @ c == c @ ab

    def test_powers_stay_inside(self):
        rng = RandomSource.deterministic(12)
        ctx = subgroup(rng, 8)
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        for k in (0, 1, 2, 17, 250):
            assert a.pow(k) @ b == b @ a.pow(k)


class TestMembership:
    def test_accepts_context_elements(self):
        rng = RandomSource.deterministic(13)
        ctx = subgroup(rng, 4)
        for _ in range(20):
            assert is_member(ctx, ctx.random_element(rng))

    def test_rejects_identity_scaled_outsider(self):
        rng = RandomSource.deterministic(14)
        ctx = subgroup(rng, 4)
        outsider = MatrixFp.random_invertible(rng, 4, 251)
        # overwhelmingly unlikely to share the eigenbasis
        assert not is_member(ctx, outsider)

    def test_accepts_identity(self):
        # the identity is a conjugated diagonal but with repeated eigenvalues;
        # membership checks diagonal-with-nonzero, not distinctness
        rng = RandomSource.deterministic(15)
        ctx = subgroup(rng, 4)
        assert is_member(ctx, MatrixFp.identity(4, 251))

    def test_rejects_singular_conjugate(self):
        rng = RandomSource.deterministic(16)
        ctx = subgroup(rng, 4)
        z = ctx.basis @ MatrixFp(np.diag([0, 1, 2, 3]), 251) @ ctx.basis_inv
        assert not is_member(ctx, z)

    def test_rejects_conjugate_with_one_off_diagonal_entry(self):
        rng = RandomSource.deterministic(17)
        ctx = subgroup(rng, 4)
        inner = MatrixFp([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 5], [0, 0, 0, 4]], 251)
        assert not is_member(ctx, ctx.basis @ inner @ ctx.basis_inv)


def support_components(g):
    """Connected components of the bipartite graph joining row i to column j
    where g[i][j] != 0, by union-find over the 2d nodes."""
    d = len(g)
    parent = list(range(2 * d))

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in product(range(d), repeat=2):
        if g[i][j]:
            parent[root(i)] = root(d + j)
    return len({root(a) for a in range(2 * d)})


def honest_stack(ctx, rng, n):
    """n sandwiches J^e1 G J^e2, each with its own element J of the context."""
    exponents = (rng.nonzero(ctx.p), rng.nonzero(ctx.p))
    eigenvalues = [DiagonalSpec.random(rng, ctx.d, ctx.p).values for _ in range(n)]
    return ctx.compose(ctx.weights(exponents, eigenvalues))


class TestReader:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_accepts_exactly_the_honest_set_at_d2(self, p):
        # every G in GL(2, p) against every 2x2 matrix, in eigenbasis
        # coordinates (P = I): the accepted set is {outer(u, v) ∘ G : u, v
        # nonzero}, of (p-1)**(2d - c) members for c components of G's support
        every = np.array(list(all_square_matrices(2, p)))
        code = every.reshape(-1, 4) @ p ** np.arange(4)  # one integer per matrix
        units = np.array(list(product(range(1, p), repeat=2)))
        outers = (units[:, np.newaxis, :, np.newaxis] * units[np.newaxis, :, np.newaxis, :]).reshape(-1, 2, 2)
        invertible = (every[:, 0, 0] * every[:, 1, 1] - every[:, 0, 1] * every[:, 1, 0]) % p != 0
        sizes = set()
        for g in every[invertible]:
            honest = np.unique((outers * g % p).reshape(-1, 4) @ p ** np.arange(4))
            assert len(honest) == (p - 1) ** (4 - support_components(g.tolist()))
            u, v, fits = read_outer(every, g, _forest_levels(g != 0), p)
            accepted = fits & (u != 0).all(axis=1) & (v != 0).all(axis=1)
            assert np.array_equal(np.sort(code[accepted]), honest)
            sizes.add(len(honest))
        assert sizes == {(p - 1) ** 3, (p - 1) ** 2}  # connected support, and diagonal or anti-diagonal

    @pytest.mark.parametrize("d, seed", [(8, 4), (8, 25), (8, 28), (16, 1), (16, 23), (16, 35)])
    def test_reads_honest_y1_where_the_generator_has_zeros(self, d, seed):
        # the session's G~ = P^-1 G P has a zero entry on these seeds, and
        # compose rebuilds each y1 from the weights read off it
        rng = RandomSource.deterministic(seed)
        alice, bob = handshake(*setup_shared(rng, d), rng)
        start_session(alice, bob)
        ctx = bob.context
        assert (ctx.to_eigenbasis(ctx.generator) == 0).any()
        y1, _ = alice.encrypt_blocks(np.zeros((20, d, d), np.int64), rng)
        u, v = ctx.read_weights(y1)
        assert u.shape == v.shape == (20, d)
        assert (u[:, 0] == 1).all() and (u != 0).all() and (v != 0).all()
        assert np.array_equal(ctx.compose((u, v)), y1)

    def test_one_free_scale_per_component(self):
        # G~ of two blocks, rows and columns 0-3 and 4-7: rows 0 and 4 read 1
        rng = RandomSource.deterministic(30)
        frame = subgroup(rng, 8)  # G is built in the eigenbasis of its basis
        inner = np.zeros((8, 8), np.int64)
        inner[:4, :4] = MatrixFp.random_invertible(rng, 4, 251).array
        inner[4:, 4:] = MatrixFp.random_invertible(rng, 4, 251).array
        inner[1, 2] = inner[6, 5] = 0
        ctx = CommutingContext(frame.basis, MatrixFp(frame._from_eigenbasis(inner), 251))
        assert support_components(ctx.to_eigenbasis(ctx.generator).tolist()) == 2
        stack = honest_stack(ctx, rng, 10)
        u, v = ctx.read_weights(stack)
        assert (u[:, [0, 4]] == 1).all()
        assert np.array_equal(ctx.compose((u, v)), stack)
        assert u[:, 1:4].any() and u[:, 5:].any()

    @pytest.mark.parametrize("bad, edit, why", [
        (0, "random", "is not a sandwich of the generator"),
        (3, "random", "is not a sandwich of the generator"),
        (9, "random", "is not a sandwich of the generator"),
        (3, "zero", "is singular"),
        (5, "one entry", "is not a sandwich of the generator"),
    ])
    def test_names_the_bad_member(self, bad, edit, why):
        rng = RandomSource.deterministic(31)
        ctx = CommutingContext(*(MatrixFp.random_invertible(rng, 8, 251) for _ in range(2)))
        stack = honest_stack(ctx, rng, 10)
        ctx.read_weights(stack)
        if edit == "random":
            stack[bad] = MatrixFp.random_invertible(rng, 8, 251).array
        elif edit == "zero":
            stack[bad] = 0
        else:
            stack[bad, 2, 5] = (stack[bad, 2, 5] + 1) % 251
        with pytest.raises(ProtocolError, match=f"^matrix {bad} of the stack {why}$"):
            ctx.read_weights(stack)

    def test_names_the_lowest_bad_member(self):
        rng = RandomSource.deterministic(32)
        ctx = CommutingContext(*(MatrixFp.random_invertible(rng, 8, 251) for _ in range(2)))
        stack = honest_stack(ctx, rng, 10)
        stack[7] = MatrixFp.random_invertible(rng, 8, 251).array
        stack[4] = 0
        with pytest.raises(ProtocolError, match="^matrix 4 of the stack is singular$"):
            ctx.read_weights(stack)
