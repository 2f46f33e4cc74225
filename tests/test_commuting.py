import numpy as np
import pytest

from geg.commuting import CommutingContext, DiagonalSpec
from geg.errors import GegError, SingularMatrixError
from geg.field import RandomSource
from geg.linalg import MatrixFp

from gsdp import is_member
from oracles import naive_matpow


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
        with pytest.raises(SingularMatrixError, match="basis is singular"):
            CommutingContext(MatrixFp([[1, 1], [1, 1]], 5))

    def test_cached_inverse_valid(self):
        rng = RandomSource.deterministic(1)
        ctx = CommutingContext(MatrixFp.random_invertible(rng, 8, 251))
        assert ctx.basis @ ctx.basis_inv == MatrixFp.identity(8, 251)

    def test_wrong_inverse_raises_without_assert(self, monkeypatch):
        # an explicit check, so it still runs under `python -O`
        basis = MatrixFp([[1, 1], [0, 1]], 5)
        monkeypatch.setattr(MatrixFp, "inv", lambda self: self)
        with pytest.raises(GegError, match="inverse"):
            CommutingContext(basis)

    def test_conjugate_preserves_det_and_trace(self):
        rng = RandomSource.deterministic(2)
        ctx = CommutingContext(MatrixFp.random_invertible(rng, 8, 251))
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
        ctx = CommutingContext(MatrixFp.random_invertible(rng, d, 251))
        spec = DiagonalSpec.random(rng, d, 251)
        element = ctx.conjugate(spec)
        for e in (0, 1, 2, 125, 249, 250, 251, 1000):
            assert element.pow(e).tolist() == naive_matpow(element.tolist(), e, 251)
        assert {pow(v, 125, 251) for v in spec.values} == {1, 250}

    @pytest.mark.parametrize("d", [8, 16])
    def test_sandwich_matches_matrix_powers(self, d):
        # a stack of x against a stack of eigenvalue lists, (N, 2, d, d) by
        # (N, 1, d), as the cipher calls it: block i uses the i-th list
        rng = RandomSource.deterministic(bytes([d, 1]))
        ctx = CommutingContext(MatrixFp.random_invertible(rng, d, 251))
        specs = [DiagonalSpec.random(rng, d, 251) for _ in range(3)]
        pair = [MatrixFp.random(rng, d, 251) for _ in range(2)]
        exponents = (rng.nonzero(251), rng.nonzero(251))
        out = ctx.sandwich(np.stack(pair), exponents, [[s.values] for s in specs])
        assert out.shape == (3, 2, d, d)
        for spec, block in zip(specs, out):
            z = ctx.conjugate(spec)
            for x, got in zip(pair, block):
                assert got.tolist() == (z.pow(exponents[0]) @ x @ z.pow(exponents[1])).tolist()

    def test_conjugate_dimension_mismatch(self):
        rng = RandomSource.deterministic(3)
        ctx = CommutingContext(MatrixFp.random_invertible(rng, 4, 251))
        with pytest.raises(ValueError):
            ctx.conjugate(DiagonalSpec((1, 2), 251))

    def test_random_elements_differ_across_seeds(self):
        basis = MatrixFp.random_invertible(RandomSource.deterministic(4), 8, 251)
        ctx = CommutingContext(basis)
        a = ctx.random_element(RandomSource.deterministic(5))
        b = ctx.random_element(RandomSource.deterministic(6))
        assert a != b

    def test_random_element_invertible(self):
        rng = RandomSource.deterministic(7)
        ctx = CommutingContext(MatrixFp.random_invertible(rng, 8, 251))
        for _ in range(50):
            assert ctx.random_element(rng).det() != 0


class TestCommutation:
    def test_same_context_pairs_commute(self):
        rng = RandomSource.deterministic(8)
        ctx = CommutingContext(MatrixFp.random_invertible(rng, 8, 251))
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
        ctx = CommutingContext(MatrixFp.random_invertible(rng, 8, 251))
        failures = 0
        for _ in range(100):
            a = ctx.random_element(rng)
            g = MatrixFp.random_invertible(rng, 8, 251)
            if a @ g != g @ a:
                failures += 1
        assert failures >= 99

    def test_products_stay_inside(self):
        rng = RandomSource.deterministic(11)
        ctx = CommutingContext(MatrixFp.random_invertible(rng, 8, 251))
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        ab, c = a @ b, ctx.random_element(rng)
        assert ab @ a == a @ ab
        assert ab @ c == c @ ab

    def test_powers_stay_inside(self):
        rng = RandomSource.deterministic(12)
        ctx = CommutingContext(MatrixFp.random_invertible(rng, 8, 251))
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        for k in (0, 1, 2, 17, 250):
            assert a.pow(k) @ b == b @ a.pow(k)


class TestMembership:
    def test_accepts_context_elements(self):
        rng = RandomSource.deterministic(13)
        ctx = CommutingContext(MatrixFp.random_invertible(rng, 4, 251))
        for _ in range(20):
            assert is_member(ctx, ctx.random_element(rng))

    def test_rejects_identity_scaled_outsider(self):
        rng = RandomSource.deterministic(14)
        ctx = CommutingContext(MatrixFp.random_invertible(rng, 4, 251))
        outsider = MatrixFp.random_invertible(rng, 4, 251)
        # overwhelmingly unlikely to share the eigenbasis
        assert not is_member(ctx, outsider)

    def test_accepts_identity(self):
        # the identity is a conjugated diagonal but with repeated eigenvalues;
        # membership checks diagonal-with-nonzero, not distinctness
        rng = RandomSource.deterministic(15)
        ctx = CommutingContext(MatrixFp.random_invertible(rng, 4, 251))
        assert is_member(ctx, MatrixFp.identity(4, 251))

    def test_rejects_singular_conjugate(self):
        rng = RandomSource.deterministic(16)
        ctx = CommutingContext(MatrixFp.random_invertible(rng, 4, 251))
        z = ctx.basis @ MatrixFp(np.diag([0, 1, 2, 3]), 251) @ ctx.basis_inv
        assert not is_member(ctx, z)

    def test_rejects_conjugate_with_one_off_diagonal_entry(self):
        rng = RandomSource.deterministic(17)
        ctx = CommutingContext(MatrixFp.random_invertible(rng, 4, 251))
        inner = MatrixFp([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 5], [0, 0, 0, 4]], 251)
        assert not is_member(ctx, ctx.basis @ inner @ ctx.basis_inv)
