import numpy as np
import pytest

from geg.commuting import CommutingContext, DiagonalSpec, commutes
from geg.errors import GegError, SingularMatrixError
from geg.field import RandomSource
from geg.linalg import MatrixFp

from oracles import naive_matpow


class TestDiagonalSpec:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            DiagonalSpec((1, 0, 3), 5)

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            DiagonalSpec((2, 2), 5)

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
        with pytest.raises(SingularMatrixError):
            CommutingContext(MatrixFp([[1, 1], [1, 1]], 5))

    def test_cached_inverse_valid(self):
        rng = RandomSource.deterministic(1)
        ctx = CommutingContext.random(rng, 8, 251)
        assert ctx.basis @ ctx.basis_inv == MatrixFp.identity(8, 251)

    def test_wrong_inverse_raises_without_assert(self, monkeypatch):
        # an explicit check, so it still runs under `python -O`
        basis = MatrixFp([[1, 1], [0, 1]], 5)
        monkeypatch.setattr(MatrixFp, "inv", lambda self: self)
        with pytest.raises(GegError, match="inverse"):
            CommutingContext(basis)

    def test_conjugate_preserves_det_and_trace(self):
        rng = RandomSource.deterministic(2)
        ctx = CommutingContext.random(rng, 8, 251)
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
        ctx = CommutingContext.random(rng, d, 251)
        spec = DiagonalSpec.random(rng, d, 251)
        element = ctx.conjugate(spec)
        for e in (0, 1, 2, 125, 249, 250, 251, 1000):
            assert element.pow(e).tolist() == naive_matpow(element.tolist(), e, 251)
        assert {pow(v, 125, 251) for v in spec.values} == {1, 250}

    def test_conjugate_dimension_mismatch(self):
        rng = RandomSource.deterministic(3)
        ctx = CommutingContext.random(rng, 4, 251)
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
        ctx = CommutingContext.random(rng, 8, 251)
        for _ in range(50):
            assert ctx.random_element(rng).det() != 0


class TestCommutation:
    def test_same_context_pairs_commute(self):
        rng = RandomSource.deterministic(8)
        ctx = CommutingContext.random(rng, 8, 251)
        for _ in range(200):
            a = ctx.random_element(rng)
            b = ctx.random_element(rng)
            assert a @ b == b @ a

    def test_identity_commutes_with_anything(self):
        rng = RandomSource.deterministic(9)
        x = MatrixFp.random(rng, 8, 251)
        assert commutes(x, MatrixFp.identity(8, 251))

    def test_random_outsider_rarely_commutes(self):
        rng = RandomSource.deterministic(10)
        ctx = CommutingContext.random(rng, 8, 251)
        failures = 0
        for _ in range(100):
            a = ctx.random_element(rng)
            g = MatrixFp.random_invertible(rng, 8, 251)
            if not commutes(a, g):
                failures += 1
        assert failures >= 99

    def test_products_stay_inside(self):
        rng = RandomSource.deterministic(11)
        ctx = CommutingContext.random(rng, 8, 251)
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        assert commutes(a @ b, a)
        assert commutes(a @ b, ctx.random_element(rng))

    def test_powers_stay_inside(self):
        rng = RandomSource.deterministic(12)
        ctx = CommutingContext.random(rng, 8, 251)
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        for k in (0, 1, 2, 17, 250):
            assert commutes(a.pow(k), b)


class TestMembership:
    def test_accepts_context_elements(self):
        rng = RandomSource.deterministic(13)
        ctx = CommutingContext.random(rng, 4, 251)
        for _ in range(20):
            assert ctx.is_member(ctx.random_element(rng))

    def test_rejects_identity_scaled_outsider(self):
        rng = RandomSource.deterministic(14)
        ctx = CommutingContext.random(rng, 4, 251)
        outsider = MatrixFp.random_invertible(rng, 4, 251)
        # overwhelmingly unlikely to share the eigenbasis
        assert not ctx.is_member(outsider)

    def test_accepts_identity(self):
        # the identity is a conjugated diagonal but with repeated eigenvalues;
        # membership checks diagonal-with-nonzero, not distinctness
        rng = RandomSource.deterministic(15)
        ctx = CommutingContext.random(rng, 4, 251)
        assert ctx.is_member(MatrixFp.identity(4, 251))

    def test_rejects_singular_conjugate(self):
        rng = RandomSource.deterministic(16)
        ctx = CommutingContext.random(rng, 4, 251)
        z = ctx.basis @ MatrixFp.diagonal([0, 1, 2, 3], 251) @ ctx.basis_inv
        assert not ctx.is_member(z)

    def test_rejects_conjugate_with_one_off_diagonal_entry(self):
        rng = RandomSource.deterministic(17)
        ctx = CommutingContext.random(rng, 4, 251)
        inner = MatrixFp([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 5], [0, 0, 0, 4]], 251)
        assert not ctx.is_member(ctx.basis @ inner @ ctx.basis_inv)
