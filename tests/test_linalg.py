import numpy as np
import pytest

from geg.errors import SingularMatrixError
from geg.field import RandomSource
from geg.linalg import MatrixFp, det_stack, inv_stack, product_mod

from gfpoly import PolyFp, companion_matrix
from oracles import (
    all_square_matrices,
    charpoly_by_cofactor,
    charpoly_by_interpolation,
    naive_det,
    naive_inv,
    naive_matmul,
    naive_matpow,
)


def rand_mat(rng, d=8, p=251):
    return MatrixFp.random(rng, d, p)


class TestConstruction:
    def test_canonicalizes_entries(self):
        m = MatrixFp([[252, -1], [3, 5]], 251)
        assert m.tolist() == [[1, 250], [3, 5]]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            MatrixFp([[1, 2, 3], [4, 5, 6]], 5)

    def test_rejects_d_below_two(self):
        with pytest.raises(ValueError):
            MatrixFp([[1]], 5)

    @pytest.mark.parametrize("entries", [
        [[0.5, 1.9], [1, 1]],
        [["1", "2"], ["3", "4"]],
        [[True, False], [False, True]],
        np.eye(2),
    ])
    def test_rejects_non_integer_entries(self, entries):
        with pytest.raises(ValueError, match="integer entries"):
            MatrixFp(entries, 251)

    def test_reads_every_integer_dtype_exactly(self):
        # through int64, 2**63 + 5 would wrap and reduce to 96, not 165
        big = np.array([[2**63 + 5, 0], [0, 2**64 - 1]], dtype=np.uint64)
        assert MatrixFp(big, 251).tolist() == [[(2**63 + 5) % 251, 0], [0, (2**64 - 1) % 251]]
        assert MatrixFp(np.array([[-3, 0], [0, 127]], dtype=np.int8), 251).tolist() == [
            [248, 0], [0, 127]]

    def test_rejects_oversized_modulus(self):
        with pytest.raises(ValueError):
            MatrixFp([[1, 0], [0, 1]], 257)

    def test_identity(self):
        assert MatrixFp.identity(3, 5).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_array_is_read_only(self):
        m = MatrixFp.identity(2, 5)
        with pytest.raises(ValueError):
            m.array[0, 0] = 3


class TestMul:
    def test_identity_neutral(self):
        rng = RandomSource.deterministic(0)
        x = rand_mat(rng)
        i = MatrixFp.identity(8, 251)
        assert i @ x == x
        assert x @ i == x

    def test_times_inverse_is_identity(self):
        rng = RandomSource.deterministic(1)
        for _ in range(20):
            x = MatrixFp.random_invertible(rng, 8, 251)
            assert x @ x.inv() == MatrixFp.identity(8, 251)
            assert x.inv() @ x == MatrixFp.identity(8, 251)

    def test_matches_naive_oracle_f5(self):
        rng = RandomSource.deterministic(2)
        for _ in range(50):
            a = MatrixFp.random(rng, 2, 5)
            b = MatrixFp.random(rng, 2, 5)
            assert (a @ b).tolist() == naive_matmul(a.tolist(), b.tolist(), 5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MatrixFp.identity(2, 5) @ MatrixFp.identity(3, 5)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            MatrixFp.identity(2, 5) @ MatrixFp.identity(2, 7)

    @pytest.mark.parametrize("other", [np.eye(2, dtype=np.int64), [[1, 0], [0, 1]], 3])
    def test_non_matrix_operand_refused(self, other):
        with pytest.raises(TypeError, match="MatrixFp required"):
            MatrixFp.identity(2, 5) @ other

    def test_associativity_random(self):
        rng = RandomSource.deterministic(3)
        for _ in range(20):
            a, b, c = (rand_mat(rng) for _ in range(3))
            assert (a @ b) @ c == a @ (b @ c)


class TestInvDet:
    def test_identity_inverse(self):
        i = MatrixFp.identity(8)
        assert i.inv() == i
        assert i.det() == 1

    def test_diagonal_inverse(self):
        vals = [3, 7, 11, 250]
        m = MatrixFp(np.diag(vals), 251)
        inv_vals = [pow(v, 249, 251) for v in vals]
        assert m.inv() == MatrixFp(np.diag(inv_vals), 251)

    def test_diagonal_det_is_product(self):
        vals = [2, 5, 9]
        m = MatrixFp(np.diag(vals), 11)
        assert m.det() == 2 * 5 * 9 % 11

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            MatrixFp([[1, 2], [2, 4]], 5).inv()

    def test_exhaustive_gl2_f3_double_inverse(self):
        invertible = 0
        for rows in all_square_matrices(2, 3):
            m = MatrixFp(rows, 3)
            if m.det() != 0:
                invertible += 1
                assert m.inv().inv() == m
        assert invertible == 48

    def test_det_matches_ad_minus_bc_exhaustive_f5(self):
        for rows in all_square_matrices(2, 5):
            m = MatrixFp(rows, 5)
            assert m.det() == (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % 5

    def test_det_matches_cofactor_oracle_d3(self):
        rng = RandomSource.deterministic(4)
        for _ in range(60):
            m = MatrixFp.random(rng, 3, 7)
            assert m.det() == naive_det(m.tolist(), 7)

    def test_det_multiplicative(self):
        rng = RandomSource.deterministic(5)
        for _ in range(30):
            a, b = rand_mat(rng), rand_mat(rng)
            assert (a @ b).det() == a.det() * b.det() % 251

    def test_inverse_matches_exhaustive_search_f3(self):
        # every invertible 2x2 over F_3: inverse found by brute scan agrees
        all_f3 = [MatrixFp(rows, 3) for rows in all_square_matrices(2, 3)]
        mats = [m for m in all_f3 if m.det() != 0]
        ident = MatrixFp.identity(2, 3)
        for m in mats:
            brute = next(x for x in all_f3 if m @ x == ident)
            assert m.inv() == brute


class TestInvStack:
    def test_exhaustive_gl2_f3_matches_naive(self):
        # every invertible 2x2 over F_3 in one stack: the 12 with a zero top-left entry need a row swap
        rows = [r for r in all_square_matrices(2, 3) if naive_inv(r, 3) is not None]
        assert len(rows) == 48
        assert inv_stack(rows, 3).tolist() == [naive_inv(r, 3) for r in rows]

    @pytest.mark.parametrize("d, p", [(3, 5), (4, 7), (8, 251), (16, 251)])
    def test_random_stack_matches_naive(self, d, p):
        rng = RandomSource.deterministic(d * p)
        rows = [MatrixFp.random(rng, d, p).tolist() for _ in range(60)]
        rows = [r for r in rows if naive_inv(r, p) is not None]
        assert inv_stack(rows, p).tolist() == [naive_inv(r, p) for r in rows]

    @pytest.mark.parametrize("index", [0, 17, 39])
    def test_one_singular_matrix_fails_the_stack(self, index):
        rng = RandomSource.deterministic(index)
        stack = [MatrixFp.random_invertible(rng, 8, 251).tolist() for _ in range(40)]
        stack[index][3] = stack[index][5]  # two equal rows
        assert naive_inv(stack[index], 251) is None
        with pytest.raises(SingularMatrixError, match=f"matrix {index} of the stack"):
            inv_stack(stack, 251)

    def test_names_lowest_singular_index_not_earliest_column(self):
        # matrix 2 has no pivot only in its last column, matrix 5 already in its first
        rng = RandomSource.deterministic(99)
        stack = [MatrixFp.random_invertible(rng, 8, 251).tolist() for _ in range(8)]
        stack[2][7] = stack[2][6]
        for row in stack[5]:
            row[0] = 0
        with pytest.raises(SingularMatrixError, match="matrix 2 of the stack"):
            inv_stack(stack, 251)

    def test_reads_every_integer_dtype_exactly(self):
        # a cast would truncate 2.7 to 2 and invert that (126); through int64,
        # uint64 entries above 2**63 would wrap before the reduction
        with pytest.raises(ValueError, match="integer entries"):
            inv_stack([[[2.7, 0], [0, 1]]], 251)
        big = np.array([[[2**63 + 5, 0], [0, 1]]], dtype=np.uint64)
        assert int(inv_stack(big, 251)[0, 0, 0]) * (2**63 + 5) % 251 == 1
        small = np.array([[[-3, 0], [0, 1]]], dtype=np.int8)  # int8 % 251 overflows in numpy 2
        assert inv_stack(small, 251)[0, 0, 0] * 248 % 251 == 1


def int64_chain(factors, p):
    """The product of a chain in int64, reduced after every product."""
    product = np.asarray(factors[0], dtype=np.int64) % p
    for factor in factors[1:]:
        product = product @ np.asarray(factor, dtype=np.int64) % p
    return product


class TestProductMod:
    # the chains the cipher multiplies: y2 @ mask (two stacks), a change of
    # basis (matrix, stack, matrix) and the unmask (stack, matrix, stack, matrix)
    CHAINS = {"stack-stack": "SS", "basis-change": "MSM", "unmask": "SMSM"}

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @pytest.mark.parametrize("d", [8, 16])
    def test_matches_int64_on_random_stacks(self, d, chain):
        rng = np.random.default_rng(d)
        shapes = {"S": (40, d, d), "M": (d, d)}
        factors = [rng.integers(0, 251, shapes[kind]).astype(np.uint8) for kind in self.CHAINS[chain]]
        got = product_mod(factors, 251)
        assert got.dtype == np.int64
        assert np.array_equal(got, int64_chain(factors, 251))

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @pytest.mark.parametrize("d", [8, 16])
    def test_matches_int64_on_all_p_minus_one(self, d, chain):
        # the largest sums: every entry 250, d**(k-1) * 250**k before reduction
        factors = [np.full((3, d, d) if kind == "S" else (d, d), 250) for kind in self.CHAINS[chain]]
        assert np.array_equal(product_mod(factors, 251), int64_chain(factors, 251))

    def test_reduces_within_a_long_chain(self):
        # 64**5 * 250**6 passes 2**53, so this chain is reduced on the way
        factors = [np.full((64, 64), 250)] * 6 + [np.arange(64 * 64).reshape(64, 64) % 251]
        assert np.array_equal(product_mod(factors, 251), int64_chain(factors, 251))

    @pytest.mark.parametrize("width, p", [(2, 2**31 - 1), (2**38, 251)])
    def test_refuses_a_width_float64_cannot_hold(self, width, p):
        # width * (p-1)**2 >= 2**53; the zero-stride views allocate nothing
        wide = np.broadcast_to(np.zeros((1, 1), np.uint8), (2, width))
        tall = np.broadcast_to(np.zeros((1, 1), np.uint8), (width, 2))
        with pytest.raises(ValueError, match=f"width {width} mod {p} is not exact"):
            product_mod([wide, tall], p)


class TestDetStack:
    @pytest.mark.parametrize("p", [2, 3, 7, 251])
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_mixed_stack_matches_cofactor_oracle(self, d, p):
        rng = RandomSource.deterministic(1000 * d + p)
        stack = [MatrixFp.random(rng, d, p).tolist() for _ in range(30 if d < 8 else 2)]
        stack += [MatrixFp.random_invertible(rng, d, p).tolist() for _ in range(2)]
        equal_rows, zero_column, combined = (MatrixFp.random(rng, d, p).tolist() for _ in range(3))
        equal_rows[d - 1] = equal_rows[0]
        for row in zero_column:
            row[0] = 0
        combined[d - 1] = [(a + 3 * b) % p for a, b in zip(combined[0], combined[1])]
        stack = [equal_rows] + stack + [zero_column, combined]
        dets = det_stack(stack, p).tolist()
        assert dets == [naive_det(m, p) for m in stack]
        assert 0 in dets and any(dets)
        assert [MatrixFp(m, p).det() for m in stack] == dets

    def test_reads_every_integer_dtype_exactly(self):
        # a cast would truncate 1.9 to 1; through int64, 2**63 + 5 would read as 96
        with pytest.raises(ValueError, match="integer entries"):
            det_stack([[[1.9, 0], [0, 1]]], 251)
        big = np.array([[[2**63 + 5, 0], [0, 1]]], dtype=np.uint64)
        assert det_stack(big, 251).tolist() == [(2**63 + 5) % 251]
        assert det_stack(np.array([[[-3, 0], [0, 1]]], dtype=np.int8), 251).tolist() == [248]

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError):
            det_stack(np.zeros((2, 3, 4), dtype=np.int64), 251)


class TestPow:
    def test_power_zero_is_identity(self):
        rng = RandomSource.deterministic(6)
        assert rand_mat(rng).pow(0) == MatrixFp.identity(8)

    def test_power_one(self):
        rng = RandomSource.deterministic(7)
        x = rand_mat(rng)
        assert x.pow(1) == x

    def test_power_five_matches_naive(self):
        rng = RandomSource.deterministic(8)
        x = MatrixFp.random(rng, 3, 7)
        assert x.pow(5).tolist() == naive_matpow(x.tolist(), 5, 7)

    def test_power_addition_law(self):
        rng = RandomSource.deterministic(9)
        x = rand_mat(rng)
        for m, n in [(0, 3), (2, 5), (17, 40), (123, 250)]:
            assert x.pow(m + n) == x.pow(m) @ x.pow(n)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MatrixFp.identity(2, 5).pow(-1)


class TestRandom:
    def test_random_invertible_contract(self):
        rng = RandomSource.deterministic(10)
        for _ in range(50):
            assert MatrixFp.random_invertible(rng, 8, 251).det() != 0

    def test_deterministic_seed_reproducible(self):
        a = MatrixFp.random_invertible(RandomSource.deterministic(b"m"), 8, 251)
        b = MatrixFp.random_invertible(RandomSource.deterministic(b"m"), 8, 251)
        assert a == b


class TestCompanion:
    def test_known_form_x2_plus_1_f3(self):
        f = PolyFp([1, 0, 1], 3)  # x^2 + 1
        assert companion_matrix(f).tolist() == [[0, 2], [1, 0]]

    def test_charpoly_roundtrip_small(self):
        # char poly of companion(f) recovers f; cofactor oracle over F_2/F_3
        for coeffs, p in [([1, 1, 0, 1], 2), ([1, 0, 1], 3), ([2, 1, 0, 1], 3)]:
            f = PolyFp(coeffs, p)
            c = companion_matrix(f)
            assert charpoly_by_cofactor(c.tolist(), p) == list(f.coeffs)

    def test_charpoly_roundtrip_random(self):
        rng = RandomSource.deterministic(11)
        for d, p, n in [(2, 251, 40), (3, 251, 40), (8, 251, 20)]:
            for _ in range(n):
                coeffs = [rng.randbelow(p) for _ in range(d)] + [1]
                f = PolyFp(coeffs, p)
                c = companion_matrix(f)
                assert charpoly_by_interpolation(c.tolist(), p) == list(f.coeffs)

    def test_nonzero_constant_term_invertible(self):
        f = PolyFp([3, 1, 0, 1], 5)
        assert companion_matrix(f).det() != 0

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            companion_matrix(PolyFp([1, 2], 5))
