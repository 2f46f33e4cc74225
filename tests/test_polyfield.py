import numpy as np
import pytest

from geg.errors import SingularMatrixError
from geg.field import RandomSource
from geg.linalg import MatrixFp

from factorint import factorize, is_probable_prime, pollard_rho
from gfpoly import (
    PolyFp,
    companion_matrix,
    count_irreducible_monic,
    count_monic_nontrivial,
    element_order,
    is_irreducible,
    rand_irreducible,
    rand_irreducible_counted,
)
from oracles import all_monic_polys, irreducible_by_trial_division


class TestPolyArithmetic:
    def test_canonical_form_strips_leading_zeros(self):
        f = PolyFp([1, 2, 0, 0], 5)
        assert f.coeffs == (1, 2)
        assert f.degree == 1

    def test_zero_polynomial(self):
        z = PolyFp([], 5)
        assert z.coeffs == () and z.degree == -1

    @pytest.mark.parametrize(
        "coeffs", [[0.5, 1.9, 1], ["3", True, 1], [1, None], [np.float64(2.0), 1], [np.bool_(1)]]
    )
    def test_non_integer_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError, match="integer coefficients required"):
            PolyFp(coeffs, 5)

    def test_python_and_numpy_integers_accepted(self):
        f = PolyFp([np.int64(7), np.uint8(3), 2**70, -1], 5)
        assert f.coeffs == (2, 3, 2**70 % 5, 4)


class TestIrreducibility:
    def test_x2_plus_1_reducible_over_f2(self):
        assert not is_irreducible(PolyFp([1, 0, 1], 2))  # (x+1)^2

    def test_x3_x_1_irreducible_over_f2(self):
        f = PolyFp([1, 1, 0, 1], 2)
        assert is_irreducible(f)
        assert irreducible_by_trial_division(list(f.coeffs), 2)

    def test_degree_one_always_irreducible(self):
        assert is_irreducible(PolyFp([3, 1], 5))

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(PolyFp([1, 2], 5))

    def test_modulus_above_byte_prime_rejected(self):
        # the tower runs on companion matrices, which hold byte-sized residues
        with pytest.raises(ValueError, match="p <= 251"):
            is_irreducible(PolyFp([1, 0, 1], 257))

    def test_modulus_above_byte_prime_refused_on_entry(self):
        # degree 1 needs no matrix, and a refused draw leaves the stream untouched
        with pytest.raises(ValueError, match="p <= 251"):
            is_irreducible(PolyFp([3, 1], 257))
        rng = RandomSource.deterministic(b"refused-257")
        with pytest.raises(ValueError, match="p <= 251"):
            rand_irreducible_counted(rng, 3, 257)
        assert rng.randbelow(2**30) == RandomSource.deterministic(b"refused-257").randbelow(2**30)

    @pytest.mark.parametrize(
        "p,d",
        [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (3, 3), (2, 5), (2, 6), (3, 4), (5, 3), (7, 2)],
    )
    def test_matches_trial_division_exhaustively(self, p, d):
        for coeffs in all_monic_polys(d, p):
            assert is_irreducible(PolyFp(coeffs, p)) == irreducible_by_trial_division(
                coeffs, p
            )

    def test_monic_cubics_over_f2_count(self):
        found = sum(is_irreducible(PolyFp(c, 2)) for c in all_monic_polys(3, 2))
        assert found == 2


class TestCounts:
    @pytest.mark.parametrize(
        "p,d,expected",
        [(2, 1, 2), (2, 2, 1), (2, 3, 2), (2, 4, 3), (3, 2, 3), (5, 2, 10)],
    )
    def test_known_counts(self, p, d, expected):
        assert count_irreducible_monic(d, p) == expected

    @pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)])
    def test_matches_exhaustive_scan(self, p, d):
        scan = sum(
            irreducible_by_trial_division(c, p) for c in all_monic_polys(d, p)
        )
        assert count_irreducible_monic(d, p) == scan

    @pytest.mark.parametrize("count", [count_irreducible_monic, count_monic_nontrivial])
    def test_non_prime_modulus_rejected(self, count):
        with pytest.raises(ValueError, match="must be prime"):
            count(2, 4)

    def test_nontrivial_monic_count(self):
        assert count_monic_nontrivial(3, 2) == 6
        assert count_monic_nontrivial(8, 251) == 251**8 - 2

    def test_counts_consistent(self):
        for p, d in [(2, 3), (3, 2), (5, 2), (251, 8)]:
            assert count_irreducible_monic(d, p) <= count_monic_nontrivial(d, p) // d + 1


class TestRandIrreducible:
    def test_output_is_irreducible(self):
        rng = RandomSource.deterministic(3)
        for _ in range(20):
            f = rand_irreducible(rng, 4, 7)
            assert is_irreducible(f)
            assert f.is_monic and f.degree == 4

    def test_constant_term_nonzero(self):
        rng = RandomSource.deterministic(4)
        for _ in range(20):
            assert rand_irreducible(rng, 3, 5).coeffs[0] != 0

    def test_trial_count_near_degree(self):
        rng = RandomSource.deterministic(5)
        runs = 200
        total = sum(rand_irreducible_counted(rng, 8, 251)[1] for _ in range(runs))
        assert 6.0 <= total / runs <= 10.0

    # the first 20 seeded draws of each stream, then the stream's next randbelow(2**30)
    SEEDED_DRAWS = {
        (8, 251): (b"pin-rand-irreducible-8", [
            (106, 103, 77, 225, 31, 149, 81, 196, 1), (71, 40, 143, 106, 137, 170, 186, 161, 1),
            (215, 161, 170, 190, 7, 28, 203, 176, 1), (117, 207, 5, 238, 132, 233, 211, 18, 1),
            (192, 205, 171, 159, 55, 192, 238, 36, 1), (131, 115, 152, 239, 4, 236, 247, 95, 1),
            (197, 196, 241, 67, 191, 52, 57, 124, 1), (234, 92, 174, 99, 78, 199, 143, 74, 1),
            (19, 232, 231, 246, 87, 176, 68, 137, 1), (207, 138, 64, 226, 65, 66, 248, 237, 1),
            (107, 68, 157, 86, 192, 31, 76, 12, 1), (30, 199, 57, 195, 233, 106, 11, 105, 1),
            (230, 51, 11, 244, 127, 143, 137, 70, 1), (249, 63, 222, 148, 233, 179, 108, 130, 1),
            (232, 12, 232, 50, 56, 227, 193, 111, 1), (191, 250, 153, 91, 23, 18, 131, 28, 1),
            (229, 93, 187, 19, 148, 79, 73, 51, 1), (81, 57, 164, 14, 207, 189, 47, 201, 1),
            (221, 94, 204, 225, 91, 71, 156, 217, 1), (240, 7, 196, 29, 10, 32, 86, 229, 1),
        ], 226579266),
        (4, 7): (b"pin-rand-irreducible-4", [
            (6, 6, 1, 5, 1), (5, 3, 3, 0, 1), (4, 1, 3, 6, 1), (2, 6, 4, 0, 1), (4, 4, 5, 5, 1),
            (2, 3, 6, 4, 1), (5, 5, 0, 5, 1), (4, 2, 2, 2, 1), (4, 3, 1, 2, 1), (4, 3, 3, 0, 1),
            (2, 1, 4, 5, 1), (3, 2, 3, 2, 1), (4, 0, 4, 4, 1), (4, 1, 6, 5, 1), (2, 3, 5, 6, 1),
            (5, 5, 3, 1, 1), (2, 5, 4, 4, 1), (5, 3, 5, 3, 1), (3, 2, 5, 4, 1), (4, 2, 3, 3, 1),
        ], 537041917),
    }

    @pytest.mark.parametrize("d,p", sorted(SEEDED_DRAWS))
    def test_seeded_draws_and_stream_position(self, d, p):
        seed, draws, next_draw = self.SEEDED_DRAWS[d, p]
        rng = RandomSource.deterministic(seed)
        assert [rand_irreducible(rng, d, p).coeffs for _ in range(20)] == draws
        assert rng.randbelow(2**30) == next_draw

    def test_f2_cubics_equidistributed(self):
        rng = RandomSource.deterministic(6)
        hits = {}
        n = 10_000
        for _ in range(n):
            f = rand_irreducible(rng, 3, 2)
            hits[f.coeffs] = hits.get(f.coeffs, 0) + 1
        assert set(hits) == {(1, 1, 0, 1), (1, 0, 1, 1)}
        for count in hits.values():
            assert abs(count / n - 0.5) < 0.05


class TestElementOrder:
    def test_identity_has_order_one(self):
        assert element_order(MatrixFp.identity(3, 5)) == 1

    def test_primitive_cubic_over_f2(self):
        c = companion_matrix(PolyFp([1, 1, 0, 1], 2))
        assert element_order(c) == 7

    def test_brute_force_agreement_small(self):
        # companion of every irreducible quadratic over F_5: order by naive powering
        for coeffs in all_monic_polys(2, 5):
            f = PolyFp(coeffs, 5)
            if not is_irreducible(f):
                continue
            c = companion_matrix(f)
            ident = MatrixFp.identity(2, 5)
            acc = c
            naive = 1
            while acc != ident:
                acc = acc @ c
                naive += 1
            assert element_order(c) == naive

    def test_order_divides_group_order(self):
        rng = RandomSource.deterministic(8)
        for _ in range(10):
            f = rand_irreducible(rng, 8, 251)
            assert (251**8 - 1) % element_order(companion_matrix(f)) == 0

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            element_order(MatrixFp([[0, 0], [0, 0]], 5))

    def test_polynomial_rejected(self):
        with pytest.raises(TypeError):
            element_order(PolyFp([1, 1, 0, 1], 2))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            element_order(MatrixFp.identity(16, 251))

    def test_order_when_group_order_needs_rho(self):
        # 173**7 - 1 keeps a composite cofactor above the trial-division bound
        f = rand_irreducible(RandomSource.deterministic(173), 7, 173)
        c = companion_matrix(f)
        order = element_order(c)
        assert (173**7 - 1) % order == 0
        assert c.pow(order) == MatrixFp.identity(7, 173)


class TestFactorint:
    def test_known_factorization(self):
        assert factorize(2**5 * 3**2 * 17) == {2: 5, 3: 2, 17: 1}
        assert factorize(1) == {}

    def test_full_default_group_order(self):
        n = 251**8 - 1
        fs = factorize(n)
        prod = 1
        for q, e in fs.items():
            assert is_probable_prime(q)
            prod *= q**e
        assert prod == n

    def test_composite_cofactor_split_by_rho(self):
        # after trial division 3144079 * 8576317 remains, both above the bound
        assert factorize(173**7 - 1) == {2: 2, 43: 1, 3144079: 1, 8576317: 1}

    def test_rho_splits_large_semiprime(self):
        # both factors above the trial-division bound
        n = 1_000_003 * 1_000_033
        d = pollard_rho(n)
        assert d in (1_000_003, 1_000_033)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 2**61 - 1])
    def test_rho_rejects_non_composite(self, n):
        with pytest.raises(ValueError, match="composite"):
            pollard_rho(n)

    def test_probable_prime_small_range(self):
        sieve = [True] * 2000
        sieve[0] = sieve[1] = False
        for i in range(2, 2000):
            if sieve[i]:
                for j in range(2 * i, 2000, i):
                    sieve[j] = False
        for n in range(2000):
            assert is_probable_prime(n) == sieve[n]
