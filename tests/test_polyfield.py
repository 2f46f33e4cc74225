import pytest

from geg.errors import SingularMatrixError
from geg.factorint import factorize, is_probable_prime, pollard_rho
from geg.field import RandomSource
from geg.linalg import MatrixFp, companion_matrix
from geg.polyfield import (
    PolyFp,
    count_irreducible_monic,
    count_monic_nontrivial,
    element_order,
    is_irreducible,
    poly_gcd,
    pow_mod,
    rand_irreducible,
    rand_irreducible_counted,
)

from oracles import (
    all_monic_polys,
    irreducible_by_trial_division,
    poly_mod_lists,
    poly_mul_lists,
)


class TestPolyArithmetic:
    def test_canonical_form_strips_leading_zeros(self):
        f = PolyFp([1, 2, 0, 0], 5)
        assert f.coeffs == (1, 2)
        assert f.degree == 1

    def test_zero_polynomial(self):
        z = PolyFp([], 5)
        assert z.is_zero and z.degree == -1

    def test_mul_char2_identity(self):
        f = PolyFp([1, 1], 2)  # x + 1
        assert (f * f).coeffs == (1, 0, 1)  # x^2 + 1

    def test_mod_known_value(self):
        # x^3 mod (x^2 + 1) over F_3 is 2x
        r = PolyFp([0, 0, 0, 1], 3) % PolyFp([1, 0, 1], 3)
        assert r.coeffs == (0, 2)

    def test_mul_matches_list_oracle(self):
        rng = RandomSource.deterministic(1)
        for _ in range(60):
            a = PolyFp([rng.randbelow(7) for _ in range(5)], 7)
            b = PolyFp([rng.randbelow(7) for _ in range(4)], 7)
            assert list((a * b).coeffs) == poly_mul_lists(list(a.coeffs), list(b.coeffs), 7)

    def test_divmod_matches_list_oracle(self):
        rng = RandomSource.deterministic(2)
        for _ in range(60):
            a = PolyFp([rng.randbelow(11) for _ in range(7)], 11)
            b = PolyFp([rng.randbelow(11) for _ in range(3)] + [1], 11)
            q, r = divmod(a, b)
            assert list(r.coeffs) == poly_mod_lists(list(a.coeffs), list(b.coeffs), 11)
            assert q * b + r == a

    def test_mod_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            PolyFp([1, 1], 5) % PolyFp([], 5)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            PolyFp([1], 5) + PolyFp([1], 7)

    def test_gcd_of_self_is_monic_self(self):
        f = PolyFp([2, 4, 3], 5)
        assert poly_gcd(f, f) == f.monic()
        assert poly_gcd(f, f).is_monic

    def test_gcd_known(self):
        # (x+1)^2 and (x+1)(x+2) over F_5 share x+1
        a = PolyFp([1, 1], 5) * PolyFp([1, 1], 5)
        b = PolyFp([1, 1], 5) * PolyFp([2, 1], 5)
        assert poly_gcd(a, b) == PolyFp([1, 1], 5)

    def test_eval(self):
        f = PolyFp([1, 2, 1], 5)  # (x+1)^2
        assert f(4) == 0
        assert f(0) == 1

    def test_pow_mod_matches_repeated_multiplication(self):
        f = PolyFp([0, 1], 7)  # x
        m = PolyFp([3, 1, 1, 1], 7)
        acc = PolyFp.one(7)
        for e in range(20):
            assert pow_mod(f, e, m) == acc
            acc = acc * f % m


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

    @pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (3, 3)])
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
        assert element_order(MatrixFp.identity(3, 5), 3) == 1

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

    def test_poly_residue_route_agrees_with_matrix_route(self):
        rng = RandomSource.deterministic(7)
        for _ in range(10):
            f = rand_irreducible(rng, 4, 7)
            assert element_order(f) == element_order(companion_matrix(f))

    def test_order_divides_group_order(self):
        rng = RandomSource.deterministic(8)
        for _ in range(10):
            f = rand_irreducible(rng, 8, 251)
            assert (251**8 - 1) % element_order(companion_matrix(f)) == 0

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            element_order(MatrixFp([[0, 0], [0, 0]], 5), 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            element_order(MatrixFp.identity(2, 251), 16)


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

    def test_rho_splits_large_semiprime(self):
        # both factors above the trial-division bound
        n = 1_000_003 * 1_000_033
        d = pollard_rho(n)
        assert d in (1_000_003, 1_000_033)

    def test_probable_prime_small_range(self):
        sieve = [True] * 2000
        sieve[0] = sieve[1] = False
        for i in range(2, 2000):
            if sieve[i]:
                for j in range(2 * i, 2000, i):
                    sieve[j] = False
        for n in range(2000):
            assert is_probable_prime(n) == sieve[n]
