import math
import os
import random

import numpy as np
import pytest

from geg.field import DEFAULT_PRIME, RandomSource, power, power_table, validate_prime


def test_default_prime():
    assert DEFAULT_PRIME == 251
    assert validate_prime(251) == 251


def test_nonprime_modulus_rejected():
    for n in (0, 1, 10, 249, 253):
        with pytest.raises(ValueError):
            validate_prime(n)


@pytest.mark.parametrize("p", [2, 5, 251])
def test_power_table_matches_builtin_pow(p):
    for e in (0, 1, 2, 125, p - 2, p - 1, p, 1000):
        assert power_table(e, p).tolist() == [pow(v, e, p) for v in range(p)]


def test_power_under_any_associative_product():
    def mul(a, b):
        return a * b % 251

    for x in (0, 1, 2, 250):
        for e in (1, 2, 3, 125, 250, 1001):
            assert power(x, e, mul, 1) == pow(x, e, 251)
    assert power("ab", 5, str.__add__, "") == "ab" * 5


def test_power_zero_returns_one_itself():
    one = object()
    assert power(7, 0, lambda a, b: a * b, one) is one


def test_power_rejects_negative_exponent():
    with pytest.raises(ValueError, match="negative"):
        power(2, -1, lambda a, b: a * b % 251, 1)


class TestRandomSource:
    def test_deterministic_replay(self):
        a = RandomSource.deterministic(b"\x01\x02")
        b = RandomSource.deterministic(b"\x01\x02")
        assert [a.randbelow(251) for _ in range(100)] == [b.randbelow(251) for _ in range(100)]
        assert a.array_mod(1000).tolist() == b.array_mod(1000).tolist()

    def test_array_mod_refuses_modulus_above_a_byte(self):
        rng = RandomSource.deterministic(0)
        with pytest.raises(ValueError, match="byte-sized moduli only"):
            rng.array_mod(8, 257)

    @pytest.mark.parametrize("seed", [None, "01", -5])
    def test_deterministic_refuses_seed_it_cannot_replay(self, seed):
        # accepted, None seeded from the OS and -5 replayed the stream of 5
        with pytest.raises(ValueError, match="seed must be"):
            RandomSource.deterministic(seed)

    def test_leading_zero_bytes_name_the_same_stream(self):
        # bytes are read as a big-endian int, so `--seed 01` and `--seed 0001` agree
        a, b = RandomSource.deterministic(b"\x01"), RandomSource.deterministic(b"\x00\x01")
        assert a.randbelow(2**30) == b.randbelow(2**30)

    def test_distinct_seeds_differ(self):
        a = RandomSource.deterministic(1)
        b = RandomSource.deterministic(2)
        assert [a.randbelow(251) for _ in range(32)] != [b.randbelow(251) for _ in range(32)]

    def test_nonzero_range(self):
        rng = RandomSource.deterministic(0)
        vals = [rng.nonzero(251) for _ in range(2000)]
        assert min(vals) >= 1 and max(vals) <= 250

    def test_distinct_nonzero_contract(self):
        rng = RandomSource.deterministic(3)
        vals = rng.distinct_nonzero(8, 251)
        assert len(vals) == 8 == len(set(vals))
        assert all(1 <= v <= 250 for v in vals)

    def test_distinct_nonzero_exhaustion_is_permutation(self):
        rng = RandomSource.deterministic(4)
        vals = rng.distinct_nonzero(250, 251)
        assert sorted(vals) == list(range(1, 251))

    def test_distinct_nonzero_impossible_request(self):
        rng = RandomSource.deterministic(5)
        with pytest.raises(ValueError):
            rng.distinct_nonzero(251, 251)

    def test_deterministic_tuple_replay(self):
        a = RandomSource.deterministic(b"s")
        b = RandomSource.deterministic(b"s")
        assert a.distinct_nonzero(8) == b.distinct_nonzero(8)

    def test_rejection_uniformity_five_sigma(self):
        rng = RandomSource.deterministic(b"uniformity")
        n = 100_000
        counts = np.bincount(rng.array_mod(n, 251), minlength=251)
        expect = n / 251
        sigma = math.sqrt(n * (1 / 251) * (1 - 1 / 251))
        assert (np.abs(counts - expect) < 5 * sigma).all()

    def test_randbelow_small_bounds(self):
        rng = RandomSource.deterministic(9)
        assert rng.randbelow(1) == 0
        seen = {rng.randbelow(2) for _ in range(64)}
        assert seen == {0, 1}
        with pytest.raises(ValueError):
            rng.randbelow(0)

    def test_crypto_mode_basic(self):
        rng = RandomSource.crypto()
        assert rng.mode == "cryptographic"
        vals = rng.array_mod(4096, 251)
        assert vals.min() >= 0 and vals.max() < 251
        assert 0 <= rng.nonzero(251) - 1 < 250

    def test_array_mod_of_no_values_draws_nothing(self):
        rng, fresh = RandomSource.deterministic(b"empty"), RandomSource.deterministic(b"empty")
        empty = rng.array_mod(0)
        assert empty.dtype == np.int64 and empty.shape == (0,)
        assert rng.array_mod(5).tolist() == fresh.array_mod(5).tolist()
        with pytest.raises(ValueError, match="-3"):
            rng.array_mod(-3)

    def test_crypto_array_mod_keeps_os_bytes_below_p_in_order(self, monkeypatch):
        # a leading run of rejected bytes forces a second draw from the OS
        stream = b"\xff" * 64 + bytes(range(256)) * 16
        pos = 0

        def urandom(k):
            nonlocal pos
            pos += k
            return stream[pos - k : pos]

        monkeypatch.setattr(os, "urandom", urandom)
        monkeypatch.setattr(random, "_urandom", urandom)
        n = 600
        expect = [b for b in stream if b < 251][:n]
        assert RandomSource.crypto().array_mod(n).tolist() == expect
