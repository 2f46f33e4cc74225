"""Acceptance suite: one test per shipped exit criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
pass/fail line per criterion.  Criterion 6a checks the exact |GL(8, F_251)|
(log10 = 153.577) and pins the published figure 153.177 as a one-digit typo
of it: the exact product ties to criteria 6b and 7, and 10^153.177 would make
most uniform 8x8 matrices singular.
"""

import json
import math
import random
import time
from fractions import Fraction
from math import prod
from pathlib import Path

from geg import errors, wire
from geg.analysis import (
    bgsdp_bruteforce,
    gsdp_verify,
    instance_from_exchange,
    make_instance,
    order_gl,
    relation_holds,
    singular_probability,
    singular_probability_closed,
    subgroup_orders,
)
from geg.commuting import CommutingContext, commutes
from geg.errors import CodecError
from geg.field import RandomSource
from geg.linalg import MatrixFp, all_matrices, companion_matrix
from geg.polyfield import (
    PolyFp,
    count_irreducible_monic,
    element_order,
    rand_irreducible,
    rand_irreducible_counted,
)
from geg.protocol import extract_exponents, handshake, setup_shared, start_session

from oracles import (
    all_monic_polys,
    all_square_matrices,
    irreducible_by_trial_division,
    naive_det,
)

FIXTURES = Path(__file__).parent / "fixtures" / "wire_vectors.json"


def report(number: str, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} {name}: {state}{suffix}")


def full_exchange(rng, d=8):
    return handshake(*setup_shared(rng, d), rng)


def test_criterion_01_key_agreement():
    rng = RandomSource.deterministic(b"criterion-01")
    start = time.perf_counter()
    for _ in range(1000):
        alice, bob = full_exchange(rng)
        assert alice.session_key == bob.session_key
        assert extract_exponents(alice.session_key) == extract_exponents(bob.session_key)
        assert alice.exponents == bob.exponents
    elapsed = time.perf_counter() - start
    report("01", "key-agreement", True, f"1000 runs in {elapsed:.1f} s")
    assert elapsed < 10.0


def test_criterion_02_recursive_session_consistency():
    rng = RandomSource.deterministic(b"criterion-02")
    for _ in range(100):
        alice, bob = full_exchange(rng)
        for _ in range(10):
            start_session(alice, bob)
            key_a, exps_a, basis_a, gen_a = alice.shared_parameters()
            key_b, exps_b, basis_b, gen_b = bob.shared_parameters()
            assert key_a == key_b
            assert exps_a == exps_b
            assert basis_a == basis_b
            assert gen_a == gen_b
            assert key_a.det() != 0 and basis_a.det() != 0 and gen_a.det() != 0
    report("02", "recursive-session-consistency", True, "100 runs x 10 sessions")


def test_criterion_03_cipher_round_trip():
    rng = RandomSource.deterministic(b"criterion-03")
    alice, bob = full_exchange(rng, d=8)
    start_session(alice, bob)
    singular_seen = 0
    for i in range(1000):
        if i % 10 == 0:
            rows = [[rng.randbelow(251) for _ in range(8)] for _ in range(8)]
            rows[3] = rows[2]  # force a repeated row: deliberately singular
            plain = MatrixFp(rows, 251)
        else:
            plain = MatrixFp.random(rng, 8, 251)
        if plain.det() == 0:
            singular_seen += 1
        assert bob.decrypt_block(alice.encrypt_block(plain, rng)) == plain
    assert singular_seen >= 100

    alice16, bob16 = full_exchange(rng, d=16)
    start_session(alice16, bob16)
    for _ in range(100):
        plain = MatrixFp.random(rng, 16, 251)
        assert bob16.decrypt_block(alice16.encrypt_block(plain, rng)) == plain
    report("03a", "cipher-round-trip-blocks", True, "1000 at d=8, 100 at d=16")


def test_criterion_03_file_pipeline():
    rng = RandomSource.deterministic(b"criterion-03-files")
    rnd = random.Random(303)
    alice, bob = full_exchange(rng)
    start_session(alice, bob)
    for length in (0, 1, 55, 56, 57, 4096, 1_000_000):
        data = rnd.randbytes(length)
        blocks = wire.encode_plaintext(data, 8)
        decrypted = [bob.decrypt_block(alice.encrypt_block(b, rng)) for b in blocks]
        assert wire.decode_plaintext(decrypted) == data
    report("03b", "cipher-round-trip-files", True, "lengths 0..1e6 bit-exact")


def test_criterion_04_update_exponent_anchor():
    assert 41 * 178 % 251 == 19
    # the same reduction drives the key update: K -> K**(m*n mod p)
    rng = RandomSource.deterministic(b"criterion-04")
    alice, bob = full_exchange(rng)
    m, n = alice.exponents
    expected = alice.session_key.pow(m * n % 251)
    alice.open_session()
    assert alice.session_key == expected
    report("04", "update-exponent-anchor", True, "41*178 = 19 mod 251")


def test_criterion_05_subgroup_cardinality():
    orders = subgroup_orders(8, 251)
    assert orders.excluding_zero_one == 13190481178699144320
    bits = math.log2(orders.excluding_zero_one)
    assert 63.4 <= bits <= 64.0
    report("05", "subgroup-cardinality", True, f"log2 = {bits:.3f}")


PUBLISHED_LOG10_GL = 153.177  # published log10 |GL(8, F_251)|: a typo


def test_criterion_06a_gl_cardinality_published_figure():
    order = order_gl(8, 251)
    value = math.log10(order)
    assert abs(value - 153.577) <= 0.001
    # |GL| / p**(d*d) is the non-singular probability, exactly; this ties the
    # cardinality to the ambient count (06b) and the singular probability (07).
    assert Fraction(order, 251**64) == prod(
        1 - Fraction(1, 251**i) for i in range(1, 9)
    )
    # The published figure differs from the exact one in the first decimal
    # digit only.
    computed, published = f"{value:.3f}", f"{PUBLISHED_LOG10_GL:.3f}"
    differing = [i for i, (a, b) in enumerate(zip(computed, published)) if a != b]
    assert len(computed) == len(published)
    assert differing == [computed.index(".") + 1], (computed, published)
    # Taken at face value, 10^153.177 invertible matrices out of 251^64 would
    # leave a singular probability above one half; the exact one is 0.004.
    implied_singular = 1 - 10 ** (PUBLISHED_LOG10_GL - math.log10(251**64))
    assert implied_singular > 0.5 > singular_probability_closed(8, 251)
    report(
        "06a",
        "gl-cardinality-published-figure",
        True,
        f"log10 = {value:.4f}; published {published} is a typo for {computed}",
    )


def test_criterion_06b_ambient_cardinality():
    value = math.log10(251**64)
    ok = abs(value - 153.579) <= 0.001
    report("06b", "ambient-cardinality", ok, f"log10 = {value:.4f}")
    assert ok


def test_criterion_07_singular_probability():
    start = time.perf_counter()
    closed = singular_probability_closed(8, 251)
    assert abs(closed - 0.00400) <= 0.00001
    rng = RandomSource.deterministic(b"criterion-07")
    estimate = singular_probability(8, 251, 100_000, rng)
    assert abs(estimate.monte_carlo - closed) <= 0.002
    elapsed = time.perf_counter() - start
    report(
        "07",
        "singular-probability",
        True,
        f"closed {closed:.6f}, mc {estimate.monte_carlo:.6f}, {elapsed:.1f} s",
    )
    assert elapsed < 60.0


def test_criterion_08_irreducible_counts_and_generation():
    for p, d in ((2, 2), (2, 3), (2, 4), (3, 2), (5, 2)):
        exhaustive = sum(
            irreducible_by_trial_division(c, p) for c in all_monic_polys(d, p)
        )
        assert count_irreducible_monic(d, p) == exhaustive
    rng = RandomSource.deterministic(b"criterion-08")
    runs = 1000
    total = sum(rand_irreducible_counted(rng, 8, 251)[1] for _ in range(runs))
    mean = total / runs
    assert 6.0 <= mean <= 10.0
    report("08", "irreducible-counts-and-generation", True, f"mean trials {mean:.2f}")


def test_criterion_09_element_order():
    start = time.perf_counter()
    assert element_order(companion_matrix(PolyFp([1, 1, 0, 1], 2))) == 7
    rng = RandomSource.deterministic(b"criterion-09")
    group_order = 251**8 - 1
    for _ in range(100):
        f = rand_irreducible(rng, 8, 251)
        order = element_order(companion_matrix(f))
        assert group_order % order == 0
    elapsed = time.perf_counter() - start
    report("09", "element-order", True, f"100 orders in {elapsed:.1f} s")
    assert elapsed < 120.0


def test_criterion_10_commutativity():
    rng = RandomSource.deterministic(b"criterion-10")
    ctx = CommutingContext.random(rng, 8, 251)
    for _ in range(1000):
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        assert a @ b == b @ a
    failures = 0
    for _ in range(100):
        a = ctx.random_element(rng)
        outsider = MatrixFp.random_invertible(rng, 8, 251)
        if not commutes(a, outsider):
            failures += 1
    assert failures >= 99
    report("10", "commutativity", True, f"{failures}/100 outsiders fail to commute")


def test_criterion_11_gsdp_oracle():
    start = time.perf_counter()
    rng = RandomSource.deterministic(b"criterion-11")
    for _ in range(20):
        alice, bob = full_exchange(rng)
        for entity in (alice, bob):
            inst = instance_from_exchange(entity)
            assert gsdp_verify(inst, entity.private_element)
    solved = 0
    for _ in range(20):
        inst, _ = make_instance(rng, 2, 5, 4)
        found = bgsdp_bruteforce(inst, 4)
        assert found is not None
        z, m, n = found
        assert inst.context.is_member(z)
        assert relation_holds(inst.x, inst.y, z, m, n)
        solved += 1
    elapsed = time.perf_counter() - start
    report("11", "gsdp-oracle", True, f"{solved}/20 toy instances solved, {elapsed:.1f} s")
    assert solved == 20
    assert elapsed < 60.0


def test_criterion_12_exhaustive_small_group_equivalence():
    assert order_gl(2, 2) == sum(1 for m in all_matrices(2, 2) if m.det() != 0) == 6
    assert order_gl(2, 3) == sum(1 for m in all_matrices(2, 3) if m.det() != 0) == 48
    ident = MatrixFp.identity(2, 3)
    for rows in all_square_matrices(2, 3):
        m = MatrixFp(rows, 3)
        det = naive_det(rows, 3)
        assert m.det() == det
        if det != 0:
            brute = next(x for x in all_matrices(2, 3) if m @ x == ident)
            assert m.inv() == brute
    report("12", "exhaustive-small-group-equivalence", True)


def test_criterion_13_wire_robustness():
    rnd = random.Random(0x13)
    outcomes = {"ok": 0, "rejected": 0}
    for _ in range(100_000):
        n = rnd.randrange(0, 40)
        raw = rnd.randbytes(n)
        try:
            wire.parse(raw)
            outcomes["ok"] += 1
        except CodecError:
            outcomes["rejected"] += 1
    assert sum(outcomes.values()) == 100_000

    vectors = json.loads(FIXTURES.read_text())
    for v in vectors:
        raw = bytes.fromhex(v["hex"])
        if v["expect"] == "ok":
            msg = wire.parse(raw)
            assert msg.msg_type == v["msg_type"]
            assert msg.d == v["d"]
            assert msg.payload.hex() == v["payload_hex"]
            assert wire.frame(msg).hex() == v["hex"]
        else:
            try:
                wire.parse(raw)
                raise AssertionError(f"vector {v['name']} should not parse")
            except getattr(errors, v["error"]):
                pass
    report("13", "wire-robustness", True, f"{len(vectors)} fixtures, 1e5 fuzz inputs")


def test_criterion_14_performance_sanity():
    rng = RandomSource.deterministic(b"criterion-14")
    best = float("inf")
    for _ in range(5):
        alice, bob = full_exchange(rng)
        start = time.perf_counter()
        start_session(alice, bob)
        plain = MatrixFp.random(rng, 8, 251)
        block = alice.encrypt_block(plain, rng)
        recovered = bob.decrypt_block(block)
        elapsed = (time.perf_counter() - start) * 1e3
        assert recovered == plain
        best = min(best, elapsed)
    report("14", "performance-sanity", best < 85.0, f"full session {best:.2f} ms")
    assert best < 85.0
