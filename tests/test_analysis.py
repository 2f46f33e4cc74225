import math

import pytest

from geg.analysis import (
    ambient_counts,
    order_gl,
    singular_probability,
    singular_probability_closed,
    subgroup_orders,
)
from geg.commuting import CommutingContext
from geg.field import RandomSource
from geg.linalg import MatrixFp
from geg.protocol import handshake, setup_shared

from gsdp import (
    GsdpInstance,
    bgsdp_bruteforce,
    gsdp_verify,
    instance_from_exchange,
    is_member,
    make_instance,
    relation_holds,
)
from oracles import all_square_matrices


class TestCardinalities:
    def test_order_gl_exhaustive_f2(self):
        count = sum(1 for rows in all_square_matrices(2, 2) if MatrixFp(rows, 2).det() != 0)
        assert order_gl(2, 2) == count == 6

    def test_order_gl_exhaustive_f3(self):
        count = sum(1 for rows in all_square_matrices(2, 3) if MatrixFp(rows, 3).det() != 0)
        assert order_gl(2, 3) == count == 48

    def test_order_gl_log10_exact_value(self):
        # the exact product at d=8, p=251; the rounded published figure of
        # 10**153.177 for this group is a typo, the formula gives 10**153.577
        assert abs(math.log10(order_gl(8, 251)) - 153.5774) < 0.001

    def test_ambient_counts(self):
        counts = ambient_counts(2, 3)
        assert counts.total == 81
        assert counts.nilpotent == 9

    def test_ambient_log10_reference(self):
        assert abs(math.log10(ambient_counts(8, 251).total) - 153.579) < 0.001

    def test_nilpotent_exhaustive_f2(self):
        # nilpotent iff some power vanishes; for d=2, M**2 == 0 suffices
        zero = MatrixFp([[0, 0], [0, 0]], 2)
        matrices = (MatrixFp(rows, 2) for rows in all_square_matrices(2, 2))
        count = sum(1 for m in matrices if m @ m == zero)
        assert ambient_counts(2, 2).nilpotent == count == 4

    def test_subgroup_orders_reference_value(self):
        orders = subgroup_orders(8, 251)
        assert orders.excluding_zero_one == 13190481178699144320
        assert 63.4 <= math.log2(orders.excluding_zero_one) <= 64.0

    def test_subgroup_orders_distinct_nonzero_exhaustive(self):
        # d=2, p=5: ordered pairs of distinct nonzero eigenvalues
        pairs = [
            (a, b) for a in range(1, 5) for b in range(1, 5) if a != b
        ]
        assert subgroup_orders(2, 5).excluding_zero == len(pairs) == 12

    @pytest.mark.parametrize("call, match", [
        (lambda: order_gl(0, 251), "d >= 1"),
        (lambda: ambient_counts(-1, 251), "d >= 1"),
        (lambda: subgroup_orders(5, 5), "cannot exceed"),
        (lambda: singular_probability(2, 251, 0, RandomSource.deterministic(0)), "trials >= 1"),
    ], ids=["order_gl", "ambient_counts", "subgroup_orders", "singular_probability"])
    def test_out_of_range_arguments_refused(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_subgroup_orders_d16_security_level(self):
        orders = subgroup_orders(16, 251)
        assert 126 <= math.log2(orders.excluding_zero_one) <= 128
        assert 126 <= math.log2(orders.excluding_zero) <= 128


class TestSingularProbability:
    def test_closed_form_reference(self):
        assert abs(singular_probability_closed(8, 251) - 0.00400) < 0.00001

    def test_closed_form_exhaustive_f2(self):
        singular = sum(1 for rows in all_square_matrices(2, 2) if MatrixFp(rows, 2).det() == 0)
        assert singular_probability_closed(2, 2) == singular / 16 == 0.625

    def test_closed_form_exhaustive_f3(self):
        singular = sum(1 for rows in all_square_matrices(2, 3) if MatrixFp(rows, 3).det() == 0)
        assert abs(singular_probability_closed(2, 3) - singular / 81) < 1e-12

    @pytest.mark.parametrize("d", [0, -3])
    def test_closed_form_rejects_empty_dimension(self, d):
        with pytest.raises(ValueError, match="d >= 1"):
            singular_probability_closed(d, 251)

    def test_monte_carlo_tracks_closed_form(self):
        rng = RandomSource.deterministic(b"mc")
        est = singular_probability(8, 251, 20_000, rng)
        assert abs(est.monte_carlo - est.closed_form) < 0.002

    def test_monte_carlo_small_field(self):
        rng = RandomSource.deterministic(1)
        est = singular_probability(2, 2, 20_000, rng)
        assert abs(est.monte_carlo - 0.625) < 0.02

    def test_monte_carlo_seeded_value_and_stream(self):
        # pins both the estimate and how much of the stream the draws consume
        rng = RandomSource.deterministic(7)
        assert singular_probability(8, 251, 3000, rng).monte_carlo == 11 / 3000
        assert rng.randbelow(2**30) == 1028762628


class TestGsdp:
    def test_generated_instance_verifies(self):
        rng = RandomSource.deterministic(2)
        for _ in range(20):
            inst, (z, m, n) = make_instance(rng, 2, 5, 4)
            assert gsdp_verify(inst, z)
            assert (m, n) == (inst.exp_left, inst.exp_right)

    def test_identity_fails_when_y_differs(self):
        rng = RandomSource.deterministic(3)
        inst, _ = make_instance(rng, 2, 5, 4)
        if inst.x != inst.y:
            assert not gsdp_verify(inst, MatrixFp.identity(2, 5))

    def test_random_z_fails(self):
        rng = RandomSource.deterministic(4)
        inst, _ = make_instance(rng, 8, 251, 100)
        rejected = 0
        for _ in range(50):
            if not gsdp_verify(inst, MatrixFp.random_invertible(rng, 8, 251)):
                rejected += 1
        assert rejected == 50

    def test_transcript_instance_verifies(self):
        for seed in range(10):
            rng = RandomSource.deterministic(seed)
            alice, bob = handshake(*setup_shared(rng, 8), rng)
            inst = instance_from_exchange(alice)
            assert gsdp_verify(inst, alice.context.conjugate(alice.eigenvalues))
            inst_b = instance_from_exchange(bob)
            assert gsdp_verify(inst_b, bob.context.conjugate(bob.eigenvalues))


class TestBruteForce:
    def test_solves_generated_instances(self):
        rng = RandomSource.deterministic(5)
        for _ in range(20):
            inst, _ = make_instance(rng, 2, 5, 4)
            found = bgsdp_bruteforce(inst, 4)
            assert found is not None
            z, m, n = found
            assert is_member(inst.context, z)
            assert relation_holds(inst.x, inst.y, z, m, n)

    def test_unsatisfiable_returns_none(self):
        rng = RandomSource.deterministic(6)
        basis = MatrixFp.random_invertible(rng, 2, 5)
        x = MatrixFp.random_invertible(rng, 2, 5)
        ctx = CommutingContext(basis, x)
        # y independent of x: no witness within bounds (verified: exhaustive
        # search is itself the ground truth for nonexistence)
        y = MatrixFp([[1, 2], [3, 3]], 5)
        inst = GsdpInstance(ctx, x, y)
        assert y.det() != 0
        assert bgsdp_bruteforce(inst, 3) is None

    def test_deterministic_witness_choice(self):
        rng = RandomSource.deterministic(7)
        inst, _ = make_instance(rng, 2, 5, 4)
        assert bgsdp_bruteforce(inst, 4) == bgsdp_bruteforce(inst, 4)

    def test_cost_guard(self):
        rng = RandomSource.deterministic(8)
        inst, _ = make_instance(rng, 2, 11, 4)
        with pytest.raises(ValueError):
            bgsdp_bruteforce(inst, 4)
        inst8, _ = make_instance(rng, 8, 251, 4)
        with pytest.raises(ValueError):
            bgsdp_bruteforce(inst8, 4)

    def test_search_space_scales_with_parameters(self):
        # full (failed) searches cover |S| * max_exp**2 relation checks;
        # check the space sizes the cost guard is protecting against
        sizes = {p: (p - 1) * (p - 2) * 16 for p in (3, 5, 7)}
        assert sizes[3] < sizes[5] < sizes[7]
        assert sizes[7] / sizes[3] == 15.0
