from fractions import Fraction

import pytest

from ietsaf import (
    AYSystem,
    IET,
    InputError,
    Poly,
    ay_alpha,
    ay_boundary_involution,
    ay_lift,
    ay_perturbed_involution,
    ay_self_similarity_witness,
    ay_stretch_minpoly,
    eval_at,
    nonlift_certificate,
    vanishing_by_reciprocity,
)
from ietsaf.arnoux_yoccoz import _paired_blocks
from ietsaf.certificates import OUTCOME_INCONCLUSIVE

HALF = Fraction(1, 2)


def test_alpha_fields():
    k3 = ay_alpha(3)
    lo, hi = k3.interval
    assert hi - lo < Fraction(1, 10 ** 6)
    assert abs(float(k3.gen()) - 0.54369) < 1e-4
    k4 = ay_alpha(4)
    assert abs(float(k4.gen()) - 0.51879) < 1e-4
    with pytest.raises(InputError):
        ay_alpha(1)


def test_alpha_decreases_to_half():
    values = [float(ay_alpha(g).gen()) for g in range(2, 13)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 0.5
    # the defining polynomial is negative at 1/2 for every g (root above 1/2)
    for g in range(2, 13):
        assert Poly([-1] + [1] * g)(Fraction(1, 2)) < 0


def test_alpha_power_sum_exact():
    for g in range(3, 13):
        field = ay_alpha(g)
        alpha = field.gen()
        acc = field.zero()
        power = field.one()
        for _ in range(g):
            power = power * alpha
            acc = acc + power
        assert acc == field.one()


def test_boundary_involution():
    for g in (3, 4, 5, 6, 7, 8):
        invol = ay_boundary_involution(g)
        assert invol.total == invol.field.from_rational(2)
        assert invol.compose(invol) == IET.identity(invol.field, 2)
        assert invol.saf().is_zero()
    with pytest.raises(InputError):
        ay_boundary_involution(2)


def test_boundary_involution_first_block_swap():
    invol = ay_boundary_involution(4)
    alpha = invol.field.gen()
    assert invol(invol.field.zero()) == alpha


def test_lift_structure_g4():
    lift = ay_lift(4)
    field = lift.field
    alpha = field.gen()
    assert lift.total == field.one()
    # 2g intervals before wraparound splitting; one extra piece after
    assert lift.n == 2 * 4 + 1
    assert lift(field.zero()) == field.from_rational(HALF) + alpha * HALF
    assert lift(alpha * HALF) == field.from_rational(HALF)
    with pytest.raises(InputError):
        ay_lift(2)


def test_lift_saf_vanishes():
    for g in range(3, 9):
        assert ay_lift(g).saf().is_zero()


def test_unnormalized_lift_is_rotated_involution():
    invol = ay_boundary_involution(3)
    unnormalized = invol.rotate(1)
    assert unnormalized == ay_lift(3).scale(2)


def test_stretch_minpoly():
    assert ay_stretch_minpoly(3) == Poly([-1, -1, -1, 1])
    assert ay_stretch_minpoly(2) == Poly([-1, -1, 1])
    for g in range(3, 9):
        field = ay_alpha(g)
        lam = field.gen().inverse()
        assert eval_at(ay_stretch_minpoly(g), lam).is_zero()


def test_self_similarity_conjugacy():
    for g in range(3, 13):
        witness = ay_self_similarity_witness(ay_lift(g))
        assert witness is not None, g
        # offset is (3*alpha - 1)/2 in this chart
        field = witness.field
        expected = (field.gen() * 3 - 1) * HALF
        assert witness == expected


def test_self_similarity_negative_control():
    invol = ay_perturbed_involution(3)
    assert invol.compose(invol) == IET.identity(invol.field, 2)
    assert ay_self_similarity_witness(ay_lift(3, ay_perturbed_involution(3))) is None


def test_system_build_and_consistency():
    for g in (3, 4):
        system = AYSystem.build(g)
        assert system.lift.saf().is_zero()
        verdict = vanishing_by_reciprocity(system.stretch_minpoly)
        assert verdict.vanishes
        cert = nonlift_certificate(system.stretch_minpoly, g)
        assert cert.outcome == OUTCOME_INCONCLUSIVE
        assert system.lift == ay_lift(g)
        assert system.is_involution


def test_constructor_rejects_a_wrong_circumference():
    """The genus-3 blocks sum to 2, so the constructor refuses a circle of
    circumference 1 for them."""
    field, lengths, pairing = _paired_blocks(3)
    with pytest.raises(InputError, match="lengths do not sum to the total length"):
        IET(field, 1, lengths, pairing, circle=True)
