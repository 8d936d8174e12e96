import math
import random
from fractions import Fraction

import pytest

from ietsaf import (
    AlgNum,
    InputError,
    NumberField,
    Poly,
    ReducibleModulusError,
    count_real_roots,
    eval_at,
    is_squarefree,
    isolate_real_roots,
)
from ietsaf.polys import cauchy_root_bound

from helpers import random_cubic_field


AY3 = Poly([-1, 1, 1, 1])        # x^3 + x^2 + x - 1, root ~ 0.5437
TRIB = Poly([-1, -1, -1, 1])     # x^3 - x^2 - x - 1, root ~ 1.8393
QUAD = Poly([1, -3, 1])          # x^2 - 3x + 1, root ~ 2.618


def test_field_new_examples():
    k3 = NumberField(AY3, 0, 1)
    assert k3.degree == 3
    assert k3.certified_prime == 3
    quad = NumberField(QUAD, 2, 3)
    assert quad.degree == 2
    with pytest.raises(InputError):
        NumberField(Poly([1, -2, 1]), 0, 2)       # (x-1)^2 not squarefree
    with pytest.raises(InputError):
        NumberField(Poly([-2, 0, 1]), -10, 10)    # two roots in the interval
    with pytest.raises(InputError):
        NumberField(Poly([-2, 0, 1]), 2, 3)       # no root in the interval


def test_field_rejects_non_monic_and_rational():
    with pytest.raises(InputError):
        NumberField(Poly([1, 2]), -10, 10)
    with pytest.raises(InputError):
        NumberField(Poly([Fraction(1, 2), 1]), -10, 10)


def test_alpha_relation_and_inverse():
    k3 = NumberField(AY3, 0, 1)
    a = k3.gen()
    assert a + a ** 2 + a ** 3 == k3.one()
    assert (a * a.inverse()) == k3.one()
    with pytest.raises(ZeroDivisionError):
        k3.zero().inverse()


def test_quadratic_trace():
    field = NumberField(QUAD, 2, 3)
    lam = field.gen()
    assert lam + 1 / lam == field.from_rational(3)


def test_sign_examples():
    k3 = NumberField(AY3, 0, 1)
    a = k3.gen()
    assert k3.zero().sign() == 0
    assert (a - Fraction(1, 2)).sign() == 1
    k4 = NumberField(Poly([-1, 1, 1, 1, 1]), 0, 1)
    b = k4.gen()
    assert (b - 1).sign() == -1
    assert (b - Fraction(51879, 100000)).sign() < 0 or \
           (b - Fraction(51878, 100000)).sign() > 0


def test_sign_agrees_with_float_on_random_elements():
    k3 = NumberField(AY3, 0, 1)
    root = float(k3.gen())
    rng = random.Random(17)
    for _ in range(1000):
        coords = [Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                  for _ in range(3)]
        value = k3.element(coords)
        approx = float(coords[0]) + float(coords[1]) * root + \
            float(coords[2]) * root * root
        if abs(approx) > 1e-6:
            assert value.sign() == (1 if approx > 0 else -1)


def test_comparisons_and_rational_coercion():
    k3 = NumberField(AY3, 0, 1)
    a = k3.gen()
    assert Fraction(1, 2) < a < Fraction(6, 11)
    assert a != 0
    assert (a - a).is_zero()
    assert k3.from_rational(Fraction(2, 3)).to_rational() == Fraction(2, 3)


def test_ring_axioms_random_triples():
    rng = random.Random(23)
    field = NumberField(AY3, 0, 1)
    for _ in range(1000):
        a, b, c = (
            field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                           for _ in range(3)])
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a


def test_min_poly_examples():
    k3 = NumberField(TRIB, 1, 2)
    one = k3.one()
    assert one.min_poly() == Poly([-1, 1])
    quad = NumberField(QUAD, 2, 3)
    beta = quad.gen() + quad.gen().inverse()
    assert beta.min_poly() == Poly([-3, 1])
    lam = k3.gen()
    gamma = lam + lam.inverse()
    mp = gamma.min_poly()
    assert mp.degree == 3          # cubic field has no proper subfield but Q
    assert mp.is_monic
    assert eval_at(mp, gamma).is_zero()


def test_min_poly_degree_divides_field_degree():
    rng = random.Random(31)
    for _ in range(15):
        field = random_cubic_field(rng)
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(3)]
        value = field.element(coords)
        mp = value.min_poly()
        assert field.degree % mp.degree == 0
        assert eval_at(mp, value).is_zero()


def test_reducible_modulus_detected_on_inversion():
    # (x^2+1)(x+2) is squarefree with a single real root -2... use interval around it
    modulus = Poly([1, 0, 1]) * Poly([2, 1])
    field = NumberField(modulus, -3, 0)
    assert field.certified_prime is None
    # x^2 + 1 is a zero divisor: inversion must name a factor
    elem = field.element([1, 0, 1])
    with pytest.raises(ReducibleModulusError) as info:
        elem.inverse()
    assert info.value.factor.degree >= 1


def test_field_equality_same_root():
    f1 = NumberField(AY3, 0, 1)
    f2 = NumberField(AY3, Fraction(1, 2), Fraction(3, 5))
    assert f1 == f2
    g1 = NumberField(Poly([-2, 0, 1]), 0, 2)
    g2 = NumberField(Poly([-2, 0, 1]), -2, 0)
    assert g1 != g2


def test_degree_one_field():
    field = NumberField(Poly([-2, 1]), 0, 3)   # Q with distinguished root 2
    two = field.gen()
    assert two.to_rational() == 2
    assert (two + 1 / two).to_rational() == Fraction(5, 2)
    assert (two - 5).sign() == -1


def test_approx_accuracy():
    k3 = NumberField(AY3, 0, 1)
    a = k3.gen()
    mid = a.approx(Fraction(1, 10 ** 30))
    # alpha satisfies its polynomial to within the tolerance
    residual = AY3(mid)
    assert abs(residual) < Fraction(1, 10 ** 28)


def test_pow():
    k3 = NumberField(AY3, 0, 1)
    a = k3.gen()
    assert a ** 0 == k3.one()
    assert a ** 3 == a * a * a
    assert a ** -2 == (a * a).inverse()


# -- the fixed-point filter and its exact fallback -------------------------------


def _outcome(fn):
    """fn()'s value, or the type of the library error it raised."""
    try:
        return fn()
    except ReducibleModulusError:
        return ReducibleModulusError


def test_near_zero_element_bisects_to_the_right_sign():
    twin = NumberField(AY3, 0, 1)
    twin.refine_interval(Fraction(1, 2 ** 50))
    below, above = twin.interval          # |alpha - r| < 2^-50 for both
    field = NumberField(AY3, 0, 1)
    a = field.gen()
    lo, hi = (a - below)._enclosure()
    assert lo <= 0 <= hi                  # the filter cannot decide
    assert (a - below).sign() == 1
    lo, hi = field.interval
    assert hi - lo < Fraction(1, 2 ** 40)
    assert (a - above).sign() == -1
    assert below < a < above
    assert not a <= below and not a >= above


def test_equal_elements_compare_through_the_exact_path(monkeypatch):
    field = NumberField(TRIB, 1, 2)
    a = field.gen() * field.gen() + Fraction(1, 3)
    b = field.element(list(a.coords))
    calls = []
    exact_sign = AlgNum.sign

    def spy(self):
        calls.append(self.coords)
        return exact_sign(self)

    monkeypatch.setattr(AlgNum, "sign", spy)
    assert a <= b and a >= b
    assert not a < b and not a > b
    assert calls == [(0, 0, 0)] * 4
    calls.clear()
    assert a < a + Fraction(1, 10)        # disjoint enclosures: no subtraction
    assert calls == []


def test_rational_root_hit_exactly_by_bisection():
    modulus = Poly([-1, 1]) * Poly([-2, 0, 1])   # (x - 1)(x^2 - 2)
    field = NumberField(modulus, Fraction(3, 4), Fraction(5, 4))
    assert field.exact_root == 1          # the first midpoint
    assert field.interval == (Fraction(3, 4), Fraction(5, 4))
    a = field.gen()
    assert (a - 1).sign() == 0
    assert (a * a - 2).sign() == -1
    assert (a - Fraction(1, 2)).sign() == 1
    assert a <= 1 and a >= 1 and not a < 1 and not a > 1
    assert Fraction(99, 100) < a < Fraction(101, 100)


def test_zero_divisor_raises_through_the_gcd_check():
    modulus = Poly([-2, 0, 1]) * Poly([-3, 0, 1])  # x^4 - 5x^2 + 6
    field = NumberField(modulus, 1, Fraction(3, 2))
    a = field.gen()
    with pytest.raises(ReducibleModulusError) as info:
        (a * a - 2).sign()
    assert info.value.factor == Poly([-2, 0, 1])
    with pytest.raises(ReducibleModulusError):
        a * a < 2


try:
    from hypothesis import HealthCheck, assume, given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is an optional test dependency
    given = None


if given is None:

    def test_filter_properties():
        pytest.skip("hypothesis is not installed")

else:

    @st.composite
    def fields(draw):
        """Modulus of degree 2..6 and an isolating interval with odd denominators."""
        degree = draw(st.integers(2, 6))
        coeffs = draw(st.lists(st.integers(-6, 6), min_size=degree,
                               max_size=degree)) + [1]
        p = Poly(coeffs)
        assume(is_squarefree(p))
        roots = isolate_real_roots(p, -cauchy_root_bound(p), cauchy_root_bound(p))
        assume(roots)
        a, b = roots[draw(st.integers(0, len(roots) - 1))]
        q = draw(st.sampled_from([3, 5, 7, 9, 11, 21, 99]))
        lo = Fraction(math.floor(a * q) - draw(st.integers(0, 2)), q)
        hi = Fraction(math.ceil(b * q) + draw(st.integers(0, 2)), q)
        assume(p(lo) != 0 and p(hi) != 0 and count_real_roots(p, lo, hi) == 1)
        return p, lo, hi

    def coords(degree):
        rational = st.fractions(min_value=-8, max_value=8, max_denominator=12)
        return st.lists(rational, min_size=degree, max_size=degree)

    def near_root(lo, hi, offset):
        """Coordinates of alpha - r with r near the root: forces bisection."""
        r = (lo + hi) / 2 + Fraction(offset, 2 ** 30)
        return [-r, 1]

    filter_settings = settings(max_examples=40, deadline=None,
                               suppress_health_check=[HealthCheck.filter_too_much,
                                                      HealthCheck.too_slow])

    @filter_settings
    @given(fields(), st.data())
    def test_filtered_sign_equals_exact_sign(spec, data):
        p, lo, hi = spec
        field, twin = NumberField(p, lo, hi), NumberField(p, lo, hi)
        batch = [data.draw(coords(field.degree)) for _ in range(6)]
        offset = data.draw(st.integers(-3, 3))
        batch.append(near_root(*field.interval, offset) + [0] * (field.degree - 2))
        for c in batch:
            filtered = _outcome(field.element(c).sign)
            exact = _outcome(twin.element(c)._exact_sign)
            assert filtered == exact
        assert field.interval == twin.interval

    @filter_settings
    @given(fields(), st.data())
    def test_comparisons_equal_exact_sign_of_difference(spec, data):
        p, lo, hi = spec
        field, twin = NumberField(p, lo, hi), NumberField(p, lo, hi)
        batch = [data.draw(coords(field.degree)) for _ in range(5)]
        batch.append(near_root(*field.interval, data.draw(st.integers(-3, 3)))
                     + [0] * (field.degree - 2))
        batch.append(list(batch[0]))
        rationals = [data.draw(st.fractions(min_value=-8, max_value=8,
                                            max_denominator=12))
                     for _ in range(2)]
        for i, x in enumerate(batch):
            a = field.element(x)
            others = [field.element(y) for y in batch[i:]] + rationals
            for b in others:
                bt = (twin.element(b.coords) if isinstance(b, AlgNum)
                      else twin.from_rational(b))
                exact = _outcome((twin.element(x) - bt)._exact_sign)
                got = _outcome(lambda: (a < b, a <= b, a > b, a >= b))
                if exact is ReducibleModulusError:
                    assert got is ReducibleModulusError
                else:
                    assert got == (exact < 0, exact <= 0, exact > 0, exact >= 0)
        assert field.interval == twin.interval
