import math
import random
from fractions import Fraction

import pytest

from ietsaf import (
    AlgNum,
    FieldMismatchError,
    InputError,
    NumberField,
    Poly,
    ReducibleModulusError,
    ay_alpha,
    count_real_roots,
    is_squarefree,
    isolate_real_roots,
    poly_xgcd,
)
from ietsaf.field import _integer_dependency, _mul_mod
from ietsaf.polys import cauchy_root_bound

from helpers import (eval_at, min_poly_by_fractions, mul_mod_by_division,
                     power_form_by_fractions, random_cubic_field, refine_by_fractions,
                     sign_by_fractions)


AY3 = Poly([-1, 1, 1, 1])        # x^3 + x^2 + x - 1, root ~ 0.5437
TRIB = Poly([-1, -1, -1, 1])     # x^3 - x^2 - x - 1, root ~ 1.8393
QUAD = Poly([1, -3, 1])          # x^2 - 3x + 1, root ~ 2.618


def test_field_new_examples():
    k3 = NumberField(AY3, 0, 1)
    assert k3.degree == 3
    quad = NumberField(QUAD, 2, 3)
    assert quad.degree == 2
    with pytest.raises(InputError):
        NumberField(Poly([1, -2, 1]), 0, 2)       # (x-1)^2 not squarefree
    with pytest.raises(InputError):
        NumberField(Poly([-2, 0, 1]), -10, 10)    # two roots in the interval
    with pytest.raises(InputError):
        NumberField(Poly([-2, 0, 1]), 2, 3)       # no root in the interval


def test_element_coerces_only_what_is_not_a_fraction_or_int():
    k3 = NumberField(AY3, 0, 1)
    a = k3.element([1, Fraction(1, 2), "2/3"])
    assert a.coords == (Fraction(1), Fraction(1, 2), Fraction(2, 3))
    assert a == k3.element([Fraction(2, 2), 0.5, Fraction(4, 6)])
    with pytest.raises(InputError, match="expected 3 coordinates, got 2"):
        k3.element([1, Fraction(1, 2)])


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
    assert k3.from_rational(Fraction(2, 3)).coords == (Fraction(2, 3), 0, 0)


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
    # x^2 + 1 is a zero divisor: inversion must name a factor
    elem = field.element([1, 0, 1])
    with pytest.raises(ReducibleModulusError) as info:
        elem.inverse()
    assert info.value.factor == Poly([1, 0, 1])


def test_field_equality_same_root():
    f1 = NumberField(AY3, 0, 1)
    f2 = NumberField(AY3, Fraction(1, 2), Fraction(3, 5))
    assert f1 == f2
    g1 = NumberField(Poly([-2, 0, 1]), 0, 2)
    g2 = NumberField(Poly([-2, 0, 1]), -2, 0)
    assert g1 != g2


def test_fields_differ_by_modulus_and_their_elements_do_not_mix():
    """x^2 - 2 and x^3 - 2x both have the root sqrt(2) in their isolating
    intervals, but the power bases differ: the fields are unequal on the
    modulus alone.  Elements of unequal fields compare unequal, and their
    sum raises."""
    quad = NumberField(Poly([-2, 0, 1]), 1, 2)
    cubic = NumberField(Poly([0, -2, 0, 1]), 1, 2)
    assert quad != cubic and not quad == cubic
    other_root = NumberField(Poly([-2, 0, 1]), -2, -1)
    for a, b in ((quad.gen(), cubic.gen()), (quad.gen(), other_root.gen())):
        assert a != b and not a == b
        with pytest.raises(FieldMismatchError):
            a + b


def test_degree_one_field():
    field = NumberField(Poly([-2, 1]), 0, 3)   # Q with distinguished root 2
    two = field.gen()
    assert two.coords == (2,)
    assert (two + 1 / two).coords == (Fraction(5, 2),)
    assert (two - 5).sign() == -1


def test_approx_accuracy():
    k3 = NumberField(AY3, 0, 1)
    a = k3.gen()
    mid = a.approx(Fraction(1, 10 ** 30))
    # alpha satisfies its polynomial to within the tolerance
    residual = AY3(mid)
    assert abs(residual) < Fraction(1, 10 ** 28)


@pytest.mark.parametrize("tolerance", [0, Fraction(-1, 3), -1])
def test_nonpositive_tolerance_is_rejected(tolerance):
    field = NumberField(Poly([-2, 0, 1]), 1, 2)
    before = field.interval
    with pytest.raises(InputError):
        field.refine_interval(tolerance)
    with pytest.raises(InputError):
        field.gen().approx(tolerance)
    assert field.interval == before


def test_approx_at_a_rational_root_is_exact(monkeypatch):
    # (x - 1)(x^2 - 2) on (3/4, 5/4): the first midpoint is the root 1
    field = NumberField(Poly([-1, 1]) * Poly([-2, 0, 1]), Fraction(3, 4), Fraction(5, 4))
    assert field.exact_root == 1

    def refuse(self, x):
        raise AssertionError("Poly.__call__ called")

    monkeypatch.setattr(Poly, "__call__", refuse)     # the value is integer Horner
    value = field.element([0, Fraction(1, 3), 2])
    assert value.approx(Fraction(1, 10 ** 6)) == Fraction(7, 3)
    assert field.element([-5, Fraction(1, 3), 2]).approx(1) == Fraction(-8, 3)


def test_pow():
    k3 = NumberField(AY3, 0, 1)
    a = k3.gen()
    assert a ** 0 == k3.one()
    assert a ** 3 == a * a * a
    assert a ** -2 == (a * a).inverse()


# -- the exact integer enclosure against the Fraction path ----------------------


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
    assert lo <= 0 <= hi                  # undecided before bisecting
    assert (a - below).sign() == 1
    lo, hi = field.interval
    assert hi - lo < Fraction(1, 2 ** 40)
    assert (a - above).sign() == -1
    assert below < a < above
    assert not a <= below and not a >= above


def test_power_form_straddles_where_horner_decides_and_bisects_once():
    """x^2 - 2mx + m^2 - delta with m the interval's midpoint, w its width
    and delta = 3mw/2: Horner's enclosure of it lies below 0, the power
    form reaches 2mw + w^2/4 - delta > 0, so the sign costs one bisection
    and is -1 (the value (alpha - m)^2 - delta is below w^2/4 - delta)."""
    field, twin = NumberField(AY3, 0, 1), NumberField(AY3, 0, 1)
    a, b = field.interval
    m, w = (a + b) / 2, b - a
    coords = [m * m - 3 * m * w / 2, -2 * m, 1]
    value = field.element(coords)
    horner_lo, horner_hi = Poly(value.num).eval_interval(a, b)
    assert horner_hi < 0
    lo, hi = value._enclosure()
    assert lo < 0 < hi
    assert value.sign() == sign_by_fractions(twin.element(coords)) == -1
    assert field.interval == twin.interval
    lo, hi = field.interval
    assert hi - lo == w / 2
    assert value < 0 and value <= field.zero() and not value >= 0


def test_interval_below_zero_swaps_the_even_power_bounds():
    """x^3 - x^2 + x + 1 has the root -alpha for alpha the root of
    x^3 + x^2 + x - 1, so c_0 + c_1 x + c_2 x^2 has at -alpha the sign
    that c_0 - c_1 x + c_2 x^2 has at alpha."""
    negative = NumberField(Poly([1, 1, -1, 1]), -1, 0)
    positive = NumberField(AY3, 0, 1)
    a, b = negative.interval
    assert b < 0
    den = negative._D
    (lo0, hi0), (lo1, hi1), (lo2, hi2) = negative._power_bounds()
    assert (lo0, hi0) == (den ** 2, den ** 2)
    assert (lo1, hi1) == (a * den ** 2, b * den ** 2)
    assert (lo2, hi2) == (b * b * den ** 2, a * a * den ** 2)
    twin = NumberField(Poly([1, 1, -1, 1]), -1, 0)
    rng = random.Random(5)
    for _ in range(30):
        c = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(3)]
        value = negative.element(c)
        plo, phi = power_form_by_fractions(value.num, *negative.interval)
        scale = negative._D ** 2
        assert value._enclosure() == (plo * scale, phi * scale)
        mirrored = positive.element([c[0], -c[1], c[2]])
        assert value.sign() == mirrored.sign() == sign_by_fractions(twin.element(c))
    eps = Fraction(1, 2 ** 60)
    assert abs(negative.gen().approx(eps) + positive.gen().approx(eps)) < 2 * eps


def test_interval_holding_zero_uses_the_even_power_lower_bound_zero():
    """x^3 + 2^24 x - 1 has one real root, near 2^-24.  Bisection of
    (-1/3, 2/3) has endpoints +-1/(3*2^k) and never hits 0, so at width
    2^-20 the interval still holds 0 and every even power's lower bound is
    0.  alpha^2 - 2^-50 is positive, but its enclosure reaches below 0
    until the field bisects past 0."""
    modulus = Poly([-1, 2 ** 24, 0, 1])
    field = NumberField(modulus, Fraction(-1, 3), Fraction(2, 3))
    twin = NumberField(modulus, Fraction(-1, 3), Fraction(2, 3))
    a, b = field.interval
    assert a < 0 < b
    (_, _), (lo1, hi1), (lo2, hi2) = field._power_bounds()
    den = field._D
    assert (lo1, hi1) == (a * den ** 2, b * den ** 2)
    assert lo2 == 0 and hi2 == max(a * a, b * b) * den ** 2
    batch = [[0, 0, 1], [0, 0, -1], [1, -2 ** 24, 0], [0, 1, 2 ** 20],
             [-Fraction(1, 2 ** 50), 0, 1]]
    for coords in batch:
        plo, phi = power_form_by_fractions(field.element(coords).num, a, b)
        assert field.element(coords)._enclosure() == (plo * den ** 2, phi * den ** 2)
    square = field.element(batch[-1])
    lo, hi = square._enclosure()
    assert lo < 0 < hi
    assert square.sign() == sign_by_fractions(twin.element(batch[-1])) == 1
    assert field.interval == twin.interval
    assert field.interval[0] > 0
    for coords in batch:
        assert field.element(coords).sign() == sign_by_fractions(twin.element(coords))


def test_exact_sign_fallback_on_an_element_with_a_denominator():
    """Near-zero elements with a denominator bisect exactly as the Fraction
    reference does on a twin field, and end on the same interval."""
    narrow = NumberField(AY3, 0, 1)
    narrow.refine_interval(Fraction(1, 2 ** 50))
    below, above = narrow.interval        # |alpha - r| < 2^-50 for both
    field, twin = NumberField(AY3, 0, 1), NumberField(AY3, 0, 1)
    x = (field.gen() - below) * Fraction(2, 3)
    y = (field.gen() - above) / 7
    assert x.den % 3 == 0 and y.den % 7 == 0
    for value in (x, y):
        lo, hi = value._enclosure()
        assert lo <= 0 <= hi              # undecided before bisecting
    assert x.sign() == sign_by_fractions(twin.element(x.coords)) == 1
    assert y.sign() == sign_by_fractions(twin.element(y.coords)) == -1
    assert field.interval == twin.interval
    lo, hi = field.interval
    assert hi - lo < Fraction(1, 2 ** 40)
    eps = Fraction(1, 2 ** 60)
    assert abs(x.approx(eps)) < Fraction(1, 2 ** 50)
    assert abs(y.approx(eps)) < Fraction(1, 2 ** 50)


def approx_by_fractions(field, coords, eps):
    """Reference for `AlgNum.approx`: the power-form enclosure over the
    rational coordinates, bisecting `field` until it is narrower than eps."""
    while True:
        lo, hi = power_form_by_fractions(coords, *field.interval)
        if hi - lo < eps:
            return (lo + hi) / 2
        field._bisect_once()


def test_approx_with_a_denominator_bisects_like_the_fraction_path():
    for coords in ([0, Fraction(1, 3), 0], [Fraction(-1, 7), 0, Fraction(5, 12)],
                   [Fraction(2, 3 ** 30), Fraction(1, 3 ** 30), 0]):
        for eps in (Fraction(1, 10 ** 6), Fraction(1, 10 ** 25)):
            field, twin = NumberField(AY3, 0, 1), NumberField(AY3, 0, 1)
            value = field.element(coords)
            assert value.den > 1
            assert value.approx(eps) == approx_by_fractions(twin, coords, eps)
            assert field.interval == twin.interval


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


def test_field_equality_after_bisection_hit_a_rational_root():
    """A field whose bisection hit the root 1 of (x - 1)(x^2 - 2) equals a
    twin field around 1 and differs from one around sqrt 2, both ways."""
    modulus = Poly([-1, 1]) * Poly([-2, 0, 1])
    exact = NumberField(modulus, Fraction(3, 4), Fraction(5, 4))
    assert exact.exact_root == 1
    near_one = NumberField(modulus, 0, Fraction(5, 4))
    near_root2 = NumberField(modulus, Fraction(5, 4), Fraction(3, 2))
    assert near_one.exact_root is None and near_root2.exact_root is None
    assert exact == near_one and near_one == exact
    assert exact != near_root2 and near_root2 != exact


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
    from hypothesis import HealthCheck, assume, example, given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is an optional test dependency
    given = None


if given is None:

    def test_field_properties():
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

    field_settings = settings(max_examples=40, deadline=None,
                              suppress_health_check=[HealthCheck.filter_too_much,
                                                     HealthCheck.too_slow])

    @field_settings
    @given(fields(), st.data())
    def test_filtered_sign_equals_exact_sign(spec, data):
        """The integer enclosure is D^(d-1) times the Fraction power form,
        holds the exact value, and contains interval Horner's enclosure
        unless the interval holds 0 (there an even power's bound 0 can be
        tighter than Horner's x*x); every sign equals the Fraction
        reference's on a twin field."""
        p, lo, hi = spec
        field, twin = NumberField(p, lo, hi), NumberField(p, lo, hi)
        probe = NumberField(p, lo, hi)      # bisected by the containment check
        batch = [data.draw(coords(field.degree)) for _ in range(6)]
        offset = data.draw(st.integers(-3, 3))
        batch.append(near_root(*field.interval, offset) + [0] * (field.degree - 2))
        for c in batch:
            value = field.element(c)
            scale = field._D ** (field.degree - 1)
            a, b = field.interval
            plo, phi = power_form_by_fractions(value.num, a, b)
            assert value._enclosure() == (plo * scale, phi * scale)
            at_root = probe.element(value.num)
            assert sign_by_fractions(at_root - plo) >= 0 >= sign_by_fractions(at_root - phi)
            if not a < 0 < b:
                vlo, vhi = Poly(value.num).eval_interval(a, b)
                assert plo <= vlo and vhi <= phi
            got = _outcome(value.sign)
            exact = _outcome(lambda: sign_by_fractions(twin.element(c)))
            assert got == exact
        assert field.interval == twin.interval

    @field_settings
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
                exact = _outcome(lambda: sign_by_fractions(twin.element(x) - bt))
                got = _outcome(lambda: (a < b, a <= b, a > b, a >= b))
                if exact is ReducibleModulusError:
                    assert got is ReducibleModulusError
                else:
                    assert got == (exact < 0, exact <= 0, exact > 0, exact >= 0)
        assert field.interval == twin.interval

    linear = st.integers(-9, 9).map(lambda c: (Poly([-c, 1]), Fraction(c) - 1,
                                              Fraction(c) + 1))

    def oracle_mul(p, x, y):
        """Coordinates of x*y in Q[t]/(p), by Poly arithmetic over Fraction."""
        prod = (Poly(x) * Poly(y)) % p
        return tuple(prod[i] for i in range(p.degree))

    def oracle_inverse(p, x):
        """Coordinates of 1/x in Q[t]/(p), or the error naming the monic
        gcd of x and p, by the rational extended Euclid."""
        g, u, _ = poly_xgcd(Poly(x), p)
        if g.degree > 0:
            return ReducibleModulusError(g)
        u = u % p
        return tuple(u[i] for i in range(p.degree))

    @field_settings
    @given(st.one_of(linear, fields()), st.data())
    def test_integer_vectors_match_fraction_coordinates(spec, data):
        p, lo, hi = spec
        field = NumberField(p, lo, hi)
        x, y = (tuple(data.draw(coords(field.degree))) for _ in range(2))
        q = data.draw(st.fractions(min_value=-8, max_value=8, max_denominator=12))
        a, b = field.element(x), field.element(y)
        results = [
            (a + b, tuple(u + v for u, v in zip(x, y))),
            (a - b, tuple(u - v for u, v in zip(x, y))),
            (-a, tuple(-u for u in x)),
            (a * b, oracle_mul(p, x, y)),
            (a + q, (x[0] + q,) + x[1:]),
            (q - a, (q - x[0],) + tuple(-u for u in x[1:])),
            (a * q, tuple(u * q for u in x)),
        ]
        for value, expected in results:
            assert value.coords == expected
            assert value.den > 0 and math.gcd(value.den, *value.num) == 1
            twin = field.element(expected)
            assert value == twin and hash(value) == hash(twin)
        assert (a == b) == (x == y)
        assert field.from_rational(Fraction(1, 2)) != field.one()
        assert (a - b + b) == a and hash(a - b + b) == hash(a)
        if any(x):
            expected = oracle_inverse(p, x)
            if isinstance(expected, ReducibleModulusError):
                with pytest.raises(ReducibleModulusError) as info:
                    a.inverse()
                assert info.value.factor == expected.factor
            else:
                assert a.inverse().coords == expected

    def sparse_vectors(degree):
        """Integer vectors with at most two nonzero coordinates; monomials
        with coefficient 1 among them."""
        coeff = st.one_of(st.just(1), st.integers(-2 ** 40, 2 ** 40))
        terms = st.lists(st.tuples(st.integers(0, degree - 1), coeff), max_size=2)

        def vector(pairs):
            v = [0] * degree
            for i, c in pairs:
                v[i] = c
            return v

        return terms.map(vector)

    @field_settings
    @given(st.one_of(linear, fields()), st.data())
    def test_mul_mod_on_sparse_operands_matches_dense_division(spec, data):
        """`_mul_mod` loops over the sparser operand's nonzero terms; the
        reference convolves densely and divides by the modulus."""
        p, lo, hi = spec
        field = NumberField(p, lo, hi)
        d = field.degree
        sparse = sparse_vectors(d)
        dense = st.lists(st.integers(-50, 50), min_size=d, max_size=d)
        for left, right in ((sparse, dense), (dense, sparse), (sparse, sparse),
                            (dense, dense)):
            a, b = data.draw(left), data.draw(right)
            expected = mul_mod_by_division(a, b, field._ints)
            assert _mul_mod(tuple(a), tuple(b), field._ints) == expected
            assert _mul_mod(list(b), list(a), field._ints) == expected

    @field_settings
    @given(fields(), st.integers(1, 3), st.integers(1, 2 ** 70), st.integers(0, 3))
    # x^2 + 2x: the constructor's refinement lands on the rational root -2
    @example(spec=(Poly([0, 2, 1]), -3, Fraction(-7, 5)), wnum=1, wden=1, steps=0)
    def test_refine_interval_matches_fraction_bisection(spec, wnum, wden, steps):
        p, lo, hi = spec
        field = NumberField(p, lo, hi)      # refines to width 2^-20
        lo, hi, root = refine_by_fractions(p, lo, hi, Fraction(1, 2 ** 20))
        assert (*field.interval, field.exact_root) == (lo, hi, root)
        width = Fraction(wnum, wden)
        field.refine_interval(width)
        if root is None:    # a root hit is kept; bisection stops there
            lo, hi, root = refine_by_fractions(p, lo, hi, width)
        assert (*field.interval, field.exact_root) == (lo, hi, root)
        for _ in range(steps):
            field._bisect_once()
            if root is None:
                lo, hi, root = refine_by_fractions(p, lo, hi, (hi - lo) / 2)
            assert (*field.interval, field.exact_root) == (lo, hi, root)

    @field_settings
    @given(st.integers(-3, 3), st.lists(st.integers(-4, 4), max_size=3),
           st.integers(1, 8), st.integers(1, 255), st.integers(1, 30))
    def test_refine_interval_hits_a_rational_root_like_fraction_bisection(
            r, cofactor, j, left, q):
        """(x - r) * cofactor on an interval that r splits into left and
        2^j - left steps of 1/q: some midpoint is exactly r."""
        assume(left < 2 ** j)
        modulus = Poly([-r, 1]) * Poly(cofactor + [1])
        lo = r - Fraction(left, q)
        hi = r + Fraction(2 ** j - left, q)
        assume(is_squarefree(modulus) and modulus(lo) != 0 and modulus(hi) != 0)
        assume(count_real_roots(modulus, lo, hi) == 1)
        field = NumberField(modulus, lo, hi)
        expected = refine_by_fractions(modulus, lo, hi, Fraction(1, 2 ** 20))
        assert (*field.interval, field.exact_root) == expected
        assert field.exact_root == r

    @field_settings
    @given(fields(), st.data())
    def test_kept_chain_counts_like_a_fresh_chain(spec, data):
        p, lo, hi = spec
        field = NumberField(p, lo, hi)
        bound = cauchy_root_bound(p)
        ends = st.fractions(min_value=-bound, max_value=bound, max_denominator=12)
        a, b = data.draw(ends), data.draw(ends)
        assume(a < b)
        assert (count_real_roots(p, a, b, field._chain)
                == count_real_roots(p, a, b))

    def moduli():
        """Monic integer moduli of degree 1..9: random, or a product of up
        to three factors (reducible); `field_of` keeps the squarefree ones
        with a real root."""
        factor = st.integers(1, 3).flatmap(
            lambda k: st.lists(st.integers(-4, 4), min_size=k, max_size=k)
        ).map(lambda cs: Poly(cs + [1]))
        product = st.lists(factor, min_size=1, max_size=3).map(
            lambda fs: math.prod(fs[1:], start=fs[0]))
        single = st.integers(1, 9).flatmap(
            lambda k: st.lists(st.integers(-6, 6), min_size=k, max_size=k)
        ).map(lambda cs: Poly(cs + [1]))
        return st.one_of(single, product).filter(lambda p: p.degree <= 9)

    def field_of(p):
        assume(is_squarefree(p))
        bound = cauchy_root_bound(p)
        roots = isolate_real_roots(p, -bound, bound)
        assume(roots)
        lo, hi = roots[-1]
        assume(p(lo) != 0 and p(hi) != 0)
        return NumberField(p, lo, hi)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much,
                                     HealthCheck.too_slow])
    @given(moduli(), st.data())
    def test_min_poly_equals_fraction_oracle(p, data):
        field = field_of(p)
        rational = st.fractions(min_value=-8, max_value=8, max_denominator=12)
        coord = st.one_of(st.just(Fraction(0)), rational)
        elements = [
            field.element(data.draw(st.lists(coord, min_size=field.degree,
                                             max_size=field.degree))),
            field.from_rational(data.draw(rational)),
            field.zero(),
        ]
        for a in elements:
            mp = a.min_poly()
            assert mp == min_poly_by_fractions(a)
            assert eval_at(mp, a).is_zero()
            # D*a is an algebraic integer: its primitive dependency is monic
            den = math.lcm(*(c.denominator for c in a.coords))
            gamma = [int(c * den) for c in a.coords]
            powers = [[1] + [0] * (field.degree - 1)]
            for _ in range(field.degree):
                powers.append(_mul_mod(powers[-1], gamma, field._ints))
            combo = _integer_dependency(powers)
            assert math.gcd(*combo) == 1 and abs(combo[-1]) == 1

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much,
                                     HealthCheck.too_slow])
    @given(moduli(), moduli(), st.data())
    def test_zero_divisor_inverse_names_the_oracle_factor(f, h, data):
        """A multiple of a proper factor f of the modulus f*h is a zero
        divisor: `inverse` raises with the `poly_xgcd` oracle's gcd."""
        field = field_of(f * h)
        r = data.draw(st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=12),
                               min_size=h.degree, max_size=h.degree))
        assume(any(r))
        x = tuple((f * Poly(r))[i] for i in range(field.degree))
        expected = oracle_inverse(field.modulus, x)
        assert isinstance(expected, ReducibleModulusError)
        with pytest.raises(ReducibleModulusError) as info:
            field.element(x).inverse()
        assert info.value.factor == expected.factor


@pytest.mark.parametrize("g", [40, 120])
def test_mul_mod_at_high_degree_matches_division(g):
    """`_mul_mod` over the AY alpha field of degree g, where a product folds
    up to g - 1 terms above the basis: sparse*dense, dense*sparse and
    dense*dense against dense long division and against `Poly` arithmetic."""
    field = ay_alpha(g)
    m = field._ints
    rng = random.Random(g)
    dense = [[rng.randint(-2 ** 40, 2 ** 40) for _ in range(g)] for _ in range(2)]
    alpha, top = ([0] * k + [1] + [0] * (g - 1 - k) for k in (1, g - 1))
    two_terms = [0] * g
    two_terms[3], two_terms[g - 2] = -7, 2 ** 50
    for x, y in [(s, dense[0]) for s in (alpha, top, two_terms)] + [tuple(dense)]:
        expected = mul_mod_by_division(x, y, m)
        assert _mul_mod(x, y, m) == _mul_mod(tuple(y), tuple(x), m) == expected
        product = (Poly(x) * Poly(y)) % field.modulus
        assert [product[i] for i in range(g)] == expected


try:
    import sympy
except ImportError:  # sympy is an optional test oracle
    sympy = None


@pytest.mark.parametrize("modulus, coords", [
    (TRIB, [0, 1, 0]),
    (Poly([-3, -1, 0, 1]), [Fraction(1, 2), Fraction(-2, 3), 5]),
    (Poly([-1, -1, 0, 0, 1]), [Fraction(-1, 3), 0, 2, Fraction(1, 5)]),
    (QUAD, [Fraction(7, 4), Fraction(-3, 2)]),
], ids=["tribonacci-root", "cubic-constant-3", "quartic", "quadratic"])
def test_min_poly_matches_sympy(modulus, coords):
    if sympy is None:
        pytest.skip("sympy is not installed")
    x = sympy.Symbol("x")
    field = NumberField(modulus, 1, 3)
    a = field.element(coords)
    root = sympy.CRootOf(sympy.Poly([int(c) for c in reversed(modulus.coeffs)], x), -1)
    value = sympy.AlgebraicNumber(
        root, [sympy.Rational(c.numerator, c.denominator) for c in reversed(a.coords)])
    expected = sympy.Poly(sympy.minimal_polynomial(value, x), x).monic()
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())]
    assert a.min_poly() == Poly(coeffs)
