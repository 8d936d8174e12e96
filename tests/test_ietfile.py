import json
import random
from fractions import Fraction

import pytest

from ietsaf import (IET, AlgNum, InputError, NumberField, ParseError, Poly, ay_lift,
                    certificates, dumps_iet, loads_iet, polys)
from ietsaf.ietfile import coords_to_string, parse_coords

from helpers import random_cubic_field, random_iet


def test_round_trip_bytes_ay():
    for g in (3, 4):
        lift = ay_lift(g)
        text = dumps_iet(lift)
        again = loads_iet(text)
        assert again == lift
        assert dumps_iet(again) == text


def test_loading_and_composing_certify_nothing(monkeypatch):
    calls = []
    certify = polys.certify_irreducible

    def counting(p, *args):
        calls.append(p)
        return certify(p, *args)

    for module in (polys, certificates):
        monkeypatch.setattr(module, "certify_irreducible", counting)
    text = dumps_iet(ay_lift(3))
    f, g = loads_iet(text), loads_iet(text)
    f.compose(g.inverse())
    assert calls == []


def test_loaded_breaks_and_translations_do_no_arithmetic(monkeypatch):
    """The constructor that `loads_iet` runs stores the breakpoints and
    translations, so reading them adds, subtracts and multiplies nothing."""
    f = loads_iet(dumps_iet(ay_lift(4)))

    def refuse(*args):
        raise AssertionError("AlgNum arithmetic on a loaded IET")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__neg__"):
        monkeypatch.setattr(AlgNum, name, refuse)
    assert len(f.breaks) == f.n + 1 and len(f.translations) == f.n
    assert len(f.pieces()) == f.n


def test_round_trip_random():
    rng = random.Random(83)
    for _ in range(10):
        field = random_cubic_field(rng)
        iet = random_iet(field, rng, circle=bool(rng.getrandbits(1)))
        text = dumps_iet(iet)
        again = loads_iet(text)
        assert again == iet
        assert again.circle == iet.circle
        assert dumps_iet(again) == text


def test_reduced_fraction_canonical_form():
    field = NumberField(Poly([-2, 1]), 0, 3)
    iet = IET(field, Fraction(2, 4), [field.from_rational(Fraction(2, 4))], [0])
    data = json.loads(dumps_iet(iet))
    assert data["total"] == "1/2"


def test_parse_errors_with_position():
    with pytest.raises(ParseError, match="line 1"):
        loads_iet("{not json")
    with pytest.raises(ParseError, match="missing keys"):
        loads_iet(json.dumps({"modulus": "-1,1,1,1"}))
    base = json.loads(dumps_iet(ay_lift(3)))
    bad = dict(base)
    bad["perm"] = [1] * len(base["perm"])
    with pytest.raises(InputError, match="bijection"):
        loads_iet(json.dumps(bad))
    bad = dict(base)
    bad["circle"] = "yes"
    with pytest.raises(ParseError, match="boolean"):
        loads_iet(json.dumps(bad))
    bad = dict(base)
    bad["total"] = "1,0"
    with pytest.raises(ParseError, match="coordinates"):
        loads_iet(json.dumps(bad))
    bad = dict(base)
    bad["unknown"] = 1
    with pytest.raises(ParseError, match="unknown keys"):
        loads_iet(json.dumps(bad))


def test_invalid_lengths_rejected():
    base = json.loads(dumps_iet(ay_lift(3)))
    bad = dict(base)
    bad["lengths"] = list(bad["lengths"][:-1])
    with pytest.raises((ParseError, InputError)):
        loads_iet(json.dumps(bad))


# -- the integer path against the `Fraction` path -------------------------------------

CUBIC = NumberField(Poly([-1, -1, 0, 1]), 1, 2)
QUARTIC = NumberField(Poly([-1, -1, -1, -1, 1]), 1, 2)

try:
    from hypothesis import example, given
    from hypothesis import strategies as st
except ImportError:  # hypothesis is an optional test dependency
    given = None


if given is None:

    def test_integer_coordinates_match_fractions():
        pytest.skip("hypothesis is not installed")

else:

    @st.composite
    def ratio_texts(draw):
        """`[+-]digits[/digits]` with optional padding: unreduced, signed,
        zero and leading-zero numerators and denominators."""
        sign = draw(st.sampled_from(["", "+", "-"]))
        n = draw(st.integers(0, 10 ** 6) | st.integers(0, 12))
        text = f"{sign}{n:0{draw(st.integers(1, 3))}d}"
        if draw(st.booleans()):
            text += f"/{draw(st.integers(1, 10 ** 6) | st.integers(1, 12))}"
        return draw(st.sampled_from(["", " ", "\t"])) + text + draw(
            st.sampled_from(["", " ", "\n"]))

    @st.composite
    def coordinate_texts(draw):
        field = draw(st.sampled_from([CUBIC, QUARTIC]))
        parts = draw(st.lists(ratio_texts(), min_size=field.degree,
                              max_size=field.degree))
        return field, ",".join(parts)

    @given(coordinate_texts())
    @example((CUBIC, "+6/4,-1/2,0"))
    @example((QUARTIC, "-0,0/5,2/4,-6/3"))
    def test_parse_coords_matches_fraction_elements(case):
        field, text = case
        x = parse_coords(text, field)
        expected = field.element([Fraction(p) for p in text.split(",")])
        assert x == expected
        assert (x.num, x.den) == (expected.num, expected.den)
        assert type(x.num) is tuple and x.field is field

    @given(st.sampled_from([CUBIC, QUARTIC]), st.data())
    def test_coords_to_string_matches_fraction_text(field, data):
        coords = data.draw(st.lists(
            st.fractions(min_value=-10 ** 9, max_value=10 ** 9, max_denominator=10 ** 6),
            min_size=field.degree, max_size=field.degree))
        x = field.element(coords)
        assert coords_to_string(x) == ",".join(str(c) for c in x.coords)
