import json
import random
from fractions import Fraction

import pytest

from ietsaf import IET, NumberField, ParseError, Poly, ay_lift, dumps_iet, field, loads_iet

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
    certify = field.certify_irreducible

    def counting(p, *args):
        calls.append(p)
        return certify(p, *args)

    monkeypatch.setattr(field, "certify_irreducible", counting)
    text = dumps_iet(ay_lift(3))
    f, g = loads_iet(text), loads_iet(text)
    f.compose(g.inverse())
    assert calls == []
    assert f.field.certified_prime == 3 and f.field.certified_prime == 3
    assert calls == [f.field.modulus]       # certified on first read, once


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
    with pytest.raises(ParseError, match="bijection"):
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
    from ietsaf import InputError
    with pytest.raises((ParseError, InputError)):
        loads_iet(json.dumps(bad))
