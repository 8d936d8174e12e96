import random
from fractions import Fraction

import pytest

from ietsaf import (
    InputError,
    Poly,
    PolynomialError,
    gf2_completion_bruteforce,
    gf2_completion_exists,
    nonlift_certificate,
    vanishing_by_field_degree,
    vanishing_by_reciprocity,
    vanishing_verdicts,
)
from ietsaf import certificates, cli, field, gf2, polys
from ietsaf.errors import IterationCapError
from ietsaf.field import AlgNum
from ietsaf.certificates import (
    BRUTEFORCE_DEGREE_CAP,
    COMPLETION_DEGREE_CAP,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_NOT_LIFT,
    REASON_COMPLETION,
    REASON_CONSTANT,
    REASON_DEGREE,
    _nonlift,
)

from helpers import (
    brute_mul,
    count_calls,
    gf2_completion_by_factoring,
    nonlift_certificate_chain_first,
    random_cubic_field,
    random_quartic_field_above_one,
    vanishing_verdicts_chain_first,
)

TRIB = Poly([-1, -1, -1, 1])      # x^3 - x^2 - x - 1
QUAD = Poly([1, -3, 1])           # x^2 - 3x + 1
GOLDEN = Poly([-1, -1, 1])        # x^2 - x - 1


def test_vanishing_by_reciprocity_examples():
    assert vanishing_by_reciprocity(TRIB).vanishes
    assert not vanishing_by_reciprocity(QUAD).vanishes
    assert vanishing_by_reciprocity(GOLDEN).vanishes


def test_vanishing_by_field_degree_examples():
    v = vanishing_by_field_degree(QUAD)
    assert not v.vanishes
    assert v.index == 2
    assert v.detail == Poly([-3, 1])
    v = vanishing_by_field_degree(TRIB)
    assert v.vanishes
    assert v.index == 1
    assert v.detail.degree == 3


def test_vanishing_rational_degenerate():
    v1 = vanishing_by_reciprocity(Poly([-2, 1]))
    v2 = vanishing_by_field_degree(Poly([-2, 1]))
    assert v1.vanishes and v2.vanishes
    assert v2.detail == Poly([Fraction(-5, 2), 1])
    assert any("degenerate" in note for note in v1.notes)
    assert any("degenerate" in note for note in v2.notes)


def test_vanishing_preconditions():
    with pytest.raises(InputError):
        vanishing_by_reciprocity(Poly([1, 0, 1]))          # no real root > 1
    with pytest.raises(InputError):
        vanishing_by_reciprocity(Poly([0, 1]))             # zero constant
    with pytest.raises(InputError):
        vanishing_by_reciprocity(Poly([2, 1]))             # no root > 1
    with pytest.raises(InputError):
        vanishing_by_reciprocity(Poly([1, -2, 1]))         # not squarefree
    with pytest.raises(InputError):
        vanishing_by_field_degree(QUAD, (Fraction(0), Fraction(1)))
    # a supplied endpoint that is a root: hi for x - 2, lo for (x - 2)(x^2 - 7)
    with pytest.raises(InputError, match="does not isolate"):
        vanishing_by_field_degree(Poly([-2, 1]), (Fraction(1), Fraction(2)))
    with pytest.raises(InputError, match="does not isolate"):
        vanishing_by_field_degree(Poly([14, -7, -2, 1]), (Fraction(2), Fraction(3)))


def test_vanishing_with_supplied_interval():
    v = vanishing_by_field_degree(QUAD, (Fraction(2), Fraction(3)))
    assert not v.vanishes


@pytest.mark.parametrize("argv", [
    ["nonlift", "--minpoly", "-1,-1,-1,1", "--genus", "3"],
    ["vanishing", "--minpoly", "-1,-1,-1,1"],
    ["ay", "--genus", "3", "--check"],
], ids=["nonlift", "vanishing", "ay-check"])
def test_commands_run_no_rational_euclid(argv, monkeypatch, capsys):
    """Squarefreeness, the trace-field polynomial and the sign's zero-divisor
    check run on integer remainder sequences: `polys.poly_xgcd`, the one
    `Fraction` Euclid left in the library, is never called."""
    calls = count_calls(monkeypatch, polys, "poly_xgcd")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert calls == []


def test_vanishing_call_counts(monkeypatch, capsys):
    """One `vanishing` run: no separate squarefree test and no Sturm chain,
    since a trial prime certifies m, which proves it squarefree, and
    m(1) < 0 proves a root above 1.  The field-degree criterion reads the
    trace-field polynomial off the integers of m: no `NumberField` is
    built, and neither `AlgNum.inverse`, `AlgNum.min_poly` nor `poly_xgcd`
    runs."""
    counts = {"is_squarefree": 0, "sturm_chain": 0, "mul": 0, "mul_in_min_poly": 0,
              "field": 0, "inverse": 0, "min_poly": 0, "poly_xgcd": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(polys, "is_squarefree",
                        counting("is_squarefree", polys.is_squarefree))
    monkeypatch.setattr(polys, "sturm_chain", counting("sturm_chain", polys.sturm_chain))
    monkeypatch.setattr(AlgNum, "__mul__", counting("mul", AlgNum.__mul__))
    monkeypatch.setattr(AlgNum, "inverse", counting("inverse", AlgNum.inverse))
    monkeypatch.setattr(field.NumberField, "__init__",
                        counting("field", field.NumberField.__init__))
    monkeypatch.setattr(polys, "poly_xgcd", counting("poly_xgcd", polys.poly_xgcd))
    min_poly = AlgNum.min_poly

    def watched_min_poly(self):
        counts["min_poly"] += 1
        before = counts["mul"]
        result = min_poly(self)
        counts["mul_in_min_poly"] += counts["mul"] - before
        return result

    monkeypatch.setattr(AlgNum, "min_poly", watched_min_poly)
    assert cli.main(["vanishing", "--minpoly", "-3,-1,0,1"]) == 0
    assert "min poly of lambda+1/lambda: x^3 + 1/3*x^2 - 4*x - 13/3" in capsys.readouterr().out
    assert counts["is_squarefree"] == 0
    assert counts["sturm_chain"] == 0
    assert counts["mul_in_min_poly"] == 0
    assert counts["field"] == counts["inverse"] == counts["min_poly"] == 0
    assert counts["poly_xgcd"] == 0


def test_uncertified_irreducibility_is_noted_on_both_verdicts(capsys):
    note = "irreducibility unverified mod trial primes"
    m = Poly([-1] * 19 + [1])             # no trial prime certifies it
    by_rec, by_deg = vanishing_verdicts(m)
    assert note in by_rec.notes and note in by_deg.notes
    assert note in vanishing_by_reciprocity(m).notes
    assert note not in vanishing_by_reciprocity(TRIB).notes
    assert cli.main(["vanishing", f"--minpoly={m.to_string()}"]) == 0
    assert capsys.readouterr().out.count(f"note: {note}\n") == 1


def test_methods_agree_on_corpus():
    corpus = [QUAD, GOLDEN, Poly([1, -1, -1, -1, 1])]
    for g in range(2, 9):
        corpus.append(Poly([-1] * g + [1]))
    rng = random.Random(71)
    fields = [random_cubic_field(rng, above_one=True) for _ in range(10)]
    fields += [random_quartic_field_above_one(rng) for _ in range(10)]
    corpus += [f.modulus for f in fields]
    for m in corpus:
        a = vanishing_by_reciprocity(m)
        b = vanishing_by_field_degree(m)
        assert a.vanishes == b.vanishes, str(m)


def test_completion_examples():
    # x^3+x+1 needs its reversal x^3+x^2+1; product is the degree-6 palindrome
    w = gf2_completion_exists(0b1011, 3)
    assert w == 0b1101
    assert gf2.is_self_reciprocal(gf2.mul(0b1011, w))
    assert gf2_completion_exists(0b1011, 2) is None
    assert gf2_completion_exists(0b11, 0) == 1
    # symmetric case
    assert gf2_completion_bruteforce(0b1101, 3) == 0b1011
    assert gf2_completion_bruteforce(0b111, 0) == 1


def test_completion_witness_contract():
    rng = random.Random(73)
    for _ in range(200):
        mbar = rng.randrange(1, 2 ** 7) | 1
        k = rng.randrange(0, 9)
        w = gf2_completion_exists(mbar, k)
        if w is None:
            continue
        assert gf2.degree(w) == k
        assert w & 1
        assert gf2.is_self_reciprocal(gf2.mul(mbar, w))


def test_completion_agrees_with_bruteforce_small():
    for mbar in range(1, 2 ** 7, 2):
        for k in range(0, 10):
            fast = gf2_completion_exists(mbar, k)
            slow = gf2_completion_bruteforce(mbar, k)
            assert (fast is None) == (slow is None), (bin(mbar), k)


def test_completion_of_m_mod_2_exists_exactly_when_one_of_its_reversal_does():
    """Why `_nonlift` completes m mod 2 alone: for every odd mbar of degree
    1 to 8 and k = 0..8, brute force finds a completion of mbar exactly when
    it finds one of rev(mbar)."""
    for mbar in range(3, 2 ** 9, 2):
        rbar = gf2.reverse(mbar)
        for k in range(9):
            direct = gf2_completion_bruteforce(mbar, k)
            reversed_ = gf2_completion_bruteforce(rbar, k)
            assert (direct is None) == (reversed_ is None), (bin(mbar), k)


def test_completion_padding_equals_repeated_multiplication():
    """(x+1)^e as the product of x^(2^j) + 1 over the set bits j of e gives
    the witness that multiplying by x+1 once per degree gives."""
    for mbar in (1, 0b11, 0b1011, 0b1101, 0b10011, 0b111010001):
        for k in range(0, 70):
            fast = gf2_completion_exists(mbar, k)
            expected = gf2_completion_by_factoring(mbar, k)
            assert fast == expected, (bin(mbar), k)


def test_large_genus_witness_and_its_string():
    """At genus 200,000 the witness is (x+1)^(g-3) for x^3 - x^2 - x - 1 and
    its string lists exactly the binomial coefficients that are odd."""
    genus = 200_000
    v = nonlift_certificate(TRIB, genus)
    e = genus - 3
    assert v.witness == sum(1 << i for i in range(e + 1) if i & e == i)    # Lucas
    text = gf2.to_string(v.witness)
    terms = text.split(" + ")
    assert len(terms) == 2 ** bin(e).count("1")
    assert terms[0] == f"x^{e}" and terms[-2:] == ["x", "1"]     # e is odd
    for a in (0b10, 0b11, 0b110, 0b1000000000000000000000001):
        reference = " + ".join(
            "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
            for i in range(gf2.degree(a), -1, -1) if a >> i & 1)
        assert gf2.to_string(a) == reference

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is an optional test dependency
    given = None


if given is None:

    def test_completion_properties():
        pytest.skip("hypothesis is not installed")

    def test_validation_order_properties():
        pytest.skip("hypothesis is not installed")

else:

    odd = st.integers(0, 2 ** 6 - 1).map(lambda x: 2 * x + 1)
    # random odd polynomials, and products f * g * rev(f) with repeated
    # and reversed factors, up to degree 12
    mbars = st.one_of(
        st.integers(0, 2 ** 12 - 1).map(lambda x: 2 * x + 1),
        st.tuples(odd, odd, st.booleans()).map(
            lambda t: gf2.mul(gf2.mul(t[0], t[1]), gf2.reverse(t[0]) if t[2] else t[0])),
    )

    @settings(max_examples=150, deadline=None)
    @given(mbars, st.integers(0, 12))
    def test_gcd_completion_matches_factoring_and_bruteforce(mbar, k):
        fast = gf2_completion_exists(mbar, k)
        assert fast == gf2_completion_by_factoring(mbar, k)
        slow = gf2_completion_bruteforce(mbar, k)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert gf2.degree(fast) == k and fast & 1
            assert gf2.is_self_reciprocal(gf2.mul(mbar, fast))

    def _monic(low):
        return Poly(list(low) + [1])

    # monic integer polynomials of degree 1 to 8: random ones, s^2 * t with
    # a repeated factor, and x * t with m(0) = 0; many have m(1) >= 0
    minimal_polys = st.one_of(
        st.lists(st.integers(-6, 6), min_size=1, max_size=8).map(_monic),
        st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=2),
                  st.lists(st.integers(-3, 3), max_size=4)).map(
            lambda t: Poly(brute_mul(brute_mul(t[0] + [1], t[0] + [1]), t[1] + [1]))),
        st.lists(st.integers(-6, 6), max_size=7).map(lambda low: _monic([0] + low)),
    )

    def _outcome(fn, *args):
        try:
            return fn(*args)
        except InputError as exc:
            return f"InputError: {exc}"

    # no interval, or one with ends in [-1, 5] on a grid of thirds
    ends = st.fractions(-1, 5, max_denominator=3)
    intervals = st.one_of(st.none(), st.tuples(ends, ends))

    @settings(max_examples=300, deadline=None)
    @given(minimal_polys, st.integers(0, 10), intervals)
    @example(Poly([1, 0, -10, 0, 1]), 4, None)   # reducible mod every prime, m(1) = -8
    @example(Poly([-2, -3, 0, 1]), 3, None)      # (x+1)^2 (x-2): m(0) = -2, m(1) = -4
    @example(Poly([-2, -3, 0, 1]), 0, (2, 3))    # the squarefree error before the interval
    @example(Poly([0, -2, 0, 1]), 3, None)       # x (x^2 - 2): m(0) = 0, m(1) = -1
    @example(Poly([-3, 1]), 1, None)             # degree 1, root 3
    @example(Poly([-1, 1]), 1, None)             # degree 1, m(1) = 0: no root > 1
    @example(Poly([2, 1]), 1, None)              # degree 1, root -2
    @example(TRIB, 3, (1, 2))                    # a hit at q = 3; isolates the root 1.84
    @example(TRIB, 3, (2, 1))                    # empty
    @example(TRIB, 3, (0, 2))                    # lo < 1
    @example(Poly([-2, 1]), 1, (1, 2))           # a hit; hi is the root 2
    @example(Poly([-4, 0, 1]), 2, (2, 3))        # a miss; lo is the root 2
    @example(TRIB, 3, (2, 3))                    # no root in (2, 3]
    @example(Poly([5, -5, 1]), 2, (1, 4))        # a hit; two roots, 1.38 and 3.62
    def test_certify_first_matches_chain_first_validation(m, g, interval):
        """Certify-first validation returns the verdicts, notes included, or
        raises the error text of validation with the Sturm chain first."""
        assert (_outcome(vanishing_verdicts, m, interval)
                == _outcome(vanishing_verdicts_chain_first, m, interval))
        assert (_outcome(nonlift_certificate, m, g)
                == _outcome(nonlift_certificate_chain_first, m, g))


def test_completion_preconditions():
    with pytest.raises(PolynomialError):
        gf2_completion_exists(0b10, 1)       # constant term 0
    with pytest.raises(InputError, match="nonnegative"):
        gf2_completion_exists(0b1011, -1)
    with pytest.raises(PolynomialError):
        gf2_completion_bruteforce(0, 1)


def test_bruteforce_degree_is_capped():
    """Past BRUTEFORCE_DEGREE_CAP the oracle raises IterationCapError, the
    work cap, not InputError; at the cap it still answers."""
    assert BRUTEFORCE_DEGREE_CAP == 24
    with pytest.raises(IterationCapError, match="^completion degree 25 exceeds the cap 24$"):
        gf2_completion_bruteforce(1, 25)
    assert gf2_completion_bruteforce(1, 24) == 1 << 24 | 1          # x^24 + 1
    assert gf2_completion_bruteforce(0b11, 24) == 1 << 24 | 1       # (x + 1)(x^24 + 1) is a palindrome


def test_completion_degree_is_capped_before_any_padding(monkeypatch):
    """A completion degree above the cap raises IterationCapError at once,
    also at genus 10^20; the verdicts decided before the completion are
    given at any genus."""
    with pytest.raises(IterationCapError, match=f"exceeds the cap {COMPLETION_DEGREE_CAP}$"):
        gf2_completion_exists(0b11, COMPLETION_DEGREE_CAP + 1)
    with pytest.raises(IterationCapError):
        nonlift_certificate(TRIB, 10 ** 20)
    v = nonlift_certificate(Poly([-2, 0, 0, 1]), 10 ** 20)      # x^3 - 2
    assert v.outcome == OUTCOME_NOT_LIFT and v.reason == REASON_CONSTANT
    monkeypatch.setattr(certificates, "COMPLETION_DEGREE_CAP", 5)
    assert gf2_completion_exists(0b11, 5) == gf2_completion_by_factoring(0b11, 5)
    with pytest.raises(IterationCapError, match="completion degree 6 exceeds the cap 5"):
        nonlift_certificate(TRIB, 9)
    assert nonlift_certificate(TRIB, 2).reason == REASON_DEGREE


def test_nonlift_spot_values():
    v = nonlift_certificate(TRIB, 3)
    assert v.outcome == OUTCOME_INCONCLUSIVE
    assert v.witness == 1
    v = nonlift_certificate(Poly([-1, -1, 0, 1]), 3)
    assert v.outcome == OUTCOME_NOT_LIFT and v.reason == REASON_COMPLETION
    v = nonlift_certificate(Poly([-1, -1, 0, 1]), 6)
    assert v.outcome == OUTCOME_INCONCLUSIVE
    assert gf2.degree(v.witness) == 3
    v = nonlift_certificate(Poly([-2, 0, 0, 1]), 5)      # x^3 - 2
    assert v.outcome == OUTCOME_NOT_LIFT and v.reason == REASON_CONSTANT
    v = nonlift_certificate(TRIB, 2)
    assert v.outcome == OUTCOME_NOT_LIFT and v.reason == REASON_DEGREE


def test_nonlift_certificate_oracle_swap():
    rng = random.Random(79)
    polys = [TRIB, QUAD, GOLDEN, Poly([-1, -1, 0, 1]), Poly([1, -1, -1, -1, 1])]
    for _ in range(10):
        polys.append(random_cubic_field(rng, above_one=True).modulus)
    for m in polys:
        for genus in range(1, 13):
            fast = nonlift_certificate(m, genus)
            slow = _nonlift(fast.stretch, genus, completion=gf2_completion_bruteforce)
            assert fast.outcome == slow.outcome, (str(m), genus)


def test_nonlift_monotonicity():
    # Inconclusive at (m, g) stays Inconclusive at (m, g+2)
    polys = [TRIB, QUAD, GOLDEN, Poly([-1, -1, 0, 1]), Poly([1, -1, -1, -1, 1])]
    for g in range(3, 9):
        polys.append(Poly([-1] * g + [1]))
    for m in polys:
        for genus in range(m.degree, 11):
            if nonlift_certificate(m, genus).outcome == OUTCOME_INCONCLUSIVE:
                later = nonlift_certificate(m, genus + 2)
                assert later.outcome == OUTCOME_INCONCLUSIVE, (str(m), genus)


def test_nonlift_preconditions():
    with pytest.raises(InputError):
        nonlift_certificate(Poly([1, 2]), 3)     # not monic
    with pytest.raises(InputError):
        nonlift_certificate(TRIB, 0)
    with pytest.raises(InputError):
        nonlift_certificate(Poly([1, -2, 1]), 4)  # not squarefree


def test_verdict_serialization():
    v = nonlift_certificate(Poly([-1, -1, 0, 1]), 6)
    d = v.to_dict()
    assert d["outcome"] == OUTCOME_INCONCLUSIVE
    assert d["witness"] == "x^3 + x^2 + 1"
    w = vanishing_by_reciprocity(TRIB).to_dict()
    assert w["vanishes"] is True and w["method"] == "reciprocity"
