import math
import random
import sys
from fractions import Fraction

import pytest

import ietsaf.polys

from ietsaf import (
    NonSquarefreeError,
    ParseError,
    Poly,
    PolynomialError,
    certify_irreducible,
    count_real_roots,
    is_reciprocal,
    is_squarefree,
    isolate_real_roots,
    poly_xgcd,
    reverse,
)
from ietsaf.ietfile import parse_interval
from ietsaf.polys import (
    TRIAL_PRIMES,
    _PackedResidues,
    _irreducible_mod,
    _parity_proves_reducible,
    cauchy_root_bound,
    parse_ratio,
    parse_rational,
    primitive_gcd,
    sign_at,
    sturm_chain,
    trace_minpoly,
)

from helpers import (
    charpoly_by_fractions,
    count_real_roots_by_fractions,
    field_at_a_real_root,
    is_irreducible_mod_by_powering,
    min_poly_by_fractions,
    mulmod_by_lists,
    poly_gcd,
    sturm_chain_by_fractions,
)


def brute_mul(p, q):
    # convolution oracle, independent of Poly.__mul__
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


def test_gcd_common_factor():
    assert poly_gcd(Poly([-1, 0, 1]), Poly([-1, 1])) == Poly([-1, 1])


def test_divrem_synthetic():
    q, r = divmod(Poly([1, -3, 1]), Poly([0, 1]))
    assert q == Poly([-3, 1])
    assert r == Poly([1])


def test_divrem_zero_divisor():
    with pytest.raises(PolynomialError):
        divmod(Poly([1, 1]), Poly())


def test_mul_matches_convolution_oracle():
    rng = random.Random(11)
    for _ in range(50):
        p = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        q = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        if p.is_zero or q.is_zero:
            continue
        assert p * q == brute_mul(p, q)


def test_divmod_reconstructs():
    rng = random.Random(5)
    for _ in range(50):
        p = Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(rng.randint(1, 6))])
        q = Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(rng.randint(1, 4))])
        if q.is_zero:
            continue
        quo, rem = divmod(p, q)
        assert quo * q + rem == p
        assert rem.is_zero or rem.degree < q.degree


def test_xgcd_bezout():
    rng = random.Random(6)
    for _ in range(30):
        p = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        q = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        if p.is_zero or q.is_zero:
            continue
        g, u, v = poly_xgcd(p, q)
        assert u * p + v * q == g
        if not g.is_zero:
            assert g.is_monic


def test_reverse_examples():
    # reversal checked by evaluating x^n p(1/x) at x = 2
    p = Poly([-1, -1, -1, 1])  # x^3 - x^2 - x - 1
    r = reverse(p)
    assert r == Poly([1, -1, -1, -1])
    assert r(Fraction(2)) == Fraction(2) ** 3 * p(Fraction(1, 2))
    assert reverse(Poly([1, -3, 1])) == Poly([1, -3, 1])
    assert reverse(Poly([0, 1])) == Poly([1])


def test_reverse_zero_rejected():
    with pytest.raises(PolynomialError):
        reverse(Poly())


def test_reverse_involutive_when_constant_nonzero():
    rng = random.Random(9)
    for _ in range(100):
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
        p = Poly(coeffs)
        if p.is_zero or p.constant() == 0:
            continue
        assert reverse(reverse(p)) == p


def test_is_reciprocal_examples():
    assert is_reciprocal(Poly([1, -3, 1]))
    assert not is_reciprocal(Poly([-1, -1, -1, 1]))
    assert is_reciprocal(Poly([-1, 1]))           # anti-palindromic unit
    assert is_reciprocal(Poly([1, -1, -1, -1, 1]))
    assert not is_reciprocal(Poly([-1, -1, 1]))
    assert not is_reciprocal(Poly([2, 1]))        # constant not a unit


def test_is_reciprocal_preconditions():
    with pytest.raises(PolynomialError):
        is_reciprocal(Poly([1, 2]))   # not monic
    with pytest.raises(PolynomialError):
        is_reciprocal(Poly([0, 1]))   # zero constant term


def test_is_reciprocal_root_inversion_oracle():
    # oracle: complex root multiset closed under r -> 1/r (numpy.roots)
    numpy = pytest.importorskip("numpy")

    def closed_under_inversion(p):
        coeffs = [float(c) for c in reversed(p.coeffs)]
        roots = numpy.roots(coeffs)
        inverted = sorted(1.0 / roots, key=lambda z: (z.real, z.imag))
        direct = sorted(roots, key=lambda z: (z.real, z.imag))
        return all(abs(a - b) < 1e-8 for a, b in zip(direct, inverted))

    cases = [
        Poly([1, -3, 1]), Poly([-1, -1, -1, 1]), Poly([-1, -1, 1]),
        Poly([1, -1, -1, -1, 1]), Poly([-1, 1]), Poly([1, 0, 1]),
        Poly([-1, 0, 1]), Poly([2, 1]), Poly([1, 3, 1]),
        Poly([-2, 0, 0, 1]), Poly([1, 0, 0, 0, 1]),
    ]
    for p in cases:
        assert is_reciprocal(p) == closed_under_inversion(p), str(p)


def test_sturm_isolation_examples():
    assert len(isolate_real_roots(Poly([-1, 1, 1, 1]), 0, 1)) == 1
    ivs = isolate_real_roots(Poly([-2, 0, 1]), 0, 2)
    assert len(ivs) == 1
    lo, hi = ivs[0]
    assert float(lo) < 2 ** 0.5 < float(hi) + 1e-12   # brackets sqrt(2)
    assert isolate_real_roots(Poly([1, 0, 1]), -10, 10) == []


def test_sturm_counts_all_roots():
    p = Poly([0, -1, 0, 1]) + Poly([1])          # x^3 - x + 1, one real root
    assert count_real_roots(p, Fraction(-10), Fraction(10)) == 1
    q = Poly([-1, 0, 1]) * Poly([-4, 0, 1])      # roots -2,-1,1,2
    assert count_real_roots(q, Fraction(-10), Fraction(10)) == 4
    ivs = isolate_real_roots(q, Fraction(-10), Fraction(10))
    assert len(ivs) == 4
    for lo, hi in ivs:
        assert count_real_roots(q, lo, hi) == 1


@pytest.mark.parametrize("p, roots", [
    # degree gaps in the remainder sequence put an odd power of a negative
    # leading coefficient into the pseudo-remainder: its sign must be dropped
    (Poly([0, 2, 0, 0, 1]), 2),                                  # x^4 + 2x
    (Poly([0, -1, 0, 0, Fraction(-1, 2)]), 2),                   # -(x^4 + 2x)/2
    (Poly([0, -1, -1, 3, 0, 0, 1]), 4),
    (Poly([Fraction(3, 7), 0, Fraction(-6, 7), 0, 0, Fraction(3, 7)]), 3),
])
def test_counts_with_degree_gaps_and_negative_leading_coefficients(p, roots):
    bound = cauchy_root_bound(p)
    assert count_real_roots(p, -bound, bound) == roots
    assert count_real_roots_by_fractions(p, -bound, bound) == roots
    assert len(isolate_real_roots(p, -bound, bound)) == roots


def test_sturm_rejects_nonsquarefree():
    with pytest.raises(NonSquarefreeError):
        isolate_real_roots(Poly([1, -2, 1]), 0, 2)


def test_is_squarefree():
    assert is_squarefree(Poly([-1, 0, 1]))
    assert not is_squarefree(Poly([1, -2, 1]))


def test_cauchy_bound_contains_roots():
    p = Poly([-6, -5, 1])  # roots 6, -1
    b = cauchy_root_bound(p)
    assert b > 6


def test_irreducible_mod_small_primes():
    assert _irreducible_mod([1, 1, 1], 2)          # x^2+x+1 mod 2
    assert not _irreducible_mod([1, 0, 1], 2)      # (x+1)^2 mod 2
    assert _irreducible_mod([-1, -1, -1, 1], 3)
    assert not _irreducible_mod([-1, -1, -1, 1], 2)


def test_certify_irreducible():
    assert certify_irreducible(Poly([-1, -1, -1, 1])) == 3
    assert certify_irreducible(Poly([-1, 1, 1, 1])) == 3
    assert certify_irreducible(Poly([1, -1, -1, -1, 1])) == 2
    # (x+1)(x^2+1): squarefree but reducible; certification must fail
    assert certify_irreducible(Poly([1, 1, 1, 1])) is None


def test_packed_product_at_the_slot_width_boundary():
    # d*(q-1)^2 + q - 1 is 65,532 at d = 455 and 65,676 at d = 456 (q = 13):
    # the last degree on 16-bit slots and the first on 32-bit ones.  With
    # every coefficient q-1 the middle slot of the product reaches d*(q-1)^2.
    q = 13
    rng = random.Random(17)
    for d, size in ((455, 2), (456, 4)):
        f = [rng.randrange(q) for _ in range(d)] + [1]
        ring = _PackedResidues(f, q)
        assert ring.size == size
        a = [q - 1] * d
        expected = mulmod_by_lists(a, a, f, q)
        expected += [0] * (d - len(expected))
        assert ring.unpack(ring.mul(ring.pack(a), ring.pack(a)), d) == expected


def test_irreducible_mod_on_wide_slots():
    # at q = 257 one product term (q-1)^2 already fills 16 bits
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(23)
    answers = set()
    for _ in range(40):
        coeffs = [rng.randint(-300, 300) for _ in range(rng.randint(2, 12))] + [1]
        assert _PackedResidues([c % 257 for c in coeffs], 257).size == 4
        expected = sympy.Poly(coeffs[::-1], x, modulus=257).is_irreducible
        assert _irreducible_mod(coeffs, 257) == expected
        assert is_irreducible_mod_by_powering(Poly(coeffs), 257) == expected
        answers.add(expected)
    assert answers == {True, False}
    with pytest.raises(PolynomialError):
        _irreducible_mod([1, 0, 1], 2 ** 61 - 1)   # no slot is wide enough


AY22 = Poly([-1] * 22 + [1])     # every trial prime misses it


def _count_calls(monkeypatch, name):
    """The results of every call of `ietsaf.polys.<name>` from now on."""
    calls = []
    original = getattr(ietsaf.polys, name)

    def counting(*args):
        calls.append(original(*args))
        return calls[-1]

    monkeypatch.setattr(ietsaf.polys, name, counting)
    return calls


def test_root_mod_q_answers_before_the_frobenius_table(monkeypatch):
    """AY22 has a root mod 3: the k = 1 gcd on plain lists says so, and no
    packed ring is built (x^3 mod f is a monomial)."""
    built = _count_calls(monkeypatch, "_PackedResidues")
    assert not _irreducible_mod([-1] * 22 + [1], 3)
    assert built == []
    assert is_irreducible_mod_by_powering(AY22, 3) is False
    # q > 2d - 2: x^q mod f is one `_mmod` on plain lists too
    assert not _irreducible_mod([-2, 0, 1], 7)     # 3^2 = 2 mod 7
    assert built == []


def test_certify_irreducible_agrees_with_sympy_on_ay_polynomials():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for g in range(3, 26):
        coeffs = [-1] * g + [1]
        expected = next((q for q in TRIAL_PRIMES if sympy.Poly(
            coeffs[::-1], x, modulus=q).is_irreducible), None)
        assert certify_irreducible(Poly(coeffs)) == expected, g
    assert certify_irreducible(AY22) is None


def test_wide_slot_refusal_comes_before_a_root():
    # x^2 - 1 has the root 1 mod every prime; the slot width is still refused
    with pytest.raises(PolynomialError, match="too large"):
        _irreducible_mod([-1, 0, 1], 2 ** 61 - 1)


LEHMER = Poly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
AY19 = Poly([-1] * 19 + [1])


def _int_coeffs(p):
    return [int(c) for c in p.coeffs]


def _factor_degrees(coeffs, q):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    factors = sympy.Poly(coeffs[::-1], x, modulus=q).factor_list()[1]
    return sorted(f.degree() for f, e in factors for _ in range(e))


def test_q_2_builds_no_packed_ring(monkeypatch):
    """Hits, a root, and misses that Rabin's gcds or h_d decide, all on bits."""
    built = _count_calls(monkeypatch, "_PackedResidues")
    cases = [
        [1, 1, 1],                  # x^2 + x + 1: a hit
        [1, 1, 0, 0, 1],            # x^4 + x + 1: a hit
        [1, 1, 0, 0, 0, 0, 0, 1],   # x^7 + x + 1: a hit of prime degree
        [1, 0, 1, 0, 1],            # (x^2 + x + 1)^2: no root, gcd at k = 2
        [1, 1, 0, 1, 1, 1, 1, 1],   # (x^2 + x + 1)(x^5 + x^2 + 1): h_7 != x
        [-1, -1, -1, 1],            # x^3 + x^2 + x + 1 = (x + 1)^3: a root
        _int_coeffs(AY22),
        _int_coeffs(LEHMER),
    ]
    answers = [_irreducible_mod(a, 2) for a in cases]
    assert built == []
    monkeypatch.undo()
    assert answers == [is_irreducible_mod_by_powering(Poly(a), 2) for a in cases]
    assert answers[:5] == [True, True, True, False, False]


def test_parity_filter_decides_lehmer_mod_3(monkeypatch):
    """Lehmer's polynomial mod 3 has factors of degree 2 and 8 and no root:
    d - r = 8 is even where an irreducible f of degree 10 needs odd, so the
    filter answers and no Frobenius table is built."""
    assert _factor_degrees(_int_coeffs(LEHMER), 3) == [2, 8]
    built = _count_calls(monkeypatch, "_PackedResidues")
    filtered = _count_calls(monkeypatch, "_parity_proves_reducible")
    assert not _irreducible_mod(_int_coeffs(LEHMER), 3)
    assert built == [] and filtered == [True]


def test_rabin_pass_decides_where_the_parity_filter_is_silent(monkeypatch):
    """AY g = 19 mod 5 has factors of degree 2, 2 and 15: r = 3 is odd like
    r = 1, so the filter is silent and the Frobenius pass says reducible."""
    assert _factor_degrees(_int_coeffs(AY19), 5) == [2, 2, 15]
    built = _count_calls(monkeypatch, "_PackedResidues")
    filtered = _count_calls(monkeypatch, "_parity_proves_reducible")
    assert not _irreducible_mod(_int_coeffs(AY19), 5)
    assert filtered == [False]
    assert len(built) == 1 and hasattr(built[0], "frobenius_rows")
    monkeypatch.undo()
    assert is_irreducible_mod_by_powering(AY19, 5) is False


def test_parity_filter_decides_a_vanishing_derivative(monkeypatch):
    """x^6 + x^3 + 2 = (x^2 + x + 2)^3 mod 3 has no root and f' = 0 mod 3:
    the filter answers before any resultant."""
    a = [2, 0, 0, 1, 0, 0, 1]
    assert _factor_degrees(a, 3) == [2, 2, 2]
    built = _count_calls(monkeypatch, "_PackedResidues")
    filtered = _count_calls(monkeypatch, "_parity_proves_reducible")
    resultants = _count_calls(monkeypatch, "_mresultant")
    assert not _irreducible_mod(a, 3)
    assert filtered == [True] and resultants == [] and built == []


def test_parity_filter_decides_a_square_factor(monkeypatch):
    """(x^2 + 1)^2 mod 3: no root, f' = x^3 + x is not 0, and disc = 0."""
    a = [1, 0, 2, 0, 1]
    built = _count_calls(monkeypatch, "_PackedResidues")
    resultants = _count_calls(monkeypatch, "_mresultant")
    filtered = _count_calls(monkeypatch, "_parity_proves_reducible")
    assert not _irreducible_mod(a, 3)
    assert resultants == [0] and filtered == [True] and built == []


def test_vanishing_leading_coefficient_answers_before_the_filter(monkeypatch):
    filtered = _count_calls(monkeypatch, "_parity_proves_reducible")
    assert not _irreducible_mod([1, 1, 3], 3)         # 3x^2 + x + 1 mod 3
    assert not _irreducible_mod([2, 1, 1, 0, 0, 5], 5)
    assert filtered == []


def test_parity_filter_never_rejects_an_irreducible_polynomial():
    """The filter alone, on random monic f mod odd q: it only ever reports
    an f that sympy calls reducible, and it does report some."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(29)
    reported = irreducible = 0
    for _ in range(400):
        q = rng.choice((3, 5, 7, 11, 13, 257))
        f = [rng.randrange(q) for _ in range(rng.randint(2, 14))] + [1]
        is_irreducible = sympy.Poly(f[::-1], x, modulus=q).is_irreducible
        irreducible += is_irreducible
        if _parity_proves_reducible(f, q):
            reported += 1
            assert not is_irreducible, (f, q)
    assert reported > 50 and irreducible > 20


def test_trace_minpoly_skips_the_integer_gcd_when_chi_is_squarefree_mod_3(monkeypatch):
    calls = _count_calls(monkeypatch, "primitive_gcd")
    mu = trace_minpoly(AY22)
    assert calls == []
    monkeypatch.undo()
    assert mu.degree == 22 and mu == trace_minpoly_by_sympy(AY22)


def test_trace_minpoly_of_a_reciprocal_m_takes_the_integer_gcd(monkeypatch):
    m = Poly([1, -1, -1, -1, 1])    # chi is the square of beta's polynomial
    calls = _count_calls(monkeypatch, "primitive_gcd")
    mu = trace_minpoly(m)
    assert len(calls) == 1
    monkeypatch.undo()
    assert mu == Poly([-3, -1, 1]) == trace_minpoly_by_sympy(m)


def test_trace_minpoly_falls_back_when_no_filter_prime_proves_squarefree(monkeypatch):
    """m = x^3 - x^2 - 3x - 3: chi is squarefree over Q, but 3 divides its
    leading coefficient and chi mod 5 is not squarefree, so the answer
    comes from the integer gcd and matches both oracles."""
    sympy = pytest.importorskip("sympy")
    m = Poly([-3, -3, -1, 1])
    chi = resultant_by_sympy(m).primitive()[1]
    x = chi.gens[0]
    assert chi.degree() == 3 and sympy.gcd(chi, chi.diff(x)).degree() == 0
    assert chi.LC() % 3 == 0
    chi_5 = sympy.Poly(chi.as_expr(), x, modulus=5)
    assert chi_5.degree() == 3 and chi_5.gcd(chi_5.diff(x)).degree() > 0
    calls = _count_calls(monkeypatch, "primitive_gcd")
    mu = trace_minpoly(m)
    assert len(calls) == 1
    monkeypatch.undo()
    assert mu == trace_minpoly_by_sympy(m)
    field = field_at_a_real_root(m)
    lam = field.gen()
    beta = lam + lam.inverse()
    assert mu == beta.min_poly() == min_poly_by_fractions(beta).monic()


def resultant_by_sympy(m):
    """Res_y(m(y), y^2 - xy + 1) = m(0) chi(x), as a sympy polynomial in x."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    my = sum(int(c) * y ** i for i, c in enumerate(m.coeffs))
    return sympy.Poly(sympy.resultant(my, y ** 2 - x * y + 1, y), x)


def trace_minpoly_by_sympy(m):
    """The monic squarefree part of chi."""
    sympy = pytest.importorskip("sympy")
    chi = resultant_by_sympy(m)
    radical = sympy.Poly(sympy.sqf_part(chi.as_expr()), chi.gens[0]).monic()
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(radical.all_coeffs())])


def test_poly_string_round_trip():
    p = Poly.from_string("1/2,-3,0,1")
    assert p.coeffs == (Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(1))
    assert Poly.from_string(p.to_string()) == p


def test_parse_rational_accepts_only_signed_digits_over_digits():
    assert parse_rational(" +6/4 ") == Fraction(3, 2)
    assert parse_rational("-7") == -7
    # an integral entry is a plain int, however it is written
    for text, value in (("-7", -7), ("-4/2", -2), ("2/2", 1), ("0/5", 0)):
        assert type(parse_rational(text)) is int and parse_rational(text) == value
    lo, hi = parse_interval("1,3/2")
    assert (lo, hi) == (1, Fraction(3, 2)) and type(lo) is int
    for text in ("1e3", "1e999999999", "0.5", ".5", "1 / 2", "1_000", "inf",
                 "nan", "", "1/", "/2", "1/0", "--1", "\u0661"):
        with pytest.raises(ParseError):
            parse_rational(text)
    with pytest.raises(ParseError):
        Poly.from_string("-1,1e3")


def test_parse_ratio_keeps_the_ints_it_reads():
    assert parse_ratio(" \t+6/4\n") == (6, 4)
    assert parse_ratio("-0") == (0, 1)
    assert parse_ratio("007/010") == (7, 10)
    assert parse_ratio("-3") == (-3, 1)


BIG = "1" * 5000
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("text, detail", [
    ("1/0", ": Fraction(1, 0)"),
    ("-5/0", ": Fraction(-5, 0)"),
    (" 1/0 ", ": Fraction(1, 0)"),
    ("\u0661", ""),
    ("1/", ""),
    (" 1/ ", ""),
    ("1 /2", ""),
    ("", ""),
    (BIG, "digits"),
    ("-" + BIG, "digits"),
    ("1/" + BIG, "digits"),
    (BIG + "/0", "digits"),
])
def test_parse_error_texts(text, detail):
    """The error texts that `parse_rational` gave when it parsed through
    `Fraction(str)`, for a token of up to 40 characters; a longer token is
    shown as its first 40 characters and its length, with no interpreter
    text.  `parse_ratio`, `parse_rational` and `Poly.from_string` give
    them all."""
    message = f"bad rational {text!r}{detail}"
    if detail == "digits":
        if not 0 < DIGIT_LIMIT < len(BIG):
            pytest.skip("this interpreter reads 5,000-digit ints")
        message = f"bad rational {text[:40]!r}... ({len(text)} characters): too many digits"
    for parse in (parse_ratio, parse_rational, lambda t: Poly.from_string("1," + t)):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("9" * 39 + "x", "bad rational '" + "9" * 39 + "x'"),
    ("9" * 40 + "x", "bad rational '" + "9" * 40 + "'... (41 characters)"),
    ("9" * 4000 + "/0", "bad rational '" + "9" * 40 + "'... (4002 characters): "
                        "zero denominator"),
    ("9" * 38 + "/0", "bad rational '" + "9" * 38 + "/0': Fraction(" + "9" * 38 + ", 0)"),
], ids=["40-chars", "41-chars", "long-zero-denominator",
        "40-chars-zero-denominator"])
def test_parse_errors_quote_at_most_40_characters(text, message):
    """A token of up to 40 characters is echoed whole; a longer one as its
    first 40 characters and its length, and its numerator is not echoed
    again."""
    with pytest.raises(ParseError) as info:
        parse_ratio(text)
    assert str(info.value) == message


def test_poly_str_render():
    assert str(Poly([-1, -1, -1, 1])) == "x^3 - x^2 - x - 1"
    assert str(Poly([1, -3, 1])) == "x^2 - 3*x + 1"
    assert str(Poly()) == "0"



def test_trace_minpoly_examples():
    assert trace_minpoly(Poly([1, -3, 1])) == Poly([-3, 1])           # index 2
    assert trace_minpoly(Poly([-2, 1])) == Poly([Fraction(-5, 2), 1])  # beta = 2 + 1/2
    assert trace_minpoly(Poly([-3, -1, 0, 1])) == Poly(
        [Fraction(-13, 3), -4, Fraction(1, 3), 1])
    # (y - 2)(y - 3)(y + 1): beta takes the distinct values 5/2, 10/3 and -2
    assert trace_minpoly(Poly([6, 1, -4, 1])) == (
        Poly([Fraction(-5, 2), 1]) * Poly([Fraction(-10, 3), 1]) * Poly([2, 1]))
    # (y^2 + 1)(y^2 - 3y + 1): beta is 0 twice and 3 twice
    assert trace_minpoly(Poly([1, 0, 1]) * Poly([1, -3, 1])) == Poly([0, -3, 1])
    # a reducible quintic whose beta has a minimal polynomial of degree 4
    assert trace_minpoly(Poly([-1, 2, 1, 3, -4, 1])) == Poly([12, 8, -4, -3, 1])


@pytest.mark.parametrize("coeffs", [
    [-1, -1, -1, -1, -1, 1],
    [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1],       # Lehmer's polynomial
    [-1, 2, 1, 3, -4, 1],                         # reducible, radical of degree 4
    [3, -2, 0, 5, 1, -1, 2, 1],
])
def test_trace_minpoly_matches_sympy_resultant(coeffs):
    assert trace_minpoly(Poly(coeffs)) == trace_minpoly_by_sympy(Poly(coeffs))

try:
    from hypothesis import assume, example, given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is an optional test dependency
    given = None


if given is None:

    def test_sturm_chain_properties():
        pytest.skip("hypothesis is not installed")

else:

    factors = st.lists(st.integers(-4, 4), min_size=2, max_size=3).map(Poly)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(factors, min_size=1, max_size=3), st.booleans())
    def test_sturm_chain_raises_exactly_when_not_squarefree(parts, square):
        p = Poly([1])
        for q in parts:
            p = p * q
        if square:
            p = p * parts[0]
        if p.is_zero:
            return
        try:
            chain = sturm_chain(p)
        except NonSquarefreeError as exc:
            assert not is_squarefree(p)
            assert str(exc) == ("polynomial is not squarefree: gcd with "
                                f"derivative is {poly_gcd(p, p.derivative())}")
        else:
            assert is_squarefree(p)
            head = Poly(chain[0])
            ratio = Fraction(head.leading, p.leading)
            assert ratio > 0 and head == p * ratio

    small = st.integers(-40, 40)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(small, min_size=1, max_size=8), small, st.integers(1, 30),
           st.booleans())
    def test_sign_at_matches_fraction_evaluation(coeffs, num, den, root):
        if root:      # a factor den*x - num makes num/den an exact zero
            coeffs = (Poly(coeffs) * Poly([-num, den])).coeffs
            coeffs = [int(c) for c in coeffs]
        value = Poly(coeffs)(Fraction(num, den))
        assert sign_at(coeffs, num, den) == (value > 0) - (value < 0)
        if root and any(coeffs):
            assert sign_at(coeffs, num, den) == 0

    sparse = st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=-5, max_value=5, max_denominator=4))
    leading = st.sampled_from([-3, -2, -1, Fraction(-1, 2), Fraction(2, 3), 1, 2])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(sparse, min_size=1, max_size=7), leading, st.data())
    def test_integer_chain_is_a_positive_multiple_of_the_fraction_chain(
            coeffs, lead, data):
        p = Poly(coeffs + [lead])
        try:
            oracle = sturm_chain_by_fractions(p)
        except NonSquarefreeError as exc:
            with pytest.raises(NonSquarefreeError) as info:
                sturm_chain(p)
            assert str(info.value) == str(exc)
            assert not is_squarefree(p)
            return
        chain = sturm_chain(p)
        assert is_squarefree(p)
        assert len(chain) == len(oracle)
        for q, r in zip(map(Poly, chain), oracle):
            ratio = Fraction(q.leading, r.leading)
            assert ratio > 0 and q == r * ratio
        bound = math.ceil(cauchy_root_bound(p))
        ends = st.fractions(min_value=-bound, max_value=bound, max_denominator=8)
        lo, hi = data.draw(ends), data.draw(ends)
        if lo < hi:
            assert count_real_roots(p, lo, hi) == count_real_roots_by_fractions(p, lo, hi)

    # leading coefficients: monic, units mod every trial prime, and ones
    # that vanish mod some (6) or all (30030) of them
    leads = st.sampled_from([1, 1, 1, -1, 17, 6, 30030])
    monic_factors = st.lists(st.integers(-20, 20), min_size=1, max_size=20).map(
        lambda c: Poly(c + [1]))

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(
        st.tuples(st.lists(st.integers(-50, 50), min_size=1, max_size=40), leads).map(
            lambda t: Poly(t[0] + [t[1]])),
        st.tuples(monic_factors, monic_factors).map(lambda t: t[0] * t[1]),
    ))
    def test_irreducible_mod_matches_powering_and_sympy(p):
        sympy = pytest.importorskip("sympy")
        coeffs = [int(c) for c in p.coeffs]
        x = sympy.symbols("x")
        for q in TRIAL_PRIMES + (257,):
            fast = _irreducible_mod(coeffs, q)
            assert fast == is_irreducible_mod_by_powering(p, q), (str(p), q)
            if coeffs[-1] % q:
                assert fast == sympy.Poly(coeffs[::-1], x, modulus=q).is_irreducible
            else:
                assert not fast

    halves = st.lists(st.integers(-9, 9), min_size=1, max_size=15).map(
        lambda c: Poly(c + [1]))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(-9, 9), min_size=1, max_size=30).map(lambda c: Poly(c + [1])),
        st.tuples(halves, halves).map(lambda t: t[0] * t[1]),
    ))
    @example(LEHMER)
    @example(AY19)
    @example(Poly([-1] * 7 + [1]))      # first certified at q = 7
    def test_certify_irreducible_returns_the_first_certifying_prime(p):
        expected = next(
            (q for q in TRIAL_PRIMES if is_irreducible_mod_by_powering(p, q)), None)
        assert certify_irreducible(p) == expected

    units = st.sampled_from([1, -1, 2, -2, 3, -3])

    def monic(constant, middle):
        return Poly([constant, *middle, 1])

    general = st.builds(monic, units, st.lists(st.integers(-4, 4), max_size=13))

    def reciprocal(sign, half, centre):
        # c_(d-i) = sign * c_i with c_0 = sign and c_d = 1, of even degree;
        # the centre coefficient must vanish when sign = -1, and then m has
        # the roots 1 and -1 (an odd-degree reciprocal m has one of them)
        centre = centre if sign == 1 else 0
        return monic(sign, half + [centre] + [sign * c for c in reversed(half)])

    def reciprocals(max_half):
        return st.builds(reciprocal, st.sampled_from([1, 1, 1, -1]),
                         st.lists(st.integers(-4, 4), max_size=max_half),
                         st.integers(-4, 4))

    # a reciprocal factor gives each of its values of beta twice, so in a
    # product with another factor the degree of beta's minimal polynomial
    # need not divide deg m (it is still at least deg m / 2)
    factor = st.builds(monic, units, st.lists(st.integers(-3, 3), max_size=6))
    products = st.builds(lambda f, g: f * g, factor | reciprocals(2), factor)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(general, reciprocals(6), products))
    def test_trace_minpoly_matches_krylov_and_charpoly(m):
        """The resultant kernel gives the minimal polynomial of lambda +
        1/lambda that Krylov elimination (over Z and over `Fraction`) finds,
        and the squarefree part of the characteristic polynomial; for
        irreducible m that polynomial is the index-th power of it."""
        assume(is_squarefree(m))
        field = field_at_a_real_root(m)
        assume(field is not None)
        lam = field.gen()
        beta = lam + lam.inverse()
        mu = trace_minpoly(m)
        assert mu == beta.min_poly() == min_poly_by_fractions(beta).monic()
        # each value of beta comes from at most two roots, y and 1/y
        assert m.degree <= 2 * mu.degree
        chi = charpoly_by_fractions(beta)
        assert chi // poly_gcd(chi, chi.derivative()) == mu
        if certify_irreducible(m) is not None:
            assert m.degree % mu.degree == 0
            assert chi == mu ** (m.degree // mu.degree)

    coefficients = st.lists(st.integers(-6, 6), max_size=5)

    @settings(max_examples=200, deadline=None)
    @given(coefficients, coefficients, coefficients, st.integers(0, 3), st.integers(0, 3))
    def test_primitive_gcd_matches_fraction_euclid(shared, a, b, pad_a, pad_b):
        """The integer remainder sequence finds the gcd that Euclid over
        `Fraction` finds, on inputs with a shared factor and trailing zeros."""
        p, q = Poly(shared) * Poly(a), Poly(shared) * Poly(b)
        g = primitive_gcd([int(c) for c in p.coeffs] + [0] * pad_a,
                          [int(c) for c in q.coeffs] + [0] * pad_b)
        assert (Poly(g).monic() if g else Poly()) == poly_gcd(p, q)
        assert not g or (g[-1] != 0 and math.gcd(*g) == 1)

    integers = st.lists(st.integers(-30, 30), max_size=7)

    @settings(max_examples=150, deadline=None)
    @given(integers, st.lists(st.integers(-6, 6), min_size=1, max_size=4),
           st.sampled_from([1, -1, 2, -3, 6]), st.integers(-5, 5))
    def test_integral_coefficients_have_one_normal_form(coeffs, low, lead, x):
        """A polynomial built from ints and one built from the equal den-1
        `Fraction`s are the same: plain int coefficients, equal, with one
        hash and one text.  Division, gcds, derivatives, root bounds and
        values on integral input stay exact and in normal form, never float."""
        p, q = Poly(coeffs), Poly([Fraction(c) for c in coeffs])
        assert p.coeffs == q.coeffs and all(type(c) is int for c in q.coeffs)
        assert p == q and hash(p) == hash(q)
        assert str(p) == str(q) and p.to_string() == q.to_string()
        d = Poly(low + [lead])
        quo, rem = divmod(p, d)
        assert quo * d + rem == p and rem.degree < d.degree
        g, u, v = poly_xgcd(p, d)
        assert u * p + v * d == g
        results = (quo, rem, g, u, v, d.monic(), p.derivative())
        for c in (c for r in results for c in r.coeffs):
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
        values = (p(x), p(Fraction(x, 2)), cauchy_root_bound(d))
        assert all(isinstance(y, (int, Fraction)) for y in values)

    rationals = st.fractions(min_value=-60, max_value=60, max_denominator=15)

    @given(st.lists(rationals, max_size=8))
    @example([Fraction(-1, 2), 0, Fraction(3, 4), -2])
    def test_repr_evaluates_to_the_polynomial(coeffs):
        """A falsifying example printed with `repr` can be pasted back."""
        p = Poly(coeffs)
        assert eval(repr(p), {"Poly": Poly}) == p
