import random

import pytest

from ietsaf import Poly, PolynomialError
from ietsaf import gf2


def brute_mul(a, b):
    # independent convolution over GF(2)
    if a == 0 or b == 0:
        return 0
    da, db = gf2.degree(a), gf2.degree(b)
    out = 0
    for i in range(da + db + 1):
        bit = 0
        for j in range(i + 1):
            bit ^= ((a >> j) & 1) & ((b >> (i - j)) & 1) if i - j <= db else 0
        out |= bit << i
    return out


def brute_irreducible(a):
    d = gf2.degree(a)
    if d <= 0:
        return False
    return all(gf2.mod(a, b) != 0
               for b in range(2, 2 ** (d // 2 + 1)) if gf2.degree(b) >= 1)


def test_mul_matches_convolution():
    rng = random.Random(2)
    for _ in range(200):
        a, b = rng.randrange(1, 256), rng.randrange(1, 256)
        assert gf2.mul(a, b) == brute_mul(a, b)


def test_reduction_then_multiply_by_x_plus_1():
    # (x^3 - x^2 - x - 1) mod 2 = x^3+x^2+x+1 = (x+1)^3; times (x+1) gives (x+1)^4 = x^4+1
    mbar = gf2.from_poly(Poly([-1, -1, -1, 1]))
    assert mbar == 0b1111
    product = gf2.mul(mbar, 0b11)
    assert product == brute_mul(mbar, 0b11)
    assert product == 0b10001  # x^4 + 1


def test_divmod_and_gcd():
    q, r = gf2.divmod_(0b1111, 0b11)
    assert gf2.mul(q, 0b11) ^ r == 0b1111
    assert gf2.gcd(0b1111, 0b101) == 0b101           # (x+1)^3, (x+1)^2
    assert gf2.gcd(0b1011, 0b1101) == 1              # x^3+x+1 and its reversal
    assert gf2.gcd(0b110, 0) == 0b110
    with pytest.raises(PolynomialError):
        gf2.divmod_(0b101, 0)


def test_reverse():
    assert gf2.reverse(0b1011) == 0b1101   # x^3+x+1 -> x^3+x^2+1
    assert gf2.reverse(0b10) == 1          # x -> 1
    assert gf2.is_self_reciprocal(0b10001) # x^4+1
    assert not gf2.is_self_reciprocal(0b1011)
    with pytest.raises(PolynomialError):
        gf2.reverse(0)


def test_factor_examples():
    assert gf2.factor(0b1111) == {0b11: 3}       # (x+1)^3
    assert gf2.factor(0b1011) == {0b1011: 1}     # x^3+x+1 irreducible
    assert gf2.factor(0b10) == {0b10: 1}         # x
    assert gf2.factor(1) == {}


def test_factor_product_and_irreducibility():
    rng = random.Random(13)
    for _ in range(120):
        a = rng.randrange(2, 2 ** 13)
        factors = gf2.factor(a)
        product = 1
        for f, e in factors.items():
            assert brute_irreducible(f), bin(f)
            for _ in range(e):
                product = gf2.mul(product, f)
        assert product == a


def test_from_poly_requires_integer_coeffs():
    from fractions import Fraction
    with pytest.raises(PolynomialError):
        gf2.from_poly(Poly([Fraction(1, 2), 1]))


def test_to_string():
    assert gf2.to_string(0b1011) == "x^3 + x + 1"
    assert gf2.to_string(1) == "1"
    assert gf2.to_string(0) == "0"
